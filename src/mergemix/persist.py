"""Run-directory persistence: atomic writes, checkpoints, CSV/JSON artifacts.

Artifacts are reproducible byte-for-byte: floats go through repr (shortest
exact round trip), JSON keys are sorted, CSVs use LF line endings, and
every file is written to a temp name then renamed so a crash never leaves
a half-written artifact.

Every JSON artifact, and the text the config digest hashes, comes from one
encoder here. It writes exactly the bytes of
`json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"`, in
pieces: `write_json` hands the file a few hundred pieces at a time, a flat
list of plain ints and finite floats is one `join` of `repr`, and a
generator is written as an array one element at a time, so a caller can
stream a large artifact (the surface, tree by tree) without building it
whole. Each piece is hashed as it is written: inside `recording_digests`,
every file written under its root is recorded with the sha256 of those
bytes, so a manifest never reads back what its run wrote. `file_digest`
reads a file 64 KiB at a time.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from json.encoder import encode_basestring
from pathlib import Path
from types import GeneratorType

import numpy as np

from .errors import MergeMixError
from .params import decode_params, encode_params, params_digest

CHECKPOINT_FORMAT = "mergemix-ckpt-v1"


def format_cell(value) -> str:
    """Stable text for one CSV cell ('.' decimal separator guaranteed)."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# (root, {path relative to root: sha256}) of the open recording_digests.
_RECORDING: ContextVar[tuple[Path, dict] | None] = ContextVar(
    "mergemix_recording", default=None)


@contextmanager
def recording_digests(root: str | Path) -> Iterator[dict[str, str]]:
    """Yield a dict that maps each file written under `root` while the
    block runs, by its path relative to `root`, to the sha256 of the bytes
    written, the last write of a path winning."""
    written: dict[str, str] = {}
    token = _RECORDING.set((Path(root), written))
    try:
        yield written
    finally:
        _RECORDING.reset(token)


@contextmanager
def _atomic_open(path: str | Path):
    """A `write(text)` that writes UTF-8 to a temp name, renamed onto `path`
    on success, and hashes the bytes it writes for recording_digests."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with _create(tmp) as fh:
            def write(text: str) -> None:
                data = text.encode("utf-8")
                digest.update(data)
                fh.write(data)
            yield write
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    recording = _RECORDING.get()
    if recording is not None:
        root, written = recording
        try:
            written[str(path.relative_to(root))] = digest.hexdigest()
        except ValueError:  # not under the recorded root
            pass


def _create(path: Path):
    """`path` opened for binary writing; its directory is made only when
    it is missing."""
    try:
        return open(path, "wb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "wb")


def atomic_write_text(path: str | Path, text: str) -> Path:
    with _atomic_open(path) as write:
        write(text)
    return Path(path)


_INF = float("inf")
_NUMBER_TYPES = frozenset((int, float))
# write_json hands the file the pieces gathered so far once there are this
# many: about ten surface trees, some 20 KB of text.
_FLUSH_PIECES = 256
_DIGEST_CHUNK = 1 << 16


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _encode(o, nl: str, out: list, write) -> None:
    """Append the JSON text of `o` to `out`; `nl` is a newline and the
    indent of the line `o` starts on. Once `out` holds _FLUSH_PIECES
    pieces, they are joined, passed to `write` and cleared."""
    if isinstance(o, str):
        out.append(encode_basestring(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple, GeneratorType)):
        _encode_array(o, nl, out, write)
    elif isinstance(o, dict):
        _encode_object(o, nl, out, write)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        f"is not JSON serializable")


def _encode_array(items, nl: str, out: list, write) -> None:
    inner = nl + "  "
    if not isinstance(items, GeneratorType):
        if not items:
            out.append("[]")
            return
        if _NUMBER_TYPES.issuperset(map(type, items)):
            text = ("," + inner).join(map(repr, items))
            # Only nan, inf and -inf have an "n" in their repr.
            if "n" not in text:
                out.append("[" + inner + text + nl + "]")
                return
    opening = sep = "[" + inner
    comma = "," + inner
    for item in items:
        out.append(sep)
        sep = comma
        _encode(item, inner, out, write)
        _spill(out, write)
    out.append("[]" if sep is opening else nl + "]")  # "[]": no items


def _encode_object(obj: dict, nl: str, out: list, write) -> None:
    if not obj:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    comma = "," + inner
    for key, value in sorted(obj.items()):
        key = _key_text(key)
        out.append(sep)
        sep = comma
        out.append(encode_basestring(key))
        out.append(": ")
        _encode(value, inner, out, write)
        _spill(out, write)
    out.append(nl + "}")


def _spill(out: list, write) -> None:
    if len(out) >= _FLUSH_PIECES:
        write("".join(out))
        out.clear()


def _emit_json(obj, write) -> None:
    """Write the text of dumps_json(obj) through `write`, in pieces."""
    out = []
    _encode(obj, "\n", out, write)
    out.append("\n")
    write("".join(out))


def dumps_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)` and a
    newline; a generator is encoded as an array."""
    buf = io.StringIO()
    _emit_json(obj, buf.write)
    return buf.getvalue()


def write_json(path: str | Path, obj) -> Path:
    """Write dumps_json(obj), streamed so the text is never whole in memory."""
    with _atomic_open(path) as write:
        _emit_json(obj, write)
    return Path(path)


def read_json(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        # A plain float is most cells; repr is what format_cell gives it.
        lines.append(",".join(repr(c) if type(c) is float else format_cell(c)
                              for c in row))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def file_digest(path: str | Path) -> str:
    """sha256 of the file's bytes, read _DIGEST_CHUNK bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_DIGEST_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def save_checkpoint(path: str | Path, theta: np.ndarray, model_spec: dict,
                    provenance: dict | None = None) -> Path:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "model_spec": model_spec,
        "param_count": int(np.asarray(theta).shape[0]),
        "params": encode_params(theta),
        "digest": params_digest(theta),
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return write_json(path, payload)


def load_checkpoint(path: str | Path) -> tuple[np.ndarray, dict]:
    data = read_json(path)
    if data.get("format") != CHECKPOINT_FORMAT:
        raise MergeMixError(f"unsupported checkpoint format {data.get('format')!r}")
    theta = decode_params(data["params"])
    if theta.shape[0] != data["param_count"]:
        raise MergeMixError("checkpoint param_count does not match payload")
    if params_digest(theta) != data["digest"]:
        raise MergeMixError("checkpoint digest mismatch: file corrupted")
    return theta, data
