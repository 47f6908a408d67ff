"""Run-directory persistence: atomic writes, checkpoints, CSV/JSON artifacts.

Artifacts are reproducible byte-for-byte: floats go through repr (shortest
exact round trip), JSON keys are sorted, CSVs use LF line endings, and
every file is written to a temp name then renamed so a crash never leaves
a half-written artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

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


@contextmanager
def _atomic_open(path: str | Path):
    """Text file handle on a temp name, renamed onto `path` on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> Path:
    with _atomic_open(path) as fh:
        fh.write(text)
    return Path(path)


_JSON_FORMAT = {"sort_keys": True, "indent": 2, "ensure_ascii": False}


def dumps_json(obj) -> str:
    return json.dumps(obj, **_JSON_FORMAT) + "\n"


def write_json(path: str | Path, obj) -> Path:
    """Write dumps_json(obj), streamed so the text is never whole in memory."""
    with _atomic_open(path) as fh:
        json.dump(obj, fh, **_JSON_FORMAT)
        fh.write("\n")
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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
