"""Flat parameter vectors: validation, decimal text and digests.

Every model in this package is a single flat float64 vector. `as_params`
rejects anything else, including non-finite values, since downstream theory
checks need clean 64-bit arithmetic, and `check_same_dim` checks that
vectors line up. Checkpoints store each value as 17-significant-digit
decimal text, which round-trips float64 exactly; `params_digest` hashes
that text.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from .errors import DimensionError, NumericError


def as_params(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a 1-D float64 vector, rejecting empty or non-finite input."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"parameter vector must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise DimensionError("parameter vector must have length >= 1")
    if not np.all(np.isfinite(arr)):
        raise NumericError("parameter vector contains NaN or Inf")
    return arr


def check_same_dim(*vectors: np.ndarray) -> int:
    """Return the shared length of the given vectors, or raise DimensionError."""
    sizes = {v.shape[0] for v in vectors}
    if len(sizes) != 1:
        raise DimensionError(f"mismatched parameter lengths: {sorted(sizes)}")
    return sizes.pop()


def encode_params(theta: np.ndarray) -> list[str]:
    """Each value as decimal text with 17 significant digits, which
    round-trips float64 exactly."""
    return [format(x, ".17g")
            for x in np.asarray(theta, dtype=np.float64).tolist()]


def decode_params(texts: Sequence[str]) -> np.ndarray:
    return as_params([float(t) for t in texts])


def params_digest(theta: np.ndarray) -> str:
    """Content digest of a parameter vector (sha256 over its decimal text)."""
    payload = "\n".join(encode_params(theta)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
