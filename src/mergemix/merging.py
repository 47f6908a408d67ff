"""Weight-space merging: task-vector interpolation and checkpoint soups."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionError
from .params import as_params, check_same_dim
from .simplex import is_one_hot, normalize_simplex, uniform_weights


def merge(base: np.ndarray, experts: Sequence[np.ndarray],
          weights) -> np.ndarray:
    """Interpolate experts around a shared base: base + sum_k w_k (expert_k - base).

    One-hot weights return the selected expert bit-exactly (no float
    round trip through the subtraction).
    """
    return merge_many(base, experts, [weights])[0]


def merge_many(base: np.ndarray, experts: Sequence[np.ndarray],
               weights) -> np.ndarray:
    """`merge` at every weight row, as an (n, P) stack in input order.

    Each row goes through the same vector-matrix kernel as a single
    `w @ (stack - base)`, so row i is bit-identical to merging at weights[i]
    alone.
    """
    base = as_params(base)
    if len(experts) == 0:
        raise DimensionError("merge requires at least one expert")
    rows = [normalize_simplex(row) for row in weights]
    for row in rows:
        if row.shape[0] != len(experts):
            raise DimensionError(
                f"{len(experts)} experts but {row.shape[0]} weights"
            )
    w = np.reshape(rows, (len(rows), len(experts)))
    stack = np.stack([as_params(e) for e in experts])
    check_same_dim(base, stack[0])
    merged = base + np.matmul(w[:, None, :], stack - base)[:, 0, :]
    for i, row in enumerate(w):
        hot = is_one_hot(row)
        if hot is not None:
            merged[i] = stack[hot]
    return merged


def soup(checkpoints: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise arithmetic average of checkpoints.

    Implemented as a uniform merge around a zero base so the two code paths
    are the same operation by construction.
    """
    if len(checkpoints) == 0:
        raise DimensionError("soup requires at least one checkpoint")
    dim = as_params(checkpoints[0]).shape[0]
    return merge(np.zeros(dim), checkpoints, uniform_weights(len(checkpoints)))
