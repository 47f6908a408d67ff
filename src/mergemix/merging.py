"""Weight-space merging: task-vector interpolation and checkpoint soups."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionError
from .params import as_params, check_same_dim
from .simplex import normalize_simplex_rows, uniform_weights


def merge(base: np.ndarray, experts: Sequence[np.ndarray],
          weights) -> np.ndarray:
    """Interpolate experts around a shared base: base + sum_k w_k (expert_k - base).

    One weight vector gives one (P,) vector; an (n, K) stack of weight rows
    gives the (n, P) stack in input order, row i bit-identical to merging at
    weights[i] alone, and the first bad row in row order raises. One-hot
    weights return the selected expert bit-exactly (no float round trip
    through the subtraction).
    """
    if len(experts) == 0:
        raise DimensionError("merge requires at least one expert")
    try:
        stacked = np.ndim(weights) >= 2
    except ValueError:  # rows of unequal lengths
        stacked = True
    w = normalize_simplex_rows(weights if stacked else [weights], len(experts))
    merged = merge_rows(base, experts, w)
    return merged if stacked else merged[0]


def merge_rows(base: np.ndarray, experts: Sequence[np.ndarray],
               w: np.ndarray) -> np.ndarray:
    """`merge` at an (n, len(experts)) stack that `normalize_simplex_rows`
    returned, used as it is: validating it again would renormalize it a
    second time."""
    base = as_params(base)
    stack = np.stack([as_params(e) for e in experts])
    check_same_dim(base, stack[0])
    if w.shape[1] != stack.shape[0]:
        raise DimensionError(f"{stack.shape[0]} experts but {w.shape[1]} weights")
    # A valid row is one-hot (one entry == 1.0 and every other == 0.0 or
    # -0.0) exactly when it has one nonzero entry x, which is x / x == 1.0.
    if np.count_nonzero(w) == w.shape[0]:  # every row has one
        return stack[w.argmax(axis=1)]
    merged = base + np.matmul(w[:, None, :], stack - base)[:, 0, :]
    if (w == 1.0).any():
        hot = np.count_nonzero(w, axis=1) == 1
        merged[hot] = stack[w[hot].argmax(axis=1)]
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
