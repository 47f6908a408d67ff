"""Weight-space merging: task-vector interpolation and checkpoint soups."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionError, MergeMixError
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


def select_top_checkpoints(trajectory: Sequence, scores: Sequence[float],
                           n: int) -> list:
    """The n best-scoring trajectory entries, returned in trajectory order.

    Ties go to the earlier step.
    """
    if len(trajectory) != len(scores):
        raise DimensionError("one score per trajectory entry required")
    if not 1 <= n <= len(trajectory):
        raise MergeMixError(
            f"n={n} out of range for a trajectory of {len(trajectory)}"
        )
    order = sorted(range(len(trajectory)), key=lambda i: (-float(scores[i]), i))
    keep = sorted(order[:n])
    return [trajectory[i] for i in keep]


def simulate_anneal(artifact, window: int | None = None,
                    top_n: int | None = None, scorer=None) -> np.ndarray:
    """Stand-in for learning-rate annealing: a soup over trajectory checkpoints.

    Either the trailing `window` checkpoints or the `top_n` best according
    to `scorer(point) -> float`.
    """
    points = list(artifact.trajectory)
    if (window is None) == (top_n is None):
        raise MergeMixError("pass exactly one of window= or top_n=")
    if window is not None:
        if not 1 <= window <= len(points):
            raise MergeMixError(f"window={window} out of range")
        chosen = points[-window:]
    else:
        if scorer is None:
            raise MergeMixError("top_n selection requires a scorer")
        scores = [float(scorer(p)) for p in points]
        chosen = select_top_checkpoints(points, scores, top_n)
    return soup([p.params for p in chosen])
