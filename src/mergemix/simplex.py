"""Probability-simplex utilities: validation, lattice enumeration, sampling."""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import BudgetExceededError, SimplexError

SIMPLEX_TOL = 1e-9
DEFAULT_POINT_BUDGET = 2_000_000
# Refinement searches an L-inf box of this many steps at 1/(5 * steps)
# around the coarse optimum; the box around a corner is the smallest, with
# lattice_size(k, REFINE_RADIUS) points.
REFINE_RADIUS = 5


def normalize_simplex(weights, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Validate weights against the simplex and renormalize the tolerated drift.

    Inputs whose sum is within `tol` of 1 (e.g. after a decimal-text round
    trip) are rescaled by their sum; anything worse is rejected.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] < 1:
        raise SimplexError(f"weights must be a 1-D vector, got shape {w.shape}")
    if np.any(w < 0):
        raise SimplexError(f"negative weight in {w.tolist()}")
    total = float(w.sum())
    if abs(total - 1.0) > tol:
        raise SimplexError(f"weights sum to {total}, not 1 within {tol}")
    if total != 1.0:
        w = w / total
    return w


def uniform_weights(k: int) -> np.ndarray:
    """Uniform simplex point whose float sum is exactly 1.0.

    1/k does not sum to 1 exactly for every k, so the last entry absorbs
    the rounding drift.
    """
    if k < 1:
        raise SimplexError("need k >= 1")
    w = np.full(k, 1.0 / k)
    w[-1] = 1.0 - float(w[:-1].sum())
    return w


def is_one_hot(weights: np.ndarray) -> int | None:
    """Index of the single unit weight, or None if not exactly one-hot."""
    hot = None
    for i, x in enumerate(weights):
        if x == 1.0:
            if hot is not None:
                return None
            hot = i
        elif x != 0.0:
            return None
    return hot


def lattice_steps(resolution: float) -> int:
    """Number of lattice steps per axis for a given resolution."""
    if not 0 < resolution <= 1:
        raise SimplexError(f"resolution must be in (0, 1], got {resolution}")
    return max(1, round(1.0 / resolution))


def lattice_size(k: int, steps: int) -> int:
    return comb(steps + k - 1, k - 1)


def simplex_lattice(k: int, steps: int,
                    budget: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    """All points of the simplex lattice {c/steps}, lexicographically ascending."""
    size = lattice_size(k, steps)
    if size > budget:
        raise BudgetExceededError(
            f"simplex lattice has {size} points, exceeding the budget of {budget}"
        )
    out = np.empty((size, k), dtype=np.float64)
    comp = [0] * k
    row = 0

    def rec(pos: int, remaining: int):
        nonlocal row
        if pos == k - 1:
            comp[pos] = remaining
            out[row] = [c / steps for c in comp]
            row += 1
            return
        for c in range(remaining + 1):
            comp[pos] = c
            rec(pos + 1, remaining - c)

    rec(0, steps)
    return out


def boxed_lattice(center: np.ndarray, steps: int, radius: int,
                  budget: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    """Lattice points at `1/steps` within `radius` steps (L-inf) of `center`.

    Used for the local refinement pass around a coarse optimum; `center`
    must itself lie on the lattice.
    """
    k = center.shape[0]
    center_units = np.rint(center * steps).astype(int)
    lo = np.maximum(center_units - radius, 0)
    hi = np.minimum(center_units + radius, steps)
    rows: list[list[float]] = []
    comp = [0] * k

    def rec(pos: int, remaining: int):
        if pos == k - 1:
            if lo[pos] <= remaining <= hi[pos]:
                if len(rows) == budget:
                    raise BudgetExceededError(
                        f"refinement lattice exceeds the budget of {budget}"
                    )
                comp[pos] = remaining
                rows.append([c / steps for c in comp])
            return
        tail_lo = int(lo[pos + 1 :].sum())
        tail_hi = int(hi[pos + 1 :].sum())
        for c in range(lo[pos], hi[pos] + 1):
            rest = remaining - c
            if tail_lo <= rest <= tail_hi:
                comp[pos] = c
                rec(pos + 1, rest)

    rec(0, steps)
    return np.asarray(rows, dtype=np.float64)


def dirichlet_points(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws from the (k-1)-simplex."""
    return rng.dirichlet(np.ones(k), size=n)
