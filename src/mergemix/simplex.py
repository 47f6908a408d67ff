"""Probability-simplex utilities: validation, lattice enumeration, sampling.

Both lattices the search sweeps, the full simplex lattice and the box
around a coarse optimum, come from one non-recursive enumerator, `_lattice`:
it builds the points coordinate by coordinate with `np.repeat`, checks the
budget before building anything larger, and writes the rows in ascending
lexicographic order into one preallocated array.
"""

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
    if not np.all(np.isfinite(w)):
        raise SimplexError(f"non-finite weight in {w.tolist()}")
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


def _lattice(lo: np.ndarray, hi: np.ndarray, steps: int, budget: int,
             label: str) -> np.ndarray:
    """Integer points `lo <= c <= hi` with `sum(c) == steps`, divided by
    `steps`, in ascending lexicographic order.

    Coordinates are chosen left to right. At coordinate `pos` a prefix with
    `rest` units left takes, in ascending order, every value that leaves the
    coordinates after it a total they can hold; its children are contiguous,
    so each level lists its prefixes lexicographically. Every such prefix
    completes to at least one point, so no level is larger than the result,
    and checking each level against the budget raises before any array
    larger than the budget is built. Each level keeps one (value, parent)
    pair of index arrays; the rows are then written, last coordinate first,
    into one preallocated array, releasing each level once it is written.
    """
    k = lo.shape[0]
    # Fewest and most units that coordinates pos.. can hold; 0 past the end.
    tail_lo = np.append(np.cumsum(lo[::-1])[::-1], 0)
    tail_hi = np.append(np.cumsum(hi[::-1])[::-1], 0)
    rest = np.array([steps])
    levels = []  # (value, parent prefix index) per coordinate
    for pos in range(k):
        first = np.maximum(lo[pos], rest - tail_hi[pos + 1])
        last = np.minimum(hi[pos], rest - tail_lo[pos + 1])
        counts = np.maximum(last - first + 1, 0)
        n = int(counts.sum())
        if n > budget:
            raise BudgetExceededError(f"{label} exceeds the budget of {budget}")
        parent = np.repeat(np.arange(rest.shape[0]), counts)
        # The j-th child of a prefix takes first + j.
        value = np.arange(n)
        value += (first - (np.cumsum(counts) - counts))[parent]
        rest = rest[parent]
        rest -= value
        levels.append((value, parent))
    out = np.empty((rest.shape[0], k), dtype=np.float64)
    del rest
    row = None  # each output row's index into the current level
    for pos in range(k - 1, -1, -1):
        value, parent = levels.pop()
        out[:, pos] = value if row is None else value[row]
        row = parent if row is None else parent[row]
    out /= steps  # the same correctly rounded quotient as int c / steps
    return out


def simplex_lattice(k: int, steps: int,
                    budget: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    """All points of the simplex lattice {c/steps}, lexicographically ascending."""
    return _lattice(np.zeros(k, dtype=np.int64), np.full(k, steps, dtype=np.int64),
                    steps, budget, "simplex lattice")


def boxed_lattice(center: np.ndarray, steps: int, radius: int,
                  budget: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    """Lattice points at `1/steps` within `radius` steps (L-inf) of `center`.

    Used for the local refinement pass around a coarse optimum; `center`
    must itself lie on the lattice.
    """
    center_units = np.rint(center * steps).astype(np.int64)
    lo = np.maximum(center_units - radius, 0)
    hi = np.minimum(center_units + radius, steps)
    return _lattice(lo, hi, steps, budget, "refinement lattice")


def dirichlet_points(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws from the (k-1)-simplex."""
    return rng.dirichlet(np.ones(k), size=n)
