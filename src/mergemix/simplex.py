"""Probability-simplex utilities: validation, lattices, sampling.

The full simplex lattice and the box around a coarse optimum come from one
non-recursive enumerator, `_lattice`: it builds the points coordinate by
coordinate with `np.repeat`, checks the budget before building anything
larger, and writes the rows in ascending lexicographic order into one
preallocated array. The search builds neither: `box_size` counts a
lattice's points, and `lattice_argmax` branches on the same per-coordinate
ranges (`_level`, `_expand`), keeping only the prefixes whose bound can
still reach the best value.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

import numpy as np

from .errors import BudgetExceededError, DimensionError, SimplexError

SIMPLEX_TOL = 1e-9
DEFAULT_POINT_BUDGET = 2_000_000
# Refinement searches an L-inf box of this many steps at 1/(5 * steps)
# around the coarse optimum; the box around a corner is the smallest, with
# lattice_size(k, REFINE_RADIUS) points.
REFINE_RADIUS = 5


def normalize_simplex(weights) -> np.ndarray:
    """Validate weights against the simplex and renormalize the tolerated drift.

    Inputs whose sum is within SIMPLEX_TOL of 1 (e.g. after a decimal-text
    round trip) are rescaled by their sum; anything worse is rejected. This
    is the one-row case of `normalize_simplex_rows`.

    Renormalizing is not idempotent: a normalized row can sum to 1 +- 1 ulp,
    and dividing it by that sum again changes its last bits. A path that
    normalizes a row twice gives different weights from one that normalizes
    it once.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] < 1:
        raise SimplexError(f"weights must be a 1-D vector, got shape {w.shape}")
    return normalize_simplex_rows(w[None])[0]


def normalize_simplex_rows(weights, width: int | None = None) -> np.ndarray:
    """`normalize_simplex` of every weight row, as one (n, k) stack.

    Row i is bit-identical to normalize_simplex(weights[i]), and the first
    bad row in row order raises the SimplexError that `normalize_simplex`
    raises for it. Only when every row is valid does a row whose length is
    not `width` (by default, the first row's length) raise DimensionError.
    No rows give an empty (0, width) stack.
    """
    try:
        w = np.ascontiguousarray(weights, dtype=np.float64)
    except (TypeError, ValueError):  # rows of unequal lengths, or an iterator
        w = None
    if w is None or w.ndim != 2 or w.size == 0:
        # Not one stack of rows: each row is checked on its own.
        rows = [normalize_simplex(row) for row in weights]
        for i, row in enumerate(rows):
            _check_width(i, row.shape[0], rows[0].shape[0] if width is None else width)
        return np.stack(rows) if rows else np.empty((0, width or 0))
    # Each row sum is bit-identical to that row's own sum. `w >= 0` is
    # False for NaN, so a row that passes both checks is finite.
    if (w >= 0).all():
        totals = w.sum(axis=1)
        if (np.abs(totals - 1.0) <= SIMPLEX_TOL).all():
            if width is not None:
                _check_width(0, w.shape[1], width)
            # Dividing by a sum of exactly 1.0 leaves a row's bits unchanged.
            return w / totals[:, None]
    raise SimplexError(_first_fault(w))


def _first_fault(w: np.ndarray) -> str:
    """What is wrong with the first bad row, checked in `normalize_simplex`'s
    order: non-finite weights, then negative ones, then the sum."""
    finite = np.isfinite(w).all(axis=1)
    negative = (w < 0).any(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in bad rows
        totals = w.sum(axis=1)
    i = int(np.argmax(~finite | negative | ~(np.abs(totals - 1.0) <= SIMPLEX_TOL)))
    if not finite[i]:
        return f"non-finite weight in {w[i].tolist()}"
    if negative[i]:
        return f"negative weight in {w[i].tolist()}"
    return f"weights sum to {float(totals[i])}, not 1 within {SIMPLEX_TOL}"


def _check_width(row: int, length: int, width: int) -> None:
    if length != width:
        raise DimensionError(f"weight row {row} has {length} entries, expected {width}")


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


def lattice_steps(resolution: float) -> int:
    """Number of lattice steps per axis for a given resolution."""
    if not 0 < resolution <= 1:
        raise SimplexError(f"resolution must be in (0, 1], got {resolution}")
    return max(1, round(1.0 / resolution))


def lattice_size(k: int, steps: int) -> int:
    return comb(steps + k - 1, k - 1)


def _over_budget(n: int, budget: int, label: str) -> None:
    if n > budget:
        raise BudgetExceededError(f"{label} exceeds the budget of {budget}")


def _tails(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fewest and most units that coordinates pos.. can hold; 0 past the end."""
    return (np.append(np.cumsum(lo[::-1])[::-1], 0),
            np.append(np.cumsum(hi[::-1])[::-1], 0))


def _level(lo: np.ndarray, hi: np.ndarray, tails, pos: int,
           rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First value and value count of coordinate `pos` for each prefix.

    A prefix with `rest` units left takes every value that leaves the
    coordinates after it a total they can hold, so each child completes to
    at least one point.
    """
    tail_lo, tail_hi = tails
    first = np.maximum(lo[pos], rest - tail_hi[pos + 1])
    last = np.minimum(hi[pos], rest - tail_lo[pos + 1])
    return first, np.maximum(last - first + 1, 0)


def _expand(first: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, parent prefix index) of every child, parents in order and each
    parent's children ascending, so a level stays lexicographic."""
    parent = np.repeat(np.arange(counts.shape[0]), counts)
    # The j-th child of a prefix takes first + j.
    value = np.arange(parent.shape[0])
    value += (first - (np.cumsum(counts) - counts))[parent]
    return value, parent


def _lattice(lo: np.ndarray, hi: np.ndarray, steps: int, budget: int,
             label: str) -> np.ndarray:
    """Integer points `lo <= c <= hi` with `sum(c) == steps`, in ascending
    lexicographic order.

    Coordinates are chosen left to right (`_level`); each prefix's children
    are contiguous, so each level lists its prefixes lexicographically.
    Every prefix completes to at least one point, so no level is larger than
    the result, and checking each level against the budget raises before
    any array larger than the budget is built. Each level keeps one (value,
    parent) pair of index arrays; the rows are then written, last coordinate
    first, into one preallocated array, releasing each level once it is
    written.
    """
    k = lo.shape[0]
    tails = _tails(lo, hi)
    rest = np.array([steps])
    levels = []  # (value, parent prefix index) per coordinate
    for pos in range(k):
        first, counts = _level(lo, hi, tails, pos, rest)
        _over_budget(int(counts.sum()), budget, label)
        value, parent = _expand(first, counts)
        rest = rest[parent]
        rest -= value
        levels.append((value, parent))
    out = np.empty((rest.shape[0], k), dtype=np.int64)
    del rest
    row = None  # each output row's index into the current level
    for pos in range(k - 1, -1, -1):
        value, parent = levels.pop()
        out[:, pos] = value if row is None else value[row]
        row = parent if row is None else parent[row]
    return out


def simplex_lattice(k: int, steps: int,
                    budget: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    """All points of the simplex lattice {c/steps}, lexicographically ascending."""
    # The same correctly rounded quotient as int c / steps.
    return _lattice(np.zeros(k, dtype=np.int64), np.full(k, steps, dtype=np.int64),
                    steps, budget, "simplex lattice") / steps


def box_limits(center: np.ndarray, steps: int,
               radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer limits of the lattice box at `1/steps` within `radius` steps
    (L-inf) of `center`, clipped to [0, steps]; `center` must lie on the
    lattice."""
    center_units = np.rint(center * steps).astype(np.int64)
    return (np.maximum(center_units - radius, 0),
            np.minimum(center_units + radius, steps))


def boxed_lattice(center: np.ndarray, steps: int, radius: int,
                  budget: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    """Lattice points at `1/steps` within `radius` steps (L-inf) of `center`.

    Used for the local refinement pass around a coarse optimum; `center`
    must itself lie on the lattice.
    """
    lo, hi = box_limits(center, steps, radius)
    return _lattice(lo, hi, steps, budget, "refinement lattice") / steps


def box_size(lo: np.ndarray, hi: np.ndarray, steps: int, budget: int,
             label: str) -> int:
    """How many rows `_lattice(lo, hi, steps, ...)` has, without building
    any; raises its BudgetExceededError when they exceed `budget`."""
    ways = [1] + [0] * steps  # ways[s]: prefixes summing to s
    for a, b in zip(lo.tolist(), hi.tolist()):
        below = list(accumulate(ways, initial=0))  # below[s] = sum(ways[:s])
        # A prefix sums to s with c in [a, b] from prefixes at s - b .. s - a.
        ways = [below[max(s - a + 1, 0)] - below[max(s - b, 0)]
                for s in range(steps + 1)]
    _over_budget(ways[steps], budget, label)
    return ways[steps]


def incumbent_seeds(k: int, steps: int) -> np.ndarray:
    """Integer points of the lattice {c/steps} to start a search from: its
    quarter sub-lattice (corners included) when that lies on it, else its
    corners."""
    if steps % 4:
        return np.eye(k, dtype=np.int64) * steps
    return _lattice(np.zeros(k, dtype=np.int64), np.full(k, 4), 4,
                    DEFAULT_POINT_BUDGET, "seed lattice") * (steps // 4)


def lattice_argmax(lo: np.ndarray, hi: np.ndarray, steps: int, bound,
                   seeds: np.ndarray) -> np.ndarray:
    """The lexicographically first maximizer of a value over the integer
    points `lo <= c <= hi` with `sum(c) == steps`, by branch and bound.

    `bound(box_lo, box_hi)` maps (n, k) integer boxes to an upper bound of
    the value over each box; on a single point (`box_lo == box_hi`) it must
    be the value itself. The best of the `seeds`, (m, k) points of the
    lattice, is the first incumbent. Coordinates are branched one at a
    time, in `_lattice`'s level order, largest incumbent coordinate first
    (ties by index); each prefix is bounded over the box its free
    coordinates can still reach and dropped when its bound is strictly below
    the best point value seen. At the last level every box is a point, so
    the survivors are exactly the points that tie the maximum, and the
    first of them in ascending lexicographic order is the first maximum an
    exhaustive sweep finds.
    """
    k = lo.shape[0]
    seed_values = bound(seeds, seeds)
    incumbent = int(np.argmax(seed_values))
    best = seed_values[incumbent]
    order = np.lexsort((np.arange(k), -seeds[incumbent]))
    unorder = np.argsort(order)
    lo, hi = lo[order], hi[order]
    tails = tail_lo, tail_hi = _tails(lo, hi)
    rest = np.array([steps])
    fixed = np.empty((1, 0), dtype=np.int64)  # chosen coordinates, in order
    for pos in range(k - 1):
        value, parent = _expand(*_level(lo, hi, tails, pos, rest))
        fixed = np.column_stack((fixed[parent], value))
        rest = rest[parent] - value
        # A free coordinate holds at least what the other free ones cannot
        # take, and at most what they leave.
        free_lo, free_hi = lo[pos + 1:], hi[pos + 1:]
        box_lo = np.maximum(free_lo, rest[:, None] - (tail_hi[pos + 1] - free_hi))
        box_hi = np.minimum(free_hi, rest[:, None] - (tail_lo[pos + 1] - free_lo))
        bounds = bound(np.column_stack((fixed, box_lo))[:, unorder],
                       np.column_stack((fixed, box_hi))[:, unorder])
        if pos == k - 2:  # one free coordinate left: every box is a point
            best = max(best, bounds.max())
        keep = ~(bounds < best)
        fixed, rest = fixed[keep], rest[keep]
    # Every survivor is a point whose value is the maximum.
    points = np.column_stack((fixed, rest))[:, unorder]
    return points[np.lexsort(points.T[::-1])[0]]


def dirichlet_points(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws from the (k-1)-simplex."""
    return rng.dirichlet(np.ones(k), size=n)
