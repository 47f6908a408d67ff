"""Deterministic gradient-boosted regression trees.

Small-sample least-squares boosting: axis-aligned splits chosen by exact
SSE reduction, candidate thresholds at midpoints of consecutive sorted
values, features scanned in fixed order with strict improvement so ties
resolve the same way on every run. No row or feature subsampling, hence no
randomness anywhere in fit or predict.

A threshold always separates exactly the rows it was scored on: rows equal
to it go left, and where the midpoint of two adjacent doubles rounds up to
the higher one, the lower one is the threshold instead.

Splits are found exact-greedy on presorted columns, as in XGBoost (Chen &
Guestrin, KDD 2016): x is stably argsorted once per fit, and each node
filters that order to its own rows, so every feature's sorted view comes
without another sort. The split search over all features and thresholds of
a node is one array computation; the flat first maximum keeps the
first-feature, first-threshold tie rule. Its two prefix sums, of y and of
y², come from one pass: each round packs its residual as the complex vector
y + 1j * y², and a node runs one complex cumsum over its rows in each
feature's order. Complex addition adds the two parts apart, in the order of
a float64 cumsum, so both parts are the floats of their own cumsum; the
gains are then computed in place. A node one level above max_depth writes
its two leaves itself. Each round's residual update reuses the leaf values
the rows reached while the tree grew.

Predict works on blocks of PREDICT_BLOCK_ROWS rows, transposed so that each
feature is one contiguous column. A tree is evaluated as nested `np.where`
over one column comparison per internal node; the ensemble folds the
learning rate into the leaf values and sums the trees in order. Both give
the same floats as routing each row down the tree. An ensemble builds those
routes once and reuses them until its trees change, so a small predict call
costs little more than its `np.where` passes.

A fit can hand back the boosting sum it accumulated at the training rows
(`fit(x, y, out=...)`): the same comparisons and the same `lr * value` sum
in the same order as predict, hence the same floats as `predict(x)`
without a second pass over the trees.

On a simplex lattice {c/steps} an ensemble can also bound itself
(`lattice_bound`): each leaf of the cached routes is an axis-aligned box,
so the largest leaf value per tree that an integer box meets, summed as
predict sums, bounds the prediction over the box (Misic, "Optimization of
Tree Ensembles", Operations Research 2020). Leaves are kept eight to a
uint8 mask, for any tree depth; a group's leaves are stored in descending
value order, so one 256-entry lowest-set-bit table, shared by all groups,
finds the largest leaf in a mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, MergeMixError
from .simplex import _expand

PREDICT_BLOCK_ROWS = 4096
LEAF_GROUP = 8  # leaves per uint8 mask in lattice bounds


def _column_blocks(x: np.ndarray):
    """(start, cols) per block of rows; cols[f] is feature f, contiguous."""
    for start in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
        yield start, np.ascontiguousarray(x[start:start + PREDICT_BLOCK_ROWS].T)


def _evaluate(route, cols: np.ndarray):
    """Value of a route (see RegressionTree._route) for every column of a block.

    A single-leaf route gives a float, which broadcasts.
    """
    if isinstance(route, float):
        return route
    f, threshold, left, right = route
    return np.where(cols[f] <= threshold, _evaluate(left, cols),
                    _evaluate(right, cols))


# The recursions below are module functions, not closures: a closure that
# calls itself is a reference cycle, which would keep every tree's node
# lists alive until the cyclic collector runs.

def _build_route(lists: tuple, node: int, depth: int, max_depth: int,
                 scale: float):
    features, thresholds, lefts, rights, values = lists
    if features[node] < 0 or depth > max_depth:
        return scale * values[node]
    return (features[node], thresholds[node],
            _build_route(lists, lefts[node], depth + 1, max_depth, scale),
            _build_route(lists, rights[node], depth + 1, max_depth, scale))


def _route_leaves(route, values: list, splits: list) -> None:
    """Append a route's leaf values to `values`, left to right, and one
    (feature, threshold, first, middle, end) per split: leaves first ..
    middle - 1 lie left of it (x <= threshold), middle .. end - 1 right."""
    if isinstance(route, float):
        values.append(route)
        return
    f, threshold, left, right = route
    first = len(values)
    _route_leaves(left, values, splits)
    middle = len(values)
    _route_leaves(right, values, splits)
    splits.append((f, threshold, first, middle, len(values)))


# Lowest set bit of every uint8 mask, LEAF_GROUP for the empty mask.
_LOWEST_BIT = np.array([LEAF_GROUP] + [(m & -m).bit_length() - 1
                                       for m in range(1, 256)], dtype=np.uint8)


@dataclass(frozen=True)
class _LeafBoxes:
    """Every leaf of an ensemble as a box, LEAF_GROUP leaves to a group.

    A leaf is reached by the x with `above[leaf, f] < x[f] <= below[leaf, f]`
    for every feature f. Each tree's leaves fill whole groups, padded with
    -inf values, and bit j of a group's mask stands for its slot j. A
    group's slots hold its leaves in descending value order, so the largest
    value among the leaves in a mask is that of its lowest set bit.
    """

    above: np.ndarray  # (slots, features)
    below: np.ndarray  # (slots, features)
    # Flat (groups * (LEAF_GROUP + 1),): each group's leaf values by slot,
    # then -inf, the largest value of the empty mask.
    values: np.ndarray
    offsets: np.ndarray  # g * (LEAF_GROUP + 1) per group
    starts: np.ndarray | None  # each tree's first group; None if one each

    @classmethod
    def from_routes(cls, routes: list) -> "_LeafBoxes":
        values, splits, starts = [], [], []
        for route in routes:
            starts.append(len(values) // LEAF_GROUP)
            _route_leaves(route, values, splits)
            values.extend([-np.inf] * (-len(values) % LEAF_GROUP))
        slots = np.asarray(values, dtype=np.float64)
        groups = slots.shape[0] // LEAF_GROUP
        split = np.asarray(splits, dtype=np.float64).reshape(-1, 5)
        feature, threshold = split[:, 0].astype(np.int64), split[:, 1]
        first, middle, end = split[:, 2:].astype(np.int64).T
        width = int(feature.max()) + 1 if splits else 0
        above = np.full((slots.shape[0], width), -np.inf)
        below = np.full((slots.shape[0], width), np.inf)
        leaf, owner = _expand(first, middle - first)  # x <= threshold
        np.minimum.at(below, (leaf, feature[owner]), threshold[owner])
        leaf, owner = _expand(middle, end - middle)  # x > threshold
        np.maximum.at(above, (leaf, feature[owner]), threshold[owner])
        # Sort each group's slots by descending value; padding goes last.
        order = np.argsort(-slots.reshape(groups, LEAF_GROUP), axis=1,
                           kind="stable")
        order = (order + LEAF_GROUP * np.arange(groups)[:, None]).ravel()
        slots = slots[order].reshape(groups, LEAF_GROUP)
        return cls(above[order], below[order],
                   np.column_stack((slots, np.full(groups, -np.inf))).ravel(),
                   np.arange(groups) * (LEAF_GROUP + 1),
                   None if groups == len(starts) else np.asarray(starts))

    def masks(self, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """(reach_up, reach_down), each (features, steps + 1, groups) uint8.

        On the lattice {c/steps}, reach_up[f, v] marks the leaves reached at
        some c[f] >= v and reach_down[f, v] those reached at some c[f] <= v;
        a box lo <= c <= hi meets the leaves in reach_up[f, lo[f]] &
        reach_down[f, hi[f]] for every f. The lattice's own floats go
        through the comparison predict makes, x <= threshold.
        """
        grid = np.arange(steps + 1) / steps
        # searchsorted "right" counts the grid values <= a threshold, so a
        # leaf's lattice values on f run from `first` to `last`; an
        # unreached leaf has first = steps + 1 or last = -1.
        first = np.searchsorted(grid, self.above, side="right")
        last = np.searchsorted(grid, self.below, side="right") - 1
        features, groups = self.above.shape[1], self.offsets.shape[0]
        slot = np.arange(self.above.shape[0])
        bit = np.left_shift(1, slot % LEAF_GROUP).astype(np.uint8)
        f = np.arange(features)[None, :]
        g = (slot // LEAF_GROUP)[:, None]
        # Each leaf's bit lands at its first (last) value and is then
        # carried to every larger (smaller) value; row steps + 1 takes the
        # unreached leaves and is dropped.
        down = np.zeros((features, steps + 2, groups), dtype=np.uint8)
        np.bitwise_or.at(down, (f, first, g), bit[:, None])
        up = np.zeros((features, steps + 2, groups), dtype=np.uint8)
        np.bitwise_or.at(up, (f, steps - last, g), bit[:, None])
        return (np.bitwise_or.accumulate(up, axis=1)[:, steps::-1],
                np.bitwise_or.accumulate(down, axis=1)[:, :steps + 1])


@dataclass
class RegressionTree:
    """Flat-array binary tree; features[i] == -1 marks a leaf."""

    features: np.ndarray
    thresholds: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    values: np.ndarray
    max_depth: int

    def _route(self, scale: float = 1.0):
        """The tree as nested (feature, threshold, left, right) tuples.

        Leaves become `scale * value`. Like a row-by-row walk, a route stops
        max_depth + 1 levels down even if a stored tree goes deeper.
        """
        lists = (self.features.tolist(), self.thresholds.tolist(),
                 self.lefts.tolist(), self.rights.tolist(), self.values.tolist())
        return _build_route(lists, 0, 0, self.max_depth, scale)

    def predict(self, x: np.ndarray) -> np.ndarray:
        route = self._route()
        out = np.empty(x.shape[0])
        for start, cols in _column_blocks(x):
            out[start:start + cols.shape[1]] = _evaluate(route, cols)
        return out

    def to_dict(self) -> dict:
        return {
            "features": self.features.tolist(),
            "thresholds": self.thresholds.tolist(),
            "lefts": self.lefts.tolist(),
            "rights": self.rights.tolist(),
            "values": self.values.tolist(),
            "max_depth": self.max_depth,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionTree":
        return cls(
            features=np.asarray(data["features"], dtype=np.int64),
            thresholds=np.asarray(data["thresholds"], dtype=np.float64),
            lefts=np.asarray(data["lefts"], dtype=np.int64),
            rights=np.asarray(data["rights"], dtype=np.int64),
            values=np.asarray(data["values"], dtype=np.float64),
            max_depth=int(data["max_depth"]),
        )


def _presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of x, and per feature its row indices and values ascending.

    Each is (features, rows). Equal values keep row order (stable sort).
    """
    cols = np.ascontiguousarray(x.T)
    order = np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T)
    return cols, order, np.take_along_axis(cols, order, axis=1)


def _best_split(xs: np.ndarray, ys: np.ndarray, total: float, total_sq: float,
                min_leaf: int, counts: np.ndarray):
    """Exact SSE-minimizing (feature, threshold) of one node, or None.

    `xs` holds the node's values sorted per feature and `ys` its targets in
    the same order, as complex y + 1j * y²; `total` and `total_sq` are the
    target sums in row order, and `counts` is 0.0, 1.0, 2.0, ... up to at
    least the node size. The flat argmax over (feature, threshold) takes the
    first maximum and only a positive gain wins, so ties resolve to the
    first feature and the first threshold.
    """
    n = ys.shape[1]
    parent_sse = total_sq - total * total / n
    # Complex addition adds the two parts apart, so one cumsum holds the
    # float64 cumsums of y (real part) and of y² (imaginary part) bit for bit.
    csum = np.cumsum(ys, axis=1)
    # Candidate split sizes i (left-leaf count), smallest first; column
    # i - 1 holds the last left row, so the columns of all i are one slice.
    last = slice(min_leaf - 1, n - min_leaf)
    sums = csum.real[:, last].copy()
    squares = csum.imag[:, last].copy()
    # gains = parent_sse - left_sse - right_sse, each operation in place.
    gains = sums * sums
    gains /= counts[min_leaf:n - min_leaf + 1]  # i
    np.subtract(squares, gains, out=gains)  # left_sse
    np.subtract(total, sums, out=sums)  # right sums
    sums *= sums
    sums /= counts[n - min_leaf:min_leaf - 1:-1]  # n - i
    np.subtract(total_sq, squares, out=squares)
    squares -= sums  # right_sse
    np.subtract(parent_sse, gains, out=gains)
    gains -= squares
    # Equal values admit no threshold.
    gains[xs[:, last] == xs[:, min_leaf:n - min_leaf + 1]] = -np.inf
    best = int(gains.argmax())
    if not gains.flat[best] > 0.0:
        return None
    f, pos = divmod(best, gains.shape[1])
    split_at = min_leaf + pos
    below, above = xs[f, split_at - 1], xs[f, split_at]
    # Between adjacent doubles the midpoint can round to `above`; rows equal
    # to the threshold go left, so that would leave the right child empty.
    mid = 0.5 * (below + above)
    return f, mid if mid < above else below


def _leaf(nodes: tuple, fitted: np.ndarray, rows: np.ndarray,
          value: float) -> None:
    features, thresholds, lefts, rights, values = nodes
    features.append(-1)
    thresholds.append(0.0)
    lefts.append(-1)
    rights.append(-1)
    values.append(value)
    fitted[rows] = value


def _grow(nodes: tuple, fit: tuple, rows: np.ndarray, order: np.ndarray,
          xs: np.ndarray, depth: int) -> None:
    """Append the subtree over `rows` to the five node lists, in preorder.

    `order` and `xs` are the rows' presorted view; `fit` is (columns,
    targets y, y * y, y + 1j * y * y, counts, in-sample values, max_depth,
    min_leaf). A node above max_depth - 1 grows its children; one at
    max_depth - 1 writes its two leaves itself.
    """
    cols, y, squares, yc, counts, fitted, max_depth, min_leaf = fit
    features, thresholds, lefts, rights, values = nodes
    # np.add.reduce is ndarray.sum without its Python wrapper.
    total = np.add.reduce(y[rows])
    value = float(total / rows.shape[0])  # y[rows].mean()
    split = None
    if rows.shape[0] >= 2 * min_leaf:
        split = _best_split(xs, yc[order], float(total),
                            float(np.add.reduce(squares[rows])), min_leaf,
                            counts)
    if split is None:
        _leaf(nodes, fitted, rows, value)
        return
    f, thr = split
    index = len(features)
    features.append(f)
    thresholds.append(float(thr))
    lefts.append(index + 1)
    rights.append(-1)
    values.append(value)
    go_left = cols[f] <= thr
    left = go_left[rows]
    left_rows, right_rows = rows[left], rows[~left]
    if depth + 1 == max_depth:
        for leaf_rows in (left_rows, right_rows):
            _leaf(nodes, fitted, leaf_rows, float(
                np.add.reduce(y[leaf_rows]) / leaf_rows.shape[0]))
        rights[index] = index + 2
        return
    keep = go_left[order]
    shape = (order.shape[0], -1)
    _grow(nodes, fit, left_rows, order[keep].reshape(shape),
          xs[keep].reshape(shape), depth + 1)
    rights[index] = len(features)
    keep = ~keep
    _grow(nodes, fit, right_rows, order[keep].reshape(shape),
          xs[keep].reshape(shape), depth + 1)


def _grow_tree(presorted, y: np.ndarray, max_depth: int,
               min_leaf: int) -> tuple[RegressionTree, np.ndarray]:
    """Fit one tree on _presort(x); also return its value at every row."""
    cols, order, xs = presorted
    n = y.shape[0]
    squares = y * y
    yc = np.empty(n, dtype=np.complex128)
    yc.real = y
    yc.imag = squares
    fitted = np.empty(n)
    nodes = ([], [], [], [], [])
    _grow(nodes, (cols, y, squares, yc, np.arange(n + 1.0), fitted, max_depth,
                  min_leaf), np.arange(n), order, xs, 0)
    features, thresholds, lefts, rights, values = nodes
    tree = RegressionTree(
        features=np.asarray(features, dtype=np.int64),
        thresholds=np.asarray(thresholds, dtype=np.float64),
        lefts=np.asarray(lefts, dtype=np.int64),
        rights=np.asarray(rights, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        max_depth=max_depth,
    )
    return tree, fitted


@dataclass(frozen=True)
class BoostHyper:
    """Ensemble settings; the defaults are small-sample-sane.

    50 trees at shrinkage 0.2 are a quarter of the 200 trees at 0.05 that
    were the defaults before. The surface only has to rank mixtures, and a
    stage answers with the best mixture it has actually scored
    (`surface.run_search_stage`); with that, both settings reached the same
    regret on every world measured (README).
    """

    n_trees: int = 50
    max_depth: int = 3
    learning_rate: float = 0.2
    min_leaf: int = 2

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise MergeMixError("tree count, depth and leaf size must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise MergeMixError("shrinkage must be in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "learning_rate": self.learning_rate,
            "min_leaf": self.min_leaf,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoostHyper":
        return cls(**data)


@dataclass
class GradientBoostedRegressor:
    hyper: BoostHyper
    init_value: float = 0.0
    trees: list[RegressionTree] = field(default_factory=list)
    # (learning rate, trees, routes) of the last predict; see _routes.
    _route_cache: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)
    # (routes, leaf boxes, lattice steps, masks); see _bound_tables.
    _bound_cache: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def fit(self, x: np.ndarray, y: np.ndarray,
            out: np.ndarray | None = None) -> "GradientBoostedRegressor":
        """Boost on (x, y); `out`, if given, receives the in-sample values."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise DimensionError(
                f"bad training shapes: x {x.shape}, y {y.shape}"
            )
        self.init_value = float(y.mean())
        self.trees = []
        presorted = _presort(x)
        current = np.full(y.shape[0], self.init_value)
        for _ in range(self.hyper.n_trees):
            residual = y - current
            if np.max(np.abs(residual)) == 0.0:
                break  # constant target fitted exactly; nothing left to boost
            tree, fitted = _grow_tree(presorted, residual,
                                      self.hyper.max_depth, self.hyper.min_leaf)
            current = current + self.hyper.learning_rate * fitted
            self.trees.append(tree)
        if out is not None:
            out[:] = current
        return self

    def _routes(self) -> list:
        """Every tree's route with the learning rate folded into its leaves.

        Rebuilt only when the learning rate or the tree objects differ from
        the last call's; the cache holds those trees, so none of them can be
        freed and its id reused by a new tree.
        """
        lr = self.hyper.learning_rate
        cache = self._route_cache
        if (cache is None or cache[0] != lr or len(cache[1]) != len(self.trees)
                or any(a is not b for a, b in zip(cache[1], self.trees))):
            # lr * leaf value is the same float as lr times the routed value.
            cache = self._route_cache = (lr, tuple(self.trees),
                                         [tree._route(lr) for tree in self.trees])
        return cache[2]

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        routes = self._routes()
        out = np.empty(x.shape[0])
        for start, cols in _column_blocks(x):
            acc = np.full(cols.shape[1], self.init_value)
            for route in routes:
                acc += _evaluate(route, cols)
            out[start:start + cols.shape[1]] = acc
        return out

    def _bound_tables(self, steps: int) -> tuple:
        """(leaf boxes, lattice masks at `steps`): the boxes are rebuilt with
        the routes, the masks with the routes or the steps."""
        routes = self._routes()
        cache = self._bound_cache
        if cache is None or cache[0] is not routes:
            cache = (routes, _LeafBoxes.from_routes(routes), None, None)
        if cache[2] != steps:
            cache = (routes, cache[1], steps, cache[1].masks(steps))
        self._bound_cache = cache
        return cache[1], cache[3]

    def lattice_bound(self, lo: np.ndarray, hi: np.ndarray,
                      steps: int) -> np.ndarray:
        """Upper bound of the prediction over each integer box `lo <= c <= hi`
        (rows of (n, features) arrays) of the lattice {c/steps}.

        The bound is `init_value` plus, tree by tree in predict order, the
        largest leaf value the box meets. A single point meets exactly the
        leaf it reaches, so its bound is bit-identical to `predict` at
        c/steps; round-to-nearest addition is monotone, so no float bound is
        below a float prediction in its box.
        """
        boxes, (reach_up, reach_down) = self._bound_tables(steps)
        out = np.empty(lo.shape[0])
        for start in range(0, lo.shape[0], PREDICT_BLOCK_ROWS):
            rows = slice(start, start + PREDICT_BLOCK_ROWS)
            mask = np.full((lo[rows].shape[0], boxes.offsets.shape[0]), 255,
                           dtype=np.uint8)
            for f in range(boxes.above.shape[1]):
                mask &= reach_up[f][lo[rows, f]]
                mask &= reach_down[f][hi[rows, f]]
            best = boxes.values[_LOWEST_BIT[mask] + boxes.offsets]
            if boxes.starts is not None:
                best = np.maximum.reduceat(best, boxes.starts, axis=1)
            # Summed tree by tree from init_value, as predict sums.
            acc = np.full(best.shape[0], self.init_value)
            for tree in best.T:
                acc += tree
            out[rows] = acc
        return out

    def to_dict(self) -> dict:
        return self._fields([t.to_dict() for t in self.trees])

    def lazy_dict(self) -> dict:
        """to_dict(), with the trees as a generator of their dicts."""
        return self._fields(t.to_dict() for t in self.trees)

    def _fields(self, trees) -> dict:
        return {
            "hyper": self.hyper.to_dict(),
            "init_value": self.init_value,
            "trees": trees,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradientBoostedRegressor":
        model = cls(BoostHyper.from_dict(data["hyper"]),
                    init_value=float(data["init_value"]))
        model.trees = [RegressionTree.from_dict(t) for t in data["trees"]]
        return model
