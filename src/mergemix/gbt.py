"""Deterministic gradient-boosted regression trees.

Small-sample least-squares boosting: axis-aligned splits chosen by exact
SSE reduction, candidate thresholds at midpoints of consecutive sorted
values, features scanned in fixed order with strict improvement so ties
resolve the same way on every run. No row or feature subsampling, hence no
randomness anywhere in fit or predict.

Splits are found exact-greedy on presorted columns, as in XGBoost (Chen &
Guestrin, KDD 2016): x is stably argsorted once per fit, and each node
filters that order to its own rows, so every feature's sorted view comes
without another sort. The split search over all features and thresholds of
a node is one array computation; the flat first maximum keeps the
first-feature, first-threshold tie rule. Each round's residual update reuses
the leaf values the rows reached while the tree grew.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, MergeMixError

PREDICT_BLOCK_ROWS = 4096


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
                min_leaf: int):
    """Exact SSE-minimizing (feature, threshold) of one node, or None.

    `xs` and `ys` hold the node's values and targets sorted per feature;
    `total` and `total_sq` are the target sums in row order. The flat argmax
    over (feature, threshold) takes the first maximum and only a positive
    gain wins, so ties resolve to the first feature and the first threshold.
    """
    n = ys.shape[1]
    parent_sse = total_sq - total * total / n
    csum = np.cumsum(ys, axis=1)
    csum_sq = np.cumsum(ys * ys, axis=1)
    # Candidate split sizes i (left-leaf count), smallest first; column
    # i - 1 holds the last left row, so the columns of all i are one slice.
    i = np.arange(min_leaf, n - min_leaf + 1)
    last = slice(min_leaf - 1, n - min_leaf)
    left_sum = csum[:, last]
    left_sse = csum_sq[:, last] - left_sum * left_sum / i
    right_sum = total - left_sum
    right_sse = (total_sq - csum_sq[:, last]) - right_sum * right_sum / (n - i)
    gains = parent_sse - left_sse - right_sse
    # Equal values admit no threshold.
    gains[xs[:, last] == xs[:, min_leaf:n - min_leaf + 1]] = -np.inf
    best = int(np.argmax(gains))
    if not gains.flat[best] > 0.0:
        return None
    f, pos = divmod(best, i.shape[0])
    split_at = min_leaf + pos
    return f, 0.5 * (xs[f, split_at - 1] + xs[f, split_at])


@dataclass
class _Growth:
    """One tree while it grows: the columns and targets it splits, its node
    lists in preorder, and the value of the leaf each row reaches."""

    cols: np.ndarray
    y: np.ndarray
    max_depth: int
    min_leaf: int
    fitted: np.ndarray
    nodes: dict


def _grow(g: _Growth, rows: np.ndarray, order: np.ndarray, xs: np.ndarray,
          depth: int) -> int:
    """Grow the subtree over `rows`; `order` and `xs` are its presorted view."""
    nodes = g.nodes
    index = len(nodes["features"])
    for key in nodes:
        nodes[key].append(None)
    y_node = g.y[rows]
    total = y_node.sum()
    value = float(total / rows.shape[0])  # y_node.mean(); nan when empty
    nodes["values"][index] = value
    split = None
    if depth < g.max_depth and rows.shape[0] >= 2 * g.min_leaf:
        split = _best_split(xs, g.y[order], float(total),
                            float((y_node * y_node).sum()), g.min_leaf)
    if split is None:
        nodes["features"][index] = -1
        nodes["thresholds"][index] = 0.0
        nodes["lefts"][index] = -1
        nodes["rights"][index] = -1
        g.fitted[rows] = value
        return index
    f, thr = split
    go_left = g.cols[f] <= thr
    sides = []
    for side in (go_left, ~go_left):
        side_rows = rows[side[rows]]
        keep = side[order]
        shape = (order.shape[0], side_rows.shape[0])
        sides.append(_grow(g, side_rows, order[keep].reshape(shape),
                           xs[keep].reshape(shape), depth + 1))
    nodes["features"][index] = f
    nodes["thresholds"][index] = float(thr)
    nodes["lefts"][index], nodes["rights"][index] = sides
    return index


def _grow_tree(presorted, y: np.ndarray, max_depth: int,
               min_leaf: int) -> tuple[RegressionTree, np.ndarray]:
    """Fit one tree on _presort(x); also return its value at every row."""
    cols, order, xs = presorted
    g = _Growth(cols, y, max_depth, min_leaf, np.empty(y.shape[0]),
                {"features": [], "thresholds": [], "lefts": [], "rights": [],
                 "values": []})
    _grow(g, np.arange(y.shape[0]), order, xs, 0)
    nodes = g.nodes
    tree = RegressionTree(
        features=np.asarray(nodes["features"], dtype=np.int64),
        thresholds=np.asarray(nodes["thresholds"], dtype=np.float64),
        lefts=np.asarray(nodes["lefts"], dtype=np.int64),
        rights=np.asarray(nodes["rights"], dtype=np.int64),
        values=np.asarray(nodes["values"], dtype=np.float64),
        max_depth=max_depth,
    )
    return tree, g.fitted


def fit_tree(x: np.ndarray, y: np.ndarray, max_depth: int,
             min_leaf: int) -> RegressionTree:
    tree, _ = _grow_tree(_presort(np.asarray(x)), np.asarray(y),
                         max_depth, min_leaf)
    return tree


@dataclass(frozen=True)
class BoostHyper:
    """Ensemble settings; the defaults are small-sample-sane."""

    n_trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.05
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

    def to_dict(self) -> dict:
        return {
            "hyper": self.hyper.to_dict(),
            "init_value": self.init_value,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradientBoostedRegressor":
        model = cls(BoostHyper.from_dict(data["hyper"]),
                    init_value=float(data["init_value"]))
        model.trees = [RegressionTree.from_dict(t) for t in data["trees"]]
        return model
