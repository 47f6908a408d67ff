import gc
import warnings

import numpy as np
import pytest

from mergemix.errors import MergeMixError
from mergemix.gbt import (
    PREDICT_BLOCK_ROWS,
    BoostHyper,
    GradientBoostedRegressor,
    RegressionTree,
    _grow_tree,
    _presort,
)
from mergemix.simplex import dirichlet_points, simplex_lattice
from mergemix.stats import spearman
from mergemix.surface import sample_seed_configs


def fit_tree(x, y, max_depth: int, min_leaf: int) -> RegressionTree:
    """One tree from the package's presorted grower, as a boosting round
    grows it."""
    tree, _ = _grow_tree(_presort(np.asarray(x)), np.asarray(y),
                         max_depth, min_leaf)
    return tree


# Reference kernels: the straightforward per-level predict, per-feature
# argsort split search and predict-based boosting loop. The package's
# blocked and presorted kernels must reproduce them bit for bit.

def reference_tree_predict(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    node = np.zeros(n, dtype=np.int64)
    for _ in range(tree.max_depth + 1):
        feat = tree.features[node]
        internal = feat >= 0
        if not internal.any():
            break
        col = np.where(internal, feat, 0)
        go_left = x[np.arange(n), col] <= tree.thresholds[node]
        node = np.where(internal,
                        np.where(go_left, tree.lefts[node], tree.rights[node]),
                        node)
    return tree.values[node]


def reference_best_split(x, y, min_leaf):
    n = y.shape[0]
    total = float(y.sum())
    total_sq = float((y * y).sum())
    parent_sse = total_sq - total * total / n
    best = None
    best_gain = 0.0
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        csum = np.cumsum(ys)
        csum_sq = np.cumsum(ys * ys)
        i = np.arange(min_leaf, n - min_leaf + 1)
        i = i[xs[i - 1] != xs[i]]
        if i.size == 0:
            continue
        left_sum = csum[i - 1]
        left_sse = csum_sq[i - 1] - left_sum * left_sum / i
        right_sum = total - left_sum
        right_sse = (total_sq - csum_sq[i - 1]) - right_sum * right_sum / (n - i)
        gains = parent_sse - left_sse - right_sse
        pos = int(np.argmax(gains))
        if gains[pos] > best_gain:
            best_gain = float(gains[pos])
            split_at = int(i[pos])
            below, above = xs[split_at - 1], xs[split_at]
            mid = 0.5 * (below + above)
            best = (f, mid if mid < above else below)
    return best


def reference_fit_tree(x, y, max_depth, min_leaf) -> RegressionTree:
    nodes = {"features": [], "thresholds": [], "lefts": [], "rights": [],
             "values": []}

    def grow(x, y, depth):
        index = len(nodes["features"])
        for key in nodes:
            nodes[key].append(None)
        split = None
        if depth < max_depth and y.shape[0] >= 2 * min_leaf:
            split = reference_best_split(x, y, min_leaf)
        nodes["values"][index] = float(y.mean())
        if split is None:
            nodes["features"][index] = -1
            nodes["thresholds"][index] = 0.0
            nodes["lefts"][index] = -1
            nodes["rights"][index] = -1
            return index
        f, thr = split
        mask = x[:, f] <= thr
        left = grow(x[mask], y[mask], depth + 1)
        right = grow(x[~mask], y[~mask], depth + 1)
        nodes["features"][index] = f
        nodes["thresholds"][index] = float(thr)
        nodes["lefts"][index] = left
        nodes["rights"][index] = right
        return index

    grow(x, y, 0)
    return RegressionTree(
        features=np.asarray(nodes["features"], dtype=np.int64),
        thresholds=np.asarray(nodes["thresholds"], dtype=np.float64),
        lefts=np.asarray(nodes["lefts"], dtype=np.int64),
        rights=np.asarray(nodes["rights"], dtype=np.int64),
        values=np.asarray(nodes["values"], dtype=np.float64),
        max_depth=max_depth,
    )


def reference_boost(x, y, hyper: BoostHyper):
    init_value = float(y.mean())
    trees = []
    current = np.full(y.shape[0], init_value)
    for _ in range(hyper.n_trees):
        residual = y - current
        if np.max(np.abs(residual)) == 0.0:
            break
        tree = reference_fit_tree(x, residual, hyper.max_depth, hyper.min_leaf)
        current = current + hyper.learning_rate * reference_tree_predict(tree, x)
        trees.append(tree)
    return init_value, trees


def reference_ensemble_predict(init_value, trees, learning_rate, x):
    out = np.full(x.shape[0], init_value)
    for tree in trees:
        out = out + learning_rate * reference_tree_predict(tree, x)
    return out


def assert_same_tree(actual: RegressionTree, expected: RegressionTree):
    for name in ("features", "thresholds", "lefts", "rights", "values"):
        np.testing.assert_array_equal(getattr(actual, name), getattr(expected, name))
        assert getattr(actual, name).dtype == getattr(expected, name).dtype
    assert actual.max_depth == expected.max_depth


def coarse_data(seed, n, k, levels=5):
    """Rows with many repeated feature values, as on a simplex lattice."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, k)) / levels
    y = np.sin(3 * x[:, 0]) - x[:, -1] + 0.1 * rng.standard_normal(n)
    return x, y


def design_data(seed, n, k):
    """A seed design (corners, grid, Dirichlet fill) and a smooth noisy
    score, as a search stage fits them: 600 x 2 is sep-hier's stage size,
    200 x 6 k6-search's."""
    x = sample_seed_configs(k, n, seed=seed)
    rng = np.random.default_rng(seed)
    y = (np.sin(3 * x[:, 0]) - x[:, -1] * x[:, 0]
         + 0.05 * rng.standard_normal(n))
    return x, y


class TestRegressionTree:
    def test_single_split_recovers_step_function(self):
        x = np.linspace(0, 1, 20).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(float)
        tree = fit_tree(x, y, max_depth=1, min_leaf=2)
        np.testing.assert_allclose(tree.predict(x), y, atol=1e-12)

    def test_respects_min_leaf(self):
        x = np.arange(6, dtype=float).reshape(-1, 1)
        y = np.array([0.0, 0, 0, 1, 1, 1])
        tree = fit_tree(x, y, max_depth=3, min_leaf=3)
        # only the balanced 3/3 split is admissible
        assert (tree.features >= 0).sum() == 1

    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(30, 3))
        y = rng.standard_normal(30)
        tree = fit_tree(x, y, max_depth=3, min_leaf=2)
        clone = type(tree).from_dict(tree.to_dict())
        np.testing.assert_array_equal(tree.predict(x), clone.predict(x))


class TestBoostedEnsemble:
    def test_constant_target_predicts_constant(self):
        x = np.random.default_rng(1).uniform(size=(10, 2))
        y = np.full(10, 0.37)
        model = GradientBoostedRegressor(BoostHyper()).fit(x, y)
        np.testing.assert_array_equal(model.predict(x), y)
        assert len(model.trees) == 0  # nothing left to boost

    def test_linear_surface_rank_order(self):
        """Fit y = x on 5 points. With min_leaf=2 the outer point pairs can
        never be separated, and thresholds only sit at training midpoints,
        so some grid predictions tie; rank order must still be free of
        inversions and the rank correlation against truth stays high."""
        train_x = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])
        train_y = train_x[:, 0]
        model = GradientBoostedRegressor(BoostHyper()).fit(train_x, train_y)

        grid = np.arange(0.0, 1.0001, 0.1).reshape(-1, 1)
        predicted = model.predict(grid)
        assert np.all(np.diff(predicted) >= 0)  # no rank inversions
        report = spearman(predicted.tolist(), grid[:, 0].tolist())
        assert report.rho == pytest.approx(0.9438798074485389, abs=1e-12)
        assert report.rho >= 0.9

    def test_deterministic_fit(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(40, 4))
        y = rng.standard_normal(40)
        a = GradientBoostedRegressor(BoostHyper()).fit(x, y)
        b = GradientBoostedRegressor(BoostHyper()).fit(x, y)
        grid = rng.uniform(size=(100, 4))
        np.testing.assert_array_equal(a.predict(grid), b.predict(grid))

    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(25, 2))
        y = np.sin(x[:, 0] * 3) + x[:, 1]
        model = GradientBoostedRegressor(BoostHyper(n_trees=50)).fit(x, y)
        clone = GradientBoostedRegressor.from_dict(model.to_dict())
        grid = rng.uniform(size=(64, 2))
        np.testing.assert_array_equal(model.predict(grid), clone.predict(grid))

    def test_fits_smooth_function_well(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(size=(80, 1))
        y = 1.0 - (x[:, 0] - 0.3) ** 2
        model = GradientBoostedRegressor(BoostHyper()).fit(x, y)
        pred = model.predict(x)
        assert float(np.max(np.abs(pred - y))) < 0.05

    def test_hyper_validation(self):
        with pytest.raises(MergeMixError):
            BoostHyper(n_trees=0)
        with pytest.raises(MergeMixError):
            BoostHyper(learning_rate=0.0)


class TestKernelEquivalence:
    """Blocked predict and presorted fit against the reference kernels."""

    def test_complex_prefix_pass_is_two_float_cumsums(self):
        """Split search accumulates y and y * y as one complex cumsum; each
        part must be the float64 cumsum of its own, bit for bit: signed
        zeros, subnormals, overflow to inf, and ties."""
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, -0.0, 0.0, tiny, -tiny, 3 * tiny,
                            1e300, 1e300, -1e300, 1.7e308, 1.7e308, -1e300,
                            0.1, 0.1, 0.1, -0.3, 2.5, 2.5, 1e-160, -1e-160])
        rng = np.random.default_rng(17)
        for y in (special, special[::-1], rng.permutation(special),
                  -special, np.repeat(special[:7], 3)):
            block = np.stack([y, rng.permutation(y)])
            yc = np.empty(block.shape, dtype=np.complex128)
            yc.real = block
            with np.errstate(over="ignore", invalid="ignore"):
                yc.imag = block * block
                csum = np.cumsum(yc, axis=1)
                sums = np.cumsum(block, axis=1)
                squares = np.cumsum(block * block, axis=1)
            assert csum.real.tobytes() == sums.tobytes()
            assert csum.imag.tobytes() == squares.tobytes()

    @pytest.mark.parametrize("seed,n,k,levels", [
        (0, 40, 3, 5), (1, 97, 4, 3), (2, 600, 2, 21), (3, 25, 6, 2),
        # levels None: a seed design, as sep-hier and k6-search fit
        (1, 600, 2, None), (7, 200, 6, None),
    ])
    @pytest.mark.parametrize("max_depth,min_leaf", [(1, 1), (3, 2), (4, 5)])
    def test_fit_tree_matches_reference(self, seed, n, k, levels, max_depth,
                                        min_leaf):
        x, y = (coarse_data(seed, n, k, levels) if levels
                else design_data(seed, n, k))
        assert_same_tree(fit_tree(x, y, max_depth, min_leaf),
                         reference_fit_tree(x, y, max_depth, min_leaf))

    def test_small_node_one_level_above_the_leaves(self):
        """A node at depth max_depth - 1 with fewer than 2 * min_leaf rows
        is a leaf itself; its sibling splits into two leaves."""
        x = np.arange(12.0)[:, None]
        y = np.array([10.0, 10, 10, 0, 0, 0, 0, 0, 0, 1, 1, 1])
        expected = reference_fit_tree(x, y, 2, 2)
        assert expected.features.tolist() == [0, -1, 0, -1, -1]
        assert_same_tree(fit_tree(x, y, 2, 2), expected)
        hyper = BoostHyper(n_trees=8, max_depth=2, min_leaf=2)
        model, fitted, predicted = fitted_and_predicted(hyper, x, y)
        init_value, trees = reference_boost(x, y, hyper)
        assert model.init_value == init_value
        for actual, reference in zip(model.trees, trees, strict=True):
            assert_same_tree(actual, reference)
        assert fitted.tobytes() == predicted.tobytes()

    def test_gain_ties_resolve_to_first_feature_and_threshold(self):
        # Two identical columns tie on every gain; a symmetric target ties
        # the outer thresholds of one column.
        col = np.array([0.0, 1, 2, 3, 4, 5])
        x = np.stack([col, col], axis=1)
        y = np.array([1.0, 0, 0, 0, 0, 1])
        tree = fit_tree(x, y, max_depth=1, min_leaf=1)
        assert_same_tree(tree, reference_fit_tree(x, y, 1, 1))
        assert tree.features[0] == 0 and tree.thresholds[0] == 0.5

    def test_equal_gains_prefer_first_feature_over_earlier_threshold(self):
        # Both columns isolate row 5: feature 0 at its last threshold,
        # feature 1 (reversed) at its first.
        col = np.array([0.0, 1, 2, 3, 4, 5])
        x = np.stack([col, 5 - col], axis=1)
        y = np.array([0.0, 0, 0, 0, 0, 1])
        tree = fit_tree(x, y, max_depth=1, min_leaf=1)
        assert_same_tree(tree, reference_fit_tree(x, y, 1, 1))
        assert tree.features[0] == 0 and tree.thresholds[0] == 4.5

    @pytest.mark.parametrize("low", [1.0, 1.0 + 2.0 ** -52])
    def test_threshold_rounding_onto_a_training_value(self, low):
        """Between adjacent floats the midpoint rounds onto one of them. Rows
        equal to the threshold go left, so a midpoint that rounds up to the
        higher value is replaced by the lower one: both children keep the
        rows the split was scored on."""
        high = np.nextafter(low, 2.0)
        x = np.array([[low], [low], [low], [high], [high], [high]])
        y = np.array([0.0, 0, 0, 1, 1, 1])
        tree = fit_tree(x, y, max_depth=2, min_leaf=1)
        assert_same_tree(tree, reference_fit_tree(x, y, 2, 1))
        assert low <= tree.thresholds[0] < high
        np.testing.assert_array_equal(tree.predict(x), y)

    def test_split_between_adjacent_floats_keeps_both_children(self):
        """0.5 * (a + b) rounds to b for a = nextafter(1, 0), b = 1; the
        threshold falls back to a, so no child is empty and no leaf is nan."""
        a = np.nextafter(1.0, 0.0)
        x = np.array([[a]] * 4 + [[1.0]] * 4)
        y = np.array([0.0] * 4 + [1.0] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = GradientBoostedRegressor(
                BoostHyper(n_trees=5, min_leaf=1)).fit(x, y)
            pred = model.predict(x)
        assert all(t.thresholds[0] == a for t in model.trees)
        assert np.all(np.isfinite(np.concatenate([t.values for t in model.trees])))
        assert np.all(pred[:4] < 0.5) and np.all(pred[4:] > 0.5)

    @pytest.mark.parametrize("n", [4, 5])
    def test_min_leaf_at_its_edge(self, n):
        """n = 2 * min_leaf admits one split size; n = 2 * min_leaf + 1 two."""
        x, y = coarse_data(4, n, 3, levels=7)
        for depth in (1, 3):
            assert_same_tree(fit_tree(x, y, depth, 2),
                             reference_fit_tree(x, y, depth, 2))

    def test_unsplittable_node_is_a_single_leaf(self):
        x = np.ones((8, 2))
        y = np.arange(8.0)
        tree = fit_tree(x, y, max_depth=3, min_leaf=1)
        assert_same_tree(tree, reference_fit_tree(x, y, 3, 1))
        assert tree.features.tolist() == [-1]

    @pytest.mark.parametrize("rows", [0, 1, PREDICT_BLOCK_ROWS - 1,
                                      PREDICT_BLOCK_ROWS,
                                      2 * PREDICT_BLOCK_ROWS + 17])
    def test_tree_predict_matches_reference(self, rows):
        x, y = coarse_data(5, 120, 4, levels=6)
        grid = np.random.default_rng(6).uniform(size=(rows, 4))
        grid[::3] = np.round(grid[::3] * 6) / 6  # rows on the thresholds' grid
        for depth in (1, 3, 5):
            tree = fit_tree(x, y, depth, 2)
            expected = reference_tree_predict(tree, grid)
            actual = tree.predict(grid)
            np.testing.assert_array_equal(actual, expected)
            assert actual.dtype == expected.dtype and actual.shape == (rows,)

    def test_single_leaf_tree_predict(self):
        tree = fit_tree(np.zeros((6, 2)), np.full(6, 0.25), 3, 2)
        grid = np.random.default_rng(7).uniform(size=(PREDICT_BLOCK_ROWS + 3, 2))
        np.testing.assert_array_equal(tree.predict(grid),
                                      reference_tree_predict(tree, grid))

    def test_stored_tree_deeper_than_max_depth(self):
        """A walk stops after max_depth + 1 levels, even inside the tree."""
        x, y = coarse_data(8, 200, 3, levels=10)
        tree = fit_tree(x, y, 4, 1)
        shallow = RegressionTree.from_dict(dict(tree.to_dict(), max_depth=1))
        grid = np.random.default_rng(9).uniform(size=(300, 3))
        np.testing.assert_array_equal(shallow.predict(grid),
                                      reference_tree_predict(shallow, grid))

    @pytest.mark.parametrize("hyper", [
        BoostHyper(n_trees=40),
        BoostHyper(n_trees=25, max_depth=1, learning_rate=0.3, min_leaf=1),
        BoostHyper(n_trees=15, max_depth=4, learning_rate=1.0, min_leaf=3),
    ])
    def test_boosting_matches_reference(self, hyper):
        for x, y in (coarse_data(10, 150, 4, levels=5), design_data(1, 600, 2),
                     design_data(7, 200, 6)):
            model = GradientBoostedRegressor(hyper).fit(x, y)
            init_value, trees = reference_boost(x, y, hyper)
            assert model.init_value == init_value
            assert len(model.trees) == len(trees)
            for actual, expected in zip(model.trees, trees):
                assert_same_tree(actual, expected)
            k = x.shape[1]
            grid = np.random.default_rng(11).uniform(
                size=(PREDICT_BLOCK_ROWS + 5, k))
            for points in (grid, x, grid[:0]):
                np.testing.assert_array_equal(
                    model.predict(points),
                    reference_ensemble_predict(init_value, trees,
                                               hyper.learning_rate, points))

    def test_ensemble_with_single_leaf_trees(self):
        """Identical rows with different targets: every tree is one leaf."""
        x = np.tile([0.3, 0.7], (10, 1))
        y = np.linspace(0.0, 1.0, 10)
        hyper = BoostHyper(n_trees=5)
        model = GradientBoostedRegressor(hyper).fit(x, y)
        init_value, trees = reference_boost(x, y, hyper)
        assert [t.features.tolist() for t in model.trees] == [[-1]] * 5
        grid = np.random.default_rng(12).uniform(size=(9, 2))
        np.testing.assert_array_equal(
            model.predict(grid),
            reference_ensemble_predict(init_value, trees, hyper.learning_rate, grid))


def fitted_and_predicted(hyper, x, y):
    out = np.empty(y.shape[0])
    model = GradientBoostedRegressor(hyper).fit(x, y, out=out)
    return model, out, model.predict(x)


class TestFitValuesAndCachedRoutes:
    """Fits hand back their in-sample values; predict builds routes once per
    model."""

    @pytest.mark.parametrize("hyper", [
        BoostHyper(n_trees=40),
        BoostHyper(n_trees=25, max_depth=1, learning_rate=0.3, min_leaf=1),
        BoostHyper(n_trees=15, max_depth=4, learning_rate=1.0, min_leaf=3),
    ])
    def test_fitted_values_are_predict_bit_for_bit(self, hyper):
        for x, y in (coarse_data(13, 150, 4), coarse_data(14, 40, 3, levels=3)):
            _, fitted, predicted = fitted_and_predicted(hyper, x, y)
            assert fitted.tobytes() == predicted.tobytes()

    @pytest.mark.parametrize("value", [0.25, -0.0, -3.5])
    def test_constant_target_stops_early_with_predict_values(self, value):
        x, _ = coarse_data(15, 30, 3)
        model, fitted, predicted = fitted_and_predicted(BoostHyper(), x,
                                                        np.full(30, value))
        assert model.trees == []
        assert fitted.tobytes() == predicted.tobytes()

    def test_single_leaf_trees_fitted_values(self):
        x = np.tile([0.3, 0.7], (10, 1))
        model, fitted, predicted = fitted_and_predicted(
            BoostHyper(n_trees=5), x, np.linspace(0.0, 1.0, 10))
        assert [t.features.tolist() for t in model.trees] == [[-1]] * 5
        assert fitted.tobytes() == predicted.tobytes()

    def test_routes_built_once_per_model(self, monkeypatch):
        import mergemix.gbt as gbt

        x, y = coarse_data(16, 80, 3)
        model = GradientBoostedRegressor(BoostHyper(n_trees=10)).fit(x, y)
        built = []
        route = gbt.RegressionTree._route

        def counted_route(tree, scale=1.0):
            built.append(1)
            return route(tree, scale)

        monkeypatch.setattr(gbt.RegressionTree, "_route", counted_route)
        first = model.predict(x)
        second = model.predict(x[:7])
        assert len(built) == 10
        np.testing.assert_array_equal(second, first[:7])

    def test_cached_routes_after_from_dict_and_refit(self):
        hyper = BoostHyper(n_trees=20)
        x, y = coarse_data(17, 100, 4)
        grid = np.random.default_rng(18).uniform(size=(50, 4))
        model = GradientBoostedRegressor(hyper).fit(x, y)
        before = model.predict(grid)
        clone = GradientBoostedRegressor.from_dict(model.to_dict())
        assert clone.predict(grid).tobytes() == before.tobytes()

        x2, y2 = coarse_data(19, 90, 4)
        fitted = np.empty(90)
        model.fit(x2, y2, out=fitted)
        fresh = GradientBoostedRegressor(hyper).fit(x2, y2)
        assert model.predict(grid).tobytes() == fresh.predict(grid).tobytes()
        assert model.predict(x2).tobytes() == fitted.tobytes()
        np.testing.assert_array_equal(
            model.predict(grid),
            reference_ensemble_predict(model.init_value, model.trees,
                                       hyper.learning_rate, grid))

    def test_replaced_trees_rebuild_routes(self):
        hyper = BoostHyper(n_trees=20, learning_rate=0.2)
        x, y = coarse_data(20, 100, 4)
        grid = np.random.default_rng(21).uniform(size=(30, 4))
        model = GradientBoostedRegressor(hyper).fit(x, y)
        model.predict(grid)
        model.trees = model.trees[:5]
        np.testing.assert_array_equal(
            model.predict(grid),
            reference_ensemble_predict(model.init_value, model.trees,
                                       hyper.learning_rate, grid))

    def test_stored_ensemble_deeper_than_max_depth(self):
        """Cached routes stop after max_depth + 1 levels, as a walk does."""
        x, y = coarse_data(22, 200, 3, levels=10)
        model = GradientBoostedRegressor(BoostHyper(n_trees=8, max_depth=4,
                                                    min_leaf=1)).fit(x, y)
        data = model.to_dict()
        for tree in data["trees"]:
            tree["max_depth"] = 1
        shallow = GradientBoostedRegressor.from_dict(data)
        grid = np.random.default_rng(23).uniform(size=(300, 3))
        np.testing.assert_array_equal(
            shallow.predict(grid),
            reference_ensemble_predict(shallow.init_value, shallow.trees,
                                       shallow.hyper.learning_rate, grid))


def lattice_units(k: int, steps: int) -> np.ndarray:
    """Every point of the lattice {c/steps} as integer c."""
    return np.rint(simplex_lattice(k, steps) * steps).astype(np.int64)


BOUND_HYPERS = [BoostHyper(n_trees=30, max_depth=depth, learning_rate=lr,
                           min_leaf=1)
                for depth in (1, 3, 5) for lr in (0.05, 0.8)]


def bound_models(k: int = 4) -> list[GradientBoostedRegressor]:
    """Ensembles fitted to random data, with 1 to 32 leaves per tree (up to
    four leaf groups), plus one fitted to a constant target: no trees."""
    rng = np.random.default_rng(30)
    x = dirichlet_points(k, 80, rng)
    y = rng.standard_normal(80)
    return ([GradientBoostedRegressor(hyper).fit(x, y) for hyper in BOUND_HYPERS]
            + [GradientBoostedRegressor(BoostHyper()).fit(x, np.full(80, 0.3))])


class TestLatticeBound:
    """`lattice_bound` bounds the prediction over integer boxes of a lattice,
    and is the prediction itself on a single point."""

    @pytest.mark.parametrize("steps", [20, 100])
    def test_bound_covers_every_point_of_random_boxes(self, steps):
        rng = np.random.default_rng(steps)
        points = lattice_units(4, steps)
        # Boxes around random lattice points, reaching up to half the axis
        # each way and clipped to it; the first ten are single points.
        centers = points[rng.choice(len(points), 60)]
        reach = rng.integers(0, steps // 2 + 1, size=(2, 60, 4))
        reach[:, :10] = 0
        lo = np.maximum(centers - reach[0], 0)
        hi = np.minimum(centers + reach[1], steps)
        inside = [np.flatnonzero(np.all((points >= a) & (points <= b), axis=1))
                  for a, b in zip(lo, hi)]
        for model in bound_models():
            predicted = model.predict(points / steps)
            bounds = model.lattice_bound(lo, hi, steps)
            for bound, members in zip(bounds, inside):
                assert np.all(bound >= predicted[members])

    @pytest.mark.parametrize("k,steps", [(4, 20), (3, 100)])
    def test_single_point_bound_is_predict_bit_for_bit(self, k, steps):
        points = lattice_units(k, steps)
        for model in bound_models(k):
            assert (model.lattice_bound(points, points, steps).tobytes()
                    == model.predict(points / steps).tobytes())

    def test_stored_tree_deeper_than_max_depth(self):
        """Leaves come from the truncated routes predict walks."""
        x, y = coarse_data(24, 200, 4, levels=10)
        model = GradientBoostedRegressor(BoostHyper(n_trees=8, max_depth=5,
                                                    min_leaf=1)).fit(x, y)
        data = model.to_dict()
        for tree in data["trees"]:
            tree["max_depth"] = 1
        shallow = GradientBoostedRegressor.from_dict(data)
        points = lattice_units(4, 20)
        truncated = reference_ensemble_predict(
            shallow.init_value, shallow.trees, shallow.hyper.learning_rate,
            points / 20)
        assert truncated.tobytes() != model.predict(points / 20).tobytes()
        assert (shallow.lattice_bound(points, points, 20).tobytes()
                == truncated.tobytes())
        lo = np.maximum(points - 2, 0)
        hi = np.minimum(points + 2, 20)
        bounds = shallow.lattice_bound(lo, hi, 20)
        for i, (a, b) in enumerate(zip(lo, hi)):
            inside = np.all((points >= a) & (points <= b), axis=1)
            assert np.all(bounds[i] >= truncated[inside])

    def test_alternating_lattices_rebuild_the_masks(self):
        """The tables hold one lattice's masks; bounding another lattice
        rebuilds them, and coming back gives the first lattice's values."""
        lattices = {steps: lattice_units(3, steps) for steps in (10, 12)}
        for model in bound_models(3):
            for steps in (10, 12, 10):
                points = lattices[steps]
                assert (model.lattice_bound(points, points, steps).tobytes()
                        == model.predict(points / steps).tobytes())


class TestNoReferenceCycles:
    def test_fit_and_predict_leave_no_cyclic_garbage(self):
        """Growing a tree and building its routes recurse without closures,
        so a fit and a predict leave nothing for the cyclic collector."""
        x, y = coarse_data(6, 120, 3)
        gc.collect()
        gc.disable()
        try:
            model = GradientBoostedRegressor(BoostHyper(n_trees=30)).fit(x, y)
            model.predict(x)
            model.trees[0].predict(x)
            units = np.rint(x * 10).astype(np.int64)
            model.lattice_bound(units, units, 10)
            del model
            assert gc.collect() == 0
        finally:
            gc.enable()
