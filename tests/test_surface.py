import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mergemix import simplex
from mergemix.config import load_config, parse_config
from mergemix.errors import BudgetExceededError, MergeMixError, SurfaceFileError
from mergemix.gbt import BoostHyper, GradientBoostedRegressor
from mergemix.hierarchy import HierarchyContext, MixtureNode, optimize_top_down
from mergemix.merging import merge
from mergemix.models import Quadratic
from mergemix.persist import load_checkpoint, read_json, write_json
from mergemix.pipeline import run_pipeline
from mergemix.seeding import rng_for, stable_seed
from mergemix.simplex import (
    dirichlet_points,
    lattice_size,
    lattice_steps,
    normalize_simplex,
    simplex_lattice,
    uniform_weights,
)
from mergemix.stats import NormContext, UtilitySpec, spearman, utilities
from mergemix.surface import (
    DUPLICATE_TOL,
    SURFACE_FORMAT,
    SearchResult,
    SurfaceModel,
    collect_raw_scores,
    collect_samples,
    fit_surface,
    load_surface,
    merged_scores,
    run_search_stage,
    sample_seed_configs,
    search_optimum,
    verify_optimum,
)
from mergemix.training import TrainConfig, expert_params, train_expert
from mergemix.worlds import QuadraticWorld, raw_capability
from tests.conftest import (
    RUN_SEED,
    constant_regressor,
    staircase_regressor,
    surface_of,
)


def reference_seed_configs(k, n, priors=(), seed=0) -> np.ndarray:
    """The seed design with a list scan per duplicate check."""

    def is_duplicate(candidate, rows):
        return any(np.max(np.abs(candidate - r)) <= DUPLICATE_TOL for r in rows)

    rng = rng_for(seed, "seed-design")
    rows = []
    for i in range(k):
        corner = np.zeros(k)
        corner[i] = 1.0
        rows.append(corner)
    grid = [p for p in simplex_lattice(k, 4) if not is_duplicate(p, rows)]
    room = n - len(rows)
    if len(grid) > room:
        keep = sorted(rng.choice(len(grid), size=room, replace=False).tolist())
        grid = [grid[i] for i in keep]
    rows.extend(grid)
    for prior in priors:
        if len(rows) >= n:
            break
        p = normalize_simplex(prior)
        if not is_duplicate(p, rows):
            rows.append(p)
    while len(rows) < n:
        p = dirichlet_points(k, 1, rng)[0]
        if not is_duplicate(p, rows):
            rows.append(p)
    return np.asarray(rows)


def count_close(rows, point) -> int:
    """Rows within DUPLICATE_TOL of `point`."""
    return int(np.sum(np.max(np.abs(rows - point), axis=1) <= DUPLICATE_TOL))


class TestSeedDesign:
    def test_corners_always_present(self):
        design = sample_seed_configs(2, 5, seed=0)
        rows = [tuple(r) for r in design]
        assert (1.0, 0.0) in rows and (0.0, 1.0) in rows

    def test_rows_on_simplex(self):
        design = sample_seed_configs(4, 40, seed=3)
        np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(design >= 0)

    def test_deterministic(self):
        a = sample_seed_configs(4, 40, seed=123)
        b = sample_seed_configs(4, 40, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_exact_size_and_distinct(self):
        design = sample_seed_configs(3, 25, seed=9)
        assert design.shape == (25, 3)
        for i in range(25):
            for j in range(i + 1, 25):
                assert np.max(np.abs(design[i] - design[j])) > 1e-9

    def test_provenance_structure(self):
        """The 4 corners, then the 31 other quarter-lattice points, then
        random fill off that lattice."""
        design = sample_seed_configs(4, 40, seed=1)
        np.testing.assert_array_equal(design[:4], np.eye(4))
        on_grid = np.all(design * 4 == np.round(design * 4), axis=1)
        assert on_grid[:35].all() and not on_grid[35:].any()

    def test_priors_included(self):
        prior = [0.7, 0.1, 0.1, 0.1]
        design = sample_seed_configs(4, 40, priors=[prior], seed=1)
        # After the 4 corners and 31 grid points, before the random fill.
        np.testing.assert_array_equal(design[35], normalize_simplex(prior))
        assert count_close(design, normalize_simplex(prior)) == 1

    def test_too_small_rejected(self):
        with pytest.raises(MergeMixError):
            sample_seed_configs(4, 4, seed=0)

    @pytest.mark.parametrize("k,n,priors,seed", [
        (2, 3, (), 0),                      # grid subsampled to one point
        (2, 600, (), 1),                    # sep-hier's stage size
        (3, 25, ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0]), 2),  # priors on grid/corner
        (4, 40, ([0.7, 0.1, 0.1, 0.1], [0.7, 0.1, 0.1, 0.1]), 3),  # repeated prior
        (6, 200, (), 4),
        (5, 12, ([0.2] * 5,), 5),           # no room left for the prior
    ])
    def test_matches_list_scan_reference(self, k, n, priors, seed):
        design = sample_seed_configs(k, n, priors=priors, seed=seed)
        expected = reference_seed_configs(k, n, priors=priors, seed=seed)
        np.testing.assert_array_equal(design, expected)
        assert design.dtype == expected.dtype
        np.testing.assert_array_equal(design[:k], np.eye(k))


def scripted_draws(script):
    """A stand-in for `dirichlet_points` that returns the scripted points in
    order, then real draws: the same stream whatever the batch sizes."""
    queue = [np.asarray(p, dtype=np.float64) for p in script]

    def draws(k, n, rng):
        head, queue[:] = queue[:n], queue[n:]
        # Through the module: the test patches the name imported here.
        rest = simplex.dirichlet_points(k, n - len(head), rng)
        return np.concatenate([np.reshape(head, (-1, k)), rest])

    return draws


PRIOR = normalize_simplex([0.2, 0.3, 0.5])
A = np.array([0.1, 0.2, 0.7])
NEAR = np.array([0.8e-9, -0.8e-9, 0.0])  # within DUPLICATE_TOL


class TestSeedDesignRepeats:
    """The batched random fill keeps the rows and order of a scan that adds
    one draw at a time, whatever the draws repeat."""

    @pytest.mark.parametrize("script,added", [
        # An in-batch repeat, exact and within tolerance.
        ([A, A, A + NEAR, [0.3, 0.3, 0.4]], [0, 3]),
        # A draw near a rejected one but not near the row that rejected it.
        ([A, A + NEAR, A + 2 * NEAR], [0, 2]),
        # Repeats of a prior, a grid point and a corner.
        ([PRIOR, PRIOR + NEAR, [0.25, 0.25, 0.5], [0.0, 1.0, 0.0], A], [4]),
        # Every scripted draw repeats an earlier one or a prior.
        ([A, A, A, PRIOR, A + NEAR], [0]),
    ])
    def test_matches_single_draw_scan(self, monkeypatch, script, added):
        k, n, priors = 3, 3 + 12 + 1 + 6, [[0.2, 0.3, 0.5]]
        monkeypatch.setattr("mergemix.surface.dirichlet_points",
                            scripted_draws(script))
        design = sample_seed_configs(k, n, priors=priors, seed=1)
        monkeypatch.setitem(reference_seed_configs.__globals__,
                            "dirichlet_points", scripted_draws(script))
        expected = reference_seed_configs(k, n, priors=priors, seed=1)
        np.testing.assert_array_equal(design, expected)
        np.testing.assert_array_equal(design[:k], np.eye(k))
        assert count_close(design, PRIOR) == 1
        random = design[-6:]
        np.testing.assert_array_equal(random[:len(added)],
                                      np.array(script, dtype=float)[added])


class TestCollectSamples:
    def test_sample_count_and_range(self, qw4, qw4_experts, qw4_stage):
        assert qw4_stage.configs.shape == (40, 4)
        assert qw4_stage.scores.shape == (40, 4)
        assert len(qw4_stage.digests) == 40
        assert np.all((qw4_stage.scores >= 0.0) & (qw4_stage.scores <= 1.0))

    def test_corner_sample_maximizes_own_capability(self, qw4, qw4_experts):
        corners = np.eye(4)
        raws, _ = collect_raw_scores(qw4, qw4.base_params(), qw4_experts, corners)
        for m in range(4):
            assert int(np.argmax(raws[:, m])) == m

    def test_identical_experts_constant_scores(self, qw2, qw2_experts):
        clones = [qw2_experts[0], qw2_experts[0]]
        design = sample_seed_configs(2, 6, seed=4)
        scores, _, _ = collect_samples(qw2, qw2.base_params(), clones, design)
        assert np.all(scores == scores[0])


class TestFitAndPredict:
    def test_constant_targets_fit_exactly(self):
        rng = np.random.default_rng(0)
        model = fit_surface(dirichlet_points(3, 10, rng), np.full((10, 2), 0.4),
                            ["a", "b"],
                            [NormContext(0, 1), NormContext(0, 1)])
        np.testing.assert_array_equal(model.predict([0.2, 0.2, 0.6]), [0.4, 0.4])

    def test_too_few_samples_rejected(self):
        with pytest.raises(MergeMixError, match="need at least 4 samples"):
            fit_surface(np.array([[0.5, 0.3, 0.2]]), np.array([[0.1]]), ["a"],
                        [NormContext(0, 1)])

    def test_predict_reproduces_training_targets_within_reported_error(
            self, qw4_stage):
        model = qw4_stage.model
        for weights, scores in zip(qw4_stage.configs, qw4_stage.scores):
            pred = model.predict(weights)
            for m in range(4):
                assert abs(pred[m] - scores[m]) <= model.train_error[m] + 1e-12

    def test_predict_deterministic(self, qw4_stage):
        w = [0.25, 0.25, 0.25, 0.25]
        a = qw4_stage.model.predict(w)
        b = qw4_stage.model.predict(w)
        assert np.array_equal(a, b)

    def test_heldout_rank_fidelity_per_capability(self, qw4, qw4_experts,
                                                  qw4_stage):
        """Surrogate ranks 20 held-out configs like direct merge+evaluate."""
        held = dirichlet_points(4, 20, rng_for(RUN_SEED, "heldout"))
        raws, _ = collect_raw_scores(qw4, qw4.base_params(), qw4_experts, held)
        predictions = qw4_stage.model.predict_batch(held)
        for m in range(4):
            actual = [qw4_stage.model.contexts[m].apply(r) for r in raws[:, m]]
            rho = spearman(predictions[:, m].tolist(), actual).rho
            assert rho >= 0.9, f"capability {m}: rho={rho}"

    def test_json_round_trip(self, qw4_stage, tmp_path):
        payload = json.dumps(qw4_stage.model.to_dict())
        clone = SurfaceModel.from_dict(json.loads(payload))
        grid = dirichlet_points(4, 10, np.random.default_rng(1))
        np.testing.assert_array_equal(qw4_stage.model.predict_batch(grid),
                                      clone.predict_batch(grid))


class TestSearch:
    def test_analytic_parabola(self):
        surface = surface_of(2, staircase_regressor(
            (0, lambda x: 1.0 - (x - 0.3) ** 2)))
        res = search_optimum(surface, UtilitySpec(kind="single", index=0),
                             resolution=0.05)
        np.testing.assert_allclose(res.weights, [0.3, 0.7], atol=1e-12)

    def test_constant_surface_lexicographic_tie_break(self):
        const = surface_of(3, constant_regressor(0.7))
        res = search_optimum(const, UtilitySpec(kind="single", index=0),
                             resolution=0.25)
        np.testing.assert_array_equal(res.weights, [0.0, 0.0, 1.0])

    def test_surrogate_fit_localizes_parabola_peak(self):
        xs = np.linspace(0, 1, 51)
        model = fit_surface(np.column_stack([xs, 1.0 - xs]),
                            (1.0 - (xs - 0.3) ** 2)[:, None], ["cap"],
                            [NormContext(0.0, 1.0)],
                            utility_spec=UtilitySpec(kind="single", index=0))
        res = search_optimum(model, resolution=0.05)
        assert abs(res.weights[0] - 0.3) <= 0.05 / 5 + 1e-12

    def test_linear_surface_corner_optimal(self):
        linear = surface_of(4, staircase_regressor((1, lambda x: x)))
        res = search_optimum(linear, UtilitySpec(kind="single", index=0),
                             resolution=0.05)
        np.testing.assert_array_equal(res.weights, [0.0, 1.0, 0.0, 0.0])

    def test_corner_dominant_capability_on_qw4(self, qw4, qw4_experts):
        """A single-capability objective lands on that capability's own
        corner."""
        stage = run_search_stage(
            qw4, qw4.base_params(), qw4_experts, design_size=40,
            seed=stable_seed(RUN_SEED, "design"),
            utility_spec=UtilitySpec(kind="single", index=1),
        )
        corner = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.max(np.abs(stage.search.weights - corner)) <= 0.01 + 1e-12

    def test_result_beats_every_coarse_lattice_point(self, qw4_stage):
        from mergemix.simplex import simplex_lattice
        from mergemix.stats import utility

        model = qw4_stage.model
        values = [utility(row, model.utility_spec)
                  for row in model.predict_batch(simplex_lattice(4, 20))]
        assert qw4_stage.search.predicted_utility >= max(values) - 1e-12

    def test_budget_error(self):
        const = surface_of(10, constant_regressor(0.0))
        with pytest.raises(BudgetExceededError):
            search_optimum(const, UtilitySpec(kind="single", index=0),
                           resolution=0.05, budget=1000)

    def test_resolution_validation(self):
        const = surface_of(2, constant_regressor(0.0))
        with pytest.raises(MergeMixError):
            search_optimum(const, UtilitySpec(kind="single", index=0),
                           resolution=0.5)

    def test_weighted_utility_tilts_toward_upweighted_corner(self, qw4_stage):
        """Raising one capability's weight never demotes that capability's
        best corner relative to the other corners."""
        from mergemix.stats import utility

        model = qw4_stage.model
        corners = np.eye(4)
        preds = model.predict_batch(corners)
        best_for_cap0 = int(np.argmax(preds[:, 0]))

        def corner_rank(weight0):
            rest = (1.0 - weight0) / 3.0
            spec = UtilitySpec(kind="weighted",
                               weights=(weight0, rest, rest, rest))
            values = [utility(row, spec) for row in preds]
            order = sorted(range(4), key=lambda i: -values[i])
            return order.index(best_for_cap0)

        ranks = [corner_rank(w) for w in (0.25, 0.4, 0.6, 0.8, 1.0)]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def reference_search_optimum(model: SurfaceModel, spec: UtilitySpec,
                             resolution: float) -> SearchResult:
    """The search as an exhaustive sweep: every capability predicted at every
    lattice point, and the winner's sweep value as its predicted utility."""
    steps = lattice_steps(resolution)
    lattice = simplex_lattice(model.input_dim, steps)
    values = utilities(model.predict_batch(lattice), spec)
    best = int(np.argmax(values))
    weights = normalize_simplex(lattice[best])
    scores = model.predict_batch(weights[None, :])[0]
    return SearchResult(weights, float(values[best]),
                        tuple(float(v) for v in scores), 1.0 / steps,
                        lattice.shape[0])


def assert_same_search(actual: SearchResult, expected: SearchResult):
    """Equal to the bit, signed zeros included."""
    assert actual.weights.tobytes() == expected.weights.tobytes()
    assert (np.float64(actual.predicted_utility).tobytes()
            == np.float64(expected.predicted_utility).tobytes())
    assert (np.asarray(actual.predicted_scores).tobytes()
            == np.asarray(expected.predicted_scores).tobytes())
    assert actual.resolution == expected.resolution
    assert actual.evaluated_points == expected.evaluated_points


def search_pick(result: SearchResult) -> SearchResult:
    """The search pick behind a stage's answer, as `search_optimum` gives it."""
    return SearchResult(result.search_weights, result.predicted_utility,
                        result.predicted_scores, result.resolution,
                        result.evaluated_points)


def synthetic_surface(m: int, k: int = 3, n: int = 30,
                      spec: UtilitySpec | None = None) -> SurfaceModel:
    """A small fitted surface with M = m capabilities, some of them negative,
    fitted for `spec` (macro: every capability)."""
    rng = np.random.default_rng(100 + m)
    x = dirichlet_points(k, n, rng)
    columns = [np.sin((j + 2) * x[:, j % k]) - 0.4 * (j % 2) for j in range(m)]
    return fit_surface(x, np.column_stack(columns), [f"c{j}" for j in range(m)],
                       [NormContext(0, 1)] * m,
                       hyper=BoostHyper(n_trees=12, max_depth=2), utility_spec=spec)


def read_specs(m: int):
    weights = [0.0] * m
    weights[1] += 0.5
    weights[-1] += 0.5  # [0, 1] when m == 2
    return [UtilitySpec(),
            UtilitySpec(kind="weighted", weights=tuple(weights)),
            UtilitySpec(kind="single", index=m // 2)]


def count_predicted_rows(model: SurfaceModel, monkeypatch) -> list[list[int]]:
    """Rows passed to each capability's predict, call by call."""
    calls = [[] for _ in model.regressors]
    for m, reg in enumerate(model.regressors):
        def predict(x, m=m, inner=reg.predict):
            calls[m].append(len(x))
            return inner(x)
        monkeypatch.setattr(reg, "predict", predict)
    return calls


class TestReadColumnsSearch:
    """The sweep predicts only the capabilities the utility reads and must
    find what a sweep predicting all of them finds."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_full_prediction(self, m):
        model = synthetic_surface(m)
        for spec in read_specs(m):
            assert_same_search(search_optimum(model, spec, resolution=0.1),
                               reference_search_optimum(model, spec, 0.1))

    def test_unread_capabilities_predicted_for_the_winner_only(self, monkeypatch):
        """No lattice point goes through predict: every capability, read or
        not, is predicted once, at the winning lattice point and its
        weights."""
        model = synthetic_surface(5)
        spec = UtilitySpec(kind="weighted", weights=(0.0, 0.5, 0.0, 0.0, 0.5))
        calls = count_predicted_rows(model, monkeypatch)
        search_optimum(model, spec, resolution=0.1)
        assert calls == [[2]] * 5

    def test_negative_unread_columns_and_negative_zero_terms(self):
        """Every read term is -0.0 and every unread column negative, so a zero
        weight times an unread prediction is -0.0 where the sweep has 0.0."""
        hyper = BoostHyper(n_trees=1)
        constant = lambda value: GradientBoostedRegressor(hyper, init_value=value)
        model = SurfaceModel(
            capabilities=["a", "b", "c", "d"],
            regressors=[constant(-1.0), constant(-0.0), constant(-0.0),
                        constant(-2.5)],
            contexts=[NormContext(0, 1)] * 4, hyper=hyper,
            utility_spec=UtilitySpec(kind="weighted", weights=(0, 0.5, 0.5, 0)),
            sample_digest="d", train_error=[0.0] * 4, num_samples=5, input_dim=3)
        full = model.predict_batch(np.eye(3))
        assert np.all(np.signbit(full)) and np.all(full[:, [0, 3]] < 0)
        for spec in (model.utility_spec, UtilitySpec(kind="single", index=2)):
            result = search_optimum(model, spec, resolution=0.25)
            assert_same_search(result, reference_search_optimum(model, spec, 0.25))
            assert result.predicted_utility == 0.0
            np.testing.assert_array_equal(result.weights, [0.0, 0.0, 1.0])

    def test_cluster_utility_stage_on_qw_sep(self, qw_sep):
        base = qw_sep.base_params()
        cfg = TrainConfig(learning_rate=0.1, steps=60, checkpoint_interval=60,
                          seed=stable_seed(RUN_SEED, "train"))
        experts = [train_expert(qw_sep, k, base, cfg) for k in range(4)]
        ctx = HierarchyContext(world=qw_sep, base=base, experts=experts,
                               seed=RUN_SEED)
        cluster = MixtureNode.from_dict({
            "name": "m", "children": [{"name": "m-a", "domain": "m-a"},
                                      {"name": "m-b", "domain": "m-b"}]})
        world, spec = ctx.cluster_scope(cluster)
        assert world.names == ["m-a", "m-b"]
        assert spec.weights == (0.5, 0.5)
        # 101 two-way lattice points at 0.01, more than the design of 60.
        stage = run_search_stage(world, base, experts[:2], design_size=60,
                                 seed=stable_seed(RUN_SEED, "design", "m"),
                                 utility_spec=spec, resolution=0.01)
        assert stage.model.capabilities == ["m-a", "m-b"]
        assert_same_search(search_pick(stage.search),
                           reference_search_optimum(stage.model, spec, 0.01))

    def test_every_stage_of_a_qw_sep_top_down_run(self, qw_sep):
        base = qw_sep.base_params()
        cfg = TrainConfig(learning_rate=0.1, steps=60, checkpoint_interval=60,
                          seed=stable_seed(RUN_SEED, "train"))
        experts = [train_expert(qw_sep, k, base, cfg) for k in range(4)]
        # 201 two-way lattice points at 0.005, more than the design of 120.
        ctx = HierarchyContext(world=qw_sep, base=base, experts=experts,
                               design_size=120, resolution=0.005, seed=RUN_SEED)
        tree = MixtureNode.from_dict({"name": "root", "children": [
            {"name": c, "children": [{"name": f"{c}-{x}", "domain": f"{c}-{x}"}
                                     for x in "ab"]} for c in "mc"]})
        optimize_top_down(tree, ctx)
        assert len(ctx.stage_log) == 3
        for stage in ctx.stage_log.values():
            model = stage.model
            assert_same_search(search_pick(stage.search), reference_search_optimum(
                model, model.utility_spec, 0.005))

    def test_qw4_stage(self, qw4_stage):
        for spec in read_specs(4):
            assert_same_search(search_optimum(qw4_stage.model, spec),
                               reference_search_optimum(qw4_stage.model, spec,
                                                        0.05))

    def test_k8_quadratic_world(self):
        """19,448 coarse points; the utility reads the last two domains."""
        rng = np.random.default_rng(88)
        quadratics = []
        for _ in range(8):
            a = rng.standard_normal((8, 8))
            quadratics.append(Quadratic(rng.standard_normal(8),
                                        a @ a.T / 8 + 0.5 * np.eye(8)))
        world = QuadraticWorld([f"d{i}" for i in range(8)], quadratics)
        base = world.base_params()
        cfg = TrainConfig(learning_rate=0.1, steps=20, checkpoint_interval=20)
        experts = [train_expert(world, k, base, cfg) for k in range(8)]
        spec = UtilitySpec(kind="weighted", weights=(0,) * 6 + (0.5, 0.5))
        stage = run_search_stage(world, base, experts, design_size=80, seed=8,
                                 hyper=BoostHyper(n_trees=40),
                                 utility_spec=spec, resolution=0.1)
        assert lattice_size(8, 10) == 19448
        assert_same_search(search_pick(stage.search),
                           reference_search_optimum(stage.model, spec, 0.1))

    def test_all_ties_pick_the_lexicographically_first_point(self):
        model = surface_of(5, constant_regressor(0.25), constant_regressor(-0.5),
                           spec=UtilitySpec())
        for spec in read_specs(2):
            result = search_optimum(model, spec, resolution=0.1)
            assert_same_search(result, reference_search_optimum(model, spec, 0.1))
            np.testing.assert_array_equal(result.weights, [0, 0, 0, 0, 1])

    def test_coarse_lattice_over_budget_raises_before_any_bound(
            self, monkeypatch):
        model = synthetic_surface(3, k=6)
        bounded = []
        monkeypatch.setattr(GradientBoostedRegressor, "lattice_bound",
                            lambda *args: bounded.append(1))
        budget = lattice_size(6, 10) - 1
        with pytest.raises(BudgetExceededError,
                           match=f"^simplex lattice exceeds the budget of {budget}$"):
            search_optimum(model, resolution=0.1, budget=budget)
        assert bounded == []

    def test_default_budget_holds_the_k8_lattice(self):
        """An 8-way search at 0.05 covers 888,030 points, which the default
        budget holds; the search counts exactly those. The surrogate is
        fitted to a bowl around the uniform point, so its optimum has many
        nonzero weights."""
        x = dirichlet_points(8, 60, np.random.default_rng(1))
        y = -np.sum((x - 1 / 8) ** 2, axis=1)
        model = fit_surface(x, y[:, None], ["bowl"], [NormContext(0, 1)],
                            hyper=BoostHyper(n_trees=12, max_depth=2),
                            utility_spec=UtilitySpec(kind="single", index=0))
        result = search_optimum(model, resolution=0.05)
        assert result.evaluated_points == lattice_size(8, 20) == 888030
        units = result.weights * 20
        np.testing.assert_array_equal(units, np.rint(units))

    def test_budget_of_exactly_the_lattice_is_enough(self):
        model = synthetic_surface(3, k=4)
        spec = model.utility_spec
        assert_same_search(search_optimum(model, spec, resolution=0.1,
                                          budget=lattice_size(4, 10)),
                           reference_search_optimum(model, spec, 0.1))


def test_qw2_flat_pick_is_the_best_point_of_its_lattice(tmp_path):
    """The shipped qw2-flat run reports the point of its 0.05 lattice whose
    merged utility, in the run's own units, is the largest."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs"
                      / "qw2-flat.json")
    run_dir = run_pipeline(cfg, tmp_path)
    world = cfg.build_world()
    experts = [load_checkpoint(run_dir / "experts" / f"{name}.ckpt")[0]
               for name in world.names]
    contexts = load_surface(run_dir / "surface.model.json").contexts
    lattice = simplex_lattice(2, 20)
    values = utilities(merged_scores(world, world.base_params(), experts,
                                     lattice, contexts), cfg.utility_spec)
    pick = np.asarray(read_json(run_dir / "report.json")["optimum"]["weights"])
    units = np.rint(pick * 20)
    np.testing.assert_allclose(pick, units / 20, rtol=0, atol=1e-12)
    assert values[int(units[0])] == values.max()  # row c holds (c, 20 - c) / 20


class TestExactStage:
    """A stage whose lattice has no more points than its design scores the
    whole lattice and fits nothing."""

    def test_pick_is_the_brute_force_argmax_in_the_lattice_contexts(
            self, qw4, qw4_experts):
        """35 points at 0.25 against a design of 40. The contexts are built
        from the lattice rows merged and scored one at a time."""
        base = qw4.base_params()
        lattice = simplex_lattice(4, 4)
        raws = np.array([[raw_capability(qw4, m, merge(base, expert_params(qw4_experts), w))
                          for m in range(4)] for w in lattice])
        contexts = [NormContext(float(c.min()), float(c.max())) for c in raws.T]
        scores = merged_scores(qw4, base, qw4_experts, lattice, contexts)
        for spec in read_specs(4):
            stage = run_search_stage(qw4, base, qw4_experts, design_size=40,
                                     seed=stable_seed(RUN_SEED, "design"),
                                     utility_spec=spec, resolution=0.25)
            assert stage.model.contexts == contexts
            best = int(np.argmax(utilities(scores, spec)))
            assert (stage.search.weights.tobytes()
                    == normalize_simplex(lattice[best]).tobytes())
            assert stage.configs.tobytes() == lattice.tobytes()
            assert stage.scores.tobytes() == scores.tobytes()
            assert stage.model.exact and stage.model.regressors == [None] * 4
            assert stage.model.train_error == [None] * 4
            assert stage.search.predicted_utility is None
            assert stage.search.predicted_scores == (None,) * 4
            assert stage.search.evaluated_points == 35
            assert stage.search.resolution == 0.25

    def test_ties_pick_the_lexicographically_first_point(self, qw2, qw2_experts):
        """Two copies of one expert merge to the same model at every point,
        so every lattice point ties."""
        twins = [qw2_experts[0], qw2_experts[0]]
        stage = run_search_stage(qw2, qw2.base_params(), twins, design_size=40,
                                 resolution=0.1)
        assert len(set(utilities(stage.scores, UtilitySpec()).tolist())) == 1
        np.testing.assert_array_equal(stage.search.weights, [0.0, 1.0])

    @pytest.mark.parametrize("design,exact", [(11, True), (10, False)])
    def test_lattice_of_the_design_size_is_exact(self, qw2, qw2_experts,
                                                 design, exact):
        """11 points at 0.1: a design of 11 takes the exact path, one of 10
        the surrogate path."""
        assert lattice_size(2, lattice_steps(0.1)) == 11
        stage = run_search_stage(qw2, qw2.base_params(), qw2_experts,
                                 design_size=design,
                                 seed=stable_seed(RUN_SEED, "design"),
                                 resolution=0.1)
        assert stage.model.exact is exact
        assert stage.configs.shape == (11 if exact else design, 2)
        assert stage.model.fitted_columns == ([] if exact else [0, 1])
        assert (stage.search.predicted_utility is None) is exact

    def test_merges_exactly_the_lattice(self, qw4, qw4_experts, monkeypatch):
        """286 points at 0.1 against a design of 600: 286 rows are merged,
        and no design is drawn, no surface fitted and none searched. Of the
        pick, the uniform mixture and the corners, only the uniform mixture
        (a quarter each) is not a lattice point, so it alone is merged
        again; the others read their lattice rows."""
        import mergemix.surface as surface

        merged_rows = []

        def counting_merge(base, experts, weights):
            merged_rows.append(np.atleast_2d(weights).shape[0])
            if merged_rows[1:]:
                np.testing.assert_array_equal(weights, [[0.25] * 4])
            return merge(base, experts, weights)

        def unused(*args, **kwargs):
            raise AssertionError("an exact stage called the surrogate path")

        monkeypatch.setattr(surface, "merge", counting_merge)
        for name in ("sample_seed_configs", "fit_surface", "search_optimum"):
            monkeypatch.setattr(surface, name, unused)
        stage = run_search_stage(qw4, qw4.base_params(), qw4_experts,
                                 design_size=600, resolution=0.1)
        assert merged_rows == [lattice_size(4, 10), 1] == [286, 1]
        assert stage.search.evaluated_points == 286

    def test_two_stages_are_bit_identical(self, qw4, qw4_experts):
        runs = [run_search_stage(qw4, qw4.base_params(), qw4_experts,
                                 design_size=300, resolution=0.1)
                for _ in range(2)]
        a, b = runs
        assert a.configs.tobytes() == b.configs.tobytes()
        assert a.scores.tobytes() == b.scores.tobytes()
        assert a.digests == b.digests
        assert a.model.to_dict() == b.model.to_dict()
        assert a.search.weights.tobytes() == b.search.weights.tobytes()

    def test_verify_reports_an_exact_search(self, qw4, qw4_experts):
        base = qw4.base_params()
        stage = run_search_stage(qw4, base, qw4_experts, design_size=40,
                                 resolution=0.25)
        report = verify_optimum(qw4, base, qw4_experts, stage.model, stage.search)
        assert report["search_kind"] == "exact"
        assert report["predicted_scores"] == [None] * 4
        assert report["per_capability_gap"] == [None] * 4
        assert report["max_abs_gap"] is None
        assert report["predicted_utility"] is None
        best = utilities(stage.scores, stage.model.utility_spec).max()
        assert report["actual_utility"] == pytest.approx(best, abs=1e-12)
        assert json.loads(json.dumps(report)) == report

    def test_exact_surface_round_trips(self, qw4, qw4_experts, tmp_path):
        """An exact surface holds only its contexts; it loads, and it cannot
        be searched."""
        stage = run_search_stage(qw4, qw4.base_params(), qw4_experts,
                                 design_size=40, resolution=0.25)
        path = tmp_path / "surface.model.json"
        write_json(path, stage.model.lazy_dict())
        data = read_json(path)
        assert data["format"] == SURFACE_FORMAT
        assert data["regressors"] == [None] * 4
        assert data["num_samples"] == 35
        clone = load_surface(path)
        assert clone.exact and clone.contexts == stage.model.contexts
        with pytest.raises(MergeMixError, match="not fitted; this surface "
                                                r"fits only \[\]"):
            search_optimum(clone, resolution=0.25)

    def test_exact_surface_records_no_tree_settings(self, qw4, qw4_experts,
                                                    tmp_path):
        """An exact stage fits nothing: its surface writes a null `hyper`,
        and its bytes do not depend on the tree settings it is given. A file
        written before, with settings there, still loads."""
        written = []
        for i, hyper in enumerate((None, BoostHyper(n_trees=7, max_depth=2))):
            stage = run_search_stage(qw4, qw4.base_params(), qw4_experts,
                                     design_size=40, resolution=0.25,
                                     hyper=hyper)
            path = tmp_path / f"surface.{i}.json"
            write_json(path, stage.model.lazy_dict())
            written.append(path.read_bytes())
        assert written[0] == written[1]
        data = read_json(path)
        assert data["hyper"] is None
        assert load_surface(path).hyper is None
        data["hyper"] = BoostHyper().to_dict()
        write_json(path, data)
        clone = load_surface(path)
        assert clone.exact and clone.hyper == BoostHyper()


QW4_WEIGHTED = UtilitySpec(kind="weighted", weights=(0.0, 0.0, 0.5, 0.5))
QW3_TRAIN = TrainConfig(learning_rate=0.05, steps=3, checkpoint_interval=3,
                        seed=stable_seed(RUN_SEED, "train"))
# Six quadratic domains, minimizers on the axes at norms 0.6 to 1.6, and a
# utility on the last two: a surrogate stage (53,130 lattice points at 0.05).
K6_WEIGHTED = {
    "name": "k6-weighted", "seed": RUN_SEED, "mode": "flat",
    "world": {"domains": [
        {"name": f"d{i + 1}", "kind": "quadratic",
         "minimizer": ((0.6 + 0.2 * i) * np.eye(6)[i]).tolist(),
         "curvature": np.eye(6).tolist()}
        for i in range(6)]},
    "train": {"learning_rate": 0.1, "steps": 3, "checkpoint_interval": 3},
    "design": {"size": 200}, "search": {"resolution": 0.05},
    "utility": {"kind": "weighted", "weights": [0, 0, 0, 0, 0.5, 0.5]},
}


class TestSelection:
    """A surrogate stage answers with the best actual utility among its
    search pick, its design rows, the uniform mixture and the corners."""

    @pytest.fixture(scope="class")
    def weighted_stage(self, qw4, qw4_experts):
        return run_search_stage(qw4, qw4.base_params(), qw4_experts,
                                design_size=40,
                                seed=stable_seed(RUN_SEED, "design"),
                                utility_spec=QW4_WEIGHTED)

    def test_answer_beats_the_design_and_every_baseline(
            self, qw4, qw4_experts, weighted_stage):
        stage = weighted_stage
        report = verify_optimum(qw4, qw4.base_params(), qw4_experts,
                                stage.model, stage.search)
        # On this fixture the surrogate's pick is not the best scored row.
        assert report["selected_from"] == "design"
        assert (report["search_pick"]["actual_utility"]
                < report["actual_utility"])
        assert report["actual_utility"] == max(
            utilities(stage.scores, QW4_WEIGHTED))
        baselines = np.vstack([np.full(4, 0.25), np.eye(4)])
        fresh = utilities(merged_scores(qw4, qw4.base_params(), qw4_experts,
                                        baselines, stage.model.contexts),
                          QW4_WEIGHTED).tolist()
        assert report["baseline_utilities"] == dict(zip(
            ["uniform"] + [f"corner_{name}" for name in qw4.names], fresh))
        assert report["actual_utility"] >= max(fresh)

    def test_selected_design_row_scores_as_a_fresh_merge(
            self, qw4, qw4_experts, weighted_stage):
        """The answer's scores, read from the design, are those of merging
        and scoring its weights alone, to the bit."""
        stage = weighted_stage
        base = qw4.base_params()
        report = verify_optimum(qw4, base, qw4_experts, stage.model, stage.search)
        fresh = merged_scores(qw4, base, qw4_experts, [stage.search.weights],
                              stage.model.contexts)
        assert report["actual_scores"] == fresh[0].tolist()
        assert (np.float64(report["actual_utility"]).tobytes()
                == utilities(fresh, QW4_WEIGHTED)[0].tobytes())
        assert report["weights"] == stage.search.weights.tolist()
        assert report["search_pick"]["weights"] == (
            stage.search.search_weights.tolist())
        # The predictions, gaps and predicted utility stay the pick's.
        pick_report = verify_optimum(qw4, base, qw4_experts, stage.model,
                                     search_pick(stage.search))
        for key in ("predicted_scores", "per_capability_gap", "max_abs_gap",
                    "predicted_utility", "baseline_utilities"):
            assert report[key] == pick_report[key], key
        assert pick_report["actual_utility"] == (
            report["search_pick"]["actual_utility"])
        assert pick_report["selected_from"] == "search"

    def test_exact_tie_goes_to_the_search_pick(self, qw2, qw2_experts):
        """Two copies of one expert merge to the same model at every
        weight, so the pick, every design row and every baseline tie."""
        twins = [qw2_experts[0], qw2_experts[0]]
        stage = run_search_stage(qw2, qw2.base_params(), twins, design_size=10,
                                 seed=stable_seed(RUN_SEED, "design"),
                                 resolution=0.1)
        assert not stage.model.exact
        candidates = np.vstack([stage.scores, stage.search.check_scores])
        assert len(set(utilities(candidates, UtilitySpec()).tolist())) == 1
        assert stage.search.selected_from == "search"
        assert stage.search.pick_weights is None
        pick = search_optimum(stage.model, resolution=0.1)
        assert stage.search.weights.tobytes() == pick.weights.tobytes()

    def test_exact_stage_answers_the_uniform_mixture_off_its_lattice(self):
        """Three symmetric domains at resolution 0.1: the 66-point lattice
        fits a design of 66, so the stage is exact. Its lattice argmax is a
        permutation of (0.3, 0.3, 0.4), and the uniform mixture, which is
        not a lattice point, scores higher."""
        world = QuadraticWorld(["a", "b", "c"],
                               [Quadratic(e, np.eye(3)) for e in np.eye(3)])
        base = world.base_params()
        experts = [train_expert(world, k, base, QW3_TRAIN) for k in range(3)]
        stage = run_search_stage(world, base, experts, design_size=66,
                                 resolution=0.1)
        assert stage.model.exact and stage.configs.shape == (66, 3)
        report = verify_optimum(world, base, experts, stage.model, stage.search)
        assert report["selected_from"] == "uniform"
        np.testing.assert_array_equal(stage.search.weights, uniform_weights(3))
        np.testing.assert_array_equal(stage.search.search_weights,
                                      [0.3, 0.3, 0.4])
        lattice_best = utilities(stage.scores, UtilitySpec()).max()
        assert report["search_pick"]["actual_utility"] == lattice_best
        assert report["actual_utility"] > lattice_best
        assert report["actual_utility"] == max(
            report["baseline_utilities"].values())

    @pytest.mark.parametrize("config,expected", [
        (read_json(Path(__file__).resolve().parent.parent / "configs"
                   / "qw4-weighted.json"), [40, 1, 1]),
        (K6_WEIGHTED, [200, 2, 1]),
    ], ids=["qw4-weighted", "k6-weighted"])
    def test_flat_run_reads_the_baselines_its_design_scored(
            self, tmp_path, monkeypatch, config, expected):
        """The design, then the check rows the design does not hold as one
        stack, then the checkpoint. Every design holds the corners. QW-4's
        quarter grid holds the uniform mixture, so only the pick is merged
        again; a 6-domain design does not hold (1/6, ..., 1/6), so the pick
        and the uniform mixture are."""
        import mergemix.hierarchy
        import mergemix.pipeline
        import mergemix.surface

        merged_rows = []

        def counting_merge(base, experts, weights):
            merged_rows.append(np.atleast_2d(weights).shape[0])
            return merge(base, experts, weights)

        for module in (mergemix.surface, mergemix.pipeline, mergemix.hierarchy):
            monkeypatch.setattr(module, "merge", counting_merge)
        run_dir = run_pipeline(parse_config(config), tmp_path)
        assert merged_rows == expected
        report = read_json(run_dir / "report.json")
        assert report["optimum"]["selected_from"] == "design"
        _, data = load_checkpoint(run_dir / "merged.optimum.ckpt")
        assert data["provenance"]["weights"] == report["optimum"]["weights"]


class TestVerify:
    def test_reevaluation_matches_stored_sample(self, qw4, qw4_experts,
                                                qw4_stage):
        """Verifying at a seed-design point reproduces the stored scores."""
        raws, _ = collect_raw_scores(qw4, qw4.base_params(), qw4_experts,
                                     qw4_stage.configs[7:8])
        renormed = [qw4_stage.model.contexts[m].apply(raws[0, m])
                    for m in range(4)]
        assert renormed == qw4_stage.scores[7].tolist()

    def test_report_structure_and_gap(self, qw4, qw4_experts, qw4_stage):
        report = verify_optimum(qw4, qw4.base_params(), qw4_experts,
                                qw4_stage.model, qw4_stage.search)
        assert report["max_abs_gap"] <= 0.1
        assert set(report["baseline_utilities"]) == {
            "uniform", "corner_math", "corner_code", "corner_sft", "corner_web"}

    def test_report_json_round_trip(self, qw4, qw4_experts, qw4_stage):
        report = verify_optimum(qw4, qw4.base_params(), qw4_experts,
                                qw4_stage.model, qw4_stage.search)
        assert json.loads(json.dumps(report)) == report


WEIGHTED_5 = UtilitySpec(kind="weighted", weights=(0.0, 0.5, 0.0, 0.0, 0.5))


def assert_same_regressor(a: GradientBoostedRegressor,
                          b: GradientBoostedRegressor):
    """Same hyper, init value and trees, every tree array equal to the bit."""
    assert a.hyper == b.hyper
    assert np.float64(a.init_value).tobytes() == np.float64(b.init_value).tobytes()
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        for name in ("features", "thresholds", "lefts", "rights", "values"):
            x, y = getattr(ta, name), getattr(tb, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert ta.max_depth == tb.max_depth


def weighted_surface() -> tuple[SurfaceModel, SurfaceModel]:
    """synthetic_surface(5) fitted for WEIGHTED_5, and for every column."""
    return synthetic_surface(5, spec=WEIGHTED_5), synthetic_surface(5)


class TestReadColumnsFit:
    """A surface fits only the capabilities its utility reads."""

    def test_weighted_spec_fits_exactly_the_utility_columns(self):
        part, full = weighted_surface()
        assert part.fitted_columns == [1, 4]
        assert full.fitted_columns == [0, 1, 2, 3, 4]
        assert [r is None for r in part.regressors] == [True, False, True, True,
                                                        False]
        assert part.train_error[0] is None and part.train_error[2] is None
        for m in (1, 4):
            assert_same_regressor(part.regressors[m], full.regressors[m])
            assert part.train_error[m] == full.train_error[m]
        assert part.contexts == full.contexts
        assert part.sample_digest == full.sample_digest

    def test_single_spec_fits_its_index(self):
        single = synthetic_surface(3, spec=UtilitySpec(kind="single", index=2))
        assert single.fitted_columns == [2]
        assert single.train_error[:2] == [None, None]

    def test_unfitted_columns_predict_zero(self):
        part, full = weighted_surface()
        grid = dirichlet_points(3, 7, np.random.default_rng(4))
        predicted = part.predict_batch(grid)
        np.testing.assert_array_equal(predicted[:, [0, 2, 3]], 0.0)
        assert predicted[:, [1, 4]].tobytes() == \
            full.predict_batch(grid)[:, [1, 4]].tobytes()
        with pytest.raises(MergeMixError, match=r"\['c2'\] are not fitted"):
            part.predict_batch(grid, columns=[1, 2])

    def test_search_reading_an_unfitted_column_raises_before_any_bound(
            self, monkeypatch):
        part, _ = weighted_surface()
        bounded = []
        monkeypatch.setattr(GradientBoostedRegressor, "lattice_bound",
                            lambda *args: bounded.append(1))
        for spec in (UtilitySpec(), UtilitySpec(kind="single", index=0),
                     UtilitySpec(kind="weighted",
                                 weights=(0.0, 0.5, 0.5, 0.0, 0.0))):
            with pytest.raises(MergeMixError, match="not fitted; this surface "
                                                    r"fits only \['c1', 'c4'\]"):
                search_optimum(part, spec, resolution=0.1)
        assert bounded == []

    def test_search_matches_a_surface_that_fits_every_column(self):
        """Same pick and utility; unfitted predicted scores are 0.0."""
        part, full = weighted_surface()
        for spec in (WEIGHTED_5, UtilitySpec(kind="single", index=4)):
            expected = search_optimum(full, spec, resolution=0.1)
            scores = tuple(v if m in (1, 4) else 0.0
                           for m, v in enumerate(expected.predicted_scores))
            assert_same_search(search_optimum(part, spec, resolution=0.1),
                               replace(expected, predicted_scores=scores))

    def test_qw4_weighted_stage_matches_a_surface_fitting_every_column(
            self, qw4, qw4_experts):
        """The pick, predicted_utility and actual_utility of a QW-4 weighted
        stage are those of a surface that fits all four capabilities."""
        spec = UtilitySpec(kind="weighted", weights=(0.0, 0.0, 0.5, 0.5))
        base = qw4.base_params()
        stage = run_search_stage(qw4, base, qw4_experts, design_size=40,
                                 seed=stable_seed(RUN_SEED, "design"),
                                 utility_spec=spec)
        assert stage.model.fitted_columns == [2, 3]
        full = replace(fit_surface(stage.configs, stage.scores, list(qw4.names),
                                   stage.model.contexts),
                       utility_spec=spec)
        assert full.fitted_columns == [0, 1, 2, 3]
        expected = search_optimum(full, spec)
        pick = search_pick(stage.search)
        assert pick.weights.tobytes() == expected.weights.tobytes()
        assert (np.float64(pick.predicted_utility).tobytes()
                == np.float64(expected.predicted_utility).tobytes())
        assert pick.predicted_scores[:2] == (0.0, 0.0)
        assert pick.predicted_scores[2:] == expected.predicted_scores[2:]

        report = verify_optimum(qw4, base, qw4_experts, stage.model, pick)
        full_report = verify_optimum(qw4, base, qw4_experts, full, expected)
        for key in ("weights", "capabilities", "actual_scores",
                    "predicted_utility", "actual_utility", "baseline_utilities"):
            assert report[key] == full_report[key], key
        assert report["predicted_scores"][:2] == [None, None]
        assert report["per_capability_gap"][:2] == [None, None]
        assert report["predicted_scores"][2:] == full_report["predicted_scores"][2:]
        assert (report["per_capability_gap"][2:]
                == full_report["per_capability_gap"][2:])
        assert report["max_abs_gap"] == max(
            abs(g) for g in full_report["per_capability_gap"][2:])
        assert all(isinstance(v, float) for v in report["actual_scores"])
        assert json.loads(json.dumps(report)) == report


class TestSurfaceFile:
    def test_v2_round_trip_with_null_slots(self, tmp_path):
        part, _ = weighted_surface()
        path = tmp_path / "surface.model.json"
        write_json(path, part.lazy_dict())
        data = read_json(path)
        assert data["format"] == SURFACE_FORMAT == "mm-surface-v2"
        assert [r is None for r in data["regressors"]] == \
            [r is None for r in part.regressors]
        assert data["train_error"] == part.train_error
        assert len(data["contexts"]) == 5
        clone = load_surface(path)
        assert clone.fitted_columns == [1, 4]
        assert clone.train_error == part.train_error
        for m in (1, 4):
            assert_same_regressor(clone.regressors[m], part.regressors[m])
        again = tmp_path / "again.json"
        write_json(again, clone.lazy_dict())
        assert again.read_bytes() == path.read_bytes()

    def test_v1_file_still_loads(self, qw4_stage, tmp_path):
        """A v1 file is a v2 file with every capability fitted."""
        data = qw4_stage.model.to_dict()
        data["format"] = "mm-surface-v1"
        path = tmp_path / "surface.model.json"
        write_json(path, data)
        clone = load_surface(path)
        assert clone.fitted_columns == [0, 1, 2, 3]
        grid = dirichlet_points(4, 10, np.random.default_rng(1))
        assert (clone.predict_batch(grid).tobytes()
                == qw4_stage.model.predict_batch(grid).tobytes())
        assert_same_search(search_optimum(clone), search_pick(qw4_stage.search))

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["regressors"].__setitem__(1, None), "are not fitted"),
        (lambda d: d["train_error"].pop(), "need 5 regressor slots"),
    ], ids=["utility-reads-a-null-slot", "slot-count"])
    def test_inconsistent_slots_are_a_malformed_file(self, tmp_path, edit,
                                                     message):
        part, _ = weighted_surface()
        data = part.to_dict()
        edit(data)
        path = tmp_path / "surface.model.json"
        write_json(path, data)
        with pytest.raises(SurfaceFileError, match=message):
            load_surface(path)
