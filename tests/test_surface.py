import json

import numpy as np
import pytest

from mergemix.errors import BudgetExceededError, MergeMixError
from mergemix.gbt import BoostHyper
from mergemix.seeding import rng_for, stable_seed
from mergemix.simplex import dirichlet_points, normalize_simplex, simplex_lattice
from mergemix.stats import NormContext, UtilitySpec, spearman
from mergemix.surface import (
    DUPLICATE_TOL,
    SeedDesign,
    SurfaceModel,
    SurfaceSample,
    collect_raw_scores,
    collect_samples,
    fit_surface,
    run_search_stage,
    sample_seed_configs,
    search_optimum,
    verify_optimum,
)
from tests.conftest import RUN_SEED


def reference_seed_configs(k, n, priors=(), seed=0) -> SeedDesign:
    """The seed design with a list scan per duplicate check."""

    def is_duplicate(candidate, rows):
        return any(np.max(np.abs(candidate - r)) <= DUPLICATE_TOL for r in rows)

    rng = rng_for(seed, "seed-design")
    rows, provenance = [], []
    for i in range(k):
        corner = np.zeros(k)
        corner[i] = 1.0
        rows.append(corner)
        provenance.append("corner")
    grid = [p for p in simplex_lattice(k, 4) if not is_duplicate(p, rows)]
    room = n - len(rows)
    if len(grid) > room:
        keep = sorted(rng.choice(len(grid), size=room, replace=False).tolist())
        grid = [grid[i] for i in keep]
    for p in grid:
        rows.append(p)
        provenance.append("grid")
    for prior in priors:
        if len(rows) >= n:
            break
        p = normalize_simplex(prior)
        if not is_duplicate(p, rows):
            rows.append(p)
            provenance.append("prior")
    while len(rows) < n:
        p = dirichlet_points(k, 1, rng)[0]
        if not is_duplicate(p, rows):
            rows.append(p)
            provenance.append("random")
    return SeedDesign(np.asarray(rows), tuple(provenance))


class TestSeedDesign:
    def test_corners_always_present(self):
        design = sample_seed_configs(2, 5, seed=0)
        rows = [tuple(r) for r in design.configs]
        assert (1.0, 0.0) in rows and (0.0, 1.0) in rows

    def test_rows_on_simplex(self):
        design = sample_seed_configs(4, 40, seed=3)
        np.testing.assert_allclose(design.configs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(design.configs >= 0)

    def test_deterministic(self):
        a = sample_seed_configs(4, 40, seed=123)
        b = sample_seed_configs(4, 40, seed=123)
        np.testing.assert_array_equal(a.configs, b.configs)
        assert a.provenance == b.provenance

    def test_exact_size_and_distinct(self):
        design = sample_seed_configs(3, 25, seed=9)
        assert design.size == 25
        for i in range(25):
            for j in range(i + 1, 25):
                assert np.max(np.abs(design.configs[i] - design.configs[j])) > 1e-9

    def test_provenance_structure(self):
        design = sample_seed_configs(4, 40, seed=1)
        assert design.provenance[:4] == ("corner",) * 4
        assert "grid" in design.provenance and "random" in design.provenance

    def test_priors_included(self):
        prior = [0.7, 0.1, 0.1, 0.1]
        design = sample_seed_configs(4, 40, priors=[prior], seed=1)
        assert any(np.allclose(row, prior) for row in design.configs)
        assert "prior" in design.provenance

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
        np.testing.assert_array_equal(design.configs, expected.configs)
        assert design.configs.dtype == expected.configs.dtype
        assert design.provenance == expected.provenance


class TestCollectSamples:
    def test_sample_count_and_range(self, qw4, qw4_experts, qw4_stage):
        assert len(qw4_stage.samples) == 40
        for sample in qw4_stage.samples:
            assert all(0.0 <= s <= 1.0 for s in sample.scores)

    def test_corner_sample_maximizes_own_capability(self, qw4, qw4_experts):
        corners = np.eye(4)
        raws, _ = collect_raw_scores(qw4, qw4.base_params(), qw4_experts, corners)
        for m in range(4):
            assert int(np.argmax(raws[:, m])) == m

    def test_identical_experts_constant_scores(self, qw2, qw2_experts):
        clones = [qw2_experts[0], qw2_experts[0]]
        design = sample_seed_configs(2, 6, seed=4)
        samples, _ = collect_samples(qw2, qw2.base_params(), clones, design)
        first = samples[0].scores
        assert all(s.scores == first for s in samples)


class TestFitAndPredict:
    def test_constant_targets_fit_exactly(self):
        rng = np.random.default_rng(0)
        samples = [SurfaceSample(w, (0.4, 0.4), "d")
                   for w in dirichlet_points(3, 10, rng)]
        model = fit_surface(samples, ["a", "b"],
                            [NormContext(0, 1), NormContext(0, 1)])
        np.testing.assert_array_equal(model.predict([0.2, 0.2, 0.6]), [0.4, 0.4])

    def test_too_few_samples_rejected(self):
        samples = [SurfaceSample(np.array([0.5, 0.3, 0.2]), (0.1,), "d")]
        with pytest.raises(MergeMixError):
            fit_surface(samples, ["a"], [NormContext(0, 1)])

    def test_predict_reproduces_training_targets_within_reported_error(
            self, qw4_stage):
        model = qw4_stage.model
        for sample in qw4_stage.samples:
            pred = model.predict(sample.weights)
            for m in range(4):
                assert abs(pred[m] - sample.scores[m]) <= model.train_error[m] + 1e-12

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
            actual = [qw4_stage.contexts[m].apply(r) for r in raws[:, m]]
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
        def surface(points):
            return (1.0 - (points[:, 0] - 0.3) ** 2)[:, None]

        res = search_optimum(surface, UtilitySpec(kind="single", index=0),
                             k=2, resolution=0.05)
        np.testing.assert_allclose(res.weights, [0.3, 0.7], atol=1e-12)

    def test_constant_surface_lexicographic_tie_break(self):
        const = lambda pts: np.full((pts.shape[0], 1), 0.7)
        res = search_optimum(const, UtilitySpec(kind="single", index=0),
                             k=3, resolution=0.25)
        np.testing.assert_array_equal(res.weights, [0.0, 0.0, 1.0])

    def test_surrogate_fit_localizes_parabola_peak(self):
        xs = np.linspace(0, 1, 51)
        samples = [SurfaceSample(np.array([x, 1.0 - x]),
                                 (1.0 - (x - 0.3) ** 2,), "d") for x in xs]
        model = fit_surface(samples, ["cap"], [NormContext(0.0, 1.0)],
                            utility_spec=UtilitySpec(kind="single", index=0))
        res = search_optimum(model, resolution=0.05)
        assert abs(res.weights[0] - 0.3) <= 0.05 / 5 + 1e-12

    def test_linear_surface_corner_optimal(self):
        linear = lambda pts: pts[:, 1][:, None]
        res = search_optimum(linear, UtilitySpec(kind="single", index=0),
                             k=4, resolution=0.05)
        np.testing.assert_array_equal(res.weights, [0.0, 1.0, 0.0, 0.0])

    def test_corner_dominant_capability_on_qw4(self, qw4, qw4_experts):
        """A single-capability objective lands at (or one refined step from)
        that capability's own corner."""
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
        const = lambda pts: np.zeros((pts.shape[0], 1))
        with pytest.raises(BudgetExceededError):
            search_optimum(const, UtilitySpec(kind="single", index=0),
                           k=10, resolution=0.05, budget=1000)

    def test_resolution_validation(self):
        const = lambda pts: np.zeros((pts.shape[0], 1))
        with pytest.raises(MergeMixError):
            search_optimum(const, UtilitySpec(kind="single", index=0),
                           k=2, resolution=0.5)

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


class TestVerify:
    def test_reevaluation_matches_stored_sample(self, qw4, qw4_experts,
                                                qw4_stage):
        """Verifying at a seed-design point reproduces the stored scores."""
        sample = qw4_stage.samples[7]
        raws, _ = collect_raw_scores(qw4, qw4.base_params(), qw4_experts,
                                     [sample.weights])
        renormed = tuple(qw4_stage.contexts[m].apply(raws[0, m])
                         for m in range(4))
        assert renormed == sample.scores

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
