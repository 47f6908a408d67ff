import numpy as np
import pytest

import mergemix.training
from mergemix.errors import DegenerateInputError, MergeMixError
from mergemix.merging import merge
from mergemix.simplex import dirichlet_points, normalize_simplex, simplex_lattice
from mergemix.theory import (
    TaylorContext,
    discrepancy,
    discrepancy_sweep,
    horizon_scaling_check,
    predict_merge_params,
    predict_mixture_params,
    relative_curvature,
    task_vector_cosines,
)
from mergemix.training import TrainConfig, final_only, train_all_experts
from mergemix.worlds import fixture_qw2, fixture_qw4
from tests.test_merging import reference_merge
from tests.test_training import reference_mixture, set_block_rows


# Test-only reference kernels: the one-row discrepancy and the row-by-row
# sweep that the theory runner used before the batched sweep.

def reference_discrepancy(ctx, lam):
    table = ctx.curvature_responses
    scale = 0.5 * ctx.horizon**2
    cross = np.zeros_like(ctx.theta0)
    self_term = np.zeros_like(ctx.theta0)
    for k in range(ctx.num_domains):
        for j in range(ctx.num_domains):
            if k == j:
                self_term += (lam[k] * lam[k] - lam[k]) * table[k, k]
            else:
                cross += lam[k] * lam[j] * table[k, j]
    cross = scale * cross
    self_term = scale * self_term
    return cross + self_term, cross, self_term


def reference_sweep(world, base, params, grid, ctx, config):
    rows = []
    for lam in grid:
        delta, cross, self_term = reference_discrepancy(ctx, normalize_simplex(lam))
        mixed, _ = reference_mixture(world, lam, base, config)
        observed = mixed - reference_merge(base, params, lam)
        rows.append([np.linalg.norm(x) for x in
                     (delta, cross, self_term, observed, observed - delta)])
    return np.asarray(rows)


@pytest.fixture(scope="module")
def ctx_qw2():
    world = fixture_qw2()
    return TaylorContext.from_world(world, world.base_params(), 0.1)


class TestPredictions:
    def test_mixture_hand_value(self, ctx_qw2):
        out = predict_mixture_params(ctx_qw2, [0.5, 0.5])
        np.testing.assert_allclose(out, [0.04625, 0.0475], atol=1e-15)

    def test_merge_hand_value(self, ctx_qw2):
        out = predict_merge_params(ctx_qw2, [0.5, 0.5])
        np.testing.assert_allclose(out, [0.0475, 0.0475], atol=1e-15)

    def test_single_domain_hand_value(self):
        """One domain, unit curvature: the quadratic term pulls the
        first-order point back toward the start."""
        from mergemix.models import Quadratic
        from mergemix.worlds import QuadraticWorld

        world = QuadraticWorld(["only"], [Quadratic(np.array([1.0, 0.0]),
                                                    np.eye(2))])
        ctx = TaylorContext.from_world(world, world.base_params(), 0.1)
        out = predict_mixture_params(ctx, [1.0])
        np.testing.assert_allclose(out, [0.095, 0.0], atol=1e-15)

    def test_one_hot_mixture_equals_merge(self, ctx_qw2):
        for lam in ([1.0, 0.0], [0.0, 1.0]):
            np.testing.assert_array_equal(
                predict_mixture_params(ctx_qw2, lam),
                predict_merge_params(ctx_qw2, lam))

    def test_zero_horizon_limit(self):
        world = fixture_qw2()
        for h in (1e-6, 1e-9):
            ctx = TaylorContext.from_world(world, world.base_params(), h)
            np.testing.assert_allclose(
                predict_mixture_params(ctx, [0.5, 0.5]), [0.0, 0.0], atol=2 * h)

    def test_first_order_terms_coincide(self):
        """With Hessian access zeroed out, both predictions are identical
        for every mixture."""
        world = fixture_qw2()
        grads = tuple(world.grad(k, world.base_params()) for k in range(2))
        zero = lambda v: np.zeros_like(v)
        ctx = TaylorContext(world.base_params(), grads, (zero, zero), 0.3)
        rng = np.random.default_rng(0)
        for lam in dirichlet_points(2, 20, rng):
            np.testing.assert_array_equal(
                predict_mixture_params(ctx, lam),
                predict_merge_params(ctx, lam))

    def test_identical_domains_agree(self):
        from mergemix.models import Quadratic
        from mergemix.worlds import QuadraticWorld

        q = Quadratic(np.array([0.5, -0.5]), np.diag([1.2, 0.7]))
        world = QuadraticWorld(["a", "b"], [q, q])
        ctx = TaylorContext.from_world(world, world.base_params(), 0.2)
        for lam in ([0.3, 0.7], [0.8, 0.2]):
            np.testing.assert_allclose(
                predict_mixture_params(ctx, lam),
                predict_merge_params(ctx, lam), atol=1e-15)


class TestDiscrepancy:
    def test_hand_value(self, ctx_qw2):
        report = discrepancy(ctx_qw2, [0.5, 0.5])
        np.testing.assert_allclose(report.delta, [-0.00125, 0.0], atol=1e-15)
        np.testing.assert_allclose(report.cross_interference,
                                   [-0.0025, -0.00125], atol=1e-15)
        np.testing.assert_allclose(report.self_scaling,
                                   [0.00125, 0.00125], atol=1e-15)

    def test_components_sum_exactly(self, ctx_qw2):
        report = discrepancy(ctx_qw2, [0.3, 0.7])
        np.testing.assert_array_equal(
            report.delta, report.cross_interference + report.self_scaling)

    def test_one_hot_exactly_zero(self, ctx_qw2):
        for lam in ([1.0, 0.0], [0.0, 1.0]):
            report = discrepancy(ctx_qw2, lam)
            assert np.array_equal(report.delta, np.zeros(2))

    def test_identical_domains_zero(self):
        from mergemix.models import Quadratic
        from mergemix.worlds import QuadraticWorld

        q = Quadratic(np.array([1.0, 1.0]), np.eye(2))
        world = QuadraticWorld(["a", "b", "c"], [q, q, q])
        ctx = TaylorContext.from_world(world, world.base_params(), 0.15)
        report = discrepancy(ctx, [0.2, 0.3, 0.5])
        np.testing.assert_allclose(report.delta, [0.0, 0.0], atol=1e-15)

    def test_identity_on_random_draws_qw2_qw4(self):
        """delta == predict_mixture - predict_merge to 1e-12 per coordinate
        over 100 random contexts and mixtures."""
        rng = np.random.default_rng(123)
        for world in (fixture_qw2(), fixture_qw4()):
            k = world.num_domains
            for _ in range(50):
                theta0 = rng.standard_normal(world.dim) * 0.5
                horizon = float(rng.uniform(0.01, 0.5))
                ctx = TaylorContext.from_world(world, theta0, horizon)
                lam = dirichlet_points(k, 1, rng)[0]
                gap = (predict_mixture_params(ctx, lam)
                       - predict_merge_params(ctx, lam))
                delta = discrepancy(ctx, lam).delta
                np.testing.assert_allclose(gap, delta, atol=1e-12)

    def test_observation_attachment(self, ctx_qw2):
        report = discrepancy(ctx_qw2, [0.5, 0.5])
        observed = report.delta + 1e-5
        attached = report.with_observation(observed)
        assert attached.residual_norm == pytest.approx(1e-5 * np.sqrt(2),
                                                       rel=1e-6)


class TestBatchedSweepMatchesReference:
    @pytest.mark.parametrize("fixture,lattice,lr,steps,block_rows", [
        # Three row blocks of 128: at the default bound, three QW-2 blocks
        # would be about 16k rows, too many for the per-row reference.
        ("qw2", 2 * 128 + 10, 0.004, 50, 128),
        ("qw4", 6, 0.01, 50, None),
        ("qw_sep", 4, 0.05, 10, None),
        ("toy_world", 4, 0.05, 4, None),
    ])
    def test_rows_bit_identical(self, request, monkeypatch, fixture, lattice,
                                lr, steps, block_rows):
        world = request.getfixturevalue(fixture)
        base = world.base_params()
        config = TrainConfig(learning_rate=lr, steps=steps, checkpoint_interval=steps)
        if block_rows is not None:
            set_block_rows(monkeypatch, world, config, block_rows)
        params = [e.final for e in train_all_experts(world, base, config)]
        ctx = TaylorContext.from_world(world, base, lr * steps)
        grid = simplex_lattice(world.num_domains, lattice)
        got = discrepancy_sweep(world, base, params, grid, ctx, config)
        want = reference_sweep(world, base, params, grid, ctx, config)
        assert got.shape == (grid.shape[0], 5)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_norms_independent_of_training_block_size(self, monkeypatch, qw4,
                                                      block_rows):
        """The sweep reads training's blocks as they come, whatever their size."""
        base = qw4.base_params()
        config = TrainConfig(learning_rate=0.01, steps=50, checkpoint_interval=50)
        params = [e.final for e in train_all_experts(qw4, base, config)]
        ctx = TaylorContext.from_world(qw4, base, 0.5)
        grid = simplex_lattice(4, 7)  # 120 rows: 17 blocks of 7 and one of 1
        want = discrepancy_sweep(qw4, base, params, grid, ctx, config)
        set_block_rows(monkeypatch, qw4, config, block_rows)
        got = discrepancy_sweep(qw4, base, params, grid, ctx, config)
        assert got.tobytes() == want.tobytes()

    def test_theory_run_independent_of_training_block_size(self, tmp_path,
                                                           monkeypatch):
        """All four files of a QW-4 theory run at sweep resolution 0.1, the
        scaling check's lockstep call included, are the same in blocks of 1
        and 7 rows as in one block."""
        from mergemix.config import parse_config
        from mergemix.pipeline import run_theory

        cfg = parse_config({
            "name": "qw4-theory", "seed": 3, "world": {"fixture": "QW-4"},
            "train": {"learning_rate": 0.01, "steps": 50},
            "theory": {"sweep_resolution": 0.1}})
        final = final_only(cfg.train_config(cfg.seed))

        def files(label):
            run_dir = run_theory(cfg, tmp_path / label)
            return {path.name: path.read_bytes() for path in run_dir.iterdir()}

        want = files("default")
        assert sorted(want) == ["curvature_matrix.csv", "delta_sweep.csv",
                                "task_vector_cosine.csv", "theory_report.json"]
        assert want["delta_sweep.csv"].count(b"\n") == 287
        for block_rows in (1, 7):
            set_block_rows(monkeypatch, fixture_qw4(), final, block_rows)
            assert files(f"rows-{block_rows}") == want

    def test_one_row_discrepancy_matches_reference(self):
        rng = np.random.default_rng(77)
        for world in (fixture_qw2(), fixture_qw4()):
            ctx = TaylorContext.from_world(world, rng.standard_normal(world.dim), 0.3)
            grid = np.concatenate([simplex_lattice(world.num_domains, 5),
                                   dirichlet_points(world.num_domains, 50, rng)])
            for lam in grid:
                report = discrepancy(ctx, lam)
                want = reference_discrepancy(ctx, normalize_simplex(lam))
                for got, ref in zip((report.delta, report.cross_interference,
                                     report.self_scaling), want):
                    assert got.tobytes() == ref.tobytes()


class TestHorizonScaling:
    def test_identical_domains_zero_gap(self):
        from mergemix.models import Quadratic
        from mergemix.worlds import QuadraticWorld

        q = Quadratic(np.array([1.0, 0.0]), np.eye(2))
        world = QuadraticWorld(["a", "b"], [q, q])
        report = horizon_scaling_check(world, [0.5, 0.5], 0.004, 50)
        assert report["gap_norm_full"] == pytest.approx(0.0, abs=1e-14)

    def test_qw2_scaling_bands(self):
        world = fixture_qw2()
        report = horizon_scaling_check(world, [0.5, 0.5], 0.004, 50)
        assert 3.2 <= report["gap_ratio"] <= 4.8
        assert 6.0 <= report["residual_ratio"] <= 10.0


def reference_gap(world, lam, base, lr, steps):
    """The simulated gap from one mixture run, then one run per expert."""
    cfg = TrainConfig(learning_rate=lr, steps=steps, checkpoint_interval=steps)
    mixed = mergemix.training.train_on_mixture(world, lam, base, cfg).final
    experts = [e.final for e in train_all_experts(world, base, cfg)]
    return mixed - merge(base, experts, lam)


class TestSimulatedGap:
    """One lockstep call trains the mixture and the experts as separate
    runs would, and diverges at the step the mixture run diverges at."""

    @pytest.mark.parametrize("name", ["QW-2", "QW-4", "QW-SEP", "TOY-2"])
    @pytest.mark.parametrize("lr,steps", [(0.004, 20), (0.001, 40), (0.1, 7),
                                          (0.05, 60)])
    def test_gap_matches_separate_runs(self, name, lr, steps):
        from mergemix.theory import _simulate_gap
        from mergemix.worlds import FIXTURES

        world = FIXTURES[name]()
        base = world.base_params()
        k = world.num_domains
        lam = normalize_simplex(np.arange(1.0, k + 1) / (k * (k + 1) / 2))
        got = _simulate_gap(world, lam, base, lr, steps)
        assert got.tobytes() == reference_gap(world, lam, base, lr, steps).tobytes()

    def test_diverging_mixture_raises_its_own_step(self):
        from mergemix.errors import TrainingDiverged
        from mergemix.theory import _simulate_gap

        world = fixture_qw2()
        base = world.base_params()
        for lam in ([1.0, 0.0], [0.5, 0.5]):
            with pytest.raises(TrainingDiverged) as expected:
                reference_gap(world, lam, base, 1e4, 200)
            with pytest.raises(TrainingDiverged) as actual:
                _simulate_gap(world, normalize_simplex(lam), base, 1e4, 200)
            assert str(actual.value) == str(expected.value)


def reference_relative_curvature(world, theta0) -> np.ndarray:
    """The K^2 loop of HVP norms that relative_curvature ran before it read
    a TaylorContext's curvature responses."""
    grads = [world.grad(i, theta0) for i in range(world.num_domains)]
    norms = [float(np.linalg.norm(g)) for g in grads]
    response = np.empty((world.num_domains, world.num_domains))
    for a in range(world.num_domains):
        for b in range(world.num_domains):
            response[a, b] = float(np.linalg.norm(world.hvp(a, theta0, grads[b])))
            response[a, b] /= norms[b]
    return response / np.diag(response)[:, None]


class TestCurvatureMatrix:
    @pytest.mark.parametrize("name", ["QW-2", "QW-4", "QW-SEP", "TOY-2"])
    def test_bit_identical_to_per_entry_hvp_loop(self, name):
        from mergemix.worlds import fixture_by_name

        world = fixture_by_name(name)
        rng = np.random.default_rng(8)
        for theta0 in (world.base_params(),
                       world.base_params() + 0.3 * rng.standard_normal(world.dim)):
            got = relative_curvature(world, theta0).values
            want = reference_relative_curvature(world, theta0)
            assert got.tobytes() == want.tobytes()

    def test_zero_gradient_rejected_before_any_hvp(self, monkeypatch):
        world = fixture_qw2()

        def no_hvp(*args, **kwargs):
            raise AssertionError("HVP computed before the gradient check")

        monkeypatch.setattr(world, "hvp", no_hvp)
        with pytest.raises(DegenerateInputError, match="'d1'"):
            relative_curvature(world, world.quadratics[0].minimizer)

    def test_qw2_analytic_values(self, qw2):
        mat = relative_curvature(qw2, qw2.base_params())
        np.testing.assert_allclose(mat.values, [[1.0, 1.0], [2.0, 1.0]],
                                   atol=1e-10)
        assert mat.row_dominant == (True, False)

    def test_diagonal_exactly_one(self, qw4):
        mat = relative_curvature(qw4, qw4.base_params())
        assert all(mat.values[i, i] == 1.0 for i in range(4))

    def test_shared_isotropic_curvature_all_ones(self):
        """One shared curvature gives all-ones entries when it responds
        equally along every gradient direction (isotropic); for anisotropic
        shared curvature the normalized responses differ by direction."""
        from mergemix.models import Quadratic
        from mergemix.worlds import QuadraticWorld

        a = 2.0 * np.eye(2)
        world = QuadraticWorld(
            ["a", "b"],
            [Quadratic(np.array([1.0, 0.0]), a),
             Quadratic(np.array([0.0, 1.0]), a)],
        )
        mat = relative_curvature(world, world.base_params())
        np.testing.assert_allclose(mat.values, np.ones((2, 2)), atol=1e-12)

    def test_zero_gradient_rejected(self, qw2):
        with pytest.raises(DegenerateInputError):
            relative_curvature(qw2, qw2.quadratics[0].minimizer)

    def test_toy_net_fd_matches_assembled_hessian(self, toy_world):
        """Finite-difference curvature matrix agrees with one computed from
        fully assembled Hessians on a small net."""
        from mergemix.models import hvp_finite_difference

        theta0 = toy_world.base_params()
        k, p = toy_world.num_domains, toy_world.dim
        fd = relative_curvature(toy_world, theta0)
        hessians = []
        for d in range(k):
            grad_fn = lambda t, d=d: toy_world.grad(d, t)
            h = np.empty((p, p))
            for i in range(p):
                e = np.zeros(p)
                e[i] = 1.0
                h[:, i] = hvp_finite_difference(grad_fn, theta0, e, step=1e-5)
            hessians.append(0.5 * (h + h.T))
        grads = [toy_world.grad(d, theta0) for d in range(k)]
        expected = np.empty((k, k))
        for a in range(k):
            for b in range(k):
                expected[a, b] = (np.linalg.norm(hessians[a] @ grads[b])
                                  / np.linalg.norm(grads[b]))
            expected[a] /= expected[a, a]
        np.testing.assert_allclose(fd.values, expected, atol=1e-3)


class TestSharedCurvatureTable:
    def test_run_theory_computes_the_table_once(self, tmp_path, monkeypatch):
        """The scaling check, the curvature matrix and the sweep share one
        K x K table of HVPs at the base."""
        from mergemix.config import parse_config
        from mergemix.pipeline import run_theory
        from mergemix.worlds import QuadraticWorld

        calls = []
        hvp = QuadraticWorld.hvp
        monkeypatch.setattr(QuadraticWorld, "hvp",
                            lambda self, *a, **kw: calls.append(1) or hvp(self, *a, **kw))
        cfg = parse_config({
            "name": "t4", "seed": 3, "world": {"fixture": "QW-4"},
            "train": {"learning_rate": 0.05, "steps": 3},
            "theory": {"learning_rate": 0.004, "steps": 20,
                       "sweep_resolution": 0.25}})
        run_theory(cfg, tmp_path)
        assert len(calls) == 4 * 4

    def test_shared_context_gives_the_same_matrix(self, toy_world):
        base = toy_world.base_params()
        ctx = TaylorContext.from_world(toy_world, base, 0.3)
        shared = relative_curvature(toy_world, base, taylor=ctx)
        own = relative_curvature(toy_world, base)
        assert shared.values.tobytes() == own.values.tobytes()
        assert shared.row_dominant == own.row_dominant

    def test_with_horizon_shares_the_table(self, qw4):
        ctx = TaylorContext.from_world(qw4, qw4.base_params(), 0.2)
        longer = ctx.with_horizon(0.4)
        assert longer.horizon == 0.4 and ctx.horizon == 0.2
        assert longer.curvature_responses is ctx.curvature_responses

    @pytest.mark.parametrize("name", ["QW-2", "QW-4"])
    def test_scaling_check_matches_a_context_per_horizon(self, name):
        """One table shared by both horizons gives the residuals that a
        fresh context per horizon gave, bit for bit."""
        from mergemix.theory import _simulate_gap
        from mergemix.worlds import FIXTURES

        world = FIXTURES[name]()
        base = world.base_params()
        k = world.num_domains
        lam = normalize_simplex(np.arange(1.0, k + 1) / (k * (k + 1) / 2))
        want = {}
        for label, (lr, t) in {"full": (0.004, 20), "half": (0.001, 40)}.items():
            gap = _simulate_gap(world, lam, base, lr, t)
            ctx = TaylorContext.from_world(world, base, lr * t)
            want[label] = discrepancy(ctx, lam).with_observation(gap).residual_norm
        for taylor in (None, TaylorContext.from_world(world, base, 0.08)):
            got = horizon_scaling_check(world, lam, 0.004, 20, base, taylor=taylor)
            assert got["residual_norm_full"] == want["full"]
            assert got["residual_norm_half"] == want["half"]

    def test_scaling_check_computes_the_table_once(self, monkeypatch):
        from mergemix.worlds import QuadraticWorld

        calls = []
        hvp = QuadraticWorld.hvp
        monkeypatch.setattr(QuadraticWorld, "hvp",
                            lambda self, *a, **kw: calls.append(1) or hvp(self, *a, **kw))
        horizon_scaling_check(fixture_qw4(), [0.25] * 4, 0.004, 20)
        assert len(calls) == 4 * 4

    def test_context_at_another_point_rejected(self, qw4):
        ctx = TaylorContext.from_world(qw4, qw4.base_params() + 0.1, 1.0)
        with pytest.raises(MergeMixError, match="another point"):
            relative_curvature(qw4, qw4.base_params(), taylor=ctx)


class TestTaskVectorCosines:
    def test_diagonal_is_one(self, qw2_experts, qw2):
        cos = task_vector_cosines(qw2_experts, qw2.base_params())
        assert cos[0, 0] == 1.0 and cos[1, 1] == 1.0

    def test_orthogonal_task_vectors(self):
        class Artifact:
            def __init__(self, name, final):
                self.name = name
                self.final = final

        base = np.zeros(2)
        arts = [Artifact("a", np.array([1.0, 0.0])),
                Artifact("b", np.array([0.0, 1.0]))]
        cos = task_vector_cosines(arts, base)
        assert cos[0, 1] == 0.0 and cos[1, 0] == 0.0

    def test_qw2_experts_nearly_orthogonal(self, qw2_experts, qw2):
        cos = task_vector_cosines(qw2_experts, qw2.base_params())
        assert abs(cos[0, 1]) < 0.3

    def test_symmetric(self, qw4_experts, qw4):
        cos = task_vector_cosines(qw4_experts, qw4.base_params())
        np.testing.assert_array_equal(cos, cos.T)

    def test_zero_task_vector_rejected(self, qw2, qw2_experts):
        class Artifact:
            name = "stuck"
            final = qw2.base_params()

        with pytest.raises(DegenerateInputError):
            task_vector_cosines([qw2_experts[0], Artifact()], qw2.base_params())


class TestSweepValidatesStacks:
    def test_validator_calls_do_not_grow_with_the_sweep(self, tmp_path, monkeypatch):
        """Weight rows are validated a stack at a time: a QW-4 theory run
        calls the validator as often for a 35-row sweep as for a 1,771-row
        one."""
        import sys

        from mergemix import simplex
        from mergemix.config import parse_config
        from mergemix.pipeline import run_theory

        original = simplex.normalize_simplex_rows
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("mergemix")
                    and getattr(module, "normalize_simplex_rows", None) is original):
                monkeypatch.setattr(module, "normalize_simplex_rows", counting)
        counts = {}
        for resolution in (0.25, 0.05):
            cfg = parse_config({
                "name": "qw4-theory", "seed": 3, "world": {"fixture": "QW-4"},
                "train": {"learning_rate": 0.01, "steps": 5},
                "theory": {"learning_rate": 0.01, "steps": 5,
                           "sweep_resolution": resolution},
            })
            calls.clear()
            run_dir = run_theory(cfg, tmp_path / str(resolution))
            counts[resolution] = len(calls)
        assert (run_dir / "delta_sweep.csv").read_text().count("\n") == 1772
        assert counts[0.25] == counts[0.05] > 0
