import numpy as np
import pytest

from mergemix.errors import MergeMixError, SimplexError, TrainingDiverged
from mergemix.seeding import rng_for, stable_seed
from mergemix.simplex import dirichlet_points, normalize_simplex, simplex_lattice
from mergemix.training import (
    MIXTURE_BLOCK_ROWS,
    TrainConfig,
    _BatchStream,
    _mixed_grad_fn,
    suggest_steps,
    train_expert,
    train_on_mixture,
    train_on_mixtures,
)
from mergemix.worlds import raw_capabilities


# Test-only reference kernels: the one-vector descent loop that trained every
# expert and mixture before the stacked descent, with the single-vector
# gradient `A @ d`. The tests below pin bit-for-bit equality with it.

def reference_grad(world, k, theta):
    if hasattr(world, "quadratics"):
        q = world.quadratics[k]
        return q.curvature @ (theta - q.minimizer)
    d = world.train[k]
    return world.net.grad(theta, d.inputs, d.targets)


def reference_descend(world, grad_fn, base, config):
    theta = base.copy()
    trajectory = [(0, theta.copy(), tuple(raw_capabilities(world, theta)))]
    for step in range(1, config.steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            theta = theta - config.learning_rate * grad_fn(theta, step)
        if not np.all(np.isfinite(theta)):
            raise TrainingDiverged(step)
        if step % config.checkpoint_interval == 0 or step == config.steps:
            trajectory.append((step, theta.copy(), tuple(raw_capabilities(world, theta))))
    return trajectory[-1][1].copy(), trajectory


def reference_mixture(world, weights, base, config):
    """Full-batch: lam[0] * g_0, then + lam[k] * g_k for each nonzero lam[k].
    Mini-batch: per-run streams, one domain drawn by lambda per step."""
    lam = normalize_simplex(weights)
    if config.batch_size == "full" or world.train_size(0) == 0:
        def grad_fn(theta, step):
            g = lam[0] * reference_grad(world, 0, theta)
            for k in range(1, world.num_domains):
                if lam[k] != 0.0:
                    g = g + lam[k] * reference_grad(world, k, theta)
            return g
    else:
        streams = [_BatchStream(world.train_size(k), int(config.batch_size),
                                rng_for(config.seed, "batches", world.names[k]))
                   for k in range(world.num_domains)]
        chooser = rng_for(config.seed, "mixture-choice")

        def grad_fn(theta, step):
            k = int(chooser.choice(world.num_domains, p=lam))
            return world.grad_on(k, theta, streams[k].next_batch())
    return reference_descend(world, grad_fn, base, config)


def reference_expert(world, k, base, config):
    if config.batch_size == "full" or world.train_size(k) == 0:
        grad_fn = lambda theta, step: reference_grad(world, k, theta)
    else:
        stream = _BatchStream(world.train_size(k), int(config.batch_size),
                              rng_for(config.seed, "batches", world.names[k]))
        grad_fn = lambda theta, step: world.grad_on(k, theta, stream.next_batch())
    return reference_descend(world, grad_fn, base, config)


def assert_same_run(artifact, reference):
    final, trajectory = reference
    assert artifact.final.tobytes() == final.tobytes()
    assert len(artifact.trajectory) == len(trajectory)
    for point, (step, params, scores) in zip(artifact.trajectory, trajectory):
        assert point.step == step
        assert point.params.tobytes() == params.tobytes()
        assert np.array(point.raw_scores).tobytes() == np.array(scores).tobytes()


def assert_matches_reference(world, grid, config):
    base = world.base_params()
    artifacts = list(train_on_mixtures(world, grid, base, config))
    assert len(artifacts) == len(grid)
    for lam, artifact in zip(grid, artifacts):
        assert artifact.mixture == tuple(normalize_simplex(lam).tolist())
        assert_same_run(artifact, reference_mixture(world, lam, base, config))


def closed_form_descent(minimizer, curvature, theta0, lr, steps):
    """Independent oracle: theta_T = mu + (I - lr*A)^T (theta0 - mu)."""
    prop = np.linalg.matrix_power(np.eye(len(theta0)) - lr * curvature, steps)
    return minimizer + prop @ (theta0 - minimizer)


class TestTrainExpert:
    def test_zero_steps_returns_base(self, qw2):
        cfg = TrainConfig(learning_rate=0.1, steps=0)
        art = train_expert(qw2, 0, qw2.base_params(), cfg)
        np.testing.assert_array_equal(art.final, qw2.base_params())
        assert len(art.trajectory) == 1

    def test_single_exact_step(self, qw2):
        cfg = TrainConfig(learning_rate=0.1, steps=1)
        art = train_expert(qw2, 0, qw2.base_params(), cfg)
        np.testing.assert_array_equal(art.final, [0.1, 0.0])

    def test_converges_to_minimizer(self, qw2):
        cfg = TrainConfig(learning_rate=0.1, steps=200, checkpoint_interval=50)
        art = train_expert(qw2, 0, qw2.base_params(), cfg)
        np.testing.assert_allclose(art.final, [1.0, 0.0], atol=1e-6)

    def test_matches_closed_form_everywhere(self, qw2):
        cfg = TrainConfig(learning_rate=0.07, steps=37, checkpoint_interval=5)
        art = train_expert(qw2, 1, qw2.base_params(), cfg)
        q = qw2.quadratics[1]
        for point in art.trajectory:
            expected = closed_form_descent(q.minimizer, q.curvature,
                                           qw2.base_params(), 0.07, point.step)
            np.testing.assert_allclose(point.params, expected, atol=1e-10)

    def test_shared_initialization(self, qw2_experts, qw2):
        for art in qw2_experts:
            assert art.trajectory[0].step == 0
            np.testing.assert_array_equal(art.trajectory[0].params,
                                          qw2.base_params())

    def test_constant_step_norm(self, qw2):
        lr = 0.05
        cfg = TrainConfig(learning_rate=lr, steps=6, checkpoint_interval=1)
        art = train_expert(qw2, 0, qw2.base_params(), cfg)
        for prev, cur in zip(art.trajectory, art.trajectory[1:]):
            step_norm = np.linalg.norm(cur.params - prev.params)
            grad_norm = np.linalg.norm(qw2.grad(0, prev.params))
            assert step_norm == pytest.approx(lr * grad_norm, rel=1e-12)

    def test_steps_strictly_increasing_final_matches(self, qw2):
        cfg = TrainConfig(learning_rate=0.05, steps=7, checkpoint_interval=3)
        art = train_expert(qw2, 0, qw2.base_params(), cfg)
        steps = [p.step for p in art.trajectory]
        assert steps == sorted(set(steps)) and steps[-1] == 7
        np.testing.assert_array_equal(art.final, art.trajectory[-1].params)

    def test_determinism_bit_identical(self, qw2):
        cfg = TrainConfig(learning_rate=0.05, steps=9, checkpoint_interval=2,
                          seed=123)
        a = train_expert(qw2, 1, qw2.base_params(), cfg)
        b = train_expert(qw2, 1, qw2.base_params(), cfg)
        assert np.array_equal(a.final, b.final)
        for pa, pb in zip(a.trajectory, b.trajectory):
            assert np.array_equal(pa.params, pb.params)
            assert pa.raw_scores == pb.raw_scores

    def test_divergence_reports_step(self, qw2):
        cfg = TrainConfig(learning_rate=3.0, steps=2000, checkpoint_interval=2000)
        with pytest.raises(TrainingDiverged) as err:
            train_expert(qw2, 0, qw2.base_params(), cfg)
        assert err.value.step > 0

    def test_minibatch_determinism(self, toy_world):
        cfg = TrainConfig(learning_rate=0.05, steps=12, batch_size=8,
                          checkpoint_interval=4, seed=99)
        a = train_expert(toy_world, 0, toy_world.base_params(), cfg)
        b = train_expert(toy_world, 0, toy_world.base_params(), cfg)
        assert np.array_equal(a.final, b.final)


class TestTrainOnMixture:
    def test_one_hot_equals_expert_bitwise(self, qw2):
        cfg = TrainConfig(learning_rate=0.05, steps=8, checkpoint_interval=2,
                          seed=5)
        for k, lam in enumerate(([1.0, 0.0], [0.0, 1.0])):
            mix = train_on_mixture(qw2, lam, qw2.base_params(), cfg)
            exp = train_expert(qw2, k, qw2.base_params(), cfg)
            assert np.array_equal(mix.final, exp.final)
            for pm, pe in zip(mix.trajectory, exp.trajectory):
                assert np.array_equal(pm.params, pe.params)

    def test_single_exact_mixture_step(self, qw2):
        cfg = TrainConfig(learning_rate=0.1, steps=1)
        art = train_on_mixture(qw2, [0.5, 0.5], qw2.base_params(), cfg)
        np.testing.assert_array_equal(art.final, [0.05, 0.05])

    def test_identical_domains_weight_independent(self):
        from mergemix.models import Quadratic
        from mergemix.worlds import QuadraticWorld

        q = Quadratic(np.array([1.0, -1.0]), np.diag([1.5, 0.5]))
        world = QuadraticWorld(["a", "b"], [q, q])
        cfg = TrainConfig(learning_rate=0.1, steps=12, checkpoint_interval=3)
        runs = [train_on_mixture(world, lam, world.base_params(), cfg)
                for lam in ([0.2, 0.8], [0.9, 0.1], [0.5, 0.5])]
        for other in runs[1:]:
            np.testing.assert_allclose(other.final, runs[0].final, atol=1e-12)

    def test_matches_mixture_closed_form(self, qw2):
        lam = np.array([0.3, 0.7])
        lr, steps = 0.06, 25
        cfg = TrainConfig(learning_rate=lr, steps=steps, checkpoint_interval=25)
        art = train_on_mixture(qw2, lam, qw2.base_params(), cfg)
        a_mix = sum(l * q.curvature for l, q in zip(lam, qw2.quadratics))
        target = np.linalg.solve(
            a_mix, sum(l * q.curvature @ q.minimizer
                       for l, q in zip(lam, qw2.quadratics)))
        from tests.test_training import closed_form_descent

        expected = closed_form_descent(target, a_mix, qw2.base_params(), lr, steps)
        np.testing.assert_allclose(art.final, expected, atol=1e-10)

    def test_off_simplex_rejected(self, qw2):
        cfg = TrainConfig(learning_rate=0.1, steps=1)
        with pytest.raises(SimplexError):
            train_on_mixture(qw2, [0.7, 0.7], qw2.base_params(), cfg)

    def test_mixture_artifact_records_weights(self, qw2):
        cfg = TrainConfig(learning_rate=0.1, steps=2)
        art = train_on_mixture(qw2, [0.25, 0.75], qw2.base_params(), cfg)
        assert art.mixture == (0.25, 0.75)


class TestConfigAndDefaults:
    def test_rejects_bad_learning_rate(self):
        with pytest.raises(MergeMixError):
            TrainConfig(learning_rate=0.0, steps=1)

    def test_rejects_negative_steps(self):
        with pytest.raises(MergeMixError):
            TrainConfig(learning_rate=0.1, steps=-1)

    def test_suggested_horizon_stays_local(self, qw4):
        """The default horizon keeps lr * T * max grad within half the
        distance from base to the nearest minimizer."""
        base = qw4.base_params()
        lr = 0.05
        steps = suggest_steps(qw4, base, lr)
        max_grad = max(np.linalg.norm(qw4.grad(k, base)) for k in range(4))
        span = min(np.linalg.norm(base - q.minimizer) for q in qw4.quadratics)
        assert steps >= 1
        assert lr * steps * max_grad <= 0.5 * span + 1e-12


class TestStackedMixturesMatchReference:
    @pytest.mark.parametrize("interval", [1, 3, 7])
    @pytest.mark.parametrize("fixture,steps", [
        ("qw2", 7), ("qw4", 7), ("qw_sep", 7), ("toy_world", 4),
    ])
    def test_lattice_grids(self, request, fixture, steps, interval):
        """Lattices hold zero weights and one-hot corners; interval 7 equals
        the step count on the quadratics and exceeds it on TOY-2."""
        world = request.getfixturevalue(fixture)
        grid = simplex_lattice(world.num_domains, 4)
        cfg = TrainConfig(learning_rate=0.05, steps=steps,
                          checkpoint_interval=interval)
        assert_matches_reference(world, grid, cfg)

    @pytest.mark.parametrize("fixture", ["qw2", "qw4", "qw_sep", "toy_world"])
    def test_one_row_stacks(self, request, fixture):
        world = request.getfixturevalue(fixture)
        k = world.num_domains
        cfg = TrainConfig(learning_rate=0.05, steps=5, checkpoint_interval=2)
        for lam in (np.full(k, 1.0 / k), np.eye(k)[k - 1],
                    dirichlet_points(k, 1, rng_for(3, "one-row"))[0]):
            assert_matches_reference(world, [lam], cfg)
            assert_same_run(train_on_mixture(world, lam, world.base_params(), cfg),
                            reference_mixture(world, lam, world.base_params(), cfg))

    def test_theory_sweep_horizon(self, qw4):
        """The theory runner's grid and horizon: lr 0.01 x 50, finals only."""
        grid = simplex_lattice(4, 10)
        assert_matches_reference(qw4, grid, TrainConfig(
            learning_rate=0.01, steps=50, checkpoint_interval=50))

    @pytest.mark.parametrize("rows", [MIXTURE_BLOCK_ROWS - 1, MIXTURE_BLOCK_ROWS,
                                      MIXTURE_BLOCK_ROWS + 1])
    def test_block_size_edges(self, qw4, rows):
        grid = dirichlet_points(4, rows, rng_for(rows, "block-edges"))
        grid[::5] = np.eye(4)[np.arange(0, rows, 5) % 4]
        grid[1::5, 1:3] = [0.5, 0.5]
        grid[1::5, [0, 3]] = 0.0
        assert_matches_reference(qw4, grid, TrainConfig(
            learning_rate=0.05, steps=4, checkpoint_interval=2))

    def test_empty_weight_list_trains_nothing(self, qw2):
        cfg = TrainConfig(learning_rate=0.05, steps=3)
        assert list(train_on_mixtures(qw2, [], qw2.base_params(), cfg)) == []

    def test_minibatch_runs_unchanged(self, toy_world):
        cfg = TrainConfig(learning_rate=0.05, steps=9, batch_size=8,
                          checkpoint_interval=3, seed=41)
        assert_matches_reference(toy_world, [[0.3, 0.7], [1.0, 0.0], [0.5, 0.5]], cfg)

    @pytest.mark.parametrize("fixture,batch", [
        ("qw4", "full"), ("toy_world", "full"), ("toy_world", 8),
    ])
    def test_experts_unchanged(self, request, fixture, batch):
        world = request.getfixturevalue(fixture)
        cfg = TrainConfig(learning_rate=0.05, steps=6, batch_size=batch,
                          checkpoint_interval=4, seed=17)
        for k in range(world.num_domains):
            assert_same_run(train_expert(world, k, world.base_params(), cfg),
                            reference_expert(world, k, world.base_params(), cfg))


def test_skipped_mixture_terms_keep_signed_zeros():
    """A zero weight leaves its domain out of the sum; adding 0 * g_k instead
    would turn the -0.0 that 0 * g_0 leaves in the first column into +0.0."""
    grads = np.array([[-1.0, 2.0], [5.0, -3.0], [-0.0, 0.0]])

    class FixedGradWorld:
        num_domains = 3

        def grad(self, k, theta):
            return np.broadcast_to(grads[k], theta.shape)

    lams = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                     [0.5, 0.0, 0.5]])
    got = _mixed_grad_fn(FixedGradWorld(), lams)(np.zeros((4, 2)), 1)
    for lam, row in zip(lams, got):
        want = lam[0] * grads[0]
        for k in (1, 2):
            if lam[k] != 0.0:
                want = want + lam[k] * grads[k]
        assert row.tobytes() == want.tobytes()
    assert np.signbit(got[0, 0])


class TestStackedDivergence:
    """On QW-2 at lr 1.5, lambda = (0.1, 0.9) grows by 1.85 per step and
    (0.4, 0.6) by 1.4, so the later row diverges first."""

    CFG = TrainConfig(learning_rate=1.5, steps=3000, checkpoint_interval=3000)
    SLOW = [0.4, 0.6]
    FAST = [0.1, 0.9]
    STABLE = [1.0, 0.0]

    def reference_step(self, world, lam):
        with pytest.raises(TrainingDiverged) as err:
            reference_mixture(world, lam, world.base_params(), self.CFG)
        return err.value.step

    def test_reports_first_row_in_input_order(self, qw2):
        slow = self.reference_step(qw2, self.SLOW)
        fast = self.reference_step(qw2, self.FAST)
        assert fast < slow
        for grid, expected in (([self.SLOW, self.FAST], slow),
                               ([self.FAST, self.SLOW], fast),
                               ([self.STABLE, self.SLOW], slow)):
            with pytest.raises(TrainingDiverged) as err:
                list(train_on_mixtures(qw2, grid, qw2.base_params(), self.CFG))
            assert err.value.step == expected

    def test_first_row_across_blocks(self, qw2):
        """A row of the first block that diverges late wins over a row of
        the second block that diverges early."""
        grid = [self.STABLE] * (MIXTURE_BLOCK_ROWS + 3)
        grid[5] = self.SLOW
        grid[MIXTURE_BLOCK_ROWS + 1] = self.FAST
        with pytest.raises(TrainingDiverged) as err:
            list(train_on_mixtures(qw2, grid, qw2.base_params(), self.CFG))
        assert err.value.step == self.reference_step(qw2, self.SLOW)

    def test_single_run_step_unchanged(self, qw2):
        with pytest.raises(TrainingDiverged) as err:
            train_on_mixture(qw2, self.SLOW, qw2.base_params(), self.CFG)
        assert err.value.step == self.reference_step(qw2, self.SLOW)
