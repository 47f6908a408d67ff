from pathlib import Path

import numpy as np
import pytest

import mergemix.training
import mergemix.worlds
from mergemix.config import load_config
from mergemix.errors import MergeMixError, NumericError, SimplexError, TrainingDiverged
from mergemix.models import Quadratic
from mergemix.seeding import rng_for, stable_seed
from mergemix.simplex import (
    dirichlet_points,
    normalize_simplex,
    normalize_simplex_rows,
    simplex_lattice,
)
from mergemix.training import (
    TrainConfig,
    _BatchStream,
    _mixed_grad_fn,
    final_only,
    train_all_experts,
    train_expert,
    train_on_mixture,
    train_on_mixtures,
)
from mergemix.worlds import QuadraticWorld, fixture_by_name, raw_capabilities
from tests.test_worlds import rotated_world

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
            theta = theta - config.learning_rate * grad_fn(theta)
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
        def grad_fn(theta):
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

        def grad_fn(theta):
            k = int(chooser.choice(world.num_domains, p=lam))
            return world.grad_on(k, theta, streams[k].next_batch())
    return reference_descend(world, grad_fn, base, config)


def reference_expert(world, k, base, config):
    if config.batch_size == "full" or world.train_size(k) == 0:
        grad_fn = lambda theta: reference_grad(world, k, theta)
    else:
        stream = _BatchStream(world.train_size(k), int(config.batch_size),
                              rng_for(config.seed, "batches", world.names[k]))
        grad_fn = lambda theta: world.grad_on(k, theta, stream.next_batch())
    return reference_descend(world, grad_fn, base, config)


def assert_same_run(world, steps, checkpoints, reference):
    """Same checkpoint steps and parameters, and the checkpoints score as the
    reference's did while it trained."""
    final, trajectory = reference
    assert checkpoints[-1].tobytes() == final.tobytes()
    assert list(steps) == [step for step, _, _ in trajectory]
    assert checkpoints.shape[0] == len(trajectory)
    for got, (_, params, scores) in zip(checkpoints, trajectory):
        assert got.tobytes() == params.tobytes()
        assert (np.array(raw_capabilities(world, got)).tobytes()
                == np.array(scores).tobytes())


def block_rows(world, config):
    """Rows per lockstep block: as many full-batch runs as fit in
    MIXTURE_BLOCK_VALUES checkpoint values and at least one, or one
    mini-batch run."""
    if config.batch_size != "full" and world.train_size(0) != 0:
        return 1
    run_values = len(config.checkpoint_steps) * world.dim
    return max(1, mergemix.training.MIXTURE_BLOCK_VALUES // run_values)


def set_block_rows(monkeypatch, world, config, rows):
    """Patch MIXTURE_BLOCK_VALUES so that full-batch blocks hold `rows` rows,
    one value short of the next row, which the floor division drops."""
    run_values = len(config.checkpoint_steps) * world.dim
    monkeypatch.setattr(mergemix.training, "MIXTURE_BLOCK_VALUES",
                        (rows + 1) * run_values - 1)
    assert block_rows(world, config) == rows


def assert_matches_reference(world, grid, config):
    """Every row of every yielded block trains as the reference does, and
    the blocks hold `block_rows` rows."""
    base = world.base_params()
    blocks = list(train_on_mixtures(world, grid, base, config))
    size = block_rows(world, config)
    assert [len(lams) for lams, _ in blocks] == [
        min(size, len(grid) - i) for i in range(0, len(grid), size)]
    rows = [(lam, run) for lams, checkpoints in blocks
            for lam, run in zip(lams, checkpoints)]
    for lam, (got_lam, run) in zip(grid, rows):
        assert got_lam.tobytes() == normalize_simplex(lam).tobytes()
        assert_same_run(world, config.checkpoint_steps, run,
                        reference_mixture(world, lam, base, config))


def closed_form_descent(minimizer, curvature, theta0, lr, steps):
    """Independent oracle: theta_T = mu + (I - lr*A)^T (theta0 - mu)."""
    prop = np.linalg.matrix_power(np.eye(len(theta0)) - lr * curvature, steps)
    return minimizer + prop @ (theta0 - minimizer)


class TestTrainExpert:
    def test_zero_steps_returns_base(self, qw2):
        cfg = TrainConfig(learning_rate=0.1, steps=0)
        art = train_expert(qw2, 0, qw2.base_params(), cfg)
        np.testing.assert_array_equal(art.final, qw2.base_params())
        assert art.steps == (0,)
        assert art.checkpoints.shape == (1, qw2.dim)

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
        for step, params in zip(art.steps, art.checkpoints):
            expected = closed_form_descent(q.minimizer, q.curvature,
                                           qw2.base_params(), 0.07, step)
            np.testing.assert_allclose(params, expected, atol=1e-10)

    def test_shared_initialization(self, qw2_experts, qw2):
        for art in qw2_experts:
            assert art.steps[0] == 0
            np.testing.assert_array_equal(art.checkpoints[0], qw2.base_params())

    def test_constant_step_norm(self, qw2):
        lr = 0.05
        cfg = TrainConfig(learning_rate=lr, steps=6, checkpoint_interval=1)
        art = train_expert(qw2, 0, qw2.base_params(), cfg)
        for prev, cur in zip(art.checkpoints, art.checkpoints[1:]):
            step_norm = np.linalg.norm(cur - prev)
            grad_norm = np.linalg.norm(qw2.grad(0, prev))
            assert step_norm == pytest.approx(lr * grad_norm, rel=1e-12)

    def test_steps_strictly_increasing_final_matches(self, qw2):
        cfg = TrainConfig(learning_rate=0.05, steps=7, checkpoint_interval=3)
        art = train_expert(qw2, 0, qw2.base_params(), cfg)
        steps = list(art.steps)
        assert steps == sorted(set(steps)) and steps[-1] == 7
        assert art.checkpoints.shape == (len(steps), qw2.dim)
        np.testing.assert_array_equal(art.final, art.checkpoints[-1])

    def test_determinism_bit_identical(self, qw2):
        cfg = TrainConfig(learning_rate=0.05, steps=9, checkpoint_interval=2,
                          seed=123)
        a = train_expert(qw2, 1, qw2.base_params(), cfg)
        b = train_expert(qw2, 1, qw2.base_params(), cfg)
        assert np.array_equal(a.final, b.final)
        assert a.checkpoints.tobytes() == b.checkpoints.tobytes()
        for pa, pb in zip(a.checkpoints, b.checkpoints):
            assert (np.array(raw_capabilities(qw2, pa)).tobytes()
                    == np.array(raw_capabilities(qw2, pb)).tobytes())

    def test_divergence_reports_step(self, qw2):
        cfg = TrainConfig(learning_rate=3.0, steps=2000, checkpoint_interval=2000)
        with pytest.raises(TrainingDiverged) as err:
            train_expert(qw2, 0, qw2.base_params(), cfg)
        assert err.value.step > 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_final_fails_to_score(self, qw2):
        """At lr 2.2 the parameters stay finite (about -3.5e237) but their
        held-out loss overflows: scoring raises instead of returning -inf."""
        cfg = TrainConfig(learning_rate=2.2, steps=3000, checkpoint_interval=3000)
        art = train_expert(qw2, 0, qw2.base_params(), cfg)
        assert np.isfinite(art.final).all()
        with pytest.raises(NumericError, match="domain 'd1'"):
            raw_capabilities(qw2, art.final)

    def test_minibatch_determinism(self, toy_world):
        cfg = TrainConfig(learning_rate=0.05, steps=12, batch_size=8,
                          checkpoint_interval=4, seed=99)
        a = train_expert(toy_world, 0, toy_world.base_params(), cfg)
        b = train_expert(toy_world, 0, toy_world.base_params(), cfg)
        assert np.array_equal(a.final, b.final)


class TestTrainOnMixture:
    @pytest.mark.parametrize("fixture", ["qw2", "qw4", "qw_sep", "toy_world"])
    def test_one_hot_equals_expert_bitwise(self, request, fixture):
        """Bytes, not values: np.array_equal would take -0.0 for 0.0."""
        world = request.getfixturevalue(fixture)
        cfg = TrainConfig(learning_rate=0.05, steps=8, checkpoint_interval=2,
                          seed=5)
        for k, lam in enumerate(np.eye(world.num_domains)):
            mix = train_on_mixture(world, lam, world.base_params(), cfg)
            exp = train_expert(world, k, world.base_params(), cfg)
            assert mix.steps == exp.steps
            assert len(mix.checkpoints) == len(exp.checkpoints)
            for pm, pe in zip(mix.checkpoints, exp.checkpoints):
                assert pm.tobytes() == pe.tobytes()

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

    @pytest.mark.parametrize("steps,interval", [(0, 1), (6, 2), (7, 3), (5, 10)])
    def test_checkpoint_steps_are_the_reference_schedule(self, qw2, steps, interval):
        cfg = TrainConfig(learning_rate=0.05, steps=steps,
                          checkpoint_interval=interval)
        _, trajectory = reference_expert(qw2, 0, qw2.base_params(), cfg)
        assert cfg.checkpoint_steps == tuple(step for step, _, _ in trajectory)


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
            art = train_on_mixture(world, lam, world.base_params(), cfg)
            assert art.mixture == tuple(normalize_simplex(lam).tolist())
            assert_same_run(world, art.steps, art.checkpoints, reference_mixture(
                world, lam, world.base_params(), cfg))

    def test_theory_sweep_horizon(self, qw4):
        """The theory runner's grid and horizon: lr 0.01 x 50, finals only."""
        grid = simplex_lattice(4, 10)
        assert_matches_reference(qw4, grid, TrainConfig(
            learning_rate=0.01, steps=50, checkpoint_interval=50))

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_block_size_edges(self, monkeypatch, qw4, edge):
        """n - 1, n and n + 1 rows for blocks of n = 128 rows; at the default
        bound n is 1,365 here, too many for the per-row reference."""
        cfg = TrainConfig(learning_rate=0.05, steps=4, checkpoint_interval=2)
        set_block_rows(monkeypatch, qw4, cfg, 128)
        rows = 128 + edge
        grid = dirichlet_points(4, rows, rng_for(rows, "block-edges"))
        grid[::5] = np.eye(4)[np.arange(0, rows, 5) % 4]
        grid[1::5, 1:3] = [0.5, 0.5]
        grid[1::5, [0, 3]] = 0.0
        assert_matches_reference(qw4, grid, cfg)

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
            art = train_expert(world, k, world.base_params(), cfg)
            assert_same_run(world, art.steps, art.checkpoints,
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
    got = _mixed_grad_fn(FixedGradWorld(), lams)(np.zeros((4, 2)))
    for lam, row in zip(lams, got):
        want = lam[0] * grads[0]
        for k in (1, 2):
            if lam[k] != 0.0:
                want = want + lam[k] * grads[k]
        assert row.tobytes() == want.tobytes()
    assert np.signbit(got[0, 0])


class TestBlockMemoryBound:
    """A full-batch block holds at most MIXTURE_BLOCK_VALUES checkpoint
    values, or one row when a single run holds more."""

    @pytest.mark.parametrize("steps,rows", [(1500, 2), (4500, 1)])
    def test_every_step_checkpointed(self, qw4, steps, rows):
        """QW-4 runs hold 8 values per checkpoint: 1,501 checkpoints fit two
        runs in a block, and 4,501 do not fit one."""
        cfg = TrainConfig(learning_rate=0.01, steps=steps, checkpoint_interval=1)
        grid = dirichlet_points(4, 5, rng_for(steps, "memory-bound"))
        blocks = list(train_on_mixtures(qw4, grid, qw4.base_params(), cfg))
        assert [len(lams) for lams, _ in blocks] == [
            min(rows, 5 - i) for i in range(0, 5, rows)]
        for lams, checkpoints in blocks:
            assert checkpoints.shape == (len(lams), steps + 1, qw4.dim)
            assert (checkpoints.size <= mergemix.training.MIXTURE_BLOCK_VALUES
                    or len(lams) == 1)

    def test_final_only_theory_grid_is_one_block(self, qw4):
        """The QW-4 theory sweep's 1,771 runs descend as one stack."""
        cfg = final_only(TrainConfig(learning_rate=0.01, steps=50))
        grid = simplex_lattice(4, 20)
        blocks = list(train_on_mixtures(qw4, grid, qw4.base_params(), cfg))
        assert len(grid) == 1771
        [(lams, checkpoints)] = blocks
        assert lams.tobytes() == normalize_simplex_rows(grid).tobytes()
        assert checkpoints.shape == (1771, 2, qw4.dim)


class TestTrainingNeverScores:
    """Training reads a world only for gradients; scoring is the reader's."""

    @pytest.fixture(autouse=True)
    def scoring_raises(self, monkeypatch):
        def refuse(world, k, theta):
            raise AssertionError("training scored a checkpoint")
        monkeypatch.setattr(mergemix.worlds, "raw_capability", refuse)

    CFG = TrainConfig(learning_rate=0.05, steps=6, checkpoint_interval=2, seed=3)

    def test_train_expert(self, qw2):
        art = train_expert(qw2, 1, qw2.base_params(), self.CFG)
        assert art.steps == (0, 2, 4, 6)

    def test_train_on_mixture(self, qw2):
        art = train_on_mixture(qw2, [0.3, 0.7], qw2.base_params(), self.CFG)
        assert art.checkpoints.shape == (4, qw2.dim)

    @pytest.mark.parametrize("fixture,batch", [("qw4", "full"), ("toy_world", 8)])
    def test_train_on_mixtures(self, request, fixture, batch):
        world = request.getfixturevalue(fixture)
        grid = simplex_lattice(world.num_domains, 2)
        cfg = TrainConfig(learning_rate=0.05, steps=6, batch_size=batch,
                          checkpoint_interval=2, seed=3)
        blocks = list(train_on_mixtures(world, grid, world.base_params(), cfg))
        assert sum(len(checkpoints) for _, checkpoints in blocks) == len(grid)


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

    def test_first_row_across_blocks(self, monkeypatch, qw2):
        """A row of the first block that diverges late wins over a row of
        the second block that diverges early. Blocks of 16 rows: at the
        default bound the first block's 8,192 rows take seconds to diverge."""
        rows = 16
        set_block_rows(monkeypatch, qw2, self.CFG, rows)
        grid = [self.STABLE] * (rows + 3)
        grid[5] = self.SLOW
        grid[rows + 1] = self.FAST
        with pytest.raises(TrainingDiverged) as err:
            list(train_on_mixtures(qw2, grid, qw2.base_params(), self.CFG))
        assert err.value.step == self.reference_step(qw2, self.SLOW)

    def test_single_run_step_unchanged(self, qw2):
        with pytest.raises(TrainingDiverged) as err:
            train_on_mixture(qw2, self.SLOW, qw2.base_params(), self.CFG)
        assert err.value.step == self.reference_step(qw2, self.SLOW)


def expert_world(name):
    """QW-4, QW-SEP, a rotated K=6, P=16 world (the shape of k6-search) and
    the four regression domains of configs/reg4-flat.json."""
    if name == "K6-P16":
        return rotated_world(6, 16, seed=3)
    if name == "REG-4":
        return load_config(CONFIGS / "reg4-flat.json").build_world()
    return fixture_by_name(name)


class TestAllExpertsAsOneStack:
    """train_all_experts descends every domain's expert as one K-row stack;
    each row is the run the one-vector loop makes, and train_expert's."""

    @pytest.fixture(scope="class", params=["QW-4", "QW-SEP", "K6-P16", "REG-4"])
    def world(self, request):
        return expert_world(request.param)

    @pytest.mark.parametrize("batch", ["full", 16])
    def test_rows_match_one_expert_runs(self, world, batch):
        cfg = TrainConfig(learning_rate=0.05, steps=7, batch_size=batch,
                          checkpoint_interval=3, seed=29)
        base = world.base_params()
        experts = train_all_experts(world, base, cfg)
        assert [e.name for e in experts] == world.names
        for k, artifact in enumerate(experts):
            alone = train_expert(world, k, base, cfg)
            assert alone.name == artifact.name
            assert alone.steps == artifact.steps == cfg.checkpoint_steps
            assert alone.checkpoints.tobytes() == artifact.checkpoints.tobytes()
            assert_same_run(world, artifact.steps, artifact.checkpoints,
                            reference_expert(world, k, base, cfg))

    def test_stacked_gradient_matches_each_domain(self, world):
        """Row k of `expert_grads` is domain k's gradient at row k, for
        every stack height m <= K: `Quadratic.grad` on a quadratic world,
        and on a regression world `grad(k, theta[k:k+1])`, the call a
        one-expert descent makes."""
        rng = np.random.default_rng(world.num_domains * 31 + world.dim)
        theta = world.base_params() + rng.standard_normal((world.num_domains, world.dim))
        for m in range(1, world.num_domains + 1):
            got = world.expert_grads(theta[:m])
            assert got.shape == (m, world.dim)
            for k in range(m):
                if isinstance(world, QuadraticWorld):
                    want = world.quadratics[k].grad(theta[k])
                else:
                    [want] = world.grad(k, theta[k : k + 1])
                assert got[k].tobytes() == want.tobytes()

    def test_restricted_world_stacks_its_own_domains(self, world):
        names = world.names[1::2]
        sub = world.restrict(names)
        theta = np.tile(world.base_params(), (len(names), 1)) + 0.25
        got = sub.expert_grads(theta)
        for i, name in enumerate(names):
            k = world.names.index(name)
            assert got[i].tobytes() == world.expert_grads(
                np.tile(theta[i], (k + 1, 1)))[k].tobytes()


class TestExpertDivergence:
    """At lr 2.5 an error along curvature 1 grows by 1.5 per step and one
    along curvature 2 by 4, so the steeper domain diverges first. The
    sequential loop trained domain 0 first, so domain 0's step was the one
    raised; the stack raises it too."""

    CFG = TrainConfig(learning_rate=2.5, steps=3000, checkpoint_interval=3000)
    DOMAINS = {"slow": Quadratic(np.ones(2), np.eye(2)),
               "fast": Quadratic(np.ones(2), 2.0 * np.eye(2)),
               "calm": Quadratic(np.ones(2), 0.1 * np.eye(2))}

    def world(self, *names):
        return QuadraticWorld(list(names), [self.DOMAINS[n] for n in names])

    def reference_step(self, world, k):
        with pytest.raises(TrainingDiverged) as err:
            reference_expert(world, k, world.base_params(), self.CFG)
        return err.value.step

    def test_fast_domain_diverges_first(self):
        world = self.world("slow", "fast")
        assert self.reference_step(world, 1) < self.reference_step(world, 0)

    @pytest.mark.parametrize("names,raised", [
        (("slow", "fast"), "slow"), (("fast", "slow"), "fast"),
        (("calm", "fast"), "fast"), (("calm", "slow", "fast"), "slow"),
    ])
    def test_first_diverging_expert_in_domain_order_raises(self, names, raised):
        world = self.world(*names)
        k = names.index(raised)
        step = self.reference_step(world, k)
        with pytest.raises(TrainingDiverged) as err:
            train_all_experts(world, world.base_params(), self.CFG)
        assert err.value.step == step
        with pytest.raises(TrainingDiverged) as err:
            train_expert(world, k, world.base_params(), self.CFG)
        assert err.value.step == step
