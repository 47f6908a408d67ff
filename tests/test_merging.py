import numpy as np
import pytest

from mergemix.errors import (
    BudgetExceededError,
    DimensionError,
    MergeMixError,
    SimplexError,
)
from mergemix.merging import merge, select_top_checkpoints, simulate_anneal, soup
from mergemix.simplex import (
    REFINE_RADIUS,
    boxed_lattice,
    dirichlet_points,
    lattice_size,
    normalize_simplex,
    simplex_lattice,
    uniform_weights,
)
from mergemix.training import TrainConfig, train_expert
from mergemix.worlds import DomainSpec, RegressionWorld
from mergemix.models import ToyNet
from mergemix.seeding import stable_seed


class TestSimplexValidation:
    def test_renormalizes_tolerated_drift(self):
        w = normalize_simplex([0.5, 0.5 + 5e-10])
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(SimplexError):
            normalize_simplex([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(SimplexError):
            normalize_simplex([1.1, -0.1])

    def test_uniform_weights_sum_exactly_one(self):
        for k in range(1, 12):
            assert float(uniform_weights(k).sum()) == 1.0

    def test_lattice_counts(self):
        assert lattice_size(2, 2) == 3
        assert simplex_lattice(2, 2).shape == (3, 2)
        assert simplex_lattice(4, 4).shape == (lattice_size(4, 4), 4)

    def test_lattice_rows_sum_to_one(self):
        grid = simplex_lattice(3, 5)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)

    def test_lattice_lexicographic_order(self):
        grid = simplex_lattice(3, 4)
        rows = [tuple(r) for r in grid]
        assert rows == sorted(rows)

    def test_boxed_lattice_contains_center(self):
        center = np.array([0.5, 0.25, 0.25])
        fine = boxed_lattice(center, steps=20, radius=5)
        assert any(np.allclose(p, center) for p in fine)

    def test_boxed_lattice_budget_counts_every_row(self):
        corner = np.array([1.0, 0.0])
        with pytest.raises(BudgetExceededError):
            boxed_lattice(corner, steps=20, radius=5, budget=5)
        assert boxed_lattice(corner, steps=20, radius=5, budget=6).shape == (6, 2)
        with pytest.raises(BudgetExceededError):
            boxed_lattice(np.array([0.0, 0.0, 1.0]), steps=20, radius=5, budget=20)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("steps", [4, 10])
    def test_smallest_refinement_box_is_a_corner_box(self, k, steps):
        sizes = [boxed_lattice(p, steps * 5, REFINE_RADIUS).shape[0]
                 for p in simplex_lattice(k, steps)]
        assert min(sizes) == lattice_size(k, REFINE_RADIUS)

    def test_dirichlet_deterministic(self):
        a = dirichlet_points(3, 4, np.random.default_rng(5))
        b = dirichlet_points(3, 4, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestMerge:
    def test_one_hot_bit_exact(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(16) * 1e6
        experts = [rng.standard_normal(16) for _ in range(3)]
        for k in range(3):
            alpha = np.zeros(3)
            alpha[k] = 1.0
            out = merge(base, experts, alpha)
            assert np.array_equal(out, experts[k])

    def test_zero_task_vectors(self):
        base = np.array([0.3, -1.7])
        out = merge(base, [base.copy(), base.copy()], [0.25, 0.75])
        np.testing.assert_array_equal(out, base)

    def test_direct_arithmetic(self):
        out = merge(np.zeros(2), [np.array([1.0, 0.0]), np.array([0.0, 2.0])],
                    [0.25, 0.75])
        np.testing.assert_array_equal(out, [0.25, 1.5])

    def test_affine_in_weights(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal(8)
        experts = [rng.standard_normal(8) for _ in range(3)]
        w1 = normalize_simplex([0.2, 0.3, 0.5])
        w2 = normalize_simplex([0.6, 0.1, 0.3])
        for a in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = a * w1 + (1 - a) * w2
            lhs = merge(base, experts, mix)
            rhs = a * merge(base, experts, w1) + (1 - a) * merge(base, experts, w2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal(5)
        experts = [rng.standard_normal(5) for _ in range(4)]
        w = normalize_simplex([0.1, 0.2, 0.3, 0.4])
        perm = [2, 0, 3, 1]
        out = merge(base, experts, w)
        out_p = merge(base, [experts[i] for i in perm], w[perm])
        np.testing.assert_allclose(out, out_p, atol=1e-12)

    def test_weight_count_mismatch(self):
        with pytest.raises(DimensionError):
            merge(np.zeros(2), [np.zeros(2)], [0.5, 0.5])

    def test_expert_length_mismatch(self):
        with pytest.raises(DimensionError):
            merge(np.zeros(2), [np.zeros(3)], [1.0])


class TestSoup:
    def test_hand_value(self):
        out = soup([np.array([1.0, 1.0]), np.array([3.0, 3.0])])
        np.testing.assert_array_equal(out, [2.0, 2.0])

    def test_identical_checkpoints(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(10)
        for n in (2, 4):
            np.testing.assert_array_equal(soup([x.copy() for _ in range(n)]), x)

    def test_equals_uniform_merge_with_zero_base(self):
        rng = np.random.default_rng(6)
        ckpts = [rng.standard_normal(7) for _ in range(5)]
        direct = soup(ckpts)
        via_merge = merge(np.zeros(7), ckpts, uniform_weights(5))
        assert np.array_equal(direct, via_merge)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            soup([])


class _Point:
    def __init__(self, step, params):
        self.step = step
        self.params = params


class _Artifact:
    def __init__(self, points):
        self.trajectory = points


class TestCheckpointSelection:
    def test_all_checkpoints(self):
        traj = [_Point(i, np.array([float(i)])) for i in range(4)]
        out = select_top_checkpoints(traj, [0.1, 0.2, 0.3, 0.4], 4)
        assert [p.step for p in out] == [0, 1, 2, 3]

    def test_strictly_increasing_scores(self):
        traj = [_Point(i, np.array([float(i)])) for i in range(5)]
        out = select_top_checkpoints(traj, [1, 2, 3, 4, 5], 1)
        assert out[0].step == 4

    def test_tie_goes_to_earlier_step(self):
        traj = [_Point(s, np.array([0.0])) for s in (0, 10, 20)]
        out = select_top_checkpoints(traj, [0.1, 0.9, 0.9], 1)
        assert out[0].step == 10

    def test_returns_in_trajectory_order(self):
        traj = [_Point(i, np.array([float(i)])) for i in range(5)]
        out = select_top_checkpoints(traj, [5, 1, 4, 2, 3], 3)
        assert [p.step for p in out] == [0, 2, 4]

    def test_out_of_range(self):
        traj = [_Point(0, np.zeros(1))]
        with pytest.raises(MergeMixError):
            select_top_checkpoints(traj, [1.0], 2)


class TestSimulateAnneal:
    def test_window_one_is_final_checkpoint(self):
        traj = [_Point(i, np.array([float(i), -float(i)])) for i in range(4)]
        out = simulate_anneal(_Artifact(traj), window=1)
        assert np.array_equal(out, traj[-1].params)

    def test_constant_trajectory_any_window(self):
        x = np.array([1.5, -2.25])
        traj = [_Point(i, x.copy()) for i in range(4)]
        for win in (1, 2, 4):
            np.testing.assert_array_equal(
                simulate_anneal(_Artifact(traj), window=win), x)

    def test_top_n_uses_scorer(self):
        traj = [_Point(i, np.array([float(i)])) for i in range(4)]
        out = simulate_anneal(_Artifact(traj), top_n=1,
                              scorer=lambda p: -p.step)
        assert np.array_equal(out, traj[0].params)

    def test_requires_exactly_one_mode(self):
        traj = [_Point(0, np.zeros(1))]
        with pytest.raises(MergeMixError):
            simulate_anneal(_Artifact(traj))
        with pytest.raises(MergeMixError):
            simulate_anneal(_Artifact(traj), window=1, top_n=1)

    def test_trailing_soup_smooths_noisy_training(self):
        """Constant-LR SGD bounces at its noise floor; a soup over spaced
        trailing checkpoints cancels that noise and beats the last iterate."""
        world = RegressionWorld(
            ToyNet(3, 4, 2),
            [DomainSpec("noisy", "regression",
                        target_weight=np.array([[1.0, 0, 0], [0, 1.0, 0]]),
                        noise=0.5, input_dim=3, train_size=48,
                        heldout_size=64, seed=123)],
            init_seed=9,
        )
        cfg = TrainConfig(learning_rate=0.2, steps=400, batch_size=2,
                          checkpoint_interval=10, seed=stable_seed(4, "train"))
        artifact = train_expert(world, 0, world.base_params(), cfg)
        souped = simulate_anneal(artifact, window=5)
        assert world.heldout_loss(0, souped) <= world.heldout_loss(0, artifact.final)
