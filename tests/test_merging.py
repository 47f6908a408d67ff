import numpy as np
import pytest

from mergemix.errors import BudgetExceededError, DimensionError, SimplexError
from mergemix.merging import merge, merge_many, soup
from mergemix.simplex import (
    REFINE_RADIUS,
    boxed_lattice,
    dirichlet_points,
    lattice_size,
    normalize_simplex,
    simplex_lattice,
    uniform_weights,
)


# Test-only reference kernels: the recursive enumerators the array-built
# `simplex._lattice` replaced. The tests below pin bit-for-bit equality.

def reference_simplex_lattice(k: int, steps: int) -> np.ndarray:
    out = np.empty((lattice_size(k, steps), k), dtype=np.float64)
    comp = [0] * k
    row = 0

    def rec(pos: int, remaining: int):
        nonlocal row
        if pos == k - 1:
            comp[pos] = remaining
            out[row] = [c / steps for c in comp]
            row += 1
            return
        for c in range(remaining + 1):
            comp[pos] = c
            rec(pos + 1, remaining - c)

    rec(0, steps)
    return out


def reference_boxed_lattice(center: np.ndarray, steps: int,
                            radius: int) -> np.ndarray:
    k = center.shape[0]
    center_units = np.rint(center * steps).astype(int)
    lo = np.maximum(center_units - radius, 0)
    hi = np.minimum(center_units + radius, steps)
    rows: list[list[float]] = []
    comp = [0] * k

    def rec(pos: int, remaining: int):
        if pos == k - 1:
            if lo[pos] <= remaining <= hi[pos]:
                comp[pos] = remaining
                rows.append([c / steps for c in comp])
            return
        tail_lo = int(lo[pos + 1 :].sum())
        tail_hi = int(hi[pos + 1 :].sum())
        for c in range(lo[pos], hi[pos] + 1):
            rest = remaining - c
            if tail_lo <= rest <= tail_hi:
                comp[pos] = c
                rec(pos + 1, rest)

    rec(0, steps)
    return np.asarray(rows, dtype=np.float64)


BOX_STEPS = 60  # divisible by every k below, so the uniform point is on the lattice


def reference_merge(base, experts, weights) -> np.ndarray:
    """One-vector merge as it stood before `merge_many`."""
    w = normalize_simplex(weights)
    stack = np.stack(experts)
    if np.count_nonzero(w == 1.0) == 1 and np.all((w == 0.0) | (w == 1.0)):
        return stack[int(np.argmax(w))].copy()
    return base + w @ (stack - base)


def box_centers(k: int) -> list[np.ndarray]:
    """Both end corners, an edge midpoint, the uniform point and an interior
    point next to a corner, in units of 1/BOX_STEPS."""
    units = [np.eye(k, dtype=int)[0] * BOX_STEPS,
             np.eye(k, dtype=int)[k - 1] * BOX_STEPS,
             np.full(k, BOX_STEPS // k)]
    if k >= 2:
        edge = np.zeros(k, dtype=int)
        edge[: 2] = BOX_STEPS // 2
        near_corner = np.ones(k, dtype=int)
        near_corner[0] = BOX_STEPS - (k - 1)
        units += [edge, near_corner]
    return [u / BOX_STEPS for u in units]


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

    @pytest.mark.parametrize("weights", [[float("nan"), 0.5], [float("nan"), 1.0],
                                         [float("inf"), 0.0], [0.5, -float("inf")]])
    def test_rejects_non_finite(self, weights):
        with pytest.raises(SimplexError, match="non-finite"):
            normalize_simplex(weights)

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


class TestLatticeMatchesReference:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_simplex_lattice_bit_identical(self, k):
        for steps in range(1, 21):
            got = simplex_lattice(k, steps)
            want = reference_simplex_lattice(k, steps)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(1, 7))
    def test_boxed_lattice_bit_identical(self, k):
        for center in box_centers(k):
            for radius in range(7):
                got = boxed_lattice(center, BOX_STEPS, radius)
                want = reference_boxed_lattice(center, BOX_STEPS, radius)
                assert got.shape == want.shape, (center, radius)
                assert got.tobytes() == want.tobytes(), (center, radius)

    @pytest.mark.parametrize("k,steps", [(1, 1), (1, 7), (2, 5), (3, 6), (5, 4)])
    def test_simplex_lattice_budget_edge(self, k, steps):
        n = lattice_size(k, steps)
        with pytest.raises(BudgetExceededError):
            simplex_lattice(k, steps, budget=n - 1)
        assert simplex_lattice(k, steps, budget=n).shape == (n, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_boxed_lattice_budget_edge(self, k):
        for center in box_centers(k):
            for radius in (0, 1, 5):
                n = reference_boxed_lattice(center, BOX_STEPS, radius).shape[0]
                with pytest.raises(BudgetExceededError):
                    boxed_lattice(center, BOX_STEPS, radius, budget=n - 1)
                got = boxed_lattice(center, BOX_STEPS, radius, budget=n)
                assert got.shape == (n, k)


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


class TestMergeManyMatchesReference:
    @pytest.mark.parametrize("k,dim", [(1, 3), (2, 2), (4, 8), (6, 16), (3, 26)])
    def test_rows_bit_identical(self, k, dim):
        rng = np.random.default_rng(k * 100 + dim)
        base = rng.standard_normal(dim) * 0.3
        experts = [rng.standard_normal(dim) for _ in range(k)]
        grid = np.concatenate([simplex_lattice(k, 6), np.eye(k),
                               dirichlet_points(k, 200, rng)])
        stacked = merge_many(base, experts, grid)
        assert stacked.shape == (grid.shape[0], dim)
        for row, w in zip(stacked, grid):
            assert row.tobytes() == reference_merge(base, experts, w).tobytes()
            assert row.tobytes() == merge(base, experts, w).tobytes()

    def test_one_hot_rows_return_the_expert(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(16) * 1e6
        experts = [rng.standard_normal(16) for _ in range(3)]
        out = merge_many(base, experts, np.eye(3))
        for k in range(3):
            assert out[k].tobytes() == experts[k].tobytes()

    def test_rejects_bad_rows(self):
        with pytest.raises(SimplexError):
            merge_many(np.zeros(2), [np.zeros(2)] * 2, [[0.5, 0.5], [0.7, 0.7]])
        with pytest.raises(DimensionError):
            merge_many(np.zeros(2), [np.zeros(2)], [[1.0], [0.5, 0.5]])


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
