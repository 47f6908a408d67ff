import numpy as np
import pytest

from mergemix.errors import BudgetExceededError, DimensionError, SimplexError
from mergemix.merging import merge, soup
from mergemix.simplex import (
    SIMPLEX_TOL,
    boxed_lattice,
    dirichlet_points,
    incumbent_seeds,
    lattice_argmax,
    lattice_size,
    normalize_simplex,
    normalize_simplex_rows,
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


# Test-only copies of the per-row validator and one-hot check that the
# stack-wide `normalize_simplex_rows` and `merging.merge_rows` replaced.

def reference_normalize_simplex(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] < 1:
        raise SimplexError(f"weights must be a 1-D vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise SimplexError(f"non-finite weight in {w.tolist()}")
    if np.any(w < 0):
        raise SimplexError(f"negative weight in {w.tolist()}")
    total = float(w.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise SimplexError(f"weights sum to {total}, not 1 within {SIMPLEX_TOL}")
    if total != 1.0:
        w = w / total
    return w


def reference_is_one_hot(weights: np.ndarray) -> int | None:
    hot = None
    for i, x in enumerate(weights):
        if x == 1.0:
            if hot is not None:
                return None
            hot = i
        elif x != 0.0:
            return None
    return hot


def reference_merge(base, experts, weights) -> np.ndarray:
    """One-vector merge as it stood before merging took stacks."""
    w = reference_normalize_simplex(weights)
    stack = np.stack(experts)
    hot = reference_is_one_hot(w)
    if hot is not None:
        return stack[hot].copy()
    return base + w @ (stack - base)


def corpus_row(rng, k: int) -> np.ndarray:
    """One valid weight row of a kind chosen at random."""
    kind = rng.integers(6)
    row = np.zeros(k)
    if kind == 0:  # drift within the tolerance
        return rng.dirichlet(np.ones(k)) * (1 + rng.uniform(-5e-10, 5e-10))
    if kind == 1:  # exact lattice point
        return rng.multinomial(20, np.ones(k) / k) / 20
    if kind == 2:  # corner, with signed zeros
        row[rng.random(k) < 0.5] = -0.0
        row[rng.integers(k)] = 1.0
    elif kind == 3:  # 1.0 plus a 1e-10 drift: not one-hot until renormalized
        i = rng.integers(k)
        row[i] = 1.0
        row[(i + 1) % k] += 1e-10
    elif kind == 4:  # a subnormal beside a 1.0: sums to exactly 1.0
        row[0] = 1.0
        row[-1] += 5e-324
    else:  # a face of the simplex, -0.0 off it
        row[:] = -0.0
        face = rng.random(k) < 0.5
        face[rng.integers(k)] = True
        row[face] = rng.dirichlet(np.ones(face.sum())) * (1 + rng.uniform(-5e-10, 5e-10))
    return row


def corpus_bad_row(rng, k: int) -> np.ndarray:
    """A valid row spoiled one way or another."""
    row = corpus_row(rng, k)
    i = rng.integers(k)
    kind = rng.integers(6)
    if kind == 0:
        row[i] = np.nan
    elif kind == 1:
        row[i] = np.inf
    elif kind == 2:
        row[i] = -np.inf
    elif kind == 3:
        row[i] = -1e-3
    elif kind == 4:
        row *= 1 + 1e-6
    else:  # inf - inf in the row sum
        row[i] = np.inf
        row[(i + 1) % k] = -np.inf
    return row


def weight_corpus(seed: int, bad: bool) -> list[np.ndarray]:
    """Seeded (n, k) stacks for k from 1 to 12; with `bad`, one to three
    rows at random positions are invalid."""
    rng = np.random.default_rng(seed)
    stacks = []
    for k in range(1, 13):
        for n in (1, 2, 5, 37, 130):
            stack = np.stack([corpus_row(rng, k) for _ in range(n)])
            if bad:
                for i in rng.choice(n, size=min(n, rng.integers(1, 4)), replace=False):
                    stack[i] = corpus_bad_row(rng, k)
            stacks.append(stack)
    return stacks


def raised(fn, *args) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


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
    def test_lattice_argmax_is_the_first_maximum_of_a_sweep(self, k, steps):
        # A separable value sum_i g_i(c_i) with small integer tables, so many
        # points tie; its exact box bound sums each table's range maximum.
        rng = np.random.default_rng(100 * k + steps)
        tables = rng.integers(0, 4, size=(k, steps + 1))
        range_max = np.full((k, steps + 1, steps + 1), -1)
        for a in range(steps + 1):
            for b in range(a, steps + 1):
                range_max[:, a, b] = tables[:, a:b + 1].max(axis=1)

        def bound(box_lo, box_hi):
            return range_max[np.arange(k), box_lo, box_hi].sum(axis=1)

        units = np.rint(simplex_lattice(k, steps) * steps).astype(np.int64)
        values = tables[np.arange(k), units].sum(axis=1)
        got = lattice_argmax(k, steps, bound, incumbent_seeds(k, steps))
        np.testing.assert_array_equal(got, units[np.argmax(values)])

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


class TestMergeStackMatchesReference:
    @pytest.mark.parametrize("k,dim", [(1, 3), (2, 2), (4, 8), (6, 16), (3, 26)])
    def test_rows_bit_identical(self, k, dim):
        rng = np.random.default_rng(k * 100 + dim)
        base = rng.standard_normal(dim) * 0.3
        experts = [rng.standard_normal(dim) for _ in range(k)]
        grid = np.concatenate([simplex_lattice(k, 6), np.eye(k),
                               dirichlet_points(k, 200, rng)])
        stacked = merge(base, experts, grid)
        assert stacked.shape == (grid.shape[0], dim)
        for row, w in zip(stacked, grid):
            assert row.tobytes() == reference_merge(base, experts, w).tobytes()
            assert row.tobytes() == merge(base, experts, w).tobytes()
        assert merge(base, experts, grid.tolist()).tobytes() == stacked.tobytes()

    def test_one_hot_rows_return_the_expert(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(16) * 1e6
        experts = [rng.standard_normal(16) for _ in range(3)]
        out = merge(base, experts, np.eye(3))
        for k in range(3):
            assert out[k].tobytes() == experts[k].tobytes()

    def test_rejects_bad_rows(self):
        with pytest.raises(SimplexError):
            merge(np.zeros(2), [np.zeros(2)] * 2, [[0.5, 0.5], [0.7, 0.7]])
        with pytest.raises(DimensionError):
            merge(np.zeros(2), [np.zeros(2)], [[1.0], [0.5, 0.5]])


class TestWeightRowsMatchReference:
    """The stack validator and one-hot detection against per-row copies."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_valid_stacks_bit_identical(self, seed):
        for stack in weight_corpus(seed, bad=False):
            want = np.stack([reference_normalize_simplex(row) for row in stack])
            assert normalize_simplex_rows(stack).tobytes() == want.tobytes()
            assert normalize_simplex_rows(list(stack)).tobytes() == want.tobytes()
            for row, want_row in zip(stack, want):
                assert normalize_simplex(row).tobytes() == want_row.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_first_bad_row_raises_as_the_reference(self, seed):
        for stack in weight_corpus(seed, bad=True):
            want = raised(lambda: [reference_normalize_simplex(r) for r in stack])
            assert want[0] is SimplexError
            assert raised(normalize_simplex_rows, stack) == want
            experts = [np.zeros(3)] * stack.shape[1]
            assert raised(merge, np.zeros(3), experts, stack) == want

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stack_row_sums_are_the_row_sums(self, seed):
        """The validator sums a stack along its rows; each sum must be
        bit-identical to that row's own sum."""
        for stack in weight_corpus(seed, bad=False):
            sums = stack.sum(axis=1)
            for i, row in enumerate(stack):
                assert sums[i].tobytes() == row.sum().tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_merge_rows_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        one_hot = 0
        for stack in weight_corpus(seed, bad=False):
            k = stack.shape[1]
            base = rng.standard_normal(5) * 1e6
            experts = [rng.standard_normal(5) for _ in range(k)]
            merged = merge(base, experts, stack)
            for row, w in zip(merged, stack):
                assert row.tobytes() == reference_merge(base, experts, w).tobytes()
                one_hot += reference_is_one_hot(reference_normalize_simplex(w)) is not None
        assert 0 < one_hot < sum(len(s) for s in weight_corpus(seed, bad=False))

    def test_empty_and_ragged_input(self):
        assert normalize_simplex_rows([], 3).shape == (0, 3)
        assert merge(np.zeros(2), [np.zeros(2)] * 3, np.empty((0, 3))).shape == (0, 2)
        # Every row is checked before any length: the bad second row wins.
        want = raised(reference_normalize_simplex, [0.5, 0.6])
        assert raised(normalize_simplex_rows, [[1.0], [0.5, 0.6]]) == want
        assert raised(normalize_simplex_rows, [[1.0], [0.5, 0.5]])[0] is DimensionError
        # Ragged rows are a stack to `merge` too, checked the same way.
        experts = [np.zeros(2)] * 2
        assert raised(merge, np.zeros(2), experts, [[1.0], [0.5, 0.6]]) == want
        assert raised(merge, np.zeros(2), experts, [[1.0], [0.5, 0.5]])[0] is DimensionError
        # An empty weight vector is one bad vector, not an empty stack.
        assert raised(merge, np.zeros(2), experts, [])[0] is SimplexError
        assert raised(normalize_simplex_rows, [[0.5, 0.5]], 3)[0] is DimensionError
        for not_rows in ([0.5, 0.5], [[[0.5, 0.5]]], [[]]):
            want = raised(lambda: [reference_normalize_simplex(r) for r in not_rows])
            assert raised(normalize_simplex_rows, not_rows) == want


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
