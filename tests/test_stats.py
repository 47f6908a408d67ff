from decimal import Decimal

import numpy as np
import pytest
import scipy.stats

from mergemix.errors import (
    DimensionError,
    MergeMixError,
    UndefinedCorrelationError,
)
from mergemix.stats import (
    CostEntry,
    NormContext,
    UtilitySpec,
    cost_accounting,
    cost_entries_from_dicts,
    format_relative,
    normalize,
    spearman,
    utilities,
    utility,
)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]).rho == 1.0

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]).rho == -1.0

    def test_hand_derived_example(self):
        report = spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
        assert report.rho == pytest.approx(0.8, abs=1e-15)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            xs = rng.standard_normal(20)
            ys = rng.standard_normal(20)
            base = spearman(xs, ys).rho
            assert spearman(np.exp(xs), ys).rho == base
            assert spearman(xs, 3 * ys + 1).rho == base

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        xs, ys = rng.standard_normal(15), rng.standard_normal(15)
        assert spearman(xs, ys).rho == spearman(ys, xs).rho

    def test_ties_use_average_ranks(self):
        report = spearman([1, 1, 2], [3, 3, 4])
        assert report.x_ranks == (1.5, 1.5, 3.0)
        assert "ties" in report.tie_note

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            xs = rng.integers(0, 5, size=12).astype(float)
            ys = rng.integers(0, 5, size=12).astype(float)
            try:
                mine = spearman(xs, ys).rho
            except UndefinedCorrelationError:
                continue
            ref = scipy.stats.spearmanr(xs, ys).statistic
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(DimensionError):
            spearman([1.0], [1.0])
        with pytest.raises(DimensionError):
            spearman([1.0, 2.0], [1.0])


class TestNormalization:
    def test_endpoints(self):
        ctx = NormContext(2.0, 4.0)
        assert normalize([[2.0], [4.0]], [ctx])[:, 0].tolist() == [0.0, 1.0]

    def test_degenerate_maps_to_half(self):
        ctx = NormContext(3.0, 3.0)
        assert normalize([[1.0], [3.0], [9.0]], [ctx])[:, 0].tolist() == [0.5, 0.5, 0.5]

    def test_clamping(self):
        ctx = NormContext(0.0, 1.0)
        assert ctx.apply(-5.0) == 0.0
        assert ctx.apply(7.0) == 1.0

    def test_monotone_in_raw(self):
        ctx = NormContext(-1.0, 1.0)
        values = np.linspace(-1, 1, 11)
        normed = normalize(values[:, None], [ctx])[:, 0].tolist()
        assert all(a <= b for a, b in zip(normed, normed[1:]))

    def test_from_samples(self):
        ctx = NormContext.from_samples([3.0, -1.0, 2.0])
        assert (ctx.lo, ctx.hi) == (-1.0, 3.0)


class TestUtility:
    def test_macro_average(self):
        assert utility([0.2, 0.8], UtilitySpec()) == pytest.approx(0.5)

    def test_one_hot_weights(self):
        spec = UtilitySpec(kind="weighted", weights=(0.0, 1.0, 0.0))
        assert utility([0.1, 0.7, 0.9], spec) == 0.7

    def test_single_capability(self):
        assert utility([0.1, 0.7], UtilitySpec(kind="single", index=1)) == 0.7

    def test_macro_permutation_invariant(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(size=6)
        perm = rng.permutation(6)
        assert utility(y, UtilitySpec()) == pytest.approx(
            utility(y[perm], UtilitySpec()), abs=1e-15)

    def test_macro_bounded_by_extremes(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(size=5)
        u = utility(y, UtilitySpec())
        assert min(y) <= u <= max(y)

    def test_weight_validation(self):
        with pytest.raises(MergeMixError):
            UtilitySpec(kind="weighted", weights=(0.5, 0.6))
        with pytest.raises(MergeMixError):
            UtilitySpec(kind="weighted", weights=(-0.2, 1.2))
        with pytest.raises(MergeMixError, match="finite"):
            UtilitySpec(kind="weighted", weights=(float("nan"), 1.0))


def normalize_reference(raw, contexts) -> np.ndarray:
    """The per-row loop `normalize` replaced: `apply` on every entry."""
    return np.array([[ctx.apply(x) for ctx, x in zip(contexts, row)] for row in raw])


def utility_reference(scores, spec) -> float:
    """The scalar utility `utilities` replaced, one score vector at a time."""
    y = np.asarray(scores, dtype=np.float64)
    if spec.kind == "macro":
        return float(y.mean())
    if spec.kind == "weighted":
        return float(np.asarray(spec.weights, dtype=np.float64) @ y)
    return float(y[spec.index])


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestNormalizeMatchesApply:
    CONTEXTS = [NormContext(-2.0, 0.5), NormContext(3.0, 3.0),
                NormContext(0.0, 1.0), NormContext(-1e-3, 7.25)]

    def test_random_rows_bit_identical(self):
        rng = np.random.default_rng(21)
        raw = rng.uniform(-4.0, 9.0, size=(500, len(self.CONTEXTS)))
        got = normalize(raw, self.CONTEXTS)
        assert bits(got) == bits(normalize_reference(raw, self.CONTEXTS))

    def test_clamps_degenerate_and_signed_zero(self):
        raw = np.array([[-9.0, 1.0, -0.0, 8.0],   # below lo; -0.0 at lo = 0.0
                        [9.0, 3.0, 0.0, -1e-3],    # above hi; exactly lo
                        [0.5, -5.0, 1.0, 7.25],    # exactly hi
                        [-2.0, 9.0, 2.0, -0.0]])
        got = normalize(raw, self.CONTEXTS)
        assert bits(got) == bits(normalize_reference(raw, self.CONTEXTS))
        assert got[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0]
        assert got[:, 1].tolist() == [0.5] * 4
        assert not np.signbit(got).any()

    def test_nan_maps_to_zero_like_apply(self):
        ctx = NormContext(0.0, 1.0)
        assert ctx.apply(float("nan")) == 0.0
        assert normalize([float("nan")], [ctx]).tolist() == [0.0]

    def test_any_leading_shape(self):
        rng = np.random.default_rng(22)
        raw = rng.uniform(-4.0, 9.0, size=(3, 5, len(self.CONTEXTS)))
        got = normalize(raw, self.CONTEXTS)
        want = normalize_reference(raw.reshape(-1, len(self.CONTEXTS)), self.CONTEXTS)
        assert got.shape == raw.shape
        assert bits(got) == bits(want)
        assert bits(normalize(raw[0, 0], self.CONTEXTS)) == bits(want[0])

    def test_context_count_must_match(self):
        with pytest.raises(DimensionError):
            normalize(np.zeros((2, 3)), self.CONTEXTS)


def _signed_scores(rng, n, m) -> np.ndarray:
    """Scores in [-1, 1] with exact zeros of both signs mixed in."""
    s = rng.uniform(-1.0, 1.0, size=(n, m))
    s[rng.random((n, m)) < 0.1] = 0.0
    s[rng.random((n, m)) < 0.1] = -0.0
    s[0] = -0.0
    return s


class TestUtilitiesMatchUtility:
    @pytest.mark.parametrize("m", range(2, 11))
    def test_every_kind_bit_identical_per_row(self, m):
        rng = np.random.default_rng(100 + m)
        scores = _signed_scores(rng, 2000, m)
        weights = rng.dirichlet(np.ones(m))
        weights[1:][rng.random(m - 1) < 0.3] = 0.0  # 0 * y is -0.0 for y < 0
        weights /= weights.sum()
        specs = [UtilitySpec(), UtilitySpec(kind="weighted", weights=tuple(weights)),
                 UtilitySpec(kind="single", index=m - 1)]
        for spec in specs:
            want = [utility_reference(row, spec) for row in scores]
            assert bits(utilities(scores, spec)) == bits(want), spec.kind
            assert bits([utility(row, spec) for row in scores]) == bits(want), spec.kind

    def test_signed_zero_rows(self):
        scores = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.5, 0.0]])
        spec = UtilitySpec(kind="weighted", weights=(0.0, 1.0))
        for s in (UtilitySpec(), spec, UtilitySpec(kind="single", index=0)):
            want = [utility_reference(row, s) for row in scores]
            assert bits(utilities(scores, s)) == bits(want)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            utilities(np.zeros((4, 3)), UtilitySpec(kind="weighted", weights=(0.5, 0.5)))
        with pytest.raises(DimensionError):
            utilities(np.zeros((4, 3)), UtilitySpec(kind="single", index=3))
        with pytest.raises(DimensionError):
            utilities(np.zeros(3), UtilitySpec())
        with pytest.raises(DimensionError):
            utility([0.2, 0.8], UtilitySpec(kind="weighted", weights=(0.2, 0.3, 0.5)))


REFERENCE_ROWS = [
    {"method": "Manual", "model_size_b": "8", "tokens_b": "200", "runs": "10"},
    {"method": "Adapted RegMix", "model_size_b": "8", "tokens_b": "200", "runs": "10"},
    {"method": "CLIMB", "model_size_b": "0.35", "tokens_b": "40", "runs": "112"},
    {"method": "Scaling Laws", "model_size_b": "1", "tokens_b": "30", "runs": "40"},
    {"method": "MergeMix", "model_size_b": "8", "tokens_b": "5", "runs": "4"},
]


class TestCostAccounting:
    def test_reference_table_cells_exact(self):
        model = cost_accounting(cost_entries_from_dicts(REFERENCE_ROWS))
        expected = {
            "Manual": (Decimal(16000), Decimal(100)),
            "Adapted RegMix": (Decimal(16000), Decimal(100)),
            "CLIMB": (Decimal(1568), Decimal("9.8")),
            "Scaling Laws": (Decimal(1200), Decimal("7.5")),
            "MergeMix": (Decimal(160), Decimal(1)),
        }
        for method, (cost, rel) in expected.items():
            entry, relative = model.row(method)
            assert entry.equivalent_cost == cost
            assert relative == rel

    def test_relative_labels(self):
        assert format_relative(Decimal(100)) == "100×"
        assert format_relative(Decimal("9.8")) == "9.8×"
        assert format_relative(Decimal("7.5")) == "7.5×"
        assert format_relative(Decimal(1)) == "1.0×"

    def test_single_entry_relative_one(self):
        rows = [{"method": "MergeMix", "model_size_b": "8", "tokens_b": "5",
                 "runs": "4"}]
        model = cost_accounting(cost_entries_from_dicts(rows))
        assert model.relative[0] == 1

    def test_equivalent_cost_is_product(self):
        entry = CostEntry("x", Decimal("0.35"), Decimal(40), Decimal(112))
        assert entry.equivalent_cost == Decimal("0.35") * 40 * 112

    def test_missing_baseline_rejected(self):
        rows = [{"method": "Manual", "model_size_b": "8", "tokens_b": "200",
                 "runs": "10"}]
        with pytest.raises(MergeMixError):
            cost_accounting(cost_entries_from_dicts(rows))

    def test_nonpositive_factors_rejected(self):
        with pytest.raises(MergeMixError):
            CostEntry("x", Decimal(0), Decimal(1), Decimal(1))
