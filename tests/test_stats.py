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
    normalize_scores,
    spearman,
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
        assert normalize_scores([2.0, 4.0], ctx) == [0.0, 1.0]

    def test_degenerate_maps_to_half(self):
        ctx = NormContext(3.0, 3.0)
        assert normalize_scores([1.0, 3.0, 9.0], ctx) == [0.5, 0.5, 0.5]

    def test_clamping(self):
        ctx = NormContext(0.0, 1.0)
        assert ctx.apply(-5.0) == 0.0
        assert ctx.apply(7.0) == 1.0

    def test_monotone_in_raw(self):
        ctx = NormContext(-1.0, 1.0)
        values = np.linspace(-1, 1, 11)
        normed = normalize_scores(values, ctx)
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
