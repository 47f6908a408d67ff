"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s) and then
asserts, so a red run still reports every criterion's verdict.
"""

import json

import numpy as np
import pytest

from mergemix.cli import main
from mergemix.consistency import rank_consistency
from mergemix.hierarchy import (
    HierarchyContext,
    MixtureNode,
    flatten_ratios,
    optimize_bottom_up,
    optimize_top_down,
)
from mergemix.merging import merge, soup
from mergemix.seeding import rng_for, stable_seed
from mergemix.simplex import dirichlet_points, normalize_simplex, uniform_weights
from mergemix.stats import (
    UtilitySpec,
    cost_accounting,
    cost_entries_from_dicts,
    spearman,
    utility,
)
from mergemix.surface import (
    collect_raw_scores,
    run_search_stage,
    search_optimum,
    verify_optimum,
)
from mergemix.theory import (
    TaylorContext,
    discrepancy,
    horizon_scaling_check,
    predict_merge_params,
    predict_mixture_params,
    relative_curvature,
)
from mergemix.training import TrainConfig, train_expert
from mergemix.worlds import fixture_qw2, fixture_qw4, fixture_toy
from tests.conftest import (
    QW2_TRAIN,
    RUN_SEED,
    constant_regressor,
    staircase_regressor,
    surface_of,
)


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_merge_identities(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(64)
        experts = [rng.standard_normal(64) for _ in range(4)]

        one_hot_exact = all(
            np.array_equal(merge(base, experts, np.eye(4)[k]), experts[k])
            for k in range(4)
        )

        w1 = normalize_simplex([0.1, 0.2, 0.3, 0.4])
        w2 = normalize_simplex([0.4, 0.3, 0.2, 0.1])
        affine_ok = True
        for a in (0.0, 0.3, 0.7, 1.0):
            lhs = merge(base, experts, a * w1 + (1 - a) * w2)
            rhs = (a * merge(base, experts, w1)
                   + (1 - a) * merge(base, experts, w2))
            affine_ok &= bool(np.max(np.abs(lhs - rhs)) <= 1e-12)

        ckpts = [rng.standard_normal(64) for _ in range(5)]
        soup_exact = np.array_equal(
            soup(ckpts), merge(np.zeros(64), ckpts, uniform_weights(5)))

        verdict(1, "merge identities (one-hot exact, affine, soup=uniform merge)",
                one_hot_exact and affine_ok and soup_exact)

    def test_02_taylor_identity_100_draws(self):
        rng = np.random.default_rng(321)
        worst = 0.0
        for world in (fixture_qw2(), fixture_qw4()):
            for _ in range(50):
                theta0 = rng.standard_normal(world.dim) * 0.5
                ctx = TaylorContext.from_world(
                    world, theta0, float(rng.uniform(0.01, 0.5)))
                lam = dirichlet_points(world.num_domains, 1, rng)[0]
                gap = (predict_mixture_params(ctx, lam)
                       - predict_merge_params(ctx, lam))
                delta = discrepancy(ctx, lam).delta
                worst = max(worst, float(np.max(np.abs(gap - delta))))
        verdict(2, "mixture-minus-merge equals discrepancy on 100 draws",
                worst <= 1e-12, f"worst coordinate gap {worst:.2e}")

    def test_03_order_of_error_scaling(self):
        report = horizon_scaling_check(fixture_qw2(), [0.5, 0.5],
                                       learning_rate=0.004, steps=50)
        ok = (3.2 <= report["gap_ratio"] <= 4.8
              and 6.0 <= report["residual_ratio"] <= 10.0)
        verdict(3, "gap ~ horizon^2 and residual ~ horizon^3 per halving", ok,
                f"gap ratio {report['gap_ratio']:.3f}, "
                f"residual ratio {report['residual_ratio']:.3f}")

    def test_04_curvature_matrix(self, toy_world):
        qw2 = fixture_qw2()
        analytic = relative_curvature(qw2, qw2.base_params())
        analytic_ok = bool(np.max(np.abs(
            analytic.values - np.array([[1.0, 1.0], [2.0, 1.0]]))) <= 1e-10)

        fd = relative_curvature(toy_world, toy_world.base_params())
        diag_ok = all(abs(fd.values[i, i] - 1.0) <= 1e-3
                      for i in range(toy_world.num_domains))
        verdict(4, "relative curvature matrix: analytic [[1,1],[2,1]] and "
                   "finite-difference unit diagonal",
                analytic_ok and diag_ok)

    def test_05_rank_consistency(self, qw2, qw2_experts, qw4, qw4_experts):
        ratios2 = [[round(a, 1), round(1 - a, 1)]
                   for a in np.arange(0.1, 0.91, 0.1)]
        rho2 = rank_consistency(qw2, qw2.base_params(), qw2_experts,
                                ratios2, QW2_TRAIN).report.rho

        from tests.conftest import QW4_TRAIN

        mixtures = dirichlet_points(4, 12, rng_for(RUN_SEED, "mixtures"))
        rho4 = rank_consistency(qw4, qw4.base_params(), qw4_experts,
                                list(mixtures), QW4_TRAIN).report.rho
        verdict(5, "rank consistency between merged and trained mixtures",
                rho2 >= 0.8 and rho4 >= 0.8,
                f"two-domain rho {rho2:.3f}, four-domain rho {rho4:.3f}")

    def test_06_surrogate_fidelity(self, qw4, qw4_experts, qw4_stage):
        held = dirichlet_points(4, 20, rng_for(RUN_SEED, "heldout"))
        raws, _ = collect_raw_scores(qw4, qw4.base_params(), qw4_experts, held)
        predictions = qw4_stage.model.predict_batch(held)
        rhos = []
        for m in range(4):
            actual = [qw4_stage.model.contexts[m].apply(r) for r in raws[:, m]]
            rhos.append(spearman(predictions[:, m].tolist(), actual).rho)
        verdict(6, "per-capability surrogate fidelity on 20 held-out configs",
                min(rhos) >= 0.9,
                "rho = " + ", ".join(f"{r:.3f}" for r in rhos))

    def test_07_search_correctness(self):
        # Tree surfaces equal to 1 - (x0 - 0.3)^2 and to 0.5 at every point
        # the search visits.
        parabola = surface_of(2, staircase_regressor(
            (0, lambda x: 1.0 - (x - 0.3) ** 2)))
        res = search_optimum(parabola, UtilitySpec(kind="single", index=0),
                             resolution=0.05)
        refined_step = 0.05 / 5
        parabola_ok = abs(res.weights[0] - 0.3) <= refined_step + 1e-12

        const = surface_of(3, constant_regressor(0.5))
        res_c = search_optimum(const, UtilitySpec(kind="single", index=0),
                               resolution=0.25)
        tie_ok = np.array_equal(res_c.weights, [0.0, 0.0, 1.0])
        verdict(7, "lattice search localizes the parabola peak and "
                   "tie-breaks lexicographically",
                parabola_ok and tie_ok,
                f"argmax at {res.weights[0]:.2f}")

    def test_08_end_to_end_superiority(self, qw4, qw4_experts, qw4_stage):
        report = verify_optimum(qw4, qw4.base_params(), qw4_experts,
                                qw4_stage.model, qw4_stage.search)
        best_baseline = max(report["baseline_utilities"].values())
        ok = report["actual_utility"] >= best_baseline
        verdict(8, "verified optimum beats uniform and every corner", ok,
                f"optimum {report['actual_utility']:.4f} vs best baseline "
                f"{best_baseline:.4f}")

    def test_09_hierarchy_equivalence(self, qw4, qw4_experts, qw_sep):
        flat = run_search_stage(qw4, qw4.base_params(), qw4_experts,
                                design_size=40,
                                seed=stable_seed(RUN_SEED, "design"))
        depth1 = MixtureNode.from_dict({
            "name": "root",
            "children": [{"name": n, "domain": n} for n in qw4.names],
        })
        bit_identical = True
        for optimize in (optimize_top_down, optimize_bottom_up):
            ctx = HierarchyContext(world=qw4, base=qw4.base_params(),
                                   experts=qw4_experts, design_size=40,
                                   seed=RUN_SEED)
            tree = optimize(depth1, ctx)
            bit_identical &= np.array_equal(tree.weights, flat.search.weights)

        # Block-separable fixture: flat vs top-down vs bottom-up.
        resolution, design = 0.1, 600
        base = qw_sep.base_params()
        cfg = TrainConfig(learning_rate=0.1, steps=60, checkpoint_interval=60,
                          seed=stable_seed(RUN_SEED, "train"))
        experts = [train_expert(qw_sep, k, base, cfg) for k in range(4)]
        sep_flat = run_search_stage(qw_sep, base, experts, design_size=design,
                                    seed=stable_seed(RUN_SEED, "design"),
                                    resolution=resolution)
        sep_tree = {
            "name": "root",
            "children": [
                {"name": "m", "children": [{"name": "m-a", "domain": "m-a"},
                                           {"name": "m-b", "domain": "m-b"}]},
                {"name": "c", "children": [{"name": "c-a", "domain": "c-a"},
                                           {"name": "c-b", "domain": "c-b"}]},
            ],
        }
        lam = {"flat": sep_flat.search.weights}
        for label, optimize in (("td", optimize_top_down),
                                ("bu", optimize_bottom_up)):
            ctx = HierarchyContext(world=qw_sep, base=base, experts=experts,
                                   design_size=design, resolution=resolution,
                                   seed=RUN_SEED)
            tree = optimize(MixtureNode.from_dict(sep_tree), ctx)
            names, shares = flatten_ratios(tree)
            by_name = dict(zip(names, shares))
            lam[label] = np.array([by_name[n] for n in qw_sep.names])

        def actual_utility(weights):
            merged = merge(base, [e.final for e in experts], weights)
            scores = [sep_flat.model.contexts[m].apply(
                -qw_sep.heldout_loss(m, merged)) for m in range(4)]
            return utility(scores, UtilitySpec())

        max_lam = max(float(np.max(np.abs(lam[a] - lam[b])))
                      for a, b in (("flat", "td"), ("flat", "bu"), ("td", "bu")))
        utils = {k: actual_utility(v) for k, v in lam.items()}
        max_util = max(abs(utils[a] - utils[b])
                       for a, b in (("flat", "td"), ("flat", "bu"), ("td", "bu")))
        verdict(9, "depth-1 tree bit-identical to flat; separable fixture "
                   "strategies agree",
                bit_identical and max_lam <= resolution and max_util <= 0.05,
                f"max ratio gap {max_lam:.3f} (tol {resolution}), "
                f"max utility gap {max_util:.4f}")

    def test_10_cost_table(self):
        rows = [
            {"method": "Manual", "model_size_b": "8", "tokens_b": "200",
             "runs": "10"},
            {"method": "Adapted RegMix", "model_size_b": "8",
             "tokens_b": "200", "runs": "10"},
            {"method": "CLIMB", "model_size_b": "0.35", "tokens_b": "40",
             "runs": "112"},
            {"method": "Scaling Laws", "model_size_b": "1", "tokens_b": "30",
             "runs": "40"},
            {"method": "MergeMix", "model_size_b": "8", "tokens_b": "5",
             "runs": "4"},
        ]
        from decimal import Decimal

        model = cost_accounting(cost_entries_from_dicts(rows))
        expected = {
            "Manual": (Decimal(16000), Decimal(100)),
            "Adapted RegMix": (Decimal(16000), Decimal(100)),
            "CLIMB": (Decimal(1568), Decimal("9.8")),
            "Scaling Laws": (Decimal(1200), Decimal("7.5")),
            "MergeMix": (Decimal(160), Decimal(1)),
        }
        ok = True
        for method, (cost, rel) in expected.items():
            entry, relative = model.row(method)
            ok &= entry.equivalent_cost == cost and relative == rel
        verdict(10, "cost table cells reproduced exactly", ok)

    def test_11_spearman_statistics(self):
        hand = spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]).rho
        hand_ok = abs(hand - 0.8) <= 1e-15

        rng = np.random.default_rng(99)
        invariant_ok = True
        for _ in range(1000):
            xs = rng.standard_normal(8)
            ys = rng.standard_normal(8)
            base_rho = spearman(xs, ys).rho
            invariant_ok &= spearman(np.exp(xs), ys).rho == base_rho
            invariant_ok &= spearman(xs, 3.0 * ys + 1.0).rho == base_rho
        verdict(11, "hand-derived rho=0.8 and monotone-transform invariance "
                    "on 1000 random pairs",
                hand_ok and invariant_ok, f"hand value {hand}")

    def test_12_pipeline_reproducibility(self, tmp_path):
        config = {
            "name": "repro",
            "seed": 7,
            "world": {"fixture": "QW-2"},
            "train": {"learning_rate": 0.05, "steps": 10,
                      "checkpoint_interval": 2},
            "design": {"size": 12},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        outs = [tmp_path / "run_a", tmp_path / "run_b"]
        for out in outs:
            assert main(["pipeline", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        ok = all(
            (outs[0] / "repro" / name).read_bytes()
            == (outs[1] / "repro" / name).read_bytes()
            for name in ("samples.csv", "surface.model.json", "report.json")
        )
        verdict(12, "two pipeline runs produce byte-identical artifacts", ok)
