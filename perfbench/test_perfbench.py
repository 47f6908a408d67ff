"""Tests of the benchmark's own parts: regret oracle, world generator, tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mergemix.surface  # noqa: E402
from mergemix import NormContext, Quadratic, QuadraticWorld, UtilitySpec  # noqa: E402
from mergemix.config import parse_config  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _two_domain_case():
    """Experts at the minimizers (1, 0) and (0, 1) of two unit quadratics.

    Merged at w the model is (w1, w2) = (w1, 1 - w1), so raw capabilities are
    -(1 - w1)^2 and -w1^2; with contexts [-1, 0] the scores are
    1 - (1 - w1)^2 and 1 - w1^2. Utility weights (0.75, 0.25) put the
    maximum at w1 = 0.75 with utility 0.8125, a point of the quarter lattice.
    """
    world = QuadraticWorld(["a", "b"], [Quadratic(np.array([1.0, 0.0]), np.eye(2)),
                                        Quadratic(np.array([0.0, 1.0]), np.eye(2))])
    experts = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    contexts = [NormContext(-1.0, 0.0), NormContext(-1.0, 0.0)]
    spec = UtilitySpec(kind="weighted", weights=(0.75, 0.25))
    return world, world.base_params(), experts, contexts, spec


def test_oracle_finds_hand_computed_lattice_optimum():
    world, base, experts, contexts, spec = _two_domain_case()
    best, weights = oracle.lattice_optimum(world, base, experts, contexts, spec, 4)
    assert best == 0.8125
    assert weights.tolist() == [0.75, 0.25]


def test_oracle_true_utility_matches_hand_formula():
    world, base, experts, contexts, spec = _two_domain_case()
    # w1 = 0.5: both scores are 0.75, so the utility is 0.75 and the
    # regret against the lattice optimum is 0.0625.
    value = oracle.true_utility(world, base, experts, contexts, spec,
                                np.array([0.5, 0.5]))
    assert value == 0.75
    best, _ = oracle.lattice_optimum(world, base, experts, contexts, spec, 4)
    assert best - value == 0.0625


def test_k6_config_is_byte_identical_per_seed_and_valid():
    text = workloads.config_text("k6-search", 3)
    assert text == workloads.config_text("k6-search", 3)
    assert text != workloads.config_text("k6-search", 4)
    cfg = parse_config(workloads.config_for("k6-search", 3))
    world = cfg.build_world()
    assert world.num_domains == 6 and world.dim == 16


def test_k6_seeds_rotate_one_reference_world():
    """Every seed's world is an orthogonal change of basis of the same one,
    so minimizer norms and curvature spectra agree across seeds."""
    a = workloads.k6_domains(1)
    b = workloads.k6_domains(2)
    for da, db in zip(a, b):
        assert np.isclose(np.linalg.norm(da["minimizer"]),
                          np.linalg.norm(db["minimizer"]), atol=1e-8)
        assert np.allclose(np.linalg.eigvalsh(da["curvature"]),
                           np.linalg.eigvalsh(db["curvature"]), atol=1e-8)


def test_tracer_wraps_imported_names_and_restores_them():
    original = mergemix.surface.merge
    with spans.Tracer() as tracer:
        assert mergemix.surface.merge is not original
        world, base, experts, _, _ = _two_domain_case()
        span = tracer.open(spans.ROOT)
        mergemix.surface.collect_raw_scores(world, base, experts,
                                            np.array([[0.5, 0.5]]))
        tracer.close(span)
    assert mergemix.surface.merge is original
    assert tracer.leaf_totals("merging.merge")[0] == 1
    assert tracer.leaf_totals("worlds.raw_capability")[0] == 2
    assert tracer.self_time(spans.ROOT) >= 0.0
