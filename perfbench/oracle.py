"""External regret oracle: brute-force scoring of a run's coarse search lattice.

Built only on public mergemix functions (`simplex_lattice`, `merge`,
`raw_capability`, `NormContext.apply`, `utility`, `load_checkpoint`), so it
shares no code with the boosted-tree search whose pick it judges. It reads
the experts and normalization contexts back from the run directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from mergemix import NormContext, merge, raw_capability, simplex_lattice, utility
from mergemix.persist import load_checkpoint
from mergemix.simplex import lattice_steps


def true_utility(world, base, experts, contexts, spec, weights) -> float:
    """Utility of the model merged at `weights`, scored in the run's units."""
    merged = merge(base, experts, weights)
    scores = [contexts[m].apply(raw_capability(world, m, merged))
              for m in range(world.num_domains)]
    return utility(scores, spec)


def lattice_optimum(world, base, experts, contexts, spec,
                    steps: int) -> tuple[float, np.ndarray]:
    """Best true utility over the simplex lattice {c/steps}, and its point.

    Ties keep the first point in lattice order."""
    best, best_w = -np.inf, None
    for weights in simplex_lattice(len(experts), steps):
        value = true_utility(world, base, experts, contexts, spec, weights)
        if value > best:
            best, best_w = value, weights
    return best, best_w


def chosen_mixture(report: dict, names: list[str]) -> tuple[np.ndarray, float]:
    """The mixture a pipeline run picked and the true utility it reported."""
    if "hierarchy" in report:
        ratios = report["hierarchy"]["ratios_by_domain"]
        return (np.asarray([ratios[n] for n in names]),
                report["hierarchy"]["actual_utility"])
    return (np.asarray(report["optimum"]["weights"]),
            report["optimum"]["actual_utility"])


def regret(cfg, run_dir: Path) -> dict:
    """Lattice optimum of the true utility minus the utility of the pick.

    Uses the coarse lattice at the run's search resolution over all world
    domains, and the normalization contexts of the run's (root) surface.
    Negative when the refinement or a hierarchy beats every coarse point.
    """
    world = cfg.build_world()
    base = world.base_params()
    experts = [load_checkpoint(run_dir / "experts" / f"{name}.ckpt")[0]
               for name in world.names]
    surface = json.loads((run_dir / "surface.model.json").read_text("utf-8"))
    contexts = [NormContext(c["lo"], c["hi"]) for c in surface["contexts"]]
    spec = cfg.utility_spec
    report = json.loads((run_dir / "report.json").read_text("utf-8"))
    weights, reported = chosen_mixture(report, world.names)
    best, best_w = lattice_optimum(world, base, experts, contexts, spec,
                                   lattice_steps(cfg.resolution))
    return {
        "utility_actual": reported,
        "utility_recomputed": true_utility(world, base, experts, contexts,
                                           spec, weights),
        "lattice_best": best,
        "lattice_best_weights": best_w.tolist(),
        "regret": best - reported,
    }
