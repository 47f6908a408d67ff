"""The benchmark's three workloads, each built as a plain config dict from a seed.

The program receives only the generated config; every workload runs in one
process at the default `threads=1`.

- sep-hier: the shipped `qw-sep-top-down` config (design 600, hierarchical
  top-down, three search stages) with the benchmark seed as its run seed.
- k6-search: a seeded 6-domain, 16-dimensional quadratic world passed inline
  as `world.domains`, searched flat with design 200 at resolution 0.05 for
  the mixture that serves the last two domains best.
- theory-sweep: the QW-4 fixture through `run_theory` with sweep resolution
  0.05 (1,771 mixed-training runs); the scaling-check mixture comes from
  the seed.
"""

from __future__ import annotations

import json

import numpy as np

# configs/qw-sep-top-down.json as shipped; only "seed" is replaced.
SEP_HIER = {
    "name": "qw-sep-top-down",
    "seed": 11,
    "mode": "hierarchical-top-down",
    "world": {"fixture": "QW-SEP"},
    "train": {"learning_rate": 0.1, "steps": 60, "checkpoint_interval": 60},
    "design": {"size": 600},
    "search": {"resolution": 0.1},
    "hierarchy": {
        "name": "root",
        "children": [
            {"name": "m", "children": [
                {"name": "m-a", "domain": "m-a"},
                {"name": "m-b", "domain": "m-b"},
            ]},
            {"name": "c", "children": [
                {"name": "c-a", "domain": "c-a"},
                {"name": "c-b", "domain": "c-b"},
            ]},
        ],
    },
}

K6_DOMAINS = 6
K6_DIM = 16
# Minimizer norms. Their spread makes the domains pull unequally, so the
# optimum sits off the corners of the targets' edge.
K6_NORMS = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
# The user cares about the last two capabilities; the first four domains are
# candidate auxiliary data that the search has to rule out.
K6_UTILITY = (0.0, 0.0, 0.0, 0.0, 0.5, 0.5)
# Seed of the reference world that every benchmark seed rotates, and the run
# seed (training and design draws) of every k6-search config.
K6_WORLD_SEED = 6016
K6_RUN_SEED = 11
# Generated floats are rounded so the config text does not depend on the
# last bits of the QR factorization.
DECIMALS = 10


def _rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def k6_domains(seed: int) -> list[dict]:
    """Six rotated SPD quadratics in 16 dimensions, fully determined by seed.

    The seed draws an orthogonal change of parameter basis for one fixed
    reference world. Training from the zero base, merging and the losses
    are all equivariant under it, so every seed poses the same search
    problem in different coordinates: the config text and every float of
    the run change with the seed, the amount of search work does not.
    Independently drawn worlds would not do that: the refinement box, and
    with it the search time, depends on how many zero weights the
    surrogate's coarse optimum has, which varies between draws.
    """
    world_rng = np.random.default_rng(K6_WORLD_SEED)
    basis = _rotation(np.random.default_rng([seed, K6_WORLD_SEED]), K6_DIM)
    norms = world_rng.permutation(np.asarray(K6_NORMS))
    domains = []
    for i in range(K6_DOMAINS):
        q = basis @ _rotation(world_rng, K6_DIM)
        eigs = world_rng.uniform(0.7, 1.5, size=K6_DIM)
        a = (q * eigs) @ q.T
        a = np.round(0.5 * (a + a.T), DECIMALS)
        mu = world_rng.standard_normal(K6_DIM)
        mu = np.round(basis @ (norms[i] * mu / np.linalg.norm(mu)), DECIMALS)
        domains.append({
            "name": f"d{i + 1}",
            "kind": "quadratic",
            "minimizer": mu.tolist(),
            "curvature": a.tolist(),
        })
    return domains


def sep_hier_config(seed: int) -> dict:
    return {**SEP_HIER, "seed": seed}


def k6_search_config(seed: int) -> dict:
    return {
        "name": "k6-search",
        "seed": K6_RUN_SEED,
        "mode": "flat",
        "world": {"domains": k6_domains(seed)},
        "train": {"learning_rate": 0.1, "steps": 20, "checkpoint_interval": 20},
        "design": {"size": 200},
        "search": {"resolution": 0.05},
        "utility": {"kind": "weighted", "weights": list(K6_UTILITY)},
    }


def theory_sweep_config(seed: int) -> dict:
    # Equal horizons for `train` and `theory`: the sweep trains with the
    # former and predicts with the latter, so the residual then measures
    # the Taylor remainder and not a horizon mismatch.
    rng = np.random.default_rng([seed, 4004])
    weights = np.round(rng.dirichlet(np.ones(4)), DECIMALS)
    weights[-1] = 1.0 - float(weights[:-1].sum())
    return {
        "name": "theory-sweep",
        "seed": seed,
        "world": {"fixture": "QW-4"},
        "train": {"learning_rate": 0.01, "steps": 50},
        "theory": {"learning_rate": 0.01, "steps": 50,
                   "sweep_resolution": 0.05,
                   "weights": weights.tolist()},
    }


BUILDERS = {
    "sep-hier": sep_hier_config,
    "k6-search": k6_search_config,
    "theory-sweep": theory_sweep_config,
}
WORKLOADS = tuple(BUILDERS)


def config_for(workload: str, seed: int) -> dict:
    return BUILDERS[workload](seed)


def config_text(workload: str, seed: int) -> str:
    """Canonical JSON text of a workload config; identical for equal seeds."""
    return json.dumps(config_for(workload, seed), sort_keys=True) + "\n"
