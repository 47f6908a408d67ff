"""Performance-surface mapping and utility-driven search over the simplex.

Seed configurations (corners + coarse grid + priors + random fill) are
merged and evaluated to produce training samples; one boosted-tree
regressor per capability approximates the landscape; an exhaustive lattice
sweep with one local refinement pass finds the utility optimum, which is
then re-checked by actually merging and evaluating.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MergeMixError
from .gbt import BoostHyper, GradientBoostedRegressor
from .merging import merge, merge_many
from .params import params_digest
from .seeding import rng_for
from .simplex import (
    DEFAULT_POINT_BUDGET,
    REFINE_RADIUS,
    boxed_lattice,
    dirichlet_points,
    lattice_steps,
    normalize_simplex,
    simplex_lattice,
    uniform_weights,
)
from .stats import NormContext, UtilitySpec, normalize, utilities
from .training import expert_params
from .worlds import World, raw_capabilities

SURFACE_FORMAT = "mm-surface-v1"
DUPLICATE_TOL = 1e-9


@dataclass(frozen=True)
class SeedDesign:
    configs: np.ndarray
    provenance: tuple[str, ...]

    @property
    def size(self) -> int:
        return self.configs.shape[0]


def sample_seed_configs(k: int, n: int, priors=(), seed: int = 0) -> SeedDesign:
    """Corners, then a resolution-1/4 grid, then priors, then random fill.

    Returns exactly n distinct simplex points; the grid is subsampled
    (seeded) when it alone would overflow the budget.
    """
    if k < 2:
        raise MergeMixError(f"need at least 2 domains, got {k}")
    if n < k + 1:
        raise MergeMixError(f"design size {n} cannot hold the {k} corners plus one")
    rng = rng_for(seed, "seed-design")
    rows = np.empty((n, k))
    provenance: list[str] = []

    def is_duplicate(candidate: np.ndarray) -> bool:
        taken = rows[:len(provenance)]
        return bool(np.any(np.max(np.abs(taken - candidate), axis=1) <= DUPLICATE_TOL))

    def add(point: np.ndarray, label: str) -> None:
        rows[len(provenance)] = point
        provenance.append(label)

    for corner in np.eye(k):
        add(corner, "corner")

    grid = [p for p in simplex_lattice(k, 4) if not is_duplicate(p)]
    room = n - len(provenance)
    if len(grid) > room:
        keep = sorted(rng.choice(len(grid), size=room, replace=False).tolist())
        grid = [grid[i] for i in keep]
    for p in grid:
        add(p, "grid")

    for prior in priors:
        if len(provenance) >= n:
            break
        p = normalize_simplex(prior)
        if p.shape[0] != k:
            raise DimensionError(f"prior has length {p.shape[0]}, expected {k}")
        if not is_duplicate(p):
            add(p, "prior")

    while len(provenance) < n:
        p = dirichlet_points(k, 1, rng)[0]
        if not is_duplicate(p):
            add(p, "random")

    return SeedDesign(rows, tuple(provenance))


@dataclass(frozen=True)
class SurfaceSample:
    weights: np.ndarray
    scores: tuple[float, ...]  # normalized capability scores in [0, 1]
    digest: str


def collect_raw_scores(world: World, base: np.ndarray, experts, configs):
    """Merge at each config and score every capability: (n, K) raws, digests."""
    params = expert_params(experts)
    merged = np.stack([merge(base, params, weights) for weights in configs])
    return raw_capabilities(world, merged), [params_digest(theta) for theta in merged]


def collect_samples(world: World, base: np.ndarray, experts,
                    design: SeedDesign) -> tuple[list[SurfaceSample], list[NormContext]]:
    """Evaluate the whole design; the design population is the normalization
    context for every capability."""
    raws, digests = collect_raw_scores(world, base, experts, design.configs)
    contexts = [NormContext.from_samples(column) for column in raws.T]
    samples = [SurfaceSample(weights, tuple(scores), digest)
               for weights, scores, digest
               in zip(design.configs, normalize(raws, contexts).tolist(), digests)]
    return samples, contexts


def _samples_digest(samples: list[SurfaceSample]) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(repr(s.weights.tolist()).encode())
        h.update(repr(list(s.scores)).encode())
    return h.hexdigest()


@dataclass
class SurfaceModel:
    """One fitted regressor per capability plus the shared score units."""

    capabilities: list[str]
    regressors: list[GradientBoostedRegressor]
    contexts: list[NormContext]
    hyper: BoostHyper
    utility_spec: UtilitySpec
    sample_digest: str
    train_error: list[float]
    num_samples: int
    input_dim: int

    @property
    def num_capabilities(self) -> int:
        return len(self.capabilities)

    def predict(self, weights) -> np.ndarray:
        w = normalize_simplex(weights)
        if w.shape[0] != self.input_dim:
            raise DimensionError(
                f"surface expects {self.input_dim} weights, got {w.shape[0]}"
            )
        return self.predict_batch(w[None, :])[0]

    def predict_batch(self, configs: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(configs, dtype=np.float64))
        out = np.empty((x.shape[0], self.num_capabilities))
        for m, reg in enumerate(self.regressors):
            out[:, m] = reg.predict(x)
        return out

    def to_dict(self) -> dict:
        return {
            "format": SURFACE_FORMAT,
            "capabilities": list(self.capabilities),
            "hyper": self.hyper.to_dict(),
            "utility": self.utility_spec.to_dict(),
            "contexts": [{"lo": c.lo, "hi": c.hi} for c in self.contexts],
            "sample_digest": self.sample_digest,
            "train_error": list(self.train_error),
            "num_samples": self.num_samples,
            "input_dim": self.input_dim,
            "regressors": [r.to_dict() for r in self.regressors],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SurfaceModel":
        if data.get("format") != SURFACE_FORMAT:
            raise MergeMixError(
                f"unsupported surface format {data.get('format')!r}"
            )
        return cls(
            capabilities=list(data["capabilities"]),
            regressors=[GradientBoostedRegressor.from_dict(r)
                        for r in data["regressors"]],
            contexts=[NormContext(c["lo"], c["hi"]) for c in data["contexts"]],
            hyper=BoostHyper.from_dict(data["hyper"]),
            utility_spec=UtilitySpec.from_dict(data["utility"]),
            sample_digest=data["sample_digest"],
            train_error=list(data["train_error"]),
            num_samples=int(data["num_samples"]),
            input_dim=int(data["input_dim"]),
        )


def fit_surface(samples: list[SurfaceSample], capabilities: list[str],
                contexts: list[NormContext],
                hyper: BoostHyper | None = None,
                utility_spec: UtilitySpec | None = None) -> SurfaceModel:
    """Train one boosted ensemble per capability on (weights -> score)."""
    hyper = hyper or BoostHyper()
    utility_spec = utility_spec or UtilitySpec()
    if not samples:
        raise MergeMixError("cannot fit a surface on zero samples")
    k = samples[0].weights.shape[0]
    if len(samples) < k + 1:
        raise MergeMixError(
            f"need at least {k + 1} samples for {k} domains, got {len(samples)}"
        )
    x = np.stack([s.weights for s in samples])
    regressors = []
    train_error = []
    for m in range(len(capabilities)):
        y = np.asarray([s.scores[m] for s in samples])
        reg = GradientBoostedRegressor(hyper).fit(x, y)
        regressors.append(reg)
        train_error.append(float(np.max(np.abs(reg.predict(x) - y))))
    return SurfaceModel(
        capabilities=list(capabilities),
        regressors=regressors,
        contexts=list(contexts),
        hyper=hyper,
        utility_spec=utility_spec,
        sample_digest=_samples_digest(samples),
        train_error=train_error,
        num_samples=len(samples),
        input_dim=k,
    )


@dataclass(frozen=True)
class SearchResult:
    weights: np.ndarray
    predicted_utility: float
    predicted_scores: tuple[float, ...]
    resolution: float
    evaluated_points: int


def search_optimum(model, utility_spec: UtilitySpec | None = None,
                   k: int | None = None, resolution: float = 0.05,
                   budget: int = DEFAULT_POINT_BUDGET) -> SearchResult:
    """Exhaustive lattice sweep plus one refinement pass at resolution/5.

    `model` is a SurfaceModel or any callable mapping an (n, k) array of
    simplex points to an (n, M) score matrix. Ties resolve to the
    lexicographically smallest point because both sweeps enumerate points
    in ascending lexicographic order and keep the first maximum.
    """
    if not 0 < resolution <= 0.25:
        raise MergeMixError(
            f"search resolution must be in (0, 0.25], got {resolution}"
        )
    if isinstance(model, SurfaceModel):
        predict_batch = model.predict_batch
        spec = utility_spec or model.utility_spec
        if k is None:
            k = model.input_dim
    else:
        predict_batch = model
        spec = utility_spec or UtilitySpec()
        if k is None:
            raise MergeMixError("k is required when searching a bare predictor")

    steps = lattice_steps(resolution)
    coarse = simplex_lattice(k, steps, budget)
    coarse_vals = utilities(predict_batch(coarse), spec)
    best = int(np.argmax(coarse_vals))  # first max = lex smallest tie
    evaluated = coarse.shape[0]

    fine = boxed_lattice(coarse[best], steps * 5, radius=REFINE_RADIUS,
                         budget=max(0, budget - evaluated))
    fine_vals = utilities(predict_batch(fine), spec)
    best_fine = int(np.argmax(fine_vals))
    evaluated += fine.shape[0]

    weights = normalize_simplex(fine[best_fine])
    scores = predict_batch(weights[None, :])[0]
    return SearchResult(
        weights=weights,
        predicted_utility=float(fine_vals[best_fine]),
        predicted_scores=tuple(float(v) for v in scores),
        resolution=1.0 / steps,
        evaluated_points=evaluated,
    )


@dataclass(frozen=True)
class StageResult:
    """Everything one design-collect-fit-search pass produces."""

    design: SeedDesign
    samples: list[SurfaceSample]
    contexts: list[NormContext]
    model: SurfaceModel
    search: SearchResult


def run_search_stage(world: World, base: np.ndarray, experts, *,
                     design_size: int, priors=(), seed: int = 0,
                     hyper: BoostHyper | None = None,
                     utility_spec: UtilitySpec | None = None,
                     resolution: float = 0.05,
                     budget: int = DEFAULT_POINT_BUDGET) -> StageResult:
    """One full surface pass over a set of expert vectors.

    The flat pipeline and every node of a hierarchical search run this same
    code path, so a trivial hierarchy reproduces the flat result exactly.
    """
    k = len(experts)
    design = sample_seed_configs(k, design_size, priors=priors, seed=seed)
    samples, contexts = collect_samples(world, base, experts, design)
    model = fit_surface(samples, list(world.names), contexts,
                        hyper=hyper, utility_spec=utility_spec)
    search = search_optimum(model, resolution=resolution, budget=budget)
    return StageResult(design, samples, contexts, model, search)


def merged_scores(world: World, base: np.ndarray, experts, weights,
                  contexts) -> np.ndarray:
    """Merge at each weight row and score every capability in the given units."""
    merged = merge_many(base, expert_params(experts), weights)
    return normalize(raw_capabilities(world, merged), contexts)


def baseline_utilities(world: World, base: np.ndarray, experts, contexts,
                       spec: UtilitySpec) -> dict:
    """Actual utility of the uniform mixture and of every corner."""
    k = len(experts)
    labels = ["uniform"] + [f"corner_{getattr(expert, 'name', i)}"
                            for i, expert in enumerate(experts)]
    weights = np.vstack([uniform_weights(k), np.eye(k)])
    values = utilities(merged_scores(world, base, experts, weights, contexts), spec)
    return dict(zip(labels, values.tolist()))


def verify_optimum(world: World, base: np.ndarray, experts,
                   model: SurfaceModel, result: SearchResult) -> dict:
    """Merge at the proposed optimum and compare prediction with reality.

    Also scores the uniform mixture and every corner with the same
    normalization context, so the report shows whether the optimized
    mixture actually beats the obvious baselines.
    """
    spec = model.utility_spec
    scores = merged_scores(world, base, experts, [result.weights], model.contexts)
    actual = scores[0].tolist()
    predicted = list(result.predicted_scores)
    gaps = [p - a for p, a in zip(predicted, actual)]
    baselines = baseline_utilities(world, base, experts, model.contexts, spec)

    return {
        "weights": result.weights.tolist(),
        "capabilities": list(model.capabilities),
        "predicted_scores": predicted,
        "actual_scores": actual,
        "per_capability_gap": gaps,
        "max_abs_gap": max(abs(g) for g in gaps),
        "predicted_utility": result.predicted_utility,
        "actual_utility": float(utilities(scores, spec)[0]),
        "baseline_utilities": baselines,
        "resolution": result.resolution,
        "evaluated_points": result.evaluated_points,
    }
