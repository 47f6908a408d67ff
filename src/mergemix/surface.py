"""Performance-surface mapping and utility-driven search over the simplex.

Seed configurations (corners + coarse grid + priors + random fill) are
merged and evaluated to produce training samples; one boosted-tree
regressor per capability the utility reads approximates the landscape, and
the capabilities it does not read are left unfitted; a search of one
simplex lattice finds the utility optimum, which is then re-checked by
actually merging and evaluating. The search is exact branch and bound over
the trees' leaf boxes: it bounds boxes of lattice points, scores only the
points it cannot rule out, and picks what an exhaustive sweep of the
lattice picks.

A stage whose lattice has no more points than its design is exact: it
merges and scores every lattice point instead, fits nothing and picks the
best actual utility, so it never merges more rows than the design would.

Every stage then scores its pick, the uniform mixture and every corner,
reading the rows it has already scored and merging only the others. It
answers with the best actual utility among its pick, its scored rows and
those baselines, so its answer is never worse than a mixture it has
scored, however far the surrogate misses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DimensionError, MergeMixError, SurfaceFileError
from .gbt import BoostHyper, GradientBoostedRegressor
from .merging import merge
from .params import params_digest
from .persist import read_json
from .seeding import rng_for
from .simplex import (
    DEFAULT_POINT_BUDGET,
    _expand,
    _over_budget,
    dirichlet_points,
    incumbent_seeds,
    lattice_argmax,
    lattice_size,
    lattice_steps,
    normalize_simplex,
    simplex_lattice,
    uniform_weights,
)
from .stats import NormContext, UtilitySpec, normalize, utilities, utility_columns
from .training import expert_params
from .worlds import World, raw_capabilities

SURFACE_FORMAT = "mm-surface-v2"
# A v1 surface is a v2 surface with every capability fitted.
READABLE_SURFACE_FORMATS = ("mm-surface-v1", SURFACE_FORMAT)
DUPLICATE_TOL = 1e-9


def _close_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), j ascending, with max |a[i] - b[j]| <= DUPLICATE_TOL.

    Only rows whose first coordinates lie within 2 * DUPLICATE_TOL of each
    other are compared. For coordinates in [0, 1] that window holds every
    pair the comparison can accept, rounding included, and a random draw
    rarely has any row in it.
    """
    by_first = np.argsort(a[:, 0], kind="stable")
    first = a[by_first, 0]
    lo = np.searchsorted(first, b[:, 0] - 2 * DUPLICATE_TOL, side="left")
    hi = np.searchsorted(first, b[:, 0] + 2 * DUPLICATE_TOL, side="right")
    i, j = _expand(lo, hi - lo)
    i = by_first[i]
    close = np.max(np.abs(a[i] - b[j]), axis=1) <= DUPLICATE_TOL
    return i[close], j[close]


def _new_rows(taken: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Mask of the candidates a scan in order adds: each one that duplicates
    neither a row of `taken` nor an earlier added candidate."""
    added = np.ones(candidates.shape[0], dtype=bool)
    added[_close_pairs(taken, candidates)[1]] = False
    earlier, later = _close_pairs(candidates, candidates)
    repeat = earlier < later
    # Pairs come in ascending `later`, so each `earlier` is settled first.
    for e, j in zip(earlier[repeat].tolist(), later[repeat].tolist()):
        if added[e]:
            added[j] = False
    return added


def sample_seed_configs(k: int, n: int, priors=(), seed: int = 0) -> np.ndarray:
    """(n, k) design: corners, then a resolution-1/4 grid, then priors, then
    random fill.

    Returns exactly n distinct simplex points; the grid is subsampled
    (seeded) when it alone would overflow the budget. The random fill is
    drawn in batches of the rows still missing; a batched draw gives the
    points and generator state of as many single draws.
    """
    if k < 2:
        raise MergeMixError(f"need at least 2 domains, got {k}")
    if n < k + 1:
        raise MergeMixError(f"design size {n} cannot hold the {k} corners plus one")
    rng = rng_for(seed, "seed-design")
    rows = np.empty((n, k))
    rows[:k] = np.eye(k)
    lattice = simplex_lattice(k, 4)
    grid = np.delete(lattice, _close_pairs(rows[:k], lattice)[1], axis=0)
    if grid.shape[0] > n - k:
        keep = sorted(rng.choice(grid.shape[0], size=n - k, replace=False).tolist())
        grid = grid[keep]
    filled = k + grid.shape[0]
    rows[k:filled] = grid

    for prior in priors:
        if filled >= n:
            break
        p = normalize_simplex(prior)
        if p.shape[0] != k:
            raise DimensionError(f"prior has length {p.shape[0]}, expected {k}")
        if _new_rows(rows[:filled], p[None])[0]:
            rows[filled] = p
            filled += 1

    while filled < n:
        draws = dirichlet_points(k, n - filled, rng)
        draws = draws[_new_rows(rows[:filled], draws)]
        rows[filled:filled + draws.shape[0]] = draws
        filled += draws.shape[0]
    return rows


def collect_raw_scores(world: World, base: np.ndarray, experts, configs):
    """Merge at each config and score every capability: (n, K) raws, digests.
    The design is merged as one stack and scored as one stack per domain."""
    merged = merge(base, expert_params(experts), configs)
    return raw_capabilities(world, merged), [params_digest(theta) for theta in merged]


def collect_samples(world: World, base: np.ndarray, experts, configs):
    """Evaluate the design: (n, M) normalized scores, the contexts and the
    merge digests. The design population is the normalization context for
    every capability."""
    raws, digests = collect_raw_scores(world, base, experts, configs)
    contexts = [NormContext.from_samples(column) for column in raws.T]
    return normalize(raws, contexts), contexts, digests


def _samples_digest(x: np.ndarray, scores: np.ndarray) -> str:
    h = hashlib.sha256()
    for weights, row in zip(x.tolist(), scores.tolist()):
        h.update(repr(weights).encode())
        h.update(repr(row).encode())
    return h.hexdigest()


@dataclass
class SurfaceModel:
    """One slot per capability: a fitted regressor and its train error, or
    None in both for a capability the utility does not read, plus the shared
    score units of every capability. `hyper` is None on an exact surface,
    which fitted nothing."""

    capabilities: list[str]
    regressors: list[GradientBoostedRegressor | None]
    contexts: list[NormContext]
    hyper: BoostHyper | None
    utility_spec: UtilitySpec
    sample_digest: str
    train_error: list[float | None]
    num_samples: int
    input_dim: int

    @property
    def num_capabilities(self) -> int:
        return len(self.capabilities)

    @property
    def fitted_columns(self) -> list[int]:
        return [m for m, r in enumerate(self.regressors) if r is not None]

    @property
    def exact(self) -> bool:
        """An exact stage's surface: it scored its whole lattice and holds
        only the contexts, with no regressor fitted."""
        return not self.fitted_columns

    def require_fitted(self, columns) -> None:
        """MergeMixError unless every capability in `columns` is fitted."""
        missing = [self.capabilities[m] for m in columns
                   if self.regressors[m] is None]
        if missing:
            fitted = [self.capabilities[m] for m in self.fitted_columns]
            raise MergeMixError(
                f"capabilities {missing} are not fitted; this surface fits "
                f"only {fitted}"
            )

    def predict(self, weights) -> np.ndarray:
        w = normalize_simplex(weights)
        if w.shape[0] != self.input_dim:
            raise DimensionError(
                f"surface expects {self.input_dim} weights, got {w.shape[0]}"
            )
        return self.predict_batch(w[None, :])[0]

    def predict_batch(self, configs: np.ndarray, columns=None) -> np.ndarray:
        """(n, M) predicted scores of the fitted capabilities, or with
        `columns` of those only; every other column is 0.0."""
        x = np.atleast_2d(np.asarray(configs, dtype=np.float64))
        if columns is None:
            columns = self.fitted_columns
        else:
            self.require_fitted(columns)
        out = np.zeros((x.shape[0], self.num_capabilities))
        for m in columns:
            out[:, m] = self.regressors[m].predict(x)
        return out

    def to_dict(self) -> dict:
        return self._fields([None if r is None else r.to_dict()
                             for r in self.regressors])

    def lazy_dict(self) -> dict:
        """to_dict(), with the regressors, and each one's trees, as
        generators: persist.write_json streams it so that no more than one
        tree's dict exists at a time. Each generator can be read once."""
        return self._fields(None if r is None else r.lazy_dict()
                            for r in self.regressors)

    def _fields(self, regressors) -> dict:
        return {
            "format": SURFACE_FORMAT,
            "capabilities": list(self.capabilities),
            "hyper": None if self.hyper is None else self.hyper.to_dict(),
            "utility": self.utility_spec.to_dict(),
            "contexts": [{"lo": c.lo, "hi": c.hi} for c in self.contexts],
            "sample_digest": self.sample_digest,
            "train_error": list(self.train_error),
            "num_samples": self.num_samples,
            "input_dim": self.input_dim,
            "regressors": regressors,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SurfaceModel":
        """A v2 or v1 surface; unless it is exact, every capability its
        utility reads must be fitted."""
        if data.get("format") not in READABLE_SURFACE_FORMATS:
            raise MergeMixError(
                f"unsupported surface format {data.get('format')!r}"
            )
        model = cls(
            capabilities=list(data["capabilities"]),
            regressors=[None if r is None else GradientBoostedRegressor.from_dict(r)
                        for r in data["regressors"]],
            contexts=[NormContext(c["lo"], c["hi"]) for c in data["contexts"]],
            hyper=(None if data["hyper"] is None
                   else BoostHyper.from_dict(data["hyper"])),
            utility_spec=UtilitySpec.from_dict(data["utility"]),
            sample_digest=data["sample_digest"],
            train_error=list(data["train_error"]),
            num_samples=int(data["num_samples"]),
            input_dim=int(data["input_dim"]),
        )
        m = model.num_capabilities
        if not len(model.regressors) == len(model.train_error) == m:
            raise MergeMixError(f"{m} capabilities need {m} regressor slots")
        if not model.exact:
            model.require_fitted(utility_columns(model.utility_spec, m))
        return model


def load_surface(path) -> SurfaceModel:
    """The SurfaceModel saved at `path`; SurfaceFileError if the file is
    missing, is not JSON or does not hold a surface."""
    try:
        data = read_json(path)
    except FileNotFoundError:
        raise SurfaceFileError(f"surface file not found: {path}") from None
    except (OSError, ValueError) as exc:
        raise SurfaceFileError(f"cannot read surface file {path}: {exc}") from None
    try:
        return SurfaceModel.from_dict(data)
    except KeyError as exc:
        raise SurfaceFileError(f"surface file {path} has no field {exc}") from None
    except (AttributeError, TypeError, ValueError, MergeMixError) as exc:
        raise SurfaceFileError(f"malformed surface file {path}: {exc}") from None


def fit_surface(x: np.ndarray, scores: np.ndarray, capabilities: list[str],
                contexts: list[NormContext],
                hyper: BoostHyper | None = None,
                utility_spec: UtilitySpec | None = None) -> SurfaceModel:
    """Train one boosted ensemble on (x -> scores[:, m]) per capability m the
    utility reads (`utility_columns`); the others stay None. `x` holds the
    (n, K) weights, `scores` the (n, M) normalized scores."""
    hyper = hyper or BoostHyper()
    utility_spec = utility_spec or UtilitySpec()
    n, k = x.shape
    if n < k + 1:
        raise MergeMixError(f"need at least {k + 1} samples for {k} domains, got {n}")
    regressors: list[GradientBoostedRegressor | None] = [None] * len(capabilities)
    train_error: list[float | None] = [None] * len(capabilities)
    for m in utility_columns(utility_spec, len(capabilities)):
        y = scores[:, m]
        fitted = np.empty(n)
        regressors[m] = GradientBoostedRegressor(hyper).fit(x, y, out=fitted)
        train_error[m] = float(np.max(np.abs(fitted - y)))
    return SurfaceModel(
        capabilities=list(capabilities),
        regressors=regressors,
        contexts=list(contexts),
        hyper=hyper,
        utility_spec=utility_spec,
        sample_digest=_samples_digest(x, scores),
        train_error=train_error,
        num_samples=n,
        input_dim=k,
    )


@dataclass(frozen=True)
class SearchResult:
    """The answer of a search or of a stage.

    `search_optimum` answers with its pick. A stage (`run_search_stage`)
    answers with the mixture it selected: `selected_from` names where it
    came from ("search", "design" for a scored row, or a `_baseline_labels`
    entry), and `pick_weights` holds the search pick when the answer is
    another mixture. The predictions are always the search pick's; an exact
    stage predicts nothing, so its `predicted_utility` and every
    `predicted_scores` entry are None. A stage also keeps the actual scores,
    in its units, of its answer (`actual_scores`) and of the rows of
    `_check_rows` at its pick (`check_scores`), so verifying it merges
    nothing.
    """

    weights: np.ndarray
    predicted_utility: float | None
    predicted_scores: tuple[float | None, ...]
    resolution: float
    evaluated_points: int
    selected_from: str = "search"
    pick_weights: np.ndarray | None = None
    actual_scores: np.ndarray | None = None
    check_scores: np.ndarray | None = None

    @property
    def search_weights(self) -> np.ndarray:
        """The search pick's weights."""
        return self.weights if self.pick_weights is None else self.pick_weights


def _search_steps(resolution: float) -> int:
    """Lattice steps of a search at `resolution`, which must be in (0, 0.25]."""
    if not 0 < resolution <= 0.25:
        raise MergeMixError(
            f"search resolution must be in (0, 0.25], got {resolution}"
        )
    return lattice_steps(resolution)


def is_exact_stage(k: int, steps: int, design_size: int) -> bool:
    """Whether a k-way stage at `steps` scores its whole lattice: it does
    when the lattice has no more points than the design."""
    return lattice_size(k, steps) <= design_size


def _utility_bound(model: SurfaceModel, spec: UtilitySpec, read: list[int],
                   steps: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Upper bound of the utility over each integer box of the lattice
    {c/steps}: `utilities` of the read capabilities' bounds, every other
    column 0.0 as in a read-columns sweep. Utilities are nondecreasing in
    every score (weights are >= 0), so this bounds the sweep's values, and
    on a single point it is the sweep's value."""
    scores = np.zeros((lo.shape[0], model.num_capabilities))
    for m in read:
        scores[:, m] = model.regressors[m].lattice_bound(lo, hi, steps)
    return utilities(scores, spec)


def search_optimum(model: SurfaceModel, utility_spec: UtilitySpec | None = None,
                   resolution: float = 0.05,
                   budget: int = DEFAULT_POINT_BUDGET) -> SearchResult:
    """The utility's optimum over the simplex lattice at `resolution`.

    Finds what an exhaustive sweep of the lattice finds, ties going to the
    lexicographically smallest point, without predicting it: the lattice is
    searched by branch and bound (`simplex.lattice_argmax`) over the
    surrogate's tree leaves (`GradientBoostedRegressor.lattice_bound`),
    starting from the best corner or quarter-lattice point.
    `evaluated_points` counts every point of the lattice, and a lattice
    larger than `budget` raises BudgetExceededError before any bound is
    computed.

    Bounds and values use only the capabilities the utility reads
    (`utility_columns`) and leave the others 0.0; a zero weight times 0.0
    instead of a negative prediction can only turn a -0.0 utility into
    0.0, which ties with it, so the argmax is the one a full prediction
    gives. The winner then gets every fitted capability predicted, and
    `predicted_utility` is the utility of that row; an unfitted capability's
    predicted score is 0.0. A spec that reads an unfitted capability raises
    MergeMixError before any bound is computed.
    """
    steps = _search_steps(resolution)
    spec = utility_spec or model.utility_spec
    read = utility_columns(spec, model.num_capabilities)
    model.require_fitted(read)
    k = model.input_dim
    evaluated = lattice_size(k, steps)
    _over_budget(evaluated, budget, "simplex lattice")
    point = lattice_argmax(k, steps,
                           partial(_utility_bound, model, spec, read, steps),
                           incumbent_seeds(k, steps)) / steps

    # The winning lattice point and its renormalized weights, every fitted
    # capability predicted.
    weights = normalize_simplex(point)
    scores = model.predict_batch(np.stack([point, weights]))
    return SearchResult(
        weights=weights,
        predicted_utility=float(utilities(scores[:1], spec)[0]),
        predicted_scores=tuple(float(v) for v in scores[1]),
        resolution=1.0 / steps,
        evaluated_points=evaluated,
    )


@dataclass(frozen=True)
class StageResult:
    """Everything one design-collect-fit-search pass produces: the (n, K)
    design, its (n, M) normalized scores and merge digests, the surface,
    the stage's answer (`search`) and the experts the stage merged."""

    configs: np.ndarray
    scores: np.ndarray
    digests: list[str]
    model: SurfaceModel
    search: SearchResult
    experts: list


def _baseline_labels(experts) -> list[str]:
    """Labels of the uniform mixture and of every corner, in `_check_rows`
    order."""
    return ["uniform"] + [f"corner_{getattr(expert, 'name', i)}"
                          for i, expert in enumerate(experts)]


def _check_rows(pick: np.ndarray) -> np.ndarray:
    """(K + 2, K): the search pick, the uniform mixture and every corner."""
    k = pick.shape[0]
    return np.vstack([pick, uniform_weights(k), np.eye(k)])


def run_search_stage(world: World, base: np.ndarray, experts, *,
                     design_size: int, priors=(), seed: int = 0,
                     hyper: BoostHyper | None = None,
                     utility_spec: UtilitySpec | None = None,
                     resolution: float = 0.05,
                     budget: int = DEFAULT_POINT_BUDGET) -> StageResult:
    """One full surface pass over a set of expert vectors.

    A stage whose lattice at `resolution` has no more points than
    `design_size` is exact (`is_exact_stage`): its scored rows are the whole
    lattice, it reads no `priors`, its surface holds only the contexts and
    its pick is the lattice argmax, ties going to the lexicographically first
    point as in `search_optimum`. Any other stage scores its design, fits the
    surface and searches it. Either way the scored rows are the
    normalization context, and the stage then scores `_check_rows` at the
    pick in those units: a row equal bit for bit to a scored row reads its
    scores, and only the others are merged, as one stack. It answers with
    the best actual utility among the pick, the scored rows, the uniform
    mixture and the corners; ties go to the pick, then to row order, then to
    the uniform mixture and the corners in order.

    The flat pipeline and every node of a hierarchical search run this same
    code path, so a trivial hierarchy reproduces the flat result exactly.
    """
    k = len(experts)
    steps = _search_steps(resolution)
    spec = utility_spec or UtilitySpec()
    exact = is_exact_stage(k, steps, design_size)
    configs = (simplex_lattice(k, steps, budget) if exact
               else sample_seed_configs(k, design_size, priors=priors, seed=seed))
    scores, contexts, digests = collect_samples(world, base, experts, configs)
    names = list(world.names)
    if exact:
        n, m = len(configs), len(names)
        model = SurfaceModel(
            capabilities=names, regressors=[None] * m, contexts=contexts,
            hyper=None, utility_spec=spec,
            sample_digest=_samples_digest(configs, scores),
            train_error=[None] * m, num_samples=n, input_dim=k,
        )
        best = int(np.argmax(utilities(scores, spec)))
        pick = SearchResult(
            weights=normalize_simplex(configs[best]), predicted_utility=None,
            predicted_scores=(None,) * m, resolution=1.0 / steps,
            evaluated_points=n,
        )
    else:
        model = fit_surface(configs, scores, names, contexts, hyper=hyper,
                            utility_spec=spec)
        pick = search_optimum(model, resolution=resolution, budget=budget)
    checks = _check_rows(pick.weights)
    index = {row.tobytes(): i for i, row in enumerate(configs)}
    found = np.array([index.get(row.tobytes(), -1) for row in checks])
    missing = found < 0
    checked = scores[found]  # a missing row's -1 reads a placeholder
    if missing.any():
        checked[missing] = merged_scores(world, base, experts, checks[missing],
                                         contexts)
    # The candidates in tie order: the pick, the scored rows, the baselines.
    rows = np.vstack([checks[:1], configs, checks[1:]])
    candidates = np.vstack([checked[:1], scores, checked[1:]])
    labels = ["search"] + ["design"] * len(configs) + _baseline_labels(experts)
    best = int(np.argmax(utilities(candidates, spec)))
    search = replace(pick, weights=rows[best], selected_from=labels[best],
                     pick_weights=None if best == 0 else pick.weights,
                     actual_scores=candidates[best], check_scores=checked)
    return StageResult(configs, scores, digests, model, search, experts)


def merged_scores(world: World, base: np.ndarray, experts, weights,
                  contexts) -> np.ndarray:
    """Merge at each weight row and score every capability in the given units."""
    merged = merge(base, expert_params(experts), weights)
    return normalize(raw_capabilities(world, merged), contexts)


def verify_optimum(world: World, base: np.ndarray, experts,
                   model: SurfaceModel, result: SearchResult) -> dict:
    """Compare the search pick's prediction with reality, and report the
    answer.

    `weights`, `actual_scores` and `actual_utility` are the answer's;
    `predicted_scores`, `per_capability_gap`, `max_abs_gap` and
    `predicted_utility` are the search pick's, and `search_pick` gives its
    weights and actual utility. The uniform mixture and every corner are
    scored in the same units, so the report shows whether the answer beats
    the obvious baselines. A stage's result carries all of these scores; a
    bare `search_optimum` result, whose answer is its pick, has them merged
    here as one `_check_rows` stack. Every capability is scored; an unfitted
    one has None as its prediction and gap, and `max_abs_gap` is over the
    fitted ones. `search_kind` is "exact" for an exact stage, whose
    predictions, gaps, `max_abs_gap` and `predicted_utility` are all None,
    and "surrogate" otherwise.
    """
    spec = model.utility_spec
    pick = result.search_weights
    checked = result.check_scores
    if checked is None:
        checked = merged_scores(world, base, experts, _check_rows(pick),
                                model.contexts)
    actual = checked[0] if result.actual_scores is None else result.actual_scores
    values = utilities(np.vstack([actual, checked]), spec).tolist()
    predicted = [None if r is None else p
                 for r, p in zip(model.regressors, result.predicted_scores)]
    gaps = [None if p is None else p - a
            for p, a in zip(predicted, checked[0].tolist())]

    return {
        "search_kind": "exact" if model.exact else "surrogate",
        "weights": result.weights.tolist(),
        "capabilities": list(model.capabilities),
        "predicted_scores": predicted,
        "actual_scores": actual.tolist(),
        "per_capability_gap": gaps,
        "max_abs_gap": max((abs(g) for g in gaps if g is not None), default=None),
        "predicted_utility": result.predicted_utility,
        "actual_utility": values[0],
        "baseline_utilities": dict(zip(_baseline_labels(experts), values[2:])),
        "resolution": result.resolution,
        "evaluated_points": result.evaluated_points,
        "selected_from": result.selected_from,
        "search_pick": {"weights": pick.tolist(), "actual_utility": values[1]},
    }
