"""Second-order analysis of mixed training versus expert merging.

Both processes share the same first-order step from a common initialization;
they part ways only in the quadratic term. The machinery here evaluates both
second-order predictions, their exact gap (split into a cross-domain
interference term and a self-domain scaling term), scaling checks of that
gap against exact simulation, and two geometry diagnostics: the relative
effective curvature matrix and task-vector cosines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, DimensionError, MergeMixError, NumericError
from .merging import merge, merge_rows
from .params import as_params
from .simplex import normalize_simplex
from .training import TrainConfig, final_only, train_on_mixtures
from .worlds import World


@dataclass(frozen=True)
class TaylorContext:
    """Evaluation point, per-domain gradients, Hessian access, and horizon.

    `hvp_fns[k]` maps a direction v to H_k v at the evaluation point. The
    K x K table of curvature responses H_k g_j is computed once and shared
    by every prediction so their algebraic identities survive verbatim.
    """

    theta0: np.ndarray
    grads: tuple[np.ndarray, ...]
    hvp_fns: tuple
    horizon: float

    def __post_init__(self):
        if self.horizon <= 0:
            raise MergeMixError(f"effective horizon must be > 0, got {self.horizon}")
        if len(self.grads) != len(self.hvp_fns) or not self.grads:
            raise DimensionError("need one gradient and one HVP closure per domain")

    @classmethod
    def from_world(cls, world: World, theta0: np.ndarray,
                   horizon: float) -> "TaylorContext":
        theta0 = as_params(theta0)
        grads = tuple(world.grad(k, theta0) for k in range(world.num_domains))
        hvp_fns = tuple(
            (lambda k: lambda v: world.hvp(k, theta0, v))(k)
            for k in range(world.num_domains)
        )
        return cls(theta0, grads, hvp_fns, float(horizon))

    @property
    def num_domains(self) -> int:
        return len(self.grads)

    def with_horizon(self, horizon: float) -> "TaylorContext":
        """This context at another horizon, sharing its curvature table,
        which depends on the point and the Hessians but not the horizon."""
        ctx = replace(self, horizon=float(horizon))
        ctx.__dict__["curvature_responses"] = self.curvature_responses
        return ctx

    @cached_property
    def curvature_responses(self) -> np.ndarray:
        """Table [k, j] = H_k g_j, shape (K, K, P)."""
        k = self.num_domains
        p = self.theta0.shape[0]
        table = np.empty((k, k, p))
        for a in range(k):
            for b in range(k):
                table[a, b] = self.hvp_fns[a](self.grads[b])
        return table


def _check_weights(ctx: TaylorContext, weights) -> np.ndarray:
    lam = normalize_simplex(weights)
    if lam.shape[0] != ctx.num_domains:
        raise DimensionError(
            f"{lam.shape[0]} weights for {ctx.num_domains} domains"
        )
    return lam


def _first_order(ctx: TaylorContext, lams: np.ndarray) -> np.ndarray:
    step = np.zeros((lams.shape[0], ctx.theta0.shape[0]))
    for k in range(ctx.num_domains):
        step += lams[:, k : k + 1] * ctx.grads[k]
    return ctx.theta0 - ctx.horizon * step


def _predict_mixture(ctx: TaylorContext, lams: np.ndarray) -> np.ndarray:
    table = ctx.curvature_responses
    quad = np.zeros((lams.shape[0], ctx.theta0.shape[0]))
    for k in range(ctx.num_domains):
        for j in range(ctx.num_domains):
            quad += (lams[:, k] * lams[:, j])[:, None] * table[k, j]
    return _first_order(ctx, lams) + 0.5 * ctx.horizon**2 * quad


def _predict_merge(ctx: TaylorContext, lams: np.ndarray) -> np.ndarray:
    table = ctx.curvature_responses
    quad = np.zeros((lams.shape[0], ctx.theta0.shape[0]))
    for k in range(ctx.num_domains):
        quad += lams[:, k : k + 1] * table[k, k]
    return _first_order(ctx, lams) + 0.5 * ctx.horizon**2 * quad


def predict_mixture_params(ctx: TaylorContext, weights) -> np.ndarray:
    """Second-order estimate of training on the weighted mixed loss."""
    return _predict_mixture(ctx, _check_weights(ctx, weights)[None])[0]


def predict_merge_params(ctx: TaylorContext, weights) -> np.ndarray:
    """Second-order estimate of merging independently trained experts."""
    return _predict_merge(ctx, _check_weights(ctx, weights)[None])[0]


@dataclass(frozen=True)
class DiscrepancyReport:
    """Gap between the two second-order predictions, and its two components.

    delta == cross_interference + self_scaling by construction. When a
    simulated gap is attached, residual_norm measures what the second-order
    theory leaves unexplained.
    """

    delta: np.ndarray
    cross_interference: np.ndarray
    self_scaling: np.ndarray
    observed: np.ndarray | None = None
    residual_norm: float | None = None

    def with_observation(self, observed: np.ndarray) -> "DiscrepancyReport":
        residual = float(np.linalg.norm(observed - self.delta))
        return DiscrepancyReport(self.delta, self.cross_interference,
                                 self.self_scaling, observed, residual)


def _discrepancy_parts(ctx: TaylorContext, lams: np.ndarray):
    """(delta, cross, self) stacks, one row per weight row of `lams`.

    Each row must match the difference of the two predictions to 1e-12
    relative to that row's largest gap entry.
    """
    table = ctx.curvature_responses
    scale = 0.5 * ctx.horizon**2
    shape = (lams.shape[0], ctx.theta0.shape[0])
    cross = np.zeros(shape)
    self_term = np.zeros(shape)
    for k in range(ctx.num_domains):
        lam_k = lams[:, k]
        for j in range(ctx.num_domains):
            if k == j:
                self_term += (lam_k * lam_k - lam_k)[:, None] * table[k, k]
            else:
                cross += (lam_k * lams[:, j])[:, None] * table[k, j]
    cross = scale * cross
    self_term = scale * self_term
    delta = cross + self_term

    gap = _predict_mixture(ctx, lams) - _predict_merge(ctx, lams)
    tol = 1e-12 * np.maximum(1.0, np.max(np.abs(gap), axis=1))
    if np.any(np.max(np.abs(gap - delta), axis=1) > tol):
        raise NumericError("discrepancy does not match prediction difference")
    return delta, cross, self_term


def discrepancy(ctx: TaylorContext, weights) -> DiscrepancyReport:
    """Mixture-minus-merge gap at second order, split into its two parts."""
    lam = _check_weights(ctx, weights)
    delta, cross, self_term = _discrepancy_parts(ctx, lam[None])
    return DiscrepancyReport(delta[0], cross[0], self_term[0])


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, each bit-identical to np.linalg.norm(row)."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def discrepancy_sweep(world: World, base: np.ndarray, experts, grid,
                      ctx: TaylorContext, train_config: TrainConfig) -> np.ndarray:
    """Predicted and simulated mix-vs-merge gap at every weight row of `grid`.

    Returns an (n, 5) array of norms per row: delta, cross interference,
    self scaling, the observed gap and the residual observed - delta. The
    whole grid trains in one `train_on_mixtures` call; each block that
    training yields is merged and predicted as soon as it is done, so
    memory stays bounded on large grids: a block holds at most
    `training.MIXTURE_BLOCK_VALUES` checkpoint values, or one run.
    """
    norms = [np.empty((0, 5))]
    for lams, checkpoints in train_on_mixtures(world, grid, base, train_config):
        delta, cross, self_term = _discrepancy_parts(ctx, lams)
        observed = checkpoints[:, -1] - merge_rows(base, experts, lams)
        norms.append(np.column_stack([
            _row_norms(x) for x in (delta, cross, self_term, observed, observed - delta)
        ]))
    return np.concatenate(norms)


def _simulate_gap(world: World, weights, base: np.ndarray,
                  learning_rate: float, steps: int) -> np.ndarray:
    """Exact (Theta_mix - Theta_merge) from real training runs.

    The mixture and the K experts (the corners of the simplex) train in one
    `train_on_mixtures` call, mixture first, so a diverging run raises the
    step of the mixture before any expert's.
    """
    cfg = final_only(TrainConfig(learning_rate=learning_rate, steps=steps))
    runs = np.vstack([weights, np.eye(world.num_domains)])
    finals = [checkpoints[:, -1] for _, checkpoints
              in train_on_mixtures(world, runs, base, cfg)]
    mixed, *experts = np.concatenate(finals)
    return mixed - merge(base, experts, weights)


def _shared_context(taylor: TaylorContext | None, theta0: np.ndarray):
    """`taylor`, after checking that it was built at theta0."""
    if taylor is not None and not np.array_equal(taylor.theta0, theta0):
        raise MergeMixError("the shared Taylor context is at another point")
    return taylor


def horizon_scaling_check(world: World, weights, learning_rate: float,
                          steps: int, base: np.ndarray | None = None,
                          taylor: TaylorContext | None = None) -> dict:
    """How the simulated mix-vs-merge gap shrinks when the horizon halves.

    The half-horizon run doubles the step count and quarters the learning
    rate, so discretization error shrinks in lockstep with the horizon and
    the continuous-limit exponents are observable: the raw gap is quadratic
    in the horizon (ratio 4 per halving) and the gap left after subtracting
    the predicted discrepancy is cubic (ratio 8 per halving). Both horizons
    share one context at `base`: `taylor` if given, else one built here.
    A ratio whose half-horizon norm is 0 is None.
    """
    base = world.base_params() if base is None else as_params(base)
    lam = normalize_simplex(weights)
    horizon = learning_rate * steps
    taylor = _shared_context(taylor, base)
    if taylor is None:
        taylor = TaylorContext.from_world(world, base, horizon)
    gaps = {}
    residuals = {}
    for label, (lr, t) in {
        "full": (learning_rate, steps),
        "half": (learning_rate / 4.0, 2 * steps),
    }.items():
        gap = _simulate_gap(world, lam, base, lr, t)
        report = discrepancy(taylor.with_horizon(lr * t), lam).with_observation(gap)
        gaps[label] = float(np.linalg.norm(gap))
        residuals[label] = report.residual_norm
    return {
        "horizon": horizon,
        "learning_rate": learning_rate,
        "steps": steps,
        "gap_norm_full": gaps["full"],
        "gap_norm_half": gaps["half"],
        "gap_ratio": _ratio(gaps["full"], gaps["half"]),
        "residual_norm_full": residuals["full"],
        "residual_norm_half": residuals["half"],
        "residual_ratio": _ratio(residuals["full"], residuals["half"]),
    }


def _ratio(full: float, half: float) -> float | None:
    """full / half, or None (JSON null) where half is 0 and the ratio has
    no value: identical domains, or a one-domain world, have no gap."""
    return full / half if half else None


@dataclass(frozen=True)
class CurvatureMatrix:
    """Relative effective curvature: response of domain k along gradient j,
    normalized by its self-response. The diagonal is 1 by definition."""

    values: np.ndarray
    row_dominant: tuple[bool, ...]


def relative_curvature(world: World, theta0: np.ndarray, *,
                       taylor: TaylorContext | None = None) -> CurvatureMatrix:
    """|H_a g_b| / |g_b|, each row divided by its self-response, from a
    TaylorContext's `curvature_responses`.

    `taylor`, a context at theta0, lends its table; without it a context at
    theta0 is built here.
    """
    ctx = _shared_context(taylor, as_params(theta0))
    if ctx is None:
        ctx = TaylorContext.from_world(world, theta0, 1.0)
    k = ctx.num_domains
    norms = _row_norms(np.stack(ctx.grads))
    for name, n in zip(world.names, norms):
        if n == 0.0:
            raise DegenerateInputError(f"zero gradient for domain {name!r}")
    table = ctx.curvature_responses
    response = _row_norms(table.reshape(k * k, -1)).reshape(k, k) / norms
    for name, self_response in zip(world.names, np.diag(response)):
        if self_response == 0.0:
            raise DegenerateInputError(f"zero self curvature response for domain {name!r}")
    values = response / np.diag(response)[:, None]  # row / self-response; diagonal 1
    dominant = tuple(
        bool(np.all(np.delete(values[i], i) <= 1.0)) for i in range(k)
    )
    return CurvatureMatrix(values, dominant)


def task_vector_cosines(experts, base: np.ndarray) -> np.ndarray:
    """Pairwise cosines of expert displacements from the base; diagonal is 1."""
    base = as_params(base)
    vectors = []
    for artifact in experts:
        t = artifact.final - base
        if float(np.linalg.norm(t)) == 0.0:
            raise DegenerateInputError(f"zero task vector for {artifact.name!r}")
        vectors.append(t)
    k = len(vectors)
    out = np.eye(k)
    for a in range(k):
        for b in range(a + 1, k):
            cos = float(vectors[a] @ vectors[b])
            cos /= float(np.linalg.norm(vectors[a]) * np.linalg.norm(vectors[b]))
            out[a, b] = out[b, a] = cos
    return out
