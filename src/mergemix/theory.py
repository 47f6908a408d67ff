"""Second-order analysis of mixed training versus expert merging.

Both processes share the same first-order step from a common initialization;
they part ways only in the quadratic term. The machinery here evaluates both
second-order predictions, their exact gap (split into a cross-domain
interference term and a self-domain scaling term), scaling checks of that
gap against exact simulation, and two geometry diagnostics: the relative
effective curvature matrix and task-vector cosines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, DimensionError, MergeMixError, NumericError
from .merging import merge
from .params import as_params
from .simplex import normalize_simplex
from .training import TrainConfig, train_on_mixture, train_expert
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
    def from_world(cls, world: World, theta0: np.ndarray, horizon: float,
                   step: float | None = None) -> "TaylorContext":
        theta0 = as_params(theta0)
        grads = tuple(world.grad(k, theta0) for k in range(world.num_domains))
        hvp_fns = tuple(
            (lambda k: lambda v: world.hvp(k, theta0, v, step))(k)
            for k in range(world.num_domains)
        )
        return cls(theta0, grads, hvp_fns, float(horizon))

    @property
    def num_domains(self) -> int:
        return len(self.grads)

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


def _first_order(ctx: TaylorContext, lam: np.ndarray) -> np.ndarray:
    step = np.zeros_like(ctx.theta0)
    for k in range(ctx.num_domains):
        step += lam[k] * ctx.grads[k]
    return ctx.theta0 - ctx.horizon * step


def predict_mixture_params(ctx: TaylorContext, weights) -> np.ndarray:
    """Second-order estimate of training on the weighted mixed loss."""
    lam = _check_weights(ctx, weights)
    table = ctx.curvature_responses
    quad = np.zeros_like(ctx.theta0)
    for k in range(ctx.num_domains):
        for j in range(ctx.num_domains):
            quad += lam[k] * lam[j] * table[k, j]
    return _first_order(ctx, lam) + 0.5 * ctx.horizon**2 * quad


def predict_merge_params(ctx: TaylorContext, weights) -> np.ndarray:
    """Second-order estimate of merging independently trained experts."""
    lam = _check_weights(ctx, weights)
    table = ctx.curvature_responses
    quad = np.zeros_like(ctx.theta0)
    for k in range(ctx.num_domains):
        quad += lam[k] * table[k, k]
    return _first_order(ctx, lam) + 0.5 * ctx.horizon**2 * quad


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

    def to_dict(self) -> dict:
        out = {
            "delta": self.delta.tolist(),
            "cross_interference": self.cross_interference.tolist(),
            "self_scaling": self.self_scaling.tolist(),
            "delta_norm": float(np.linalg.norm(self.delta)),
            "cross_norm": float(np.linalg.norm(self.cross_interference)),
            "self_norm": float(np.linalg.norm(self.self_scaling)),
        }
        if self.observed is not None:
            out["observed"] = self.observed.tolist()
            out["residual_norm"] = self.residual_norm
        return out


def discrepancy(ctx: TaylorContext, weights) -> DiscrepancyReport:
    """Mixture-minus-merge gap at second order, split into its two parts."""
    lam = _check_weights(ctx, weights)
    table = ctx.curvature_responses
    scale = 0.5 * ctx.horizon**2
    cross = np.zeros_like(ctx.theta0)
    self_term = np.zeros_like(ctx.theta0)
    for k in range(ctx.num_domains):
        for j in range(ctx.num_domains):
            if k == j:
                self_term += (lam[k] * lam[k] - lam[k]) * table[k, k]
            else:
                cross += lam[k] * lam[j] * table[k, j]
    cross = scale * cross
    self_term = scale * self_term
    delta = cross + self_term

    gap = predict_mixture_params(ctx, lam) - predict_merge_params(ctx, lam)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(gap))) if gap.size else 1.0)
    if np.max(np.abs(gap - delta)) > tol:
        raise NumericError("discrepancy does not match prediction difference")
    return DiscrepancyReport(delta, cross, self_term)


def _simulate_gap(world: World, weights, base: np.ndarray,
                  learning_rate: float, steps: int) -> np.ndarray:
    """Exact (Theta_mix - Theta_merge) from real training runs."""
    cfg = TrainConfig(learning_rate=learning_rate, steps=steps,
                      checkpoint_interval=max(1, steps))
    mixed = train_on_mixture(world, weights, base, cfg).final
    experts = [train_expert(world, k, base, cfg).final
               for k in range(world.num_domains)]
    merged = merge(base, experts, weights)
    return mixed - merged


def horizon_scaling_check(world: World, weights, learning_rate: float,
                          steps: int, base: np.ndarray | None = None) -> dict:
    """How the simulated mix-vs-merge gap shrinks when the horizon halves.

    The half-horizon run doubles the step count and quarters the learning
    rate, so discretization error shrinks in lockstep with the horizon and
    the continuous-limit exponents are observable: the raw gap is quadratic
    in the horizon (ratio 4 per halving) and the gap left after subtracting
    the predicted discrepancy is cubic (ratio 8 per halving).
    """
    base = world.base_params() if base is None else as_params(base)
    lam = normalize_simplex(weights)
    horizon = learning_rate * steps
    gaps = {}
    residuals = {}
    for label, (lr, t) in {
        "full": (learning_rate, steps),
        "half": (learning_rate / 4.0, 2 * steps),
    }.items():
        gap = _simulate_gap(world, lam, base, lr, t)
        ctx = TaylorContext.from_world(world, base, lr * t)
        report = discrepancy(ctx, lam).with_observation(gap)
        gaps[label] = float(np.linalg.norm(gap))
        residuals[label] = report.residual_norm
    return {
        "horizon": horizon,
        "learning_rate": learning_rate,
        "steps": steps,
        "gap_norm_full": gaps["full"],
        "gap_norm_half": gaps["half"],
        "gap_ratio": gaps["full"] / gaps["half"] if gaps["half"] else float("inf"),
        "residual_norm_full": residuals["full"],
        "residual_norm_half": residuals["half"],
        "residual_ratio": (residuals["full"] / residuals["half"]
                           if residuals["half"] else float("inf")),
    }


@dataclass(frozen=True)
class CurvatureMatrix:
    """Relative effective curvature: response of domain k along gradient j,
    normalized by its self-response. The diagonal is 1 by definition."""

    values: np.ndarray
    row_dominant: tuple[bool, ...]


def relative_curvature(world: World, theta0: np.ndarray,
                       step: float | None = None) -> CurvatureMatrix:
    theta0 = as_params(theta0)
    k = world.num_domains
    grads = [world.grad(i, theta0) for i in range(k)]
    norms = [float(np.linalg.norm(g)) for g in grads]
    for name, n in zip(world.names, norms):
        if n == 0.0:
            raise DegenerateInputError(f"zero gradient for domain {name!r}")
    response = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            response[a, b] = float(np.linalg.norm(world.hvp(a, theta0, grads[b], step)))
            response[a, b] /= norms[b]
        if response[a, a] == 0.0:
            raise DegenerateInputError(
                f"zero self curvature response for domain {world.names[a]!r}"
            )
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
