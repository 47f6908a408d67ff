"""Constant-learning-rate gradient descent for domain experts and mixtures.

The protocol is deliberately plain: shared initialization, fixed step size,
short horizon, checkpoints on a fixed interval. Quadratic domains descend
the full-batch analytic gradient; regression domains support seeded
mini-batching. Mixture runs draw each mini-batch from domain k with
probability lambda_k, or descend the exact mixed gradient when full-batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MergeMixError, TrainingDiverged
from .params import as_params, check_same_dim, params_digest
from .seeding import rng_for
from .simplex import normalize_simplex
from .worlds import World, raw_capabilities


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    steps: int
    batch_size: int | str = "full"
    checkpoint_interval: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise MergeMixError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise MergeMixError(f"steps must be >= 0, got {self.steps}")
        if self.checkpoint_interval < 1:
            raise MergeMixError("checkpoint interval must be >= 1")
        if self.batch_size != "full" and int(self.batch_size) < 1:
            raise MergeMixError("batch size must be 'full' or a positive integer")


@dataclass(frozen=True)
class TrajectoryPoint:
    step: int
    params: np.ndarray
    raw_scores: tuple[float, ...]  # raw capability on every world domain


@dataclass(frozen=True)
class ExpertArtifact:
    name: str
    final: np.ndarray
    trajectory: tuple[TrajectoryPoint, ...]
    config: TrainConfig
    base_digest: str
    mixture: tuple[float, ...] | None = None

    @property
    def task_vector(self) -> np.ndarray:
        return self.final - self.trajectory[0].params


def expert_params(experts) -> list[np.ndarray]:
    """Final parameters of trained artifacts; bare vectors pass through."""
    return [e.final if hasattr(e, "final") else e for e in experts]


class _BatchStream:
    """Seeded epoch-reshuffled index stream over one domain's training set."""

    def __init__(self, size: int, batch: int, rng: np.random.Generator):
        self.size = size
        self.batch = min(batch, size)
        self.rng = rng
        self.order = rng.permutation(size)
        self.cursor = 0

    def next_batch(self) -> np.ndarray:
        if self.cursor + self.batch > self.size:
            self.order = self.rng.permutation(self.size)
            self.cursor = 0
        idx = self.order[self.cursor : self.cursor + self.batch]
        self.cursor += self.batch
        return idx


def _snapshot(world: World, step: int, theta: np.ndarray) -> TrajectoryPoint:
    return TrajectoryPoint(step, theta.copy(), tuple(raw_capabilities(world, theta)))


def _descend(world: World, grad_fn, base: np.ndarray,
             config: TrainConfig) -> tuple[np.ndarray, tuple[TrajectoryPoint, ...]]:
    theta = base.copy()
    trajectory = [_snapshot(world, 0, theta)]
    for step in range(1, config.steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is handled
            theta = theta - config.learning_rate * grad_fn(theta, step)
        if not np.all(np.isfinite(theta)):
            raise TrainingDiverged(step)
        if step % config.checkpoint_interval == 0 or step == config.steps:
            trajectory.append(_snapshot(world, step, theta))
    return trajectory[-1].params.copy(), tuple(trajectory)


def _use_full_batch(world: World, config: TrainConfig) -> bool:
    if config.batch_size == "full":
        return True
    # Quadratic domains have no datasets; the analytic gradient is the batch.
    return all(world.train_size(k) == 0 for k in range(world.num_domains))


def train_expert(world: World, domain_index: int, base: np.ndarray,
                 config: TrainConfig) -> ExpertArtifact:
    """Train one domain expert from the shared base."""
    base = as_params(base)
    if base.shape[0] != world.dim:
        raise DimensionError(f"base has {base.shape[0]} params, world needs {world.dim}")
    name = world.names[domain_index]
    if _use_full_batch(world, config):
        grad_fn = lambda theta, step: world.grad(domain_index, theta)
    else:
        stream = _BatchStream(world.train_size(domain_index), int(config.batch_size),
                              rng_for(config.seed, "batches", name))
        grad_fn = lambda theta, step: world.grad_on(
            domain_index, theta, stream.next_batch()
        )
    final, trajectory = _descend(world, grad_fn, base, config)
    return ExpertArtifact(name, final, trajectory, config, params_digest(base))


def train_on_mixture(world: World, weights, base: np.ndarray,
                     config: TrainConfig) -> ExpertArtifact:
    """Train a single model on the lambda-weighted mixture of all domains."""
    base = as_params(base)
    lam = normalize_simplex(weights)
    if lam.shape[0] != world.num_domains:
        raise DimensionError(
            f"{lam.shape[0]} mixture weights for {world.num_domains} domains"
        )
    if _use_full_batch(world, config):
        def grad_fn(theta, step):
            g = lam[0] * world.grad(0, theta)
            for k in range(1, world.num_domains):
                if lam[k] != 0.0:
                    g = g + lam[k] * world.grad(k, theta)
            return g
    else:
        streams = [
            _BatchStream(world.train_size(k), int(config.batch_size),
                         rng_for(config.seed, "batches", world.names[k]))
            for k in range(world.num_domains)
        ]
        chooser = rng_for(config.seed, "mixture-choice")

        def grad_fn(theta, step):
            k = int(chooser.choice(world.num_domains, p=lam))
            return world.grad_on(k, theta, streams[k].next_batch())

    final, trajectory = _descend(world, grad_fn, base, config)
    return ExpertArtifact("mixture", final, trajectory, config,
                          params_digest(base), mixture=tuple(lam.tolist()))


def train_all_experts(world: World, base: np.ndarray,
                      config: TrainConfig) -> list[ExpertArtifact]:
    return [train_expert(world, k, base, config) for k in range(world.num_domains)]


def suggest_steps(world: World, base: np.ndarray, learning_rate: float,
                  fraction: float = 0.5) -> int:
    """Largest horizon keeping experts in the local neighborhood of the base.

    Chosen so steps * lr * max_k ||grad_k|| <= fraction * min_k
    ||base - minimizer_k|| on quadratic worlds.
    """
    base = as_params(base)
    grads = [np.linalg.norm(world.grad(k, base)) for k in range(world.num_domains)]
    max_grad = max(grads)
    if max_grad == 0:
        return 1
    if hasattr(world, "quadratics"):
        span = min(
            np.linalg.norm(base - q.minimizer) for q in world.quadratics
        )
    else:
        span = 1.0
    return max(1, int(fraction * span / (learning_rate * max_grad)))
