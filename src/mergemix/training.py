"""Constant-learning-rate gradient descent for domain experts and mixtures.

The protocol is deliberately plain: shared initialization, fixed step size,
short horizon, checkpoints on a fixed interval. Quadratic domains descend
the full-batch analytic gradient; regression domains support seeded
mini-batching. Mixture runs draw each mini-batch from domain k with
probability lambda_k, or descend the exact mixed gradient when full-batch.

Training reads a world only for gradients: a checkpoint is a step and its
parameters, and a caller that reads capabilities scores them itself.

Every run goes through one descent over an (n, P) stack of parameter
vectors, one row per run. `train_on_mixtures` trains a whole list of
full-batch mixtures in lockstep, MIXTURE_BLOCK_ROWS rows at a time, and
`train_on_mixture` is its one-row case; each row is bit-identical to
descending that mixture alone. Experts are one-row stacks, and so is each
mini-batch run, whose random draws depend on its own lambda.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, MergeMixError, TrainingDiverged
from .params import as_params
from .seeding import rng_for
from .simplex import normalize_simplex
from .worlds import World

# Full-batch mixtures descend in lockstep blocks of this many rows. Larger
# blocks ran no faster on a 1,771-row sweep and hold more trajectories at once.
MIXTURE_BLOCK_ROWS = 128


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


def final_only(config: TrainConfig) -> TrainConfig:
    """The same training, recording no intermediate checkpoints."""
    return replace(config, checkpoint_interval=max(1, config.steps))


@dataclass(frozen=True)
class TrajectoryPoint:
    step: int
    params: np.ndarray


@dataclass(frozen=True)
class ExpertArtifact:
    name: str
    final: np.ndarray
    trajectory: tuple[TrajectoryPoint, ...]
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


def _descend(grad_fn, base: np.ndarray, rows: int,
             config: TrainConfig) -> list[tuple[np.ndarray, tuple[TrajectoryPoint, ...]]]:
    """Descend `rows` runs from `base` in lockstep, one stack row per run.

    `grad_fn(theta)` returns the gradients of the stack `theta`, which
    holds the first m <= rows runs. Once a row turns non-finite, the rows
    after it are dropped, and the step of the first diverged row in input
    order is raised when the descent ends.
    """
    theta = np.repeat(base[None, :], rows, axis=0)
    trajectories = [[TrajectoryPoint(0, base.copy())] for _ in range(rows)]
    diverged_at = None
    for step in range(1, config.steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is handled
            theta = theta - config.learning_rate * grad_fn(theta)
        finite = np.isfinite(theta).all(axis=1)
        if not finite.all():
            diverged_at = step
            theta = theta[: int(np.argmin(finite))]
            if theta.shape[0] == 0:
                break
        if diverged_at is None and (step % config.checkpoint_interval == 0
                                    or step == config.steps):
            for trajectory, row in zip(trajectories, theta):
                trajectory.append(TrajectoryPoint(step, row.copy()))
    if diverged_at is not None:
        raise TrainingDiverged(diverged_at)
    return [(trajectory[-1].params.copy(), tuple(trajectory))
            for trajectory in trajectories]


def _use_full_batch(world: World, config: TrainConfig) -> bool:
    if config.batch_size == "full":
        return True
    # Quadratic domains have no datasets; the analytic gradient is the batch.
    return all(world.train_size(k) == 0 for k in range(world.num_domains))


def _check_base(world: World, base) -> np.ndarray:
    base = as_params(base)
    if base.shape[0] != world.dim:
        raise DimensionError(f"base has {base.shape[0]} params, world needs {world.dim}")
    return base


def train_expert(world: World, domain_index: int, base: np.ndarray,
                 config: TrainConfig) -> ExpertArtifact:
    """Train one domain expert from the shared base."""
    base = _check_base(world, base)
    name = world.names[domain_index]
    if _use_full_batch(world, config):
        grad_fn = lambda theta: world.grad(domain_index, theta)
    else:
        stream = _BatchStream(world.train_size(domain_index), int(config.batch_size),
                              rng_for(config.seed, "batches", name))
        grad_fn = lambda theta: world.grad_on(
            domain_index, theta[0], stream.next_batch()
        )
    [(final, trajectory)] = _descend(grad_fn, base, 1, config)
    return ExpertArtifact(name, final, trajectory)


def _mixed_grad_fn(world: World, lam: np.ndarray):
    """Exact mixed gradient of a block of full-batch mixtures, one row each.

    Row i is lam[i, 0] * g_0 plus lam[i, k] * g_k for every nonzero lam[i, k],
    added in domain order; the masked add leaves a skipped term out entirely,
    so signed zeros match a single run.
    """
    def grad_fn(theta):
        rows = lam[: theta.shape[0]]
        g = rows[:, :1] * world.grad(0, theta)
        for k in range(1, world.num_domains):
            weight = rows[:, k : k + 1]
            active = weight != 0.0
            if active.any():
                np.add(g, weight * world.grad(k, theta), out=g, where=active)
        return g
    return grad_fn


def _minibatch_grad_fn(world: World, lam: np.ndarray, config: TrainConfig):
    """One mixture run's seeded draws: a domain by lambda, then its next batch."""
    streams = [
        _BatchStream(world.train_size(k), int(config.batch_size),
                     rng_for(config.seed, "batches", world.names[k]))
        for k in range(world.num_domains)
    ]
    chooser = rng_for(config.seed, "mixture-choice")

    def grad_fn(theta):
        k = int(chooser.choice(world.num_domains, p=lam))
        return world.grad_on(k, theta[0], streams[k].next_batch())
    return grad_fn


def train_on_mixtures(world: World, weights, base: np.ndarray,
                      config: TrainConfig) -> Iterator[ExpertArtifact]:
    """Train one model per weight row on that lambda-weighted mixture of all
    domains, all from the same base.

    The weights are validated up front; the artifacts are then yielded in
    input order as training reaches them. Full-batch runs descend together
    in blocks of MIXTURE_BLOCK_ROWS rows, so a caller that keeps only what
    it reads holds one block of trajectories at a time. Mini-batch runs
    draw from their own seeded streams and run one at a time. A diverging
    run raises TrainingDiverged with the step of the first diverged run in
    input order.
    """
    base = _check_base(world, base)
    lams = [normalize_simplex(w) for w in weights]
    for lam in lams:
        if lam.shape[0] != world.num_domains:
            raise DimensionError(
                f"{lam.shape[0]} mixture weights for {world.num_domains} domains"
            )
    return _mixture_artifacts(world, lams, base, config)


def _mixture_artifacts(world: World, lams: list[np.ndarray], base: np.ndarray,
                       config: TrainConfig) -> Iterator[ExpertArtifact]:
    full_batch = _use_full_batch(world, config)
    size = MIXTURE_BLOCK_ROWS if full_batch else 1
    for i in range(0, len(lams), size):
        block = lams[i : i + size]
        grad_fn = (_mixed_grad_fn(world, np.stack(block)) if full_batch
                   else _minibatch_grad_fn(world, block[0], config))
        runs = _descend(grad_fn, base, len(block), config)
        for lam, (final, trajectory) in zip(block, runs):
            yield ExpertArtifact("mixture", final, trajectory,
                                 mixture=tuple(lam.tolist()))


def train_on_mixture(world: World, weights, base: np.ndarray,
                     config: TrainConfig) -> ExpertArtifact:
    """Train a single model on the lambda-weighted mixture of all domains."""
    [artifact] = train_on_mixtures(world, [weights], base, config)
    return artifact


def train_all_experts(world: World, base: np.ndarray,
                      config: TrainConfig) -> list[ExpertArtifact]:
    return [train_expert(world, k, base, config) for k in range(world.num_domains)]

