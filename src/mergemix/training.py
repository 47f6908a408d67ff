"""Constant-learning-rate gradient descent for domain experts and mixtures.

The protocol is deliberately plain: shared initialization, fixed step size,
short horizon, checkpoints on a fixed interval. Quadratic domains descend
the full-batch analytic gradient; regression domains support seeded
mini-batching. Mixture runs draw each mini-batch from domain k with
probability lambda_k, or descend the exact mixed gradient when full-batch.

Training reads a world only for gradients: a run's checkpoints are its
parameters, and a caller that reads capabilities scores them itself.

Every run goes through one descent over an (n, P) stack of parameter
vectors, one row per run. `train_on_mixtures` trains a whole list of
full-batch mixtures in lockstep, in blocks that hold at most
MIXTURE_BLOCK_VALUES checkpoint values (one row when a single run holds
more), and `train_on_mixture` is its one-row case; each row is
bit-identical to descending that mixture alone. `train_all_experts`
trains every domain's expert as one K-row stack, row k on domain k, and
`train_expert` is its one-domain case. Each mini-batch mixture run is a
one-row stack, whose random draws depend on its own lambda.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, MergeMixError, TrainingDiverged
from .params import as_params
from .seeding import rng_for
from .simplex import normalize_simplex_rows
from .worlds import World

# Full-batch mixtures descend in lockstep blocks whose (rows, C, P)
# checkpoints hold at most this many float64 values (256 KiB), or one row
# when a single run holds more. A block's cost is mostly per step, not per
# row: the 1,771-row QW-4 theory sweep (C = 2, P = 8, 50 steps) took 57.1,
# 42.9, 39.1, 36.4 and 34.9 ms in blocks of 128, 256, 512, 1,024 and 2,048
# rows (2-core VM, numpy 2.4), with byte-identical norms at every size. At
# this bound it is one block of 2,048 rows, while a run that records every
# step of a long horizon gets a few rows per block.
MIXTURE_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    steps: int
    batch_size: int | str = "full"
    checkpoint_interval: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise MergeMixError(
                f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise MergeMixError(f"steps must be >= 0, got {self.steps}")
        if self.checkpoint_interval < 1:
            raise MergeMixError("checkpoint interval must be >= 1")
        if self.batch_size != "full" and int(self.batch_size) < 1:
            raise MergeMixError("batch size must be 'full' or a positive integer")

    @property
    def checkpoint_steps(self) -> tuple[int, ...]:
        """The steps a run records: 0, every interval, and the last step."""
        return (*range(0, self.steps, self.checkpoint_interval), self.steps)


def final_only(config: TrainConfig) -> TrainConfig:
    """The same training, recording no intermediate checkpoints."""
    return replace(config, checkpoint_interval=max(1, config.steps))


@dataclass(frozen=True)
class ExpertArtifact:
    """One trained run: `checkpoints[i]` holds its parameters at `steps[i]`."""

    name: str
    steps: tuple[int, ...]
    checkpoints: np.ndarray
    mixture: tuple[float, ...] | None = None

    @property
    def final(self) -> np.ndarray:
        return self.checkpoints[-1]


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
             config: TrainConfig) -> np.ndarray:
    """Descend `rows` runs from `base` in lockstep, one stack row per run,
    and return their (rows, C, P) checkpoints at `config.checkpoint_steps`.

    `grad_fn(theta)` returns the gradients of the stack `theta`, which
    holds the first m <= rows runs. Once a row turns non-finite, the rows
    after it are dropped, and the step of the first diverged row in input
    order is raised when the descent ends.
    """
    schedule = config.checkpoint_steps
    checkpoints = np.empty((rows, len(schedule), base.shape[0]))
    checkpoints[:, 0] = base
    theta = np.repeat(base[None, :], rows, axis=0)
    recorded = 1
    diverged_at = None
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is handled
        for step in range(1, config.steps + 1):
            theta = theta - config.learning_rate * grad_fn(theta)
            # A whole-stack check is cheaper than a per-row one; rows are
            # checked only once it fails.
            if not np.isfinite(theta).all():
                diverged_at = step
                theta = theta[: int(np.argmin(np.isfinite(theta).all(axis=1)))]
                if theta.shape[0] == 0:
                    break
            if diverged_at is None and step == schedule[recorded]:
                checkpoints[:, recorded] = theta
                recorded += 1
    if diverged_at is not None:
        raise TrainingDiverged(diverged_at)
    return checkpoints


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


def _domain_streams(world: World, config: TrainConfig) -> list[_BatchStream]:
    """One fresh seeded batch stream per domain, seeded by the domain's name."""
    return [
        _BatchStream(world.train_size(k), int(config.batch_size),
                     rng_for(config.seed, "batches", world.names[k]))
        for k in range(world.num_domains)
    ]


def _expert_grad_fn(world: World, config: TrainConfig):
    """Gradients of a stack of experts, row k descending domain k: the
    world's full-batch `expert_grads`, or row k's next batch from domain
    k's own seeded stream."""
    if _use_full_batch(world, config):
        return world.expert_grads
    streams = _domain_streams(world, config)

    def grad_fn(theta):
        return np.stack([world.grad_on(k, row, stream.next_batch())
                         for k, (row, stream) in enumerate(zip(theta, streams))])
    return grad_fn


def train_all_experts(world: World, base: np.ndarray,
                      config: TrainConfig) -> list[ExpertArtifact]:
    """Train one expert per domain from the shared base, all as one
    lockstep stack: row k descends domain k, bit-identical to training that
    expert alone. A diverging expert raises TrainingDiverged with the step
    of the first diverged expert in domain order."""
    base = _check_base(world, base)
    checkpoints = _descend(_expert_grad_fn(world, config), base,
                           world.num_domains, config)
    return [ExpertArtifact(name, config.checkpoint_steps, run)
            for name, run in zip(world.names, checkpoints)]


def train_expert(world: World, domain_index: int, base: np.ndarray,
                 config: TrainConfig) -> ExpertArtifact:
    """Train one domain expert from the shared base: the one-domain case of
    `train_all_experts`, on the world restricted to that domain."""
    [artifact] = train_all_experts(world.restrict([world.names[domain_index]]),
                                   base, config)
    return artifact


def _mixed_grad_fn(world: World, lam: np.ndarray):
    """Exact mixed gradient of a block of full-batch mixtures, one row each.

    Row i is lam[i, 0] * g_0 plus lam[i, k] * g_k for every nonzero lam[i, k],
    added in domain order; the masked add leaves a skipped term out entirely,
    so signed zeros match a single run. The masks are the block's, fixed for
    the whole descent; a domain no row of the block uses is never evaluated.
    """
    active = lam != 0.0
    used = [k for k in range(1, world.num_domains) if active[:, k].any()]

    def grad_fn(theta):
        m = theta.shape[0]
        g = lam[:m, :1] * world.grad(0, theta)
        for k in used:
            np.add(g, lam[:m, k : k + 1] * world.grad(k, theta), out=g,
                   where=active[:m, k : k + 1])
        return g
    return grad_fn


def _minibatch_grad_fn(world: World, lam: np.ndarray, config: TrainConfig):
    """One mixture run's seeded draws: a domain by lambda, then its next batch."""
    streams = _domain_streams(world, config)
    chooser = rng_for(config.seed, "mixture-choice")

    def grad_fn(theta):
        k = int(chooser.choice(world.num_domains, p=lam))
        return world.grad_on(k, theta[0], streams[k].next_batch())
    return grad_fn


def train_on_mixtures(world: World, weights, base: np.ndarray,
                      config: TrainConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Train one model per weight row on that lambda-weighted mixture of all
    domains, all from the same base.

    The weights are validated up front; then one `(lams, checkpoints)` pair
    per lockstep block is yielded in input order: its (b, K) weight rows and
    their (b, C, P) checkpoints. A full-batch block holds as many rows as fit
    in MIXTURE_BLOCK_VALUES checkpoint values, and at least one; mini-batch
    runs draw from their own seeded streams, one per block.
    A diverging run raises TrainingDiverged with the step of the first
    diverged run in input order.
    """
    base = _check_base(world, base)
    lams = normalize_simplex_rows(weights, world.num_domains)
    return _mixture_blocks(world, lams, base, config)


def _mixture_blocks(world: World, lams: np.ndarray, base: np.ndarray,
                    config: TrainConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    full_batch = _use_full_batch(world, config)
    run_values = len(config.checkpoint_steps) * base.shape[0]
    size = max(1, MIXTURE_BLOCK_VALUES // run_values) if full_batch else 1
    for i in range(0, lams.shape[0], size):
        block = lams[i : i + size]
        grad_fn = (_mixed_grad_fn(world, block) if full_batch
                   else _minibatch_grad_fn(world, block[0], config))
        yield block, _descend(grad_fn, base, block.shape[0], config)


def train_on_mixture(world: World, weights, base: np.ndarray,
                     config: TrainConfig) -> ExpertArtifact:
    """Train a single model on the lambda-weighted mixture of all domains."""
    [(lams, checkpoints)] = train_on_mixtures(world, [weights], base, config)
    return ExpertArtifact("mixture", config.checkpoint_steps, checkpoints[0],
                          mixture=tuple(lams[0].tolist()))
