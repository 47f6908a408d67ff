"""Synthetic data domains and capability scoring.

A world bundles a model family with K domains. A quadratic world's domains
are their analytic objectives, with exact derivatives and no data; a
regression world pairs one shared feed-forward net with per-domain generated
datasets. Capability on a domain is the negative held-out loss, min-max
normalized over a declared reference population.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MergeMixError, NumericError
from .models import Quadratic, ToyNet, hvp_finite_difference
from .params import as_params


@dataclass(frozen=True)
class DomainSpec:
    """Declarative description of one generated regression domain."""

    name: str
    target_weight: np.ndarray
    noise: float = 0.0
    input_dim: int = 0
    train_size: int = 0
    heldout_size: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise DimensionError(f"noise must be finite and >= 0, got {self.noise}")
        if self.train_size < 1 or self.heldout_size < 1:
            raise DimensionError("regression domain sizes must be >= 1")
        w = np.asarray(self.target_weight, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != self.input_dim:
            raise DimensionError(
                f"target weight must be (out x {self.input_dim}), got {w.shape}"
            )
        object.__setattr__(self, "target_weight", w)


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DimensionError("inputs and targets must have equal length")
        if self.inputs.size and not np.all(np.isfinite(self.inputs)):
            raise DimensionError("dataset inputs contain non-finite values")
        if self.targets.size and not np.all(np.isfinite(self.targets)):
            raise DimensionError("dataset targets contain non-finite values")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def generate_domain(spec: DomainSpec) -> tuple[Dataset, Dataset]:
    """Generate (train, heldout) datasets, fully determined by the domain
    description and its seed."""
    rng = np.random.default_rng(spec.seed)
    w = spec.target_weight
    out = []
    for size in (spec.train_size, spec.heldout_size):
        x = rng.standard_normal((size, spec.input_dim))
        y = x @ w.T
        if spec.noise > 0:
            y = y + spec.noise * rng.standard_normal(y.shape)
        out.append(Dataset(x, y))
    return out[0], out[1]


def _unique_names(names) -> list[str]:
    """The domain names of a world, which must be distinct: experts,
    checkpoints and report entries are keyed by name."""
    names = list(names)
    if len(set(names)) != len(names):
        raise MergeMixError(f"duplicate domain names in {names}")
    return names


def generate_world(specs: list[DomainSpec]) -> list[tuple[Dataset, Dataset]]:
    """Generate all domains, enforcing unique names."""
    _unique_names(s.name for s in specs)
    return [generate_domain(s) for s in specs]


def _kept_indices(world_names: list[str], names) -> list[int]:
    """Indices of the named domains in the world's own order."""
    wanted = _unique_names(names)
    if not wanted:
        raise MergeMixError("cannot restrict a world to no domains")
    unknown = [name for name in wanted if name not in world_names]
    if unknown:
        raise MergeMixError(f"unknown domains {unknown}; the world has {world_names}")
    return [k for k, name in enumerate(world_names) if name in wanted]


class QuadraticWorld:
    """K analytic quadratic domains over a shared parameter space."""

    kind = "quadratic-world"

    def __init__(self, names: list[str], quadratics: list[Quadratic]):
        if len(names) != len(quadratics) or not names:
            raise DimensionError("need one name per quadratic domain")
        dims = {q.dim for q in quadratics}
        if len(dims) != 1:
            raise DimensionError(f"domains disagree on dimension: {sorted(dims)}")
        self.names = _unique_names(names)
        self.quadratics = list(quadratics)
        self.dim = dims.pop()

    @property
    def num_domains(self) -> int:
        return len(self.names)

    def base_params(self) -> np.ndarray:
        return np.zeros(self.dim)

    def grad(self, k: int, theta: np.ndarray) -> np.ndarray:
        """Gradient at one vector, or row-wise at an (n, P) stack."""
        return self.quadratics[k].grad(theta)

    def hvp(self, k: int, theta: np.ndarray, direction: np.ndarray) -> np.ndarray:
        return self.quadratics[k].hvp(direction)

    def heldout_loss(self, k: int, theta: np.ndarray) -> float | np.ndarray:
        """Loss at one vector, or an (n,) array at an (n, P) stack."""
        return self.quadratics[k].loss(theta)

    def restrict(self, names) -> "QuadraticWorld":
        """The world over the named domains only, in this world's order,
        sharing their quadratics."""
        keep = _kept_indices(self.names, names)
        return QuadraticWorld([self.names[k] for k in keep],
                              [self.quadratics[k] for k in keep])

    def train_size(self, k: int) -> int:
        return 0

    def model_descriptor(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "domains": list(self.names)}


class RegressionWorld:
    """One shared feed-forward net, K regression domains with generated data."""

    kind = "toy-net"

    def __init__(self, net: ToyNet, specs: list[DomainSpec], init_seed: int = 0):
        datasets = generate_world(specs)
        for spec in specs:
            if spec.input_dim != net.input_dim:
                raise DimensionError("domain input dim does not match the net")
        self.net = net
        self.names = [s.name for s in specs]
        self.train = [d[0] for d in datasets]
        self.heldout = [d[1] for d in datasets]
        self.dim = net.num_params
        self.init_seed = init_seed

    @property
    def num_domains(self) -> int:
        return len(self.names)

    def base_params(self) -> np.ndarray:
        return self.net.init_params(np.random.default_rng(self.init_seed))

    def grad(self, k: int, theta: np.ndarray) -> np.ndarray:
        """Full-batch gradient at one vector, or row by row at an (n, P) stack."""
        d = self.train[k]
        if np.ndim(theta) == 2:
            return np.stack([self.net.grad(row, d.inputs, d.targets) for row in theta])
        return self.net.grad(theta, d.inputs, d.targets)

    def grad_on(self, k: int, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        d = self.train[k]
        return self.net.grad(theta, d.inputs[indices], d.targets[indices])

    def hvp(self, k: int, theta: np.ndarray, direction: np.ndarray) -> np.ndarray:
        return hvp_finite_difference(lambda t: self.grad(k, t), theta, direction)

    def heldout_loss(self, k: int, theta: np.ndarray) -> float | np.ndarray:
        """Loss at one vector, or row by row at an (n, P) stack."""
        d = self.heldout[k]
        if np.ndim(theta) == 2:
            return np.array([self.net.loss(row, d.inputs, d.targets) for row in theta])
        return self.net.loss(theta, d.inputs, d.targets)

    def restrict(self, names) -> "RegressionWorld":
        """The world over the named domains only, in this world's order,
        sharing the net and the generated datasets (a shallow copy, so the
        data is not generated again)."""
        keep = _kept_indices(self.names, names)
        out = copy.copy(self)
        out.names = [self.names[k] for k in keep]
        out.train = [self.train[k] for k in keep]
        out.heldout = [self.heldout[k] for k in keep]
        return out

    def train_size(self, k: int) -> int:
        return len(self.train[k])

    def model_descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "layers": [self.net.input_dim, self.net.hidden_dim, self.net.output_dim],
            "domains": list(self.names),
        }


World = QuadraticWorld | RegressionWorld


def raw_capability(world: World, k: int, theta: np.ndarray) -> float | np.ndarray:
    """Negative held-out loss; larger is better, 0 is the quadratic maximum.

    One parameter vector gives one float, an (n, P) stack an (n,) array. A
    loss that overflows, even at finite parameters, raises NumericError. On
    a stack, the first bad row raises what it would raise alone; no row
    after a non-finite one is scored.
    """
    stacked = np.ndim(theta) == 2
    theta = np.asarray(theta, dtype=np.float64) if stacked else as_params(theta)
    if theta.shape[-1] != world.dim:  # a quadratic loss would broadcast it
        raise DimensionError(f"expected {world.dim} parameters, got {theta.shape[-1]}")
    if not stacked:
        loss = world.heldout_loss(k, theta)
        if not np.isfinite(loss):
            raise NumericError(f"held-out loss on domain {world.names[k]!r} is {loss}")
        return -loss
    bad = ~np.isfinite(theta).all(axis=1)
    scored = int(bad.argmax()) if bad.any() else theta.shape[0]
    losses = world.heldout_loss(k, theta[:scored])
    overflow = ~np.isfinite(losses)
    if overflow.any():
        loss = float(losses[overflow.argmax()])
        raise NumericError(f"held-out loss on domain {world.names[k]!r} is {loss}")
    if scored < theta.shape[0]:
        as_params(theta[scored])  # raises the one-vector error for this row
    return -losses


def raw_capabilities(world: World, theta: np.ndarray) -> np.ndarray:
    """Raw capability on every domain, in domain order: a (K,) vector for one
    parameter vector, an (n, K) matrix for an (n, P) stack, scored as one
    stack per domain, so the lowest-index domain with a bad row raises, for
    its first bad row."""
    theta = np.asarray(theta, dtype=np.float64)
    rows = theta if theta.ndim == 2 else as_params(theta)[None]
    # An overflowing loss raises NumericError below; numpy's warning on the
    # way there would only precede that error.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.stack([raw_capability(world, k, rows) for k in range(world.num_domains)],
                       axis=1)
    return out if theta.ndim == 2 else out[0]


def _rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))  # fix signs so the factorization is unique


def _rotated_spd(rng: np.random.Generator, dim: int, eigenvalues: np.ndarray) -> np.ndarray:
    q = _rotation(rng, dim)
    a = (q * eigenvalues) @ q.T
    return 0.5 * (a + a.T)  # symmetrize against rounding


def fixture_qw2() -> QuadraticWorld:
    """Smallest world where cross-domain curvature asymmetry is visible."""
    d1 = Quadratic(np.array([1.0, 0.0]), np.eye(2))
    d2 = Quadratic(np.array([0.0, 1.0]), np.diag([2.0, 1.0]))
    return QuadraticWorld(["d1", "d2"], [d1, d2])


def fixture_qw4() -> QuadraticWorld:
    """Four 8-dimensional domains with randomly rotated SPD curvatures.

    Minimizer distances differ per domain so the best mixture is decisively
    non-uniform and non-corner.
    """
    rng = np.random.default_rng(99)
    dim = 8
    names = ["math", "code", "sft", "web"]
    scales = [1.6, 0.8, 1.2, 0.6]
    quads = []
    for scale in scales:
        eigs = rng.uniform(0.7, 1.5, size=dim)
        a = _rotated_spd(rng, dim, eigs)
        mu = rng.standard_normal(dim)
        mu = scale * mu / np.linalg.norm(mu)
        quads.append(Quadratic(mu, a))
    return QuadraticWorld(names, quads)


def fixture_qw_separable() -> QuadraticWorld:
    """Four domains in two nearly independent parameter blocks of width 4.

    Domains 0-1 live in the first block with orthogonal equal-norm
    minimizers, domains 2-3 in the second; off-block curvature is a small
    multiple of the identity. The within-cluster split is then scale
    invariant (always even), so flat and hierarchical searches share one
    optimum.
    """
    block = 4
    coupling = 0.05
    dim = 2 * block
    names = ["m-a", "m-b", "c-a", "c-b"]
    layout = [  # (block index, axis within block, minimizer norm, curvature)
        (0, 0, 1.1, 1.0),
        (0, 1, 1.1, 1.0),
        (1, 0, 0.9, 1.3),
        (1, 1, 0.9, 1.3),
    ]
    quads = []
    for blk, axis, scale, curv in layout:
        a = np.eye(dim) * coupling
        lo = blk * block
        a[lo : lo + block, lo : lo + block] = curv * np.eye(block)
        mu = np.zeros(dim)
        mu[lo + axis] = scale
        quads.append(Quadratic(mu, a))
    return QuadraticWorld(names, quads)


def fixture_toy() -> RegressionWorld:
    """Two orthogonal regression tasks on a small shared net (26 parameters)."""
    seed = 5  # draws the domain seeds and the net's initialization
    rng = np.random.default_rng(seed)
    in_dim, out_dim = 3, 2
    w1 = np.zeros((out_dim, in_dim))
    w2 = np.zeros((out_dim, in_dim))
    w1[:, 0] = [1.0, -0.5]
    w2[:, 1] = [-0.8, 1.2]
    specs = [
        DomainSpec("t1", target_weight=w1, noise=0.0,
                   input_dim=in_dim, train_size=64, heldout_size=32,
                   seed=int(rng.integers(2**31))),
        DomainSpec("t2", target_weight=w2, noise=0.0,
                   input_dim=in_dim, train_size=64, heldout_size=32,
                   seed=int(rng.integers(2**31))),
    ]
    net = ToyNet(in_dim, 4, out_dim)
    return RegressionWorld(net, specs, init_seed=seed)


FIXTURES = {
    "QW-2": fixture_qw2,
    "QW-4": fixture_qw4,
    "QW-SEP": fixture_qw_separable,
    "TOY-2": fixture_toy,
}


def fixture_by_name(name: str) -> World:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise MergeMixError(
            f"unknown fixture {name!r}; available: {sorted(FIXTURES)}"
        ) from None
