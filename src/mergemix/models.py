"""Model families: analytic quadratic bowls and a tiny feed-forward net.

Quadratics give exact losses, gradients and Hessians, which makes the
second-order theory checkable to machine precision. The feed-forward net
exercises the same interfaces on a nonconvex objective; its Hessian access
goes through central differences of backprop gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError
from .params import as_params, check_same_dim


@dataclass(frozen=True)
class Quadratic:
    """Loss 0.5 * (theta - minimizer)^T curvature (theta - minimizer)."""

    minimizer: np.ndarray
    curvature: np.ndarray

    def __post_init__(self):
        mu = as_params(self.minimizer)
        a = np.asarray(self.curvature, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != mu.shape[0]:
            raise DimensionError(
                f"curvature must be square {mu.shape[0]}x{mu.shape[0]}, got {a.shape}"
            )
        if not np.allclose(a, a.T, atol=1e-12):
            raise NumericError("curvature matrix must be symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NumericError("curvature matrix must be positive definite") from exc
        object.__setattr__(self, "minimizer", mu)
        object.__setattr__(self, "curvature", a)

    @property
    def dim(self) -> int:
        return self.minimizer.shape[0]

    def loss(self, theta: np.ndarray) -> float:
        d = theta - self.minimizer
        return 0.5 * float(d @ (self.curvature @ d))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        """Gradient at one vector, or row-wise at an (n, P) stack.

        Each row goes through the same matrix-vector kernel as `A @ d`, so a
        stacked row is bit-identical to the single-vector gradient.
        """
        d = theta - self.minimizer
        return np.matmul(self.curvature, d[..., None])[..., 0]

    def hvp(self, direction: np.ndarray) -> np.ndarray:
        return self.curvature @ direction


@dataclass(frozen=True)
class ToyNet:
    """Two-layer tanh regression network over flat parameter vectors.

    Layout of the flat vector: W1 (hidden x in), b1, W2 (out x hidden), b2.
    Loss is the mean over examples of 0.5 * ||prediction - target||^2.
    """

    input_dim: int
    hidden_dim: int
    output_dim: int
    _slices: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if min(self.input_dim, self.hidden_dim, self.output_dim) < 1:
            raise DimensionError("all layer sizes must be >= 1")
        h, i, o = self.hidden_dim, self.input_dim, self.output_dim
        sizes = [h * i, h, o * h, o]
        offsets = np.cumsum([0] + sizes)
        slices = tuple(slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:]))
        object.__setattr__(self, "_slices", slices)

    @property
    def num_params(self) -> int:
        h, i, o = self.hidden_dim, self.input_dim, self.output_dim
        return h * i + h + o * h + o

    def init_params(self, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
        return scale * rng.standard_normal(self.num_params)

    def unpack(self, theta: np.ndarray):
        theta = as_params(theta)
        if theta.shape[0] != self.num_params:
            raise DimensionError(
                f"expected {self.num_params} parameters, got {theta.shape[0]}"
            )
        s1, s2, s3, s4 = self._slices
        w1 = theta[s1].reshape(self.hidden_dim, self.input_dim)
        b1 = theta[s2]
        w2 = theta[s3].reshape(self.output_dim, self.hidden_dim)
        b2 = theta[s4]
        return w1, b1, w2, b2

    def forward(self, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self.unpack(theta)
        hidden = np.tanh(inputs @ w1.T + b1)
        return hidden @ w2.T + b2

    def loss(self, theta: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> float:
        if inputs.shape[0] == 0:
            raise DimensionError("toy-net loss requires a nonempty dataset")
        err = self.forward(theta, inputs) - targets
        return 0.5 * float(np.mean(np.sum(err * err, axis=1)))

    def grad(self, theta: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Mean backprop gradient of the half squared error."""
        if inputs.shape[0] == 0:
            raise DimensionError("toy-net gradient requires a nonempty dataset")
        w1, b1, w2, b2 = self.unpack(theta)
        n = inputs.shape[0]
        pre = inputs @ w1.T + b1
        hidden = np.tanh(pre)
        err = (hidden @ w2.T + b2) - targets  # (n, out)

        d_w2 = err.T @ hidden / n
        d_b2 = err.mean(axis=0)
        d_hidden = (err @ w2) * (1.0 - hidden * hidden)  # (n, hid)
        d_w1 = d_hidden.T @ inputs / n
        d_b1 = d_hidden.mean(axis=0)
        return np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])


def fd_step(theta: np.ndarray, base_step: float = 1e-4) -> float:
    """Default central-difference step, scaled by the parameter magnitude."""
    return base_step * (1.0 + float(np.max(np.abs(theta))))


def hvp_finite_difference(grad_fn, theta: np.ndarray, direction: np.ndarray,
                          step: float | None = None) -> np.ndarray:
    """Hessian-vector product via central differences of the gradient."""
    theta = as_params(theta)
    direction = as_params(direction)
    check_same_dim(theta, direction)
    eps = fd_step(theta) if step is None else float(step)
    if eps <= 0:
        raise NumericError(f"finite-difference step must be > 0, got {eps}")
    gp = grad_fn(theta + eps * direction)
    gm = grad_fn(theta - eps * direction)
    return (gp - gm) / (2.0 * eps)
