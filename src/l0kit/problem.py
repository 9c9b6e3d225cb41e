"""Ground-truth sparse signals and noisy measurement instances."""

import math
from dataclasses import dataclass, field

import numpy as np

from .lsq import check_count, check_nonnegative, finite_vector

__all__ = [
    "SparseSignal",
    "ProblemInstance",
    "gen_sparse_signal",
    "synthesize_instance",
]


@dataclass(frozen=True)
class SparseSignal:
    """T-sparse ground truth: sorted support and the nonzero values on it."""

    p: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.intp)
        values = finite_vector("signal values", self.values)
        if support.size != values.size:
            raise ValueError("support and values must have equal length")
        if support.size and (support.min() < 0 or support.max() >= self.p):
            raise ValueError("support indices out of range")
        if np.unique(support).size != support.size:
            raise ValueError("support has repeated indices")
        if np.any(values == 0.0):
            raise ValueError("stored values must be nonzero")
        order = np.argsort(support)
        object.__setattr__(self, "support", support[order])
        object.__setattr__(self, "values", values[order])

    @property
    def sparsity(self):
        return self.support.size

    @property
    def min_abs(self):
        return float(np.min(np.abs(self.values)))

    @property
    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    @property
    def dynamic_range(self):
        return self.max_abs / self.min_abs

    def dense(self):
        x = np.zeros(self.p)
        x[self.support] = self.values
        return x


@dataclass(frozen=True)
class ProblemInstance:
    """One recovery problem: operator, data y, and (when synthetic) the truth."""

    operator: object
    y: np.ndarray
    truth: SparseSignal | None = None
    noise: np.ndarray | None = None
    noise_std: float = 0.0
    noise_level: float = field(default=None)

    def __post_init__(self):
        y = finite_vector("y", self.y)
        if y.shape != (self.operator.n,):
            raise ValueError(f"data shape {y.shape} does not match operator rows {self.operator.n}")
        object.__setattr__(self, "y", y)
        if self.noise_level is None:
            eps = 0.0 if self.noise is None else float(np.linalg.norm(self.noise))
            object.__setattr__(self, "noise_level", eps)


def gen_sparse_signal(p, T, R, seed):
    """Draw a T-sparse signal with dynamic range exactly R.

    Support is uniform without replacement; signs are uniform +-1; magnitudes
    are log-uniform on [1, R] with the smallest pinned to 1 and the largest to
    R, so min |x_i| = 1 and max |x_i| = R hold exactly.
    """
    check_count("p", p)
    check_count("T", T)
    p, T = int(p), int(T)
    R = float(R)
    if T > p:
        raise ValueError(f"need 1 <= T <= p, got T={T}, p={p}")
    if not (math.isfinite(R) and R >= 1):
        raise ValueError(f"dynamic range must be finite and >= 1, got R={R}")
    if T == 1 and R != 1.0:
        raise ValueError("a 1-sparse signal cannot have dynamic range R > 1")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(p, size=T, replace=False))
    if R == 1.0:
        mags = np.ones(T)
    else:
        mags = np.concatenate([[1.0, R], np.exp(rng.uniform(0.0, np.log(R), size=T - 2))])
        rng.shuffle(mags)
    signs = rng.choice([-1.0, 1.0], size=T)
    return SparseSignal(p=p, support=support, values=signs * mags)


def synthesize_instance(op, truth, sigma, seed):
    """Form y = Psi x* + eta with i.i.d. Gaussian noise of standard deviation sigma."""
    check_nonnegative("sigma", sigma)
    sigma = float(sigma)
    if truth.p != op.p:
        raise ValueError(f"signal dimension {truth.p} does not match operator columns {op.p}")
    rng = np.random.default_rng(seed)
    eta = sigma * rng.standard_normal(op.n)
    y = op.apply(truth.dense()) + eta
    return ProblemInstance(operator=op, y=y, truth=truth, noise=eta,
                           noise_std=sigma)

