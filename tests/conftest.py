"""Shared constructions for the test suite."""

import numpy as np
import pytest
from scipy.fft import dct

from l0kit import DenseOperator, PartialDctOperator


def example1_pair(mu=-0.5):
    """The 2-column alternation example: psi_1 = (1, mu)/s, psi_2 = (mu, 1)/s,
    noiseless data from x* = (1, 1)."""
    s = 1.0 / np.sqrt(1.0 + mu**2)
    mat = s * np.array([[1.0, mu], [mu, 1.0]])
    y = s * np.array([1.0 + mu, 1.0 + mu])
    return DenseOperator(mat, columns_normalized=True), y


def union_dictionary(n):
    """Identity plus orthonormal DCT basis: p = 2n columns with coherence
    max |DCT entry| < 1/2 for n >= 9."""
    return np.hstack([np.eye(n), dct(np.eye(n), axis=0, norm="ortho")])


def randomized_union_operator(n, rng):
    """Union dictionary with random column signs and a random permutation;
    the coherence is unchanged by either."""
    base = union_dictionary(n)
    perm = rng.permutation(2 * n)
    signs = rng.choice([-1.0, 1.0], size=2 * n)
    return DenseOperator(base[:, perm] * signs, columns_normalized=True)


def near_orthogonal_operator(p, wobble, rng):
    """Normalized perturbation of a random orthogonal matrix; small coherence."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    mat = q + wobble * rng.standard_normal((p, p))
    mat /= np.linalg.norm(mat, axis=0)
    return DenseOperator(mat, columns_normalized=True)


def orthonormal_operator(p, rng=None):
    """Random orthogonal square matrix as a sensing operator."""
    rng = rng or np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return DenseOperator(q, columns_normalized=True)


class CountingDctOperator(PartialDctOperator):
    """A partial DCT that counts its applies and adjoints and records every
    column index it materializes."""

    def __init__(self, base):
        super().__init__(base.p, base.rows)
        self.applies = self.adjoints = 0
        self.fetched = []

    def apply(self, x):
        self.applies += 1
        return super().apply(x)

    def adjoint_apply(self, r):
        self.adjoints += 1
        return super().adjoint_apply(r)

    def columns(self, indices):
        self.fetched.extend(np.asarray(indices).tolist())
        return super().columns(indices)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
