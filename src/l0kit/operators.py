"""Sensing operators: dense random ensembles and a matrix-free partial DCT."""

import numpy as np
from scipy.fft import dct, idct

from .lsq import check_count, finite_vector

__all__ = [
    "SensingOperator",
    "DenseOperator",
    "PartialDctOperator",
    "CustomOperator",
    "gen_gaussian_operator",
    "gen_bernoulli_operator",
    "gen_partial_dct_operator",
]


class SensingOperator:
    """Measurement map from R^p to R^n with adjoint and column access.

    Operators are immutable after construction and safe to share across
    concurrent solver runs.
    """

    kind = "custom-operator"

    def __init__(self, n, p, columns_normalized=False):
        check_count("n", n)
        check_count("p", p)
        self.n = int(n)
        self.p = int(p)
        self.columns_normalized = bool(columns_normalized)

    @property
    def shape(self):
        return (self.n, self.p)

    def apply(self, x):
        raise NotImplementedError

    def adjoint_apply(self, r):
        raise NotImplementedError

    def columns(self, indices):
        """Dense n x k submatrix for the given column indices; by default the
        apply of each basis vector."""
        indices = np.asarray(indices, dtype=np.intp)
        out = np.empty((self.n, indices.size))
        for j, i in enumerate(indices):
            e = np.zeros(self.p)
            e[i] = 1.0
            out[:, j] = self.apply(e)
        return out

    def dual(self, y, x):
        """Correlation of the residual with the columns: Psi^t (y - Psi x)."""
        return self.adjoint_apply(y - self.apply(x))

    def _check_apply_dim(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise ValueError(f"expected input of shape ({self.p},), got {x.shape}")
        return x

    def _check_adjoint_dim(self, r):
        r = np.asarray(r, dtype=float)
        if r.shape != (self.n,):
            raise ValueError(f"expected input of shape ({self.n},), got {r.shape}")
        return r


class DenseOperator(SensingOperator):
    """Sensing operator backed by an explicit n x p matrix."""

    kind = "dense"

    def __init__(self, mat, columns_normalized=None):
        mat = np.ascontiguousarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ValueError("dense operator needs a 2-d array")
        if not np.isfinite(mat).all():
            raise ValueError("dense operator matrix contains non-finite values")
        if columns_normalized is None:
            norms = _column_norms(mat)
            columns_normalized = bool(np.all(np.abs(norms - 1.0) <= 1e-12))
        super().__init__(mat.shape[0], mat.shape[1], columns_normalized)
        self.mat = mat

    def apply(self, x):
        return self.mat @ self._check_apply_dim(x)

    def adjoint_apply(self, r):
        return self.mat.T @ self._check_adjoint_dim(r)

    def columns(self, indices):
        indices = np.asarray(indices, dtype=np.intp)
        return self.mat[:, indices]


class PartialDctOperator(SensingOperator):
    """Rows of the p x p orthonormal DCT-II matrix, columns rescaled to unit norm.

    apply/adjoint_apply run through the fast transform in O(p log p); columns
    are materialized on demand, and Gram entries come in closed form from one
    length-2p cosine sum computed at construction (see ``gram``).
    """

    kind = "partial-dct"

    def __init__(self, p, rows):
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size > p:
            raise ValueError(f"cannot select {rows.size} rows from a {p} x {p} transform")
        if np.unique(rows).size != rows.size:
            raise ValueError("row selection must be without replacement")
        super().__init__(rows.size, p, columns_normalized=True)
        self.rows = np.sort(rows)
        # h[m] = sum_k c_k^2 cos(pi k m / p) over the selected rows k, m < 2p, with
        # c_0^2 = 1/p and c_k^2 = 2/p: the real part of the length-2p DFT of c^2
        # zero-padded. Column j of the DCT-II matrix over the rows has squared
        # norm sum_k c_k^2 cos^2(pi k (2j+1) / 2p) = (sum_k c_k^2 + h[2j+1]) / 2.
        w = np.zeros(2 * self.p)
        w[self.rows] = 2.0 / self.p
        w[0] /= 2.0
        self._h = np.fft.fft(w).real
        sq = 0.5 * w.sum() + 0.5 * self._h[1::2]
        # the transform leaves rounding of about eps * sum(w) in a column that is
        # exactly zero; clear it so the zero-column check below sees the column
        sq[sq <= 1e-13 * w.sum()] = 0.0
        col_norms = np.sqrt(sq)
        if np.any(col_norms < 1e-12):
            raise ValueError("row selection produced a numerically zero column")
        self._col_scale = 1.0 / col_norms

    def apply(self, x):
        x = self._check_apply_dim(x)
        return dct(x * self._col_scale, norm="ortho", overwrite_x=True)[self.rows]

    def adjoint_apply(self, r):
        r = self._check_adjoint_dim(r)
        z = np.zeros(self.p)
        z[self.rows] = r
        out = idct(z, norm="ortho", overwrite_x=True)
        out *= self._col_scale
        return out

    def columns(self, indices):
        # a transform per column, not via apply: a trace keeps fetches apart from applies
        indices = np.asarray(indices, dtype=np.intp)
        out = np.empty((self.n, indices.size))
        for j, i in enumerate(indices):
            e = np.zeros(self.p)
            e[i] = self._col_scale[i]
            out[:, j] = dct(e, norm="ortho")[self.rows]
        return out

    def gram(self, a, b):
        """The block columns(a)^t columns(b), with no column materialized.

        By cos u cos v = (cos(u - v) + cos(u + v)) / 2, entry (i, j) is
        s_i s_j (h[|i - j|] + h[i + j + 1]) / 2 with s the column scale, so a
        block of k x l entries costs O(k l).
        """
        a = np.asarray(a, dtype=np.intp)[:, None]
        b = np.asarray(b, dtype=np.intp)[None, :]
        out = self._h[np.abs(a - b)]
        out += self._h[a + b + 1]
        out *= 0.5
        out *= self._col_scale[a] * self._col_scale[b]
        return out


class CustomOperator(SensingOperator):
    """Sensing operator from user-supplied apply/adjoint callables; a column
    is the apply of a basis vector (the inherited ``columns``)."""

    def __init__(self, n, p, apply_fn, adjoint_fn, columns_normalized=False):
        super().__init__(n, p, columns_normalized)
        self._apply_fn = apply_fn
        self._adjoint_fn = adjoint_fn

    def apply(self, x):
        return _checked_output("apply_fn", self._apply_fn(self._check_apply_dim(x)), self.n)

    def adjoint_apply(self, r):
        return _checked_output("adjoint_fn", self._adjoint_fn(self._check_adjoint_dim(r)), self.p)


def _checked_output(name, v, size):
    # a NaN from a user callable would otherwise reach the solvers as data
    v = np.asarray(v, dtype=float)
    if v.shape != (size,):
        raise ValueError(f"{name} returned shape {v.shape}, expected ({size},)")
    return finite_vector(f"{name} output", v)


def _column_norms(mat):
    """Euclidean norm of each column of a 2-d array. One fused pass with no
    n x p temporary, and bitwise equal to ``np.linalg.norm(mat, axis=0)``:
    both sum the squares down axis 0 in the same row order."""
    return np.sqrt(np.einsum("ij,ij->j", mat, mat))


def gen_gaussian_operator(n, p, seed):
    """Random Gaussian matrix with every column scaled to unit norm.

    A build holds one n x p array plus the n p / 8-byte finiteness mask of
    ``DenseOperator``: the columns are normalized in place.
    """
    _check_gen_dims(n, p)
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, p))
    # no mat * mat temporary; divide, as a reciprocal multiply is not bitwise the same
    mat /= _column_norms(mat)
    return DenseOperator(mat, columns_normalized=True)


def gen_bernoulli_operator(n, p, seed):
    """Random Bernoulli matrix with entries +-1/sqrt(n); columns have exact unit norm."""
    _check_gen_dims(n, p)
    rng = np.random.default_rng(seed)
    mat = rng.choice([-1.0, 1.0], size=(n, p))
    mat /= np.sqrt(n)
    return DenseOperator(mat, columns_normalized=True)


def gen_partial_dct_operator(n, p, seed):
    """n rows sampled uniformly without replacement from the p x p orthonormal
    DCT-II matrix, columns renormalized to unit norm."""
    _check_gen_dims(n, p)
    rng = np.random.default_rng(seed)
    rows = rng.choice(p, size=n, replace=False)
    return PartialDctOperator(p, rows)


def _check_gen_dims(n, p):
    check_count("n", n)
    check_count("p", p)
    if n > p:
        raise ValueError(f"need n <= p, got n={n} > p={p}")

