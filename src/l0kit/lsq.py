"""Restricted least squares on an active set: cached direct Cholesky and warm-started CG.

A ``GramCache`` serves one solve (one continuation path, one OMP run) on one
operator and one data vector. It holds Psi^t y, the Gram block of the columns
seen so far and each such column's slot. Along a path the set moves by a few
indices per step, so almost every Gram entry is reused.

The operator's type decides how the block is filled. A table operator, one
with a closed-form ``gram(a, b)`` such as the partial DCT, fills it in O(m j)
for j new indices against m cached ones. Any other operator fetches the column
of every new index and extends the block by its cross products with the cached
columns. Either every slot also holds its column or none does: other operators
store columns from the start, a table operator from its first nonempty direct
solve on, which fetches the columns of every slot it holds in one call. A CG
path solves only an empty set directly, and its first step skips even that
solve, so on a table operator it fetches no columns.

A direct solve on a set A gathers the |A| x |A| submatrix, factors it with
LAPACK ``potrf``/``potrs`` and forms the residual from the cached columns of
A. A CG solve gathers nothing: it runs on the cache's whole m x m block, m the
number of cached slots, with vectors that vanish off A's slots, and each
iteration is one product with that block masked to those slots. Along a path
the cache holds about the current set, so m stays close to |A|. The solve ends
with one apply and one adjoint for the exact residual r = y - Psi x and dual
d = Psi^t r that the active-set update needs.

Memory grows with the largest set a path reaches, not with the problem
shape. A block of m slots takes 8 m^2 bytes, plus 8 n m of columns when they
are stored, and m follows the sets the path visits. The slot limit,
min(p, 2n), only bounds how many indices the cache collects before it starts
over from a solve's own active set, which always fits since |A| <= min(n, p);
at n = 2^16 that limit is a 137 GB block, so it bounds nothing a machine
holds. A CG path on a 2^16 x 2^18 partial DCT that ends at |A| = 6000 was
measured at a 729 MB peak resident size.

Each solve returns its solution x in R^p, a new array that is zero off A, with
the residual y - Psi x and the dual Psi^t r. ``solve_direct(op, active, y)``
and ``solve_cg`` without a cache are the one-shot forms of the same code: a
fresh cache that sees only A.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = ["SingularGramError", "RestrictedLsqSolution", "GramCache",
           "solve_direct", "solve_cg"]

# The Gram factorization is declared singular when its smallest squared pivot is
# at most this times the block's largest diagonal entry (free of column scale).
GRAM_PIVOT_TOL = 1e-12


class SingularGramError(RuntimeError):
    """The Gram matrix on the active set is numerically singular.

    Carries the offending set size; the continuation driver attaches the
    lambda and active set it was working on, and the number of solves its
    step had made, this one included.
    """

    def __init__(self, set_size, lam=None, active=None, solves=None):
        super().__init__(f"singular Gram matrix on an active set of size {set_size}")
        self.set_size = set_size
        self.lam = lam
        self.active = active
        self.solves = solves


@dataclass
class RestrictedLsqSolution:
    x: np.ndarray             # the solution in R^p, zero off the active set
    residual: np.ndarray      # y - Psi x
    dual: np.ndarray          # Psi^t residual, all p coordinates
    iterations: int           # 0 for the direct method
    residual_norms: list | None = None  # CG normal-equation residual history


def check_count(name, value):
    """Raise ValueError unless ``value`` is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_nonnegative(name, value):
    """Raise ValueError unless ``value`` is a finite real >= 0."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def finite_vector(name, v):
    """``v`` as a float array, or a ValueError naming ``name`` if any entry is
    NaN or infinite."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite values")
    return v


class GramCache:
    """Gram block, columns and Psi^t y of one (operator, data) pair, reused
    across the restricted solves of one solver run (see the module notes)."""

    def __init__(self, op, y):
        self.op = op
        self.y = finite_vector("y", y)
        if self.y.shape != (op.n,):
            raise ValueError(f"expected y of shape ({op.n},), got {self.y.shape}")
        self.limit = min(op.p, 2 * op.n)
        self._aty = None
        self._table = getattr(op, "gram", None)   # closed-form Gram entries, if any
        self._slot = np.full(op.p, -1, dtype=np.intp)  # column index -> slot, -1 if absent
        # per slot: column index and Gram row, and the column (as a row) with
        # its product with y, which every slot holds or none does: from the
        # start, or for a table operator from its first nonempty direct solve
        self._index, self._gram = np.empty(0, dtype=np.intp), np.empty((0, 0))
        self._cols = self._cty = None
        if self._table is None:
            self._cols, self._cty = np.empty((0, op.n)), np.empty(0)
        self._capacity = self.size = 0

    @property
    def aty(self):
        """Psi^t y, computed on first use; callers must not modify it (solves share it)."""
        if self._aty is None:
            self._aty = self.op.adjoint_apply(self.y)
        return self._aty

    def _slots(self, active):
        """Slots of the sorted index set ``active``, filling unseen Gram rows.
        A cache that this set would overfill starts over from the set alone."""
        slots = self._slot[active]
        missing = active[slots < 0]
        if missing.size:
            if self.size + missing.size > self.limit:
                self._slot[self._index[:self.size]] = -1
                self.size = 0
                missing = active
            self._add(missing)
            slots = self._slot[active]
        return slots

    def _add(self, indices):
        m, j = self.size, indices.size
        if m + j > self._capacity:
            # with columns stored, copying them dominates a regrowth, so capacity
            # doubles; a Gram-only cache grows by a quarter to keep its peak memory
            # near the block the path uses
            step = self._capacity if self._cols is not None else self._capacity // 4
            self._grow(min(self.limit, max(m + j, self._capacity + step)))
        self._index[m:m + j] = indices
        if self._cols is not None:
            self._fetch(m, m + j)
        if self._table is None:
            new = self._cols[m:m + j]
            if m:
                cross = self._cols[:m] @ new.T
                self._gram[:m, m:m + j] = cross
                self._gram[m:m + j, :m] = cross.T
            self._gram[m:m + j, m:m + j] = new @ new.T
        else:
            rows = self._table(indices, self._index[:m + j])
            self._gram[m:m + j, :m + j] = rows
            self._gram[:m, m:m + j] = rows[:, :m].T
        self._slot[indices] = np.arange(m, m + j)
        self.size = m + j

    def _fetch(self, lo, hi):
        """Store the columns of slots lo..hi-1 and their products with y."""
        new = self._cols[lo:hi]
        new[...] = self.op.columns(self._index[lo:hi]).T
        self._cty[lo:hi] = new @ self.y

    def _grow(self, cap):
        m = self.size
        gram, index = np.empty((cap, cap)), np.empty(cap, dtype=np.intp)
        gram[:m, :m], index[:m] = self._gram[:m, :m], self._index[:m]
        self._gram, self._index = gram, index
        if self._cols is not None:
            cols, cty = np.empty((cap, self.op.n)), np.empty(cap)
            cols[:m], cty[:m] = self._cols[:m], self._cty[:m]
            self._cols, self._cty = cols, cty
        self._capacity = cap

    def _solve(self, active):
        """Cholesky solve of Psi_A^t Psi_A x_A = Psi_A^t y on a sorted index set."""
        x = np.zeros(self.op.p)
        if active.size == 0:
            return RestrictedLsqSolution(x, self.y.copy(), self.aty.copy(), 0)
        if active.size > self.op.n:
            raise SingularGramError(active.size)
        slots = self._slots(active)
        gram = self._gram.take(slots, 0).take(slots, 1)
        scale = float(gram.diagonal().max())
        # the gathered block is symmetric, so its transpose is the same matrix
        # in the column-major order LAPACK factors in place
        factor, info = dpotrf(gram.T, lower=1, clean=0, overwrite_a=1)
        if info != 0 or float(factor.diagonal().min()) ** 2 <= GRAM_PIVOT_TOL * scale:
            raise SingularGramError(active.size)
        if self._cols is None:   # a table operator's first direct solve: store them all
            self._cols = np.empty((self._capacity, self.op.n))
            self._cty = np.empty(self._capacity)
            self._fetch(0, self.size)
        x_a, _ = dpotrs(factor, self._cty.take(slots), lower=1)
        residual = self.y - x_a @ self._cols.take(slots, 0)
        x[active] = x_a
        return RestrictedLsqSolution(x, residual, self.op.adjoint_apply(residual), 0)


def solve_direct(op, active, y, cache=None):
    """Solve Psi_A^t Psi_A x_A = Psi_A^t y by Cholesky on the Gram matrix.

    With a ``GramCache`` built for (op, y), columns and Gram entries seen by
    earlier solves are reused; without one, the solve builds what it needs.
    """
    return _cache_for(op, y, cache)._solve(_as_index_set(active, op.p))


def solve_cg(op, active, y, noise_level=0.0, max_iters=2, tol_factor=1e-5, cache=None,
             start=None):
    """Conjugate gradients on the normal equations over the active set.

    Runs on the cache's m x m Gram block G in place, with right-hand side
    Psi^t y on A's slots S, starting from ``start[A]`` for a length-p ``start``
    (its entries off A are dropped) or from zero when omitted. Every CG vector
    vanishes off S and each product is G v masked to S, so the iterates are
    those of CG on G_AA, and no block is gathered. The solve stops when the
    normal-equation residual drops to ``tol_factor * noise_level`` or after
    ``max_iters`` iterations, whichever comes first. Bounded iterations are by
    design, so hitting the cap is not an error.

    Each iteration is one m x m matvec. The solve ends with one apply and one
    adjoint, so the returned residual y - Psi x and dual Psi^t r are exact,
    whatever the iteration count or start.
    """
    check_nonnegative("noise_level", noise_level)
    check_nonnegative("tol_factor", tol_factor)
    check_count("max_iters", max_iters)
    active = _as_index_set(active, op.p)
    cache = _cache_for(op, y, cache)
    y = cache.y
    if active.size == 0:
        raise ValueError("CG solve needs a nonempty active set")
    if start is not None:
        if np.shape(start) != (op.p,):
            raise ValueError(f"start must be a length-{op.p} vector")
        start = finite_vector("start", np.asarray(start)[active])
    slots = cache._slots(active)
    m = cache.size
    gram = cache._gram[:m, :m]
    on = np.zeros(m)
    on[slots] = 1.0
    z, grad = np.zeros(m), np.zeros(m)
    grad[slots] = cache.aty[active]
    if start is not None:
        z[slots] = start
        grad -= on * (gram @ z)

    tol = float(tol_factor) * float(noise_level)
    rr = float(grad @ grad)
    norms = [np.sqrt(rr)]
    p_dir = grad
    iters = 0
    while norms[-1] > tol and iters < max_iters:
        q = on * (gram @ p_dir)
        denom = float(p_dir @ q)
        if denom <= 0.0:
            break  # numerically semidefinite direction; stop where we are
        alpha = rr / denom
        z += alpha * p_dir
        grad = grad - alpha * q
        rr_new = float(grad @ grad)
        norms.append(np.sqrt(rr_new))
        p_dir = grad + (rr_new / rr) * p_dir
        rr = rr_new
        iters += 1
    x = np.zeros(op.p)
    x[active] = z.take(slots)
    r = y - op.apply(x)
    return RestrictedLsqSolution(x, r, op.adjoint_apply(r), iters, norms)


def _cache_for(op, y, cache):
    if cache is None:
        return GramCache(op, y)
    if cache.op is not op or cache.y is not y:
        raise ValueError("cache was built for another operator or data vector")
    return cache


def _as_index_set(active, p):
    """``active`` sorted, as a copy only if it is not strictly increasing already."""
    active = np.asarray(active, dtype=np.intp).ravel()
    if active.size > 1 and not (active[1:] > active[:-1]).all():
        active = np.sort(active)
        if not (active[1:] > active[:-1]).all():
            raise ValueError("active set has repeated indices")
    if active.size and (active[0] < 0 or active[-1] >= p):
        raise ValueError("active-set index out of range")
    return active
