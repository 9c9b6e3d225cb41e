"""Restricted least squares on an active set: cached direct Cholesky and warm-started CG.

A ``GramCache`` serves one solve (one continuation path, one OMP run) on one
operator and one data vector. It holds Psi^t y, the columns fetched so far,
their Gram block and each cached column's slot. A direct solve on a set A
fetches only the columns of A it has not seen, extends the Gram block by their
cross products with the cached columns, gathers the |A| x |A| submatrix and
factors it with LAPACK ``potrf``/``potrs``. Along a path the set moves by a
few indices per step, so almost every column and Gram entry is reused.

Memory is bounded by the problem shape: the cache holds at most min(p, 2n)
columns (8 n min(p, 2n) bytes of columns plus 8 min(p, 2n)^2 of Gram block).
A solve whose unseen columns would pass that bound first restarts the cache
from the cached columns of its own active set, which always fit since
|A| <= min(n, p).

``solve_direct(op, active, y)`` without a cache is the one-shot form of the
same code: a fresh cache that sees only A.

``solve_cg`` is matrix-free and carries the full iterate (x, r = y - Psi x,
d = Psi^t r), updating r and d by recurrence along each CG direction, so
one CG iteration costs one apply and one adjoint and the dual the active-set
update needs comes out of the solve with no further pass. A start whose x has
entries off the active set first drops them with one apply/adjoint pair. The
continuation driver recomputes r and d afresh once at the end of every lambda
step, which bounds the recurrence drift to the J_max solves of one step.
"""

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
    x_active: np.ndarray      # values on the active set, in index order
    residual: np.ndarray      # y - Psi_A x_A
    dual: np.ndarray          # Psi^t residual, all p coordinates
    iterations: int           # 0 for the direct method
    method: str               # "direct" | "cg"
    residual_norms: list | None = None  # CG normal-equation residual history


def finite_vector(name, v):
    """``v`` as a float array, or a ValueError naming ``name`` if any entry is
    NaN or infinite."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite values")
    return v


class GramCache:
    """Columns, Gram block and Psi^t y of one (operator, data) pair, reused
    across the restricted solves of one solver run (see the module notes)."""

    def __init__(self, op, y):
        self.op = op
        self.y = finite_vector("y", y)
        if self.y.shape != (op.n,):
            raise ValueError(f"expected y of shape ({op.n},), got {self.y.shape}")
        self.limit = min(op.p, 2 * op.n)
        self._aty = None
        self._slot = np.full(op.p, -1, dtype=np.intp)  # column index -> slot, -1 if absent
        # per slot: column index, column (as a row), Gram row, column against y;
        # allocated on first use and grown by doubling up to ``limit``
        self._index = self._cols = self._gram = self._cty = None
        self._capacity = self.size = 0

    @property
    def aty(self):
        """Psi^t y, computed on first use; callers must not modify it (solves share it)."""
        if self._aty is None:
            self._aty = self.op.adjoint_apply(self.y)
        return self._aty

    def _slots(self, active):
        """Slots of the sorted index set ``active``, fetching unseen columns."""
        slots = self._slot[active]
        missing = active[slots < 0]
        if missing.size:
            if self.size + missing.size > self.limit:
                self._restart(slots[slots >= 0])
            self._add(missing)
            slots = self._slot[active]
        return slots

    def _restart(self, keep):
        """Keep only the slots ``keep``, compacted to the front, in their order."""
        m = keep.size
        index = self._index[keep]
        self._slot[self._index[:self.size]] = -1
        self._cols[:m] = self._cols[keep]
        self._gram[:m, :m] = self._gram.take(keep, 0).take(keep, 1)
        self._cty[:m] = self._cty[keep]
        self._index[:m] = index
        self._slot[index] = np.arange(m)
        self.size = m

    def _add(self, indices):
        m, j = self.size, indices.size
        if m + j > self._capacity:
            self._grow(min(self.limit, max(m + j, 2 * self._capacity)))
        new = self._cols[m:m + j]
        new[...] = self.op.columns(indices).T
        if m:
            cross = self._cols[:m] @ new.T
            self._gram[:m, m:m + j] = cross
            self._gram[m:m + j, :m] = cross.T
        self._gram[m:m + j, m:m + j] = new @ new.T
        self._cty[m:m + j] = new @ self.y
        self._index[m:m + j] = indices
        self._slot[indices] = np.arange(m, m + j)
        self.size = m + j

    def _grow(self, cap):
        m = self.size
        cols, gram = np.empty((cap, self.op.n)), np.empty((cap, cap))
        cty, index = np.empty(cap), np.empty(cap, dtype=np.intp)
        if m:
            cols[:m], gram[:m, :m] = self._cols[:m], self._gram[:m, :m]
            cty[:m], index[:m] = self._cty[:m], self._index[:m]
        self._cols, self._gram, self._cty, self._index = cols, gram, cty, index
        self._capacity = cap

    def _solve(self, active):
        """Cholesky solve of Psi_A^t Psi_A x_A = Psi_A^t y on a sorted index set."""
        if active.size == 0:
            return RestrictedLsqSolution(np.zeros(0), self.y.copy(), self.aty.copy(), 0,
                                         "direct")
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
        x_a, _ = dpotrs(factor, self._cty.take(slots), lower=1)
        residual = self.y - x_a @ self._cols.take(slots, 0)
        return RestrictedLsqSolution(x_a, residual, self.op.adjoint_apply(residual), 0,
                                     "direct")


def solve_direct(op, active, y, cache=None):
    """Solve Psi_A^t Psi_A x_A = Psi_A^t y by Cholesky on the Gram matrix.

    With a ``GramCache`` built for (op, y), columns and Gram entries seen by
    earlier solves are reused; without one, the solve builds what it needs.
    """
    return _cache_for(op, y, cache)._solve(_as_index_set(active, op.p))


def solve_cg(op, active, y, noise_level=0.0, max_iters=2, tol_factor=1e-5, cache=None,
             start=None):
    """Conjugate gradients on the normal equations over the active set.

    Starts from a full iterate ``start = (x, r, d)`` with r = y - Psi x and
    d = Psi^t r, or from x = 0 (r = y, d = Psi^t y) when omitted, and stops
    when the normal-equation residual drops to ``tol_factor * noise_level`` or
    after ``max_iters`` iterations, whichever comes first. Bounded iterations
    are by design, so hitting the cap is not an error.

    The returned residual and dual are carried by recurrence, not recomputed:
    each direction p costs one apply u = Psi p and one adjoint g = Psi^t u,
    and the step alpha updates r -= alpha u and d -= alpha g along with z, so
    d[A] is the CG gradient. When x has entries off A, the solve first drops
    them: u0 = Psi x_off is added to r and Psi^t u0 to d (one more
    apply/adjoint pair). CG fetches no columns; a ``cache`` only has to match
    (op, y).
    """
    active = _as_index_set(active, op.p)
    cache = _cache_for(op, y, cache)
    y = cache.y
    if active.size == 0:
        raise ValueError("CG solve needs a nonempty active set")
    x, r, d = (np.zeros(op.p), y, cache.aty) if start is None else start
    if x.shape != (op.p,) or r.shape != (op.n,) or d.shape != (op.p,):
        raise ValueError("start must be (x, r, d) of shapes (p,), (n,), (p,)")
    z = x[active]
    r, d = r.copy(), d.copy()
    off = x.copy()
    off[active] = 0.0
    if off.any():  # the restricted problem starts at x with its entries off A dropped
        u = op.apply(off)
        r += u
        d += op.adjoint_apply(u)

    tol = float(tol_factor) * float(noise_level)
    grad = d[active]
    rr = float(grad @ grad)
    norms = [np.sqrt(rr)]
    p_dir = grad
    iters = 0
    while norms[-1] > tol and iters < max_iters:
        full = np.zeros(op.p)
        full[active] = p_dir
        u = op.apply(full)
        g = op.adjoint_apply(u)
        denom = float(p_dir @ g[active])
        if denom <= 0.0:
            break  # numerically semidefinite direction; stop where we are
        alpha = rr / denom
        z += alpha * p_dir
        r -= alpha * u
        d -= alpha * g
        grad = d[active]
        rr_new = float(grad @ grad)
        norms.append(np.sqrt(rr_new))
        p_dir = grad + (rr_new / rr) * p_dir
        rr = rr_new
        iters += 1
    return RestrictedLsqSolution(z, r, d, iters, "cg", norms)


def _cache_for(op, y, cache):
    if cache is None:
        return GramCache(op, y)
    if cache.op is not op or cache.y is not y:
        raise ValueError("cache was built for another operator or data vector")
    return cache


def _as_index_set(active, p):
    active = np.sort(np.asarray(active, dtype=np.intp).ravel())
    if active.size:
        if active[0] < 0 or active[-1] >= p:
            raise ValueError("active-set index out of range")
        if active.size > 1 and not (active[1:] > active[:-1]).all():
            raise ValueError("active set has repeated indices")
    return active
