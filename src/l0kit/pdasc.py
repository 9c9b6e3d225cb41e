"""Primal-dual active set continuation for l0-regularized least squares.

The inner loop alternates a restricted least-squares solve on the current
active set with an explicit dual update and a hard-threshold re-selection of
the set; the outer loop drives the threshold scale lambda down a geometric
grid, warm-starting every problem from the previous one, and stops at the
first lambda whose residual reaches the discrepancy level.

A direct path solves each active set once: a step that starts on the set the
previous step has just solved re-selects from the carried pair instead of
repeating that solve. The skipped solve still counts as an inner iteration,
so the path is bitwise that of the repeat (see ``pdas_inner``).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lsq import GramCache, SingularGramError, solve_cg, solve_direct

__all__ = [
    "CONVERGED", "GRID_EXHAUSTED", "SINGULAR_GRAM_ABORT", "MAX_ITERS",
    "FIXED_POINT", "CAP_HIT",
    "SolverConfig", "SolverState", "InnerResult", "LambdaRecord", "SolveReport",
    "hard_threshold", "objective", "check_coordinatewise_min",
    "continuation_grid", "pdas_inner", "pdasc",
]

CONVERGED = "converged"
GRID_EXHAUSTED = "grid_exhausted"
SINGULAR_GRAM_ABORT = "singular_gram_abort"
MAX_ITERS = "max_iters"

FIXED_POINT = "fixed_point"
CAP_HIT = "cap_hit"

# Consecutive abandoned lambda steps tolerated before aborting the run.
SINGULAR_SKIP_LIMIT = 3


def hard_threshold(v, lam):
    """Zero out v when |v| < sqrt(2 lam), pass it through when |v| > sqrt(2 lam).

    The boundary |v| = sqrt(2 lam) maps to 0, mirroring the strict inequality
    used for active-set membership.
    """
    if lam <= 0:
        raise ValueError(f"threshold scale must be positive, got {lam}")
    thr = math.sqrt(2.0 * lam)
    v = np.asarray(v, dtype=float)
    out = np.where(np.abs(v) > thr, v, 0.0)
    return float(out) if out.ndim == 0 else out


def objective(op, y, x, lam):
    """J_lam(x) = 0.5 ||Psi x - y||^2 + lam ||x||_0 with exact nonzero counting."""
    r = op.apply(np.asarray(x, dtype=float)) - np.asarray(y, dtype=float)
    return 0.5 * float(r @ r) + lam * int(np.count_nonzero(x))


@dataclass
class Violation:
    index: int
    kind: str     # "active_below_threshold" | "dual_above_threshold" | "dual_nonzero_on_active"
    value: float
    bound: float


def check_coordinatewise_min(op, y, x, lam, tol=1e-8):
    """Check the coordinatewise-minimizer conditions at x.

    With A the exact support of x and d = Psi^t(y - Psi x), requires
    min_{i in A} |x_i| >= sqrt(2 lam) - tol, ||d||_inf <= sqrt(2 lam) + tol,
    and d = 0 on A to within tol. Returns (ok, violations).
    """
    x = np.asarray(x, dtype=float)
    thr = math.sqrt(2.0 * lam)
    active = np.flatnonzero(x)
    d = op.dual(y, x)
    violations = []
    for i in active:
        if abs(x[i]) < thr - tol:
            violations.append(Violation(int(i), "active_below_threshold", float(abs(x[i])), thr))
        if abs(d[i]) > tol:
            violations.append(Violation(int(i), "dual_nonzero_on_active", float(abs(d[i])), tol))
    for i in np.flatnonzero(np.abs(d) > thr + tol):
        violations.append(Violation(int(i), "dual_above_threshold", float(abs(d[i])), thr))
    return (not violations), violations


def continuation_grid(lam0, lam_min, N):
    """Geometric lambda grid: lam_k = lam0 (lam_min/lam0)^(k/N), k = 0..N.

    Returns (grid, rho) with rho = (lam_min/lam0)^(1/N); consecutive ratios
    are constant and equal to rho.
    """
    if not (lam0 > lam_min > 0):
        raise ValueError(f"need lam0 > lam_min > 0, got lam0={lam0}, lam_min={lam_min}")
    N = int(N)
    if N < 1:
        raise ValueError(f"grid size must be >= 1, got {N}")
    ratio = lam_min / lam0
    grid = lam0 * ratio ** (np.arange(N + 1) / N)
    return grid, ratio ** (1.0 / N)


def check_count(name, value):
    """Raise ValueError unless ``value`` is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_nonnegative(name, value):
    """Raise ValueError unless ``value`` is a finite real >= 0."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass
class SolverConfig:
    """Continuation-solver knobs.

    lam0 defaults to 0.5 ||Psi^t y||_inf^2 (which makes x = 0 the exact
    minimizer at the head of the path) and lam_min to 1e-15 lam0; both are
    resolved against the data at solve time when left unset. eps_bar is the
    discrepancy level the residual is driven to; it must be supplied (there is
    no estimation heuristic).
    """

    lam0: float | None = None
    lam_min: float | None = None
    N: int = 100
    J_max: int = 5
    eps_bar: float | None = None
    lsq_mode: str = "direct"   # "direct" | "cg"
    cg_max_iters: int = 2
    cg_tol_factor: float = 1e-5

    def __post_init__(self):
        for name in ("N", "J_max", "cg_max_iters"):
            check_count(name, getattr(self, name))
        if self.eps_bar is not None:
            check_nonnegative("eps_bar", self.eps_bar)
        check_nonnegative("cg_tol_factor", self.cg_tol_factor)
        if self.lsq_mode not in ("direct", "cg"):
            raise ValueError(f"unknown lsq mode {self.lsq_mode!r}")

    def resolve_grid(self, op, y, aty=None):
        """The lambda grid and its ratio; ``aty`` is Psi^t y when the caller has it."""
        lam0 = self.lam0
        if lam0 is None:
            aty = op.adjoint_apply(y) if aty is None else aty
            lam0 = 0.5 * float(np.max(np.abs(aty))) ** 2
        if lam0 <= 0:
            raise ValueError("lam0 must be positive (is the data identically zero?)")
        lam_min = 1e-15 * lam0 if self.lam_min is None else self.lam_min
        return continuation_grid(lam0, lam_min, self.N)

    @staticmethod
    def grid_size_for_rho(rho, lam0_over_lam_min=1e15):
        """Smallest N whose grid ratio is at least the requested rho."""
        if not 0 < rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        return max(1, math.ceil(-math.log(lam0_over_lam_min) / math.log(rho)))


@dataclass
class SolverState:
    """Primal/dual pair the inner loop iterates on.

    ``active`` is the thresholded carry-over set used to warm-start the next
    lambda; ``solved_set`` is the set of the last restricted solve, off which
    x vanishes exactly; ``residual`` is y - Psi x and d = Psi^t residual.
    ``solves`` counts the restricted solves made, one fewer than
    ``inner_iters`` when the first was skipped.
    """

    lam: float
    x: np.ndarray
    d: np.ndarray
    active: np.ndarray
    solved_set: np.ndarray
    inner_iters: int
    residual: np.ndarray
    solves: int

    @property
    def residual_norm(self):
        return float(np.linalg.norm(self.residual))


@dataclass
class InnerResult:
    state: SolverState
    status: str                 # FIXED_POINT | CAP_HIT
    active_sets: list           # the set of each iteration, in order, a skipped solve's too


def pdas_inner(op, y, lam, x0, d0, A0, J_max, cache=None, cg=None, r0=None, solved=None):
    """Run the inner primal-dual active set loop at a fixed lambda.

    Starting from the set A0 (whose solve comes first unless it is skipped, as
    below), each iteration solves the least-squares problem on the current set,
    updates the dual d = Psi^t(y - Psi x), and re-selects
    {i : |x_i + d_i| > sqrt(2 lam)}. Stops at a fixed point of the selection
    or after J_max iterations; the carried active set is the final selection
    (recomputed from the last pair), falling back to the last solved set if
    the selection outgrows the row count.

    ``solved`` is the set whose direct solve gave (x0, r0, d0). When A0 equals
    it, r0 is given and ``cg`` is not, the first solve, which would return
    (x0, r0, d0) bitwise, is skipped and the loop re-selects from them. The
    skip still counts as an iteration (toward J_max, ``inner_iters`` and
    ``active_sets``), so paths match a loop that repeats the solve even where
    a step hits J_max. The carried vectors are never written in place.

    ``cache`` is a GramCache for (op, y) shared by the solves of a whole path;
    without one, the call builds one for its own solves. ``cg`` holds the
    ``solve_cg`` keyword settings (noise_level, max_iters, tol_factor) when
    the nonempty sets are solved by CG instead of Cholesky. CG starts from
    the full iterate (x0, r0 = y - Psi x0, d0 = Psi^t r0) and carries the
    residual and dual by recurrence from solve to solve; without ``r0`` the
    first CG solve starts from a freshly computed pair. A step whose last
    solve was CG ends by recomputing r and d from x once, so the state (and
    the next step's start) is exact.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if J_max < 1:
        raise ValueError("J_max must be >= 1")
    cache = GramCache(op, y) if cache is None else cache
    y = cache.y
    thr = math.sqrt(2.0 * lam)
    current = np.sort(np.asarray(A0, dtype=np.intp))
    if current.size > op.n:
        raise ValueError(f"initial active set of size {current.size} exceeds n = {op.n}")
    x = np.asarray(x0, dtype=float)
    d = np.asarray(d0, dtype=float)
    if x.shape != (op.p,) or d.shape != (op.p,):
        raise ValueError("x0 and d0 must be length-p vectors")
    r = None if r0 is None else np.asarray(r0, dtype=float)
    if r is not None and r.shape != (op.n,):
        raise ValueError("r0 must be a length-n vector")
    skip = (cg is None and r is not None and solved is not None
            and np.array_equal(current, solved))
    sets = []
    status = CAP_HIT
    carry = current
    solves = 0
    refresh = False
    for _ in range(J_max):
        if skip:
            skip = False  # (x, r, d) already solve the current set
        else:
            solves += 1
            try:
                if cg is None or current.size == 0:
                    sol = solve_direct(op, current, y, cache)
                else:
                    if r is None:
                        r = y - op.apply(x)
                        d = op.adjoint_apply(r)
                    sol = solve_cg(op, current, y, cache=cache, start=(x, r, d), **cg)
            except SingularGramError as err:
                err.lam, err.active, err.solves = lam, current, solves
                raise
            x = np.zeros(op.p)
            x[current] = sol.x_active
            r, d = sol.residual, sol.dual
            refresh = sol.method == "cg"
        sets.append(current)
        selected = np.flatnonzero(np.abs(x + d) > thr)
        if selected.size == current.size and (selected == current).all():
            status = FIXED_POINT
            carry = current
            break
        if selected.size > op.n:
            carry = current  # selection not solvable at the next step; keep the solved set
            break
        carry = selected
        current = selected
    if refresh:  # replace the recurrence pair by an exact one
        r = y - op.apply(x)
        d = op.adjoint_apply(r)
    state = SolverState(lam=lam, x=x, d=d, active=carry, solved_set=sets[-1],
                        inner_iters=len(sets), residual=r, solves=solves)
    return InnerResult(state=state, status=status, active_sets=sets)


@dataclass
class LambdaRecord:
    k: int
    lam: float
    active_size: int
    inner_iters: int
    residual: float
    overlap_true: int | None = None
    excess_outside_true: int | None = None
    solves: int = 0

    @classmethod
    def build(cls, k, lam, active, inner_iters, residual_norm, truth=None, solves=0):
        """The record of one step from the residual norm the solver already
        has; with ``truth``, also the active set's overlap with its support.
        ``solves`` is the number of restricted solves the step made. Both
        ``active`` and the true support are sets of distinct indices."""
        overlap = excess = None
        if truth is not None:
            overlap = int(np.intersect1d(active, truth.support, assume_unique=True).size)
            excess = int(active.size) - overlap
        return cls(k=k, lam=lam, active_size=int(active.size), inner_iters=inner_iters,
                   residual=residual_norm, overlap_true=overlap, excess_outside_true=excess,
                   solves=solves)


@dataclass
class SolveReport:
    """Outcome of a solver run: recovered signal, path records, and status."""

    x_final: np.ndarray
    support_final: np.ndarray
    lam_final: float | None
    records: list
    status: str
    solver: str = "pdasc"

    def to_json(self):
        return {
            "solver": self.solver,
            "status": self.status,
            "lam_final": self.lam_final,
            "support_final": [int(i) for i in self.support_final],
            "x_final": [float(v) for v in self.x_final],
            "records": [
                {"k": r.k, "lambda": r.lam, "active_size": r.active_size,
                 "inner_iters": r.inner_iters, "residual": r.residual,
                 "overlap_true": r.overlap_true,
                 "excess_outside_true": r.excess_outside_true, "solves": r.solves}
                for r in self.records
            ],
        }


def pdasc(op, y, config, truth=None):
    """Solve the l0-regularized least-squares problem along a lambda path.

    Runs the inner active-set loop at lam_k = rho^k lam0, warm-starting each
    problem from the previous state, and stops at the first lambda whose
    residual satisfies ||Psi x - y|| <= eps_bar (status ``converged``). On a
    singular Gram matrix the lambda step is abandoned and the previous state
    carried forward; three consecutive failures abort the run. When ``truth``
    is given, path records include the active set's overlap with the true
    support. One GramCache serves every restricted solve of the path, and
    each step is passed the set its carried state was solved on. The
    sqrt(2 lam) threshold assumes unit-norm columns, so an operator with
    ``columns_normalized`` False is rejected.
    """
    if config.eps_bar is None:
        raise ValueError("SolverConfig.eps_bar (discrepancy level) must be set")
    if not op.columns_normalized:
        raise ValueError("pdasc needs unit-norm columns, but the operator has "
                         "columns_normalized=False")
    cache = GramCache(op, y)
    y = cache.y
    res_norm = float(np.linalg.norm(y))   # at x = 0
    empty = np.zeros(0, dtype=np.intp)
    if config.lam0 is None and float(np.max(np.abs(cache.aty))) == 0.0:
        # data uncorrelated with every column: x = 0 is optimal at any lambda
        rec = LambdaRecord.build(1, 0.0, empty, 0, res_norm, truth)
        status = CONVERGED if rec.residual <= config.eps_bar else GRID_EXHAUSTED
        return SolveReport(x_final=np.zeros(op.p), support_final=empty,
                           lam_final=0.0, records=[rec], status=status, solver="pdasc")
    grid, _rho = config.resolve_grid(op, y, cache.aty)
    cg = None if config.lsq_mode == "direct" else {
        "noise_level": config.eps_bar, "max_iters": config.cg_max_iters,
        "tol_factor": config.cg_tol_factor}

    x, r, d = np.zeros(op.p), y, cache.aty   # the solution on the empty set
    active = solved = empty
    records = []
    status = GRID_EXHAUSTED
    lam_final = None
    failures = 0
    for k in range(1, config.N + 1):
        lam_k = float(grid[k])
        lam_final = lam_k
        try:
            result = pdas_inner(op, y, lam_k, x, d, active, config.J_max, cache, cg, r, solved)
        except SingularGramError as err:
            failures += 1
            records.append(LambdaRecord.build(k, lam_k, active, 0, res_norm, truth, err.solves))
            if failures >= SINGULAR_SKIP_LIMIT:
                status = SINGULAR_GRAM_ABORT
                break
            continue
        failures = 0
        state = result.state
        x, r, d, active = state.x, state.residual, state.d, state.active
        solved = state.solved_set
        res_norm = state.residual_norm
        records.append(LambdaRecord.build(k, lam_k, active, state.inner_iters, res_norm, truth,
                                          state.solves))
        if res_norm <= config.eps_bar:
            status = CONVERGED
            break
    return SolveReport(x_final=x, support_final=np.flatnonzero(x), lam_final=lam_final,
                       records=records, status=status, solver="pdasc")
