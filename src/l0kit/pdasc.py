"""Primal-dual active set continuation for l0-regularized least squares.

The inner loop alternates a restricted least-squares solve on the current
active set with an explicit dual update and a hard-threshold re-selection of
the set; the outer loop drives the threshold scale lambda down a geometric
grid, warm-starting every problem from the previous one, and stops at the
first lambda whose step ends at a fixed point of the selection with its
residual at the discrepancy level.

A step that starts on the set the previous step has just solved selects from
the carried pair before it solves. A direct path then never repeats that
solve, which would return the pair bitwise, so it is bitwise the path of a
loop that repeats it. A CG path repeats it only when the selection keeps the
set, since only then can the step end on it, and the repeat refines the
solution; a CG path is therefore not bitwise that of a loop that always
repeats. A skipped solve still counts as an inner iteration (see
``pdas_inner``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .lsq import (GramCache, SingularGramError, check_count, check_nonnegative, solve_cg,
                  solve_direct)

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


def _check_lambda(lam):
    """Raise ValueError unless the threshold scale ``lam`` is finite and > 0."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"threshold scale lambda must be finite and > 0, got {lam!r}")


def hard_threshold(v, lam):
    """Zero out v when |v| < sqrt(2 lam), pass it through when |v| > sqrt(2 lam).

    The boundary |v| = sqrt(2 lam) maps to 0, mirroring the strict inequality
    used for active-set membership.
    """
    _check_lambda(lam)
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
    check_nonnegative("lam", lam)
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
    if not (math.isfinite(lam0) and lam0 > lam_min > 0):
        raise ValueError(f"need finite lam0 > lam_min > 0, got lam0={lam0}, lam_min={lam_min}")
    check_count("N", N)
    ratio = lam_min / lam0
    grid = lam0 * ratio ** (np.arange(N + 1) / N)
    return grid, ratio ** (1.0 / N)


@dataclass
class SolverConfig:
    """Continuation-solver knobs.

    The grid runs from lam0 = 0.5 ||Psi^t y||_inf^2, which makes x = 0 the
    exact minimizer at the head of the path, down to 1e-15 lam0 in N steps.
    eps_bar is the discrepancy level the residual is driven to; it must be
    supplied (there is no estimation heuristic). CG mode runs ``solve_cg``
    with its default iteration cap and tolerance factor.
    """

    N: int = 100
    J_max: int = 5
    eps_bar: float | None = None
    lsq_mode: str = "direct"   # "direct" | "cg"

    def __post_init__(self):
        for name in ("N", "J_max"):
            check_count(name, getattr(self, name))
        if self.eps_bar is not None:
            check_nonnegative("eps_bar", self.eps_bar)
        if self.lsq_mode not in ("direct", "cg"):
            raise ValueError(f"unknown lsq mode {self.lsq_mode!r}")

    def resolve_grid(self, op, y, aty=None):
        """The lambda grid and its ratio; ``aty`` is Psi^t y when the caller has it."""
        aty = op.adjoint_apply(y) if aty is None else aty
        top = float(np.max(np.abs(aty)))
        if top == 0:
            raise ValueError("lam0 must be positive (is the data identically zero?)")
        try:
            lam0 = 0.5 * top ** 2
        except OverflowError:
            lam0 = math.inf
        if not (math.isfinite(lam0) and 1e-15 * lam0 > 0):
            # lambda is in squared data units, so the grid, and any lambda
            # reported on it, must fit in a float
            raise ValueError(f"data scale out of range: ||Psi^t y||_inf = {top:.3g} puts "
                             f"lam0 = 0.5 ||Psi^t y||_inf^2 outside the float range; "
                             f"rescale y and eps_bar")
        return continuation_grid(lam0, 1e-15 * lam0, self.N)


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

    ``solved`` is the set whose solve gave (x0, r0, d0). When A0 equals it
    and r0 is given, the loop selects from (x0, d0) first. In direct mode it
    then skips the first solve, which would return (x0, r0, d0) bitwise, so
    the path matches a loop that repeats the solve even where a step hits
    J_max. In CG mode it skips the first solve when the selection leaves A0,
    and otherwise makes it, as a refinement of (x0, r0, d0) on A0, the one
    set the step can then end on. A skipped solve still counts as an
    iteration (toward J_max, ``inner_iters`` and ``active_sets``), and its
    selection is the first iteration's. The carried vectors are never
    written in place.

    ``cache`` is a GramCache for (op, y) shared by the solves of a whole path;
    without one, the call builds one for its own solves. ``cg`` holds the
    ``solve_cg`` keyword settings (noise_level, max_iters, tol_factor) when
    the nonempty sets are solved by CG instead of Cholesky. Each CG solve
    starts from the current x on its set and returns an exact residual and
    dual, so ``r0`` matters only to the skip above. The first step of a CG
    path selects a nonempty set from x = 0 and skips the empty set's solve,
    so the path makes a direct solve only if a later selection is empty.
    """
    _check_lambda(lam)
    check_count("J_max", J_max)
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
    skip = False
    if r is not None and solved is not None and np.array_equal(current, solved):
        # (x, r, d) already solve the current set: select from them first; a
        # CG step refines that solution only if the selection keeps the set
        v = x + d
        np.abs(v, out=v)
        selected = np.flatnonzero(v > thr)
        skip = cg is None or not np.array_equal(selected, current)
    sets = []
    status = CAP_HIT
    carry = current
    solves = 0
    for _ in range(J_max):
        if not skip:
            solves += 1
            try:
                if cg is None or current.size == 0:
                    sol = solve_direct(op, current, y, cache)
                else:
                    sol = solve_cg(op, current, y, cache=cache, start=x, **cg)
            except SingularGramError as err:
                err.lam, err.active, err.solves = lam, current, solves
                raise
            x, r, d = sol.x, sol.residual, sol.dual
            v = x + d
            np.abs(v, out=v)
            selected = np.flatnonzero(v > thr)
        skip = False
        sets.append(current)
        if selected.size == current.size and (selected == current).all():
            status = FIXED_POINT
            carry = current
            break
        if selected.size > op.n:
            carry = current  # selection not solvable at the next step; keep the solved set
            break
        carry = selected
        current = selected
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
    problem from the previous state, and stops at the first lambda whose step
    ends at a fixed point of the selection with ||Psi x - y|| <= eps_bar
    (status ``converged``); in direct mode that x is a coordinatewise
    minimizer at lam_final. A step that meets eps_bar but hits J_max, or
    whose selection outgrows n, carries its state to the next lambda. On a
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
    empty = np.zeros(0, dtype=np.intp)
    if float(np.max(np.abs(cache.aty))) == 0.0:
        # data uncorrelated with every column: x = 0 is optimal at any lambda
        rec = LambdaRecord.build(1, 0.0, empty, 0, float(np.linalg.norm(y)), truth)
        status = CONVERGED if rec.residual <= config.eps_bar else GRID_EXHAUSTED
        return SolveReport(x_final=np.zeros(op.p), support_final=empty,
                           lam_final=0.0, records=[rec], status=status, solver="pdasc")
    grid, _rho = config.resolve_grid(op, y, cache.aty)
    res_norm = float(np.linalg.norm(y))   # at x = 0
    cg = None if config.lsq_mode == "direct" else {"noise_level": config.eps_bar}

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
        if res_norm <= config.eps_bar and result.status == FIXED_POINT:
            status = CONVERGED
            break
    return SolveReport(x_final=x, support_final=np.flatnonzero(x), lam_final=lam_final,
                       records=records, status=status, solver="pdasc")
