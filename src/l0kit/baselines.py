"""Greedy sparsity-aware baselines: OMP, HTP, IHT (plain/adaptive), CoSaMP.

All methods take the target sparsity T as an input (unlike the continuation
solver, which never sees it), consume the same operator/data pair, and emit
the same SolveReport shape as the continuation solver.

Each halts with status ``converged`` where its reference method does, or
when the residual vanishes; a run cut by ``max_iters`` reports ``max_iters``.
OMP halts after T columns, HTP when its selected support repeats (Foucart
2011), IHT when its iterate stops moving (the adaptive policy, normalized IHT
after Blumensath & Davies 2010, also when no step size it tries keeps the
residual from growing), and CoSaMP when its pruned support equals the
previous iterate's (Needell & Tropp 2009). HTP and fixed-step IHT take the
unit step x + d, which assumes unit-norm columns.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lsq import GramCache, finite_vector, solve_direct
from .pdasc import CONVERGED, MAX_ITERS, LambdaRecord, SolveReport, check_count

__all__ = ["GreedyConfig", "omp", "htp", "iht", "cosamp"]


@dataclass
class GreedyConfig:
    T: int
    max_iters: int | None = None   # per-method default when None
    step_policy: str = "fixed"     # IHT: "fixed" | "adaptive"

    def __post_init__(self):
        check_count("T", self.T)
        if self.max_iters is not None:
            check_count("max_iters", self.max_iters)
        if self.step_policy not in ("fixed", "adaptive"):
            raise ValueError(f"unknown step policy {self.step_policy!r}")


def keep_largest(v, T):
    """Zero all but the T largest-magnitude entries (stable, lowest index wins ties)."""
    v = np.asarray(v, dtype=float)
    if T >= v.size:
        return v.copy()
    order = np.argsort(-np.abs(v), kind="stable")
    out = np.zeros_like(v)
    keep = order[:T]
    out[keep] = v[keep]
    return out


def _top_indices(v, T):
    return np.sort(np.argsort(-np.abs(v), kind="stable")[:T])


def omp(op, y, config, truth=None):
    """Orthogonal matching pursuit: grow the support by the best-correlated
    column, re-solve, repeat T times (or stop early once the residual vanishes)."""
    if config.T > op.n:
        raise ValueError(f"OMP needs T <= n, got T={config.T} > n={op.n}")
    cache = GramCache(op, y)   # the support only grows: every column is reused
    y = cache.y
    limit = config.T if config.max_iters is None else min(config.T, config.max_iters)
    support = []
    x = np.zeros(op.p)
    dual = cache.aty
    res_norm = float(np.linalg.norm(y))
    records = []
    for it in range(1, limit + 1):
        corr = np.abs(dual)
        corr[support] = -np.inf
        support.append(int(np.argmax(corr)))
        sol = solve_direct(op, support, y, cache)
        x = np.zeros(op.p)
        x[np.sort(support)] = sol.x_active
        dual = sol.dual
        res_norm = float(np.linalg.norm(sol.residual))
        records.append(_record(it, np.flatnonzero(x), res_norm, truth))
        if res_norm == 0.0:
            break
    status = CONVERGED if (len(support) == config.T or res_norm == 0.0) else MAX_ITERS
    return _report(x, records, status, "omp")


def htp(op, y, config, truth=None):
    """Hard thresholding pursuit: select the T largest of |x + d|, solve on
    that set, repeat until the selection is a fixed point. Starts at x = 0."""
    if config.T > op.n:
        raise ValueError(f"HTP needs T <= n, got T={config.T} > n={op.n}")
    y = finite_vector("y", y)
    x = np.zeros(op.p)
    limit = 50 if config.max_iters is None else config.max_iters
    prev = None
    records = []
    status = MAX_ITERS
    d = op.adjoint_apply(y)   # the dual at x = 0; afterwards each solve returns its own
    for it in range(1, limit + 1):
        selected = _top_indices(x + d, config.T)
        if prev is not None and np.array_equal(selected, prev):
            status = CONVERGED
            break
        sol = solve_direct(op, selected, y)
        x = np.zeros(op.p)
        x[selected] = sol.x_active
        d = sol.dual
        prev = selected
        res_norm = float(np.linalg.norm(sol.residual))
        records.append(_record(it, np.flatnonzero(x), res_norm, truth))
        if res_norm == 0.0:
            status = CONVERGED
            break
    return _report(x, records, status, "htp")


def iht(op, y, config, truth=None):
    """Iterative hard thresholding from x = 0: x <- keep_largest(x + mu d, T).

    The fixed policy uses mu = 1, which assumes unit-norm columns, so an
    operator with ``columns_normalized`` False is rejected; the adaptive
    policy picks the steepest-descent step on the current support and halves
    it until the residual does not increase, so accepted steps never push the
    residual up.
    """
    y = finite_vector("y", y)
    if config.step_policy == "fixed" and not op.columns_normalized:
        raise ValueError("fixed-step iht needs unit-norm columns, but the operator has "
                         "columns_normalized=False")
    x = np.zeros(op.p)
    limit = 100 if config.max_iters is None else config.max_iters
    records = []
    status = MAX_ITERS
    r = y.copy()   # the residual at x = 0, carried: each iterate is applied once
    res_norm = float(np.linalg.norm(r))
    for it in range(1, limit + 1):
        g = op.adjoint_apply(r)
        if config.step_policy == "fixed":
            proposal = keep_largest(x + g, config.T)
            r = y - op.apply(proposal)
        else:
            proposal, r = _adaptive_step(op, y, x, g, config.T, res_norm)
            if r is None:
                status = CONVERGED  # no step of any size improves the residual
                break
        moved = not np.array_equal(proposal, x)
        x = proposal
        res_norm = float(np.linalg.norm(r))
        records.append(_record(it, np.flatnonzero(x), res_norm, truth, solves=0))
        if res_norm == 0.0 or not moved:
            status = CONVERGED
            break
    return _report(x, records, status, "iht" if config.step_policy == "fixed" else "aiht")


def _adaptive_step(op, y, x, g, T, res_norm):
    """The accepted proposal and its residual y - Psi proposal, or (x, None)."""
    support = np.flatnonzero(x)
    if support.size == 0:
        support = _top_indices(g, T)
    g_s = np.zeros(op.p)
    g_s[support] = g[support]
    denom = float(np.linalg.norm(op.apply(g_s))) ** 2
    mu = float(g_s @ g_s) / denom if denom > 0 else 1.0
    for _ in range(40):
        proposal = keep_largest(x + mu * g, T)
        r = y - op.apply(proposal)
        if float(np.linalg.norm(r)) <= res_norm:
            return proposal, r
        mu *= 0.5
    return x, None


def cosamp(op, y, config, truth=None):
    """CoSaMP: merge the support with the top 2T of the proxy Psi^t r, solve
    on the merged set, prune to the T largest.

    Halts with status ``converged`` when the pruned support equals the
    previous iterate's (Needell & Tropp 2009) or the residual vanishes. The
    values on a repeated support still move, because the 2T proxy columns
    merged in change every iteration.
    """
    y = finite_vector("y", y)
    x = np.zeros(op.p)
    support = np.zeros(0, dtype=np.intp)
    r = y.copy()
    limit = 50 if config.max_iters is None else config.max_iters
    records = []
    status = MAX_ITERS
    for it in range(1, limit + 1):
        proxy = op.adjoint_apply(r)
        merged = np.union1d(support, _top_indices(proxy, 2 * config.T))
        if merged.size > op.n:
            merged = _top_indices(proxy, op.n)  # keep the solve overdetermined
        sol = solve_direct(op, merged, y)
        z = np.zeros(op.p)
        z[merged] = sol.x_active
        x = keep_largest(z, config.T)
        prev, support = support, np.flatnonzero(x)
        r = y - op.apply(x)
        res_norm = float(np.linalg.norm(r))
        records.append(_record(it, support, res_norm, truth))
        if res_norm == 0.0 or np.array_equal(support, prev):
            status = CONVERGED
            break
    return _report(x, records, status, "cosamp")


def _record(it, active, res_norm, truth, solves=1):
    return LambdaRecord.build(it, math.nan, active, 1, res_norm, truth, solves)


def _report(x, records, status, solver):
    return SolveReport(x_final=x, support_final=np.flatnonzero(x), lam_final=None,
                       records=records, status=status, solver=solver)
