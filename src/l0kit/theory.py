"""Recovery-theory quantities: coherence, brute-force RIP constants, condition
certificates, the oracle solution, exhaustive l0 minimization, and numerical
checkers for the one-step primal-dual estimates."""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lsq import SingularGramError, solve_direct

__all__ = [
    "CapacityError", "TheoryCertificate", "LevelSet", "BoundCheck", "BoundReport",
    "mutual_coherence", "rip_constant_bruteforce", "certify",
    "xi_interval_mip", "xi_interval_rip", "oracle_solution", "bruteforce_l0_min",
    "check_onestep_bounds_mip", "check_onestep_bounds_rip", "level_set",
]

COHERENCE_COLUMN_CAP = 5000
SUBSET_ENUMERATION_CAP = 1_000_000


class CapacityError(RuntimeError):
    """An exact scan/enumeration was requested beyond its size cap."""


def mutual_coherence(op):
    """Largest |psi_i^t psi_j| over distinct column pairs, by exact pairwise scan."""
    if op.p < 2:
        raise ValueError("mutual coherence needs at least two columns")
    if op.p > COHERENCE_COLUMN_CAP:
        raise CapacityError(f"exact pairwise scan over p = {op.p} columns exceeds the cap "
                            f"{COHERENCE_COLUMN_CAP}")
    mat = op.columns(np.arange(op.p))
    best = 0.0
    block = 256
    for start in range(0, op.p, block):
        chunk = np.abs(mat.T @ mat[:, start:start + block])
        cols = np.arange(start, min(start + block, op.p))
        chunk[cols, cols - start] = 0.0
        best = max(best, float(chunk.max()))
    return best


def rip_constant_bruteforce(op, s):
    """Exact restricted-isometry constant of level s by enumerating all s-subsets.

    delta_s = max over |A| = s of max(sigma_max(Psi_A)^2 - 1, 1 - sigma_min(Psi_A)^2);
    tractable only at toy scale.
    """
    s = int(s)
    if not 1 <= s <= op.p:
        raise ValueError(f"need 1 <= s <= p, got s={s}")
    if math.comb(op.p, s) > SUBSET_ENUMERATION_CAP:
        raise CapacityError(f"C({op.p}, {s}) = {math.comb(op.p, s)} subsets exceeds the cap "
                            f"{SUBSET_ENUMERATION_CAP}")
    mat = op.columns(np.arange(op.p))
    delta = 0.0
    for subset in combinations(range(op.p), s):
        sv = np.linalg.svd(mat[:, subset], compute_uv=False)
        hi = sv[0] ** 2 - 1.0
        lo = 1.0 - (sv[-1] ** 2 if len(sv) == s else 0.0)
        delta = max(delta, hi, lo)
    return float(delta)


@dataclass
class TheoryCertificate:
    """Materialized hypotheses of the coherence-based recovery conditions."""

    nu: float                   # mutual coherence
    sparsity: int               # T
    beta: float                 # eps / min |x*_i|
    assumption_ok: bool         # beta < 1/2
    mip_cwm_ok: bool            # nu < (1 - 2 beta)/(3T - 1)
    mip_conv_ok: bool           # nu < (1 - 2 beta)/(2T - 1)
    rho: float
    rho_interval: tuple         # (((2T-1) nu + 2 beta)^2, 1)
    rho_admissible: bool
    s1: float | None
    s2: float | None
    xi: float | None            # lambda-interval upper endpoint, when applicable
    lam_interval: tuple | None  # (eps^2 / 2, xi)

    def to_json(self):
        return {
            "nu": self.nu, "T": self.sparsity, "beta": self.beta,
            "assumption_ok": self.assumption_ok,
            "mip_cwm_ok": self.mip_cwm_ok, "mip_conv_ok": self.mip_conv_ok,
            "rho": self.rho,
            "rho_interval": list(self.rho_interval),
            "rho_admissible": self.rho_admissible,
            "s1": self.s1, "s2": self.s2, "xi": self.xi,
            "lam_interval": None if self.lam_interval is None else list(self.lam_interval),
        }


def certify(op, truth, eps, rho, coherence=None):
    """Certify the continuation-convergence hypotheses for one instance.

    Computes beta = eps / min |x*_i|, the coherence condition gates, the
    admissible rho interval, and - when rho is admissible - the continuation
    factors s1 = 1/(sqrt(rho) - (T-1) nu - beta) and s2 = sqrt(rho) s1.
    When beta >= 1/2 the small-noise assumption fails and no factors are
    emitted.
    """
    if eps < 0:
        raise ValueError("noise level must be nonnegative")
    nu = mutual_coherence(op) if coherence is None else float(coherence)
    T = truth.sparsity
    beta = eps / truth.min_abs
    assumption_ok = beta < 0.5
    mip_cwm_ok = assumption_ok and nu < (1.0 - 2.0 * beta) / (3 * T - 1)
    mip_conv_ok = assumption_ok and nu < (1.0 - 2.0 * beta) / (2 * T - 1)
    rho_lower = ((2 * T - 1) * nu + 2.0 * beta) ** 2
    rho_admissible = bool(mip_conv_ok and rho_lower < rho < 1.0)
    s1 = s2 = None
    if rho_admissible:
        s1 = 1.0 / (math.sqrt(rho) - (T - 1) * nu - beta)
        s2 = math.sqrt(rho) * s1
    xi = xi_interval_mip(nu, T, beta, truth.min_abs)
    lam_interval = None if xi is None else (0.5 * eps**2, xi)
    return TheoryCertificate(nu=nu, sparsity=T, beta=beta, assumption_ok=assumption_ok,
                             mip_cwm_ok=mip_cwm_ok, mip_conv_ok=mip_conv_ok,
                             rho=float(rho), rho_interval=(rho_lower, 1.0),
                             rho_admissible=rho_admissible, s1=s1, s2=s2,
                             xi=xi, lam_interval=lam_interval)


def xi_interval_mip(nu, T, beta, min_abs):
    """Upper endpoint of the lambda interval on which the oracle solution is the
    unique global minimizer, under the coherence hypotheses; None when they fail."""
    if beta >= 0.5:
        return None
    if not (nu < (1.0 - 2.0 * beta) / (3 * T - 1)):
        return None
    if not (beta <= (1.0 - 2.0 * (T - 1) * nu) / (T + 3)):
        return None
    return (1.0 - 2.0 * (T - 1) * nu - 2.0 * beta - beta**2) / (2.0 * T) * min_abs**2


def xi_interval_rip(delta, beta, min_abs, T):
    """RIP counterpart of xi_interval_mip; None when the hypotheses fail."""
    if beta >= 0.5:
        return None
    if not (delta <= (1.0 - 2.0 * beta) / (2.0 * math.sqrt(T) + 1.0)):
        return None
    if not (beta <= (1.0 - 2.0 * delta - delta**2) / 4.0):
        return None
    return (0.5 * (1.0 - delta) - delta**2 / (1.0 - delta)
            - beta / math.sqrt(1.0 - delta) - 0.5 * beta**2) * min_abs**2


def oracle_solution(op, support, y):
    """Least-squares solution restricted to the true support, embedded in R^p."""
    sol = solve_direct(op, support, y)
    x = np.zeros(op.p)
    x[np.sort(np.asarray(support, dtype=np.intp))] = sol.x_active
    return x


def bruteforce_l0_min(op, y, lam, k_max):
    """Global minimizer of the l0-regularized objective by exhaustive enumeration.

    Enumerates every support of size <= k_max, solves the restricted
    least-squares problem on it, and returns (support, x, objective) of the
    best candidate. Ties break toward the smaller support, then
    lexicographically. Supports with singular Gram matrices are skipped: a
    spanning subset of such a support achieves the same residual and is
    enumerated on its own.
    """
    k_max = int(k_max)
    if not 0 <= k_max <= op.p:
        raise ValueError(f"need 0 <= k_max <= p, got {k_max}")
    total = sum(math.comb(op.p, k) for k in range(k_max + 1))
    if total > SUBSET_ENUMERATION_CAP:
        raise CapacityError(f"{total} candidate supports exceed the cap {SUBSET_ENUMERATION_CAP}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and > 0, got {lam!r}")
    y = np.asarray(y, dtype=float)
    best_key = (0.5 * float(y @ y), 0, ())
    best_x = np.zeros(op.p)
    for k in range(1, k_max + 1):
        for subset in combinations(range(op.p), k):
            try:
                sol = solve_direct(op, np.asarray(subset, dtype=np.intp), y)
            except SingularGramError:
                continue
            obj = 0.5 * float(sol.residual @ sol.residual) + lam * k
            key = (obj, k, subset)
            if key < best_key:
                best_key = key
                best_x = np.zeros(op.p)
                best_x[list(subset)] = sol.x_active
    support = np.asarray(best_key[2], dtype=np.intp)
    return support, best_x, best_key[0]


@dataclass
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    margin: float       # slack in the direction that must be nonnegative
    passed: bool


@dataclass
class BoundReport:
    applicable: bool
    checks: list
    context: dict

    def all_passed(self, tol=0.0):
        return self.applicable and all(c.margin >= -tol for c in self.checks)


def check_onestep_bounds_mip(op, instance, active, coherence=None, tol=0.0):
    """Numerically verify the coherence-based one-step primal-dual estimates.

    Runs one primal-dual step on the set ``active`` (restricted least squares
    plus dual update) and checks the printed error/dual inequalities against
    the instance truth. Not applicable when |A| > T or the coherence gate
    nu < 1/(T-1) fails.
    """
    truth = instance.truth
    if truth is None:
        raise ValueError("one-step bound checks need an instance with known truth")
    active = np.sort(np.asarray(active, dtype=np.intp))
    T = truth.sparsity
    nu = mutual_coherence(op) if coherence is None else float(coherence)
    gate_ok = active.size <= T and (T <= 1 or nu < 1.0 / (T - 1))
    if not gate_ok:
        return BoundReport(False, [], {"nu": nu, "T": T, "A_size": int(active.size)})

    ctx = _onestep_context(op, instance, active)
    eps = instance.noise_level
    b_inf = ctx["xb_inf"]
    checks = []

    denom = 1.0 - max(active.size - 1, 0) * nu
    rhs1 = (ctx["B"].size * nu * b_inf + eps) / denom
    lhs1 = ctx["xbar_inf"]
    checks.append(BoundCheck("primal_error_inf", lhs1, rhs1, rhs1 - lhs1, rhs1 - lhs1 >= -tol))

    rhs2_base = b_inf * max(ctx["B"].size - 1, 0) * nu + eps + active.size * nu * ctx["xbar_inf"]
    checks.append(_lower_bound_check(
        "dual_lower_on_missing", ctx["d"], ctx["B"],
        lambda j: abs(ctx["x_true"][j]) - rhs2_base, tol))

    rhs3 = ctx["B"].size * nu * b_inf + eps + active.size * nu * ctx["xbar_inf"]
    checks.append(_upper_bound_check("dual_upper_off_true", ctx["d"], ctx["off_true"], rhs3, tol))

    context = {"nu": nu, "T": T, "A_size": int(active.size), "B_size": int(ctx["B"].size)}
    return BoundReport(True, checks, context)


def check_onestep_bounds_rip(op, instance, active, deltas=None, tol=0.0):
    """RIP counterpart of check_onestep_bounds_mip, with brute-force constants.

    ``deltas`` maps sparsity level -> RIP constant; missing levels are computed
    by rip_constant_bruteforce (tiny problems only). Not applicable when the
    RIP fails (delta >= 1) at level max(|A| + |B|, T + 1).
    """
    truth = instance.truth
    if truth is None:
        raise ValueError("one-step bound checks need an instance with known truth")
    active = np.sort(np.asarray(active, dtype=np.intp))
    T = truth.sparsity
    ctx = _onestep_context(op, instance, active)
    sizes = {active.size, ctx["B"].size, active.size + ctx["B"].size,
             active.size + 1, ctx["B"].size + 1, max(active.size + ctx["B"].size, T + 1)}
    deltas = dict(deltas or {})
    deltas[0] = 0.0
    for s in sorted(sizes):
        if s not in deltas:
            deltas[s] = rip_constant_bruteforce(op, s) if s > 0 else 0.0
    gate_level = max(active.size + ctx["B"].size, T + 1)
    if active.size > T or deltas[gate_level] >= 1.0 or deltas[active.size] >= 1.0:
        return BoundReport(False, [], {"T": T, "A_size": int(active.size),
                                       "delta_gate": deltas[gate_level]})

    eps = instance.noise_level
    d_a = deltas[active.size]
    checks = []

    rhs1 = deltas[active.size + ctx["B"].size] / (1.0 - d_a) * ctx["xb_l2"] \
        + eps / math.sqrt(1.0 - d_a)
    lhs1 = ctx["xbar_l2"]
    checks.append(BoundCheck("primal_error_l2", lhs1, rhs1, rhs1 - lhs1, rhs1 - lhs1 >= -tol))

    rhs2_base = deltas[ctx["B"].size] * ctx["xb_l2"] + eps \
        + deltas[active.size + 1] * ctx["xbar_l2"]
    checks.append(_lower_bound_check(
        "dual_lower_on_missing", ctx["d"], ctx["B"],
        lambda j: abs(ctx["x_true"][j]) - rhs2_base, tol))

    rhs3 = deltas[ctx["B"].size + 1] * ctx["xb_l2"] + eps \
        + deltas[active.size + 1] * ctx["xbar_l2"]
    checks.append(_upper_bound_check("dual_upper_off_true", ctx["d"], ctx["off_true"], rhs3, tol))

    context = {"T": T, "A_size": int(active.size), "B_size": int(ctx["B"].size),
               "deltas": {int(s): float(v) for s, v in deltas.items()}}
    return BoundReport(True, checks, context)


def _onestep_context(op, instance, active):
    truth = instance.truth
    x_true = truth.dense()
    sol = solve_direct(op, active, instance.y)
    xbar = sol.x_active - x_true[active]
    b = np.setdiff1d(truth.support, active)
    off_true = np.setdiff1d(np.arange(op.p), np.union1d(truth.support, active))
    xb = x_true[b]
    return {
        "d": sol.dual,
        "x_true": x_true,
        "B": b,
        "off_true": off_true,
        "xbar_inf": float(np.max(np.abs(xbar))) if xbar.size else 0.0,
        "xbar_l2": float(np.linalg.norm(xbar)),
        "xb_inf": float(np.max(np.abs(xb))) if xb.size else 0.0,
        "xb_l2": float(np.linalg.norm(xb)),
    }


def _lower_bound_check(name, d, indices, rhs_of, tol):
    # |d_j| >= rhs(j) for every j in indices; vacuous for an empty set
    if indices.size == 0:
        return BoundCheck(name, math.nan, math.nan, math.inf, True)
    margins = [abs(d[j]) - rhs_of(j) for j in indices]
    worst = int(np.argmin(margins))
    j = indices[worst]
    return BoundCheck(name, float(abs(d[j])), float(rhs_of(j)),
                      float(margins[worst]), margins[worst] >= -tol)


def _upper_bound_check(name, d, indices, rhs, tol):
    # |d_j| <= rhs for every j in indices; vacuous for an empty set
    if indices.size == 0:
        return BoundCheck(name, math.nan, math.nan, math.inf, True)
    j = indices[int(np.argmax(np.abs(d[indices])))]
    margin = rhs - abs(d[j])
    return BoundCheck(name, float(abs(d[j])), float(rhs), float(margin), margin >= -tol)


@dataclass
class LevelSet:
    """Coordinates of the truth at least s sqrt(2 lam) in magnitude."""

    lam: float
    s: float
    indices: np.ndarray


def level_set(truth, lam, s):
    """G_{lam, s} = {i : |x*_i| >= sqrt(2 lam) s}; shrinks as lam or s grows."""
    if not (math.isfinite(lam) and lam > 0 and math.isfinite(s) and s > 0):
        raise ValueError(f"level sets need finite lam > 0 and s > 0, got lam={lam!r}, s={s!r}")
    cut = math.sqrt(2.0 * lam) * s
    members = truth.support[np.abs(truth.values) >= cut]
    return LevelSet(lam=float(lam), s=float(s), indices=np.asarray(members, dtype=np.intp))
