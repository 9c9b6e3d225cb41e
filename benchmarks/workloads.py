"""The benchmark's workloads, its timed loop and its correctness gate.

Load model: a closed loop with one client. One process solves back to back;
each solve starts when the previous one returns. Every input is drawn from
seed sequences keyed by (--seed, stream, index), so a seed fixes the instance
stream; l0kit only ever sees the generated operators, data and configs.

An untimed warm-up solve runs before anything is timed. Operator and instance
building is timed as set-up, never as solve time, and the correctness gate
runs outside every timed region.
"""

import contextlib
import math
import resource
import time
from dataclasses import dataclass

import numpy as np

from tracing import Tracer, l0kit_modules

L0 = l0kit_modules()

R = 100.0                 # dynamic range of every signal
PDASC = {"N": 100, "J_max": 5}
SETUP_REPS = 3            # operator builds per run on the one-operator workloads, at least,
SETUP_MIN_S = 2.0         # and until this much set-up time is spent
CHECK_TOL = 1e-8          # coordinatewise-minimum tolerance, as acceptance criterion 8
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WARMUP_INDEX = 2**31 - 1  # instance index of the untimed warm-up; the loop never reaches it

OPERATOR, SIGNAL, NOISE, SWEEP = range(4)   # seed streams

now = time.perf_counter


def seed_seq(seed, stream, index):
    return np.random.SeedSequence([seed, stream, index])


# ------------------------------------------------------------------ checking

def check_solve(op, y, report, eps_bar, lsq_mode):
    """Reasons a PDASC solve fails the correctness gate; empty when it passes.

    Rejects non-finite output. A converged run must meet the discrepancy level
    it claims and be a coordinatewise minimizer at lam_final (tol 1e-8). A CG
    inner solve stops after at most ``cg_max_iters`` iterations by design, so
    its dual does not vanish on the active set; CG runs are held to every
    other condition.
    """
    x = np.asarray(report.x_final, dtype=float)
    if not np.all(np.isfinite(x)):
        return ["non-finite x_final"]
    if report.status != L0["pdasc"].CONVERGED:
        return []
    problems = []
    residual = float(np.linalg.norm(y - op.apply(x)))
    if not residual <= eps_bar * (1 + 1e-9):
        problems.append(f"converged with residual {residual:.6g} > eps_bar {eps_bar:.6g}")
    _, violations = L0["pdasc"].check_coordinatewise_min(op, y, x, report.lam_final,
                                                         tol=CHECK_TOL)
    if lsq_mode == "cg":
        violations = [v for v in violations if v.kind != "dual_nonzero_on_active"]
    if violations:
        problems.append(f"{len(violations)} coordinatewise-minimum violations, "
                        f"first {violations[0]}")
    return problems


class Outcome:
    """Per-solve results of one phase: timings, quality and gate verdicts."""

    def __init__(self):
        self.setup_s = []
        self.solve_s = []
        self.wall_s = 0.0
        self.exact = []
        self.rel_l2 = []
        self.converged = []
        self.failures = []      # (solve index, reason)

    @property
    def attempted(self):
        return len(self.exact)

    def add(self, exact, rel_l2, converged, problems):
        idx = self.attempted
        self.exact.append(bool(exact))
        self.rel_l2.append(float(rel_l2))
        self.converged.append(bool(converged))
        self.failures.extend((idx, p) for p in problems)

    @property
    def failed(self):
        return len({i for i, _ in self.failures})

    def end_to_end(self):
        """The nine end-to-end metrics (solve_s_tail only with enough solves)."""
        n = self.attempted
        m = {
            "setup_s": (float(np.median(self.setup_s)), "s"),
            "solve_s_p50": (float(np.median(self.solve_s)), "s"),
            "solves_per_s": (n / self.wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "exact_support_frac": (float(np.mean(self.exact)), "ratio"),
            "rel_l2_p50": (float(np.median(self.rel_l2)), "ratio"),
            "converged_frac": (float(np.mean(self.converged)), "ratio"),
            "failed_frac": (self.failed / n, "ratio"),
        }
        out = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
        tail = tail_percentile(len(self.solve_s))
        if tail is not None:
            out["solve_s_tail"] = {"value": float(np.percentile(self.solve_s, tail)),
                                   "unit": "s", "percentile": tail,
                                   "samples": len(self.solve_s)}
        return out


def tail_percentile(samples):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if samples * (1 - q / 100) >= 10:
            return q
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class SolveWorkload:
    """PDASC solves on one operator ensemble, N=100, J_max=5, R=100."""

    name: str
    why: str
    generator: str          # operator generator in l0kit.operators
    n: int
    p: int
    T: int
    sigma: float
    lsq_mode: str
    fresh_operator: bool    # a new operator per solve (Monte Carlo) or one per run
    nominal_solve_s: float  # sizes the fixed plan of a traced run

    def operator(self, seed, i):
        return getattr(L0["operators"], self.generator)(self.n, self.p,
                                                        seed_seq(seed, OPERATOR, i))

    def instance(self, op, seed, i):
        truth = L0["problem"].gen_sparse_signal(self.p, self.T, R, seed_seq(seed, SIGNAL, i))
        return L0["problem"].synthesize_instance(op, truth, self.sigma,
                                                 seed_seq(seed, NOISE, i))

    def first_instance(self, seed):
        return self.instance(self.operator(seed, 0), seed, 0)

    def _solve(self, inst, outcome, tracer):
        cfg = L0["pdasc"].SolverConfig(eps_bar=inst.noise_level, lsq_mode=self.lsq_mode,
                                       **PDASC)
        with _span(tracer, "bench.solve"):
            t0 = now()
            report = L0["pdasc"].pdasc(inst.operator, inst.y, cfg)
            dt = now() - t0
        with _paused(tracer):
            x_true = inst.truth.dense()
            outcome.add(L0["harness"].exact_support(report.x_final, inst.truth.support),
                        L0["harness"].relative_l2(report.x_final, x_true),
                        report.status == L0["pdasc"].CONVERGED,
                        check_solve(inst.operator, inst.y, report, cfg.eps_bar, self.lsq_mode))
        return dt

    def run(self, seed, keep_going, tracer=None, setup_reps=SETUP_REPS,
            setup_min_s=SETUP_MIN_S):
        """Solve instance 0, 1, ... while keep_going(i, elapsed) holds."""
        out = Outcome()
        op = None
        if not self.fresh_operator:
            j = 0
            while j < setup_reps or sum(out.setup_s) < setup_min_s:
                with _span(tracer, "bench.setup"):
                    t0 = now()
                    built = self.operator(seed, j)
                    dt = now() - t0
                out.setup_s.append(dt)
                if j == 0:
                    op, out.wall_s = built, dt   # later builds only steady setup_s
                del built
                j += 1
        with _paused(tracer):   # untimed warm-up: first-call BLAS and FFT costs
            warm = op if op is not None else self.operator(seed, WARMUP_INDEX)
            self._solve(self.instance(warm, seed, WARMUP_INDEX), Outcome(), None)
        start = now()
        i = 0
        while keep_going(i, now() - start):
            with _span(tracer, "bench.setup"):
                t0 = now()
                cur = self.operator(seed, i) if self.fresh_operator else op
                inst = self.instance(cur, seed, i)
                t1 = now()
            if self.fresh_operator:
                out.setup_s.append(t1 - t0)
            dt = self._solve(inst, out, tracer)
            out.solve_s.append(dt)
            out.wall_s += t1 - t0 + dt
            i += 1
        return out

    def plan(self, seconds):
        """Fixed solve count of a traced phase: about half of --seconds."""
        return max(1, round(seconds / 2 / self.nominal_solve_s))


SWEEP_SOLVERS = [
    {"name": "pdasc", "N": 80, "J_max": 5},
    {"name": "pdasc", "N": 80, "J_max": 5, "lsq_mode": "cg", "label": "pdasc-cg"},
    {"name": "omp"}, {"name": "htp"}, {"name": "cosamp"}, {"name": "aiht"},
]


@dataclass(frozen=True)
class SweepWorkload:
    """harness.run_sweep on the demos/05 sweep config with six solvers."""

    name: str
    why: str
    trials: int
    nominal_sweep_s: float

    def config(self, seed, k, trials=None):
        # trial t of sweep k runs with seed base + t; bases come from the seed stream
        base = int(seed_seq(seed, SWEEP, k).generate_state(1)[0])
        return L0["harness"].ExperimentConfig.from_json({
            "matrix": {"kind": "gaussian", "n": 200, "p": 400},
            "signal": {"T_values": [20, 40, 60], "R": R},
            "sigma": 1e-3, "trials": trials or self.trials, "seed": base,
            "solvers": SWEEP_SOLVERS,
        })

    def first_instance(self, seed):
        return L0["harness"].make_instance(self.config(seed, 0), 20, 0)[0]

    def run(self, seed, keep_going, tracer=None):
        """Sweep 0, 1, ... while keep_going(k, elapsed) holds."""
        out = Outcome()
        harness = L0["harness"]
        make_instance = harness.make_instance
        in_setup = [0.0]
        captured = []

        def timed_make_instance(*args, **kwargs):
            t0 = now()
            try:
                return make_instance(*args, **kwargs)
            finally:
                in_setup[0] += now() - t0

        solve = harness.pdasc

        def capturing_pdasc(op, y, config, truth=None):
            report = solve(op, y, config, truth=truth)
            captured.append((y, config, report))
            return report

        with _paused(tracer):   # untimed warm-up: one trial of every cell
            harness.run_sweep(self.config(seed, WARMUP_INDEX, trials=1))
        start = now()
        k = 0
        with _rebound(harness, make_instance=timed_make_instance, pdasc=capturing_pdasc):
            while keep_going(k, now() - start):
                config = self.config(seed, k)
                in_setup[0] = 0.0
                captured.clear()
                with _span(tracer, "bench.sweep"):
                    t0 = now()
                    rows = harness.run_sweep(config)["rows"]
                    out.wall_s += now() - t0
                out.setup_s.append(in_setup[0])
                with _paused(tracer):
                    self._check(config, rows, captured, make_instance, out)
                k += 1
        return out

    @staticmethod
    def _check(config, rows, captured, make_instance, out):
        """Gate every row. Captured PDASC reports are matched to their rows
        through the instance data, re-derived from the config."""
        where = {}
        for T in config.t_values():
            for trial in range(config.trials):
                inst, run_seed = make_instance(config, T, trial)
                where[inst.y.tobytes()] = (inst.operator, T, run_seed)
        gate = {}
        for y, cfg, report in captured:
            found = where.get(np.asarray(y).tobytes())
            if found is not None:
                op, T, run_seed = found
                gate[(T, run_seed, cfg.lsq_mode)] = check_solve(op, y, report, cfg.eps_bar,
                                                                cfg.lsq_mode)
        modes = {s.get("label", f"pdasc({s['N']},{s['J_max']})"): s.get("lsq_mode", "direct")
                 for s in config.solvers if s["name"] == "pdasc"}
        for row in rows:
            problems = []
            if row.status == "error":
                problems.append(f"{row.solver} raised {row.error}")
            elif not math.isfinite(row.rel_l2):
                problems.append(f"{row.solver} returned non-finite output")
            elif row.solver in modes:
                problems.extend(gate.get((row.T, row.trial_seed, modes[row.solver]),
                                         ["no captured PDASC report for this row"]))
            out.solve_s.append(row.wall_time_s)
            out.add(row.exact_support, row.rel_l2, row.status == "converged", problems)

    def plan(self, seconds):
        """Fixed sweep count of a traced phase: about half of --seconds."""
        return max(1, round(seconds / 2 / self.nominal_sweep_s))


# BENCHMARK.json lists paper-gauss, dct-cg and sweep-gauss; dct-direct runs
# by name only, as its timings are too unsteady to bound (NOTES.md).
WORKLOADS = {w.name: w for w in [
    SolveWorkload(
        name="paper-gauss",
        why="Paper headline case: small restricted systems expose Gram+Cholesky and "
            "fixed per-step cost; fresh operator per solve, so no cross-solve reuse.",
        generator="gen_gaussian_operator", n=500, p=1000, T=100, sigma=1e-2,
        lsq_mode="direct", fresh_operator=True, nominal_solve_s=0.075),
    SolveWorkload(
        name="dct-direct",
        why="One partial-DCT operator reused across signals: per-column DCTs and "
            "Gram+Cholesky dominate; where a column cache or incremental Cholesky must show.",
        generator="gen_partial_dct_operator", n=2000, p=8000, T=200, sigma=1e-2,
        lsq_mode="direct", fresh_operator=False, nominal_solve_s=1.0),
    SolveWorkload(
        name="dct-cg",
        why="Matrix-free CG on a partial DCT: FFT apply/adjoint dominate, no columns "
            "or Gram; set-up is the O(n p log p) row-norm loop.",
        generator="gen_partial_dct_operator", n=4096, p=16384, T=400, sigma=1e-2,
        lsq_mode="cg", fresh_operator=False, nominal_solve_s=0.27),
    SweepWorkload(
        name="sweep-gauss",
        why="harness.run_sweep with PDASC (direct, cg) and OMP/HTP/CoSaMP/AIHT: the only "
            "workload that runs baselines, harness and per-trial instance generation.",
        trials=10, nominal_sweep_s=2.8),
]}


# ------------------------------------------------------------------- driving

def run_timed(workload, seed, seconds):
    """Untraced run: measure for ``seconds`` after set-up and warm-up."""
    return workload.run(seed, lambda i, elapsed: elapsed < seconds)


def run_traced(workload, seed, seconds):
    """The fixed plan twice on the same inputs, untraced then traced.

    Returns (tracer, untraced outcome, traced outcome); the difference of the
    two solve_s_p50 is the tracing overhead.
    """
    count = workload.plan(seconds)
    plain = workload.run(seed, lambda i, elapsed: i < count, **_one_setup(workload))
    tracer = Tracer()
    with tracer.installed():
        traced = workload.run(seed, lambda i, elapsed: i < count, tracer=tracer,
                              **_one_setup(workload))
    return tracer, plain, traced


def _one_setup(workload):
    return {"setup_reps": 1, "setup_min_s": 0.0} if isinstance(workload, SolveWorkload) else {}


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _paused(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.paused()


@contextlib.contextmanager
def _rebound(module, **attrs):
    old = {k: getattr(module, k) for k in attrs}
    for k, v in attrs.items():
        setattr(module, k, v)
    try:
        yield
    finally:
        for k, v in old.items():
            setattr(module, k, v)
