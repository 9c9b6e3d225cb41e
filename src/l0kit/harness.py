"""Batch experiment driver: recovery-probability sweeps with their error and
timing aggregates, the metrics they report, and the CSV writer for every table."""

import csv
import io
import math
import numbers
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import baselines
from .operators import gen_bernoulli_operator, gen_gaussian_operator, gen_partial_dct_operator
from .pdasc import SolverConfig, pdasc
from .problem import gen_sparse_signal, synthesize_instance
from .theory import certify

__all__ = [
    "ConfigError", "ExperimentConfig", "MetricRow",
    "run_sweep", "psnr", "relative_l2", "abs_linf", "exact_support",
    "sweep_table_csv", "rows_csv", "records_csv",
]

_MATRIX_GENERATORS = {
    "gaussian": gen_gaussian_operator,
    "bernoulli": gen_bernoulli_operator,
    "partial_dct": gen_partial_dct_operator,
}


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


@dataclass
class ExperimentConfig:
    """One batch experiment: matrix ensemble, signal law, solvers, trial count.

    Every trial t runs with derived seed = base seed + t; operator, signal and
    noise streams are spawned from that seed, so identical configs reproduce
    identical instances byte for byte.
    """

    matrix: dict
    signal: dict
    sigma: float
    trials: int
    seed: int
    solvers: list = field(default_factory=list)
    runners: list = field(init=False, repr=False, compare=False)  # (label, run) per entry

    def __post_init__(self):
        _check_section("matrix", self.matrix)
        _check_section("signal", self.signal)
        kind = self.matrix.get("kind")
        if kind not in _MATRIX_GENERATORS:
            raise ConfigError(f"unknown matrix kind {kind!r}")
        n, p = self.matrix.get("n"), self.matrix.get("p")
        if not (_is_int(n) and _is_int(p) and 0 < n <= p):
            raise ConfigError(f"matrix dims must satisfy 0 < n <= p, got n={n}, p={p}")
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (_is_finite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        R = self.signal.get("R", 1.0)
        if not (_is_finite(R) and R >= 1):
            raise ConfigError(f"signal R must be finite and >= 1, got {R!r}")
        ts = self.signal.get("T_values", [self.signal.get("T")])
        if not (isinstance(ts, list) and ts):
            raise ConfigError(f"signal T_values must be a non-empty list, got {ts!r}")
        for t in ts:
            if not (_is_int(t) and 1 <= t <= n):
                raise ConfigError(f"signal sparsity T={t!r} must be an integer in 1..n={n}")
        if not self.solvers:
            raise ConfigError("at least one solver entry is required")
        # plain Python numbers, so an integer sigma still prints as a float in every table
        self.sigma, self.trials, self.seed = float(self.sigma), int(self.trials), int(self.seed)
        self.runners = [_solver_runner(entry) for entry in self.solvers]  # bad ones fail here

    def runner(self, index):
        """The ``(label, run)`` pair of solver entry ``index``."""
        if not 0 <= index < len(self.runners):
            raise ConfigError(f"solver index {index} outside 0..{len(self.runners) - 1}")
        return self.runners[index]

    def t_values(self):
        return [int(t) for t in self.signal.get("T_values", [self.signal.get("T")])]

    @property
    def dynamic_range(self):
        return float(self.signal.get("R", 1.0))

    @classmethod
    def from_json(cls, doc):
        _check_section("config", doc)
        try:
            return cls(matrix=doc["matrix"], signal=doc["signal"],
                       sigma=doc.get("sigma", 0.0), trials=doc.get("trials", 1),
                       seed=doc.get("seed", 0), solvers=list(doc.get("solvers", [])))
        except (KeyError, TypeError) as err:
            raise ConfigError(f"bad experiment config: {err}") from None


_KNOWN_KEYS = {
    "config": {"matrix", "signal", "sigma", "trials", "seed", "solvers"},
    "matrix": {"kind", "n", "p"},
    "signal": {"T", "T_values", "R"},
}


def _check_section(name, section):
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object, got {section!r}")
    unknown = sorted(set(section) - _KNOWN_KEYS[name])
    if unknown:
        raise ConfigError(f"unknown {name} keys {unknown}; known: {sorted(_KNOWN_KEYS[name])}")


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class MetricRow:
    solver: str
    T: int
    R: float
    sigma: float
    trial_seed: int
    wall_time_s: float
    rel_l2: float
    abs_linf: float
    exact_support: bool
    psnr_db: float
    status: str
    error: str | None = None


def relative_l2(x_hat, x_true):
    return float(np.linalg.norm(x_hat - x_true) / np.linalg.norm(x_true))


def abs_linf(x_hat, x_true):
    return float(np.max(np.abs(x_hat - x_true)))


def exact_support(x_hat, support):
    """Set equality of the exact nonzero pattern with the true support."""
    return np.array_equal(np.flatnonzero(x_hat), np.sort(np.asarray(support, dtype=np.intp)))


def psnr(x_hat, x_ref):
    """10 log10(V^2 / MSE) with V the largest magnitude over both vectors;
    +inf when the reconstruction is exact."""
    x_hat = np.asarray(x_hat, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    if x_hat.shape != x_ref.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_ref.shape}")
    mse = float(np.mean((x_hat - x_ref) ** 2))
    if mse == 0.0:
        return math.inf
    v = max(float(np.max(np.abs(x_hat))), float(np.max(np.abs(x_ref))))
    return 10.0 * math.log10(v**2 / mse)


def make_instance(config, T, trial):
    """Deterministically synthesize the instance for one trial."""
    if trial < 0:
        raise ConfigError(f"trial must be >= 0, got {trial}")
    n, p = config.matrix["n"], config.matrix["p"]
    run_seed = config.seed + trial
    op_seed, sig_seed, noise_seed = np.random.SeedSequence(run_seed).spawn(3)
    op = _MATRIX_GENERATORS[config.matrix["kind"]](n, p, op_seed)
    truth = gen_sparse_signal(p, T, config.dynamic_range, sig_seed)
    inst = synthesize_instance(op, truth, config.sigma, noise_seed)
    return inst, run_seed


def _solver_runner(spec):
    """Turn one solver entry of the config into (label, callable(instance) -> report).

    The solver config is built and validated once; per instance the callable
    only fills in the field the entry leaves to the instance. Solvers are
    looked up on their modules at call time, so rebinding them takes effect."""
    spec = dict(spec)
    name = spec.pop("name", None)
    if name == "pdasc":
        label = spec.pop("label", f"pdasc({spec.get('N', 100)},{spec.get('J_max', 5)})")
        eps_bar = spec.pop("eps_bar", None)
        try:
            cfg = SolverConfig(eps_bar=1.0 if eps_bar is None else eps_bar, **spec)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad pdasc solver entry: {err}") from None

        def run(inst):
            solver_cfg = cfg
            if eps_bar is None:
                # default: the instance noise level; a noiseless instance gets
                # a near-zero floor so the discrepancy check is reachable
                level = inst.noise_level if inst.noise_level > 0 \
                    else 1e-10 * float(np.linalg.norm(inst.y))
                solver_cfg = replace(cfg, eps_bar=level)
            return pdasc(inst.operator, inst.y, solver_cfg, truth=inst.truth)

        return label, run
    if name not in ("omp", "htp", "cosamp", "iht", "aiht"):
        raise ConfigError(f"unknown solver {name!r}")
    label = spec.pop("label", name)
    if name == "aiht":
        spec.setdefault("step_policy", "adaptive")
    T = spec.pop("T", None)
    try:
        cfg = baselines.GreedyConfig(T=1 if T is None else T, **spec)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {name} solver entry: {err}") from None
    method = "iht" if name == "aiht" else name

    def run(inst):
        solver_cfg = cfg if T is not None else replace(cfg, T=inst.truth.sparsity)
        return getattr(baselines, method)(inst.operator, inst.y, solver_cfg, truth=inst.truth)

    return label, run


def _run_trial(inst, x_true, run, clock, **cell):
    """One solver on one instance; ``cell`` holds the row's solver, T, R, sigma and seed."""
    try:
        t0 = clock()
        report = run(inst)
        elapsed = clock() - t0
    except Exception as err:  # recorded per trial, never aborts the sweep
        return MetricRow(**cell, wall_time_s=math.nan, rel_l2=math.nan,
                         abs_linf=math.nan, exact_support=False, psnr_db=math.nan,
                         status="error", error=repr(err))
    x_hat = report.x_final
    return MetricRow(**cell, wall_time_s=elapsed,
                     rel_l2=relative_l2(x_hat, x_true), abs_linf=abs_linf(x_hat, x_true),
                     exact_support=exact_support(x_hat, inst.truth.support),
                     psnr_db=psnr(x_hat, x_true), status=report.status)


def run_sweep(config, clock=time.perf_counter):
    """Run every (T, solver, trial) cell of the config, building each (T, trial)
    instance once for all solvers; returns per-trial rows in (T, solver, trial)
    order and per-cell aggregates (recovery probability, error medians, status
    counts) in (T, solver) order."""
    rows, aggregates = [], []
    for T in config.t_values():
        cells = [[] for _ in config.runners]   # by entry index: labels may repeat
        for trial in range(config.trials):
            inst, run_seed = make_instance(config, T, trial)
            x_true = inst.truth.dense()
            for cell, (solver_id, run) in zip(cells, config.runners):
                cell.append(_run_trial(inst, x_true, run, clock, solver=solver_id, T=T,
                                       R=config.dynamic_range, sigma=config.sigma,
                                       trial_seed=run_seed))
        for cell, (solver_id, _) in zip(cells, config.runners):
            rows.extend(cell)
            statuses = Counter(r.status for r in cell)
            aggregates.append({
                "solver": solver_id, "T": T, "R": config.dynamic_range,
                "sigma": config.sigma, "trials": config.trials,
                "recovery_prob": float(np.mean([r.exact_support for r in cell])),
                "med_rel_l2": float(np.median([r.rel_l2 for r in cell])),
                "med_abs_linf": float(np.median([r.abs_linf for r in cell])),
                "med_time_s": float(np.median([r.wall_time_s for r in cell])),
                "n_error": statuses["error"], "status_counts": dict(statuses),
            })
    return {"rows": rows, "aggregates": aggregates}


def _format(value):
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _table_csv(columns, dicts):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for d in dicts:
        writer.writerow([_format(d[c]) for c in columns])
    return buf.getvalue()


def sweep_table_csv(aggregates):
    return _table_csv(
        ["solver", "T", "R", "sigma", "trials", "recovery_prob",
         "med_rel_l2", "med_abs_linf", "med_time_s"], aggregates)


def rows_csv(rows):
    return _table_csv([f.name for f in fields(MetricRow)], [asdict(r) for r in rows])


def records_csv(report):
    """Per-step records of a solve report, from the same dicts as its JSON."""
    return _table_csv(["k", "lambda", "active_size", "inner_iters", "residual",
                       "overlap_true", "excess_outside_true"], report.to_json()["records"])


def certify_instance(config, trial=0, rho=None):
    """Theory certificate for one configured instance (rho defaults to the
    midpoint of the admissible interval when it exists)."""
    inst, _ = make_instance(config, config.t_values()[0], trial)
    if rho is None:
        probe = certify(inst.operator, inst.truth, inst.noise_level, 0.5)
        lo = probe.rho_interval[0]
        rho = (lo + 1.0) / 2.0 if lo < 1.0 else 0.5
    return certify(inst.operator, inst.truth, inst.noise_level, rho)
