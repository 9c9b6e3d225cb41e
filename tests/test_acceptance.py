"""End-to-end acceptance gates.

Each criterion prints one ``[acceptance] ... PASS/FAIL`` line (visible with
``pytest -s``) and asserts its stated tolerances, including the runtime
budgets. Module-scoped fixtures cache the expensive sweeps so later criteria
(optimality post-check, determinism) can reuse their configurations.
"""

import itertools
import math
import time

import numpy as np
import pytest

from l0kit import (CAP_HIT, CONVERGED, DenseOperator, SolverConfig, bruteforce_l0_min,
                   certify, check_coordinatewise_min, check_onestep_bounds_mip,
                   gen_gaussian_operator, gen_sparse_signal, mutual_coherence,
                   oracle_solution, pdas_inner, pdasc, rip_constant_bruteforce,
                   relative_l2, solve_cg, solve_direct, synthesize_instance,
                   xi_interval_mip)
from l0kit.harness import ExperimentConfig, make_instance, run_sweep, sweep_table_csv
from conftest import (example1_pair, near_orthogonal_operator,
                      randomized_union_operator, union_dictionary)


def _verdict(name, ok, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


# --------------------------------------------------------------------------- 1

def test_criterion_1_example1_regression():
    op, y = example1_pair(mu=-0.5)
    lam = 0.5 * 0.3**2
    args = (op, y, lam, np.zeros(2), np.zeros(2), [0], 6)
    pdas_inner(*args)  # warm-up so allocator noise stays out of the timing
    t0 = time.perf_counter()
    res = pdas_inner(*args)
    elapsed = time.perf_counter() - t0
    sets = [[int(i) for i in a] for a in res.active_sets]
    sequence_ok = sets == [[0], [1], [0], [1], [0], [1]]
    _verdict("criterion 1 (alternation regression)",
             sequence_ok and res.status == CAP_HIT and elapsed < 1e-3,
             f"sets={sets}, status={res.status}, elapsed={elapsed * 1e6:.0f}us")


# --------------------------------------------------------------------------- 2

@pytest.fixture(scope="module")
def theorem6_suite():
    t0 = time.perf_counter()
    runs = []
    seed = 0
    while len(runs) < 50:
        op = gen_gaussian_operator(256, 512, seed=seed)
        truth = gen_sparse_signal(512, 2, 10.0, seed=10_000 + seed)
        inst = synthesize_instance(op, truth, 0.0, seed=20_000 + seed)
        seed += 1
        nu = mutual_coherence(op)
        cert = certify(op, truth, inst.noise_level, 0.5, coherence=nu)
        if not cert.mip_conv_ok:
            continue
        rho = (cert.rho_interval[0] + 1.0) / 2.0
        # the smallest N whose grid ratio (1e-15)^(1/N) is at least rho
        N = max(1, math.ceil(-math.log(1e15) / math.log(rho)))
        cfg = SolverConfig(N=N, J_max=5,
                           eps_bar=1e-10 * float(np.linalg.norm(inst.y)))
        report = pdasc(op, inst.y, cfg, truth=truth)
        runs.append((op, inst, report))
    return runs, time.perf_counter() - t0


def test_criterion_2_theorem6_convergence(theorem6_suite):
    runs, elapsed = theorem6_suite
    converged = all(r.status == CONVERGED for _, _, r in runs)
    inside = all(rec.excess_outside_true == 0 for _, _, r in runs for rec in r.records)
    exact = True
    for op, inst, report in runs:
        xo = oracle_solution(op, inst.truth.support, inst.y)
        exact &= bool(np.array_equal(report.support_final, inst.truth.support))
        exact &= bool(np.linalg.norm(report.x_final - xo) <= 1e-8)
    _verdict("criterion 2 (finite-step convergence suite)",
             converged and inside and exact and elapsed < 60.0,
             f"50 certified instances, converged={converged}, subset={inside}, "
             f"oracle={exact}, elapsed={elapsed:.1f}s")


# --------------------------------------------------------------------------- 3

@pytest.fixture(scope="module")
def global_min_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    runs = []
    while len(runs) < 100:
        p = int(rng.integers(6, 11))
        T = int(rng.integers(1, 3))
        op = near_orthogonal_operator(p, 0.05, rng)
        R = 1.0 if T == 1 else float(rng.uniform(1.0, 4.0))
        truth = gen_sparse_signal(p, T, R, int(rng.integers(1 << 32)))
        sigma = float(rng.choice([0.0, 1e-3]))
        inst = synthesize_instance(op, truth, sigma, int(rng.integers(1 << 32)))
        nu = mutual_coherence(op)
        beta = inst.noise_level / truth.min_abs
        xi = xi_interval_mip(nu, T, beta, truth.min_abs)
        if xi is None or not 0.5 * inst.noise_level**2 < xi:
            continue
        lam = (0.5 * inst.noise_level**2 + xi) / 2.0
        support_bf, _, _ = bruteforce_l0_min(op, inst.y, lam, min(T + 2, p))
        eps_bar = inst.noise_level if inst.noise_level > 0 \
            else 1e-10 * float(np.linalg.norm(inst.y))
        report = pdasc(op, inst.y, SolverConfig(N=100, J_max=5, eps_bar=eps_bar),
                       truth=truth)
        runs.append((op, inst, report, support_bf))
    return runs, time.perf_counter() - t0


def test_criterion_3_bruteforce_equivalence(global_min_suite):
    runs, elapsed = global_min_suite
    failures = []
    for op, inst, report, support_bf in runs:
        ok = (np.array_equal(support_bf, inst.truth.support)
              and np.array_equal(report.support_final, inst.truth.support))
        if not ok:
            failures.append((list(support_bf), list(inst.truth.support),
                             list(report.support_final)))
    _verdict("criterion 3 (brute-force global-minimum equivalence)",
             not failures and elapsed < 60.0,
             f"100 gated instances, failures={len(failures)}, elapsed={elapsed:.1f}s")


# --------------------------------------------------------------------------- 4

def test_criterion_4_onestep_bound_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    T, n, p = 3, 30, 60
    tol = 1e-10
    violations = 0
    # sign flips and permutations leave the coherence unchanged: compute once
    nu = mutual_coherence(DenseOperator(union_dictionary(n)))
    assert nu < 1.0 / (T - 1)
    for _ in range(1000):
        op = randomized_union_operator(n, rng)
        truth = gen_sparse_signal(p, T, float(rng.uniform(1.0, 10.0)),
                                  int(rng.integers(1 << 32)))
        inst = synthesize_instance(op, truth, float(rng.choice([0.0, 1e-3, 1e-2])),
                                   int(rng.integers(1 << 32)))
        size = int(rng.integers(0, T + 1))
        active = np.sort(rng.choice(truth.support, size=size, replace=False))

        # coherence estimates on the drawn sets (arbitrary disjoint A, B)
        mat = op.mat
        if size:
            x_a = solve_direct(op, active, inst.y).x[active]
            rest = np.setdiff1d(truth.support, active)
            if np.max(np.abs(mat[:, active].T @ inst.y)) \
                    > np.linalg.norm(inst.y) + tol:
                violations += 1
            if rest.size and np.max(np.abs(mat[:, rest].T @ (mat[:, active] @ x_a))) \
                    > size * nu * np.max(np.abs(x_a)) + tol:
                violations += 1
            if (size - 1) * nu < 1.0:
                gram = mat[:, active].T @ mat[:, active]
                if np.max(np.abs(np.linalg.solve(gram, x_a))) \
                        > np.max(np.abs(x_a)) / (1.0 - (size - 1) * nu) + tol:
                    violations += 1

        # one-step primal/dual estimates on A subset of A*
        report = check_onestep_bounds_mip(op, inst, active, coherence=nu)
        if not report.applicable or not report.all_passed(tol):
            violations += 1
    elapsed = time.perf_counter() - t0
    _verdict("criterion 4 (coherence bound sweep)",
             violations == 0 and elapsed < 30.0,
             f"1000 draws, violations={violations}, elapsed={elapsed:.1f}s")


# --------------------------------------------------------------------------- 5

def test_criterion_5_rip_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    tol = 1e-10
    monotone_ok = True
    violations = 0
    for mat_seed in range(20):
        op = gen_gaussian_operator(8, 12, seed=5000 + mat_seed)
        deltas = {s: rip_constant_bruteforce(op, s) for s in range(1, 7)}
        monotone_ok &= deltas[1] <= deltas[2] + 1e-12 <= deltas[3] + 2e-12
        mat = op.mat
        for _ in range(25):  # 20 x 25 = 500 probes
            a = int(rng.integers(1, 3))  # |A| <= 2 keeps the Gram invertible
            b = int(rng.integers(1, 5))
            idx = rng.choice(12, size=a + b, replace=False)
            A, B = np.sort(idx[:a]), np.sort(idx[a:])
            x_a = rng.standard_normal(a)
            y = rng.standard_normal(8)
            gram = mat[:, A].T @ mat[:, A]
            d_a = deltas[a]
            checks = [
                (1 + d_a) * np.linalg.norm(x_a) - np.linalg.norm(gram @ x_a),
                np.linalg.norm(gram @ x_a) - (1 - d_a) * np.linalg.norm(x_a),
                np.linalg.norm(x_a) / (1 - d_a) - np.linalg.norm(np.linalg.solve(gram, x_a)),
                np.linalg.norm(np.linalg.solve(gram, x_a)) - np.linalg.norm(x_a) / (1 + d_a),
                deltas[a + b] - np.linalg.norm(mat[:, A].T @ mat[:, B], 2),
                np.linalg.norm(y) / math.sqrt(1 - d_a)
                - np.linalg.norm(np.linalg.pinv(mat[:, A]) @ y),
            ]
            violations += sum(1 for m in checks if m < -tol)
    elapsed = time.perf_counter() - t0
    _verdict("criterion 5 (RIP brute-force oracle)",
             monotone_ok and violations == 0 and elapsed < 60.0,
             f"20 matrices, 500 probes, monotone={monotone_ok}, "
             f"violations={violations}, elapsed={elapsed:.1f}s")


# --------------------------------------------------------------------------- 6

FIG4_CONFIG = {
    "matrix": {"kind": "gaussian", "n": 500, "p": 1000},
    "signal": {"T_values": [50, 100, 150], "R": 1000.0},
    "sigma": 1e-3,
    "trials": 20,
    "seed": 1000,
    "solvers": [{"name": "pdasc", "N": 100, "J_max": 5}],
}


@pytest.fixture(scope="module")
def fig4_sweep():
    config = ExperimentConfig.from_json(FIG4_CONFIG)
    t0 = time.perf_counter()
    result = run_sweep(config)
    return config, result, time.perf_counter() - t0


def test_criterion_6_recovery_probability_echo(fig4_sweep):
    _, result, elapsed = fig4_sweep
    probs = {agg["T"]: agg["recovery_prob"] for agg in result["aggregates"]}
    slack = 1.0 / 20.0  # one trial of sampling slack
    head_ok = probs[50] >= 0.9
    monotone_ok = probs[50] >= probs[100] - slack and probs[100] >= probs[150] - slack
    _verdict("criterion 6 (recovery-probability echo)",
             head_ok and monotone_ok and elapsed < 600.0,
             f"probs={probs}, elapsed={elapsed:.1f}s")


# --------------------------------------------------------------------------- 7

BENCH_CONFIG = {
    "matrix": {"kind": "gaussian", "n": 500, "p": 2000},
    "signal": {"T": 150, "R": 1000.0},
    "sigma": 1e-2,
    "trials": 10,
    "seed": 2000,
    "solvers": [{"name": "pdasc", "N": 50, "J_max": 1}, {"name": "omp"}],
}


@pytest.fixture(scope="module")
def bench_sweep():
    config = ExperimentConfig.from_json(BENCH_CONFIG)
    t0 = time.perf_counter()
    result = run_sweep(config)
    return config, result, time.perf_counter() - t0


def test_criterion_7_timing_table_echo(bench_sweep):
    config, result, elapsed = bench_sweep
    by_solver = {agg["solver"]: agg for agg in result["aggregates"]}
    pdasc_agg = by_solver["pdasc(50,1)"]
    omp_agg = by_solver["omp"]
    oracle_rels = []
    for trial in range(config.trials):
        inst, _ = make_instance(config, 150, trial)
        xo = oracle_solution(inst.operator, inst.truth.support, inst.y)
        oracle_rels.append(relative_l2(xo, inst.truth.dense()))
    oracle_med = float(np.median(oracle_rels))
    error_ok = pdasc_agg["med_rel_l2"] <= 2.0 * oracle_med
    # calibrated ratio ~0.2 on this setup; the criterion only needs < 1
    time_ok = pdasc_agg["med_time_s"] < omp_agg["med_time_s"]
    _verdict("criterion 7 (timing/error table echo)",
             error_ok and time_ok and elapsed < 300.0,
             f"pdasc_rel={pdasc_agg['med_rel_l2']:.2e} vs 2x oracle {2 * oracle_med:.2e}, "
             f"pdasc_t={pdasc_agg['med_time_s']:.2f}s vs omp_t={omp_agg['med_time_s']:.2f}s, "
             f"elapsed={elapsed:.1f}s")


# --------------------------------------------------------------------------- 8

def test_criterion_8_optimality_post_check(theorem6_suite, global_min_suite,
                                           fig4_sweep, bench_sweep):
    checked = 0
    failed = 0
    for op, inst, report in theorem6_suite[0]:
        if report.status == CONVERGED:
            ok, _ = check_coordinatewise_min(op, inst.y, report.x_final,
                                             report.lam_final, tol=1e-8)
            checked += 1
            failed += 0 if ok else 1
    for op, inst, report, _ in global_min_suite[0]:
        if report.status == CONVERGED:
            ok, _ = check_coordinatewise_min(op, inst.y, report.x_final,
                                             report.lam_final, tol=1e-8)
            checked += 1
            failed += 0 if ok else 1
    # sweep trials are deterministic: re-running the solver reproduces the
    # exact outputs criteria 6 and 7 scored
    for fixture in (fig4_sweep, bench_sweep):
        config = fixture[0]
        entry = next(s for s in config.solvers if s["name"] == "pdasc")
        for T in config.t_values():
            for trial in range(config.trials):
                inst, _ = make_instance(config, T, trial)
                cfg = SolverConfig(N=entry["N"], J_max=entry["J_max"],
                                   eps_bar=inst.noise_level)
                report = pdasc(inst.operator, inst.y, cfg)
                if report.status != CONVERGED:
                    continue
                ok, _ = check_coordinatewise_min(inst.operator, inst.y, report.x_final,
                                                 report.lam_final, tol=1e-8)
                checked += 1
                failed += 0 if ok else 1
    _verdict("criterion 8 (optimality post-check)",
             failed == 0 and checked >= 200,
             f"checked={checked} converged runs, failed={failed}")


# --------------------------------------------------------------------------- 9

def test_criterion_9_cg_direct_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(20, 60))
        p = 2 * n
        op = gen_gaussian_operator(n, p, seed=int(rng.integers(1 << 32)))
        y = rng.standard_normal(n)
        size = int(rng.integers(1, min(12, n // 2)))
        active = np.sort(rng.choice(p, size=size, replace=False))
        direct = solve_direct(op, active, y)
        cg = solve_cg(op, active, y, noise_level=1.0, max_iters=500, tol_factor=1e-13)
        rel = float(np.linalg.norm(cg.x[active] - direct.x[active])
                    / np.linalg.norm(direct.x[active]))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _verdict("criterion 9 (CG/direct oracle equivalence)",
             worst <= 1e-8 and elapsed < 10.0,
             f"200 systems, worst rel diff={worst:.2e}, elapsed={elapsed:.1f}s")


# -------------------------------------------------------------------------- 10

def _stub_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


def _strip_time_column(csv_text):
    lines = csv_text.splitlines()
    keep = [i for i, name in enumerate(lines[0].split(",")) if not name.endswith("time_s")]
    return "\n".join(",".join(np.array(line.split(","))[keep]) for line in lines)


def test_criterion_10_determinism(fig4_sweep, bench_sweep):
    identical = True
    linked = True
    for fixture in (fig4_sweep, bench_sweep):
        config, real_result, _ = fixture
        first = sweep_table_csv(run_sweep(config, clock=_stub_clock())["aggregates"])
        second = sweep_table_csv(run_sweep(config, clock=_stub_clock())["aggregates"])
        identical &= first == second
        # and the stubbed runs reproduce the real runs' non-time columns
        real = sweep_table_csv(real_result["aggregates"])
        linked &= _strip_time_column(first) == _strip_time_column(real)
    _verdict("criterion 10 (byte-identical re-runs)",
             identical and linked,
             f"byte_identical={identical}, matches_real_runs={linked}")
