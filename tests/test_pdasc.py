import importlib
import math

import numpy as np
import pytest

from l0kit import (CAP_HIT, CONVERGED, FIXED_POINT, GRID_EXHAUSTED, SINGULAR_GRAM_ABORT,
                   CustomOperator, DenseOperator, GramCache, LambdaRecord,
                   SolverConfig, bruteforce_l0_min,
                   check_coordinatewise_min, continuation_grid, gen_gaussian_operator,
                   gen_partial_dct_operator, gen_sparse_signal, hard_threshold,
                   objective, oracle_solution, pdas_inner, pdasc, synthesize_instance)
from l0kit.harness import ExperimentConfig, make_instance, records_csv
from conftest import CountingDctOperator, example1_pair, orthonormal_operator


# ---------------------------------------------------------------- thresholding

def test_hard_threshold_values():
    assert hard_threshold(0.5, 0.5) == 0.0
    assert hard_threshold(2.0, 0.5) == 2.0
    assert hard_threshold(-2.0, 0.5) == -2.0
    # boundary |v| = sqrt(2 lam) resolves to 0, matching the strict selection rule
    assert hard_threshold(1.0, 0.5) == 0.0
    assert hard_threshold(-1.0, 0.5) == 0.0


def test_hard_threshold_vectorized_and_errors():
    out = hard_threshold(np.array([0.1, -3.0, 1.0]), 0.5)
    assert np.array_equal(out, np.array([0.0, -3.0, 0.0]))
    with pytest.raises(ValueError):
        hard_threshold(1.0, 0.0)
    with pytest.raises(ValueError):
        hard_threshold(1.0, -1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_hard_threshold_rejects_non_finite_lambda(lam):
    # a NaN threshold compares false everywhere and would zero every entry
    with pytest.raises(ValueError, match="finite"):
        hard_threshold(np.array([0.1, -3.0]), lam)


# ------------------------------------------------------------------- objective

def test_objective_zero_vector():
    op = gen_gaussian_operator(10, 20, seed=0)
    y = np.random.default_rng(1).standard_normal(10)
    assert objective(op, y, np.zeros(20), 3.0) == pytest.approx(0.5 * float(y @ y))


def test_objective_at_truth_noiseless():
    op = gen_gaussian_operator(20, 40, seed=2)
    truth = gen_sparse_signal(40, 6, 4.0, seed=3)
    inst = synthesize_instance(op, truth, 0.0, seed=4)
    assert objective(op, inst.y, truth.dense(), 0.25) == pytest.approx(0.25 * 6, abs=1e-10)


def test_objective_brute_force_dominates_candidates():
    op = gen_gaussian_operator(8, 8, seed=5)
    truth = gen_sparse_signal(8, 2, 2.0, seed=6)
    inst = synthesize_instance(op, truth, 1e-2, seed=7)
    lam = 0.05
    _, x_best, obj_best = bruteforce_l0_min(op, inst.y, lam, 8)
    assert obj_best == pytest.approx(objective(op, inst.y, x_best, lam))
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = np.zeros(8)
        k = int(rng.integers(0, 5))
        idx = rng.choice(8, size=k, replace=False)
        x[idx] = rng.standard_normal(k)
        assert obj_best <= objective(op, inst.y, x, lam) + 1e-12


# ---------------------------------------------------------- coordinatewise min

def test_zero_is_minimizer_at_large_lambda():
    op = gen_gaussian_operator(15, 30, seed=9)
    y = np.random.default_rng(10).standard_normal(15)
    lam0 = 0.5 * float(np.max(np.abs(op.adjoint_apply(y)))) ** 2
    ok, violations = check_coordinatewise_min(op, y, np.zeros(30), lam0, tol=1e-8)
    assert ok and not violations


def test_small_active_entry_is_flagged():
    op = orthonormal_operator(6)
    truth = gen_sparse_signal(6, 2, 1.0, seed=11)
    inst = synthesize_instance(op, truth, 0.0, seed=12)
    x = truth.dense()
    x[truth.support[0]] = 1e-6  # far below the threshold
    ok, violations = check_coordinatewise_min(op, inst.y, x, 0.125, tol=1e-8)
    assert not ok
    assert any(v.kind == "active_below_threshold" and v.index == truth.support[0]
               for v in violations)


def test_coordinatewise_min_rejects_bad_lambda():
    op = orthonormal_operator(6)
    y = np.ones(6)
    for lam in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="lam"):
            check_coordinatewise_min(op, y, np.zeros(6), lam)
    # lambda = 0 is the zero-correlation exit's lam_final; zero is optimal for y = 0
    assert check_coordinatewise_min(op, np.zeros(6), np.zeros(6), 0.0) == (True, [])


# ----------------------------------------------------------- continuation grid

def test_grid_log_even_spacing():
    grid, rho = continuation_grid(1.0, 0.01, 2)
    assert np.allclose(grid, [1.0, 0.1, 0.01], rtol=1e-14)
    assert rho == pytest.approx(0.1)


def test_grid_default_span_ratio():
    _, rho = continuation_grid(1.0, 1e-15, 100)
    assert rho == pytest.approx(10 ** (-0.15), rel=1e-12)  # (1e-15)^(1/100)


def test_grid_constant_consecutive_ratio():
    grid, rho = continuation_grid(7.3, 7.3e-12, 57)
    ratios = grid[1:] / grid[:-1]
    assert np.max(np.abs(ratios - rho)) <= 1e-12


def test_grid_rejects_bad_order():
    with pytest.raises(ValueError):
        continuation_grid(1.0, 2.0, 10)
    with pytest.raises(ValueError):
        continuation_grid(1.0, 1e-3, 0)


@pytest.mark.parametrize("N", [2.5, True])
def test_grid_rejects_non_count_size(N):
    # int(2.5) would silently build a 3-point grid
    with pytest.raises(ValueError, match="N must be an integer >= 1"):
        continuation_grid(1.0, 1e-3, N)


def test_grid_rejects_infinite_head():
    with pytest.raises(ValueError, match="finite lam0"):
        continuation_grid(math.inf, 1e-3, 10)


# ------------------------------------------------------------------ inner loop

def test_inner_empty_fixed_point():
    op = gen_gaussian_operator(12, 24, seed=13)
    y = np.random.default_rng(14).standard_normal(12)
    lam = 0.5 * (np.max(np.abs(op.adjoint_apply(y))) * 1.5) ** 2  # sqrt(2 lam) above all duals
    res = pdas_inner(op, y, lam, np.zeros(24), np.zeros(24), [], J_max=5)
    assert res.status == FIXED_POINT
    assert res.state.inner_iters == 1
    assert res.state.active.size == 0
    assert np.array_equal(res.state.x, np.zeros(24))


def test_inner_example1_alternates():
    op, y = example1_pair(mu=-0.5)
    lam = 0.5 * 0.3**2  # sqrt(2 lam) = 0.3 inside (0.2, 0.36)
    res = pdas_inner(op, y, lam, np.zeros(2), np.zeros(2), [0], J_max=6)
    assert [list(a) for a in res.active_sets] == [[0], [1], [0], [1], [0], [1]]
    assert res.status == CAP_HIT


def test_inner_orthonormal_closed_form():
    op = gen_partial_dct_operator(16, 16, seed=15)
    y = np.random.default_rng(16).standard_normal(16)
    z = op.adjoint_apply(y)
    lam = 0.5 * np.partition(np.abs(z), 8)[8] ** 2 * 1.001  # cut mid-spectrum, off any tie
    res = pdas_inner(op, y, lam, np.zeros(16), np.zeros(16), [], J_max=10)
    expected = np.flatnonzero(np.abs(z) > np.sqrt(2 * lam))
    assert res.status == FIXED_POINT
    assert np.array_equal(res.state.active, expected)
    assert np.max(np.abs(res.state.x[expected] - z[expected])) <= 1e-10


def test_inner_rejects_bad_args():
    op = gen_gaussian_operator(4, 8, seed=0)
    y = np.ones(4)
    with pytest.raises(ValueError):
        pdas_inner(op, y, -1.0, np.zeros(8), np.zeros(8), [], 3)
    with pytest.raises(ValueError):
        pdas_inner(op, y, 1.0, np.zeros(8), np.zeros(8), [], 0)
    with pytest.raises(ValueError):
        pdas_inner(op, y, 1.0, np.zeros(8), np.zeros(8), [0, 1, 2, 3, 4], 3)


def _inner_args_40x80():
    op = gen_gaussian_operator(40, 80, seed=5)
    y = np.random.default_rng(6).standard_normal(40)
    return op, y, np.zeros(80), op.adjoint_apply(y)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_inner_rejects_non_finite_lambda(lam):
    # NaN and inf select nothing and would report an empty fixed point
    op, y, x0, d0 = _inner_args_40x80()
    with pytest.raises(ValueError, match="finite and > 0"):
        pdas_inner(op, y, lam, x0, d0, [], 3)


@pytest.mark.parametrize("J_max", [2.5, True])
def test_inner_rejects_non_count_j_max(J_max):
    op, y, x0, d0 = _inner_args_40x80()
    with pytest.raises(ValueError, match="J_max must be an integer >= 1"):
        pdas_inner(op, y, 1.0, x0, d0, [], J_max)


def test_inner_fixed_point_is_coordinatewise_minimizer():
    rng = np.random.default_rng(17)
    checked = 0
    for trial in range(20):
        op = gen_gaussian_operator(20, 40, seed=100 + trial)
        truth = gen_sparse_signal(40, 3, 3.0, seed=200 + trial)
        inst = synthesize_instance(op, truth, 1e-3, seed=300 + trial)
        lam = float(rng.uniform(0.05, 0.3))
        res = pdas_inner(op, inst.y, lam, np.zeros(40), op.adjoint_apply(inst.y), [],
                         J_max=30)
        if res.status != FIXED_POINT:
            continue
        ok, violations = check_coordinatewise_min(op, inst.y, res.state.x, lam, tol=1e-8)
        assert ok, violations
        checked += 1
    assert checked >= 10  # the sweep must actually exercise fixed points


def test_inner_dual_vanishes_on_solved_set():
    op = gen_gaussian_operator(30, 60, seed=18)
    truth = gen_sparse_signal(60, 5, 10.0, seed=19)
    inst = synthesize_instance(op, truth, 1e-3, seed=20)
    lam = 0.5 * (0.5 * np.max(np.abs(op.adjoint_apply(inst.y)))) ** 2
    res = pdas_inner(op, inst.y, lam, np.zeros(60), op.adjoint_apply(inst.y), [], J_max=10)
    solved = res.state.solved_set
    assert solved.size >= 1
    assert np.max(np.abs(res.state.d[solved])) <= 1e-8 * np.linalg.norm(inst.y)
    off = np.setdiff1d(np.arange(60), solved)
    assert np.all(res.state.x[off] == 0.0)  # exact zeros off the solved set


# ---------------------------------------------------------------- continuation

def test_pdasc_requires_discrepancy_level():
    op = gen_gaussian_operator(10, 20, seed=21)
    with pytest.raises(ValueError):
        pdasc(op, np.ones(10), SolverConfig())


def test_pdasc_zero_data_terminates_immediately():
    op = gen_gaussian_operator(10, 20, seed=50)
    report = pdasc(op, np.zeros(10), SolverConfig(N=40, eps_bar=0.0))
    assert report.status == CONVERGED
    assert len(report.records) == 1
    assert report.records[0].active_size == 0
    assert np.array_equal(report.x_final, np.zeros(20))


@pytest.mark.parametrize("mode", ["direct", "cg"])
def test_pdasc_is_scale_equivariant(mode):
    # lambda is in squared data units: scaling y and eps_bar by c scales x by c
    # while lam0 = 0.5 ||Psi^t y||_inf^2 is a float; past that range the data
    # scale is named, and data that is zero keeps its own message
    op = gen_gaussian_operator(60, 120, seed=51)
    truth = gen_sparse_signal(120, 8, 10.0, seed=52)
    inst = synthesize_instance(op, truth, 1e-2, seed=53)
    base = pdasc(op, inst.y, SolverConfig(N=60, eps_bar=inst.noise_level, lsq_mode=mode))
    assert base.status == CONVERGED
    for c in (1e-150, 1e150):
        report = pdasc(op, c * inst.y,
                       SolverConfig(N=60, eps_bar=c * inst.noise_level, lsq_mode=mode))
        assert report.status == base.status
        assert np.array_equal(report.support_final, base.support_final)
        rel = np.linalg.norm(report.x_final / c - base.x_final) / np.linalg.norm(base.x_final)
        assert rel <= 1e-12
    for c in (1e-200, 1e200):
        cfg = SolverConfig(N=60, eps_bar=c * inst.noise_level, lsq_mode=mode)
        with pytest.raises(ValueError, match="data scale out of range.*rescale y and eps_bar"):
            pdasc(op, c * inst.y, cfg)
    with pytest.raises(ValueError, match="identically zero"):
        SolverConfig(N=60, eps_bar=1.0).resolve_grid(op, np.zeros(60))


def test_pdasc_trivial_discrepancy_stops_at_first_lambda():
    op = gen_gaussian_operator(10, 20, seed=22)
    y = np.random.default_rng(23).standard_normal(10)
    report = pdasc(op, y, SolverConfig(N=50, eps_bar=2.0 * np.linalg.norm(y)))
    assert report.status == CONVERGED
    assert len(report.records) == 1
    assert report.records[0].residual <= 2.0 * np.linalg.norm(y)


def test_pdasc_tiny_orthonormal_noiseless_recovery():
    op = orthonormal_operator(8, np.random.default_rng(24))
    truth = gen_sparse_signal(8, 2, 2.0, seed=25)
    inst = synthesize_instance(op, truth, 0.0, seed=26)
    eps_bar = 1e-10 * np.linalg.norm(inst.y)
    report = pdasc(op, inst.y, SolverConfig(N=100, J_max=5, eps_bar=eps_bar), truth=truth)
    assert report.status == CONVERGED
    assert np.array_equal(report.support_final, truth.support)
    assert np.max(np.abs(report.x_final - truth.dense())) <= 1e-8


def test_pdasc_gaussian_recovery_rate():
    # 20 seeded trials in the mild-parameter regime; rate measured at 20/20
    # before freezing, asserted with the stated +-15% slack
    hits = 0
    for trial in range(20):
        op = gen_gaussian_operator(500, 1000, seed=400 + trial)
        truth = gen_sparse_signal(1000, 100, 100.0, seed=500 + trial)
        inst = synthesize_instance(op, truth, 1e-2, seed=600 + trial)
        cfg = SolverConfig(N=100, J_max=5, eps_bar=inst.noise_level)
        report = pdasc(op, inst.y, cfg, truth=truth)
        hits += int(np.array_equal(report.support_final, truth.support))
    assert hits >= 17  # 0.9 - 0.15 slack on 20 trials, rounded up


def _replay_case(case):
    """(operator, data, config) of a warm-start replay case."""
    if case == "rows8":   # the grid_exhausted case below, with its "selection > n" steps
        op = gen_gaussian_operator(8, 32, seed=36)
        truth = gen_sparse_signal(32, 3, 2.0, seed=37)
        inst = synthesize_instance(op, truth, 1e-3, seed=38)
        return op, inst.y, SolverConfig(N=80, J_max=4, eps_bar=1e-16)
    seed, J_max = case
    op = gen_gaussian_operator(40, 80, seed=seed)
    truth = gen_sparse_signal(80, 6, 5.0, seed=seed + 1)
    inst = synthesize_instance(op, truth, 1e-3, seed=seed + 2)
    return op, inst.y, SolverConfig(N=40, J_max=J_max, eps_bar=inst.noise_level)


REPLAY_CASES = [(27, 4), (28, 3), (29, 2), (31, 3), (32, 2), (37, 2), (37, 4), (41, 3), "rows8"]


def test_pdasc_warm_start_replay():
    # replaying the grid through pdas_inner without the carried solved set,
    # so every step repeats its first solve, reproduces the driver bitwise:
    # the driver's skipped solves change nothing but the solve count
    for case in REPLAY_CASES:
        op, y, cfg = _replay_case(case)
        report = pdasc(op, y, cfg)

        cache = GramCache(op, y)
        grid, _ = cfg.resolve_grid(op, y)
        x, d = np.zeros(op.p), cache.aty
        active = np.zeros(0, dtype=np.intp)
        caps = fallbacks = skipped = 0
        for rec in report.records:
            assert rec.inner_iters > 0   # no singular skips to replay
            res = pdas_inner(op, y, float(grid[rec.k]), x, d, active, cfg.J_max, cache)
            assert np.array_equal(res.active_sets[0], active)  # warm-start continuity
            x, d, active = res.state.x, res.state.d, res.state.active
            assert (rec.active_size, rec.inner_iters) == (active.size, res.state.inner_iters)
            assert rec.residual == res.state.residual_norm
            assert rec.residual == pytest.approx(np.linalg.norm(y - op.apply(x)), abs=1e-12)
            assert res.state.solves == res.state.inner_iters
            caps += res.state.inner_iters == cfg.J_max
            fallbacks += res.status == CAP_HIT and res.state.inner_iters < cfg.J_max
            skipped += rec.solves == rec.inner_iters - 1
        assert np.array_equal(report.x_final, x), case
        assert caps > 0 and skipped > 0, case   # every case has steps that hit J_max
        assert fallbacks > 0 or case != "rows8"


def test_pdasc_records_decrease_in_lambda():
    op = gen_gaussian_operator(30, 60, seed=30)
    truth = gen_sparse_signal(60, 4, 2.0, seed=31)
    inst = synthesize_instance(op, truth, 1e-3, seed=32)
    report = pdasc(op, inst.y, SolverConfig(N=60, J_max=3, eps_bar=inst.noise_level),
                   truth=truth)
    lams = [r.lam for r in report.records]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert report.status == CONVERGED
    assert report.records[-1].residual <= inst.noise_level


def test_pdasc_converged_matches_oracle_on_true_support():
    op = gen_gaussian_operator(100, 200, seed=33)
    truth = gen_sparse_signal(200, 10, 10.0, seed=34)
    inst = synthesize_instance(op, truth, 1e-3, seed=35)
    report = pdasc(op, inst.y, SolverConfig(N=100, J_max=5, eps_bar=inst.noise_level),
                   truth=truth)
    assert report.status == CONVERGED
    assert np.array_equal(report.support_final, truth.support)
    xo = oracle_solution(op, truth.support, inst.y)
    assert np.max(np.abs(report.x_final - xo)) <= 1e-10


def test_pdasc_converges_only_on_a_fixed_point_step():
    # one sweep-gauss instance whose residual first meets eps_bar on a step
    # that hits J_max: that x is not a coordinatewise minimizer, so the path
    # must go on to a step that ends at a fixed point
    config = ExperimentConfig.from_json({
        "matrix": {"kind": "gaussian", "n": 200, "p": 400},
        "signal": {"T": 20, "R": 100.0}, "sigma": 1e-3, "trials": 1, "seed": 997063505,
        "solvers": [{"name": "pdasc", "N": 80, "J_max": 5}]})
    inst, _ = make_instance(config, 20, 0)
    cfg = SolverConfig(N=80, J_max=5, eps_bar=inst.noise_level)
    report = pdasc(inst.operator, inst.y, cfg)
    capped = report.records[-2]
    assert capped.residual <= cfg.eps_bar and capped.inner_iters == cfg.J_max
    assert report.status == CONVERGED
    assert report.records[-1].inner_iters < cfg.J_max
    ok, violations = check_coordinatewise_min(inst.operator, inst.y, report.x_final,
                                              report.lam_final, tol=1e-8)
    assert ok, violations
    assert np.array_equal(report.support_final, inst.truth.support)


def test_pdasc_singular_gram_skip_then_abort():
    # duplicated columns enter the selection together at every lambda, so the
    # run abandons three consecutive steps and aborts
    col = np.array([1.0, 0.0, 0.0])
    mat = np.column_stack([col, col, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    op = DenseOperator(mat)
    y = np.array([5.0, 0.3, 0.0])
    report = pdasc(op, y, SolverConfig(N=30, J_max=3, eps_bar=1e-12))
    assert report.status == SINGULAR_GRAM_ABORT
    skipped = [r for r in report.records if r.inner_iters == 0]
    assert len(skipped) == 3
    assert all(r.solves >= 1 for r in skipped)   # each made the solve that failed


def test_pdasc_active_size_never_exceeds_rows():
    op = gen_gaussian_operator(8, 32, seed=36)
    truth = gen_sparse_signal(32, 3, 2.0, seed=37)
    inst = synthesize_instance(op, truth, 1e-3, seed=38)
    # unreachable discrepancy level drives lambda to the floor of the grid
    report = pdasc(op, inst.y, SolverConfig(N=80, J_max=4, eps_bar=1e-16))
    assert report.status == GRID_EXHAUSTED
    assert all(r.active_size <= 8 for r in report.records)


def test_pdasc_cg_mode_recovers_structured_instance():
    # matrix-free path: warm-started CG with the bounded-iteration defaults
    op = gen_partial_dct_operator(256, 512, seed=60)
    truth = gen_sparse_signal(512, 20, 10.0, seed=61)
    inst = synthesize_instance(op, truth, 1e-3, seed=62)
    cfg = SolverConfig(N=100, J_max=5, eps_bar=inst.noise_level, lsq_mode="cg")
    report = pdasc(op, inst.y, cfg, truth=truth)
    assert report.status == CONVERGED
    assert np.array_equal(report.support_final, truth.support)


def test_pdasc_report_serialization():
    op = gen_gaussian_operator(20, 40, seed=39)
    truth = gen_sparse_signal(40, 3, 2.0, seed=40)
    inst = synthesize_instance(op, truth, 1e-3, seed=41)
    report = pdasc(op, inst.y, SolverConfig(N=30, J_max=2, eps_bar=inst.noise_level),
                   truth=truth)
    doc = report.to_json()
    assert doc["status"] == report.status
    assert len(doc["records"]) == len(report.records)
    assert [r["solves"] for r in doc["records"]] == [r.solves for r in report.records]
    csv_text = records_csv(report)
    header = csv_text.splitlines()[0]
    assert header == "k,lambda,active_size,inner_iters,residual,overlap_true,excess_outside_true"
    assert len(csv_text.splitlines()) == len(report.records) + 1


def test_record_overlap_counts_match_membership_counts():
    p = 50
    truth = gen_sparse_signal(p, 12, 3.0, seed=7)
    outside = np.setdiff1d(np.arange(p), truth.support)
    rng = np.random.default_rng(8)
    actives = [np.zeros(0, dtype=np.intp), outside, truth.support, np.arange(p)]
    actives += [np.sort(rng.choice(p, size=size, replace=False)) for size in (1, 5, 12, 30, 49)]
    for active in actives:
        rec = LambdaRecord.build(1, 1.0, active, 1, 0.0, truth)
        overlap = int(np.count_nonzero(np.isin(active, truth.support)))
        assert (rec.overlap_true, rec.excess_outside_true) == (overlap, active.size - overlap)
    assert LambdaRecord.build(1, 1.0, outside, 1, 0.0, truth).overlap_true == 0
    assert LambdaRecord.build(1, 1.0, np.arange(p), 1, 0.0, truth).overlap_true == 12


class CountingOperator(DenseOperator):
    """A dense operator that records every column index it materializes."""

    def __init__(self, base):
        super().__init__(base.mat, columns_normalized=True)
        self.fetched = []

    def columns(self, indices):
        self.fetched.extend(np.asarray(indices).tolist())
        return super().columns(indices)


def test_pdasc_materializes_each_column_once_per_path():
    base = gen_gaussian_operator(100, 200, seed=63)
    truth = gen_sparse_signal(200, 30, 10.0, seed=64)
    inst = synthesize_instance(base, truth, 1e-2, seed=65)
    op = CountingOperator(base)
    report = pdasc(op, inst.y, SolverConfig(N=100, J_max=5, eps_bar=inst.noise_level))
    assert report.status == CONVERGED
    assert len(op.fetched) == len(set(op.fetched)) >= 30


def test_pdasc_past_the_cache_bound_matches_uncached_replay():
    # same shape and settings as the grid_exhausted case above, on data whose
    # path visits more distinct columns than the cache holds (min(p, 2n) = 16)
    base = gen_gaussian_operator(8, 32, seed=15)
    y = np.random.default_rng(15).standard_normal(8)
    op = CountingOperator(base)
    cfg = SolverConfig(N=80, J_max=4, eps_bar=1e-16)
    report = pdasc(op, y, cfg)
    assert report.status == GRID_EXHAUSTED
    assert len(set(op.fetched)) > 16

    grid, _ = cfg.resolve_grid(base, y)
    x, d, active = np.zeros(32), base.adjoint_apply(y), np.zeros(0, dtype=np.intp)
    for rec in report.records:
        assert rec.inner_iters > 0   # no singular skips to replay
        res = pdas_inner(base, y, float(grid[rec.k]), x, d, active, cfg.J_max)
        x, d, active = res.state.x, res.state.d, res.state.active
        assert (rec.active_size, rec.inner_iters) == (active.size, res.state.inner_iters)
        assert rec.residual == pytest.approx(res.state.residual_norm, rel=1e-12)
    assert np.max(np.abs(report.x_final - x)) <= 1e-12 * np.max(np.abs(x))


# ------------------------------------------------------- CG on the Gram block

pdasc_module = importlib.import_module("l0kit.pdasc")


def _dct_cg_case(seed=80):
    op = gen_partial_dct_operator(256, 1024, seed=seed)
    truth = gen_sparse_signal(1024, 30, 100.0, seed=seed + 1)
    inst = synthesize_instance(op, truth, 1e-2, seed=seed + 2)
    cfg = SolverConfig(N=100, J_max=5, eps_bar=inst.noise_level, lsq_mode="cg")
    return op, inst, cfg


def _spy_cg(monkeypatch):
    """Route pdas_inner's CG solves through a spy; returns its tallies."""
    tally = {"solves": 0, "iters": 0, "off_set_starts": 0}
    solve = pdasc_module.solve_cg

    def spy(op, active, y, **kwargs):
        off = kwargs["start"].copy()
        off[active] = 0.0
        tally["off_set_starts"] += bool(off.any())
        sol = solve(op, active, y, **kwargs)
        tally["solves"] += 1
        tally["iters"] += sol.iterations
        return sol

    monkeypatch.setattr(pdasc_module, "solve_cg", spy)
    return tally


def test_pdasc_cg_one_apply_and_adjoint_per_cg_solve(monkeypatch):
    base, inst, cfg = _dct_cg_case()
    op = CountingDctOperator(base)
    tally = _spy_cg(monkeypatch)
    calls = _spy_solves(monkeypatch)
    report = pdasc(op, inst.y, cfg)
    assert report.status == CONVERGED
    # one pair per CG solve, whatever its iteration count or start, and Psi^t y
    # once; the Gram block comes in closed form, so no column is fetched, and
    # step 1 skips the empty set's solve, so no direct solve is made
    assert not any(name == "solve_direct" for name, _ in calls)
    assert op.applies == tally["solves"] == sum(r.solves for r in report.records)
    assert op.adjoints == tally["solves"] + 1
    assert op.fetched == []
    assert tally["iters"] > tally["solves"] > len(report.records)
    assert tally["off_set_starts"] > 0


def test_pdasc_cg_records_hold_exact_residuals(monkeypatch):
    op, inst, cfg = _dct_cg_case(seed=83)
    states = []
    inner = pdasc_module.pdas_inner

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        states.append(result.state)
        return result

    monkeypatch.setattr(pdasc_module, "pdas_inner", capture)
    report = pdasc(op, inst.y, cfg)
    assert len(states) == len(report.records) > 1
    for rec, state in zip(report.records, states):
        r = inst.y - op.apply(state.x)
        assert abs(rec.residual - np.linalg.norm(r)) <= 1e-12 * np.linalg.norm(r)
        assert np.max(np.abs(state.d - op.adjoint_apply(r))) <= 1e-12 * np.linalg.norm(inst.y)


def test_pdasc_cg_starts_off_the_set_match_on_set_replay(monkeypatch):
    # the path's starts carry entries off the set being solved; the replay
    # zeroes them before every solve, and the path is bitwise the same
    op, inst, cfg = _dct_cg_case()
    tally = _spy_cg(monkeypatch)
    report = pdasc(op, inst.y, cfg)
    assert tally["off_set_starts"] > 0

    solve = importlib.import_module("l0kit.lsq").solve_cg

    def on_set_start(op_, active, y, start, **kwargs):
        x = np.zeros(op_.p)
        x[active] = start[active]
        return solve(op_, active, y, start=x, **kwargs)

    monkeypatch.setattr(pdasc_module, "solve_cg", on_set_start)
    replay = pdasc(op, inst.y, cfg)
    assert report.to_json() == replay.to_json()


def test_pdas_inner_cg_without_carried_residual():
    # a CG solve starts from x alone, so r0 changes nothing and no extra
    # apply/adjoint pair is spent without it
    base, inst, cfg = _dct_cg_case()
    op = CountingDctOperator(base)
    cg = {"noise_level": cfg.eps_bar, "max_iters": 2, "tol_factor": 1e-5}
    x0 = np.zeros(op.p)
    x0[:5] = 1.0
    d0 = base.dual(inst.y, x0)
    active = np.arange(3, 12)
    carried = pdas_inner(op, inst.y, 1e-3, x0, d0, active, 3, cg=cg,
                         r0=inst.y - base.apply(x0))
    applies, adjoints = op.applies, op.adjoints
    fresh = pdas_inner(op, inst.y, 1e-3, x0, np.zeros(op.p), active, 3, cg=cg)
    solves = len(fresh.active_sets)
    assert (op.applies - applies, op.adjoints - adjoints) == (solves, solves + 1)
    assert [a.tolist() for a in carried.active_sets] == [a.tolist() for a in fresh.active_sets]
    for a, b in ((carried.state.x, fresh.state.x), (carried.state.d, fresh.state.d),
                 (carried.state.residual, fresh.state.residual)):
        assert np.array_equal(a, b)
    assert np.array_equal(fresh.state.residual, inst.y - op.apply(fresh.state.x))


# ------------------------------------------------------- one solve per set

def _spy_solves(monkeypatch):
    """Route pdas_inner's restricted solves through spies; returns the
    (method, set) of every call, in order."""
    calls = []
    for name in ("solve_direct", "solve_cg"):
        def spy(op, active, y, *args, _solve=getattr(pdasc_module, name), _name=name,
                **kwargs):
            calls.append((_name, np.asarray(active).tolist()))
            return _solve(op, active, y, *args, **kwargs)
        monkeypatch.setattr(pdasc_module, name, spy)
    return calls


def test_inner_skips_the_first_solve_of_its_solved_set():
    op = gen_gaussian_operator(30, 60, seed=18)
    truth = gen_sparse_signal(60, 5, 10.0, seed=19)
    inst = synthesize_instance(op, truth, 1e-3, seed=20)
    cache = GramCache(op, inst.y)
    lam = 0.5 * (0.5 * np.max(np.abs(cache.aty))) ** 2
    first = pdas_inner(op, inst.y, lam, np.zeros(60), cache.aty, [], 10, cache)
    st = first.state
    assert first.status == FIXED_POINT and st.solves == st.inner_iters > 1
    for v in (st.x, st.d, st.residual):
        v.setflags(write=False)   # the skip must not write into what it carries

    carried = pdas_inner(op, inst.y, lam, st.x, st.d, st.solved_set, 10, cache,
                         r0=st.residual, solved=st.solved_set)
    assert (carried.status, carried.state.inner_iters, carried.state.solves) == (FIXED_POINT, 1, 0)
    assert [a.tolist() for a in carried.active_sets] == [st.solved_set.tolist()]
    # without the carried residual, or with another solved set of the same
    # size, the first solve is made, and it returns the carried state bitwise
    swapped = np.sort(np.append(st.solved_set[1:], np.setdiff1d(np.arange(60), st.solved_set)[0]))
    for kwargs in ({}, {"r0": st.residual}, {"solved": st.solved_set},
                   {"r0": st.residual, "solved": swapped}):
        again = pdas_inner(op, inst.y, lam, st.x, st.d, st.solved_set, 10, cache, **kwargs)
        assert (again.status, again.state.inner_iters, again.state.solves) == (FIXED_POINT, 1, 1)
        for a, b in ((again.state.x, st.x), (again.state.d, st.d),
                     (again.state.residual, st.residual)):
            assert np.array_equal(a, b)


def test_direct_path_never_solves_a_set_twice_in_a_row(monkeypatch):
    calls = _spy_solves(monkeypatch)
    for trial in range(3):
        op = gen_gaussian_operator(100, 200, seed=90 + trial)
        truth = gen_sparse_signal(200, 20, 10.0, seed=93 + trial)
        inst = synthesize_instance(op, truth, 1e-2, seed=96 + trial)
        calls.clear()
        report = pdasc(op, inst.y, SolverConfig(N=100, J_max=5, eps_bar=inst.noise_level))
        assert report.status == CONVERGED
        assert {name for name, _ in calls} == {"solve_direct"}
        sets = [s for _, s in calls]
        assert all(a != b for a, b in zip(sets, sets[1:]))
        # the records count the solves made, fewer than the iterations
        assert sum(r.solves for r in report.records) == len(calls)
        assert len(calls) < sum(r.inner_iters for r in report.records)


def _capture_steps(monkeypatch):
    """Route pdasc's inner calls through a spy; returns (args, kwargs, result)
    of every call, in order."""
    steps = []
    inner = pdasc_module.pdas_inner

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        steps.append((args, kwargs, result))
        return result

    monkeypatch.setattr(pdasc_module, "pdas_inner", capture)
    return steps


def test_cg_path_skips_exactly_the_steps_that_leave_their_set(monkeypatch):
    # a CG step that starts on its solved set selects first: it skips the
    # solve when the selection leaves the set and refines the set otherwise
    for seed in (80, 83):
        calls = _spy_solves(monkeypatch)
        steps = _capture_steps(monkeypatch)
        op, inst, cfg = _dct_cg_case(seed)
        report = pdasc(op, inst.y, cfg)
        assert report.status == CONVERGED
        assert {name for name, _ in calls} == {"solve_cg"}
        skipped = refined = 0
        for (_op, _y, lam, x0, d0, a0, *_rest), _kwargs, result in steps:
            solved = _rest[-1]
            st = result.state
            if not np.array_equal(a0, solved):
                assert st.solves == st.inner_iters
                continue
            keeps = np.array_equal(np.flatnonzero(np.abs(x0 + d0) > np.sqrt(2 * lam)), a0)
            assert st.solves == st.inner_iters - (not keeps)
            skipped += not keeps
            refined += keeps
        assert skipped > 0 and refined > 0
        iters = sum(r.inner_iters for r in report.records)
        assert sum(r.solves for r in report.records) == iters - skipped == len(calls)
        monkeypatch.undo()


def test_cg_step_refines_a_set_its_selection_keeps(monkeypatch):
    # at a CG fixed point the carried selection keeps the set, so a step
    # carried on it solves that set once more, as a step without the skip does
    op, inst, cfg = _dct_cg_case()
    cg = {"noise_level": cfg.eps_bar}
    cache = GramCache(op, inst.y)
    lam = 0.5 * (0.3 * np.max(np.abs(cache.aty))) ** 2
    first = pdas_inner(op, inst.y, lam, np.zeros(op.p), cache.aty, [], 10, cache, cg)
    st = first.state
    assert first.status == FIXED_POINT and st.solved_set.size > 0
    calls = _spy_solves(monkeypatch)
    carried = pdas_inner(op, inst.y, lam, st.x, st.d, st.solved_set, 10, cache, cg,
                         st.residual, st.solved_set)
    assert calls[0] == ("solve_cg", st.solved_set.tolist())
    assert carried.state.solves == carried.state.inner_iters == len(calls)
    repeat = pdas_inner(op, inst.y, lam, st.x, st.d, st.solved_set, 10, cache, cg)
    assert [a.tolist() for a in carried.active_sets] == [a.tolist() for a in repeat.active_sets]
    for a, b in ((carried.state.x, repeat.state.x), (carried.state.d, repeat.state.d)):
        assert np.array_equal(a, b)


def test_standalone_inner_call_builds_one_cache(monkeypatch):
    built = []
    init = GramCache.__init__

    def spy(self, op, y):
        built.append(op)
        init(self, op, y)

    monkeypatch.setattr(GramCache, "__init__", spy)
    op, y = example1_pair(mu=-0.5)
    res = pdas_inner(op, y, 0.5 * 0.3**2, np.zeros(2), np.zeros(2), [0], 6)
    assert res.state.solves == 6 and built == [op]
    cache = GramCache(op, y)
    pdas_inner(op, y, 0.5 * 0.3**2, np.zeros(2), np.zeros(2), [0], 6, cache)
    assert built == [op, op]   # the caller's cache only


def test_pdasc_rejects_unnormalized_columns():
    base = gen_gaussian_operator(20, 40, seed=42)
    y = np.random.default_rng(43).standard_normal(20)
    scaled = DenseOperator(base.mat * np.linspace(0.5, 2.0, 40))
    custom = CustomOperator(20, 40, base.apply, base.adjoint_apply)
    for op in (scaled, custom):
        assert not op.columns_normalized
        with pytest.raises(ValueError, match="columns_normalized"):
            pdasc(op, y, SolverConfig(N=20, eps_bar=1e-3))
