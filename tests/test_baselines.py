import numpy as np
import pytest

import l0kit.baselines as baselines_module
from l0kit import (CONVERGED, CustomOperator, DenseOperator, GreedyConfig, SingularGramError,
                   SolverConfig, cosamp, gen_gaussian_operator, gen_sparse_signal, htp, iht,
                   mutual_coherence, omp, pdasc, solve_cg, solve_direct, synthesize_instance)
from l0kit.baselines import keep_largest
from l0kit.harness import records_csv
from l0kit.pdasc import MAX_ITERS
from conftest import orthonormal_operator, randomized_union_operator


def _orthonormal_instance(p, T, seed):
    rng = np.random.default_rng(seed)
    op = orthonormal_operator(p, rng)
    truth = gen_sparse_signal(p, T, 3.0, seed=seed + 1)
    inst = synthesize_instance(op, truth, 0.0, seed=seed + 2)
    return op, truth, inst


def test_keep_largest():
    v = np.array([3.0, -1.0, 0.5, -4.0])
    out = keep_largest(v, 2)
    assert np.array_equal(out, np.array([3.0, 0.0, 0.0, -4.0]))
    assert np.array_equal(keep_largest(v, 10), v)


def test_config_validation():
    with pytest.raises(ValueError):
        GreedyConfig(T=0)
    with pytest.raises(ValueError):
        GreedyConfig(T=2, step_policy="bogus")
    with pytest.raises(ValueError):
        GreedyConfig(T=2, max_iters=0)


@pytest.mark.parametrize("method", [omp, htp, cosamp])
def test_orthonormal_exactness(method):
    op, truth, inst = _orthonormal_instance(16, 4, seed=10)
    report = method(op, inst.y, GreedyConfig(T=4), truth=truth)
    assert np.array_equal(report.support_final, truth.support)
    assert np.max(np.abs(report.x_final - truth.dense())) <= 1e-10


def test_iht_orthonormal_one_step():
    op, truth, inst = _orthonormal_instance(16, 4, seed=20)
    report = iht(op, inst.y, GreedyConfig(T=4, max_iters=3))
    assert np.array_equal(report.support_final, truth.support)
    assert np.max(np.abs(report.x_final - truth.dense())) <= 1e-10
    # with mu = 1 on orthonormal columns the first step already lands on top-T
    z = op.adjoint_apply(inst.y)
    assert np.array_equal(report.records[0].active_size, 4)
    assert np.allclose(report.x_final, keep_largest(z, 4), atol=1e-12)


def test_iht_zero_data_gives_zero():
    op = gen_gaussian_operator(10, 20, seed=1)
    report = iht(op, np.zeros(10), GreedyConfig(T=3, max_iters=5))
    assert np.array_equal(report.x_final, np.zeros(20))


def test_omp_support_grows_by_one():
    op = gen_gaussian_operator(40, 80, seed=2)
    truth = gen_sparse_signal(80, 8, 10.0, seed=3)
    inst = synthesize_instance(op, truth, 1e-3, seed=4)
    report = omp(op, inst.y, GreedyConfig(T=8), truth=truth)
    sizes = [r.active_size for r in report.records]
    assert sizes == list(range(1, 9))


def test_omp_exact_recovery_under_coherence_gate():
    # noiseless with nu < 1/(2T-1): classical exact-recovery regime for OMP
    rng = np.random.default_rng(5)
    op = randomized_union_operator(30, rng)
    nu = mutual_coherence(op)
    T = 2
    assert nu < 1.0 / (2 * T - 1)
    for seed in range(10):
        truth = gen_sparse_signal(60, T, 5.0, seed=600 + seed)
        inst = synthesize_instance(op, truth, 0.0, seed=700 + seed)
        report = omp(op, inst.y, GreedyConfig(T=T))
        assert np.array_equal(report.support_final, truth.support)


def test_omp_rejects_t_above_n():
    op = gen_gaussian_operator(5, 10, seed=0)
    with pytest.raises(ValueError):
        omp(op, np.ones(5), GreedyConfig(T=6))


def test_htp_rejects_t_above_n():
    op = gen_gaussian_operator(10, 40, seed=1)
    y = np.random.default_rng(1).standard_normal(10)
    with pytest.raises(ValueError, match="HTP needs T <= n, got T=12 > n=10"):
        htp(op, y, GreedyConfig(T=12))


def test_cosamp_rejects_t_above_n():
    # past n, the prune to T keeps more columns than a solve can determine
    op = gen_gaussian_operator(40, 80, seed=2)
    y = np.random.default_rng(2).standard_normal(40)
    with pytest.raises(ValueError, match="CoSaMP needs T <= n, got T=50 > n=40"):
        cosamp(op, y, GreedyConfig(T=50))


def test_duplicate_columns_contract():
    # HTP and CoSaMP raise once they select both copies; PDASC reports the abort
    mat = gen_gaussian_operator(20, 40, seed=3).mat.copy()
    mat[:, 1] = mat[:, 0]
    op = DenseOperator(mat, columns_normalized=True)
    x = np.zeros(40)
    x[[0, 7, 12]] = [5.0, -3.0, 2.0]
    y = op.apply(x)
    for solver in (htp, cosamp):
        with pytest.raises(SingularGramError):
            solver(op, y, GreedyConfig(T=3))
    assert pdasc(op, y, SolverConfig(N=50, eps_bar=1e-6)).status == "singular_gram_abort"


def test_adaptive_iht_residual_never_increases():
    rng = np.random.default_rng(9)
    for trial in range(100):
        op = gen_gaussian_operator(30, 60, seed=1000 + trial)
        truth = gen_sparse_signal(60, 5, float(rng.uniform(1, 50)), seed=2000 + trial)
        inst = synthesize_instance(op, truth, 1e-3, seed=3000 + trial)
        report = iht(op, inst.y, GreedyConfig(T=5, step_policy="adaptive", max_iters=40))
        res = [r.residual for r in report.records]
        assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))


class CountingOperator(DenseOperator):
    """A dense operator that counts its applies and adjoints."""

    def __init__(self, base):
        super().__init__(base.mat, columns_normalized=True)
        self.applies = self.adjoints = 0

    def apply(self, x):
        self.applies += 1
        return super().apply(x)

    def adjoint_apply(self, r):
        self.adjoints += 1
        return super().adjoint_apply(r)


def _iht_instance():
    base = gen_gaussian_operator(200, 400, seed=70)
    truth = gen_sparse_signal(400, 40, 10.0, seed=71)
    return base, synthesize_instance(base, truth, 1e-2, seed=72)


def test_fixed_iht_applies_each_iterate_once():
    base, inst = _iht_instance()
    op = CountingOperator(base)
    report = iht(op, inst.y, GreedyConfig(T=40))
    assert len(report.records) == 100
    assert op.applies == len(report.records)


def test_adaptive_iht_applies_only_in_the_step_search(monkeypatch):
    # the residual of the accepted proposal is carried and the zero start's
    # residual is y, so every apply is in the step search (before: two more
    # per iteration, then one for the zero start)
    base, inst = _iht_instance()
    op = CountingOperator(base)
    in_step = [0]
    step = baselines_module._adaptive_step

    def counted_step(*args):
        before = op.applies
        try:
            return step(*args)
        finally:
            in_step[0] += op.applies - before

    monkeypatch.setattr(baselines_module, "_adaptive_step", counted_step)
    report = iht(op, inst.y, GreedyConfig(T=40, step_policy="adaptive"))
    assert len(report.records) > 10
    assert op.applies - in_step[0] == 0


def test_htp_reuses_the_dual_of_each_solve():
    # one adjoint for the dual at the zero start, then the one adjoint each
    # solve spends on its own dual (before: 5 applies and 9 adjoints here,
    # then 1 apply for the zero start)
    base, inst = _iht_instance()
    op = CountingOperator(base)
    report = htp(op, inst.y, GreedyConfig(T=40))
    assert report.status == "converged"
    assert len(report.records) == 4
    assert (op.applies, op.adjoints) == (0, 5)


def test_every_baseline_respects_sparsity_budget():
    op = gen_gaussian_operator(40, 80, seed=10)
    truth = gen_sparse_signal(80, 7, 20.0, seed=11)
    inst = synthesize_instance(op, truth, 1e-2, seed=12)
    for method in (omp, htp, cosamp):
        report = method(op, inst.y, GreedyConfig(T=7))
        assert report.support_final.size <= 7
    for policy in ("fixed", "adaptive"):
        report = iht(op, inst.y, GreedyConfig(T=7, step_policy=policy, max_iters=30))
        assert report.support_final.size <= 7


def test_cosamp_prunes_to_t_every_iteration():
    op = gen_gaussian_operator(40, 80, seed=13)
    truth = gen_sparse_signal(80, 5, 10.0, seed=14)
    inst = synthesize_instance(op, truth, 1e-3, seed=15)
    report = cosamp(op, inst.y, GreedyConfig(T=5, max_iters=20))
    assert all(r.active_size <= 5 for r in report.records)


def _recovered_cosamp_instance():
    # Gaussian 200x400, T=40, sigma=1e-3: recovered by iteration 4, after
    # which equal-iterate halting would run on to the 50-iteration cap
    op = gen_gaussian_operator(200, 400, seed=40)
    truth = gen_sparse_signal(400, 40, 100.0, seed=41)
    return op, truth, synthesize_instance(op, truth, 1e-3, seed=42)


def test_cosamp_halts_once_recovered():
    op, truth, inst = _recovered_cosamp_instance()
    report = cosamp(op, inst.y, GreedyConfig(T=40), truth=truth)
    assert report.status == CONVERGED
    assert len(report.records) <= 10
    assert np.array_equal(report.support_final, truth.support)
    assert report.records[-1].overlap_true == 40


def test_cosamp_halts_at_a_support_fixed_point():
    op, truth, inst = _recovered_cosamp_instance()
    report = cosamp(op, inst.y, GreedyConfig(T=40))
    assert report.status == CONVERGED
    # iterates are deterministic: a run cut one iteration earlier ends on the
    # iterate before the halting one, and that has the same support
    cut = cosamp(op, inst.y, GreedyConfig(T=40, max_iters=len(report.records) - 1))
    assert cut.status == MAX_ITERS
    assert [r.residual for r in cut.records] == [r.residual for r in report.records[:-1]]
    assert np.array_equal(cut.support_final, report.support_final)
    assert not np.array_equal(cut.x_final, report.x_final)


def test_cosamp_cut_while_its_support_moves_reports_max_iters():
    op, truth, inst = _recovered_cosamp_instance()
    report = cosamp(op, inst.y, GreedyConfig(T=40, max_iters=1), truth=truth)
    assert report.status == MAX_ITERS
    assert len(report.records) == 1
    assert report.records[0].overlap_true < 40


def test_baselines_agree_with_continuation_on_certified_instances():
    rng = np.random.default_rng(16)
    for trial in range(5):
        op = randomized_union_operator(30, rng)
        truth = gen_sparse_signal(60, 2, 4.0, seed=400 + trial)
        inst = synthesize_instance(op, truth, 0.0, seed=500 + trial)
        eps_bar = 1e-10 * np.linalg.norm(inst.y)
        pd = pdasc(op, inst.y, SolverConfig(N=100, J_max=5, eps_bar=eps_bar))
        assert np.array_equal(pd.support_final, truth.support)
        for method in (omp, htp, cosamp):
            report = method(op, inst.y, GreedyConfig(T=2))
            assert np.array_equal(report.support_final, pd.support_final)


def test_solve_reports_share_shape():
    op, truth, inst = _orthonormal_instance(12, 3, seed=30)
    report = omp(op, inst.y, GreedyConfig(T=3), truth=truth)
    doc = report.to_json()
    assert doc["solver"] == "omp"
    assert {"k", "lambda", "active_size", "inner_iters", "residual",
            "overlap_true", "excess_outside_true"} <= set(doc["records"][0])
    csv_text = records_csv(report)
    assert csv_text.startswith("k,lambda,active_size,inner_iters,residual")


_SOLVER_ENTRIES = {
    "pdasc": lambda op, y: pdasc(op, y, SolverConfig(eps_bar=1e-3)),
    "omp": lambda op, y: omp(op, y, GreedyConfig(T=3)),
    "htp": lambda op, y: htp(op, y, GreedyConfig(T=3)),
    "cosamp": lambda op, y: cosamp(op, y, GreedyConfig(T=3)),
    "iht": lambda op, y: iht(op, y, GreedyConfig(T=3)),
    "solve_direct": lambda op, y: solve_direct(op, [0, 1], y),
    "solve_cg": lambda op, y: solve_cg(op, [0, 1], y),
}


@pytest.mark.parametrize("bad", ["all_nan", "one_inf"])
@pytest.mark.parametrize("solver", list(_SOLVER_ENTRIES))
def test_solvers_reject_non_finite_data(solver, bad):
    op = gen_gaussian_operator(50, 100, seed=3)
    y = np.random.default_rng(4).standard_normal(50)
    if bad == "all_nan":
        y[:] = np.nan
    else:
        y[7] = np.inf
    with pytest.raises(ValueError, match="y contains non-finite"):
        _SOLVER_ENTRIES[solver](op, y)


_NAN_CALLABLE_SOLVERS = {
    "omp": lambda op, y: omp(op, y, GreedyConfig(T=3)),
    "htp": lambda op, y: htp(op, y, GreedyConfig(T=3)),
    "cosamp": lambda op, y: cosamp(op, y, GreedyConfig(T=3)),
    "aiht": lambda op, y: iht(op, y, GreedyConfig(T=3, step_policy="adaptive")),
    "pdasc": lambda op, y: pdasc(op, y, SolverConfig(eps_bar=1e-3)),
}


@pytest.mark.parametrize("nan_in", ["apply_fn", "adjoint_fn", "both"])
@pytest.mark.parametrize("solver", list(_NAN_CALLABLE_SOLVERS))
def test_solvers_reject_non_finite_callable_output(solver, nan_in):
    # a NaN from either callable must stop every solver before it can
    # report converged with a NaN x_final
    base = gen_gaussian_operator(20, 40, seed=42)
    y = np.random.default_rng(43).standard_normal(20)
    nan_apply = lambda x: np.full(20, np.nan)
    nan_adjoint = lambda r: np.full(40, np.nan)
    op = CustomOperator(20, 40,
                        base.apply if nan_in == "adjoint_fn" else nan_apply,
                        base.adjoint_apply if nan_in == "apply_fn" else nan_adjoint,
                        columns_normalized=True)
    match = "apply_fn|adjoint_fn" if nan_in == "both" else nan_in
    with pytest.raises(ValueError, match=match):
        _NAN_CALLABLE_SOLVERS[solver](op, y)


def test_fixed_iht_rejects_unnormalized_columns():
    # the unit step assumes unit-norm columns; the adaptive step sizes itself
    base = gen_gaussian_operator(20, 40, seed=42)
    y = np.random.default_rng(43).standard_normal(20)
    scaled = DenseOperator(base.mat * np.linspace(0.5, 2.0, 40))
    custom = CustomOperator(20, 40, base.apply, base.adjoint_apply)
    for op in (scaled, custom):
        assert not op.columns_normalized
        with pytest.raises(ValueError, match="columns_normalized"):
            iht(op, y, GreedyConfig(T=3))
        report = iht(op, y, GreedyConfig(T=3, step_policy="adaptive", max_iters=5))
        assert report.support_final.size <= 3


def test_htp_rejects_unnormalized_columns():
    # HTP's unit step x + d assumes unit-norm columns, as fixed-step IHT's does;
    # on a scaled operator it would cycle to max_iters on a wrong support
    base = gen_gaussian_operator(40, 80, seed=5)
    scaled = DenseOperator(3.0 * base.mat)
    assert not scaled.columns_normalized
    x = np.zeros(80)
    x[[3, 10, 50]] = [4.0, -2.5, 3.0]
    y = scaled.apply(x)
    with pytest.raises(ValueError, match="columns_normalized"):
        htp(scaled, y, GreedyConfig(T=3))
    for method in (omp, cosamp):   # these size their steps by least squares
        report = method(scaled, y, GreedyConfig(T=3))
        assert np.array_equal(report.support_final, [3, 10, 50])


@pytest.mark.parametrize("field, value", [
    ("N", 2.5), ("J_max", 2.5), ("eps_bar", -1.0), ("eps_bar", float("nan")),
])
def test_solver_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{"eps_bar": 1.0, field: value})


@pytest.mark.parametrize("field, value", [
    ("T", 2.5), ("max_iters", 1.5),
])
def test_greedy_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        GreedyConfig(**{"T": 2, field: value})
