import math

import numpy as np
import pytest

from l0kit import (CapacityError, DenseOperator, SolverConfig, bruteforce_l0_min,
                   certify, check_onestep_bounds_mip, check_onestep_bounds_rip,
                   gen_gaussian_operator, gen_partial_dct_operator, gen_sparse_signal,
                   hard_threshold, level_set, mutual_coherence, oracle_solution,
                   pdasc, rip_constant_bruteforce, synthesize_instance,
                   xi_interval_mip, xi_interval_rip)
from l0kit.problem import SparseSignal
from conftest import example1_pair, orthonormal_operator, randomized_union_operator


# ------------------------------------------------------------ mutual coherence

def test_coherence_orthonormal_is_zero():
    op = gen_partial_dct_operator(16, 16, seed=0)
    assert mutual_coherence(op) <= 1e-12


def test_coherence_two_column_example():
    mat = np.column_stack([[1.0, 0.0], [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
    assert mutual_coherence(DenseOperator(mat)) == pytest.approx(1.0 / np.sqrt(2))


def test_coherence_example1_matrix():
    # |psi_1^t psi_2| = |2 mu| / (1 + mu^2) = 0.8 at mu = -0.5
    op, _ = example1_pair(mu=-0.5)
    assert mutual_coherence(op) == pytest.approx(0.8, abs=1e-12)


def test_coherence_guards():
    with pytest.raises(ValueError):
        mutual_coherence(DenseOperator(np.ones((3, 1))))
    op = gen_gaussian_operator(4, 10, seed=0)
    with pytest.raises(CapacityError):
        mutual_coherence(op, max_columns=5)


# -------------------------------------------------------------- RIP brute force

def test_rip_orthonormal_columns_zero():
    op = gen_partial_dct_operator(8, 8, seed=1)
    for s in (1, 2, 3):
        assert rip_constant_bruteforce(op, s) <= 1e-10


def test_rip_level_one_is_zero_for_unit_columns():
    op = gen_gaussian_operator(8, 12, seed=2)
    assert rip_constant_bruteforce(op, 1) <= 1e-12


def test_rip_monotone_in_level():
    for seed in range(5):
        op = gen_gaussian_operator(8, 12, seed=seed)
        deltas = [rip_constant_bruteforce(op, s) for s in (1, 2, 3)]
        assert deltas[0] <= deltas[1] + 1e-12 <= deltas[2] + 2e-12


def test_rip_capacity_guard():
    op = gen_gaussian_operator(30, 60, seed=0)
    with pytest.raises(CapacityError):
        rip_constant_bruteforce(op, 8)


# -------------------------------------------------------------------- certify

def test_certify_orthonormal_noiseless():
    op = orthonormal_operator(12)
    truth = gen_sparse_signal(12, 2, 2.0, seed=3)
    cert = certify(op, truth, 0.0, 0.5)
    assert cert.beta == 0.0
    assert cert.assumption_ok and cert.mip_cwm_ok and cert.mip_conv_ok
    assert cert.rho_interval[0] <= 1e-20 and cert.rho_interval[1] == 1.0
    assert cert.rho_admissible


def test_certify_closed_form_factors():
    # T=2, nu=0.1, beta=0, rho=0.25: s1 = 1/(0.5 - 0.1) = 2.5, s2 = 1.25,
    # and the chain 1/0.9 < s2 < s1 < 1/0.2 holds
    op = orthonormal_operator(10)
    truth = gen_sparse_signal(10, 2, 1.0, seed=4)
    cert = certify(op, truth, 0.0, 0.25, coherence=0.1)
    assert cert.s1 == pytest.approx(2.5, abs=1e-12)
    assert cert.s2 == pytest.approx(1.25, abs=1e-12)
    assert 1.0 / 0.9 < cert.s2 < cert.s1 < 1.0 / 0.2


def test_certify_lemma_relations_round_trip():
    rng = np.random.default_rng(5)
    op = orthonormal_operator(10)
    truth = gen_sparse_signal(10, 2, 1.0, seed=6)
    for _ in range(50):
        nu = float(rng.uniform(0.0, 0.15))
        rho_lo = (3 * nu) ** 2
        rho = float(rng.uniform(rho_lo + 1e-6, 1.0 - 1e-6))
        cert = certify(op, truth, 0.0, rho, coherence=nu)
        assert cert.rho_admissible
        T, beta = 2, 0.0
        assert cert.s2 == pytest.approx(1.0 + (T * nu - nu + beta) * cert.s1, abs=1e-12)
        assert cert.s2 / cert.s1 == pytest.approx(math.sqrt(rho), abs=1e-12)
        assert 1.0 / (T * nu + beta + 1e-300) > cert.s1 > cert.s2 \
            > 1.0 / (1.0 - T * nu + nu - beta)


def test_certify_gate_failures():
    op = orthonormal_operator(10)
    truth = gen_sparse_signal(10, 2, 1.0, seed=7)
    cert = certify(op, truth, 0.0, 0.5, coherence=0.4)
    assert not cert.mip_conv_ok          # (1-0)/3 < 0.4
    assert cert.s1 is None and cert.s2 is None
    noisy = certify(op, truth, 0.6, 0.5, coherence=0.0)  # beta = 0.6 >= 1/2
    assert not noisy.assumption_ok
    assert not noisy.mip_cwm_ok and not noisy.mip_conv_ok
    assert noisy.s1 is None and noisy.s2 is None and noisy.xi is None


def test_certificate_json():
    op = orthonormal_operator(8)
    truth = gen_sparse_signal(8, 2, 1.0, seed=8)
    doc = certify(op, truth, 0.0, 0.5).to_json()
    assert doc["T"] == 2 and doc["beta"] == 0.0
    assert doc["rho_interval"][1] == 1.0


# --------------------------------------------------------------- xi intervals

def test_xi_mip_values():
    assert xi_interval_mip(0.1, 2, 0.0, 1.0) == pytest.approx(0.2)
    assert xi_interval_mip(0.0, 1, 0.0, 1.0) == pytest.approx(0.5)
    assert xi_interval_mip(0.5, 2, 0.0, 1.0) is None      # nu above the gate
    assert xi_interval_mip(0.0, 2, 0.49, 1.0) is None     # beta above the gate


def test_xi_mip_exceeds_noise_floor_when_applicable():
    rng = np.random.default_rng(9)
    for _ in range(200):
        T = int(rng.integers(1, 4))
        nu = float(rng.uniform(0, 1.0 / (3 * T - 1)))
        m = float(rng.uniform(0.5, 3.0))
        beta = float(rng.uniform(0, 0.49))
        xi = xi_interval_mip(nu, T, beta, m)
        if xi is None:
            continue
        eps = beta * m
        assert xi > 0.5 * eps**2


def test_xi_rip_values():
    assert xi_interval_rip(0.0, 0.0, 1.0, 1) == pytest.approx(0.5)
    assert xi_interval_rip(0.1, 0.0, 1.0, 1) == pytest.approx(0.45 - 0.01 / 0.9)
    assert xi_interval_rip(0.9, 0.0, 1.0, 4) is None      # delta above the gate
    assert xi_interval_rip(0.0, 0.3, 1.0, 1) is None      # beta above (1-2d-d^2)/4


# -------------------------------------------------------------- oracle solution

def test_oracle_interpolates_noiseless_data():
    op = gen_gaussian_operator(20, 40, seed=10)
    truth = gen_sparse_signal(40, 5, 3.0, seed=11)
    inst = synthesize_instance(op, truth, 0.0, seed=12)
    xo = oracle_solution(op, truth.support, inst.y)
    assert np.max(np.abs(xo - truth.dense())) <= 1e-10


def test_oracle_orthonormal_correlations():
    op = orthonormal_operator(10)
    y = np.random.default_rng(13).standard_normal(10)
    support = np.array([2, 5])
    xo = oracle_solution(op, support, y)
    assert np.allclose(xo[support], op.adjoint_apply(y)[support], atol=1e-12)


def test_oracle_error_bounded_by_rip_constant():
    # ||x^o - x*|| = ||pinv(Psi_A*) eta|| <= eps / sqrt(1 - delta_T), with the
    # brute-force constant on a reduced instance (partial DCT keeps delta < 1)
    op = gen_partial_dct_operator(12, 16, seed=14)
    truth = gen_sparse_signal(16, 3, 2.0, seed=15)
    delta = rip_constant_bruteforce(op, 3)
    assert delta < 1.0
    for seed in range(20):
        inst = synthesize_instance(op, truth, 1e-2, seed=100 + seed)
        xo = oracle_solution(op, truth.support, inst.y)
        err = np.linalg.norm(xo - truth.dense())
        assert err <= inst.noise_level / math.sqrt(1.0 - delta) + 1e-12


# --------------------------------------------------------------- brute force l0

def test_bruteforce_zero_above_lambda0():
    op = orthonormal_operator(8)
    y = np.random.default_rng(16).standard_normal(8)
    lam0 = 0.5 * float(np.max(np.abs(op.adjoint_apply(y)))) ** 2
    support, x, obj = bruteforce_l0_min(op, y, lam0 * 1.0001, 3)
    assert support.size == 0
    assert np.array_equal(x, np.zeros(8))
    assert obj == pytest.approx(0.5 * float(y @ y))


def test_bruteforce_orthonormal_matches_hard_threshold():
    op = orthonormal_operator(8, np.random.default_rng(17))
    y = np.random.default_rng(18).standard_normal(8)
    z = op.adjoint_apply(y)
    lam = 0.5 * (0.7 * np.max(np.abs(z))) ** 2
    support, x, _ = bruteforce_l0_min(op, y, lam, 8)
    expected = hard_threshold(z, lam)
    assert np.array_equal(support, np.flatnonzero(expected))
    assert np.max(np.abs(x - expected)) <= 1e-10


def test_bruteforce_tie_breaks_lexicographically():
    col = np.array([1.0, 0.0, 0.0])
    mat = np.column_stack([col, col, [0.0, 1.0, 0.0]])
    op = DenseOperator(mat)
    y = np.array([2.0, 0.0, 0.0])
    support, x, _ = bruteforce_l0_min(op, y, 0.1, 2)
    assert list(support) == [0]        # {0} and {1} tie; lexicographic order wins
    assert x[0] == pytest.approx(2.0)


def test_bruteforce_capacity_guard():
    op = gen_gaussian_operator(30, 60, seed=19)
    with pytest.raises(CapacityError):
        bruteforce_l0_min(op, np.ones(30), 0.1, 10)


def test_bruteforce_dominates_pdasc_objective():
    rng = np.random.default_rng(20)
    for trial in range(10):
        op = orthonormal_operator(8, rng)
        truth = gen_sparse_signal(8, 2, 2.0, seed=700 + trial)
        inst = synthesize_instance(op, truth, 1e-3, seed=800 + trial)
        report = pdasc(op, inst.y, SolverConfig(N=60, J_max=4, eps_bar=inst.noise_level))
        lam = report.lam_final
        _, _, best = bruteforce_l0_min(op, inst.y, lam, 4)
        from l0kit import objective
        assert best <= objective(op, inst.y, report.x_final, lam) + 1e-12


# ------------------------------------------------------------- one-step bounds

def test_onestep_mip_full_support_noiseless():
    op = randomized_union_operator(16, np.random.default_rng(21))
    truth = gen_sparse_signal(32, 3, 2.0, seed=22)
    inst = synthesize_instance(op, truth, 0.0, seed=23)
    rep = check_onestep_bounds_mip(op, inst, truth.support)
    assert rep.applicable
    assert rep.all_passed(1e-12)
    primal = next(c for c in rep.checks if c.name == "primal_error_inf")
    assert primal.lhs <= 1e-10  # x restricted to A* reproduces x* exactly


def test_onestep_mip_empty_set_trivial():
    op = randomized_union_operator(16, np.random.default_rng(24))
    truth = gen_sparse_signal(32, 3, 2.0, seed=25)
    inst = synthesize_instance(op, truth, 1e-3, seed=26)
    rep = check_onestep_bounds_mip(op, inst, [])
    assert rep.applicable
    assert rep.all_passed(1e-10)


def test_onestep_mip_gate():
    # nu = 0.8 passes the T=2 gate (nu < 1) but fails the T=3 gate (nu < 1/2)
    op2, _ = example1_pair(mu=-0.5)
    truth2 = SparseSignal(p=2, support=np.array([0, 1]), values=np.array([1.0, 1.0]))
    inst2 = synthesize_instance(op2, truth2, 0.0, seed=0)
    assert check_onestep_bounds_mip(op2, inst2, [0], coherence=0.8).applicable

    op3 = DenseOperator(np.hstack([op2.mat, np.array([[0.0], [1.0]])]))
    truth3 = SparseSignal(p=3, support=np.array([0, 1, 2]), values=np.ones(3))
    inst3 = synthesize_instance(op3, truth3, 0.0, seed=0)
    assert not check_onestep_bounds_mip(op3, inst3, [0], coherence=0.8).applicable


def test_onestep_rip_cases():
    applicable = 0
    for seed in range(8):
        op = gen_partial_dct_operator(10, 14, seed=900 + seed)
        truth = gen_sparse_signal(14, 2, 2.0, seed=910 + seed)
        deltas = {s: rip_constant_bruteforce(op, s) for s in range(1, 5)}
        noiseless = synthesize_instance(op, truth, 0.0, seed=920 + seed)
        full = check_onestep_bounds_rip(op, noiseless, truth.support, deltas=deltas)
        if full.applicable:
            assert full.all_passed(1e-10)
            applicable += 1
        empty = check_onestep_bounds_rip(op, noiseless, [], deltas=deltas)
        if empty.applicable:
            assert empty.all_passed(1e-10)
        noisy = synthesize_instance(op, truth, 1e-2, seed=930 + seed)
        sub = check_onestep_bounds_rip(op, noisy, truth.support[:1], deltas=deltas)
        if sub.applicable:
            assert sub.all_passed(1e-10)
    assert applicable >= 4  # the sweep must exercise real checks, not all gates


# ------------------------------------------------------------------- level sets

def test_level_set_extremes():
    truth = gen_sparse_signal(40, 5, 8.0, seed=31)
    assert level_set(truth, 1.0, 1e9).indices.size == 0
    assert np.array_equal(level_set(truth, 1e-30, 1.0).indices, truth.support)


def test_level_set_two_entry_example():
    truth = SparseSignal(p=6, support=np.array([1, 4]), values=np.array([1.0, 3.0]))
    ls = level_set(truth, 2.0, 1.0)  # cut = sqrt(2 * 2) * 1 = 2
    assert list(ls.indices) == [4]


def test_level_set_monotonicity():
    truth = gen_sparse_signal(50, 8, 20.0, seed=32)
    rng = np.random.default_rng(33)
    for _ in range(50):
        lam = float(rng.uniform(0.01, 5.0))
        s = float(rng.uniform(0.1, 5.0))
        base = set(level_set(truth, lam, s).indices.tolist())
        assert set(level_set(truth, lam, s * 1.5).indices.tolist()) <= base
        assert set(level_set(truth, lam * 2.0, s).indices.tolist()) <= base


def test_level_set_rejects_bad_params():
    truth = gen_sparse_signal(10, 2, 2.0, seed=34)
    with pytest.raises(ValueError):
        level_set(truth, 0.0, 1.0)
    with pytest.raises(ValueError):
        level_set(truth, 1.0, 0.0)


# --------------------------------------------------- printed coherence estimates

def test_lemma1_style_estimates_hold():
    # 100-draw sanity version of the acceptance sweep
    rng = np.random.default_rng(35)
    op = randomized_union_operator(30, rng)
    nu = mutual_coherence(op)
    mat = op.mat
    for _ in range(100):
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4))
        idx = rng.choice(60, size=a + b, replace=False)
        A, B = np.sort(idx[:a]), np.sort(idx[a:])
        y = rng.standard_normal(30)
        x_a = rng.standard_normal(a)
        assert np.max(np.abs(mat[:, A].T @ y)) <= np.linalg.norm(y) + 1e-12
        assert np.max(np.abs(mat[:, B].T @ (mat[:, A] @ x_a))) \
            <= a * nu * np.max(np.abs(x_a)) + 1e-12
        if (a - 1) * nu < 1:
            gram = mat[:, A].T @ mat[:, A]
            lhs = np.max(np.abs(np.linalg.solve(gram, x_a)))
            assert lhs <= np.max(np.abs(x_a)) / (1.0 - (a - 1) * nu) + 1e-12
