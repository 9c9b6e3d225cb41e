import numpy as np
import pytest

from l0kit import (ProblemInstance, SparseSignal, gen_gaussian_operator, gen_sparse_signal,
                   synthesize_instance)


def test_unit_range_signal_has_constant_magnitude():
    sig = gen_sparse_signal(10, 10, 1.0, seed=0)
    assert np.array_equal(np.abs(sig.values), np.ones(10))
    assert sig.dynamic_range == 1.0


def test_range_is_pinned_exactly():
    sig = gen_sparse_signal(1000, 100, 100.0, seed=1)
    assert sig.min_abs == 1.0
    assert abs(sig.dynamic_range - 100.0) <= 1e-9
    assert sig.sparsity == 100
    assert np.all(np.abs(sig.values) >= 1.0)
    assert np.all(np.abs(sig.values) <= 100.0)


def test_fig2b_scale_signal():
    sig = gen_sparse_signal(1000, 250, 1.0, seed=3)
    assert sig.sparsity == 250
    assert sig.p == 1000


def test_signal_validation():
    with pytest.raises(ValueError):
        gen_sparse_signal(10, 11, 1.0, seed=0)      # T > p
    with pytest.raises(ValueError):
        gen_sparse_signal(10, 1, 5.0, seed=0)       # 1-sparse cannot span R > 1
    with pytest.raises(ValueError):
        gen_sparse_signal(10, 2, 0.5, seed=0)       # R < 1
    with pytest.raises(ValueError):
        SparseSignal(p=5, support=np.array([1]), values=np.array([0.0]))
    with pytest.raises(ValueError):
        SparseSignal(p=5, support=np.array([1, 1]), values=np.array([1.0, 2.0]))


def test_instance_composition_is_exact():
    op = gen_gaussian_operator(50, 120, seed=4)
    truth = gen_sparse_signal(120, 10, 10.0, seed=5)
    inst = synthesize_instance(op, truth, 1e-2, seed=6)
    assert np.array_equal(inst.y, op.apply(truth.dense()) + inst.noise)
    assert abs(inst.noise_level - np.linalg.norm(inst.noise)) <= 1e-12
    assert inst.noise_std == 1e-2


def test_noiseless_instance():
    op = gen_gaussian_operator(20, 40, seed=1)
    truth = gen_sparse_signal(40, 4, 2.0, seed=2)
    inst = synthesize_instance(op, truth, 0.0, seed=3)
    assert inst.noise_level == 0.0
    assert np.array_equal(inst.y, op.apply(truth.dense()))


def test_instance_determinism_byte_for_byte():
    op = gen_gaussian_operator(30, 60, seed=7)
    truth = gen_sparse_signal(60, 6, 3.0, seed=8)
    a = synthesize_instance(op, truth, 1e-3, seed=9)
    b = synthesize_instance(op, truth, 1e-3, seed=9)
    assert a.y.tobytes() == b.y.tobytes()
    assert a.noise.tobytes() == b.noise.tobytes()


def test_noise_norm_concentrates_at_sigma_sqrt_n():
    # chi-distribution mean: eps ~= sigma sqrt(n); every seed within +-20%
    # (empirically [0.201, 0.235] over these 100 seeds)
    op = gen_gaussian_operator(500, 600, seed=0)
    truth = gen_sparse_signal(600, 5, 2.0, seed=0)
    expected = 1e-2 * np.sqrt(500)
    epss = np.array([synthesize_instance(op, truth, 1e-2, seed=s).noise_level
                     for s in range(100)])
    assert np.all(np.abs(epss - expected) <= 0.2 * expected)
    assert abs(np.mean(epss) - expected) <= 0.05 * expected


def test_sigma_matches_figs_noise_setting():
    op = gen_gaussian_operator(16, 32, seed=0)
    truth = gen_sparse_signal(32, 3, 2.0, seed=1)
    inst = synthesize_instance(op, truth, 1e-3, seed=2)
    assert inst.noise_std == 1e-3


def test_dim_mismatch_rejected():
    op = gen_gaussian_operator(10, 20, seed=0)
    truth = gen_sparse_signal(21, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        synthesize_instance(op, truth, 0.0, seed=0)


@pytest.mark.parametrize("T, R", [(2.5, 1.0), (3, np.nan), (3, np.inf)])
def test_signal_rejects_fractional_sparsity_and_non_finite_range(T, R):
    with pytest.raises(ValueError, match="integer|finite"):
        gen_sparse_signal(10, T, R, seed=0)


def test_signal_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        SparseSignal(p=5, support=np.array([1, 3]), values=np.array([1.0, np.nan]))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1e-3])
def test_instance_rejects_bad_sigma(sigma):
    op = gen_gaussian_operator(10, 20, seed=0)
    truth = gen_sparse_signal(20, 2, 1.0, seed=0)
    with pytest.raises(ValueError, match="sigma"):
        synthesize_instance(op, truth, sigma, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_instance_rejects_non_finite_y(bad):
    op = gen_gaussian_operator(10, 20, seed=0)
    y = np.random.default_rng(1).standard_normal(10)
    y[4] = bad
    with pytest.raises(ValueError, match="y contains non-finite"):
        ProblemInstance(operator=op, y=y)
