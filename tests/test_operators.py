import time
import tracemalloc

import numpy as np
import pytest

from scipy.fft import idct

from l0kit import (CustomOperator, DenseOperator, PartialDctOperator, gen_bernoulli_operator,
                   gen_gaussian_operator, gen_partial_dct_operator, mutual_coherence)
from l0kit.operators import _column_norms

ALL_GENERATORS = [gen_gaussian_operator, gen_bernoulli_operator, gen_partial_dct_operator]


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_columns_have_unit_norm(gen):
    op = gen(48, 96, seed=3)
    assert op.columns_normalized
    for i in range(op.p):
        assert abs(np.linalg.norm(op.columns([i])[:, 0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_adjoint_probe_identity(gen):
    op = gen(40, 80, seed=11)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(op.p)
        r = rng.standard_normal(op.n)
        lhs = float(op.apply(x) @ r)
        rhs = float(x @ op.adjoint_apply(r))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def _custom_gaussian(n, p, seed):
    base = gen_gaussian_operator(n, p, seed)
    return CustomOperator(n, p, base.apply, base.adjoint_apply)


@pytest.mark.parametrize("gen", [gen_gaussian_operator, gen_partial_dct_operator,
                                 _custom_gaussian], ids=["gaussian", "partial_dct", "custom"])
def test_columns_match_apply_on_basis_vectors(gen):
    op = gen(10, 20, seed=0)
    idx = [3, 0, 19, 7, 3]   # unsorted, with a repeat
    cols = op.columns(idx)
    assert cols.shape == (10, 5)
    for j, i in enumerate(idx):
        e = np.zeros(op.p)
        e[i] = 1.0
        assert np.array_equal(cols[:, j], op.apply(e))


def test_gaussian_1x1_is_sign():
    op = gen_gaussian_operator(1, 1, seed=9)
    assert op.mat.shape == (1, 1)
    assert abs(abs(op.mat[0, 0]) - 1.0) <= 1e-15


def test_gaussian_coherence_typical_range():
    # exact pairwise-scan coherence lands in a narrow band at this size;
    # range observed over these ten seeds before freezing
    nus = [mutual_coherence(gen_gaussian_operator(500, 1000, seed=s)) for s in range(10)]
    assert 0.1 < min(nus) and max(nus) < 0.3


def test_bernoulli_entries_and_exact_norms():
    op = gen_bernoulli_operator(4, 4, seed=2)
    assert set(np.unique(op.mat)) == {-0.5, 0.5}
    assert np.array_equal(np.linalg.norm(op.mat, axis=0), np.ones(4))
    big = gen_bernoulli_operator(2**10, 2**12, seed=7)
    assert big.shape == (1024, 4096)
    assert np.array_equal(np.abs(big.mat), np.full(big.shape, 1.0 / 32.0))


# the dense-ensemble shapes the stream is pinned on; n > p shapes can only be
# normalized, since the generators need n <= p
_NORM_SHAPES = [(500, 1000), (200, 400), (2000, 8000), (7, 13), (1, 5), (33, 17),
                (64, 4096), (1000, 3)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,p", _NORM_SHAPES)
def test_dense_ensembles_keep_their_instance_stream(n, p, seed):
    # every Gaussian and Bernoulli matrix is bitwise the one that
    # linalg.norm and an out-of-place scale made from the same draws
    if n <= p:
        op = gen_gaussian_operator(n, p, seed)
        ref = np.random.default_rng(seed).standard_normal((n, p))
        ref = ref / np.linalg.norm(ref, axis=0)
        assert np.array_equal(op.mat.view(np.int64), ref.view(np.int64))
        del op, ref
        op = gen_bernoulli_operator(n, p, seed)
        ref = np.random.default_rng(seed).choice([-1.0, 1.0], size=(n, p)) / np.sqrt(n)
        assert np.array_equal(op.mat.view(np.int64), ref.view(np.int64))
    else:
        mat = np.random.default_rng(seed).standard_normal((n, p))
        assert np.array_equal(_column_norms(mat), np.linalg.norm(mat, axis=0))


def test_gaussian_build_holds_one_matrix():
    # the matrix plus the n p / 8-byte finiteness mask is 1.125x its bytes;
    # a second n x p array, such as mat * mat, would make it 2x
    tracemalloc.start()
    try:
        op = gen_gaussian_operator(500, 1000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * op.mat.nbytes


def test_dense_operator_detects_normalized_columns():
    mat = gen_gaussian_operator(30, 60, seed=4).mat
    assert DenseOperator(mat).columns_normalized
    assert DenseOperator(gen_bernoulli_operator(30, 60, seed=4).mat).columns_normalized
    assert not DenseOperator(3.0 * mat).columns_normalized
    off = mat.copy()
    off[:, 17] *= 1.0 + 1e-9
    assert not DenseOperator(off).columns_normalized
    off[:, 17] = mat[:, 17] * (1.0 + 1e-14)
    assert DenseOperator(off).columns_normalized


def test_partial_dct_full_square_is_orthonormal():
    op = gen_partial_dct_operator(32, 32, seed=1)
    mat = op.columns(np.arange(32))
    assert np.max(np.abs(mat.T @ mat - np.eye(32))) <= 1e-10
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.standard_normal(32)
        assert abs(np.linalg.norm(op.apply(x)) - np.linalg.norm(x)) <= 1e-10


def test_partial_dct_matches_materialized_columns():
    op = gen_partial_dct_operator(24, 48, seed=4)
    mat = op.columns(np.arange(op.p))
    rng = np.random.default_rng(6)
    x = rng.standard_normal(op.p)
    r = rng.standard_normal(op.n)
    assert np.max(np.abs(op.apply(x) - mat @ x)) <= 1e-12
    assert np.max(np.abs(op.adjoint_apply(r) - mat.T @ r)) <= 1e-12
    assert np.all(np.abs(np.linalg.norm(mat, axis=0) - 1.0) <= 1e-12)


def _blocked_idct_row_norms(p, rows):
    # column norms over the selected rows of the DCT-II matrix, from inverse
    # transforms of the selected basis vectors, 128 rows at a time
    sq = np.zeros(p)
    for start in range(0, rows.size, 128):
        sel = rows[start:start + 128]
        basis = np.zeros((p, sel.size))
        basis[sel, np.arange(sel.size)] = 1.0
        sq += np.sum(idct(basis, axis=0, norm="ortho") ** 2, axis=1)
    return np.sqrt(sq)


@pytest.mark.parametrize("n,p", [(1, 2), (3, 8), (16, 17), (100, 1000), (500, 1000),
                                 (700, 2048), (2000, 8000)])
@pytest.mark.parametrize("with_row_0", [True, False])
def test_partial_dct_closed_form_norms_match_inverse_transforms(n, p, with_row_0):
    rng = np.random.default_rng(n * p)
    rows = rng.choice(np.arange(1, p), size=n, replace=False)
    if with_row_0:
        rows[0] = 0
    op = PartialDctOperator(p, rows)
    ref = _blocked_idct_row_norms(p, np.sort(rows))
    assert np.max(np.abs(1.0 / op._col_scale - ref) / ref) <= 1e-12


@pytest.mark.parametrize("n,p", [(1, 2), (3, 7), (16, 17), (100, 1000), (333, 1001),
                                 (700, 2048)])
@pytest.mark.parametrize("with_row_0", [True, False])
def test_partial_dct_gram_matches_materialized_columns(n, p, with_row_0):
    rng = np.random.default_rng(n + p)
    rows = rng.choice(np.arange(1, p), size=n, replace=False)
    if with_row_0:
        rows[0] = 0
    op = PartialDctOperator(p, rows)
    a = np.unique(np.concatenate(([0, p - 1], rng.choice(p, size=min(p, 50)))))
    b = np.concatenate(([p - 1, 0], rng.choice(p, size=min(p, 30))))
    assert np.max(np.abs(op.gram(a, b) - op.columns(a).T @ op.columns(b))) <= 1e-14
    block = op.gram(a, a)
    assert np.array_equal(block, block.T)


def test_partial_dct_zero_column_rejected():
    # rows 55 k for odd k all vanish on column 45 of the 5005-point transform
    # (55 * 91 = 5005); the closed form must not leave rounding there
    rows = [55 * k for k in range(1, 91, 2)]
    with pytest.raises(ValueError, match="zero column"):
        PartialDctOperator(5005, rows)
    with pytest.raises(ValueError, match="zero column"):
        PartialDctOperator(3, [1])


def test_partial_dct_setup_is_fast_at_scale():
    rows = np.random.default_rng(0).choice(2**15, size=2**13, replace=False)
    t0 = time.perf_counter()
    PartialDctOperator(2**15, rows)
    assert time.perf_counter() - t0 < 0.5


def test_partial_dct_paper_scale_shape():
    op = gen_partial_dct_operator(2**11, 2**13, seed=0)
    assert op.shape == (2048, 8192)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(op.p)
    r = rng.standard_normal(op.n)
    assert abs(op.apply(x) @ r - x @ op.adjoint_apply(r)) <= 1e-9


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_generator_rejects_bad_dims(gen):
    with pytest.raises(ValueError):
        gen(10, 5, seed=0)
    with pytest.raises(ValueError):
        gen(0, 5, seed=0)


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_generators_are_deterministic(gen):
    a = gen(16, 32, seed=123)
    b = gen(16, 32, seed=123)
    x = np.random.default_rng(0).standard_normal(32)
    assert np.array_equal(a.apply(x), b.apply(x))


def test_dense_operator_dim_checks():
    op = DenseOperator(np.eye(3))
    with pytest.raises(ValueError):
        op.apply(np.zeros(4))
    with pytest.raises(ValueError):
        op.adjoint_apply(np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_operator_rejects_non_finite_entries(bad):
    mat = gen_gaussian_operator(5, 10, seed=0).mat.copy()
    mat[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DenseOperator(mat, columns_normalized=True)


@pytest.mark.parametrize("build", [
    lambda: CustomOperator(2.7, 5, np.zeros, np.zeros),
    lambda: PartialDctOperator(16.5, np.arange(4)),
    lambda: gen_gaussian_operator(2.5, 10, 0),
    lambda: gen_partial_dct_operator(4, 16.0, 0),
], ids=["custom", "partial-dct", "gaussian", "gen-partial-dct"])
def test_fractional_dimensions_are_rejected(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_custom_operator_wraps_callables():
    from l0kit import solve_direct

    base = gen_gaussian_operator(12, 24, seed=8)
    op = CustomOperator(12, 24, base.apply, base.adjoint_apply,
                        columns_normalized=True)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(24)
    r = rng.standard_normal(12)
    assert np.array_equal(op.apply(x), base.apply(x))
    assert abs(op.apply(x) @ r - x @ op.adjoint_apply(r)) <= 1e-10
    for i in (0, 5, 23):
        assert np.allclose(op.columns([i])[:, 0], base.columns([i])[:, 0], atol=1e-14)
    # a solver-facing surface: restricted solves work through the wrapper
    sol = solve_direct(op, [1, 4], base.apply(x))
    assert sol.x_active.shape == (2,)


@pytest.mark.parametrize("which", ["apply_fn", "adjoint_fn"])
@pytest.mark.parametrize("bad", ["nan", "inf", "shape"])
def test_custom_operator_checks_callable_output(which, bad):
    base = gen_gaussian_operator(12, 24, seed=8)

    def broken(v):
        out = (base.apply if which == "apply_fn" else base.adjoint_apply)(v)
        if bad == "shape":
            return out[:-1]
        out[3] = np.nan if bad == "nan" else -np.inf
        return out

    op = CustomOperator(12, 24,
                        broken if which == "apply_fn" else base.apply,
                        broken if which == "adjoint_fn" else base.adjoint_apply)
    call = op.apply if which == "apply_fn" else op.adjoint_apply
    arg = np.ones(24) if which == "apply_fn" else np.ones(12)
    with pytest.raises(ValueError, match=which + (" returned shape" if bad == "shape"
                                                   else " output contains non-finite")):
        call(arg)
