import numpy as np
import pytest

from l0kit import (DenseOperator, GramCache, SingularGramError, gen_gaussian_operator,
                   gen_partial_dct_operator, gen_sparse_signal, solve_cg,
                   solve_direct, synthesize_instance)
from conftest import CountingDctOperator, example1_pair


def test_empty_active_set():
    op = gen_gaussian_operator(10, 20, seed=0)
    y = np.random.default_rng(1).standard_normal(10)
    sol = solve_direct(op, [], y)
    assert sol.x_active.size == 0
    assert np.array_equal(sol.residual, y)
    assert np.allclose(sol.dual, op.adjoint_apply(y))
    assert sol.iterations == 0 and sol.method == "direct"


def test_orthonormal_columns_give_correlations():
    op = gen_partial_dct_operator(16, 16, seed=2)
    y = np.random.default_rng(3).standard_normal(16)
    active = np.array([1, 5, 9])
    sol = solve_direct(op, active, y)
    assert np.max(np.abs(sol.x_active - op.adjoint_apply(y)[active])) <= 1e-10


def test_example1_restricted_solve():
    # x_1 = (1+mu)^2/(1+mu^2) = 0.2 at mu = -0.5
    op, y = example1_pair(mu=-0.5)
    sol = solve_direct(op, [0], y)
    assert abs(sol.x_active[0] - 0.2) <= 1e-14


def test_normal_equations_satisfied():
    op = gen_gaussian_operator(60, 120, seed=5)
    rng = np.random.default_rng(6)
    y = rng.standard_normal(60)
    for size in (1, 7, 25):
        active = np.sort(rng.choice(120, size=size, replace=False))
        sol = solve_direct(op, active, y)
        assert np.max(np.abs(sol.dual[active])) <= 1e-8 * np.linalg.norm(y)


def test_singular_gram_raises_with_size():
    mat = np.zeros((4, 3))
    mat[:, 0] = mat[:, 1] = np.array([1.0, 0, 0, 0])
    mat[:, 2] = np.array([0, 1.0, 0, 0])
    op = DenseOperator(mat)
    with pytest.raises(SingularGramError) as err:
        solve_direct(op, [0, 1], np.ones(4))
    assert err.value.set_size == 2
    with pytest.raises(SingularGramError):
        solve_direct(gen_gaussian_operator(3, 8, seed=0), [0, 1, 2, 3], np.ones(3))


def test_pivot_test_is_relative_to_the_gram_diagonal():
    # columns scaled by 1e-7 give Gram entries near 1e-14, under the absolute
    # pivot tolerance; the solve must see through the scale: x_A grows by 1e7
    base = gen_gaussian_operator(50, 100, seed=3)
    tiny = DenseOperator(base.mat * 1e-7)
    y = np.random.default_rng(4).standard_normal(50)
    active = np.arange(10)
    expected = solve_direct(base, active, y).x_active * 1e7
    got = solve_direct(tiny, active, y).x_active
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
    # a repeated column is still singular at that scale
    mat = tiny.mat.copy()
    mat[:, 1] = mat[:, 0]
    with pytest.raises(SingularGramError):
        solve_direct(DenseOperator(mat), active, y)


def test_active_set_validation():
    op = gen_gaussian_operator(5, 10, seed=0)
    with pytest.raises(ValueError):
        solve_direct(op, [0, 0], np.ones(5))
    with pytest.raises(ValueError):
        solve_direct(op, [11], np.ones(5))


def test_cg_zero_iterations_from_exact_warm_start():
    op = gen_gaussian_operator(30, 60, seed=7)
    y = np.random.default_rng(8).standard_normal(30)
    active = np.arange(6)
    exact = solve_direct(op, active, y).x_active
    x = np.zeros(60)
    x[active] = exact
    sol = solve_cg(op, active, y, noise_level=np.linalg.norm(y), max_iters=10,
                   tol_factor=1e-5, start=x)
    assert sol.iterations <= 1
    assert np.max(np.abs(sol.x_active - exact)) <= 1e-8


def test_cg_orthonormal_converges_in_one_iteration():
    op = gen_partial_dct_operator(16, 16, seed=9)
    y = np.random.default_rng(10).standard_normal(16)
    active = np.array([0, 3, 7, 11])
    sol = solve_cg(op, active, y, noise_level=1.0, max_iters=50, tol_factor=1e-12)
    assert sol.iterations == 1
    assert np.max(np.abs(sol.x_active - op.adjoint_apply(y)[active])) <= 1e-10


def test_cg_matches_direct_on_dense_gaussian():
    op = gen_gaussian_operator(50, 100, seed=11)
    y = np.random.default_rng(12).standard_normal(50)
    rng = np.random.default_rng(13)
    for _ in range(10):
        active = np.sort(rng.choice(100, size=10, replace=False))
        direct = solve_direct(op, active, y)
        cg = solve_cg(op, active, y, noise_level=1.0, max_iters=50, tol_factor=1e-12)
        rel = np.linalg.norm(cg.x_active - direct.x_active) / np.linalg.norm(direct.x_active)
        assert rel <= 1e-8


def test_cg_residual_is_recomputed_consistently():
    # the residual and dual come from one apply and one adjoint at the end of
    # the solve; they match a fresh y - Psi x and Psi^t (y - Psi x)
    rng = np.random.default_rng(15)
    for op in (gen_gaussian_operator(40, 80, seed=14), gen_partial_dct_operator(64, 256, seed=14)):
        y = rng.standard_normal(op.n)
        active = np.sort(rng.choice(op.p, size=8, replace=False))
        for warm in (None, rng.standard_normal(8)):
            start = None
            if warm is not None:
                start = np.zeros(op.p)
                start[active] = warm
            sol = solve_cg(op, active, y, noise_level=1.0, max_iters=2, start=start)
            assert sol.iterations == 2
            x = np.zeros(op.p)
            x[active] = sol.x_active
            fresh = y - op.apply(x)
            assert np.max(np.abs(sol.residual - fresh)) <= 1e-12
            assert np.max(np.abs(sol.dual - op.adjoint_apply(fresh))) <= 1e-12


def test_cg_start_with_entries_off_the_set_matches_fresh_start():
    # entries of the start off the set are dropped, at no operator cost
    op = CountingDctOperator(gen_partial_dct_operator(64, 256, seed=16))
    rng = np.random.default_rng(17)
    y = rng.standard_normal(64)
    cache = GramCache(op, y)
    cache.aty   # Psi^t y up front, so the counts below are the solves' own
    x = np.zeros(256)
    x[[3, 40, 41, 90, 200]] = rng.standard_normal(5)
    kept = x.copy()
    active = np.array([3, 41, 90, 120])   # drops 40 and 200, adds 120
    carried = solve_cg(op, active, y, start=x, max_iters=2, cache=cache)
    assert (op.applies, op.adjoints) == (1, 2)
    on_set = np.zeros(256)
    on_set[active] = x[active]
    fresh = solve_cg(op, active, y, max_iters=2, start=on_set, cache=cache)
    assert (op.applies, op.adjoints) == (2, 3)
    for a, b in ((carried.x_active, fresh.x_active), (carried.residual, fresh.residual),
                 (carried.dual, fresh.dual)):
        assert np.array_equal(a, b)
    assert np.array_equal(x, kept)   # the start is not modified


@pytest.mark.parametrize("max_iters", [1, 2, 10])
@pytest.mark.parametrize("off_set", [False, True])
def test_cg_solve_makes_one_apply_and_adjoint(max_iters, off_set):
    # every iteration runs on the Gram block; the solve ends with one apply and
    # one adjoint, whatever its iteration count and start, and the partial
    # DCT's block comes in closed form, so no column is fetched
    op = CountingDctOperator(gen_partial_dct_operator(64, 256, seed=18))
    rng = np.random.default_rng(19)
    y = rng.standard_normal(64)
    cache = GramCache(op, y)
    active = np.sort(rng.choice(256, size=12, replace=False))
    start = np.zeros(256)
    start[active[::2]] = rng.standard_normal(6)
    if off_set:
        start[np.setdiff1d(np.arange(256), active)[:3]] = 1.0
    for solves in range(1, 4):
        sol = solve_cg(op, active, y, noise_level=0.0, max_iters=max_iters, tol_factor=0.0,
                       cache=cache, start=start)
        assert sol.iterations == max_iters
        assert (op.applies, op.adjoints) == (solves, solves + 1)   # and Psi^t y once
        start = np.zeros(256)
        start[active] = sol.x_active
    assert op.fetched == []


def test_cg_normal_equation_residual_monotone():
    op = gen_gaussian_operator(50, 100, seed=16)
    rng = np.random.default_rng(17)
    y = rng.standard_normal(50)
    for _ in range(20):
        active = np.sort(rng.choice(100, size=8, replace=False))
        sol = solve_cg(op, active, y, noise_level=0.0, max_iters=30, tol_factor=0.0)
        norms = sol.residual_norms
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))


def test_cg_respects_iteration_cap():
    op = gen_gaussian_operator(80, 160, seed=18)
    truth = gen_sparse_signal(160, 30, 10.0, seed=19)
    inst = synthesize_instance(op, truth, 1e-2, seed=20)
    sol = solve_cg(op, truth.support, inst.y, noise_level=inst.noise_level)
    assert sol.iterations <= 2  # bounded inner work is the contract, not convergence


def test_cg_rejects_bad_inputs():
    op = gen_gaussian_operator(10, 20, seed=0)
    with pytest.raises(ValueError):
        solve_cg(op, [], np.ones(10))
    with pytest.raises(ValueError):
        solve_cg(op, [1, 2], np.ones(10), start=np.ones(3))


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_cache_matches_fresh_solves():
    # grow, shrink, repeat, an entirely new set, then sets that push the cache
    # past its min(p, 2n) = 20 column bound and make it restart; the partial
    # DCT's block comes in closed form and its columns only with direct solves
    y = np.random.default_rng(22).standard_normal(10)
    sets = [[1, 2, 3], [1, 2, 3, 4, 5], [2, 4], [1, 2, 3], list(range(10, 20)),
            list(range(20, 30)), [0, 5, 20, 39], [], [2, 4]]
    for op in (gen_gaussian_operator(10, 40, seed=21), gen_partial_dct_operator(10, 40, seed=21)):
        cache = GramCache(op, y)
        for i, active in enumerate(sets):
            if active and i % 2:   # a CG solve first: Gram rows, no columns
                cached = solve_cg(op, active, y, max_iters=3, cache=cache)
                fresh = solve_cg(op, active, y, max_iters=3)
                assert _rel(cached.x_active, fresh.x_active) <= 1e-12
            cached = solve_direct(op, active, y, cache)
            fresh = solve_direct(op, active, y)
            assert cache.size <= cache.limit == 20
            if active:
                assert _rel(cached.x_active, fresh.x_active) <= 1e-12
            assert _rel(cached.residual, fresh.residual) <= 1e-12
            assert _rel(cached.dual, fresh.dual) <= 1e-12


def test_table_cache_fetches_columns_only_for_direct_solves():
    op = CountingDctOperator(gen_partial_dct_operator(32, 128, seed=25))
    y = np.random.default_rng(26).standard_normal(32)
    cache = GramCache(op, y)
    solve_cg(op, [4, 9, 30], y, cache=cache)
    assert op.fetched == []
    solve_direct(op, [4, 9, 30, 77], y, cache)
    assert sorted(op.fetched) == [4, 9, 30, 77]
    solve_cg(op, [4, 9, 30, 77, 100], y, cache=cache)
    solve_direct(op, [9, 30, 100], y, cache)
    assert sorted(op.fetched) == [4, 9, 30, 77, 100]


def test_table_cache_stores_every_column_from_its_first_direct_solve():
    # every slot holds its column or none does: the first nonempty direct
    # solve fetches the columns of every slot the cache holds, in one call
    op = CountingDctOperator(gen_partial_dct_operator(32, 128, seed=25))
    y = np.random.default_rng(26).standard_normal(32)
    cache = GramCache(op, y)
    solve_cg(op, [4, 9, 30, 50], y, cache=cache)
    solve_direct(op, [], y, cache)
    assert op.fetched == []
    solve_direct(op, [4, 9], y, cache)
    assert op.fetched == [4, 9, 30, 50]


def test_full_cache_starts_over_from_the_solve_set():
    op = gen_gaussian_operator(10, 40, seed=21)
    y = np.random.default_rng(22).standard_normal(10)
    cache = GramCache(op, y)
    solve_direct(op, list(range(10)), y, cache)
    solve_cg(op, list(range(10, 18)), y, cache=cache)
    assert cache.size == 18 and cache.limit == 20
    active = [0, 1, 18, 19, 20]   # 3 unseen indices pass the limit
    cached = solve_direct(op, active, y, cache)
    assert cache.size == len(active)
    assert _rel(cached.x_active, solve_direct(op, active, y).x_active) <= 1e-12


def test_cache_rejects_other_data():
    op = gen_gaussian_operator(6, 12, seed=23)
    cache = GramCache(op, np.ones(6))
    with pytest.raises(ValueError, match="cache"):
        solve_direct(op, [0], np.ones(6), cache)
    with pytest.raises(ValueError, match="cache"):
        solve_cg(gen_gaussian_operator(6, 12, seed=24), [0], cache.y, cache=cache)
