"""Random-matrix laboratory: basis identities, matrix evaluation,
the finite-N Laplacian, the two diffusion samplers, and the Monte
Carlo estimator with its determinism contract.
"""

import contextlib
import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import freesb.matrixlab as matrixlab
import freesb.operators as operators
from freesb.tracepoly import TracePoly, parse
from freesb.operators import GeneratorSpec, apply_DN, exp_apply
from freesb.words import Measure, WordPoly, expectation, iota, l2_norm_sq
from freesb.matrixlab import (SamplerCfg, _sample_batch, basis_uN,
                              concentration_experiment, evaluate, evaluate_word,
                              expm, laplacian_eval, mc_expectation, sample_mu,
                              sample_rho, verify_magic, zero_test)

u = TracePoly.u
v = TracePoly.v


# ---------------------------------------------------------------- basis


def test_basis_gram_orthonormal():
    for N in (1, 2, 4):
        els = basis_uN(N).elements
        assert len(els) == N * N
        for j, X in enumerate(els):
            assert np.allclose(X, -X.conj().T, atol=1e-14)
            for k, Y in enumerate(els):
                ip = -N * np.trace(X @ Y).real
                assert abs(ip - (1.0 if j == k else 0.0)) < 1e-12


def test_basis_is_one_stack_in_the_documented_order():
    N = 3
    els = basis_uN(N).elements
    assert all(X.base is els[0].base for X in els)
    want = []
    for j in range(N):
        for k in range(j + 1, N):
            E = np.zeros((N, N), dtype=complex)
            E[j, k] = 1.0
            want += [(E - E.T) / math.sqrt(2 * N), 1j * (E + E.T) / math.sqrt(2 * N)]
    for j in range(N):
        E = np.zeros((N, N), dtype=complex)
        E[j, j] = 1j
        want.append(E / math.sqrt(N))
    assert np.array_equal(np.array(els), np.array(want))


def test_basis_range_guard():
    with pytest.raises(ValueError):
        basis_uN(0)
    with pytest.raises(ValueError):
        basis_uN(129)
    N = matrixlab.MAX_BASIS_N  # the bound itself builds; one more is refused
    assert len(basis_uN(N).elements) == N * N
    with pytest.raises(ValueError, match=f"1 <= N <= {N}, got {N + 1}"):
        basis_uN(N + 1)


def test_magic_formulas():
    for N in (2, 3, 5, 8):
        rep = verify_magic(N)
        assert rep["pass"], rep
        assert rep["max"] < 1e-11


# ---------------------------------------------------------------- expm


def test_expm_matches_scipy():
    rng = np.random.default_rng(3)
    for scale in (0.1, 1.0, 6.0):
        M = scale * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        got = expm(M)
        want = scipy.linalg.expm(M)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_expm_is_unitary():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    X = X - X.conj().T
    U = expm(X)
    assert np.max(np.abs(U @ U.conj().T - np.eye(5))) < 1e-13


def test_expm_checks_its_input():
    assert expm(np.zeros((0, 0))).shape == (0, 0)
    for bad in (np.array(1.0), np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="square 2-D"):
            expm(bad)


def _with_norm(M, norm):
    return M * (norm / np.abs(M).sum(axis=0).max())


def test_expm_batch_matches_scipy_across_theta():
    # 1-norms over (0, 1], either side of the scaling threshold 0.31
    la = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(5)
    theta = operators._EXPM_THETA
    norms = (1e-3, 0.1, theta * (1 - 1e-12), theta * (1 + 1e-12), 0.5, 0.9, 1.0)
    for N in (2, 5, 8, 16):
        for norm in norms:
            X = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            for M in (_with_norm(X - X.conj().T, norm), _with_norm(X, norm)):
                got = matrixlab._expm_batch(M[np.newaxis])[0]
                want = la.expm(M)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_expm_batch_keeps_real_input_real():
    # a real stack runs in float64 and matches the complex route on the same
    # values to 4 n u of the largest entry, with 0 to 6 squarings
    rng = np.random.default_rng(9)
    for n in (3, 15, 30):
        Ms = np.array([_with_norm(rng.normal(size=(n, n)), r) for r in (0.2, 1.5, 12.0)])
        got, want = matrixlab._expm_batch(Ms), matrixlab._expm_batch(Ms.astype(complex))
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= 4 * n * 2.0 ** -53 * np.abs(want).max()


def test_expm_batch_slices_are_independent():
    # slices needing 1, 2 and 5 squarings, so every squaring past the first
    # is partial: batched bits equal lone bits, complex at N = 2 and 8 (the
    # real GEMM) and at N = 12 (numpy's complex product, past the crossover)
    rng = np.random.default_rng(6)
    assert list(operators._squarings([0.5, 1.2, 5.0])) == [1, 2, 5]
    for N in (2, 8, 12):
        Ms = np.array([_with_norm(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)), r)
                       for r in (0.5, 1.2, 5.0, 0.7, 4.0)])
        batch = matrixlab._expm_batch(Ms)
        for M, E in zip(Ms, batch):
            assert np.array_equal(matrixlab._expm_batch(M[np.newaxis])[0], E)


def test_real_gemm_matches_matmul(monkeypatch):
    # the real form of the right factor, at every N the crossover could
    # take, gives numpy's complex product to 4 N u of its largest entry and
    # leaves both factors alone
    monkeypatch.setattr(operators, "_REAL_GEMM_MAX_N", 16)
    rng = np.random.default_rng(21)
    for N in range(1, 17):
        a, b = rng.normal(size=(2, 5, N, N)) + 1j * rng.normal(size=(2, 5, N, N))
        keep, out = (a.copy(), b.copy()), np.full_like(a, np.nan)
        work = np.full((2,) + a.shape, np.nan, dtype=complex)
        want = np.matmul(a, b)
        assert operators._real_gemm(a, b, out, work, 0) is out
        assert np.abs(out - want).max() <= 4 * N * 2.0 ** -53 * np.abs(want).max()
        assert np.array_equal(a, keep[0]) and np.array_equal(b, keep[1])


def test_real_gemm_takes_the_real_form_to_the_crossover_only():
    # up to _REAL_GEMM_MAX_N the form of b lands in the two work slots
    # named; past it, they stay untouched and the product is numpy's, bit
    # for bit
    rng = np.random.default_rng(23)
    cross = operators._REAL_GEMM_MAX_N
    for N in (1, cross, cross + 1, 16):
        a, b = rng.normal(size=(2, 3, N, N)) + 1j * rng.normal(size=(2, 3, N, N))
        out, work = np.empty_like(a), np.full((4,) + a.shape, np.nan, dtype=complex)
        operators._real_gemm(a, b, out, work, 1)
        form = work[1:3].reshape(3, N, 2, N)
        assert np.isnan(work[0]).all() and np.isnan(work[3]).all()
        if N <= cross:
            assert np.array_equal(form[:, :, 0], b) and np.array_equal(form[:, :, 1], 1j * b)
        else:
            assert np.isnan(work).all() and np.array_equal(out, np.matmul(a, b))


def test_real_stacks_keep_numpy_products_bit_for_bit(monkeypatch):
    # every product of _expm_batch, four and the squarings per call, and the
    # sampler's U E are _real_gemm; on a real stack, as every D_N and word
    # closure is, each product is np.matmul's bit for bit and builds no
    # complex form in the work slots it is given
    calls, gemm = [], operators._real_gemm

    def spy(a, b, out, work, slot, built=False):
        slots = work[slot:slot + 2].copy()
        gemm(a, b, out, work, slot, built)
        if a.dtype == float:
            assert np.array_equal(out, np.matmul(a, b))
            assert np.array_equal(work[slot:slot + 2], slots, equal_nan=True)
        calls.append((a.dtype, a.shape[-1]))
        return out

    monkeypatch.setattr(operators, "_real_gemm", spy)
    monkeypatch.setattr(matrixlab, "_real_gemm", spy)
    rng = np.random.default_rng(22)
    for N in (1, 3, operators._REAL_GEMM_MAX_N, 16):
        M = np.array([_with_norm(X, 3.0) for X in rng.normal(size=(2, N, N))])
        for dtype in (float, complex):
            matrixlab._expm_batch(M.astype(dtype))
            assert calls == [(np.dtype(dtype), N)] * (4 + operators._squarings(3.0))
            calls.clear()
    exp_apply(GeneratorSpec.DN(3), 0.7, parse("u^2 v-1 + v1^2"))  # a real dense closure
    assert calls and {dtype for dtype, _ in calls} == {np.dtype(float)}
    calls.clear()
    _sample_batch(SamplerCfg(N=4, s=1.0, steps=2, seed=1), [0, 1])
    assert len(calls) > 2 and set(calls) == {(np.dtype(complex), 4)}


@pytest.mark.parametrize("N", [4, 8])
def test_rho_path_stays_unitary(N):
    # 200 steps of U <- U e^{sqrt(d) G} at the sizes the real GEMM runs
    U = _sample_batch(SamplerCfg(N=N, s=1.0, steps=200, seed=3), list(range(16)))
    drift = np.abs(U @ np.swapaxes(U.conj(), -1, -2) - np.eye(N)).max()
    assert drift <= 1e-13


def test_expm_batch_in_buffers_matches_fresh():
    # caller buffers give the bits of fresh arrays, with or without squarings,
    # whatever the buffers held before, and leave the input alone
    rng = np.random.default_rng(8)
    X = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    work = np.full((7,) + X.shape, np.nan, dtype=complex)
    for norms in ((0.5, 1.2, 5.0, 0.7, 4.0), (0.1, 0.2, 0.3, 0.31, 0.05)):
        Ms = np.array([_with_norm(M, r) for M, r in zip(X, norms)])
        keep = Ms.copy()
        fresh = matrixlab._expm_batch(Ms)
        for _ in range(2):
            assert np.array_equal(matrixlab._expm_batch(Ms, work), fresh)
        assert np.array_equal(Ms, keep)


def test_expm_coefficients_expand_to_taylor():
    # B_a + (B_b + A6) A6, A6 = B_c + B_d^2, expanded exactly from the stored
    # doubles: the degree-12 Taylor polynomial to within 1e-15 relative
    mp = pytest.importorskip("mpmath")

    def mul(p, q):
        out = [mp.mpf(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    def add(p, q):
        return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                for i in range(max(len(p), len(q)))]

    with mp.workdps(50):
        a, b, c, d = ([mp.mpf(float(w)) for w in row] for row in operators._EXPM_W)
        A6 = add(c, mul(d, d))
        T12 = add(a, mul(add(b, A6), A6))
        assert len(T12) == 13
        for k, coeff in enumerate(T12):
            assert abs(coeff * mp.factorial(k) - 1) <= 1e-15, k
        # the forward tail at theta is below half a unit roundoff
        theta = mp.mpf(operators._EXPM_THETA)
        assert theta ** 13 / mp.factorial(13) / (1 - theta / 14) <= 2.0 ** -54


def test_expm_batch_matches_scipy_at_its_theta():
    # either side of the scaling threshold, where the Taylor tail is largest
    la = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(15)
    theta = operators._EXPM_THETA
    for N in (1, 2, 5, 8, 16):
        for norm in (theta * (1 - 1e-12), theta * (1 + 1e-12)):
            X = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            for M in (_with_norm(X - X.conj().T, norm), _with_norm(X, norm)):
                want = la.expm(M)
                got = matrixlab._expm_batch(M[np.newaxis])[0]
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_expm_batch_discarded_squares_do_not_raise():
    # e^{600} (11 squarings, 3.8e260) is done long before the unitary slice
    # (23 squarings); one more square of it would overflow, so the rounds
    # that only the unitary slice needs must leave it alone
    rng = np.random.default_rng(16)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Ms = np.array([600.0 * np.eye(3), _with_norm(X - X.conj().T, 2e6)], dtype=complex)
    with np.errstate(over="raise", invalid="raise"):
        batch = matrixlab._expm_batch(Ms)
        for M, E in zip(Ms, batch):
            assert np.array_equal(matrixlab._expm_batch(M[np.newaxis])[0], E)
    assert np.isfinite(batch).all()
    assert np.allclose(batch[0], math.exp(600.0) * np.eye(3), rtol=1e-12, atol=0)


def test_expm_result_outlives_later_calls():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    E = expm(X)
    keep = E.copy()
    expm(2.0 * X)
    _sample_batch(SamplerCfg(N=3, s=1.0, t=0.5, steps=3, seed=1), [0, 1])
    assert np.array_equal(E, keep)


def test_expm_batch_rejects_non_finite():
    for bad in (np.nan, np.inf):
        M = np.zeros((2, 3, 3), dtype=complex)
        M[1, 0, 2] = bad
        with pytest.raises(ValueError):
            matrixlab._expm_batch(M)


def test_expm_batch_bounds_squarings():
    # 26 squarings run (error about 2^26 u); a 1-norm that needs 27 raises
    # before any squaring, for the whole batch
    rng = np.random.default_rng(7)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    X = X - X.conj().T
    limit = operators._EXPM_THETA * 2.0 ** operators._EXPM_MAX_SQUARINGS
    U = expm(_with_norm(X, limit * (1 - 1e-12)))
    assert np.max(np.abs(U @ U.conj().T - np.eye(4))) < 1e-6
    for norm in (limit, 1e150):
        with pytest.raises(ValueError, match="1-norm"):
            matrixlab._expm_batch(np.array([_with_norm(X, 0.5), _with_norm(X, norm)]))


# ---------------------------------------------------------------- evaluate


def test_evaluate_oracle():
    rng = np.random.default_rng(11)
    Z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    p = parse("2 u^2 v1 - u^-1 + v-2")
    Zi = np.linalg.inv(Z)
    want = (2 * (Z @ Z) * (np.trace(Z) / 3)
            - Zi + np.trace(Zi @ Zi) / 3 * np.eye(3))
    assert np.max(np.abs(evaluate(p, Z) - want)) < 1e-12 * np.max(np.abs(want))


def test_evaluate_singular_guard():
    Z = np.diag([1.0, 0.0, 2.0]).astype(complex)
    with pytest.raises(ValueError):
        evaluate(u(-1), Z)
    with pytest.raises(ValueError):
        evaluate_word(WordPoly.var("A"), Z)
    # words without inverse letters are fine at singular points
    assert abs(evaluate_word(WordPoly.var("a"), Z) - 1.0) < 1e-15


def test_evaluation_refuses_the_degree_at_entry(monkeypatch):
    # before any power of Z is built: the table would key every prefix of u^20000
    monkeypatch.setattr(matrixlab, "_z_products", None)
    eye = np.eye(2, dtype=complex)
    for call in (lambda p: evaluate(p, eye), lambda p: laplacian_eval(p, eye, 2)):
        with pytest.raises(ValueError, match="trace degree 20001 exceeds 24"):
            call(parse("u^20000 v1"))


def test_word_products_build_each_prefix_once():
    # a word's product is its prefix's product times its last letter, kept:
    # aa, aas and aaS take one product each, where a loop per word takes 5
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Zi = np.linalg.inv(Z)
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x @ y

    zs = matrixlab._Products(np.eye(3, dtype=complex),
                             {"a": Z, "s": Z.conj().T, "S": Zi.conj().T}, mul)
    for w in ("aa", "aas", "aaS"):
        zs[w]
    assert len(calls) == 3
    assert np.array_equal(zs["aaS"], Z @ Z @ Zi.conj().T)  # read back: no product
    assert zs["a"] is Z and len(calls) == 3


@pytest.mark.parametrize("N", [1, 3])
def test_evaluate_word_is_a_left_to_right_product(N):
    rng = np.random.default_rng(N)
    Z = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    Zi = np.linalg.inv(Z)
    letters = {"a": Z, "A": Zi, "s": Z.conj().T, "S": Zi.conj().T}
    var = WordPoly.var
    pw = (2.0 * var("aas") * var("aS", 2) - 1j * var("AsA")
          + (0.5 + 0.25j) * var("SSa") * var("sA", 3) + var("aasAS"))
    want = 0j
    for m, c in pw.terms.items():
        val = complex(c)
        for w, e in m:
            M = letters[w[0]]
            for ch in w[1:]:
                M = M @ letters[ch]
            val *= complex(np.trace(M) / N) ** e
        want += val
    assert evaluate_word(pw, Z) == want


def test_batch_mul_is_numpys_product():
    # the jets' (b, N, N) @ (N, N) products as one gemm give numpy's batched bits
    rng = np.random.default_rng(11)
    for b, N in ((6, 36), (56, 12), (1, 5)):
        x = rng.normal(size=(b, N, N)) + 1j * rng.normal(size=(b, N, N))
        y = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        assert np.array_equal(matrixlab._batch_mul(x, y), x @ y)
        assert np.array_equal(matrixlab._batch_mul(y, x), y @ x)


def test_laplacian_eval_at_a_singular_point():
    # without inverse powers U is never inverted: the Laplacian is exact there
    # (D_N intertwines on all of M_N); with them, the invertibility guard
    assert np.array_equal(laplacian_eval(u(1), np.zeros((2, 2)), 2), np.zeros((2, 2)))
    U = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.0, 1j, 3.0]])
    for p in (u(2) * v(1), parse("v2 v1 + 3 u v3")):
        sym = evaluate(apply_DN(p, 3), U)
        assert np.max(np.abs(laplacian_eval(p, U, 3) - sym)) < 1e-12 * np.max(np.abs(sym))
    for p in (u(-1), u(1) * v(-2)):
        with pytest.raises(ValueError, match="singular"):
            laplacian_eval(p, U, 3)
    with pytest.raises(ValueError, match=r"U has shape \(3, 3\), expected \(2, 2\)"):
        laplacian_eval(u(1), U, 2)


def test_laplacian_eval_matches_symbolic():
    rng = np.random.default_rng(12)
    polys = [u(2), u(1) * v(1), v(1) * v(-1), parse("u^-2 v2 + u v1^2")]
    for N in (2, 4):
        U = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))[0]
        for p in polys:
            num = laplacian_eval(p, U, N)
            sym = evaluate(apply_DN(p, N), U)
            assert np.max(np.abs(num - sym)) < 1e-10 * max(1.0, np.max(np.abs(sym)))


def test_laplacian_eval_across_batches(monkeypatch):
    rng = np.random.default_rng(5)
    # u v1 at the largest basis, which spans many batches of the default budget
    U = np.linalg.qr(rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36)))[0]
    assert len(matrixlab._basis_batches(36)) > 1
    sym = evaluate(apply_DN(u(1) * v(1), 36), U)
    assert np.max(np.abs(laplacian_eval(u(1) * v(1), U, 36) - sym)) < 1e-12 * np.max(np.abs(sym))
    # the N = 4 basis in one batch of 16, then in batches of 5, 5, 5 and 1
    U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    polys = [parse("u^2 v1 + 2 v2 v1^2 u + 3"), parse("u^-2 v2 + u v1 v-3 + v-1")]
    whole = [laplacian_eval(p, U, 4) for p in polys]
    monkeypatch.setattr(matrixlab, "_BASIS_BYTES", 5 * U.nbytes)
    assert [len(X) for X in matrixlab._basis_batches(4)] == [5, 5, 5, 1]
    for p, want in zip(polys, whole):
        got = laplacian_eval(p, U, 4)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
        sym = evaluate(apply_DN(p, 4), U)
        assert np.max(np.abs(got - sym)) < 1e-12 * np.max(np.abs(sym))


# ---------------------------------------------------------------- samplers


def test_sampler_cfg_guards():
    with pytest.raises(ValueError):
        SamplerCfg(N=0, s=1.0)
    with pytest.raises(ValueError):
        SamplerCfg(N=129, s=1.0)
    with pytest.raises(ValueError, match="N must be a positive integer, got 4.5"):
        SamplerCfg(N=4.5, s=1.0)
    with pytest.raises(ValueError):
        SamplerCfg(N=4, s=1.0, steps=0)
    with pytest.raises(ValueError):
        sample_mu(SamplerCfg(N=4, s=1.0, t=0.0), 0)  # t=0 means rho
    with pytest.raises(ValueError):
        sample_mu(SamplerCfg(N=4, s=1.0, t=-0.5), 0)
    with pytest.raises(ValueError):
        sample_mu(SamplerCfg(N=4, s=0.5, t=1.2), 0)  # needs s > t/2
    with pytest.raises(ValueError):
        sample_rho(SamplerCfg(N=4, s=1.0, t=0.8), 0)
    # times of no measure are refused when the configuration is built
    for times, message in (({"s": -0.1}, "rho requires s >= 0"),
                           ({"s": 1.0, "t": -0.5}, "mu requires s > t/2 > 0"),
                           ({"s": 0.5, "t": 1.2}, "mu requires s > t/2"),
                           ({"s": 0.5, "t": 1.0}, "mu requires s > t/2")):
        with pytest.raises(ValueError, match=message):
            SamplerCfg(N=4, **times)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            SamplerCfg(N=4, s=bad)
        with pytest.raises(ValueError, match="non-finite"):
            SamplerCfg(N=4, s=1.0, t=bad)


def test_sampler_unitarity():
    cfg = SamplerCfg(N=6, s=1.3, steps=50, seed=2)
    U = sample_rho(cfg, 0)
    assert np.max(np.abs(U @ U.conj().T - np.eye(6))) < 1e-8


def test_sampler_unitarity_after_many_steps():
    cfg = SamplerCfg(N=8, s=1.0, steps=200, seed=1)
    U = _sample_batch(cfg, list(range(16)))
    assert np.max(np.abs(U @ U.conj().swapaxes(-1, -2) - np.eye(8))) <= 1e-13


def test_sampler_zero_time_is_identity():
    cfg = SamplerCfg(N=5, s=0.0, steps=10, seed=0)
    assert np.array_equal(sample_rho(cfg, 3), np.eye(5, dtype=complex))


def test_sampler_bitwise_reproducible():
    cfg = SamplerCfg(N=4, s=1.0, t=0.6, steps=30, seed=9)
    A = sample_mu(cfg, 7)
    B = sample_mu(cfg, 7)
    assert np.array_equal(A, B)
    # a different sample index gives a different stream
    assert not np.array_equal(A, sample_mu(cfg, 8))


def test_sampler_chunk_invariance():
    # a sample's bits must not depend on which batch it was drawn in
    cfg = SamplerCfg(N=3, s=0.9, steps=20, seed=5)
    batch = _sample_batch(cfg, np.arange(4))
    for idx in range(4):
        assert np.array_equal(batch[idx], sample_rho(cfg, idx))


def test_sampler_stream_layout():
    # the draw layout that RNG_NAME names: each step draws one N x N block z
    # per noise from the sample's stream, and the step generator is
    # wa (z - z^T + i(z + z^T)) + i wb (z2 - z2^T + i(z2 + z2^T))
    assert matrixlab.RNG_NAME == "sfc64-2"
    N, index = 2, 5
    herm = lambda z: z - z.T + 1j * (z + z.T)
    # (sampler, cfg, a, b): step weights (s - t/2, t/2), so (s, 0) for rho
    cases = ((sample_rho, SamplerCfg(N=N, s=0.7, steps=1, seed=4), 0.7, 0.0),
             (sample_mu, SamplerCfg(N=N, s=1.3, t=0.8, steps=1, seed=4), 1.3 - 0.4, 0.4),
             # t/2 underflows to 0, yet mu still draws two blocks per step: at
             # two steps, the second step's first block is z[1, 0], not z[0, 1]
             (sample_mu, SamplerCfg(N=N, s=1.3, t=5e-324, steps=2, seed=4), 1.3, 0.0))
    for sample, cfg, a, b in cases:
        z = matrixlab._stream(cfg.seed, index).standard_normal((cfg.steps, 2, N, N))
        wa, wb = (math.sqrt(w / cfg.steps / (4 * N)) for w in (a, b))
        want = np.eye(N)
        for zk in z:  # indexed by (step, noise)
            want = want @ expm(wa * herm(zk[0]) + 1j * wb * herm(zk[1]))
        assert np.max(np.abs(sample(cfg, index) - want)) < 1e-14


def test_streams_are_what_rng_name_names():
    # SFC64 seeded from blake2b(seed:index): if numpy changes SFC64's seeding
    # or standard_normal, these bytes move, and RNG_NAME must change with them
    want = "2a7df4db008bcabf70cec1572936d2bf349793aa9b6afdbf8570fed42383dc3f"
    assert matrixlab._stream(4, 5).standard_normal(4).tobytes().hex() == want
    # the first 4,096 normals of 128 streams, at seed 0 and at a negative
    # seed: each N(0, 1), and neighbouring streams uncorrelated
    for seed in (0, -1):
        z = np.array([matrixlab._stream(seed, i).standard_normal(4096) for i in range(128)])
        assert min(scipy.stats.kstest(row, "norm").pvalue for row in z) > 1e-3
        z = (z - z.mean(axis=1, keepdims=True)) / z.std(axis=1, keepdims=True)
        assert np.abs((z[:-1] * z[1:]).mean(axis=1)).max() < 5 / math.sqrt(4096)


class _FreshDraws:
    """A stream that draws each block into a new array and copies it out,
    as stacking per-stream draws does."""

    def __init__(self, gen):
        self.gen = gen

    def standard_normal(self, size, out):
        out[...] = self.gen.standard_normal(size)
        return out


def test_sampler_draws_blocks_of_steps(monkeypatch):
    # blocks of 7 steps do not divide 50 and leave every bit unchanged;
    # the noise held at once no longer grows with the number of steps
    cfg = SamplerCfg(N=4, s=1.0, t=0.6, steps=50, seed=2)
    whole = _sample_batch(cfg, list(range(8)))
    step_bytes = 8 * 2 * 4 * 4 * 8  # samples, noises, N x N, float64
    monkeypatch.setattr(matrixlab, "_DRAW_BYTES", 7 * step_bytes)
    assert np.array_equal(_sample_batch(cfg, list(range(8))), whole)
    peaks = []
    for steps in (50, 400):
        tracemalloc.start()
        _sample_batch(dataclasses.replace(cfg, steps=steps), list(range(8)))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
    # each stream draws straight into its slice of one block: a chunk holds
    # little beyond that block (stacking per-stream draws held two copies)
    monkeypatch.setattr(matrixlab, "_DRAW_BYTES", 40 * step_bytes)
    cfg = dataclasses.replace(cfg, steps=160)
    tracemalloc.start()
    in_place = _sample_batch(cfg, list(range(8)))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.5 * 40 * step_bytes
    stream = matrixlab._stream
    monkeypatch.setattr(matrixlab, "_stream", lambda *key: _FreshDraws(stream(*key)))
    assert np.array_equal(_sample_batch(cfg, list(range(8))), in_place)


# ---------------------------------------------------------------- monte carlo


def test_mc_thread_invariance():
    # at the least N that takes a pool, so threads=4 runs one
    cfg = SamplerCfg(N=matrixlab._POOL_MIN_N, s=1.0, steps=20, seed=13)
    m1, e1 = mc_expectation(v(1), cfg, 300, threads=1)
    m4, e4 = mc_expectation(v(1), cfg, 300, threads=4)
    assert m1 == m4
    assert e1 == e4


def test_mc_thread_pool_is_capped(monkeypatch):
    # from N = _POOL_MIN_N on, at most one thread per chunk and per core,
    # whatever threads asks (None asks for no cap); below it no pool at all.
    # The stand-in pool records its size and maps on the calling thread
    sizes = []
    monkeypatch.setattr(matrixlab, "ThreadPoolExecutor", lambda max_workers: sizes.append(
        max_workers) or contextlib.nullcontext(types.SimpleNamespace(map=map)))
    big = matrixlab._POOL_MIN_N
    for N, threads, cores, chunks, want in ((big, 10**6, 3, 5, [3]), (big, 10**6, 3, 2, [2]),
                                            (big, None, 3, 5, [3]), (big, 2, 3, 5, [2]),
                                            (big, 10**6, 3, 1, []), (big, 10**6, None, 5, []),
                                            (big - 1, 10**6, 3, 5, []), (2, None, 3, 5, [])):
        cfg = SamplerCfg(N=N, s=1.0, steps=2, seed=1)
        monkeypatch.setattr(matrixlab.os, "cpu_count", lambda: cores)
        del sizes[:]
        n = chunks * matrixlab._CHUNK
        assert mc_expectation(v(1), cfg, n, threads=threads) == mc_expectation(v(1), cfg, n, threads=1)
        assert sizes == want, (N, threads, cores, chunks)


@pytest.mark.parametrize("N", [2, 16])
def test_mc_values_do_not_depend_on_the_pool(N):
    # three chunks, on one thread (N = 2) or a real pool (N = 16, 2+ cores)
    cfg = SamplerCfg(N=N, s=1.0, t=0.5, steps=2, seed=4)
    n = 3 * matrixlab._CHUNK
    means = {threads: mc_expectation(v(1), cfg, n, threads=threads) for threads in (None, 1, 2)}
    assert means[None] == means[1] == means[2]


def test_mc_rejects_matrix_valued_observable():
    cfg = SamplerCfg(N=3, s=1.0, steps=10, seed=0)
    with pytest.raises(ValueError):
        mc_expectation(u(1), cfg, 4)
    with pytest.raises(ValueError):
        mc_expectation(v(1), cfg, 1)  # needs >= 2 samples for stderr


def test_mc_agrees_with_exact_expectation():
    # |mc - exact| <= 3 stderr + discretization margin
    N, s, steps = 6, 0.8, 100
    cfg = SamplerCfg(N=N, s=s, steps=steps, seed=21)
    mean, stderr = mc_expectation(v(1), cfg, 400)
    exact = expectation(iota(v(1)), s, 0.0, N)
    margin = 3.0 * stderr + 5.0 * (s / steps)
    assert abs(mean - exact) < margin


def test_mc_word_observable():
    cfg = SamplerCfg(N=4, s=1.2, t=0.5, steps=100, seed=8)
    mean, stderr = mc_expectation(WordPoly.var("as"), cfg, 300)
    exact = expectation(WordPoly.var("as"), 1.2, 0.5, 4)
    assert abs(mean - exact) < 3.0 * stderr + 0.06


# ---------------------------------------------------------------- experiments


def test_concentration_symbolic_slope():
    out = concentration_experiment(v(1), 1.0, 0.0, [4, 8, 16, 32],
                                   mode="symbolic")
    assert len(out["rows"]) == 4
    for row in out["rows"]:
        assert row["stderr"] is None
        assert row["value"] > 0.0
    assert -2.2 < out["slope"] < -1.8


def test_concentration_mc_mode_rows():
    out = concentration_experiment(v(1), 1.0, 0.0, [3, 4, 6], mode="mc",
                                   steps=20, samples=60, seed=2)
    for row in out["rows"]:
        assert row["stderr"] is not None and row["stderr"] >= 0.0


def test_concentration_guards():
    with pytest.raises(ValueError):
        concentration_experiment(v(1), 1.0, 0.0, [8, 4, 16], mode="symbolic")
    with pytest.raises(ValueError):
        concentration_experiment(v(1), 1.0, 0.0, [4, 8], mode="symbolic")
    with pytest.raises(ValueError, match="strictly ascending"):
        concentration_experiment(v(1), 1.0, 0.0, [4, 8, 8], mode="symbolic")
    with pytest.raises(ValueError, match="nsamples"):
        concentration_experiment(v(1), 1.0, 0.0, [3, 4, 6], mode="mc", samples=1)
    with pytest.raises(ValueError, match="unknown mode 'x'"):
        concentration_experiment(v(1), 1.0, 0.0, [3, 4, 6], mode="x")


def test_equivariance_and_zero_test(equivariance_check):
    p = parse("u^2 - 2 u v1 + 2 v1^2 - v2")  # Cayley-Hamilton at N=2
    assert equivariance_check(p, 4, seed=1) < 1e-10
    assert zero_test(p, 2) < 1e-12
    assert zero_test(p, 3) > 1e-3
