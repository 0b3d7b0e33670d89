"""Random-matrix laboratory: basis identities, matrix evaluation,
the finite-N Laplacian, the two diffusion samplers, and the Monte
Carlo estimator with its determinism contract.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import freesb.matrixlab as matrixlab
from freesb.tracepoly import TracePoly, parse
from freesb.operators import GeneratorSpec, apply_DN, exp_apply
from freesb.words import Measure, WordPoly, expectation, iota, l2_norm_sq
from freesb.matrixlab import (SamplerCfg, _sample_batch, basis_uN,
                              concentration_experiment, equivariance_check,
                              evaluate, evaluate_word, expm, laplacian_eval,
                              mc_expectation, sample_mu, sample_rho,
                              verify_magic, zero_test)

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


def test_basis_range_guard():
    with pytest.raises(ValueError):
        basis_uN(0)
    with pytest.raises(ValueError):
        basis_uN(129)


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


def _with_norm(M, norm):
    return M * (norm / np.abs(M).sum(axis=0).max())


def test_expm_batch_matches_scipy_across_theta():
    # 1-norms over (0, 1], either side of the scaling threshold 0.78
    la = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(5)
    norms = (1e-3, 0.1, 0.5, 0.78 * (1 - 1e-12), 0.78 * (1 + 1e-12), 0.9, 1.0)
    for N in (2, 5, 8, 16):
        for norm in norms:
            X = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            for M in (_with_norm(X - X.conj().T, norm), _with_norm(X, norm)):
                got = matrixlab._expm_batch(M[np.newaxis])[0]
                want = la.expm(M)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_expm_batch_slices_are_independent():
    # slices needing 0, 1 and 3 squarings: batched bits equal lone bits
    rng = np.random.default_rng(6)
    Ms = np.array([_with_norm(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), r)
                   for r in (0.5, 1.2, 5.0, 0.7, 4.0)])
    batch = matrixlab._expm_batch(Ms)
    for M, E in zip(Ms, batch):
        assert np.array_equal(matrixlab._expm_batch(M[np.newaxis])[0], E)


def test_expm_batch_rejects_non_finite():
    for bad in (np.nan, np.inf):
        M = np.zeros((2, 3, 3), dtype=complex)
        M[1, 0, 2] = bad
        with pytest.raises(ValueError):
            matrixlab._expm_batch(M)


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


def test_laplacian_eval_matches_symbolic():
    rng = np.random.default_rng(12)
    polys = [u(2), u(1) * v(1), v(1) * v(-1), parse("u^-2 v2 + u v1^2")]
    for N in (2, 4):
        U = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))[0]
        for p in polys:
            num = laplacian_eval(p, U, N)
            sym = evaluate(apply_DN(p, N), U)
            assert np.max(np.abs(num - sym)) < 1e-10 * max(1.0, np.max(np.abs(sym)))


# ---------------------------------------------------------------- samplers


def test_sampler_cfg_guards():
    with pytest.raises(ValueError):
        SamplerCfg(N=0, s=1.0)
    with pytest.raises(ValueError):
        SamplerCfg(N=129, s=1.0)
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
    step_bytes = 8 * 2 * 2 * 4 * 4 * 8  # samples, noises, re/im, N x N, float64
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
    cfg = SamplerCfg(N=3, s=1.0, steps=20, seed=13)
    m1, e1 = mc_expectation(v(1), cfg, 300, threads=1)
    m4, e4 = mc_expectation(v(1), cfg, 300, threads=4)
    assert m1 == m4
    assert e1 == e4


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


def test_equivariance_and_zero_test():
    p = parse("u^2 - 2 u v1 + 2 v1^2 - v2")  # Cayley-Hamilton at N=2
    assert equivariance_check(p, 4, seed=1) < 1e-10
    assert zero_test(p, 2) < 1e-12
    assert zero_test(p, 3) > 1e-3
