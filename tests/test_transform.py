"""The transform pair G/H, Biane polynomials, the closed-form
generating-function identity, and the characteristic PDEs."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import freesb.transform as transform
from freesb.tracepoly import TracePoly, mono, parse
from freesb.cli import GEN_FN_TOL, PDE_TOL
from freesb.moments import nu
from freesb.transform import (MAX_SERIES_ORDER, G, H, Pi_series, _a, biane, pde_residual,
                              verify_gen_fn)

u = TracePoly.u


# ---------------------------------------------------------------- G and H


def test_G_H_on_u():
    s, t = 1.5, 0.8
    assert G(u(1), s, t).allclose(math.exp(-t / 2) * u(1), rel=1e-12)
    assert H(u(1), s, t).allclose(math.exp(t / 2) * u(1), rel=1e-12)


def test_biane_base_cases():
    assert biane(0, 1.0, 1.0) == TracePoly.one()
    assert biane(1, 1.5, 0.8).allclose(math.exp(0.4) * u(1), rel=1e-12)


def test_biane_classical_example():
    # p_2^{1,1} = e u^2 + e^{1/2} u
    p = biane(2, 1.0, 1.0)
    assert abs(p.coeff(mono(2)) - math.e) < 1e-12
    assert abs(p.coeff(mono(1)) - math.exp(0.5)) < 1e-12
    assert len(p.terms) == 2


def test_inverse_pair_small():
    s, t = 1.5, 0.8
    for k in (-3, -1, 1, 2, 3):
        back = G(biane(k, s, t), s, t)
        assert (back - u(k)).coeff_max() < 1e-9, k
        fwd = H(G(u(k), s, t), s, t)
        assert (fwd - u(k)).coeff_max() < 1e-9, k


@given(st.dictionaries(st.integers(-6, 6),
                       st.builds(complex, st.integers(-9, 9), st.integers(-9, 9)),
                       min_size=1, max_size=5).filter(lambda d: any(d.values())),
       st.floats(-30.0, 30.0), st.floats(0.2, 3.0), st.floats(0.05, 1.9))
@example({3: 1 + 0j, -2: 2j, 0: -4 + 0j}, -30.0, 1.5, 0.5)
@example({6: 9 + 9j, 1: 0.5 + 0j}, 30.0, 0.2, 1.9)
@settings(max_examples=40, deadline=None)
def test_H_inverts_G_at_any_scale(coeffs, log_c, s, t_over_s):
    # on Laurent f of degree <= 6 at s > t/2, within 140x the worst of 300
    # random draws; storage drops exact zeros only, so c * f keeps its terms
    f, c, t = TracePoly({mono(k): a for k, a in coeffs.items()}), 10.0 ** log_c, t_over_s * s
    assert (H(G(c * f, s, t), s, t) / c - f).coeff_max() <= 1e-11 * f.coeff_max()


def test_G_diagonal_action():
    # G(u^k) = e^{-kt/2} u^k + terms of strictly smaller |u-exponent|
    s, t = 1.2, 0.9
    for k in (1, 3, 4, -2):
        q = G(u(k), s, t)
        assert abs(q.coeff(mono(k)) - math.exp(-abs(k) * t / 2)) < 1e-10
        for (k0, ve), _ in q.terms.items():
            assert ve == ()  # image is a Laurent polynomial in u
            assert abs(k0) <= abs(k)


def test_H_reciprocal_equivariance():
    for k in (1, 2, 4):
        lhs = biane(-k, 1.5, 0.8)
        rhs = biane(k, 1.5, 0.8).invert_u()
        assert (lhs - rhs).coeff_max() < 1e-10


# ---------------------------------------------------------------- series


def test_series_guards():
    for K in (0, -2, MAX_SERIES_ORDER + 1):
        for check in (lambda: Pi_series(1.0, 1.0, K), lambda: verify_gen_fn(1.0, 1.0, K=K),
                      lambda: pde_residual(1.0, K=K)):
            with pytest.raises(ValueError, match=f"1..{MAX_SERIES_ORDER}"):
                check()


def test_pi_series_holds_the_biane_polynomials():
    # a polynomial in z whose coefficient k is p_k^{s,t}, bit for bit
    s, t, K = 1.5, 0.8, 6
    series = Pi_series(s, t, K)
    assert len(series.coeffs) == K + 1 and series.coeffs[0] == TracePoly.zero()
    for k in range(1, K + 1):
        assert series.coeffs[k].terms == biane(k, s, t).terms, k


def test_a_matches_closed_form():
    # the integer recurrence against a_0 = 1 and
    # a_m(x) = sum_{j=1}^m C(m-1, j-1) x^j / j!, the w^m coefficient of e^{xw/(1-w)}
    for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2),
              Fraction(9, 4), Fraction(0.45), Fraction(-1.9), 16 * Fraction(2.25)):
        pairs = _a(16, *x.as_integer_ratio())
        assert len(pairs) == 17 and pairs[0] == (1, 1)
        for m, (A, d) in enumerate(pairs[1:], 1):
            want = sum(math.comb(m - 1, j - 1) * x ** j / math.factorial(j) for j in range(1, m + 1))
            assert Fraction(A, d) == want, (m, x)
    assert _a(0, 3, 7) == [(1, 1)]


def test_exp_curve_numeric():
    # e^{a(1+w)/(1-w)} = e^a e^{2aw/(1-w)} = e^a sum_m a_m(2a) w^m
    a, K, w = 0.45, 12, 0.08
    pairs = _a(K, *(2 * a).as_integer_ratio())
    series_val = sum(math.exp(a) * (A / d) * w**k for k, (A, d) in enumerate(pairs))
    exact = math.exp(a * (1 + w) / (1 - w))
    assert abs(series_val - exact) < 1e-10


def _gen_fn_by_fractions(s, t, K):
    # verify_gen_fn with each weight's a_{n-k}(kc) taken at the Fraction k * Fraction(c):
    # the W tables and the residual, each gap over its scale
    P, W = np.zeros((K + 1, K + 1), dtype=complex), np.zeros((2, K + 1, K + 1))
    for k, pk in enumerate(Pi_series(s, t, K).coeffs):
        for (j, _), c in pk.terms.items():
            P[k, j] = c
    for k in range(1, K + 1):
        for i, c in enumerate((s - t, s)):
            pairs = _a(K - k, *(k * Fraction(c)).as_integer_ratio())
            W[i, k:, k] = [math.exp(k * c / 2.0) * (A / d) for A, d in pairs]
    scale = np.abs(W[0]) @ np.abs(P).max(axis=1, keepdims=True) + np.abs(W[1])
    return W, float((np.abs(W[0] @ P - W[1]) / np.where(scale > 0, scale, 1.0)).max())


def test_gen_fn_weights_from_unreduced_pairs_are_bitwise_the_fraction_ones():
    # the pair (kp, q) for kc = kp/q scales A_m and m! q^m by the same power
    # of the common factor, so each weight rounds from the same rational
    for s, t, K in ((1.0, 1.0, 8), (1.5, 0.8, 16), (0.3, 0.45, 4), (2.25, -0.5, 8),
                    (-0.7, 0.1, 1), (6.0, 0.2, 12)):
        W, resid = _gen_fn_by_fractions(s, t, K)
        for i, c in enumerate((s - t, s)):
            p, q = c.as_integer_ratio()
            for k in range(1, K + 1):
                got = [math.exp(k * c / 2.0) * (A / d) for A, d in _a(K - k, k * p, q)]
                assert got == list(W[i, k:, k]), (s, t, K, k)
        assert verify_gen_fn(s, t, K) == resid, (s, t, K)


# ---------------------------------------------------------------- identities


def test_generating_function_identity():
    assert verify_gen_fn(1.0, 1.0, K=8) < 1e-8


def test_generating_function_passes_on_a_grid():
    # s > t/2 > 0 with s in [0.05, 3] and K <= 16, and two points whose
    # absolute residual once failed (4.3e-4 and 7.3e-4): each gap against
    # its scale, whose worst on 1,500 such points was 274 unit roundoffs
    rng = np.random.default_rng(18)
    grid = [(2.25, 2.25, 16), (2.68, 0.973, 16)]
    for _ in range(50):
        s = float(rng.uniform(0.05, 3.0))
        grid.append((s, float(rng.uniform(0.0, 2.0 * s)) or s, int(rng.integers(1, 17))))
    failed = [(s, t, K) for s, t, K in grid if not verify_gen_fn(s, t, K) < GEN_FN_TOL]
    assert failed == []


@pytest.mark.parametrize("s, t", [(2.25, 2.25), (1.5, 0.8)])
@pytest.mark.parametrize("K", [8, 16])
def test_generating_function_detects_one_coefficient_off_by_1e_10(monkeypatch, s, t, K):
    # the largest coefficient of one p_k scaled by 1 + 1e-10 fails the check
    exact = transform.biane

    def scaled(j, s, t, k):
        p = exact(j, s, t)
        m = max(p.terms, key=lambda m: abs(p.terms[m]))
        return p + TracePoly({m: 1e-10 * p.terms[m]}) if j == k else p

    for k in (1, K // 2, K):
        monkeypatch.setattr(transform, "biane", lambda j, s, t: scaled(j, s, t, k))
        assert verify_gen_fn(s, t, K) >= GEN_FN_TOL, k


@pytest.mark.parametrize("k", [1, 4, 8])
def test_generating_function_detects_a_wrong_biane_polynomial(monkeypatch, k):
    # p_k off by 1e-6 u^k must fail the check (the residual is then >= 3e-7)
    exact = transform.biane
    monkeypatch.setattr(transform, "biane", lambda j, s, t: exact(j, s, t)
                        + (1e-6 * u(j) if j == k else TracePoly.zero()))
    assert verify_gen_fn(1.0, 1.0, K=8) >= GEN_FN_TOL


@pytest.mark.parametrize("extra", [parse("v1 u^2"), u(-1), u(5)], ids=["v1 u^2", "u^-1", "u^5"])
def test_generating_function_refuses_a_term_it_cannot_place(monkeypatch, extra):
    # a term of p_k off the u^0..u^K grid raises instead of dropping out
    exact = transform.biane
    monkeypatch.setattr(transform, "biane", lambda j, s, t: exact(j, s, t)
                        + (1e-6 * extra if j == 3 else TracePoly.zero()))
    with pytest.raises(ValueError, match="p_3 has the monomial"):
        verify_gen_fn(1.0, 1.0, K=4)


def test_generating_function_s_equals_t_direct(s_eq_t_series):
    # at s=t the curve substitution is trivial and Pi must equal the
    # direct expansion of (1 - u z e^{(t/2)(1+z)/(1-z)})^{-1} - 1
    K = 8
    want = s_eq_t_series(Fraction(11, 10), K)
    lhs = Pi_series(1.1, 1.1, K)
    for k in range(1, K + 1):
        assert (lhs.coeffs[k] - want[k]).coeff_max() < 1e-9, k


def test_pde_residuals():
    # relative residuals: each gap over the sum of its terms' magnitudes
    assert pde_residual(1.0, K=8) < PDE_TOL
    assert pde_residual(0.7, K=6) < PDE_TOL
    # the largest orders the CLI accepts; the worst here is 2.8 unit
    # roundoffs, at s = 0.3 and K = 16, where the absolute gap was 1.75e-10
    for s in (0.3, 0.7, 1.0, 1.9):
        for K in (12, 16):
            assert pde_residual(s, K=K) < PDE_TOL, (s, K)


@pytest.mark.parametrize("name, n, delta", [("c_poly", 3, 1e-6), ("c_poly", 8, 1e-6),
                                            ("_b_table", 3, 1e-6),
                                            ("varrho_coeffs", 3, Fraction(1, 10**6))],
                         ids=["c_3", "c_8", "b_3", "varrho_3"])
def test_pde_residual_detects_a_wrong_coefficient(monkeypatch, name, n, delta):
    # c_n, b_n or varrho_n with its t-coefficient off by 1e-6 must fail the
    # check; at s = 0.7 none of them is zero, and only x_n moves, since the
    # recursions behind the others read the unpatched names in freesb.moments.
    # At K = 8, c_8 enters no right side of the phi PDE, so psi's check alone
    # sees it
    exact = getattr(transform, name)

    def bump(cs):
        return (cs[0], cs[1] + delta) + cs[2:]

    def wrong(k, *s):
        x = exact(k, *s)
        if k != n:
            return x
        return replace(x, coeffs=bump(x.coeffs)) if name == "c_poly" else bump(x)

    monkeypatch.setattr(transform, name, wrong)
    assert pde_residual(0.7, K=8) >= PDE_TOL


@pytest.mark.parametrize("s", [0.0, 0.7, 2.25])
@pytest.mark.parametrize("K", [8, 16])
@pytest.mark.parametrize("name", ["c_poly", "_b_table"])
def test_pde_residual_detects_a_relative_1e10_change(monkeypatch, name, K, s):
    # c_3 or b_3 with its t-coefficient scaled by 1 + 1e-10: far below any
    # absolute tolerance where the terms reach 1e15, far above 32 unit
    # roundoffs of the gap's scale
    exact = getattr(transform, name)

    def bump(cs):
        return (cs[0], cs[1] * (1 + 1e-10)) + cs[2:]

    def wrong(k, *s):
        x = exact(k, *s)
        if k != 3:
            return x
        return replace(x, coeffs=bump(x.coeffs)) if name == "c_poly" else bump(x)

    assert pde_residual(s, K=K) < PDE_TOL
    monkeypatch.setattr(transform, name, wrong)
    assert pde_residual(s, K=K) >= PDE_TOL
