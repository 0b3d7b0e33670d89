"""Free moments nu_k, the deflated c/b recursions, varrho, and the two
routes to the evaluation map pi_s."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freesb.tracepoly import TracePoly, parse
from freesb.moments import (TPoly, _b_table, _c_hat, _nu_hat_exact, b_poly, c_poly, catalan,
                            nu, pi_eval, pi_via_semigroup, varrho, varrho_coeffs)
from freesb.transform import biane


# ---------------------------------------------------------------- catalan


def test_catalan_small_values():
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]


def test_catalan_segner_recursion():
    for k in range(32):
        assert catalan(k + 1) == sum(catalan(i) * catalan(k - i) for i in range(k + 1))


def test_catalan_range_guard():
    assert catalan(33) == 212336130412243110
    for bad in (-1, 34):
        with pytest.raises(ValueError):
            catalan(bad)


# ---------------------------------------------------------------- nu


def test_nu_closed_forms():
    for s in (0.0, 0.5, 1.0, 2.0, -1.5):
        assert nu(0, s) == 1.0
        assert abs(nu(1, s) - math.exp(-s / 2)) < 1e-14
        assert abs(nu(2, s) - math.exp(-s) * (1 - s)) < 1e-13
        assert abs(nu(3, s) - math.exp(-1.5 * s) * (1 - 3 * s + 1.5 * s * s)) < 1e-13


def test_nu_at_zero_time_and_symmetry():
    for k in range(1, 20):
        assert abs(nu(k, 0.0) - 1.0) < 1e-14
        assert nu(-k, 1.3) == nu(k, 1.3)


def test_nu_range_guard():
    nu(64, 1.0)
    with pytest.raises(ValueError):
        nu(65, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_time_raises(bad):
    # not Fraction's "cannot convert NaN to integer ratio"
    for call in (lambda: nu(2, bad), lambda: c_poly(2, bad), lambda: b_poly(1, bad),
                 lambda: varrho(2, bad)):
        with pytest.raises(ValueError, match="non-finite time"):
            call()


@pytest.mark.parametrize("fn", [c_poly, b_poly, varrho])
def test_recursions_start_at_k_1(fn):
    with pytest.raises(ValueError, match=r"moment order k must be in 1\.\.64, got 0"):
        fn(0, 1.0)


def test_nu_catalan_bound():
    # |nu_k(t)| <= C_{k-1} (1+|t|)^{k-1} e^{-kt/2}
    for k in range(1, 13):
        for t in np.linspace(-2.0, 2.0, 9):
            bound = catalan(k - 1) * (1 + abs(t)) ** (k - 1) * math.exp(-k * t / 2)
            assert abs(nu(k, t)) <= bound * (1 + 1e-12), (k, t)


def _nu_hat_by_fractions(k, s):
    # the sum sum_{j<k} ((-s)^j / j!) k^{j-1} binom(k, j+1), one Fraction per term
    acc, power, fact = Fraction(0), Fraction(1), 1
    for j in range(k):
        acc += power * Fraction(k ** j, k) * math.comb(k, j + 1) / fact
        power *= Fraction(-s)
        fact *= j + 1
    return acc


def test_nu_hat_matches_termwise_fractions():
    # one integer numerator over one denominator, the pair unreduced, is the same rational
    rng = np.random.default_rng(12)
    for _ in range(400):
        k = int(rng.integers(1, 65))
        s = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, math.log10(5e2)))
        assert Fraction(*_nu_hat_exact.__wrapped__(k, s)) == _nu_hat_by_fractions(k, s), (k, s)
    for s in (0.0, 1e-3, -1e-3, 2.25, 5e2, -5e2):
        for k in (1, 2, 12, 64):
            assert Fraction(*_nu_hat_exact.__wrapped__(k, s)) == _nu_hat_by_fractions(k, s), (k, s)


def _bits(x):
    return float(x).hex()  # tells -0.0 from 0.0


def test_nu_is_the_rounded_sum_times_the_exponential():
    # where both factors are normal doubles, nu_k is bit for bit
    # e^{-|k|s/2} times the exact sum rounded once
    for s in (-5.0, -1.0, -1e-3, 0.0, 1e-3, 0.3, 1.0, 2.25, 7.5, 20.0, 60.0, 150.0, 500.0):
        for k in range(1, 65):
            e, hat = math.exp(-k * s / 2.0), float(_nu_hat_by_fractions(k, s))
            if e < sys.float_info.min or 0 < abs(hat) < sys.float_info.min:
                continue
            assert _bits(nu(k, s)) == _bits(nu(-k, s)) == _bits(e * hat), (k, s)


def test_nu_keeps_its_accuracy_where_a_factor_leaves_the_range():
    # e^{-ks/2} underflows and the exact sum overflows on their own; their
    # product, against the exact sum and a 50-digit exponential, is within
    # 1e-12 wherever it is a normal double, and a subnormal or zero beside one
    mpmath = pytest.importorskip("mpmath")
    normal = 0
    with mpmath.workdps(50):
        for s in [*np.geomspace(20.0, 1e4, 23), 25.0, 30.0]:
            s = float(s)
            for k in (1, 2, 3, 5, 8, 13, 21, 34, 48, 55, 63, 64):
                hat = _nu_hat_by_fractions(k, s)
                want = mpmath.exp(-k * mpmath.mpf(s) / 2) * hat.numerator / hat.denominator
                got = nu(k, s)
                if abs(want) >= sys.float_info.min:
                    normal += 1
                    assert abs(got - want) <= 1e-12 * abs(want), (k, s, got, want)
                else:
                    assert abs(got - want) <= 2.0 ** -1070, (k, s, got, want)
    assert normal > 100
    assert nu(64, 25.0) == pytest.approx(-1.5134448571956e-236, rel=1e-12)
    assert nu(64, 30.0) == pytest.approx(-7.5537257448090e-301, rel=1e-12)


def test_nu_past_the_float_range():
    # for s >= 0, |nu_k| <= 1, so a value always comes back, a zero where it
    # underflows; for s < 0 a moment beyond the largest double is refused
    for s in (1e4, 1e10, 1e300, sys.float_info.max):
        for k in (1, 2, 63, 64):
            assert abs(nu(k, s)) < sys.float_info.min, (k, s)
    assert _bits(nu(64, 1e10)) == _bits(-0.0)
    assert nu(2, -400.0) == math.exp(400.0) * 401.0
    for k, s in ((64, -20.0), (1, -1500.0), (64, -1e300), (2, -sys.float_info.max)):
        with pytest.raises(ValueError, match=re.escape(f"nu_k(s) for k = {k} at s = {s!r} is beyond")):
            nu(k, s)


def test_c_k_past_the_float_range_is_refused():
    with pytest.raises(ValueError, match=r"c_k\(s, t\) for k = \d+ at s = 10000000000.0 is beyond"):
        c_poly(64, 1e10)
    with pytest.raises(ValueError, match="beyond the float range"):
        b_poly(64, 1e10)
    assert all(math.isfinite(abs(c)) for c in c_poly(64, 1e4).coeffs)


# ---------------------------------------------------------------- pi routes


def test_pi_eval_takes_each_nu_j_once_in_order_of_first_use(monkeypatch):
    # one nu call per distinct index, as the moment cache's hit counts assume
    import freesb.moments as moments
    calls = []
    monkeypatch.setattr(moments, "nu", lambda j, s: calls.append(j) or nu(j, s))
    p = parse("v2 v1^2 u + v1 v-1 + v1^3 v2^2 u^-1 + v3")
    out = pi_eval(p, 0.7)
    assert calls == [1, 2, -1, 3]
    want = nu(2, 0.7) * nu(1, 0.7) ** 2 * TracePoly.u(1) + nu(1, 0.7) ** 2 + nu(3, 0.7) \
        + nu(1, 0.7) ** 3 * nu(2, 0.7) ** 2 * TracePoly.u(-1)
    assert out.allclose(want, rel=1e-15)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 2.0]))
@settings(max_examples=20, deadline=None)
def test_pi_routes_agree(seed, s):
    rng = np.random.default_rng(seed)
    terms = {}
    for _ in range(3):
        budget = 5
        k0 = int(rng.integers(-2, 3))
        budget -= abs(k0)
        ve = {}
        while budget > 0 and rng.random() < 0.6:
            j = int(rng.integers(-budget, budget + 1))
            if j != 0:
                ve[j] = ve.get(j, 0) + 1
                budget -= abs(j)
        terms[(k0, tuple(sorted(ve.items())))] = complex(rng.normal(), rng.normal())
    p = TracePoly(terms)
    direct = pi_eval(p, s)
    semi = pi_via_semigroup(p, s)
    assert (direct - semi).coeff_max() < 1e-10 * max(1.0, direct.coeff_max())


def test_pi_eval_example():
    # pi harvests every v_j at nu_j(s) and leaves u alone
    p = parse("u^2 v1 + v2")
    s = 0.9
    q = pi_eval(p, s)
    assert abs(q.coeff((2, ())) - nu(1, s)) < 1e-14
    assert abs(q.coeff((0, ())) - nu(2, s)) < 1e-14


# ---------------------------------------------------------------- TPoly


def test_tpoly_deriv():
    # d/dt (1 + 2t + 3t^2) = 2 + 6t, keeping the prefactor, on numbers,
    # Fractions (exact) and arrays alike
    assert TPoly((1.0, 2.0, 3.0), prefactor_exp=-0.5).deriv() == TPoly((2.0, 6.0), -0.5)
    q = TPoly((Fraction(1, 3), Fraction(2, 5), Fraction(-7, 4))).deriv()
    assert q.coeffs == (Fraction(2, 5), Fraction(-7, 2))
    assert q.eval(Fraction(3, 7)) == Fraction(2, 5) - Fraction(3, 2)
    a = TPoly((np.array([1.0, 2.0]), np.array([0.0, 3.0]), np.array([5.0, -1.0]))).deriv()
    assert len(a.coeffs) == 2
    assert a.coeffs[0].tolist() == [0.0, 3.0] and a.coeffs[1].tolist() == [10.0, -2.0]
    # a constant gives one zero of its coefficient type
    for c in (2.5, 1 + 2j, Fraction(7, 3), np.array([1.0, -4.0]), TracePoly.u(2)):
        (zero,) = TPoly((c,), prefactor_exp=0.25).deriv().coeffs
        assert type(zero) is type(c) and not np.any(zero != 0 * c)
    assert TPoly((TracePoly.u(2),)).deriv().coeffs == (TracePoly.zero(),)


# ---------------------------------------------------------------- c and b


def test_c_matches_closed_form():
    for k in range(1, 11):
        for s in (0.5, 1.0, 2.0):
            for t in (0.2, 0.9, 1.8):
                got = c_poly(k, s).eval(t)
                want = math.exp(-k * t / 2) * nu(k, s - t)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (k, s, t)


def test_c_catalan_bound():
    # |c_k(s,t)| <= C_{k-1} (1+|s-t|)^{k-1} e^{-ks/2}
    for k in range(1, 13):
        for s in (0.5, 1.5, 3.0):
            for t in np.linspace(s - 2.0, s + 2.0, 7):
                bound = (catalan(k - 1) * (1 + abs(s - t)) ** (k - 1)
                         * math.exp(-k * s / 2))
                assert abs(c_poly(k, s).eval(t)) <= bound * (1 + 1e-12)


def test_b_initial_condition():
    for k in range(1, 8):
        assert b_poly(k, 1.3).eval(0.0) == TracePoly.u(k)


def test_b_biane_link():
    # e^{kt/2} b_k(s,t) is the Biane polynomial p_k^{s,t}
    for k in (1, 2, 3, 5):
        for s, t in ((1.0, 1.0), (1.5, 0.8)):
            lhs = math.exp(k * t / 2) * b_poly(k, s).eval(t)
            rhs = biane(k, s, t)
            assert (lhs - rhs).coeff_max() < 1e-9 * max(1.0, rhs.coeff_max())


def test_s_keyed_caches_are_bounded():
    # a caller that passes a fresh s on every call must not grow them without
    # bound; an evicted entry is recomputed to the same value
    caches = (_nu_hat_exact, _c_hat, _b_table)
    first = (b_poly(2, 0.5).eval(0.3), nu(2, 0.5))
    for s in np.linspace(0.01, 3.0, 300):
        b_poly(2, float(s))
        nu(2, float(s))
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == 256 and info.currsize == 256
    assert (b_poly(2, 0.5).eval(0.3), nu(2, 0.5)) == first


def _eval_laurent(p: TracePoly, u0: complex) -> complex:
    return sum(c * u0 ** m[0] for m, c in p.terms.items())


def test_b_growth_bound():
    # |b_k(s,t,u)| <= [5 (1+|s|) (1+|t|)]^{k-1} |u|^k at sampled points
    for u0 in (0.7 + 0.3j, 1.1 - 0.4j):
        for k in range(1, 9):
            for s, t in ((1.0, 0.5), (2.0, 1.8)):
                val = abs(_eval_laurent(b_poly(k, s).eval(t), u0))
                bound = (5 * (1 + s) * (1 + t)) ** (k - 1) * abs(u0) ** k
                assert val <= bound, (k, s, t, u0)


# ---------------------------------------------------------------- varrho


def test_varrho_examples():
    for t in (-1.0, 0.3, 2.0):
        assert varrho(1, t) == 1.0
        assert abs(varrho(2, t) - (1 - t)) < 1e-14
    for k in range(1, 11):
        assert varrho(k, 0.0) == 1.0


def test_varrho_closed_form():
    # varrho_k(t) = e^{kt/2} nu_k(t)
    for k in range(1, 11):
        for t in np.linspace(-2.0, 2.0, 9):
            want = math.exp(k * t / 2) * nu(k, t)
            assert abs(varrho(k, t) - want) <= 1e-9 * max(1.0, abs(want)), (k, t)


def test_varrho_coeffs_exact():
    from fractions import Fraction
    assert varrho_coeffs(1) == (Fraction(1),)
    assert varrho_coeffs(2) == (Fraction(1), Fraction(-1))
    with pytest.raises(ValueError):
        varrho_coeffs(0)


# ---------------------------------------------------------------- exact oracles

# dyadic times: exact in binary, so sympy and mpmath see the same s
DYADIC_S = (0.25, 0.5, 1.0, 1.75, 2.5)


def _c_hat_exact(sympy, k, s, t):
    # e^{ks/2} c_k(s,t) = sum_j (t-s)^j/j! k^{j-1} binom(k, j+1), over the rationals
    return sum((t - s) ** j / sympy.factorial(j) * sympy.Integer(k) ** (j - 1)
               * sympy.binomial(k, j + 1) for j in range(k))


def test_c_hat_matches_exact_polynomial():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for s in DYADIC_S:
        for k in range(1, 13):
            exact = sympy.Poly(_c_hat_exact(sympy, k, sympy.Rational(s), t), t)
            want = [float(c) for c in reversed(exact.all_coeffs())]
            got = _c_hat(k, s)
            assert len(got) == len(want) == k
            scale = max(map(abs, want))
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * scale, (k, s)


def test_b_poly_matches_exact_recursion():
    # the b recursion run over the rationals, with q = e^{-s/2} kept as a
    # symbol: c_k = q^k chat_k(t), b_k = u^k + sum_m m int_0^t c_{k-m} b_m
    sympy = pytest.importorskip("sympy")
    t, u0, q = sympy.symbols("t u q")
    K = 9
    for s in DYADIC_S:
        sq = sympy.Rational(s)
        qs = sympy.exp(-sq / 2)
        c = {k: sympy.Poly(q ** k * _c_hat_exact(sympy, k, sq, t), t, u0, q)
             for k in range(1, K + 1)}
        b = {}
        for k in range(1, K + 1):
            b[k] = sympy.Poly(u0 ** k, t, u0, q) + sum(
                (m * (c[k - m] * b[m]).integrate(t) for m in range(1, k)),
                sympy.Poly(0, t, u0, q))
            got = b_poly(k, s)
            assert len(got.coeffs) == k
            want = {}
            for (i, j, e), coef in b[k].terms():
                want[i, j] = want.get(i, 0) + coef * qs ** e
            want = {ij: complex(sympy.N(w, 30)) for ij, w in want.items()}
            scale = max(map(abs, want.values()))
            for i, coeff_i in enumerate(got.coeffs):
                for j in range(1, k + 1):
                    err = abs(coeff_i.coeff((j, ())) - want.get((i, j), 0))
                    assert err <= 1e-14 * scale, (k, s, i, j)
                assert all(m[1] == () and 1 <= m[0] <= k for m in coeff_i.terms)


def test_nu_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        for s in (*DYADIC_S, 0.3, 1.7, 4.0, -1.5):
            x = mpmath.mpf(s)
            for k in range(1, 65):
                want = mpmath.exp(-k * x / 2) * mpmath.fsum(
                    (-x) ** j / mpmath.factorial(j) * mpmath.mpf(k) ** (j - 1)
                    * mpmath.binomial(k, j + 1) for j in range(k))
                assert abs(nu(k, s) - want) <= 1e-14 * abs(want), (k, s)
