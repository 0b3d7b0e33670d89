"""The transform pair G/H, Biane polynomials, truncated series algebra,
the generating-function identity, and the characteristic PDEs."""

import math

import pytest

from freesb.tracepoly import TracePoly, mono, parse
from freesb.cli import PDE_TOL
from freesb.moments import nu
from freesb.transform import (MAX_SERIES_ORDER, G, H, Pi_series, TPolySeries,
                              biane, exp_curve, pde_residual, verify_gen_fn)

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


def test_series_geometric_recip():
    ones = TPolySeries.build(6, [1.0] + [-1.0] + [0.0] * 5)  # 1 - z
    inv = ones.recip()
    for k in range(7):
        assert (inv.coeffs[k] - TracePoly.one()).coeff_max() < 1e-14
    a = TPolySeries.build(3, [1.0, 1.0])
    assert (a + a).coeffs[0] == TracePoly.const(2.0)
    assert (a * a).coeffs[1] == TracePoly.const(2.0)


def test_series_exp_scalar():
    zs = TPolySeries.build(6, [0.0, 1.0])
    e = zs.exp()
    for k in range(7):
        assert abs(complex(e.coeffs[k].coeff(mono(0))) - 1.0 / math.factorial(k)) < 1e-14


def test_series_compose_pair():
    K = 8
    f = TPolySeries.build(K, [0.0] + [1.0] * K)               # z/(1-z)
    g = TPolySeries.build(K, [0.0] + [(-1.0) ** (j - 1) for j in range(1, K + 1)])
    comp = f.compose(g)
    assert (comp.coeffs[1] - TracePoly.one()).coeff_max() < 1e-12
    for k in (0, *range(2, K + 1)):
        assert comp.coeffs[k].coeff_max() < 1e-12


def test_series_guards():
    f = TPolySeries.build(4, [0.0, 1.0])
    with pytest.raises(ValueError):
        TPolySeries.build(4, [0.0, 1.0]).recip()           # constant 0
    with pytest.raises(ValueError):
        f.compose(TPolySeries.build(4, [1.0, 1.0]))        # inner constant != 0
    with pytest.raises(ValueError):
        f + TPolySeries.build(5, [0.0, 1.0])               # order mismatch
    with pytest.raises(ValueError):
        Pi_series(1.0, 1.0, MAX_SERIES_ORDER + 1)
    # exp and recip need a constant term free of u and v
    for c in (u(1), TracePoly.v(1), u(1) + 2.0):
        with pytest.raises(ValueError):
            TPolySeries.build(3, [c, 1.0]).exp()
        with pytest.raises(ValueError):
            TPolySeries.build(3, [c, 1.0]).recip()


def test_exp_curve_numeric():
    a, K, w = 0.45, 12, 0.08
    series_val = sum(complex(exp_curve(a, K).coeffs[k].coeff(mono(0))) * w**k
                     for k in range(K + 1))
    exact = math.exp(a * (1 + w) / (1 - w))
    assert abs(series_val - exact) < 1e-10


# ---------------------------------------------------------------- identities


def test_generating_function_identity():
    assert verify_gen_fn(1.0, 1.0, K=8) < 1e-8


def test_generating_function_s_equals_t_direct():
    # at s=t the curve substitution is trivial and Pi must equal the
    # direct expansion of (1 - u z e^{(t/2)(1+z)/(1-z)})^{-1} - 1
    t, K = 1.1, 8
    lhs = Pi_series(t, t, K)
    curve = exp_curve(t / 2.0, K)
    uz = TPolySeries.identity(K) * TracePoly.u(1)
    rhs = (TPolySeries.build(K, [1.0]) - uz * curve).recip() - TPolySeries.build(K, [1.0])
    for k in range(1, K + 1):
        assert (lhs.coeffs[k] - rhs.coeffs[k]).coeff_max() < 1e-9, k


def test_pde_residuals():
    assert pde_residual(1.0, K=8) < 1e-9
    assert pde_residual(0.7, K=6) < 1e-9
    # the largest orders the CLI accepts; 1.9e-9 at s = 1.9, K = 16
    for s in (0.3, 0.7, 1.0, 1.9):
        for K in (12, 16):
            assert pde_residual(s, K=K) < PDE_TOL, (s, K)
