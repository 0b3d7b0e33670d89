"""The free unitary Segal-Bargmann transform and its generating function.

G_{s,t} = pi_{s-t} o e^{(t/2)D} and its inverse H_{s,t} = pi_s o e^{-(t/2)D},
the Biane polynomials p_k^{s,t} = H_{s,t}(u^k), and order-K checks, in
closed form, of the implicit generating-function identity

    Pi(s, t, u, z e^{(1/2)(s-t)(1+z)/(1-z)}) = (1 - u z e^{(s/2)(1+z)/(1-z)})^{-1} - 1

and of the quasilinear PDEs satisfied by the generating functions psi^s,
phi^{s,u} and varrho.  Both expand e^{xw/(1-w)} exactly over the rationals.
Series data lives on one polynomial type, :class:`freesb.moments.TPoly`:
``Pi_series`` is one in z, and the PDE check reads c_k, b_k and varrho_k
from :mod:`freesb.moments`, each one in t, and checks all three PDEs by
one rule on their values and ``TPoly.deriv``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .moments import (TPoly, _b_table, _check_finite, _exp_times, _nu_hat_exact, c_poly,
                      pi_eval, varrho_coeffs)
from .operators import GeneratorSpec, check_times, exp_apply
from .tracepoly import TracePoly

MAX_SERIES_ORDER = 16

# ----------------------------------------------------------------------
# the transform pair and Biane polynomials
# ----------------------------------------------------------------------


def G(f: TracePoly, s: float, t: float) -> TracePoly:
    """The free Segal-Bargmann transform G_{s,t} = pi_{s-t} o e^{(t/2)D}.

    The transform-pair semantics (G and H mutually inverse, boosted
    regularity) hold for s > t/2 > 0; the formula itself accepts any
    reals.
    """
    check_times(s=s, t=t)
    return pi_eval(exp_apply(GeneratorSpec.D(), t / 2.0, f), s - t)


def H(f: TracePoly, s: float, t: float) -> TracePoly:
    """The inverse transform H_{s,t} = pi_s o e^{-(t/2)D}; H(u^k) = p_k^{s,t}."""
    check_times(s=s, t=t)
    return pi_eval(exp_apply(GeneratorSpec.D(), -t / 2.0, f), s)


def biane(k: int, s: float, t: float) -> TracePoly:
    """The Biane polynomial p_k^{s,t} = H_{s,t}(u^k); p_0 = 1.

    For k >= 0 a polynomial in u, for k < 0 the same polynomial in u^-1
    (the transform commutes with the reciprocal map).
    """
    return H(TracePoly.u(k), s, t) if k else TracePoly.one()


# ----------------------------------------------------------------------
# the Biane generating function
# ----------------------------------------------------------------------


def _check_order(K: int) -> None:
    if not 1 <= K <= MAX_SERIES_ORDER:
        raise ValueError(f"series order K must be in 1..{MAX_SERIES_ORDER}, got {K}")


def _a(M: int, p: int, q: int) -> list[tuple[int, int]]:
    # the w^m coefficients a_m(x) of e^{xw/(1-w)}, m = 0..M, at x = p/q, q > 0,
    # exact over the rationals: (1-w)^2 f' = x f makes A_m = m! q^m a_m(x) an
    # integer, A_0 = 1, A_1 = p, A_{m+1} = (2mq + p) A_m - (m-1) m q^2 A_{m-1};
    # the pairs (A_m, m! q^m).  p/q in lowest terms or not: (gp, gq) scales
    # A_m and m! q^m by the same g^m
    A = [1, p]
    for m in range(1, M):
        A.append((2 * m * q + p) * A[m] - (m - 1) * m * q * q * A[m - 1])
    return [(A[m], math.factorial(m) * q ** m) for m in range(M + 1)]


def Pi_series(s: float, t: float, K: int) -> TPoly:
    """Pi(s,t,u,z) = sum_{k>=1} p_k^{s,t}(u) z^k, truncated at order K: a
    ``TPoly`` in z whose coefficient k is p_k^{s,t} (a zero at k = 0)."""
    _check_order(K)
    return TPoly((TracePoly.zero(),) + tuple(biane(k, s, t) for k in range(1, K + 1)))


def verify_gen_fn(s: float, t: float, K: int = 8) -> float:
    """Check the implicit generating-function identity to order K.

    With z_c(w) = w e^{(c/2)(1+w)/(1-w)} the identity reads
    sum_k p_k^{s,t}(u) z_{s-t}(w)^k = sum_k u^k z_s(w)^k.  Since
    (c/2)(1+w)/(1-w) = c/2 + cw/(1-w), the w^n coefficient of z_c^k is
    e^{kc/2} a_{n-k}(kc), where e^{xw/(1-w)} = sum_m a_m(x) w^m, so each
    coefficient of either side is a finite sum of n known terms.  With
    P[k, j] the coefficient of u^j in p_k and W_l[n, k], W_r[n, k] those
    weights for c = s - t and c = s, returns the largest absolute entry of
    W_l P - W_r, the coefficient residual over w^1..w^K and u^0..u^K, for
    1 <= K <= MAX_SERIES_ORDER, from one array product rather than
    ``TracePoly`` sums.  ValueError if some p_k has a v-factor or a power of
    u outside 0..K, or if a weight is beyond the float range.
    """
    p = Pi_series(s, t, K).coeffs
    P, W = np.zeros((K + 1, K + 1), dtype=complex), np.zeros((2, K + 1, K + 1))
    for k, pk in enumerate(p):
        for (j, ve), c in pk.terms.items():
            if ve or not 0 <= j <= K:
                raise ValueError(f"p_{k} has the monomial {(j, ve)}, not one of u^0..u^{K}")
            P[k, j] = c
    for i, c in enumerate((s - t, s)):
        num, den = c.as_integer_ratio()
        for k in range(1, K + 1):
            # each a_{n-k}(kc), at kc = k num / den, exact until _exp_times's one product
            row = [_exp_times(k * c / 2.0, A, d) for A, d in _a(K - k, k * num, den)]
            _check_finite(row, "the weights e^(kc/2) a_(n-k)(kc) for k = {} at c = {!r} are", k, c)
            W[i, k:, k] = row
    return float(np.abs(W[0] @ P - W[1]).max())


# ----------------------------------------------------------------------
# the generating functions psi, phi, varrho and their PDEs
# ----------------------------------------------------------------------


def _pde_gap(x: list, y: list, sign: int, at) -> float:
    # max over k of |x_k' - sign sum_{m+j=k} y_m j x_j| / scale at `at`, in
    # complex floats, where x[k - 1], y[k - 1] are the TPolys of x_k, y_k and
    # the scale sums |x_k'| and |y_m| j |x_j|, each TPoly evaluated with its
    # coefficients' absolute values (Horner's rounding where they cancel).
    # Fraction coefficients at a Fraction `at` evaluate exactly
    def mag(p):
        return TPoly(tuple(abs(c) for c in p.coeffs), p.prefactor_exp)

    dx = [p.deriv() for p in x]
    xv, yv, dxv, ax, ay, adx = ([np.asarray(p.eval(at), dtype=complex) for p in ps]
                                for ps in (x, y, dx, map(mag, x), map(mag, y), map(mag, dx)))
    worst = 0.0
    for i in range(len(x)):
        gap = dxv[i] - sign * sum(yv[m] * ((i - m) * xv[i - m - 1]) for m in range(i))
        scale = np.abs(adx[i] + sum(ay[m] * ((i - m) * ax[i - m - 1]) for m in range(i)))
        worst = max(worst, float((np.abs(gap) / np.where(scale > 0, scale, 1.0)).max()))
    return worst


def pde_residual(s: float, K: int = 8) -> float:
    """Max coefficientwise residual of the quasilinear PDE system, each gap
    over the sum of its terms' magnitudes: a few unit roundoffs when correct.

    Checks, to order K, the coefficients of
      - d(psi)/dt   = z psi d(psi)/dz,         c_k' = sum_{m+j=k} c_m j c_j,
      - d(phi)/dt   = z psi d(phi)/dz,         b_k' = sum_{m+j=k} c_m j b_j,
      - d(varrho)/ds = -z varrho d(varrho)/dz, varrho_k' = -sum_{m+j=k} varrho_m j varrho_j,
    the first two at t = 0.3 and t = 0.7, the third at s = 0.3 and s = 0.7,
    by one rule: each x_k is a ``TPoly`` in its time, differentiated by
    ``TPoly.deriv``.  b_k is read as arrays over u^0..u^K, so each gap is
    one array expression; varrho_k is evaluated exactly at a Fraction.
    Also checks the initial condition
    psi^s(0, w e^{(s/2)(1+w)/(1-w)}) = w/(1-w) in its implicit level-curve
    form, exactly over the rationals (its right side's coefficients are 1).
    Any real s is in the domain: psi^s and phi^{s,u} are entire in s.  The
    initial conditions of varrho
    and phi are not checked: varrho_k(0) = 1 and b_k(s, 0, u) = u^k hold
    by construction, as the recursions start there.
    """
    _check_order(K)
    s = float(s)
    c = [c_poly(k, s) for k in range(1, K + 1)]
    b = [TPoly(tuple(np.pad(x, (0, K - k)) for x in _b_table(k, s))) for k in range(1, K + 1)]
    vr = [TPoly(varrho_coeffs(k)) for k in range(1, K + 1)]
    resid = max(max(_pde_gap(c, c, 1, t), _pde_gap(b, c, 1, t),
                    _pde_gap(vr, vr, -1, Fraction(t))) for t in (0.3, 0.7))
    # psi^s(0, w e^{(s/2)(1+w)/(1-w)}) = w/(1-w), exactly over the rationals:
    # nu_k z^k = nu_hat_k(s) w^k e^{ksw/(1-w)}, so the w^n coefficient is
    # sum_k nu_hat_k(s) a_{n-k}(ks)
    p, q = s.as_integer_ratio()
    a = [None] + [_a(K - k, k * p, q) for k in range(1, K + 1)]
    for n in range(1, K + 1):
        coeff = sum(Fraction(*_nu_hat_exact(k, s)) * Fraction(*a[k][n - k]) for k in range(1, n + 1))
        resid = max(resid, abs(float(coeff - 1)))
    return resid
