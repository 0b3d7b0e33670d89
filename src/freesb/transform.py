"""The free unitary Segal-Bargmann transform and its generating function.

G_{s,t} = pi_{s-t} o e^{(t/2)D} and its inverse H_{s,t} = pi_s o e^{-(t/2)D},
the Biane polynomials p_k^{s,t} = H_{s,t}(u^k), and order-K checks, in
closed form, of the implicit generating-function identity

    Pi(s, t, u, z e^{(1/2)(s-t)(1+z)/(1-z)}) = (1 - u z e^{(s/2)(1+z)/(1-z)})^{-1} - 1

and of the quasilinear PDEs satisfied by the generating functions psi^s,
phi^{s,u} and varrho.  Both expand e^{xw/(1-w)} exactly over the rationals.
The PDE check reads c_k, b_k and varrho_k from :mod:`freesb.moments`, each
a polynomial in t (a ``TPoly``), and differentiates all three in t with one
Horner rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .moments import (_nu_hat_exact, b_poly, c_poly, pi_eval, varrho,
                      varrho_coeffs)
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


@dataclass(frozen=True)
class TPolySeries:
    """Power series in z to order K; coefficients are Laurent in u."""

    order: int
    coeffs: tuple[TracePoly, ...]  # length order + 1, index = power of z

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs must have length order + 1")


def _check_order(K: int) -> None:
    if not 1 <= K <= MAX_SERIES_ORDER:
        raise ValueError(f"series order K must be in 1..{MAX_SERIES_ORDER}, got {K}")


def _a(M: int, x: Fraction) -> list[tuple[int, int]]:
    # the w^m coefficients a_m(x) of e^{xw/(1-w)}, m = 0..M, exact over the
    # rationals: with x = p/q, (1-w)^2 f' = x f makes A_m = m! q^m a_m(x) an
    # integer, A_0 = 1, A_1 = p, A_{m+1} = (2mq + p) A_m - (m-1) m q^2 A_{m-1};
    # the pairs (A_m, m! q^m)
    p, q = x.as_integer_ratio()
    A = [1, p]
    for m in range(1, M):
        A.append((2 * m * q + p) * A[m] - (m - 1) * m * q * q * A[m - 1])
    return [(A[m], math.factorial(m) * q ** m) for m in range(M + 1)]


def Pi_series(s: float, t: float, K: int) -> TPolySeries:
    """Pi(s,t,u,z) = sum_{k>=1} p_k^{s,t}(u) z^k, truncated at order K."""
    _check_order(K)
    return TPolySeries(K, (TracePoly.zero(),) + tuple(
        biane(k, s, t) for k in range(1, K + 1)))


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
    1 <= K <= MAX_SERIES_ORDER; one array product, so no ``TracePoly``
    rounds it to zero below its 1e-14 floor.  ValueError if some p_k has a
    v-factor or a power of u outside 0..K.
    """
    p = Pi_series(s, t, K).coeffs
    P, W = np.zeros((K + 1, K + 1), dtype=complex), np.zeros((2, K + 1, K + 1))
    for k, pk in enumerate(p):
        for (j, ve), c in pk.terms.items():
            if ve or not 0 <= j <= K:
                raise ValueError(f"p_{k} has the monomial {(j, ve)}, not one of u^0..u^{K}")
            P[k, j] = c
    for k in range(1, K + 1):
        for i, c in enumerate((s - t, s)):
            # each a_{n-k} is exact (so is Fraction(c)) and rounded once, to float
            W[i, k:, k] = [math.exp(k * c / 2.0) * (A / d) for A, d in _a(K - k, k * Fraction(c))]
    return float(np.abs(W[0] @ P - W[1]).max())


# ----------------------------------------------------------------------
# the generating functions psi, phi, varrho and their PDEs
# ----------------------------------------------------------------------


def _deriv(cs, x):
    # d/dx sum_j cs[j] x^j by Horner's rule, for numbers, Fractions (exact)
    # and trace polynomials alike
    acc = 0 * cs[0]
    for j in range(len(cs) - 1, 0, -1):
        acc = acc * x + j * cs[j]
    return acc


def pde_residual(s: float, K: int = 8) -> float:
    """Max coefficientwise residual of the quasilinear PDE system.

    Checks, at t = 0.3 and t = 0.7 and to order K:
      - d(psi)/dt   = z psi d(psi)/dz        (t-derivatives exact from TPoly)
      - d(phi)/dt   = z psi d(phi)/dz
      - d(varrho)/ds = -z varrho d(varrho)/dz   (at s = 0.3 and s = 0.7)
    plus the initial-condition identities
      - varrho(0,z) = z/(1-z)               (all coefficients 1)
      - phi^{s,u}(0,z) = uz/(1-uz)          (coefficient k is u^k)
      - psi^s(0, w e^{(s/2)(1+w)/(1-w)}) = w/(1-w)   (implicit level-curve form,
        checked exactly over the rationals)
    """
    _check_order(K)
    resid = 0.0
    cps = [c_poly(k, s) for k in range(1, K + 1)]
    bps = [b_poly(k, s) for k in range(1, K + 1)]  # prefactor 0
    for t in (0.3, 0.7):
        c = [0j] + [cp.eval(t) for cp in cps]
        c_dt = [0j] + [math.exp(cp.prefactor_exp) * _deriv(cp.coeffs, t) for cp in cps]
        b = [TracePoly.zero()] + [bp.eval(t) for bp in bps]
        b_dt = [TracePoly.zero()] + [_deriv(bp.coeffs, t) for bp in bps]
        vr = [0.0] + [varrho(k, t) for k in range(1, K + 1)]
        vr_ds = [0.0] + [float(_deriv(varrho_coeffs(k), Fraction(float(t))))
                         for k in range(1, K + 1)]
        for k in range(1, K + 1):
            # psi: d/dt c_k = sum_{m+j=k} c_m j c_j
            rhs = sum(c[m] * ((k - m) * c[k - m]) for m in range(1, k))
            resid = max(resid, abs(c_dt[k] - rhs))
            # phi: d/dt b_k = sum_{m+j=k} c_m j b_j
            rhs_b = sum((c[m] * float(k - m) * b[k - m] for m in range(1, k)),
                        TracePoly.zero())
            resid = max(resid, (b_dt[k] - rhs_b).coeff_max())
            # varrho (in the s variable): d/ds vr_k = -sum_{m+j=k} vr_m j vr_j
            rhs_v = -sum(vr[m] * ((k - m) * vr[k - m]) for m in range(1, k))
            resid = max(resid, abs(vr_ds[k] - rhs_v))

    # varrho(0, z) = z/(1-z): all coefficients exactly 1
    for k in range(1, K + 1):
        resid = max(resid, abs(float(sum(varrho_coeffs(k)[:1])) - 1.0))
    # phi(0, z) coefficients are u^k
    for k, bp in enumerate(bps, 1):
        resid = max(resid, (bp.eval(0.0) - TracePoly.u(k)).coeff_max())
    # psi^s(0, w e^{(s/2)(1+w)/(1-w)}) = w/(1-w), exactly over the rationals:
    # nu_k z^k = nu_hat_k(s) w^k e^{ksw/(1-w)}, so the w^n coefficient is
    # sum_k nu_hat_k(s) a_{n-k}(ks)
    s = float(s)
    a = [None] + [_a(K - k, k * Fraction(s)) for k in range(1, K + 1)]
    for n in range(1, K + 1):
        coeff = sum(_nu_hat_exact(k, s) * Fraction(*a[k][n - k]) for k in range(1, n + 1))
        resid = max(resid, abs(float(coeff - 1)))
    return resid
