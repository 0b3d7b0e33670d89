"""The free unitary Segal-Bargmann transform and its generating function.

G_{s,t} = pi_{s-t} o e^{(t/2)D} and its inverse H_{s,t} = pi_s o e^{-(t/2)D},
the Biane polynomials p_k^{s,t} = H_{s,t}(u^k), a truncated power-series
engine, and order-K verification of the implicit generating-function
identity

    Pi(s, t, u, z e^{(1/2)(s-t)(1+z)/(1-z)}) = (1 - u z e^{(s/2)(1+z)/(1-z)})^{-1} - 1

together with the quasilinear PDEs satisfied by the generating functions
psi^s, phi^{s,u} and varrho.  The PDE check reads c_k, b_k and varrho_k
from :mod:`freesb.moments`, each a polynomial in t (a ``TPoly``), and
differentiates all three in t with one Horner rule.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .moments import (_nu_hat_exact, b_poly, c_poly, pi_eval, varrho,
                      varrho_coeffs)
from .operators import GeneratorSpec, exp_apply
from .tracepoly import TracePoly

MAX_SERIES_ORDER = 16

# ----------------------------------------------------------------------
# the transform pair and Biane polynomials
# ----------------------------------------------------------------------


def G(f: TracePoly, s: float, t: float, tol: float = 1e-13) -> TracePoly:
    """The free Segal-Bargmann transform G_{s,t} = pi_{s-t} o e^{(t/2)D}.

    The transform-pair semantics (G and H mutually inverse, boosted
    regularity) hold for s > t/2 > 0; the formula itself accepts any
    reals.
    """
    return pi_eval(exp_apply(GeneratorSpec.D(), t / 2.0, f, tol=tol), s - t)


def H(f: TracePoly, s: float, t: float, tol: float = 1e-13) -> TracePoly:
    """The inverse transform H_{s,t} = pi_s o e^{-(t/2)D}; H(u^k) = p_k^{s,t}."""
    return pi_eval(exp_apply(GeneratorSpec.D(), -t / 2.0, f, tol=tol), s)


def biane(k: int, s: float, t: float) -> TracePoly:
    """The Biane polynomial p_k^{s,t} = H_{s,t}(u^k); p_0 = 1.

    For k >= 0 a polynomial in u, for k < 0 the same polynomial in u^-1
    (the transform commutes with the reciprocal map).
    """
    if k == 0:
        return TracePoly.one()
    return H(TracePoly.u(k), s, t)


# ----------------------------------------------------------------------
# truncated power series with Laurent-polynomial coefficients
# ----------------------------------------------------------------------


def _as_tp(x) -> TracePoly:
    return x if isinstance(x, TracePoly) else TracePoly.const(x)


@dataclass(frozen=True)
class TPolySeries:
    """Power series in z to order K; coefficients are Laurent in u."""

    order: int
    coeffs: tuple[TracePoly, ...]  # length order + 1, index = power of z

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs must have length order + 1")

    @classmethod
    def build(cls, order: int, coeffs) -> "TPolySeries":
        cs = [_as_tp(c) for c in coeffs]
        cs += [TracePoly.zero()] * (order + 1 - len(cs))
        return cls(order=order, coeffs=tuple(cs[: order + 1]))

    @classmethod
    def identity(cls, order: int) -> "TPolySeries":
        return cls.build(order, [0.0, 1.0])

    def _termwise(self, op, other) -> "TPolySeries":
        if not isinstance(other, TPolySeries):
            other = TPolySeries.build(self.order, [other])
        if other.order != self.order:
            raise ValueError("series orders differ")
        return TPolySeries(self.order, tuple(map(op, self.coeffs, other.coeffs)))

    def __add__(self, other) -> "TPolySeries":
        return self._termwise(operator.add, other)

    def __sub__(self, other) -> "TPolySeries":
        return self._termwise(operator.sub, other)

    def __mul__(self, other) -> "TPolySeries":
        if not isinstance(other, TPolySeries):
            c = _as_tp(other)
            return TPolySeries(self.order, tuple(a * c for a in self.coeffs))
        if other.order != self.order:
            raise ValueError("series orders differ")
        K = self.order
        out = [TracePoly.zero() for _ in range(K + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j in range(K + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TPolySeries(K, tuple(out))

    __rmul__ = __mul__

    def _number(self, k: int, what: str) -> complex:
        # the z^k coefficient, which must be a constant (no u, no v)
        ck = self.coeffs[k]
        if any(m != (0, ()) for m in ck.terms):
            raise ValueError(f"{what} requires a constant z^{k} coefficient, got {ck}")
        return ck.coeff((0, ()))

    def exp(self) -> "TPolySeries":
        """e^A: factor out the (scalar) constant term, then a finite sum."""
        c0 = self._number(0, "series exp")
        B = TPolySeries(self.order,
                        (TracePoly.zero(),) + self.coeffs[1:])
        out = TPolySeries.build(self.order, [1.0])
        term = TPolySeries.build(self.order, [1.0])
        for n in range(1, self.order + 1):
            term = term * B * (1.0 / n)
            out = out + term
        return out * cmath.exp(c0)

    def recip(self) -> "TPolySeries":
        """1/A; needs an invertible scalar constant term."""
        c0 = self._number(0, "series recip")
        if c0 == 0:
            raise ValueError("series recip requires nonzero constant term")
        K = self.order
        inv0 = 1.0 / c0
        out = [TracePoly.const(inv0)]
        for k in range(1, K + 1):
            acc = TracePoly.zero()
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out.append((-inv0) * acc)
        return TPolySeries(K, tuple(out))

    def compose(self, inner: "TPolySeries") -> "TPolySeries":
        """A(B(z)); the inner series must have zero constant term."""
        if inner.order != self.order:
            raise ValueError("series orders differ")
        if not inner.coeffs[0].is_zero:
            raise ValueError("series compose requires inner constant term 0")
        out = TPolySeries.build(self.order, [self.coeffs[self.order]])
        for k in range(self.order - 1, -1, -1):
            out = out * inner + TPolySeries.build(self.order, [self.coeffs[k]])
        return out


# ----------------------------------------------------------------------
# generating functions
# ----------------------------------------------------------------------


def exp_curve(a: float, K: int) -> TPolySeries:
    """The series of e^{a(1+w)/(1-w)} to order K (constant term e^a)."""
    # a*(1+w)/(1-w) = a*(1 + 2w + 2w^2 + ...)
    return TPolySeries.build(K, [a] + [2.0 * a] * K).exp()


def Pi_series(s: float, t: float, K: int) -> TPolySeries:
    """Pi(s,t,u,z) = sum_{k>=1} p_k^{s,t}(u) z^k, truncated at order K."""
    if K > MAX_SERIES_ORDER:
        raise ValueError(f"series order {K} exceeds {MAX_SERIES_ORDER}")
    return TPolySeries(K, (TracePoly.zero(),) + tuple(
        biane(k, s, t) for k in range(1, K + 1)))


def verify_gen_fn(s: float, t: float, K: int = 8) -> float:
    """Check the implicit generating-function identity to order K.

    Substitutes z(w) = w e^{(1/2)(s-t)(1+w)/(1-w)} into Pi(s,t,u,.) and
    compares, coefficient by coefficient in w (each a Laurent polynomial
    in u), with (1 - u w e^{(s/2)(1+w)/(1-w)})^{-1} - 1.  Returns the
    largest absolute coefficient residual over w^1..w^K.
    """
    lhs = Pi_series(s, t, K).compose(
        TPolySeries.identity(K) * exp_curve((s - t) / 2.0, K))
    curve = exp_curve(s / 2.0, K)
    u = TracePoly.u(1)
    denom = TPolySeries(K, (TracePoly.one(),) + tuple(
        -1.0 * (u * curve.coeffs[k - 1]) for k in range(1, K + 1)))
    rhs = denom.recip() - 1.0
    resid = 0.0
    for k in range(1, K + 1):
        resid = max(resid, (lhs.coeffs[k] - rhs.coeffs[k]).coeff_max())
    return resid


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
    # nu_k z^k = nu_hat_k(s) w^k e^{ksw/(1-w)} and e^{xw/(1-w)} = sum_m a_m(x) w^m
    # with a_0 = 1, a_m(x) = sum_{j=1}^m C(m-1, j-1) x^j/j!, so the w^n
    # coefficient is sum_k nu_hat_k(s) a_{n-k}(ks)
    def a(m: int, x: Fraction) -> Fraction:
        return sum((math.comb(m - 1, j - 1) * x ** j / math.factorial(j)
                    for j in range(1, m + 1)), Fraction(1 if m == 0 else 0))

    s = float(s)
    for n in range(1, K + 1):
        coeff = sum(_nu_hat_exact(k, s) * a(n - k, k * Fraction(s))
                    for k in range(1, n + 1))
        resid = max(resid, abs(float(coeff - 1)))
    return resid
