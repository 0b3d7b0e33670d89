"""Moments of the heat kernel measures and their Biane-polynomial data.

Closed-form nu_k(s), the trace evaluation maps pi_s (direct substitution
and an independent semigroup route), and the exact-in-t recursions for
the coefficient functions c_k(s,t), the Laurent polynomials b_k(s,t,u),
and the normalized moments varrho_k(t).

Everything here keeps the time variable t symbolic: the recursions only
ever integrate polynomials in tau, so integration is an exact
coefficient shift, never quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .operators import GeneratorSpec, exp_apply
from .tracepoly import TracePoly

# ----------------------------------------------------------------------
# Catalan numbers and nu_k
# ----------------------------------------------------------------------


def catalan(k: int) -> int:
    """C_k = binom(2k,k)/(k+1); restricted to 0 <= k <= 33 (64-bit safe)."""
    if not 0 <= k <= 33:
        raise ValueError(f"catalan(k) supports 0 <= k <= 33, got {k}")
    return math.comb(2 * k, k) // (k + 1)


@lru_cache(maxsize=None)
def _nu_hat_exact(k: int, s: float) -> Fraction:
    # e^{ks/2} nu_k(s) = sum_{j=0}^{k-1} ((-s)^j / j!) k^{j-1} binom(k, j+1),
    # summed exactly over the rationals: the terms alternate in sign and the
    # cancellation for large k, s is far beyond what compensated floating
    # summation can absorb.
    sf = Fraction(-s)
    acc = Fraction(0)
    power = Fraction(1)
    fact = 1
    for j in range(k):
        acc += power * Fraction(k ** j, k) * math.comb(k, j + 1) / fact
        power *= sf
        fact *= j + 1
    return acc


def nu(k: int, s: float) -> float:
    """nu_k(s): the k-th moment of the free unitary multiplicative measure.

    nu_0 = 1 and for k != 0

        nu_k(s) = e^{-|k|s/2} sum_{j=0}^{|k|-1} ((-s)^j/j!) |k|^{j-1} binom(|k|, j+1),

    with nu_{-k} = nu_k.  Entire in s.
    """
    k = abs(k)
    if k == 0:
        return 1.0
    if k > 64:
        raise ValueError(f"nu(k, s) supports |k| <= 64, got {k}")
    return math.exp(-k * s / 2.0) * float(_nu_hat_exact(k, float(s)))


# ----------------------------------------------------------------------
# the evaluation maps pi_s
# ----------------------------------------------------------------------


def pi_eval(p: TracePoly, s: float) -> TracePoly:
    """pi_s by direct substitution v_j -> nu_j(s); lands in C[u, u^-1]."""
    return p.substitute_v(lambda j: nu(j, s))


def pi_via_semigroup(p: TracePoly, s: float, tol: float = 1e-13) -> TracePoly:
    """pi_s as (e^{-(s/2)(N0 + 2Z)} p) followed by setting every v_k to 1.

    Independent of :func:`pi_eval`; the two routes agreeing is one of the
    library's cross-checks.
    """
    q = exp_apply(GeneratorSpec.pi_gen(), -s / 2.0, p, tol=tol)
    return q.substitute_v(lambda j: 1.0)


# ----------------------------------------------------------------------
# exact-in-t polynomial containers
# ----------------------------------------------------------------------


def _poly_mul(a: list, b: list) -> list:
    # type-generic (float, Fraction, ...): seed zeros from the operands
    out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_int(a: list) -> list:
    """Definite integral from 0 to t, as a coefficient shift/divide."""
    return [0 * a[0]] + [a[j] / (j + 1) for j in range(len(a))]


@dataclass(frozen=True)
class TPoly:
    """e^{prefactor_exp} * (polynomial in t), coefficients ascending."""

    coeffs: tuple[complex, ...]
    prefactor_exp: float = 0.0

    def eval(self, t: float) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return math.exp(self.prefactor_exp) * acc

    def materialize(self) -> list[complex]:
        """Coefficient list with the prefactor folded in."""
        f = math.exp(self.prefactor_exp)
        return [f * c for c in self.coeffs]


@dataclass(frozen=True)
class TLaurentPoly:
    """Polynomial in t whose coefficients are Laurent polynomials in u."""

    coeffs: tuple[TracePoly, ...]

    def eval(self, t: float) -> TracePoly:
        acc = TracePoly.zero()
        for c in reversed(self.coeffs):
            acc = t * acc + c
        return acc


# ----------------------------------------------------------------------
# recursions for c_k, b_k, varrho_k
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _c_hat(k: int, s: float) -> tuple[float, ...]:
    # e^{ks/2} c_k(s,t) as a polynomial in t.  The prefactors e^{-ms/2}
    # of every product c_{k-m} c_m combine to the same e^{-ks/2}, so the
    # deflated recursion never touches an exponential:
    #   chat_k = nuhat_k(s) + sum_m m * int_0^t chat_{k-m} chat_m
    acc = [float(_nu_hat_exact(k, s))] + [0.0] * (k - 1)
    for m in range(1, k):
        prod = _poly_mul(list(_c_hat(k - m, s)), list(_c_hat(m, s)))
        for j, pj in enumerate(_poly_int(prod)):
            acc[j] += m * pj
    return tuple(acc)


def c_poly(k: int, s: float) -> TPoly:
    """c_k(s, .) with c_1 = nu_1(s), built by exact integration of

        c_k = nu_k(s) + sum_{m=1}^{k-1} int_0^t m c_{k-m}(s,tau) c_m(s,tau) dtau.

    Equals e^{-kt/2} nu_k(s-t); degree k-1 in t.
    """
    if k < 1:
        raise ValueError(f"c_poly needs k >= 1, got {k}")
    return TPoly(coeffs=tuple(complex(c) for c in _c_hat(k, float(s))),
                 prefactor_exp=-k * float(s) / 2.0)


@lru_cache(maxsize=None)
def _b_table(k: int, s: float) -> tuple[TracePoly, ...]:
    acc = [TracePoly.u(k)] + [TracePoly.zero()] * (k - 1)
    for m in range(1, k):
        prod = _poly_mul(c_poly(k - m, s).materialize(), list(_b_table(m, s)))
        for j, pj in enumerate(_poly_int(prod)):
            acc[j] += m * pj
    return tuple(acc)


def b_poly(k: int, s: float) -> TLaurentPoly:
    """b_k(s, ., u) with b_1 = u, by exact integration of

        b_k = u^k + sum_{m=1}^{k-1} int_0^t m c_{k-m}(s,tau) b_m(s,tau,u) dtau.

    e^{kt/2} b_k(s,t,u) is the Biane polynomial p_k^{s,t}(u).
    """
    if k < 1:
        raise ValueError(f"b_poly needs k >= 1, got {k}")
    return TLaurentPoly(coeffs=_b_table(k, float(s)))


@lru_cache(maxsize=None)
def _varrho_coeffs(k: int) -> tuple[Fraction, ...]:
    # varrho_k = 1 - (k/2) sum_{m=1}^{k-1} int_0^t varrho_m varrho_{k-m};
    # rational coefficients, kept exact.
    acc = [Fraction(1)] + [Fraction(0)] * (k - 1)
    half_k = Fraction(k, 2)
    for m in range(1, k):
        prod = _poly_mul(list(_varrho_coeffs(m)), list(_varrho_coeffs(k - m)))
        for j, pj in enumerate(_poly_int(prod)):
            acc[j] -= half_k * pj
    return tuple(acc)


def varrho_coeffs(k: int) -> tuple[Fraction, ...]:
    """Exact rational coefficients of varrho_k as a polynomial in t."""
    if k < 1:
        raise ValueError(f"varrho_coeffs needs k >= 1, got {k}")
    return _varrho_coeffs(k)


def varrho(k: int, t: float) -> float:
    """varrho_k(t) = e^{kt/2} nu_k(t), via its self-contained recursion."""
    if k < 1:
        raise ValueError(f"varrho needs k >= 1, got {k}")
    acc = Fraction(0)
    tf = Fraction(float(t))
    for c in reversed(_varrho_coeffs(k)):
        acc = acc * tf + c
    return float(acc)
