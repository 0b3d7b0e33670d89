"""Moments of the heat kernel measures and their Biane-polynomial data.

Closed-form nu_k(s), the trace evaluation maps pi_s (direct substitution
and an independent semigroup route), and the exact-in-t recursions for
the coefficient functions c_k(s,t), the Laurent polynomials b_k(s,t,u),
and the normalized moments varrho_k(t).

Everything here keeps the time variable t symbolic.  The three sequences
come from one quadratic recursion,

    x_k = x_k(0) +- sum_{m=1}^{k-1} m int_0^t y_{k-m} x_m,   y = x (y = c for b),

which only ever integrates polynomials in tau, so integration is an
exact coefficient shift, never quadrature; :func:`_recursion` runs it
for c_k and b_k, and varrho_k runs it on integer numerators.  Each result is a
:class:`TPoly`, one container whose coefficients are numbers (c_k),
Laurent polynomials in u (b_k) or Fractions (varrho_k).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from .operators import GeneratorSpec, check_times, exp_apply
from .tracepoly import TracePoly, mono

MAX_MOMENT = 64  # largest k of c_k, b_k and varrho_k, |k| of nu_k: their cost grows as a power of k
S_CACHE_SIZE = 256  # entries of each s-keyed cache, which a fresh s per call would grow
#: ln of the least normal double and of the greatest double
_EXP_MIN, _EXP_MAX = -708.3964185322641, 709.782712893384


def _check_moment(k: int, **times: float) -> None:
    if not 1 <= k <= MAX_MOMENT:
        raise ValueError(f"moment order k must be in 1..{MAX_MOMENT}, got {k}")
    check_times(**times)


def _check_finite(values, what: str, *args) -> None:
    # the float-range rule: "<what formatted by args> beyond the float range" unless all are finite
    if not all(map(cmath.isfinite, values)):
        raise ValueError(what.format(*args) + " beyond the float range")


# ----------------------------------------------------------------------
# Catalan numbers and nu_k
# ----------------------------------------------------------------------


def catalan(k: int) -> int:
    """C_k = binom(2k,k)/(k+1); restricted to 0 <= k <= 33 (64-bit safe)."""
    if not 0 <= k <= 33:
        raise ValueError(f"catalan(k) supports 0 <= k <= 33, got {k}")
    return math.comb(2 * k, k) // (k + 1)


@cache
def _nu_hat_coeffs(k: int) -> tuple[int, ...]:
    # a_j = binom(k, j+1) (k-1)!/j! for j = k-1 down to 0, the s-independent
    # integers of e^{ks/2} nu_k(s) = sum_j a_j (-ks)^j / k!
    return tuple(math.comb(k, j + 1) * math.perm(k - 1, k - 1 - j) for j in reversed(range(k)))


@lru_cache(maxsize=S_CACHE_SIZE)
def _nu_hat_exact(k: int, s: float) -> tuple[int, int]:
    # e^{ks/2} nu_k(s) = sum_{j=0}^{k-1} ((-s)^j / j!) k^{j-1} binom(k, j+1),
    # summed exactly over the rationals: the terms alternate in sign and the
    # cancellation for large k, s is far beyond what compensated floating
    # summation can absorb.  Every route to nu_k and c_k passes here.  With
    # -s = p/q, q = 2^e (the ratio of a float), it is sum_j a_j (pk)^j q^{k-1-j}
    # over k! q^{k-1}: one Horner sum on integers, returned as the pair
    # (numerator, denominator), not reduced.  Python's int division rounds
    # correctly, so num / den is the float of the exact value.
    check_times(s=s)
    p, q = (-s).as_integer_ratio()
    x, e, num = p * k, q.bit_length() - 1, 0
    for i, a in enumerate(_nu_hat_coeffs(k)):
        num = num * x + (a << e * i)
    return num, math.factorial(k) << e * (k - 1)


def _exp_times(x: float, num: int, den: int) -> float:
    # e^x num/den: the product of the floats e^x and num / den where both are
    # normal doubles.  Otherwise num/den = m 2^b with 1 < |m| < 4 and 2^b is
    # folded into the exponential, so e^x overflows only where the product
    # does (then inf) and underflows only where it does.
    b = num.bit_length() - den.bit_length() - 1  # 2^b < |num/den| < 2^(b+2)
    if num and not (x > _EXP_MIN and -1023 < b < 1022):
        x, num, den = x + b * math.log(2.0), num << max(-b, 0), den << max(b, 0)
    return math.exp(x) * (num / den) if x <= _EXP_MAX else math.inf


def nu(k: int, s: float) -> float:
    """nu_k(s): the k-th moment of the free unitary multiplicative measure.

    nu_0 = 1 and for k != 0

        nu_k(s) = e^{-|k|s/2} sum_{j=0}^{|k|-1} ((-s)^j/j!) |k|^{j-1} binom(|k|, j+1),

    with nu_{-k} = nu_k.  Entire in s.  The sum is exact and rounds once;
    where it and e^{-|k|s/2} are both normal doubles, nu_k is their product.
    Where either alone would leave the normal range, the sum's binary
    exponent is folded into the exponential first, so a moment that is a
    normal double keeps its relative accuracy.  For s >= 0, |nu_k(s)| <= 1
    and a value is always returned (zero where it underflows); for s < 0, a
    moment past the float range raises ValueError, as does |k| > MAX_MOMENT.
    """
    # both rules are called off the hot path only: pi_eval takes each nu_j it needs here
    if not 0 < (k := abs(k)) <= MAX_MOMENT:
        _check_moment(k or 1, s=s)  # nu_0 = 1 needs only a finite time
        return 1.0
    if math.isinf(value := _exp_times(-k * s / 2.0, *_nu_hat_exact(k, float(s)))):
        _check_finite((value,), "nu_k(s) for k = {} at s = {!r} is", k, s)
    return value


# ----------------------------------------------------------------------
# the evaluation maps pi_s
# ----------------------------------------------------------------------


def pi_eval(p: TracePoly, s: float) -> TracePoly:
    """pi_s by direct substitution v_j -> nu_j(s); lands in C[u, u^-1]."""
    nus: dict[int, float] = {}  # each nu_j once per call
    return p.substitute_v(lambda j: nus[j] if j in nus else nus.setdefault(j, nu(j, s)))


def pi_via_semigroup(p: TracePoly, s: float) -> TracePoly:
    """pi_s as (e^{-(s/2)(N0 + 2Z)} p) followed by setting every v_k to 1.

    Independent of :func:`pi_eval`; the two routes agreeing is one of the
    library's cross-checks.
    """
    q = exp_apply(GeneratorSpec.pi_gen(), -s / 2.0, p)
    return q.substitute_v(lambda j: 1.0)


# ----------------------------------------------------------------------
# exact-in-t polynomials and the one recursion behind c_k, b_k, varrho_k
# ----------------------------------------------------------------------


def _poly_mul(a: list, b: list) -> list:
    # type-generic (float, int, array); the seeded zeros are one object, so no +=
    out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _poly_int(a: list) -> list:
    """Definite integral from 0 to t, as a coefficient shift/divide."""
    return [0 * a[0]] + [a[j] / (j + 1) for j in range(len(a))]


def _recursion(k: int, first, left, right) -> tuple:
    # coefficients in t of first + sum_{m=1}^{k-1} m int_0^t left(k-m) right(m),
    # where left, right give coefficient lists (numbers or arrays)
    acc = [first] + [first - first] * (k - 1)  # a zero of first's type, never -0.0
    for m in range(1, k):
        for j, pj in enumerate(_poly_int(_poly_mul(left(k - m), right(m)))):
            acc[j] = acc[j] + m * pj
    return tuple(acc)


@dataclass(frozen=True)
class TPoly:
    """e^{prefactor_exp} * (polynomial in one variable), coefficients ascending.

    The variable is t for c_k, b_k and varrho_k, and z for the Biane
    series of :func:`freesb.transform.Pi_series`.  The coefficients may be
    numbers (c_k), Fractions (varrho_k), arrays or trace polynomials in u
    (b_k, p_k); :meth:`eval` and :meth:`deriv` work for each.
    """

    coeffs: tuple
    prefactor_exp: float = 0.0

    def eval(self, t):
        """The value at t; with prefactor 0 it keeps the coefficients' type,
        so Fraction coefficients at a Fraction t evaluate exactly."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * t + c
        return acc if self.prefactor_exp == 0 else math.exp(self.prefactor_exp) * acc

    def deriv(self) -> "TPoly":
        """The derivative in the variable, with the same prefactor; a
        constant gives one zero of its coefficient type."""
        return TPoly(tuple(j * c for j, c in enumerate(self.coeffs))[1:]
                     or (0 * self.coeffs[0],), self.prefactor_exp)


@lru_cache(maxsize=S_CACHE_SIZE)
def _c_hat(k: int, s: float) -> tuple[float, ...]:
    # e^{ks/2} c_k(s,t) as a polynomial in t.  The prefactors e^{-ms/2}
    # of every product c_{k-m} c_m combine to the same e^{-ks/2}, so the
    # deflated recursion never touches an exponential:
    #   chat_k = nuhat_k(s) + sum_m m * int_0^t chat_{k-m} chat_m
    first = _exp_times(0.0, *_nu_hat_exact(k, s))  # num / den, or inf past the range
    out = _recursion(k, first, lambda j: _c_hat(j, s), lambda j: _c_hat(j, s))
    _check_finite(out, "c_k(s, t) for k = {} at s = {!r} is", k, s)
    return out


def c_poly(k: int, s: float) -> TPoly:
    """c_k(s, .) with c_1 = nu_1(s), built by exact integration of

        c_k = nu_k(s) + sum_{m=1}^{k-1} int_0^t m c_{k-m}(s,tau) c_m(s,tau) dtau.

    Equals e^{-kt/2} nu_k(s-t); degree k-1 in t.
    """
    _check_moment(k, s=s)
    return TPoly(coeffs=tuple(complex(c) for c in _c_hat(k, float(s))),
                 prefactor_exp=-k * float(s) / 2.0)


@lru_cache(maxsize=S_CACHE_SIZE)
def _b_table(k: int, s: float) -> tuple[np.ndarray, ...]:
    # b_k's coefficients in t as complex arrays over u^0..u^k (k + 1 entries
    # in the cache); a b_j with j < k is padded to that length where it is read
    first = (np.arange(k + 1) == k).astype(complex)  # u^k
    out = [math.inf]  # refused, unless the largest e^{-js/2} below is finite
    if (1 - k) * s / 2.0 <= _EXP_MAX:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is refused
            out = _recursion(k, first, lambda j: [math.exp(-j * s / 2.0) * c for c in _c_hat(j, s)],
                             lambda j: np.pad(_b_table(j, s), ((0, 0), (0, k - j))))
    _check_finite(np.ravel(out), "b_k(s, t) for k = {} at s = {!r} is", k, s)
    return out


def b_poly(k: int, s: float) -> TPoly:
    """b_k(s, ., u) with b_1 = u, by exact integration of

        b_k = u^k + sum_{m=1}^{k-1} int_0^t m c_{k-m}(s,tau) b_m(s,tau,u) dtau.

    A TPoly with prefactor 0 whose coefficients are Laurent polynomials
    in u.  e^{kt/2} b_k(s,t,u) is the Biane polynomial p_k^{s,t}(u).
    """
    _check_moment(k, s=s)
    return TPoly(coeffs=tuple(TracePoly({mono(j): c for j, c in enumerate(b.tolist())})
                              for b in _b_table(k, float(s))))


@lru_cache(maxsize=None)
def varrho_coeffs(k: int) -> tuple[Fraction, ...]:
    """Exact rational coefficients of varrho_k as a polynomial in t."""
    _check_moment(k)
    # varrho_k = 1 - (k/2) sum_{m=1}^{k-1} int_0^t varrho_m varrho_{k-m},
    # and (k/2) sum_m f_m f_{k-m} = sum_m m f_{k-m} f_m by the symmetry
    # m <-> k-m.  Summed on integers, as in _nu_hat_exact: with varrho_m =
    # n_m / d_m over one denominator and E = lcm_m d_{k-m} d_m, coefficient
    # j >= 1 is -T_j / (E j), T_j = sum_m m E / (d_{k-m} d_m) (n_{k-m} n_m)_{j-1}
    def over_one_denominator(cs):
        d = math.lcm(*(c.denominator for c in cs))
        return [c.numerator * (d // c.denominator) for c in cs], d

    ints = [over_one_denominator(varrho_coeffs(m)) for m in range(1, k)]
    E = math.lcm(*(ints[k - m - 1][1] * ints[m - 1][1] for m in range(1, k)))
    T = [0] * (k - 1)
    for m in range(1, k):
        (left, d1), (right, d2) = ints[k - m - 1], ints[m - 1]
        for j, x in enumerate(_poly_mul(left, right)):
            T[j] += m * (E // (d1 * d2)) * x
    return (Fraction(1),) + tuple(Fraction(-x, E * (j + 1)) for j, x in enumerate(T))


def varrho(k: int, t: float) -> float:
    """varrho_k(t) = e^{kt/2} nu_k(t), via its self-contained recursion."""
    _check_moment(k, t=t)
    return float(TPoly(varrho_coeffs(k)).eval(Fraction(float(t))))
