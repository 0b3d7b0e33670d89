"""Sparse trace polynomials: the algebra C[u, u^-1; v].

A trace polynomial is a finite linear combination of monomials

    u^k0 * prod_j v_j^(e_j),    k0 in Z,  j in Z without 0,  e_j >= 1,

where u stands for a single (invertible) matrix variable and v_j for the
scalar tr(Z^j) under the normalized trace tr = Tr/N.  Under the functional
calculus a monomial evaluates on Z as Z^k0 * prod_j tr(Z^j)^e_j; v_0 is
identically 1 and is never stored.

The trace degree of a monomial is |k0| + sum_j |j|*e_j; it grades the
algebra by finite-dimensional filtration levels that every operator in
this package preserves.

Representation: a polynomial is a map from monomial keys to complex
coefficients.  A key is ``(u_exp, v_exps)`` where ``v_exps`` is a tuple of
``(index, exponent)`` pairs sorted by index.  Only exact zeros are
dropped, so no term is lost to its scale short of underflow; equality is
termwise within relative tolerance ``EQ_EPS`` (on the larger magnitude).

The word engine (:mod:`freesb.words`) shares this module's core:
``SparsePoly``, ``linear`` and the partial-derivative iterators over sorted
``(variable, exponent)`` tuples, the shape of both a v-part and a word monomial.

``format_poly`` writes and ``parse`` reads the text grammar given beside them.
"""

from __future__ import annotations

import cmath
import re
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Union

EQ_EPS = 1e-12

#: monomial key: (u_exp, ((j, e_j), ...)) with v-factors sorted by index
Mono = tuple[int, tuple[tuple[int, int], ...]]

Scalar = Union[int, float, complex]

#: sorted ((variable, exponent), ...): a Mono's v-part, or a word monomial
Factors = tuple[tuple[Hashable, int], ...]


def merge_factors(pairs: Iterable[tuple[Hashable, int]], unit: Hashable) -> Factors:
    """Sorted factor tuple with repeated variables merged.

    The variable ``unit`` (identically 1) and zero exponents drop out;
    a negative exponent raises ValueError.
    """
    acc: dict = {}
    for x, e in pairs:
        if x != unit:
            acc[x] = acc.get(x, 0) + e
    for x, e in acc.items():
        if e < 0:
            raise ValueError(f"negative exponent {e} for variable {x!r}")
    return tuple(sorted((x, e) for x, e in acc.items() if e))


def factors_mul(a: Factors, b: Factors) -> Factors:
    """The product of two normalized factor tuples: exponents of a shared
    variable add, and the result is sorted, so normalized too."""
    if not (a and b):
        return a or b
    acc = dict(a)
    for x, e in b:
        acc[x] = acc.get(x, 0) + e
    return tuple(sorted(acc.items()))


def first_partials(factors: Factors) -> Iterator[tuple[Hashable, int, Factors]]:
    """d/dx over the factors: ``(x, e, rest)`` for each factor x^e, where
    ``rest`` is ``factors`` with that exponent lowered by one (the factor
    drops out at 0, so ``rest`` is normalized too)."""
    for i, (x, e) in enumerate(factors):
        yield x, e, factors[:i] + ((x, e - 1),) * (e > 1) + factors[i + 1:]


def second_partials(factors: Factors) -> Iterator[tuple[Hashable, Hashable, int, Factors]]:
    """Two factors taken out together, over unordered pairs with a factor
    paired with itself included: ``(x, y, weight, rest)``, x at or before
    y in ``factors``, with weight e_x e_y (C(e_x, 2) when x is y), the
    number of ways to pick the pair, and ``rest`` the normalized factors
    left.  A symmetric second-order operator sum_{x,y} c_xy d2/dx dy takes
    2 c_xy times weight on each pair."""
    for i, (x, ex) in enumerate(factors):
        if ex >= 2:
            yield x, x, ex * (ex - 1) // 2, (factors[:i] + ((x, ex - 2),) * (ex > 2)
                                             + factors[i + 1:])
        for j in range(i + 1, len(factors)):
            y, ey = factors[j]
            yield x, y, ex * ey, (factors[:i] + ((x, ex - 1),) * (ex > 1) + factors[i + 1:j]
                                  + ((y, ey - 1),) * (ey > 1) + factors[j + 1:])


def mono(u_exp: int = 0, v: Iterable[tuple[int, int]] = ()) -> Mono:
    """Build a normalized monomial key.

    Merges repeated v-indices, drops v_0 factors (v_0 == 1) and zero
    exponents, and sorts.  Raises on negative exponents.
    """
    return (int(u_exp), merge_factors(v, 0))


def mono_degree(m: Mono) -> int:
    """Trace degree |u_exp| + sum |j|*e_j of a monomial key."""
    k0, ve = m
    return abs(k0) + sum(abs(j) * e for j, e in ve)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two monomial keys (u-exponents add, v-maps merge)."""
    return (a[0] + b[0], factors_mul(a[1], b[1]))


def mono_factors(m: Mono) -> list[str]:
    """The factors of a monomial as text: ``u``, ``u^k``, ``vj``, ``vj^e``."""
    k0, ve = m
    out = [] if k0 == 0 else ["u" if k0 == 1 else f"u^{k0}"]
    return out + [f"v{j}" if e == 1 else f"v{j}^{e}" for j, e in ve]


def linear(column: Callable[[Hashable], Iterable[tuple[Hashable, Scalar]]],
           p: "SparsePoly") -> "SparsePoly":
    """The linear extension to ``p`` of ``column``, which maps one
    monomial to its image as (monomial, weight) pairs."""
    acc: dict = {}
    for m, c in p.terms.items():
        for mi, w in column(m):
            acc[mi] = acc.get(mi, 0j) + c * w
    return type(p)(acc)


class SparsePoly:
    """Immutable sparse polynomial: ``terms`` maps monomial keys to complex
    coefficients.

    A subclass fixes its keys: ``_UNIT`` is the key of the constant
    monomial, ``_mono_mul`` multiplies two keys, ``_degree`` gives a
    key's trace degree and ``_factor_text`` a key's factors as text
    (``format_poly``).  A coefficient that is not finite raises
    ValueError; an exact zero (``0j`` or ``-0j``) is dropped.  Every
    operation returns a new instance, so values can be shared freely
    (including across threads).
    """

    __slots__ = ("terms",)
    _UNIT: Hashable
    _mono_mul: Callable[[Hashable, Hashable], Hashable]
    _degree: Callable[[Hashable], int]
    _factor_text: Callable[[Hashable], list[str]]

    def __init__(self, terms: Mapping[Hashable, Scalar] | None = None):
        cleaned: dict = {}
        for m, c in (terms or {}).items():
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c!r} for monomial {m!r}")
            if c:
                cleaned[m] = c
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _from_finite(cls, keys: Iterable[Hashable], values: Iterable[complex]):
        """The polynomial with coefficient ``values[i]`` on ``keys[i]``, for
        distinct keys and complex values already known to be finite: only
        exact zeros are dropped, so it equals ``cls(dict(zip(keys, values)))``."""
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", {m: c for m, c in zip(keys, values) if c})
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c: Scalar):
        return cls({cls._UNIT: complex(c)})

    @classmethod
    def one(cls):
        return cls.const(1.0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, m) -> complex:
        return self.terms.get(m, 0j)

    def coeff_max(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def trace_degree(self) -> int:
        """Max trace degree over monomials; 0 for the zero polynomial, which
        ``is_zero`` flags rather than a sentinel degree."""
        return max(map(self._degree, self.terms), default=0)

    # the ring operations; each subclass binds them as its own __add__ and
    # __mul__ (and reflected forms), so every class keeps distinct operator
    # functions that profiling and tracing can wrap class by class

    def _add(self, other):
        if not isinstance(other, type(self)):
            other = self.const(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0j) + c
        return type(self)(acc)

    def _mul(self, other):
        if not isinstance(other, type(self)):
            c = complex(other)
            return type(self)({m: a * c for m, a in self.terms.items()})
        key = self._mono_mul
        acc: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = key(ma, mb)
                acc[m] = acc.get(m, 0j) + ca * cb
        return type(self)(acc)

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            other = self.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar):
        return self.const(other) + (-self)

    def allclose(self, other: "SparsePoly", rel: float = EQ_EPS) -> bool:
        """Termwise comparison, relative on the larger coefficient magnitude,
        with no absolute floor: a term on one side only never passes."""
        for m in set(self.terms) | set(other.terms):
            ca, cb = self.coeff(m), other.coeff(m)
            if abs(ca - cb) > rel * max(abs(ca), abs(cb)):
                return False
        return True

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_poly(self)!r})"


class TracePoly(SparsePoly):
    """Immutable sparse trace polynomial in C[u, u^-1; v]."""

    __slots__ = ()
    _UNIT = mono()
    _mono_mul = staticmethod(mono_mul)
    _degree = staticmethod(mono_degree)
    _factor_text = staticmethod(mono_factors)

    @classmethod
    def u(cls, k: int = 1) -> "TracePoly":
        """The Laurent monomial u^k."""
        return cls({mono(k): 1.0})

    @classmethod
    def v(cls, j: int, e: int = 1) -> "TracePoly":
        """The monomial v_j^e (j != 0)."""
        if j == 0:
            raise ValueError("v_0 is not a variable (it is identically 1)")
        return cls({mono(0, [(j, e)]): 1.0})

    # ------------------------------------------------------------------
    # basic queries

    def is_laurent(self) -> bool:
        """True when no v-variable occurs (pure Laurent polynomial in u)."""
        return all(not ve for _, ve in self.terms)

    def is_scalar(self) -> bool:
        """True when no u-power occurs (polynomial in the v's only)."""
        return all(k0 == 0 for k0, _ in self.terms)

    # ------------------------------------------------------------------
    # ring structure

    def __add__(self, other: "TracePoly | Scalar") -> "TracePoly":
        return self._add(other)

    def __mul__(self, other: "TracePoly | Scalar") -> "TracePoly":
        return self._mul(other)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other: Scalar) -> "TracePoly":
        if isinstance(other, TracePoly):
            raise TypeError("can only divide a trace polynomial by a scalar")
        c = complex(other)
        return TracePoly({m: a / c for m, a in self.terms.items()})

    def __pow__(self, n: int) -> "TracePoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = TracePoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # ------------------------------------------------------------------
    # the structure maps

    def tracing_map(self) -> "TracePoly":
        """T(u^k q(v)) = v_k q(v); monomials with k=0 are fixed.

        The image lies in C[v] (all u-exponents 0); tr(Z^0) = 1 makes the
        k=0 case consistent.
        """
        return linear(lambda m: [(mono(0, m[1] + ((m[0], 1),)), 1.0)], self)

    def substitute_v(self, assign: Callable[[int], Scalar]) -> "TracePoly":
        """Substitute numbers for every v_j; returns a Laurent polynomial in u.

        ``assign`` maps each v-index present to its value; each power
        ``complex(assign(j)) ** e`` is taken once per call.
        """
        acc: dict[Mono, complex] = {}
        pw: dict[tuple[int, int], complex] = {}
        for (k0, ve), c in self.terms.items():
            val = c
            for je in ve:
                val *= pw[je] if je in pw else pw.setdefault(je, complex(assign(je[0])) ** je[1])
            acc[k0, ()] = acc.get((k0, ()), 0j) + val
        return TracePoly(acc)

    def invert_u(self) -> "TracePoly":
        """u^k -> u^{-k} on a pure Laurent polynomial (error if any v occurs)."""
        for _, ve in self.terms:
            if ve:
                raise ValueError("invert_u is only defined on Laurent polynomials in u "
                                 f"(found v-factors {ve})")
        return TracePoly({(-k0, ()): c for (k0, _), c in self.terms.items()})

    # ------------------------------------------------------------------
    # comparison

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float, complex)):
            other = TracePoly.const(other)
        if not isinstance(other, TracePoly):
            return NotImplemented
        return self.allclose(other)

    __hash__ = None  # tolerance-based equality is incompatible with hashing


# ----------------------------------------------------------------------
# text format
#
# polynomial := term (('+'|'-') term)*
# term       := coeff? ('*'? factor)*
# factor     := 'u' '^' int | 'u' | 'v' int ('^' posint)?
# coeff      := float | '(' float ('+'|'-') float 'i' ')'
#
# "v-2" is v_{-2}; whitespace is insignificant.


def _num_str(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _signed_num_str(x: float) -> str:
    return _num_str(x) if x < 0 else "+" + _num_str(x)


def format_poly(p: SparsePoly) -> str:
    """Canonical text form, terms in key order; for a ``TracePoly``, each
    coefficient of ``parse(format_poly(p))`` equals p's, but a -0.0 reads back as 0.0."""
    if p.is_zero:
        return "0"
    text = ""
    for m, c in sorted(p.terms.items()):
        factors = p._factor_text(m)
        if c.imag != 0.0:
            text += " + " + "*".join([f"({_num_str(c.real)}{_signed_num_str(c.imag)}i)"] + factors)
        else:
            mag = abs(c.real)
            text += (" - " if c.real < 0 else " + ") + "*".join(
                factors if factors and mag == 1.0 else [_num_str(mag)] + factors)
    return text[3:] if text[1] == "+" else "-" + text[3:]


_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
#: optional whitespace and a sign, with the whitespace after it
_SIGN = re.compile(r"\s*([+-]?)\s*")
#: a real number, or (re +- im i); a bare 'e' after the digits is left over
_COEFF = re.compile(rf"({_NUM})|\(\s*([+-]?{_NUM})\s*([+-])\s*({_NUM})\s*i\s*\)")
#: an optional '*', then u[^int] or v int [^posint]
_FACTOR = re.compile(r"\s*(?:\*\s*)?(?:u(?:\s*\^\s*([+-]?)\s*(\d+))?"
                     r"|v\s*([+-]?)\s*(\d+)(?:\s*\^\s*(\d+))?)")


def _error(pos: int, msg: str) -> ValueError:
    return ValueError(f"parse error at position {pos}: {msg}")


def parse(text: str) -> TracePoly:
    """Parse the text grammar above into a TracePoly."""
    acc, pos = None, 0
    while True:
        m = _SIGN.match(text, pos)
        sign, pos = m.group(1), m.end()
        if acc is not None and not sign:
            if pos == len(text):
                return acc
            raise _error(pos, f"unexpected character {text[pos]!r}")
        start, coeff, u_exp, v_factors = pos, 1 + 0j, 0, []
        if m := _COEFF.match(text, pos):
            real, re_part, im_sign, im_part = m.groups()
            coeff = complex(float(real or re_part), float(im_sign + im_part) if im_part else 0.0)
            pos = m.end()
        while m := _FACTOR.match(text, pos):
            u_sign, u_e, j_sign, j, e = m.groups()
            if j is None:
                u_exp += int(u_sign + u_e) if u_e else 1
            elif int(j) == 0:
                raise _error(pos, "v0 is not a variable")
            elif e is not None and int(e) < 1:
                raise _error(pos, "v exponent must be positive")
            else:
                v_factors.append((int(j_sign + j), int(e or 1)))
            pos = m.end()
        if pos == start:
            raise _error(pos, "expected a term")
        term = TracePoly({mono(u_exp, v_factors): coeff})
        if acc is None:
            acc = term * (-1 if sign == "-" else 1)
        else:
            acc = acc + term if sign == "+" else acc - term
