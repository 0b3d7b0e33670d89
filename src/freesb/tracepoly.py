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
``(index, exponent)`` pairs sorted by index.  Coefficients of magnitude
below ``CLEANUP_EPS`` are pruned after every operation; equality is
termwise within relative tolerance ``EQ_EPS`` (on the larger magnitude).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Union

CLEANUP_EPS = 1e-14
EQ_EPS = 1e-12

#: monomial key: (u_exp, ((j, e_j), ...)) with v-factors sorted by index
Mono = tuple[int, tuple[tuple[int, int], ...]]

Scalar = Union[int, float, complex]


def mono(u_exp: int = 0, v: Iterable[tuple[int, int]] = ()) -> Mono:
    """Build a normalized monomial key.

    Merges repeated v-indices, drops v_0 factors (v_0 == 1) and zero
    exponents, and sorts.  Raises on negative exponents.
    """
    acc: dict[int, int] = {}
    for j, e in v:
        if j == 0:
            continue
        acc[j] = acc.get(j, 0) + e
    for j, e in acc.items():
        if e < 0:
            raise ValueError(f"negative exponent {e} for v_{j}")
    ve = tuple(sorted((j, e) for j, e in acc.items() if e != 0))
    return (int(u_exp), ve)


def mono_degree(m: Mono) -> int:
    """Trace degree |u_exp| + sum |j|*e_j of a monomial key."""
    k0, ve = m
    return abs(k0) + sum(abs(j) * e for j, e in ve)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two monomial keys (u-exponents add, v-maps merge)."""
    return mono(a[0] + b[0], a[1] + b[1])


class TracePoly:
    """Immutable sparse trace polynomial.

    Values are treated as immutable after construction: every operation
    returns a new instance, so values can be shared freely (including
    across threads).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        cleaned: dict[Mono, complex] = {}
        if terms:
            for m, c in terms.items():
                c = complex(c)
                if c != c or abs(c.real) == float("inf") or abs(c.imag) == float("inf"):
                    raise ValueError(f"non-finite coefficient {c!r} for monomial {m!r}")
                if abs(c) >= CLEANUP_EPS:
                    cleaned[m] = c
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TracePoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "TracePoly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "TracePoly":
        return cls({mono(): complex(c)})

    @classmethod
    def one(cls) -> "TracePoly":
        return cls.const(1.0)

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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def trace_degree(self) -> int:
        """Max trace degree over monomials; 0 for the zero polynomial.

        The zero polynomial is flagged by ``is_zero`` rather than by a
        sentinel degree.
        """
        if not self.terms:
            return 0
        return max(mono_degree(m) for m in self.terms)

    def iter_terms(self) -> Iterator[tuple[Mono, complex]]:
        """Terms in canonical order: ascending u_exp, then v-factor tuples."""
        for m in sorted(self.terms):
            yield m, self.terms[m]

    def coeff(self, m: Mono) -> complex:
        return self.terms.get(m, 0j)

    def coeff_max(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_laurent(self) -> bool:
        """True when no v-variable occurs (pure Laurent polynomial in u)."""
        return all(not ve for _, ve in self.terms)

    def is_scalar(self) -> bool:
        """True when no u-power occurs (polynomial in the v's only)."""
        return all(k0 == 0 for k0, _ in self.terms)

    # ------------------------------------------------------------------
    # ring structure

    def __add__(self, other: "TracePoly | Scalar") -> "TracePoly":
        if not isinstance(other, TracePoly):
            other = TracePoly.const(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0j) + c
        return TracePoly(acc)

    __radd__ = __add__

    def __neg__(self) -> "TracePoly":
        return TracePoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TracePoly | Scalar") -> "TracePoly":
        if not isinstance(other, TracePoly):
            other = TracePoly.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "TracePoly":
        return TracePoly.const(other) + (-self)

    def __mul__(self, other: "TracePoly | Scalar") -> "TracePoly":
        if not isinstance(other, TracePoly):
            c = complex(other)
            return TracePoly({m: a * c for m, a in self.terms.items()})
        acc: dict[Mono, complex] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                acc[m] = acc.get(m, 0j) + ca * cb
        return TracePoly(acc)

    __rmul__ = __mul__

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
        acc: dict[Mono, complex] = {}
        for (k0, ve), c in self.terms.items():
            m = mono(0, ve + ((k0, 1),)) if k0 != 0 else (0, ve)
            acc[m] = acc.get(m, 0j) + c
        return TracePoly(acc)

    def substitute_v(
        self, assign: Mapping[int, Scalar] | Callable[[int], Scalar]
    ) -> "TracePoly":
        """Substitute numbers for every v_j; returns a Laurent polynomial in u.

        ``assign`` is a map (or callable) from v-index to value and must
        cover every index present; a missing index raises KeyError naming it.
        """
        if callable(assign):
            lookup = assign
        else:
            def lookup(j: int, _m=assign):
                if j not in _m:
                    raise KeyError(f"no substitution value for v_{j}")
                return _m[j]
        acc: dict[Mono, complex] = {}
        for (k0, ve), c in self.terms.items():
            val = c
            for j, e in ve:
                val *= complex(lookup(j)) ** e
            m = (k0, ())
            acc[m] = acc.get(m, 0j) + val
        return TracePoly(acc)

    def invert_u(self) -> "TracePoly":
        """u^k -> u^{-k} on a pure Laurent polynomial (error if any v occurs)."""
        acc: dict[Mono, complex] = {}
        for (k0, ve), c in self.terms.items():
            if ve:
                raise ValueError(
                    "invert_u is only defined on Laurent polynomials in u "
                    f"(found v-factors {ve})"
                )
            acc[(-k0, ())] = c
        return TracePoly(acc)

    # ------------------------------------------------------------------
    # comparison / display

    def allclose(self, other: "TracePoly", rel: float = EQ_EPS) -> bool:
        """Termwise comparison, relative on the larger coefficient magnitude.

        Differences below CLEANUP_EPS (the storage floor) always pass.
        """
        keys = set(self.terms) | set(other.terms)
        for m in keys:
            ca = self.terms.get(m, 0j)
            cb = other.terms.get(m, 0j)
            d = abs(ca - cb)
            if d > max(CLEANUP_EPS, rel * max(abs(ca), abs(cb))):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float, complex)):
            other = TracePoly.const(other)
        if not isinstance(other, TracePoly):
            return NotImplemented
        return self.allclose(other)

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __str__(self) -> str:
        return format(self)

    def __repr__(self) -> str:
        return f"TracePoly({format(self)!r})"


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


def format(p: TracePoly) -> str:  # noqa: A001 - module-level op name
    """Canonical text form; ``parse(format(p))`` reproduces ``p`` exactly."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for (k0, ve), c in p.iter_terms():
        factors: list[str] = []
        if k0 == 1:
            factors.append("u")
        elif k0 != 0:
            factors.append(f"u^{k0}")
        for j, e in ve:
            factors.append(f"v{j}" if e == 1 else f"v{j}^{e}")
        if c.imag == 0.0:
            sign = "-" if c.real < 0 else "+"
            mag = abs(c.real)
            if factors and mag == 1.0:
                body = "*".join(factors)
            else:
                body = "*".join([_num_str(mag)] + factors)
        else:
            sign = "+"
            cs = f"({_num_str(c.real)}{_signed_num_str(c.imag)}i)"
            body = "*".join([cs] + factors)
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


format_poly = format


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, msg: str) -> ValueError:
        return ValueError(f"parse error at position {self.pos}: {msg}")

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def read_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        elif self.peek() == "+":
            self.pos += 1
        return sign * self.read_uint()

    def read_float(self) -> float:
        self.skip_ws()
        start = self.pos
        t = self.text
        n = len(t)
        if self.pos < n and t[self.pos] in "+-":
            self.pos += 1
        digits = False
        while self.pos < n and t[self.pos].isdigit():
            self.pos += 1
            digits = True
        if self.pos < n and t[self.pos] == ".":
            self.pos += 1
            while self.pos < n and t[self.pos].isdigit():
                self.pos += 1
                digits = True
        if not digits:
            self.pos = start
            raise self.error("expected a number")
        if self.pos < n and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and t[self.pos].isdigit():
                while self.pos < n and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # bare 'e' belongs to something else
        return float(t[start:self.pos])


def _parse_coeff(sc: _Scanner) -> complex:
    if sc.peek() == "(":
        sc.pos += 1
        re_part = sc.read_float()
        ch = sc.peek()
        if ch not in "+-":
            raise sc.error("expected '+' or '-' inside complex coefficient")
        im_part = sc.read_float()
        if sc.peek() != "i":
            raise sc.error("expected 'i' in complex coefficient")
        sc.pos += 1
        sc.expect(")")
        return complex(re_part, im_part)
    return complex(sc.read_float())


def _parse_term(sc: _Scanner) -> TracePoly:
    coeff = 1 + 0j
    have_any = False
    ch = sc.peek()
    if ch == "(" or ch.isdigit() or ch == ".":
        coeff = _parse_coeff(sc)
        have_any = True
    u_exp = 0
    v_factors: list[tuple[int, int]] = []
    while True:
        ch = sc.peek()
        if ch == "*":
            sc.pos += 1
            ch = sc.peek()
        if ch == "u":
            sc.pos += 1
            e = 1
            if sc.peek() == "^":
                sc.pos += 1
                e = sc.read_int()
            u_exp += e
            have_any = True
        elif ch == "v":
            sc.pos += 1
            j = sc.read_int()
            if j == 0:
                raise sc.error("v0 is not a variable")
            e = 1
            if sc.peek() == "^":
                sc.pos += 1
                e = sc.read_uint()
                if e < 1:
                    raise sc.error("v exponent must be positive")
            v_factors.append((j, e))
            have_any = True
        else:
            break
    if not have_any:
        raise sc.error("expected a term")
    return TracePoly({mono(u_exp, v_factors): coeff})


def parse(text: str) -> TracePoly:
    """Parse the text grammar above into a TracePoly."""
    sc = _Scanner(text)
    sign = 1
    ch = sc.peek()
    if ch == "+":
        sc.pos += 1
    elif ch == "-":
        sc.pos += 1
        sign = -1
    acc = _parse_term(sc) * sign
    while True:
        ch = sc.peek()
        if ch == "":
            break
        if ch == "+":
            sc.pos += 1
            acc = acc + _parse_term(sc)
        elif ch == "-":
            sc.pos += 1
            acc = acc - _parse_term(sc)
        else:
            raise sc.error(f"unexpected character {ch!r}")
    return acc
