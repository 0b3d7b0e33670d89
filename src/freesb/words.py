"""Word polynomials: mixed Z, Z^* trace polynomials on GL_N.

Words over the alphabet {Z, Z^-1, Z^*, Z^-*} index variables v_eps whose
value at Z in GL_N is the normalized trace tr(Z^eps).  This module
canonicalizes words (cyclic rotation plus free reduction within each
letter family), embeds C[v] via iota / iota^*, builds the sesquilinear
form B with [B(P,Q)]_N(Z) = tr(P_N(Z) Q_N(Z)^*), and derives the
generator polynomials Q_eps^{s,t} and R_{eps,delta}^{s,t} by symbolic
differentiation and contraction with the magic formulas.  The resulting
operators

    Dt_{s,t} = (1/2) sum_eps Q_eps d/dv_eps
    Lt_{s,t} = (1/2) sum_{eps,delta} R_{eps,delta} d^2/dv_eps dv_delta

give exact finite-N heat-kernel expectations: E[P_N] under mu_{s,t}^N is
(e^{Dt + Lt/N^2} P) evaluated at all v_eps = 1 (t = 0 recovers rho_s^N).

Compact text form for words: a = Z, A = Z^-1, s = Z^*, S = Z^-*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .operators import MAX_DEGREE, exp_series
from .tracepoly import CLEANUP_EPS, EQ_EPS, TracePoly

MAX_WORD_LEN = 2 * MAX_DEGREE

_INV = {"a": "A", "A": "a", "s": "S", "S": "s"}
_NAME_TO_CHAR = {
    "Z": "a", "Zinv": "A", "Zstar": "s", "Zstarinv": "S",
    "a": "a", "A": "A", "s": "s", "S": "S",
}

# ----------------------------------------------------------------------
# words and canonicalization
# ----------------------------------------------------------------------


def _to_chars(raw) -> str:
    if isinstance(raw, str):
        toks = raw.replace(" ", "")
        bad = set(toks) - set("aAsS")
        if bad:
            raise ValueError(f"unknown word letters {sorted(bad)!r}")
        return toks
    out = []
    for tok in raw:
        try:
            out.append(_NAME_TO_CHAR[tok])
        except KeyError:
            raise ValueError(f"unknown word letter {tok!r}") from None
    return "".join(out)


def _reduce(chars: str) -> str:
    # free reduction within each letter family (Z with Zinv, Zstar with
    # Zstarinv; Z and Zstar never cancel each other)
    stack: list[str] = []
    for ch in chars:
        if stack and stack[-1] == _INV[ch]:
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


def canonicalize(raw) -> str:
    """Canonical form of a word: cyclically reduced, minimal rotation.

    Accepts a compact string over {a, A, s, S} (whitespace ignored) or an
    iterable of letter names {Z, Zinv, Zstar, Zstarinv}.  Two raw words
    with tr(Z^eps) equal for all Z map to the same canonical word; the
    empty word is the constant 1.
    """
    w = _reduce(_to_chars(raw))
    while len(w) >= 2 and w[0] == _INV[w[-1]]:
        w = _reduce(w[1:-1])
    if not w:
        return ""
    return min(w[i:] + w[:i] for i in range(len(w)))


# ----------------------------------------------------------------------
# word polynomials
# ----------------------------------------------------------------------

WordKey = tuple[tuple[str, int], ...]  # sorted ((canonical word, exponent), ...)


def wmono(pairs: Iterable[tuple[str, int]]) -> WordKey:
    """Normalize a factor list into a monomial key (empty words drop out)."""
    acc: dict[str, int] = {}
    for w, e in pairs:
        if e < 0:
            raise ValueError(f"negative exponent {e} for word {w!r}")
        if e and w:
            acc[w] = acc.get(w, 0) + e
    return tuple(sorted((w, e) for w, e in acc.items() if e))


def _wmono_mul(a: WordKey, b: WordKey) -> WordKey:
    return wmono(tuple(a) + tuple(b))


def wmono_degree(m: WordKey) -> int:
    return sum(len(w) * e for w, e in m)


class WordPoly:
    """Sparse polynomial in the word variables v_eps."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[WordKey, complex] | None = None):
        clean: dict[WordKey, complex] = {}
        if terms:
            for m, c in terms.items():
                c = complex(c)
                if abs(c.real) + abs(c.imag) > CLEANUP_EPS:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WordPoly is immutable")

    @classmethod
    def zero(cls) -> "WordPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "WordPoly":
        return cls({(): complex(c)})

    @classmethod
    def one(cls) -> "WordPoly":
        return cls.const(1.0)

    @classmethod
    def var(cls, word, exp: int = 1) -> "WordPoly":
        return cls({wmono([(canonicalize(word), exp)]): 1.0})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def trace_degree(self) -> int:
        return max((wmono_degree(m) for m in self.terms), default=0)

    def coeff(self, m: WordKey) -> complex:
        return self.terms.get(m, 0j)

    def coeff_max(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def evaluate_ones(self) -> complex:
        """Value with every v_eps set to 1."""
        return sum(self.terms.values(), 0j)

    def __add__(self, other) -> "WordPoly":
        if not isinstance(other, WordPoly):
            other = WordPoly.const(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0j) + c
        return WordPoly(acc)

    __radd__ = __add__

    def __neg__(self) -> "WordPoly":
        return WordPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "WordPoly":
        if not isinstance(other, WordPoly):
            other = WordPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "WordPoly":
        return WordPoly.const(other) + (-self)

    def __mul__(self, other) -> "WordPoly":
        if not isinstance(other, WordPoly):
            c = complex(other)
            return WordPoly({m: a * c for m, a in self.terms.items()})
        acc: dict[WordKey, complex] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _wmono_mul(ma, mb)
                acc[m] = acc.get(m, 0j) + ca * cb
        return WordPoly(acc)

    __rmul__ = __mul__

    def allclose(self, other: "WordPoly", rel: float = EQ_EPS) -> bool:
        keys = set(self.terms) | set(other.terms)
        for m in keys:
            ca, cb = self.terms.get(m, 0j), other.terms.get(m, 0j)
            if abs(ca - cb) > max(CLEANUP_EPS, rel * max(abs(ca), abs(cb))):
                return False
        return True

    def __repr__(self) -> str:
        if not self.terms:
            return "WordPoly(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono_s = "*".join(f"v[{w}]" + (f"^{e}" if e > 1 else "")
                              for w, e in m) or "1"
            bits.append(f"({c:.6g})*{mono_s}")
        return "WordPoly(" + " + ".join(bits) + ")"


# ----------------------------------------------------------------------
# the inclusions iota, iota* and the sesquilinear form B
# ----------------------------------------------------------------------


def _eps_word(j: int, k: int) -> str:
    # the word eps(j,k): |j| plain letters with the sign of j, then |k|
    # star letters with the sign of k
    zpart = ("a" if j > 0 else "A") * abs(j)
    spart = ("s" if k > 0 else "S") * abs(k)
    return canonicalize(zpart + spart)


def _require_u_free(q: TracePoly, who: str) -> None:
    for m in q.terms:
        if m[0] != 0:
            raise ValueError(f"{who} requires an element of C[v] (no powers of u)")


def iota(q: TracePoly) -> WordPoly:
    """The linear inclusion C[v] -> W, v_k -> v_{eps(k,0)}."""
    _require_u_free(q, "iota")
    acc: dict[WordKey, complex] = {}
    for (_, ve), c in q.terms.items():
        m = wmono([(_eps_word(j, 0), e) for j, e in ve])
        acc[m] = acc.get(m, 0j) + c
    return WordPoly(acc)


def iota_star(q: TracePoly) -> WordPoly:
    """The conjugate-linear inclusion, v_k -> v_{eps(0,k)}."""
    _require_u_free(q, "iota_star")
    acc: dict[WordKey, complex] = {}
    for (_, ve), c in q.terms.items():
        m = wmono([(_eps_word(0, j), e) for j, e in ve])
        acc[m] = acc.get(m, 0j) + c.conjugate()
    return WordPoly(acc)


def sesq_B(p: TracePoly, q: TracePoly) -> WordPoly:
    """The sesquilinear form with [B(P,Q)]_N(Z) = tr(P_N(Z) Q_N(Z)^*).

    On monomials B(u^k p, u^l q) = v_{eps(k,l)} iota(p) iota*(q);
    conjugate-linear in the second argument.
    """
    acc: dict[WordKey, complex] = {}
    for (k, pve), cp in p.terms.items():
        mp = wmono([(_eps_word(j, 0), e) for j, e in pve])
        for (l, qve), cq in q.terms.items():
            mq = wmono([(_eps_word(0, j), e) for j, e in qve])
            m = _wmono_mul(wmono([(_eps_word(k, l), 1)]), _wmono_mul(mp, mq))
            acc[m] = acc.get(m, 0j) + cp * cq.conjugate()
    return WordPoly(acc)


# ----------------------------------------------------------------------
# generator polynomials Q_eps^{s,t}, R_{eps,delta}^{s,t}
# ----------------------------------------------------------------------
#
# Differentiation inserts xi (x) or xi^* (y) next to a letter, following
# (Z xi)^1 = Z xi, (Z xi)^-1 = -xi Z^-1, (Z xi)^* = xi^* Z^*,
# (Z xi)^-* = -Z^-* xi^*; the second derivative inserts a doubled letter
# with + sign in all four cases.  For the basis family beta_+ (anti-
# Hermitian), xi^* = -xi; for beta_- = i beta_+, xi^* = +xi, so each y
# contributes a family sign sigma.  Contractions over a basis family:
#   same trace:  sum_xi tr(A xi B xi)   = fam2 * tr(A) tr(B)
#   cross trace: sum_xi tr(A xi) tr(B xi) = fam2 * (1/N^2) tr(A B)
# with fam2 = -1 for beta_+ and +1 for beta_- (and the 1/N^2 extracted
# from R).  The loose +/- bookkeeping in the source derivation makes this
# sign algebra authoritative here; it is gated by a finite-difference
# oracle over explicit bases before anything downstream relies on it.

_FIRST = {"a": ("ax", 1), "A": ("xA", -1), "s": ("ys", 1), "S": ("Sy", -1)}
_SECOND = {"a": "axx", "A": "xxA", "s": "yys", "S": "Syy"}

_FAMILY = {+1: (-1.0, -1.0), -1: (+1.0, +1.0)}  # fam -> (sigma, fam2)


def _resolve_stars(tokens: str, sigma: float) -> tuple[str, float]:
    # replace each xi^* (y) by sigma * xi (x)
    n_y = tokens.count("y")
    return tokens.replace("y", "x"), sigma ** n_y


def _contract_same(tokens: str) -> tuple[str, str]:
    # tokens holds exactly two x's in one trace; split the cyclic string
    # into the two letter segments between them
    p1 = tokens.index("x")
    p2 = tokens.index("x", p1 + 1)
    return tokens[p1 + 1:p2], tokens[p2 + 1:] + tokens[:p1]


def _contract_cross(tokens: str) -> str:
    # one x in this trace; rotate it to the end and drop it
    p = tokens.index("x")
    return tokens[p + 1:] + tokens[:p]


@lru_cache(maxsize=None)
def _q_family(eps: str, fam: int) -> WordPoly:
    sigma, fam2 = _FAMILY[fam]
    n = len(eps)
    acc: dict[WordKey, complex] = {}

    def add(m: WordKey, c: float) -> None:
        acc[m] = acc.get(m, 0j) + c

    # doubled-letter terms: each contributes fam2 * v_eps
    for j in range(n):
        tokens = eps[:j] + _SECOND[eps[j]] + eps[j + 1:]
        tokens, star_sign = _resolve_stars(tokens, sigma)
        s1, s2 = _contract_same(tokens)
        m = wmono([(canonicalize(s1), 1), (canonicalize(s2), 1)])
        add(m, fam2 * star_sign)
    # pair terms, weight 2 each
    for j in range(n):
        tj, sj = _FIRST[eps[j]]
        for k in range(j + 1, n):
            tk, sk = _FIRST[eps[k]]
            tokens = (eps[:j] + tj + eps[j + 1:k] + tk + eps[k + 1:])
            tokens, star_sign = _resolve_stars(tokens, sigma)
            s1, s2 = _contract_same(tokens)
            m = wmono([(canonicalize(s1), 1), (canonicalize(s2), 1)])
            add(m, 2.0 * sj * sk * star_sign * fam2)
    return WordPoly(acc)


@lru_cache(maxsize=None)
def _r_family(eps: str, delta: str, fam: int) -> WordPoly:
    sigma, fam2 = _FAMILY[fam]
    acc: dict[WordKey, complex] = {}
    for j in range(len(eps)):
        tj, sj = _FIRST[eps[j]]
        t1 = eps[:j] + tj + eps[j + 1:]
        for k in range(len(delta)):
            tk, sk = _FIRST[delta[k]]
            t2 = delta[:k] + tk + delta[k + 1:]
            tokens1, sign1 = _resolve_stars(t1, sigma)
            tokens2, sign2 = _resolve_stars(t2, sigma)
            a = _contract_cross(tokens1)
            b = _contract_cross(tokens2)
            m = wmono([(canonicalize(a + b), 1)])
            c = sj * sk * sign1 * sign2 * fam2
            acc[m] = acc.get(m, 0j) + c
    return WordPoly(acc)


def derive_generators(eps, delta=None, s: float = 0.0, t: float = 0.0) -> WordPoly:
    """Q_eps^{s,t} (delta None) or R_{eps,delta}^{s,t}.

    Q satisfies A_{s,t} V_eps = Q_eps(V) for every N; R carries the
    cross term with its 1/N^2 prefactor extracted.  Both are homogeneous
    of trace degree |eps| (resp. |eps| + |delta|).  The beta_+ family is
    weighted by (s - t/2) and the beta_- family by t/2.
    """
    e = canonicalize(eps)
    if len(e) > MAX_WORD_LEN:
        raise ValueError(f"word length {len(e)} exceeds {MAX_WORD_LEN}")
    wp, wm = s - t / 2.0, t / 2.0
    if delta is None:
        return wp * _q_family(e, +1) + wm * _q_family(e, -1)
    d = canonicalize(delta)
    if len(d) > MAX_WORD_LEN:
        raise ValueError(f"word length {len(d)} exceeds {MAX_WORD_LEN}")
    return wp * _r_family(e, d, +1) + wm * _r_family(e, d, -1)


# ----------------------------------------------------------------------
# the operators Dt, Lt and finite-N expectations
# ----------------------------------------------------------------------


def apply_tilde(gen: str, p: WordPoly, s: float, t: float) -> WordPoly:
    """Apply Dt_{s,t} (gen="Dst") or Lt_{s,t} (gen="Lst") to p."""
    if gen == "Dst":
        acc = WordPoly.zero()
        for m, c in p.terms.items():
            for i, (w, e) in enumerate(m):
                rest = m[:i] + ((w, e - 1),) + m[i + 1:]
                q = derive_generators(w, None, s, t)
                acc = acc + (0.5 * c * e) * (q * WordPoly({wmono(rest): 1.0}))
        return acc
    if gen == "Lst":
        acc = WordPoly.zero()
        for m, c in p.terms.items():
            for i1, (w1, e1) in enumerate(m):
                for i2, (w2, e2) in enumerate(m):
                    if i1 == i2:
                        factor = e1 * (e1 - 1)
                        if not factor:
                            continue
                        rest = list(m)
                        rest[i1] = (w1, e1 - 2)
                    else:
                        factor = e1 * e2
                        rest = list(m)
                        rest[i1] = (w1, e1 - 1)
                        rest[i2] = (w2, e2 - 1)
                    r = derive_generators(w1, w2, s, t)
                    acc = acc + (0.5 * c * factor) * (
                        r * WordPoly({wmono(rest): 1.0}))
        return acc
    raise ValueError(f"unknown generator {gen!r} (want 'Dst' or 'Lst')")


def expectation(p: WordPoly, s: float, t: float, N: int,
                tol: float = 1e-13) -> complex:
    """E[P_N(Z)] under mu_{s,t}^N (t = 0: the heat kernel rho_s^N on U_N).

    Computed exactly (up to Taylor tolerance) as e^{Dt + Lt/N^2} P with
    every v_eps then set to 1.
    """
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    inv_n2 = 1.0 / (N * N)

    def gen(q: WordPoly) -> WordPoly:
        return apply_tilde("Dst", q, s, t) + inv_n2 * apply_tilde("Lst", q, s, t)

    return exp_series(gen, p, tol=tol).evaluate_ones()


@dataclass(frozen=True)
class Measure:
    """A heat-kernel measure: rho_s^N on U_N or mu_{s,t}^N on GL_N."""

    kind: str
    s: float
    t: float
    N: int

    @classmethod
    def rho(cls, s: float, N: int) -> "Measure":
        return cls("rho", s, 0.0, N)

    @classmethod
    def mu(cls, s: float, t: float, N: int) -> "Measure":
        return cls("mu", s, t, N)


def l2_norm_sq(p: TracePoly, measure: Measure, tol: float = 1e-13) -> float:
    """The squared L^2 norm of P_N under the given measure.

    expectation(B(p,p)); the result is real up to roundoff, and tiny
    negative values (>= -1e-10) are clipped to 0.
    """
    val = expectation(sesq_B(p, p), measure.s, measure.t, measure.N, tol=tol)
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"norm came out non-real: {val}")
    out = val.real
    if out < 0:
        if out < -1e-10:
            raise ArithmeticError(f"norm came out negative: {out}")
        out = 0.0
    return out
