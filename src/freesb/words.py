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

give exact finite-N heat-kernel expectations (``expectation``).  Under
rho_s^N (t = 0) the closure of a word rewritten on U_N stays on powers of
Z: on words in Z and Z^-1 the cuts make no starred letter, and beta_-'s
images, -beta_+'s, have weight t/2 = 0.  Canonical words, B's monomials
and rewrites on U_N are FAMILY_CACHE_SIZE memos.

Compact text form for words: a = Z, A = Z^-1, s = Z^*, S = Z^-*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .operators import check_degree, check_N, check_times, exp_series
from .tracepoly import (SparsePoly, TracePoly, factors_mul, first_partials, linear,
                        merge_factors, second_partials)

FAMILY_CACHE_SIZE = 64  # entries per family cache or word memo; expectation reads each back soon

_INV = {"a": "A", "A": "a", "s": "S", "S": "s"}
_UNITARY = str.maketrans("sS", "Aa")  # on U_N, Z^* = Z^-1 and Z^-* = Z

# ----------------------------------------------------------------------
# words and canonicalization
# ----------------------------------------------------------------------


def _reduce(chars: str) -> str:
    # free reduction within each letter family (a with A, s with S); most words have none
    if not ("aA" in chars or "Aa" in chars or "sS" in chars or "Ss" in chars):
        return chars
    stack: list[str] = []
    for ch in chars:
        if stack and stack[-1] == _INV[ch]:
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


def canonicalize(raw: str) -> str:
    """Canonical form of a word: cyclically reduced, minimal rotation.

    Takes a compact string over {a, A, s, S} (whitespace ignored);
    ValueError for any other letter or a non-string.  Two raw words with
    tr(Z^eps) equal for all Z map to the same canonical word; the empty
    word is the constant 1.
    """
    if not isinstance(raw, str):
        raise ValueError(f"a word is a string over {{a, A, s, S}}, got {type(raw).__name__}")
    return _canonical(raw)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _canonical(raw: str) -> str:
    w = raw.replace(" ", "")
    bad = set(w) - set("aAsS")
    if bad:
        raise ValueError(f"unknown word letters {sorted(bad)!r}")
    w = _reduce(w)
    while len(w) >= 2 and w[0] == _INV[w[-1]]:
        w = _reduce(w[1:-1])
    ww, n = w + w, len(w)
    return min((ww[i:i + n] for i in range(n)), default="")


# ----------------------------------------------------------------------
# word polynomials
# ----------------------------------------------------------------------

WordKey = tuple[tuple[str, int], ...]  # sorted ((canonical word, exponent), ...)


def wmono(pairs: Iterable[tuple[str, int]]) -> WordKey:
    """Normalize a factor list into a monomial key (empty words drop out)."""
    return merge_factors(pairs, "")


def wmono_degree(m: WordKey) -> int:
    return sum(len(w) * e for w, e in m)


class WordPoly(SparsePoly):
    """Sparse polynomial in the word variables v_eps."""

    __slots__ = ()
    _UNIT = ()
    _mono_mul = staticmethod(factors_mul)
    _degree = staticmethod(wmono_degree)
    _factor_text = staticmethod(lambda m: [f"v[{w}]" if e == 1 else f"v[{w}]^{e}" for w, e in m])

    @classmethod
    def var(cls, word, exp: int = 1) -> "WordPoly":
        return cls({wmono([(canonicalize(word), exp)]): 1.0})

    def evaluate_ones(self) -> complex:
        """Value with every v_eps set to 1."""
        return sum(self.terms.values(), 0j)

    def __add__(self, other) -> "WordPoly":
        return self._add(other)

    def __mul__(self, other) -> "WordPoly":
        return self._mul(other)

    __radd__, __rmul__ = __add__, __mul__


# ----------------------------------------------------------------------
# the inclusions iota, iota* and the sesquilinear form B
# ----------------------------------------------------------------------


def _eps_word(j: int, k: int) -> str:
    # eps(j,k): |j| plain letters with the sign of j, |k| star letters with the sign of k;
    # the two families never reduce, so the least rotation starts with the smaller letter
    zpart = ("a" if j > 0 else "A") * abs(j)
    spart = ("s" if k > 0 else "S") * abs(k)
    return min(zpart + spart, spart + zpart)


def _require_u_free(q: TracePoly, who: str) -> None:
    if not q.is_scalar():
        raise ValueError(f"{who} requires an element of C[v] (no powers of u)")


def iota(q: TracePoly) -> WordPoly:
    """The linear inclusion C[v] -> W, v_k -> v_{eps(k,0)}; iota(q) = B(q, 1)."""
    _require_u_free(q, "iota")
    return sesq_B(q, TracePoly.one())


def iota_star(q: TracePoly) -> WordPoly:
    """The conjugate-linear inclusion, v_k -> v_{eps(0,k)}; iota*(q) = B(1, q)."""
    _require_u_free(q, "iota_star")
    return sesq_B(TracePoly.one(), q)


def sesq_B(p: TracePoly, q: TracePoly) -> WordPoly:
    """The sesquilinear form with [B(P,Q)]_N(Z) = tr(P_N(Z) Q_N(Z)^*).

    On monomials B(u^k p, u^l q) = v_{eps(k,l)} iota(p) iota*(q);
    conjugate-linear in the second argument.  ValueError, before any word is
    built, for trace degrees of p and q that add up to more than 2 * MAX_DEGREE.
    """
    check_degree(p.trace_degree() + q.trace_degree())
    acc: dict[WordKey, complex] = {}
    for (k, pve), cp in p.terms.items():
        for (l, qve), cq in q.terms.items():
            m = _sesq_mono(k, pve, l, qve)
            acc[m] = acc.get(m, 0j) + cp * cq.conjugate()
    return WordPoly(acc)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _sesq_mono(k: int, pve, l: int, qve) -> WordKey:
    # B(u^k p, u^l q) for the monomials p, q of v-factors pve, qve
    return wmono([(_eps_word(k, l), 1), *((_eps_word(j, 0), e) for j, e in pve),
                  *((_eps_word(0, j), e) for j, e in qve)])


# ----------------------------------------------------------------------
# generator polynomials Q_eps^{s,t}, R_{eps,delta}^{s,t}
# ----------------------------------------------------------------------
#
# Differentiating tr(Z^eps) along Z -> Z e^{h xi} cuts the cyclic word
# next to one letter, with the first derivative's sign: (Z xi) = Z xi puts
# xi after a, (Z xi)^-1 = -xi Z^-1 before A, (Z xi)^* = xi^* Z^* before s,
# (Z xi)^-* = -Z^-* xi^* after S; the second derivative doubles the letter
# with + sign.  With xi^* = sigma xi (sigma = -1 on the anti-Hermitian
# family beta_+, +1 on beta_- = i beta_+) a starred cut carries sigma, and
# so do both magic formulas, as sum_xi xi A xi^* is the same for both:
#   sum_xi tr(A xi B xi) = sigma tr A tr B,  sum_xi tr(A xi) tr(B xi) = sigma tr(AB) / N^2.
# So Q_eps is len(eps) sigma v_eps (the doubled letters) plus, per pair of
# cuts p <= q (letters j < k), 2 s_p s_q sigma v[eps[p:q]] v[eps[q:] + eps[:p]];
# R_{eps,delta} (1/N^2 extracted) is, per cut p of eps and q of delta,
# s_p s_q sigma v[eps[p:] + eps[:p] + delta[q:] + delta[:q]].  A finite-
# difference oracle over explicit bases gates this, family by family.

# letter -> (xi goes after it, sign of the first derivative, xi enters starred)
_CUT = {"a": (1, 1.0, False), "A": (0, -1.0, False), "s": (0, 1.0, True), "S": (1, -1.0, True)}


def _cuts(word: str, sigma: float) -> list[tuple[int, float]]:
    """One cut per letter of ``word``: the position of xi and its sign."""
    return [(j + after, sign * sigma if star else sign)
            for j, (after, sign, star) in enumerate(map(_CUT.__getitem__, word))]


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _q_family(eps: str, fam: int) -> WordPoly:
    sigma = -float(fam)
    cuts = _cuts(eps, sigma)
    acc: dict[WordKey, complex] = {wmono([(eps, 1)]): 0j + len(eps) * sigma}
    for i, (p, sp) in enumerate(cuts):
        for q, sq in cuts[i + 1:]:
            m = wmono([(canonicalize(eps[p:q]), 1), (canonicalize(eps[q:] + eps[:p]), 1)])
            acc[m] = acc.get(m, 0j) + 2.0 * sp * sq * sigma
    return WordPoly(acc)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _r_family(eps: str, delta: str, fam: int) -> WordPoly:
    sigma = -float(fam)
    acc: dict[WordKey, complex] = {}
    for p, sp in _cuts(eps, sigma):
        for q, sq in _cuts(delta, sigma):
            m = wmono([(canonicalize(eps[p:] + eps[:p] + delta[q:] + delta[:q]), 1)])
            acc[m] = acc.get(m, 0j) + sp * sq * sigma
    return WordPoly(acc)


def derive_generators(eps, delta, s: float, t: float) -> WordPoly:
    """Q_eps^{s,t} (delta None) or R_{eps,delta}^{s,t}.

    Q satisfies A_{s,t} V_eps = Q_eps(V) for every N; R carries the
    cross term with its 1/N^2 prefactor extracted.  Both are homogeneous
    of trace degree |eps| (resp. |eps| + |delta|), which ``check_degree``
    bounds; the beta_+ family is weighted by (s - t/2), the beta_- by t/2.
    """
    words = [canonicalize(w) for w in (eps, delta) if w is not None]
    check_degree(sum(map(len, words)))
    family = _q_family if delta is None else _r_family
    return (s - t / 2.0) * family(*words, +1) + (t / 2.0) * family(*words, -1)


# ----------------------------------------------------------------------
# the operators Dt, Lt and finite-N expectations
# ----------------------------------------------------------------------


def _leibniz(m: WordKey, first, second) -> list:
    """The column at m of X + Y, with X a derivation and Y purely second
    order, as (monomial, part, weight) triples.  ``first(a)`` gives X(v_a)
    and ``second(a, b)``, a <= b, gives Y(v_a v_b), both as such triples.
    For m = rest * prod_a v_a^{e_a},

        (X + Y) m = sum_a e_a rest_a X(v_a) + sum_{a<b} e_a e_b rest_ab Y(v_a v_b)
                    + sum_a C(e_a, 2) rest_aa Y(v_a^2),

    where rest_a (rest_ab, rest_aa) is m with one v_a (one v_a and one
    v_b, two v_a) removed.
    """
    return ([(factors_mul(q, rest), k, e * c)
             for a, e, rest in first_partials(m) for q, k, c in first(a)]
            + [(factors_mul(q, rest), k, f * c)
               for a, b, f, rest in second_partials(m) for q, k, c in second(a, b)])


def apply_tilde(gen: str, p: WordPoly, s: float, t: float) -> WordPoly:
    """Apply Dt_{s,t} (gen="Dst") or Lt_{s,t} (gen="Lst") to p.

    Dt(v_a) = Q_a / 2, and Lt(v_a v_b) = (R_{a,b} + R_{b,a}) / 2 = R_{a,b}
    since R is symmetric in its two words.
    """
    if gen not in ("Dst", "Lst"):
        raise ValueError(f"unknown generator {gen!r} (want 'Dst' or 'Lst')")

    def first(a):
        return [] if gen == "Lst" else [
            (qm, 0, 0.5 * qc) for qm, qc in derive_generators(a, None, s, t).terms.items()]

    def second(a, b):
        return [] if gen == "Dst" else [
            (qm, 0, qc) for qm, qc in derive_generators(a, b, s, t).terms.items()]

    return linear(lambda m: [(mi, w) for mi, _, w in _leibniz(m, first, second)], p)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _unitary(m: WordKey) -> WordKey:
    return wmono((canonicalize(w.translate(_UNITARY)), e) for w, e in m)


def expectation(p: WordPoly, s: float, t: float, N: int) -> complex:
    """E[P_N(Z)] under mu_{s,t}^N (t = 0: the heat kernel rho_s^N on U_N).

    ValueError, before any work, for an (N, s, t) that ``Measure(N, s, t)``
    refuses, then for a ``p`` that ``check_degree`` refuses.  Computed
    exactly (up to Taylor tolerance) as e^{Dt + Lt/N^2} P with every v_eps
    then set to 1.  Under rho, P is first rewritten on U_N
    (Z^* -> Z^-1, Z^-* -> Z, equal words merged).  The generator is
    (s - t/2) (Dt + Lt/N^2) at beta_+ alone plus (t/2) (Dt + Lt/N^2) at
    beta_- alone: four parts that ``exp_series`` caches for every s, t and
    N; under rho, t/2 = 0 drops the beta_- parts from the sum.  A part's
    column is the Leibniz form (``_leibniz``) over Dt(v_a) and Lt(v_a v_b),
    one ``apply_tilde`` call per family at (s, t) = (1, 0) and (1, 2), made
    only for a column that neither cache of ``exp_series`` holds; words with
    no starred letter take beta_-'s image as beta_+'s negated, with no call.
    """
    rho = Measure(N, s, t).kind == "rho"
    check_degree(p.trace_degree())
    if rho and any(c in w for m in p.terms for w, _ in m for c in "sS"):
        # Z is unitary: every word becomes a power of Z
        p = linear(lambda m: [(_unitary(m), 1.0)], p)
    images: dict = {}  # the triples of Dt(v_a) by (a,), of Lt(v_a v_b) by (a, b)

    def image(*words):
        if words not in images:
            gen, k = ("Dst", 0) if len(words) == 1 else ("Lst", 1)
            unit = WordPoly({wmono((a, 1) for a in words): 1.0})
            # (s, t) of the beta_+ family alone and of the beta_- family alone;
            # on words with no starred letter, beta_-'s image is beta_+'s
            # negated (0.0 - c has apply_tilde's signed zeros, -c not)
            plus = list(apply_tilde(gen, unit, 1.0, 0.0).terms.items())
            minus = (apply_tilde(gen, unit, 1.0, 2.0).terms.items()
                     if any(c in w for w in words for c in "sS") else [(q, 0.0 - c) for q, c in plus])
            images[words] = [(q, k, c) for q, c in plus] + [(q, 2 + k, c) for q, c in minus]
        return images[words]

    a, b = s - t / 2.0, t / 2.0
    terms = (("Dst+", a), ("Lst+", a / (N * N)), ("Dst-", b), ("Lst-", b / (N * N)))
    return exp_series(lambda m: _leibniz(m, image, image), p, 1.0, terms).evaluate_ones()


@dataclass(frozen=True)
class Measure:
    """A heat-kernel measure: rho_s^N on U_N (t = 0) or mu_{s,t}^N on GL_N.

    ValueError unless N is an integer >= 1 (``operators.check_N``, as for
    D_N), the times are finite, s >= 0 for rho and s > t/2 > 0 for mu.
    This is the one statement of that rule: every expectation, norm and
    sampler checks its input through it.
    """

    N: int
    s: float
    t: float = 0.0

    def __post_init__(self):
        check_N(self.N)
        check_times(s=self.s, t=self.t)
        if self.t != 0 and not 0 < self.t < 2.0 * self.s:  # t / 2 underflows at 5e-324
            raise ValueError(f"mu requires s > t/2 > 0, got s={self.s}, t={self.t}")
        if self.t == 0 and self.s < 0:
            raise ValueError(f"rho requires s >= 0, got s={self.s}")

    @property
    def kind(self) -> str:
        return "mu" if self.t else "rho"

    @classmethod
    def rho(cls, s: float, N: int) -> "Measure":
        return cls(N, s)

    @classmethod
    def mu(cls, s: float, t: float, N: int) -> "Measure":
        return cls(N, s, t)


def l2_norm_sq(p: TracePoly, measure: Measure) -> float:
    """The squared L^2 norm of P_N under the given measure.

    expectation(B(p,p)); the result is real up to roundoff, and tiny
    negative values (>= -1e-10) are clipped to 0.
    """
    val = expectation(sesq_B(p, p), measure.s, measure.t, measure.N)
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"norm came out non-real: {val}")
    out = val.real
    if out < 0:
        if out < -1e-10:
            raise ArithmeticError(f"norm came out negative: {out}")
        out = 0.0
    return out
