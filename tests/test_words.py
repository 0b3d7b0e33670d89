"""Word-polynomial engine: canonicalization, the sesquilinear form B, the
derived generators Q/R with their finite-difference oracle, and exact
finite-N expectations.

The FD oracle is the gate for the sign algebra in the generator
derivation: every canonical word of length <= 3 is checked against
second directional derivatives summed over an explicit orthonormal
basis of u(3) at random well-conditioned points of GL_3.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import freesb.cli as cli
import freesb.operators as operators
import freesb.words as words
from freesb.tracepoly import TracePoly, parse
from freesb.operators import MAX_DEGREE, GeneratorSpec, exp_apply, exp_series
from freesb.moments import nu, pi_eval
from freesb.words import (Measure, WordPoly, apply_tilde,
                          canonicalize, derive_generators, expectation, iota,
                          iota_star, l2_norm_sq, sesq_B, wmono)
from freesb.matrixlab import basis_uN, evaluate, evaluate_word, expm

u = TracePoly.u
v = TracePoly.v


def _canonical_words(max_len):
    seen = set()
    for n in range(1, max_len + 1):
        for tup in itertools.product("aAsS", repeat=n):
            w = canonicalize("".join(tup))
            if w:
                seen.add(w)
    return sorted(seen, key=lambda w: (len(w), w))


# ---------------------------------------------------------------- words


def test_canonicalize_family_cancellation():
    assert canonicalize("aA") == ""
    assert canonicalize("Ss") == ""
    assert canonicalize("aAs") == canonicalize("s")
    # wrap-around reduction
    assert canonicalize("asA") == canonicalize("s")
    # Z and Z* never cancel
    assert len(canonicalize("aS")) == 2
    assert len(canonicalize("as")) == 2


def test_canonicalize_rotation_invariance():
    for w in ("aas", "aassS", "AsaS"):
        base = canonicalize(w)
        for r in range(1, len(w)):
            assert canonicalize(w[r:] + w[:r]) == base


def test_canonicalize_takes_linear_memory():
    # the minimal rotation of a 40,000-letter word is found without holding
    # all its rotations at once (they would take 1.5 GiB)
    word = "sa" * 19_999 + "a"
    tracemalloc.start()
    try:
        got = canonicalize(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == "aa" + "sa" * 19_998 + "s"
    assert peak < 8 * 2**20, peak


def test_canonicalize_accepts_text_format():
    # the one word syntax: a string over {a=Z, A=Z^-1, s=Z^*, S=Z^-*},
    # spaces ignored
    assert canonicalize("aas S") == canonicalize("aasS")
    with pytest.raises(ValueError):
        canonicalize("axb")
    with pytest.raises(ValueError, match="got list"):
        canonicalize(["a", "a", "s"])


def test_word_memos_are_bounded_and_keep_errors():
    # the canonical form and the rho rewrite of a monomial are memos of the
    # family caches' size; errors are raised on every call, and the type
    # check stands before the memo, which would raise TypeError on a list
    for memo in (words._canonical, words._unitary):
        assert memo.cache_info().maxsize == words.FAMILY_CACHE_SIZE
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown word letters"):
            canonicalize("aQsQ")
    with pytest.raises(ValueError, match="got list"):
        canonicalize(["a"])


def test_eps_word_is_canonical_by_construction():
    # Z^j Z^*k is built canonical, without canonicalize
    for j, k in itertools.product(range(-12, 13), repeat=2):
        raw = ("a" if j > 0 else "A") * abs(j) + ("s" if k > 0 else "S") * abs(k)
        assert words._eps_word(j, k) == canonicalize(raw), (j, k)


@given(st.text(alphabet="aAsS", min_size=0, max_size=10))
@settings(max_examples=80, deadline=None)
def test_canonicalize_idempotent(w):
    c = canonicalize(w)
    assert canonicalize(c) == c


def test_canonical_word_census():
    assert len(_canonical_words(3)) == 24


def test_wordpoly_arithmetic():
    p = WordPoly.var("a") + 2.0 * WordPoly.var("as")
    q = p - WordPoly.var("a")
    assert q.coeff(wmono([("as", 1)])) == 2.0
    assert (p * WordPoly.one()).allclose(p)
    assert WordPoly.zero().is_zero
    assert p.trace_degree() == 2
    assert WordPoly.const(3.0).evaluate_ones() == 3.0


def test_wordpoly_text_carries_exact_coefficients():
    # the text of format_poly, with factors v[w]^e: every coefficient
    # prints in full (repr), where %.6g would give 0.333333 and 1.23457e+07
    p = (WordPoly.var("aas") * (1 / 3) - WordPoly.var("sA", 2) + (0.1 + 2j)
         - WordPoly.var("a") * WordPoly.var("s") + 12345678.9 * WordPoly.var("S"))
    text = ("(0.1+2i) - v[As]^2 + 12345678.9*v[S] - v[a]*v[s]"
            " + 0.3333333333333333*v[aas]")
    assert str(p) == text and repr(p) == f"WordPoly({text!r})"
    assert repr(WordPoly.zero()) == "WordPoly('0')" and str(WordPoly.one()) == "1"


# ---------------------------------------------------------------- iota and B


def test_iota_examples():
    assert iota(v(2)).allclose(WordPoly.var("aa"))
    assert iota(v(-1)).allclose(WordPoly.var("A"))
    assert iota_star(v(2)).allclose(WordPoly.var("ss"))
    q = iota_star(TracePoly({(0, ((1, 1),)): 1 + 2j}))
    assert q.coeff(wmono([("s", 1)])) == 1 - 2j  # conjugate-linear
    with pytest.raises(ValueError):
        iota(u(1))


def test_B_on_u_powers():
    # B(u, u) = v_{tr(Z Z*)}
    assert sesq_B(u(1), u(1)).allclose(WordPoly.var(canonicalize("as")))
    assert sesq_B(u(1), TracePoly.one()).allclose(WordPoly.var("a"))
    # sesquilinear: conjugate-linear in the second slot
    p, q = u(1) + v(1), u(2)
    assert sesq_B(p, 2j * q).allclose(-2j * sesq_B(p, q))
    assert sesq_B(2j * p, q).allclose(2j * sesq_B(p, q))


def test_B_matches_matrix_inner_product():
    rng = np.random.default_rng(17)
    for _ in range(5):
        Z = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        Z = Z @ np.diag(np.exp(rng.uniform(-0.2, 0.2, 3)))
        P = parse("u^2 v1 + 2 u^-1") * complex(rng.normal(), rng.normal())
        Q = parse("u v-1 - v2") * complex(rng.normal(), rng.normal())
        lhs = evaluate_word(sesq_B(P, Q), Z)
        PN, QN = evaluate(P, Z), evaluate(Q, Z)
        rhs = np.trace(PN @ QN.conj().T) / 3
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------- generators


def test_Q_table_examples():
    s, t = 1.5, 0.8
    qa = derive_generators("a", None, s, t)
    assert qa.allclose(-(s - t) * WordPoly.var("a"))
    # tr(Z Z*): the (+) family vanishes, the (-) family contributes 4 v_{as}
    qas = derive_generators("as", None, s, t)
    assert qas.allclose(2.0 * t * WordPoly.var("as"))


def test_generator_degree_bounds():
    for w in _canonical_words(3):
        q = derive_generators(w, None, 1.0, 0.6)
        if not q.is_zero:
            assert q.trace_degree() <= len(w), w
    # degree is attained for the single-letter and doubled words
    assert derive_generators("a", None, 1.0, 0.6).trace_degree() == 1
    assert derive_generators("as", None, 1.0, 0.6).trace_degree() == 2
    r = derive_generators("a", "a", 1.0, 0.6)
    assert r.trace_degree() == 2


def test_generator_word_cap():
    # the cap is the trace-degree rule: Q_eps has degree |eps|, R_{eps,delta}
    # degree |eps| + |delta|
    cap = 2 * MAX_DEGREE
    assert not derive_generators("a" * cap, None, 1.0, 0.5).is_zero
    with pytest.raises(ValueError, match=f"trace degree {cap + 1} exceeds {cap}"):
        derive_generators("a" * (cap + 1), None, 1.0, 0.5)
    with pytest.raises(ValueError, match=f"trace degree {cap + 1} exceeds {cap}"):
        derive_generators("a" * (cap // 2), "s" * (cap // 2 + 1), 1.0, 0.5)


def test_apply_tilde_knows_two_generators():
    with pytest.raises(ValueError, match="unknown generator 'Xst'"):
        apply_tilde("Xst", WordPoly.var("a"), 1.0, 0.5)


_RETAINED = """
import collections, gc, itertools, json, tracemalloc
import freesb.operators as operators, freesb.words as words
from freesb.tracepoly import parse
# derive_generators calls by (Q or R, t), all four keys made before tracing
retained, calls = [], collections.Counter(dict.fromkeys(itertools.product((True, False), (0, 2)), 0))
derive = words.derive_generators
words.derive_generators = lambda *a: calls.update([(a[1] is None, a[3])]) or derive(*a)
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
for src in ("v4", "v-4"):
    words.l2_norm_sq(parse(src), words.Measure(4, 1.5, 0.8))
    operators._closures.clear()  # keep only what the word caches hold
    operators._images.clear()
    gc.collect()
    retained.append(tracemalloc.get_traced_memory()[0] - base)
infos = [words._q_family.cache_info(), words._r_family.cache_info()]
print(json.dumps([retained, infos, list(calls.values())]))
"""


def test_family_caches_are_bounded():
    # expectation reads a family entry of a word with a starred letter back at
    # the other family's (s, t), one of a word with none (whose beta_- image
    # is beta_+'s negated) not at all, and then never again, so a second input
    # must not retain more than the first; v-4 mirrors v4 letter for letter,
    # so their entries weigh the same.
    # A fresh interpreter measures it: in this one, objects that v4 shares
    # with earlier tests' calls predate tracemalloc and would go uncounted
    env = {**os.environ, "PYTHONPATH": str(Path(words.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _RETAINED], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    retained, infos, calls = json.loads(proc.stdout)
    assert retained[1] <= 1.1 * retained[0]
    # each derive_generators call reads its family (Q, then R) at both signs:
    # misses at beta_+'s (s, t) = (1, 0), hits at beta_-'s (1, 2), which only
    # words with a starred letter reach
    for (hits, misses, maxsize, currsize), (plus, minus) in zip(infos, (calls[:2], calls[2:])):
        assert maxsize == currsize == words.FAMILY_CACHE_SIZE
        assert (hits, misses) == (2 * minus, 2 * plus) and 0 < minus < plus


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_Dst_is_first_order(seed):
    # product rule: Dst(pq) = Dst(p) q + p Dst(q)
    rng = np.random.default_rng(seed)
    words = ["a", "as", "aa", "S"]
    def rand_wp():
        out = WordPoly.zero()
        for w in rng.choice(words, size=2, replace=False):
            out = out + WordPoly.var(str(w)) * complex(rng.normal(), rng.normal())
        return out
    p, q = rand_wp(), rand_wp()
    s, t = 1.1, 0.7
    lhs = apply_tilde("Dst", p * q, s, t)
    rhs = apply_tilde("Dst", p, s, t) * q + p * apply_tilde("Dst", q, s, t)
    assert lhs.allclose(rhs, rel=1e-11)


# ---------------------------------------------------------------- FD oracle


def _rand_gl(rng, n):
    """Well-conditioned random GL_n point: unitary x diagonal x unitary."""
    Q1 = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    Q2 = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return Q1 @ np.diag(np.exp(rng.uniform(-0.25, 0.25, n))) @ Q2


def _word_val(w, Z):
    return evaluate_word(WordPoly.var(w), Z)


def _fd_oracle_errors(s, t, h, q_len, r_len):
    """Worst |numeric - symbolic| of Q on canonical words up to ``q_len`` and
    of R on pairs up to ``r_len``, by central differences with step h over
    beta_3 weighted (s - t/2) on beta_+ and t/2 on beta_-."""
    N = 3
    rng = np.random.default_rng(5)
    words = _canonical_words(q_len)
    short = [w for w in words if len(w) <= r_len]
    dirs = []
    for X in basis_uN(N).elements:
        dirs.append((X, s - t / 2.0))
        dirs.append((1j * X, t / 2.0))

    worst_q = worst_r = 0.0
    for _ in range(5):
        Z = _rand_gl(rng, N)
        steps = [(Z @ expm(h * W), Z @ expm(-h * W), wt) for W, wt in dirs]
        # Q: second derivatives of a single trace
        for w in words:
            v0 = _word_val(w, Z)
            num = sum(wt * (_word_val(w, Ep) - 2 * v0 + _word_val(w, Em)) / h**2
                      for Ep, Em, wt in steps)
            sym = evaluate_word(derive_generators(w, None, s, t), Z)
            worst_q = max(worst_q, abs(num - sym))
        # R: products of first derivatives, cross-trace term carries 1/N^2
        d1 = {w: [( _word_val(w, Ep) - _word_val(w, Em)) / (2 * h)
                  for Ep, Em, _ in steps] for w in short}
        for w1 in short:
            for w2 in short:
                num = sum(wt * d1[w1][i] * d1[w2][i]
                          for i, (_, _, wt) in enumerate(steps))
                sym = evaluate_word(derive_generators(w1, w2, s, t), Z) / N**2
                worst_r = max(worst_r, abs(num - sym))
    return worst_q, worst_r


def test_generator_fd_oracle():
    """Q_eps and R_{eps,delta} against central second differences over beta_3."""
    worst_q, worst_r = _fd_oracle_errors(1.5, 0.8, 1e-4, 3, 2)
    assert worst_q < 1e-6, f"Q oracle max err {worst_q:.3e}"
    assert worst_r < 1e-6, f"R oracle max err {worst_r:.3e}"


@pytest.mark.parametrize("s, t", [(1.0, 0.0), (0.4, 0.8)], ids=["beta_plus", "beta_minus"])
def test_generator_fd_oracle_per_family(s, t):
    """The same oracle with one basis family alone (s - t/2 = 0 or t = 0),
    so a sign error in one family cannot cancel against the other."""
    worst_q, worst_r = _fd_oracle_errors(s, t, 3e-4, 4, 3)
    assert worst_q < 1e-6, f"Q oracle max err {worst_q:.3e}"
    assert worst_r < 1e-6, f"R oracle max err {worst_r:.3e}"


# ---------------------------------------------------------------- expectations


def _exp(name, column, p):
    """e^G p for G given by a column of (monomial, weight) pairs, as the one
    part of ``exp_series``; ``name`` keys its closures, so it must name that
    column alone."""
    return exp_series(lambda m: [(mi, 0, w) for mi, w in column(m)], p, 1.0, ((name, 1.0),))


def _dst_column(s, t):
    """Dt_{s,t} as a column function of (monomial, weight) pairs."""
    return lambda m: apply_tilde("Dst", WordPoly({m: 1.0}), s, t).terms.items()


def test_expectation_eigenvalue_observables():
    # tr Z and tr(Z Z*) are eigenvectors of the generator: exact at every N
    for N in (1, 3, 8):
        e1 = expectation(iota(v(1)), 1.5, 0.8, N)
        assert abs(e1 - math.exp(-0.35)) < 1e-12
        e2 = expectation(WordPoly.var("as"), 1.5, 0.8, N)
        assert abs(e2 - math.exp(0.8)) < 1e-12


@pytest.mark.parametrize("cls,key", [(WordPoly, ()), (TracePoly, (0, ()))])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_nonfinite_coefficients_raise(cls, key, bad):
    # both polynomial types share one constructor
    with pytest.raises(ValueError, match="non-finite"):
        cls({key: bad})


def test_nan_generators_raise():
    # a NaN time makes NaN generators, which must not act as zero
    with pytest.raises(ValueError):
        derive_generators("a", None, float("nan"), 0.0)
    with pytest.raises(ValueError):
        expectation(iota(v(1)), float("nan"), 0.0, 4)


@pytest.mark.parametrize("s, t, N, message", [
    (-1.0, 0.0, 4, "rho requires s >= 0, got s=-1.0"),
    (0.2, 1.0, 4, "mu requires s > t/2 > 0, got s=0.2, t=1.0"),
    (1.0, -0.5, 4, "mu requires s > t/2 > 0, got s=1.0, t=-0.5"),
    (1.0, 0.0, 0, "N must be a positive integer, got 0"),
    (1.0, 0.0, 2.5, "N must be a positive integer, got 2.5"),
    (1.5, 0.8, 4.0, "N must be a positive integer, got 4.0"),
    (1.0, 0.0, float("nan"), "N must be a positive integer, got nan"),
], ids=["rho s<0", "mu s<t/2", "mu t<0", "N=0", "N=2.5", "N=4.0", "N=nan"])
def test_expectation_refuses_what_measure_refuses(monkeypatch, s, t, N, message):
    # times and sizes of no measure: Measure's error, before any closure;
    # a size of no measure is none of D_N either
    with pytest.raises(ValueError, match=message):
        Measure(N, s, t)
    if message.startswith("N must"):
        with pytest.raises(ValueError, match=message):
            GeneratorSpec.DN(N)
        with pytest.raises(ValueError, match=message):
            operators.apply_DN(parse("u^2 + v1"), N)
    monkeypatch.setattr(words, "exp_series", None)
    with pytest.raises(ValueError, match=message):
        expectation(WordPoly.var("a"), s, t, N)


def test_measure_takes_numpy_integers():
    N = np.arange(5)[4]
    assert Measure(N, 1.5, 0.8).N == 4
    assert GeneratorSpec.DN(N) == GeneratorSpec.DN(4)
    assert expectation(iota(v(1)), 1.0, 0.0, N) == expectation(iota(v(1)), 1.0, 0.0, 4)


def test_expectation_linear():
    p, q = iota(v(1)), WordPoly.var("as")
    s, t, N = 1.2, 0.6, 4
    lhs = expectation(p + 2j * q, s, t, N)
    rhs = expectation(p, s, t, N) + 2j * expectation(q, s, t, N)
    assert abs(lhs - rhs) < 1e-12


_LINEAR_WORDS = [iota(v(1)), WordPoly.var("as"), iota(v(2) * v(-1)), WordPoly.var("aS"),
                 WordPoly.var("aa") * WordPoly.var("s"), iota(parse("v1^2 - 2 v-1"))]


@given(st.sampled_from(_LINEAR_WORDS), st.sampled_from(_LINEAR_WORDS),
       st.floats(-30.0, 30.0), st.sampled_from([1, -1, 1j]), st.floats(0.3, 3.0),
       st.floats(0.0, 1.9), st.integers(1, 5))
@example(_LINEAR_WORDS[1], _LINEAR_WORDS[0], -30.0, 1j, 1.5, 0.5, 3)
@example(_LINEAR_WORDS[5], _LINEAR_WORDS[4], 30.0, -1, 1.0, 0.0, 2)
@example(_LINEAR_WORDS[0], _LINEAR_WORDS[1], 0.0, 1, 1.0, 5e-324, 1)  # t / 2 underflows
@settings(max_examples=40, deadline=None)
def test_expectation_is_linear_at_any_scale(x, y, log_c, phase, s, t_over_s, N):
    # storage drops exact zeros only, so c * x keeps every term at any |c|;
    # t_over_s = 0 is rho; the bounds are 20x and 50x the worst of 5,000
    # random draws
    c, t = phase * 10.0 ** log_c, t_over_s * s
    ex, ey = expectation(x, s, t, N), expectation(y, s, t, N)
    assert abs(expectation(c * x, s, t, N) / c - ex) <= 1e-12 * abs(ex)
    assert abs(expectation(c * x + y, s, t, N) - (c * ex + ey)) <= 1e-11 * (abs(c * ex) + abs(ey))


def test_expectation_refuses_the_degree_before_the_rho_rewrite(monkeypatch):
    # under rho the rewrite would collapse this word (trace degree 40,000) to 1
    word = WordPoly.var("sa" * 20000)
    monkeypatch.setattr(words, "_unitary", None)
    for t in (0.0, 0.5):
        with pytest.raises(ValueError, match="trace degree 40000 exceeds 24"):
            expectation(word, 1.0, t, 2)


def test_expectation_matches_trace_route_at_t0():
    # under rho_s the word engine must agree with the trace-polynomial
    # heat semigroup evaluated at the identity
    s = 1.1
    for N in (2, 5):
        for p in (v(1), v(2), v(3), v(1) ** 2, v(2) * v(-1)):
            word_side = expectation(iota(p), s, 0.0, N)
            q = exp_apply(GeneratorSpec.DN(N), s / 2.0, p)
            trace_side = complex(sum(q.substitute_v(lambda j: 1.0).terms.values()))
            assert abs(word_side - trace_side) < 1e-10, (N, p)


def test_limit_expectation_is_pi():
    # (e^{Dst} iota(Q))(1) = pi_{s-t} Q
    rng = np.random.default_rng(23)
    s, t = 1.5, 0.8
    for _ in range(6):
        terms = {}
        for _ in range(3):
            budget = 4
            ve = {}
            while budget > 0 and rng.random() < 0.7:
                j = int(rng.integers(-budget, budget + 1))
                if j != 0:
                    ve[j] = ve.get(j, 0) + 1
                    budget -= abs(j)
            terms[(0, tuple(sorted(ve.items())))] = complex(rng.normal(), rng.normal())
        Q = TracePoly(terms)
        lim = _exp(f"Dt at s={s}, t={t}", _dst_column(s, t), iota(Q)).evaluate_ones()
        want = complex(sum(pi_eval(Q, s - t).terms.values()))
        assert abs(lim - want) < 1e-10 * max(1.0, abs(want))


# ---------------------------------------------------------------- Leibniz columns

Z4 = iota(v(4)) * iota_star(v(4))  # |tr Z^4|^2


def _spy_exp_series(monkeypatch):
    """Record each column ``expectation`` hands to ``exp_series`` with its
    terms, and the monomials it is called on; the closure and image caches
    start empty, so the first call compiles and calls the column."""
    columns, calls = [], []

    def spy(column, p, theta, terms):
        columns.append((column, terms))
        return real(lambda m: calls.append(m) or column(m), p, theta, terms)

    real = words.exp_series
    monkeypatch.setattr(words, "exp_series", spy)
    monkeypatch.setattr(operators, "_closures", operators._Cache())
    monkeypatch.setattr(operators, "_images", operators._Cache())
    return columns, calls


def _weighted(column, terms, m):
    """The image of m under sum_k w_k G_k, from the column of the parts G_k."""
    out: dict = {}
    for mi, k, w in column(m):
        out[mi] = out.get(mi, 0j) + terms[k][1] * w
    return out


def _by_definition(m, s, t, N):
    """(Dt + Lt/N^2) m from Dt = (1/2) sum_a Q_a d/dv_a and
    Lt = (1/2) sum_{a,b} R_{a,b} d2/dv_a dv_b, over ordered pairs."""
    out: dict = {}

    def add(poly, rest, w):
        for qm, c in poly.terms.items():
            key = wmono(list(qm) + list(rest.items()))
            out[key] = out.get(key, 0j) + w * c

    for a, e in m:
        rest = dict(m)
        rest[a] -= 1
        add(derive_generators(a, None, s, t), rest, 0.5 * e)
        for b in dict(m):
            if rest[b]:
                rest2 = dict(rest)
                rest2[b] -= 1
                add(derive_generators(a, b, s, t), rest2, 0.5 * e * rest[b] / N**2)
    return out


@pytest.mark.parametrize("s, t, N", [(1.0, 0.0, 8), (1.5, 0.8, 4)])
def test_leibniz_column_matches_apply_tilde(monkeypatch, s, t, N):
    # on every monomial of the |tr Z^4|^2 closure, under rho and under mu
    columns, _ = _spy_exp_series(monkeypatch)
    expectation(Z4, s, t, N)
    [(column, terms)] = columns
    basis = operators._compile(column, Z4.terms, len(terms))[0]
    assert len(basis) > 100
    for m in basis:
        q = WordPoly({m: 1.0})
        tilde = apply_tilde("Dst", q, s, t) + (1.0 / N**2) * apply_tilde("Lst", q, s, t)
        got = _weighted(column, terms, m)
        for want in (tilde.terms, _by_definition(m, s, t, N)):
            scale = max(map(abs, want.values()), default=0.0)
            for mi in set(got) | set(want):
                assert abs(got.get(mi, 0j) - want.get(mi, 0j)) <= 1e-15 * scale, (m, mi)


def test_expectation_call_paths(monkeypatch):
    # perfbench's tracer counts these calls: on a closure cache miss,
    # expectation reaches apply_tilde with both generators and
    # derive_generators, and exp_series calls its column once per monomial
    # of the closure of the input's unitary form
    gens, derived = [], []
    tilde, derive = words.apply_tilde, words.derive_generators
    monkeypatch.setattr(words, "apply_tilde", lambda gen, *a: gens.append(gen) or tilde(gen, *a))
    monkeypatch.setattr(words, "derive_generators",
                        lambda *a: derived.append(a) or derive(*a))
    columns, calls = _spy_exp_series(monkeypatch)
    expectation(Z4, 1.0, 0.0, 8)
    assert set(gens) == {"Dst", "Lst"}
    # once per distinct word (Q) or unordered pair of words (R) in one call,
    # at beta_+'s (s, t) = (1, 0) alone: rho compiles beta_- too, but its
    # unitary words have no starred letter, so beta_-'s images are beta_+'s negated
    keys = [((eps,) if delta is None else tuple(sorted((eps, delta))), s, t)
            for eps, delta, s, t in derived]
    assert len(keys) == len(set(keys)) == 32
    assert {(s, t) for *_, s, t in derived} == {(1.0, 0.0)}
    # under rho, Z^* = Z^-1: |tr Z^4|^2 is computed as tr(Z^4) tr(Z^-4)
    (column, terms), = columns
    assert [name for name, _ in terms] == ["Dst+", "Lst+", "Dst-", "Lst-"]
    basis = operators._compile(column, iota(v(4) * v(-4)).terms, 4)[0]
    assert sorted(calls) == sorted(basis)
    assert len(basis) < len(operators._compile(column, Z4.terms, 4)[0]) / 3
    # a hit, at another s and N, compiles nothing
    del gens[:], derived[:], calls[:]
    expectation(Z4, 1.3, 0.0, 5)
    assert gens == derived == calls == []


def _two_call_image(*words_):
    # beta_+'s and beta_-'s images of v_a or v_a v_b, one apply_tilde call each
    gen, k = ("Dst", 0) if len(words_) == 1 else ("Lst", 1)
    unit = WordPoly({wmono((a, 1) for a in words_): 1.0})
    return [(q, 2 * f + k, c) for f, st in enumerate(((1.0, 0.0), (1.0, 2.0)))
            for q, c in apply_tilde(gen, unit, *st).terms.items()]


def _bits(triples) -> list:
    return [(q, k, np.complex128(c).tobytes()) for q, k, c in triples]


@pytest.mark.parametrize("s, t", [(1.0, 0.0), (1.5, 0.8)])
def test_negated_beta_minus_images_are_bitwise_two_calls(monkeypatch, s, t):
    # expectation takes beta_-'s image of words with no starred letter as
    # beta_+'s negated: its column is bitwise the one of two apply_tilde calls
    rng = np.random.default_rng(3)
    for _ in range(4):
        p = WordPoly({wmono(("".join(rng.choice(list("aA"), size=rng.integers(1, 4))), 1)
                            for _ in range(2)): 1.0})
        columns, _ = _spy_exp_series(monkeypatch)
        expectation(p, s, t, 4)
        [(column, terms)] = columns
        for m in operators._compile(column, p.terms, len(terms))[0]:
            assert _bits(column(m)) == _bits(words._leibniz(m, _two_call_image, _two_call_image)), m
    # a starred letter breaks the rule, so those words keep their second call
    for w in ("as", "aS", "sa", "aaS"):
        image = _two_call_image(w)
        assert [(q, c) for q, k, c in image if k == 0] != [(q, -c) for q, k, c in image if k == 2]


# ---------------------------------------------------------------- rho on unitary words


def _adjoint(p):
    """P^* on U_N: conjugate coefficients, u^k -> u^-k and v_j -> v_-j."""
    return TracePoly({(-k0, tuple(sorted((-j, e) for j, e in ve))): c.conjugate()
                      for (k0, ve), c in p.terms.items()})


def _trace_route(p, s, N):
    """E[P_N(U)] under rho_s^N as (e^{(s/2) D_N} P)(I): at U = I every u and v_j is 1."""
    return complex(sum(exp_apply(GeneratorSpec.DN(N), s / 2.0, p).terms.values()))


_MIXED = [parse("u^2 v1 + 2 u^-1 - 0.5 v-1 v2"), parse("u^3 + v-1") - 1j * parse("u^-2 v1"),
          (1 + 2j) * parse("u v-1") + parse("u^-1 v1")]


@pytest.mark.parametrize("s", [0.7, 2.0])
def test_rho_on_unitary_words_matches_trace_route(s):
    # under rho the word engine rewrites Z^* as Z^-1; at N >= degree that
    # must agree to roundoff with the trace engine on P P^* and with the
    # word engine's own unreduced route (the column built by definition)
    for k in (1, 2, 3, 4):
        Zk = iota(v(k)) * iota_star(v(k))
        for N in (2 * k, 8):
            got = expectation(Zk, s, 0.0, N)
            want = _trace_route(v(k) * v(-k), s, N)
            assert abs(got - want) <= 1e-12 * abs(want), (k, N)
            if k <= 3:
                column = lambda m: _by_definition(m, s, 0.0, N).items()
                unreduced = _exp(f"Dt + Lt/N^2 by definition at s={s}, t=0, N={N}",
                                 column, Zk).evaluate_ones()
                assert abs(got - unreduced) <= 1e-12 * abs(want), (k, N)
    for p in _MIXED:
        degree = 2 * max(abs(k0) + sum(abs(j) * e for j, e in ve) for k0, ve in p.terms)
        for N in (degree, 8):
            got = l2_norm_sq(p, Measure.rho(s, N))
            want = _trace_route((p * _adjoint(p)).tracing_map(), s, N).real
            assert abs(got - want) <= 1e-12 * want, (p, N)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_rho_at_N1_closed_form(s):
    # on U_1, Z = e^{i theta} with theta ~ N(0, s): E[Z^j conj(Z)^k] = e^{-(j-k)^2 s/2}.
    # N = 1 is below the degree, where the free trace algebra's ghost modes
    # grow (by e^{4s} for Z^4), so the bound is absolute; every |value| <= 1
    for j in range(5):
        for k in range(5 - j):
            got = expectation(WordPoly.var("a" * j + "s" * k), s, 0.0, 1)
            assert abs(got - math.exp(-(j - k) ** 2 * s / 2.0)) < 1e-12, (j, k)


def _partitions(n, most=None):
    """The partitions of n, each with its parts in decreasing order."""
    if n == 0:
        yield ()
    for k in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _character(lam, mu):
    """chi^lam at cycle type mu by Murnaghan-Nakayama.  On the beta-set
    {lam_i + l - 1 - i} a border strip of length r = mu[0] moves one bead
    from b to a free b - r >= 0, with sign (-1)^(beads between the two)."""
    if not mu:
        return 1
    r, beta = mu[0], [x + len(lam) - 1 - i for i, x in enumerate(lam)]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            new = sorted((b - r if c == b else c for c in beta), reverse=True)
            rest = tuple(x - (len(new) - 1 - i) for i, x in enumerate(new))
            total += (-1) ** sum(b - r < c < b for c in beta) * _character(
                tuple(x for x in rest if x), mu[1:])
    return total


def _rho_by_characters(mu, s, N):
    """E[prod_i tr U^{mu_i}] under rho_s^N.  The power sum p_mu is
    sum_lam chi^lam(mu) s_lam over lam |- n, and E[s_lam(U)] is
    d_lam(N) e^{-(s/2)(n + kappa(lam)/N)}: d_lam(N) by the hook-content
    formula (0 once lam has more than N rows) and kappa(lam) twice the sum
    of the contents (Macdonald, Symmetric Functions and Hall Polynomials,
    ch. I; Levy, Adv. Math. 218 (2008))."""
    n, total = sum(mu), 0.0
    for lam in _partitions(n):
        cols = [sum(row > j for row in lam) for j in range(lam[0])]
        boxes = [(i, j) for i, row in enumerate(lam) for j in range(row)]
        dim = Fraction(1)
        for i, j in boxes:
            dim *= Fraction(N + j - i, lam[i] - j + cols[j] - i - 1)
        kappa = 2 * sum(j - i for i, j in boxes)
        total += _character(lam, mu) * float(dim) * math.exp(-s / 2.0 * (n + kappa / N))
    return total / N ** len(mu)


def _holomorphic_cases():
    for n in range(1, 7):
        for mu in _partitions(n):
            grid = [(s, N) for s in (0.7, 2.0) for N in (n, n + 1, 8, 16)]
            yield pytest.param(mu, grid, id=" ".join(f"v{k}" for k in mu))
    # below the degree both engines grow the free trace algebra's modes that
    # vanish on U_N (ROADMAP item 1): -62,720 and -32,768 against 5.4e-32
    for mu in ((6,), (1,) * 6):
        yield pytest.param(mu, [(4.0, 1)], id=" ".join(f"v{k}" for k in mu) + " at N=1",
                           marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))


@pytest.mark.parametrize("mu, grid", _holomorphic_cases())
def test_holomorphic_rho_matches_characters(mu, grid):
    # an oracle independent of both engines: tr U^k, products of them and
    # their expectations are all bounded by 1 on U_N, so the bound is absolute
    p = TracePoly.one()
    for k in mu:
        p = p * v(k)
    for s, N in grid:
        want = _rho_by_characters(mu, s, N)
        assert abs(want) <= 1.0
        for route, got in (("word", expectation(iota(p), s, 0.0, N)),
                           ("trace", _trace_route(p, s, N))):
            assert abs(got - want) <= 1e-12, (route, s, N, got, want)


@pytest.mark.parametrize("s, t", [(1.5, 0.8), (1.0, 1.0), (2.0, 0.5)])
def test_mu_at_N1_closed_form(s, t):
    # on GL_1, Z = e^{x + iy} with x ~ N(0, t/2) and y ~ N(0, s - t/2)
    # independent: E[Z^j conj(Z)^k] = exp((j+k)^2 t/4 - (j-k)^2 (s - t/2)/2).
    # The L parts have weight 1 here, so these are the word engine's
    # largest-norm closures (up to 12.0, 6 squarings, at j + k = 4)
    for j in range(5):
        for k in range(5 - j):
            if j + k:
                got = expectation(WordPoly.var("a" * j + "s" * k), s, t, 1)
                want = math.exp((j + k) ** 2 * t / 4 - (j - k) ** 2 * (s - t / 2) / 2)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (j, k)


def test_mu_norms_at_N1_past_degree_4():
    # on GL_1 every listed P is Z^n, and ||Z^n||^2 = E e^{2n x} = e^{n^2 t}
    # whatever s; the norm's words reach j + k = 6 and 12, where the ghost
    # modes of the free trace algebra are largest, but so are these norms
    s, t = 1.5, 0.8
    for src, n in (("v3", 3), ("v1^3", 3), ("v2 v1", 3), ("v1^6", 6)):
        got = l2_norm_sq(parse(src), Measure.mu(s, t, 1))
        want = math.exp(n * n * t)
        assert abs(got - want) <= 1e-13 * want, (src, got / want - 1)


@pytest.mark.parametrize("s, t, N", [(1.5, 0.8, 3), (2.0, 1.0, 8), (1.0, 0.5, 2)])
def test_segal_bargmann_isometry(s, t, N):
    # ||e^{(t/2) D_N} P||^2 under mu_{s,t}^N = ||P||^2 under rho_s^N (Driver-Hall):
    # ties the mu word engine to the rho one and to D_N
    for p in _MIXED + [parse("u^2 - v1"), parse("v1 v-1 + u^-1")]:
        lhs = l2_norm_sq(exp_apply(GeneratorSpec.DN(N), t / 2.0, p), Measure.mu(s, t, N))
        rhs = l2_norm_sq(p, Measure.rho(s, N))
        assert abs(lhs - rhs) <= 1e-12 * rhs, p


# ---------------------------------------------------------------- norms


def test_l2_norm_examples():
    assert abs(l2_norm_sq(TracePoly.one(), Measure.rho(1.0, 4)) - 1.0) < 1e-12
    for s, N in ((0.5, 2), (2.0, 6)):
        assert abs(l2_norm_sq(u(1), Measure.rho(s, N)) - 1.0) < 1e-12
    for t in (0.4, 1.1):
        got = l2_norm_sq(u(1), Measure.mu(1.5, t, 3))
        assert abs(got - math.exp(t)) < 1e-10 * math.exp(t)


def test_l2_norm_nonnegative_and_real():
    p = parse("u^2 v1 + v2") - 2j * u(-1)
    val = l2_norm_sq(p, Measure.mu(1.5, 0.8, 4))
    assert isinstance(val, float)
    assert val >= 0.0


def test_l2_norm_guards(monkeypatch, capsys):
    # roundoff below -1e-10 clips to 0; a larger negative or an imaginary part
    # above 1e-8 relative is refused, on the command line as one error line
    for val, want in ((-1e-12, None), (-1e-9, "negative"), (1 + 1e-6j, "non-real")):
        monkeypatch.setattr(words, "expectation", lambda *a, val=val: complex(val))
        if want is None:
            assert l2_norm_sq(u(1), Measure.rho(1.0, 2)) == 0.0
            continue
        with pytest.raises(ArithmeticError, match=f"norm came out {want}"):
            l2_norm_sq(u(1), Measure.rho(1.0, 2))
        assert cli.main(["norm", "--p", "u", "--measure", "rho", "--s", "1", "--N", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"freesb: error: norm came out {want}: ")
        assert len(err.splitlines()) == 1


def test_measure_constructors():
    m = Measure.rho(1.0, 8)
    assert (m.kind, m.t) == ("rho", 0.0)
    m2 = Measure.mu(1.5, 0.8, 4)
    assert (m2.kind, m2.s, m2.t, m2.N) == ("mu", 1.5, 0.8, 4)
    # mu needs s > t/2 > 0: a negative t is no measure; t = 0 is rho
    for t in (-1.0, -1e-12):
        with pytest.raises(ValueError, match="mu requires s > t/2 > 0"):
            Measure.mu(1.0, t, 4)
    assert Measure.mu(1.0, 1e-12, 4).kind == "mu"
    assert Measure.mu(1.0, 5e-324, 1).kind == "mu"  # the least positive t, whose half is 0
    assert Measure.mu(1.0, 0.0, 4).kind == "rho"
