"""Trace-polynomial core: arithmetic, grading, parse/format round trips."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from freesb.tracepoly import (EQ_EPS, TracePoly, factors_mul, format_poly,
                              merge_factors, mono, mono_degree, parse)


def _vslots():
    idx = st.integers(min_value=-3, max_value=3).filter(lambda j: j != 0)
    return st.dictionaries(idx, st.integers(min_value=1, max_value=2), max_size=3)


def _coeffs():
    whole = st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0)
    return st.builds(complex, whole, st.integers(min_value=-9, max_value=9))


@st.composite
def tracepolys(draw, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        k0 = draw(st.integers(min_value=-3, max_value=3))
        ve = tuple(sorted(draw(_vslots()).items()))
        terms[(k0, ve)] = draw(_coeffs())
    return TracePoly(terms)


# ---------------------------------------------------------------- basics


def test_constructors_and_monomials():
    assert TracePoly.zero().is_zero
    assert TracePoly.zero().terms == {}
    assert TracePoly.one() == TracePoly.const(1.0)
    assert TracePoly.u(3).terms == {mono(3): 1.0 + 0j}
    assert TracePoly.v(-2, 2).terms == {mono(0, [(-2, 2)]): 1.0 + 0j}
    with pytest.raises(ValueError):
        TracePoly.v(0)


def test_trace_degree_grading():
    assert TracePoly.zero().trace_degree() == 0
    assert TracePoly.const(5).trace_degree() == 0
    p = parse("u^-3 v2 v-1^2")
    assert p.trace_degree() == 3 + 2 + 2
    assert mono_degree(mono(-3, [(2, 1), (-1, 2)])) == 7


def test_add_sub_cancellation_is_exact():
    p = parse("2 u^2 v1 + 3 v-1")
    q = p - p
    assert q.is_zero
    # storage drops exact zeros only: near-cancellation keeps its residue,
    # 2 * 2^-53 and the rounding of 3 * (1 - 2^-53) here
    c = -1.0 + 1e-16
    r = p + c * p
    assert r.terms == {m: a + c * a for m, a in p.terms.items()}
    assert sorted(abs(a) for a in r.terms.values()) == [2.0 ** -52, 2.0 ** -51]


def test_storage_drops_exact_zeros_only():
    # any finite nonzero coefficient is kept, at any scale; 0j and -0j go
    assert str(TracePoly.u(1) * 1e-15) == "1e-15*u"
    assert (TracePoly.u(1) * 1e-300).terms == {mono(1): 1e-300 + 0j}
    assert TracePoly({mono(1): 0j, mono(2): complex(-0.0, -0.0), mono(3): 5e-324}).terms \
        == {mono(3): 5e-324 + 0j}
    # comparison has no absolute floor either: a term on one side only fails
    tiny = parse("u + v1") * 1e-20
    assert not tiny.allclose(TracePoly.zero())
    assert tiny.allclose(tiny * (1 + 1e-13))
    assert not tiny.allclose(tiny * (1 + 1e-11))


def test_scalar_ops_and_pow():
    p = parse("u + v1")
    assert p * 2 == 2 * p == p + p
    assert (p / 2.0) * 2.0 == p
    assert p**0 == TracePoly.one()
    assert p**3 == p * p * p
    with pytest.raises(TypeError):
        p / p
    with pytest.raises(ValueError):
        p**-1


def test_mul_example():
    p = parse("u v1") * parse("u^-1 v1")
    assert p == parse("v1^2")


def test_invert_u():
    p = parse("2 u^2 - u^-1 + 3")
    q = p.invert_u()
    assert q == parse("2 u^-2 - u + 3")
    assert q.invert_u() == p
    with pytest.raises(ValueError):
        parse("u v1").invert_u()


def test_tracing_map_examples():
    assert parse("u^2 v1").tracing_map() == parse("v2 v1")
    assert parse("v1 v-2").tracing_map() == parse("v1 v-2")
    # tr(Z^0) = 1: the k0=0 convention
    assert parse("7").tracing_map() == parse("7")


def test_substitute_v():
    p = parse("u^2 v1^2 v-2 + 4 u")
    q = p.substitute_v(lambda j: 2.0 if j > 0 else -1.0)
    assert q == parse("-4 u^2 + 4 u")


def _substitute_v_by_factor(p, assign):
    # the reference: each factor's power taken where it occurs, in term order
    acc = {}
    for (k0, ve), c in p.terms.items():
        for j, e in ve:
            c *= complex(assign(j)) ** e
        acc[k0, ()] = acc.get((k0, ()), 0j) + c
    return acc


@given(tracepolys(max_terms=8), st.lists(st.floats(-3, 3).map(lambda x: x or -0.0), min_size=7,
                                         max_size=7), st.booleans())
@settings(max_examples=40, deadline=None)
def test_substitute_v_takes_each_power_once_bit_for_bit(p, values, imag):
    # each power complex(assign(j)) ** e is taken once per call, and the
    # result is bitwise the term-by-term product, signed zeros included
    calls = []

    def assign(j):
        calls.append(j)
        x = values[j + 3]
        return complex(x, -x) if imag else x

    got = p.substitute_v(assign)
    assert len(calls) == len({je for _, ve in p.terms for je in ve})
    want = TracePoly(_substitute_v_by_factor(p, assign))
    bits = lambda q: {m: (c.real.hex(), c.imag.hex()) for m, c in q.terms.items()}
    assert bits(got) == bits(want)


def test_is_laurent_is_scalar():
    assert parse("u^2 - u^-1").is_laurent()
    assert not parse("u v1").is_laurent()
    assert parse("v1 v2").is_scalar()
    assert not parse("u").is_scalar()


# ---------------------------------------------------------------- parse/format


@pytest.mark.parametrize("text,expected", [
    ("u^-3", TracePoly.u(-3)),
    ("(1+2i)*v3", TracePoly({mono(0, [(3, 1)]): 1 + 2j})),
    ("1", TracePoly.one()),
    ("0", TracePoly.zero()),
    ("u^2 v1 - 2 v-1", TracePoly({mono(2, [(1, 1)]): 1, mono(0, [(-1, 1)]): -2})),
])
def test_parse_examples(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize("bad", ["v0", "u^", "v", "2 +", "q3", "(1+2i", "^2", "v1^0"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse(bad)


# The parser's language, pinned as repr(sorted(terms.items())) so signed
# zeros count; None is a ValueError.  Whitespace is insignificant, also
# after the sign inside a complex coefficient, and a '*' must be followed
# by a factor.
PARSE_EDGES = [
    ("v - 2", "[((0, ((-2, 1),)), (1+0j))]"),
    ("u ^ 2", "[((2, ()), (1+0j))]"),
    ("u u", "[((2, ()), (1+0j))]"),
    ("v1 v1", "[((0, ((1, 2),)), (1+0j))]"),
    ("*u", "[((1, ()), (1+0j))]"),
    (".5u", "[((1, ()), (0.5+0j))]"),
    ("5.u", "[((1, ()), (5+0j))]"),
    ("u^+2", "[((2, ()), (1+0j))]"),
    ("v+3", "[((0, ((3, 1),)), (1+0j))]"),
    ("u^-0 v-1^2 *v-1", "[((0, ((-1, 3),)), (1+0j))]"),
    ("-(1+2i)", "[((0, ()), (-1-2j))]"),
    ("( 1.5+2i )", "[((0, ()), (1.5+2j))]"),
    ("(1.5 -2i) u", "[((1, ()), (1.5-2j))]"),
    ("(1.5 - 2i) u", "[((1, ()), (1.5-2j))]"),
    ("-(0+1i) u", "[((1, ()), (-0-1j))]"),
    ("u - (0+1i)", "[((0, ()), -1j), ((1, ()), (1+0j))]"),
    ("1e-15 u + 1e-14 u", "[((1, ()), (1.1e-14+0j))]"),
    ("-0 u + v1", "[((0, ((1, 1),)), (1+0j))]"),
    ("u*", None), ("2*", None), ("", None),
    ("v0", None), ("u^", None), ("v", None), ("2 +", None), ("q3", None),
    ("(1+2i", None), ("^2", None),
]


@pytest.mark.parametrize("text,expected", PARSE_EDGES, ids=[repr(e[0]) for e in PARSE_EDGES])
def test_parse_language(text, expected):
    if expected is None:
        with pytest.raises(ValueError, match="parse error at position"):
            parse(text)
    else:
        assert repr(sorted(parse(text).terms.items())) == expected


@given(tracepolys())
@example(TracePoly({mono(1): complex(-0.0, 2.0)}))  # prints (0+2i): reads back +0.0
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip(p):
    # every coefficient prints exactly, so the parsed coefficients equal p's
    # as numbers, not only within TracePoly's tolerance; a zero's sign is not kept
    assert parse(format_poly(p)).terms == p.terms


# The exact text of format_poly: a -0.0 imaginary part prints as a real
# number, a magnitude of 1 prints as its factors alone (and as "1" with
# none), |c| >= 1e15 prints through repr, a leading minus takes no spaces
FORMAT_EDGES = [
    ({mono(1): complex(2, -0.0)}, "2*u"),
    ({mono(0): complex(2, -0.0), mono(1): complex(-3, -0.0)}, "2 - 3*u"),
    ({mono(1): 1 - 2j, mono(2): -0.5 - 1e-300j}, "(1-2i)*u + (-0.5-1e-300i)*u^2"),
    ({mono(1): 1.0, mono(0, [(1, 1)]): -1.0, mono(-1, [(2, 2)]): 1.0}, "u^-1*v2^2 - v1 + u"),
    ({mono(): 1.0}, "1"),
    ({mono(): -1.0}, "-1"),
    ({mono(): 1.0, mono(1): -1.0}, "1 - u"),
    ({mono(): 1e15, mono(1): -1e16, mono(2): 1e-300, mono(3): 123456789012345.0,
      mono(4): -2.5e15},
     "1000000000000000.0 - 1e+16*u + 1e-300*u^2 + 123456789012345*u^3 - 2500000000000000.0*u^4"),
    ({mono(2): -1.0, mono(3): 2.0}, "-u^2 + 2*u^3"),
    ({mono(2): -1.0, mono(0, [(-1, 1)]): 0.25}, "0.25*v-1 - u^2"),
    ({mono(): 1j, mono(1): -1 - 1j, mono(0, [(3, 2)]): 1e15 + 1e-300j, mono(-2): 2j},
     "(0+2i)*u^-2 + (0+1i) + (1000000000000000.0+1e-300i)*v3^2 + (-1-1i)*u"),
    ({mono(): complex(1e300, -1e300)}, "(1e+300-1e+300i)"),
    ({}, "0"),
]


@pytest.mark.parametrize("terms,text", FORMAT_EDGES, ids=[e[1] for e in FORMAT_EDGES])
def test_format_text(terms, text):
    p = TracePoly(terms)
    assert format_poly(p) == str(p) == text
    assert repr(p) == f"TracePoly({text!r})"
    assert parse(text) == p


def test_format_is_deterministic_and_ordered():
    p = TracePoly({mono(2, [(1, 1)]): 1.0, mono(-1): 2.0, mono(0, [(1, 2)]): -1.0})
    assert format_poly(p) == format_poly(TracePoly(dict(reversed(list(p.terms.items())))))


# ---------------------------------------------------------------- algebra laws


@given(tracepolys(), tracepolys(), tracepolys())
@settings(max_examples=40, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert ((a * b) * c).allclose(a * (b * c))


@given(tracepolys(), tracepolys())
@settings(max_examples=40, deadline=None)
def test_trace_degree_additive_on_products(a, b):
    if a.is_zero or b.is_zero:
        return
    prod = a * b
    if not prod.is_zero:  # no coefficient conspiracies at top degree here
        assert prod.trace_degree() <= a.trace_degree() + b.trace_degree()
    # exactly additive for single monomials unless the u-exponents cancel
    ma, mb = next(iter(a.terms)), next(iter(b.terms))
    p, q = TracePoly({ma: 1.0}), TracePoly({mb: 1.0})
    if ma[0] * mb[0] >= 0:
        assert (p * q).trace_degree() == p.trace_degree() + q.trace_degree()


def _factors(variables):
    # a normalized factor tuple: sorted variables, positive exponents
    pairs = st.dictionaries(variables, st.integers(min_value=1, max_value=3), max_size=4)
    return pairs.map(lambda d: tuple(sorted(d.items())))


@pytest.mark.parametrize("variables, unit", [
    (st.integers(min_value=-4, max_value=4).filter(bool), 0),  # a Mono's v-part
    (st.text(alphabet="aAsS", min_size=1, max_size=3), ""),  # a word monomial
])
def test_factors_mul_is_merge_factors(variables, unit):
    @given(_factors(variables), _factors(variables))
    @settings(max_examples=60, deadline=None)
    def check(a, b):
        assert factors_mul(a, b) == merge_factors(a + b, unit)
    check()


@given(tracepolys(), tracepolys())
@settings(max_examples=40, deadline=None)
def test_tracing_map_linear_and_idempotent(p, q):
    T = TracePoly.tracing_map
    assert T(p + q).allclose(T(p) + T(q))
    assert T(2j * p).allclose(2j * T(p))
    assert T(T(p)).allclose(T(p))  # idempotent on the image


@given(tracepolys(), tracepolys())
@settings(max_examples=40, deadline=None)
def test_substitute_v_ring_homomorphism(p, q):
    sub = lambda r: r.substitute_v(lambda j: 0.5 * j)
    lhs = sub(p * q)
    rhs = sub(p) * sub(q)
    assert lhs.allclose(rhs, rel=1e-9)


def test_allclose_relative_semantics():
    p = parse("1000000 u")
    assert p.allclose(p + parse("0.000001 u"), rel=1e-9)
    assert not p.allclose(p + parse("u"), rel=1e-9)
