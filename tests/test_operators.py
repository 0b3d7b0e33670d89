"""Intertwining operators: closed-form oracles, the product rule, the
semigroup engine, and the finite-dimensional matrix representation."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import freesb.operators as operators
from freesb.tracepoly import TracePoly, linear, mono, parse
from freesb.operators import (GeneratorSpec, apply_D, apply_DN, exp_apply,
                              exp_series, monomial_basis, operator_matrix)

u = TracePoly.u
v = TracePoly.v


def _rand_poly(rng, deg, nterms=3, u_free=False):
    terms = {}
    for _ in range(nterms):
        budget = deg
        k0 = 0 if u_free else int(rng.integers(-deg, deg + 1))
        budget -= abs(k0)
        ve = {}
        while budget > 0 and rng.random() < 0.65:
            j = int(rng.integers(-budget, budget + 1))
            if j != 0:
                ve[j] = ve.get(j, 0) + 1
                budget -= abs(j)
        terms[(k0, tuple(sorted(ve.items())))] = complex(rng.normal(), rng.normal())
    return TracePoly(terms)


def named(name, p):
    """The operator ``name`` of the table on p, as a one-term spec."""
    return GeneratorSpec(((name, 1.0),)).apply(p)


# ---------------------------------------------------------------- hand oracles


def test_diagonal_operators():
    p = parse("u^2 v1 + u^-1 v-2")
    # N0 counts traced powers (the v-part), N1 the bare matrix power
    assert named("N0", p) == parse("u^2 v1 + 2 u^-1 v-2")
    assert named("N1", p) == parse("2 u^2 v1 + u^-1 v-2")
    mixed = parse("u^2 + u^-1 + v1")
    assert named("Aplus", mixed) == parse("u^2 + v1")
    assert named("Aminus", mixed) == parse("u^-1")
    assert named("sgn", mixed) == parse("u^2 - u^-1 + v1")
    assert parse("u + v1") * u(-2) == parse("u^-1 + u^-2 v1")
    with pytest.raises(ValueError, match="unknown operator name 'Q'"):
        GeneratorSpec((("Q", 1.0),))


def test_Y_closed_forms():
    assert named("Y", u(4)) == parse("3 v1 u^3 + 2 v2 u^2 + v3 u")
    assert named("Y", u(2)) == parse("v1 u")
    assert named("Y", u(-3)) == parse("v-2 u^-1 + 2 v-1 u^-2")
    # u^-1, 1, u are annihilated
    for k in (-1, 0, 1):
        assert named("Y", u(k)).is_zero
    # multiplicative over v-factors: Y(u^2 v3) = Y(u^2) v3
    assert named("Y", parse("u^2 v3")) == parse("v1 u v3")


def test_Z_derivation_values():
    assert named("Z", v(1)).is_zero
    assert named("Z", v(-1)).is_zero
    assert named("Z", v(2)) == parse("v1^2")
    assert named("Z", v(3)) == parse("3 v1 v2")
    assert named("Z", v(-3)) == parse("3 v-1 v-2")
    # derivation over products of v's
    assert named("Z", parse("v2 v1")) == parse("v1^3")
    assert named("Z", parse("v2^2")) == parse("2 v1^2 v2")


def test_L_hand_oracles():
    assert named("L", parse("u v1")) == parse("2 u^2")
    assert named("L", parse("v1 v-1")) == parse("-2")
    assert named("L", parse("v1^2")) == parse("2 v2")
    assert named("L", u(2)).is_zero
    assert named("L", parse("v1")).is_zero


def test_D_closed_forms():
    assert apply_D(u(1)) == parse("-u")
    assert apply_D(u(2)) == parse("-2 u^2 - 2 u v1")
    assert apply_D(parse("u v1")) == parse("-2 u v1")
    assert apply_D(u(-3)) == parse("-3 u^-3 - 4 v-1 u^-2 - 2 v-2 u^-1")


def test_DN_combines_D_and_L():
    p = parse("u v1")
    lhs = apply_DN(p, 5)
    assert lhs.allclose(apply_D(p) - (1.0 / 25.0) * named("L", p))


# ---------------------------------------------------------------- product rule


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_partial_product_rule(seed):
    rng = np.random.default_rng(seed)
    P = _rand_poly(rng, 4)
    Q = _rand_poly(rng, 3, u_free=True)
    resid = apply_D(P * Q) - apply_D(P) * Q - P * apply_D(Q)
    assert resid.coeff_max() < 1e-12 * max(1.0, (P * Q).coeff_max())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_exp_homomorphism_on_scalar_factors(seed):
    rng = np.random.default_rng(seed)
    P = _rand_poly(rng, 3, nterms=2)
    Q = _rand_poly(rng, 2, nterms=2, u_free=True)
    theta = 0.3
    lhs = exp_apply(GeneratorSpec.D(), theta, P * Q)
    rhs = exp_apply(GeneratorSpec.D(), theta, P) * exp_apply(GeneratorSpec.D(), theta, Q)
    assert (lhs - rhs).coeff_max() < 1e-9 * max(1.0, rhs.coeff_max())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_tracing_map_commutes_with_D_and_L(seed):
    rng = np.random.default_rng(seed)
    p = _rand_poly(rng, 4)
    for apply_fn in (apply_D, lambda q: named("L", q)):
        lhs = apply_fn(p.tracing_map())
        rhs = apply_fn(p).tracing_map()
        assert (lhs - rhs).coeff_max() < 1e-12 * max(1.0, lhs.coeff_max())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_degree_preservation(seed):
    rng = np.random.default_rng(seed)
    p = _rand_poly(rng, 5)
    d = p.trace_degree()
    for name in ("N0", "N1", "Y", "Z", "L", "Aplus", "Aminus", "sgn"):
        q = named(name, p)
        if not q.is_zero:
            assert q.trace_degree() <= d, name


# the paper's generators, as weighted sums of the table's columns
COMPOSITES = {"D": GeneratorSpec.D(), "DN3": GeneratorSpec.DN(3),
              "PI_GEN": GeneratorSpec.pi_gen()}


@pytest.mark.parametrize("name", sorted(operators._COLUMNS) + list(COMPOSITES))
def test_every_named_column(name):
    # a spec's apply and its compiled matrix both match the weighted sum of
    # the table's columns, each applied by ``linear`` outside any spec
    spec = COMPOSITES[name] if name in COMPOSITES else GeneratorSpec(((name, 1.0),))

    def by_name(q):
        return sum((w * linear(operators._COLUMNS[n], q) for n, w in spec.terms),
                   TracePoly.zero())

    p = _rand_poly(np.random.default_rng(5), 4)
    assert spec.apply(p) == by_name(p)
    M = operator_matrix(spec, 3)
    for j, m in enumerate(M.basis):
        col = M.coords(by_name(TracePoly({m: 1.0})))
        assert np.array_equal(M.entries[:, j], col), m


@pytest.mark.parametrize("m, D_img, L_img, pi_img", [
    # D = -N - 2Z - 2Y, with N the trace degree; PI_GEN = N0 + 2Z
    ("u^3 v2", "-5 u^3 v2 - 2 u^3 v1^2 - 4 u^2 v1 v2 - 2 u v2^2", "12 u^5",
     "2 u^3 v2 + 2 u^3 v1^2"),
    ("v1 v-2", "-3 v1 v-2 - 2 v1 v-1^2", "-4 v-1", "3 v1 v-2 + 2 v1 v-1^2"),
    ("u^-2 v3", "-5 u^-2 v3 - 6 u^-2 v1 v2 - 2 u^-1 v-1 v3", "-12 u",
     "3 u^-2 v3 + 6 u^-2 v1 v2"),
])
def test_composite_generators_on_monomials(m, D_img, L_img, pi_img):
    # exact: every weight is an integer, and 1/N^2 a power of two at N = 2
    p = parse(m)
    assert GeneratorSpec.D().apply(p).terms == parse(D_img).terms
    assert GeneratorSpec.pi_gen().apply(p).terms == parse(pi_img).terms
    assert GeneratorSpec.DN(2).apply(p).terms == (parse(D_img) - 0.25 * parse(L_img)).terms


def test_spec_sums_overlapping_images():
    # p holds monomials together with their Y, Z and L images, so the
    # images of N0, Y, Z and L under one spec share monomials
    rng = np.random.default_rng(8)
    weights = {"N0": 0.3 - 1.2j, "Y": -2.0 + 0.5j, "Z": 1.7j, "L": -0.04 + 0.9j}
    spec = GeneratorSpec(tuple(weights.items()))
    for _ in range(10):
        q = _rand_poly(rng, 5)
        p = q + sum((complex(rng.normal(), 1.0) * linear(operators._COLUMNS[name], q)
                     for name in ("Y", "Z", "L")), TracePoly.zero())
        images = [w * linear(operators._COLUMNS[name], p) for name, w in weights.items()]
        monos = [m for img in images for m in img.terms]
        assert len(monos) > len(set(monos))
        want = sum(images, TracePoly.zero())
        assert (spec.apply(p) - want).coeff_max() <= 1e-15 * want.coeff_max()
    # the composites are sums of the table's names, not entries of it: an
    # unknown name is refused at construction, before any apply
    for bad in ("Q", "Mu", "D", "PI_GEN"):
        with pytest.raises(ValueError, match=f"unknown operator name '{bad}'"):
            GeneratorSpec(((bad, 1.0),))
    with pytest.raises(ValueError, match="'Q'"):
        GeneratorSpec((("N0", 1.0), ("Q", 1.0)))


# ---------------------------------------------------------------- semigroups


def test_heat_on_u2_closed_form():
    # e^{(t/2)D_N} u^2 = e^{-t} cosh(t/N) u^2 - N e^{-t} sinh(t/N) u v1
    for t, N in ((0.7, 4), (1.3, 9)):
        got = exp_apply(GeneratorSpec.DN(N), t / 2.0, u(2))
        want = TracePoly({
            mono(2): math.exp(-t) * math.cosh(t / N),
            mono(1, [(1, 1)]): -N * math.exp(-t) * math.sinh(t / N),
        })
        assert got.allclose(want, rel=1e-10), (t, N)


def test_exp_apply_inverse():
    p = parse("u^2 v1 - 2 u^-1 + v2")
    fwd = exp_apply(GeneratorSpec.D(), 0.45, p)
    back = exp_apply(GeneratorSpec.D(), -0.45, fwd)
    assert (back - p).coeff_max() < 1e-9


def test_exp_semigroup_composition():
    p = parse("u^2 + v1 v-1")
    one = exp_apply(GeneratorSpec.DN(3), 0.6, p)
    two = exp_apply(GeneratorSpec.DN(3), 0.35,
                    exp_apply(GeneratorSpec.DN(3), 0.25, p))
    assert (one - two).coeff_max() < 1e-9


def test_triangular_diagonal_action():
    # the u^k coefficient of e^{±(t/2)D} u^k is exactly e^{∓kt/2}
    t = 0.8
    for k in (1, 3, -2):
        for sign in (+1.0, -1.0):
            q = exp_apply(GeneratorSpec.D(), sign * t / 2.0, u(k))
            diag = q.coeff(mono(k))
            want = math.exp(-sign * abs(k) * t / 2.0)
            assert abs(diag - want) < 1e-10, (k, sign)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_exp_series_refuses_a_non_finite_theta_first(theta):
    # check_times, the rule of every time, refuses it before theta meets a value
    gen = GeneratorSpec.DN(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite time theta="):
            exp_series(gen.parts, u(3), theta, gen.terms)


class _Term(np.ndarray):
    """Marks what _matvec returns: a stage's first product takes a plain array."""


def _stage_terms(monkeypatch, run):
    """The terms of each _taylor_sparse stage that ``run`` makes."""
    stages, matvec = [], operators._matvec

    def spy(rows, cols, vals, y):
        if type(y) is not _Term:
            stages.append(0)
        stages[-1] += 1
        return matvec(rows, cols, vals, y).view(_Term)
    monkeypatch.setattr(operators, "_matvec", spy)
    run()
    monkeypatch.undo()
    return stages


def test_taylor_stages_end_within_26_terms(monkeypatch):
    # a stage of -2 I is the worst case of the bound: its terms are 2^k / k!
    # and its sum e^-2; x starts at 1e300 so that most stages run before the
    # value underflows (a zero vector ends a stage at its first term)
    one = np.zeros(1, dtype=np.intp)
    stages = _stage_terms(monkeypatch, lambda: operators._taylor_sparse(
        one, one, np.array([-2000.0 + 0j]), np.array([1e300 + 0j]), 2000.0))
    assert len(stages) == 1000 and max(stages) == stages[0] <= 26, stages[:3]
    # the 846-monomial closure of D_4 at 1-norm 19, in ten stages
    gen, p = GeneratorSpec.DN(4), parse("u^2 v3^2 v-4 + 2 v1^4 v-2^2 v4 - v5 v-7")
    norms = []
    taylor = operators._taylor_sparse
    monkeypatch.setattr(operators, "_taylor_sparse",
                        lambda *a: norms.append((len(a[3]), a[4])) or taylor(*a))
    exp_series(gen.parts, p, 1.0, gen.terms)
    (n, norm), = norms
    assert n == 846
    theta = 19.0 / norm
    stages = _stage_terms(monkeypatch, lambda: exp_series(gen.parts, p, theta, gen.terms))
    assert len(stages) == 10 and max(stages) <= 26, stages


# ---------------------------------------------------------------- matrices


def test_monomial_basis_degree_2():
    basis = monomial_basis(2)
    assert len(basis) == 16
    assert mono(0) in basis and mono(2) in basis and mono(0, [(1, 2)]) in basis
    assert all(len(b) == 2 for b in basis)


def test_monomial_basis_matches_a_search_by_multiplication():
    # an independent enumeration: from the monomial 1, multiply by u, u^-1
    # and each v_j (0 < |j| <= n) while the trace degree stays <= n; a state
    # is (k0, sorted tuple of v-indices with repeats)
    for n in range(10):
        steps = [(1, ()), (-1, ())] + [(0, (j,)) for j in range(-n, n + 1) if j]
        found, todo = {(0, ())}, [(0, ())]
        while todo:
            k0, js = todo.pop()
            for dk, dj in steps:
                nxt = (k0 + dk, tuple(sorted(js + dj)))
                if abs(nxt[0]) + sum(map(abs, nxt[1])) <= n and nxt not in found:
                    found.add(nxt)
                    todo.append(nxt)
        want = sorted((k0, tuple(sorted({j: js.count(j) for j in js}.items()))) for k0, js in found)
        assert monomial_basis(n) == want, n


def test_monomial_basis_size_at_the_degree_limit():
    # the largest basis is bounded by MAX_DEGREE alone
    assert len(monomial_basis(operators.MAX_DEGREE)) == 12_892
    with pytest.raises(ValueError, match="MAX_DEGREE=12"):
        monomial_basis(operators.MAX_DEGREE + 1)


def test_operator_matrix_DN_span_example():
    N = 4
    M = operator_matrix(GeneratorSpec.DN(N), 2)
    i_u2, i_uv1 = M.index(mono(2)), M.index(mono(1, [(1, 1)]))
    sub = np.array([
        [M.entries[i_u2, i_u2], M.entries[i_u2, i_uv1]],
        [M.entries[i_uv1, i_u2], M.entries[i_uv1, i_uv1]],
    ])
    want = np.array([[-2.0, -2.0 / N**2], [-2.0, -2.0]])
    assert np.abs(sub - want).max() < 1e-14


class _CountingBasis(list):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_operator_matrix_lookups_build_one_map():
    # index and coords share one basis-to-index map, built on first use
    M0 = operator_matrix(GeneratorSpec.D(), 4)
    basis = _CountingBasis(M0.basis)
    M = operators.OperatorMatrix(M0.n, basis, M0.entries)
    for i, m in enumerate(M0.basis):
        assert M.index(m) == i
        assert M.coords(TracePoly({m: 2.0}))[i] == 2.0
    assert basis.iterations == 1


def test_operator_matrix_number_operator_diagonal():
    gen = GeneratorSpec((("N0", 1.0), ("N1", 1.0)))
    M = operator_matrix(gen, 3)
    D = np.asarray(M.entries)
    assert np.abs(D - np.diag(np.diag(D))).max() == 0.0
    for i, m in enumerate(M.basis):
        assert D[i, i] == abs(m[0]) + sum(abs(j) * e for j, e in m[1])


def test_operator_matrix_commutes_with_apply():
    rng = np.random.default_rng(11)
    gen = GeneratorSpec.DN(3)
    M = operator_matrix(gen, 3)
    p = _rand_poly(rng, 3)
    lhs = np.asarray(M.entries) @ M.coords(p)
    rhs = M.coords(gen.apply(p))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_findim_perturbation_bound():
    # ||e^{M_D + eps M_L} - e^{M_D}|| / eps stays within a factor 4
    # across three decades of eps
    MD = np.asarray(operator_matrix(GeneratorSpec.D(), 3).entries)
    ML = np.asarray(operator_matrix(GeneratorSpec((("L", 1.0),)), 3).entries)
    base = scipy.linalg.expm(MD)
    quotients = []
    for eps in (1e-2, 1e-3, 1e-4):
        gap = np.linalg.norm(scipy.linalg.expm(MD + eps * ML) - base, 2)
        quotients.append(gap / eps)
    assert max(quotients) < 4.0 * min(quotients)
    assert min(quotients) > 0.0
