"""The semigroup kernel ``exp_series`` on the compiled reachable closure:
an independent dense oracle, its dense and Taylor kernels against each
other, homogeneity at any scale, inputs at the documented degree limit,
and the closure cache of ``exp_apply``."""

import json
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import freesb.operators as operators
from freesb import cli
from freesb.operators import GeneratorSpec, exp_apply, operator_matrix
from freesb.tracepoly import TracePoly, mono, parse
from freesb.transform import G, H
from freesb.words import WordPoly, apply_tilde, expectation, iota, iota_star

u = TracePoly.u

GENS = {"D": GeneratorSpec.D(), "DN3": GeneratorSpec.DN(3), "pi": GeneratorSpec.pi_gen()}


def _column(gen):
    """The column function of gen: one monomial to its image as (monomial,
    weight) pairs."""
    return lambda m: [(mi, gen.terms[k][1] * c) for mi, k, c in gen.parts(m)]


def _scaled(gen, theta):
    """The column function of theta * gen, with theta folded into the weights."""
    column = _column(gen)
    return lambda m: [(mi, theta * w) for mi, w in column(m)]


def _one_part(column):
    """A column of (monomial, weight) pairs as the column of a generator with
    one part, the form ``exp_series`` and ``_compile`` take."""
    return lambda m: [(mi, 0, w) for mi, w in column(m)]


def _compile(column, seed):
    """``operators._compile`` of a column of pairs: basis, rows, cols, vals."""
    basis, rows, cols, vals = operators._compile(_one_part(column), seed, 1)
    return basis, rows, cols, vals[:, 0]


def _exp(name, column, p):
    """e^G p for the one-part generator G given by a column of pairs; ``name``
    keys its closures, so it must name that column alone."""
    return operators.exp_series(_one_part(column), p, 1.0, ((name, 1.0),))


def _names(gen):
    return tuple(name for name, _ in gen.terms)


def _rand_poly(rng, deg, nterms=3):
    terms = {}
    for _ in range(nterms):
        budget = deg
        k0 = int(rng.integers(-deg, deg + 1))
        budget -= abs(k0)
        ve = {}
        while budget > 0 and rng.random() < 0.7:
            j = int(rng.integers(-budget, budget + 1))
            if j != 0:
                ve[j] = ve.get(j, 0) + 1
                budget -= abs(j)
        terms[(k0, tuple(sorted(ve.items())))] = complex(rng.normal(), rng.normal())
    return TracePoly(terms)


# ---------------------------------------------------------------- dense oracle


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", sorted(GENS))
@pytest.mark.parametrize("theta", [0.4, -0.3])
def test_exp_apply_matches_dense_expm(n, name, theta):
    # scipy's expm on the full C_n basis shares neither the closure basis
    # nor the Taylor kernel with exp_apply
    linalg = pytest.importorskip("scipy.linalg")
    gen = GENS[name]
    M = operator_matrix(gen, n)
    E = linalg.expm(theta * np.asarray(M.entries))
    rng = np.random.default_rng(1000 * n + len(name))
    full = TracePoly(dict(zip(M.basis, rng.normal(size=len(M.basis))
                              + 1j * rng.normal(size=len(M.basis)))))
    for p in (_rand_poly(rng, n), full):
        want = E @ M.coords(p)
        got = M.coords(exp_apply(gen, theta, p))
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max(), (n, name, theta)


# ---------------------------------------------------------------- two kernels

DEG12 = parse("u^2 v3^2 v-4 + 2 v1^4 v-2^2 v4 - v5 v-7")


def _closure(column, p):
    """p's closure under column: the COO arrays, p's coordinates, the 1-norm."""
    basis, rows, cols, vals = _compile(column, p.terms)
    x = np.zeros(len(basis), dtype=complex)
    x[:len(p.terms)] = list(p.terms.values())
    return rows, cols, vals, x, np.bincount(cols, np.abs(vals), len(basis)).max()


def _dn4_theta(k, target):
    """The theta at which ||theta D_4||_1 on the closure of u^k is ``target``."""
    return target / _closure(_column(GeneratorSpec.DN(4)), u(k))[4]


def _kernel_gap(rows, cols, vals, x, norm):
    """Largest gap between the dense and Taylor kernels, relative to the
    result's largest coefficient."""
    with np.errstate(over="raise", invalid="raise"):
        dense = operators._expm_dense(rows, cols, vals, x)
        taylor = operators._taylor_sparse(rows, cols, vals, x, norm)
    return np.abs(dense - taylor).max() / np.abs(taylor).max()


def _word_gen(m):
    q = WordPoly({m: 1.0})
    return (apply_tilde("Dst", q, 1.0, 0.0)
            + (1.0 / 16.0) * apply_tilde("Lst", q, 1.0, 0.0)).terms.items()


KERNEL_CASES = (
    [(f"D u^{k} theta={th}", _scaled(GeneratorSpec.D(), th), u(k))
     for k in range(-12, 13) for th in (0.4, -0.4)]
    + [("D_4 degree 12", _scaled(GeneratorSpec.DN(4), 0.4), DEG12),
       ("pi_gen", _scaled(GeneratorSpec.pi_gen(), -0.4), parse("v3 v4 v-5 + u^-2 v1")),
       ("word engine, N = 4", _word_gen, iota(TracePoly.v(2)) * iota_star(TracePoly.v(2)))]
    # D_4 on u^9 and u^10 (67 and 97 monomials) at the 1-norms where the dense
    # kernel took over from the Taylor kernel when its size cap replaced a cost rule
    + [(f"D_4 u^{k} 1-norm {target}", _scaled(GeneratorSpec.DN(4), _dn4_theta(k, target)), u(k))
       for k, targets in ((9, (0.3, 1.0, 2.5)), (10, (0.3, 1.0, 2.5, 5.0, 10.0)))
       for target in targets])


@pytest.mark.parametrize("name, column, p", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_dense_and_taylor_kernels_agree(name, column, p):
    rows, cols, vals, x, norm = _closure(column, p)
    assert _kernel_gap(rows, cols, vals, x, norm) <= 1e-12, name
    # the third kernel: exp_series takes the terminating sum on the graded
    # closures (D and PI_GEN) and one of the other two elsewhere
    basis = _compile(column, p.terms)[0]
    dense = operators._expm_dense(rows, cols, vals, x)
    got = _exp(name, column, p)
    gap = max(abs(got.coeff(m) - c) for m, c in zip(basis, dense))
    assert gap <= 1e-12 * np.abs(dense).max(), name


def _complex_dense(rows, cols, vals, x):
    """The dense kernel in complex arithmetic, whatever the values."""
    A = np.zeros((1, len(x), len(x)), dtype=complex)
    A[0, rows, cols] = vals
    return operators._expm_batch(A)[0] @ x


REAL_CASES = [("0.4 D_4 on u^4", _scaled(GeneratorSpec.DN(4), 0.4), u(4)),
              ("0.4 D_4 on u^-6", _scaled(GeneratorSpec.DN(4), 0.4), u(-6)),
              ("0.4 D_4 on u^7", _scaled(GeneratorSpec.DN(4), 0.4), u(7)),
              ("word engine, N = 4", _word_gen, iota(TracePoly.v(2)) * iota_star(TracePoly.v(2)))]


@pytest.mark.parametrize("name, column, p", REAL_CASES, ids=[c[0] for c in REAL_CASES])
def test_real_closures_take_the_float64_kernel(closures, monkeypatch, name, column, p):
    # exp_series runs a real closure's dense kernel in float64, and its
    # coefficients are the complex kernel's to 4 n u of the largest
    batch, dtypes = operators._expm_batch, []
    monkeypatch.setattr(operators, "_expm_batch", lambda Ms: dtypes.append(Ms.dtype) or batch(Ms))
    got = _exp(name, column, p)
    assert dtypes == [np.float64]
    monkeypatch.setattr(operators, "_expm_dense", _complex_dense)
    closures.clear()
    want = _exp(name, column, p)
    assert dtypes[1:] == [np.complex128] and got.terms.keys() == want.terms.keys()
    bound = 4 * len(want.terms) * 2.0 ** -53 * max(map(abs, want.terms.values()))
    assert all(abs(got.terms[m] - c) <= bound for m, c in want.terms.items()), name


def test_kernels_agree_at_large_theta():
    # |theta| ||G||_1 up to 10^3 (up to 12 squarings on the dense side, 500
    # stages on the Taylor side), results from 1e-140 to 1e+232 in size
    worst = 0.0
    for gen, p in ((GeneratorSpec.D(), u(3)), (GeneratorSpec.D(), u(-8)),
                   (GeneratorSpec.DN(3), parse("u^3 v-2 + v1 v2")),
                   (GeneratorSpec.pi_gen(), parse("v3 v4 v-5"))):
        rows, cols, vals, x, norm = _closure(_column(gen), p)
        for target in (10.0, 100.0, 1000.0):
            for sign in (1.0, -1.0):
                theta = sign * target / norm
                worst = max(worst, _kernel_gap(rows, cols, theta * vals, x, target))
    assert worst <= 1e-12, worst


def _count_kernels(monkeypatch):
    """Record the shape of every ``_expm_batch`` input and the size of every
    ``_taylor_sparse`` input."""
    calls = {"dense": [], "taylor": []}
    batch, taylor = operators._expm_batch, operators._taylor_sparse
    monkeypatch.setattr(operators, "_expm_batch",
                        lambda Ms: calls["dense"].append(Ms.shape) or batch(Ms))
    monkeypatch.setattr(operators, "_taylor_sparse", lambda rows, cols, vals, x, norm:
                        calls["taylor"].append(len(x)) or taylor(rows, cols, vals, x, norm))
    return calls


@pytest.mark.parametrize("kernel", ["graded", "dense", "taylor"])
def test_a_coefficient_that_cancels_to_zero_is_not_kept(monkeypatch, kernel):
    # A maps u -> u^2 (and, off the graded case, u^3 <-> u^4): e^A (u - u^2 + ...)
    # has u^2 coefficient -1 + 1 = 0 exactly in every kernel, and the result is
    # what TracePoly.__init__ builds from its terms
    monkeypatch.setattr(operators, "_closures", operators._Cache())
    monkeypatch.setattr(operators, "_images", operators._Cache())
    calls = _count_kernels(monkeypatch)
    if kernel == "taylor":
        monkeypatch.setattr(operators, "DENSE_MAX_N", 0)
    edges = {1: [2]} if kernel == "graded" else {1: [2], 3: [4], 4: [3]}
    p = u(1) - u(2) + (0 if kernel == "graded" else u(3))
    out = _exp(f"cancel-{kernel}", lambda m: [(mono(j), 1.0) for j in edges.get(m[0], [])], p)
    assert (len(calls["dense"]), len(calls["taylor"])) == {
        "graded": (0, 0), "dense": (1, 0), "taylor": (0, 1)}[kernel]
    assert mono(2) not in out.terms and out.coeff(mono(1)) == 1
    assert type(out) is TracePoly and out.terms == TracePoly(dict(out.terms)).terms
    assert all(type(c) is complex and c for c in out.terms.values())


def test_kernels_raise_where_a_row_sum_overflows():
    # _matvec sums each row by bincount, which sets no numpy error flag, but
    # the complex division by k that follows turns an inf into an invalid
    # operation: exp_series, which builds its result with no finite check,
    # gets FloatingPointError from every kernel, never an inf
    rows, cols = np.array([0, 0]), np.array([1, 2])
    vals, x = np.ones(2, dtype=complex), np.array([0, 1.5e308, 1.5e308], dtype=complex)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError):
            operators._graded_rows(rows, cols, vals, x)
        with pytest.raises(FloatingPointError):
            operators._taylor_sparse(rows, cols, vals, x, 1.0)


def test_kernel_choice(monkeypatch):
    calls = _count_kernels(monkeypatch)
    # graded closures take the terminating sum and neither kernel
    exp_apply(GeneratorSpec.D(), 0.4, u(6))
    exp_apply(GeneratorSpec.pi_gen(), -0.4, parse("v3 v4 v-5 + u^-2 v1"))
    assert calls == {"dense": [], "taylor": []}
    # L lowers the factor count, so D_4's closures are not graded
    exp_apply(GeneratorSpec.DN(4), 0.4, u(6))
    assert calls == {"dense": [(1, 19, 19)], "taylor": []}
    # the 846-monomial closure is above the dense kernel's size cap
    exp_apply(GeneratorSpec.DN(4), 0.4, DEG12)
    # ||0.95 D_4||_1 = 95 on the closure of u^10 would take 9 squarings
    exp_apply(GeneratorSpec.DN(4), -0.95, u(10))
    assert calls == {"dense": [(1, 19, 19)], "taylor": [846, 97]}
    # within the squaring cap the size alone decides, at any 1-norm: D_4 on
    # u^9 (67 monomials) goes dense and on u^11 (139) sparse, and so do 128
    # and 129 monomials that each map onto all of them, however many entries
    for k, target in ((9, 0.3), (9, 2.5), (11, 0.3), (11, 19.0)):
        exp_apply(GeneratorSpec.DN(4), _dn4_theta(k, target), u(k))
    for n in (128, 129):
        _exp(f"uniform {n}", lambda m: [(mono(j), 1.0 / n) for j in range(n)], TracePoly.one())
    assert calls == {"dense": [(1, 19, 19), (1, 67, 67), (1, 67, 67), (1, 128, 128)],
                     "taylor": [846, 97, 139, 139, 129]}


def _word_mu_N1(m):
    q = WordPoly({m: 1.0})
    return (apply_tilde("Dst", q, 1.5, 0.8) + apply_tilde("Lst", q, 1.5, 0.8)).terms.items()


GRID_CASES = [("D_4 on u^3", _column(GeneratorSpec.DN(4)), u(3)),
              ("D_2 on u^2 v-1 + v1^2", _column(GeneratorSpec.DN(2)), parse("u^2 v-1 + v1^2")),
              ("D_1 on u^4", _column(GeneratorSpec.DN(1)), u(4)),
              ("word engine, mu at N = 1", _word_mu_N1, WordPoly.var("aass")),
              ("word engine, N = 4", _word_gen, iota(TracePoly.v(2)) * iota_star(TracePoly.v(2)))]


def _mp_exp(rows, cols, vals, x):
    """e^A x for the COO matrix A = (rows, cols, vals), to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        A = mpmath.zeros(len(x))
        for r, c, a in zip(rows, cols, vals):
            A[int(r), int(c)] += mpmath.mpc(a.real, a.imag)
        y = mpmath.expm(A) * mpmath.matrix([mpmath.mpc(z.real, z.imag) for z in x])
        return np.array([complex(z) for z in y])


@pytest.mark.parametrize("name, column, p", GRID_CASES, ids=[c[0] for c in GRID_CASES])
def test_kernel_choice_follows_accuracy(monkeypatch, name, column, p):
    # at 1-norms 0.7 * 2^k, k = 0..7, the dense kernel takes 2 to 9 squarings;
    # wherever exp_series picks it, its normwise error against a 40-digit
    # exponential is at most twice the Taylor kernel's, or 1e-14, and from 7
    # squarings on (D_4 on u^3: 8.5e-15 and 1.7e-14 dense at 0.7 * 2^5 and
    # 0.7 * 2^6, 1.0e-15 and 8.5e-16 Taylor) the Taylor kernel runs
    rows, cols, vals, x, norm = _closure(column, p)
    calls = _count_kernels(monkeypatch)
    picked = []
    for target in 0.7 * 2.0 ** np.arange(8):
        theta = target / norm
        calls["dense"].clear()
        operators.exp_series(_one_part(column), p, theta, ((name, 1.0),))
        picked.append("dense" if calls["dense"] else "taylor")
        if calls["dense"]:
            want = _mp_exp(rows, cols, theta * vals, x)
            dense = operators._expm_dense(rows, cols, theta * vals, x)
            taylor = operators._taylor_sparse(rows, cols, theta * vals, x, target)
            gap = [np.abs(y - want).max() / np.abs(want).max() for y in (dense, taylor)]
            assert gap[0] <= max(2 * gap[1], 1e-14), (name, target, gap)
    assert picked == ["dense"] * 5 + ["taylor"] * 3, name


def test_degree_12_D_runs_neither_kernel(monkeypatch):
    calls = _count_kernels(monkeypatch)
    for p in (u(12), u(-12), DEG12):
        exp_apply(GeneratorSpec.D(), -0.15, p)
    G(u(12), 2.25, 2.25)
    H(u(12), 1.5, 0.8)
    assert calls == {"dense": [], "taylor": []}


# ---------------------------------------------------------------- graded closures


def _exact_exp(column, p):
    """e^A p, exactly, for the compiled float matrix A of a graded closure:
    the nilpotent part's sum over the rationals, times the exponential of
    the (constant) diagonal to 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    basis, rows, cols, vals = _compile(column, p.terms)
    diag = {int(r): Fraction(v.real) for r, c, v in zip(rows, cols, vals) if r == c}
    off = [(int(r), int(c), Fraction(v.real)) for r, c, v in zip(rows, cols, vals) if r != c]
    assert len(set(diag.values())) == 1 and all(r > c for r, c, _ in off)
    term = [Fraction(c.real) for c in p.terms.values()]
    term += [Fraction(0)] * (len(basis) - len(term))
    total, k = list(term), 0
    while any(term):
        k += 1
        nxt = [Fraction(0)] * len(basis)
        for r, c, v in off:
            nxt[r] += v * term[c]
        term = [y / k for y in nxt]
        total = [a + b for a, b in zip(total, term)]
    with mpmath.workdps(60):
        d = diag.popitem()[1]
        scale = mpmath.exp(mpmath.mpf(d.numerator) / d.denominator)
        return dict(zip(basis, (scale * mpmath.mpf(y.numerator) / y.denominator for y in total)))


@pytest.mark.parametrize("theta", [-2.0, -0.15, 0.95, 2.0])
def test_graded_sum_is_exact_to_roundoff(theta):
    # componentwise, within 8 units of roundoff u = 2^-53 of the exact
    # exponential of the compiled matrix (the sparse Taylor kernel is off by
    # up to 5.4e-12 here); the rounding of the weights theta * n when the
    # column is compiled is common to every kernel and not counted
    worst = 0.0
    for k in [k for k in range(-12, 13) if k]:
        want = _exact_exp(_scaled(GeneratorSpec.D(), theta), u(k))
        got = exp_apply(GeneratorSpec.D(), theta, u(k))
        for m, w in want.items():
            if abs(w) > 1e-290:  # below that the result underflows
                worst = max(worst, float(abs(got.coeff(m) - w) / abs(w)))
    assert worst <= 8 * 2.0 ** -53, worst / 2.0 ** -53


@pytest.mark.parametrize("theta", [-2.0, -0.15, 0.95, 2.0])
def test_graded_sum_is_exact_to_roundoff_on_a_hit(closures, theta):
    # the same bound from the kept rows M^k x / k!: each theta after a call
    # at another theta on the same closure and seed
    worst = 0.0
    for k in [k for k in range(-12, 13) if k]:
        want = _exact_exp(_scaled(GeneratorSpec.D(), theta), u(k))
        exp_apply(GeneratorSpec.D(), 0.5 - theta, u(k))
        got = exp_apply(GeneratorSpec.D(), theta, u(k))
        for m, w in want.items():
            if abs(w) > 1e-290:
                worst = max(worst, float(abs(got.coeff(m) - w) / abs(w)))
    assert worst <= 8 * 2.0 ** -53, worst / 2.0 ** -53


def _dense_exp(column, p):
    """e^A p by the dense kernel alone, on the compiled closure."""
    basis, rows, cols, vals = _compile(column, p.terms)
    x = np.zeros(len(basis), dtype=complex)
    x[:len(p.terms)] = list(p.terms.values())
    return dict(zip(basis, operators._expm_dense(rows, cols, vals, x)))


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(-0.5, 0.5),
       st.sampled_from(["D", "pi"]))
@settings(max_examples=60, deadline=None)
def test_graded_sum_matches_dense_kernel(seed, deg, theta, name):
    rng = np.random.default_rng(seed)
    # mixed factor counts, and u^3 + v1 u^2 in both orders and u^3 + v1^2 u:
    # M maps u^3 onto v1 u^2 and that onto v1^2 u, so the last two put entries
    # above the diagonal in the search order and are graded all the same
    p = _rand_poly(rng, deg, nterms=int(rng.integers(1, 5)))
    for q in (p, p + parse("u^3 + v1 u^2"), p + parse("v1 u^2 + u^3"),
              p + parse("u^3 + v1^2 u")):
        want = _dense_exp(_scaled(GENS[name], theta), q)
        got = exp_apply(GENS[name], theta, q)
        scale = max(abs(c) for c in want.values())
        for m, w in want.items():
            assert abs(got.coeff(m) - w) <= 1e-13 * scale, (m, got.coeff(m), w)


def test_graded_test_needs_equal_diagonals(monkeypatch):
    # u -> u + u^2 and u^2 -> 2 u^2: lower triangular, but the diagonal
    # does not commute with the off-diagonal part, so the dense kernel runs;
    # e^A u = e u + (e^2 - e) u^2
    calls = _count_kernels(monkeypatch)
    a, b = mono(1), mono(2)
    got = _exp("u -> u + u^2, u^2 -> 2 u^2",
               lambda m: [(m, 1.0), (b, 1.0)] if m == a else [(m, 2.0)], TracePoly({a: 1.0}))
    assert len(calls["dense"]) == 1
    e = np.e
    assert abs(got.coeff(a) - e) <= 1e-15 * e
    assert abs(got.coeff(b) - (e * e - e)) <= 1e-15 * e * e


def test_graded_test_ignores_the_term_order(monkeypatch):
    # M maps u^3 onto v1 u^2 and v1 u^2 onto v1^2 u; the search starts at the
    # input's terms, so the last three orders put entries above the diagonal,
    # and each closure is still graded
    calls = _count_kernels(monkeypatch)
    for f in ("u^3 + v1 u^2", "v1 u^2 + u^3", "u^3 + v1^2 u", "v1^2 u + u^3"):
        exp_apply(GeneratorSpec.D(), 0.3, parse(f))
    assert calls == {"dense": [], "taylor": []}


def test_graded_test_rejects_a_cycle(monkeypatch):
    # u -> u + u^2 and u^2 -> u^2 + u: equal diagonals, but M u = u^2 and
    # M u^2 = u is a cycle, so M is not nilpotent; e^A u = e (cosh 1 u + sinh 1 u^2)
    calls = _count_kernels(monkeypatch)
    a, b = mono(1), mono(2)
    got = _exp("u -> u + u^2, u^2 -> u^2 + u",
               lambda m: [(m, 1.0), (b if m == a else a, 1.0)], TracePoly({a: 1.0}))
    assert len(calls["dense"]) == 1
    e = np.e
    assert abs(got.coeff(a) - e * np.cosh(1.0)) <= 1e-15 * e * e
    assert abs(got.coeff(b) - e * np.sinh(1.0)) <= 1e-15 * e * e


# ---------------------------------------------------------------- compiled columns


def _compile_by_polynomials(gen, seed):
    """The closure search with one ``gen.apply`` polynomial per column: an
    oracle for ``_compile``'s merge of the column pairs in one dict."""
    basis = list(seed)
    index = {m: i for i, m in enumerate(basis)}
    rows, cols, vals = [], [], []
    for j, m in enumerate(basis):
        for mi, c in gen.apply(TracePoly({m: 1.0})).terms.items():
            if mi not in index:
                index[mi] = len(basis)
                basis.append(mi)
            rows.append(index[mi])
            cols.append(j)
            vals.append(c)
    return basis, np.array(rows), np.array(cols), np.array(vals, dtype=complex)


@pytest.mark.parametrize("gen, p", [(GeneratorSpec.D(), u(k)) for k in range(-12, 13)]
                         + [(GeneratorSpec.DN(4), DEG12),
                            (GeneratorSpec.pi_gen(), parse("v3 v4 v-5 + u^-2 v1"))])
def test_compile_matches_polynomial_columns(gen, p):
    # one value per part and entry; the weights sum them to the oracle's values
    basis, rows, cols, parts = operators._compile(gen.parts, p.terms, len(gen.terms))
    want_basis, *want = _compile_by_polynomials(gen, p.terms)
    assert basis == want_basis
    for got, ref in zip((rows, cols, parts @ [w for _, w in gen.terms]), want):
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------- homogeneity


@pytest.mark.parametrize("c", [1e-6, 1e-9, 1e-12, 1e-30, 1e30])
def test_G_is_homogeneous_at_small_scale(c):
    ref = G(u(3), 1.5, 0.8)
    got = G(c * u(3), 1.5, 0.8) / c
    assert set(got.terms) == set(ref.terms)
    assert (got - ref).coeff_max() <= 1e-12 * ref.coeff_max()


@pytest.mark.parametrize("c", [1e-30, 1e-20, 1e20, 1e30])
def test_semigroups_keep_their_terms_at_any_scale(c):
    # storage drops exact zeros only, so each result at c * f, over c, has
    # the monomials of the result at f; an absolute floor once zeroed all
    # of them at c <= 1e-20
    f, q = parse("u^3 + 1e-13 v1 u^2"), parse("u^2 v-1 + 2 v1 v2 - u^-1 v3")
    pairs = [(G(c * f, 1.5, 0.8) / c, G(f, 1.5, 0.8))] + [
        (exp_apply(gen, 0.5, c * q) / c, exp_apply(gen, 0.5, q))
        for gen in (GeneratorSpec.D(), GeneratorSpec.DN(4), GeneratorSpec.pi_gen())]
    for got, ref in pairs:
        assert set(got.terms) == set(ref.terms)
        assert got.allclose(ref, rel=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(-30.0, 30.0), st.floats(-0.5, 0.5),
       st.sampled_from(sorted(GENS)))
@example(1, -30.0, 0.5, "DN3")
@example(2, 30.0, -0.5, "pi")
@settings(max_examples=40, deadline=None)
def test_exp_apply_is_homogeneous(seed, log_c, theta, name):
    # storage drops exact zeros only, so no scale loses a term
    c = 10.0 ** log_c
    p = _rand_poly(np.random.default_rng(seed), 4)
    lhs = exp_apply(GENS[name], theta, c * p)
    rhs = exp_apply(GENS[name], theta, p)
    scale = rhs.coeff_max()
    for m in set(lhs.terms) | set(rhs.terms):
        a, b = lhs.coeff(m), rhs.coeff(m)
        assert abs(a / c - b) <= 1e-12 * scale, (m, a / c, b)


# ---------------------------------------------------------------- degree 12


def test_round_trip_at_degree_12():
    s, t = 1.5, 0.8
    f = u(12)
    assert (H(G(f, s, t), s, t) - f).coeff_max() < 1e-9
    assert (G(H(f, s, t), s, t) - f).coeff_max() < 1e-9


def test_DN_semigroup_at_degree_12():
    # a v-heavy input whose closure under D_4 holds several hundred monomials
    p = parse("u^2 v3^2 v-4 + 2 v1^4 v-2^2 v4 - v5 v-7")
    assert p.trace_degree() == 12
    gen = GeneratorSpec.DN(4)
    one = exp_apply(gen, 0.5, p)
    two = exp_apply(gen, 0.25, exp_apply(gen, 0.25, p))
    assert one.trace_degree() <= 12
    assert (one - two).coeff_max() <= 1e-12 * one.coeff_max()
    # linearity across inputs with different closures
    parts = sum((exp_apply(gen, 0.5, TracePoly({m: c})) for m, c in p.terms.items()),
                TracePoly.zero())
    assert (parts - one).coeff_max() <= 1e-12 * one.coeff_max()


def test_stage_bound_raises_before_any_stage():
    # ||(t/2) D_4||_1 on the closure of u^6 is 1.8e6 at t = 1e5: 900,000
    # stages (D's closure is graded and takes the terminating sum at any t)
    gen = GeneratorSpec.DN(4)
    with pytest.raises(ValueError, match="MAX_WORK"):
        exp_apply(gen, 0.5e5, u(6))
    # 900 stages run; D_4 has the eigenvalue 3/2 here, so e^{50 D_4} u^6 grows
    one = exp_apply(gen, 50.0, u(6))
    two = exp_apply(gen, 30.0, exp_apply(gen, 20.0, u(6)))
    assert one.coeff_max() > 1e30
    assert (one - two).coeff_max() <= 1e-12 * one.coeff_max()


# ---------------------------------------------------------------- closure cache


@pytest.fixture
def closures():
    """The closure cache of exp_apply, empty, and emptied again afterwards,
    each time with the image cache."""
    operators._closures.clear()
    operators._images.clear()
    yield operators._closures
    operators._closures.clear()
    operators._images.clear()


def _bits(q):
    return repr(list(q.terms.items()))


def _cold_then_warm(closures, calls, p):
    """exp_apply on p for each (gen, theta) of calls, each from an empty
    cache and then all in turn from one: both lists of results, bitwise."""
    cold = []
    for gen, theta in calls:
        closures.clear()
        cold.append(_bits(exp_apply(gen, theta, p)))
    closures.clear()
    return cold, [_bits(exp_apply(gen, theta, p)) for gen, theta in calls]


@pytest.mark.parametrize("gen, p", [(GeneratorSpec.D(), u(6)), (GeneratorSpec.D(), u(-9)),
                                    (GeneratorSpec.pi_gen(), parse("v3 v4 v-5 + u^-2 v1")),
                                    (GeneratorSpec.DN(4), u(6)), (GeneratorSpec.DN(4), DEG12)])
def test_cache_hit_is_bitwise_a_cold_call(closures, gen, p):
    # one compile, then every theta from the cache
    cold, warm = _cold_then_warm(closures, [(gen, theta) for theta in (0.4, -0.3, 0.95, -2.0)], p)
    assert warm == cold
    assert list(closures) == [(_names(gen), tuple(p.terms))]


@pytest.mark.parametrize("p", [u(6), u(-3) + parse("v1 v-2"), DEG12])
def test_DN_shares_one_closure_across_N(closures, p):
    calls = [(GeneratorSpec.DN(N), theta) for N in (3, 4, 8) for theta in (0.4, -0.3)]
    cold, warm = _cold_then_warm(closures, calls, p)
    assert warm == cold
    assert list(closures) == [(("N", "Z", "Y", "L"), tuple(p.terms))]


def test_cache_keys_hold_the_generator_and_the_term_order(closures):
    a, b = parse("u^3 + v1 u^2"), parse("v1 u^2 + u^3")
    assert list(a.terms) == list(reversed(b.terms))
    calls = [(GeneratorSpec.D(), u(6)), (GeneratorSpec.DN(4), u(6)),
             (GeneratorSpec.D(), a), (GeneratorSpec.D(), b), (GeneratorSpec.DN(3), u(6))]
    warm = [exp_apply(gen, 0.3, p) for gen, p in calls]
    # the weights are not in the key: D_3 hits D_4's entry and moves it last
    assert list(closures) == [(_names(gen), tuple(p.terms)) for gen, p in calls[:1] + calls[2:]]
    for (gen, p), got in zip(calls, warm):
        closures.clear()
        assert _bits(got) == _bits(exp_apply(gen, 0.3, p))
    assert (warm[2] - warm[3]).coeff_max() <= 1e-15 * warm[2].coeff_max()
    assert (warm[0] - warm[1]).coeff_max() > 1e-3
    assert (warm[1] - warm[4]).coeff_max() > 1e-3


def test_graded_rows_are_kept_per_seed(closures, monkeypatch):
    # a new theta on a kept closure and seed runs no sparse product and is
    # bitwise a cold call; new seed coefficients rebuild the rows
    gen, p = GeneratorSpec.D(), u(8) + 2 * parse("v1 u^7")
    cold = []
    for q in (p, 3 * p):
        closures.clear()
        cold.append(_bits(exp_apply(gen, -1.1, q)))
    closures.clear()
    exp_apply(gen, 0.4, p)
    products, matvec = [], operators._matvec
    monkeypatch.setattr(operators, "_matvec", lambda *a: products.append(1) or matvec(*a))
    assert _bits(exp_apply(gen, -1.1, p)) == cold[0] and not products
    assert _bits(exp_apply(gen, -1.1, 3 * p)) == cold[1] and products
    assert len(closures) == 1


def test_cache_hit_calls_no_column(closures, monkeypatch):
    # a hit calls no column function and reads no operator of _COLUMNS
    reads, calls = [], []

    class Spy(dict):
        def __getitem__(self, name):
            reads.append(name)
            return super().__getitem__(name)

    monkeypatch.setattr(operators, "_COLUMNS", Spy(operators._COLUMNS))
    parts = GeneratorSpec.parts
    monkeypatch.setattr(GeneratorSpec, "parts", lambda gen, m: calls.append(m) or parts(gen, m))
    exp_apply(GeneratorSpec.DN(4), 0.3, u(4))
    assert reads and calls
    del reads[:], calls[:]
    for gen, theta in ((GeneratorSpec.DN(4), -0.2), (GeneratorSpec.DN(8), 0.3)):
        exp_apply(gen, theta, u(4))
    assert reads == [] and calls == []


def test_cache_stays_within_its_budget(closures, monkeypatch):
    held, calls = [], 0
    for m in operators.monomial_basis(5):
        for gen in (GeneratorSpec.D(), GeneratorSpec.DN(3)):
            exp_apply(gen, 0.2, TracePoly({m: 1.0}))
            calls += 1
            held.append(sum(len(c[0]) for c in closures.values()))
    assert max(held) <= operators.CLOSURE_BUDGET < sum(held)
    assert 0 < len(closures) < calls
    assert list(closures)[-1] == (_names(GeneratorSpec.DN(3)), (m,))
    # a closure over the budget is not stored; a hit moves its entry last
    monkeypatch.setattr(operators, "CLOSURE_BUDGET", 18)
    closures.clear()
    exp_apply(GeneratorSpec.D(), 0.2, u(2))
    exp_apply(GeneratorSpec.D(), 0.2, u(3))
    exp_apply(GeneratorSpec.D(), 0.2, u(6))  # 19 monomials
    names = _names(GeneratorSpec.D())
    assert list(closures) == [(names, (mono(2),)), (names, (mono(3),))]
    exp_apply(GeneratorSpec.D(), -0.2, u(2))
    assert list(closures)[-1] == (names, (mono(2),))


def test_checks_run_on_a_cache_hit(closures):
    gen = GeneratorSpec.DN(4)
    exp_apply(gen, 0.4, u(6))
    assert len(closures) == 1
    with pytest.raises(ValueError, match="MAX_WORK"):
        exp_apply(gen, 0.5e5, u(6))
    for gen, theta, k in ((GeneratorSpec.D(), -2.0, 6), (GeneratorSpec.DN(4), -4.0, 3)):
        exp_apply(gen, theta, u(k))
        with pytest.raises(FloatingPointError):
            exp_apply(gen, theta, 1e307 * u(k))
    # the degree check comes before the lookup
    with pytest.raises(ValueError, match="trace degree"):
        exp_apply(GeneratorSpec.D(), 0.1, u(25))


def test_word_engine_keys_by_its_parts(closures):
    # mu and rho compile the same four parts, rho on the unitary words
    Z2 = iota(TracePoly.v(2)) * iota_star(TracePoly.v(2))
    expectation(Z2, 1.5, 0.8, 4)
    expectation(Z2, 1.2, 0.0, 4)
    unitary = iota(TracePoly.v(2) * TracePoly.v(-2))
    parts = ("Dst+", "Lst+", "Dst-", "Lst-")
    assert list(closures) == [(parts, tuple(Z2.terms)), (parts, tuple(unitary.terms))]


def test_concentration_compiles_once(closures, monkeypatch, capsys):
    # the symbolic sweep takes one word input to four N: one compile
    seeds, compile_ = [], operators._compile
    monkeypatch.setattr(operators, "_compile",
                        lambda column, seed, nparts: seeds.append(seed) or
                        compile_(column, seed, nparts))
    assert cli.main(["concentration", "--p", "v2", "--s", "1.0", "--Ns", "4,8,16,32"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["rows"]) == 4
    assert len(seeds) == 1


@pytest.mark.parametrize("p", [iota(TracePoly.v(2)) * iota_star(TracePoly.v(2)),
                               iota(TracePoly.v(3)) + 2.0 * iota_star(TracePoly.v(1) * TracePoly.v(1))])
def test_word_engine_hit_is_bitwise_a_cold_call(closures, p):
    # rho and mu, s = t included (the beta_+ and beta_- diagonals cancel)
    calls = [(s, t, N) for s, t in ((1.0, 0.0), (2.0, 0.0), (1.5, 0.8), (1.2, 1.2), (0.9, 1.5))
             for N in (2, 3, 8)]
    cold = []
    for call in calls:
        closures.clear()
        cold.append(expectation(p, *call))
    closures.clear()
    assert [expectation(p, *call) for call in calls] == cold
    assert len(closures) == 2


def _newest(closures):
    """The newest closure entry's basis, rows, cols and part values, bitwise."""
    basis, rows, cols, vals = list(closures.values())[-1][:4]
    return basis, rows.tobytes(), cols.tobytes(), vals.tobytes()


Z2 = iota(TracePoly.v(2)) * iota_star(TracePoly.v(2))


@pytest.mark.parametrize("first, second", [
    ((GeneratorSpec.D(), parse("u^4 + v1 u^2")), (GeneratorSpec.D(), parse("u^5 + v1 u^2"))),
    ((GeneratorSpec.DN(3), parse("u^4 v-1")), (GeneratorSpec.DN(8), parse("u^-5 + u^4 v-1"))),
    ((GeneratorSpec.pi_gen(), parse("v4 v-2")), (GeneratorSpec.pi_gen(), parse("v5 + v4 v-2"))),
    ((Z2, 1.0, 0.0, 4), (iota(TracePoly.v(3)) + Z2, 2.0, 0.0, 8)),  # the word engine: rho
    ((Z2, 1.5, 0.8, 4), (iota(TracePoly.v(3)) + Z2, 1.2, 0.5, 8))])  # and mu
def test_compile_after_another_is_bitwise_a_cold_one(closures, first, second):
    # the second compile reads part of its closure from the images the first
    # kept, under the same part names at another N, s or t
    def run(call):
        if isinstance(call[0], GeneratorSpec):
            exp_apply(call[0], 0.3, call[1])
        else:
            expectation(*call)

    run(second)
    cold = _newest(closures)
    closures.clear()
    operators._images.clear()
    run(first)
    names = list(closures)[-1][0]
    held = {m for key, m in operators._images if key == names}
    closures.clear()
    run(second)
    assert _newest(closures) == cold
    assert 0 < len(held & set(cold[0])) < len(cold[0])


def test_image_cache_stays_within_its_budget(closures, monkeypatch):
    monkeypatch.setattr(operators, "CLOSURE_BUDGET", 40)
    held = []
    for m in operators.monomial_basis(4):
        for gen in (GeneratorSpec.D(), GeneratorSpec.DN(3)):
            exp_apply(gen, 0.2, TracePoly({m: 1.0}))
            held.append(len(operators._images))
    assert max(held) == 40
    # a closure over the budget keeps no image: D's of u^6 has 19 monomials
    monkeypatch.setattr(operators, "CLOSURE_BUDGET", 18)
    operators._images.clear()
    exp_apply(GeneratorSpec.D(), 0.2, u(6))
    assert operators._images == {}


def test_refused_search_keeps_no_image(closures, capsys):
    argv = ["heat-apply", "--gen", "DN", "--N", "8", "--t", "1", "--f", "u^12 v-12"]
    assert cli.main(argv) == 1
    assert "MAX_CLOSURE" in capsys.readouterr().err
    assert closures == {} and operators._images == {}


def test_cache_under_threads(closures, monkeypatch):
    # more threads than cores and a short switch interval, on a budget that
    # forces evictions: no call raises, every result is bitwise the serial one,
    # and the cache ends within its budget
    monkeypatch.setattr(operators, "CLOSURE_BUDGET", 40)
    jobs = [(gen, theta, u(k)) for gen in (GeneratorSpec.D(), GeneratorSpec.DN(3))
            for theta in (0.3, -0.2) for k in range(-6, 7)]
    want = [_bits(exp_apply(*job)) for job in jobs]
    got, errors = {}, []

    def work(offset):
        try:
            for i in range(len(jobs)):
                j = (i + offset) % len(jobs)
                got[offset, j] = _bits(exp_apply(*jobs[j]))
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert all(got[offset, j] == want[j] for offset, j in got) and len(got) == 6 * len(jobs)
    assert sum(len(c[0]) for c in closures.values()) <= 40


def test_closure_budget():
    # a chain 0 -> 1 -> ... of exactly MAX_CLOSURE monomials compiles; one
    # more, or a seed past the bound, raises before its column is built
    n = operators.MAX_CLOSURE

    def chain(length):
        return lambda m: [(m + 1, 1.0)] if m + 1 < length else []

    assert len(_compile(chain(n), [0])[0]) == n
    for column, seed in ((chain(n + 1), [0]), (chain(0), range(n + 1))):
        with pytest.raises(ValueError, match=f"MAX_CLOSURE={n}"):
            _compile(column, seed)
