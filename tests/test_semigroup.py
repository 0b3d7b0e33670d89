"""The semigroup kernel ``exp_series`` on the compiled reachable closure:
an independent dense oracle, homogeneity at any scale, and inputs at the
documented degree limit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freesb.operators import GeneratorSpec, exp_apply, operator_matrix
from freesb.tracepoly import CLEANUP_EPS, TracePoly, parse
from freesb.transform import G, H

u = TracePoly.u

GENS = {"D": GeneratorSpec.D(), "DN3": GeneratorSpec.DN(3), "pi": GeneratorSpec.pi_gen()}


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


# ---------------------------------------------------------------- homogeneity


@pytest.mark.parametrize("c", [1e-6, 1e-9, 1e-12])
def test_G_is_homogeneous_at_small_scale(c):
    ref = G(u(3), 1.5, 0.8)
    got = G(c * u(3), 1.5, 0.8) / c
    assert set(got.terms) == set(ref.terms)
    assert (got - ref).coeff_max() <= 1e-12 * ref.coeff_max()


@given(st.integers(0, 2**32 - 1), st.floats(-8.0, 8.0), st.floats(-0.5, 0.5),
       st.sampled_from(sorted(GENS)))
@settings(max_examples=40, deadline=None)
def test_exp_apply_is_homogeneous(seed, log_c, theta, name):
    c = 10.0 ** log_c
    p = _rand_poly(np.random.default_rng(seed), 4)
    lhs = exp_apply(GENS[name], theta, c * p)
    rhs = exp_apply(GENS[name], theta, p)
    scale = rhs.coeff_max()
    for m in set(lhs.terms) | set(rhs.terms):
        a, b = lhs.coeff(m), rhs.coeff(m)
        # the only exemption: a coefficient the TracePoly constructor
        # dropped below its absolute floor on one side
        if (m not in lhs.terms and abs(c * b) < CLEANUP_EPS) or \
                (m not in rhs.terms and abs(a / c) < CLEANUP_EPS):
            continue
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
