"""Test fixtures shared across modules."""

import pytest

from freesb.tracepoly import TracePoly


@pytest.fixture(scope="session")
def s_eq_t_series():
    """An exact oracle for Pi(t, t, u, z) that shares no code with freesb.

    At s = t the curve on the left of the generating-function identity is
    the identity map, so Pi(t, t, u, z) = (1 - u z e^{(t/2)(1+z)/(1-z)})^{-1} - 1.
    ``build(t, K)`` expands the right side with sympy at a rational t and
    returns its z^0..z^K coefficients as trace polynomials in u.  Only the
    test that calls it is skipped when sympy is not installed.
    """
    def build(t, K: int) -> list:
        sympy = pytest.importorskip("sympy")
        u, z = sympy.symbols("u z")
        rhs = 1 / (1 - u * z * sympy.exp(sympy.Rational(t) / 2 * (1 + z) / (1 - z))) - 1
        series = sympy.expand(sympy.series(rhs, z, 0, K + 1).removeO())
        return [TracePoly({(j, ()): complex(sympy.N(c, 30))
                           for (j,), c in sympy.Poly(series.coeff(z, k), u).terms()})
                for k in range(K + 1)]

    return build
