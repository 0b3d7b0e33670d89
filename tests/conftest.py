"""Test fixtures shared across modules."""

import numpy as np
import pytest

from freesb.matrixlab import evaluate
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


@pytest.fixture(scope="session")
def equivariance_check():
    """``check(p, N, seed)``: max entrywise |P_N(V U V^-1) - V P_N(U) V^-1|
    over ``trials`` pairs of Haar-random unitaries U, V (QR of a complex
    Gaussian, phases fixed by R's diagonal) drawn with ``seed``."""
    def unitary(rng, N):
        Q, R = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
        return Q * (np.diag(R) / np.abs(np.diag(R)))

    def check(p, N, seed=0, trials=5):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            U, V = unitary(rng, N), unitary(rng, N)
            lhs = evaluate(p, V @ U @ V.conj().T)
            rhs = V @ evaluate(p, U) @ V.conj().T
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        return worst

    return check
