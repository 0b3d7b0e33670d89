"""Intertwining operators on the trace-polynomial algebra.

Implements the first-order operators N0, N1, Y, Z, the projections
A+/A-/sgn, multiplication M_{u^k}, the second-order operator L, and the
combinations

    D   = -N - 2Z - 2Y          (N = N0 + N1)
    D_N = D - (1/N^2) L

together with semigroup application e^{theta G} and dense matrix
representations on the trace-degree filtration C_n[u, u^-1; v].

All operators preserve the filtration (trace degree can only stay or
drop), so the monomials reachable from a polynomial p span a finite-
dimensional invariant subspace.  ``exp_series`` finds that closure by a
breadth-first search, compiles the operator on it to a sparse matrix in
coordinate (COO) form, and runs a truncated Taylor series on p's
coordinate vector.  The same kernel serves the word engine in
:mod:`freesb.words`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tracepoly import Mono, TracePoly, mono, mono_mul

MAX_TERMS = 500
MAX_DEGREE = 12
BASIS_CAP = 200_000

# ======================================================================
# named first/second order operators, monomial by monomial
# ======================================================================


def _apply_diag(p: TracePoly, weight: Callable[[Mono], float]) -> TracePoly:
    return TracePoly({m: c * weight(m) for m, c in p.terms.items()})


def _apply_N0(p: TracePoly) -> TracePoly:
    return _apply_diag(p, lambda m: float(sum(abs(j) * e for j, e in m[1])))


def _apply_N1(p: TracePoly) -> TracePoly:
    return _apply_diag(p, lambda m: float(abs(m[0])))


def _apply_Aplus(p: TracePoly) -> TracePoly:
    return TracePoly({m: c for m, c in p.terms.items() if m[0] >= 0})


def _apply_Aminus(p: TracePoly) -> TracePoly:
    return TracePoly({m: c for m, c in p.terms.items() if m[0] <= -1})


def _apply_sgn(p: TracePoly) -> TracePoly:
    # sgn(u^k) = u^k for k >= 0 and -u^k for k <= -1  (sgn(0) = 1)
    return _apply_diag(p, lambda m: 1.0 if m[0] >= 0 else -1.0)


def _apply_Mu(p: TracePoly, k: int) -> TracePoly:
    return TracePoly({(m[0] + k, m[1]): c for m, c in p.terms.items()})


def _y_of_upower(n: int) -> list[tuple[Mono, float]]:
    """Closed-form Y(u^n) as (monomial, coefficient) pairs.

    Y(u^n) = sum_{k=1}^{n-1} (n-k) v_k u^{n-k}          for n >= 0,
    Y(u^n) = sum_{k=n+1}^{-1} (k-n) v_k u^{n-k}         for n < 0,

    and Y annihilates u^{-1}, 1, u.
    """
    out: list[tuple[Mono, float]] = []
    if n >= 0:
        for k in range(1, n):
            out.append((mono(n - k, [(k, 1)]), float(n - k)))
    else:
        for k in range(n + 1, 0):
            out.append((mono(n - k, [(k, 1)]), float(k - n)))
    return out


def _apply_Y(p: TracePoly) -> TracePoly:
    # Y(P * q(v)) = Y(P) * q(v): act on the u-power, carry the v-part along
    acc: dict[Mono, complex] = {}
    for (k0, ve), c in p.terms.items():
        for m, w in _y_of_upower(k0):
            key = mono_mul(m, (0, ve))
            acc[key] = acc.get(key, 0j) + c * w
    return TracePoly(acc)


def _z_of_vindex(k: int) -> list[tuple[Mono, float]]:
    """Z(v_k): sum_{j=1}^{k-1} j v_j v_{k-j} (k>=2), sum_{j=k+1}^{-1} |j| v_j v_{k-j} (k<=-2)."""
    out: list[tuple[Mono, float]] = []
    if k >= 2:
        for j in range(1, k):
            out.append((mono(0, [(j, 1), (k - j, 1)]), float(j)))
    elif k <= -2:
        for j in range(k + 1, 0):
            out.append((mono(0, [(j, 1), (k - j, 1)]), float(-j)))
    return out


def _apply_Z(p: TracePoly) -> TracePoly:
    # first-order derivation in the v variables only
    acc: dict[Mono, complex] = {}
    for (k0, ve), c in p.terms.items():
        for i, (j, e) in enumerate(ve):
            rest = ve[:i] + ((j, e - 1),) + ve[i + 1:]
            for m, w in _z_of_vindex(j):
                key = mono_mul(m, mono(k0, rest))
                acc[key] = acc.get(key, 0j) + c * e * w
    return TracePoly(acc)


def _apply_L(p: TracePoly) -> TracePoly:
    """L = sum_{j,k != 0} jk v_{j+k} d2/dv_j dv_k + 2 sum_{k != 0} k u^{k+1} d2/dv_k du,

    with v_0 understood as the constant 1.
    """
    acc: dict[Mono, complex] = {}
    for (k0, ve), c in p.terms.items():
        # second derivatives in two v-slots (ordered pairs, including equal)
        for i1, (j1, e1) in enumerate(ve):
            for i2, (j2, e2) in enumerate(ve):
                if i1 == i2:
                    factor = e1 * (e1 - 1)
                    if factor == 0:
                        continue
                    rest = list(ve)
                    rest[i1] = (j1, e1 - 2)
                else:
                    factor = e1 * e2
                    rest = list(ve)
                    rest[i1] = (j1, e1 - 1)
                    rest[i2] = (j2, e2 - 1)
                key = mono_mul(mono(0, [(j1 + j2, 1)]), mono(k0, rest))
                acc[key] = acc.get(key, 0j) + c * factor * j1 * j2
        # mixed u/v second derivative
        if k0 != 0:
            for i, (j, e) in enumerate(ve):
                rest = ve[:i] + ((j, e - 1),) + ve[i + 1:]
                key = mono(k0 + j, rest)
                acc[key] = acc.get(key, 0j) + c * 2.0 * j * k0 * e
    return TracePoly(acc)


_NAMED: dict[str, Callable[[TracePoly], TracePoly]] = {
    "N0": _apply_N0,
    "N1": _apply_N1,
    "Y": _apply_Y,
    "Z": _apply_Z,
    "L": _apply_L,
    "Aplus": _apply_Aplus,
    "Aminus": _apply_Aminus,
    "sgn": _apply_sgn,
}


def apply_named(name: str, p: TracePoly, aux: int | None = None) -> TracePoly:
    """Apply a named operator; ``Mu`` needs ``aux`` = the power k of u."""
    if name == "Mu":
        if aux is None:
            raise ValueError("Mu requires aux = k (multiply by u^k)")
        return _apply_Mu(p, aux)
    try:
        fn = _NAMED[name]
    except KeyError:
        raise ValueError(f"unknown operator name {name!r}") from None
    return fn(p)


def apply_D(p: TracePoly) -> TracePoly:
    """D = -N0 - N1 - 2Z - 2Y (first order; preserves trace degree)."""
    return -(_apply_N0(p) + _apply_N1(p) + 2.0 * _apply_Z(p) + 2.0 * _apply_Y(p))


def apply_DN(p: TracePoly, N: int) -> TracePoly:
    """D_N = D - (1/N^2) L, the full Laplacian's trace-polynomial avatar."""
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    return apply_D(p) - (1.0 / (N * N)) * _apply_L(p)


# ======================================================================
# generator combinations
# ======================================================================


@dataclass(frozen=True)
class GeneratorSpec:
    """A weighted combination of named generators.

    ``terms`` maps generator names from {D, L, N0, N1, Y, Z, PI_GEN} to
    complex weights; PI_GEN denotes N0 + 2Z (the generator whose
    semigroup realizes the evaluation map pi_s).
    """

    terms: tuple[tuple[str, complex], ...]

    @classmethod
    def D(cls) -> "GeneratorSpec":
        return cls((("D", 1.0),))

    @classmethod
    def DN(cls, N: int) -> "GeneratorSpec":
        if N < 1:
            raise ValueError(f"N must be a positive integer, got {N}")
        return cls((("D", 1.0), ("L", -1.0 / (N * N))))

    @classmethod
    def pi_gen(cls) -> "GeneratorSpec":
        return cls((("PI_GEN", 1.0),))

    def apply(self, p: TracePoly) -> TracePoly:
        out = TracePoly.zero()
        for name, w in self.terms:
            if name == "D":
                out = out + w * apply_D(p)
            elif name == "PI_GEN":
                out = out + w * (_apply_N0(p) + 2.0 * _apply_Z(p))
            else:
                out = out + w * apply_named(name, p)
        return out


# ======================================================================
# semigroup application: Taylor series on the compiled reachable closure
# ======================================================================


def _compile(apply_fn, make, seed):
    """Compile a linear map to a sparse matrix on the closure of ``seed``.

    ``basis`` starts as the monomials ``seed`` and grows breadth first:
    column j holds the image of ``basis[j]`` under ``apply_fn`` (applied
    to ``make({basis[j]: 1.0})``), and every monomial it reaches that is
    not yet in ``basis`` is appended, so the loop visits it in turn.
    Returns ``basis`` and the COO arrays ``rows, cols, vals`` with
    ``vals[e]`` the coefficient of ``basis[rows[e]]`` in the image of
    ``basis[cols[e]]``.
    """
    basis = list(seed)
    index = {m: i for i, m in enumerate(basis)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    for j, m in enumerate(basis):  # basis grows as the search goes
        for mi, c in apply_fn(make({m: 1.0})).terms.items():
            i = index.get(mi)
            if i is None:
                i = index[mi] = len(basis)
                basis.append(mi)
            rows.append(i)
            cols.append(j)
            vals.append(c)
    return (basis, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(vals, dtype=complex))


def exp_series(apply_fn, p, tol: float = 1e-13, max_terms: int = MAX_TERMS,
               step_norm: float = 2.0):
    """e^G p for a linear map G given as ``apply_fn``, by truncated Taylor.

    Works for any polynomial type whose instances hold a ``terms`` dict
    from monomial keys to coefficients and are built from such a dict
    (``TracePoly``, ``WordPoly``); ``apply_fn`` must map the span of the
    monomials reachable from ``p`` into itself.

    G is compiled on that closure to a sparse matrix A in COO form (see
    :func:`_compile`), so each Taylor term costs one sparse product,
    O(nnz) time and memory.  The series runs in m stages,
    e^A = (e^{A/m})^m, with m = ceil(||A||_1 / step_norm) from the exact
    1-norm of A.  Within a stage, ||A/m||_1 <= step_norm bounds the tail
    after term k by ||term_k||_1 r / (1 - r), r = ||A/m||_1 / (k + 1);
    summation stops once that bound is below (tol / m) * ||sum||_1.  The
    rule is relative only, so the result is homogeneous in p at any
    scale.  A stage that needs more than ``max_terms`` terms raises
    RuntimeError.
    """
    if not p.terms:
        return p
    basis, rows, cols, vals = _compile(apply_fn, type(p), p.terms)
    n = len(basis)
    x = np.zeros(n, dtype=complex)
    x[:len(p.terms)] = list(p.terms.values())
    norm = np.bincount(cols, weights=np.abs(vals), minlength=n).max()
    m = max(1, math.ceil(norm / step_norm))
    stage_norm = norm / m
    vals = vals / m
    stage_tol = tol / m

    def matvec(y: np.ndarray) -> np.ndarray:
        prod = vals * y[cols]
        return (np.bincount(rows, weights=prod.real, minlength=n)
                + 1j * np.bincount(rows, weights=prod.imag, minlength=n))

    for _ in range(m):
        acc = x.copy()
        term = x
        for k in range(1, max_terms + 1):
            term = matvec(term) / k
            acc += term
            r = stage_norm / (k + 1)
            if r < 1.0 and np.abs(term).sum() * r / (1.0 - r) <= stage_tol * np.abs(acc).sum():
                break
        else:
            raise RuntimeError(
                f"semigroup Taylor series did not converge within {max_terms} terms"
            )
        x = acc
    return type(p)(dict(zip(basis, x.tolist())))


def exp_apply(gen: GeneratorSpec, theta: float, p: TracePoly,
              tol: float = 1e-13) -> TracePoly:
    """e^{theta G} p for a GeneratorSpec G; theta may have either sign."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if theta == 0.0:
        return p
    return exp_series(lambda q: theta * gen.apply(q), p, tol=tol)


# ======================================================================
# dense matrix representation on C_n[u, u^-1; v]
# ======================================================================


def _v_packs(idx: int, budget: int):
    """All v-factor tuples over indices {-idx..-1, 1..idx} of weight <= budget."""
    if idx == 0:
        yield ()
        return
    for em in range(budget // idx + 1):
        for ep in range((budget - idx * em) // idx + 1):
            head = []
            if em:
                head.append((-idx, em))
            if ep:
                head.append((idx, ep))
            for rest in _v_packs(idx - 1, budget - idx * (em + ep)):
                yield tuple(head) + rest


def monomial_basis(n: int) -> list[Mono]:
    """Canonically ordered monomial basis of {trace degree <= n}."""
    if n > MAX_DEGREE:
        raise ValueError(f"degree cutoff {n} exceeds MAX_DEGREE={MAX_DEGREE}")
    out: list[Mono] = []
    for k0 in range(-n, n + 1):
        budget = n - abs(k0)
        for pack in _v_packs(budget, budget):
            out.append(mono(k0, pack))
            if len(out) > BASIS_CAP:
                raise ValueError(f"basis size exceeds BASIS_CAP={BASIS_CAP}")
    out.sort()
    return out


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix of a generator on the canonical basis of C_n[u,u^-1;v]."""

    n: int
    basis: Sequence[Mono]
    entries: np.ndarray  # entries[i, j] = coefficient of basis[i] in G(basis[j])

    def index(self, m: Mono) -> int:
        return self._index_map()[m]

    def _index_map(self) -> dict[Mono, int]:
        return {m: i for i, m in enumerate(self.basis)}

    def coords(self, p: TracePoly) -> np.ndarray:
        idx = self._index_map()
        vec = np.zeros(len(self.basis), dtype=complex)
        for m, c in p.terms.items():
            vec[idx[m]] = c
        return vec


def operator_matrix(gen: GeneratorSpec, n: int) -> OperatorMatrix:
    basis, rows, cols, vals = _compile(gen.apply, TracePoly, monomial_basis(n))
    entries = np.zeros((len(basis), len(basis)), dtype=complex)
    entries[rows, cols] = vals
    return OperatorMatrix(n=n, basis=basis, entries=entries)
