"""Intertwining operators on the trace-polynomial algebra.

The first-order operators N0, N1, N = N0 + N1, Y, Z, the projections
A+/A-/sgn and the second-order operator L as one table of column
functions, the generators built from it as weighted sums

    D      = -N - 2Z - 2Y
    D_N    = D - (1/N^2) L
    PI_GEN = N0 + 2Z

their semigroups e^{theta G}, and dense matrices on the trace-degree
filtration C_n[u, u^-1; v].

All operators preserve the filtration (trace degree can only stay or
drop), so the monomials reachable from p span a finite-dimensional
invariant subspace, which ``exp_series`` compiles.  On trace degree n,
D = -n I + M with M = -2(Y + Z): M adds one trace factor, so it is
nilpotent and commutes with the diagonal, and e^{theta D} is a finite sum;
so is the semigroup of PI_GEN.  A closure is *graded* when the off-diagonal
entries form a graph without cycles and each joins two equal diagonal
entries; then e^A x = e^{diag} sum_k M^k x / k! ends at the first zero
term.  Other closures (D_N, the finite-N word generators) take a Taylor
kernel, dense or sparse.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .tracepoly import Mono, TracePoly, first_partials, linear, mono, mono_degree, second_partials

TAYLOR_TOL = 1e-13  # the Taylor kernel stops at this bound on its relative tail
STEP_NORM = 2.0  # largest 1-norm of a stage's generator
STAGE_COST = 400  # a stage's fixed numpy cost, counted in nonzeros
MAX_WORK = 40_000_000  # stages x (nonzeros + STAGE_COST) of one sparse Taylor run
DENSE_MAX_N = 128  # largest dense closure: the float64 crossover; peak 64 n^2 B, 1 MiB
_REAL_GEMM_MAX_N = 8  # the measured crossover: complex N x N products up to here as real GEMMs
DENSE_MAX_SQUARINGS = 6  # from 7 on, the dense kernel's roundoff can exceed the Taylor kernel's
MAX_DEGREE = 12
MAX_CLOSURE = 4096  # monomials of one compiled closure; tests and benchmark need <= 846
CLOSURE_BUDGET = 1024  # monomials held by the closure cache of exp_series, all entries


class _Cache(dict):
    """A dict and ``held``, the monomials of its values, which :func:`_keep` counts."""
    held = 0

    def clear(self):
        super().clear()
        self.held = 0


# least recently used first, written by _keep (keys: exp_series); a closure is
# [basis, rows, cols, part values, _classify's last result, graded rows]
_closures = _Cache()
_images = _Cache()
_LOCK = threading.Lock()

# ======================================================================
# named first/second order operators, monomial by monomial
# ======================================================================
#
# Each operator is a column function: it maps one monomial to its image
# as (monomial, weight) pairs, and ``linear`` extends it to polynomials.
# ``_COLUMNS`` names the primitive ones; a GeneratorSpec is a weighted sum
# of them, and D, D_N and PI_GEN are such sums.


def _col_Y(m: Mono) -> list[tuple[Mono, float]]:
    """Y(u^n q(v)) = Y(u^n) q(v), where

    Y(u^n) = sum_{k=1}^{n-1} (n-k) v_k u^{n-k}          for n >= 0,
    Y(u^n) = sum_{k=n+1}^{-1} (k-n) v_k u^{n-k}         for n < 0,

    and Y annihilates u^{-1}, 1, u.
    """
    n, ve = m
    ks = range(1, n) if n >= 0 else range(n + 1, 0)
    return [(mono(n - k, ve + ((k, 1),)), float(abs(n - k))) for k in ks]


def _col_Z(m: Mono) -> list[tuple[Mono, float]]:
    """The v-derivation with Z(v_k) = sum_{j=1}^{k-1} j v_j v_{k-j} (k >= 2)
    and sum_{j=k+1}^{-1} |j| v_j v_{k-j} (k <= -2)."""
    k0, ve = m
    return [(mono(k0, rest + ((j, 1), (k - j, 1))), float(e * abs(j)))
            for k, e, rest in first_partials(ve)
            for j in (range(1, k) if k > 0 else range(k + 1, 0))]


def _col_L(m: Mono) -> list[tuple[Mono, float]]:
    """L = sum_{j,k != 0} jk v_{j+k} d2/dv_j dv_k + 2 sum_{k != 0} k u^{k+1} d2/dv_k du,

    with v_0 understood as the constant 1.
    """
    k0, ve = m
    out = [(mono(k0, rest + ((j1 + j2, 1),)), float(2 * w * j1 * j2))
           for j1, j2, w, rest in second_partials(ve)]
    if k0 != 0:
        out += [(mono(k0 + j, rest), float(2 * j * k0 * e))
                for j, e, rest in first_partials(ve)]
    return out


_COLUMNS: dict[str, Callable[[Mono], list[tuple[Mono, float]]]] = {
    "N0": lambda m: [(m, float(mono_degree((0, m[1]))))],
    "N1": lambda m: [(m, float(abs(m[0])))],
    # N0 + N1 as one diagonal entry, so theta * (trace degree) rounds once
    "N": lambda m: [(m, float(mono_degree(m)))],
    "Y": _col_Y,
    "Z": _col_Z,
    "L": _col_L,
    "Aplus": lambda m: [(m, 1.0)] if m[0] >= 0 else [],
    "Aminus": lambda m: [(m, 1.0)] if m[0] <= -1 else [],
    # sgn(u^k) = u^k for k >= 0 and -u^k for k <= -1  (sgn(0) = 1)
    "sgn": lambda m: [(m, 1.0 if m[0] >= 0 else -1.0)],
}


def apply_D(p: TracePoly) -> TracePoly:
    """D = -N0 - N1 - 2Z - 2Y (first order; preserves trace degree)."""
    return GeneratorSpec.D().apply(p)


def _apply_L(p: TracePoly) -> TracePoly:
    return linear(_col_L, p)


def apply_DN(p: TracePoly, N: int) -> TracePoly:
    """D_N = D - (1/N^2) L, the full Laplacian's trace-polynomial avatar."""
    check_N(N)
    return apply_D(p) - (1.0 / (N * N)) * _apply_L(p)


# ======================================================================
# generator combinations
# ======================================================================


@dataclass(frozen=True)
class GeneratorSpec:
    """A weighted sum of the operators of ``_COLUMNS``, as (name, complex
    weight) ``terms``: D = -N - 2Z - 2Y, D_N = D - L/N^2 and PI_GEN = N0 + 2Z,
    whose semigroup realizes pi_s.  ``parts``, their column, lists the images
    term by term, so the terms' order fixes the basis order of a closure.
    A name outside ``_COLUMNS`` is refused at construction (ValueError).
    """

    terms: tuple[tuple[str, complex], ...]

    def __post_init__(self):
        for name, _ in self.terms:
            if name not in _COLUMNS:
                raise ValueError(f"unknown operator name {name!r}")

    @classmethod
    def D(cls) -> "GeneratorSpec":
        return cls((("N", -1.0), ("Z", -2.0), ("Y", -2.0)))

    @classmethod
    def DN(cls, N: int) -> "GeneratorSpec":
        check_N(N)
        return cls(cls.D().terms + (("L", -1.0 / (N * N)),))

    @classmethod
    def pi_gen(cls) -> "GeneratorSpec":
        return cls((("N0", 1.0), ("Z", 2.0)))

    def parts(self, m: Mono) -> list[tuple[Mono, int, float]]:
        """The images of m under the terms' operators, unweighted: (monomial,
        term index, weight) triples, the column form of :func:`exp_series`."""
        return [(mi, k, c) for k, (name, _) in enumerate(self.terms)
                for mi, c in _COLUMNS[name](m)]

    def apply(self, p: TracePoly) -> TracePoly:
        return linear(lambda m: [(mi, self.terms[k][1] * c) for mi, k, c in self.parts(m)], p)


# ======================================================================
# dense matrix exponential, shared with the sampler in matrixlab
# ======================================================================

# Degree-12 Taylor in four products (Bader, Blanes, Casas, Mathematics 7 (2019)
# 1174): with cubics B_r = sum_{k<=3} w_rk A^k, rows r = a, b, c, d, A6 = B_c +
# B_d^2 and T12 = B_a + (B_b + A6) A6; one of a one-parameter family (b0 fixed),
# solved in mpmath; as doubles, T12's coefficients are 1/k! to 2.2e-16 relative.
# The 1-norm theta keeps the forward tail theta^13/13! / (1 - theta/14) ~ 4.0e-17
# below half a unit roundoff.  Each squaring doubles the relative error of its
# factor, so s squarings leave about 2^s u (u = 2^-53); at most 26 keep that
# below sqrt(u), half the digits
_EXPM_W = np.array([[1.0, -0.6370367634610868, -0.02665385649637564, -0.02562299369918285],
                    [5.01974674, 0.6570850855361795, 0.15149229327097222, -0.001525576528496726],
                    [0.0, 0.32611939371688037, 0.023666242274841483, 0.012414016195827606],
                    [0.0, 0.13181061013830184, 0.02027855540589259, 0.006759518468630863]])
_EXPM_THETA = 0.31
_EXPM_MAX_SQUARINGS = 26
_SQUARING_NORMS = _EXPM_THETA * 2.0 ** np.arange(_EXPM_MAX_SQUARINGS + 1)


def _squarings(norm):
    """The squarings :func:`_expm_batch` takes at 1-norm ``norm`` (a float or
    an array): the least s >= 0 with norm < 0.31 * 2^s, or 27 for a norm of
    0.31 * 2^26 or more and for NaN."""
    return _SQUARING_NORMS.searchsorted(norm, side="right")


def _real_gemm(a, b, out, work, slot, built=False):
    """a @ b into ``out`` for (n, N, N) stacks.  A complex stack up to N =
    _REAL_GEMM_MAX_N takes one real product per slice: a.view(float), shaped
    (n, N, 2N), times b's real (2N, 2N) form, whose rows are b[j] and (i b)[j]
    interleaved, written into the free slots ``slot`` and ``slot + 1`` of
    ``work`` unless ``built`` says they hold b's form already.  That is the
    complex product's flops without numpy's fixed cost per complex slice,
    which dominates at small N.  Any other stack takes ``np.matmul``."""
    if b.dtype != complex or b.shape[1] > _REAL_GEMM_MAX_N:
        return np.matmul(a, b, out=out)
    n, N = b.shape[:2]
    form = work[slot:slot + 2].reshape(-1)[:2 * b.size].reshape(n, N, 2, N)
    if not built:
        form[:, :, 0] = b
        np.multiply(b, 1j, out=form[:, :, 1])
    np.matmul(a.view(float), form.view(float).reshape(n, 2 * N, 2 * N), out=out.view(float))
    return out


def _expm_batch(Ms: np.ndarray, *work: np.ndarray) -> np.ndarray:
    """Batched e^M over the leading axis.

    Each slice is scaled by 2^-s, with s >= 0 the least power that brings
    its 1-norm below 0.31 (:func:`_squarings`), and the degree-12 Taylor
    polynomial takes four batched matmuls (A^2, A^3, B_d^2, (B_b + A6) A6;
    see ``_EXPM_W``), its cubics B_r one real product of the coefficient
    table with (A, A^2, A^3).  The truncation tail is below 4.0e-17
    relative, under half a unit roundoff; s squarings undo the scaling, each
    only on the slices that need it.  Every product is :func:`_real_gemm`,
    which for a complex stack puts the form of the right factor in two free
    slots of ``work``.  Every operation is per slice or per entry, so a
    slice gets bitwise the same arithmetic however the batch is assembled.
    Non-finite input or more than 26 squarings (1-norm 0.31 * 2^26 ~ 2.1e7
    or more): ValueError, first.  ``work``, one C-contiguous array shaped
    (7,) + Ms.shape (fresh if not given), float64 for a real stack and
    complex otherwise, holds every intermediate; the result is its slice 1
    or 2, so slots 3 to 6 are free after it."""
    Ms = np.asarray(Ms, dtype=complex if np.iscomplexobj(Ms) else float)
    norms = np.einsum("nij->nj", np.abs(Ms)).max(axis=-1)
    nsq = _squarings(norms)
    if nsq.max() > _EXPM_MAX_SQUARINGS:
        raise ValueError("matrix exponential needs a finite 1-norm below "
                         f"{_EXPM_THETA * 2.0 ** _EXPM_MAX_SQUARINGS:.3g}")
    P = work[0] if work else np.empty((7,) + Ms.shape, dtype=Ms.dtype)
    A = np.multiply(Ms, np.ldexp(1.0, -nsq)[:, None, None], out=P[0])
    _real_gemm(A, A, P[1], P, 5)
    _real_gemm(P[1], A, P[2], P, 5, built=True)  # A's form is still in P[5:]
    X = P.view(float).reshape(7, -1)  # one row per slot, for the cubics' real product
    np.matmul(_EXPM_W[:, 1:], X[:3], out=X[3:])
    Ba, Bb, Bc, Bd = P[3:]
    for Br, w in ((Ba, _EXPM_W[0, 0]), (Bb, _EXPM_W[1, 0])):  # B_c, B_d have none
        np.einsum("nii->ni", Br)[...] += w  # a view of the diagonals
    A6 = _real_gemm(Bd, Bd, P[0], P, 1)
    A6 += Bc
    Bb += A6
    E, T = _real_gemm(Bb, A6, P[1], P, 5), P[2]
    E += Ba
    low = nsq.min()  # every slice takes the first ``low`` squarings
    for r in range(int(nsq.max())):
        if r < low:
            E, T = _real_gemm(E, E, T, P, 3), E
        else:
            Elive = E[(live := nsq > r)]
            E[live] = _real_gemm(Elive, Elive, P[0, :len(Elive)], P, 3)
    return E


# ======================================================================
# semigroup application on the compiled reachable closure
# ======================================================================


def _compile(column, seed, parts):
    """Compile the parts of a linear map to sparse values on the closure of ``seed``.

    ``column`` maps a monomial to its images under the parts as (monomial,
    part index, weight) triples; ``parts`` is the tuple of the parts' names,
    or their number for a column without names.  ``basis`` starts as
    ``seed`` and grows breadth first: column j merges its triples, one value
    per part, drops the entries zero in every part (under names, the image
    may come from ``_images``), and appends each new monomial it reaches.
    Returns ``basis``, the COO arrays ``rows, cols`` and the nnz x nparts
    array ``vals``: ``vals[e, k]`` is the coefficient of ``basis[rows[e]]``
    in part k's image of ``basis[cols[e]]``.  ValueError once ``basis``
    passes ``MAX_CLOSURE``, before another column is built.
    """
    names = parts if isinstance(parts, tuple) else None
    nparts = len(names) if names else parts
    basis = list(seed)
    index = {m: i for i, m in enumerate(basis)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[list[complex]] = []
    seen: dict | None = {} if names else None  # this search's images, while it may keep them
    for j, m in enumerate(basis):  # basis grows as the search goes
        if len(basis) > MAX_CLOSURE:
            raise ValueError(f"the closure has more than MAX_CLOSURE={MAX_CLOSURE} monomials")
        image = _images.get((names, m)) if names else None
        if image is None:
            merged: dict = {}
            for mi, k, w in column(m):
                v = merged.get(mi)
                if v is None:
                    v = merged[mi] = [0j] * nparts
                v[k] += w
            image = [(mi, v) for mi, v in merged.items() if any(v)]
        for mi, v in image:
            i = index.get(mi)
            if i is None:
                i = index[mi] = len(basis)
                basis.append(mi)
            rows.append(i)
            cols.append(j)
            vals.append(v)
        if seen is not None:
            seen[names, m] = image
            if len(basis) > CLOSURE_BUDGET:
                seen = None
    if seen:
        _keep(_images, seen, lambda image: 1)
    return (basis, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(vals, dtype=complex).reshape(-1, nparts))


def exp_series(column, p, theta, terms):
    """e^{theta G} p for G = sum_k w_k G_k, a weighted sum of named parts.

    ``terms`` pairs each part's name with its weight w_k; ``column`` is the
    parts' column (see :func:`_compile`); ``p`` is a ``TracePoly`` or
    ``WordPoly`` whose closure G maps into itself; ``theta`` is real.
    ``_closures`` keeps the compiled parts under (names, p's monomials in
    order) and ``_images`` each monomial's merged image under (names,
    monomial), both within ``CLOSURE_BUDGET`` monomials: keyed by the names,
    not the weights, so the names must say what the parts are.  Every call,
    hit or miss, sums the parts to A = G and classifies it (:func:`_classify`).
    A graded A (see the module docstring) takes e^{theta diag} times
    theta^{0, 1, ...} @ Y, at any theta, where Y holds the rows M^k x / k!
    of :func:`_graded_rows`, built without theta and kept in ``closure[5]``
    under the weights and x's bytes: a new theta on the same seed runs no
    sparse product, and a hit runs a cold call's arithmetic.  Otherwise
    :func:`_expm_dense` runs when n <= DENSE_MAX_N and :func:`_squarings` of
    ||theta A||_1 is at most DENSE_MAX_SQUARINGS, and :func:`_taylor_sparse`
    otherwise.  ValueError: a non-finite theta (``check_times``), first; a
    ``p`` of trace degree above 2 * MAX_DEGREE (``check_degree``), before
    the closure is looked up; more than ``MAX_CLOSURE`` monomials, while it
    is built; Taylor work above ``MAX_WORK``, before the first stage.
    Overflow in theta A or in any kernel raises FloatingPointError.
    """
    check_times(theta=theta)
    if not p.terms:
        return p
    check_degree(p.trace_degree())
    names, weights = zip(*terms)
    key = (names, tuple(p.terms))
    closure = _closures.get(key)
    if closure is None:
        closure = [*_compile(column, p.terms, names), None, None]
    if len(closure[0]) <= CLOSURE_BUDGET:  # a larger closure is not stored
        _keep(_closures, {key: closure}, lambda c: len(c[0]))
    basis, rows, cols, vals, diag, off, graded = _classify(closure, weights, len(p.terms))
    n = len(basis)
    x = np.zeros(n, dtype=complex)
    x[:len(p.terms)] = list(p.terms.values())
    with np.errstate(over="raise", invalid="raise"):  # so every kernel's x is finite
        if graded:
            seed = (weights, x.tobytes())
            if (kept := closure[5]) is None or kept[0] != seed:
                kept = closure[5] = (seed, _graded_rows(rows[off], cols[off], vals[off], x))
            x = np.exp(theta * diag) * (theta ** np.arange(len(kept[1])) @ kept[1])
        else:
            vals = theta * vals
            norm = np.bincount(cols, weights=np.abs(vals), minlength=n).max()
            dense = n <= DENSE_MAX_N and _squarings(norm) <= DENSE_MAX_SQUARINGS
            x = (_expm_dense(rows, cols, vals, x) if dense
                 else _taylor_sparse(rows, cols, vals, x, norm))
    return type(p)._from_finite(basis, x.tolist())


def _classify(closure, weights, nseed):
    """A = sum_k weights[k] G_k over the parts of nonzero weight on a compiled
    closure and whether it is graded: basis, rows, cols, vals, the diagonal,
    the off-diagonal mask and the graded flag, kept in ``closure[4]`` for the
    next call with the same weights.  Weights that cancel (the word engine at
    s = t) leave exact zeros; those entries are dropped, with the monomials
    that only they reach from the first ``nseed``, so A's closure, graded
    test and kernel choice are those of A compiled alone."""
    last = closure[4]
    if last is not None and last[0] == weights:
        return last[1:]
    basis, rows, cols, parts = closure[:4]
    vals = sum((w * part for w, part in zip(weights, parts.T) if w), np.zeros(len(rows), complex))
    keep = vals != 0
    if not keep.all():
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        reached = np.zeros(len(basis), dtype=bool)
        reached[:nseed] = True
        while not reached[rows[reached[cols]]].all():
            reached[rows[reached[cols]]] = True
        live = reached[cols]
        index = np.cumsum(reached) - 1
        rows, cols, vals = index[rows[live]], index[cols[live]], vals[live]
        basis = [m for m, r in zip(basis, reached) if r]
    off = rows != cols
    diag = np.zeros(len(basis), dtype=complex)
    diag[rows[~off]] = vals[~off]
    off_rows, off_cols = rows[off], cols[off]
    graded = (diag[off_rows] == diag[off_cols]).all() and \
        ((off_rows > off_cols).all() or _acyclic(off_rows, off_cols, len(basis)))
    closure[4] = last = (weights, basis, rows, cols, vals, diag, off, graded)
    return last[1:]


def _keep(cache, entries, size):
    """Store the dict ``entries`` in the ``_Cache`` ``cache`` as its most
    recently used, then drop the least recently used until ``cache.held``,
    the sum of ``size(value)``, is at most CLOSURE_BUDGET.  It holds
    ``_LOCK`` and reads only what it drops."""
    with _LOCK:
        for key, v in entries.items():
            old = cache.pop(key, None)
            cache[key] = v
            cache.held += size(v) - (0 if old is None else size(old))
        while cache.held > CLOSURE_BUDGET:
            cache.held -= size(cache.pop(next(iter(cache))))


def _acyclic(rows, cols, n):
    """Whether the graph on n nodes with edges cols[e] -> rows[e] has no cycle:
    peel the nodes no remaining edge enters until no edge is left or none can go."""
    while len(rows):
        entered = np.zeros(n, dtype=bool)
        entered[rows] = True
        keep = entered[cols]
        if keep.all():
            return False
        rows, cols = rows[keep], cols[keep]
    return True


def _matvec(rows, cols, vals, y):
    """A y for the COO matrix A = (rows, cols, vals), n = len(y): two bincounts."""
    prod = vals * y[cols]
    return np.bincount(rows, prod.real, len(y)) + 1j * np.bincount(rows, prod.imag, len(y))


def _graded_rows(rows, cols, vals, x):
    """The rows M^k x / k!, k = 0, 1, ..., of a COO matrix M with an acyclic
    graph (see :func:`_acyclic`), stacked: M^k x lives on the ends of k-edge
    paths, so they end, exactly, before the first all-zero one, after at most
    n = len(x) products; e^{theta M} x = theta^{0, 1, ...} @ rows."""
    out = [x]
    for k in range(1, len(x) + 1):
        term = _matvec(rows, cols, vals, out[-1]) / k
        if not term.any():
            break
        out.append(term)
    return np.array(out)


def _expm_dense(rows, cols, vals, x):
    """e^A x with A the n x n COO matrix (rows, cols, vals), n = len(x): one
    :func:`_expm_batch` on the dense A, in float64 if A is real, times x."""
    real = not vals.imag.any()
    A = np.zeros((1, len(x), len(x)), dtype=float if real else complex)
    A[0, rows, cols] = vals.real if real else vals
    E = _expm_batch(A)[0]
    return (E @ x.view(float).reshape(-1, 2)).view(complex)[:, 0] if real else E @ x


def _taylor_sparse(rows, cols, vals, x, norm):
    """e^A x by truncated Taylor on the COO matrix A = (rows, cols, vals).

    Each term costs one sparse product, O(nnz) time and memory.  The
    series runs in m stages, e^A = (e^{A/m})^m, m = ceil(norm / STEP_NORM)
    with ``norm`` = ||A||_1.  Within a stage, ||A/m||_1 <= STEP_NORM bounds
    the tail after term k by ||term_k||_1 r / (1 - r), r = ||A/m||_1 / (k + 1);
    summation stops once that bound is below (TAYLOR_TOL / m) * ||sum||_1.  The
    rule is relative only, so the result is homogeneous in x at any scale.
    Work m * (nnz + STAGE_COST) above ``MAX_WORK``, a non-finite ``norm``
    included, raises ValueError before the first stage.  So m < 100,000, and a
    stage ends within 26 terms: as ||term_k||_1 <= 2^k/k! ||x||_1 and ||sum||_1
    >= e^-2 ||x||_1 less the tail (A/m = -2 I attains both), the k = 26 bound,
    1.4e-20 ||x||_1, is below the least threshold, 1e-18 e^-2 ||x||_1.
    """
    if not float(norm) / STEP_NORM * (len(vals) + STAGE_COST) <= MAX_WORK:
        raise ValueError(f"the generator's 1-norm on the {len(x)}-monomial closure is "
                         f"{norm:.3g}: the series would exceed MAX_WORK={MAX_WORK}")
    m = max(1, math.ceil(norm / STEP_NORM))
    stage_norm = norm / m
    vals = vals / m
    stage_tol = TAYLOR_TOL / m
    for _ in range(m):
        acc, term, k = x.copy(), x, 0
        while True:
            k += 1
            term = _matvec(rows, cols, vals, term) / k
            acc += term
            r = stage_norm / (k + 1)
            if r < 1.0 and np.abs(term).sum() * r / (1.0 - r) <= stage_tol * np.abs(acc).sum():
                break
        x = acc
    return x


def check_times(**times: float) -> None:
    """ValueError ``non-finite time name=value, ...`` unless every time is finite."""
    if not all(map(math.isfinite, times.values())):
        raise ValueError("non-finite time " + ", ".join(f"{k}={x!r}" for k, x in times.items()))


def check_degree(degree: int) -> None:
    """ValueError ``trace degree d exceeds 24`` for a degree d above 2 * MAX_DEGREE:
    the bound on the input of a semigroup, of the form B and of a sampler."""
    if degree > 2 * MAX_DEGREE:
        raise ValueError(f"trace degree {degree} exceeds {2 * MAX_DEGREE}")


def check_N(N: int) -> None:
    """ValueError ``N must be a positive integer, got N`` unless N is an
    integer >= 1, a Python or numpy integer."""
    if not isinstance(N, numbers.Integral) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")


def exp_apply(gen: GeneratorSpec, theta: float, p: TracePoly) -> TracePoly:
    """e^{theta G} p for a GeneratorSpec G; theta may have either sign.  The
    terms of G are the parts of :func:`exp_series`, so a cache hit calls no
    column and looks up no operator of ``_COLUMNS``."""
    if theta == 0.0:
        return p
    return exp_series(gen.parts, p, theta, gen.terms)


# ======================================================================
# dense matrix representation on C_n[u, u^-1; v]
# ======================================================================


def monomial_basis(n: int) -> list[Mono]:
    """Canonically ordered monomial basis of {trace degree <= n}: each u^k0,
    |k0| <= n, times each multiset of nonzero indices j, one v_j per element,
    with |k0| + sum |j| <= n."""
    if n > MAX_DEGREE:
        raise ValueError(f"degree cutoff {n} exceeds MAX_DEGREE={MAX_DEGREE}")
    js = [*range(-n, 0), *range(1, n + 1)]

    @cache
    def packs(budget: int, i: int) -> list[tuple]:
        # the multisets of js[i:] of weight <= budget, each in nondecreasing order
        return [()] + [((js[k], 1),) + rest for k in range(i, len(js)) if abs(js[k]) <= budget
                       for rest in packs(budget - abs(js[k]), k)]

    return sorted(mono(k0, pack) for k0 in range(-n, n + 1) for pack in packs(n - abs(k0), 0))


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix of a generator on the canonical basis of C_n[u,u^-1;v]."""

    n: int
    basis: Sequence[Mono]
    entries: np.ndarray  # entries[i, j] = coefficient of basis[i] in G(basis[j])

    def index(self, m: Mono) -> int:
        return self._index_map[m]

    @cached_property
    def _index_map(self) -> dict[Mono, int]:
        # built once per matrix: a set of lookups stays O(basis size)
        return {m: i for i, m in enumerate(self.basis)}

    def coords(self, p: TracePoly) -> np.ndarray:
        idx = self._index_map
        vec = np.zeros(len(self.basis), dtype=complex)
        for m, c in p.terms.items():
            vec[idx[m]] = c
        return vec


def operator_matrix(gen: GeneratorSpec, n: int) -> OperatorMatrix:
    basis, rows, cols, parts = _compile(gen.parts, monomial_basis(n), len(gen.terms))
    entries = np.zeros((len(basis), len(basis)), dtype=complex)
    entries[rows, cols] = parts @ [w for _, w in gen.terms]
    return OperatorMatrix(n=n, basis=basis, entries=entries)
