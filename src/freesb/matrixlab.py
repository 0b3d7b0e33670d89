"""Finite-N ground truth on U_N and GL_N.

Explicit orthonormal bases of u(N) (N <= MAX_BASIS_N) under <X,Y> =
N Tr(Y^* X), numeric verification of the magic formulas, evaluation of
trace and word polynomials and an exact (symbolic-in-X) Laplacian, each
reading one table of word products (``_Products``), the magic formulas and
the Laplacian summed in batches of the stacked basis, Monte Carlo samplers
for the heat kernel measures rho_s^N on U_N and mu_{s,t}^N on GL_N (a
SamplerCfg is a Measure with steps and a seed), and concentration experiments.

Sampling uses a right-increment geodesic Euler scheme U <- U exp(sqrt(d) G)
to unit time, d = 1/steps, with G = sqrt(s - t/2) G1 + i sqrt(t/2) G2 for
independent Gaussians on u(N) determined by the basis (rho is t = 0: G1
alone); the scheme is weak order 1 and the Ito drift comes from the
exponential because sum_X X^2 = -I.  A chunk of samples takes each
step together (``_sample_batch``); RNG_NAME names its draw layout.
Every sample index gets its own SFC64 stream seeded from blake2b(seed:index),
so results do not depend on thread count or scheduling.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .operators import _expm_batch, _real_gemm, check_degree
from .tracepoly import TracePoly
from .words import Measure, WordPoly, _eps_word, _require_u_free, iota, l2_norm_sq
from .moments import pi_eval

RNG_NAME = "sfc64-2"  # -2: one N x N normal block per noise per step
MAX_SAMPLER_N = 128
MAX_SAMPLER_STEPS = 10_000  # Euler bias of E tr Z at N = 8, about 0.024 / steps: 2.4e-6 here
MAX_BASIS_N = 36  # N^2 dense N x N matrices; default intertwine-check: 9-10 s, 67 MB RSS at 36
_CHUNK = 128  # fixed MC batch size: chunk layout must not depend on threads
# the least N that takes a thread pool: on 2 cores, 2 threads took 2.1x (N = 2),
# 1.4x (6), 0.87x (8) and 0.62x (16) the time of one; small numpy calls hold
# the GIL (mc --f v1 --s 1, 1,024 samples, 50 steps, min of 5 alternating runs)
_POOL_MIN_N = 8
_DRAW_BYTES = 2 << 20  # noise one chunk draws at once (whole steps, at least one)
_BASIS_BYTES = 1 << 17  # one batch of basis elements, and each jet order laplacian_eval builds on it;
# at N = 36, 2 MiB batches took 13% longer and 40 MB more peak RSS
MAGIC_TOL = 1e-11  # verify_magic passes when every residual is below this

CMatrix = np.ndarray

# ----------------------------------------------------------------------
# bases and magic formulas
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BasisUN:
    N: int
    elements: tuple[np.ndarray, ...]


def _check_basis_N(N: int) -> None:
    # the explicit basis's bound, checked before any N x N work
    if not 1 <= N <= MAX_BASIS_N:
        raise ValueError(f"basis_uN supports 1 <= N <= {MAX_BASIS_N}, got {N}")


def basis_uN(N: int) -> BasisUN:
    """Orthonormal basis of u(N) under <X,Y> = N Tr(Y^* X).

    {(E_jk - E_kj)/sqrt(2N)} and {i(E_jk + E_kj)/sqrt(2N)} for j < k,
    plus {i E_jj / sqrt(N)}; N^2 anti-Hermitian matrices in total, the
    slices of one (N^2, N, N) array.
    """
    _check_basis_N(N)
    j, k = np.triu_indices(N, 1)
    pair, d, c = 2 * np.arange(len(j)), np.arange(N), 1.0 / math.sqrt(2 * N)
    X = np.zeros((N * N, N, N), dtype=complex)
    X[pair, j, k], X[pair, k, j] = c, -c
    X[pair + 1, j, k] = X[pair + 1, k, j] = 1j * c
    X[N * N - N + d, d, d] = 1j / math.sqrt(N)
    return BasisUN(N=N, elements=tuple(X))


def _basis_batches(N: int) -> list[np.ndarray]:
    """basis_uN(N)'s array in slices of at most _BASIS_BYTES (at least one element)."""
    X = basis_uN(N).elements[0].base  # the array the elements are slices of
    step = max(1, _BASIS_BYTES // X[0].nbytes)
    return [X[lo:lo + step] for lo in range(0, len(X), step)]


def verify_magic(N: int) -> dict:
    """Numerically verify the four magic formulas at random A, B in M_N.

    sum X^2 = -I,  sum X A X = -tr(A) I,  sum tr(XA) X = -A/N^2,
    sum tr(XA) tr(XB) = -tr(AB)/N^2.  A and B are drawn with seed 7;
    ``pass`` means every residual is below MAGIC_TOL.  N is checked first.
    """
    _check_basis_N(N)
    rng = np.random.default_rng(7)
    A, B = (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)) for _ in range(2))
    s1 = s2 = s3 = s4 = 0
    for X in _basis_batches(N):
        trXA, trXB = (np.einsum("bij,ji->b", X, M) / N for M in (A, B))
        s1, s2 = s1 + (X @ X).sum(axis=0), s2 + (X @ A @ X).sum(axis=0)
        s3, s4 = s3 + np.einsum("b,bij->ij", trXA, X), s4 + trXA @ trXB
    I = np.eye(N)
    tr = lambda M: np.trace(M) / N
    residuals = {
        "m1": float(np.abs(s1 + I).max()),
        "m2": float(np.abs(s2 + tr(A) * I).max()),
        "m3": float(np.abs(s3 + A / N**2).max()),
        "m4": float(abs(s4 + tr(A @ B) / N**2)),
    }
    residuals["max"] = max(residuals.values())
    residuals["pass"] = residuals["max"] < MAGIC_TOL
    return residuals


# ----------------------------------------------------------------------
# functional calculus
# ----------------------------------------------------------------------


def _check_invertible(Z: np.ndarray) -> None:
    sign, logdet = np.linalg.slogdet(Z)
    if sign == 0 or not np.isfinite(logdet) or logdet < math.log(1e-300):
        raise ValueError("matrix is numerically singular; negative powers undefined")


class _Products:
    """Products of words over ``letters``, each built once and kept: a
    word's product is its prefix's product ``mul`` its last letter, and
    the empty word's is ``one``."""

    def __init__(self, one, letters: dict, mul):
        self.table = {"": one, **letters}
        self.mul = mul

    def __getitem__(self, w: str):
        n = len(w)
        while w[:n] not in self.table:  # the longest prefix built so far
            n -= 1
        for k in range(n + 1, len(w) + 1):
            self.table[w[:k]] = self.mul(self.table[w[:k - 1]], self.table[w[k - 1]])
        return self.table[w]


def _z_products(Z: np.ndarray, used) -> _Products:
    # the letter a = Z, and those of s = Z^*, A = Z^-1, S = Z^-* that ``used`` holds
    letters = {"a": Z}
    if "A" in used or "S" in used:
        _check_invertible(Z)
        letters["A"] = np.linalg.inv(Z)
    for x, star in (("a", "s"), ("A", "S")):
        if star in used:
            letters[star] = letters[x].conj().T
    return _Products(np.eye(Z.shape[0], dtype=complex), letters, np.matmul)


def _has_inverse(p: TracePoly) -> bool:
    return any(k0 < 0 or any(j < 0 for j, _ in ve) for k0, ve in p.terms)


def evaluate(p: TracePoly, Z: CMatrix) -> CMatrix:
    """P_N(Z): substitute u = Z and v_k = tr(Z^k) (normalized trace).
    ValueError first for a ``p`` that ``check_degree`` refuses."""
    check_degree(p.trace_degree())
    Z = np.asarray(Z, dtype=complex)
    zs, N = _z_products(Z, "A" if _has_inverse(p) else ""), len(Z)
    acc = np.zeros((N, N), dtype=complex)
    for (k0, ve), c in p.terms.items():
        for j, e in ve:
            c *= (np.trace(zs[_eps_word(j, 0)]) / N) ** e
        acc += c * zs[_eps_word(k0, 0)]
    return acc


def evaluate_word(pw: WordPoly, Z: CMatrix) -> complex:
    """Value of a word polynomial at Z, using tr(Z^eps1 ... Z^epsn) (``_eval_scalar``)."""
    return _eval_scalar(pw, Z)


# ----------------------------------------------------------------------
# exact Laplacian evaluation (summed over an explicit basis)
# ----------------------------------------------------------------------
#
# For fixed X, P_N(U e^{eps X}) is expanded exactly to second order in eps
# by jet arithmetic: e^{eps X} = I + eps X + eps^2 X^2/2 + O(eps^3), and
# each monomial factor (u-power or trace factor) becomes a degree-2 jet.
# This reproduces the insertion formulas for d_X U^n and d_X tr(U^n)
# without any finite differencing; d^2_X P_N(U) is twice the eps^2
# coefficient, summed over the basis.


def _batch_mul(x, y):
    # (b, N, N) @ (N, N) as one (b N, N) gemm, not numpy's b gemms: the same bits, faster
    return (x.reshape(-1, x.shape[-1]) @ y).reshape(x.shape) if x.ndim > y.ndim else x @ y


def _jet_mul(a, b):
    return (a[0] @ b[0],
            a[0] @ b[1] + _batch_mul(a[1], b[0]),
            a[0] @ b[2] + a[1] @ b[1] + _batch_mul(a[2], b[0]))


def laplacian_eval(p: TracePoly, U: CMatrix, N: int) -> CMatrix:
    """sum_{X in beta_N} d^2/deps^2 P_N(U e^{eps X}): the U_N Laplacian of P_N.
    ValueError first for a ``p`` that ``check_degree`` refuses, then for N."""
    check_degree(p.trace_degree())
    _check_basis_N(N)
    U = np.asarray(U, dtype=complex)
    if U.shape != (N, N):
        raise ValueError(f"U has shape {U.shape}, expected ({N}, {N})")
    zs = _z_products(U, "A" if _has_inverse(p) else "").table  # U^-1 only for inverse powers
    Ui, nil = zs.get("A"), np.zeros((1, N, N), complex)
    acc = np.zeros((N, N), dtype=complex)
    for X in _basis_batches(N):
        X2h, zero = 0.5 * (X @ X), np.zeros(len(X), complex)
        # U e^{eps X}, e^{-eps X} U^{-1} if p has inverse powers, their products,
        # as jets whose first and second orders run over the batch
        letters = {"a": (U, U @ X, U @ X2h)} | ({"A": (Ui, -X @ Ui, X2h @ Ui)} if "A" in zs else {})
        jets = _Products((zs[""], nil, nil), letters, _jet_mul)
        for (k0, ve), c in p.terms.items():
            s0, s1, s2 = complex(c), zero, zero
            for j, e in ve:
                t0, t1, t2 = (np.trace(m, axis1=-2, axis2=-1) / N for m in jets[_eps_word(j, 0)])
                for _ in range(e):
                    s0, s1, s2 = (s0 * t0, s0 * t1 + s1 * t0,
                                  s0 * t2 + s1 * t1 + s2 * t0)
            m0, m1, m2 = jets[_eps_word(k0, 0)]
            acc += 2.0 * (m0 * s2.sum() + np.einsum("b,bij->ij", s1, m1) + s0 * m2.sum(axis=0))
    return acc


# ----------------------------------------------------------------------
# matrix exponential
# ----------------------------------------------------------------------


def expm(M: CMatrix) -> CMatrix:
    """e^M by scaling and squaring around a degree-12 Taylor polynomial
    (``operators._expm_batch`` on one slice).

    Anti-Hermitian M yields a unitary result to roundoff.  M must be a
    square 2-D array (ValueError otherwise); 0 x 0 gives 0 x 0; a 1-norm of
    0.31 * 2^26 (about 2.1e7) or more, ValueError.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expm needs a square 2-D array, got shape {M.shape}")
    if M.size == 0:
        return M.copy()
    return _expm_batch(M[np.newaxis])[0]


# ----------------------------------------------------------------------
# heat kernel samplers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerCfg(Measure):
    """The rho_s^N (t = 0) / mu_{s,t}^N sampler: a Measure (see its rule)
    with the Euler steps and the seed; ValueError unless also
    1 <= N <= MAX_SAMPLER_N and 1 <= steps <= MAX_SAMPLER_STEPS."""

    steps: int = 200
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.N > MAX_SAMPLER_N:  # Measure refused a non-integer N and N < 1
            raise ValueError(f"N must be in [1, {MAX_SAMPLER_N}], got {self.N}")
        if not 1 <= self.steps <= MAX_SAMPLER_STEPS:
            raise ValueError(f"steps must be in [1, {MAX_SAMPLER_STEPS}], got {self.steps}")


def _stream(seed: int, index: int) -> np.random.Generator:
    key = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.SFC64(int.from_bytes(key, "little")))


def _sample_batch(cfg: SamplerCfg, indices: list[int]) -> np.ndarray:
    """Endpoints of the Euler paths for the given sample indices.

    A Gaussian on u(N), sum_b xi_b X_b over the basis, is written from one
    standard-normal N x N block z as (z - z^T + i(z + z^T)) / (2 sqrt(N)):
    for j < k, (z_jk - z_kj, z_jk + z_kj) is sqrt(2) times a 45-degree
    rotation of the iid pair (z_jk, z_kj), so iid N(0, 2) as the basis sum
    requires, and the diagonal is 2i z_jj; so N^2 normals per noise.  The
    step sqrt(d)(sqrt(a) G1 + i sqrt(b) G2), d = 1/steps, runs at unit time
    with (a, b) = (s - t/2, t/2), so rho has b = 0 and draws one noise; it
    is real arithmetic with sqrt(a d / 4N) and sqrt(b d / 4N) folded in, in
    buffers made once per chunk, and U E is ``_real_gemm``, with E's form in
    work slots 3 and 4, which ``_expm_batch`` leaves free.
    """
    N, steps = cfg.N, cfg.steps
    # the noise count follows the measure, not wb: t/2 may underflow to 0
    n_noise = 2 if cfg.kind == "mu" else 1
    wa, wb = (math.sqrt(w / steps / (4.0 * N)) for w in (cfg.s - cfg.t / 2.0, cfg.t / 2.0))
    # each sample's stream fills its slice of one noise block in order, so
    # drawing a block of steps at a time gives the same numbers as drawing
    # all steps at once
    streams = [_stream(cfg.seed, i) for i in indices]
    n = len(streams)
    block = max(1, _DRAW_BYTES // (n * n_noise * N * N * 8))
    noise = np.empty((n, min(block, steps), n_noise, N, N))
    A, R = np.empty((n, N, N), dtype=complex), np.empty((n, N, N))
    U, U_next = np.broadcast_to(np.eye(N, dtype=complex), (2, n, N, N)).copy()
    work = np.empty((7, n, N, N), dtype=complex)
    # a large finite t can overflow mu's GL_N path: raise, never return inf/NaN
    with np.errstate(over="raise", invalid="raise"):
        for lo in range(0, steps, block):
            nb = min(block, steps - lo)
            for g, out in zip(streams, noise[:, :nb]):
                g.standard_normal(out.shape, out=out)
            for step in range(nb):
                z = noise[:, step, 0]
                np.multiply(wa, np.subtract(z, np.swapaxes(z, -1, -2), out=R), out=A.real)
                np.multiply(wa, np.add(z, np.swapaxes(z, -1, -2), out=R), out=A.imag)
                if n_noise == 2:
                    z = noise[:, step, 1]
                    A.real -= np.multiply(wb, np.add(z, np.swapaxes(z, -1, -2), out=R), out=R)
                    A.imag += np.multiply(wb, np.subtract(z, np.swapaxes(z, -1, -2), out=R), out=R)
                _real_gemm(U, _expm_batch(A, work), U_next, work, 3)
                U, U_next = U_next, U
    return U


def sample_rho(cfg: SamplerCfg, index: int = 0) -> CMatrix:
    """One sample of rho_s^N on U_N, the sampler at t = 0 (cfg.t must be 0)."""
    if cfg.kind != "rho":
        raise ValueError("sample_rho requires cfg.t == 0")
    return _sample_batch(cfg, [index])[0]


def sample_mu(cfg: SamplerCfg, index: int = 0) -> CMatrix:
    """One sample of mu_{s,t}^N on GL_N, the sampler at t > 0 (two noises)."""
    if cfg.kind != "mu":
        raise ValueError("sample_mu requires t > 0 (use sample_rho for t = 0)")
    return _sample_batch(cfg, [index])[0]


# ----------------------------------------------------------------------
# Monte Carlo expectations and concentration
# ----------------------------------------------------------------------


def _eval_scalar(pw: WordPoly, Z: CMatrix) -> complex:
    # the word evaluator: each word's product built once, from the letters pw uses
    Z = np.asarray(Z, dtype=complex)
    zs = _z_products(Z, {ch for m in pw.terms for w, _ in m for ch in w})
    tot = 0j
    for m, c in pw.terms.items():
        val = complex(c)
        for w, e in m:
            val *= complex(np.trace(zs[w]) / Z.shape[0]) ** e
        tot += val
    return tot


def _map_samples(cfg: SamplerCfg, nsamples: int, fn,
                 threads: int | None) -> tuple[complex, float]:
    """Mean and standard error of fn(Z_0), ..., fn(Z_{nsamples-1}) over
    sampled endpoints.

    Samples are drawn in fixed chunks of ``_CHUNK`` indices, from N =
    ``_POOL_MIN_N`` on by a pool of min(``threads`` or cores, chunks, cores)
    threads when that is above 1; neither changes any value.  ValueError:
    fewer than two samples (no standard error) or ``threads`` below 1.
    """
    if nsamples < 2:
        raise ValueError("nsamples must be >= 2")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    chunks = [list(range(lo, min(lo + _CHUNK, nsamples)))
              for lo in range(0, nsamples, _CHUNK)]

    def run(chunk: list[int]) -> list:
        return [fn(Z) for Z in _sample_batch(cfg, chunk)]

    cores = os.cpu_count() or 1
    workers = min(threads or cores, len(chunks), cores) if cfg.N >= _POOL_MIN_N else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(chunk) for chunk in chunks]
    vals = np.array([x for res in results for x in res], dtype=complex)
    mean = complex(vals.sum() / nsamples)  # fixed-order accumulation
    resid = np.abs(vals - mean) ** 2
    return mean, math.sqrt(float(resid.sum()) / (nsamples * (nsamples - 1)))


def mc_expectation(f, cfg: SamplerCfg, nsamples: int,
                   threads: int | None = None) -> tuple[complex, float]:
    """Monte Carlo mean and standard error of a scalar observable.

    ``f`` is a WordPoly or a u-free TracePoly q, evaluated as iota(q);
    samples come from rho_s^N when cfg.t == 0 and from mu_{s,t}^N otherwise.
    Sample i always uses the stream derived from (seed, i): the result is
    independent of ``threads``, a cap on the pool, and of chunk scheduling.
    Before any sample: TypeError for any other ``f``, then ValueError for a
    trace degree above 2 * MAX_DEGREE (``check_degree``) or a power of u.
    """
    if not isinstance(f, (TracePoly, WordPoly)):
        raise TypeError(f"mc_expectation needs a TracePoly or WordPoly, got {type(f).__name__}")
    check_degree(f.trace_degree())
    if isinstance(f, TracePoly):
        _require_u_free(f, "mc_expectation")
        f = iota(f)
    return _map_samples(cfg, nsamples, lambda Z: _eval_scalar(f, Z), threads)


def concentration_experiment(p: TracePoly, s: float, t: float, Ns: list[int],
                             mode: str = "symbolic", steps: int = 200,
                             samples: int = 400, seed: int = 0,
                             threads: int | None = None) -> dict:
    """Norm of p - pi p across N, with the fitted log-log slope.

    With t == 0 the deviation ||p - pi_s p||^2 is taken in L^2(rho_s^N);
    otherwise pi_{s-t} is subtracted and the norm is over mu_{s,t}^N.
    The concentration theorems give slope -2 (variance order 1/N^2).
    ValueError first, in both modes, for a ``p`` whose B(p, p) ``check_degree``
    refuses, as ``sesq_B`` does.
    """
    check_degree(2 * p.trace_degree())
    if len(Ns) < 3 or any(a >= b for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly ascending with at least 3 entries")
    if mode not in ("symbolic", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    # every measure is checked before any work
    measures = [Measure(N, s, t) if mode == "symbolic"
                else SamplerCfg(N=N, s=s, t=t, steps=steps, seed=seed) for N in Ns]
    dev = p - pi_eval(p, s - t)
    rows = []
    for meas in measures:
        N, stderr = meas.N, None
        if mode == "symbolic":
            val = l2_norm_sq(dev, meas)
        else:
            def sq_norm(Z: np.ndarray) -> float:
                D = evaluate(dev, Z)
                return float(np.trace(D @ D.conj().T).real) / N

            mean, stderr = _map_samples(meas, samples, sq_norm, threads)
            val = mean.real
        rows.append({"N": N, "value": val, "stderr": stderr})
    vals = [r["value"] for r in rows]
    slope = None if min(vals) <= 0.0 else float(np.polyfit(np.log(Ns), np.log(vals), 1)[0])
    return {"rows": rows, "slope": slope}


# ----------------------------------------------------------------------
# the zero test
# ----------------------------------------------------------------------


def zero_test(p: TracePoly, N: int) -> float:
    """max entrywise |P_N(D)| over 8 random diagonal D with distinct phases.

    Trace polynomials that vanish on U_N vanish here too; nonvanishing
    ones are typically bounded well away from zero at such witnesses.
    The witnesses are drawn with seed 0.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(8):
        while True:
            theta = rng.uniform(0.0, 2.0 * math.pi, size=N)
            if N == 1 or np.abs(np.subtract.outer(theta, theta))[
                    ~np.eye(N, dtype=bool)].min() > 1e-3:
                break
        D = np.diag(np.exp(1j * theta))
        worst = max(worst, float(np.abs(evaluate(p, D)).max()))
    return worst
