"""Finite-N ground truth on U_N and GL_N.

Explicit orthonormal bases of u(N) under <X,Y> = N Tr(Y^* X), numeric
verification of the magic formulas, functional-calculus evaluation of
trace and word polynomials, an exact (symbolic-in-X) Laplacian evaluator,
Monte Carlo samplers for the heat kernel measures rho_s^N on U_N and
mu_{s,t}^N on GL_N, and concentration experiments.

Sampling uses a right-increment geodesic Euler scheme U <- U exp(sqrt(d) G)
with G drawn from the Gaussian measure on u(N) determined by the basis;
the scheme is weak order 1 and the Ito drift is produced automatically by
the exponential because sum_X X^2 = -I.  A chunk of samples takes each
step together: G is written from the chunk's standard-normal draws, which
every stream fills in place, a block of steps at a time, and the batched
exponential is a degree-16 Taylor polynomial under scaling and squaring.
Every sample index gets its own counter-based RNG stream derived from
(seed, index), so results do not depend on thread count or scheduling.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tracepoly import TracePoly
from .words import Measure, WordPoly, l2_norm_sq
from .moments import pi_eval

RNG_NAME = "philox4x64"
MAX_SAMPLER_N = 128
_CHUNK = 128  # fixed MC batch size: chunk layout must not depend on threads
_DRAW_BYTES = 32 << 20  # noise one chunk draws at once (whole steps, at least one)
MAGIC_TOL = 1e-11  # verify_magic passes when every residual is below this

CMatrix = np.ndarray

# ----------------------------------------------------------------------
# bases and magic formulas
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BasisUN:
    N: int
    elements: tuple[np.ndarray, ...]


def basis_uN(N: int) -> BasisUN:
    """Orthonormal basis of u(N) under <X,Y> = N Tr(Y^* X).

    {(E_jk - E_kj)/sqrt(2N)} and {i(E_jk + E_kj)/sqrt(2N)} for j < k,
    plus {i E_jj / sqrt(N)}; N^2 anti-Hermitian matrices in total.
    """
    if not 1 <= N <= MAX_SAMPLER_N:
        raise ValueError(f"basis_uN supports 1 <= N <= {MAX_SAMPLER_N}, got {N}")
    out = []
    for j in range(N):
        for k in range(j + 1, N):
            E = np.zeros((N, N), dtype=complex)
            E[j, k] = 1.0
            out.append((E - E.T) / math.sqrt(2 * N))
            out.append(1j * (E + E.T) / math.sqrt(2 * N))
    for j in range(N):
        E = np.zeros((N, N), dtype=complex)
        E[j, j] = 1j
        out.append(E / math.sqrt(N))
    return BasisUN(N=N, elements=tuple(out))


def verify_magic(N: int) -> dict:
    """Numerically verify the four magic formulas at random A, B in M_N.

    sum X^2 = -I,  sum X A X = -tr(A) I,  sum tr(XA) X = -A/N^2,
    sum tr(XA) tr(XB) = -tr(AB)/N^2.  A and B are drawn with seed 7;
    ``pass`` means every residual is below MAGIC_TOL.
    """
    rng = np.random.default_rng(7)
    A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    B = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    basis = basis_uN(N).elements
    I = np.eye(N)
    tr = lambda M: np.trace(M) / N

    s1 = sum(X @ X for X in basis)
    s2 = sum(X @ A @ X for X in basis)
    s3 = sum(tr(X @ A) * X for X in basis)
    s4 = sum(tr(X @ A) * tr(X @ B) for X in basis)
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


class _PowerCache:
    def __init__(self, Z: np.ndarray):
        self.cache = {0: np.eye(Z.shape[0], dtype=complex), 1: np.asarray(Z, dtype=complex)}

    def __getitem__(self, k: int) -> np.ndarray:
        if k not in self.cache:
            if k == -1:
                self.cache[k] = np.linalg.inv(self.cache[1])
            elif k > 0:
                self.cache[k] = self[k - 1] @ self.cache[1]
            else:
                self.cache[k] = self[k + 1] @ self[-1]
        return self.cache[k]


def _has_inverse(p: TracePoly) -> bool:
    return any(k0 < 0 or any(j < 0 for j, _ in ve) for k0, ve in p.terms)


def _trace_product(c: complex, ve, pw: _PowerCache, N: int) -> complex:
    # c * prod_j tr(Z^j)^e_j over the v-part of a monomial
    for j, e in ve:
        c *= (np.trace(pw[j]) / N) ** e
    return c


def evaluate(p: TracePoly, Z: CMatrix) -> CMatrix:
    """P_N(Z): substitute u = Z and v_k = tr(Z^k) (normalized trace)."""
    Z = np.asarray(Z, dtype=complex)
    N = Z.shape[0]
    if _has_inverse(p):
        _check_invertible(Z)
    pw = _PowerCache(Z)
    acc = np.zeros((N, N), dtype=complex)
    for (k0, ve), c in p.terms.items():
        acc += _trace_product(c, ve, pw, N) * pw[k0]
    return acc


def evaluate_word(pw: WordPoly, Z: CMatrix) -> complex:
    """Value of a word polynomial at Z, using tr(Z^eps1 ... Z^epsn)."""
    Z = np.asarray(Z, dtype=complex)
    N = Z.shape[0]
    if any(ch in "AS" for m in pw.terms for w, _ in m for ch in w):
        _check_invertible(Z)
        Zi = np.linalg.inv(Z)
    else:
        Zi = None  # never referenced: no inverse letters present
    mats = {"a": Z, "A": Zi, "s": Z.conj().T,
            "S": None if Zi is None else Zi.conj().T}
    tr_cache: dict[str, complex] = {"": 1.0 + 0j}

    def tr_word(w: str) -> complex:
        if w not in tr_cache:
            M = mats[w[0]]
            for ch in w[1:]:
                M = M @ mats[ch]
            tr_cache[w] = complex(np.trace(M) / N)
        return tr_cache[w]

    tot = 0j
    for m, c in pw.terms.items():
        val = complex(c)
        for w, e in m:
            val *= tr_word(w) ** e
        tot += val
    return tot


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


def _jet_mul(a, b):
    return (a[0] @ b[0],
            a[0] @ b[1] + a[1] @ b[0],
            a[0] @ b[2] + a[1] @ b[1] + a[2] @ b[0])


def _jet_pow(base, n: int, N: int):
    out = (np.eye(N, dtype=complex), np.zeros((N, N), complex), np.zeros((N, N), complex))
    for _ in range(n):
        out = _jet_mul(out, base)
    return out


def laplacian_eval(p: TracePoly, U: CMatrix, N: int) -> CMatrix:
    """sum_{X in beta_N} d^2/deps^2 P_N(U e^{eps X}): the U_N Laplacian of P_N."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (N, N):
        raise ValueError(f"U has shape {U.shape}, expected ({N}, {N})")
    if _has_inverse(p):
        _check_invertible(U)
    Ui = np.linalg.inv(U)
    acc = np.zeros((N, N), dtype=complex)
    for X in basis_uN(N).elements:
        X2h = 0.5 * (X @ X)
        jU = (U, U @ X, U @ X2h)            # U e^{eps X}
        jUi = (Ui, -X @ Ui, X2h @ Ui)       # e^{-eps X} U^{-1}
        pow_cache: dict[int, tuple] = {}

        def mpow(k: int):
            if k not in pow_cache:
                pow_cache[k] = _jet_pow(jU if k >= 0 else jUi, abs(k), N)
            return pow_cache[k]

        for (k0, ve), c in p.terms.items():
            s0, s1, s2 = complex(c), 0j, 0j
            for j, e in ve:
                tj = mpow(j)
                t0, t1, t2 = (np.trace(tj[0]) / N, np.trace(tj[1]) / N,
                              np.trace(tj[2]) / N)
                for _ in range(e):
                    s0, s1, s2 = (s0 * t0, s0 * t1 + s1 * t0,
                                  s0 * t2 + s1 * t1 + s2 * t0)
            m0, m1, m2 = mpow(k0)
            acc += 2.0 * (m0 * s2 + m1 * s1 + m2 * s0)
    return acc


# ----------------------------------------------------------------------
# matrix exponential
# ----------------------------------------------------------------------


def expm(M: CMatrix) -> CMatrix:
    """e^M by scaling and squaring around a degree-16 Taylor polynomial.

    M is scaled by the least power 2^-s (s >= 0) that brings its 1-norm to
    at most 0.78, where the Taylor tail is below 4.3e-17 relative; the
    polynomial takes six matrix products (Paterson-Stockmeyer) and s
    squarings follow.  Anti-Hermitian M yields a unitary result to
    roundoff.
    """
    M = np.asarray(M, dtype=complex)
    return _expm_batch(M[np.newaxis])[0]


# Taylor coefficients 1/k! of the degree-16 polynomial, and the 1-norm
# each slice is scaled to: the forward tail sum_{k>16} theta^k/k! is at
# most theta^17/17! / (1 - theta/18) ~ 4.3e-17, below half a unit roundoff
_EXPM_COEFFS = tuple(1.0 / math.factorial(k) for k in range(17))
_EXPM_THETA = 0.78


def _expm_batch(Ms: np.ndarray) -> np.ndarray:
    """Batched e^M over the leading axis.

    Each slice is scaled by 2^-s, with s >= 0 the least power that brings
    its 1-norm to at most 0.78, and the degree-16 Taylor polynomial is
    evaluated by Paterson-Stockmeyer: A^2, A^3, A^4, then three Horner
    products in A^4 (six batched matmuls in all).  The truncation tail
    is below 4.3e-17 relative, under half a unit roundoff; s squarings
    undo the scaling.  The scaling and every operation are per slice, so
    a slice gets bitwise the same arithmetic however the batch is
    assembled.  Non-finite input raises ValueError.
    """
    Ms = np.asarray(Ms, dtype=complex)
    if Ms.shape[0] == 0:
        return Ms.copy()
    norms = np.abs(Ms).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norms).all():
        raise ValueError("matrix exponential of a non-finite matrix")
    # frexp: norms/theta = m 2^e with 1/2 <= m < 1, so 2^-e brings it below 1
    nsq = np.maximum(np.frexp(norms / _EXPM_THETA)[1], 0)
    A = Ms * np.ldexp(1.0, -nsq)[:, np.newaxis, np.newaxis] if nsq.any() else Ms
    A2 = A @ A
    A3 = A2 @ A
    A4 = A2 @ A2
    N, c = Ms.shape[-1], _EXPM_COEFFS
    E = c[16] * A4
    # Horner in A^4: E <- A^4 E + c_{4j} I + c_{4j+1} A + c_{4j+2} A^2 + c_{4j+3} A^3
    for j in (3, 2, 1, 0):
        if j < 3:
            E = A4 @ E
        E += c[4 * j + 1] * A
        E += c[4 * j + 2] * A2
        E += c[4 * j + 3] * A3
        E.reshape(-1, N * N)[:, ::N + 1] += c[4 * j]
    for r in range(int(nsq.max())):
        m = nsq > r
        E[m] = E[m] @ E[m]
    return E


# ----------------------------------------------------------------------
# heat kernel samplers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerCfg:
    """Configuration for the rho_s^N / mu_{s,t}^N samplers (t=0: unitary case)."""

    N: int
    s: float
    t: float = 0.0
    steps: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.N <= MAX_SAMPLER_N:
            raise ValueError(f"N must be in [1, {MAX_SAMPLER_N}], got {self.N}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (math.isfinite(self.s) and math.isfinite(self.t)):
            raise ValueError(f"non-finite sampler time: s={self.s}, t={self.t}")


def _stream(seed: int, index: int) -> np.random.Generator:
    key = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(key, "little")))


def _sample_batch(cfg: SamplerCfg, indices: list[int]) -> np.ndarray:
    """Endpoints of the Euler paths for the given sample indices.

    A Gaussian on u(N), sum_b xi_b X_b over the basis, is written from a
    standard-normal pair (x, y) as (x - x^T + i(y + y^T)) / (2 sqrt(N)).  The
    step sqrt(d)(sqrt(a) G1 + i sqrt(b) G2), with (a, b) = (1, 0) for rho, is
    built in real arithmetic with sqrt(d a / 4N) and sqrt(d b / 4N) folded.
    """
    N, steps = cfg.N, cfg.steps
    is_mu = cfg.t != 0.0
    if is_mu:
        if cfg.t < 0:
            raise ValueError("mu sampler requires t >= 0")
        if cfg.s - cfg.t / 2.0 <= 0:
            raise ValueError("mu sampler requires s > t/2 strictly")
        delta = 1.0 / steps
        n_noise = 2
        weights = (cfg.s - cfg.t / 2.0, cfg.t / 2.0)
    else:
        if cfg.s < 0:
            raise ValueError("rho sampler requires s >= 0")
        delta = cfg.s / steps
        n_noise = 1
        weights = (1.0, 0.0)
    wa, wb = (math.sqrt(delta * w / (4.0 * N)) for w in weights)
    # each sample's stream fills its slice of one noise block in order, so
    # drawing a block of steps at a time gives the same numbers as drawing
    # all steps at once
    streams = [_stream(cfg.seed, i) for i in indices]
    n = len(streams)
    block = max(1, _DRAW_BYTES // (n * n_noise * 2 * N * N * 8))
    noise = np.empty((n, min(block, steps), n_noise, 2, N, N))
    A = np.empty((n, N, N), dtype=complex)
    U = np.broadcast_to(np.eye(N, dtype=complex), (n, N, N)).copy()
    for lo in range(0, steps, block):
        nb = min(block, steps - lo)
        for g, out in zip(streams, noise[:, :nb]):
            g.standard_normal(out.shape, out=out)
        for step in range(nb):
            x, y = noise[:, step, 0, 0], noise[:, step, 0, 1]
            np.multiply(wa, x - np.swapaxes(x, -1, -2), out=A.real)
            np.multiply(wa, y + np.swapaxes(y, -1, -2), out=A.imag)
            if is_mu:
                x, y = noise[:, step, 1, 0], noise[:, step, 1, 1]
                A.real -= wb * (y + np.swapaxes(y, -1, -2))
                A.imag += wb * (x - np.swapaxes(x, -1, -2))
            U = U @ _expm_batch(A)
    return U


def sample_rho(cfg: SamplerCfg, index: int = 0) -> CMatrix:
    """One sample of the heat kernel measure rho_s^N on U_N (cfg.t must be 0)."""
    if cfg.t != 0.0:
        raise ValueError("sample_rho requires cfg.t == 0")
    return _sample_batch(cfg, [index])[0]


def sample_mu(cfg: SamplerCfg, index: int = 0) -> CMatrix:
    """One sample of mu_{s,t}^N on GL_N (total diffusion time 1)."""
    if cfg.t == 0.0:
        raise ValueError("sample_mu requires t > 0 (use sample_rho for t = 0)")
    return _sample_batch(cfg, [index])[0]


# ----------------------------------------------------------------------
# Monte Carlo expectations and concentration
# ----------------------------------------------------------------------


def _eval_scalar(f, Z: np.ndarray) -> complex:
    if isinstance(f, WordPoly):
        return evaluate_word(f, Z)
    if isinstance(f, TracePoly):
        if not f.is_scalar():
            raise ValueError("mc scalar evaluation needs a u-free polynomial")
        if _has_inverse(f):
            _check_invertible(Z)
        pw = _PowerCache(Z)
        tot = 0j
        for (_, ve), c in f.terms.items():
            tot += _trace_product(c, ve, pw, Z.shape[0])
        return tot
    raise TypeError(f"cannot evaluate {type(f).__name__} as a scalar observable")


def _map_samples(cfg: SamplerCfg, nsamples: int, fn, threads: int | None) -> list:
    """[fn(Z_0), ..., fn(Z_{nsamples-1})] over sampled endpoints, in index order.

    Samples are drawn in fixed chunks of ``_CHUNK`` indices, on a thread
    pool when ``threads`` > 1; neither changes any value.
    """
    chunks = [list(range(lo, min(lo + _CHUNK, nsamples)))
              for lo in range(0, nsamples, _CHUNK)]

    def run(chunk: list[int]) -> list:
        return [fn(Z) for Z in _sample_batch(cfg, chunk)]

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(chunk) for chunk in chunks]
    return [x for res in results for x in res]


def mc_expectation(f, cfg: SamplerCfg, nsamples: int,
                   threads: int | None = None) -> tuple[complex, float]:
    """Monte Carlo mean and standard error of a scalar observable.

    ``f`` is a u-free TracePoly or a WordPoly; samples come from rho_s^N
    when cfg.t == 0 and from mu_{s,t}^N otherwise.  Sample i always uses
    the stream derived from (seed, i): the result is independent of
    ``threads`` and of chunk scheduling.
    """
    if nsamples < 2:
        raise ValueError("nsamples must be >= 2")
    vals = np.array(_map_samples(cfg, nsamples, lambda Z: _eval_scalar(f, Z), threads),
                    dtype=complex)
    mean = complex(vals.sum() / nsamples)  # fixed-order accumulation
    resid = np.abs(vals - mean) ** 2
    stderr = math.sqrt(float(resid.sum()) / (nsamples * (nsamples - 1)))
    return mean, stderr


def concentration_experiment(p: TracePoly, s: float, t: float, Ns: list[int],
                             mode: str = "symbolic", steps: int = 200,
                             samples: int = 400, seed: int = 0,
                             threads: int | None = None) -> dict:
    """Norm of p - pi p across N, with the fitted log-log slope.

    With t == 0 the deviation ||p - pi_s p||^2 is taken in L^2(rho_s^N);
    otherwise pi_{s-t} is subtracted and the norm is over mu_{s,t}^N.
    The concentration theorems give slope -2 (variance order 1/N^2).
    """
    if len(Ns) < 3 or sorted(Ns) != list(Ns):
        raise ValueError("Ns must be ascending with at least 3 entries")
    if mode not in ("symbolic", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    dev = p - pi_eval(p, s - t if t != 0.0 else s)
    rows = []
    for N in Ns:
        stderr = None
        if mode == "symbolic":
            meas = Measure.mu(s, t, N) if t != 0.0 else Measure.rho(s, N)
            val = l2_norm_sq(dev, meas)
        else:
            def sq_norm(Z: np.ndarray) -> float:
                D = evaluate(dev, Z)
                return float(np.trace(D @ D.conj().T).real) / N

            cfg = SamplerCfg(N=N, s=s, t=t, steps=steps, seed=seed)
            acc = _map_samples(cfg, samples, sq_norm, threads)
            val = float(sum(acc) / len(acc))
            stderr = math.sqrt(sum((x - val) ** 2 for x in acc)
                               / (len(acc) * (len(acc) - 1)))
        rows.append({"N": N, "value": val, "stderr": stderr})
    vals = [r["value"] for r in rows]
    if min(vals) <= 0.0:
        slope = None
    else:
        slope = float(np.polyfit(np.log(Ns), np.log(vals), 1)[0])
    return {"rows": rows, "slope": slope}


# ----------------------------------------------------------------------
# equivariance and the zero test
# ----------------------------------------------------------------------


def _random_unitary(rng: np.random.Generator, N: int) -> np.ndarray:
    A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def equivariance_check(p: TracePoly, N: int, seed: int = 0, trials: int = 5) -> float:
    """max ||P_N(V U V^-1) - V P_N(U) V^-1|| over random unitary U, V."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        U = _random_unitary(rng, N)
        V = _random_unitary(rng, N)
        lhs = evaluate(p, V @ U @ V.conj().T)
        rhs = V @ evaluate(p, U) @ V.conj().T
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


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
