"""The benchmark's four seeded workloads.

Each workload turns a seed into passes of operations ("ops").  A pass has
the same mix of op kinds for every seed; only the parameters are drawn.
An op is a JSON-friendly dict (its kind and parameters), so the op list
of a run can be recorded and any failing op replayed with ``run_op``.

Every op calls public functions of ``freesb``, and the workload's
``check`` tests every op's output through an independent route or a
closed form.  Checks are not part of an op's latency.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib

import numpy as np

import freesb
from freesb import cli
from freesb.moments import pi_via_semigroup
from freesb.operators import GeneratorSpec
from freesb.tracepoly import mono

u = freesb.TracePoly.u
v = freesb.TracePoly.v

ROUND_TRIP_TOL = 1e-9   # AC-9: H(G(f)) and G(H(f)) against f
PI_ROUTE_TOL = 1e-10    # AC-12: pi_eval against pi_via_semigroup
CROSS_TOL = 1e-9        # other cross-routes, relative to the result's size
# AC-10 tests once, on 4000 samples, that the gap is below 3 stderr + 0.002.
# Applied to every 128-sample op, 3 stderr would fail a correct sampler on
# about 1 op in 400, i.e. several times in one set of runs; 4.5 stderr
# (about 1 in 150,000) keeps AC-10's form and slack without false alarms.
MC_SIGMAS = 4.5
MC_SLACK = 0.002
MC_SAMPLES = 128


def _st(rng) -> dict:
    """(s, t) with s > t/2 > 0, drawn per op so float-keyed caches miss.

    The work of a transform grows with t (more Taylor stages) and barely
    with s, so t is drawn from a narrow range: every op gets fresh floats,
    and the work per op, hence the timings, stays steady across seeds.
    """
    return {"s": float(rng.uniform(1.3, 1.7)), "t": float(rng.uniform(0.78, 0.82))}


def _shuffled(rng, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


def _scale(p) -> float:
    return max(1.0, p.coeff_max())


def _rho_expect(p, s: float, N: int) -> complex:
    """E[P_N(U)] under rho_s^N through the trace engine: (e^{(s/2) D_N} P)(I).

    An independent route to the word engine's ``expectation``: the
    Laplacian intertwines with D_N, and at U = I every u and v_j is 1.
    """
    q = freesb.exp_apply(GeneratorSpec.DN(N), s / 2.0, p)
    return complex(sum(q.terms.values()))


def _adjoint(p):
    """P^* on U_N: conjugate coefficients, u^k -> u^-k and v_j -> v_-j."""
    return freesb.TracePoly({mono(-k0, [(-j, e) for j, e in ve]): c.conjugate()
                             for (k0, ve), c in p.terms.items()})


def _random_poly(rng, budgets):
    """A random v-heavy trace polynomial with one term per entry of
    ``budgets``, each term of exactly that trace degree (at most 6).

    Each term has a u-power in {-1, 0, 1} (0 most often) and v-factors
    drawn until its degree budget is spent.  The work of the semigroup
    grows steeply with the degrees, so fixing them per op slot keeps the
    work per slot steady while every monomial is drawn fresh.
    """
    terms = {}
    for degree in budgets:
        m = None
        while m is None or m in terms:
            k0 = int(rng.choice([-1, 0, 0, 0, 1]))
            budget = degree - abs(k0)
            ve: dict[int, int] = {}
            while budget > 0:
                j = int(rng.integers(-budget, budget + 1))
                if j == 0:
                    continue
                ve[j] = ve.get(j, 0) + 1
                budget -= abs(j)
            m = mono(k0, ve.items())
        terms[m] = complex(round(float(rng.normal()), 3), round(float(rng.normal()), 3))
    return freesb.TracePoly(terms)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ----------------------------------------------------------------------
# transform: the trace engine on a small, repeating set of monomials


def _transform_pass(rng) -> list[dict]:
    ops = [{"kind": kind, "k": k, **_st(rng)}
           for k in range(-6, 7) if k
           for kind in ("G", "HG", "GH", "biane")]
    ops += [{"kind": "gen_fn", "K": 8, **_st(rng)} for _ in range(3)]
    return _shuffled(rng, ops)


def _transform_run(op):
    kind, s, t = op["kind"], op["s"], op["t"]
    if kind == "G":
        return freesb.G(u(op["k"]), s, t)
    if kind == "HG":
        return freesb.H(freesb.G(u(op["k"]), s, t), s, t)
    if kind == "GH":
        return freesb.G(freesb.H(u(op["k"]), s, t), s, t)
    if kind == "biane":
        return freesb.biane(op["k"], s, t)
    return freesb.verify_gen_fn(s, t, K=op["K"])


def _transform_check(op, out) -> str | None:
    kind, s, t = op["kind"], op["s"], op["t"]
    if kind == "gen_fn":
        return None if out < cli.GEN_FN_TOL else f"residual {out:.3e}"
    k = op["k"]
    if kind in ("HG", "GH"):
        err, bound = (out - u(k)).coeff_max(), ROUND_TRIP_TOL
    elif kind == "G":
        want = pi_via_semigroup(
            freesb.exp_apply(GeneratorSpec.D(), t / 2.0, u(k)), s - t)
        err, bound = (out - want).coeff_max(), PI_ROUTE_TOL * _scale(want)
    else:
        want = freesb.b_poly(abs(k), s).eval(t) * math.exp(abs(k) * t / 2.0)
        if k < 0:
            want = want.invert_u()
        err, bound = (out - want).coeff_max(), CROSS_TOL * _scale(want)
    return None if err < bound else f"error {err:.3e} >= {bound:.3e}"


def _transform_key(op):
    return None if op["kind"] == "gen_fn" else frozenset(u(op["k"]).terms)


def _transform_warm_up() -> str:
    freesb.H(freesb.G(u(1), 1.0, 0.5), 1.0, 0.5)
    return "H(G(u, 1.0, 0.5), 1.0, 0.5)"


# ----------------------------------------------------------------------
# heat_fresh: freesb.cli.main in-process on fresh random polynomials


# The term degrees of the polynomial in each heat_fresh op slot, in turn.
_HEAT_DEGREES = ((6, 5, 4), (5, 5, 5), (6, 4, 3), (4, 4, 4))


def _heat_pass(rng) -> list[dict]:
    def poly(i):
        return freesb.format_poly(_random_poly(rng, _HEAT_DEGREES[i % len(_HEAT_DEGREES)]))

    ops = [{"kind": "heat", "f": poly(i), "N": int(rng.integers(2, 17)),
            "t": float(rng.uniform(0.95, 1.05))} for i in range(12)]
    ops += [{"kind": "transform", "f": poly(i), **_st(rng)} for i in range(6)]
    ops += [{"kind": "intertwine", "N": int(rng.integers(2, 5)), "degree": 4,
             "trials": 2, "seed": int(rng.integers(2**31))} for _ in range(2)]
    return _shuffled(rng, ops)


def _heat_argv(op) -> list[str]:
    kind = op["kind"]
    if kind == "heat":
        return ["heat-apply", "--gen", "DN", "--N", str(op["N"]),
                "--t", repr(op["t"]), "--f", op["f"]]
    if kind == "transform":
        return ["transform", "--dir", "G", "--s", repr(op["s"]),
                "--t", repr(op["t"]), "--f", op["f"]]
    return ["intertwine-check", "--N", str(op["N"]), "--degree", str(op["degree"]),
            "--trials", str(op["trials"]), "--seed", str(op["seed"])]


def _heat_run(op):
    return _cli(_heat_argv(op))


def _heat_check(op, out) -> str | None:
    code, text = out
    if code != 0:
        return f"exit code {code}"
    results = json.loads(text)["results"]
    kind = op["kind"]
    if kind == "intertwine":
        ok = results["pass"] is True and results["max_residual"] < cli.INTERTWINE_TOL
        return None if ok else f"residual {results['max_residual']:.3e}"
    f = freesb.parse(op["f"])
    got = freesb.parse(results["poly"]["text"])
    if kind == "heat":
        # the semigroup property: two half steps make the whole step
        gen, half = GeneratorSpec.DN(op["N"]), op["t"] / 4.0
        want = freesb.exp_apply(gen, half, freesb.exp_apply(gen, half, f))
        err, bound = (got - want).coeff_max(), CROSS_TOL * _scale(want)
    else:
        s, t = op["s"], op["t"]
        want = pi_via_semigroup(
            freesb.exp_apply(GeneratorSpec.D(), t / 2.0, f), s - t)
        err, bound = (got - want).coeff_max(), PI_ROUTE_TOL * _scale(want)
    return None if err < bound else f"error {err:.3e} >= {bound:.3e}"


def _heat_key(op):
    # intertwine-check draws its polynomials inside the CLI from its seed
    return None if op["kind"] == "intertwine" else frozenset(freesb.parse(op["f"]).terms)


def _heat_warm_up() -> str:
    argv = ["heat-apply", "--gen", "DN", "--N", "3", "--t", "0.5", "--f", "u^2 - v1"]
    _cli(argv)
    return "freesb " + " ".join(argv)


# ----------------------------------------------------------------------
# word_expectation: the word engine on the AC-8 family and small norms

_WORD_NS = (4, 8, 16, 32)


def _word_pass(rng) -> list[dict]:
    # s near 1, the AC-8 value: the number of Taylor stages grows with s
    ops = [{"kind": kind, "k": k, "N": N, "s": float(rng.uniform(0.95, 1.05))}
           for k in (1, 2, 3) for N in _WORD_NS for kind in ("abs2", "tr")]
    # Twelve norm_rho ops put the median op of every run inside the group
    # of 5 to 15 ms ops (norm_rho and tr Z^3), whatever the pass count;
    # with fewer it sits where the 3 ms ops end, and reads their jitter.
    # Each N comes equally often, so the mix is the same for every seed.
    for N in _WORD_NS * 3:
        p = freesb.TracePoly({m: complex(round(float(rng.normal()), 3),
                                         round(float(rng.normal()), 3))
                              for m in (mono(1), mono(-1), mono(0, [(1, 1)]))})
        ops.append({"kind": "norm_rho", "p": freesb.format_poly(p),
                    "N": N, "s": float(rng.uniform(0.95, 1.05))})
    for N in _WORD_NS * 2:
        a, b = (complex(round(float(rng.normal()), 3), round(float(rng.normal()), 3))
                for _ in range(2))
        p = freesb.TracePoly({mono(1): a, mono(0): b})
        ops.append({"kind": "norm_mu", "p": freesb.format_poly(p), "N": N, **_st(rng)})
    return _shuffled(rng, ops)


def _word_run(op):
    kind, s, N = op["kind"], op["s"], op["N"]
    if kind == "abs2":
        k = op["k"]
        return freesb.expectation(freesb.iota(v(k)) * freesb.iota_star(v(k)), s, 0.0, N)
    if kind == "tr":
        return freesb.expectation(freesb.iota(v(op["k"])), s, 0.0, N)
    p = freesb.parse(op["p"])
    if kind == "norm_rho":
        return freesb.l2_norm_sq(p, freesb.Measure.rho(s, N))
    return freesb.l2_norm_sq(p, freesb.Measure.mu(s, op["t"], N))


def _word_check(op, out) -> str | None:
    kind, s, N = op["kind"], op["s"], op["N"]
    if kind == "abs2":
        k = op["k"]
        want = _rho_expect(v(k) * v(-k), s, N)   # |tr U^k|^2 = tr(U^k) tr(U^-k)
    elif kind == "tr":
        want = _rho_expect(v(op["k"]), s, N)
        if op["k"] == 1 and abs(out - math.exp(-s / 2.0)) >= CROSS_TOL:
            return f"E tr Z = {out} against e^(-s/2)"
    elif kind == "norm_rho":
        p = freesb.parse(op["p"])
        want = _rho_expect((p * _adjoint(p)).tracing_map(), s, N)
    else:
        # ||a u + b||^2 = |a|^2 e^t + |b|^2 + 2 Re(a b^*) e^{-(s-t)/2}
        p, t = freesb.parse(op["p"]), op["t"]
        a, b = p.coeff(mono(1)), p.coeff(mono(0))
        want = (abs(a) ** 2 * math.exp(t) + abs(b) ** 2
                + 2.0 * (a * b.conjugate()).real * math.exp(-(s - t) / 2.0))
    err, bound = abs(out - want), CROSS_TOL * max(1.0, abs(want))
    return None if err < bound else f"error {err:.3e} >= {bound:.3e}"


def _word_key(op):
    if op["kind"] == "abs2":
        return frozenset((v(op["k"]) * v(-op["k"])).terms)
    if op["kind"] == "tr":
        return frozenset(v(op["k"]).terms)
    return frozenset(freesb.parse(op["p"]).terms)


def _word_warm_up() -> str:
    freesb.expectation(freesb.iota(v(1)) * freesb.iota_star(v(1)), 1.0, 0.0, 4)
    return "expectation(iota(v1) iota_star(v1), s=1.0, t=0, N=4)"


# ----------------------------------------------------------------------
# monte_carlo: the matrix lab's sampler, one 128-sample chunk per op


def _mc_pass(rng) -> list[dict]:
    configs = [(kind, N, steps) for kind in ("rho", "mu") for N in (4, 8, 16)
               for steps in (100, 200)]
    ops = []
    for kind, N, steps in configs:
        # narrow ranges: s (and t) set the step norm, hence the number of
        # squarings in the matrix exponential, hence the work per op
        if kind == "rho":
            st = {"s": float(rng.uniform(0.95, 1.05)), "t": 0.0}
        else:
            st = {"s": float(rng.uniform(1.45, 1.55)), "t": float(rng.uniform(0.78, 0.82))}
        ops.append({"kind": kind, "N": N, "steps": steps,
                    "sampler_seed": int(rng.integers(2**31)), **st})
    return _shuffled(rng, ops)


def _mc_run(op):
    cfg = freesb.SamplerCfg(N=op["N"], s=op["s"], t=op["t"], steps=op["steps"],
                            seed=op["sampler_seed"])
    return freesb.mc_expectation(v(1), cfg, MC_SAMPLES, threads=1)


def _mc_check(op, out) -> str | None:
    mean, stderr = out
    s, t = op["s"], op["t"]
    target = freesb.nu(1, s) if op["kind"] == "rho" else math.exp(-(s - t) / 2.0)
    gap, bound = abs(mean - target), MC_SIGMAS * stderr + MC_SLACK
    return None if gap < bound else f"gap {gap:.3e} >= {bound:.3e}"


def _mc_key(op):
    return frozenset(v(1).terms)


def _mc_warm_up() -> str:
    freesb.mc_expectation(v(1), freesb.SamplerCfg(N=2, s=1.0, steps=2, seed=0), 2,
                          threads=1)
    return "mc_expectation(v1, N=2, s=1.0, steps=2, 2 samples, threads=1)"


# ----------------------------------------------------------------------


class Workload:
    """One workload: its pass generator, op runner, check and warm-up.

    ``input_key(op)`` is the set of trace monomials of an op's input, or
    None for an op whose input is drawn inside freesb.  ``pass_s`` is the
    time of one pass at the reference speed of speed.py, rounded.
    """

    def __init__(self, name, make_pass, run, check, key, warm_up, pass_s, min_passes=2):
        self.name = name
        self._make_pass = make_pass
        self.run = run
        self.check = check
        self.input_key = key
        self.warm_up = warm_up
        self.pass_s = pass_s
        self.min_passes = min_passes

    def make_pass(self, seed: int, index: int) -> list[dict]:
        """The ops of pass ``index``; the same (seed, index) gives the same ops."""
        rng = np.random.default_rng([seed % 2**64, zlib.crc32(self.name.encode()), index])
        return self._make_pass(rng)

    def passes(self, seconds: float) -> int:
        """The number of passes of a run of about ``seconds`` at the reference speed.

        It depends on ``seconds`` alone, never on how fast the program runs,
        so a run's op list, and the ranks its percentiles are taken at, are
        the same for a slow program and a fast one.  A traced run needs at
        least two passes: one untraced and one traced.
        """
        return max(self.min_passes, int(seconds // self.pass_s))


WORKLOADS = {w.name: w for w in (
    Workload("transform", _transform_pass, _transform_run, _transform_check,
             _transform_key, _transform_warm_up, 3.5),
    Workload("heat_fresh", _heat_pass, _heat_run, _heat_check, _heat_key,
             _heat_warm_up, 1.25),
    Workload("word_expectation", _word_pass, _word_run, _word_check, _word_key,
             _word_warm_up, 3.2),
    # three passes, so that the tail (the op ten from the top of 36) is the
    # middle one of a configuration's three ops, not the slower of two
    Workload("monte_carlo", _mc_pass, _mc_run, _mc_check, _mc_key, _mc_warm_up, 12.0,
             min_passes=3),
)}


def run_op(workload: str, op: dict):
    """Replay one recorded op; returns (output, failure message or None)."""
    w = WORKLOADS[workload]
    out = w.run(op)
    return out, w.check(op, out)
