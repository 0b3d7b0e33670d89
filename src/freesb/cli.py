"""Command line front end: batch computation and verification runs.

Every subcommand emits a versioned JSON report on stdout:

    {"schema": 1, "command": ..., "params": ..., "results": ...,
     "versions": {"code": ..., "rng": ...}, "seed": ..., "wall_time_ms": ...}

Complex numbers serialize as [re, im].  Identical argv and seed produce a
byte-identical ``results`` field.  Exit codes: 0 success, 2 exactly
when ``results`` holds ``"pass": false`` (a verification command
exceeded its asserted tolerance), 1 on usage errors and on computations
that fail (a malformed FREESB_SEED or --Ns, a moment order k outside 1..64, a
series order K outside 1..16, an N outside 1..matrixlab.MAX_BASIS_N for
verify-magic or intertwine-check (checked before any N x N work), an N
below 1, times of no measure for norm, concentration or mc (rho with
s < 0, mu with t < 0 or s <= t/2), more than matrixlab.MAX_SAMPLER_STEPS
sampler steps, a semigroup closure of more than operators.MAX_CLOSURE
monomials, an mc observable of trace degree above 2 * operators.MAX_DEGREE
or with a power of u (both before any sample), a norm's p above
MAX_DEGREE (B(p, p) doubles it), a negative intertwine-check seed, a
semigroup or sampler path that overflows, a norm that comes out non-real, a
non-finite time or any other NaN or infinity in the report, which JSON
cannot hold, a --csv file that cannot be written, a stdout closed before
the report is written; the last prints nothing), each other one on one
stderr line "freesb: error: ...", argparse's naming their subcommand.
The FREESB_SEED environment variable overrides --seed.  Tabular commands
(concentration, mc) accept --csv PATH to also write their rows as
N,value,stderr, and --threads, a cap on the sampling threads (one below N =
matrixlab._POOL_MIN_N).  pde-check takes any real s whose nonzero PDE
terms are normal doubles (an s past that range, where a term overflows or
underflows, exits 1, naming s), and the residuals of gen-fn-check and
pde-check are relative to each gap's scale (transform.verify_gen_fn,
transform.pde_residual).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .tracepoly import TracePoly, format_poly, mono_factors, parse
from .operators import MAX_DEGREE, GeneratorSpec, apply_DN, exp_apply
from .moments import b_poly, c_poly, nu, varrho_coeffs
from .transform import G, H, biane, pde_residual, verify_gen_fn
from .words import Measure, l2_norm_sq
from .matrixlab import (_POOL_MIN_N, MAGIC_TOL, RNG_NAME, SamplerCfg, _check_basis_N,
                        concentration_experiment, evaluate, laplacian_eval, mc_expectation,
                        verify_magic)

INTERTWINE_TOL = 1e-8
GEN_FN_TOL = 2048 * 2.0 ** -53  # 2048 unit roundoffs of each gap's scale (transform.verify_gen_fn)
PDE_TOL = 32 * 2.0 ** -53  # 32 unit roundoffs of each gap's scale (transform.pde_residual)


def _cpair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "value", "stderr"])
        for N, value, stderr in rows:
            w.writerow([N, repr(float(value)),
                        "" if stderr is None else repr(float(stderr))])


def _poly_json(p: TracePoly) -> dict:
    coeffs = {" ".join(mono_factors(m)) or "1": _cpair(c) for m, c in p.terms.items()}
    return {"text": format_poly(p), "coeffs": coeffs}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit status 2 on usage errors; we reserve 2
    for verification failures, so remap usage errors to 1.  argparse also
    reads a word after a dash as a negative number only in the forms
    -<digits> and -<digits>.<digits>, and as an option name otherwise, so
    that --t -1e-3 and --s -inf fail; here a dash followed by a digit, a
    point and a digit, inf or nan starts a value.  A refusal prints no
    usage block: one line, ``freesb: error: <command>: <message>``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def _get_values(self, action, arg_strings):
        # argparse drops the "--" of --OPT=-- and hands a single-value option []
        value = super()._get_values(action, arg_strings)
        if action.nargs is None and isinstance(value, list):
            raise argparse.ArgumentError(action, "expected one argument")
        return value

    def parse_known_args(self, *args):
        namespace, extra = super().parse_known_args(*args)
        if extra and " " in self.prog:  # a subcommand's extra words: refused under its name
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra

    def error(self, message):
        command = self.prog.split(" ", 1)[1:]  # [] for the top-level parser
        self.exit(1, f"freesb: error: {': '.join(command + [message])}\n")


@functools.cache  # parsing keeps no state between calls: build once per process
def _build_parser() -> _Parser:
    top = _Parser(prog="freesb", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(body, help_):
        # _cmd_heat_apply is the body of heat-apply; main calls args.body(args, seed)
        p = sub.add_parser(body.__name__.removeprefix("_cmd_").replace("_", "-"), help=help_)
        p.set_defaults(body=body)
        return p

    def sampling(p, samples):
        # the Monte Carlo options of concentration and mc
        p.add_argument("--steps", type=int, default=200)
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, help="cap on the sampling threads (default: cores; "
                       f"one below N = {_POOL_MIN_N}, and at most one per sample chunk)")
        p.add_argument("--csv", metavar="PATH", help="also write rows as CSV (N,value,stderr)")

    p = add(_cmd_heat_apply, "apply the heat semigroup e^{(t/2) gen} to a polynomial")
    p.add_argument("--gen", choices=["D", "DN"], required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--f", required=True, help="trace polynomial, e.g. 'u^2 - v1'")

    p = add(_cmd_transform, "free unitary Segal-Bargmann transform G or its inverse H")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--dir", choices=["G", "H"], default="G")

    p = add(_cmd_biane, "Biane polynomial p_k^{s,t}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = add(_cmd_moments, "free moments nu_k, varrho_k and the c_k, b_k recursions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, required=True)

    p = add(_cmd_gen_fn_check, "verify the Biane generating function identity")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--K", type=int, default=8, help="series order, 1..16")

    p = add(_cmd_pde_check, "verify the PDEs for psi, phi, varrho and initial conditions")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--K", type=int, default=8, help="series order, 1..16")

    p = add(_cmd_verify_magic, "numerically verify the magic formulas on u(N)")
    p.add_argument("--N", type=int, required=True)

    p = add(_cmd_intertwine_check, "Laplacian vs abstract D_N on random polynomials")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add(_cmd_concentration, "||p - pi p||^2 across N with fitted log-log slope")
    p.add_argument("--p", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--Ns", default="4,8,16,32", help="comma-separated, strictly ascending")
    p.add_argument("--mode", choices=["symbolic", "mc"], default="symbolic")
    sampling(p, samples=400)

    p = add(_cmd_mc, "Monte Carlo expectation of a scalar observable")
    p.add_argument("--f", required=True, help="u-free trace polynomial, e.g. 'v1'")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    sampling(p, samples=1000)

    p = add(_cmd_norm, "L^2 norm of a trace polynomial under rho_s^N or mu_{s,t}^N")
    p.add_argument("--p", required=True)
    p.add_argument("--measure", choices=["rho", "mu"], required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--N", type=int, required=True)

    return top


# ----------------------------------------------------------------------
# command bodies: each returns its results
# ----------------------------------------------------------------------


def _cmd_heat_apply(a, seed):
    if (a.gen == "DN") != (a.N is not None):
        raise ValueError("--gen DN requires --N" if a.gen == "DN" else "--gen D takes no --N")
    gen = GeneratorSpec.DN(a.N) if a.gen == "DN" else GeneratorSpec.D()
    out = exp_apply(gen, a.t / 2.0, parse(a.f))
    return {"poly": _poly_json(out)}


def _cmd_transform(a, seed):
    out = (G if a.dir == "G" else H)(parse(a.f), a.s, a.t)
    return {"poly": _poly_json(out), "dir": a.dir}


def _cmd_biane(a, seed):
    out = biane(a.k, a.s, a.t)
    return {"k": a.k, "poly": _poly_json(out)}


def _cmd_moments(a, seed):
    c = c_poly(a.k, a.s)
    b = b_poly(a.k, a.s)
    return {
        "nu": nu(a.k, a.s),
        "varrho_coeffs": [float(x) for x in varrho_coeffs(a.k)],
        "c": {"prefactor_exp": c.prefactor_exp,
              "coeffs": [_cpair(z) for z in c.coeffs]},
        "b": [format_poly(q) for q in b.coeffs],
    }


def _verdict(resid: float, tol: float) -> dict:
    return {"residual": resid, "tol": tol, "pass": resid < tol}


def _cmd_gen_fn_check(a, seed):
    return _verdict(verify_gen_fn(a.s, a.t, K=a.K), GEN_FN_TOL)


def _cmd_pde_check(a, seed):
    return _verdict(pde_residual(a.s, K=a.K), PDE_TOL)


def _cmd_verify_magic(a, seed):
    return {**verify_magic(a.N), "tol": MAGIC_TOL}


def _cmd_intertwine_check(a, seed):
    if seed < 0:  # default_rng takes none; mc and concentration hash theirs
        raise ValueError(f"intertwine-check requires --seed >= 0 (or FREESB_SEED), got {seed}")
    if a.trials < 1:  # zero trials would pass having checked nothing
        raise ValueError(f"intertwine-check requires --trials >= 1, got {a.trials}")
    if not 2 <= a.degree <= MAX_DEGREE:  # the u-power alone is drawn up to degree 2
        raise ValueError(f"intertwine-check requires 2 <= --degree <= {MAX_DEGREE}, got {a.degree}")
    _check_basis_N(a.N)  # before U, an N x N draw
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(a.trials):
        terms = {}
        for _ in range(3):
            budget = a.degree
            k0 = int(rng.integers(-2, 3))
            budget -= abs(k0)
            ve = {}
            while budget > 0 and rng.random() < 0.7:
                j = int(rng.integers(-budget, budget + 1))
                if j != 0:
                    ve[j] = ve.get(j, 0) + 1
                    budget -= abs(j)
            terms[(k0, tuple(sorted(ve.items())))] = complex(rng.normal(), rng.normal())
        p = TracePoly(terms)
        U = np.linalg.qr(rng.normal(size=(a.N, a.N)) + 1j * rng.normal(size=(a.N, a.N)))[0]
        resid = float(np.abs(laplacian_eval(p, U, a.N) - evaluate(apply_DN(p, a.N), U)).max())
        worst = max(worst, resid)
    return {"max_residual": worst, "tol": INTERTWINE_TOL, "trials": a.trials,
            "degree": a.degree, "pass": worst < INTERTWINE_TOL}


def _cmd_concentration(a, seed):
    try:
        Ns = [int(x) for x in a.Ns.split(",")]
    except ValueError:
        raise ValueError(f"--Ns takes comma-separated integers, got {a.Ns!r}") from None
    rep = concentration_experiment(parse(a.p), a.s, a.t, Ns, mode=a.mode,
                                   steps=a.steps, samples=a.samples, seed=seed,
                                   threads=a.threads)
    results = {"rows": rep["rows"], "slope": rep["slope"], "mode": a.mode}
    if a.csv:
        _write_csv(a.csv, [(r["N"], r["value"], r.get("stderr"))
                           for r in rep["rows"]])
        results["csv"] = a.csv
    return results


def _cmd_mc(a, seed):
    cfg = SamplerCfg(N=a.N, s=a.s, t=a.t, steps=a.steps, seed=seed)
    mean, stderr = mc_expectation(parse(a.f), cfg, a.samples, threads=a.threads)
    results = {"mean": _cpair(mean), "stderr": stderr,
               "samples": a.samples, "steps": a.steps}
    if a.csv:
        _write_csv(a.csv, [(a.N, mean.real, stderr)])
        results["csv"] = a.csv
    return results


def _cmd_norm(a, seed):
    meas = Measure(a.N, a.s, a.t)
    if meas.kind != a.measure:
        raise ValueError("--measure rho takes no --t (it is the t=0 case)" if a.measure == "rho"
                         else "--measure mu requires a nonzero --t (t=0 is rho)")
    return {"value": l2_norm_sq(parse(a.p), meas), "measure": a.measure}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    t0 = time.perf_counter()
    seed = None
    try:
        if "seed" in vars(args):  # the randomized commands
            env = os.environ.get("FREESB_SEED")
            try:
                seed = int(env) if env is not None else args.seed
            except ValueError:
                raise ValueError(f"FREESB_SEED must be an integer, got {env!r}") from None
        results = args.body(args, seed)
        params = {k: v for k, v in vars(args).items()
                  if k not in ("command", "body") and v is not None}
        report = {
            "schema": 1,
            "command": args.command,
            "params": params,
            "results": results,
            "versions": {"code": __version__, "rng": RNG_NAME},
            "seed": seed,
            "wall_time_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except (ValueError, TypeError, ArithmeticError, RuntimeError, OSError) as e:
        # the failures of exit code 1 (see the module docstring): one line on stderr
        print(f"freesb: error: {e}", file=sys.stderr)
        return 1
    try:
        print(text, flush=True)
    except BrokenPipeError:  # stdout closed early: let devnull take the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 2 if results.get("pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
