"""Command line front end: batch computation and verification runs.

Every subcommand emits a versioned JSON report on stdout:

    {"schema": 1, "command": ..., "params": ..., "results": ...,
     "versions": {"code": ..., "rng": ...}, "seed": ..., "wall_time_ms": ...}

Complex numbers serialize as [re, im].  Identical argv and seed produce a
byte-identical ``results`` field.  Exit codes: 0 success, 2 when a
verification command exceeds an asserted tolerance, 1 on usage errors
and on computations that fail (a malformed FREESB_SEED, a semigroup
series that does not converge, a norm that comes out non-real).
The FREESB_SEED environment variable overrides --seed.  Tabular commands
(concentration, mc) accept --csv PATH to also write their rows as
N,value,stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .tracepoly import TracePoly, format_poly, parse
from .operators import GeneratorSpec, exp_apply
from .moments import b_poly, c_poly, nu, varrho_coeffs
from .transform import G, H, biane, pde_residual, verify_gen_fn
from .words import Measure, l2_norm_sq
from .matrixlab import (RNG_NAME, SamplerCfg, concentration_experiment,
                        evaluate, laplacian_eval, mc_expectation, verify_magic)
from .operators import apply_DN

INTERTWINE_TOL = 1e-8
GEN_FN_TOL = 1e-8
PDE_TOL = 1e-8
MAGIC_TOL = 1e-11


def _cnum(z) -> object:
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


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
    coeffs = {}
    for (k0, ve), c in p.terms.items():
        parts = []
        if k0 != 0:
            parts.append(f"u^{k0}" if k0 != 1 else "u")
        for j, e in ve:
            parts.append(f"v{j}^{e}" if e != 1 else f"v{j}")
        coeffs[" ".join(parts) if parts else "1"] = _cpair(c)
    return {"text": format_poly(p), "coeffs": coeffs}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit status 2 on usage errors; we reserve 2
    for verification failures, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    top = _Parser(prog="freesb", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_):
        p = sub.add_parser(name, help=help_)
        return p

    p = add("heat-apply", "apply the heat semigroup e^{(t/2) gen} to a polynomial")
    p.add_argument("--gen", choices=["D", "DN"], required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--f", required=True, help="trace polynomial, e.g. 'u^2 - v1'")

    p = add("transform", "free unitary Segal-Bargmann transform G or its inverse H")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--dir", choices=["G", "H"], default="G")
    p.add_argument("--tol", type=float, default=1e-13)

    p = add("biane", "Biane polynomial p_k^{s,t}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = add("moments", "free moments nu_k, varrho_k and the c_k, b_k recursions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, required=True)

    p = add("gen-fn-check", "verify the Biane generating function identity")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--K", type=int, default=8)

    p = add("pde-check", "verify the PDEs for psi, phi, varrho and initial conditions")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--K", type=int, default=8)

    p = add("verify-magic", "numerically verify the magic formulas on u(N)")
    p.add_argument("--N", type=int, required=True)

    p = add("intertwine-check", "Laplacian vs abstract D_N on random polynomials")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add("concentration", "||p - pi p||^2 across N with fitted log-log slope")
    p.add_argument("--p", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--Ns", default="4,8,16,32", help="comma-separated, ascending")
    p.add_argument("--mode", choices=["symbolic", "mc"], default="symbolic")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=os.cpu_count())
    p.add_argument("--csv", metavar="PATH", help="also write rows as CSV (N,value,stderr)")

    p = add("mc", "Monte Carlo expectation of a scalar observable")
    p.add_argument("--f", required=True, help="u-free trace polynomial, e.g. 'v1'")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=os.cpu_count())
    p.add_argument("--csv", metavar="PATH", help="also write rows as CSV (N,value,stderr)")

    p = add("norm", "L^2 norm of a trace polynomial under rho_s^N or mu_{s,t}^N")
    p.add_argument("--p", required=True)
    p.add_argument("--measure", choices=["rho", "mu"], required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--N", type=int, required=True)

    return top


# ----------------------------------------------------------------------
# command bodies: each returns (results, exit_code)
# ----------------------------------------------------------------------


def _cmd_heat_apply(a):
    f = parse(a.f)
    if a.gen == "DN":
        if a.N is None:
            raise ValueError("--gen DN requires --N")
        gen = GeneratorSpec.DN(a.N)
    else:
        gen = GeneratorSpec.D()
    out = exp_apply(gen, a.t / 2.0, f, tol=a.tol)
    return {"poly": _poly_json(out), "tol": a.tol}, 0


def _cmd_transform(a):
    f = parse(a.f)
    fn = G if a.dir == "G" else H
    out = fn(f, a.s, a.t, tol=a.tol)
    return {"poly": _poly_json(out), "dir": a.dir, "tol": a.tol}, 0


def _cmd_biane(a):
    out = biane(a.k, a.s, a.t)
    return {"k": a.k, "poly": _poly_json(out), "tol": 1e-13}, 0


def _cmd_moments(a):
    k = a.k
    if k < 1:
        raise ValueError("moments requires --k >= 1")
    c = c_poly(k, a.s)
    b = b_poly(k, a.s)
    return {
        "nu": nu(k, a.s),
        "varrho_coeffs": [float(x) for x in varrho_coeffs(k)],
        "c": {"prefactor_exp": c.prefactor_exp,
              "coeffs": [_cpair(z) for z in c.coeffs]},
        "b": [format_poly(q) for q in b.coeffs],
        "tol": 1e-12,
    }, 0


def _cmd_gen_fn_check(a):
    resid = verify_gen_fn(a.s, a.t, K=a.K)
    ok = resid < GEN_FN_TOL
    return {"residual": resid, "tol": GEN_FN_TOL, "pass": ok}, 0 if ok else 2


def _cmd_pde_check(a):
    resid = pde_residual(a.s, K=a.K)
    ok = resid < PDE_TOL
    return {"residual": resid, "tol": PDE_TOL, "pass": ok}, 0 if ok else 2


def _cmd_verify_magic(a):
    rep = verify_magic(a.N, tol=MAGIC_TOL)
    return {**rep, "tol": MAGIC_TOL}, 0 if rep["pass"] else 2


def _cmd_intertwine_check(a, seed):
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
    ok = worst < INTERTWINE_TOL
    return {"max_residual": worst, "tol": INTERTWINE_TOL, "trials": a.trials,
            "degree": a.degree, "pass": ok}, 0 if ok else 2


def _cmd_concentration(a, seed):
    Ns = [int(x) for x in a.Ns.split(",")]
    rep = concentration_experiment(parse(a.p), a.s, a.t, Ns, mode=a.mode,
                                   steps=a.steps, samples=a.samples, seed=seed,
                                   threads=a.threads)
    results = {"rows": rep["rows"], "slope": rep["slope"], "mode": a.mode,
               "tol": 1e-12 if a.mode == "symbolic" else None}
    if a.csv:
        _write_csv(a.csv, [(r["N"], r["value"], r.get("stderr"))
                           for r in rep["rows"]])
        results["csv"] = a.csv
    return results, 0


def _cmd_mc(a, seed):
    cfg = SamplerCfg(N=a.N, s=a.s, t=a.t, steps=a.steps, seed=seed)
    mean, stderr = mc_expectation(parse(a.f), cfg, a.samples, threads=a.threads)
    results = {"mean": _cpair(mean), "stderr": stderr,
               "samples": a.samples, "steps": a.steps}
    if a.csv:
        _write_csv(a.csv, [(a.N, mean.real, stderr)])
        results["csv"] = a.csv
    return results, 0


def _cmd_norm(a):
    p = parse(a.p)
    if a.measure == "mu":
        meas = Measure.mu(a.s, a.t, a.N)
    else:
        if a.t != 0.0:
            raise ValueError("--measure rho takes no --t (it is the t=0 case)")
        meas = Measure.rho(a.s, a.N)
    return {"value": l2_norm_sq(p, meas), "measure": a.measure, "tol": 1e-12}, 0


_SEEDED = {"intertwine-check", "concentration", "mc"}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    t0 = time.perf_counter()
    seed = None
    try:
        if args.command in _SEEDED:
            env = os.environ.get("FREESB_SEED")
            try:
                seed = int(env) if env is not None else args.seed
            except ValueError:
                raise ValueError(f"FREESB_SEED must be an integer, got {env!r}") from None
        if args.command == "heat-apply":
            results, code = _cmd_heat_apply(args)
        elif args.command == "transform":
            results, code = _cmd_transform(args)
        elif args.command == "biane":
            results, code = _cmd_biane(args)
        elif args.command == "moments":
            results, code = _cmd_moments(args)
        elif args.command == "gen-fn-check":
            results, code = _cmd_gen_fn_check(args)
        elif args.command == "pde-check":
            results, code = _cmd_pde_check(args)
        elif args.command == "verify-magic":
            results, code = _cmd_verify_magic(args)
        elif args.command == "intertwine-check":
            results, code = _cmd_intertwine_check(args, seed)
        elif args.command == "concentration":
            results, code = _cmd_concentration(args, seed)
        elif args.command == "mc":
            results, code = _cmd_mc(args, seed)
        elif args.command == "norm":
            results, code = _cmd_norm(args)
        else:  # pragma: no cover - argparse enforces the choices
            return 1
    except (ValueError, TypeError, ArithmeticError, RuntimeError) as e:
        # bad input, a non-real or negative norm, a Taylor series that
        # does not converge: one line on stderr, never a traceback
        print(f"freesb: error: {e}", file=sys.stderr)
        return 1

    params = {k: v for k, v in vars(args).items()
              if k not in ("command",) and v is not None}
    report = {
        "schema": 1,
        "command": args.command,
        "params": params,
        "results": results,
        "versions": {"code": __version__, "rng": RNG_NAME},
        "seed": seed,
        "wall_time_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
