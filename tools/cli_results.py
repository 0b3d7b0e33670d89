"""Run a fixed list of ``freesb`` commands and compare their ``results``.

    python tools/cli_results.py run OUT.json [SRC_DIR]
    python tools/cli_results.py compare OLD.json NEW.json

``run`` calls ``freesb.cli.main`` in-process on each command of
``COMMANDS`` (every command of the README, the degree-8 and degree-12
semigroups, ``D_4`` at t = 0.2 on ``u^9``, ``u^10`` and ``u^11`` (67, 97
and 139 monomials, on both sides of the dense kernel's size cap), a
second degree-8 transform that reuses the first one's cached closure, a
few inputs for the word engine, one of them again at a
second N from its cached closure, once under mu at s = t and under rho at
two N, the b_k recursion and the graded test, the Monte Carlo
concentration, the generating-function check at s != t and at three
order-16 points that once failed on roundoff (among them s = 2.68,
t = 0.973), the PDE check at order 16 for s = 0.3, 1.9 and 0 and at
order 12 for s = -0.5 (the last two once failed on roundoff), the PDE
check past the float range at order 8 for s = -170 and -190 and at order
1 for s = -1500 (once a pass on NaN gaps and a bare "math range error")
and where its terms underflow at order 8 for s = 250 and 2000 (once exit
2 and a pass on nothing), a refused sampler
time, a refused mu time, mu at 7 steps (whose step weights show how they
are rounded), mu at N = 32 in four chunks on a two-thread pool, a refused
``--Ns`` text, and
Monte Carlo of an observable with inverse and repeated factors and of the
concentration of a p with u-powers, an ``mc`` observable, a ``norm``
input and a Monte Carlo ``concentration`` input of trace degree far above
the limit, a semigroup input of size 1e-20 and a transform input with a
1e-13 term, and the explicit u(N) basis at its limit N = 36) and writes
one JSON object that maps each command line to its exit code and
its ``results``.  ``freesb`` is imported from SRC_DIR, which defaults to
``src`` beside this script's parent, so one copy of the script can run
any checkout.

``compare`` prints one line per command: ``identical`` when both
``results`` are equal, otherwise the largest relative move of a number
and the path where it happens, then the paths of any other changes
(strings, keys, list lengths, exit codes).  Each ``[re, im]`` pair is one
complex number.  The coefficients of one polynomial (a container under a
key that ends in ``coeffs``) move relative to the largest of them on
either side; any other number moves relative to the larger of its two
values.

Standard library and ``freesb`` only.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

COMMANDS = [
    # the README's command-line examples
    "biane --k 2 --s 1 --t 1",
    "heat-apply --gen DN --N 4 --t 0.7 --f u^2",
    "transform --s 1.5 --t 0.8 --f u^2 --dir G",
    "moments --k 3 --s 0.5",
    "gen-fn-check --s 1.0 --t 1.0 --K 8",
    "pde-check --s 0.7 --K 8",
    "verify-magic --N 8",
    "intertwine-check --N 3 --degree 5 --trials 20 --seed 0",
    "concentration --p v1 --s 1.0 --Ns 4,8,16,32 --mode symbolic",
    "mc --f v1 --N 8 --s 1.0 --steps 200 --samples 4000 --seed 1",
    "norm --p u --measure mu --s 1.5 --t 0.8 --N 3",
    # the semigroups of D at |k| = 8 and the documented limit |k| = 12
    "transform --s 1.5 --t 0.8 --f u^8 --dir G",
    # the u^8 closure again, from the closure cache, at a new theta
    "transform --s 1.2 --t 0.6 --f u^8 --dir G",
    "transform --s 1.5 --t 0.8 --f u^-8 --dir H",
    "biane --k 8 --s 1 --t 1",
    "heat-apply --gen D --t 0.7 --f u^8",
    "transform --s 2.25 --t 2.25 --f u^12 --dir G",
    "transform --s 1.5 --t 0.8 --f u^12 --dir H",
    "biane --k 12 --s 1 --t 1",
    "heat-apply --gen D --t 0.7 --f u^12",
    "heat-apply --gen DN --N 4 --t 0.7 --f u^12",
    # D_4 closures of 67, 97 and 139 monomials at 1-norms 8.1 to 12.1: the
    # first two within the dense kernel's size cap, the third above it
    "heat-apply --gen DN --N 4 --t 0.2 --f u^9",
    "heat-apply --gen DN --N 4 --t 0.2 --f u^10",
    "heat-apply --gen DN --N 4 --t 0.2 --f u^11",
    # longer words through both generator families of the word engine, the
    # b_k recursion at k = 32, and a D input whose terms M maps onto each other
    'norm --p "u^2 + v-1 u" --measure mu --s 1.5 --t 0.8 --N 4',
    # the same input from the closure cache at a new N, and mu at s = t,
    # where the diagonals of the beta_+ and beta_- parts cancel
    'norm --p "u^2 + v-1 u" --measure mu --s 1.5 --t 0.8 --N 6',
    'norm --p "u^2 + v-1 u" --measure mu --s 1.2 --t 1.2 --N 4',
    # rho on starred words, rewritten as powers of Z, then again at a second N
    # from the cached closure and the word engine's memos
    'norm --p "u^2 + v-1 u" --measure rho --s 1 --N 6',
    'norm --p "u^2 + v-1 u" --measure rho --s 1 --N 9',
    "moments --k 32 --s 1.7",
    'transform --s 1.5 --t 0.8 --f "v1^2 u + u^3" --dir G',
    # exit codes: a verification whose absolute residual at s = t = 2.25,
    # K = 16 (4.3e-4) once failed (exit 2) and a sampler time of no measure,
    # s <= t/2 (exit 1)
    "gen-fn-check --s 2.25 --t 2.25 --K 16",
    # the generating function at s != t, where its two sides weigh the
    # terms differently, and two more order-16 cases whose absolute residual
    # once failed on roundoff (7.0e-6 and 7.3e-4)
    "gen-fn-check --s 1.5 --t 0.8 --K 8",
    "gen-fn-check --s 1.0 --t 1.9 --K 16",
    "gen-fn-check --s 2.68 --t 0.973 --K 16",
    # the PDE check at the largest order, where s = 0.3 gave its largest
    # absolute residual and s = 1.9 a small one, and two cases whose absolute
    # gaps (6e-8) failed a fixed tolerance among terms of up to 1e15
    "pde-check --s 0.3 --K 16",
    "pde-check --s 1.9 --K 16",
    "pde-check --s 0 --K 16",
    "pde-check --s -0.5 --K 12",
    # past the float range, refused (exit 1): c_k(t) overflows to inf at s =
    # -170 (whose NaN gaps once passed) and e^{-ks/2} alone at -190 and -1500
    "pde-check --s -170 --K 8",
    "pde-check --s -190 --K 8",
    "pde-check --s -1500 --K 1",
    # refused (exit 1) where a term underflows: e^{-ks/2} c_k is subnormal at
    # s = 250 (once exit 2 in windows from s = 179) and 0 at 2000 (once a pass)
    "pde-check --s 250 --K 8",
    "pde-check --s 2000 --K 8",
    "mc --f v1 --N 4 --s 0.5 --t 1.2 --samples 8",
    # mu at 7 steps, where both step weights w / steps round otherwise than
    # (1 / steps) * w, and a --Ns that is not comma-separated integers (exit 1)
    "mc --f v1 --N 4 --s 1.5 --t 0.8 --steps 7 --samples 64 --seed 1 --threads 1",
    # mu at N = 32, where 64 samples run as four byte-sized chunks on a pool
    "mc --f v1 --N 32 --s 1.0 --t 0.5 --steps 4 --samples 64 --seed 1 --threads 2",
    "concentration --p v1 --s 1 --Ns 4,8,x",
    # the Monte Carlo estimator of concentration, and mu with t < 0 (exit 1)
    "concentration --p v1 --s 1.0 --Ns 4,8,16 --mode mc --samples 200 --steps 20 --seed 1 --threads 1",
    "norm --p u --measure mu --s 1.5 --t -8e-1 --N 3",
    # Monte Carlo of an observable with inverse and repeated trace factors
    # under mu, and the Monte Carlo concentration of a p with u-powers
    'mc --f "v1 v-2 + 2 v3^2" --N 4 --s 1.0 --t 0.5 --steps 20 --samples 256 --seed 1 --threads 1',
    'concentration --p "u^2 + v1 u^-1" --s 1.0 --Ns 2,3,4 --mode mc --samples 200 --steps 20 --seed 1 --threads 1',
    # inputs of trace degree far above 2 * MAX_DEGREE, refused (exit 1) before
    # the sampler builds its word table and before B(p, p) builds its word
    "mc --f v20000 --N 2 --s 1 --samples 2 --steps 1 --threads 1",
    "norm --p u^20000 --measure rho --s 2.25 --N 3",
    # the same refusal for the Monte Carlo concentration, whose B(p, p) has
    # trace degree 40,002
    'concentration --p "u^20000 v1" --s 1 --mode mc --Ns 2,3,4 --samples 2 --steps 1 --threads 1',
    # inputs far below 1 that storage keeps term for term: a semigroup
    # result of size 1e-20, and a transform whose v1 term is 1e-13
    'heat-apply --gen DN --N 4 --t 0.7 --f "1e-20 u^3"',
    'transform --s 1.5 --t 0.8 --f "u^3 + 1e-13 v1 u^2" --dir G',
    # the largest explicit basis, which laplacian_eval and verify_magic sum in
    # several batches
    "intertwine-check --N 36 --degree 3 --trials 1 --seed 0",
    "verify-magic --N 36",
]


def run(out: str, src: str | None = None) -> int:
    sys.path.insert(0, src or str(Path(__file__).resolve().parent.parent / "src"))
    from freesb.cli import main

    report = {}
    for command in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(shlex.split(command))
        text = buf.getvalue()
        report[command] = {"exit": code,
                           "results": json.loads(text)["results"] if text.strip() else None}
        print(f"{code}  {command}", file=sys.stderr)
    Path(out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _value(x):
    """x as a number (an ``[re, im]`` pair as one complex), or None."""
    if _number(x):
        return x
    if isinstance(x, list) and len(x) == 2 and all(map(_number, x)):
        return complex(*x)
    return None


_MISSING = object()  # a key that one side of a dict lacks


def _moves(a, b, path="", scale=None):
    """Yield (relative move, path) for each number that differs, and
    (None, path) for every other difference, a key that one side lacks
    included.  A polynomial's coefficient (in a container at a path that
    ends in ``coeffs``) moves relative to the largest of the container's
    magnitudes, any other number relative to its own."""
    x, y = _value(a), _value(b)
    if x is not None and y is not None:
        scale = scale or max(abs(x), abs(y))
        yield (abs(x - y) / scale if scale else 0.0), path
        return
    pairs = None
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = [(f"{path}.{k}", a.get(k, _MISSING), b.get(k, _MISSING))
                 for k in sorted(set(a) | set(b))]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    if pairs is None:
        if a != b:
            yield None, path
        return
    values = [_value(v) for _, x, y in pairs for v in (x, y)]
    inner = max(map(abs, values)) if path.endswith("coeffs") and None not in values else None
    for where, x, y in pairs:
        if x != y:  # equal sides, nulls included, are no change
            yield from [(None, where)] if _MISSING in (x, y) else _moves(x, y, where, inner)


def compare(old: str, new: str) -> int:
    left = json.loads(Path(old).read_text())
    right = json.loads(Path(new).read_text())
    order = {c: i for i, c in enumerate(COMMANDS)}
    for command in sorted(set(left) | set(right), key=lambda c: order.get(c, len(order))):
        a, b = left.get(command), right.get(command)
        if a == b:
            print(f"identical  {command}")
            continue
        moves = list(_moves(a, b)) if a is not None and b is not None else [(None, "")]
        numbers = [m for m in moves if m[0] is not None]
        line = ""
        if numbers:
            worst, where = max(numbers)
            line = f"{worst:.2e} at {where}"
        other = [p or "(missing)" for m, p in moves if m is None]
        if other:
            line += (", " if line else "") + "also changed: " + " ".join(other)
        print(f"{line}  {command}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) in (2, 3) and argv[0] == "run":
        return run(*argv[1:])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(*argv[1:])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
