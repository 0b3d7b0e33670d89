"""Closed-loop benchmark of freesb: one client, one process, seeded ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each run starts fresh worker processes (see worker.py), checks every
op's output, writes a full report (environment, op list, failures, tail
percentile, per-pass times) to ``perfbench/out/`` and prints, as its last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json,
measured without tracing.  A run does a fixed number of passes over its
seeded op list (``Workload.passes``), so ranks such as the tail's are
taken over the same ops whatever the program's speed.  Set-up is measured
in several fresh processes and reported as the median.  Times are scaled
to a reference machine speed measured during the run (see speed.py);
the raw times are in the report and printed beside them.  With
``--trace 1`` the metrics are the per-layer ones, from a run whose odd
passes are traced; ``trace.overhead_s`` is the median traced pass time
minus the median untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

# one BLAS thread, here and in every worker (set before numpy is imported)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "freesb")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("transform", "heat_fresh", "word_expectation", "monte_carlo")

SETUP_RUNS = 7          # set-up-only processes per run; set-up is their median
TIME_LIMIT_S = 170.0    # a run must end within 180 s
TAIL_BEYOND = 10        # op_tail_ms: the highest percentile with this many ops beyond it

E2E_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("FREESB_SEED", None)   # would override the CLI ops' own --seed
    return env


def source_id() -> dict:
    """The commit when run from a git work tree, and a hash of the package source."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):   # never look above the checkout
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": h.hexdigest()}


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; returns (monotonic start, its JSON)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ran past the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return t0, json.loads(out.strip().splitlines()[-1])


def tail(latencies: list[float]) -> dict:
    """Latency at the highest percentile that has TAIL_BEYOND ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return {"value_s": xs[-1], "percentile": 100.0, "samples": n, "beyond": 0}
    return {"value_s": xs[n - TAIL_BEYOND - 1], "percentile": 100.0 * (n - TAIL_BEYOND) / n,
            "samples": n, "beyond": TAIL_BEYOND}


def timings(ops: list[dict], passes: list[dict], scaled: bool) -> dict:
    """wall_s (median pass), op_p50_ms and op_tail_ms over the untraced passes.

    With ``scaled`` each latency is multiplied by its pass's speed factor
    (speed.factor); otherwise the times are raw.
    """
    lat, walls = [], []
    for p in passes:
        if p["traced"]:
            continue
        f = speed.factor(p["speed"], "matrices") if scaled else 1.0
        pass_lat = [op["latency_s"] * f for op in ops[p["first_op"]:p["first_op"] + p["ops"]]]
        lat += pass_lat
        walls.append(sum(pass_lat))
    t = tail(lat)
    return {"wall_s": statistics.median(walls), "op_p50_ms": 1000.0 * statistics.median(lat),
            "op_tail_ms": 1000.0 * t["value_s"], "op_tail": t}


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups, setups_raw, starts = [], [], []
    if not trace:
        starts = [speed.sample("start")]
        for _ in range(SETUP_RUNS):
            t0, res = spawn(common + ["--seconds", "0", "--setup-only"], deadline)
            raw = res["setup_end"] - t0
            starts.append(speed.sample("start"))
            setups_raw.append(raw)
            setups.append(raw * speed.factor(starts[-2:], "start"))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    extra = ["--spans", stem + "-spans.npz"] if trace else []
    t0, res = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)] + extra,
                    deadline)

    ops, passes = res["ops"], res["passes"]
    norm, raw = timings(ops, passes, True), timings(ops, passes, False)
    e2e = {k: norm[k] for k in ("wall_s", "op_p50_ms", "op_tail_ms")}
    if setups:
        e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
    failed = len(res["failures"])
    rep = res["input_repeat"]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed: 1 client, 1 process, ops back to back",
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "fail_frac": {"value": failed / len(ops), "unit": "ratio",
                      "failed": failed, "attempted": len(ops)},
        "op_tail": norm["op_tail"],
        "raw_times": {"wall_s": raw["wall_s"], "op_p50_ms": raw["op_p50_ms"],
                      "op_tail_ms": raw["op_tail_ms"],
                      **({"setup_s": statistics.median(setups_raw)} if setups_raw else {}),
                      "setup_samples_s": setups_raw,
                      "setup_s_of_measured_run": res["setup_end"] - t0},
        "speed": {"nominal_s": {k: nominal for k, (_, nominal) in speed.KERNELS.items()},
                  "pass_matrices_s": [statistics.median(p["speed"]) for p in passes],
                  "setup_start_s": starts if setups else []},
        "setup_samples_s": setups,
        # the share of keyed ops whose monomial set, and of input monomials
        # that, an earlier op of the run already had
        "input_repeat_frac": {
            "value": rep["sets"] / rep["keyed_ops"] if rep["keyed_ops"] else 0.0,
            "monomials": (rep["monomials_seen"] / rep["monomials"]
                          if rep["monomials"] else 0.0),
            "counts": rep},
        "warm_up": res["warm_up"],
        "environment": {**res["environment"], **source_id()},
        "passes": passes,
        "failures": res["failures"],
        "ops": ops,
    }
    for key in ("layers", "layer_passes", "site_calls", "spans"):
        if key in res:
            report[key] = res[key]
    report["report_file"] = stem + ".json"
    with open(report["report_file"], "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"perfbench: freesb source not found at {PACKAGE}; "
              "run from the root of a freesb checkout", file=sys.stderr)
        return 2
    try:
        report = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    metrics = report["layers"] if args.trace else report["end_to_end"]
    t = report["op_tail"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {t['samples']}  failed {report['fail_frac']['failed']}")
    raw = report["raw_times"]
    for name, m in metrics.items():
        note = f"   (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_frac':34s} {report['fail_frac']['value']:.6g} ratio")
    print(f"  op_tail_ms is p{t['percentile']:.2f} of {t['samples']} ops "
          f"({t['beyond']} beyond it); input_repeat_frac "
          f"{report['input_repeat_frac']['value']:.3f} of monomial sets, "
          f"{report['input_repeat_frac']['monomials']:.3f} of monomials; "
          f"report {report['report_file']}")
    failed = report["fail_frac"]["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": report["fail_frac"]["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
