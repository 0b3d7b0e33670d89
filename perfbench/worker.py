"""Run one workload in this process and print its raw measurements as JSON.

Started by run.py, once per workload run, so that every run begins with
freesb's process-wide caches empty and its peak memory is its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--spans PATH]

Set-up (imports, warm-up and the inputs of the first pass) ends when the
first op is timed; its end is printed as a ``time.monotonic()`` reading so
the parent can measure set-up from the moment it started this process.
Then passes of ops run back to back, one client in one process.  The
number of passes is fixed by the workload and ``--seconds`` (see
``Workload.passes``), so it does not depend on the program's speed.  With
``--trace 1`` every other pass is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import freesb  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "freesb": freesb.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_pass(w, ops, first_id, tracer, record):
    """Run ops back to back; returns the pass's op time in seconds and the
    times of speed.py's matrices kernel, taken at the start of the pass and then,
    after an op's check, every speed.EVERY_S seconds."""
    wall = 0.0
    samples = [speed.sample("matrices")]
    last = time.monotonic()
    for i, op in enumerate(ops):
        op_id = first_id + i
        error = None
        out = None
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.op_id = op_id
                out = tracer.run_op("op." + op["kind"], w.run, op)
            else:
                out = w.run(op)
        except Exception:
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        latency = time.perf_counter() - t0
        wall += latency
        if error is None:
            was = tracer.pause() if tracer is not None else False
            try:
                error = w.check(op, out)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            if tracer is not None:
                tracer.resume(was)
        record(op_id, op, latency, error)
        if time.monotonic() - last >= speed.EVERY_S:
            samples.append(speed.sample("matrices"))
            last = time.monotonic()
    return wall, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sets the number of passes; see Workload.passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here (.npz)")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    warm_up = w.warm_up()
    ops = w.make_pass(args.seed, 0)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = None
    if args.trace:
        from tracer import LAYER_METRICS, Tracer
        tracer = Tracer()

    op_list, failures, passes = [], [], []
    seen_sets, seen_monos = set(), set()
    repeat = {"sets": 0, "keyed_ops": 0, "monomials": 0, "monomials_seen": 0}

    def record(op_id, op, latency, error):
        op_list.append({"id": op_id, "pass": len(passes), "latency_s": latency, **op})
        if error is not None:
            failures.append({"id": op_id, "op": op, "error": error})
        key = w.input_key(op)
        if key is not None:
            repeat["keyed_ops"] += 1
            repeat["sets"] += key in seen_sets
            repeat["monomials"] += len(key)
            repeat["monomials_seen"] += len(key & seen_monos)
            seen_sets.add(key)
            seen_monos.update(key)

    for index in range(w.passes(args.seconds)):
        if index:
            ops = w.make_pass(args.seed, index)
        traced = tracer is not None and index % 2 == 1
        first = len(op_list)
        if traced:
            tracer.begin_pass()
            wall, samples = run_pass(w, ops, first, tracer, record)
            tracer.end_pass(wall)
        else:
            wall, samples = run_pass(w, ops, first, None, record)
        passes.append({"index": index, "traced": traced, "wall_s": wall,
                       "ops": len(ops), "first_op": first, "speed": samples})

    result = {
        "setup_end": setup_end,
        "warm_up": warm_up,
        "environment": environment(),
        "passes": passes,
        "ops": op_list,
        "failures": failures,
        "input_repeat": repeat,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        result["layers"] = {k: {"value": v, "unit": LAYER_METRICS[k][0]}
                            for k, v in tracer.layer_metrics(untraced).items()}
        result["layer_passes"] = tracer.passes
        result["site_calls"] = tracer.site_calls
        result["spans"] = {"recorded": len(tracer.s_start), "dropped": tracer.spans_dropped}
        if args.spans:
            tracer.write_spans(args.spans)
            result["spans"]["file"] = args.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
