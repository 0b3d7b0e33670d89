"""Alternating benchmark runs of two revisions, and whether a gain holds.

    python tools/bench_pairs.py PARENT_REV CHANGE_REV --workload W --seed S --pairs 10

Both revisions are exported with ``git archive`` into fresh temporary
directories, so neither side runs with bytecode the other lacks: with
``PYTHONDONTWRITEBYTECODE`` set, a checkout whose ``__pycache__`` is stale
recompiles the package in every worker process, and its ``setup_s`` reads
higher than a clean export's.  Pair i runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in the
parent's export and then the change's, the change first in every other
pair, with T the ``run_seconds`` of BENCHMARK.json.

Each run's metrics are printed as it ends.  Then, for each end-to-end
metric of BENCHMARK.json, one line gives each side's median and quartiles,
the change's median over the parent's, the pairs the change won (ties
count for neither side) and whether a gain holds: the change wins at
least nine tenths of the pairs, and the medians differ, in the metric's
better direction, by more than the distance between the parent's
quartiles.  A time metric's line also gives each side's median raw time,
read from ``raw_times`` in the run's report
(``perfbench/out/<workload>-seed<S>-trace0.json`` in its export): the
scaled times divide by the speed of a reference kernel measured during
the run (perfbench/speed.py), and a change of that kernel's own speed
between the two sides moves the scaled medians alone.

Standard library, git and tar only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` are pair
    i.  Returns each side's (first quartile, median, third quartile), the
    change's wins and whether a gain holds (see the module docstring)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("summarize needs two equal lists of at least two runs")
    sign = 1.0 if better == "lower" else -1.0
    quart = {side: tuple(statistics.quantiles(xs, n=4, method="inclusive"))
             for side, xs in (("parent", parent), ("change", change))}
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    lead = sign * (quart["parent"][1] - quart["change"][1])
    return {**quart, "wins": wins, "pairs": len(parent),
            "gain": wins >= 0.9 * len(parent) and lead > quart["parent"][2] - quart["parent"][0]}


def export(rev: str, dest: str) -> None:
    """The committed files of ``rev``, written under ``dest`` by git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in the checkout ``root``: its last output
    line, with ``raw_times`` from the report the run wrote."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    report = Path(root, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]),
            "raw_times": json.loads(report.read_text())["raw_times"]}


def summary_line(metric: dict, runs: dict[str, list[dict]]) -> str:
    """The summary of one end-to-end metric over the paired ``runs`` of each
    side (see the module docstring), with the raw medians where the runs'
    ``raw_times`` hold the metric."""
    name = metric["name"]
    s = summarize(*([r["metrics"][name]["value"] for r in runs[side]]
                    for side in ("parent", "change")), metric["better"])
    (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
    line = (f"  {name:12s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  change/parent {cm / pm:.3f}  "
            f"wins {s['wins']}/{s['pairs']}  gain {'holds' if s['gain'] else 'not shown'}")
    if all(name in r["raw_times"] for side in runs.values() for r in side):
        rp, rc = (statistics.median(r["raw_times"][name] for r in runs[side])
                  for side in ("parent", "change"))
        line += f"  raw parent {rp:.6g} change {rc:.6g} change/parent {rc / rp:.3f}"
    return line


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_rev")
    ap.add_argument("change_rev")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        roots = {"parent": parent, "change": change}
        try:
            for side, rev in (("parent", args.parent_rev), ("change", args.change_rev)):
                export(rev, roots[side])
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    res = run_once(roots[side], args.workload, args.seed, bench["run_seconds"])
                    runs[side].append(res)
                    values = " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
                    print(f"pair {i + 1} {side}: failed {res['failed']}/{res['attempted']} "
                          f"{values}", flush=True)
        except subprocess.CalledProcessError as e:
            print(f"bench_pairs: {' '.join(e.cmd)} failed: {(e.stderr or b'').decode().strip()}",
                  file=sys.stderr)
            return 1
        except RuntimeError as e:
            print(f"bench_pairs: {e}", file=sys.stderr)
            return 1
    print(f"\n{args.workload} seed {args.seed}: median [q1, q3] over {args.pairs} pairs")
    for metric in bench["end_to_end"]:
        print(summary_line(metric, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
