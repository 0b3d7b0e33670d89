"""Alternating benchmark runs of two revisions, and whether a gain holds.

    python tools/bench_pairs.py PARENT_REV CHANGE_REV --workload W --seed S --pairs 10 [--json PATH]

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
between the two sides moves the scaled medians alone.  So a last line
gives that speed: each side's median reference-kernel time (a run's time
is the median of its passes' ``speed.pass_matrices_s``) and their ratio.

With ``--json PATH`` the same summary is also written to PATH as one JSON
object: both revisions (as given and as the commits they name), the
workload, the seed, the pair count and, per metric, each side's median
and quartiles, the ratio, the wins, whether the gain holds and, for a
time metric, the raw medians and their ratio, and under ``speed`` the
reference-kernel medians and their ratio.

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
    line, with ``raw_times`` and ``speed_s``, the median of the passes'
    reference-kernel times, from the report the run wrote."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    report = json.loads(Path(root, "perfbench", "out",
                             f"{workload}-seed{seed}-trace0.json").read_text())
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "raw_times": report["raw_times"],
            "speed_s": statistics.median(report["speed"]["pass_matrices_s"])}


def metric_summary(metric: dict, runs: dict[str, list[dict]]) -> dict:
    """The summary of one end-to-end metric over the paired ``runs`` of each
    side (see the module docstring): ``summarize``'s fields, each side's
    quartiles as ``q1``, ``median`` and ``q3``, the ratio of the medians and,
    where the runs' ``raw_times`` hold the metric, ``raw``, the medians of the
    raw times and their ratio (None otherwise)."""
    name = metric["name"]
    s = summarize(*([r["metrics"][name]["value"] for r in runs[side]]
                    for side in ("parent", "change")), metric["better"])
    for side in ("parent", "change"):
        s[side] = dict(zip(("q1", "median", "q3"), s[side]))
    s["ratio"] = s["change"]["median"] / s["parent"]["median"]
    s["raw"] = None
    if all(name in r["raw_times"] for side in runs.values() for r in side):
        rp, rc = (statistics.median(r["raw_times"][name] for r in runs[side])
                  for side in ("parent", "change"))
        s["raw"] = {"parent": rp, "change": rc, "ratio": rc / rp}
    return s


def summary_line(name: str, s: dict) -> str:
    """One printed line of a ``metric_summary``."""
    (p1, pm, p3), (c1, cm, c3) = (s[side].values() for side in ("parent", "change"))
    line = (f"  {name:12s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  change/parent {s['ratio']:.3f}  "
            f"wins {s['wins']}/{s['pairs']}  gain {'holds' if s['gain'] else 'not shown'}")
    if s["raw"]:
        line += (f"  raw parent {s['raw']['parent']:.6g} change {s['raw']['change']:.6g} "
                 f"change/parent {s['raw']['ratio']:.3f}")
    return line


def commit_of(rev: str) -> str:
    """The full hash of the commit that ``rev`` names."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, check=True).stdout.decode().strip()


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_rev")
    ap.add_argument("change_rev")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", metavar="PATH", help="also write the summary to PATH as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    revs = {"parent": {"rev": args.parent_rev}, "change": {"rev": args.change_rev}}
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        roots = {"parent": parent, "change": change}
        try:
            for side, rev in revs.items():
                rev["commit"] = commit_of(rev["rev"])
                export(rev["commit"], roots[side])
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
    metrics = {m["name"]: metric_summary(m, runs) for m in bench["end_to_end"]}
    for name, s in metrics.items():
        print(summary_line(name, s))
    speed = {side: statistics.median(r["speed_s"] for r in runs[side]) for side in runs}
    speed["ratio"] = speed["change"] / speed["parent"]
    print(f"  reference kernel s  parent {speed['parent']:.6g}  change {speed['change']:.6g}  "
          f"change/parent {speed['ratio']:.3f}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {**revs, "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
             "metrics": metrics, "speed": speed}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
