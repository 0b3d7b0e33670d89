"""The scripts under tools/: the result comparison of cli_results.py, the
line counts of srcstats.py and the pair summary of bench_pairs.py with its
raw times, its reference speed and its JSON form, each loaded from its
path; and the package names that the benchmark's tracer pins."""

import importlib.util
import inspect
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _load(name, directory=TOOLS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
cli_results = _load("cli_results")
srcstats = _load("srcstats")


def test_equal_nulls_are_not_moves():
    a = {"rows": [{"N": 4, "value": 0.25, "stderr": None}], "slope": None, "tol": None}
    assert list(cli_results._moves(a, a)) == []
    assert list(cli_results._moves(a, dict(a))) == []


def test_moved_number_is_reported_with_its_path():
    a = {"rows": [{"N": 4, "value": 0.25, "stderr": None}], "mean": [1.0, 0.0]}
    b = {"rows": [{"N": 4, "value": 0.5, "stderr": None}], "mean": [1.0, 0.0]}
    assert list(cli_results._moves(a, b)) == [(0.5, ".rows[0].value")]


def test_only_polynomial_coefficients_share_a_scale():
    # a Monte Carlo row holds only numbers, but its value moves against
    # itself, not against N; a polynomial's coefficients move against the
    # largest of them
    a = {"rows": [{"N": 4, "value": 0.25, "stderr": 0.001}],
         "poly": {"coeffs": {"u": [2.0, 0.0], "u^2": [0.25, 0.0]}},
         "varrho_coeffs": [1.0, 0.5, 0.25]}
    b = {"rows": [{"N": 4, "value": 0.5, "stderr": 0.001}],
         "poly": {"coeffs": {"u": [2.0, 0.0], "u^2": [0.5, 0.0]}},
         "varrho_coeffs": [1.0, 0.25, 0.25]}
    moves = dict((where, move) for move, where in cli_results._moves(a, b))
    assert moves == {".rows[0].value": 0.5, ".poly.coeffs.u^2": 0.125,
                     ".varrho_coeffs[1]": 0.25}


def test_missing_key_against_null_is_a_change():
    a = {"stderr": None, "value": 1.0}
    assert list(cli_results._moves(a, {"value": 1.0})) == [(None, ".stderr")]
    assert list(cli_results._moves({"value": 1.0}, a)) == [(None, ".stderr")]
    assert list(cli_results._moves(a, {"stderr": 0.1, "value": 1.0})) == [(None, ".stderr")]


def test_srcstats_counts_a_tiny_package(tmp_path, capsys):
    (tmp_path / "a.py").write_text(
        '"""Module docstring,\n\nthree lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x, y=1, *, z=2, w):\n"
        '    """One-line docstring."""\n'
        "    return x + y  # trailing comment\n")
    (tmp_path / "b.py").write_text("X = (1,\n     2)\n")
    # numeric literal expressions count, a derived name or a non-number does not
    (tmp_path / "c.py").write_text("A = 0.78\nB: int = 2 << 20\nC = -1e-3 * 2\n"
                                   "D = 2 * A\nE = True\nF = 'x'\n")
    assert srcstats.file_stats((tmp_path / "a.py").read_text()) == (8, 2, 2, 0)
    assert srcstats.file_stats((tmp_path / "c.py").read_text()) == (6, 6, 0, 3)
    assert srcstats.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "physical lines: 16", "code lines: 10", "parameters with defaults: 2",
        "numeric constants: 3"]
    # per file: one row per module, in name order, and the same totals
    assert srcstats.main(["--per-file", str(tmp_path)]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["file", "physical", "code", "defaults", "constants"],
        ["a.py", "8", "2", "2", "0"], ["b.py", "2", "2", "0", "0"],
        ["c.py", "6", "6", "0", "3"], ["total", "16", "10", "2", "3"]]


def test_srcstats_counts_a_package_at_a_git_revision(tmp_path, capsys):
    # the package as each commit holds it, whatever the working tree holds
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("X = 1\n")
    (pkg / "notes.txt").write_text("not python\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one module")
    (pkg / "b.py").write_text("def f(y=2):\n    return y\n")
    git("add", "-A")
    git("commit", "-q", "-m", "two modules")
    (pkg / "a.py").write_text("X = 1\nY = 2\n")  # uncommitted
    assert srcstats.main(["--per-file", "--rev", "HEAD~1", str(pkg)]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["file", "physical", "code", "defaults", "constants"],
        ["a.py", "1", "1", "0", "1"], ["total", "1", "1", "0", "1"]]
    assert srcstats.main(["--rev", "HEAD", str(pkg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "physical lines: 3", "code lines: 3", "parameters with defaults: 1",
        "numeric constants: 1"]
    assert srcstats.main(["--rev", "no-such-rev", str(pkg)]) == 1
    assert capsys.readouterr().err.startswith("srcstats: git archive failed: ")


def test_bench_pairs_summary_claims_a_gain_by_the_pairs_rule():
    parent = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.3, 10.0, 10.1, 9.9]
    change = [x - 1.0 for x in parent]
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["parent"] == pytest.approx((9.925, 10.05, 10.175)) and s["wins"] == 10 and s["gain"]
    # the same runs for a metric where higher is better: no wins, no gain
    s = bench_pairs.summarize(parent, change, "higher")
    assert s["wins"] == 0 and not s["gain"]
    assert bench_pairs.summarize(change, parent, "higher")["gain"]


def test_bench_pairs_summary_needs_nine_tenths_and_a_lead_past_the_spread():
    parent = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.3, 10.0, 10.1, 9.9]
    # two lost pairs out of ten: 8 wins is below nine tenths
    change = [x - 1.0 for x in parent[:8]] + [x + 1.0 for x in parent[8:]]
    assert bench_pairs.summarize(parent, change, "lower")["wins"] == 8
    assert not bench_pairs.summarize(parent, change, "lower")["gain"]
    # every pair won, but by less than the parent's interquartile range (0.25)
    s = bench_pairs.summarize(parent, [x - 0.2 for x in parent], "lower")
    assert s["wins"] == 10 and not s["gain"]
    # a tie counts for neither side
    assert bench_pairs.summarize([1.0, 2.0], [1.0, 1.0], "lower")["wins"] == 1


def test_bench_pairs_reads_raw_times_from_the_report(tmp_path, monkeypatch):
    # the run's last stdout line gives the scaled metrics; its report under
    # perfbench/out/ gives the raw times and the reference kernel's speed,
    # the median of its passes' times, beside them
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "monte_carlo-seed3-trace0.json").write_text(
        json.dumps({"raw_times": {"wall_s": 2.0, "op_p50_ms": 150.0},
                    "speed": {"pass_matrices_s": [0.011, 0.013, 0.010]}}))
    line = {"correct": True, "attempted": 36, "failed": 0,
            "metrics": {"wall_s": {"value": 2.5, "unit": "s"}}}
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **kw: subprocess.CompletedProcess(
        a, 0, stdout="workload monte_carlo\n" + json.dumps(line) + "\n", stderr=""))
    res = bench_pairs.run_once(str(tmp_path), "monte_carlo", 3, 19)
    assert res["metrics"] == line["metrics"]
    assert res["raw_times"] == {"wall_s": 2.0, "op_p50_ms": 150.0}
    assert res["speed_s"] == 0.011


def test_bench_pairs_summary_prints_raw_medians_beside_scaled_ones():
    # scaled op_p50_ms falls 2% while the raw one falls 4%: the reference
    # kernel ran faster on the change's side; peak RSS is never scaled
    def run(scaled, raw, rss):
        return {"metrics": {"op_p50_ms": {"value": scaled}, "peak_rss_mb": {"value": rss}},
                "raw_times": {"op_p50_ms": raw}}

    runs = {"parent": [run(100.0, 80.0, 40.0), run(102.0, 82.0, 40.0), run(101.0, 81.0, 40.0)],
            "change": [run(98.0, 77.0, 40.0), run(100.0, 79.0, 40.0), run(99.0, 78.0, 40.0)]}
    def line(name):
        return bench_pairs.summary_line(
            name, bench_pairs.metric_summary({"name": name, "better": "lower"}, runs))

    assert "change/parent 0.980" in line("op_p50_ms") and "wins 3/3" in line("op_p50_ms")
    assert line("op_p50_ms").endswith("raw parent 81 change 78 change/parent 0.963")
    assert "raw" not in line("peak_rss_mb")


def test_bench_pairs_writes_its_summary_as_json(tmp_path, monkeypatch, capsys):
    # canned runs in place of the exports and the benchmark: the change's
    # peak_rss_mb is 4 MB lower in every pair, its wall_s the parent's
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    order = []

    def run_once(root, workload, seed, seconds):
        side = "parent" if root == roots[0] else "change"
        i = sum(s == side for s in order)
        order.append(side)
        rss = 47.0 + 0.1 * i - (4.0 if side == "change" else 0.0)
        return {"failed": 0, "attempted": 30,
                "metrics": {m["name"]: {"value": rss if m["name"] == "peak_rss_mb" else 3.0 + i}
                            for m in bench["end_to_end"]},
                "raw_times": {"wall_s": 2.0 + i},
                "speed_s": (0.010 if side == "change" else 0.012) + 0.001 * i}

    roots = []
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: roots.append(dest))
    monkeypatch.setattr(bench_pairs, "commit_of", lambda rev: f"{rev}-commit")
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["p0", "c1", "--workload", "monte_carlo", "--seed", "3",
                             "--pairs", "4", "--json", str(out)]) == 0
    assert order == ["parent", "change", "change", "parent"] * 2
    got = json.loads(out.read_text())
    assert {k: got[k] for k in ("parent", "change", "workload", "seed", "pairs")} == {
        "parent": {"rev": "p0", "commit": "p0-commit"},
        "change": {"rev": "c1", "commit": "c1-commit"},
        "workload": "monte_carlo", "seed": 3, "pairs": 4}
    assert list(got["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    rss = got["metrics"]["peak_rss_mb"]
    assert rss["parent"] == pytest.approx({"q1": 47.075, "median": 47.15, "q3": 47.225})
    assert rss["change"] == pytest.approx({"q1": 43.075, "median": 43.15, "q3": 43.225})
    assert rss["ratio"] == pytest.approx(43.15 / 47.15)
    assert (rss["wins"], rss["pairs"], rss["gain"], rss["raw"]) == (4, 4, True, None)
    wall = got["metrics"]["wall_s"]
    assert (wall["wins"], wall["gain"], wall["ratio"]) == (0, False, 1.0)
    assert wall["raw"] == {"parent": 3.5, "change": 3.5, "ratio": 1.0}
    # the reference kernel ran 2 ms faster on the change's side
    assert got["speed"] == pytest.approx({"parent": 0.0135, "change": 0.0115,
                                          "ratio": 0.0115 / 0.0135})
    # the printed lines are the same summary
    printed = capsys.readouterr().out.splitlines()
    assert bench_pairs.summary_line("peak_rss_mb", rss) in printed
    assert printed[-1] == ("  reference kernel s  parent 0.0135  change 0.0115  "
                           "change/parent 0.852")


def test_benchmark_tracer_pins_resolve():
    # perfbench/tracer.py wraps each TARGETS entry by its owner and attribute
    # and reads each cache's cache_info(): a rename of a pinned name fails here
    tracer = _load("tracer", ROOT / "perfbench")
    for name, owner, attr in tracer.TARGETS:
        assert inspect.isfunction(vars(owner).get(attr)), (name, owner, attr)
    for cache in tracer.CACHES:
        assert callable(getattr(cache, "cache_info", None)), cache
