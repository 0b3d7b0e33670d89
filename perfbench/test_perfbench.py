"""Tests of the benchmark itself: python -m pytest perfbench

They check that tracing wraps every lookup site, that every wrapper the
workloads can reach fires on some workload, that traced results are bitwise identical to untraced
ones, and, at a tiny size, that a run prints every metric named in
BENCHMARK.json with its unit.
"""

import gc
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, run_op  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# Lookup sites that are wrapped but that no op of any workload reaches.
# Every other site must fire; a wrapper put where the workloads' calls do
# not go would show up here.
UNREACHED_SITES = {
    # package-level names the workloads do not call (checks call some of
    # them, but checks are not traced)
    "freesb.apply_D", "freesb.evaluate", "freesb.evaluate_word", "freesb.exp_apply",
    "freesb.laplacian_eval", "freesb.pi_eval", "freesb.sesq_B",
    # CLI subcommands outside heat_fresh (transform --dir H, biane,
    # gen-fn-check, norm)
    "freesb.cli.H", "freesb.cli.biane", "freesb.cli.verify_gen_fn",
    "freesb.cli.l2_norm_sq",
    # used by matrixlab's concentration, equivariance and zero tests, and
    # for word polynomials in _eval_scalar; mc_expectation of v1 uses none
    "freesb.matrixlab.evaluate", "freesb.matrixlab.evaluate_word",
    "freesb.matrixlab.l2_norm_sq", "freesb.matrixlab.laplacian_eval",
    "freesb.matrixlab.pi_eval",
    # moments uses them in pi_via_semigroup, which only the checks call
    "freesb.moments.exp_apply", "freesb.moments.pi_eval",
    # module globals that their own module never calls
    "freesb.operators.exp_apply", "freesb.tracepoly.parse", "freesb.transform.G",
    "freesb.transform.verify_gen_fn", "freesb.words.l2_norm_sq",
    # nothing in freesb adds a polynomial to a scalar on its left
    "freesb.tracepoly.TracePoly.__radd__", "freesb.words.WordPoly.__radd__",
}


def _first_of_each_kind(name):
    ops, kinds = [], set()
    for op in WORKLOADS[name].make_pass(0, 0):
        if op["kind"] not in kinds:
            kinds.add(op["kind"])
            ops.append(op)
    return ops


def _bits(out):
    """A form of an op output in which equal means bitwise equal."""
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        code, text = out                                # CLI: exit code and report
        return code, json.dumps(json.loads(text)["results"], sort_keys=True)
    if hasattr(out, "terms"):
        return repr(sorted(out.terms.items()))
    return repr(out)


def _dicts_holding(fn):
    """Every dict that refers to ``fn``: module and class namespaces and
    tables such as operators._NAMED, found without lookup_sites."""
    return [d for d in gc.get_referrers(fn) if isinstance(d, dict)]


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    originals = [vars(owner)[attr] for _, owner, attr in tracing.TARGETS]
    before = [len(_dicts_holding(fn)) for fn in originals]
    tr = tracing.Tracer()
    tr.install()
    try:
        for fn in originals:
            assert _dicts_holding(fn) == [], fn.__qualname__
    finally:
        tr.uninstall()
    assert [len(_dicts_holding(fn)) for fn in originals] == before
    assert all(before)


@pytest.fixture(scope="module")
def traced_ops():
    """Each kind of op of every workload, run traced and then untraced."""
    tr = tracing.Tracer()
    pairs = []
    for name in WORKLOADS:
        w = WORKLOADS[name]
        for op in _first_of_each_kind(name):
            tr.begin_pass()
            try:
                traced = tr.run_op("op." + op["kind"], w.run, op)
            finally:
                tr.end_pass(0.0)
            for cache in tracing.S_CACHES:   # recompute, do not replay, untraced
                cache.cache_clear()
            untraced, failure = run_op(name, op)
            assert failure is None, (name, op, failure)
            pairs.append((name, op, traced, untraced))
    return tr, pairs


def test_traced_results_are_bitwise_identical(traced_ops):
    _, pairs = traced_ops
    for name, op, traced, untraced in pairs:
        assert _bits(traced) == _bits(untraced), (name, op)
        assert WORKLOADS[name].check(op, traced) is None, (name, op)


def test_every_wrapper_fires_on_some_workload(traced_ops):
    tr, _ = traced_ops
    expected = {name for name, _, _ in tracing.TARGETS}
    expected -= {"words.apply_tilde", "matrixlab.stream"}
    expected |= {"words.apply_Dst", "words.apply_Lst", "matrixlab.draw"}
    assert expected <= set(tr.span_names)
    assert UNREACHED_SITES <= set(tr.site_calls)
    fired = {label for label, n in tr.site_calls.items() if n}
    assert fired == set(tr.site_calls) - UNREACHED_SITES


def test_inputs_come_from_the_seed():
    for w in WORKLOADS.values():
        assert w.make_pass(5, 2) == w.make_pass(5, 2)
        assert w.make_pass(5, 2) != w.make_pass(6, 2)


def test_tail_has_ten_ops_beyond_it():
    t = run.tail([float(x) for x in range(40)])
    assert (t["value_s"], t["percentile"], t["beyond"]) == (29.0, 75.0, 10)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    proc = _bench(ROOT, "--workload", "heat_fresh", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    for name in want:
        assert name in proc.stdout.replace(proc.stdout.strip().splitlines()[-1], "")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "transform", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
