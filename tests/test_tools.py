"""The scripts under tools/: the result comparison of cli_results.py, the
line counts of srcstats.py and the pair summary of bench_pairs.py, each
loaded from its path."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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
