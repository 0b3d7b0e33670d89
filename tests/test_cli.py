"""Command-line interface: report schema, exit codes, determinism,
and the documented worked examples.

All tests but the closed-pipe one and the explicit-basis sweep drive
main() in-process and parse the JSON report from captured stdout.
"""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import freesb.cli as cli
import freesb.matrixlab as matrixlab
import freesb.operators as operators
import freesb.words as words
from freesb import __version__
from freesb.matrixlab import RNG_NAME
from freesb.moments import b_poly, c_poly, nu, varrho, varrho_coeffs


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


# ---------------------------------------------------------------- schema


def test_report_schema(capsys):
    code, rep = run(capsys, "moments", "--k", "1", "--s", "1.0")
    assert code == 0
    assert rep["schema"] == 1
    assert rep["command"] == "moments"
    assert rep["params"] == {"k": 1, "s": 1.0}
    assert rep["versions"] == {"code": __version__, "rng": RNG_NAME}
    assert rep["seed"] is None  # moments takes no randomness
    assert isinstance(rep["wall_time_ms"], float)
    assert abs(rep["results"]["nu"] - math.exp(-0.5)) < 1e-12


def test_output_is_sorted_pretty_json(capsys):
    code, _ = run(capsys, "moments", "--k", "2", "--s", "0.3")
    out = capsys.readouterr  # already consumed; rerun for raw text
    code = cli.main(["moments", "--k", "2", "--s", "0.3"])
    raw = capsys.readouterr().out
    rep = json.loads(raw)
    assert raw == json.dumps(rep, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- examples


def test_biane_example(capsys):
    code, rep = run(capsys, "biane", "--k", "2", "--s", "1", "--t", "1")
    assert code == 0
    coeffs = rep["results"]["poly"]["coeffs"]
    assert abs(coeffs["u^2"][0] - math.e) < 1e-10
    assert abs(coeffs["u"][0] - math.sqrt(math.e)) < 1e-10
    assert set(coeffs) == {"u", "u^2"}


def test_heat_apply_example(capsys):
    code, rep = run(capsys, "heat-apply", "--gen", "DN", "--N", "4",
                    "--t", "0.7", "--f", "u^2")
    assert code == 0
    coeffs = rep["results"]["poly"]["coeffs"]
    t, N = 0.7, 4
    want_u2 = math.exp(-t) * math.cosh(t / N)
    want_uv1 = -N * math.exp(-t) * math.sinh(t / N)
    assert abs(coeffs["u^2"][0] - want_u2) < 1e-12
    assert abs(coeffs["u v1"][0] - want_uv1) < 1e-12


def test_transform_roundtrip(capsys):
    code, rep = run(capsys, "transform", "--s", "1.5", "--t", "0.8",
                    "--f", "u^2", "--dir", "G")
    assert code == 0
    g = rep["results"]["poly"]["coeffs"]
    assert abs(g["u^2"][0] - math.exp(-0.8)) < 1e-12


def test_norm_and_verification_commands(capsys):
    code, rep = run(capsys, "norm", "--p", "u", "--measure", "mu",
                    "--s", "1.5", "--t", "0.8", "--N", "3")
    assert code == 0
    assert abs(rep["results"]["value"] - math.exp(0.8)) < 1e-9
    for argv in (("gen-fn-check", "--s", "1.0", "--t", "1.0", "--K", "6"),
                 ("pde-check", "--s", "0.7", "--K", "6"),
                 # the level-curve identity is checked over the rationals:
                 # composed in floats, its roundoff here was 1.2e-7
                 ("pde-check", "--s", "2.25", "--K", "16"),
                 ("verify-magic", "--N", "3"),
                 ("intertwine-check", "--N", "3", "--degree", "3",
                  "--trials", "3", "--seed", "1")):
        code, rep = run(capsys, *argv)
        assert code == 0, argv
        assert rep["results"]["pass"] is True


# ---------------------------------------------------------------- determinism


def test_results_reproducible_for_fixed_seed(capsys):
    argv = ("mc", "--f", "v1", "--N", "3", "--s", "1.0", "--steps", "10",
            "--samples", "40", "--seed", "7")
    _, rep1 = run(capsys, *argv)
    _, rep2 = run(capsys, *argv)
    assert json.dumps(rep1["results"], sort_keys=True) == \
        json.dumps(rep2["results"], sort_keys=True)
    assert rep1["seed"] == 7


def test_env_seed_override(capsys, monkeypatch):
    argv = ("mc", "--f", "v1", "--N", "3", "--s", "1.0", "--steps", "10",
            "--samples", "40", "--seed", "7")
    _, base = run(capsys, *argv)
    monkeypatch.setenv("FREESB_SEED", "99")
    _, over = run(capsys, *argv)
    assert over["seed"] == 99
    assert over["results"]["mean"] != base["results"]["mean"]
    # non-randomized commands ignore the env knob
    _, mom = run(capsys, "moments", "--k", "1", "--s", "1.0")
    assert mom["seed"] is None


def test_threads_do_not_change_results(capsys):
    # N = 8 takes a pool (matrixlab._POOL_MIN_N)
    base = ("mc", "--f", "v1", "--N", "8", "--s", "1.0", "--steps", "10",
            "--samples", "200", "--seed", "3")
    _, r1 = run(capsys, *base, "--threads", "1")
    _, r4 = run(capsys, *base, "--threads", "4")
    assert r1["results"]["mean"] == r4["results"]["mean"]
    assert r1["results"]["stderr"] == r4["results"]["stderr"]


def test_parser_keeps_no_options_between_calls(capsys, monkeypatch):
    # one parser serves every call: an option given once is not remembered
    monkeypatch.delenv("FREESB_SEED", raising=False)
    assert cli._build_parser() is cli._build_parser()
    transform = ("transform", "--s", "1.0", "--t", "0.5", "--f", "u")
    _, given = run(capsys, *transform, "--dir", "H")
    _, default = run(capsys, *transform)
    assert given["results"]["dir"] == "H"
    assert default["results"]["dir"] == default["params"]["dir"] == "G"
    check = ("intertwine-check", "--N", "2", "--trials", "1")
    _, given = run(capsys, *check, "--seed", "5")
    _, default = run(capsys, *check)
    assert (given["seed"], default["seed"]) == (5, 0)


# ---------------------------------------------------------------- exit codes


_BAD_MAGIC = {"m1": 1.0, "m2": 1.0, "m3": 1.0, "m4": 1.0, "max": 1.0, "pass": False}


@pytest.mark.parametrize("argv, patch, want", [
    (["gen-fn-check", "--s", "1", "--t", "1", "--K", "6"], {"GEN_FN_TOL": 0.0}, 2),
    (["pde-check", "--s", "0.7", "--K", "6"], {"PDE_TOL": 0.0}, 2),
    (["verify-magic", "--N", "3"], {"verify_magic": lambda N: _BAD_MAGIC}, 2),
    (["intertwine-check", "--N", "3", "--trials", "2"], {"INTERTWINE_TOL": 0.0}, 2),
    (["gen-fn-check", "--s", "1", "--t", "1", "--K", "6"], {}, 0),
], ids=["gen-fn-check", "pde-check", "verify-magic", "intertwine-check", "pass"])
def test_verification_failure_exits_2(capsys, monkeypatch, argv, patch, want):
    # the exit status is read off results["pass"] alone (a zero tolerance
    # fails any residual)
    for name, value in patch.items():
        monkeypatch.setattr(cli, name, value)
    code, rep = run(capsys, *argv)
    assert code == want
    assert rep["results"]["pass"] is (want == 0)


_SWEEP = ([("pde-check", "--s", s, "--K", K) for K in ("1", "4", "8", "12", "16")
           for s in ("0", "0.01", "0.3", "1", "5", "10", "-0.1", "-0.5", "-1")]
          + [("verify-magic", "--N", N) for N in ("1", "2", "8", "36")]
          + [("intertwine-check", "--N", N, "--degree", str(d), "--trials", "2")
             for N in ("1", "2", "8") for d in range(2, 13)])


def test_verification_commands_pass_on_their_domain(capsys):
    # exit 2 states a defect: correct code passes every check of the grid,
    # including pde-check at K = 16 and s <= 0.01, whose absolute gaps
    # reached 6e-8 to 0.25 among terms of up to 1.3e15
    failed = [argv for argv in _SWEEP if run(capsys, *argv)[0] != 0]
    assert failed == []


@pytest.mark.parametrize("argv", [["verify-magic"], ["intertwine-check", "--trials", "1"]],
                         ids=["verify-magic", "intertwine-check"])
def test_explicit_basis_bound(capsys, argv):
    # N^2 dense N x N matrices: one above the bound is refused before any
    # is allocated (the basis at N + 1 would take 20 MB)
    N = matrixlab.MAX_BASIS_N
    assert cli.main([*argv, "--N", str(N)]) == 0
    capsys.readouterr()
    assert f"1 <= N <= {N}, got {N + 1}" in _refused(capsys, [*argv, "--N", str(N + 1)])


def _refused(capsys, argv, seconds=1.0, peak_bytes=1 << 20) -> str:
    """The one stderr line of ``argv``, which must exit 1 within ``seconds``
    and a tracemalloc peak of ``peak_bytes``."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        assert cli.main(argv) == 1
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < seconds and peak < peak_bytes, (elapsed, peak)
    return _one_line_error(capsys)


_MC = ["--mode", "mc", "--samples", "4", "--steps", "2", "--Ns", "2,3,4"]


@pytest.mark.parametrize("argv, s_ok, message", [
    (["norm", "--p", "u", "--measure", "mu", "--s", "0.5", "--t", "1.2", "--N", "4"],
     "0.6000001", "mu requires s > t/2"),
    (["norm", "--p", "u", "--measure", "mu", "--s", "0.5", "--t", "1.0", "--N", "4"],
     "0.5000001", "mu requires s > t/2"),
    (["norm", "--p", "u", "--measure", "rho", "--s", "-1", "--N", "4"], "0", "rho requires s >= 0"),
    (["concentration", "--p", "v1", "--s", "0.5", "--t", "1.2"], "0.6000001",
     "mu requires s > t/2"),
    (["concentration", "--p", "v1", "--s", "-1e-3"], "0", "rho requires s >= 0"),
    (["concentration", "--p", "v1", "--s", "0.5", "--t", "1.0", *_MC], "0.5000001",
     "mu requires s > t/2"),
    (["concentration", "--p", "v1", "--s", "-1", *_MC], "0", "rho requires s >= 0"),
])
def test_no_measure_is_refused(capsys, argv, s_ok, message):
    # times of no measure exit 1 before any work; the boundary itself,
    # rho at s = 0 and mu just above s = t/2, is a measure
    assert message in _refused(capsys, argv)
    i = argv.index("--s") + 1
    assert cli.main(argv[:i] + [s_ok] + argv[i + 1:]) == 0


@pytest.mark.parametrize("argv", [
    ["norm", "--p", "u", "--measure", "mu", "--s", "1", "--t", "-1", "--N", "4"],
    ["concentration", "--p", "v1", "--s", "1", "--t", "-1", "--Ns", "2,3,4"],
    ["concentration", "--p", "v1", "--s", "1", "--t", "-1", *_MC],
    ["mc", "--f", "v1", "--N", "4", "--s", "1", "--t", "-1", "--samples", "4", "--steps", "2"],
])
def test_negative_mu_time_is_refused(capsys, argv):
    # mu needs t/2 > 0, the variance of its second noise; t = 0 is rho
    # (which norm refuses under --measure mu) and a tiny positive t is mu
    assert "mu requires s > t/2 > 0" in _refused(capsys, argv)
    i = argv.index("--t") + 1
    for t_ok in ("1e-12",) if argv[0] == "norm" else ("0", "1e-12"):
        assert cli.main(argv[:i] + [t_ok] + argv[i + 1:]) == 0


def test_sampler_steps_bound(capsys):
    # the bound itself is a valid configuration (running it takes seconds)
    bound = matrixlab.MAX_SAMPLER_STEPS
    matrixlab.SamplerCfg(N=2, s=1.0, steps=bound)
    for steps in (bound + 1, 10**11):
        argv = ["mc", "--f", "v1", "--N", "2", "--s", "1", "--samples", "2",
                "--steps", str(steps)]
        assert f"steps must be in [1, {bound}], got {steps}" in _refused(capsys, argv)


@pytest.mark.parametrize("argv, degree", [
    # the sampler would key a table by every prefix of the 20,000-letter word
    (["mc", "--f", "v20000", "--N", "2", "--s", "1", "--samples", "2", "--steps", "1",
      "--threads", "1"], 20000),
    # B(p, p) would be a 40,000-letter word before rho collapses it to 1
    (["norm", "--p", "u^20000", "--measure", "rho", "--s", "2.25", "--N", "3"], 40000),
    # the Monte Carlo mode checks B(p, p) as the symbolic mode does, before
    # evaluate keys a table by every prefix of the word
    (["concentration", "--p", "u^20000 v1", "--s", "1", "--mode", "mc", "--Ns", "2,3,4",
      "--samples", "2", "--steps", "1", "--threads", "1"], 40002),
])
def test_degree_is_refused_before_any_word(capsys, argv, degree):
    line = _refused(capsys, argv, seconds=0.1)
    assert f"trace degree {degree} exceeds 24" in line


def test_closure_budget_refuses_at_once(capsys):
    # this closure has 53,040 monomials; the search stops at MAX_CLOSURE
    argv = ["heat-apply", "--gen", "DN", "--N", "8", "--t", "1", "--f", "u^12 v-12"]
    line = _refused(capsys, argv, seconds=5.0, peak_bytes=8 << 20)
    assert f"MAX_CLOSURE={operators.MAX_CLOSURE}" in line


def test_usage_errors_exit_1(capsys):
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()
    assert cli.main(["moments", "--k", "1"]) == 1  # missing --s
    capsys.readouterr()
    assert cli.main(["moments", "--k", "0", "--s", "1.0"]) == 1
    capsys.readouterr()
    # matrix-valued observable rejected by mc
    assert cli.main(["mc", "--f", "u", "--N", "3", "--s", "1.0",
                     "--steps", "5", "--samples", "4"]) == 1
    capsys.readouterr()
    # rho norm takes no --t
    assert cli.main(["norm", "--p", "u", "--measure", "rho", "--s", "1.0",
                     "--t", "0.5", "--N", "3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, opt", [
    (["concentration", "--p", "v1", "--s", "1", "--Ns=--"], "--Ns"),
    (["norm", "--p=--", "--measure", "rho", "--s", "1", "--N", "2"], "--p"),
    (["mc", "--f=--", "--N", "2", "--s", "1", "--samples", "4", "--steps", "2"], "--f"),
    (["transform", "--s", "1", "--t", "1", "--f=--"], "--f"),
    (["heat-apply", "--gen", "D", "--t=--", "--f", "u"], "--t"),
    (["mc", "--f", "v1", "--N", "2", "--s", "1", "--samples", "4", "--steps", "2",
      "--threads=--"], "--threads"),
])
def test_option_written_with_a_double_dash_is_refused(capsys, monkeypatch, argv, opt):
    # argparse drops the "--" of --OPT=--, and the option would reach its command as []
    monkeypatch.setattr(matrixlab, "_sample_batch", None)  # refused before any sampling
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"freesb: error: {argv[0]}: argument {opt}: expected one argument\n"


@pytest.mark.parametrize("argv, line", [
    (["norm", "--p", "v1", "--measure", "rho", "--s", "1"],
     "norm: the following arguments are required: --N"),
    (["heat-apply", "--gen", "Q", "--t", "1", "--f", "u"],
     "heat-apply: argument --gen: invalid choice: 'Q' (choose from 'D', 'DN')"),
    (["moments", "--k", "1", "--s", "1", "--bogus", "3"], "moments: unrecognized arguments: --bogus 3"),
    (["moments", "--k", "x", "--s", "1"], "moments: argument --k: invalid int value: 'x'"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'heat-apply', "),
    ([], "the following arguments are required: command"),
], ids=["missing", "choice", "unknown", "type", "command", "empty"])
def test_argparse_refusal_is_one_line(capsys, argv, line):
    # no usage block: one line, like every other exit 1, naming the
    # subcommand (--OPT=-- is test_option_written_with_a_double_dash_is_refused)
    assert cli.main(argv) == 1
    assert _one_line_error(capsys).startswith(f"freesb: error: {line}")


def test_closed_stdout_exits_1_without_traceback():
    # the reader closes the pipe before the report is written
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "freesb.cli", "gen-fn-check",
                             "--s", "1", "--t", "1", "--K", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("freesb: error: "), captured.err
    return lines[0]


def test_malformed_env_seed_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("FREESB_SEED", "abc")
    code = cli.main(["mc", "--f", "v1", "--N", "3", "--s", "1.0",
                     "--steps", "5", "--samples", "4"])
    assert code == 1
    assert "FREESB_SEED" in _one_line_error(capsys)


def test_nonreal_norm_exits_1(capsys, monkeypatch):
    # l2_norm_sq rejects an expectation that is not real
    monkeypatch.setattr(words, "expectation", lambda *a, **k: 1.0 + 1.0j)
    code = cli.main(["norm", "--p", "u", "--measure", "rho", "--s", "1.0",
                     "--N", "3"])
    assert code == 1
    assert "non-real" in _one_line_error(capsys)


# ---------------------------------------------------------------- csv


def test_concentration_csv(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, rep = run(capsys, "concentration", "--p", "v1", "--s", "1.0",
                    "--Ns", "3,4,6", "--mode", "symbolic",
                    "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,value,stderr"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 3
    assert abs(float(first[1]) - rep["results"]["rows"][0]["value"]) < 1e-15


def test_mc_csv(capsys, tmp_path):
    path = tmp_path / "mc.csv"
    code, rep = run(capsys, "mc", "--f", "v1", "--N", "3", "--s", "1.0", "--steps", "5",
                    "--samples", "4", "--csv", str(path))
    assert code == 0
    res = rep["results"]
    assert res["csv"] == str(path)
    assert path.read_text().splitlines() == [
        "N,value,stderr", f"3,{res['mean'][0]!r},{res['stderr']!r}"]


@pytest.mark.parametrize("argv, message", [
    # a repeated N leaves np.polyfit a slope fitted to fewer points
    (["concentration", "--p", "v1", "--s", "1", "--Ns", "2,2,2"], "strictly ascending"),
    (["concentration", "--p", "v1", "--s", "1", "--Ns", "4,8,8,16"], "strictly ascending"),
    # a standard error needs two samples
    (["concentration", "--p", "v1", "--s", "1", "--mode", "mc", "--samples", "1",
      "--Ns", "2,3,4", "--steps", "5", "--threads", "1"], "nsamples must be >= 2"),
    # a list that is not comma-separated integers is refused by the option's name
    (["concentration", "--p", "v1", "--s", "1", "--Ns", "4,8,x"], "--Ns"),
    (["concentration", "--p", "v1", "--s", "1", "--Ns", ","], "--Ns"),
    (["concentration", "--p", "v1", "--s", "1", "--Ns", "4.5,8,16"], "--Ns"),
])
def test_concentration_bad_inputs_exit_1(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(matrixlab, "_sample_batch", None)  # refused before any sampling
    assert cli.main(argv) == 1
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["concentration", "--p", "v1", "--s", "1.0", "--Ns", "3,4,6"],
    ["mc", "--f", "v1", "--N", "3", "--s", "1.0", "--steps", "5", "--samples", "4"],
])
def test_unwritable_csv_exits_1(capsys, tmp_path, argv):
    # the rows are computed, then the file cannot be opened
    path = tmp_path / "no-such-dir" / "rows.csv"
    assert cli.main(argv + ["--csv", str(path)]) == 1
    assert "No such file" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["norm", "--p", "u", "--measure", "rho", "--s", "nan", "--N", "3"],
    ["heat-apply", "--gen", "D", "--t", "nan", "--f", "1"],
    ["mc", "--f", "v1", "--N", "4", "--s", "nan"],
    ["mc", "--f", "v1", "--N", "4", "--s", "inf"],
    ["mc", "--f", "v1", "--N", "4", "--s", "1", "--t", "nan"],
    ["concentration", "--p", "u", "--s", "inf", "--mode", "mc", "--Ns", "2,3,4",
     "--steps", "5", "--samples", "4"],
    # f = u needs no nu_k, so G and H check s themselves
    ["transform", "--s", "nan", "--t", "1", "--f", "u"],
    ["transform", "--dir", "H", "--s", "inf", "--t", "1", "--f", "u"],
    ["biane", "--k", "1", "--s", "inf", "--t", "1"],
    ["biane", "--k", "2", "--s", "inf", "--t", "1"],
    ["moments", "--k", "1", "--s", "nan"],
    ["moments", "--k", "3", "--s=-inf"],
    ["gen-fn-check", "--s", "nan", "--t", "1"],
    ["pde-check", "--s", "inf"],
    ["concentration", "--p", "v1", "--s", "nan"],
])
def test_nan_time_exits_1(capsys, argv):
    # the first two results are exact constants (1) at any finite time; a
    # NaN time is still an error, not a generator that acts as zero.  The
    # samplers refuse NaN and infinite times rather than report NaN, or
    # zeros for u - pi(u) = 0
    assert cli.main(argv) == 1
    assert "non-finite" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["heat-apply", "--gen", "D", "--t", "-1e-3", "--f", "u"],
    ["heat-apply", "--gen", "DN", "--N", "3", "--t", "-2.5E-1", "--f", "u^2 - v1"],
    ["transform", "--s", "-1e-1", "--t", "-2e-1", "--f", "u^2", "--dir", "H"],
    ["biane", "--k", "2", "--s", "1", "--t", "-5e-1"],
    ["moments", "--k", "3", "--s", "-1.5e0"],
    ["gen-fn-check", "--s", "1", "--t", "-1e-2", "--K", "4"],
    ["pde-check", "--s", "-7e-1", "--K", "4"],
])
def test_negative_floats_in_exponent_notation(capsys, argv):
    # argparse alone takes -1e-3 for an option name; the value must parse
    # as it does when glued to its option with "="
    glued, words = [], iter(argv)
    for a in words:
        glued.append(f"{a}={next(words)}" if a in ("--s", "--t") else a)
    code, rep = run(capsys, *argv)
    code_glued, rep_glued = run(capsys, *glued)
    assert code == code_glued == 0
    assert rep["params"] == rep_glued["params"]
    assert rep["results"] == rep_glued["results"]


def test_negative_mu_time_in_exponent_notation_is_refused(capsys):
    # spaced or glued, -8e-1 reaches mu's rule as t = -0.8, not as an option
    argv = ["norm", "--p", "u", "--measure", "mu", "--s", "1.5", "--t", "-8e-1", "--N", "3"]
    spaced = _refused(capsys, argv)
    glued = _refused(capsys, argv[:7] + ["--t=-8e-1"] + argv[9:])
    assert spaced == glued
    assert "mu requires s > t/2 > 0, got s=1.5, t=-0.8" in spaced


@pytest.mark.parametrize("argv", [
    ["transform", "--s", "-inf", "--t", "1", "--f", "u"],
    ["biane", "--k", "2", "--s", "1", "--t", "-inf"],
    ["heat-apply", "--gen", "D", "--t", "-Infinity", "--f", "u"],
    ["moments", "--k", "3", "--s", "-nan"],
])
def test_negative_non_finite_times_reach_the_time_check(capsys, argv):
    assert cli.main(argv) == 1
    assert "non-finite time" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["gen-fn-check", "--s", "1", "--t", "1", "--K", "0"],
    ["gen-fn-check", "--s", "1", "--t", "1", "--K", "-2"],
    ["gen-fn-check", "--s", "1", "--t", "1", "--K", "17"],
    ["pde-check", "--s", "1", "--K", "0"],
    ["pde-check", "--s", "1", "--K", "-2"],
    ["pde-check", "--s", "1", "--K", "30"],
])
def test_series_order_out_of_range_exits_1(capsys, argv):
    # an empty order is not a passing check, and neither check runs past 16
    assert cli.main(argv) == 1
    assert "1..16" in _one_line_error(capsys)


@pytest.mark.parametrize("argv, what", [
    (["mc", "--f", "v1", "--N", "4", "--s", "1e300"], "1-norm"),
    (["mc", "--f", "v1", "--N", "4", "--s", "1e6", "--t", "1.9e6"], "overflow"),
])
def test_huge_sampler_time_exits_1(capsys, argv, what):
    # finite times whose paths no double can carry: an error before any
    # warning, not a NaN mean
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*argv, "--samples", "8", "--steps", "5"]) == 1
    assert what in _one_line_error(capsys)


def test_moments_at_the_edges_of_the_float_range(capsys):
    # nu_32(45) is a normal double although e^{-720} underflows alone; at
    # s = 1e10 the c_k coefficients overflow, which is refused by name, not
    # with Python's bare integer-division message
    code, rep = run(capsys, "moments", "--k", "32", "--s", "45")
    assert code == 0 and 1e-300 < abs(rep["results"]["nu"]) < 1e-200
    assert cli.main(["moments", "--k", "64", "--s", "1e10"]) == 1
    assert "at s = 10000000000.0 is beyond the float range" in _one_line_error(capsys)
    # e^{-js/2} in b_k overflows at s = -1500: refused by name, not with
    # Python's bare "math range error"
    assert cli.main(["moments", "--k", "2", "--s", "-1500"]) == 1
    assert _one_line_error(capsys).endswith(
        "b_k(s, t) for k = 2 at s = -1500.0 is beyond the float range")


@pytest.mark.parametrize("K, s", [
    (16, "-80"), (16, "-84"),  # c_k(t) is inf, so each gap was NaN, which max() dropped: exit 0
    (12, "-109"), (12, "-118"), (12, "-119"),  # ... and at -119 e^{-ks/2} alone overflowed
    (8, "-170"), (8, "-177"), (8, "-178"), (8, "-190"),
    (3, "-468"), (3, "-473"), (3, "-474"), (3, "-703"),
    (1, "-1420"), (1, "-1e6"),  # c_1(t) = e^{-s/2}: Python's bare "math range error"
])
def test_pde_check_past_the_float_range(capsys, K, s):
    # never a pass on NaN gaps, nor a bare error: one line that names s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["pde-check", "--s", s, "--K", str(K)]) == 1
    assert _one_line_error(capsys).endswith(f"at s = {float(s)!r} are beyond the float range")


@pytest.mark.parametrize("K, s", [
    # one s per window where some e^{-ks/2} c_k term was subnormal and the
    # check failed on correct code (exit 2): K = 4, then K = 8, then K = 16
    (4, "358"), (4, "490"), (4, "746"),
    (8, "179"), (8, "213"), (8, "248"), (8, "296"), (8, "369"), (8, "490"), (8, "733"),
    (16, "90"), (16, "175"), (16, "205"),
    (8, "2000"), (1, "2000"),  # every term underflowed to 0, so the check passed on nothing
])
def test_pde_check_where_a_term_underflows(capsys, K, s):
    # a nonzero PDE term that is not a normal double: one line that names s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["pde-check", "--s", s, "--K", str(K)]) == 1
    assert _one_line_error(capsys).endswith(f"at s = {float(s)!r} are beyond the float range")


@pytest.mark.parametrize("argv, k, c", [
    (["--s", "700", "--t", "1", "--K", "3"], 3, "699.0"),  # e^{kc/2} alone overflows
    (["--s", "1e300", "--t", "0.8", "--K", "3"], 1, "1e+300"),
    (["--s", "460", "--t", "1", "--K", "16"], 3, "459.0"),  # e^{kc/2} a_13(kc) does
])
def test_gen_fn_weights_at_the_edge_of_the_float_range(capsys, argv, k, c):
    # refused by name, not with Python's bare "math range error" or a
    # residual that no JSON report can hold
    assert cli.main(["gen-fn-check", *argv]) == 1
    assert _one_line_error(capsys).endswith(
        f"for k = {k} at c = {c} are beyond the float range")


def test_non_finite_report_exits_1(capsys):
    # biane p_0 = 1 at any time, so only the report holds the infinity,
    # which JSON cannot
    assert cli.main(["biane", "--k", "0", "--s", "inf", "--t", "1"]) == 1
    assert "JSON" in _one_line_error(capsys)


@pytest.mark.parametrize("argv, what", [
    (["moments", "--k", "65", "--s", "1"], "k must be in 1..64"),
    (["intertwine-check", "--N", "2", "--trials", "0"], "--trials >= 1"),
    (["mc", "--f", "v1", "--N", "2", "--s", "1", "--threads", "0"], "threads must be >= 1"),
    (["mc", "--f", "v1", "--N", "2", "--s", "1", "--threads", "-3"], "threads must be >= 1"),
    (["intertwine-check", "--N", "2", "--degree", "-3", "--trials", "1"], "2 <= --degree <= 12"),
    (["intertwine-check", "--N", "2", "--degree", "1", "--trials", "1"], "2 <= --degree <= 12"),
    (["intertwine-check", "--N", "2", "--degree", "13", "--trials", "1"], "2 <= --degree <= 12"),
    (["heat-apply", "--gen", "DN", "--t", "1", "--f", "u"], "--gen DN requires --N"),
    (["heat-apply", "--gen", "DN", "--N", "0", "--t", "1", "--f", "u"],
     "N must be a positive integer, got 0"),
    (["norm", "--p", "u", "--measure", "rho", "--s", "1", "--N", "0"],
     "N must be a positive integer, got 0"),
    (["mc", "--f", "v1", "--N", "0", "--s", "1"], "N must be a positive integer, got 0"),
    (["norm", "--p", "u", "--measure", "mu", "--s", "1", "--N", "3"],
     "--measure mu requires a nonzero --t"),
    (["heat-apply", "--gen", "D", "--N", "5", "--t", "1", "--f", "u"], "--gen D takes no --N"),
])
def test_out_of_range_counts_exit_1_at_once(capsys, argv, what):
    # each is refused before any work: nu_65 does not exist, zero trials
    # would pass vacuously, a thread count below 1 is no count, below
    # degree 2 the drawn u-power alone exceeds --degree, D_N and the
    # measures need an N of at least 1, mu at t = 0 would be rho under
    # mu's name, and D has no N to echo
    t0 = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    assert what in _one_line_error(capsys)


def test_too_many_taylor_stages_exits_1(capsys):
    # |t| * ||D_4||_1 on the closure of u^6 would need 900,000 stages
    t0 = time.perf_counter()
    code = cli.main(["heat-apply", "--gen", "DN", "--N", "4", "--t", "1e5", "--f", "u^6"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "MAX_WORK" in _one_line_error(capsys)


def test_closure_search_is_bounded(capsys):
    # u^30 alone has a 23,025-monomial closure: refused before the search
    t0 = time.perf_counter()
    code = cli.main(["heat-apply", "--gen", "D", "--t", "1", "--f", "u^100000"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "trace degree 100000" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    # graded closures of D (4 and 19 monomials): the terminating sum
    ["heat-apply", "--gen", "D", "--t", "-4", "--f", "1e308*u^3"],
    ["transform", "--dir", "H", "--s", "1", "--t", "4", "--f", "1e307*u^6"],
    # D_4 is not graded: 4 monomials, 6 squarings, the dense kernel;
    # 846 monomials, the Taylor kernel
    ["heat-apply", "--gen", "DN", "--N", "4", "--t", "-4", "--f", "1e308*u^3"],
    ["heat-apply", "--gen", "DN", "--N", "4", "--t", "-4", "--f",
     "1e307 u^2 v3^2 v-4 + 1e307 v1^4 v-2^2 v4 - 1e307 v5 v-7"],
    # theta * A itself overflows, before either kernel
    ["heat-apply", "--gen", "DN", "--N", "4", "--t", "1e308", "--f", "u^3"],
])
def test_semigroup_overflow_exits_1(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    assert "overflow" in _one_line_error(capsys)


def test_too_much_taylor_work_exits_1(capsys):
    # 98,700 stages on an 8,661-nonzero closure: few stages, but each costly
    t0 = time.perf_counter()
    code = cli.main(["heat-apply", "--gen", "DN", "--N", "4", "--t", "4700", "--f",
                     "u^2 v3^2 v-4 + 2 v1^4 v-2^2 v4 - v5 v-7"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "MAX_WORK" in _one_line_error(capsys)


# ---------------------------------------------------------------- boundary sweep

_EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "5e-324"]
_SMALL_MC = ["--samples", "4", "--steps", "2", "--threads", "1"]
_RHO, _MU = {"--s": "1", "--t": "0"}, {"--s": "1.5", "--t": "0.8"}


@pytest.mark.parametrize("argv, floats", [
    (["heat-apply", "--gen", "D", "--f", "u^2"], {"--t": "0.7"}),
    (["heat-apply", "--gen", "DN", "--N", "2", "--f", "u^2"], {"--t": "0.7"}),
    (["transform", "--f", "u^2", "--dir", "G"], _MU),
    (["transform", "--f", "u^2", "--dir", "H"], _MU),
    (["biane", "--k", "3"], {"--s": "1", "--t": "1"}),
    (["moments", "--k", "3"], {"--s": "0.5"}),
    (["gen-fn-check"], {"--s": "1", "--t": "0.5"}),
    (["pde-check"], {"--s": "0.7"}),
    (["concentration", "--p", "v1", "--Ns", "2,3,4", "--mode", "symbolic"], _RHO),
    (["concentration", "--p", "v1", "--Ns", "2,3,4", "--mode", "symbolic"], _MU),
    (["concentration", "--p", "v1", "--Ns", "2,3,4", "--mode", "mc", *_SMALL_MC], _RHO),
    (["concentration", "--p", "v1", "--Ns", "2,3,4", "--mode", "mc", *_SMALL_MC], _MU),
    (["mc", "--f", "v1", "--N", "2", *_SMALL_MC], _RHO),
    (["mc", "--f", "v1", "--N", "2", *_SMALL_MC], _MU),
    (["norm", "--p", "u", "--measure", "rho", "--N", "2"], {"--s": "1"}),
    (["norm", "--p", "u", "--measure", "mu", "--N", "2"], _MU),
], ids=lambda x: " ".join(x) if isinstance(x, list) else ",".join(x.values()))
def test_float_options_at_the_edges(capsys, argv, floats):
    # each float option of each subcommand (verify-magic and intertwine-check
    # have none) set to every edge value, the others at their base value and
    # every work size small: an exit of 0 or 2 prints a JSON report and
    # nothing on stderr, an exit of 1 one error line that is not Python's bare
    # "math range error", and no warning escapes
    for opt in floats:
        for value in _EDGE_VALUES:
            case = argv + [x for o, base in floats.items()
                           for x in (o, value if o == opt else base)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(case)
            captured = capsys.readouterr()
            assert code in (0, 1, 2), case
            if code == 1:
                lines = captured.err.splitlines()
                assert captured.out == "" and len(lines) == 1, (case, captured.err)
                assert lines[0].startswith("freesb: error: "), case
                assert "math range error" not in lines[0], case
            else:
                json.loads(captured.out)
                assert captured.err == "", (case, captured.err)


_BIG = str(2**31)
_MC_N2 = ["--N", "2", "--s", "1", *_SMALL_MC]


def _check_exit(case, code, seconds, out, err):
    # exit 0 or 2: a JSON report and nothing on stderr; exit 1: one error
    # line within 0.1 s and nothing on stdout
    assert code in (0, 1, 2), case
    if code == 1:
        assert out == "" and len(err.splitlines()) == 1, (case, err)
        assert err.startswith("freesb: error: ") and seconds < 0.1, (case, err, seconds)
    else:
        json.loads(out)
        assert err == "", (case, err)


@pytest.mark.parametrize("argv, opt, values", [
    # 0, -1, each documented limit and one past it, 2**31
    (["moments", "--s", "0.5"], "--k", ["0", "-1", "64", "65", _BIG]),
    (["biane", "--s", "1", "--t", "1"], "--k", ["0", "-1", "12", "13", _BIG]),  # trace degree
    (["gen-fn-check", "--s", "1", "--t", "0.5"], "--K", ["0", "-1", "16", "17", _BIG]),
    (["pde-check", "--s", "0.7"], "--K", ["0", "-1", "16", "17", _BIG]),
    (["heat-apply", "--gen", "DN", "--t", "0.7", "--f", "u^2"], "--N", ["0", "-1", "1", _BIG]),
    (["norm", "--p", "u", "--measure", "rho", "--s", "1"], "--N", ["0", "-1", "1", _BIG]),
    (["mc", "--f", "v1", "--s", "1", *_SMALL_MC], "--N", ["0", "-1", "128", "129", _BIG]),
    (["intertwine-check", "--N", "2", "--trials", "1"], "--degree",
     ["0", "-1", "2", "12", "13", _BIG]),
    (["intertwine-check", "--N", "2", "--trials", "1"], "--seed", ["0", "-1", _BIG]),
    (["mc", "--f", "v1", *_MC_N2], "--seed", ["0", "-1", _BIG]),
    (["concentration", "--p", "v1", "--Ns", "2,3,4", "--mode", "mc", "--s", "1", *_SMALL_MC],
     "--seed", ["0", "-1", _BIG]),
    # work sizes: small values only
    (["mc", "--f", "v1", *_MC_N2], "--samples", ["0", "-1", "1", "2"]),
    (["concentration", "--p", "v1", "--Ns", "2,3,4", "--mode", "mc", "--s", "1", *_SMALL_MC],
     "--samples", ["0", "-1", "1", "2"]),
    (["intertwine-check", "--N", "2"], "--trials", ["0", "-1", "1", "2"]),
    (["mc", "--f", "v1", *_MC_N2], "--steps", ["0", "-1", "1", "2", "10001"]),
    (["mc", "--f", "v1", *_MC_N2], "--threads", ["0", "-1", "1", "2"]),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_integer_options_at_the_edges(capsys, argv, opt, values):
    # a repeated option takes its last value
    for value in values:
        case = [*argv, opt, value]
        t0 = time.perf_counter()
        code = cli.main(case)
        seconds = time.perf_counter() - t0
        _check_exit(case, code, seconds, *capsys.readouterr())


def test_negative_intertwine_seed_is_refused_by_name(capsys, monkeypatch):
    # numpy's default_rng takes no negative seed and its message names neither
    # --seed nor the bound; FREESB_SEED takes the same check
    argv = ["intertwine-check", "--N", "2", "--trials", "1", "--seed"]
    assert cli.main([*argv, "-1"]) == 1
    assert capsys.readouterr().err == \
        "freesb: error: intertwine-check requires --seed >= 0 (or FREESB_SEED), got -1\n"
    monkeypatch.setenv("FREESB_SEED", "-3")
    assert cli.main([*argv, "0"]) == 1
    assert capsys.readouterr().err.endswith("requires --seed >= 0 (or FREESB_SEED), got -3\n")


# an empty text, parse errors, a zero v exponent, a non-finite coefficient,
# exponents and indices far past the limit, trace degree 25 and 2,001 terms;
# semigroup inputs of trace degree 13 to 24 are left out: the closure budget
# refuses u^12 v12 only after 0.2-0.4 s of search (ROADMAP item 13)
_POLY_TEXTS = ["", "u^", "v0", "v1^0", "(1+i)", "(1+2i", "1e999", "nan", "u^99999999999",
               "v99999999999", "u^13 v12", " + ".join(["u"] * 2001)]
_U_POWERS = ["u", "u^13", "u^12 v12", "1e-320 u"]
_TWO_SAMPLES = ["--samples", "2", "--threads", "1"]


@pytest.mark.parametrize("argv, opt, more", [
    (["norm", "--measure", "rho", "--s", "1", "--N", "2"], "--p", []),
    (["concentration", "--Ns", "2,3,4", "--s", "1"], "--p", []),
    (["heat-apply", "--gen", "D", "--t", "0.7"], "--f", []),
    (["transform", "--s", "1.5", "--t", "0.8"], "--f", []),
    # a power of u too is refused before any sample, at the most steps and the largest N
    (["mc", "--N", "8", "--s", "1", "--steps", "10000", *_TWO_SAMPLES], "--f", _U_POWERS),
    (["mc", "--N", "128", "--s", "1", "--steps", "500", *_TWO_SAMPLES], "--f", _U_POWERS),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_polynomial_texts_at_the_edges(capsys, argv, opt, more):
    for text in _POLY_TEXTS + more:
        case = [*argv, opt, text]
        t0 = time.perf_counter()
        code = cli.main(case)
        seconds = time.perf_counter() - t0
        _check_exit(case, code, seconds, *capsys.readouterr())


def test_mc_refuses_a_non_polynomial_at_once():
    t0 = time.perf_counter()
    with pytest.raises(TypeError, match="mc_expectation needs a TracePoly or WordPoly, got ndarray"):
        matrixlab.mc_expectation(np.eye(2), matrixlab.SamplerCfg(N=2, s=1.0), 2)
    assert time.perf_counter() - t0 < 1e-3


def test_moment_order_rule_at_the_edges():
    # the library calls behind moments --k: one rule refuses k = 0 and 65
    # within 1 ms and computes k = 64, here at the s of the sweep above,
    # whose b_64 is cached; nu takes |k|, and nu_0 = 1 at any finite time
    cases = [(f, (k, 0.5), k) for f in (c_poly, b_poly, varrho) for k in (0, -1, 65)]
    cases += [(varrho_coeffs, (k,), k) for k in (0, -1, 65)]
    cases += [(nu, (k, 0.5), 65) for k in (65, -65)]
    for f, args, named in cases:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=rf"moment order k must be in 1\.\.64, got {named}$"):
            f(*args)
        assert time.perf_counter() - t0 < 1e-3, (f.__name__, args)
    assert len(c_poly(64, 0.5).coeffs) == len(b_poly(64, 0.5).coeffs) == len(varrho_coeffs(64))
    assert math.isfinite(varrho(64, 0.5)) and math.isfinite(nu(64, 0.5))
    assert nu(0, 0.5) == 1.0
    with pytest.raises(ValueError, match="non-finite time s=nan"):
        nu(0, math.nan)


_BASIS_RUNS = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from freesb import cli
rows = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    rows.append((argv, code, time.perf_counter() - t0, out.getvalue(), err.getvalue()))
print(json.dumps(rows))
"""


def test_explicit_basis_N_at_the_edges():
    # one child process under a 512 MiB address-space limit, so an N past
    # the bound that reached N x N work would fail there, not here; at
    # N = 3000 that work took 1 s and 433 MB before the bound was checked
    cases = [[*argv, "--N", N] for argv in (["verify-magic"], ["intertwine-check", "--trials", "1"])
             for N in ("0", "-1", "36", "37", "3000", _BIG)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _BASIS_RUNS, json.dumps(cases)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [row[0] for row in rows] == cases
    for row in rows:
        _check_exit(*row)
