"""Command-line interface: report schema, exit codes, determinism,
and the documented worked examples.

All tests drive main() in-process and parse the JSON report from
captured stdout.
"""

import json
import math
import time

import pytest

import freesb.cli as cli
import freesb.operators as operators
import freesb.words as words
from freesb import __version__
from freesb.matrixlab import RNG_NAME


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
    base = ("mc", "--f", "v1", "--N", "3", "--s", "1.0", "--steps", "10",
            "--samples", "200", "--seed", "3")
    _, r1 = run(capsys, *base, "--threads", "1")
    _, r4 = run(capsys, *base, "--threads", "4")
    assert r1["results"]["mean"] == r4["results"]["mean"]
    assert r1["results"]["stderr"] == r4["results"]["stderr"]


# ---------------------------------------------------------------- exit codes


def test_verification_failure_exits_2(capsys, monkeypatch):
    bad = {"m1": 1.0, "m2": 1.0, "m3": 1.0, "m4": 1.0, "max": 1.0,
           "pass": False}
    monkeypatch.setattr(cli, "verify_magic", lambda N: bad)
    code, rep = run(capsys, "verify-magic", "--N", "3")
    assert code == 2
    assert rep["results"]["pass"] is False


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


def test_nonconvergent_series_exits_1(capsys, monkeypatch):
    # the real exp_series with too few terms allowed per stage
    monkeypatch.setattr(operators, "MAX_TERMS", 2)
    code = cli.main(["heat-apply", "--gen", "D", "--t", "1.0", "--f", "u^3"])
    assert code == 1
    assert "did not converge" in _one_line_error(capsys)


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


@pytest.mark.parametrize("argv", [
    ["concentration", "--p", "v1", "--s", "1.0", "--Ns", "3,4,6"],
    ["mc", "--f", "v1", "--N", "3", "--s", "1.0", "--steps", "5", "--samples", "4"],
])
def test_unwritable_csv_exits_1(capsys, tmp_path, argv):
    # the rows are computed, then the file cannot be opened
    path = tmp_path / "no-such-dir" / "rows.csv"
    assert cli.main(argv + ["--csv", str(path)]) == 1
    assert "No such file" in _one_line_error(capsys)


def test_nonpositive_tol_exits_1(capsys):
    code = cli.main(["heat-apply", "--gen", "D", "--t", "1.0", "--f", "u^2",
                     "--tol", "-1"])
    assert code == 1
    assert "tol" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["norm", "--p", "u", "--measure", "rho", "--s", "nan", "--N", "3"],
    ["heat-apply", "--gen", "D", "--t", "nan", "--f", "1"],
    ["mc", "--f", "v1", "--N", "4", "--s", "nan"],
    ["mc", "--f", "v1", "--N", "4", "--s", "inf"],
    ["mc", "--f", "v1", "--N", "4", "--s", "1", "--t", "nan"],
    ["concentration", "--p", "u", "--s", "inf", "--mode", "mc", "--Ns", "2,3,4",
     "--steps", "5", "--samples", "4"],
])
def test_nan_time_exits_1(capsys, argv):
    # the first two results are exact constants (1) at any finite time; a
    # NaN time is still an error, not a generator that acts as zero.  The
    # samplers refuse NaN and infinite times rather than report NaN, or
    # zeros for u - pi(u) = 0
    assert cli.main(argv) == 1
    assert "non-finite" in _one_line_error(capsys)


def test_too_many_taylor_stages_exits_1(capsys):
    # |t| * ||D||_1 on the closure of u^6 would need 900,000 stages
    t0 = time.perf_counter()
    code = cli.main(["heat-apply", "--gen", "D", "--t", "1e5", "--f", "u^6"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "MAX_WORK" in _one_line_error(capsys)


def test_too_much_taylor_work_exits_1(capsys):
    # 98,700 stages on an 8,661-nonzero closure: few stages, but each costly
    t0 = time.perf_counter()
    code = cli.main(["heat-apply", "--gen", "DN", "--N", "4", "--t", "4700", "--f",
                     "u^2 v3^2 v-4 + 2 v1^4 v-2^2 v4 - v5 v-7"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "MAX_WORK" in _one_line_error(capsys)
