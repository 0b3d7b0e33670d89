"""The public surface: the names ``freesb`` exports and the CLI's
subcommands.  Refactors must leave both unchanged."""

import argparse
import inspect

import freesb
from freesb import cli

PUBLIC = [
    "TracePoly", "format_poly", "parse",
    "GeneratorSpec", "apply_D", "apply_DN", "exp_apply", "operator_matrix",
    "b_poly", "c_poly", "catalan", "nu", "pi_eval", "varrho",
    "G", "H", "Pi_series", "biane", "pde_residual", "verify_gen_fn",
    "Measure", "WordPoly", "canonicalize", "expectation", "iota", "iota_star",
    "l2_norm_sq", "sesq_B",
    "SamplerCfg", "basis_uN", "concentration_experiment", "evaluate",
    "evaluate_word", "expm", "laplacian_eval", "mc_expectation",
    "sample_mu", "sample_rho", "verify_magic", "zero_test",
    "__version__",
]

SUBCOMMANDS = {"heat-apply", "transform", "biane", "moments", "gen-fn-check",
               "pde-check", "verify-magic", "intertwine-check", "concentration",
               "mc", "norm"}


def test_all_is_pinned():
    assert freesb.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(freesb, name), name


def test_command_table_matches_parser():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == SUBCOMMANDS
    for name, p in sub.choices.items():
        assert callable(p.get_default("body")), name


def test_semigroups_take_no_tol():
    # the Taylor kernel's stop rule is the constant operators.TAYLOR_TOL
    for fn in (freesb.exp_apply, freesb.G, freesb.H):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
