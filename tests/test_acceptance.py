"""Acceptance gate: twelve end-to-end criteria with pinned tolerances
and runtime budgets.

Each test prints exactly one PASS/FAIL line (bypassing capture) so a
full run yields a twelve-line scorecard.
"""

import math
import time

import numpy as np

from freesb.tracepoly import TracePoly, parse
from freesb.operators import GeneratorSpec, apply_D, apply_DN, exp_apply
from freesb.moments import c_poly, nu, pi_eval, pi_via_semigroup, varrho
from freesb.transform import G, H, Pi_series, verify_gen_fn
from freesb.words import Measure, expectation, iota, iota_star, l2_norm_sq
from freesb.matrixlab import (SamplerCfg, evaluate, laplacian_eval, mc_expectation,
                              verify_magic, zero_test)

u = TracePoly.u
v = TracePoly.v


def _line(capsys, tag, ok, detail=""):
    msg = f"{tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        msg += f"  [{detail}]"
    with capsys.disabled():
        print(msg, flush=True)
    assert ok, msg


def _rand_poly(rng, deg=5, nterms=3):
    terms = {}
    for _ in range(nterms):
        budget = deg
        k0 = int(rng.integers(-2, 3))
        budget -= abs(k0)
        ve = {}
        while budget > 0 and rng.random() < 0.75:
            j = int(rng.integers(-budget, budget + 1))
            if j == 0:
                continue
            ve[j] = ve.get(j, 0) + 1
            budget -= abs(j)
        terms[(k0, tuple(sorted(ve.items())))] = complex(rng.normal(), rng.normal())
    return TracePoly(terms)


def test_ac1_magic_formulas(capsys):
    t0 = time.perf_counter()
    worst = max(verify_magic(N)["max"] for N in (2, 3, 5, 8))
    dt = time.perf_counter() - t0
    _line(capsys, "AC-1 magic formulas", worst < 1e-11 and dt < 1.0,
          f"max {worst:.2e}, {dt:.2f}s")


def test_ac2_laplacian_intertwines(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for N in (3, 6):
        U = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))[0]
        for _ in range(20):
            p = _rand_poly(rng)
            gap = np.max(np.abs(laplacian_eval(p, U, N) - evaluate(apply_DN(p, N), U)))
            worst = max(worst, float(gap))
    dt = time.perf_counter() - t0
    _line(capsys, "AC-2 Laplacian vs apply_DN", worst < 1e-8 and dt < 30.0,
          f"max {worst:.2e}, {dt:.2f}s")


def test_ac3_heat_on_u_squared(capsys):
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for t, N in ((0.7, 4), (1.3, 9)):
        got = exp_apply(GeneratorSpec.DN(N), t / 2.0, u(2))
        want = (math.exp(-t) * math.cosh(t / N)) * u(2) \
            - (N * math.exp(-t) * math.sinh(t / N)) * (u(1) * v(1))
        ok = ok and got.allclose(want, rel=1e-10)
        worst = max(worst, (got - want).coeff_max())
    dt = time.perf_counter() - t0
    _line(capsys, "AC-3 heat semigroup on u^2", ok and dt < 1.0,
          f"max {worst:.2e}, {dt:.2f}s")


def test_ac4_product_rule_and_tracing_commutator(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    L = GeneratorSpec((("L", 1.0),))
    worst = 0.0
    for _ in range(50):
        P = _rand_poly(rng, deg=4)
        Q = _rand_poly(rng, deg=3)
        Q = TracePoly({(0, ve): c for (k0, ve), c in Q.terms.items()})  # u-free
        r1 = apply_D(P * Q) - (apply_D(P) * Q + P * apply_D(Q))
        r2 = apply_D(P).tracing_map() - apply_D(P.tracing_map())
        r3 = L.apply(P).tracing_map() - L.apply(P.tracing_map())
        for r in (r1, r2, r3):
            worst = max(worst, r.coeff_max())
    dt = time.perf_counter() - t0
    _line(capsys, "AC-4 product rule and [T,.] = 0", worst < 1e-12 and dt < 5.0,
          f"max {worst:.2e}, {dt:.2f}s")


def test_ac5_generating_function(capsys, s_eq_t_series):
    t0 = time.perf_counter()
    worst = max(verify_gen_fn(s, t, K=8)
                for s, t in ((1.0, 1.0), (1.5, 0.8), (0.9, 1.2)))
    dt = time.perf_counter() - t0
    if not (worst < 1e-8 and dt < 5.0):  # checked even where the s=t oracle skips
        _line(capsys, "AC-5 generating function", False, f"residual {worst:.2e}, {dt:.2f}s")
    # at s=t the series must match an exact expansion of the right side,
    # which sympy builds before the clock restarts
    K = 8
    want = s_eq_t_series(1, K)
    t0 = time.perf_counter()
    lhs = Pi_series(1.0, 1.0, K)
    direct = max((lhs.coeffs[k] - want[k]).coeff_max() for k in range(1, K + 1))
    dt += time.perf_counter() - t0
    _line(capsys, "AC-5 generating function",
          worst < 1e-8 and direct < 1e-9 and dt < 5.0,
          f"residual {worst:.2e}, s=t {direct:.2e}, {dt:.2f}s")


def test_ac6_recursions_vs_closed_forms(capsys):
    t0 = time.perf_counter()
    worst_c = 0.0
    for k in range(1, 11):
        for s in (0.5, 1.0, 2.0):
            cp = c_poly(k, s)
            for t in (0.2, 0.9, 1.8):
                want = math.exp(-k * t / 2.0) * nu(k, s - t)
                rel = abs(cp.eval(t) - want) / max(1e-300, abs(want))
                worst_c = max(worst_c, rel)
    worst_r = 0.0
    for k in range(1, 11):
        for t in np.linspace(-2.0, 2.0, 9):
            want = math.exp(k * t / 2.0) * nu(k, float(t))
            rel = abs(varrho(k, float(t)) - want) / max(1e-300, abs(want))
            worst_r = max(worst_r, rel)
    dt = time.perf_counter() - t0
    _line(capsys, "AC-6 moment recursions vs closed forms",
          worst_c < 1e-9 and worst_r < 1e-9 and dt < 1.0,
          f"c {worst_c:.2e}, varrho {worst_r:.2e}, {dt:.2f}s")


def test_ac7_transform_rate(capsys):
    t0 = time.perf_counter()
    s, t = 1.5, 0.8
    f = u(2)
    g = G(f, s, t)
    Ns = [4, 8, 16, 32]
    ok = True
    detail = []
    for direction in ("forward", "inverse"):
        vals = []
        for N in Ns:
            if direction == "forward":
                dev = exp_apply(GeneratorSpec.DN(N), t / 2.0, f) - g
                val = l2_norm_sq(dev, Measure.mu(s, t, N))
            else:
                dev = exp_apply(GeneratorSpec.DN(N), -t / 2.0, g) - H(g, s, t)
                val = l2_norm_sq(dev, Measure.rho(s, N))
            vals.append(val)
        slope = float(np.polyfit(np.log(Ns), np.log(vals), 1)[0])
        scaled = [N * N * val for N, val in zip(Ns, vals)]
        bounded = max(scaled) < 2.0 * min(scaled)
        ok = ok and -2.2 < slope < -1.8 and bounded
        detail.append(f"{direction} slope {slope:.3f}")
    dt = time.perf_counter() - t0
    _line(capsys, "AC-7 O(1/N^2) transform rate", ok and dt < 60.0,
          ", ".join(detail) + f", {dt:.2f}s")


def test_ac8_variance_concentration(capsys):
    t0 = time.perf_counter()
    Ns = [4, 8, 16, 32]
    ok = True
    detail = []
    for k in (1, 2, 3):
        obs = iota(v(k)) * iota_star(v(k))
        vals = []
        for N in Ns:
            m2 = expectation(obs, 1.0, 0.0, N)
            m1 = expectation(iota(v(k)), 1.0, 0.0, N)
            vals.append((m2 - abs(m1) ** 2).real)
        slope = float(np.polyfit(np.log(Ns), np.log(vals), 1)[0])
        ok = ok and -2.2 < slope < -1.8
        detail.append(f"k={k} slope {slope:.3f}")
    dt = time.perf_counter() - t0
    _line(capsys, "AC-8 trace variance concentration", ok and dt < 60.0,
          ", ".join(detail) + f", {dt:.2f}s")


def test_ac9_inverse_pair(capsys):
    t0 = time.perf_counter()
    s, t = 1.5, 0.8
    worst = 0.0
    for k in list(range(-6, 0)) + list(range(1, 7)):
        f = u(k)
        worst = max(worst, (H(G(f, s, t), s, t) - f).coeff_max())
        worst = max(worst, (G(H(f, s, t), s, t) - f).coeff_max())
    dt = time.perf_counter() - t0
    _line(capsys, "AC-9 transform inverse pair", worst < 1e-9 and dt < 5.0,
          f"max {worst:.2e}, {dt:.2f}s")


def test_ac10_monte_carlo_cross_validation(capsys):
    t0 = time.perf_counter()
    mean_u, se_u = mc_expectation(v(1), SamplerCfg(N=8, s=1.0, steps=200, seed=1),
                                  4000)
    gap_u = abs(mean_u - math.exp(-0.5))
    mean_z, se_z = mc_expectation(v(1), SamplerCfg(N=8, s=1.5, t=0.8,
                                                   steps=200, seed=1), 4000)
    gap_z = abs(mean_z - math.exp(-0.35))
    ok = gap_u < 3 * se_u + 0.002 and gap_z < 3 * se_z + 0.002
    dt = time.perf_counter() - t0
    _line(capsys, "AC-10 Monte Carlo cross-validation", ok and dt < 120.0,
          f"rho gap {gap_u:.2e} vs {3 * se_u + 0.002:.2e}, "
          f"mu gap {gap_z:.2e} vs {3 * se_z + 0.002:.2e}, {dt:.1f}s")


def test_ac11_degeneracy_pair(capsys, equivariance_check):
    t0 = time.perf_counter()
    p = parse("u^2 - 2 u v1 + 2 v1^2 - v2")  # vanishes on U_2, not on U_3
    z2 = zero_test(p, 2)
    z3 = zero_test(p, 3)
    eq = max(equivariance_check(p, N, seed=3) for N in (2, 4))
    ok = z2 < 1e-12 and eq < 1e-10 and z3 > 1e-3
    dt = time.perf_counter() - t0
    _line(capsys, "AC-11 dimension-dependent degeneracy", ok and dt < 5.0,
          f"N=2 {z2:.2e}, N=3 {z3:.2e}, equiv {eq:.2e}, {dt:.2f}s")


def test_ac12_pi_routes_agree(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        p = _rand_poly(rng)
        for s in (0.5, 2.0):
            worst = max(worst, (pi_eval(p, s) - pi_via_semigroup(p, s)).coeff_max())
    dt = time.perf_counter() - t0
    _line(capsys, "AC-12 evaluation map routes", worst < 1e-10 and dt < 5.0,
          f"max {worst:.2e}, {dt:.2f}s")
