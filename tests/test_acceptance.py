"""End-to-end acceptance gate.

Eleven go/no-go checks covering the closed forms, the Fock-space oracle,
their agreement, the classical comparison and the CLI surface.  Each test
emits a single machine-scannable PASS/FAIL line, bypassing pytest's capture
so the verdicts appear in plain terminal output.
"""

import json
import math
import time

import numpy as np
from scipy.special import eval_laguerre

from reference import (
    coherence_integral_fock_sum,
    dense_hamiltonian,
    oracle_reduced_density,
    two_route_tolerance,
)
from tc2q import cli
from tc2q.analytic import coherence_integral
from tc2q.classical import (
    ClassicalThermal,
    GaussianDist,
    classical_concurrence,
    minimum_uncertainty_widths,
    monte_carlo_classical_concurrence,
)
from tc2q.model import Coherent, Fock, ModelParams, Thermal, bell_vector
from tc2q.oracle import choose_dim, oracle_concurrence_series

SPEC_SET = (Thermal(0.5), Thermal(1.0), Thermal(2.0),
            Coherent(0.0), Coherent(1.0), Coherent(2j),
            Fock(0), Fock(1), Fock(2), Fock(5))


def concurrence(spec, t, params):
    """The psi_plus concurrence |I(t)|."""
    return np.abs(coherence_integral(spec, t, params))


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_analytic_oracle_equivalence(capsys):
    # C = |I| and I = u + iv itself, so that the sign and the phase of I are gated
    t = np.linspace(0.0, 4.0 * math.pi, 200)
    tolerance = two_route_tolerance(1.0, t)
    worst_diff, worst_coherence, worst_time = 0.0, 0.0, 0.0
    for beta in (0.05, 0.1):
        params = ModelParams(omega=1.0, lambda_=beta)
        for spec in SPEC_SET:
            start = time.perf_counter()
            series = oracle_concurrence_series("psi_plus", spec, t, params)
            elapsed = time.perf_counter() - start
            i_t = coherence_integral(spec, t, params)
            worst_diff = max(worst_diff,
                             float(np.abs(series.concurrence - np.abs(i_t)).max()))
            worst_coherence = max(worst_coherence,
                                  float(np.abs(series.u + 1j * series.v - i_t).max()))
            worst_time = max(worst_time, elapsed)
    ok = max(worst_diff, worst_coherence) <= tolerance and worst_time < 10.0
    report(capsys, 1, ok,
           f"analytic-oracle equivalence: max |dC| = {worst_diff:.3e}, max |dI| = "
           f"{worst_coherence:.3e} (<= {tolerance:.2e}), slowest case {worst_time:.2f} s "
           f"(< 10 s)")
    assert ok


def test_criterion_02_thermal_minimum_and_period(capsys):
    beta, mean_n = 0.1, 2.0
    params = ModelParams(omega=1.0, lambda_=beta)
    target = math.exp(-32.0 * beta ** 2 * (1.0 + 2.0 * mean_n))  # 0.201897
    # the half-period point is the curve minimum
    grid = np.linspace(0.0, 2.0 * math.pi, 201)  # contains pi exactly
    curve = concurrence(Thermal(mean_n), grid, params)
    analytic_err = abs(concurrence(Thermal(mean_n), math.pi, params) - target)
    min_err = abs(curve.min() - target)
    series = oracle_concurrence_series("psi_plus", Thermal(mean_n),
                                       np.array([math.pi]), params)
    oracle_err = abs(series.concurrence[0] - target)
    oracle_tolerance = two_route_tolerance(1.0, math.pi)
    shift = np.abs(concurrence(Thermal(mean_n), grid + 2.0 * math.pi, params)
                   - curve).max()
    ok = (analytic_err <= 1e-12 and min_err <= 1e-12
          and oracle_err <= oracle_tolerance and shift <= 1e-12)
    report(capsys, 2, ok,
           f"thermal minimum {target:.6f}: analytic err {analytic_err:.1e} "
           f"(<= 1e-12), oracle err {oracle_err:.1e} (<= {oracle_tolerance:.1e}), "
           f"period defect {shift:.1e} (<= 1e-12)")
    assert ok


def test_criterion_03_coherent_curves_and_amplitude_independence(capsys):
    t = np.linspace(0.0, 4.0 * math.pi, 100)
    amplitudes = (0.0, 1.0, 2j)
    worst_formula, worst_spread = 0.0, 0.0
    for beta in (0.05, 0.1, 0.2):
        params = ModelParams(omega=1.0, lambda_=beta)
        formula = np.exp(-32.0 * beta ** 2 * np.sin(t / 2.0) ** 2)
        worst_formula = max(worst_formula, float(np.abs(
            concurrence(Coherent(0.0), t, params) - formula).max()))
        curves = [oracle_concurrence_series("psi_plus", Coherent(a), t,
                                            params).concurrence
                  for a in amplitudes]
        stack = np.vstack(curves)
        worst_spread = max(worst_spread,
                           float((stack.max(axis=0) - stack.min(axis=0)).max()))
    tolerance = two_route_tolerance(1.0, t)
    ok = worst_formula <= 1e-12 and worst_spread <= tolerance
    report(capsys, 3, ok,
           f"coherent curves: formula err {worst_formula:.1e}, oracle spread "
           f"across amplitudes {worst_spread:.3e} (<= {tolerance:.2e})")
    assert ok


def test_criterion_04_number_state_zero_crossing(capsys):
    # node where 64 beta^2 sin^2(wt/2) = 1, reachable only for beta >= 1/8
    at_eighth = concurrence(Fock(1), math.pi, ModelParams(omega=1.0, lambda_=0.125))
    beta = 0.2
    node_t = 2.0 * math.asin(1.0 / (8.0 * beta))
    at_node = concurrence(Fock(1), node_t, ModelParams(omega=1.0, lambda_=beta))
    below = concurrence(Fock(1), np.linspace(0.0, 2.0 * math.pi, 301),
                        ModelParams(omega=1.0, lambda_=0.1))
    ok = at_eighth <= 1e-10 and at_node <= 1e-10 and below.min() > 0.0
    report(capsys, 4, ok,
           f"one-photon node: C(pi)|beta=1/8 = {at_eighth:.1e}, "
           f"C(node)|beta=0.2 = {at_node:.1e} (<= 1e-10), "
           f"no node below threshold (min C = {below.min():.3f})")
    assert ok


def test_criterion_05_half_period_sweep(capsys):
    betas = np.linspace(0.0, 0.3, 61)
    worst = 0.0
    for beta in betas:
        x = 32.0 * beta ** 2
        cases = [
            (Thermal(1.0), math.exp(-3.0 * x)),
            (Coherent(1.0), math.exp(-x)),
            (Fock(1), abs(1.0 - 2.0 * x) * math.exp(-x)),
            (Fock(2), abs(eval_laguerre(2, 2.0 * x)) * math.exp(-x)),
            (Fock(5), abs(eval_laguerre(5, 2.0 * x)) * math.exp(-x)),
        ]
        for spec, expected in cases:
            worst = max(worst,
                        abs(abs(spec.coherence(math.pi, float(beta))) - expected))
    ok = worst <= 1e-12
    report(capsys, 5, ok,
           f"half-period sweep over 61 couplings: max err {worst:.1e} (<= 1e-12)")
    assert ok


def test_criterion_06_stationary_bell_states(capsys):
    t = np.linspace(0.0, 4.0 * math.pi, 40)
    params = ModelParams(omega=1.0, lambda_=0.1)
    worst = 0.0
    for spec in SPEC_SET:
        for kind in ("psi_minus", "phi_minus"):
            series = oracle_concurrence_series(kind, spec, t, params)
            worst = max(worst, float(np.abs(series.concurrence - 1.0).max()))
    ok = worst <= 1e-8
    report(capsys, 6, ok,
           f"stationary Bell states: max |C - 1| = {worst:.3e} (<= 1e-08) "
           f"across {len(SPEC_SET)} oscillator specs")
    assert ok


def test_criterion_07_local_unitary_pair(capsys):
    t = np.linspace(0.0, 4.0 * math.pi, 100)
    params = ModelParams(omega=1.0, lambda_=0.1)
    worst = 0.0
    for spec in SPEC_SET:
        a = oracle_concurrence_series("psi_plus", spec, t, params).concurrence
        b = oracle_concurrence_series("phi_plus", spec, t, params).concurrence
        worst = max(worst, float(np.abs(a - b).max()))
    ok = worst <= 1e-10
    report(capsys, 7, ok,
           f"local-unitary pair: max pointwise gap {worst:.3e} (<= 1e-10)")
    assert ok


def test_criterion_08_binomial_sum_identity(capsys):
    t = np.linspace(0.05, 4.0 * math.pi, 64)
    params = ModelParams(omega=1.0, lambda_=0.1)
    worst = 0.0
    for n in range(21):
        closed = coherence_integral(Fock(n), t, params).real
        for ti, ci in zip(t, closed):
            exact = coherence_integral_fock_sum(n, float(ti), params).real
            worst = max(worst, abs(ci - exact) / max(abs(exact), 1e-15))
    ok = worst <= 1e-10
    report(capsys, 8, ok,
           f"closed form vs exact binomial sum, N <= 20 at 64 points: "
           f"max rel err {worst:.3e} (<= 1e-10)")
    assert ok


def test_criterion_09_spectrum_command(capsys, tmp_path):
    out = tmp_path / "spectrum.json"
    cfg = {
        "version": 1,
        "engine": "oracle",
        "params": {"omega": 1.0, "lambda": 0.1},
        "oracle": {"dim": 60},
        "output": {"path": str(out), "format": "json"},
    }
    cfg_path = tmp_path / "spectrum_cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["spectrum", "--config", str(cfg_path)])
    result = json.loads(out.read_text())
    ok = (code == 0 and result["passed"]
          and result["checked_levels"] == 40
          and result["max_abs_diff_checked"] <= 1e-8)
    report(capsys, 9, ok,
           f"spectrum command: exit {code}, lowest {result['checked_levels']} "
           f"levels off by {result['max_abs_diff_checked']:.3e} (<= 1e-08)")
    assert ok


def test_criterion_10_classical_quantum_identities(capsys):
    params = ModelParams(omega=1.0, lambda_=0.1)
    t = np.linspace(0.0, 4.0 * math.pi, 200)

    dq, dp = minimum_uncertainty_widths(params)
    gap_min = float(np.abs(
        classical_concurrence(GaussianDist(0.0, 0.0, dq, dp), t, params)
        - concurrence(Coherent(0.0), t, params)).max())

    # thermal correspondence on the decay-exponent scale, where the gap is
    # 1/(1 + 2 kT / (hbar omega)) independent of coupling and time
    probe = 2.3
    gaps = []
    for k_T in (5.0, 50.0, 500.0):
        log_cl = math.log(ClassicalThermal(k_T).concurrence(probe, params))
        log_q = math.log(concurrence(Thermal(k_T), probe, params))
        gaps.append(abs(log_cl - log_q) / abs(log_q))
    thermal_ok = gaps[1] <= 0.01 and gaps[0] > gaps[1] > gaps[2]

    dist = ClassicalThermal(1.0)
    target = ClassicalThermal(1.0).concurrence(math.pi, params)
    hits = 0
    for seed in range(30):
        value, err = monte_carlo_classical_concurrence(
            dist, math.pi, params, 100000, seed=seed)
        if abs(value - target) <= 3.0 * err:
            hits += 1

    ok = gap_min <= 1e-12 and thermal_ok and hits >= 29  # 95% of 30
    report(capsys, 10, ok,
           f"classical-quantum: min-uncertainty gap {gap_min:.1e} (<= 1e-12), "
           f"thermal exponent deviation {gaps[1]:.4f} at kT = 50 (<= 0.01, "
           f"decreasing), Monte Carlo {hits}/30 seeds within 3 SE (>= 29)")
    assert ok


def test_criterion_11_property_suite(capsys):
    rng = np.random.default_rng(801)
    period_ok = bounds_ok = density_ok = energy_ok = True
    trunc_ok = True
    for draw in range(6):
        beta = float(rng.uniform(0.01, 0.3))
        omega = float(rng.uniform(0.5, 2.0))
        params = ModelParams(omega=omega, lambda_=beta * omega)
        spec = [Thermal(float(rng.uniform(0.0, 3.0))),
                Coherent(complex(*rng.normal(size=2) * 0.7)),
                Fock(int(rng.integers(0, 9)))][draw % 3]
        period = 2.0 * math.pi / omega
        t = np.sort(rng.uniform(0.0, 2.0 * period, size=16))

        c = np.abs(coherence_integral(spec, t, params))
        period_ok &= bool(np.abs(
            c - np.abs(coherence_integral(spec, t + period, params))).max()
            <= 1e-12)
        bounds_ok &= bool((c >= 0.0).all() and (c <= 1.0).all())

        dim = choose_dim(spec, params)
        series = oracle_concurrence_series("psi_plus", spec, t, params, dim=dim)
        bounds_ok &= bool((series.concurrence >= 0.0).all()
                          and (series.concurrence <= 1.0).all())

        rho = oracle_reduced_density("psi_plus", spec, float(t[-1]), params,
                                     dim=dim)  # validates on construction
        eig = np.linalg.eigvalsh(rho.matrix)
        density_ok &= bool(abs(np.trace(rho.matrix).real - 1.0) <= 1e-10
                           and eig.min() >= -1e-10)

        # energy sum_k w_k <psi_k(t)|H|psi_k(t)> over the weighted pure columns
        h = dense_hamiltonian(params, dim)
        weights, columns = spec.fock_columns(dim)
        psi0 = np.kron(bell_vector("psi_plus")[:, None], columns)
        e0 = float(np.einsum("ik,ik,k->", psi0.conj(), h @ psi0, weights).real)
        energies, modes = np.linalg.eigh(h)
        coeff = modes.conj().T @ psi0
        for ti in t[:4]:
            psi = modes @ (np.exp(-1j * energies * float(ti))[:, None] * coeff)
            e_t = float(np.einsum("ik,ik,k->", psi.conj(), h @ psi, weights).real)
            energy_ok &= bool(abs(e_t - e0) <= 1e-10 * max(1.0, abs(e0)))

        if draw < 3:
            target = np.abs(coherence_integral(spec, t, params))
            errs = []
            for d in (dim, 2 * dim):
                run = oracle_concurrence_series("psi_plus", spec, t, params,
                                                dim=d)
                errs.append(float(np.abs(run.concurrence - target).max()))
            trunc_ok &= bool(errs[1] <= max(1.1 * errs[0], 1e-12))

    ok = period_ok and bounds_ok and density_ok and energy_ok and trunc_ok
    report(capsys, 11, ok,
           f"property suite: periodicity {period_ok}, bounds {bounds_ok}, "
           f"density validity {density_ok}, energy conservation {energy_ok}, "
           f"truncation monotonicity {trunc_ok}")
    assert ok
