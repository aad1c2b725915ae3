"""Classical-oscillator comparison engine.

The trajectory and correlator are checked against independent numerics (an
RK4 integrator and direct quadrature of the accumulated drive phase written
inline here), the Gaussian averages against their closed forms, and the
Monte Carlo estimator against both.
"""

import math

import numpy as np
import pytest

from reference import classical_trajectory
from tc2q.analytic import coherence_integral
from tc2q.classical import (
    ClassicalThermal,
    DeltaDist,
    GaussianDist,
    classical_concurrence,
    minimum_uncertainty_widths,
    monte_carlo_classical_concurrence,
    s_plus_correlator,
)
from tc2q.model import Coherent, ModelParams, Thermal

P = ModelParams(omega=1.0, lambda_=0.1)


def concurrence(spec, t, params):
    """The quantum psi_plus concurrence |I(t)|."""
    return np.abs(coherence_integral(spec, t, params))


def equipartition_gaussian(k_T, params):
    """The centred Gaussian with the equipartition widths of temperature k_T."""
    return GaussianDist(0.0, 0.0, math.sqrt(2.0 * k_T) / params.omega,
                        math.sqrt(2.0 * k_T))


EXP_M064 = 0.5272924240430485   # exp(-0.64)


def rk4_trajectory(q0, p0, t_final, omega, n_steps=20000):
    """Reference integrator for qdot = p, pdot = -omega^2 q (unit mass)."""
    h = t_final / n_steps
    y = np.array([q0, p0], dtype=float)

    def deriv(y):
        return np.array([y[1], -omega ** 2 * y[0]])

    for _ in range(n_steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class TestDistributions:
    def test_gaussian_requires_positive_widths(self):
        with pytest.raises(ValueError):
            GaussianDist(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            GaussianDist(0.0, 0.0, 1.0, -1.0)

    def test_thermal_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            ClassicalThermal(0.0)

    def test_thermal_widths_closed_form(self):
        # at omega = 2 the widths (sqrt(6)/2, sqrt(6)) differ, so a swap shows
        p = ModelParams(omega=2.0, lambda_=0.1)
        gaussian = GaussianDist(0.0, 0.0, math.sqrt(6.0) / 2.0, math.sqrt(6.0))
        t = np.linspace(0.0, 9.0, 15)
        np.testing.assert_allclose(ClassicalThermal(3.0).concurrence(t, p),
                                   gaussian.concurrence(t, p), atol=1e-14)
        direct = monte_carlo_classical_concurrence(ClassicalThermal(3.0), t, p, 500, seed=2)
        via_widths = monte_carlo_classical_concurrence(gaussian, t, p, 500, seed=2)
        assert np.array_equal(direct[0], via_widths[0])
        assert np.array_equal(direct[1], via_widths[1])

    def test_minimum_uncertainty_widths_closed_form(self):
        p = ModelParams(omega=4.0, lambda_=0.1)
        dq, dp = minimum_uncertainty_widths(p)
        assert dq == pytest.approx(0.5)
        assert dp == pytest.approx(2.0)
        assert dq * dp == pytest.approx(1.0)  # hbar = 1

    def test_labels_are_the_artifact_tags(self):
        assert DeltaDist(0.0, 1.0).label == "deltadist"
        assert GaussianDist(0.0, 0.0, 1.0, 1.0).label == "gaussiandist"
        assert ClassicalThermal(2.5).label == "classical_thermal(k_T=2.5)"


class TestTrajectory:
    def test_matches_rk4_over_ten_periods(self):
        omega = 1.3
        p = ModelParams(omega=omega, lambda_=0.1)
        t_final = 10.0 * 2.0 * math.pi / omega
        q, pp = classical_trajectory(0.8, -0.5, t_final, p)
        q_ref, p_ref = rk4_trajectory(0.8, -0.5, t_final, omega)
        assert q == pytest.approx(q_ref, abs=1e-9)
        assert pp == pytest.approx(p_ref, abs=1e-9)

    def test_energy_is_conserved(self):
        t = np.linspace(0.0, 30.0, 200)
        q, p = classical_trajectory(1.0, 0.3, t, P)
        energy = 0.5 * p ** 2 + 0.5 * P.omega ** 2 * q ** 2
        np.testing.assert_allclose(energy, energy[0], rtol=1e-12)

    def test_initial_conditions(self):
        q, p = classical_trajectory(0.7, -1.1, 0.0, P)
        assert (q, p) == (0.7, -1.1)


class TestCorrelator:
    def test_modulus_is_one_half(self):
        t = np.linspace(0.0, 20.0, 50)
        z = s_plus_correlator(1.2, -0.4, t, P)
        np.testing.assert_allclose(np.abs(z), 0.5, atol=1e-14)

    def test_starts_at_minus_one_half(self):
        assert s_plus_correlator(0.3, 0.9, 0.0, P) == pytest.approx(-0.5 + 0j)

    def test_phase_is_the_accumulated_drive_quadrature(self):
        # independent route: the phase equals
        # -4 beta sqrt(2 omega / hbar) * integral_0^t p(tau) dtau
        q0, p0, t = 0.9, -0.6, 3.7
        tau = np.linspace(0.0, t, 200001)
        _, p_tau = classical_trajectory(q0, p0, tau, P)
        phase = (-4.0 * P.beta * math.sqrt(2.0 * P.omega)
                 * np.trapezoid(p_tau, tau))
        expected = -0.5 * np.exp(1j * phase)
        assert s_plus_correlator(q0, p0, t, P) == pytest.approx(
            expected, abs=1e-9)


class TestClosedFormAverages:
    def test_point_distribution_keeps_full_correlation(self):
        t = np.linspace(0.0, 15.0, 60)
        c = classical_concurrence(DeltaDist(2.0, -1.0), t, P)
        np.testing.assert_array_equal(c, np.ones_like(t))

    def test_gaussian_average_matches_direct_formula(self):
        dq, dp = 0.8, 1.7
        t = np.linspace(0.0, 12.0, 45)
        c = classical_concurrence(GaussianDist(0.4, -0.2, dq, dp), t, P)
        s2 = np.sin(t / 2.0) ** 2
        a = 8.0 * P.beta * math.sqrt(2.0 * P.omega) * s2
        b = -4.0 * P.beta * math.sqrt(2.0 / P.omega) * np.sin(t)
        expected = np.exp(-(a ** 2 * dq ** 2 + b ** 2 * dp ** 2) / 4.0)
        np.testing.assert_allclose(c, expected, atol=1e-14)

    def test_means_do_not_affect_the_average(self):
        t = np.linspace(0.0, 9.0, 30)
        centered = classical_concurrence(GaussianDist(0.0, 0.0, 1.0, 2.0), t, P)
        offset = classical_concurrence(GaussianDist(5.0, -3.0, 1.0, 2.0), t, P)
        np.testing.assert_array_equal(centered, offset)

    def test_minimum_uncertainty_reproduces_the_quantum_coherent_law(self):
        t = np.linspace(0.0, 4.0 * math.pi, 200)
        for omega in (0.7, 1.0, 2.5):
            p = ModelParams(omega=omega, lambda_=0.1 * omega)
            dq, dp = minimum_uncertainty_widths(p)
            c_cl = classical_concurrence(GaussianDist(0.0, 0.0, dq, dp), t, p)
            np.testing.assert_allclose(c_cl, concurrence(Coherent(0.0), t, p),
                                       atol=1e-12)

    def test_minimum_uncertainty_identity_is_hbar_independent(self):
        t = np.linspace(0.0, 10.0, 40)
        for hbar in (0.5, 1.0, 3.0):
            dq, dp = minimum_uncertainty_widths(P, hbar=hbar)
            c_cl = classical_concurrence(GaussianDist(0.0, 0.0, dq, dp), t, P,
                                         hbar=hbar)
            np.testing.assert_allclose(c_cl, concurrence(Coherent(0.0), t, P),
                                       atol=1e-12)


class TestThermalLaw:
    def test_factory_identity(self):
        t = np.linspace(0.0, 14.0, 55)
        direct = ClassicalThermal(2.5).concurrence(t, P)
        via_widths = classical_concurrence(equipartition_gaussian(2.5, P), t, P)
        np.testing.assert_allclose(direct, via_widths, atol=1e-14)
        np.testing.assert_array_equal(classical_concurrence(ClassicalThermal(2.5), t, P),
                                      direct)

    def test_half_period_reference_value(self):
        assert ClassicalThermal(1.0).concurrence(math.pi, P) == pytest.approx(
            EXP_M064, abs=1e-15)

    def test_decay_exponent_approaches_the_quantum_one_at_high_temperature(self):
        # at k_T / (hbar omega) = n the exponent ratio is 2n / (1 + 2n)
        t = 2.3
        prev_gap = None
        for n in (5.0, 50.0, 500.0):
            log_cl = math.log(ClassicalThermal(n).concurrence(t, P))
            log_q = math.log(concurrence(Thermal(n), t, P))
            gap = abs(log_cl - log_q) / abs(log_q)
            assert gap == pytest.approx(1.0 / (1.0 + 2.0 * n), rel=1e-10)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        dist = ClassicalThermal(1.0)
        a = monte_carlo_classical_concurrence(dist, 2.0, P, 5000, seed=42)
        b = monte_carlo_classical_concurrence(dist, 2.0, P, 5000, seed=42)
        assert a == b
        assert all(type(x) is float for x in a)  # a scalar t gives two floats

    @pytest.mark.parametrize("dist", [GaussianDist(0.4, -0.2, 0.9, 1.3),
                                      ClassicalThermal(1.7)])
    def test_time_array_equals_per_point_calls(self, dist):
        t = np.linspace(0.0, 12.0, 25)
        value, err = monte_carlo_classical_concurrence(dist, t, P, 3000, seed=5)
        points = [monte_carlo_classical_concurrence(dist, float(x), P, 3000, seed=5)
                  for x in t]
        assert np.array_equal(value, [p[0] for p in points])
        assert np.array_equal(err, [p[1] for p in points])

    def test_thermal_ensemble_samples_its_equipartition_gaussian(self):
        t = np.linspace(0.0, 9.0, 15)
        direct = monte_carlo_classical_concurrence(ClassicalThermal(2.5), t, P, 2000, seed=7)
        via_widths = monte_carlo_classical_concurrence(
            equipartition_gaussian(2.5, P), t, P, 2000, seed=7)
        assert np.array_equal(direct[0], via_widths[0])
        assert np.array_equal(direct[1], via_widths[1])

    def test_point_distribution_is_exact(self):
        value, err = monte_carlo_classical_concurrence(
            DeltaDist(1.0, 2.0), 1.5, P, 100, seed=0)
        assert (value, err) == (1.0, 0.0)
        value, err = monte_carlo_classical_concurrence(
            DeltaDist(1.0, 2.0), np.linspace(0.0, 5.0, 6), P, 100, seed=0)
        assert value.shape == err.shape == (6,)
        np.testing.assert_array_equal(value, np.ones(6))
        np.testing.assert_array_equal(err, np.zeros(6))

    def test_matches_closed_form_within_errorbars(self):
        dist = ClassicalThermal(1.0)
        target = ClassicalThermal(1.0).concurrence(math.pi, P)
        value, err = monte_carlo_classical_concurrence(
            dist, math.pi, P, 100000, seed=3)
        assert err > 0.0
        assert abs(value - target) <= 3.0 * err

    def test_error_shrinks_with_sample_size(self):
        dist = ClassicalThermal(1.0)
        _, err_small = monte_carlo_classical_concurrence(dist, 2.0, P, 200,
                                                         seed=1)
        _, err_big = monte_carlo_classical_concurrence(dist, 2.0, P, 80000,
                                                       seed=1)
        assert err_big < err_small / 5.0

    def test_rejects_degenerate_sample_counts(self):
        with pytest.raises(ValueError):
            monte_carlo_classical_concurrence(DeltaDist(0.0, 0.0), 1.0, P, 1,
                                              seed=0)
