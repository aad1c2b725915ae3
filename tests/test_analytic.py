"""Closed-form engine: overlap integral and concurrence laws.

Derived quantities are checked against independent routes: scipy's Laguerre
evaluator, direct 2-d quadrature of the phase-space average, and the branch
evolution, Fourier route and exact rational-arithmetic binomial sum of
``reference``.
"""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import eval_laguerre

from reference import (
    bell_state,
    coherence_integral_fock_sum,
    concurrence_general,
    evolve_product_state,
    fourier_arguments,
    p_tilde_coherent,
    p_tilde_fock,
    p_tilde_thermal,
    reduced_qubit_density_psi_plus,
)
from tc2q.analytic import coherence_integral
from tc2q.model import (
    JM_FROM_EG,
    Coherent,
    ExplicitDensity,
    Fock,
    ModelParams,
    Thermal,
    _scaled_laguerre,
    f_phase,
)

P = ModelParams(omega=1.0, lambda_=0.1)


def concurrence(spec, t, params):
    """The psi_plus concurrence |I(t)|."""
    return np.abs(coherence_integral(spec, t, params))


def half_period(spec, beta):
    """|I| at omega t = pi, a function of beta alone."""
    return abs(spec.coherence(math.pi, beta))


RNG = np.random.default_rng(7041)

# frozen reference values (20+ digit evaluation of the closed forms)
EXP_M032 = 0.7261490370736909      # exp(-0.32)
EXP_M096 = 0.3828928859751122      # exp(-0.96)
EXP_M16 = 0.20189651799465538      # exp(-1.6)


class TestPhaseKernel:
    def test_vanishes_at_time_zero(self):
        assert f_phase(0.0, 3.0 + 2.0j) == 0.0

    def test_real_amplitude_gives_zero_at_half_period(self):
        # alpha = 1: 2 Re(e^{-i pi/2}) = 0
        assert f_phase(math.pi, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_imaginary_amplitude_at_half_period(self):
        # alpha = i: sin(pi/2) * 2 Re(i e^{-i pi/2}) = 2
        assert f_phase(math.pi, 1j) == pytest.approx(2.0, abs=1e-14)

    def test_array_input_and_linearity_in_alpha(self):
        wt = np.linspace(0.0, 7.0, 40)
        lhs = f_phase(wt, 1.5 - 0.5j)
        rhs = 1.5 * f_phase(wt, 1.0) - 0.5 * f_phase(wt, 1j)
        assert lhs.shape == wt.shape
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


class TestBranchEvolution:
    def test_m_zero_levels_evolve_as_free_oscillator(self):
        for jm in ((1, 0), (0, 0)):
            branch = evolve_product_state(jm, 0.7 + 0.2j, 1.3, P)
            assert branch.alpha_t == pytest.approx((0.7 + 0.2j) * np.exp(-1.3j))
            assert branch.phase == pytest.approx(1.0 + 0j, abs=1e-15)

    def test_phase_factor_is_unimodular(self):
        for _ in range(20):
            jm = ((1, 1), (1, 0), (0, 0), (1, -1))[RNG.integers(4)]
            alpha = complex(*RNG.normal(size=2))
            t = float(RNG.uniform(0.0, 20.0))
            branch = evolve_product_state(jm, alpha, t, P)
            assert abs(branch.phase) == pytest.approx(1.0, abs=1e-12)

    def test_displacement_direction_depends_on_sign_of_m(self):
        # from vacuum, half a period swings the packet to -4 m beta
        up = evolve_product_state((1, 1), 0.0, math.pi, P)
        down = evolve_product_state((1, -1), 0.0, math.pi, P)
        assert up.alpha_t == pytest.approx(-0.4 + 0j, abs=1e-14)
        assert down.alpha_t == pytest.approx(0.4 + 0j, abs=1e-14)

    def test_full_period_restores_amplitude_with_residual_phase(self):
        t = 2.0 * math.pi
        branch = evolve_product_state((1, 1), 0.3 - 1.1j, t, P)
        assert branch.alpha_t == pytest.approx(0.3 - 1.1j, abs=1e-13)
        assert branch.phase == pytest.approx(np.exp(8j * math.pi * P.beta ** 2),
                                             abs=1e-13)

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            evolve_product_state((2, 0), 0.0, 1.0, P)

    def test_rejects_nonzero_qubit_splitting(self):
        nondeg = ModelParams(omega=1.0, lambda_=0.1, omega0=0.05)
        with pytest.raises(ValueError, match="omega0 must be 0"):
            evolve_product_state((1, 1), 0.0, 1.0, nondeg)
        with pytest.raises(ValueError, match="omega0 must be 0"):
            coherence_integral(Thermal(1.0), 1.0, nondeg)


def laguerre(n, x):
    """L_n(x) by the recurrence of the number state's closed form, which
    scales nothing at these arguments."""
    value, k = _scaled_laguerre(n, np.asarray(x, dtype=float)[()])
    assert not np.any(k)
    return value


class TestLaguerre:
    def test_low_order_closed_forms(self):
        assert laguerre(0, 3.7) == 1.0
        assert laguerre(1, 0.25) == pytest.approx(0.75)
        assert laguerre(2, 2.0) == pytest.approx(-1.0)
        assert laguerre(3, 1.0) == pytest.approx(-2.0 / 3.0)

    def test_matches_scipy_up_to_n_twenty(self):
        x = np.linspace(0.0, 6.0, 31)
        for n in range(21):
            np.testing.assert_allclose(laguerre(n, x), eval_laguerre(n, x),
                                       rtol=1e-12, atol=1e-14)


class TestCoherenceIntegral:
    def test_thermal_value_at_half_period(self):
        val = coherence_integral(Thermal(1.0), math.pi, P)
        assert val.imag == 0.0
        assert val.real == pytest.approx(EXP_M096, abs=1e-15)

    def test_vacuum_limits_agree(self):
        t = np.linspace(0.0, 10.0, 37)
        th = coherence_integral(Thermal(0.0), t, P)
        coh = coherence_integral(Coherent(0.0), t, P)
        fk = coherence_integral(Fock(0), t, P)
        np.testing.assert_allclose(th, coh, atol=1e-15)
        np.testing.assert_allclose(th, fk, atol=1e-15)

    def test_coherent_modulus_is_amplitude_independent(self):
        t = np.linspace(0.0, 12.0, 50)
        base = np.abs(coherence_integral(Coherent(0.0), t, P))
        np.testing.assert_allclose(
            base, np.exp(-32.0 * P.beta ** 2 * np.sin(t / 2.0) ** 2), atol=1e-15)
        for alpha0 in (1.0, 2j, -0.5 + 1.5j):
            np.testing.assert_allclose(
                np.abs(coherence_integral(Coherent(alpha0), t, P)), base,
                atol=1e-15)

    def test_coherent_phase_from_kernel(self):
        alpha0 = 2j
        t = 2.2
        val = coherence_integral(Coherent(alpha0), t, P)
        expected = (np.exp(-32.0 * P.beta ** 2 * math.sin(t / 2.0) ** 2)
                    * np.exp(-8j * P.beta * f_phase(t, alpha0)))
        assert val == pytest.approx(expected, abs=1e-15)

    def test_explicit_density_has_no_closed_form(self):
        with pytest.raises(TypeError):
            coherence_integral(ExplicitDensity(np.eye(2) / 2.0), 1.0, P)
        with pytest.raises(TypeError):
            coherence_integral("thermal", 1.0, P)


class TestReducedDensity:
    def test_initial_state_is_the_bell_projector(self):
        rho = reduced_qubit_density_psi_plus(Thermal(1.0), 0.0, P)
        np.testing.assert_allclose(rho.matrix,
                                   bell_state("psi_plus").matrix, atol=1e-15)

    def test_collective_coherence_carries_the_integral(self):
        spec = Coherent(2j)
        t = 2.0
        i_t = coherence_integral(spec, t, P)
        m = reduced_qubit_density_psi_plus(spec, t, P).matrix
        rho = JM_FROM_EG @ m @ JM_FROM_EG.T
        assert rho[0, 3] == pytest.approx(-i_t / 2.0, abs=1e-14)
        assert rho[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert rho[3, 3] == pytest.approx(0.5, abs=1e-14)

    def test_valid_density_across_preparations(self):
        for spec in (Thermal(2.0), Coherent(1.0 + 1j), Fock(3)):
            for t in (0.7, math.pi, 5.0):
                rho = reduced_qubit_density_psi_plus(spec, t, P)
                purity = float(np.trace(rho.matrix @ rho.matrix).real)
                assert purity <= 1.0 + 1e-12


class TestFourierArguments:
    def test_norm_identity(self):
        t = np.linspace(0.0, 13.0, 101)
        k1, k2 = fourier_arguments(t, P)
        np.testing.assert_allclose(
            k1 ** 2 + k2 ** 2, (16.0 * P.beta * np.sin(t / 2.0)) ** 2,
            atol=1e-14)

    def test_half_period_point(self):
        k1, k2 = fourier_arguments(math.pi, P)
        assert k1 == pytest.approx(0.0, abs=1e-15)
        assert k2 == pytest.approx(-16.0 * P.beta, abs=1e-15)


class TestGeneralConcurrence:
    def test_thermal_transform_matches_quadrature(self):
        # independent oracle: integrate the Gaussian P function directly
        mean_n = 1.3
        k1, k2 = fourier_arguments(2.1, P)

        def integrand_re(y, x):
            p = math.exp(-(x * x + y * y) / mean_n) / (math.pi * mean_n)
            return p * math.cos(k1 * x + k2 * y)

        lim = 8.0 * math.sqrt(mean_n)
        val, err = dblquad(integrand_re, -lim, lim, -lim, lim,
                           epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        assert p_tilde_thermal(mean_n)(k1, k2) == pytest.approx(val, abs=1e-9)

    def test_specialized_laws_factor_through_the_general_one(self):
        t = np.linspace(0.0, 4.0 * math.pi, 64)
        np.testing.assert_allclose(
            concurrence_general(p_tilde_thermal(1.7), t, P),
            concurrence(Thermal(1.7), t, P), atol=1e-13)
        np.testing.assert_allclose(
            concurrence_general(p_tilde_coherent(1.0 + 2j), t, P),
            concurrence(Coherent(1.0 + 2j), t, P), atol=1e-13)
        np.testing.assert_allclose(
            concurrence_general(p_tilde_fock(4), t, P),
            concurrence(Fock(4), t, P), atol=1e-13)

    def test_non_finite_transform_is_an_error(self):
        with pytest.raises(ValueError, match="finite"):
            concurrence_general(lambda k1, k2: math.nan, 1.0, P)

    def test_clamp_policy(self):
        assert concurrence_general(lambda k1, k2: 1.0 + 1e-12, 0.5, P) <= 1.0
        with pytest.raises(ValueError):
            concurrence_general(lambda k1, k2: 2.0, 0.5, P)


class TestConcurrenceLaws:
    def test_thermal_minimum_and_periodicity(self):
        p = ModelParams(omega=1.0, lambda_=0.1)
        assert concurrence(Thermal(2.0), math.pi, p) == pytest.approx(
            EXP_M16, abs=1e-12)
        t = np.linspace(0.0, 2.0 * math.pi, 40)
        np.testing.assert_allclose(
            concurrence(Thermal(2.0), t, p),
            concurrence(Thermal(2.0), t + 2.0 * math.pi, p), atol=1e-12)

    def test_revivals_at_full_periods(self):
        for k in (1, 2, 5):
            assert concurrence(Thermal(3.0), 2.0 * math.pi * k, P) == pytest.approx(
                1.0, abs=1e-12)
            assert concurrence(Fock(4), 2.0 * math.pi * k, P) == pytest.approx(
                1.0, abs=1e-12)

    def test_number_state_node(self):
        p = ModelParams(omega=1.0, lambda_=0.125)
        assert concurrence(Fock(1), math.pi, p) == 0.0

    def test_thermal_never_exceeds_coherent(self):
        t = np.linspace(0.0, 15.0, 80)
        for mean_n in (0.2, 1.0, 3.0):
            assert np.all(concurrence(Thermal(mean_n), t, P)
                          <= concurrence(Coherent(0.0), t, P) + 1e-15)


class TestExactSumCrossCheck:
    def test_binomial_sum_equals_laguerre_form(self):
        # the finite sum is evaluated in exact rational arithmetic, so the
        # comparison probes the recurrence, not float cancellation
        for n in (0, 1, 2, 5, 12, 20):
            for beta in (0.05, 0.1, 0.3):
                p = ModelParams(omega=1.0, lambda_=beta)
                for t in np.linspace(0.1, 4.0 * math.pi, 17):
                    exact = coherence_integral_fock_sum(n, float(t), p)
                    closed = coherence_integral(Fock(n), float(t), p)
                    assert exact.imag == 0.0
                    assert abs(exact - closed) <= 1e-12 * max(1.0, abs(exact))

    def test_sum_rejects_bad_order(self):
        with pytest.raises(ValueError):
            coherence_integral_fock_sum(-1, 1.0, P)


class TestHalfPeriod:
    def test_matches_time_domain_laws(self):
        beta = 0.1
        p = ModelParams(omega=1.0, lambda_=beta)
        assert half_period(Thermal(1.0), beta) == pytest.approx(
            EXP_M096, abs=1e-15)
        assert half_period(Coherent(0.7), beta) == pytest.approx(
            EXP_M032, abs=1e-15)
        assert half_period(Fock(2), beta) == pytest.approx(
            concurrence(Fock(2), math.pi, p), abs=1e-15)

    def test_frequency_drops_out(self):
        # only the product omega * t enters, so the half-period value is a
        # function of beta alone
        for omega in (0.5, 1.0, 4.0):
            p = ModelParams(omega=omega, lambda_=0.1 * omega)
            assert concurrence(Thermal(1.0), math.pi / omega, p) == pytest.approx(
                half_period(Thermal(1.0), 0.1), abs=1e-14)


class TestRandomizedProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_bounds_and_periodicity(self, seed):
        rng = np.random.default_rng(998800 + seed)
        beta = float(rng.uniform(0.0, 0.3))
        omega = float(rng.uniform(0.3, 3.0))
        p = ModelParams(omega=omega, lambda_=beta * omega)
        spec = [Thermal(float(rng.uniform(0.0, 3.0))),
                Coherent(complex(*rng.normal(size=2))),
                Fock(int(rng.integers(0, 9)))][seed % 3]
        t = np.sort(rng.uniform(0.0, 6.0 * math.pi / omega, size=25))
        c = np.abs(coherence_integral(spec, t, p))
        assert np.all(c >= 0.0) and np.all(c <= 1.0 + 1e-12)
        period = 2.0 * math.pi / omega
        c_shift = np.abs(coherence_integral(spec, t + period, p))
        np.testing.assert_allclose(c, c_shift, atol=1e-12)
