"""Truncated Fock-space engine: spectrum, propagation, concurrence extraction.

The oracle is the independent check on every closed form, so its own pieces
are tested against first principles here: bare-oscillator limits, unitarity,
known concurrence values for standard two-qubit families, and convergence
under truncation refinement.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from reference import bell_state, displaced_number_state, partial_trace_oscillator
from tc2q.analytic import coherence_integral
from tc2q.model import (
    Coherent,
    ExplicitDensity,
    Fock,
    ModelParams,
    Thermal,
    bell_vector,
)
from tc2q.oracle import (
    _WOOTTERS_CHUNK,
    LEAK_ERROR,
    TruncationError,
    build_hamiltonian,
    choose_dim,
    oracle_concurrence_series,
    oracle_reduced_density,
    predicted_spectrum,
    wootters_concurrence,
)

P = ModelParams(omega=1.0, lambda_=0.1)
EXP_M008 = 0.9231163463866358   # exp(-0.08)


def oscillator_density(spec, dim):
    """The truncated oscillator density matrix sum_k w_k |c_k><c_k|."""
    w, c = spec.fock_columns(dim)
    return (c * w) @ c.conj().T


@st.composite
def density_stacks(draw):
    """Stacks of two-qubit densities, each a mixture of 1 to 4 random pure
    states, so rank-deficient members are common.  Some are tiled past one
    chunk of :func:`wootters_concurrence`."""
    size = draw(st.integers(1, 5))
    repeat = draw(st.sampled_from([1, _WOOTTERS_CHUNK // size + 1]))
    rank = draw(st.integers(1, 4))
    parts = draw(hnp.arrays(np.float64, (2, size, 4, rank), elements=st.floats(-1.0, 1.0)))
    weights = draw(hnp.arrays(np.float64, (size, rank), elements=st.floats(0.01, 1.0)))
    vecs = parts[0] + 1j * parts[1]
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    assume(np.all(norms > 1e-3))
    vecs /= norms
    weights /= weights.sum(axis=1, keepdims=True)
    stack = np.einsum("sak,sk,sbk->sab", vecs, weights, vecs.conj())
    return np.tile(stack, (repeat, 1, 1))


class TestHamiltonian:
    def test_decoupled_limit_is_the_bare_oscillator(self):
        free = ModelParams(omega=1.0, lambda_=0.0)
        h = build_hamiltonian(free, 12)
        levels = np.sort(np.linalg.eigvalsh(h))
        expected = np.repeat(np.arange(12.0), 4)
        np.testing.assert_allclose(levels, expected, atol=1e-12)

    def test_lowest_level_is_shifted_down_by_the_coupling(self):
        h = build_hamiltonian(P, 60)
        ground = np.linalg.eigvalsh(h)[0]
        assert ground == pytest.approx(-4.0 * P.beta ** 2, abs=1e-10)

    def test_predicted_levels_match_diagonalization_deep_into_the_stack(self):
        dim = 60
        computed = np.sort(np.linalg.eigvalsh(build_hamiltonian(P, dim)))
        predicted = predicted_spectrum(P, dim)
        check = 2 * dim
        np.testing.assert_allclose(computed[:check], predicted[:check],
                                   atol=1e-8)

    def test_each_rung_splits_two_shifted_two_flat(self):
        predicted = predicted_spectrum(P, 40)
        for n in range(5):
            block = predicted[4 * n:4 * (n + 1)]
            np.testing.assert_allclose(
                block, [n - 4.0 * P.beta ** 2, n - 4.0 * P.beta ** 2,
                        float(n), float(n)], atol=1e-12)

    def test_prediction_needs_the_degenerate_point(self):
        with pytest.raises(ValueError):
            predicted_spectrum(ModelParams(omega=1.0, lambda_=0.1, omega0=0.3), 20)

    def test_hermitian(self):
        h = build_hamiltonian(ModelParams(omega=1.3, lambda_=0.2, omega0=0.4), 15)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


class TestDisplacedStates:
    def test_normalized(self):
        for n in (0, 1, 4):
            for m in (-1, 1):
                psi = displaced_number_state(n, m, P, 40)
                assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_counter_displaced_vacua_overlap(self):
        up = displaced_number_state(0, 1, P, 40)
        down = displaced_number_state(0, -1, P, 40)
        assert np.vdot(up, down) == pytest.approx(EXP_M008, abs=1e-12)

    def test_same_displacement_keeps_orthonormality(self):
        states = [displaced_number_state(n, 1, P, 40) for n in range(4)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_truncation_overflow_raises(self):
        big = ModelParams(omega=1.0, lambda_=2.0)
        with pytest.raises(TruncationError):
            displaced_number_state(0, 1, big, 6)


class TestPartialTrace:
    def test_recovers_qubit_factor_of_a_product(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho_q = np.outer(v, v.conj())
        rho_q /= np.trace(rho_q).real
        pops = rng.random(6)
        rho_osc = np.diag(pops / pops.sum()).astype(complex)
        np.testing.assert_allclose(
            partial_trace_oscillator(np.kron(rho_q, rho_osc), 6), rho_q,
            atol=1e-13)

    def test_trace_is_preserved(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        reduced = partial_trace_oscillator(rho, 5)
        assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-12)


class TestWootters:
    def test_bell_states_are_maximally_entangled(self):
        for kind in ("psi_plus", "psi_minus", "phi_plus", "phi_minus"):
            assert wootters_concurrence(bell_state(kind)) == pytest.approx(
                1.0, abs=1e-12)

    def test_maximally_mixed_state_is_separable(self):
        assert wootters_concurrence(np.eye(4) / 4.0) == 0.0

    def test_werner_family_threshold(self):
        psi = bell_vector("psi_minus")
        proj = np.outer(psi, psi.conj())
        for p in (0.1, 1.0 / 3.0, 0.5, 0.9):
            rho = p * proj + (1.0 - p) * np.eye(4) / 4.0
            expect = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert wootters_concurrence(rho) == pytest.approx(expect, abs=1e-12)

    def test_dephased_bell_concurrence_equals_coherence(self):
        # the family (1/4)[[1-u,0,0,1-u],[0,1+u,1+u,0],...] that the model
        # produces at v = 0 has concurrence exactly |u|
        for u in (0.0, 0.3, 0.73, 1.0):
            top, mid = 1.0 - u, 1.0 + u
            m = np.array([
                [top, 0, 0, top],
                [0, mid, mid, 0],
                [0, mid, mid, 0],
                [top, 0, 0, top],
            ], dtype=complex) / 4.0
            assert wootters_concurrence(m) == pytest.approx(u, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(stack=density_stacks(), data=st.data())
    def test_stack_matches_per_matrix_calls(self, stack, data):
        conc = wootters_concurrence(stack)
        assert conc.shape == (stack.shape[0],)
        assert np.array_equal(conc, [wootters_concurrence(m) for m in stack])
        bad = stack.copy()
        bad[data.draw(st.integers(0, stack.shape[0] - 1)), 0, 1] += 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            wootters_concurrence(bad)


class TestInitialStates:
    def test_thermal_occupation_is_geometric(self):
        rho = oscillator_density(Thermal(1.0), 40)
        pops = np.diag(rho).real
        assert pops[0] == pytest.approx(0.5, abs=1e-10)
        ratios = pops[1:6] / pops[:5]
        np.testing.assert_allclose(ratios, 0.5, atol=1e-10)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coherent_populations_are_poissonian(self):
        rho = oscillator_density(Coherent(1.0), 30)
        pops = np.diag(rho).real
        assert pops[0] == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert pops[2] == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-10)

    def test_number_state_is_a_single_level(self):
        rho = oscillator_density(Fock(3), 10)
        expected = np.zeros((10, 10))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(rho, expected, atol=0)

    def test_explicit_matrix_is_embedded(self):
        inner = np.diag([0.25, 0.75]).astype(complex)
        rho = oscillator_density(ExplicitDensity(inner), 8)
        np.testing.assert_allclose(rho[:2, :2], inner, atol=0)
        assert np.abs(rho[2:, :]).max() == 0.0

    def test_oversized_preparations_raise(self):
        with pytest.raises(TruncationError):
            oscillator_density(Coherent(4.0), 10)
        with pytest.raises(TruncationError):
            oscillator_density(Thermal(5.0), 10)
        with pytest.raises(TruncationError):
            oscillator_density(Fock(12), 10)
        with pytest.raises(TruncationError):
            oscillator_density(ExplicitDensity(np.eye(12) / 12.0), 10)

    def test_invalid_decomposition_is_rejected_before_propagation(self):
        class Decomposed:
            label, reach = "decomposed", (0.0, 2)

            def __init__(self, weights, columns):
                self.weights, self.columns = np.array(weights), np.array(columns)

            def fock_columns(self, dim):
                return self.weights, self.columns

        e0, e1 = np.eye(20, dtype=complex)[:, :2].T
        t = np.array([0.0, 1.0])
        ok = Decomposed([0.25, 0.75], np.stack([e0, e1], axis=1))
        mixed = oracle_concurrence_series("psi_plus", ok, t, P, dim=20)
        assert mixed.concurrence[0] == pytest.approx(1.0, abs=1e-12)
        for bad in (Decomposed([0.5, 0.6], ok.columns),
                    Decomposed([1.5, -0.5], ok.columns),
                    Decomposed([0.5, 0.5], np.stack([e0, (e0 + e1) / math.sqrt(2.0)],
                                                    axis=1))):
            with pytest.raises(ValueError):
                oracle_concurrence_series("psi_plus", bad, t, P, dim=20)


class TestTruncationRule:
    @pytest.mark.parametrize("spec,expected", [
        (Thermal(2.0), 117),
        (Thermal(1.0), 80),
        (Thermal(0.5), 61),
        (Coherent(2j), 46),
        (Coherent(0.0), 21),
        (Fock(5), 26),
    ])
    def test_reference_dimensions(self, spec, expected):
        assert choose_dim(spec, P) == expected

    def test_floor_of_twenty(self):
        tiny = ModelParams(omega=1.0, lambda_=0.0)
        assert choose_dim(Fock(0), tiny) >= 20

    def test_explicit_density_counts_its_own_levels(self):
        small = choose_dim(ExplicitDensity(np.eye(2) / 2.0), P)
        large = choose_dim(ExplicitDensity(np.eye(30) / 30.0), P)
        assert large - small == 28


class TestConcurrenceSeries:
    def test_stationary_preparations_stay_maximally_entangled(self):
        t = np.linspace(0.0, 4.0 * math.pi, 25)
        for kind in ("psi_minus", "phi_minus"):
            series = oracle_concurrence_series(kind, Thermal(1.0), t, P)
            np.testing.assert_allclose(series.concurrence, 1.0, atol=1e-8)
            assert series.u is None and series.v is None

    def test_symmetric_pair_evolves_identically(self):
        t = np.linspace(0.0, 4.0 * math.pi, 40)
        a = oracle_concurrence_series("psi_plus", Coherent(1.0), t, P)
        b = oracle_concurrence_series("phi_plus", Coherent(1.0), t, P)
        np.testing.assert_allclose(a.concurrence, b.concurrence, atol=1e-10)

    def test_matches_closed_form_for_thermal_preparation(self):
        t = np.linspace(0.0, 4.0 * math.pi, 60)
        series = oracle_concurrence_series("psi_plus", Thermal(1.0), t, P)
        np.testing.assert_allclose(series.concurrence,
                                   np.abs(coherence_integral(Thermal(1.0), t, P)),
                                   atol=1e-6)

    def test_coherence_columns_track_the_overlap_integral(self):
        t = np.linspace(0.0, 2.0 * math.pi, 20)
        series = oracle_concurrence_series("psi_plus", Coherent(2j), t, P)
        i_t = coherence_integral(Coherent(2j), t, P)
        np.testing.assert_allclose(series.u + 1j * series.v, i_t, atol=1e-8)

    def test_agrees_with_full_density_conjugation(self):
        # cross-route: the batched pure-state path against expm(-iHt)
        # conjugation of the complete composite density, sharing no eigh
        spec, t = Thermal(0.5), 2.6
        dim = choose_dim(spec, P)
        series = oracle_concurrence_series("psi_plus", spec, np.array([t]), P)
        v = bell_vector("psi_plus")
        rho0 = np.kron(np.outer(v, v.conj()), oscillator_density(spec, dim))
        u = expm(-1j * build_hamiltonian(P, dim) * t)
        rho_q = partial_trace_oscillator(u @ rho0 @ u.conj().T, dim)
        assert series.concurrence[0] == pytest.approx(
            wootters_concurrence(rho_q), abs=1e-11)

    def test_reduced_density_helper_matches_series_point(self):
        spec, t = Coherent(1.0), 1.7
        rho = oracle_reduced_density("psi_plus", spec, t, P)
        series = oracle_concurrence_series("psi_plus", spec, np.array([t]), P)
        assert wootters_concurrence(rho) == pytest.approx(
            series.concurrence[0], abs=1e-12)

    def test_single_time_density_aborts_on_leakage(self):
        # the same point aborts a one-point series with leakage 7.4e-06
        strong = ModelParams(omega=1.0, lambda_=0.3)
        with pytest.raises(TruncationError, match="leakage"):
            oracle_reduced_density("psi_plus", Coherent(2.0), 2.0944, strong, dim=26)

    def test_initial_point_is_maximally_entangled(self):
        series = oracle_concurrence_series("phi_plus", Fock(2),
                                           np.array([0.0, 1.0]), P)
        assert series.concurrence[0] == pytest.approx(1.0, abs=1e-10)

    def test_undersized_basis_aborts_with_truncation_error(self):
        t = np.linspace(0.0, 2.0 * math.pi, 10)
        strong = ModelParams(omega=1.0, lambda_=0.3)
        with pytest.raises(TruncationError):
            oracle_concurrence_series("psi_plus", Coherent(2.0), t, strong,
                                      dim=12)
        # dim 12 already fails the preparation's tail check; at dim 26 the
        # state fits and only leaks into the top rungs later, and the abort
        # names the first grid time at which a one-point run also aborts
        offending = []
        for t_k in t:
            try:
                oracle_concurrence_series("psi_plus", Coherent(2.0), np.array([t_k]),
                                          strong, dim=26)
            except TruncationError:
                offending.append(t_k)
        assert offending and offending[0] > t[0]
        with pytest.raises(TruncationError,
                           match=re.escape(f"at t={offending[0]:g} with dim=26")):
            oracle_concurrence_series("psi_plus", Coherent(2.0), t, strong, dim=26)

    def test_leakage_is_recorded_and_bounded(self):
        t = np.linspace(0.0, 4.0 * math.pi, 30)
        series = oracle_concurrence_series("psi_plus", Thermal(1.0), t, P)
        assert series.leakage is not None
        assert float(series.leakage.max()) <= LEAK_ERROR
        assert series.meta["leakage_flagged"] in (False, True)

    def test_meta_records_the_run(self):
        series = oracle_concurrence_series("psi_plus", Thermal(1.0),
                                           np.array([0.0, 1.0]), P, dim=80)
        assert series.meta["dim"] == 80
        assert series.meta["qubit_init"] == "psi_plus"
        assert series.meta["params"]["lambda"] == 0.1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            oracle_concurrence_series("bell", Thermal(1.0), np.array([0.0]), P)
        with pytest.raises(ValueError):
            oracle_concurrence_series("psi_plus", Thermal(1.0),
                                      np.array([[0.0]]), P)


class TestConvergence:
    def test_error_shrinks_under_truncation_refinement(self):
        # doubling basis sizes: the gap to the closed form must fall
        # (within ten percent) until it hits the numerical floor
        floor = 1e-12
        t = np.linspace(0.0, 2.0 * math.pi, 15)
        strong = ModelParams(omega=1.0, lambda_=0.3)
        target = np.abs(coherence_integral(Coherent(1.0), t, strong))
        errs = []
        for dim in (24, 48, 96):
            series = oracle_concurrence_series("psi_plus", Coherent(1.0), t,
                                               strong, dim=dim)
            errs.append(float(np.abs(series.concurrence - target).max()))
        assert errs[0] > 1e-10  # the first point must sit above the floor
        for prev, nxt in zip(errs[:-1], errs[1:]):
            assert nxt <= max(1.1 * prev, floor)

    def test_degenerate_limit_is_approached_continuously(self):
        # omega0 -> 0 at fixed coupling: the oracle must converge onto the
        # degenerate closed form quadratically, not jump
        t = np.linspace(0.0, 2.0 * math.pi, 12)
        target = np.abs(coherence_integral(Thermal(0.5), t, P))
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            params = ModelParams(omega=1.0, lambda_=0.1, omega0=eps * 0.1)
            series = oracle_concurrence_series("psi_plus", Thermal(0.5), t,
                                               params, dim=61)
            gaps.append(float(np.abs(series.concurrence - target).max()))
        assert gaps[0] > gaps[1] > gaps[2]
