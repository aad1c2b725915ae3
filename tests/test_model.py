"""Parameter containers, the collective basis and state validation."""

import math

import numpy as np
import pytest

from reference import bell_state
from tc2q.model import (
    BELL_KINDS,
    JM_FROM_EG,
    Coherent,
    ExplicitDensity,
    Fock,
    ModelParams,
    QubitDensity,
    Thermal,
    bell_vector,
    clamp_unit,
    spec_label,
)


class TestModelParams:
    def test_beta_is_coupling_over_frequency(self):
        p = ModelParams(omega=2.0, lambda_=0.1)
        assert p.beta == pytest.approx(0.05)
        assert p.omega0 == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"omega": 0.0, "lambda_": 0.1},
        {"omega": -1.0, "lambda_": 0.1},
        {"omega": 1.0, "lambda_": -0.1},
        {"omega": 1.0, "lambda_": 0.1, "omega0": -0.5},
        {"omega": math.nan, "lambda_": 0.1},
        {"omega": 1.0, "lambda_": math.inf},
    ])
    def test_rejects_nonphysical_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_frozen(self):
        p = ModelParams(omega=1.0, lambda_=0.1)
        with pytest.raises(AttributeError):
            p.omega = 2.0


class TestClampUnit:
    def test_interior_values_pass_through(self):
        assert clamp_unit(0.5) == 0.5
        assert clamp_unit(0.0) == 0.0
        assert clamp_unit(1.0) == 1.0

    def test_small_overshoot_is_clamped(self):
        assert clamp_unit(-1e-12) == 0.0
        assert clamp_unit(1.0 + 1e-12) == 1.0

    def test_large_violation_raises_with_label(self):
        with pytest.raises(ValueError, match="visibility"):
            clamp_unit(1.5, label="visibility")
        with pytest.raises(ValueError):
            clamp_unit(-0.01)

    def test_array_input(self):
        arr = np.array([0.3, -1e-13, 1.0 + 1e-13])
        out = clamp_unit(arr)
        assert out.min() == 0.0 and out.max() == 1.0
        assert out[0] == 0.3
        with pytest.raises(ValueError):
            clamp_unit(np.array([0.5, 2.0]))


# the component maps between the two orderings, keyed (source, target)
_MAPS = {("eg", "jm"): JM_FROM_EG, ("jm", "eg"): JM_FROM_EG.T}


class TestBasisTransforms:
    @pytest.mark.parametrize("source, target", list(_MAPS))
    def test_transforms_are_orthogonal(self, source, target):
        m = _MAPS[source, target]
        np.testing.assert_allclose(m.T @ m, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("source, target", list(_MAPS))
    def test_round_trip_is_identity(self, source, target):
        fwd = _MAPS[source, target]
        back = _MAPS[target, source]
        np.testing.assert_allclose(back @ fwd, np.eye(4), atol=1e-15)

    def test_collective_levels_from_local_pluses(self):
        s = 1.0 / math.sqrt(2.0)
        # eg components of |+/-> = (|e> +/- |g>)/sqrt(2); jm ordering:
        # (1,1), (1,0), (0,0), (1,-1)
        plus, minus = np.array([s, s]), np.array([s, -s])
        np.testing.assert_allclose(JM_FROM_EG @ np.kron(plus, plus),
                                   [1.0, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(
            JM_FROM_EG @ (s * np.kron(plus, minus) + s * np.kron(minus, plus)),
            [0, 1.0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(
            JM_FROM_EG @ (s * np.kron(plus, minus) - s * np.kron(minus, plus)),
            [0, 0, 1.0, 0], atol=1e-15)
        np.testing.assert_allclose(JM_FROM_EG @ np.kron(minus, minus),
                                   [0, 0, 0, 1.0], atol=1e-15)
        # the jm levels diagonalize sx1 + sx2 with eigenvalues 2m
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sx_sum = np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx)
        np.testing.assert_allclose(JM_FROM_EG @ sx_sum @ JM_FROM_EG.T,
                                   np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-15)


class TestQubitDensity:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            QubitDensity(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="race"):
            QubitDensity(np.eye(4) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            QubitDensity(m)

    def test_matrix_is_copied_and_read_only(self):
        src = np.eye(4, dtype=complex) / 4.0
        rho = QubitDensity(src)
        src[0, 0] = 99.0
        assert rho.matrix[0, 0] == 0.25
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.5


class TestBellStates:
    def test_vectors_are_orthonormal(self):
        stack = np.column_stack([bell_vector(k) for k in BELL_KINDS])
        np.testing.assert_allclose(stack.conj().T @ stack, np.eye(4), atol=1e-15)

    def test_eg_components(self):
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(bell_vector("psi_plus"), [0, s, s, 0], atol=1e-15)
        np.testing.assert_allclose(bell_vector("psi_minus"), [0, s, -s, 0], atol=1e-15)
        np.testing.assert_allclose(bell_vector("phi_plus"), [s, 0, 0, s], atol=1e-15)
        np.testing.assert_allclose(bell_vector("phi_minus"), [s, 0, 0, -s], atol=1e-15)

    def test_collective_basis_components(self):
        s = 1.0 / math.sqrt(2.0)
        # psi_plus and phi_plus live on the m = +/-1 pair; psi_minus is the
        # singlet (up to sign), phi_minus the m = 0 triplet level
        np.testing.assert_allclose(JM_FROM_EG @ bell_vector("psi_plus"),
                                   [s, 0, 0, -s], atol=1e-15)
        np.testing.assert_allclose(JM_FROM_EG @ bell_vector("phi_plus"),
                                   [s, 0, 0, s], atol=1e-15)
        np.testing.assert_allclose(np.abs(JM_FROM_EG @ bell_vector("psi_minus")),
                                   [0, 0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(np.abs(JM_FROM_EG @ bell_vector("phi_minus")),
                                   [0, 1, 0, 0], atol=1e-15)

    def test_states_are_pure_projectors(self):
        for kind in BELL_KINDS:
            rho = bell_state(kind)
            np.testing.assert_allclose(rho.matrix @ rho.matrix, rho.matrix,
                                       atol=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bell_vector("ghz")


class TestOscillatorSpecs:
    def test_thermal_rejects_negative_occupation(self):
        with pytest.raises(ValueError):
            Thermal(-0.1)
        assert Thermal(0.0).mean_n == 0.0

    def test_coherent_coerces_amplitude_to_complex(self):
        assert Coherent(1.5).alpha0 == 1.5 + 0j
        assert isinstance(Coherent(2).alpha0, complex)

    def test_fock_requires_nonnegative_integer(self):
        assert Fock(0).n_index == 0
        with pytest.raises(ValueError):
            Fock(-1)
        with pytest.raises(ValueError):
            Fock(1.5)

    def test_explicit_density_validation(self):
        good = np.diag([0.7, 0.3]).astype(complex)
        spec = ExplicitDensity(good)
        assert spec.matrix.shape == (2, 2)
        with pytest.raises(ValueError):
            ExplicitDensity(np.diag([0.7, 0.4]))  # trace 1.1
        bad = np.diag([0.7, 0.3]).astype(complex)
        bad[0, 1] = 0.2
        with pytest.raises(ValueError):
            ExplicitDensity(bad)
        with pytest.raises(ValueError):
            ExplicitDensity(np.diag([1.2, -0.2]))
        with pytest.raises(ValueError, match="non-finite"):
            ExplicitDensity(np.diag([0.5, 0.5, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            ExplicitDensity(np.full((2, 2), np.nan))

    def test_labels_identify_the_preparation(self):
        assert spec_label(Thermal(2.0)) == "thermal(mean_n=2)"
        assert "coherent" in spec_label(Coherent(2j))
        assert spec_label(Fock(5)) == "fock(n=5)"
        assert "explicit" in spec_label(ExplicitDensity(np.eye(3) / 3.0))

    def test_reach_feeds_the_truncation_rule(self):
        assert Thermal(4.0).reach == (8.0, 0)
        assert Coherent(3.0 - 4.0j).reach == (5.0, 0)
        assert Fock(7).reach == (0.0, 7)
        assert ExplicitDensity(np.eye(3) / 3.0).reach == (0.0, 3)

    def test_fock_columns_decompose_the_density(self):
        inner = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
        for spec in (Thermal(0.0), Thermal(1.5), Coherent(0.0), Coherent(1.0 - 0.5j),
                     Fock(4), ExplicitDensity(inner)):
            weights, cols = spec.fock_columns(80)
            assert cols.shape == (80, weights.size)
            assert weights.min() > 0.0
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(cols.conj().T @ cols, np.eye(weights.size),
                                       atol=1e-12)
        weights, cols = ExplicitDensity(inner).fock_columns(5)
        np.testing.assert_allclose(((cols * weights) @ cols.conj().T)[:2, :2], inner,
                                   atol=1e-14)

    def test_closed_form_broadcasts_over_time_and_coupling(self):
        wt = np.linspace(0.0, 2.0 * math.pi, 7)[:, None]
        beta = np.array([0.0, 0.1, 0.3])
        for spec in (Thermal(1.2), Coherent(0.4 + 0.9j), Fock(3)):
            grid = spec.coherence(wt, beta)
            assert grid.shape == (7, 3) and np.iscomplexobj(grid)
            for j, b in enumerate(beta):
                np.testing.assert_array_equal(grid[:, j], spec.coherence(wt[:, 0], b))
            np.testing.assert_array_equal(grid[:, 0], 1.0)  # beta = 0: no decoherence

    def test_explicit_density_has_no_closed_form(self):
        with pytest.raises(TypeError, match="oracle"):
            ExplicitDensity(np.eye(2) / 2.0).coherence(1.0, 0.1)
