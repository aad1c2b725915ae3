"""Parameter containers, the collective basis and state validation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import QubitDensity, bell_state, poisson_column
from tc2q.analytic import analytic_series
from tc2q.classical import ClassicalThermal, DeltaDist, GaussianDist, classical_series
from tc2q.model import (
    BELL_KINDS,
    COHERENCE_KINDS,
    JM_FROM_EG,
    Coherent,
    ExplicitDensity,
    Fock,
    ModelParams,
    Thermal,
    TruncationError,
    _scaled_laguerre,
    at_limit,
    bell_vector,
    check_dim,
    clamp_unit,
    cos_sin_of_halves,
    f_phase,
    spec_label,
    squared,
)
from tc2q.oracle import oracle_concurrence_series, wootters_concurrence

P = ModelParams(omega=1.0, lambda_=0.1)


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

    def test_closed_forms_require_the_degenerate_point(self):
        ModelParams(omega=1.0, lambda_=0.1).require_degenerate()
        with pytest.raises(ValueError, match="omega0 must be 0 .* got 0.3"):
            ModelParams(omega=1.0, lambda_=0.1, omega0=0.3).require_degenerate()

    def test_frozen(self):
        p = ModelParams(omega=1.0, lambda_=0.1)
        with pytest.raises(AttributeError):
            p.omega = 2.0


@pytest.mark.parametrize("make, message", [
    (lambda: clamp_unit(math.nan), "non-finite concurrence"),
    (lambda: check_dim(1), "dim must be an integer >= 2, got 1"),
    (lambda: Coherent(complex(math.inf, 0.0)), "alpha0 must be finite"),
    (lambda: ExplicitDensity(np.ones((2, 3)) / 2.0), r"must be square, got shape \(2, 3\)"),
    (lambda: wootters_concurrence(np.eye(3) / 3.0), r"expected a 4x4 .* got shape \(3, 3\)"),
    (lambda: DeltaDist(math.nan, 0.0), "q0, p0 must be finite"),
    (lambda: GaussianDist(0.0, math.inf, 1.0, 1.0), "p_bar must be finite"),
    # each route's series takes a non-empty 1-d grid, checked before it runs
    (lambda: analytic_series("psi_plus", Thermal(1.0), 2.0, P), "t must be a non-empty 1-d"),
    (lambda: analytic_series("bell", Thermal(1.0), [2.0], P), "qubit_init must be one of"),
    (lambda: classical_series(ClassicalThermal(1.0), np.ones((2, 2)), P, 10),
     "t must be a non-empty 1-d"),
    (lambda: oracle_concurrence_series("psi_plus", Thermal(1.0), [], P),
     "t must be a non-empty 1-d"),
], ids=["clamp-nan", "dim-1", "coherent-inf", "density-2x3", "wootters-3x3", "delta-nan",
        "gaussian-inf", "analytic-scalar-t", "analytic-bell-kind", "classical-2d-t",
        "oracle-empty-t"])
def test_invalid_values_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestClampUnit:
    def test_interior_values_pass_through(self):
        assert clamp_unit(0.5) == 0.5
        assert clamp_unit(0.0) == 0.0
        assert clamp_unit(1.0) == 1.0

    def test_small_overshoot_is_clamped(self):
        assert clamp_unit(-1e-12) == 0.0
        assert clamp_unit(1.0 + 1e-12) == 1.0

    def test_large_violation_raises_with_label(self):
        with pytest.raises(ValueError, match="concurrence outside"):
            clamp_unit(1.5)
        with pytest.raises(ValueError):
            clamp_unit(-0.01)

    def test_array_input(self):
        arr = np.array([0.3, -1e-13, 1.0 + 1e-13])
        out = clamp_unit(arr)
        assert out.min() == 0.0 and out.max() == 1.0
        assert out[0] == 0.3
        with pytest.raises(ValueError):
            clamp_unit(np.array([0.5, 2.0]))


class TestOverflowingExponents:
    def test_squared_is_the_float_power_bit_for_bit(self):
        # glibc's pow(x, 2) and x * x differ in the last bit for about one
        # float in a thousand; the closed forms have always used pow
        x = np.random.default_rng(1).uniform(1.0, 2.0, 20000)
        assert [squared(v) for v in x.tolist()] == [v ** 2 for v in x.tolist()]
        np.testing.assert_array_equal(squared(x), x * x)
        with pytest.raises(OverflowError):
            1e200 ** 2
        with np.errstate(over="ignore"):
            assert squared(1e200) == math.inf

    def test_an_overflowed_decay_rate_gives_its_limits(self):
        # exp(-inf) = 0 away from s = 0, and 1 at s = 0, where -inf * 0 is NaN
        s = np.array([0.0, 1e-3, -0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = np.exp(-32.0 * squared(1e200) * s * s)
            thermal = envelope * np.exp(-64.0 * squared(0.5) * 1e308 * s * s)
        assert at_limit(s, envelope, envelope).tolist() == [1.0, 0.0, 0.0]
        assert at_limit(s, envelope, thermal).tolist() == [1.0, 0.0, 0.0]
        # numpy scalars give a scalar limit
        with np.errstate(over="ignore"):
            envelope = np.exp(-32.0 * squared(1e200) * np.float64(0.5) * 0.5)
        nan = np.float64(math.nan)
        assert at_limit(np.float64(0.0), nan, nan) == 1.0
        assert at_limit(np.float64(0.5), envelope, envelope * nan) == 0.0
        # a finite value is returned as it is, signed zeros included
        plain = np.exp(-2.0 * s * s) * np.array([1.0, -0.0, 1.0])
        assert at_limit(s, plain, plain).tobytes() == plain.tobytes()
        assert math.copysign(1.0, at_limit(0.5, 0.1, -0.0)) == -1.0
        # any other NaN stays: the envelope has not underflowed there
        assert np.isnan(at_limit(s, np.full(3, 0.5), np.full(3, math.nan))[1:]).all()
        assert math.isnan(at_limit(0.5, 0.5, complex(math.nan, 0.0)).real)

    @pytest.mark.parametrize("spec, plain", [
        (Thermal(0.7), lambda s, wt: (np.exp(-32.0 * 0.3 ** 2 * s * s)
                                      * np.exp(-64.0 * 0.3 ** 2 * 0.7 * s * s))),
        (Coherent(1.2 - 0.7j), lambda s, wt: (np.exp(-32.0 * 0.3 ** 2 * s * s)
                                              * np.exp(-8j * 0.3 * f_phase(wt, 1.2 - 0.7j)))),
    ], ids=["thermal", "coherent"])
    def test_a_finite_closed_form_is_the_plain_formula(self, spec, plain):
        # as for the number state below: the limit rule leaves every bit
        omega_t = np.array([0.0, 1.0, 3.0])
        np.testing.assert_array_equal(spec.coherence(omega_t, 0.3),
                                      plain(np.sin(omega_t / 2.0), omega_t))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_an_overflowed_laguerre_argument_gives_the_limit(self, n):
        # (8 beta s)^2 overflows: L_n(inf) exp(-inf) has the limit 0, and
        # s = 0 keeps L_n(0) = 1, with no warning; a finite argument takes
        # the plain formula, bit for bit
        omega_t = np.array([0.0, 1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in (1e200, 1e308):
                assert Fock(n).coherence(omega_t, beta).tolist() == [1.0, 0.0, 0.0]
        s = np.sin(omega_t / 2.0)
        value, k = _scaled_laguerre(n, (8.0 * 0.3 * s) ** 2)
        assert not k.any()
        np.testing.assert_array_equal(Fock(n).coherence(omega_t, 0.3),
                                      value * np.exp(-32.0 * 0.3 ** 2 * s * s))


def log_uniform(low, high):
    """Floats spread evenly over the decades from ``low`` to ``high``."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: min(10.0 ** x, high))


def closed_form(form, mean_n, alpha0, n, k_T, widths):
    """One of the five closed forms as f(omega t, beta), at omega = 1."""
    if form in ("thermal", "coherent", "fock"):
        return {"thermal": Thermal, "coherent": Coherent, "fock": Fock}[form](
            {"thermal": mean_n, "coherent": alpha0, "fock": n}[form]).coherence
    dist = ClassicalThermal(k_T) if form == "classical_thermal" else GaussianDist(
        0.5, -0.3, *widths)
    return lambda omega_t, beta: dist.concurrence(omega_t, ModelParams(1.0, beta))


# the fields the examples below share, on the grid of a CLI job with omega = 1
# and 7 points over [0, 6]; each example is an input whose closed form once
# gave NaN, a warning or an OverflowError there
TYPICAL = dict(mean_n=1.0, alpha0=0j, n=2, k_T=1.0, widths=(1.0, 1.0),
               omega_t=np.linspace(0.0, 6.0, 7))


class TestEveryClosedFormAtItsLimit:
    @settings(max_examples=150, deadline=None)
    @given(form=st.sampled_from(["thermal", "coherent", "fock", "classical_thermal",
                                 "gaussian"]),
           beta=log_uniform(1e-3, 1.7e308),
           mean_n=st.one_of(st.just(0.0), log_uniform(1e-3, 1e300)),
           alpha0=st.one_of(st.just(0j), st.complex_numbers(
               max_magnitude=10.0, allow_nan=False, allow_infinity=False)),
           n=st.integers(0, 20),
           k_T=log_uniform(1e-3, 1e200),
           widths=st.tuples(log_uniform(1e-3, 1e200), log_uniform(1e-3, 1e200)),
           omega_t=st.builds(lambda end, points: np.linspace(0.0, end, points),
                             st.one_of(st.floats(0.1, 60.0), st.floats(-60.0, -0.1)),
                             st.integers(2, 24)))
    @example(form="thermal", beta=1e200, **{**TYPICAL, "mean_n": 0.0})
    @example(form="coherent", beta=1.7e308, **{**TYPICAL, "alpha0": 1.0 + 0.5j})
    @example(form="coherent", beta=1.7e308, **TYPICAL)
    @example(form="gaussian", beta=1e308, **TYPICAL)
    @example(form="gaussian", beta=0.1, **{**TYPICAL, "widths": (1e200, 1.0)})
    @example(form="gaussian", beta=0.0, **{**TYPICAL, "widths": (1e200, 1.0)})
    def test_values_are_finite_bounded_and_one_at_t_zero(self, form, beta, mean_n, alpha0,
                                                         n, k_T, widths, omega_t):
        # with no warning, at any coupling a float can hold; a float omega t
        # gives the bits of the 0-d array call
        f = closed_form(form, mean_n, alpha0, n, k_T, widths)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.asarray(f(omega_t, beta))
            scalars = [(complex(f(float(wt), beta)), complex(f(np.array(wt), np.float64(beta))))
                       for wt in omega_t]
        assert np.isfinite(values).all()
        assert np.abs(values).max() <= 1.0
        assert values[0] == 1.0 and scalars[0][0] == 1.0
        for fast, slow in scalars:
            assert fast == slow and np.isfinite(fast)
            assert np.array_equal(np.signbit([fast.real, fast.imag]),
                                  np.signbit([slow.real, slow.imag]))


class TestNumberStatesAtAnyCoupling:
    @pytest.mark.parametrize("n, beta, expected", [
        (2000, 4.70, 0.014304154866373409),    # x/2 = 706.9
        (400, 4.75, -0.030936633227057121),
        (10000, 5.0, -0.0070630994467346431),  # x/2 = 800: e^{-x/2} underflows
        (10000, 2.0, -0.0090196539230375418),
    ])
    def test_matches_the_extended_precision_value(self, n, beta, expected):
        # L_n(x) e^{-x/2} at x = (8 beta)^2, omega t = pi, from mpmath at 60
        # digits; the product of L_n(x) and the envelope overflows on the
        # first three.  A scalar and an array take the same scaling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = Fock(n).coherence(math.pi, beta)
            array = Fock(n).coherence(np.array([0.0, math.pi]), beta)
        assert scalar.real == pytest.approx(expected, abs=1e-14) and scalar.imag == 0.0
        assert array[0] == 1.0 and array[1].real == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("n, beta", [(2, 1e100), (400, 1e10), (40, 12.0)])
    def test_a_finite_argument_past_the_range_gives_zero(self, n, beta):
        # |L_n(x) e^{-x/2}| <= (1 + x)^n e^{-x/2}, under the least subnormal
        # here, where the recurrence itself would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Fock(n).coherence(math.pi, beta) == 0.0
            assert Fock(n).coherence(np.array([0.0, 1.0, math.pi]), beta).tolist() == [
                1.0, 0.0, 0.0]

    def test_scaled_laguerre_keeps_the_plain_recurrence_where_it_fits(self):
        # no term passes 2^500 here, so nothing is scaled, and a numpy scalar
        # and an array entry run the same numpy arithmetic
        x = np.random.default_rng(2).uniform(0.0, 60.0, 200)
        for n in (0, 1, 2, 7, 30):
            values, k = _scaled_laguerre(n, x)
            assert not k.any()
            assert [_scaled_laguerre(n, v)[0] for v in x] == values.tolist()
        # past it a scalar is scaled where an array of its x alone is
        value, k = _scaled_laguerre(300, np.float64(1500.0))
        values, ks = _scaled_laguerre(300, np.array([1500.0]))
        assert k > 0 and (value, k) == (values[0], ks[0])

    @pytest.mark.parametrize("spec", [Thermal(2.3), Coherent(1.2 - 0.7j), Fock(10)],
                             ids=["thermal", "coherent", "fock"])
    def test_python_floats_match_numpy_scalars_bit_for_bit(self, spec):
        # a float time and coupling and a 0-d array both run on numpy's
        # float64 scalars: the same operations, so the same bits
        rng = np.random.default_rng(4)
        for omega_t, beta in zip(rng.uniform(-20.0, 20.0, 300), rng.uniform(0.0, 3.0, 300)):
            fast = spec.coherence(float(omega_t), float(beta))
            slow = spec.coherence(np.array(omega_t), np.float64(beta))
            assert complex(fast) == complex(slow)
            assert math.copysign(1.0, complex(fast).real) == math.copysign(1.0, complex(slow).real)


class TestHalfAngleTangent:
    def test_matches_long_double_cos_and_sin(self):
        # the oracle's phases reach thousands of radians; numpy's tan
        # reduces its argument as exactly as cos and sin do
        rng = np.random.default_rng(3)
        magnitude = np.concatenate([10.0 ** rng.uniform(-300.0, 9.0, 20000),
                                    rng.uniform(0.0, 1e9, 20000),
                                    rng.uniform(0.0, 3e3, 20000)])
        theta = magnitude * rng.choice([-1.0, 1.0], magnitude.size)
        cos, sin = cos_sin_of_halves(theta / 2.0, np.empty_like(theta))
        exact = theta.astype(np.longdouble)
        assert np.abs(cos - np.cos(exact)).max() <= 1e-15
        assert np.abs(sin - np.sin(exact)).max() <= 1e-15

    def test_works_in_place_and_a_zero_angle_is_exact(self):
        half, sin = np.array([0.0, -0.0, math.pi / 4.0]), np.full(3, np.nan)
        cos, out = cos_sin_of_halves(half, sin)
        assert cos is half and out is sin
        assert cos[:2].tolist() == [1.0, 1.0] and sin[:2].tolist() == [0.0, 0.0]
        np.testing.assert_allclose([cos[2], sin[2]], [0.0, 1.0], rtol=0, atol=1e-15)


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

    def test_coherence_kinds_are_the_m_plus_minus_one_pair(self):
        # the two kinds that live on |1,1> and |1,-1> carry I(t)
        for kind in BELL_KINDS:
            on_pair = np.allclose(np.abs(JM_FROM_EG @ bell_vector(kind))[[0, 3]], 0.5 ** 0.5)
            assert on_pair == (kind in COHERENCE_KINDS)


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

    @pytest.mark.parametrize("alpha", [0.4, 3.0j, -10.0, 25.0 * np.exp(0.7j)])
    def test_coherent_column_matches_the_gammaln_reference(self, alpha):
        weights, cols = Coherent(alpha).fock_columns(900)
        np.testing.assert_array_equal(weights, [1.0])
        np.testing.assert_allclose(cols[:, 0], poisson_column(alpha, 900), rtol=0,
                                   atol=1e-13)
        # about half the population sits above level |alpha|^2
        with pytest.raises(TruncationError, match="tail population"):
            Coherent(alpha).fock_columns(max(2, math.ceil(abs(alpha) ** 2)))

    @pytest.mark.parametrize("spec", [Fock(2000), Coherent(0.0)], ids=["fock", "vacuum"])
    def test_a_number_state_column_is_built_alone(self, spec):
        # a 2100 x 2100 identity is 35 MB; the column is 16.8 kB
        tracemalloc.start()
        try:
            weights, cols = spec.fock_columns(2100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        np.testing.assert_array_equal(weights, [1.0])
        np.testing.assert_array_equal(cols, np.eye(2100)[:, [getattr(spec, "n_index", 0)]])

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
