"""Classical-oscillator counterpart of the quantum model.

The cavity mode is replaced by a classical trajectory (q(t), p(t)) of unit
mass, and the qubits evolve under the resulting time-dependent field.  For
the Bell states studied here <sx1 + sx2> vanishes, so the oscillator is not
driven back and runs free; the pair correlator

    <S+1 S+2>(t) = -1/2 exp(8i beta sqrt(2 omega) q0 sin^2(omega t/2))
                        exp(-4i beta sqrt(2/omega) p0 sin(omega t))

stays on the circle of radius 1/2, and 2 |<S+1 S+2>| plays the role of the
concurrence.  Averaging over a phase-space distribution of initial
conditions is what damps it.

Units are those of the quantum engines, hbar = 1, and like the quantum
closed forms these hold only at omega0 = 0: the two public entry points
raise ``ValueError`` otherwise.  Gaussian widths follow the un-doubled
convention exp(-(q - q0)^2 / dq^2), i.e. variance dq^2 / 2.

A Monte Carlo estimate runs on the calling thread, one time point after
another, in real arithmetic: each sample's cos phi and sin phi come from
u = tan(phi/2) through :func:`tc2q.model.cos_sin_of_halves`, the kernel the
oracle reads its phases with, since numpy's float64 tan is far cheaper than
its complex exp or its sin and cos.  The output depends only on the
ensemble, the times, the sample count and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, at_limit, clamp_unit, cos_sin_of_halves, squared


# Each ensemble carries its artifact ``label``, its closed-form ensemble
# average ``concurrence(t, params)`` of 2 |<S+1 S+2>(t)|, and
# ``monte_carlo(times, ...)``: the sampled estimate and its standard error at
# every entry of the array ``times``, from one set of initial conditions.


@dataclass(frozen=True)
class DeltaDist:
    """A single classical initial condition (q0, p0)."""

    q0: float
    p0: float

    label = "deltadist"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q0) and math.isfinite(self.p0)):
            raise ValueError(f"q0, p0 must be finite, got ({self.q0!r}, {self.p0!r})")

    def concurrence(self, t, params: ModelParams):
        """A single trajectory keeps modulus 1/2, so C = 1 exactly."""
        return clamp_unit(np.ones_like(np.asarray(t, dtype=float)))

    def monte_carlo(self, times, params, n_samples, seed) -> tuple:
        # every sample is the same trajectory: modulus exactly 1/2, variance 0
        return np.ones(times.shape), np.zeros(times.shape)


@dataclass(frozen=True)
class GaussianDist:
    """Gaussian phase-space weight exp(-(q-q_bar)^2/dq^2 - (p-p_bar)^2/dp^2)."""

    q_bar: float
    p_bar: float
    delta_q: float
    delta_p: float

    label = "gaussiandist"

    def __post_init__(self) -> None:
        for name in ("q_bar", "p_bar", "delta_q", "delta_p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.delta_q <= 0 or self.delta_p <= 0:
            raise ValueError("delta_q and delta_p must be positive")

    def concurrence(self, t, params: ModelParams):
        """C(t) = exp(-32 beta^2 sin^4(wt/2) omega dq^2)
                * exp(-8 beta^2 sin^2(wt) dp^2 / omega),

        independent of the mean (q_bar, p_bar), which only rotates the phase.
        Where the exponent overflows, C is at its limit (:func:`~tc2q.model.at_limit`).
        """
        s = np.sin(params.omega * np.asarray(t, dtype=float) / 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = _phase_coefficients(t, params)
            value = np.exp(-(_spread(a, self.delta_q) + _spread(b, self.delta_p)) / 4.0)
        return clamp_unit(at_limit(s, value, value))

    def monte_carlo(self, times, params, n_samples, seed) -> tuple:
        rng = np.random.default_rng(seed)
        # exp(-(q-q_bar)^2/dq^2) is a normal with standard deviation dq/sqrt(2)
        q0 = rng.normal(self.q_bar, self.delta_q / math.sqrt(2.0), n_samples)
        p0 = rng.normal(self.p_bar, self.delta_p / math.sqrt(2.0), n_samples)
        # finite scales, then (|a| max|q0| + |b| max|p0|) / 2 bound the half phases
        for name, scale in _phase_scales(params).items():
            if not math.isfinite(scale):
                raise OverflowError(f"{name} is not finite for omega = {params.omega!r}, "
                                    f"lambda = {params.lambda_!r}")
        q_max, p_max = float(np.abs(q0).max()), float(np.abs(p0).max())
        value = np.empty(times.shape)
        std_error = np.empty(times.shape)
        cos, sin = np.empty(n_samples), np.empty(n_samples)
        for i, t in enumerate(times.flat):
            a, b = _phase_coefficients(float(t), params)
            if not math.isfinite(abs(float(a)) / 2.0 * q_max + abs(float(b)) / 2.0 * p_max):
                raise OverflowError(f"the sampled phase a q0 + b p0 is not finite at t = "
                                    f"{t:g}: max |q0| = {q_max!r}, max |p0| = {p_max!r}")
            # u = tan(phi/2), phi = a q0 + b p0: halving a and b is exact, so
            # phi/2 carries the bits of phi
            np.multiply(a / 2.0, q0, out=cos)
            np.multiply(b / 2.0, p0, out=sin)
            np.add(cos, sin, out=cos)
            cos_sin_of_halves(cos, sin)
            # the total T of the correlators -1/2 exp(i phi)
            t_r, t_i = -0.5 * float(cos.sum()), -0.5 * float(sin.sum())
            value.flat[i] = min(2.0 * math.hypot(t_r, t_i) / n_samples, 1.0)
            # the leave-one-out estimates are 2 |T - z_j| / (n - 1), and as
            # |z_j| = 1/2, |T - z_j|^2 = |T|^2 + 1/4 + T_r cos phi_j + T_i sin phi_j
            np.multiply(t_r, cos, out=cos)
            np.multiply(t_i, sin, out=sin)
            np.add(cos, sin, out=cos)
            np.add(cos, t_r * t_r + t_i * t_i + 0.25, out=cos)
            np.maximum(cos, 0.0, out=cos)
            np.sqrt(cos, out=cos)
            np.subtract(cos, cos.mean(), out=cos)
            # einsum's own loop: np.dot would hand the sum to BLAS, which
            # splits it by its thread count
            spread = float(np.einsum("i,i->", cos, cos))
            std_error.flat[i] = 2.0 / (n_samples - 1) * math.sqrt(
                (n_samples - 1) / n_samples * spread)
        return value, std_error


@dataclass(frozen=True)
class ClassicalThermal:
    """Classical thermal ensemble at temperature k_T (energy units)."""

    k_T: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.k_T) or self.k_T <= 0:
            raise ValueError(f"k_T must be finite and > 0, got {self.k_T!r}")

    @property
    def label(self) -> str:
        return f"classical_thermal(k_T={self.k_T:g})"

    def concurrence(self, t, params: ModelParams):
        """C(t) = exp(-64 beta^2 sin^2(wt/2) k_T / omega).

        Equipartition widths make the sin^4 and sin^2 cos^2 exponents of the
        Gaussian form recombine into a single sin^2.  Where the exponent
        overflows, C is at its limit (:func:`~tc2q.model.at_limit`).
        """
        s = np.sin(params.omega * np.asarray(t, dtype=float) / 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.exp(-64.0 * squared(params.beta) * s * s * self.k_T / params.omega)
        return clamp_unit(at_limit(s, value, value))

    def monte_carlo(self, times, params, n_samples, seed) -> tuple:
        # the Boltzmann weight exp(-(p^2 + omega^2 q^2) / (2 k_T)) is the
        # centred Gaussian with equipartition widths (sqrt(2 k_T)/omega, sqrt(2 k_T))
        width = math.sqrt(2.0 * self.k_T)
        return GaussianDist(0.0, 0.0, width / params.omega, width).monte_carlo(
            times, params, n_samples, seed)


def minimum_uncertainty_widths(params: ModelParams) -> tuple:
    """Widths (sqrt(1/omega), sqrt(omega)) mimicking a coherent state."""
    return math.sqrt(1.0 / params.omega), math.sqrt(params.omega)


def _spread(coefficient, width):
    """coefficient^2 width^2, bit for bit, but (coefficient width)^2 where that
    is 0 times an overflowed width^2, which has no value."""
    value = coefficient ** 2 * squared(width)
    return np.where(np.isnan(value), (coefficient * width) ** 2, value)


def _phase_scales(params: ModelParams) -> dict:
    """The bounds on |a| and |b| of :func:`_phase_coefficients`, by name."""
    return {"8 beta sqrt(2 omega)": 8.0 * params.beta * math.sqrt(2.0 * params.omega),
            "4 beta sqrt(2/omega)": 4.0 * params.beta * math.sqrt(2.0 / params.omega)}


def _phase_coefficients(t, params: ModelParams):
    """(a, b) such that the correlator phase is a * q0 + b * p0."""
    wt = params.omega * np.asarray(t, dtype=float)
    scale_a, scale_b = _phase_scales(params).values()
    return scale_a * np.sin(wt / 2.0) ** 2, -scale_b * np.sin(wt)


def mc_peak_bytes(samples: int) -> int:
    """Bytes a Monte Carlo estimate holds at its peak with ``samples`` draws.

    q0 and p0 and the two float buffers of the kernel make 32 bytes per
    sample.  1 MiB more covers what does not grow with the samples:
    numpy.random's import on first use (about 0.7 MB under tracemalloc) and
    the job's other state (about 0.2 MB).
    """
    return 32 * samples + 2 ** 20


def classical_concurrence(dist, t, params: ModelParams):
    """Ensemble-averaged 2 |<S+1 S+2>(t)| in closed form: ``dist.concurrence``."""
    params.require_degenerate()
    return dist.concurrence(t, params)


def monte_carlo_classical_concurrence(dist, t, params: ModelParams, n_samples: int,
                                      seed: int) -> tuple:
    """Monte Carlo estimate (value, std_error) of the ensemble concurrence.

    Estimator: 2 |mean of the sampled correlator|, with a jackknife standard
    error.  Taking the modulus after averaging is what the closed form does;
    the estimator is biased only at the O(1/n) noise floor.  ``t`` may be a
    scalar, giving two floats, or an array, giving two arrays: the samples
    are drawn once and reused at every time (common random numbers), so each
    entry equals the scalar call at that time.  Fixed (dist, t, n_samples,
    seed) reproduces bit-identical results.  A sampled phase past the float
    range raises ``OverflowError``.
    """
    params.require_degenerate()
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    times = np.asarray(t, dtype=float)
    value, std_error = dist.monte_carlo(times, params, int(n_samples), seed)
    if times.ndim == 0:
        return float(value), float(std_error)
    return value, std_error
