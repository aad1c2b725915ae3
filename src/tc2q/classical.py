"""Classical-oscillator counterpart of the quantum model.

The cavity mode is replaced by a classical trajectory (q(t), p(t)) of unit
mass, and the qubits evolve under the resulting time-dependent field.  For
the Bell states studied here <sx1 + sx2> vanishes, so the oscillator is not
driven back and runs free; the pair correlator

    <S+1 S+2>(t) = -1/2 exp(8i beta sqrt(2 omega/hbar) q0 sin^2(omega t/2))
                        exp(-4i beta sqrt(2/(hbar omega)) p0 sin(omega t))

stays on the circle of radius 1/2, and 2 |<S+1 S+2>| plays the role of the
concurrence.  Averaging over a phase-space distribution of initial
conditions is what damps it.

hbar appears explicitly because the classical limit is taken per-term; it
defaults to 1 to match the quantum engines.  Gaussian widths follow the
un-doubled convention exp(-(q - q0)^2 / dq^2), i.e. variance dq^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import ModelParams, clamp_unit

DEFAULT_HBAR = 1.0


# Each ensemble carries its artifact ``label``, its closed-form ensemble
# average ``concurrence(t, params, hbar)`` of 2 |<S+1 S+2>(t)|, and
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

    def concurrence(self, t, params: ModelParams, hbar: float = DEFAULT_HBAR):
        """A single trajectory keeps modulus 1/2, so C = 1 exactly."""
        one = np.ones_like(np.asarray(t, dtype=float))
        return float(one) if one.ndim == 0 else one

    def monte_carlo(self, times, params, n_samples, seed, hbar) -> tuple:
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

    def concurrence(self, t, params: ModelParams, hbar: float = DEFAULT_HBAR):
        """C(t) = exp(-32 beta^2 sin^4(wt/2) omega dq^2 / hbar)
                * exp(-8 beta^2 sin^2(wt) dp^2 / (hbar omega)),

        independent of the mean (q_bar, p_bar), which only rotates the phase.
        """
        a, b = _phase_coefficients(t, params, hbar)
        out = np.exp(-(a ** 2 * self.delta_q ** 2 + b ** 2 * self.delta_p ** 2) / 4.0)
        return clamp_unit(out)

    def monte_carlo(self, times, params, n_samples, seed, hbar) -> tuple:
        rng = np.random.default_rng(seed)
        # exp(-(q-q_bar)^2/dq^2) is a normal with standard deviation dq/sqrt(2)
        q0 = rng.normal(self.q_bar, self.delta_q / math.sqrt(2.0), n_samples)
        p0 = rng.normal(self.p_bar, self.delta_p / math.sqrt(2.0), n_samples)
        value = np.empty(times.shape)
        std_error = np.empty(times.shape)
        for idx, t in np.ndenumerate(times):
            z = s_plus_correlator(q0, p0, float(t), params, hbar)
            total = z.sum()
            value[idx] = np.clip(2.0 * abs(total) / n_samples, 0.0, 1.0)
            leave_one_out = 2.0 * np.abs(total - z) / (n_samples - 1)
            std_error[idx] = math.sqrt((n_samples - 1) / n_samples * float(
                ((leave_one_out - leave_one_out.mean()) ** 2).sum()))
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

    def concurrence(self, t, params: ModelParams, hbar: float = DEFAULT_HBAR):
        """C(t) = exp(-64 beta^2 sin^2(wt/2) k_T / (hbar omega)).

        Equipartition widths make the sin^4 and sin^2 cos^2 exponents of the
        Gaussian form recombine into a single sin^2.
        """
        s = np.sin(params.omega * np.asarray(t, dtype=float) / 2.0)
        return clamp_unit(np.exp(-64.0 * params.beta ** 2 * s * s * self.k_T
                                 / (hbar * params.omega)))

    def monte_carlo(self, times, params, n_samples, seed, hbar) -> tuple:
        return classical_thermal_dist(self.k_T, params).monte_carlo(
            times, params, n_samples, seed, hbar)


PhaseSpaceDist = Union[DeltaDist, GaussianDist, ClassicalThermal]


def thermal_widths(k_T: float, params: ModelParams) -> tuple:
    """Equipartition widths (dq, dp) = (sqrt(2 k_T)/omega, sqrt(2 k_T))."""
    k_T = ClassicalThermal(k_T).k_T
    return math.sqrt(2.0 * k_T) / params.omega, math.sqrt(2.0 * k_T)


def minimum_uncertainty_widths(params: ModelParams,
                               hbar: float = DEFAULT_HBAR) -> tuple:
    """Widths (sqrt(hbar/omega), sqrt(hbar omega)) mimicking a coherent state."""
    return math.sqrt(hbar / params.omega), math.sqrt(hbar * params.omega)


def classical_thermal_dist(k_T: float, params: ModelParams) -> GaussianDist:
    dq, dp = thermal_widths(k_T, params)
    return GaussianDist(0.0, 0.0, dq, dp)


def classical_trajectory(q0: float, p0: float, t, params: ModelParams):
    """Free evolution (q, p) of the undriven unit-mass oscillator."""
    wt = params.omega * np.asarray(t, dtype=float)
    q = q0 * np.cos(wt) + (p0 / params.omega) * np.sin(wt)
    p = p0 * np.cos(wt) - params.omega * q0 * np.sin(wt)
    if wt.ndim == 0:
        return float(q), float(p)
    return q, p


def _phase_coefficients(t, params: ModelParams, hbar: float):
    """(a, b) such that the correlator phase is a * q0 + b * p0."""
    wt = params.omega * np.asarray(t, dtype=float)
    a = 8.0 * params.beta * math.sqrt(2.0 * params.omega / hbar) * np.sin(wt / 2.0) ** 2
    b = -4.0 * params.beta * math.sqrt(2.0 / (hbar * params.omega)) * np.sin(wt)
    return a, b


def s_plus_correlator(q0: float, p0: float, t, params: ModelParams,
                      hbar: float = DEFAULT_HBAR):
    """<S+1 S+2>(t) for the initial value -1/2 set by (|eg>+|ge>)/sqrt(2).

    The modulus is exactly 1/2 for every trajectory; only the accumulated
    phase -4 lambda sqrt(2/(hbar omega)) * integral of p depends on (q0, p0).
    """
    a, b = _phase_coefficients(t, params, hbar)
    out = -0.5 * np.exp(1j * (a * q0 + b * p0))
    return complex(out) if np.asarray(out).ndim == 0 else out


def classical_concurrence(dist: PhaseSpaceDist, t, params: ModelParams,
                          hbar: float = DEFAULT_HBAR):
    """Ensemble-averaged 2 |<S+1 S+2>(t)| in closed form: ``dist.concurrence``."""
    return dist.concurrence(t, params, hbar)


def monte_carlo_classical_concurrence(dist: PhaseSpaceDist, t, params: ModelParams,
                                      n_samples: int, seed: int,
                                      hbar: float = DEFAULT_HBAR) -> tuple:
    """Monte Carlo estimate (value, std_error) of the ensemble concurrence.

    Estimator: 2 |mean of the sampled correlator|, with a jackknife standard
    error.  Taking the modulus after averaging is what the closed form does;
    the estimator is biased only at the O(1/n) noise floor.  ``t`` may be a
    scalar, giving two floats, or an array, giving two arrays: the samples
    are drawn once and reused at every time (common random numbers), so each
    entry equals the scalar call at that time.  Fixed (dist, t, n_samples,
    seed) reproduces bit-identical results.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    times = np.asarray(t, dtype=float)
    value, std_error = dist.monte_carlo(times, params, int(n_samples), seed, hbar)
    if times.ndim == 0:
        return float(value), float(std_error)
    return value, std_error
