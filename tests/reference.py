"""Independent reference routes that the tests check the package against.

None of this is used by the CLI or the engines.  Each function reaches a
quantity the package computes by a different road: branch evolution of
coherent states, the Fourier transform of the P function, an exact
rational-arithmetic binomial sum, a matrix-exponential displacement, the
partial trace of a composite density matrix, and the free classical
trajectory.  The module has no ``test_`` prefix, so pytest imports it from
the test files and does not collect it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.linalg import expm

from tc2q.analytic import _require_degenerate, coherence_integral
from tc2q.model import (
    Coherent,
    Fock,
    ModelParams,
    OscillatorSpec,
    QubitDensity,
    TruncationError,
    bell_vector,
    clamp_unit,
    f_phase,
    laguerre,
)
from tc2q.oracle import _check_dim, _destroy

_JM_LEVELS = ((1, 1), (1, 0), (0, 0), (1, -1))


def bell_state(kind: str) -> QubitDensity:
    """Density matrix of a Bell state."""
    v = bell_vector(kind)
    return QubitDensity(np.outer(v, v.conj()))


# --- branch evolution in the collective basis --------------------------------

@dataclass(frozen=True)
class CoherentBranch:
    """One |j,m> sector of an evolved product state |j,m> (x) |alpha>."""

    jm: tuple
    alpha_t: complex
    phase: complex


def evolve_product_state(jm: tuple, alpha: complex, t: float,
                         params: ModelParams) -> CoherentBranch:
    """Exact evolution of |j,m> (x) |alpha> under the degenerate Hamiltonian.

    The oscillator part stays coherent with amplitude
    (alpha + 2 m beta) e^{-i omega t} - 2 m beta and the branch acquires the
    phase exp(-2i m beta f(omega t, alpha)) exp(4i (m beta)^2 (omega t - sin omega t)).
    """
    if tuple(jm) not in _JM_LEVELS:
        raise ValueError(f"jm must be one of {_JM_LEVELS}, got {jm!r}")
    _require_degenerate(params)
    alpha = complex(alpha)
    m = jm[1]
    bm = m * params.beta
    wt = params.omega * t
    alpha_t = (alpha + 2.0 * bm) * np.exp(-1j * wt) - 2.0 * bm
    phase = np.exp(-2j * bm * f_phase(wt, alpha)) * np.exp(4j * bm * bm * (wt - np.sin(wt)))
    return CoherentBranch(tuple(jm), complex(alpha_t), complex(phase))


def reduced_qubit_density_psi_plus(spec: OscillatorSpec, t: float,
                                   params: ModelParams) -> QubitDensity:
    """Reduced qubit state at time t for the initial Bell state (|eg>+|ge>)/sqrt(2).

    In the eg ordering the matrix is fully determined by u = Re I(t) and
    v = Im I(t):

        (1/4) [[1-u,  iv,   iv,  1-u],
               [-iv,  1+u,  1+u, -iv],
               [-iv,  1+u,  1+u, -iv],
               [1-u,  iv,   iv,  1-u]]
    """
    i_t = coherence_integral(spec, float(t), params)
    u, v = i_t.real, i_t.imag
    top, mid = 1.0 - u, 1.0 + u
    m = np.array([
        [top, 1j * v, 1j * v, top],
        [-1j * v, mid, mid, -1j * v],
        [-1j * v, mid, mid, -1j * v],
        [top, 1j * v, 1j * v, top],
    ]) / 4.0
    return QubitDensity(m)


# --- the Fourier route through the P function ----------------------------------

def fourier_arguments(t, params: ModelParams):
    """Arguments (k1, k2) at which the transformed P function is evaluated.

    k1 = 8 beta sin(omega t), k2 = 8 beta (cos(omega t) - 1); they satisfy
    k1^2 + k2^2 = (16 beta sin(omega t / 2))^2.
    """
    wt = params.omega * np.asarray(t, dtype=float)
    k1 = 8.0 * params.beta * np.sin(wt)
    k2 = 8.0 * params.beta * (np.cos(wt) - 1.0)
    if wt.ndim == 0:
        return float(k1), float(k2)
    return k1, k2


def concurrence_general(p_tilde: Callable, t, params: ModelParams):
    """Concurrence from the Fourier transform of an arbitrary P function.

    ``p_tilde(k1, k2)`` must implement
    integral dx dy P(x, y) exp(-i (k1 x + k2 y)) with alpha = x + i y.
    """
    _require_degenerate(params)
    k1, k2 = fourier_arguments(t, params)
    val = np.asarray(p_tilde(k1, k2), dtype=complex)
    if not (np.all(np.isfinite(val.real)) and np.all(np.isfinite(val.imag))):
        raise ValueError(f"p_tilde returned a non-finite value at k1={k1!r}, k2={k2!r}")
    s = np.sin(params.omega * np.asarray(t, dtype=float) / 2.0)
    return clamp_unit(np.abs(val) * np.exp(-32.0 * params.beta ** 2 * s * s))


def p_tilde_thermal(mean_n: float) -> Callable:
    """P~(k1, k2) = exp(-mean_n (k1^2 + k2^2) / 4)."""
    if not math.isfinite(mean_n) or mean_n < 0:
        raise ValueError(f"mean_n must be finite and >= 0, got {mean_n!r}")

    def p_tilde(k1, k2):
        return np.exp(-mean_n * (np.asarray(k1) ** 2 + np.asarray(k2) ** 2) / 4.0)

    return p_tilde


def p_tilde_coherent(alpha0: complex) -> Callable:
    """P~(k1, k2) = exp(-i (k1 Re alpha0 + k2 Im alpha0)), a pure phase."""
    a = complex(Coherent(alpha0).alpha0)

    def p_tilde(k1, k2):
        return np.exp(-1j * (np.asarray(k1) * a.real + np.asarray(k2) * a.imag))

    return p_tilde


def p_tilde_fock(n_index: int) -> Callable:
    """P~(k1, k2) = L_n((k1^2 + k2^2) / 4)."""
    n = Fock(n_index).n_index

    def p_tilde(k1, k2):
        return laguerre(n, (np.asarray(k1) ** 2 + np.asarray(k2) ** 2) / 4.0)

    return p_tilde


# --- the number-state overlap as an exact finite sum ---------------------------

def coherence_integral_fock_sum(n_index: int, t: float, params: ModelParams) -> complex:
    """Brute-force binomial sum for I(t) of a number state, summed exactly.

    Cross-check for ``Fock(n).coherence``: the same quantity written as

        sum_m C(n, m) / (n-m)! * (8i beta sin(wt/2))^{2(n-m)} * envelope.

    Terms alternate in sign and naive float summation loses about seven
    digits by n = 20, so the polynomial part is accumulated in exact
    rational arithmetic and rounded once at the end.
    """
    if not isinstance(n_index, (int, np.integer)) or n_index < 0:
        raise ValueError(f"n_index must be a non-negative integer, got {n_index!r}")
    _require_degenerate(params)
    n = int(n_index)
    wt = params.omega * float(t)
    base = 8.0 * params.beta * math.sin(wt / 2.0)
    y = Fraction(base) ** 2 if base != 0.0 else Fraction(0)
    total = Fraction(0)
    for m in range(n + 1):
        k = n - m
        # (8i beta sin)^2k = (-1)^k y^k
        total += Fraction((-1) ** k * math.comb(n, m), math.factorial(k)) * y ** k
    poly = float(total)
    if not math.isfinite(poly):
        raise OverflowError(f"binomial sum overflows float range at n_index={n}")
    return complex(poly * math.exp(-32.0 * params.beta ** 2 * math.sin(wt / 2.0) ** 2))


# --- Fock-space pieces the oracle no longer needs ------------------------------

def displaced_number_state(n_index: int, m: int, params: ModelParams,
                           dim: int) -> np.ndarray:
    """|N_m> = D(-2 m beta) |N> via the exact matrix exponential.

    The truncated generator is still anti-Hermitian, so the exponential is
    exactly unitary and norm is useless as a truncation diagnostic; instead
    the population stuck in the top two ladder rungs is checked.
    """
    dim = _check_dim(dim)
    if not isinstance(n_index, (int, np.integer)) or not (0 <= n_index < dim):
        raise ValueError(f"n_index must lie in [0, {dim}), got {n_index!r}")
    bm = m * params.beta
    a = _destroy(dim)
    vec = np.zeros(dim, dtype=complex)
    vec[int(n_index)] = 1.0
    if bm != 0.0:
        vec = expm(-2.0 * bm * (a.conj().T - a)) @ vec
    tail = float((np.abs(vec[-2:]) ** 2).sum())
    if tail > 1e-10:
        raise TruncationError(
            f"displaced |{int(n_index)}_{m:+d}> puts population {tail:.3e} in the "
            f"top rungs at dim={dim}; increase dim")
    return vec


def partial_trace_oscillator(rho: np.ndarray, dim: int) -> np.ndarray:
    """Trace out the oscillator factor of a (4 dim) x (4 dim) composite matrix."""
    dim = _check_dim(dim)
    rho = np.asarray(rho)
    if rho.shape != (4 * dim, 4 * dim):
        raise ValueError(f"expected shape {(4 * dim, 4 * dim)}, got {rho.shape}")
    return np.trace(rho.reshape(4, dim, 4, dim), axis1=1, axis2=3)


# --- the classical oscillator --------------------------------------------------

def classical_trajectory(q0: float, p0: float, t, params: ModelParams):
    """Free evolution (q, p) of the undriven unit-mass oscillator."""
    wt = params.omega * np.asarray(t, dtype=float)
    q = q0 * np.cos(wt) + (p0 / params.omega) * np.sin(wt)
    p = p0 * np.cos(wt) - params.omega * q0 * np.sin(wt)
    if wt.ndim == 0:
        return float(q), float(p)
    return q, p
