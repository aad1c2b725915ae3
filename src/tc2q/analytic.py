"""Closed-form evolution and concurrence for the degenerate (omega0 = 0) model.

With omega0 = 0 the Hamiltonian commutes with the collective sigma_x, so each
|j,m> qubit sector sees a displaced oscillator.  A coherent state stays
coherent inside a sector and only picks up an m-dependent trajectory and
phase; everything below follows from that single fact.

For the Bell state (|e,g> + |g,e>)/sqrt(2) the reduced qubit state depends on
one complex number, the overlap integral

    I(t) = integral d^2alpha P(alpha) exp(-8i beta f(omega t, alpha))
           * exp(-32 beta^2 sin^2(omega t / 2)),

where P is the Glauber-Sudarshan function of the initial oscillator state and
f(omega t, alpha) = sin(omega t/2) (alpha* e^{i omega t/2} + alpha e^{-i omega t/2}).
The concurrence is |I(t)|, which reduces to the modulus of the Fourier
transform of P evaluated on a circle of radius 16 beta sin(omega t / 2).
The closed forms of I for thermal, coherent and number states live on the
preparations in :mod:`tc2q.model`; the Fourier route below (``p_tilde_*``,
:func:`concurrence_general`) is kept as an independent reference.

Scalar ``t`` arguments may also be 1-d arrays; results broadcast.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .model import (
    Coherent,
    Fock,
    ModelParams,
    NondegenerateParamsWarning,
    OscillatorSpec,
    QubitDensity,
    clamp_unit,
    f_phase,
    laguerre,
)

_JM_LEVELS = ((1, 1), (1, 0), (0, 0), (1, -1))


def _require_degenerate(params: ModelParams) -> None:
    if params.omega0 != 0.0:
        warnings.warn(
            f"omega0 = {params.omega0:g} ignored: the closed-form engine models the "
            "degenerate point omega0 = 0 (use the oracle engine for omega0 > 0)",
            NondegenerateParamsWarning,
            stacklevel=3,
        )


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
    (alpha + 2 beta_m) e^{-i omega t} - 2 beta_m and the branch acquires the
    phase exp(-2i beta_m f(omega t, alpha)) exp(4i beta_m^2 (omega t - sin omega t)).
    """
    if tuple(jm) not in _JM_LEVELS:
        raise ValueError(f"jm must be one of {_JM_LEVELS}, got {jm!r}")
    _require_degenerate(params)
    alpha = complex(alpha)
    m = jm[1]
    bm = params.beta_m(m)
    wt = params.omega * t
    alpha_t = (alpha + 2.0 * bm) * np.exp(-1j * wt) - 2.0 * bm
    phase = np.exp(-2j * bm * f_phase(wt, alpha)) * np.exp(4j * bm * bm * (wt - np.sin(wt)))
    return CoherentBranch(tuple(jm), complex(alpha_t), complex(phase))


def coherence_integral(spec: OscillatorSpec, t, params: ModelParams):
    """The overlap integral I(t) controlling the off-diagonal qubit coherence.

    Each preparation supplies its closed form as ``spec.coherence``; an
    :class:`~tc2q.model.ExplicitDensity` has none and must go through the
    Fock-space oracle.  The concurrence of psi_plus and phi_plus is |I(t)|.
    """
    try:
        closed_form = spec.coherence
    except AttributeError:
        raise TypeError(f"not an oscillator spec: {spec!r}") from None
    _require_degenerate(params)
    out = closed_form(params.omega * np.asarray(t, dtype=float), params.beta)
    return complex(out) if out.ndim == 0 else out


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


# --- transformed P functions for the three standard preparations ------------

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
