"""Closed-form overlap integral for the degenerate (omega0 = 0) model.

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
The concurrence is |I(t)|.  The closed forms of I for thermal, coherent and
number states live on the preparations in :mod:`tc2q.model`;
:func:`coherence_integral` dispatches to them and :func:`analytic_series` puts
them on a time grid.  The sector picture also gives :func:`predicted_spectrum`.

Scalar ``t`` arguments may also be 1-d arrays; results broadcast.
"""

from __future__ import annotations

import numpy as np

from .model import BELL_KINDS, COHERENCE_KINDS, ModelParams, OscillatorSpec, check_dim, clamp_unit
from .series import ConcurrenceSeries, _finite_1d


def coherence_integral(spec: OscillatorSpec, t, params: ModelParams):
    """The overlap integral I(t) controlling the off-diagonal qubit coherence.

    Each preparation supplies its closed form as ``spec.coherence``; an
    :class:`~tc2q.model.ExplicitDensity` has none and must go through the
    Fock-space oracle.  The concurrence of psi_plus and phi_plus is |I(t)|.
    Raises ``ValueError`` unless ``params.omega0`` is 0.
    """
    try:
        closed_form = spec.coherence
    except AttributeError:
        raise TypeError(f"not an oscillator spec: {spec!r}") from None
    params.require_degenerate()
    out = closed_form(params.omega * np.asarray(t, dtype=float)[()], params.beta)
    return out if getattr(out, "ndim", 0) else complex(out)


def analytic_series(qubit_init: str, spec: OscillatorSpec, times: np.ndarray,
                    params: ModelParams) -> ConcurrenceSeries:
    """The closed-form series of ``qubit_init`` (x) ``spec``: I = u + iv and
    C = |I| for psi_plus and phi_plus, C = 1 and no I for the stationary
    kinds.  Raises ``ValueError`` unless ``params.omega0`` is 0."""
    if qubit_init not in BELL_KINDS:
        raise ValueError(f"qubit_init must be one of {BELL_KINDS}, got {qubit_init!r}")
    params.require_degenerate()
    times = _finite_1d("t", times)
    conc, u, v = np.ones_like(times), None, None
    if qubit_init in COHERENCE_KINDS:
        i_t = coherence_integral(spec, times, params)
        conc, u, v = clamp_unit(np.abs(i_t)), i_t.real.copy(), i_t.imag.copy()
    return ConcurrenceSeries(engine="analytic", t=times, omega_t=params.omega * times,
                             concurrence=conc, u=u, v=v,
                             meta={"engine": "analytic", "oscillator": spec.label})


def predicted_spectrum(params: ModelParams, dim: int) -> np.ndarray:
    """Sorted degenerate-model eigenvalues {omega (N - 4 m^2 beta^2)}.

    Each oscillator level N contributes the pair m = +-1 at
    omega (N - 4 beta^2) and the two m = 0 states at omega N.
    Raises ``ValueError`` unless ``params.omega0`` is 0.
    """
    dim = check_dim(dim)
    params.require_degenerate()
    n = np.arange(dim, dtype=float)
    shifted = params.omega * (n - 4.0 * params.beta ** 2)
    flat = params.omega * n
    return np.sort(np.concatenate([shifted, shifted, flat, flat]))
