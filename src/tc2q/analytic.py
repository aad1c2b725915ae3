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
:func:`coherence_integral` dispatches to them.

Scalar ``t`` arguments may also be 1-d arrays; results broadcast.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import ModelParams, NondegenerateParamsWarning, OscillatorSpec


def _require_degenerate(params: ModelParams) -> None:
    if params.omega0 != 0.0:
        warnings.warn(
            f"omega0 = {params.omega0:g} ignored: the closed-form engine models the "
            "degenerate point omega0 = 0 (use the oracle engine for omega0 > 0)",
            NondegenerateParamsWarning,
            stacklevel=3,
        )


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
