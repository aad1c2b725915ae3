"""Two qubits in a degenerate cavity: exact dynamics, oracle, and classical limit.

Quick tour::

    import math
    from tc2q import ModelParams, Thermal, coherence_integral
    params = ModelParams(omega=1.0, lambda_=0.1)
    abs(coherence_integral(Thermal(2.0), math.pi, params))   # concurrence

Oscillator preparations and their closed forms live in :mod:`tc2q.model`,
the overlap integral I(t) in :mod:`tc2q.analytic`, the truncated-Fock-space
cross-check in :mod:`tc2q.oracle`, the classical-oscillator comparison in
:mod:`tc2q.classical`, and the CLI in :mod:`tc2q.cli`.
"""

__version__ = "0.1.0"

from .model import Coherent, ExplicitDensity, Fock, ModelParams, Thermal
from .analytic import coherence_integral
from .oracle import oracle_concurrence_series

__all__ = [
    "__version__",
    "Coherent", "ExplicitDensity", "Fock", "ModelParams", "Thermal",
    "coherence_integral", "oracle_concurrence_series",
]
