"""Brute-force cross-check engine on a truncated Fock space.

Nothing here calls the closed forms: of each oscillator preparation only its
truncation reach and its Fock-basis columns are used.  The full Hamiltonian
(including omega0) is built as a dense matrix on C^4 (x) C^dim, diagonalized
once, and states are propagated exactly in the eigenbasis.  Reduced qubit states then
go through the Wootters spin-flip construction.  Agreement with
:mod:`tc2q.analytic` is therefore a genuine two-route test.

The composite index is qubit-major: basis vector (q, n) sits at q * dim + n
with q running over the eg ordering.
"""

from __future__ import annotations

import math

import numpy as np

from . import series as _series
from .model import (
    BELL_KINDS,
    JM_FROM_EG,
    ModelParams,
    OscillatorSpec,
    QubitDensity,
    TruncationError,
    bell_vector,
    clamp_unit,
)

#: leakage (population of the top two Fock levels) above which a series row
#: is flagged, and above which the run is aborted
LEAK_FLAG = 1e-8
LEAK_ERROR = 1e-6

_COMPOSITE_TOL = 1e-9

#: matrices per batched LAPACK pass in :func:`wootters_concurrence`
_WOOTTERS_CHUNK = 256

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
_EYE2 = np.eye(2, dtype=complex)
_SIGMA_YY = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])  # sigma_y (x) sigma_y is real in the eg ordering


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def _check_dim(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    return int(dim)


def choose_dim(spec: OscillatorSpec, params: ModelParams) -> int:
    """Truncation rule sized from the displacement reach of the initial state.

    dim = max(20, ceil(s^2) + 10 ceil(s) + N + 10) with
    s = r + 4 beta and (r, N) = ``spec.reach``: r is |alpha0| for coherent
    states and 4 sqrt(mean_n) for thermal ones, N the highest occupied level.
    Convergence tests, not estimates, are the actual guarantee; this just has
    to land above the knee.
    """
    radius, top_level = spec.reach
    s = radius + 4.0 * params.beta
    return max(20, math.ceil(s * s) + 10 * math.ceil(s) + top_level + 10)


def build_hamiltonian(params: ModelParams, dim: int) -> np.ndarray:
    """Dense H = (omega0/2)(sz1+sz2) + omega adag a + lambda (a+adag)(sx1+sx2)."""
    dim = _check_dim(dim)
    a = _destroy(dim)
    number = a.conj().T @ a
    sx_sum = np.kron(_SIGMA_X, _EYE2) + np.kron(_EYE2, _SIGMA_X)
    sz_sum = np.kron(_SIGMA_Z, _EYE2) + np.kron(_EYE2, _SIGMA_Z)
    h = (params.omega * np.kron(np.eye(4, dtype=complex), number)
         + params.lambda_ * np.kron(sx_sum, a + a.conj().T))
    if params.omega0 != 0.0:
        h = h + (0.5 * params.omega0) * np.kron(sz_sum, np.eye(dim, dtype=complex))
    return h


def predicted_spectrum(params: ModelParams, dim: int) -> np.ndarray:
    """Sorted degenerate-model eigenvalues {omega (N - 4 m^2 beta^2)}.

    Each oscillator level N contributes the pair m = +-1 at
    omega (N - 4 beta^2) and the two m = 0 states at omega N.
    """
    dim = _check_dim(dim)
    params.require_degenerate()
    n = np.arange(dim, dtype=float)
    shifted = params.omega * (n - 4.0 * params.beta ** 2)
    flat = params.omega * n
    return np.sort(np.concatenate([shifted, shifted, flat, flat]))


def wootters_concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix in the eg ordering.

    ``rho`` is one 4x4 matrix, giving a float, or a stack of shape
    (..., 4, 4), giving an array of shape (...).  The spin-flip eigenvalues
    are computed as singular values of sqrt(rho) (sy (x) sy) sqrt(rho)*,
    which keeps the near-zero ones at machine precision where the textbook
    eigvals(rho rho~) route floors near 1e-8.
    """
    if isinstance(rho, QubitDensity):
        rho = rho.matrix
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix or a stack of them, "
                         f"got shape {rho.shape}")
    flat = rho.reshape(-1, 4, 4)
    conc = np.empty(flat.shape[0])
    # a chunk at a time, so the workspace stays a fixed size however long
    # the stack; each matrix still gets its own LAPACK call
    for start in range(0, flat.shape[0], _WOOTTERS_CHUNK):
        chunk = flat[start:start + _WOOTTERS_CHUNK]
        adjoint = chunk.conj().swapaxes(-1, -2)
        if np.abs(chunk - adjoint).max() > _COMPOSITE_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-9")
        w, vecs = np.linalg.eigh((chunk + adjoint) / 2.0)
        if w.min() < -_COMPOSITE_TOL:
            raise ValueError(f"density matrix has eigenvalue {w.min():.3e} below -1e-9")
        root = ((vecs * np.sqrt(np.clip(w, 0.0, None))[..., None, :])
                @ vecs.conj().swapaxes(-1, -2))
        lam = np.linalg.svd(root @ _SIGMA_YY @ root.conj(), compute_uv=False)
        conc[start:start + _WOOTTERS_CHUNK] = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    conc = conc.reshape(rho.shape[:-2])
    return clamp_unit(np.where(conc > 0.0, conc, 0.0))


def _reduced_states(qubit_init: str, spec: OscillatorSpec, times: np.ndarray,
                    params: ModelParams, dim: int | None):
    """dim (by default :func:`choose_dim`), the reduced qubit states on the
    time grid, shaped (T, 4, 4), and the leakage (the population of the top
    two Fock levels) at each time; leakage beyond 1e-6 raises
    :class:`TruncationError`.

    bell (x) F is split into weighted pure columns, each evolved in the
    eigenbasis.  The t = 0 state is checked on its factors: the Bell vector
    is a fixed unit vector, so the oscillator weights must be >= 0 and sum
    to 1 and its Fock columns must be orthonormal.
    """
    if dim is None:
        dim = choose_dim(spec, params)
    dim = _check_dim(dim)
    energies, modes = np.linalg.eigh(build_hamiltonian(params, dim))
    weights, columns = spec.fock_columns(dim)
    if weights.min() < 0.0 or abs(weights.sum() - 1.0) > _COMPOSITE_TOL:
        raise ValueError(f"oscillator weights must be >= 0 and sum to 1 within "
                         f"1e-9, got range [{weights.min():.3e}, {weights.max():.3e}] "
                         f"and sum {weights.sum():.12g}")
    gram = columns.conj().T @ columns
    if np.abs(gram - np.eye(weights.size)).max() > _COMPOSITE_TOL:
        raise ValueError("oscillator columns are not orthonormal within 1e-9")
    coeff = modes.conj().T @ np.kron(bell_vector(qubit_init)[:, None], columns)

    rho = np.empty((times.size, 4, 4), dtype=complex)
    leak = np.empty(times.size)
    for idx, t in enumerate(times):
        psi_t = (modes @ (np.exp(-1j * energies * t)[:, None] * coeff)).reshape(4, dim, -1)
        rho_q = np.einsum("ank,bnk,k->ab", psi_t, psi_t.conj(), weights)
        rho[idx] = (rho_q + rho_q.conj().T) / 2.0
        leak[idx] = np.einsum("ank,k->", np.abs(psi_t[:, -2:, :]) ** 2, weights)
    over = np.flatnonzero(leak > LEAK_ERROR)
    if over.size:
        first = over[0]
        raise TruncationError(
            f"leakage {leak[first]:.3e} > {LEAK_ERROR:g} at t={times[first]:g} with "
            f"dim={dim}; increase dim")
    return dim, rho, leak


def oracle_reduced_density(qubit_init: str, spec: OscillatorSpec, t: float,
                           params: ModelParams, dim: int | None = None) -> QubitDensity:
    """Reduced qubit state at a single time, straight through the full model."""
    _, rho, _ = _reduced_states(qubit_init, spec, np.array([float(t)]), params, dim)
    return QubitDensity(rho[0])


def oracle_concurrence_series(qubit_init: str, spec: OscillatorSpec,
                              times: np.ndarray, params: ModelParams,
                              dim: int | None = None) -> "_series.ConcurrenceSeries":
    """Concurrence on a time grid by exact propagation in the truncated space.

    The initial mixture is split into weighted pure states (exactly: thermal
    and number preparations are Fock-diagonal, coherent ones are pure) and
    each column is evolved in the eigenbasis, which is far cheaper than
    conjugating the full composite density at every grid point.  C, I and
    the leakage into the top two Fock levels are read off the stack of
    reduced states; leakage beyond 1e-6 anywhere aborts the run.
    """
    if qubit_init not in BELL_KINDS:
        raise ValueError(f"qubit_init must be one of {BELL_KINDS}, got {qubit_init!r}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    dim, rho, leak = _reduced_states(qubit_init, spec, times, params, dim)
    u = v = None
    if qubit_init in ("psi_plus", "phi_plus"):
        # I(t) is twice the (1,1)-(1,-1) coherence in the jm ordering
        sign = -1.0 if qubit_init == "psi_plus" else 1.0
        i_t = sign * 2.0 * (JM_FROM_EG @ rho @ JM_FROM_EG.T)[:, 0, 3]
        u, v = i_t.real, i_t.imag
    return _series.ConcurrenceSeries(
        engine="oracle",
        t=times,
        omega_t=params.omega * times,
        concurrence=wootters_concurrence(rho),
        u=u,
        v=v,
        leakage=leak,
        meta={
            "qubit_init": qubit_init,
            "oscillator": spec.label,
            "dim": dim,
            "params": {"omega": params.omega, "lambda": params.lambda_,
                       "omega0": params.omega0},
            "leakage_flagged": bool(np.any(leak > LEAK_FLAG)),
        },
    )
