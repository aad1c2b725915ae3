"""Independent reference routes that the tests check the package against.

None of this is used by the CLI or the engines.  Each function reaches a
quantity the package computes by a different road: branch evolution of
coherent states, the Fourier transform of the P function, an exact
rational-arithmetic binomial sum, a matrix-exponential displacement, the
Poisson amplitudes of a coherent state through scipy's log-gamma, the
partial trace of a composite density matrix, the dense Hamiltonian with a
per-time propagation in its eigenbasis, the resonant Tavis-Cummings closed
form that H approaches in the rotating-wave limit, the connected components
of a graph by a Python union-find, the concurrence of an X state without an
eigensolver, the free classical trajectory and its complex correlator, and
the Monte Carlo estimate in long double with the leave-one-out moduli formed
directly.
It also holds the validated two-qubit density container, the single-time
oracle state, the rotation of the oracle's states to eg and the two-route
tolerance that only the tests use.
The module has no ``test_`` prefix, so pytest imports it from the test
files and does not collect it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_laguerre, gammaln

from tc2q.analytic import coherence_integral
from tc2q.classical import ClassicalThermal, GaussianDist, _phase_coefficients
from tc2q.model import (
    Coherent,
    Fock,
    ModelParams,
    OscillatorSpec,
    TruncationError,
    bell_vector,
    check_dim,
    clamp_unit,
    f_phase,
)
from tc2q.oracle import _reduced_states

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_JM_LEVELS = ((1, 1), (1, 0), (0, 0), (1, -1))


def two_route_tolerance(omega: float, t) -> float:
    """The gate between the closed forms and the oracle on the time grid ``t``:
    1e-13 (1 + omega max|t|), as the round-off of the two routes grows with the
    span.  At omega = 1 over 4 pi the tests' gaps are at most 8.8e-15, a
    margin of over 150."""
    return 1e-13 * (1.0 + omega * float(np.abs(t).max()))


@dataclass(frozen=True)
class QubitDensity:
    """A validated two-qubit density matrix in the eg ordering.

    numpy reads it as its matrix, so :func:`tc2q.oracle.wootters_concurrence`
    takes one as it stands.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("density matrix has non-finite entries")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError(f"density matrix trace {np.trace(m)} is not 1 within 1e-12")
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if w.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {w.min():.3e} < -1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)


def eg_states(rho, params: ModelParams) -> np.ndarray:
    """``rho``, a stack of the oracle's reduced states in its frame's product
    basis, in the eg ordering: at omega0 = 0 that basis is xx, which
    H (x) H takes to eg; otherwise it is eg already."""
    if params.omega0 != 0.0:
        return rho
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    both = np.kron(hadamard, hadamard)
    return both @ rho @ both


def oracle_reduced_density(qubit_init: str, spec: OscillatorSpec, t: float,
                           params: ModelParams, dim: int | None = None) -> QubitDensity:
    """Reduced qubit state at a single time, in eg, straight through the full model."""
    _, rho, _, _ = _reduced_states(qubit_init, spec, np.array([float(t)]), params, dim)
    return QubitDensity(eg_states(rho, params)[0])


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
    params.require_degenerate()
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
    params.require_degenerate()
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
    """P~(k1, k2) = L_n((k1^2 + k2^2) / 4), with scipy's Laguerre polynomial."""
    n = Fock(n_index).n_index

    def p_tilde(k1, k2):
        return eval_laguerre(n, (np.asarray(k1) ** 2 + np.asarray(k2) ** 2) / 4.0)

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
    params.require_degenerate()
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

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
_EYE2 = np.eye(2, dtype=complex)


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def dense_hamiltonian(params: ModelParams, dim: int) -> np.ndarray:
    """Dense H = (omega0/2)(sz1+sz2) + omega adag a + lambda (a+adag)(sx1+sx2),
    in the eg ordering, qubit-major."""
    dim = check_dim(dim)
    a = _destroy(dim)
    number = a.conj().T @ a
    sx_sum = np.kron(_SIGMA_X, _EYE2) + np.kron(_EYE2, _SIGMA_X)
    sz_sum = np.kron(_SIGMA_Z, _EYE2) + np.kron(_EYE2, _SIGMA_Z)
    h = (params.omega * np.kron(np.eye(4, dtype=complex), number)
         + params.lambda_ * np.kron(sx_sum, a + a.conj().T))
    if params.omega0 != 0.0:
        h = h + (0.5 * params.omega0) * np.kron(sz_sum, np.eye(dim, dtype=complex))
    return h


def dense_reduced_states(qubit_init: str, spec: OscillatorSpec, times, params: ModelParams,
                         dim: int):
    """Reduced qubit states (T, 4, 4) and top-two-level leakage (T,) by
    diagonalising the dense Hamiltonian once and propagating each weighted
    pure column to every grid time."""
    dim = check_dim(dim)
    times = np.asarray(times, dtype=float)
    energies, modes = np.linalg.eigh(dense_hamiltonian(params, dim))
    weights, columns = spec.fock_columns(dim)
    coeff = modes.conj().T @ np.kron(bell_vector(qubit_init)[:, None], columns)
    rho = np.empty((times.size, 4, 4), dtype=complex)
    leak = np.empty(times.size)
    for idx, t in enumerate(times):
        psi_t = (modes @ (np.exp(-1j * energies * t)[:, None] * coeff)).reshape(4, dim, -1)
        rho_q = np.einsum("ank,bnk,k->ab", psi_t, psi_t.conj(), weights)
        rho[idx] = (rho_q + rho_q.conj().T) / 2.0
        leak[idx] = np.einsum("ank,k->", np.abs(psi_t[:, -2:, :]) ** 2, weights)
    return rho, leak


# --- the rotating-wave limit ------------------------------------------------------

def _tavis_cummings_manifold(level: int, start: str, times, params: ModelParams):
    """Amplitudes of |ee, N-2>, |T0, N-1>, |gg, N> at ``times``, N = ``level``,
    from |ee, N-2> (``start`` "ee") or from |gg, N> (``start`` "gg").

    The coupling is Omega (|T0><B| + |B><T0|), with the bright state
    |B> = (a |ee> + b |gg>) / Omega; the dark state
    |D> = (b |ee> - a |gg>) / Omega does not move, and the three share the
    bare energy omega (N - 1)."""
    a = params.lambda_ * math.sqrt(2.0 * max(level - 1, 0))
    b = params.lambda_ * math.sqrt(2.0 * level)
    rabi = math.hypot(a, b)
    phase = np.exp(-1j * params.omega * (level - 1) * times)
    if rabi == 0.0:  # N = 0: |gg, 0> alone, an eigenstate
        return phase * np.array([[0.0], [0.0], [1.0]])
    cos, sin = np.cos(rabi * times), np.sin(rabi * times)
    x, y = (a, b) if start == "ee" else (b, a)
    near = (y * y + x * x * cos) / rabi ** 2
    middle = -1j * x * sin / rabi
    far = x * y * (cos - 1.0) / rabi ** 2
    return phase * np.array([near, middle, far] if start == "ee" else [far, middle, near])


def tavis_cummings_phi_plus_fock(n_index: int, times, params: ModelParams) -> np.ndarray:
    """Reduced qubit states (T, 4, 4), in eg, of phi_plus (x) |n> under the
    resonant Tavis-Cummings Hamiltonian, the rotating-wave limit of H at
    omega0 = omega (Tavis & Cummings, Phys. Rev. 170, 379 (1968)):

        H_RWA = omega adag a + (omega/2)(sz1 + sz2) + lambda sum_i (a s+_i + adag s-_i).

    H_RWA conserves N = adag a plus the number of excited qubits.  In
    manifold N the triplet states |ee, N-2>, |T0, N-1> and |gg, N>, with
    T0 = (|eg> + |ge>)/sqrt(2), couple through a = lambda sqrt(2(N-1)) and
    b = lambda sqrt(2N); the eigenvalues are 0 and +-Omega,
    Omega = lambda sqrt(2(2N-1)), and the singlet is dark.  |ee, n> lies in
    N = n + 2 and |gg, n> in N = n, so the state is a closed form in each.
    The counter-rotating terms the RWA drops move the states by O(lambda/omega)
    over one period 2 pi/Omega (Bloch & Siegert, Phys. Rev. 57, 522 (1940)).
    """
    if params.omega0 != params.omega:
        raise ValueError(f"the Tavis-Cummings closed form needs omega0 = omega, "
                         f"got {params.omega0} and {params.omega}")
    times = np.asarray(times, dtype=float)
    psi = np.zeros((times.size, 4, n_index + 3), dtype=complex)
    half = 1.0 / math.sqrt(2.0)
    for level, start in ((n_index + 2, "ee"), (n_index, "gg")):
        ee, triplet, gg = half * _tavis_cummings_manifold(level, start, times, params)
        for label, amplitude, fock in ((0, ee, level - 2), (1, half * triplet, level - 1),
                                       (2, half * triplet, level - 1), (3, gg, level)):
            if fock >= 0:
                psi[:, label, fock] += amplitude
    return psi @ psi.conj().swapaxes(-1, -2)


def union_find_labels(size: int, rows, cols) -> np.ndarray:
    """Connected component of each of ``size`` nodes joined by the edges
    (rows, cols), by a Python union-find with path halving; components are
    numbered by their lowest node."""
    parent = list(range(size))

    def root(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()):
        a, b = root(a), root(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return np.unique([root(node) for node in range(size)], return_inverse=True)[1]


def x_state_concurrence(rho) -> np.ndarray:
    """Concurrence of two-qubit X states (only the diagonal and the
    anti-diagonal nonzero, in a product basis), shaped (..., 4, 4):
    2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44)),
    with no eigensolver (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007))."""
    rho = np.asarray(rho)
    p = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, None)
    return 2.0 * np.maximum(0.0, np.maximum(
        np.abs(rho[..., 0, 3]) - np.sqrt(p[..., 1] * p[..., 2]),
        np.abs(rho[..., 1, 2]) - np.sqrt(p[..., 0] * p[..., 3])))


def displaced_number_state(n_index: int, m: int, params: ModelParams,
                           dim: int) -> np.ndarray:
    """|N_m> = D(-2 m beta) |N> via the exact matrix exponential.

    The truncated generator is still anti-Hermitian, so the exponential is
    exactly unitary and norm is useless as a truncation diagnostic; instead
    the population stuck in the top two ladder rungs is checked.
    """
    dim = check_dim(dim)
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


def poisson_column(alpha: complex, dim: int) -> np.ndarray:
    """The coherent state |alpha> on the first ``dim`` Fock levels, normalised:
    alpha^n e^{-|alpha|^2/2} / sqrt(n!), with log n! from scipy's gammaln."""
    n = np.arange(dim)
    log_mag = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0) - 0.5 * abs(alpha) ** 2
    vec = np.exp(log_mag) * np.exp(1j * np.angle(alpha) * n)
    return vec / np.linalg.norm(vec)


def partial_trace_oscillator(rho: np.ndarray, dim: int) -> np.ndarray:
    """Trace out the oscillator factor of a (4 dim) x (4 dim) composite matrix."""
    dim = check_dim(dim)
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


def s_plus_correlator(q0: float, p0: float, t, params: ModelParams):
    """<S+1 S+2>(t) for the initial value -1/2 set by (|eg>+|ge>)/sqrt(2).

    The modulus is exactly 1/2 for every trajectory; only the accumulated
    phase -4 lambda sqrt(2/omega) * integral of p depends on (q0, p0).
    """
    a, b = _phase_coefficients(t, params)
    out = -0.5 * np.exp(1j * (a * q0 + b * p0))
    return complex(out) if np.asarray(out).ndim == 0 else out


def monte_carlo_long_double(dist, times, params: ModelParams, n_samples: int, seed: int):
    """(value, std_error) of a Gaussian or classical thermal ensemble at
    every entry of ``times``: 2 |mean of the correlator| and its jackknife
    error, from one draw of ``n_samples`` initial conditions.  The phases
    a q0 + b p0 are the engine's float64 ones; their cosines and sines, the
    sums and the leave-one-out moduli |T - z_j| are taken in long double
    (80-bit on x86-64)."""
    if isinstance(dist, ClassicalThermal):
        width = math.sqrt(2.0 * dist.k_T)
        dist = GaussianDist(0.0, 0.0, width / params.omega, width)
    rng = np.random.default_rng(seed)
    q0 = rng.normal(dist.q_bar, dist.delta_q / math.sqrt(2.0), n_samples)
    p0 = rng.normal(dist.p_bar, dist.delta_p / math.sqrt(2.0), n_samples)
    times = np.asarray(times, dtype=float)
    value = np.empty(times.shape)
    std_error = np.empty(times.shape)
    n = np.longdouble(n_samples)
    for idx, t in np.ndenumerate(times):
        a, b = _phase_coefficients(float(t), params)
        phase = (a * q0 + b * p0).astype(np.longdouble)
        z = -0.5 * (np.cos(phase) + 1j * np.sin(phase))
        total = z.sum()
        value[idx] = min(float(2 * abs(total) / n), 1.0)
        leave_one_out = 2 * np.abs(total - z) / (n - 1)
        std_error[idx] = float(np.sqrt((n - 1) / n * (
            (leave_one_out - leave_one_out.mean()) ** 2).sum()))
    return value, std_error
