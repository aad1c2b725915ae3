"""Parameters and state containers for two qubits coupled to one cavity mode.

The model is a pair of two-level systems coupled to a single harmonic
oscillator through sigma_x, without the rotating-wave approximation:

    H = (omega0/2) (sz1 + sz2) + omega * adag a + lambda (a + adag)(sx1 + sx2)

with hbar = 1 throughout the quantum engines.  The closed-form engine in
:mod:`tc2q.analytic` treats the degenerate case omega0 = 0, where the qubit
part of H is diagonal in the collective sigma_x eigenbasis.

Conventions
-----------
* sigma_z |e> = +|e>, sigma_z |g> = -|g>.
* |+-> = (|e> +- |g>) / sqrt(2), so sigma_x |+-> = +-|+->.
* Every 4x4 two-qubit matrix and 4-vector is in one ordering, the product
  basis |e,e>, |e,g>, |g,e>, |g,g>.  :data:`JM_FROM_EG` maps its components
  onto the eigenbasis of sx1 + sx2 with eigenvalue 2m, ordered
  |1,1>, |1,0>, |0,0>, |1,-1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammaln

BELL_KINDS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

#: slack accepted when clamping a concurrence back into [0, 1]
CLAMP_SLACK = 1e-9


class NondegenerateParamsWarning(UserWarning):
    """Raised when omega0 > 0 reaches an engine that only models omega0 = 0."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the coupled system.

    Parameters
    ----------
    omega : float
        Cavity frequency, > 0.
    lambda_ : float
        Qubit-cavity coupling, real and >= 0.
    omega0 : float
        Qubit splitting.  The closed-form engines require the degenerate
        point omega0 = 0 and warn when handed anything else; the
        Fock-space oracle honours omega0 exactly.
    """

    omega: float
    lambda_: float
    omega0: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("omega", self.omega), ("lambda_", self.lambda_),
                            ("omega0", self.omega0)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.lambda_ < 0:
            raise ValueError(f"lambda_ must be >= 0, got {self.lambda_}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")

    @property
    def beta(self) -> float:
        """Dimensionless coupling lambda/omega."""
        return self.lambda_ / self.omega


def clamp_unit(value, slack: float = CLAMP_SLACK, label: str = "concurrence"):
    """Clamp values in [-slack, 0) or (1, 1+slack] onto [0, 1].

    Larger excursions and non-finite values raise ``ValueError``; round-off
    is silently repaired.  Accepts scalars or arrays.
    """
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite {label}: {value!r}")
    if np.any(arr < -slack) or np.any(arr > 1.0 + slack):
        raise ValueError(
            f"{label} outside [0, 1] beyond the {slack:g} clamp slack: "
            f"range [{arr.min():.6g}, {arr.max():.6g}]")
    out = np.clip(arr, 0.0, 1.0)
    return float(out) if np.isscalar(value) or arr.ndim == 0 else out


# --- the collective basis --------------------------------------------------

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_S = 1.0 / math.sqrt(2.0)

# rows |1,1>, |1,0>, |0,0>, |1,-1> in terms of |++>, |+->, |-+>, |-->
_JM_FROM_XX = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, _S, _S, 0.0],
    [0.0, _S, -_S, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

#: real orthogonal map from eg components to jm components; built as a
#: product (per qubit, eg -> +- is the Hadamard) rather than typed out, since
#: its round-off entries reach the last bits of I(t)
JM_FROM_EG = _JM_FROM_XX @ np.kron(_HADAMARD, _HADAMARD)


@dataclass(frozen=True)
class QubitDensity:
    """A validated two-qubit density matrix in the eg ordering."""

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


# --- Bell states ------------------------------------------------------------

_BELL_EG = {
    "psi_plus": np.array([0.0, 1.0, 1.0, 0.0]) * _S,
    "psi_minus": np.array([0.0, 1.0, -1.0, 0.0]) * _S,
    "phi_plus": np.array([1.0, 0.0, 0.0, 1.0]) * _S,
    "phi_minus": np.array([1.0, 0.0, 0.0, -1.0]) * _S,
}


def bell_vector(kind: str) -> np.ndarray:
    """State vector of a Bell state."""
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {BELL_KINDS}, got {kind!r}")
    return _BELL_EG[kind].astype(complex)


# --- oscillator preparations ------------------------------------------------
#
# Each preparation carries everything the engines need to know about it:
#
# * ``label``: short tag used in sweep tables, logs and artifact metadata;
# * ``reach``: (phase-space radius, highest occupied Fock level), which sizes
#   the oracle's truncation rule;
# * ``fock_columns(dim)``: weights w_k and orthonormal Fock-basis columns c_k
#   with F = sum_k w_k c_k c_k^dagger, the pure states the oracle evolves;
# * ``coherence(omega_t, beta)``: the closed-form overlap integral I, which
#   broadcasts over both arguments (see :mod:`tc2q.analytic`).


class TruncationError(RuntimeError):
    """The chosen Fock-space dimension cannot support the requested state."""


def f_phase(omega_t, alpha: complex):
    """The real phase kernel sin(wt/2) * (alpha* e^{i wt/2} + alpha e^{-i wt/2}).

    ``omega_t`` is the dimensionless product omega * t.
    """
    omega_t = np.asarray(omega_t, dtype=float)
    alpha = complex(alpha)
    out = np.sin(omega_t / 2.0) * 2.0 * (alpha * np.exp(-0.5j * omega_t)).real
    return float(out) if out.ndim == 0 else out


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x) by the stable three-term recurrence."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return float(prev) if prev.ndim == 0 else prev
    cur = 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 - x) * cur - k * prev) / (k + 1.0)
    return float(cur) if cur.ndim == 0 else cur


def _half_sine(omega_t):
    return np.sin(np.asarray(omega_t, dtype=float) / 2.0)


def _envelope(s, beta):
    """Overlap of the two counter-displaced branches, exp(-32 beta^2 s^2)."""
    return np.exp(-32.0 * beta ** 2 * s * s)


def _fock_vector(n: int, dim: int) -> np.ndarray:
    if n >= dim:
        raise TruncationError(f"number state n={n} needs dim > {n}")
    return np.eye(dim, dtype=complex)[:, [n]]


@dataclass(frozen=True)
class Thermal:
    """Bose-Einstein mixture with mean photon number ``mean_n`` >= 0."""

    mean_n: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean_n) or self.mean_n < 0:
            raise ValueError(f"mean_n must be finite and >= 0, got {self.mean_n!r}")

    @property
    def label(self) -> str:
        return f"thermal(mean_n={self.mean_n:g})"

    @property
    def reach(self) -> tuple:
        return 4.0 * math.sqrt(self.mean_n), 0

    def fock_columns(self, dim: int):
        """Geometric occupations on the number states, tail population < 1e-12."""
        if self.mean_n == 0.0:
            return np.array([1.0]), _fock_vector(0, dim)
        ratio = self.mean_n / (1.0 + self.mean_n)
        tail = ratio ** dim
        if tail > 1e-12:
            raise TruncationError(
                f"thermal mean_n={self.mean_n:g} leaves tail population "
                f"{tail:.3e} > 1e-12 at dim={dim}")
        weights = (1.0 - ratio) * ratio ** np.arange(dim)
        weights /= weights.sum()
        keep = weights > 0.0
        return weights[keep], np.eye(dim, dtype=complex)[:, keep]

    def coherence(self, omega_t, beta):
        """I = exp(-32 beta^2 sin^2(wt/2) (1 + 2 mean_n)), real."""
        s = _half_sine(omega_t)
        return _envelope(s, beta) * np.exp(-64.0 * beta ** 2 * self.mean_n * s * s) + 0j


@dataclass(frozen=True)
class Coherent:
    """Coherent state |alpha0>."""

    alpha0: complex

    def __post_init__(self) -> None:
        a = complex(self.alpha0)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0!r}")
        object.__setattr__(self, "alpha0", a)

    @property
    def label(self) -> str:
        a = self.alpha0
        return f"coherent(alpha0={a.real:g}{a.imag:+g}j)"

    @property
    def reach(self) -> tuple:
        return abs(self.alpha0), 0

    def fock_columns(self, dim: int):
        """The single Poissonian column, tail population < 1e-12."""
        a = self.alpha0
        if a == 0:
            return np.array([1.0]), _fock_vector(0, dim)
        n = np.arange(dim)
        log_mag = n * math.log(abs(a)) - 0.5 * gammaln(n + 1.0) - 0.5 * abs(a) ** 2
        vec = np.exp(log_mag) * np.exp(1j * np.angle(a) * n)
        tail = 1.0 - float(np.sum(np.abs(vec) ** 2))
        if tail > 1e-12:
            raise TruncationError(
                f"coherent |alpha0|={abs(a):g} leaves tail population "
                f"{tail:.3e} > 1e-12 at dim={dim}")
        return np.array([1.0]), (vec / np.linalg.norm(vec))[:, None]

    def coherence(self, omega_t, beta):
        """I = exp(-32 beta^2 sin^2(wt/2)) exp(-8i beta f(wt, alpha0)).

        The amplitude only rotates the phase, so |I| does not depend on it.
        """
        s = _half_sine(omega_t)
        return _envelope(s, beta) * np.exp(-8j * beta * f_phase(omega_t, self.alpha0))


@dataclass(frozen=True)
class Fock:
    """Number state |n_index>."""

    n_index: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_index, (int, np.integer)) or self.n_index < 0:
            raise ValueError(f"n_index must be a non-negative integer, got {self.n_index!r}")

    @property
    def label(self) -> str:
        return f"fock(n={self.n_index})"

    @property
    def reach(self) -> tuple:
        return 0.0, self.n_index

    def fock_columns(self, dim: int):
        return np.array([1.0]), _fock_vector(self.n_index, dim)

    def coherence(self, omega_t, beta):
        """I = L_n((8 beta sin(wt/2))^2) exp(-32 beta^2 sin^2(wt/2)), real."""
        s = _half_sine(omega_t)
        return laguerre(self.n_index, (8.0 * beta * s) ** 2) * _envelope(s, beta) + 0j


@dataclass(frozen=True)
class ExplicitDensity:
    """An arbitrary oscillator density matrix, handled only by the oracle."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"oscillator density must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("oscillator density has non-finite entries")
        if np.abs(m - m.conj().T).max() > 1e-9:
            raise ValueError("oscillator density is not Hermitian within 1e-9")
        if abs(np.trace(m) - 1.0) > 1e-9:
            raise ValueError(f"oscillator density trace {np.trace(m)} is not 1 within 1e-9")
        if np.linalg.eigvalsh((m + m.conj().T) / 2.0).min() < -1e-9:
            raise ValueError("oscillator density has an eigenvalue below -1e-9")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def label(self) -> str:
        return f"explicit(dim={self.matrix.shape[0]})"

    @property
    def reach(self) -> tuple:
        return 0.0, self.matrix.shape[0]

    def fock_columns(self, dim: int):
        """Eigen-decomposition of the matrix embedded in the first Fock levels."""
        d = self.matrix.shape[0]
        if d > dim:
            raise TruncationError(f"explicit density of dim {d} does not fit in dim={dim}")
        rho = np.zeros((dim, dim), dtype=complex)
        rho[:d, :d] = self.matrix
        w, vecs = np.linalg.eigh(rho)
        keep = w > 1e-15
        return w[keep], vecs[:, keep]

    def coherence(self, omega_t, beta):
        raise TypeError("no closed form for an explicit oscillator density; "
                        "use the oracle engine")


OscillatorSpec = Union[Thermal, Coherent, Fock, ExplicitDensity]


def spec_label(spec: OscillatorSpec) -> str:
    """Short human-readable tag used in sweep tables and logs."""
    return spec.label
