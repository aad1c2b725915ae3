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

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

BELL_KINDS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")

#: slack accepted when clamping a concurrence back into [0, 1]
CLAMP_SLACK = 1e-9

#: population a preparation may leave above the truncated Fock space
TAIL_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the coupled system.

    Parameters
    ----------
    omega : float
        Cavity frequency, > 0.
    lambda_ : float
        Qubit-cavity coupling, real and >= 0, with lambda_/omega finite.
    omega0 : float
        Qubit splitting.  The closed forms, quantum and classical, hold
        only at the degenerate point omega0 = 0 and raise ``ValueError``
        through :meth:`require_degenerate` for anything else; the
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
        if not math.isfinite(self.beta):
            raise ValueError(f"beta = lambda/omega must be finite, got "
                             f"{self.lambda_!r}/{self.omega!r}")

    @property
    def beta(self) -> float:
        """Dimensionless coupling lambda/omega."""
        return self.lambda_ / self.omega

    def require_degenerate(self) -> None:
        """Raise ``ValueError`` unless omega0 = 0, where the closed forms hold."""
        if self.omega0 != 0.0:
            raise ValueError(f"omega0 must be 0 for the closed forms, got {self.omega0}; "
                             "only the oracle engine models omega0 > 0")


def clamp_unit(value):
    """Clamp concurrences in [-CLAMP_SLACK, 0) or (1, 1+CLAMP_SLACK] onto [0, 1].

    Larger excursions and non-finite values raise ``ValueError``; round-off
    is silently repaired.  Accepts scalars or arrays.
    """
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite concurrence: {value!r}")
    if np.any(arr < -CLAMP_SLACK) or np.any(arr > 1.0 + CLAMP_SLACK):
        raise ValueError(
            f"concurrence outside [0, 1] beyond the {CLAMP_SLACK:g} clamp slack: "
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


# --- Bell states ------------------------------------------------------------

_BELL_EG = {
    "psi_plus": np.array([0.0, 1.0, 1.0, 0.0]) * _S,
    "psi_minus": np.array([0.0, 1.0, -1.0, 0.0]) * _S,
    "phi_plus": np.array([1.0, 0.0, 0.0, 1.0]) * _S,
    "phi_minus": np.array([1.0, 0.0, 0.0, -1.0]) * _S,
}


def bell_vector(kind: str) -> np.ndarray:
    """Real state vector of a Bell state."""
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {BELL_KINDS}, got {kind!r}")
    return _BELL_EG[kind].copy()


# --- oscillator preparations ------------------------------------------------
#
# Each preparation carries everything the engines need to know about it:
#
# * ``label``: short tag used in sweep tables, logs and artifact metadata;
# * ``reach``: (phase-space radius, highest occupied Fock level), which sizes
#   the oracle's truncation rule;
# * ``tail_level`` (thermal only): the least dim at which ``fock_columns``
#   accepts the geometric tail, a floor under that rule, which falls short
#   of it past mean_n ~ 17;
# * ``fock_columns(dim)``: weights w_k and orthonormal Fock-basis columns c_k
#   with F = sum_k w_k c_k c_k^dagger, the pure states the oracle evolves;
#   real for thermal and number states and for an explicit density with no
#   imaginary part, so the oracle reads them out in real arithmetic;
# * ``coherence(omega_t, beta)``: the closed-form overlap integral I, which
#   broadcasts over both arguments (see :mod:`tc2q.analytic`).


class TruncationError(RuntimeError):
    """The chosen Fock-space dimension cannot support the requested state."""


def check_dim(dim: int) -> int:
    """``dim`` as an int, or ``ValueError`` unless it is an integer >= 2."""
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    return int(dim)


def f_phase(omega_t, alpha: complex):
    """The real phase kernel sin(wt/2) * (alpha* e^{i wt/2} + alpha e^{-i wt/2}).

    ``omega_t`` is the dimensionless product omega * t.
    """
    omega_t = np.asarray(omega_t, dtype=float)[()]
    return np.sin(omega_t / 2.0) * 2.0 * (complex(alpha) * np.exp(-0.5j * omega_t)).real


#: |L| past which the Laguerre recurrence scales its two terms by 2^-500
_LAGUERRE_CEILING = 2.0 ** 500
_LOG_CEILING = 500.0 * math.log(2.0)

#: a bound on log |L_n(x) e^{-x/2}| below which the product rounds to 0:
#: under log(2^-1074) = -744.4, the least subnormal, with room
_LOG_UNDERFLOW = -800.0


def _scaled_laguerre(n: int, x):
    """(L, k) with L_n(x) = L 2^(500 k), by the stable three-term recurrence.

    Wherever |L| is seen past 2^500 both terms are scaled by 2^-500, exactly,
    and k counts it, so L stays finite where L_n(x) would overflow.  ``x`` is
    a numpy float64 scalar or array and runs elementwise.
    """
    prev, cur, k = 0.0, np.ones(x.shape)[()], np.zeros(x.shape, dtype=int)
    # a step grows the larger term at most (3 + |x|) fold, so no term passes
    # 2^500 before step `stride`, and terms looked at every `stride` steps
    # stay under 2^1000 in between
    stride = max(1, int(500.0 / math.log2(
        3.0 + np.fmax.reduce(abs(x), axis=None, initial=0.0))))
    for j in range(n):
        prev, cur = cur, ((2.0 * j + 1.0 - x) * cur - j * prev) / (j + 1.0)
        if j >= stride and j % stride == 0 and np.count_nonzero(
                big := (abs(prev) > _LAGUERRE_CEILING) | (abs(cur) > _LAGUERRE_CEILING)):
            scale = np.where(big, 1.0 / _LAGUERRE_CEILING, 1.0)
            prev, cur, k = prev * scale, cur * scale, k + big
    return cur, k


def _laguerre_decay(n: int, x, envelope):
    """L_n(x) e^{-x/2} for x >= 0, with ``envelope`` e^{-x/2} as the caller
    rounds it; a non-finite x is read as 0, where the envelope's limit is
    the value.

    Where the recurrence stays under 2^500 this is L_n(x) * ``envelope``,
    bit for bit.  Past it the envelope may have underflowed where L_n(x)
    overflows, yet |L_n(x) e^{-x/2}| <= 1 (Szego, *Orthogonal Polynomials*,
    7.21): the scaled L takes the exponent as exp(500 k ln 2 - x/2).  Where
    |L_n(x)| <= (1 + x)^n puts the product under e^-800 the envelope is 0,
    and the recurrence, which would overflow at such an x, runs on 0.
    """
    # False where x is not finite, as where the product is under e^-800
    keep = n * np.log1p(x) - x / 2.0 >= _LOG_UNDERFLOW
    value, k = _scaled_laguerre(n, np.where(keep, x, 0.0)[()])
    out = value * envelope
    if np.count_nonzero(k):
        out = np.where(k == 0, out, value * np.exp(k * _LOG_CEILING - x / 2.0))
    return out


def squared(beta):
    """``beta ** 2`` as numpy's float64 power: libm ``pow`` for a scalar, as
    Python's float ``**``, but inf with an overflow warning where that raises
    ``OverflowError``; x * x for an array."""
    return np.float64(beta) ** 2


def at_limit(s, envelope, value):
    """A closed form's ``value`` at s = sin(omega t/2), bit for bit, where it is
    finite.  Else its limit: 1 at s = 0, as every I and C is 1 at t = 0, and 0
    where ``envelope`` = exp(-c s^2) >= |value| has underflowed as c s^2
    overflowed.  Any other non-finite value stays, so a real failure shows."""
    if not isinstance(value, np.ndarray) and cmath.isfinite(value):
        return value  # a scalar's fast path
    return np.select([np.isfinite(value), s == 0.0, envelope == 0.0], [value, 1.0, 0.0], value)


def cos_sin_of_halves(half: np.ndarray, sin: np.ndarray):
    """cos and sin of the angles 2 ``half``, in place: with u = tan(half),
    cos = 2/(1 + u^2) - 1 is left in ``half`` and sin = u 2/(1 + u^2) in
    ``sin``, a float buffer of its shape.  numpy's SIMD tan is far cheaper
    than its cos and sin at large angles, and angle 0 gives exactly (1, 0)."""
    np.tan(half, out=sin)
    np.square(sin, out=half)
    np.add(half, 1.0, out=half)
    np.divide(2.0, half, out=half)
    np.multiply(sin, half, out=sin)
    np.subtract(half, 1.0, out=half)
    return half, sin


def _fock_vector(n: int, dim: int) -> np.ndarray:
    if n >= dim:
        raise TruncationError(f"number state n={n} needs dim > {n}")
    return np.eye(dim)[:, [n]]


@dataclass(frozen=True)
class Thermal:
    """Bose-Einstein mixture with mean photon number ``mean_n`` >= 0."""

    mean_n: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean_n) or self.mean_n < 0:
            raise ValueError(f"mean_n must be finite and >= 0, got {self.mean_n!r}")
        # a float, whatever number type it came as, as Coherent keeps a complex
        object.__setattr__(self, "mean_n", float(self.mean_n))

    @property
    def label(self) -> str:
        return f"thermal(mean_n={self.mean_n:g})"

    @property
    def reach(self) -> tuple:
        return 4.0 * math.sqrt(self.mean_n), 0

    @property
    def tail_level(self) -> int:
        """The least dim at which the tail check of :meth:`fock_columns` passes."""
        if self.mean_n == 0.0:
            return 1
        ratio = self.mean_n / (1.0 + self.mean_n)
        if ratio == 1.0:
            raise TruncationError(f"thermal mean_n={self.mean_n:g} leaves tail "
                                  f"population 1 at every dim")
        level = math.ceil(math.log(TAIL_TOL) / math.log(ratio))
        # the logarithms may land one level off the power the check evaluates
        if ratio ** (level - 1) <= TAIL_TOL:
            level -= 1
        elif ratio ** level > TAIL_TOL:
            level += 1
        return level

    def fock_columns(self, dim: int):
        """Geometric occupations on the number states, tail population < 1e-12."""
        ratio = self.mean_n / (1.0 + self.mean_n)
        tail = ratio ** dim
        if tail > TAIL_TOL:
            raise TruncationError(
                f"thermal mean_n={self.mean_n:g} leaves tail population "
                f"{tail:.3e} > 1e-12 at dim={dim}")
        weights = (1.0 - ratio) * ratio ** np.arange(dim)
        weights /= weights.sum()
        # the weights fall with n, so those left where they underflow to 0
        # are the first levels'; each column is stored contiguously
        weights = weights[weights > 0.0]
        return weights, np.eye(dim, weights.size, order="F")

    def coherence(self, omega_t, beta):
        """I = exp(-32 beta^2 sin^2(wt/2) (1 + 2 mean_n)), real (:func:`at_limit`)."""
        s = np.sin(np.asarray(omega_t, dtype=float)[()] / 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = np.exp(-32.0 * squared(beta) * s * s)
            value = envelope * np.exp(-64.0 * squared(beta) * self.mean_n * s * s) + 0j
        return at_limit(s, envelope, value)


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
        log_factorial = np.array([math.lgamma(k + 1.0) for k in range(dim)])
        log_mag = n * math.log(abs(a)) - 0.5 * log_factorial - 0.5 * abs(a) ** 2
        vec = np.exp(log_mag) * np.exp(1j * np.angle(a) * n)
        tail = 1.0 - float(np.sum(np.abs(vec) ** 2))
        if tail > TAIL_TOL:
            raise TruncationError(
                f"coherent |alpha0|={abs(a):g} leaves tail population "
                f"{tail:.3e} > 1e-12 at dim={dim}")
        return np.array([1.0]), (vec / np.linalg.norm(vec))[:, None]

    def coherence(self, omega_t, beta):
        """I = exp(-32 beta^2 sin^2(wt/2)) exp(-8i beta f(wt, alpha0)) (:func:`at_limit`).

        The amplitude only rotates the phase, so |I| does not depend on it.
        """
        s = np.sin(np.asarray(omega_t, dtype=float)[()] / 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = np.exp(-32.0 * squared(beta) * s * s)
            value = envelope * np.exp(-8j * beta * f_phase(omega_t, self.alpha0))
        return at_limit(s, envelope, value)


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
        """I = L_n(x) exp(-x/2) with x = (8 beta sin(wt/2))^2, real, finite where
        L_n(x) overflows, and at its limit (:func:`at_limit`) where x does."""
        s = np.sin(np.asarray(omega_t, dtype=float)[()] / 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = np.exp(-32.0 * squared(beta) * s * s)
            value = _laguerre_decay(self.n_index, squared(8.0 * beta * s), envelope) + 0j
        return at_limit(s, envelope, value)


@dataclass(frozen=True)
class ExplicitDensity:
    """An arbitrary oscillator density matrix, handled only by the oracle.

    The matrix is stored as float64 when its imaginary part is exactly zero,
    and as complex128 otherwise.
    """

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
        if not m.imag.any():
            # real Fock columns, which the oracle reads out in real arithmetic
            m = m.real.copy()
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
        rho = np.zeros((dim, dim), dtype=self.matrix.dtype)
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
