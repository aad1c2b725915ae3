"""Brute-force cross-check engine on a truncated Fock space.

Nothing here calls the closed forms: of each oscillator preparation only its
truncation reach and its Fock-basis columns are used.  The full Hamiltonian
(including omega0) is written as a list of its nonzero entries on
C^4 (x) C^dim, after a fixed rotation of the qubit factor: the collective
jm basis at omega0 = 0, where sx1 + sx2 (so m) is conserved, and otherwise
the exchange basis |ee>, (|eg>+|ge>)/sqrt(2), (|eg>-|ge>)/sqrt(2), |gg>,
in which the parity (-1)^n sz1 sz2 is diagonal.  Neither symmetry is
imposed: the blocks are found as the connected components of the sparsity
graph, and only those the initial state populates are diagonalised, each by
a dense eigh unless it is 1 x 1.  Mirror pairs are found from the entries
too: at omega0 = 0 the m = +1 and m = -1 chains are h and S h S with
S = diag((-1)^n), the parity of the Rabi family, so only the first is
diagonalised and the second takes its energies and S V.  The phases of the
pair are then equal, and each distinct one is taken once.

The initial state bell (x) F is split into weighted pure columns.  With
V_k the real eigenvectors of block k, E_k its energies and C_k = V_k^T psi0,
the reduced qubit state is a sum of bilinear forms in the phases
phi_k(t) = exp(-i E_k t), one per pair of blocks (k, l):

    rho_ab(t) = sum_kl phi_k^T G_ab^kl phi_l*,
    G_ab^kl = (V_ka^T V_lb) o (C_k W C_l^dagger),

where V_ka holds the rows of block k with qubit label a.  psi0 is never
formed: row (q, n) of a column is the Bell amplitude of label q times row n
of the Fock column, so C_k = (amp[label] o V_k)^T F[fock].  The columns of
thermal and number states are real and each 1.0 on one Fock row, so they are
worked from those rows: they are orthonormal iff the rows are distinct, and
on a block in one label (whose Fock rows are distinct) C_k is a gather of
rows of amp o V_k.  Other columns, and the parity blocks at omega0 > 0
(where a Fock row lies under two labels), take the products.  V_ka^T V_lb sums
over the Fock rows n where (a, n) lies in k and (b, n) in l, so a form is
built only on the block pairs where they meet and some column reaches both
blocks.  On a block that lies in one label a, V_ka^T V_ka is the identity:
its share of rho_aa is the constant sum_j M_jj over its modes, added once.
So the forms read per time are the coherences (a != b), the populations of
blocks that mix labels (only the parity blocks at omega0 > 0 do), and each
block's leakage into the top two Fock levels; forms with one destination
that read the same phases (the leakage of the mirror chains) are summed into
one.  For gathered columns that sum is one chain's form doubled, built once:
the mirror's V is S V and S F = F diag(+-1), so with equal |amp| its C is
+-C column by column, and every term of its M and of its V^T V is the first
chain's, signs squared away (x + x = 2x exactly).  The forms are built once
and the time grid is read through them in fixed-size chunks of cos(Et) and
sin(Et), taken only on the phases some form reads, each block's in one
slice, from u = tan(Et/2) by
:func:`tc2q.model.cos_sin_of_halves`.  The frame and the Bell vectors are
real, so for a real psi0 (thermal and number states) every C_k and G_ab^kl
is real and is read with real products; a complex psi0 (coherent) keeps a
complex one.  The stack of reduced states is rotated back to the eg
ordering as (F^T rho) F, each factor one 2-D product over the whole stack,
and then goes through :func:`wootters_concurrence`.
A Bell state with a Fock column on rows of one parity is an eigenstate of
the parity (-1)^n sz1 sz2, so where H commutes with it every reduced state
is an X state: at omega0 > 0 the parity blocks leave its off-X entries
exactly 0, and at omega0 = 0 their round-off is set to 0 where eigenblocks
matched each populated chain to its mirror.  X states take the closed
form, the rest LAPACK's spin-flip eigenvalues.  Agreement with
:mod:`tc2q.analytic` is therefore a genuine two-route test.

The composite index is qubit-major: basis vector (q, n) sits at q * dim + n,
with q running over the four states of the qubit frame.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np

from . import series as _series
from .model import (
    BELL_KINDS,
    JM_FROM_EG,
    ModelParams,
    OscillatorSpec,
    TruncationError,
    bell_vector,
    check_dim,
    clamp_unit,
    cos_sin_of_halves,
)

#: leakage (population of the top two Fock levels) above which a series row
#: is flagged, and above which the run is aborted
LEAK_FLAG = 1e-8
LEAK_ERROR = 1e-6

_COMPOSITE_TOL = 1e-9

#: matrices per batched LAPACK pass in :func:`wootters_concurrence`
_WOOTTERS_CHUNK = 256

#: times per chunk of phases exp(-iEt) read through the bilinear forms
_PHASE_CHUNK = 256

#: weighted initial population at or below which a block is left out: far
#: under anything the leakage check resolves, far above the ~1e-34 that the
#: round-off of a rotated Bell vector leaves in blocks it does not touch
_POPULATION_FLOOR = 1e-20

#: entries of a rotated 4x4 qubit operator below this are round-off of zeros
_OPERATOR_ROUNDOFF = 1e-12

_S = math.sqrt(0.5)

#: the qubit frame away from omega0 = 0: rows |ee>, (|eg>+|ge>)/sqrt(2),
#: (|eg>-|ge>)/sqrt(2), |gg> in eg components
_EXCHANGE_FROM_EG = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, _S, _S, 0.0],
    [0.0, _S, -_S, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

# sx1 + sx2 and sz1 + sz2 in the eg ordering
_SX_SUM = np.array([
    [0.0, 1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 1.0, 0.0],
])
_SZ_SUM = np.diag([2.0, 0.0, 0.0, -2.0])
_SIGMA_YY = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])  # sigma_y (x) sigma_y is real in the eg ordering

#: the entries of a 4x4 matrix in the eg ordering off its diagonal and
#: anti-diagonal, all of them 0 in an X state
_OFF_X = np.array([
    [False, True, True, False],
    [True, False, False, True],
    [True, False, False, True],
    [False, True, True, False],
])


def choose_dim(spec: OscillatorSpec, params: ModelParams) -> int:
    """Truncation rule sized from the displacement reach of the initial state.

    dim = max(20, ceil(s^2) + 10 ceil(s) + N + 10) with
    s = r + 4 beta and (r, N) = ``spec.reach``: r is |alpha0| for coherent
    states and 4 sqrt(mean_n) for thermal ones, N the highest occupied level.
    A thermal dim is raised to ``spec.tail_level`` where the rule falls
    short of it, so the preparation never rejects the dim chosen for it.
    Convergence tests, not estimates, are the actual guarantee; this just has
    to land above the knee.
    """
    radius, top_level = spec.reach
    s = radius + 4.0 * params.beta
    rule = max(20, math.ceil(s * s) + 10 * math.ceil(s) + top_level + 10)
    return max(rule, getattr(spec, "tail_level", 0))


def _qubit_frame(params: ModelParams) -> np.ndarray:
    """The real orthogonal 4x4 map from eg components to the frame H is
    blocked in: jm at omega0 = 0, the exchange basis otherwise."""
    return JM_FROM_EG if params.omega0 == 0.0 else _EXCHANGE_FROM_EG


def _hamiltonian_entries(params: ModelParams, dim: int):
    """Rows, columns and values of the nonzero entries of H in the qubit frame.

    omega n sits on the diagonal, lambda sqrt(n) on the n +- 1 bands where
    sx1 + sx2 has entries, and omega0/2 where sz1 + sz2 has them.
    """
    frame = _qubit_frame(params)

    def rotated(operator):
        """``operator`` in the qubit frame, with its round-off zeros made exact."""
        out = frame @ operator @ frame.T
        return np.where(np.abs(out) > _OPERATOR_ROUNDOFF, out, 0.0)

    sx, sz = rotated(_SX_SUM), rotated(_SZ_SUM)
    n = np.arange(dim)
    band = params.lambda_ * np.sqrt(n[1:].astype(float))
    parts = [(q * dim + n, q * dim + n, params.omega * n) for q in range(4)]
    for a, b in zip(*np.nonzero(sx)):
        # (a + adag) has sqrt(n + 1) at (n, n + 1) and at (n + 1, n)
        parts.append((a * dim + n[:-1], b * dim + n[1:], sx[a, b] * band))
        parts.append((a * dim + n[1:], b * dim + n[:-1], sx[a, b] * band))
    for a, b in zip(*np.nonzero(sz)):
        value = 0.5 * params.omega0 * sz[a, b]
        parts.append((a * dim + n, b * dim + n, np.full(dim, value)))
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def _component_labels(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected component of each of ``size`` nodes joined by the edges
    (rows, cols), numbered by their lowest node: each pass hooks the larger
    root of every edge under the smaller, then jumps pointers to the roots."""
    root = np.arange(size)
    while not np.array_equal(low := root[rows], high := root[cols]):
        np.minimum.at(root, np.maximum(low, high), np.minimum(low, high))
        while not np.array_equal(root, jumped := root[root]):
            root = jumped
    return np.unique(root, return_inverse=True)[1]


def eigenblocks(params: ModelParams, dim: int, population: np.ndarray | None = None):
    """Diagonalise H on the truncated space block by block, in the qubit frame.

    The blocks are the connected components of the sparsity graph of H.
    ``population`` is the weighted initial population of each composite
    index, in the qubit frame; with it, only the blocks holding more than
    ``_POPULATION_FLOOR`` of it are diagonalised, without it all are.  A
    1 x 1 block needs no eigensolver: its energy is its entry and its
    eigenvector 1.  A block whose entries mirror those of a block already
    diagonalised, h = S h_0 S with S = diag((-1)^n) on the same Fock rows
    (the m = +1 and m = -1 chains at omega0 = 0), takes the same energies
    array and the eigenvectors S V_0.
    Returns the list of (composite indices, energies, real eigenvectors) of
    those blocks, in the order of their lowest index, and the largest
    Frobenius residual ||H_B V_B - V_B E_B|| over them.
    """
    dim = check_dim(dim)
    rows, cols, vals = _hamiltonian_entries(params, dim)
    upper = rows < cols
    label = _component_labels(4 * dim, rows[upper], cols[upper])
    count = label.max() + 1
    # the nodes and the entries of every block in one stable sort each, so
    # the loop visits only the blocks it returns
    (nodes, node_start), (entries, entry_start) = (
        (np.argsort(key, kind="stable"),
         np.concatenate(([0], np.cumsum(np.bincount(key, minlength=count)))))
        for key in (label, label[rows]))
    used = range(count) if population is None else np.flatnonzero(
        np.bincount(label, weights=population, minlength=count) > _POPULATION_FLOOR)
    # a 1 x 1 block's energy is its entry, summed in the order np.add.at would
    diagonal = np.bincount(label[rows], weights=vals, minlength=count)
    sign = 1.0 - 2.0 * (np.arange(4 * dim) % dim % 2)  # (-1)^n of each index
    solved = {}  # Fock rows -> local entries, eigenpairs and residual of a block
    blocks, residual = [], 0.0
    for block in used:
        index = nodes[node_start[block]:node_start[block + 1]]
        if index.size == 1:
            blocks.append((index, diagonal[block:block + 1], np.ones((1, 1))))
            continue
        entry = entries[entry_start[block]:entry_start[block + 1]]
        local = np.searchsorted(index, rows[entry]), np.searchsorted(index, cols[entry])
        values = vals[entry]
        # h mirrors h_0 if h_0 was diagonalised on the same Fock rows and
        # each entry of h is s_i s_j times its entry there, s = (-1)^n
        s, fock = sign[index], (index % dim).tobytes()
        first = solved.get(fock)
        # (and then h S V - S V E = S (h_0 V - V E): the same residual, bit for bit)
        if first is not None and all(map(np.array_equal, (*local, values), (
                first[0], first[1], s[first[0]] * s[first[1]] * first[2]))):
            energies, vectors, error = first[3], s[:, None] * first[4], first[5]
        else:
            h = np.zeros((index.size, index.size))
            np.add.at(h, local, values)
            energies, vectors = np.linalg.eigh(h)
            error = float(np.linalg.norm(h @ vectors - vectors * energies))
            solved.setdefault(fock, (*local, values, energies, vectors, error))
        residual = max(residual, error)
        blocks.append((index, energies, vectors))
    return blocks, residual


def spectrum(params: ModelParams, dim: int) -> np.ndarray:
    """Every eigenvalue of H on the truncated space, sorted, from all blocks."""
    blocks, _ = eigenblocks(params, dim)
    return np.sort(np.concatenate([energies for _, energies, _ in blocks]))


def wootters_concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix in the eg ordering.

    ``rho`` is one 4x4 matrix, giving a float, or a stack of shape
    (..., 4, 4), giving an array of shape (...).  Each matrix takes one of
    two routes.  An X state, one whose eight entries off the diagonal and
    the anti-diagonal are exactly 0.0, takes the closed form of Yu &
    Eberly (Quantum Inf. Comput. 7, 459 (2007)),
    2 max(0, |rho_ee,gg| - sqrt(rho_eg,eg rho_ge,ge),
    |rho_eg,ge| - sqrt(rho_ee,ee rho_gg,gg)), and no LAPACK call.  Any other
    takes the spin-flip eigenvalues as singular values of
    sqrt(rho) (sy (x) sy) sqrt(rho)*, which keeps the near-zero ones at
    machine precision where the textbook eigvals(rho rho~) route floors near
    1e-8.  Both check Hermiticity and the eigenvalues (>= -1e-9) first, and a
    matrix gives the same value alone as in any stack.
    """
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
        chunk = (chunk + adjoint) / 2.0
        x_state = ~chunk[:, _OFF_X].any(axis=1)
        out = conc[start:start + _WOOTTERS_CHUNK]
        if x_state.any():
            out[x_state] = _x_state_concurrence(chunk[x_state])
        if not x_state.all():
            out[~x_state] = _spin_flip_concurrence(chunk[~x_state])
    conc = conc.reshape(rho.shape[:-2])
    return clamp_unit(np.where(conc > 0.0, conc, 0.0))


def _check_eigenvalue(lowest: float) -> None:
    if not lowest >= -_COMPOSITE_TOL:  # NaN too, which LAPACK would refuse
        raise ValueError(f"density matrix has eigenvalue {lowest:.3e} below -1e-9")


def _x_state_concurrence(rho: np.ndarray) -> np.ndarray:
    """The closed form of :func:`wootters_concurrence` on a Hermitian stack of
    X states, before it is clipped at 0.  Their eigenvalues are those of the
    two 2x2 blocks {ee, gg} and {eg, ge}, mean -+ sqrt(half-gap^2 + |z|^2)."""
    first, second = rho[:, [0, 1], [0, 1]].real, rho[:, [3, 2], [3, 2]].real
    z = rho[:, [0, 1], [3, 2]]
    # |z| from its parts: elementwise, so a stack and its members agree bit for bit
    size = np.sqrt(z.real ** 2 + z.imag ** 2)
    _check_eigenvalue(((first + second) / 2.0
                       - np.sqrt(((first - second) / 2.0) ** 2 + size ** 2)).min())
    root = np.sqrt(np.clip(first * second, 0.0, None))
    return 2.0 * np.maximum(size[:, 0] - root[:, 1], size[:, 1] - root[:, 0])


def _spin_flip_concurrence(rho: np.ndarray) -> np.ndarray:
    """lambda_1 - lambda_2 - lambda_3 - lambda_4 of :func:`wootters_concurrence`
    on a Hermitian stack, one LAPACK eigh and svd per matrix."""
    w, vecs = np.linalg.eigh(rho)
    _check_eigenvalue(w.min())
    root = ((vecs * np.sqrt(np.clip(w, 0.0, None))[..., None, :])
            @ vecs.conj().swapaxes(-1, -2))
    lam = np.linalg.svd(root @ _SIGMA_YY @ root.conj(), compute_uv=False)
    return lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]


def _quadratic(cos: np.ndarray, sin: np.ndarray, form, hermitian: bool = False):
    """phi(t)^T G phi(t)* for each row phi(t) = cos - i sin of a chunk of phases.

    The dtype of G picks the arithmetic.  A complex G takes one complex
    product.  A real G takes real products on the cos and sin parts, and a
    real ``hermitian`` one only the real part c^T G c + s^T G s.
    """
    left, right, g = form
    if np.iscomplexobj(g):
        # phi and phi* set from their parts, bit for bit exp(-iEt) and its conjugate
        phase = np.empty((cos.shape[0], g.shape[0]), dtype=complex)
        phase.real, phase.imag = cos[:, left], -sin[:, left]
        conj = np.empty((cos.shape[0], g.shape[1]), dtype=complex)
        conj.real, conj.imag = cos[:, right], sin[:, right]
        return np.einsum("ti,ti->t", phase @ g, conj)
    c_right, s_right = cos[:, right], sin[:, right]
    c_g, s_g = cos[:, left] @ g, sin[:, left] @ g
    value = np.einsum("ti,ti->t", c_g, c_right) + np.einsum("ti,ti->t", s_g, s_right)
    if hermitian:
        return value
    return value + 1j * (np.einsum("ti,ti->t", c_g, s_right)
                         - np.einsum("ti,ti->t", s_g, c_right))


def _take(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix[rows]`` for sorted distinct ``rows``, uncopied if that is all of it."""
    return matrix if rows.size == matrix.shape[0] else matrix[rows]


def peak_bytes(dim: int) -> int:
    """An upper bound on the bytes of arrays :func:`_reduced_states` holds at ``dim``.

    Counted at its largest (omega0 > 0, a triplet Bell state, a complex
    mixture of dim columns): 14 complex forms on the pairs of two parity
    blocks of 3 dim / 2, plus the larger of what building them holds (the
    eigenvectors, columns and coefficients, the last slice of M and
    V_a^T V_b) and what reading a chunk of phases holds (its cos and sin
    buffers, and a complex read's phases, conjugates, product and one real
    copy).  At dim 100 that is 842 dim^2 bytes.
    """
    block = (3 * dim + 1) // 2
    build = 8 * 5 * block ** 2 + 16 * (dim + 2 * block) * dim
    return 16 * 14 * block ** 2 + max(build, 88 * _PHASE_CHUNK * block)


def _forms(qubit_init: str, spec: OscillatorSpec, params: ModelParams, dim: int):
    """For bell (x) F at ``dim``: the constant populations, the energies whose
    phases are read, the forms of the module docstring as (a, b, (left,
    right, G)), with slices of those phases, a == b a population and a = b =
    None the leakage, and the eigensolver's diagnostics, with ``x_state``
    true where the parity proves every reduced state an X state.

    The t = 0 state is checked on its factors: the Bell vector is a fixed
    unit vector, so the oscillator weights must be >= 0 and sum to 1 and its
    Fock columns must be orthonormal.  Unit columns are worked from their
    rows (module docstring), with the products' result bit for bit.
    """
    weights, columns = spec.fock_columns(dim)
    if weights.min() < 0.0 or abs(weights.sum() - 1.0) > _COMPOSITE_TOL:
        raise ValueError(f"oscillator weights must be >= 0 and sum to 1 within "
                         f"1e-9, got range [{weights.min():.3e}, {weights.max():.3e}] "
                         f"and sum {weights.sum():.12g}")
    # unit columns: real, each exactly 1.0 on one Fock row, ``unit``
    nonzero = columns != 0.0
    column, unit = np.divmod(np.flatnonzero(nonzero.T), dim)
    if (np.isrealobj(columns) and np.array_equal(column, np.arange(weights.size))
            and (columns[unit, column] == 1.0).all()):
        overlapping = np.flatnonzero(nonzero.any(axis=1)).size < weights.size  # a row shared
    else:
        unit = None
        overlapping = (np.abs(columns.conj().T @ columns - np.eye(weights.size)).max()
                       > _COMPOSITE_TOL)
    if overlapping:
        raise ValueError("oscillator columns are not orthonormal within 1e-9")
    # row (q, n) of a pure column of bell (x) F is the Bell amplitude of
    # label q times row n of the Fock column
    amplitude = _qubit_frame(params) @ bell_vector(qubit_init)
    blocks, residual = eigenblocks(
        params, dim, np.kron(amplitude ** 2, (np.abs(columns) ** 2) @ weights))
    # every Bell state is an eigenstate of the parity (-1)^n sz1 sz2, and so
    # is bell (x) c for a Fock column c on rows of one parity.  At omega0 = 0
    # the parity swaps the m = +1 and m = -1 chains of the jm frame as
    # h <-> S h S and maps each m = 0 index to itself, so it commutes with H
    # on the populated blocks if each chain shares its energies array with
    # its mirror (which eigenblocks matched entry by entry) and each m = 0
    # block is 1 x 1.  Then every reduced state is an X state, and the
    # round-off off its X is dropped before the Wootters step
    one_parity = not (nonzero[0::2].any(axis=0) & nonzero[1::2].any(axis=0)).any()
    shared = collections.Counter(id(energies) for _, energies, _ in blocks)
    commutes = all(shared[id(energies)] == 2 if index[0] // dim in (0, 3) else index.size == 1
                   for index, energies, _ in blocks)
    diagnostics = {"blocks": [index.size for index, _, _ in blocks], "eigen_residual": residual,
                   "x_state": params.omega0 == 0.0 and one_parity and commutes}
    # the 1 x 1 blocks below the top two Fock rows read no leakage, so those
    # of one label are read as one block, whose eigenvectors are I
    lone = [index.size == 1 and index[0] % dim < dim - 2 for index, _, _ in blocks]
    index, energies = (np.array([b[i][0] for b, one in zip(blocks, lone) if one]) for i in (0, 1))
    blocks = [block for block, one in zip(blocks, lone) if not one] + [
        (index[pick], energies[pick], np.eye(pick.sum()))
        for pick in (index // dim == a for a in range(4)) if pick.any()]

    # per block: the label and Fock row of each row, the columns of F that
    # reach it and C on them, real for a real psi0; a block within one label
    # adds its constant population, sum_j M_jj over its modes, once
    population, parts = np.zeros(4), []
    # id of a gathered block's energies -> (that block, |amplitude|), and the
    # gathered mirrors whose forms are those of such a block
    mirrored, twins = {}, set()
    for k, (index, energies, vectors) in enumerate(blocks):
        label, fock = np.divmod(index, dim)
        reach = np.flatnonzero(nonzero[fock[amplitude[label] != 0.0]].any(axis=0))
        if unit is None or label[0] != label[-1]:
            coeff = (amplitude[label, None] * vectors).T @ columns[fock[:, None], reach]
        else:
            # one label, so each Fock row once: C is a gather of amp o V,
            # stored row-major as the product's is, so M has the same bits
            rows = np.searchsorted(fock, unit[reach])
            coeff = (amplitude[label[rows], None] * vectors[rows]).T.copy()
            # a mirror S V of a block read the same way, with the same
            # |amplitude|, has C = +-C column by column, as S F = F diag(+-1)
            first, size = mirrored.setdefault(id(energies), (k, abs(amplitude[label[0]])))
            if first != k and size == abs(amplitude[label[0]]):
                twins.add(k)
        if label[0] == label[-1]:
            population[label[0]] += ((np.abs(coeff) ** 2) @ weights[reach]).sum()
        parts.append((label, fock, reach, vectors, coeff))

    # coherence (a, b) on the block pairs where label a of k and label b of l
    # share Fock rows; the populations of a block that mixes labels and the
    # leakage (its top two Fock rows) on the block with itself
    holding = [[k for k, part in enumerate(parts) if (part[0] == a).any()] for a in range(4)]
    wanted = {}  # (k, l) -> [(a, b, rows of k, rows of l)]; a == b on one block
    for a, b in itertools.combinations(range(4), 2):
        for k, l in itertools.product(holding[a], holding[b]):
            (label_k, fock_k, *_), (label_l, fock_l, *_) = parts[k], parts[l]
            rows_k, rows_l = np.flatnonzero(label_k == a), np.flatnonzero(label_l == b)
            _, i, j = np.intersect1d(fock_k[rows_k], fock_l[rows_l], assume_unique=True,
                                     return_indices=True)
            if i.size:
                wanted.setdefault((k, l), []).append((a, b, rows_k[i], rows_l[j]))
    for k, (label, fock, *_) in enumerate(parts):
        top = np.flatnonzero(fock >= dim - 2)
        wanted.setdefault((k, k), []).extend(
            [(a, a, rows, rows) for a in range(4) if label[0] != label[-1]
             for rows in [np.flatnonzero(label == a)] if rows.size]
            + [(None, None, top, top)] * bool(top.size))

    # each form is (V_a^T V_b) o M on its block pair, multiplied into the
    # slice of M = C W C^dagger over the columns that reach both blocks.  A
    # mirrored block shares its first block's energies array, so it reads
    # the same phases: forms with one destination and the same two arrays
    # (the leakage of the mirror chains) are summed into one as they are built
    forms, read = {}, {}  # (a, b, ids of the two arrays) -> G; id -> energies
    for (k, l), reads in wanted.items():
        (*_, reach_k, v_k, c_k), (*_, reach_l, v_l, c_l) = parts[k], parts[l]
        common, i, j = np.intersect1d(reach_k, reach_l, assume_unique=True,
                                      return_indices=True)
        if not (reads and common.size):
            continue
        pair = blocks[k][1], blocks[l][1]
        if k == l and k in twins:
            # every term of its M and V^T V is its first block's, with both
            # signs squared, so the sum its forms join is twice that one's
            for a, b, *_ in reads:
                forms[(a, b, *map(id, pair))] *= 2.0
            continue
        m = (_take(c_k.T, i).T * weights[common]) @ _take(c_l.T, j).conj()
        read.update((id(energies), energies) for energies in pair)
        for n, (a, b, rows_k, rows_l) in enumerate(reads, 1 - len(reads)):
            # the pair's last form (n = 0) is multiplied into M itself, so
            # that no third dim^2 array is alive while it is built
            g = np.multiply(m, _take(v_k, rows_k).T @ _take(v_l, rows_l),
                            out=None if n else m)
            total = forms.setdefault((a, b, *map(id, pair)), g)
            if total is not g:
                total += g

    # cos(Et) and sin(Et) are taken once per distinct energy some form
    # reads, a block's in one slice
    ends = itertools.accumulate(energies.size for energies in read.values())
    span = {key: slice(end - e.size, end) for (key, e), end in zip(read.items(), ends)}
    return population, np.concatenate([np.zeros(0), *read.values()]), [
        (a, b, (span[k], span[l], g)) for (a, b, k, l), g in forms.items()], diagnostics


def _reduced_states(qubit_init: str, spec: OscillatorSpec, times: np.ndarray,
                    params: ModelParams, dim: int | None):
    """dim (by default :func:`choose_dim`), the reduced qubit states on the
    time grid, shaped (T, 4, 4), the leakage (the population of the top two
    Fock levels) at each time, and the diagnostics of :func:`_forms`, through
    which the states are read; leakage beyond 1e-6 raises
    :class:`TruncationError`.
    """
    if dim is None:
        dim = choose_dim(spec, params)
    dim = check_dim(dim)
    population, energies, forms, diagnostics = _forms(qubit_init, spec, params, dim)
    rho = np.zeros((times.size, 4, 4), dtype=complex)
    rho[:, range(4), range(4)] = population
    leak = np.zeros(times.size)
    # two buffers, allocated once: a chunk's half phases t E / 2 go into the
    # first, and its cos(Et) and sin(Et) come out in both
    buffers = np.empty((2, min(times.size, _PHASE_CHUNK), energies.size))
    half_energies = energies / 2.0
    for start in range(0, times.size, _PHASE_CHUNK):
        chunk = slice(start, start + _PHASE_CHUNK)
        cos, sin = buffers[:, :times[chunk].size]
        np.multiply.outer(times[chunk], half_energies, out=cos)
        cos_sin_of_halves(cos, sin)
        for a, b, f in forms:
            value = _quadratic(cos, sin, f, hermitian=a == b)
            if a is None:
                leak[chunk] += value.real
            elif a == b:
                rho[chunk, a, a] += value
            else:
                rho[chunk, a, b] += value
                rho[chunk, b, a] += value.conj()
    leak = np.maximum(leak, 0.0)  # a population, which the forms may round below zero
    # back to eg as (F^T rho) F, each factor one 2-D product over the whole
    # stack, with the round-off of the diagonal forms made Hermitian
    frame = _qubit_frame(params)
    rho = (frame.T @ rho.transpose(1, 0, 2).reshape(4, -1)).reshape(4, -1, 4)
    rho = (rho.transpose(1, 0, 2).reshape(-1, 4) @ frame).reshape(-1, 4, 4)
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    over = np.flatnonzero(leak > LEAK_ERROR)
    if over.size:
        first = over[0]
        raise TruncationError(
            f"leakage {leak[first]:.3e} > {LEAK_ERROR:g} at t={times[first]:g} with "
            f"dim={dim}; increase dim")
    return dim, rho, leak, diagnostics


def oracle_concurrence_series(qubit_init: str, spec: OscillatorSpec,
                              times: np.ndarray, params: ModelParams,
                              dim: int | None = None) -> "_series.ConcurrenceSeries":
    """Concurrence on a time grid by exact propagation in the truncated space.

    The initial mixture is split into weighted pure states (exactly: thermal
    and number preparations are Fock-diagonal, coherent ones are pure), and
    only the blocks of H they populate are diagonalised; the reduced states
    are read off bilinear forms in the phases exp(-iEt), built once, which
    is far cheaper than propagating the columns at every grid point.  C, I
    and the leakage into the top two Fock levels are read off the stack of
    reduced states; leakage beyond 1e-6 anywhere aborts the run.  ``meta``
    records the sizes of the blocks populated (``blocks``) and the
    largest Frobenius residual ||H_B V_B - V_B E_B|| over them
    (``eigen_residual``).
    """
    if qubit_init not in BELL_KINDS:
        raise ValueError(f"qubit_init must be one of {BELL_KINDS}, got {qubit_init!r}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    dim, rho, leak, diagnostics = _reduced_states(qubit_init, spec, times, params, dim)
    # proved X states: their off-X entries are round-off, and without it the
    # Wootters step takes the closed form
    if diagnostics.pop("x_state"):
        rho[:, _OFF_X] = 0.0
    u = v = None
    if qubit_init in ("psi_plus", "phi_plus"):
        # I(t) is twice the (1,1)-(1,-1) coherence in the jm ordering, read
        # with the two rows of the frame alone (bit for bit the full rotation)
        sign = -1.0 if qubit_init == "psi_plus" else 1.0
        i_t = sign * 2.0 * (JM_FROM_EG[:1] @ rho @ JM_FROM_EG[3:].T)[:, 0, 0]
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
            **diagnostics,
        },
    )
