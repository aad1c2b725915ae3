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

The initial state bell (x) F is split into weighted pure columns.  With V
the real eigenvectors, E the energies and C = V^T psi0, the reduced qubit
state is a bilinear form in the phases phi(t) = exp(-iEt):

    rho_ab(t) = phi^T G_ab phi*,    G_ab = (V_a^T V_b) o (C W C^dagger),

where V_a holds the rows of qubit label a.  psi0 is never formed: row
(q, n) of a column is the Bell amplitude of label q times row n of the Fock
column, so C = (sum_q amp_q V_q)^T F.  Each form is multiplied into its own
slice of M = C W C^dagger, on the modes it reads.  V_a^T V_b vanishes
between modes of different blocks, and on the modes of a block that lies
in one label a, V_a^T V_a is the identity: that block's share of rho_aa is
the constant sum_j M_jj over its modes, added once.  So the forms read per
time are the coherences (a != b), the populations of blocks that mix labels
(only the parity blocks at omega0 > 0 do), and the leakage into the top two
Fock levels, one form of the same kind per group of blocks (the blocks of
one label, or one block that mixes labels).  They are built once and the
time grid is read through them in fixed-size chunks of cos(Et) and sin(Et),
taken only on the phases some form reads.
The frame and the Bell vectors are real, so for a real psi0
(thermal and number states) C and every G_ab are real and are read with
real products; a complex psi0 (coherent) keeps a complex one.  Reduced states
then go through the Wootters spin-flip construction.  Agreement with
:mod:`tc2q.analytic` is therefore a genuine two-route test.

The composite index is qubit-major: basis vector (q, n) sits at q * dim + n,
with q running over the four states of the qubit frame.
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
    TruncationError,
    bell_vector,
    check_dim,
    clamp_unit,
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
    (rows, cols), by union-find; components are numbered by their lowest node."""
    parent = list(range(size))

    def root(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in zip(rows.tolist(), cols.tolist()):
        a, b = root(a), root(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return np.unique([root(node) for node in range(size)], return_inverse=True)[1]


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
    solved = {}  # Fock rows -> local entries and eigenpairs of a block diagonalised
    blocks, residual = [], 0.0
    for block in used:
        index = nodes[node_start[block]:node_start[block + 1]]
        if index.size == 1:
            blocks.append((index, diagonal[block:block + 1], np.ones((1, 1))))
            continue
        entry = entries[entry_start[block]:entry_start[block + 1]]
        local = np.searchsorted(index, rows[entry]), np.searchsorted(index, cols[entry])
        values = vals[entry]
        h = np.zeros((index.size, index.size))
        np.add.at(h, local, values)
        # h mirrors h_0 if h_0 was diagonalised on the same Fock rows and
        # each entry of h is s_i s_j times its entry there, s = (-1)^n
        s, fock = sign[index], (index % dim).tobytes()
        first = solved.get(fock)
        if first is not None and all(map(np.array_equal, (*local, values), (
                first[0], first[1], s[first[0]] * s[first[1]] * first[2]))):
            energies, vectors = first[3], s[:, None] * first[4]
        else:
            energies, vectors = np.linalg.eigh(h)
            solved.setdefault(fock, (*local, values, energies, vectors))
        residual = max(residual, float(np.linalg.norm(h @ vectors - vectors * energies)))
        blocks.append((index, energies, vectors))
    return blocks, residual


def spectrum(params: ModelParams, dim: int) -> np.ndarray:
    """Every eigenvalue of H on the truncated space, sorted, from all blocks."""
    blocks, _ = eigenblocks(params, dim)
    return np.sort(np.concatenate([energies for _, energies, _ in blocks]))


def wootters_concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix in the eg ordering.

    ``rho`` is one 4x4 matrix, giving a float, or a stack of shape
    (..., 4, 4), giving an array of shape (...).  The spin-flip eigenvalues
    are computed as singular values of sqrt(rho) (sy (x) sy) sqrt(rho)*,
    which keeps the near-zero ones at machine precision where the textbook
    eigvals(rho rho~) route floors near 1e-8.
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
        w, vecs = np.linalg.eigh((chunk + adjoint) / 2.0)
        if w.min() < -_COMPOSITE_TOL:
            raise ValueError(f"density matrix has eigenvalue {w.min():.3e} below -1e-9")
        root = ((vecs * np.sqrt(np.clip(w, 0.0, None))[..., None, :])
                @ vecs.conj().swapaxes(-1, -2))
        lam = np.linalg.svd(root @ _SIGMA_YY @ root.conj(), compute_uv=False)
        conc[start:start + _WOOTTERS_CHUNK] = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    conc = conc.reshape(rho.shape[:-2])
    return clamp_unit(np.where(conc > 0.0, conc, 0.0))


def _quadratic(cos: np.ndarray, sin: np.ndarray, form, hermitian: bool = False):
    """phi(t)^T G phi(t)* for each row phi(t) = cos - i sin of a chunk of phases.

    The dtype of G picks the arithmetic.  A complex G takes one complex
    product.  A real G takes real products on the cos and sin parts, and a
    real ``hermitian`` one only the real part c^T G c + s^T G s.
    """
    left, right, g = form
    if np.iscomplexobj(g):
        # phi and phi* set from their parts, bit for bit exp(-iEt) and its conjugate
        phase = np.empty((cos.shape[0], left.size), dtype=complex)
        phase.real, phase.imag = cos[:, left], -sin[:, left]
        conj = np.empty((cos.shape[0], right.size), dtype=complex)
        conj.real, conj.imag = cos[:, right], sin[:, right]
        return np.einsum("ti,ti->t", phase @ g, conj)
    c_right, s_right = cos[:, right], sin[:, right]
    c_g, s_g = cos[:, left] @ g, sin[:, left] @ g
    value = np.einsum("ti,ti->t", c_g, c_right) + np.einsum("ti,ti->t", s_g, s_right)
    if hermitian:
        return value
    return value + 1j * (np.einsum("ti,ti->t", c_g, s_right)
                         - np.einsum("ti,ti->t", s_g, c_right))


def _block_diagonal(squares) -> np.ndarray:
    """The block-diagonal matrix of a list of square matrices."""
    sizes = [square.shape[0] for square in squares]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    out = np.zeros((owner.size, owner.size))
    # the mask is true on each block's square, row by row in block order
    out[owner[:, None] == owner] = np.concatenate([square.ravel() for square in squares])
    return out


def peak_bytes(dim: int) -> int:
    """An upper bound on the bytes of arrays :func:`_reduced_states` holds at ``dim``.

    Counted at its largest (omega0 > 0, a triplet Bell state, a complex
    mixture of dim columns), where the 3 dim modes it reads out lie in two
    parity blocks of 3 dim / 2: the real eigenvectors (per block and in one
    matrix), the initial columns and their coefficients; the complex forms,
    three coherences on every mode and, per block, three populations and a
    leakage; the inputs of the last form's slice of M; and the temporaries
    of a chunk of phases read through a complex form (its angles, cos and
    sin, the complex phases, their conjugates and their product, and one
    real copy).  The two sets of temporaries are never live together.  At
    dim 100 that counts 1,578 dim^2 bytes, against a tracemalloc peak of
    1,449 dim^2 for a mixture of 60 columns on 300 points.
    """
    block, modes = (3 * dim + 1) // 2, 3 * dim
    return (8 * (2 * block ** 2 + 4 * dim * modes) + 16 * (dim + modes) * dim
            + 16 * (3 * modes ** 2 + 8 * block ** 2 + 2 * block * dim)
            + 80 * _PHASE_CHUNK * modes)


def _reduced_states(qubit_init: str, spec: OscillatorSpec, times: np.ndarray,
                    params: ModelParams, dim: int | None):
    """dim (by default :func:`choose_dim`), the reduced qubit states on the
    time grid, shaped (T, 4, 4), the leakage (the population of the top two
    Fock levels) at each time, and the diagnostics of the eigensolver (the
    sizes of the blocks populated and the largest eigen-residual);
    leakage beyond 1e-6 raises :class:`TruncationError`.

    bell (x) F is split into weighted pure columns, and the reduced state
    is read off the bilinear forms of the module docstring.  The t = 0
    state is checked on its factors: the Bell vector is a fixed unit vector,
    so the oscillator weights must be >= 0 and sum to 1 and its Fock columns
    must be orthonormal.
    """
    if dim is None:
        dim = choose_dim(spec, params)
    dim = check_dim(dim)
    weights, columns = spec.fock_columns(dim)
    if weights.min() < 0.0 or abs(weights.sum() - 1.0) > _COMPOSITE_TOL:
        raise ValueError(f"oscillator weights must be >= 0 and sum to 1 within "
                         f"1e-9, got range [{weights.min():.3e}, {weights.max():.3e}] "
                         f"and sum {weights.sum():.12g}")
    if np.abs(columns.conj().T @ columns - np.eye(weights.size)).max() > _COMPOSITE_TOL:
        raise ValueError("oscillator columns are not orthonormal within 1e-9")
    frame = _qubit_frame(params)
    # row (q, n) of a pure column of bell (x) F is the Bell amplitude of
    # label q times row n of the Fock column
    amplitude = frame @ bell_vector(qubit_init)
    blocks, residual = eigenblocks(
        params, dim, np.kron(amplitude ** 2, (np.abs(columns) ** 2) @ weights))

    # the eigenvectors of the used blocks as the columns of one (4 dim, modes)
    # matrix V, and C = V^T psi0 = (sum_q amp_q V_q)^T F, real for a real psi0
    sizes = np.array([rows.size for rows, _, _ in blocks])
    index = np.concatenate([rows for rows, _, _ in blocks])
    energies = np.concatenate([block_energies for _, block_energies, _ in blocks])
    vectors = np.zeros((4 * dim, index.size))
    vectors[index] = _block_diagonal([block_vectors for _, _, block_vectors in blocks])
    coeff = np.tensordot(amplitude, vectors.reshape(4, dim, -1), axes=1).T @ columns

    # a block within one label keeps its population, sum_j M_jj over its modes,
    # so the modes of such blocks are grouped by label; a block that mixes
    # labels is a group of its own, with a population form per label
    starts, label = np.cumsum(sizes) - sizes, index // dim
    low, high = np.minimum.reduceat(label, starts), np.maximum.reduceat(label, starts)
    group = np.repeat(np.where(low == high, low, 4 + np.arange(sizes.size)), sizes)
    conserved = group < 4
    population = np.bincount(group[conserved], minlength=4,
                             weights=(np.abs(coeff[conserved]) ** 2) @ weights)

    def form(rows_a, rows_b, among):
        """(V_a^T V_b) o M on the modes of ``among`` that reach rows a and rows
        b, multiplied into its own slice of M = C W C^dagger."""
        v_a, v_b = vectors[rows_a], vectors[rows_b]
        left = np.flatnonzero(among & v_a.any(axis=0))
        right = np.flatnonzero(among & v_b.any(axis=0))
        g = (coeff[left] * weights) @ coeff[right].conj().T
        g *= v_a[:, left].T @ v_b[:, right]
        return left, right, g

    label_rows = [slice(q * dim, (q + 1) * dim) for q in range(4)]
    top = np.add.outer(dim * np.arange(4), [dim - 2, dim - 1]).ravel()
    everywhere = np.ones(index.size, dtype=bool)
    coherences = [(a, b, form(label_rows[a], label_rows[b], everywhere))
                  for a in range(4) for b in range(a + 1, 4)]
    groups = np.flatnonzero(np.bincount(group))
    populations = [(a, form(label_rows[a], label_rows[a], group == g))
                   for g in groups[groups >= 4] for a in range(4)]
    # V_top^T V_top vanishes between blocks, so the leakage is read group by group
    leak_forms = [form(top, top, group == g) for g in groups]
    coherences = [(a, b, f) for a, b, f in coherences if f[2].any()]
    populations = [(a, f) for a, f in populations if f[2].any()]
    leak_forms = [f for f in leak_forms if f[2].any()]

    # cos(Et) and sin(Et) are taken on phase columns: one per distinct energy
    # some form reads.  A mirrored block shares its first block's energies
    # array, so its modes take the columns of that block's modes.
    first = {}
    shared = np.concatenate([first.setdefault(id(block_energies), start)
                             + np.arange(block_energies.size)
                             for start, (_, block_energies, _) in zip(starts, blocks)])
    read = np.zeros(index.size, dtype=bool)
    for left, right, _ in [f for *_, f in coherences + populations] + leak_forms:
        read[shared[left]] = read[shared[right]] = True
    column = (np.cumsum(read) - 1)[shared]
    coherences = [(a, b, (column[left], column[right], g))
                  for a, b, (left, right, g) in coherences]
    populations = [(a, (column[left], column[right], g)) for a, (left, right, g) in populations]
    leak_forms = [(column[left], column[right], g) for left, right, g in leak_forms]
    energies = energies[read]

    rho = np.zeros((times.size, 4, 4), dtype=complex)
    rho[:, range(4), range(4)] = population
    leak = np.empty(times.size)
    for start in range(0, times.size, _PHASE_CHUNK):
        chunk = slice(start, start + _PHASE_CHUNK)
        angle = np.outer(times[chunk], energies)
        cos, sin = np.cos(angle), np.sin(angle)
        for a, b, f in coherences:
            value = _quadratic(cos, sin, f)
            rho[chunk, a, b] = value
            rho[chunk, b, a] = value.conj()
        for a, f in populations:
            rho[chunk, a, a] += _quadratic(cos, sin, f, hermitian=True)
        # a population: the forms may round to a hair below zero
        leak[chunk] = np.maximum(sum((_quadratic(cos, sin, f, hermitian=True).real
                                      for f in leak_forms), 0.0), 0.0)
    # back to eg, with the round-off of the diagonal forms made Hermitian
    rho = frame.T @ rho @ frame
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    over = np.flatnonzero(leak > LEAK_ERROR)
    if over.size:
        first = over[0]
        raise TruncationError(
            f"leakage {leak[first]:.3e} > {LEAK_ERROR:g} at t={times[first]:g} with "
            f"dim={dim}; increase dim")
    diagnostics = {"blocks": sizes.tolist(), "eigen_residual": residual}
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
            **diagnostics,
        },
    )
