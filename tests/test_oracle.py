"""Truncated Fock-space engine: spectrum, propagation, concurrence extraction.

The oracle is the independent check on every closed form, so its own pieces
are tested against first principles here: bare-oscillator limits, unitarity,
known concurrence values for standard two-qubit families, and convergence
under truncation refinement.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

import reference
from reference import (
    bell_state,
    dense_hamiltonian,
    dense_reduced_states,
    displaced_number_state,
    eg_states,
    oracle_reduced_density,
    partial_trace_oscillator,
    tavis_cummings_phi_plus_fock,
    two_route_tolerance,
    union_find_labels,
    x_state_concurrence,
)
from tc2q import model, oracle
from tc2q.analytic import coherence_integral, predicted_spectrum
from tc2q.model import (
    BELL_KINDS,
    JM_FROM_EG,
    Coherent,
    ExplicitDensity,
    Fock,
    ModelParams,
    Thermal,
    bell_vector,
)
from tc2q.oracle import (
    _WOOTTERS_CHUNK,
    LEAK_ERROR,
    TruncationError,
    _qubit_frame,
    choose_dim,
    eigenblocks,
    oracle_concurrence_series,
    peak_bytes,
    spectrum,
    wootters_concurrence,
)

P = ModelParams(omega=1.0, lambda_=0.1)
EXP_M008 = 0.9231163463866358   # exp(-0.08)


def oscillator_density(spec, dim):
    """The truncated oscillator density matrix sum_k w_k |c_k><c_k|."""
    w, c = spec.fock_columns(dim)
    return (c * w) @ c.conj().T


def complex_density(size, seed):
    """A full-rank ExplicitDensity on ``size`` Fock levels with complex
    coherences, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    density = a @ a.conj().T
    return ExplicitDensity(density / np.trace(density).real)


class ComplexColumns:
    """Another preparation's Fock columns as complex arrays, so the oracle
    reads the same state through complex forms."""

    def __init__(self, spec):
        self.spec, self.label = spec, spec.label

    def fock_columns(self, dim):
        weights, columns = self.spec.fock_columns(dim)
        return weights, columns.astype(complex)


class NegatedColumns:
    """Another preparation's Fock columns negated: real, but not 1.0 on
    their row, so the oracle builds C_k = (amp o V_k)^T F as a product."""

    def __init__(self, spec):
        self.spec, self.label = spec, spec.label

    def fock_columns(self, dim):
        weights, columns = self.spec.fock_columns(dim)
        return weights, -columns


def spy_on_eigh(monkeypatch):
    """The shapes of the blocks passed to the oracle's one eigensolver entry,
    ``oracle._eigh``, from now on, whichever LAPACK routine it takes."""
    shapes = []
    eigh = oracle._eigh

    def spy(h, tridiagonal):
        shapes.append(np.shape(h))
        return eigh(h, tridiagonal)

    monkeypatch.setattr(oracle, "_eigh", spy)
    return shapes


@st.composite
def density_stacks(draw):
    """Stacks of two-qubit densities, each a mixture of 1 to 4 random pure
    states, so rank-deficient members are common.  Some are tiled past one
    chunk of :func:`wootters_concurrence`."""
    size = draw(st.integers(1, 5))
    repeat = draw(st.sampled_from([1, _WOOTTERS_CHUNK // size + 1]))
    rank = draw(st.integers(1, 4))
    parts = draw(hnp.arrays(np.float64, (2, size, 4, rank), elements=st.floats(-1.0, 1.0)))
    weights = draw(hnp.arrays(np.float64, (size, rank), elements=st.floats(0.01, 1.0)))
    vecs = parts[0] + 1j * parts[1]
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    assume(np.all(norms > 1e-3))
    vecs /= norms
    weights /= weights.sum(axis=1, keepdims=True)
    stack = np.einsum("sak,sk,sbk->sab", vecs, weights, vecs.conj())
    return np.tile(stack, (repeat, 1, 1))


def spy_on_svd(monkeypatch):
    """The shapes of the stacks passed to np.linalg.svd from now on, which
    only the spin-flip route of :func:`wootters_concurrence` calls."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def broken_mirror(entries):
    """``entries`` (oracle._hamiltonian_entries) with the band between levels
    5 and 6 of the m = -1 chain (label 3 of the jm frame) scaled, both ways:
    H stays Hermitian but its two chains are no longer mirror images."""
    def broken(params, dim):
        rows, cols, vals = entries(params, dim)
        pair = [3 * dim + 5, 3 * dim + 6]
        bond = np.isin(rows, pair) & np.isin(cols, pair) & (rows != cols)
        assert bond.sum() == 2
        return rows, cols, np.where(bond, 1.5 * vals, vals)

    return broken


def unitary(theta, phi, chi):
    """A 2x2 unitary that mixes both basis states for theta away from 0 and pi/2."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[np.exp(1j * phi) * c, -np.exp(1j * chi) * s],
                     [np.exp(-1j * chi) * s, np.exp(-1j * phi) * c]])


@st.composite
def x_state_stacks(draw):
    """Stacks of X states in the eg ordering: on each of the blocks {ee, gg}
    and {eg, ge} a positive 2x2 matrix of rank 0, 1 or 2 (rank 1 to 4 in
    all) with a complex off-diagonal entry, normalised.  Each block's
    eigenvectors mix both of its states and its nonzero eigenvalues are
    bounded below, so no draw puts a zero population beside a nonzero one,
    where C has an infinite slope and round-off of 1e-17 moves it by 1e-9.
    Mixed draws, with C at or near 0, are common."""
    stack = np.zeros((draw(st.integers(1, 4)), 4, 4), dtype=complex)
    for member in stack:
        ranks = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any))
        for rows, rank in zip(([0, 3], [1, 2]), ranks):
            u = unitary(draw(st.floats(0.2, 1.37)), draw(st.floats(-3.2, 3.2)), 0.0)
            weights = [draw(st.floats(0.05, 1.0)) for _ in range(rank)] + [0.0] * (2 - rank)
            member[np.ix_(rows, rows)] = (u * weights) @ u.conj().T
        member /= np.trace(member).real
    return stack


@st.composite
def scenarios(draw, omega0=st.one_of(st.just(0.0), st.floats(0.05, 1.0))):
    """Small-dim oracle scenarios: parameters at and (or only) away from
    omega0 = 0, a preparation and a Bell kind."""
    omega = draw(st.floats(0.5, 2.0))
    beta = draw(st.floats(0.0, 0.25))
    omega0 = draw(omega0)
    spec = draw(st.one_of(
        st.builds(Thermal, st.floats(0.0, 0.25)),
        st.builds(Coherent, st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                               allow_infinity=False)),
        st.builds(Fock, st.integers(0, 4))))
    return ModelParams(omega, beta * omega, omega0), spec, draw(st.sampled_from(BELL_KINDS))


class TestBlockedOracle:
    """The symmetry-blocked eigensolver and the bilinear readout against the
    dense Hamiltonian and the per-time propagation of tests/reference.py."""

    @settings(max_examples=40, deadline=None)
    @given(scenario=scenarios())
    def test_matches_the_dense_reference(self, scenario):
        params, spec, kind = scenario
        dim = choose_dim(spec, params)
        h = dense_hamiltonian(params, dim)
        np.testing.assert_allclose(spectrum(params, dim), np.linalg.eigvalsh(h),
                                   rtol=0, atol=1e-11)

        # [H, parity] = 0, and in the qubit frame H has no entry between blocks
        parity = np.kron(np.diag([1.0, -1.0, -1.0, 1.0]), np.diag((-1.0) ** np.arange(dim)))
        assert np.abs(h @ parity - parity @ h).max() <= 1e-12
        blocks, residual = eigenblocks(params, dim)
        assert residual < 1e-10
        label = np.empty(4 * dim, dtype=int)
        for number, (index, _, _) in enumerate(blocks):
            label[index] = number
        frame = np.kron(_qubit_frame(params), np.eye(dim))
        rotated = frame @ h @ frame.T
        assert np.abs(rotated[label[:, None] != label[None, :]]).max() <= 1e-12

        t = np.linspace(0.0, 6.0, 13)
        series = oracle_concurrence_series(kind, spec, t, params, dim=dim)
        rho, leak = dense_reduced_states(kind, spec, t, params, dim)
        # C alone cannot see a population moved from one label to another
        _, states, _, _ = oracle._reduced_states(kind, spec, t, params, dim)
        np.testing.assert_allclose(eg_states(states, params), rho, rtol=0, atol=1e-12)
        np.testing.assert_allclose(series.concurrence, wootters_concurrence(rho),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(series.leakage, leak, rtol=0, atol=1e-12)
        if series.u is not None:
            sign = -1.0 if kind == "psi_plus" else 1.0
            i_t = sign * 2.0 * (JM_FROM_EG @ rho @ JM_FROM_EG.T)[:, 0, 3]
            np.testing.assert_allclose(series.u, i_t.real, rtol=0, atol=1e-12)
            np.testing.assert_allclose(series.v, i_t.imag, rtol=0, atol=1e-12)
        assert series.meta["eigen_residual"] < 1e-10
        assert sum(series.meta["blocks"]) <= 4 * dim

    def test_blocks_follow_the_conserved_quantities(self):
        t = np.array([0.0, 1.0])
        # omega0 = 0: the m = +1 and m = -1 chains
        meta = oracle_concurrence_series("psi_plus", Thermal(1.0), t, P, dim=80).meta
        assert meta["blocks"] == [80, 80]
        # omega0 > 0: the two parity classes of the triplet
        split = ModelParams(omega=1.0, lambda_=0.1, omega0=0.3)
        meta = oracle_concurrence_series("phi_plus", Thermal(1.0), t, split, dim=80).meta
        assert meta["blocks"] == [120, 120]
        # the singlet is stationary: a block per populated Fock level
        meta = oracle_concurrence_series("psi_minus", Fock(3), t, split, dim=80).meta
        assert meta["blocks"] == [1]
        assert 0.0 <= meta["eigen_residual"] < 1e-10

    @pytest.mark.parametrize("kind", ["psi_plus", "phi_plus"])
    def test_each_mirror_pair_is_diagonalised_once(self, monkeypatch, kind):
        shapes = spy_on_eigh(monkeypatch)
        t = np.linspace(0.0, 5.0, 20)
        # omega0 = 0: the m = -1 chain is S h S of the m = +1 chain
        oracle_concurrence_series(kind, Thermal(5.0), t, P, dim=198)
        assert shapes == [(198, 198)]
        # omega0 > 0: the two parity blocks hold different Fock rows
        shapes.clear()
        split = ModelParams(omega=1.0, lambda_=0.1, omega0=0.25)
        meta = oracle_concurrence_series(kind, Thermal(5.0), t, split, dim=198).meta
        assert shapes == [(297, 297)] * 2 and meta["blocks"] == [297, 297]

    def test_singleton_blocks_need_no_eigensolver(self, monkeypatch):
        shapes = spy_on_eigh(monkeypatch)
        t = np.linspace(0.0, 5.0, 20)
        for kind in ("psi_minus", "phi_minus"):
            meta = oracle_concurrence_series(kind, Thermal(5.0), t, P, dim=198).meta
            assert meta["blocks"] == [1] * 198 and meta["eigen_residual"] == 0.0, kind
        assert shapes == []
        # every block of H at omega0 = 0: two mirrored chains and 2 dim singletons
        levels = spectrum(P, 60)
        assert shapes == [(60, 60)]
        np.testing.assert_allclose(levels, np.linalg.eigvalsh(dense_hamiltonian(P, 60)),
                                   rtol=0, atol=1e-11)

    def test_a_broken_mirror_is_diagonalised_on_its_own(self, monkeypatch):
        dim, broken = 80, broken_mirror(oracle._hamiltonian_entries)
        rows, cols, vals = broken(P, dim)
        h = np.zeros((4 * dim, 4 * dim))
        np.add.at(h, (rows, cols), vals)
        frame = np.kron(JM_FROM_EG, np.eye(dim))
        intact = spectrum(P, dim)
        monkeypatch.setattr(oracle, "_hamiltonian_entries", broken)
        monkeypatch.setattr(reference, "dense_hamiltonian", lambda params, dim: frame.T @ h @ frame)
        shapes = spy_on_eigh(monkeypatch)
        t = np.linspace(0.0, 6.0, 13)
        _, states, leak, diagnostics = oracle._reduced_states("psi_plus", Thermal(1.0), t, P, dim)
        assert shapes == [(dim, dim)] * 2
        assert diagnostics["eigen_residual"] < 1e-10
        rho, leak_ref = dense_reduced_states("psi_plus", Thermal(1.0), t, P, dim)
        np.testing.assert_allclose(eg_states(states, P), rho, rtol=0, atol=1e-12)
        np.testing.assert_allclose(leak, leak_ref, rtol=0, atol=1e-12)
        # the broken chain has its own levels, which a copy of the other's would miss
        levels = spectrum(P, dim)
        np.testing.assert_allclose(levels, np.linalg.eigvalsh(h), rtol=0, atol=1e-11)
        assert np.abs(levels - intact).max() > 1e-3

    @pytest.mark.parametrize("omega0", [0.0, 0.25])
    @pytest.mark.parametrize("dim", [2, 20, 198, 567])
    def test_component_labels_match_a_union_find(self, dim, omega0):
        params = ModelParams(omega=1.0, lambda_=0.1, omega0=omega0)
        rows, cols, _ = oracle._hamiltonian_entries(params, dim)
        upper = rows < cols
        labels = oracle._component_labels(4 * dim, rows[upper], cols[upper])
        np.testing.assert_array_equal(
            labels, union_find_labels(4 * dim, rows[upper], cols[upper]))
        # a chain that runs against the node order, and isolated nodes
        chain = np.arange(9, 0, -1)
        np.testing.assert_array_equal(oracle._component_labels(12, chain, chain - 1),
                                      union_find_labels(12, chain, chain - 1))

    @pytest.mark.parametrize("dim", [20, 60, 198, 400])
    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.3])
    def test_a_mirrored_block_takes_the_residual_of_its_first(self, dim, lam):
        # at omega0 = 0 the m = -1 chain reuses the eigenpairs of the m = +1
        # chain, and h S V - S V E = S (h_0 V - V E) leaves the norm as it is
        params = ModelParams(omega=1.0, lambda_=lam)
        blocks, residual = eigenblocks(params, dim)
        rows, cols, vals = oracle._hamiltonian_entries(params, dim)
        h = np.zeros((4 * dim, 4 * dim))
        np.add.at(h, (rows, cols), vals)
        by_hand = [float(np.linalg.norm(h[np.ix_(index, index)] @ vectors
                                        - vectors * energies))
                   for index, energies, vectors in blocks if index.size > 1]
        assert len(by_hand) == 2
        assert by_hand[0] == by_hand[1] == residual

    @pytest.mark.parametrize("spec", [Thermal(1.0), Coherent(1.0 + 0.5j),
                                      ExplicitDensity([[0.5, 0.5j], [-0.5j, 0.5]])],
                             ids=["thermal", "coherent", "complex-mixture"])
    def test_each_form_lies_on_one_block_pair(self, monkeypatch, spec):
        # at omega0 > 0 every form is built on one pair of parity blocks, so
        # neither side of one is wider than the larger block
        widths = []
        quadratic = oracle._quadratic

        def spy(cos, sin, form, hermitian=False):
            widths.append(form[2].shape)
            return quadratic(cos, sin, form, hermitian)

        monkeypatch.setattr(oracle, "_quadratic", spy)
        split = ModelParams(omega=1.0, lambda_=0.1, omega0=0.3)
        t = np.linspace(0.0, 5.0, 20)
        for kind in BELL_KINDS:
            widths.clear()
            blocks = oracle_concurrence_series(kind, spec, t, split, dim=80).meta["blocks"]
            assert all(max(shape) <= max(blocks) for shape in widths), kind
            # the triplet fills both parity blocks of 3 dim / 2
            assert kind == "psi_minus" or max(map(max, widths)) == 120 == max(blocks)

    @pytest.mark.parametrize("omega0, spec", [
        (0.0, Thermal(2.0)), (0.0, Fock(3)), (0.3, Thermal(2.0)), (0.3, Fock(3)),
        (0.0, Coherent(1.0 + 0.5j)), (0.0, complex_density(6, 3))],
        ids=["0.0-thermal", "0.0-fock", "0.3-thermal", "0.3-fock",
             "0.0-coherent", "0.0-complex-mixture"])
    @pytest.mark.parametrize("kind", BELL_KINDS)
    def test_reduced_states_are_x_states(self, spec, omega0, kind):
        # every Bell state is an eigenstate of the parity (-1)^n sz1 sz2.
        # At omega0 = 0 it populates the m = +-1 labels or one m = 0 label,
        # never both, so whatever the preparation its reduced states in xx
        # have no entry off the diagonal and the anti-diagonal.  At omega0 > 0
        # thermal and number states commute with the parity, and so the
        # reduced states in eg keep only those entries
        params = ModelParams(omega=1.0, lambda_=0.1, omega0=omega0)
        t = np.linspace(0.0, 12.0, 41)
        series = oracle_concurrence_series(kind, spec, t, params)
        _, rho, _, _ = oracle._reduced_states(kind, spec, t, params, series.meta["dim"])
        off_x = np.ones((4, 4), dtype=bool)
        off_x[range(4), range(4)] = off_x[range(4), range(3, -1, -1)] = False
        assert not rho[:, off_x].any()
        np.testing.assert_allclose(series.concurrence, x_state_concurrence(rho),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("omega0", [0.0, 0.3])
    def test_parity_definite_states_need_no_lapack_for_c(self, monkeypatch, omega0):
        # at omega0 = 0 every reduced state is an X state in xx and takes the
        # closed form, whatever the preparation, with the C that LAPACK's
        # spin-flip route gives on the dense reference's states in eg.  At
        # omega0 > 0 so do thermal and number states, in eg, and a coherent
        # state is no X state and takes the spin-flip route
        params = ModelParams(omega=1.0, lambda_=0.1, omega0=omega0)
        t = np.linspace(0.0, 12.0, 41)
        specs = [Thermal(2.0), Fock(3)]
        if omega0 == 0.0:
            specs += [Coherent(1.0 + 0.5j), complex_density(6, 3)]
        calls = spy_on_svd(monkeypatch)
        runs = [(kind, spec, oracle_concurrence_series(kind, spec, t, params))
                for spec in specs for kind in BELL_KINDS]
        assert calls == []
        if omega0 == 0.0:
            for kind, spec, series in runs:
                rho, _ = dense_reduced_states(kind, spec, t, params, series.meta["dim"])
                np.testing.assert_allclose(series.concurrence, wootters_concurrence(rho),
                                           rtol=0, atol=1e-12, err_msg=f"{kind} {spec.label}")
        else:
            oracle_concurrence_series("psi_plus", Coherent(1.0 + 0.5j), t, params)
        assert calls

    def test_a_broken_mirror_keeps_the_spin_flip_route(self, monkeypatch):
        # the same broken H as above: the parity no longer commutes with it
        # and the states in eg are no X states, but in xx they still are, and
        # their closed form gives the C of LAPACK's spin-flip route in eg
        dim, t = 80, np.linspace(0.0, 6.0, 13)
        monkeypatch.setattr(oracle, "_hamiltonian_entries",
                            broken_mirror(oracle._hamiltonian_entries))
        _, rho, _, _ = oracle._reduced_states("psi_plus", Thermal(1.0), t, P, dim)
        eg = eg_states(rho, P)
        assert np.abs(eg[:, oracle._OFF_X]).max() > 1e-7
        calls = spy_on_svd(monkeypatch)
        series = oracle_concurrence_series("psi_plus", Thermal(1.0), t, P, dim=dim)
        assert calls == []
        np.testing.assert_allclose(series.concurrence, wootters_concurrence(eg),
                                   rtol=0, atol=1e-12)
        assert calls

    @settings(max_examples=25, deadline=None)
    @given(scenario=scenarios(omega0=st.floats(0.05, 1.0)))
    def test_reduced_states_at_a_qubit_splitting_are_states(self, scenario):
        # trace 1, Hermitian and positive, C in [0, 1], and symmetric under
        # the exchange of the qubits, as H and every Bell state are; thermal
        # and number states take the closed form, coherent ones LAPACK
        params, spec, kind = scenario
        t = np.linspace(0.0, 6.0, 13)
        dim = choose_dim(spec, params)
        _, rho, _, _ = oracle._reduced_states(kind, spec, t, params, dim)
        series = oracle_concurrence_series(kind, spec, t, params, dim=dim)
        np.testing.assert_allclose(np.trace(rho, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(rho, rho.conj().swapaxes(1, 2))
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert 0.0 <= series.concurrence.min() and series.concurrence.max() <= 1.0
        swap = [0, 2, 1, 3]
        exchanged = rho[:, swap][:, :, swap]
        np.testing.assert_allclose(exchanged, rho, rtol=0, atol=1e-12)
        np.testing.assert_allclose(wootters_concurrence(exchanged), series.concurrence,
                                   rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(scenario=scenarios(omega0=st.just(0.0)))
    def test_series_is_periodic_at_the_degenerate_point(self, scenario):
        # at omega0 = 0 every reduced state returns after one cavity period
        # 2 pi / omega, so C, u and v at t and at t + 2 pi / omega agree
        params, spec, kind = scenario
        t = np.linspace(0.0, 6.0, 13)
        dim = choose_dim(spec, params)
        first = oracle_concurrence_series(kind, spec, t, params, dim=dim)
        later = oracle_concurrence_series(kind, spec, t + 2.0 * math.pi / params.omega,
                                          params, dim=dim)
        np.testing.assert_allclose(later.concurrence, first.concurrence, rtol=0, atol=1e-10)
        assert (later.u is None) == (first.u is None)
        if first.u is not None:
            np.testing.assert_allclose(later.u, first.u, rtol=0, atol=1e-10)
            np.testing.assert_allclose(later.v, first.v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("omega0", [st.just(0.0), st.floats(0.05, 1.0)],
                             ids=["degenerate", "split"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_energy_is_conserved_through_the_eigenpairs(self, omega0, data):
        # each pure column propagated by the oracle's own eigenpairs keeps
        # its energy under H built densely here: sum_k w_k <psi_k(t)|H|psi_k(t)>
        # is constant in t
        params, spec, kind = data.draw(scenarios(omega0=omega0))
        dim = choose_dim(spec, params)
        weights, columns = spec.fock_columns(dim)
        frame = np.kron(_qubit_frame(params), np.eye(dim))
        start = frame @ np.kron(bell_vector(kind)[:, None], columns)
        h = dense_hamiltonian(params, dim)
        blocks, _ = eigenblocks(params, dim)
        energy = []
        for t in np.linspace(0.0, 6.0, 13):
            psi = np.zeros(start.shape, dtype=complex)
            for index, energies, vectors in blocks:
                psi[index] = vectors @ (np.exp(-1j * energies * t)[:, None]
                                        * (vectors.T @ start[index]))
            psi = frame.T @ psi
            energy.append(np.einsum("ik,ij,jk,k->", psi.conj(), h, psi, weights).real)
        np.testing.assert_allclose(energy, energy[0], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("spec", [Fock(3), Thermal(1.0), Coherent(1.5)],
                             ids=["fock", "thermal", "coherent"])
    def test_singlet_is_dark_at_every_qubit_splitting(self, spec):
        # H annihilates (|eg> - |ge>)/sqrt(2) at any omega0, so psi_minus
        # stays maximally entangled while the oscillator moves on its own
        split = ModelParams(omega=1.0, lambda_=0.1, omega0=0.3)
        t = np.linspace(0.0, 30.0, 61)
        series = oracle_concurrence_series("psi_minus", spec, t, split)
        np.testing.assert_allclose(series.concurrence, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("omega0", [0.0, 0.3])
    @pytest.mark.parametrize("spec", [Thermal(0.5), Fock(2)], ids=["thermal", "fock"])
    def test_real_readout_matches_the_complex_one(self, spec, omega0):
        # thermal and number states are read through real forms; the same
        # density as an ExplicitDensity with complex columns, through complex ones
        params = ModelParams(omega=1.0, lambda_=0.1, omega0=omega0)
        dim = choose_dim(spec, params)
        explicit = ComplexColumns(ExplicitDensity(oscillator_density(spec, dim)))
        t = np.linspace(0.0, 6.0, 13)
        for kind in BELL_KINDS:
            real = oracle_concurrence_series(kind, spec, t, params, dim=dim)
            full = oracle_concurrence_series(kind, explicit, t, params, dim=dim)
            for name in ("concurrence", "u", "v", "leakage"):
                if getattr(real, name) is None:
                    assert getattr(full, name) is None
                    continue
                np.testing.assert_allclose(getattr(real, name), getattr(full, name),
                                           rtol=0, atol=1e-12, err_msg=f"{kind} {name}")
            # C, u and v cannot tell rho from rho*, so the states themselves
            _, rho_real, _, _ = oracle._reduced_states(kind, spec, t, params, dim)
            _, rho_full, _, _ = oracle._reduced_states(kind, explicit, t, params, dim)
            np.testing.assert_allclose(rho_real, rho_full, rtol=0, atol=1e-12, err_msg=kind)

    def test_real_states_take_real_forms(self, monkeypatch):
        dtypes = []
        quadratic = oracle._quadratic

        def spy(cos, sin, form, hermitian=False):
            dtypes.append(form[2].dtype)
            return quadratic(cos, sin, form, hermitian)

        monkeypatch.setattr(oracle, "_quadratic", spy)
        t = np.linspace(0.0, 5.0, 20)
        for spec, dtype in ((Thermal(1.0), np.float64), (Fock(2), np.float64),
                            (Coherent(1.0 + 0.5j), np.complex128),
                            (ExplicitDensity(np.eye(2) / 2.0), np.float64),
                            (ExplicitDensity(np.eye(2) / 2.0 + 0j), np.float64),
                            (ExplicitDensity([[0.5, 0.5j], [-0.5j, 0.5]]), np.complex128)):
            dtypes.clear()
            oracle_concurrence_series("psi_plus", spec, t, P)
            assert dtypes and set(dtypes) == {np.dtype(dtype)}, spec.label
        # complex unit columns are not gathered, and keep complex forms
        for kind in BELL_KINDS:
            dtypes.clear()
            oracle_concurrence_series(kind, ComplexColumns(Thermal(2.0)), t, P, dim=80)
            assert dtypes and set(dtypes) == {np.dtype(np.complex128)}, kind
        # the real explicit density is the even mixture of |0> and |1>, and
        # the reduced states are linear in the oscillator density
        dim = choose_dim(Fock(1), P)
        _, mixed, _, _ = oracle._reduced_states("psi_plus", ExplicitDensity(np.eye(2) / 2.0),
                                                t, P, dim)
        parts = [oracle._reduced_states("psi_plus", Fock(n), t, P, dim)[1] for n in (0, 1)]
        np.testing.assert_allclose(mixed, (parts[0] + parts[1]) / 2.0, rtol=0, atol=1e-12)

    def test_conserved_populations_are_read_once(self, monkeypatch):
        # at omega0 = 0 every block lies in one label of the jm frame, so the
        # populations are constant: per chunk, the triplet Bell states read
        # their one coherence form and the leakage, and no population form
        reads = []
        quadratic = oracle._quadratic

        def spy(cos, sin, form, hermitian=False):
            value = quadratic(cos, sin, form, hermitian)
            reads.append((hermitian, np.abs(value).max()))
            return value

        monkeypatch.setattr(oracle, "_quadratic", spy)
        t = np.linspace(0.0, 5.0, 20)
        for kind in ("psi_plus", "phi_plus"):
            reads.clear()
            oracle_concurrence_series(kind, Thermal(1.0), t, P)
            assert [hermitian for hermitian, _ in reads].count(False) == 1, kind
            # a population form would read populations of about 1/2
            leakage = [size for hermitian, size in reads if hermitian]
            assert leakage and max(leakage) <= LEAK_ERROR, kind

    @pytest.mark.parametrize("spec", [Thermal(1.0), Coherent(1.0 + 0.5j)],
                             ids=["thermal", "coherent"])
    def test_mirror_chains_read_one_leakage_form(self, monkeypatch, spec):
        # at omega0 = 0 the m = +1 and m = -1 chains share one energies
        # array, so their leakage forms read the same phases into the same
        # place and are one form: per chunk, one coherence and one leakage
        reads = []
        quadratic = oracle._quadratic

        def spy(cos, sin, form, hermitian=False):
            reads.append(hermitian)
            return quadratic(cos, sin, form, hermitian)

        monkeypatch.setattr(oracle, "_quadratic", spy)
        t = np.linspace(0.0, 5.0, 2 * oracle._PHASE_CHUNK + 1)
        for kind in ("psi_plus", "phi_plus"):
            reads.clear()
            series = oracle_concurrence_series(kind, spec, t, P)
            assert series.meta["blocks"] == [series.meta["dim"]] * 2, kind
            assert reads == [False, True] * 3, kind

    @pytest.mark.parametrize("omega0", [0.0, 0.25])
    @pytest.mark.parametrize("spec", [Thermal(1.0), Fock(3)], ids=["thermal", "fock"])
    def test_unit_columns_are_read_as_their_products(self, spec, omega0):
        # columns of 1.0 are gathered, and at omega0 = 0 the mirror chain's
        # leakage form is its first chain's doubled; -1.0 columns take the
        # products and build both forms.  Every sign squares away in M, so
        # the two routes give the same bits
        params = ModelParams(omega=1.0, lambda_=0.1, omega0=omega0)
        t = np.linspace(0.0, 12.0, 41)
        for kind in BELL_KINDS:
            gathered = oracle_concurrence_series(kind, spec, t, params)
            product = oracle_concurrence_series(kind, NegatedColumns(spec), t, params,
                                                dim=gathered.meta["dim"])
            for name in ("concurrence", "u", "v", "leakage"):
                np.testing.assert_array_equal(getattr(gathered, name), getattr(product, name),
                                              err_msg=f"{kind} {name}")
            assert gathered.meta == product.meta, kind

    def test_unequal_chain_amplitudes_build_both_leakage_forms(self, monkeypatch):
        # 0.8|ee> + 0.6|eg>, no Bell state, puts amplitudes 0.7 and 0.1 on
        # the m = +1 and m = -1 chains: their leakage forms differ, so the
        # mirror's is built, not its first chain's doubled
        monkeypatch.setattr(oracle, "bell_vector", lambda kind: np.array([0.8, 0.6, 0.0, 0.0]))
        t, dim = np.linspace(0.0, 12.0, 41), 40
        _, rho, leakage, _ = oracle._reduced_states("psi_plus", Thermal(1.0), t, P, dim)
        _, rho_product, leakage_product, _ = oracle._reduced_states(
            "psi_plus", NegatedColumns(Thermal(1.0)), t, P, dim)
        assert leakage.max() > 0.0
        np.testing.assert_array_equal(leakage, leakage_product)
        np.testing.assert_array_equal(rho, rho_product)

    @pytest.mark.parametrize("spec", [Thermal(1.0), Fock(2), Coherent(1.0 + 0.5j)],
                             ids=["thermal", "fock", "coherent"])
    @pytest.mark.parametrize("kind", ["psi_plus", "phi_plus"])
    def test_mirrored_leakage_is_the_sum_of_both_chains(self, spec, kind):
        # each chain's leakage form built on its own from every column, as
        # (V_top^T V_top) o (C W C^dagger): the one form _forms returns for
        # the pair is their sum, bit for bit
        dim = choose_dim(spec, P)
        weights, columns = spec.fock_columns(dim)
        amplitude = _qubit_frame(P) @ bell_vector(kind)
        blocks, _ = eigenblocks(P, dim, np.kron(amplitude ** 2,
                                                (np.abs(columns) ** 2) @ weights))
        chains = []
        for index, _, vectors in blocks:
            label, fock = np.divmod(index, dim)
            coeff = (amplitude[label, None] * vectors).T @ columns[fock]
            # two copies of the top rows: numpy takes a product of an array
            # with its own transpose as a symmetric one, with other round-off
            top = fock >= dim - 2
            chains.append(((coeff * weights) @ coeff.T.conj()) * (vectors[top].T @ vectors[top]))
        assert len(chains) == 2
        leakage = [g for a, _, (_, _, g) in oracle._forms(kind, spec, P, dim)[2] if a is None]
        assert len(leakage) == 1
        np.testing.assert_array_equal(leakage[0], chains[0] + chains[1])

    def test_forms_are_built_in_place(self):
        # Thermal(5) at dim 198: two chain blocks of 198, whose forms and
        # the columns, eigenvectors and coefficients they are built from
        # peak at about 2.77 MiB when each block pair's last form is
        # multiplied into M; one more dim^2 array alive reads 3.06 MiB
        t = 1.0 + np.linspace(0.0, 4.0 * math.pi, 400)
        series, peak = self.traced_peak("psi_plus", Thermal(5.0), t, P)
        assert series.meta["dim"] == 198
        assert peak < 2.9 * 2 ** 20

    @staticmethod
    def traced_peak(*args, **kwargs):
        """The series and the tracemalloc peak of computing it."""
        tracemalloc.start()
        try:
            series = oracle_concurrence_series(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return series, peak

    def test_peak_bytes_counts_the_largest_case(self):
        # omega0 > 0, a triplet and a complex mixture: two parity blocks of
        # 3 dim / 2 read through complex forms, the case peak_bytes counts
        dim, t = 100, np.linspace(0.0, 5.0, 300)
        split = ModelParams(omega=1.0, lambda_=0.1, omega0=0.3)
        series, peak = self.traced_peak("psi_plus", complex_density(60, 5), t, split, dim=dim)
        assert series.meta["blocks"] == [150, 150]
        assert 0.8 * peak_bytes(dim) <= peak <= peak_bytes(dim)

    @pytest.mark.parametrize("dim", [60, 100, 250])
    @pytest.mark.parametrize("omega0", [0.0, 0.3])
    def test_peak_bytes_bounds_every_preparation(self, dim, omega0):
        t = np.linspace(0.0, 5.0, 300)
        params = ModelParams(omega=1.0, lambda_=0.1, omega0=omega0)
        for spec in (Thermal(1.0), Coherent(1.0 + 0.5j), Fock(3)):
            _, peak = self.traced_peak("phi_plus", spec, t, params, dim=dim)
            assert peak <= peak_bytes(dim), spec.label


class LoggedMatrix(np.ndarray):
    """A view of a matrix that logs, for each matrix product it is a factor
    of, its side and the shape of the other factor; its transpose shares
    the log."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", [])

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            left, right = inputs
            self.log.append(("left", np.shape(right)) if left is self
                            else ("right", np.shape(left)))
        plain = [x.view(np.ndarray) if isinstance(x, LoggedMatrix) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestTridiagonalRoute:
    """At omega0 = 0 every block the oracle diagonalises is an m chain, which
    is tridiagonal and goes to LAPACK's dstedc where numpy's LAPACK exports
    it.  np.linalg.eigh reaches the same routine after a reduction that
    leaves a tridiagonal matrix as it is, so both give the same bits."""

    def test_numpys_openblas_exports_the_routine(self):
        # a renamed symbol must fail here, not fall back to the dense eigh unseen
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
        assert oracle._DSTEDC is not None or lapack != "scipy-openblas", lapack

    @pytest.mark.parametrize("dim", [2, 3, 25, 26, 60, 198])
    def test_a_chain_takes_the_bits_of_a_dense_eigh(self, dim):
        # sizes either side of LAPACK's SMLSIZ = 25, below which dstedc hands
        # a problem to dsteqr
        rows, cols, vals = oracle._hamiltonian_entries(P, dim)
        h = np.zeros((4 * dim, 4 * dim))
        np.add.at(h, (rows, cols), vals)
        index = next(index for index, _, _ in eigenblocks(P, dim)[0] if index.size > 1)
        chain = h[np.ix_(index, index)]
        energies, vectors = oracle._eigh(chain, tridiagonal=True)
        expected = np.linalg.eigh(chain)
        assert chain.shape == (dim, dim) and vectors.flags.c_contiguous
        assert energies.tobytes() == expected[0].tobytes()
        assert vectors.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("spec", [Thermal(5.0), Coherent(1.0 + 0.5j), Fock(3)],
                             ids=["thermal", "coherent", "fock"])
    def test_the_series_keeps_its_bits_without_the_routine(self, monkeypatch, spec):
        t = np.linspace(0.0, 4.0 * math.pi, 101)
        runs = []
        for routine in (oracle._DSTEDC, None):
            monkeypatch.setattr(oracle, "_DSTEDC", routine)
            runs.append(oracle_concurrence_series("psi_plus", spec, t, P))
        for field in ("concurrence", "u", "v", "leakage"):
            bits = [getattr(run, field).tobytes() for run in runs]
            assert bits[0] == bits[1], field
        assert runs[0].meta == runs[1].meta

    def test_a_lapack_failure_raises_as_eigh_would(self, monkeypatch):
        monkeypatch.setattr(oracle, "_DSTEDC", lambda *args: -4)
        with pytest.raises(np.linalg.LinAlgError, match="info = -4"):
            oracle._eigh(np.eye(3), tridiagonal=True)


class TestPairRotation:
    """One pair rotation P, defined in model, is the oracle's frame at
    omega0 > 0, gives its jm frame at omega0 = 0 after H (x) H, and rotates
    the reduced states back at both."""

    def test_jm_is_the_pair_rotation_after_hadamards(self):
        s = 1.0 / math.sqrt(2.0)
        typed = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, s, s, 0.0],
                          [0.0, s, -s, 0.0], [0.0, 0.0, 0.0, 1.0]])
        assert model.PAIR_ROTATION.tobytes() == typed.tobytes()
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert (model.PAIR_ROTATION @ np.kron(hadamard, hadamard)).tobytes() == \
            JM_FROM_EG.tobytes()

    @pytest.mark.parametrize("omega0", [0.0, 0.25])
    def test_both_frames_and_the_rotation_back_use_it(self, monkeypatch, omega0):
        params = ModelParams(omega=1.0, lambda_=0.2, omega0=omega0)
        assert _qubit_frame(params) is (JM_FROM_EG if omega0 == 0.0 else model.PAIR_ROTATION)
        t = np.linspace(0.0, 4.0 * math.pi, 9)
        spec = Coherent(1.0 + 0.5j)
        _, expected, _, _ = oracle._reduced_states("psi_plus", spec, t, params, 40)
        logged = model.PAIR_ROTATION.view(LoggedMatrix)
        monkeypatch.setattr(oracle, "PAIR_ROTATION", logged)
        _, rho, _, _ = oracle._reduced_states("psi_plus", spec, t, params, 40)
        # the stack goes back as (P^T rho) P, one product on each side
        assert {("left", (4, 4 * t.size)), ("right", (4 * t.size, 4))} <= set(logged.log)
        # and at omega0 > 0 P is the frame of H's operators and of the Bell vector
        assert ({("left", (4, 4)), ("left", (4,))} <= set(logged.log)) == (omega0 > 0.0)
        assert rho.tobytes() == expected.tobytes()

    def test_the_qubit_operators_are_the_typed_tables(self):
        # built from the Pauli matrices, entry for entry the tables they replace
        typed = {
            "_SX_SUM": np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0],
                                 [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]),
            "_SZ_SUM": np.diag([2.0, 0.0, 0.0, -2.0]),
            "_SIGMA_YY": np.array([[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0],
                                   [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]),
            "_OFF_X": np.array([[False, True, True, False], [True, False, False, True],
                                [True, False, False, True], [False, True, True, False]]),
        }
        for name, table in typed.items():
            built = getattr(oracle, name)
            assert built.dtype == table.dtype and built.tobytes() == table.tobytes(), name


class TestRotatingWaveLimit:
    """H's factors against the literature at omega0 > 0: at resonance the
    oracle approaches the Tavis-Cummings closed form as lambda/omega -> 0."""

    BETAS = (0.04, 0.02, 0.01, 0.005)

    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize("n_index", [0, 2])
    def test_gap_to_the_closed_form_falls_linearly_in_the_coupling(self, n_index, omega):
        # max |C_oracle - C_RWA| over one period 2 pi/Omega of the manifold
        # N = n + 2.  The counter-rotating terms and their Bloch-Siegert shift
        # put it at O(lambda/omega): at omega = 1 it is 0.022, 0.011, 0.0054
        # and 0.0027 for n = 0, and 0.070, 0.035, 0.018 and 0.0087 for n = 2.
        # A wrong factor in H leaves the oracle off resonance or at another
        # Rabi frequency, where the gap does not fall with the coupling
        gaps = []
        for beta in self.BETAS:
            params = ModelParams(omega=omega, lambda_=beta * omega, omega0=omega)
            rabi = params.lambda_ * math.sqrt(2.0 * (2 * n_index + 3))
            t = np.linspace(0.0, 2.0 * math.pi / rabi, 2001)
            series = oracle_concurrence_series("phi_plus", Fock(n_index), t, params)
            closed = x_state_concurrence(tavis_cummings_phi_plus_fock(n_index, t, params))
            gaps.append(np.abs(series.concurrence - closed).max())
        halving = np.array(gaps[1:]) / gaps[:-1]
        assert ((0.4 < halving) & (halving < 0.6)).all(), gaps
        assert (np.array(gaps) < 2.5 * np.array(self.BETAS)).all(), gaps


class TestHamiltonian:
    def test_decoupled_limit_is_the_bare_oscillator(self):
        free = ModelParams(omega=1.0, lambda_=0.0)
        h = dense_hamiltonian(free, 12)
        levels = np.sort(np.linalg.eigvalsh(h))
        expected = np.repeat(np.arange(12.0), 4)
        np.testing.assert_allclose(levels, expected, atol=1e-12)

    def test_lowest_level_is_shifted_down_by_the_coupling(self):
        h = dense_hamiltonian(P, 60)
        ground = np.linalg.eigvalsh(h)[0]
        assert ground == pytest.approx(-4.0 * P.beta ** 2, abs=1e-10)

    def test_predicted_levels_match_diagonalization_deep_into_the_stack(self):
        dim = 60
        computed = np.sort(np.linalg.eigvalsh(dense_hamiltonian(P, dim)))
        predicted = predicted_spectrum(P, dim)
        check = 2 * dim
        np.testing.assert_allclose(computed[:check], predicted[:check],
                                   atol=1e-8)

    def test_each_rung_splits_two_shifted_two_flat(self):
        predicted = predicted_spectrum(P, 40)
        for n in range(5):
            block = predicted[4 * n:4 * (n + 1)]
            np.testing.assert_allclose(
                block, [n - 4.0 * P.beta ** 2, n - 4.0 * P.beta ** 2,
                        float(n), float(n)], atol=1e-12)

    def test_prediction_needs_the_degenerate_point(self):
        with pytest.raises(ValueError):
            predicted_spectrum(ModelParams(omega=1.0, lambda_=0.1, omega0=0.3), 20)

    def test_hermitian(self):
        h = dense_hamiltonian(ModelParams(omega=1.3, lambda_=0.2, omega0=0.4), 15)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


class TestDisplacedStates:
    def test_normalized(self):
        for n in (0, 1, 4):
            for m in (-1, 1):
                psi = displaced_number_state(n, m, P, 40)
                assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_counter_displaced_vacua_overlap(self):
        up = displaced_number_state(0, 1, P, 40)
        down = displaced_number_state(0, -1, P, 40)
        assert np.vdot(up, down) == pytest.approx(EXP_M008, abs=1e-12)

    def test_same_displacement_keeps_orthonormality(self):
        states = [displaced_number_state(n, 1, P, 40) for n in range(4)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_truncation_overflow_raises(self):
        big = ModelParams(omega=1.0, lambda_=2.0)
        with pytest.raises(TruncationError):
            displaced_number_state(0, 1, big, 6)


class TestPartialTrace:
    def test_recovers_qubit_factor_of_a_product(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho_q = np.outer(v, v.conj())
        rho_q /= np.trace(rho_q).real
        pops = rng.random(6)
        rho_osc = np.diag(pops / pops.sum()).astype(complex)
        np.testing.assert_allclose(
            partial_trace_oscillator(np.kron(rho_q, rho_osc), 6), rho_q,
            atol=1e-13)

    def test_trace_is_preserved(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        reduced = partial_trace_oscillator(rho, 5)
        assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-12)


class TestWootters:
    def test_bell_states_are_maximally_entangled(self):
        for kind in ("psi_plus", "psi_minus", "phi_plus", "phi_minus"):
            assert wootters_concurrence(bell_state(kind)) == pytest.approx(
                1.0, abs=1e-12)

    def test_maximally_mixed_state_is_separable(self):
        assert wootters_concurrence(np.eye(4) / 4.0) == 0.0

    def test_werner_family_threshold(self):
        psi = bell_vector("psi_minus")
        proj = np.outer(psi, psi.conj())
        for p in (0.1, 1.0 / 3.0, 0.5, 0.9):
            rho = p * proj + (1.0 - p) * np.eye(4) / 4.0
            expect = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert wootters_concurrence(rho) == pytest.approx(expect, abs=1e-12)

    def test_dephased_bell_concurrence_equals_coherence(self):
        # the family (1/4)[[1-u,0,0,1-u],[0,1+u,1+u,0],...] that the model
        # produces at v = 0 has concurrence exactly |u|
        for u in (0.0, 0.3, 0.73, 1.0):
            top, mid = 1.0 - u, 1.0 + u
            m = np.array([
                [top, 0, 0, top],
                [0, mid, mid, 0],
                [0, mid, mid, 0],
                [top, 0, 0, top],
            ], dtype=complex) / 4.0
            assert wootters_concurrence(m) == pytest.approx(u, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(stack=density_stacks(), data=st.data())
    def test_stack_matches_per_matrix_calls(self, stack, data):
        conc = wootters_concurrence(stack)
        assert conc.shape == (stack.shape[0],)
        assert np.array_equal(conc, [wootters_concurrence(m) for m in stack])
        bad = stack.copy()
        bad[data.draw(st.integers(0, stack.shape[0] - 1)), 0, 1] += 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            wootters_concurrence(bad)

    @settings(max_examples=80, deadline=None)
    @given(stack=x_state_stacks(),
           angles=st.lists(st.floats(0.3, 1.2), min_size=2, max_size=2),
           phases=st.lists(st.floats(-3.2, 3.2), min_size=4, max_size=4))
    def test_x_states_match_the_spin_flip_route(self, stack, angles, phases):
        # local unitaries U1 (x) U2 leave C as it is and make the copy no X
        # state, so it takes the LAPACK route
        u = np.kron(unitary(angles[0], *phases[:2]), unitary(angles[1], *phases[2:]))
        rotated = u @ stack @ u.conj().T
        assume(rotated[:, oracle._OFF_X].any())
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_on_svd(patch)
            closed = wootters_concurrence(stack)
            assert calls == []
            np.testing.assert_allclose(closed, wootters_concurrence(rotated),
                                       rtol=0, atol=1e-12)
            assert calls
        np.testing.assert_allclose(closed, x_state_concurrence(stack), rtol=0, atol=1e-15)

    def test_x_states_are_checked_as_any_other(self):
        # the closed form keeps both checks of the spin-flip route, with the
        # same messages: on an X state and on a copy that is none
        u = np.kron(unitary(0.4, 0.3, -1.1), unitary(0.9, 2.0, 0.5))
        skew = np.array(bell_state("psi_plus"), dtype=complex)
        skew[1, 2] += 0.1
        # eigenvalues 1.1 and -0.1 on the block {ee, gg}
        negative = np.zeros((4, 4))
        negative[np.ix_([0, 3], [0, 3])] = [[0.5, 0.6], [0.6, 0.5]]
        for rho in (skew, u @ skew @ u.conj().T):
            with pytest.raises(ValueError, match="not Hermitian within 1e-9"):
                wootters_concurrence(rho)
        for rho in (negative, u @ negative @ u.conj().T):
            with pytest.raises(ValueError, match=r"eigenvalue -1\.000e-01 below -1e-9"):
                wootters_concurrence(rho)
        # a NaN, which LAPACK refuses, gives no concurrence on an X state either
        with pytest.raises(ValueError, match="eigenvalue nan"):
            wootters_concurrence(np.diag([np.nan, 0.5, 0.5, 0.0]))


class TestInitialStates:
    def test_thermal_occupation_is_geometric(self):
        rho = oscillator_density(Thermal(1.0), 40)
        pops = np.diag(rho).real
        assert pops[0] == pytest.approx(0.5, abs=1e-10)
        ratios = pops[1:6] / pops[:5]
        np.testing.assert_allclose(ratios, 0.5, atol=1e-10)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coherent_populations_are_poissonian(self):
        rho = oscillator_density(Coherent(1.0), 30)
        pops = np.diag(rho).real
        assert pops[0] == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert pops[2] == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-10)

    def test_number_state_is_a_single_level(self):
        rho = oscillator_density(Fock(3), 10)
        expected = np.zeros((10, 10))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(rho, expected, atol=0)

    def test_explicit_matrix_is_embedded(self):
        inner = np.diag([0.25, 0.75]).astype(complex)
        rho = oscillator_density(ExplicitDensity(inner), 8)
        np.testing.assert_allclose(rho[:2, :2], inner, atol=0)
        assert np.abs(rho[2:, :]).max() == 0.0

    def test_oversized_preparations_raise(self):
        with pytest.raises(TruncationError):
            oscillator_density(Coherent(4.0), 10)
        with pytest.raises(TruncationError):
            oscillator_density(Thermal(5.0), 10)
        with pytest.raises(TruncationError):
            oscillator_density(Fock(12), 10)
        with pytest.raises(TruncationError):
            oscillator_density(ExplicitDensity(np.eye(12) / 12.0), 10)

    def test_invalid_decomposition_is_rejected_before_propagation(self, monkeypatch):
        class Decomposed:
            label, reach = "decomposed", (0.0, 2)

            def __init__(self, weights, columns):
                self.weights, self.columns = np.array(weights), np.array(columns)

            def fock_columns(self, dim):
                return self.weights, self.columns

        e0, e1 = np.eye(20, dtype=complex)[:, :2].T
        t = np.array([0.0, 1.0])
        ok = Decomposed([0.25, 0.75], np.stack([e0, e1], axis=1))
        mixed = oracle_concurrence_series("psi_plus", ok, t, P, dim=20)
        assert mixed.concurrence[0] == pytest.approx(1.0, abs=1e-12)
        for bad in (Decomposed([0.5, 0.6], ok.columns),
                    Decomposed([1.5, -0.5], ok.columns),
                    Decomposed([0.5, 0.5], np.stack([e0, (e0 + e1) / math.sqrt(2.0)],
                                                    axis=1)),
                    # real unit columns on one Fock row, whose rows are compared
                    Decomposed([0.5, 0.5], np.eye(20)[:, [1, 1]]),
                    Decomposed([0.25, 0.25, 0.5], np.eye(20)[:, [3, 0, 3]])):
            calls = spy_on_eigh(monkeypatch)
            with pytest.raises(ValueError, match="weights|orthonormal"):
                oracle_concurrence_series("psi_plus", bad, t, P, dim=20)
            assert calls == []


class TestTruncationRule:
    @pytest.mark.parametrize("spec,expected", [
        (Thermal(2.0), 117),
        (Thermal(1.0), 80),
        (Thermal(0.5), 61),
        (Coherent(2j), 46),
        (Coherent(0.0), 21),
        (Fock(5), 26),
    ])
    def test_reference_dimensions(self, spec, expected):
        assert choose_dim(spec, P) == expected

    def test_floor_of_twenty(self):
        tiny = ModelParams(omega=1.0, lambda_=0.0)
        assert choose_dim(Fock(0), tiny) >= 20

    def test_explicit_density_counts_its_own_levels(self):
        small = choose_dim(ExplicitDensity(np.eye(2) / 2.0), P)
        large = choose_dim(ExplicitDensity(np.eye(30) / 30.0), P)
        assert large - small == 28

    @staticmethod
    def accepts(spec, dim):
        try:
            spec.fock_columns(dim)
        except TruncationError:
            return False
        return True

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.2, 0.35])
    def test_thermal_dim_is_raised_only_where_its_tail_needs_it(self, beta):
        params = ModelParams(omega=1.0, lambda_=beta)
        raised = 0
        for mean_n in np.concatenate([np.linspace(0.0, 30.0, 61), [4.0, 5.0, 17.0, 18.0]]):
            spec = Thermal(float(mean_n))
            s = spec.reach[0] + 4.0 * beta
            rule = max(20, math.ceil(s * s) + 10 * math.ceil(s) + 10)
            dim = choose_dim(spec, params)
            assert self.accepts(spec, dim)
            if self.accepts(spec, rule):
                assert dim == rule
            else:
                # the least dim the tail check passes
                assert dim > rule and not self.accepts(spec, dim - 1)
                raised += 1
        assert raised > 0
        # the benchmark's oracle jobs keep their dims
        assert choose_dim(Thermal(5.0), P) == 198 and choose_dim(Thermal(4.0), P) == 171

    @pytest.mark.parametrize("mean_n", [0.0, 1.0, 3.393954738050063, 18.0])
    def test_tail_level_is_the_least_dim_the_columns_accept(self, mean_n):
        # at 3.393954738050063 the logarithms give 107, one level short
        spec = Thermal(mean_n)
        assert self.accepts(spec, spec.tail_level)
        assert not self.accepts(spec, spec.tail_level - 1)

    @pytest.mark.parametrize("mean_n, dim", [(18.0, 512), (20.0, 567)])
    def test_large_thermal_default_dim_matches_the_closed_form(self, mean_n, dim):
        params = ModelParams(omega=1.0, lambda_=0.2)
        spec, t = Thermal(mean_n), np.linspace(0.0, 2.0 * math.pi, 5)
        series = oracle_concurrence_series("psi_plus", spec, t, params)
        assert series.meta["dim"] == dim
        i_t = coherence_integral(spec, t, params)
        # the floor here is the thermal tail the dim drops (just under TAIL_TOL
        # = 1e-12), not round-off: the gap is 3.7e-12 at both dims, 6e-15 at
        # dim + 130; the tolerance is over 100 times it
        np.testing.assert_allclose(series.u + 1j * series.v, i_t, rtol=0, atol=5e-10)
        np.testing.assert_allclose(series.concurrence, np.abs(i_t), rtol=0, atol=5e-10)
        assert series.leakage.max() <= 1e-10


class TestConcurrenceSeries:
    def test_stationary_preparations_stay_maximally_entangled(self):
        t = np.linspace(0.0, 4.0 * math.pi, 25)
        for kind in ("psi_minus", "phi_minus"):
            series = oracle_concurrence_series(kind, Thermal(1.0), t, P)
            np.testing.assert_allclose(series.concurrence, 1.0, atol=1e-8)
            assert series.u is None and series.v is None

    def test_symmetric_pair_evolves_identically(self):
        t = np.linspace(0.0, 4.0 * math.pi, 40)
        a = oracle_concurrence_series("psi_plus", Coherent(1.0), t, P)
        b = oracle_concurrence_series("phi_plus", Coherent(1.0), t, P)
        np.testing.assert_allclose(a.concurrence, b.concurrence, atol=1e-10)

    def test_matches_closed_form_for_thermal_preparation(self):
        t = np.linspace(0.0, 4.0 * math.pi, 60)
        series = oracle_concurrence_series("psi_plus", Thermal(1.0), t, P)
        np.testing.assert_allclose(series.concurrence,
                                   np.abs(coherence_integral(Thermal(1.0), t, P)),
                                   rtol=0, atol=two_route_tolerance(P.omega, t))

    def test_coherence_columns_track_the_overlap_integral(self):
        t = np.linspace(0.0, 2.0 * math.pi, 20)
        series = oracle_concurrence_series("psi_plus", Coherent(2j), t, P)
        i_t = coherence_integral(Coherent(2j), t, P)
        np.testing.assert_allclose(series.u + 1j * series.v, i_t, atol=1e-8)

    def test_agrees_with_full_density_conjugation(self):
        # cross-route: the batched pure-state path against expm(-iHt)
        # conjugation of the complete composite density, sharing no eigh
        spec, t = Thermal(0.5), 2.6
        dim = choose_dim(spec, P)
        series = oracle_concurrence_series("psi_plus", spec, np.array([t]), P)
        v = bell_vector("psi_plus")
        rho0 = np.kron(np.outer(v, v.conj()), oscillator_density(spec, dim))
        u = expm(-1j * dense_hamiltonian(P, dim) * t)
        rho_q = partial_trace_oscillator(u @ rho0 @ u.conj().T, dim)
        assert series.concurrence[0] == pytest.approx(
            wootters_concurrence(rho_q), abs=1e-11)

    def test_reduced_density_helper_matches_series_point(self):
        spec, t = Coherent(1.0), 1.7
        rho = oracle_reduced_density("psi_plus", spec, t, P)
        series = oracle_concurrence_series("psi_plus", spec, np.array([t]), P)
        assert wootters_concurrence(rho) == pytest.approx(
            series.concurrence[0], abs=1e-12)

    def test_single_time_density_aborts_on_leakage(self):
        # the same point aborts a one-point series with leakage 7.4e-06
        strong = ModelParams(omega=1.0, lambda_=0.3)
        with pytest.raises(TruncationError, match="leakage"):
            oracle_reduced_density("psi_plus", Coherent(2.0), 2.0944, strong, dim=26)

    def test_initial_point_is_maximally_entangled(self):
        series = oracle_concurrence_series("phi_plus", Fock(2),
                                           np.array([0.0, 1.0]), P)
        assert series.concurrence[0] == pytest.approx(1.0, abs=1e-10)

    def test_undersized_basis_aborts_with_truncation_error(self):
        t = np.linspace(0.0, 2.0 * math.pi, 10)
        strong = ModelParams(omega=1.0, lambda_=0.3)
        with pytest.raises(TruncationError):
            oracle_concurrence_series("psi_plus", Coherent(2.0), t, strong,
                                      dim=12)
        # dim 12 already fails the preparation's tail check; at dim 26 the
        # state fits and only leaks into the top rungs later, and the abort
        # names the first grid time at which a one-point run also aborts
        offending = []
        for t_k in t:
            try:
                oracle_concurrence_series("psi_plus", Coherent(2.0), np.array([t_k]),
                                          strong, dim=26)
            except TruncationError:
                offending.append(t_k)
        assert offending and offending[0] > t[0]
        with pytest.raises(TruncationError,
                           match=re.escape(f"at t={offending[0]:g} with dim=26")):
            oracle_concurrence_series("psi_plus", Coherent(2.0), t, strong, dim=26)

    def test_leakage_is_recorded_and_bounded(self):
        t = np.linspace(0.0, 4.0 * math.pi, 30)
        series = oracle_concurrence_series("psi_plus", Thermal(1.0), t, P)
        assert series.leakage is not None
        assert float(series.leakage.max()) <= LEAK_ERROR
        assert series.meta["leakage_flagged"] in (False, True)

    def test_meta_records_the_run(self):
        series = oracle_concurrence_series("psi_plus", Thermal(1.0),
                                           np.array([0.0, 1.0]), P, dim=80)
        assert series.meta["dim"] == 80
        assert series.meta["qubit_init"] == "psi_plus"
        assert series.meta["params"]["lambda"] == 0.1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            oracle_concurrence_series("bell", Thermal(1.0), np.array([0.0]), P)
        with pytest.raises(ValueError):
            oracle_concurrence_series("psi_plus", Thermal(1.0),
                                      np.array([[0.0]]), P)


class TestConvergence:
    def test_error_shrinks_under_truncation_refinement(self):
        # doubling basis sizes: the gap to the closed form must fall
        # (within ten percent) until it hits the numerical floor
        floor = 1e-12
        t = np.linspace(0.0, 2.0 * math.pi, 15)
        strong = ModelParams(omega=1.0, lambda_=0.3)
        target = np.abs(coherence_integral(Coherent(1.0), t, strong))
        errs = []
        for dim in (24, 48, 96):
            series = oracle_concurrence_series("psi_plus", Coherent(1.0), t,
                                               strong, dim=dim)
            errs.append(float(np.abs(series.concurrence - target).max()))
        assert errs[0] > 1e-10  # the first point must sit above the floor
        for prev, nxt in zip(errs[:-1], errs[1:]):
            assert nxt <= max(1.1 * prev, floor)

    def test_degenerate_limit_is_approached_continuously(self):
        # omega0 -> 0 at fixed coupling: the oracle must converge onto the
        # degenerate closed form quadratically, not jump
        t = np.linspace(0.0, 2.0 * math.pi, 12)
        target = np.abs(coherence_integral(Thermal(0.5), t, P))
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            params = ModelParams(omega=1.0, lambda_=0.1, omega0=eps * 0.1)
            series = oracle_concurrence_series("psi_plus", Thermal(0.5), t,
                                               params, dim=61)
            gaps.append(float(np.abs(series.concurrence - target).max()))
        assert gaps[0] > gaps[1] > gaps[2]


#: faults injected into a copy of oracle.py: (anchor, its replacement)
FAULTS = {
    "none": None,
    "coupling-1e-7": ("band = params.lambda_ * np.sqrt(",
                      "band = params.lambda_ * (1.0 + 1e-7) * np.sqrt("),
    "omega-1e-6": ("params.omega * n) for q in range(4)]",
                   "params.omega * (1.0 + 1e-6) * n) for q in range(4)]"),
    "unconjugated-coherence": ("rho[chunk, b, a] += value.conj()",
                               "rho[chunk, b, a] += value"),
    "time-reversed": ("np.multiply.outer(times[chunk], half_energies",
                      "np.multiply.outer(-times[chunk], half_energies"),
    "sign-of-i-flipped": ('sign = -1.0 if qubit_init == "psi_plus" else 1.0',
                          'sign = 1.0 if qubit_init == "psi_plus" else -1.0'),
    # the tridiagonal route: V^T for V, and h's strided off-diagonal passed
    # as it is, so dstedc reads h's second row as the off-diagonal
    "dstedc-vectors-transposed": ("np.ascontiguousarray(vectors.T)",
                                  "np.ascontiguousarray(vectors)"),
    "dstedc-off-diagonal-uncopied": ("off = np.array(h.diagonal(-1), dtype=np.float64)",
                                     "off = h.diagonal(-1)"),
}

#: the preparations of the matrix; only Coherent's I is complex, and three of
#: the faults leave a real I as it is
FAULT_SPECS = (Thermal(5.0), Coherent(1.0 + 0.5j), Fock(3))

_FAULT_RUN = f"""
import json, math, sys
import numpy as np
from tc2q import oracle
from tc2q.model import Coherent, Fock, ModelParams, Thermal
t = np.linspace(0.0, 4.0 * math.pi, 101)
runs = [oracle.oracle_concurrence_series("psi_plus", spec, t, ModelParams(1.0, 0.1))
        for spec in ({", ".join(map(repr, FAULT_SPECS))},)]
json.dump({{"module": oracle.__file__,
           "series": [[s.concurrence.tolist(), s.u.tolist(), s.v.tolist()] for s in runs]}},
          sys.stdout)
"""


class TestFaultMatrix:
    """Each fault in the oracle fails the two-route gate for at least one
    preparation, and the unedited oracle passes it for all.  The faults are
    text edits of a copy of the package, run in a fresh interpreter."""

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_the_two_route_gate_catches_the_fault(self, tmp_path, fault):
        package = tmp_path / "tc2q"
        shutil.copytree(Path(oracle.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if FAULTS[fault] is not None:
            anchor, replacement = FAULTS[fault]
            source = (package / "oracle.py").read_text()
            # a refactor that moves an anchor must not retire its fault silently
            assert source.count(anchor) == 1, f"anchor {anchor!r} is not in oracle.py once"
            (package / "oracle.py").write_text(source.replace(anchor, replacement))
        done = subprocess.run([sys.executable, "-c", _FAULT_RUN], capture_output=True,
                              text=True, check=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(tmp_path)})
        result = json.loads(done.stdout)
        assert Path(result["module"]).parent == package
        t = np.linspace(0.0, 4.0 * math.pi, 101)
        tolerance = two_route_tolerance(1.0, t)
        gaps = []  # the larger of the gaps in C and in I, per preparation
        for spec, (conc, u, v) in zip(FAULT_SPECS, result["series"]):
            i_t = coherence_integral(spec, t, P)
            gaps.append(max(np.abs(np.array(conc) - np.abs(i_t)).max(),
                            np.abs(np.array(u) + 1j * np.array(v) - i_t).max()))
        assert (max(gaps) > tolerance) == (fault != "none"), gaps
