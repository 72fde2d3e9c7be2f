"""Cross-checks of the RHS kernels: the einsum RHS, its generator matrices
and the complex commutator oracle."""

import numpy as np
import pytest

from spintrio import pauli
from spintrio.dynamics import (CouplingConstants, FieldSpec, IntegratorConfig,
                               generators, integrate, rhs_three, stack)

from conftest import kron3, random_density


def commutator_rhs3(r, he, hp, hn, coupling):
    """Reference derivative via rho -> -i[H, rho] -> R."""
    rho = pauli.r_to_rho(r, validate=False)
    H = pauli.build_hamiltonian(he, hp, hn, coupling)
    return pauli.rho_to_r(-1j * (H @ rho - rho @ H), validate=False)


def pair_rhs(r2, h, mults, j_ep):
    """dR/dtau of the three-qubit system integrate_two runs, at r2 with n
    maximally mixed: the stack for qubit fields (m_e h, m_p h, 0) and
    j_en = j_pn = 0, weighted by [1, h].  Returns the (a, b, 0) slice and
    asserts that every (a, b, c != 0) derivative is exactly 0, so the
    slice evolves on its own."""
    r = np.zeros((4, 4, 4))
    r[:, :, 0] = r2
    a = np.tensordot(np.concatenate([[1.0], h]),
                     stack((*mults, 0.0), CouplingConstants(j_ep, 0.0, 0.0)),
                     axes=1)
    d = (a @ r.ravel()).reshape(4, 4, 4)
    assert np.all(d[:, :, 1:] == 0.0)
    return d[:, :, 0]


def commutator_rhs2(r2, he, hp, j_ep):
    """Two-qubit reference: 4x4 commutator in the sigma x sigma basis."""
    basis2 = np.array([[np.kron(pauli.SIGMA[a], pauli.SIGMA[b])
                        for b in range(4)] for a in range(4)])
    rho = np.einsum('ab,abij->ij', r2, basis2) / 4.0
    H = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        H += 0.5 * he[i] * np.kron(pauli.SIGMA[i + 1], pauli.SIGMA[0])
        H += 0.5 * hp[i] * np.kron(pauli.SIGMA[0], pauli.SIGMA[i + 1])
        H += 0.5 * j_ep * np.kron(pauli.SIGMA[i + 1], pauli.SIGMA[i + 1])
    drho = -1j * (H @ rho - rho @ H)
    return np.einsum('abij,ji->ab', basis2, drho).real


class TestRhsThree:
    def test_maximally_mixed_is_stationary(self, rng):
        r = np.zeros((4, 4, 4))
        r[0, 0, 0] = 1.0
        d = rhs_three(r, rng.normal(size=3), rng.normal(size=3),
                      rng.normal(size=3), CouplingConstants(*rng.normal(size=3)))
        assert np.abs(d).max() < 1e-14

    def test_matches_commutator_randomized(self, rng):
        for _ in range(20):
            r = pauli.rho_to_r(random_density(rng))
            he, hp, hn = rng.normal(size=(3, 3))
            coupling = CouplingConstants(*rng.normal(size=3))
            d = rhs_three(r, he, hp, hn, coupling)
            ref = commutator_rhs3(r, he, hp, hn, coupling)
            assert np.abs(d - ref).max() < 1e-12

    def test_identity_slot_untouched(self, rng):
        r = pauli.rho_to_r(random_density(rng))
        d = rhs_three(r, rng.normal(size=3), rng.normal(size=3),
                      rng.normal(size=3), CouplingConstants())
        assert d[0, 0, 0] == 0.0

    def test_single_spin_limit(self, rng):
        # J = 0, fields only on e: block (a) is pure Bloch precession
        r = pauli.rho_to_r(random_density(rng))
        he = rng.normal(size=3)
        zero = np.zeros(3)
        d = rhs_three(r, he, zero, zero, CouplingConstants(0, 0, 0))
        expected = np.cross(he, r[1:, 0, 0])
        assert np.abs(d[1:, 0, 0] - expected).max() < 1e-13
        # precession preserves the local Bloch norm
        assert abs(np.dot(d[1:, 0, 0], r[1:, 0, 0])) < 1e-13

    def test_generators_reproduce_rhs(self, rng):
        for _ in range(10):
            r = pauli.rho_to_r(random_density(rng))
            coeffs = rng.normal(size=12)
            a = np.tensordot(coeffs, generators(), axes=1)
            a = a @ r.ravel()
            b = rhs_three(r, coeffs[0:3], coeffs[3:6], coeffs[6:9],
                          CouplingConstants(*coeffs[9:]))
            assert np.abs(a - b.ravel()).max() < 1e-14

    def test_generators_equal_commutator_bit_for_bit(self):
        # column w of each generator is the commutator's derivative of the
        # w-th unit tensor; every entry is -1, 0 or 1, so both are exact
        units = np.eye(64).reshape(64, 4, 4, 4)
        ref = np.stack([
            np.stack([commutator_rhs3(u, c[0:3], c[3:6], c[6:9],
                                      CouplingConstants(*c[9:])).ravel()
                      for u in units], axis=1)
            for c in np.eye(12)])
        assert np.array_equal(generators(), ref)


class TestRhsTwo:
    def test_trivial_is_stationary(self, rng):
        r2 = np.zeros((4, 4))
        r2[0, 0] = 1.0
        d = pair_rhs(r2, rng.normal(size=3), rng.normal(size=2), -0.3)
        assert np.abs(d).max() < 1e-14

    def test_decoupled_precessions(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        basis2 = np.array([[np.kron(pauli.SIGMA[a], pauli.SIGMA[b])
                            for b in range(4)] for a in range(4)])
        r2 = np.einsum('abij,ji->ab', basis2, rho).real
        h, mults = rng.normal(size=3), rng.normal(size=2)
        d = pair_rhs(r2, h, mults, 0.0)
        he, hp = mults[0] * h, mults[1] * h
        assert np.abs(d[1:, 0] - np.cross(he, r2[1:, 0])).max() < 1e-13
        assert np.abs(d[0, 1:] - np.cross(hp, r2[0, 1:])).max() < 1e-13

    def test_matches_commutator_randomized(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            basis2 = np.array([[np.kron(pauli.SIGMA[x], pauli.SIGMA[y])
                                for y in range(4)] for x in range(4)])
            r2 = np.einsum('abij,ji->ab', basis2, rho).real
            h, mults = rng.normal(size=3), rng.normal(size=2)
            j_ep = rng.normal()
            d = pair_rhs(r2, h, mults, j_ep)
            ref = commutator_rhs2(r2, mults[0] * h, mults[1] * h, j_ep)
            assert np.abs(d - ref).max() < 1e-12

    def test_block_of_rhs_three(self, rng):
        # n decoupled (j_en = j_pn = 0, h_n = 0): the (a, b, 0) block of the
        # three-qubit RHS is closed and is the two-qubit RHS
        for _ in range(10):
            r = rng.normal(size=(4, 4, 4))
            h, mults = rng.normal(size=3), rng.normal(size=2)
            j_ep = rng.normal()
            full = rhs_three(r, mults[0] * h, mults[1] * h, np.zeros(3),
                             CouplingConstants(j_ep, 0.0, 0.0))
            d = pair_rhs(r[:, :, 0], h, mults, j_ep)
            assert np.abs(d - full[:, :, 0]).max() < 1e-14


class TestDriveLoops:
    def test_sampling_layout(self):
        _, r0 = pauli.initial_state("W")
        ts = integrate(r0, FieldSpec(kind="R"), CouplingConstants(),
                       IntegratorConfig(tau_max=0.1, dt=1e-3, sample_every=10))
        assert ts.states.shape == (11, 4, 4, 4)
        assert np.abs(ts.states[0] - r0).max() == 0.0
