"""Shared helpers: random physical states and brute-force reference
computations kept independent of the package's own conversion code."""

import numpy as np
import pytest

from spintrio.pauli import SIGMA


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def brute_r(rho):
    """R tensor by explicit trace loops (independent of pauli.rho_to_r)."""
    r = np.zeros((4, 4, 4))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                r[a, b, c] = np.trace(
                    rho @ kron3(SIGMA[a], SIGMA[b], SIGMA[c])).real
    return r


def brute_rho(r):
    """Density matrix (1/8) sum r[a,b,c] sigma_a x sigma_b x sigma_c of one
    R tensor, by explicit loops (the inverse of brute_r)."""
    rho = np.zeros((8, 8), dtype=complex)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                rho += r[a, b, c] * kron3(SIGMA[a], SIGMA[b], SIGMA[c])
    return rho / 8.0


def random_density(rng, rank=8, dim=8):
    """Random full/low-rank density matrix from a Wishart factor."""
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, dim=8):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_product_pure(rng):
    """Pure product state of three random single-qubit kets."""
    kets = []
    for _ in range(3):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        kets.append(v / np.linalg.norm(v))
    psi = np.kron(np.kron(kets[0], kets[1]), kets[2])
    return np.outer(psi, psi.conj())


def random_so3(rng):
    """Haar-ish random proper rotation via QR with sign fix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate_r(r, o_e, o_p, o_n):
    """Apply independent SO(3) rotations to the three Latin slots of R."""
    def block(o):
        m = np.eye(4)
        m[1:, 1:] = o
        return m
    return np.einsum('ad,be,cf,def->abc',
                     block(o_e), block(o_p), block(o_n), r)


def reduced(rho, keep):
    """Partial trace of an 8x8 three-qubit matrix onto the kept qubits.

    `keep` is a tuple of qubit positions (0 = e, 1 = p, 2 = n)."""
    t = rho.reshape(2, 2, 2, 2, 2, 2)
    drop = [i for i in range(3) if i not in keep]
    for i in sorted(drop, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    dim = 2 ** len(keep)
    return t.reshape(dim, dim)


# Each built-in field at its defaults, written out independently as the
# base field of a Custom one: these take the RK4 path.
FIELD_COPIES = {
    "R": lambda t: (-0.3 * np.cos(t), 0.3 * np.sin(t), -1.0),
    "NR": lambda t: (-0.3 * np.cos(t), -0.3 * np.sin(t), -1.0),
    "ConstantZ": lambda t: (0.0, 0.0, 1.0),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
