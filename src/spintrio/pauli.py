"""Pauli-product kernel for the three-qubit system.

Everything here is basis bookkeeping: the 64 operators sigma_a x sigma_b x
sigma_c, conversion between an 8x8 density matrix and its real expansion
coefficients r[a, b, c] (the "R tensor"), canonical initial states, and the
generalized Bloch length.

Conventions (fixed throughout the package):
  * qubit order e, p, n; the leftmost Kronecker factor acts on e;
  * |0> is the sigma_3 eigenvector with eigenvalue +1, |1> with -1, so the
    computational basis is ordered |000>, |001>, ..., |111> and rho[0, 0]
    is the |000> population;
  * r[0, 0, 0] = 1 mirrors unit trace.
"""

import numpy as np

from .errors import ValidationError

SIGMA = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

# Levi-Civita symbol, Latin indices 1..3 live at positions 1..3 of a 4-array
# so it can be indexed directly with tensor indices.
EPS = np.zeros((4, 4, 4))
for _i, _j, _k in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
    EPS[_i, _j, _k] = 1.0
    EPS[_i, _k, _j] = -1.0


def pauli_basis_element(alpha, beta, gamma):
    """sigma_alpha x sigma_beta x sigma_gamma as an 8x8 complex matrix."""
    for idx in (alpha, beta, gamma):
        if idx not in (0, 1, 2, 3):
            raise ValueError(f"Pauli index must be in 0..3, got {idx}")
    return np.kron(np.kron(SIGMA[alpha], SIGMA[beta]), SIGMA[gamma])


# All 64 basis operators, shape (4, 4, 4, 8, 8).
BASIS = np.array([[[pauli_basis_element(a, b, c)
                    for c in range(4)] for b in range(4)] for a in range(4)])
# Flat and transposed: a flattened rho times column w is Tr(rho sigma_w).
_BASIS_T = BASIS.swapaxes(-1, -2).reshape(64, 64).T

# Spin operators s^e_i, s^p_i, s^n_i (i = 1..3) and the exchange operators
# 2 sum_i s^x_i s^y_i for the three pairs.
SPIN_E = 0.5 * BASIS[1:, 0, 0]
SPIN_P = 0.5 * BASIS[0, 1:, 0]
SPIN_N = 0.5 * BASIS[0, 0, 1:]
EXCHANGE_EP = 0.5 * sum(BASIS[i, i, 0] for i in range(1, 4))
EXCHANGE_EN = 0.5 * sum(BASIS[i, 0, i] for i in range(1, 4))
EXCHANGE_PN = 0.5 * sum(BASIS[0, i, i] for i in range(1, 4))

PSD_TOL = 1e-10

# Tolerance of both accuracy gates (Bloch-length drift, oracle deviation);
# also the slack on the pure-state bound of a start tensor's Bloch length.
GATE_TOL = 1e-8


def build_hamiltonian(h_e, h_p, h_n, coupling):
    """Hamiltonian of three exchange-coupled qubits in fields h_e, h_p, h_n.

    Each field is a 3-vector or a (..., 3) stack (giving (..., 8, 8)).
    `coupling` is any object with j_ep, j_en, j_pn attributes (in units of
    the reference frequency).
    """
    h_e = np.asarray(h_e, dtype=float)
    h_p = np.asarray(h_p, dtype=float)
    h_n = np.asarray(h_n, dtype=float)
    for v in (h_e, h_p, h_n):
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite field component")
    exchange = (coupling.j_ep * EXCHANGE_EP + coupling.j_en * EXCHANGE_EN
                + coupling.j_pn * EXCHANGE_PN)
    return (np.tensordot(h_e, SPIN_E, axes=1)
            + np.tensordot(h_p, SPIN_P, axes=1)
            + np.tensordot(h_n, SPIN_N, axes=1) + exchange)


def validate_density(rho, strict=True):
    """Check Hermiticity, unit trace and (within PSD_TOL) positivity of one
    8x8 density matrix or a (..., 8, 8) stack; NaN fails."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (8, 8):
        raise ValidationError(f"density matrix must be 8x8, got {rho.shape}")
    herm = np.abs(rho - np.swapaxes(rho, -1, -2).conj()).max()
    if not herm <= 1e-10:
        raise ValidationError(f"density matrix not Hermitian (dev {herm:.2e})")
    tr = np.ravel(np.trace(rho, axis1=-2, axis2=-1))
    bad = tr[~(np.abs(tr - 1.0) <= 1e-10)]
    if bad.size:
        raise ValidationError(f"trace is {bad[0]}, expected 1")
    if strict:
        lo = np.linalg.eigvalsh(rho).min()
        if not lo >= -PSD_TOL:
            raise ValidationError(f"negative eigenvalue {lo:.3e}")
    return rho


def rho_to_r(rho, validate=True):
    """Expansion coefficients r[..., a, b, c] = Tr(rho sigma_a x sigma_b x
    sigma_c) of one 8x8 density matrix or a (..., 8, 8) stack."""
    rho = np.asarray(rho, dtype=complex)
    if validate:
        validate_density(rho, strict=False)
    m = rho.reshape(-1, 64)
    # a lone matrix gets a second row: BLAS's one-row route rounds otherwise
    traces = ((m if len(m) > 1 else m.repeat(2, 0)) @ _BASIS_T)[:len(m)]
    imag = np.abs(traces.imag).max()
    if validate and not imag <= 1e-12:
        raise ValidationError(f"imaginary trace component {imag:.2e}")
    return np.ascontiguousarray(traces.real).reshape(*rho.shape[:-2], 4, 4, 4)


def check_normalized(r, qubits=3):
    """r as a float array; raises ValidationError unless it has `qubits`
    axes of length 4, finite entries, its identity component r[0, ..., 0]
    is 1 (unit trace) and its Bloch length is at most that of a pure state,
    sqrt(2^qubits - 1), within GATE_TOL."""
    r = np.asarray(r, dtype=float)
    if r.shape != (4,) * qubits:
        raise ValidationError(f"R tensor must be {'x'.join('4' * qubits)}, "
                              f"got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValidationError("R tensor has non-finite entries")
    if not abs(r.flat[0] - 1.0) <= 1e-12:
        raise ValidationError(f"identity component is {r.flat[0]}, "
                              "expected 1")
    b, pure = bloch_length(r, qubits), np.sqrt(2.0 ** qubits - 1)
    if not b <= pure + GATE_TOL:
        raise ValidationError(f"Bloch length {b:.6g} exceeds {pure:.6g}, "
                              "that of a pure state")
    return r


def r_to_rho(r, validate=True):
    """Inverse of rho_to_r: rho = (1/8) sum r[a,b,c] sigma_a x sigma_b x sigma_c."""
    r = check_normalized(r) if validate else np.asarray(r, dtype=float)
    return np.einsum('abc,abcij->ij', r, BASIS) / 8.0


def bloch_length(r, qubits=3):
    """Length of the generalized Bloch vector: sqrt(sum of r^2 over the
    non-identity components).  For three qubits it equals
    sqrt(8 Tr rho^2 - 1); conserved under unitary evolution.

    r is one tensor with `qubits` axes of length 4 (returns a float) or a
    stack of them (returns one length per leading index)."""
    r = np.asarray(r, dtype=float)
    flat = r.reshape(r.shape[:r.ndim - qubits] + (-1,))
    b = np.sqrt(np.einsum('...i,...i->...', flat, flat) - flat[..., 0] ** 2)
    return float(b) if b.ndim == 0 else b


# Each pure initial state as the computational-basis kets of its equal
# superposition (qubit order e, p, n).
_KETS = {
    "S": ("111",),
    "BS": ("001", "010"),
    "GHZ": ("000", "111"),
    "W": ("001", "010", "100"),
    "V": ("110", "101", "011"),
    "Up": ("000",),
}
STATE_NAMES = ("S", "BS", "GHZ", "W", "V", "Mix", "Up")


def _pure(name):
    psi = np.zeros(8, dtype=complex)
    psi[[int(bits, 2) for bits in _KETS[name]]] = 1.0
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def initial_state(name, x=None):
    """Canonical initial state -> (rho, r).

    S    fully separable |111>
    BS   biseparable (|001> + |010>)/sqrt(2)
    GHZ  (|000> + |111>)/sqrt(2)
    W    (|001> + |010> + |100>)/sqrt(3)
    V    bit-flipped W, (|110> + |101> + |011>)/sqrt(3)
    Mix  x |GHZ><GHZ| + (1-x)/2 (|W><W| + |V><V|), 1/3 < x <= 1
    Up   fully polarized |000> (all qubits in the sigma_3 = +1 eigenstate;
         used by the fluctuator and fixed-point scenarios)
    """
    if name == "Mix":
        if x is None:
            raise ValueError("Mix state requires the weight x")
        if not 1 / 3 < x <= 1:
            raise ValueError(f"Mix weight must satisfy 1/3 < x <= 1, got {x}")
        rho = x * _pure("GHZ") + 0.5 * (1 - x) * (_pure("W") + _pure("V"))
    elif x is not None:
        raise ValueError(f"weight x only applies to the Mix state, not {name}")
    elif name in _KETS:
        rho = _pure(name)
    else:
        raise ValueError(f"unknown initial state {name!r}; "
                         f"choose one of {STATE_NAMES}")
    return rho, rho_to_r(rho)
