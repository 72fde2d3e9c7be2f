"""Exact rotating-frame reference for the benchmark, independent of spintrio.

The exchange coupling is isotropic, so it commutes with the total spin
component S_z.  A field whose transverse part turns about z at a constant
rate nu, h(tau) = -(w1 cos(nu tau), -w1 sin(nu tau), w0) or the static field
(0, 0, w0), therefore gives H(tau) = V(tau) H(0) V(tau)^dag with
V(tau) = exp(i nu tau S_z).  In the frame that turns with the field the
Hamiltonian is the constant H_eff = H(0) + nu S_z, so

    rho(tau) = V(tau) exp(-i H_eff tau) rho0 exp(i H_eff tau) V(tau)^dag

holds exactly for every tau, and one Hermitian eigendecomposition per
trajectory gives the whole trajectory.  nu = +1 for the R field, -1 for NR,
0 for ConstantZ and the drive frequency for a detuned circular Custom field.

Everything here is built from this module's own Kronecker-product Pauli
matrices; nothing is imported from the package under test.
"""

import numpy as np

SIGMA = np.array([[[1, 0], [0, 1]],
                  [[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)

# Reference operating point, in units of the drive frequency.
OMEGA0 = 1.0
OMEGA1 = 0.3
COUPLING = (-0.2, -0.1, -0.3)    # j_ep, j_en, j_pn
MULTIPLIERS = (1.0, 2.0, 4.0)    # e, p, n
DT = 1e-3

ROTATION = {"R": 1.0, "NR": -1.0, "ConstantZ": 0.0}

# Maximum absolute error of any R-tensor component (the package's state
# gate, used by its oracle check and its Bloch-length drift check).
STATE_TOL = 1e-8


def _kron(*ops):
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def _embed(n, site, op):
    """Single-qubit operator `op` acting on qubit `site` of `n`."""
    eye = np.eye(2, dtype=complex)
    return _kron(*[op if q == site else eye for q in range(n)])


def pauli_products(n):
    """All 4**n Pauli products, shape (4**n, 2**n, 2**n), first qubit
    slowest; the order of the flattened R tensor."""
    idx = np.indices((4,) * n).reshape(n, -1).T
    return np.array([_kron(*(SIGMA[i] for i in row)) for row in idx])


_PRODUCTS = {n: pauli_products(n) for n in (2, 3)}


def hamiltonian(h, multipliers, couplings):
    """H = sum_q m_q h . S_q + sum_pairs J (2 S_a . S_b) for n = len(m)
    qubits; `couplings` lists J for the pairs (0,1), (0,2), (1,2)..."""
    n = len(multipliers)
    ham = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for q, m in enumerate(multipliers):
        for i in range(3):
            ham += m * h[i] * 0.5 * _embed(n, q, SIGMA[i + 1])
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for (a, b), j in zip(pairs, couplings):
        for i in range(1, 4):
            ham += j * 0.5 * _embed(n, a, SIGMA[i]) @ _embed(n, b, SIGMA[i])
    return ham


def total_sz_diag(n):
    """Diagonal of the total S_z (|0> has S_z = +1/2, first qubit slowest)."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)[::-1]) & 1
    return 0.5 * (n - 2 * bits.sum(axis=1))


def propagate(rho0, taus, kind, multipliers=MULTIPLIERS, couplings=COUPLING,
              w0=OMEGA0, w1=OMEGA1, nu=None):
    """Exact density matrices at every tau, shape (len(taus), d, d).

    kind is R, NR, ConstantZ, or Custom for the detuned circular drive
    h(tau) = -(w1 cos(nu tau), -w1 sin(nu tau), w0)."""
    rho0 = np.asarray(rho0, dtype=complex)
    taus = np.asarray(taus, dtype=float)
    n = len(multipliers)
    if kind != "Custom":
        nu = ROTATION[kind]
    h0 = np.array([0.0, 0.0, w0] if kind == "ConstantZ" else [-w1, 0.0, -w0])
    sz = total_sz_diag(n)
    h_eff = hamiltonian(h0, multipliers, couplings) + nu * np.diag(sz)
    lam, w = np.linalg.eigh(h_eff)
    rho_eig = w.conj().T @ rho0 @ w
    gap = lam[:, None] - lam[None, :]
    rot = np.exp(-1j * taus[:, None, None] * gap) * rho_eig
    rho = np.einsum('ia,kab,jb->kij', w, rot, w.conj())
    frame = np.exp(1j * nu * taus[:, None, None] * (sz[:, None] - sz[None, :]))
    return rho * frame


def r_tensor(rhos):
    """R[..., a, b, (c)] = Tr(rho sigma_a x sigma_b (x sigma_c)) for a stack
    of 2**n x 2**n density matrices."""
    rhos = np.asarray(rhos, dtype=complex)
    d = rhos.shape[-1]
    n = d.bit_length() - 1
    prods = _PRODUCTS[n]
    flat = rhos.reshape(len(rhos), d * d) @ prods.transpose(0, 2, 1).reshape(
        len(prods), d * d).T
    return flat.real.reshape((len(rhos),) + (4,) * n)


def _ket(bits):
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def _pure(*kets):
    psi = sum(_ket(k) for k in kets)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def initial_density(name, x=None):
    """The package's documented initial states (|0> is sigma_3 = +1)."""
    if name == "Mix":
        return (x * _pure("000", "111")
                + 0.5 * (1 - x) * (_pure("001", "010", "100")
                                   + _pure("110", "101", "011")))
    kets = {"S": ("111",), "BS": ("001", "010"), "GHZ": ("000", "111"),
            "W": ("001", "010", "100"), "Up": ("000",)}[name]
    return _pure(*kets)


def reduce_to_ep(rho):
    """Two-qubit (e, p) marginal of a three-qubit density matrix."""
    return np.einsum('abcdec->abde', rho.reshape(2, 2, 2, 2, 2, 2)).reshape(4, 4)


# ---------------------------------------------------------------------------
# CSV channels from exact density matrices
# ---------------------------------------------------------------------------
#
# Each channel is compared in a form that is Lipschitz in the R tensor (m_l
# as its cube, c3 as its square) against the value computed here.  L is the
# Lipschitz constant of that form with respect to the largest R-component
# error; |a component| <= 1 for every physical state.  If every component of
# the program's R tensor lies within STATE_TOL of the exact one, the channel
# lies within L * STATE_TOL, so |deviation| / L is the smallest R-tensor
# error consistent with an output, and the channel gate is exactly the state
# gate.  CSV_ROUNDING covers the 12 significant digits of the CSV for values
# up to 10.
CSV_ROUNDING = 1e-10
_SQRT3 = np.sqrt(3.0)


def _purities(rhos):
    t = rhos.reshape(len(rhos), 2, 2, 2, 2, 2, 2)
    reduced = (np.einsum('kabcdbc->kad', t), np.einsum('kabcaec->kbe', t),
               np.einsum('kabcabf->kcf', t))
    return np.stack([np.sum(np.abs(r) ** 2, axis=(1, 2)) for r in reduced],
                    axis=1)


def channel_references(rhos):
    """{channel: (compared form, Lipschitz constant)} for every channel the
    CSV layer can write, from a stack of exact 8x8 density matrices."""
    rhos = np.asarray(rhos, dtype=complex)
    diag = np.einsum('kii->ki', rhos).real
    bits = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1   # e, p, n
    ones = diag @ bits                      # probability of |1> per qubit
    loc_sq = 2 * _purities(rhos) - 1        # squared local Bloch lengths
    purity = np.sum(np.abs(rhos) ** 2, axis=(1, 2))
    r = r_tensor(rhos)
    a, b, c = r[:, 1:, 0, 0], r[:, 0, 1:, 0], r[:, 0, 0, 1:]
    m3 = (r[:, 1:, 1:, 1:]
          - np.einsum('ki,kjl->kijl', a, r[:, 0, 1:, 1:])
          - np.einsum('kj,kil->kijl', b, r[:, 1:, 0, 1:])
          - np.einsum('kl,kij->kijl', c, r[:, 1:, 1:, 0])
          + 2 * np.einsum('ki,kj,kl->kijl', a, b, c))
    m_sm = np.sum(m3 ** 2, axis=(1, 2, 3))
    pair_sq = (np.sum(r[:, 1:, 1:, 0] ** 2, axis=(1, 2))
               + np.sum(r[:, 1:, 0, 1:] ** 2, axis=(1, 2))
               + np.sum(r[:, 0, 1:, 1:] ** 2, axis=(1, 2)))
    c3_sq = np.maximum(6 - (2.25 + loc_sq.sum(axis=1) + 0.25 * pair_sq), 0) / 2
    p11, p88 = diag[:, 0], diag[:, 7]
    # m3 has 27 entries, each within 13 eps (one linear term, three
    # products of two components, 2 a b c); the square norm adds the
    # second-order term for states with m3 = 0.
    m3_lip = np.sqrt(27) * 13
    return {
        "m_sm": (m_sm, 2 * m3_lip * np.sqrt(m_sm) + m3_lip ** 2 * STATE_TOL),
        "c3": (c3_sq, 3 * _SQRT3 + 0.25 * np.sqrt(27 * pair_sq)),
        "m_b": (1 - loc_sq.sum(axis=1) / 3, 2 * _SQRT3),
        "m_k": (4 * p11 * p88, 3.5),
        "m_l": (np.maximum(np.prod(1 - loc_sq, axis=1), 0), 6 * _SQRT3),
        "b": (np.sqrt(8 * purity - 1), np.sqrt(63)),
        "p_flip": (ones[:, 2], 0.5),
        "p_flip_e": (ones[:, 0], 0.5),
        "rho11": (p11, 7 / 8),
        "rho88": (p88, 7 / 8),
    }


def compared_form(channel, values):
    """Map CSV values of a channel to the form channel_references returns."""
    values = np.asarray(values, dtype=float)
    if channel == "m_l":
        return values ** 3
    if channel == "c3":
        return values ** 2
    return values


def channel_error(channel, csv_values, ref):
    """(implied R-tensor error, within gate) of one CSV column."""
    form, lip = ref
    dev = np.abs(compared_form(channel, csv_values) - form)
    implied = float(np.max(dev / lip))
    ok = bool(np.all(dev <= lip * STATE_TOL + CSV_ROUNDING))
    return implied, ok
