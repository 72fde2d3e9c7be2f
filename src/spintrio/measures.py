"""Entanglement measures and derived scalars evaluated on R-tensor snapshots.

Five global measures are provided: the squared triple-cumulant norm (m_sm),
the pure-state concurrence (c3), two measures built from single-qubit reduced
states (m_b, m_l), and the GHZ-class three-tangle via populations (m_k).
m_sm and c3 are reported raw; they are not normalized to 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pauli import bloch_length


@dataclass(frozen=True)
class PairTensors:
    """Two-particle cumulants: correlation minus Bloch-vector product.
    All three arrays vanish on product states."""
    m_ep: np.ndarray
    m_en: np.ndarray
    m_pn: np.ndarray


def local_vectors(r):
    """The three single-qubit Bloch vectors."""
    return r[1:, 0, 0], r[0, 1:, 0], r[0, 0, 1:]


def pair_tensors(r):
    a, b, c = local_vectors(r)
    return PairTensors(
        m_ep=r[1:, 1:, 0] - np.outer(a, b),
        m_en=r[1:, 0, 1:] - np.outer(a, c),
        m_pn=r[0, 1:, 1:] - np.outer(b, c),
    )


def triple_tensor(r):
    """Cumulant-subtracted three-particle correlation tensor."""
    a, b, c = local_vectors(r)
    pt = pair_tensors(r)
    return (r[1:, 1:, 1:]
            - np.einsum('i,jk->ijk', a, pt.m_pn)
            - np.einsum('j,ik->ijk', b, pt.m_en)
            - np.einsum('k,ij->ijk', c, pt.m_ep)
            - np.einsum('i,j,k->ijk', a, b, c))


def m_sm(r):
    """Squared Frobenius norm of the triple cumulant; valid for pure and
    mixed states."""
    m3 = triple_tensor(r)
    return float(np.sum(m3 * m3))


def m_two(r2):
    """Two-qubit analogue: squared norm of m_ij = R_ij - R_i0 R_0j."""
    m = r2[1:, 1:] - np.outer(r2[1:, 0], r2[0, 1:])
    return float(np.sum(m * m))


def purity_from_r(r):
    """Tr rho^2 from the coefficient tensor: (1 + b^2) / 8."""
    return float(np.sum(np.asarray(r) ** 2) / 8.0)


def concurrence_c3(r, purity_check=True):
    """Pure-state three-qubit concurrence.

    Only meaningful for pure states; pass purity_check=False to evaluate the
    formula anyway (exploratory use).  The radicand is clamped at zero to
    absorb float drift at exact zeros.
    """
    if purity_check:
        p = purity_from_r(r)
        if abs(p - 1.0) > 1e-8:
            raise ValidationError(
                f"concurrence requires a pure state; Tr rho^2 = {p:.6f}")
    a, b, c = local_vectors(r)
    pair_sq = (np.sum(r[1:, 1:, 0] ** 2) + np.sum(r[1:, 0, 1:] ** 2)
               + np.sum(r[0, 1:, 1:] ** 2))
    bracket = (2.25 + np.sum(a * a) + np.sum(b * b) + np.sum(c * c)
               + 0.25 * pair_sq)
    return float(np.sqrt(max(6.0 - bracket, 0.0) / 2.0))


def m_b(r):
    """Global entanglement from reduced single-qubit states; in [0, 1]."""
    a, b, c = local_vectors(r)
    return float(1.0 - (np.sum(a * a) + np.sum(b * b) + np.sum(c * c)) / 3.0)


def populations(r):
    """Extreme populations (rho_11, rho_88) = (|000> and |111> diagonal
    elements) from the sigma_3-sector components; clamped to [0, 1] within
    1e-10 slack."""
    locs = r[3, 0, 0] + r[0, 3, 0] + r[0, 0, 3]
    pairs = r[3, 3, 0] + r[3, 0, 3] + r[0, 3, 3]
    p11 = (locs + pairs + r[3, 3, 3] + 1.0) / 8.0
    p88 = (-locs + pairs - r[3, 3, 3] + 1.0) / 8.0
    for p in (p11, p88):
        if p < -1e-10 or p > 1 + 1e-10:
            raise ValidationError(f"population {p} outside [0, 1]")
    return min(max(p11, 0.0), 1.0), min(max(p88, 0.0), 1.0)


def m_k(r):
    """GHZ-class three-tangle 4 rho_11 rho_88.  Equals the Cayley
    hyperdeterminant tangle on GHZ-class trajectories only; elsewhere it is
    computed but carries no such interpretation."""
    p11, p88 = populations(r)
    return float(4.0 * p11 * p88)


def m_l(r):
    """Geometric-mean global entanglement from the three reduced qubits."""
    a, b, c = local_vectors(r)
    prod = ((1.0 - np.sum(a * a)) * (1.0 - np.sum(b * b))
            * (1.0 - np.sum(c * c)))
    return float(np.cbrt(max(prod, 0.0)))


def flip_probability(r, qubit="n"):
    """Spin-flip probability (1 - R_z)/2 of one qubit, for scenarios started
    from the corresponding R_z = +1 polarization."""
    idx = {"e": (3, 0, 0), "p": (0, 3, 0), "n": (0, 0, 3)}[qubit]
    return float((1.0 - r[idx]) / 2.0)


# Named per-sample channels for the CSV layer.
CHANNELS = {
    "m_sm": m_sm,
    "c3": concurrence_c3,
    "m_b": m_b,
    "m_k": m_k,
    "m_l": m_l,
    "b": bloch_length,
    "p_flip": flip_probability,
    "p_flip_e": lambda r: flip_probability(r, qubit="e"),
    "rho11": lambda r: populations(r)[0],
    "rho88": lambda r: populations(r)[1],
}


def evaluate_channels(states, names):
    """Evaluate named channels over a (n, 4, 4, 4) stack of states."""
    out = {}
    for name in names:
        try:
            fn = CHANNELS[name]
        except KeyError:
            raise ValueError(f"unknown channel {name!r}") from None
        out[name] = np.array([fn(r) for r in states])
    return out
