"""Entanglement measures and derived scalars evaluated on R-tensor snapshots.

Five global measures are provided: the squared triple-cumulant norm (m_sm),
the pure-state concurrence (c3), two measures built from single-qubit reduced
states (m_b, m_l), and the GHZ-class three-tangle via populations (m_k).
m_sm and c3 are reported raw, not normalized to 1.  m_sm's triple
cumulant is r3 - a(x)r_pn - b(x)r_en - c(x)r_ep + 2 a(x)b(x)c, expanded.

Every function takes one R tensor (4, 4, 4), or a stack (..., 4, 4, 4) and
works on the trailing axes; a scalar measure returns a float for one tensor
and one value per leading index for a stack.
"""

import numpy as np

from .errors import ValidationError
from .pauli import bloch_length


def _value(x):
    """A float for one tensor, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _sq(x, axes):
    """Sum of squares over the trailing `axes` axes, as one contraction."""
    sub = "...ijk"[:3 + axes]
    return np.einsum(f"{sub},{sub}->...", x, x)


def _guard(values, err, tol, message):
    """Raise ValidationError naming the first value whose err is not within
    tol; NaN fails."""
    bad = ~(np.asarray(err) <= tol)
    if bad.any():
        raise ValidationError(message.format(np.asarray(values)[bad].flat[0]))


def local_vectors(r):
    """The three single-qubit Bloch vectors."""
    return r[..., 1:, 0, 0], r[..., 0, 1:, 0], r[..., 0, 0, 1:]


def pair_tensors(r):
    """The two-particle cumulants (m_ep, m_en, m_pn): correlation minus
    Bloch-vector product.  All three vanish on product states."""
    a, b, c = local_vectors(r)
    return (r[..., 1:, 1:, 0] - np.einsum('...i,...j->...ij', a, b),
            r[..., 1:, 0, 1:] - np.einsum('...i,...j->...ij', a, c),
            r[..., 0, 1:, 1:] - np.einsum('...i,...j->...ij', b, c))


def triple_tensor(r):
    """Cumulant-subtracted three-particle correlation tensor
    r3 - a(x)m_pn - b(x)m_en - c(x)m_ep - a(x)b(x)c, m_ from pair_tensors,
    evaluated expanded as r3 - a(x)r_pn - b(x)r_en - c(x)r_ep + 2 a(x)b(x)c
    with r_ the raw pair correlations, by broadcasting."""
    a, b, c = r[..., 1:, :1, :1], r[..., :1, 1:, :1], r[..., :1, :1, 1:]
    return (r[..., 1:, 1:, 1:] - a * r[..., :1, 1:, 1:]
            - b * r[..., 1:, :1, 1:] - c * r[..., 1:, 1:, :1] + 2 * a * b * c)


def m_sm(r):
    """Squared Frobenius norm of the triple cumulant; valid for pure and
    mixed states."""
    return _value(_sq(triple_tensor(r), 3))


def concurrence_c3(r, purity_check=True):
    """Pure-state three-qubit concurrence.

    Only meaningful for pure states; pass purity_check=False to evaluate the
    formula anyway (exploratory use).  The radicand is clamped at zero to
    absorb float drift at exact zeros.
    """
    if purity_check:
        p = (1.0 + bloch_length(r) ** 2) / 8.0
        _guard(p, np.abs(p - 1.0), 1e-8,
               "concurrence requires a pure state; Tr rho^2 = {:.6f}")
    a, b, c = local_vectors(r)
    pair_sq = (_sq(r[..., 1:, 1:, 0], 2) + _sq(r[..., 1:, 0, 1:], 2)
               + _sq(r[..., 0, 1:, 1:], 2))
    bracket = 2.25 + _sq(a, 1) + _sq(b, 1) + _sq(c, 1) + 0.25 * pair_sq
    return _value(np.sqrt(np.maximum(6.0 - bracket, 0.0) / 2.0))


def m_b(r):
    """Global entanglement from reduced single-qubit states; in [0, 1]."""
    a, b, c = local_vectors(r)
    return _value(1.0 - (_sq(a, 1) + _sq(b, 1) + _sq(c, 1)) / 3.0)


def populations(r):
    """Extreme populations (rho_11, rho_88) = (|000> and |111> diagonal
    elements) from the sigma_3-sector components; clamped to [0, 1] within
    1e-10 slack."""
    locs = r[..., 3, 0, 0] + r[..., 0, 3, 0] + r[..., 0, 0, 3]
    pairs = r[..., 3, 3, 0] + r[..., 3, 0, 3] + r[..., 0, 3, 3]
    p11 = (locs + pairs + r[..., 3, 3, 3] + 1.0) / 8.0
    p88 = (-locs + pairs - r[..., 3, 3, 3] + 1.0) / 8.0
    p = np.stack([p11, p88])
    _guard(p, np.maximum(-p, p - 1.0), 1e-10, "population {} outside [0, 1]")
    return _value(np.clip(p11, 0.0, 1.0)), _value(np.clip(p88, 0.0, 1.0))


def m_k(r):
    """GHZ-class three-tangle 4 rho_11 rho_88.  Equals the Cayley
    hyperdeterminant tangle on GHZ-class trajectories only; elsewhere it is
    computed but carries no such interpretation."""
    p11, p88 = populations(r)
    return _value(4.0 * p11 * p88)


def m_l(r):
    """Geometric-mean global entanglement from the three reduced qubits."""
    a, b, c = local_vectors(r)
    prod = (1.0 - _sq(a, 1)) * (1.0 - _sq(b, 1)) * (1.0 - _sq(c, 1))
    return _value(np.cbrt(np.maximum(prod, 0.0)))


def flip_probability(r, qubit="n"):
    """Spin-flip probability (1 - R_z)/2 of one qubit, for scenarios started
    from the corresponding R_z = +1 polarization."""
    try:
        idx = {"e": (3, 0, 0), "p": (0, 3, 0), "n": (0, 0, 3)}[qubit]
    except (KeyError, TypeError):
        raise ValueError(f"unknown qubit {qubit!r}; use e, p or n") from None
    return _value((1.0 - r[(Ellipsis,) + idx]) / 2.0)


# Named channels for the CSV layer; each maps a stack to one value per state.
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
        out[name] = np.asarray(fn(states), dtype=float)
    return out
