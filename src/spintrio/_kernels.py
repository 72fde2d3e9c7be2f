"""The real linear ODE dR/dtau = A(tau) R and its fixed-step RK4 driver.

rhs_three is the one definition of the 63 equations: seven einsum blocks
(local Bloch vectors, the three pair-correlation tensors, the triple tensor),
cross-checked against the complex commutator in the test suite.

The right-hand side is jointly linear in the state and in (h, J).  Feeding
the 64 unit tensors through it gives twelve 64x64 generators, one per field
component per qubit and one per exchange constant.  For a base field h(tau)
seen by qubit q as multipliers[q] * h(tau),

    A(tau) = M_J + h_x(tau) F_x + h_y(tau) F_y + h_z(tau) F_z,

so a trajectory needs one stack [M_J; F_x; F_y; F_z] and the coefficients
[1, h_x, h_y, h_z] on the time grid.  The two-qubit (e, p) reduction is the
(a, b, 0) block of the same generators with qubit n decoupled.
"""

import functools

import numpy as np

from .pauli import EPS

# pauli.EPS on indices 1..3, copied: einsum is slower on the strided view.
EPS3 = np.ascontiguousarray(EPS[1:, 1:, 1:])

# Flat indices of the (a, b, 0) components of a 4x4x4 tensor.
PAIR = np.arange(16) * 4


def rhs_three(r, he, hp, hn, jep, jen, jpn):
    """dR/dtau for a (..., 4, 4, 4) stack of tensors; r[..., 0, 0, 0] has
    zero derivative."""
    e = EPS3
    out = np.zeros(np.shape(r))
    rq00 = r[..., 1:, 0, 0]
    r0q0 = r[..., 0, 1:, 0]
    r00q = r[..., 0, 0, 1:]
    rqk0 = r[..., 1:, 1:, 0]
    rq0k = r[..., 1:, 0, 1:]
    r0qk = r[..., 0, 1:, 1:]
    rqkl = r[..., 1:, 1:, 1:]
    out[..., 1:, 0, 0] = (np.einsum('ilq,i,...l->...q', e, he, rq00)
                          + np.einsum('mlq,...lm->...q', e,
                                      jep * rqk0 + jen * rq0k))
    out[..., 0, 1:, 0] = (np.einsum('ilq,i,...l->...q', e, hp, r0q0)
                          + jep * np.einsum('mlq,...ml->...q', e, rqk0)
                          + jpn * np.einsum('mlq,...lm->...q', e, r0qk))
    out[..., 0, 0, 1:] = (np.einsum('ilq,i,...l->...q', e, hn, r00q)
                          + np.einsum('lmq,...lm->...q', e,
                                      jen * rq0k + jpn * r0qk))
    out[..., 1:, 1:, 0] = (np.einsum('ilq,i,...lk->...qk', e, he, rqk0)
                           + np.einsum('imk,i,...qm->...qk', e, hp, rqk0)
                           + jep * np.einsum('kmq,...m->...qk', e, rq00 - r0q0)
                           + jen * np.einsum('lmq,...mkl->...qk', e, rqkl)
                           + jpn * np.einsum('lmk,...qml->...qk', e, rqkl))
    out[..., 1:, 0, 1:] = (np.einsum('ilq,i,...lk->...qk', e, he, rq0k)
                           + np.einsum('imk,i,...qm->...qk', e, hn, rq0k)
                           + jen * np.einsum('qmk,...m->...qk', e, r00q - rq00)
                           + jep * np.einsum('lmq,...mlk->...qk', e, rqkl)
                           + jpn * np.einsum('lmk,...qlm->...qk', e, rqkl))
    out[..., 0, 1:, 1:] = (np.einsum('ilq,i,...lk->...qk', e, hp, r0qk)
                           + np.einsum('imk,i,...qm->...qk', e, hn, r0qk)
                           + jpn * np.einsum('qmk,...m->...qk', e, r00q - r0q0)
                           + jep * np.einsum('lmq,...lmk->...qk', e, rqkl)
                           + jen * np.einsum('lmk,...lqm->...qk', e, rqkl))
    out[..., 1:, 1:, 1:] = (
        np.einsum('imq,i,...mkl->...qkl', e, he, rqkl)
        + np.einsum('imk,i,...qml->...qkl', e, hp, rqkl)
        + np.einsum('iml,i,...qkm->...qkl', e, hn, rqkl)
        + jep * np.einsum('kmq,...ml->...qkl', e, rq0k - r0qk)
        + jen * (np.einsum('qml,...km->...qkl', e, r0qk)
                 - np.einsum('qml,...mk->...qkl', e, rqk0))
        + jpn * np.einsum('kml,...qm->...qkl', e, rq0k - rqk0))
    return out


@functools.cache
def generators():
    """The twelve 64x64 generators, read-only: d/dh_e, d/dh_p, d/dh_n (x, y,
    z each), then d/dJ_ep, d/dJ_en, d/dJ_pn.  Column w is the derivative of
    the w-th unit tensor."""
    units = np.eye(64).reshape(64, 4, 4, 4)
    gens = np.stack([rhs_three(units, c[0:3], c[3:6], c[6:9], *c[9:])
                     .reshape(64, 64).T for c in np.eye(12)])
    gens.setflags(write=False)
    return gens


def stack(mults, jep, jen, jpn):
    """[M_J; F_x; F_y; F_z], shape (4, 64, 64), for qubit fields
    mults[q] * h."""
    gens = generators()
    m_j = np.tensordot([jep, jen, jpn], gens[9:], axes=1)
    f = np.tensordot(mults, gens[:9].reshape(3, 3, 64, 64), axes=1)
    return np.concatenate([m_j[None], f])


def pair_block(a):
    """The (a, b, 0) rows and columns of (..., 64, 64) generators."""
    return a[..., PAIR[:, None], PAIR]


def rk4(stack, coeffs, y0, dt, sample_every):
    """Classical fixed-step RK4 for dy/dtau = A(tau) y with
    A(k dt / 2) = sum_j coeffs[k, j] stack[j].

    coeffs holds the coefficients on the half-step grid, shape (2 n + 1, m)
    for n steps.  Returns y0 and every sample_every-th state, shape
    (n // sample_every + 1, d).
    """
    m, d, _ = stack.shape
    flat = stack.reshape(m * d, d)

    def f(c, y):
        # sum_j c[j] stack[j] @ y as one (m d x d) product and an m-term sum
        return c @ (flat @ y).reshape(m, d)

    n_steps = (len(coeffs) - 1) // 2
    out = np.empty((n_steps // sample_every + 1, len(y0)))
    out[0] = y = y0
    for step in range(n_steps):
        c0, ch, c1 = coeffs[2 * step:2 * step + 3]
        k1 = f(c0, y)
        k2 = f(ch, y + 0.5 * dt * k1)
        k3 = f(ch, y + 0.5 * dt * k2)
        k4 = f(c1, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % sample_every == 0:
            out[(step + 1) // sample_every] = y
    return out
