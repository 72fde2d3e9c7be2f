"""Time evolution: driving-field models, the 63 equations and their
propagation, and an independent complex density-matrix oracle propagator.

All times are dimensionless (tau = omega t); fields and exchange constants are
expressed in units of the drive frequency omega.

rhs_three is the one definition of the 63 equations, built from the real
structure constants of the Pauli algebra: each qubit's slot precesses about
its field, and the two slots of each pair exchange through one (4, 4, 4, 4)
operator.  It is linear in the state and in (h, J), so the 64 unit tensors
give twelve 64x64 generators, one per field component per qubit and one per
exchange constant.  For a base field h(tau) seen by qubit q as
multipliers[q] * h(tau),

    A(tau) = M_J + h_x(tau) F_x + h_y(tau) F_y + h_z(tau) F_z,

so a trajectory needs one stack [M_J; F_x; F_y; F_z] and the coefficients
[1, h_x, h_y, h_z] on the time grid.  With qubit n decoupled (no field, no
exchange) the (a, b, 0) components evolve among themselves: integrate_two
is integrate on the (e, p) tensor with n maximally mixed.

The built-in fields (R, NR, ConstantZ) turn about z at a constant rate, so
in the frame that turns with them A is constant and the samples are exact:
dt only sets the sample spacing dt * sample_every.  Custom fields take
fixed RK4 steps of dt.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import pauli
from .errors import AccuracyError, ValidationError
from .pauli import GATE_TOL

# Most steps of dt on one grid (RK4 steps on a Custom field): 33x the
# default run, 512 MB of samples at sample_every = 1.
MAX_STEPS = 10 ** 6

FIELD_KINDS = ("R", "NR", "ConstantZ", "Custom")

# Rate nu at which a built-in field turns about z: H(tau) = V(tau) H(0)
# V(tau)^dag with V(tau) = exp(i nu tau S_z), S_z the total spin component.
ROTATION = {"R": 1, "NR": -1, "ConstantZ": 0}

# Real structure constants of the Pauli algebra: with sigma_0 = 1,
# sigma_a sigma_b = sum_c (DELTA[a, b, c] + i EPS[a, b, c]) sigma_c.
DELTA = np.zeros((4, 4, 4))
DELTA[0] = DELTA[:, 0] = DELTA[:, :, 0] = np.eye(4)

# d r[a, b] / dtau = J EXCHANGE[a, b, c, d] r[c, d] for a pair coupled by
# J/2 sum_i sigma_i x sigma_i: its commutator's DELTA x EPS + EPS x DELTA.
EXCHANGE = (np.einsum('aic,bid->abcd', DELTA, pauli.EPS)
            + np.einsum('aic,bid->abcd', pauli.EPS, DELTA))

# The flat components with an odd number of y slots (index 2).
_ODD_Y = (np.indices((4, 4, 4)) == 2).sum(axis=0).ravel() % 2 == 1


@dataclass(frozen=True)
class CouplingConstants:
    """Isotropic exchange constants for the three qubit pairs."""
    j_ep: float = -0.2
    j_en: float = -0.1
    j_pn: float = -0.3

    def __post_init__(self):
        for v in (self.j_ep, self.j_en, self.j_pn):
            if not math.isfinite(v):
                raise ValueError("exchange constants must be finite")


@dataclass(frozen=True)
class FieldSpec:
    """Driving-field model.

    R          circularly polarized, co-rotating with the e-qubit precession:
               H = -(w1 cos tau, -w1 sin tau, w0)
    NR         counter-rotating partner: H = -(w1 cos tau, w1 sin tau, w0)
    ConstantZ  static longitudinal field H = (0, 0, w0)
    Custom     caller-supplied map tau -> base 3-vector H(tau)

    Each qubit sees its multiplier times the base field (defaults 1, 2, 4
    for e, p, n).
    """
    kind: str = "R"
    omega0: float = 1.0
    omega1: float = 0.3
    multipliers: tuple = (1.0, 2.0, 4.0)
    custom: Optional[Callable[[float], Sequence[float]]] = None

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "Custom" and self.custom is None:
            raise ValueError("Custom field requires a callable")
        if len(self.multipliers) != 3:
            raise ValueError("need exactly three per-qubit multipliers")
        if not np.all(np.isfinite([self.omega0, self.omega1,
                                   *self.multipliers])):
            raise ValueError("omega0, omega1 and multipliers must be finite")

    def base(self, tau):
        """Base field H(tau) before the per-qubit multipliers, shape
        tau.shape + (3,).  A Custom callable is called once per tau; a
        value that is not three finite components is a ValidationError
        naming the first tau where it occurs."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "Custom":
            t = tau.ravel()
            h = [self.custom(x) for x in t] or np.empty((0, 3))
            try:
                h = np.array(h, dtype=float)
                ok = h.shape == (len(t), 3) and np.isfinite(h).all()
            except ValueError:   # values of different lengths
                ok = False
            if not ok:
                k = next(k for k, v in enumerate(h)
                         if np.shape(v) != (3,) or not np.isfinite(v).all())
                raise ValidationError(f"Custom field at tau = {t[k]:.6g} is "
                                      f"{h[k]!r}, not three finite components")
            return h.reshape(tau.shape + (3,))
        w0, w1, nu = self.omega0, self.omega1, ROTATION[self.kind]
        zero = np.zeros(tau.shape)
        if nu:
            h = (-w1 * np.cos(nu * tau), w1 * np.sin(nu * tau), zero - w0)
        else:
            h = (zero, zero, zero + w0)
        return np.stack(h, axis=-1)


def field_at(spec, tau):
    """Fields (h_e, h_p, h_n) seen by the three qubits at time tau."""
    h = spec.base(tau)
    m = spec.multipliers
    return m[0] * h, m[1] * h, m[2] * h


@dataclass(frozen=True)
class IntegratorConfig:
    """Time grid: samples every dt * sample_every up to tau_max.  dt is the
    RK4 step of a Custom field; built-in fields are propagated exactly, so
    for them dt only sets the sample spacing.  Either way the grid is
    bounded by MAX_STEPS steps of dt."""
    tau_max: float = 30.0
    dt: float = 1e-3
    sample_every: int = 10

    def __post_init__(self):
        for v in (self.dt, self.tau_max):
            if not (math.isfinite(v) and v > 0):
                raise ValueError("dt and tau_max must be finite and positive")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        n_samp = round(self.tau_max / (self.dt * self.sample_every))
        if n_samp < 1:
            raise ValueError("tau_max rounds to zero sample intervals of "
                             "dt * sample_every")
        if n_samp * self.sample_every > MAX_STEPS:
            raise ValueError(f"tau_max / dt asks for more than {MAX_STEPS} "
                             "steps of dt")

    def grid(self):
        """(n_steps, sampled tau grid); tau_max is rounded to a whole number
        of sample intervals."""
        stride = self.dt * self.sample_every
        n_samp = round(self.tau_max / stride)
        taus = np.arange(n_samp + 1) * stride
        return n_samp * self.sample_every, taus


@dataclass
class TimeSeries:
    """Sampled trajectory: R tensors plus named derived channels."""
    taus: np.ndarray
    states: np.ndarray  # (n, 4, 4, 4)
    channels: dict = field(default_factory=dict)


def rhs_three(r, he, hp, hn, coupling):
    """dR/dtau of the 63-equation system for a (..., 4, 4, 4) stack of
    tensors: each slot precesses about its qubit's field, d r_a = (h x r)_a,
    and each pair exchanges through EXCHANGE; r[..., 0, 0, 0] is constant."""
    e, x = pauli.EPS[1:], EXCHANGE
    return (np.einsum('ica,i,...cyz->...ayz', e, he, r)
            + np.einsum('ica,i,...ycz->...yaz', e, hp, r)
            + np.einsum('ica,i,...yzc->...yza', e, hn, r)
            + coupling.j_ep * np.einsum('abcd,...cdz->...abz', x, r)
            + coupling.j_en * np.einsum('abcd,...cyd->...ayb', x, r)
            + coupling.j_pn * np.einsum('abcd,...ycd->...yab', x, r))


@functools.cache
def generators():
    """The twelve 64x64 generators, read-only: d/dh_e, d/dh_p, d/dh_n (x, y,
    z each), then d/dJ_ep, d/dJ_en, d/dJ_pn.  Column w is the derivative of
    the w-th unit tensor."""
    units = np.eye(64).reshape(64, 4, 4, 4)
    gens = np.stack([rhs_three(units, c[0:3], c[3:6], c[6:9],
                               CouplingConstants(*c[9:]))
                     .reshape(64, 64).T for c in np.eye(12)])
    gens.setflags(write=False)
    return gens


def stack(mults, coupling):
    """[M_J; F_x; F_y; F_z], shape (4, 64, 64), for qubit fields
    mults[q] * h."""
    gens = generators()
    m_j = np.tensordot([coupling.j_ep, coupling.j_en, coupling.j_pn],
                       gens[9:], axes=1)
    f = np.tensordot(mults, gens[:9].reshape(3, 3, 64, 64), axes=1)
    return np.concatenate([m_j[None], f])


def check_gate(dev, taus, tol, what):
    """Raise AccuracyError, naming the largest deviation and the first
    sampled tau where dev is not within tol; NaN and inf fail."""
    outside = ~(dev <= tol)
    if outside.any():
        worst = float(np.max(dev))
        raise AccuracyError(
            f"{what} is {worst:.3e} (tolerance {tol:.0e}), first at "
            f"tau = {taus[outside.argmax()]:.6g}", worst)


def _rk4(y, spec, gens, cfg, n_steps):
    """Samples of classical fixed-step RK4 from y for dR/dtau = A(tau) R."""
    dt, every = cfg.dt, cfg.sample_every
    # the weights on the half-step grid, shape (2 n_steps + 1, 4)
    h = spec.base(np.arange(2 * n_steps + 1) * (0.5 * dt))
    coeffs = np.concatenate([np.ones((len(h), 1)), h], axis=-1)
    m, d, _ = gens.shape
    flat = gens.reshape(m * d, d)

    def f(c, y):
        # sum_j c[j] gens[j] @ y as one (m d x d) product and an m-term sum
        return c @ (flat @ y).reshape(m, d)

    states = np.empty((n_steps // every + 1, d))
    states[0] = y
    for step in range(n_steps):
        c0, ch, c1 = coeffs[2 * step:2 * step + 3]
        k1 = f(c0, y)
        k2 = f(ch, y + 0.5 * dt * k1)
        k3 = f(ch, y + 0.5 * dt * k2)
        k4 = f(c1, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % every == 0:
            states[(step + 1) // every] = y
    return states


# Samples per block of the rotating-frame path (real) and of the oracle check
# and Magnus steps per block (complex): bounds their temporaries to a few MB.
SAMPLE_BLOCK = 1024


def _rotating_frame(y, spec, gens, taus):
    """Exact samples from y for a built-in field turning about z at rate
    nu: R(tau) = Z(-nu tau) exp(K tau) R(0), Z(phi) = exp(phi G_z), with
    K = A(0) + nu G_z constant.  K is real (the field has no y component at
    tau = 0) and flips the parity of the number of y slots: K = [[0, B],
    [-B^T, 0]] on (even, odd).  With B = U S V^T, U^T y_even and V^T y_odd
    turn into each other at the rates S; Z(-nu tau) turns each (x, y) pair."""
    nu, odd = ROTATION[spec.kind], _ODD_Y
    gz = generators()[2:9:3].sum(axis=0)   # d/dh_z of every qubit
    a0 = np.tensordot(np.concatenate([[1.0], spec.base(0.0)]), gens, axes=1)
    u, w, vt = np.linalg.svd((a0 + nu * gz)[~odd][:, odd])
    e, o = np.zeros((2, len(w), len(y)))
    e[:, ~odd], o[:, odd] = u[:, :len(w)].T, vt
    a, b = (e @ y)[:, None], (o @ y)[:, None]
    rest = np.where(odd, 0.0, y) - (a * e).sum(axis=0)   # U's null columns
    mc, ms = a * e + b * o, b * e - a * o
    states = np.empty((len(taus), len(y)))
    for s in range(0, len(taus), SAMPLE_BLOCK):
        t = taus[s:s + SAMPLE_BLOCK, None]
        block = states[s:s + SAMPLE_BLOCK]
        block[:] = np.cos(t * w) @ mc + np.sin(t * w) @ ms + rest
        c, sn = np.cos(nu * t)[..., None], np.sin(nu * t)[..., None]
        for q in range(3):   # the slot of qubit q is axis 2 of v
            v = block.reshape(len(t), 4 ** q, 4, -1)
            px, py = v[:, :, 1], v[:, :, 2]
            v[:, :, 1], v[:, :, 2] = c * px + sn * py, c * py - sn * px
    states[0] = y   # tau = 0 is r0 itself, as on the RK4 path
    return states


def integrate(r0, spec, coupling, cfg=IntegratorConfig()):
    """Integrate the 63-equation system from the 4x4x4 tensor r0: exact in
    the rotating frame for a built-in field, RK4 for a Custom one.  Returns
    a TimeSeries with a 'b' channel; raises AccuracyError if the Bloch
    length drifts beyond GATE_TOL."""
    r0 = pauli.check_normalized(r0)
    gens = stack(spec.multipliers, coupling)
    n_steps, taus = cfg.grid()
    if spec.kind in ROTATION:
        states = _rotating_frame(r0.ravel(), spec, gens, taus)
    else:
        states = _rk4(r0.ravel(), spec, gens, cfg, n_steps)
    states = states.reshape((-1, 4, 4, 4))
    b = pauli.bloch_length(states)
    check_gate(np.abs(b - b[0]), taus, GATE_TOL,
               "Bloch length drift of the three-qubit integration")
    return TimeSeries(taus=taus, states=states, channels={"b": b})


def integrate_two(r2_0, spec, j_ep, cfg=IntegratorConfig()):
    """Integrate the two-qubit reduction for the (e, p) pair from the 4x4
    tensor r2_0; returns (taus, states).  This is the three-qubit system
    from r0[a, b, 0] = r2_0[a, b] with n decoupled (h_n = 0, j_en = j_pn =
    0), so a drift names the three-qubit integration."""
    r0 = np.zeros((4, 4, 4))
    r0[:, :, 0] = pauli.check_normalized(r2_0, 2)
    m = spec.multipliers
    ts = integrate(r0, replace(spec, multipliers=(m[0], m[1], 0.0)),
                   CouplingConstants(j_ep, 0.0, 0.0), cfg)
    return ts.taus, np.ascontiguousarray(ts.states[..., 0])


# ---------------------------------------------------------------------------
# oracle propagator (independent of the real-tensor path)
# ---------------------------------------------------------------------------

# Gauss nodes of a Magnus step, and the weights of the two exponentials
# (the second row acts first) on the Hamiltonians at those nodes.
_GAUSS = 0.5 + np.array([-1, 1]) * math.sqrt(3) / 6
_MAGNUS = (3 + np.array([[-2, 2], [2, -2]]) * math.sqrt(3)) / 12


def propagate_direct(rho0, spec, coupling, taus, dt=1e-3):
    """Density matrices at every tau from rho0, the state at taus[0] (out[0]
    is rho0 itself), propagated directly in 8x8 form.

    Built-in fields are exact: in the frame V(tau) = exp(i nu tau S_z) that
    turns with the field the Hamiltonian is the constant H(0) + nu S_z, so
    one eigendecomposition gives every tau.  Custom fields take steps of at
    most dt, at most MAX_STEPS in all, of the 4th-order commutator-free
    Magnus method: two exponentials at the Gauss nodes (Blanes, Casas, Oteo
    & Ros, Phys. Rep. 470, 151 (2009)).  The steps are built SAMPLE_BLOCK at
    a time, with one stacked eigh per block, so memory is bounded on any gap.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (8, 8):
        raise ValidationError(f"rho0 must be one 8x8 matrix, got {rho0.shape}")
    pauli.validate_density(rho0)
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0 or not np.all(np.isfinite(taus)):
        raise ValidationError("taus must be 1-D, non-empty and finite, "
                              f"got {taus}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be finite and positive, got {dt}")
    if spec.kind == "Custom":
        # n[k] steps of length h[k] from taus[k] to taus[k + 1]; a count
        # that overflows is inf, which the bound rejects
        with np.errstate(over="ignore"):
            gap = np.diff(taus)
            n = np.maximum(1, np.ceil(np.abs(gap) / dt - 1e-12))
            too_many = n.sum() > MAX_STEPS
        if too_many:
            raise ValidationError(f"taus / dt asks for more than {MAX_STEPS} "
                                  "steps of dt")
        h, ends = gap / n, np.cumsum(n).astype(int)
        out = np.empty((len(taus), 8, 8), dtype=complex)
        out[0] = rho = rho0
        for s in range(0, int(n.sum()), SAMPLE_BLOCK):
            i = np.arange(s, min(s + SAMPLE_BLOCK, ends[-1]))
            k = np.searchsorted(ends, i, side="right")   # step i's gap
            j, hk = i - ends[k] + n[k], h[k, None]
            t = taus[k, None] + (j[:, None] + _GAUSS) * hk
            ham = pauli.build_hamiltonian(*field_at(spec, t), coupling)
            w, v = np.linalg.eigh(np.tensordot(_MAGNUS, ham, axes=(1, 1)))
            u = v * np.exp(-1j * hk * w)[:, :, None] @ v.conj().swapaxes(2, 3)
            for uk, k1, last in zip(u[0] @ u[1], k + 1, i + 1 == ends[k]):
                rho = uk @ rho @ uk.conj().T
                if last:
                    out[k1] = rho
        return out
    nu = ROTATION[spec.kind]
    sz = np.diag(pauli.SPIN_E[2] + pauli.SPIN_P[2] + pauli.SPIN_N[2]).real
    w, v = np.linalg.eigh(pauli.build_hamiltonian(*field_at(spec, 0.0),
                                                  coupling) + nu * np.diag(sz))
    f = np.exp(1j * nu * taus[:, None] * sz)   # the diagonal of V(tau)
    a = v.conj().T @ (f[0].conj()[:, None] * rho0 * f[0]) @ v
    a = a * np.exp(-1j * (taus[1:, None, None] - taus[0]) * (w[:, None] - w))
    a = v @ a @ v.conj().T * f[1:, :, None] * f[1:, None].conj()
    return np.concatenate([rho0[None], a])


def oracle_deviation(ts, rho0, spec, coupling):
    """Per sample, the max abs difference between the integrated R tensors
    and the direct propagation converted to R form.  The grid is walked in
    blocks of SAMPLE_BLOCK samples, each propagated from the last state of
    the block before, so memory stays bounded on any grid."""
    dev, rho = np.empty(len(ts.taus)), rho0
    for s in range(0, len(dev), SAMPLE_BLOCK):
        first = max(s - 1, 0)   # the sample whose state rho is
        rhos = propagate_direct(rho, spec, coupling,
                                ts.taus[first:s + SAMPLE_BLOCK])[s - first:]
        d = np.abs(ts.states[s:s + SAMPLE_BLOCK]
                   - pauli.rho_to_r(rhos, validate=False))
        dev[s:s + SAMPLE_BLOCK] = d.reshape(len(d), -1).max(axis=1)
        rho = rhos[-1]
    return dev
