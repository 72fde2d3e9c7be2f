"""Time evolution: driving-field models, the 63 equations and their
propagation, and the independent complex density-matrix oracle that checks it.

All times are dimensionless (tau = omega t); fields and exchange constants are
expressed in units of the drive frequency omega.

rhs_three is the one definition of the 63 equations, built from the real
structure constants of the Pauli algebra: each qubit's slot precesses about
its field, and the two slots of each pair exchange through one (4, 4, 4, 4)
operator.  It is linear in the state, so at given fields and coupling the
64 unit tensors make it one 64x64 matrix.  It is linear in (h, J) too, so
for a base field h(tau) seen by qubit q as multipliers[q] * h(tau),

    A(tau) = M_J + h_x(tau) F_x + h_y(tau) F_y + h_z(tau) F_z,

M_J at zero fields, F_i at fields multipliers x e_i and zero coupling: RK4
needs one stack [M_J; F_x; F_y; F_z] and the coefficients [1, h_x, h_y, h_z]
on the time grid.  With qubit n decoupled (no field, no
exchange) the (a, b, 0) components evolve among themselves: integrate_two
is integrate on the (e, p) tensor with n maximally mixed.

The built-in fields (R, NR, ConstantZ) turn about z at a constant rate, so
in the frame that turns with them A is constant and the samples are exact:
dt only sets the sample spacing dt * sample_every.  Their modes (one SVD
per field and coupling) are cached per process, and so is the 8x8 eigenbasis
in that frame that propagate_direct and the oracle check share; each call
gates its own taus and forms its own amplitudes, phases and z turn (none with
lab=False).  Custom fields: fixed RK4 steps of dt.
"""

import functools
import math
import numbers
import sys
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
_SZ = np.diag(pauli.SPIN_E[2] + pauli.SPIN_P[2] + pauli.SPIN_N[2]).real
_PAIRS = np.triu_indices(8, 1)   # the 28 pairs i < j of 8 eigenstates

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


def _real(v):
    """Whether v is a real number, not a bool, and finite as a float."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


@dataclass(frozen=True)
class CouplingConstants:
    """Isotropic exchange constants for the three qubit pairs."""
    j_ep: float = -0.2
    j_en: float = -0.1
    j_pn: float = -0.3

    def __post_init__(self):
        for v in (self.j_ep, self.j_en, self.j_pn):
            if not _real(v):
                raise ValueError("exchange constants must be finite and "
                                 f"real, got {v!r}")


def _finite_reals(v, shape, scale=1.0):
    """v as floats if it holds reals, no bool, of this shape (None: non-empty
    1-D), scale * sum |v| finite per row (None: per element); else None."""
    try:
        a = np.asarray(v)
    except (TypeError, ValueError):   # e.g. values of different lengths
        return None
    with np.errstate(over="ignore"):
        ok = (a.dtype.kind in "iuf"
              and (a.shape == shape if shape else a.ndim == 1 and a.size > 0)
              and np.isfinite(scale * (abs(a).sum(-1) if shape else a)).all())
    # numpy reads a bool among numbers as 1.0 or 0.0: look each one up in v
    if ok and not isinstance(v, np.ndarray):
        ok = not any(isinstance(functools.reduce(lambda x, i: x[i], ij, v),
                                (bool, np.bool_))
                     for ij in np.argwhere((a == 0) | (a == 1)).tolist())
    return a.astype(float) if ok else None


@dataclass(frozen=True)
class FieldSpec:
    """Driving-field model.

    R          circularly polarized, co-rotating with the e-qubit precession:
               H = -(w1 cos tau, -w1 sin tau, w0)
    NR         counter-rotating partner: H = -(w1 cos tau, w1 sin tau, w0)
    ConstantZ  static longitudinal field H = (0, 0, w0)
    Custom     caller-supplied map tau -> base 3-vector H(tau)

    Each qubit sees its multiplier times the base field (defaults 1, 2, 4
    for e, p, n); any three real numbers are stored as a tuple of floats.
    """
    kind: str = "R"
    omega0: float = 1.0
    omega1: float = 0.3
    multipliers: tuple = (1.0, 2.0, 4.0)
    custom: Optional[Callable[[float], Sequence[float]]] = None

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "Custom" and not callable(self.custom):
            raise ValueError("Custom field requires a callable")
        if np.ndim(self.multipliers) != 1 or len(self.multipliers) != 3:
            raise ValueError("need exactly three per-qubit multipliers")
        for v in (self.omega0, self.omega1, *self.multipliers):
            if not _real(v):
                raise ValueError("omega0, omega1 and multipliers must be "
                                 f"finite and real, got {v!r}")
        object.__setattr__(self, "multipliers",
                           tuple(map(float, self.multipliers)))
        # base(0) is -(w1, 0, w0) for R and NR, (0, 0, w0) for ConstantZ
        h0 = abs(self.omega0) + abs(self.omega1) * (self.kind != "ConstantZ")
        if self.kind in ROTATION and not math.isfinite(
                h0 * max(map(abs, self.multipliers))):
            raise ValueError(f"{self.kind} field at tau = 0: sum |h_i| times "
                             "the largest |multiplier| is not finite")

    def base(self, tau):
        """Base field H(tau) before the per-qubit multipliers, shape
        tau.shape + (3,).  A Custom callable is called once per tau; a
        value that is not three reals (a bool is none) whose sum of |h_i| is
        finite times each multiplier is a ValidationError naming the first
        tau."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "Custom":
            t, m = tau.ravel(), max(map(abs, self.multipliers))
            values = [self.custom(x) for x in t] or np.empty((0, 3))
            if (h := _finite_reals(values, (len(t), 3), m)) is None:
                k = next(k for k, v in enumerate(values)
                         if _finite_reals(v, (3,), m) is None)
                raise ValidationError(
                    f"Custom field at tau = {t[k]:.6g} is {values[k]!r}, not "
                    "three reals that stay finite times the multipliers")
            return h.reshape(tau.shape + (3,))
        w0, w1, nu = self.omega0, self.omega1, ROTATION[self.kind]
        zero = np.zeros(tau.shape)
        if nu:
            h = (-w1 * np.cos(nu * tau), w1 * np.sin(nu * tau), zero - w0)
        else:
            h = (zero, zero, zero + w0)
        return np.stack(h, axis=-1)


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
        if not all(_real(v) and v > 0 for v in (self.dt, self.tau_max)):
            raise ValueError("dt and tau_max must be finite and positive")
        if not (isinstance(self.sample_every, (int, np.integer))
                and self.sample_every is not True and self.sample_every >= 1):
            raise ValueError("sample_every must be an integer >= 1")
        # past the float range, sample_every is inf; min caps an inf count
        every = self.sample_every if _real(self.sample_every) else math.inf
        n_samp = round(min(self.tau_max / (self.dt * every), 2 * MAX_STEPS))
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


def _matrix(fields, coupling):
    """rhs_three at qubit fields (h_e, h_p, h_n) and coupling as a 64x64
    matrix: column w is the derivative of the w-th unit tensor."""
    units = np.eye(64).reshape(64, 4, 4, 4)
    return rhs_three(units, *fields, coupling).reshape(64, 64).T.copy()


@functools.lru_cache(maxsize=8)
def stack(mults, coupling):
    """[M_J; F_x; F_y; F_z], shape (4, 64, 64) and read-only, for qubit
    fields mults[q] * h; mults is a tuple, as FieldSpec.multipliers."""
    zero = CouplingConstants(0.0, 0.0, 0.0)
    out = np.stack([_matrix(np.zeros((3, 3)), coupling)]
                   + [_matrix(np.multiply.outer(mults, e), zero)
                      for e in np.eye(3)])
    out.setflags(write=False)
    return out


def check_gate(dev, taus, tol, what):
    """Raise AccuracyError, naming the largest deviation and the first
    sampled tau where dev, (n,) or (n, k) for a stack of k, is not within
    tol; of a stack, it names the first index failing there and the
    largest deviation of that index.  NaN and inf fail."""
    outside = ~(dev <= tol)
    if outside.any():
        t, *k = np.unravel_index(outside.argmax(), outside.shape)
        worst = float(np.max(dev[:, k[0]] if k else dev))
        at = f" of stack index {k[0]}" if k else ""
        raise AccuracyError(
            f"{what} is {worst:.3e} (tolerance {tol:.0e}), first at "
            f"tau = {taus[t]:.6g}{at}", *k)


# Samples per block of the rotating-frame path and the oracle check (real), and
# of propagate_direct or its Magnus steps (complex): a few MB of temporaries.
SAMPLE_BLOCK = 1024
_RK4_BLOCK = 8   # RK4 steps per block of node matrices: 17 x 64^2, 544 KB


def _rk4(ys, spec, coupling, cfg, n_steps):
    """Samples of classical fixed-step RK4 from the rows of ys, (k, 64), for
    dR/dtau = A(tau) R, shape (n, k, 64): dt/2 A at the half-step nodes of
    _RK4_BLOCK steps is one product with the stack, on the columns ys.T."""
    dt, every, y = cfg.dt, cfg.sample_every, ys.T
    gens = stack(spec.multipliers, coupling).reshape(4, -1)
    # the weights dt/2 [1, h] on the half-step grid, shape (2 n_steps + 1, 4)
    h = spec.base(np.arange(2 * n_steps + 1) * (0.5 * dt))
    coeffs = 0.5 * dt * np.concatenate([np.ones((len(h), 1)), h], axis=-1)
    states = np.empty((n_steps // every + 1,) + ys.shape)
    states[0] = ys
    for s in range(0, n_steps, _RK4_BLOCK):
        a = (coeffs[2 * s:2 * (s + _RK4_BLOCK) + 1] @ gens).reshape(-1, 64, 64)
        for step, (a0, ah, a1) in enumerate(zip(a[:-1:2], a[1::2], a[2::2]),
                                            s + 1):
            u1 = a0.dot(y)   # u_i = dt/2 k_i
            u2 = ah.dot(y + u1)
            u3 = ah.dot(y + u2)
            u4 = a1.dot(y + 2.0 * u3)
            y = y + (u1 + 2.0 * (u2 + u3) + u4) / 3.0
            if step % every == 0:
                states[step // every] = y.T
    return states


@functools.lru_cache(maxsize=8)
def _modes(spec, coupling):
    """_rotating_frame's read-only (w, E, O), once per (spec, coupling)."""
    fields = np.multiply.outer(spec.multipliers, spec.base(0.0))
    fields[:, 2] += ROTATION[spec.kind]   # nu G_z turns all three qubits
    k = _matrix(fields, coupling)
    u, w, vt = np.linalg.svd(k[~_ODD_Y][:, _ODD_Y])
    e, o = np.zeros((2, len(w), 64))
    e[:, ~_ODD_Y], o[:, _ODD_Y] = u[:, :len(w)].T, vt
    w.flags.writeable = e.flags.writeable = o.flags.writeable = False
    return w, e, o


def precision_bound(spec, coupling, taus):
    """2^-53 max(w) tau, the rounding of the exact path's phases t w."""
    with np.errstate(over="ignore"):
        return 2.0 ** -53 * _modes(spec, coupling)[0].max() * taus


def _rotating_frame(ys, spec, coupling, taus):
    """Exact samples from the rows of ys, (k, 64), for a built-in field
    turning about z at rate nu, shape (n, k * 64), in the field's frame:
    exp(K tau) R(0), with K = A(0) + nu G_z real (h_y(0) = 0) and constant.
    K flips the parity of y slots: K = [[0, B], [-B^T, 0]] on (even, odd).
    With B = U S V^T, U^T y_even and V^T y_odd turn into each other at the
    rates S.  _modes caches S and both maps; gate, amplitudes and phases
    are per call, and the phases are shared by the whole stack."""
    w, e, o = _modes(spec, coupling)
    check_gate(precision_bound(spec, coupling, taus[1:]), taus[1:], GATE_TOL,
               "precision bound 2^-53 max(w) tau of the exact path")
    # a and b, each (28, k, 1), by two products per tensor: one
    # (k, 64) @ (64, 28) product rounds otherwise
    a, b = np.array([(e @ y, o @ y) for y in ys]).transpose(1, 2, 0)[..., None]
    e, o = e[:, None], o[:, None]
    rest = np.where(_ODD_Y, 0.0, ys) - (a * e).sum(axis=0)   # U's null columns
    mc = (a * e + b * o).reshape(len(w), -1)
    ms = (b * e - a * o).reshape(len(w), -1)
    states = np.empty((len(taus), ys.size))
    for s in range(0, len(taus), SAMPLE_BLOCK):
        t = taus[s:s + SAMPLE_BLOCK, None]
        states[s:s + SAMPLE_BLOCK] = (np.cos(t * w) @ mc + np.sin(t * w) @ ms
                                      + rest.ravel())
    states[0] = ys.ravel()   # tau = 0 is r0 itself, as on the RK4 path
    return states


def _to_lab(states, spec, taus):
    """states, (n, ..., 4, 4, 4) in the frame turning with spec's field,
    turned in place into the lab frame by Z(-nu tau), SAMPLE_BLOCK samples
    at a time; with nu = 0 (ConstantZ, Custom) the frames are one."""
    nu = ROTATION.get(spec.kind, 0)
    for s in range(0, len(taus) if nu else 0, SAMPLE_BLOCK):
        t = taus[s:s + SAMPLE_BLOCK, None]
        c, sn = np.cos(nu * t)[..., None], np.sin(nu * t)[..., None]
        block = states[s:s + SAMPLE_BLOCK]
        for q in range(3):   # the slot of qubit q is axis 2 of v
            v = block.reshape(len(t), -1, 4, 4 ** (2 - q))
            px, py = v[:, :, 1], v[:, :, 2]
            v[:, :, 1], v[:, :, 2] = c * px + sn * py, c * py - sn * px
    return states


def integrate(r0, spec, coupling, cfg=IntegratorConfig(), *, lab=True):
    """Integrate the 63-equation system from the 4x4x4 tensor r0, or from
    each tensor of a (k, 4, 4, 4) stack: exact in the rotating frame for a
    built-in field, RK4 for a Custom one.  Returns a TimeSeries with a 'b'
    channel: states (n, 4, 4, 4) and b (n,) for one tensor, (n, k, 4, 4, 4)
    and (n, k) for a stack, in the lab frame.  lab=False keeps the field's
    frame, turning about z at rate nu (R +1, NR -1; else 0: the lab frame).
    Raises AccuracyError if a Bloch length drifts beyond GATE_TOL, naming
    the first tau and, in a stack, the index."""
    r0 = pauli.check_normalized(r0)
    ys = r0.reshape(-1, 64)
    n_steps, taus = cfg.grid()
    if spec.kind in ROTATION:
        states = _rotating_frame(ys, spec, coupling, taus)
        if lab:   # tau = 0 is r0 itself
            _to_lab(states[1:], spec, taus[1:])
    else:   # one tensor steps as a stack of one, (1, 64)
        states = _rk4(ys, spec, coupling, cfg, n_steps)
    states = states.reshape((len(taus),) + r0.shape)
    b = pauli.bloch_length(states)
    check_gate(np.abs(b - b[0]), taus, GATE_TOL,
               "Bloch length drift of the three-qubit integration")
    return TimeSeries(taus=taus, states=states, channels={"b": b})


def integrate_two(r2_0, spec, j_ep, cfg=IntegratorConfig()):
    """Integrate the two-qubit reduction for the (e, p) pair from the 4x4
    tensor r2_0 or a (k, 4, 4) stack; returns (taus, states), states of
    shape (n,) + r2_0.shape.  This is the three-qubit system from
    r0[..., a, b, 0] = r2_0[..., a, b] with n decoupled (h_n = 0, j_en =
    j_pn = 0), so a drift names the three-qubit integration."""
    r2_0 = pauli.check_normalized(r2_0, 2)
    r0 = np.zeros(r2_0.shape + (4,))
    r0[..., 0] = r2_0
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


def _expm(x, theta):
    """exp(x) for a stack of matrices whose row sums of |x| are at most
    theta < pi: Horner's scheme on the Taylor series of the least degree K
    whose remainder bound theta^(K+1) / (K+1)! e^theta is below 2^-53."""
    deg = next(k for k in range(1, 99) if theta ** (k + 1) * math.exp(theta)
               < 2.0 ** -53 * math.factorial(k + 1))
    p = x * (1 / deg) + np.eye(8)
    for j in range(deg - 1, 0, -1):
        p = x @ p
        p *= 1 / j
        p += np.eye(8)
    return p


@functools.lru_cache(maxsize=8)
def _hamiltonians(mults, coupling):
    """[H_J; F_x; F_y; F_z], (4, 8, 8) and read-only: the exchange alone,
    then unit fields times mults; H(tau) = [1, h(tau)] @ it."""
    fields = np.multiply.outer(mults, np.eye(4)[:, 1:])
    hs = pauli.build_hamiltonian(*fields, CouplingConstants(0, 0, 0))
    hs[0] = pauli.build_hamiltonian(*fields[:, 0], coupling)
    hs.setflags(write=False)
    return hs


@functools.lru_cache(maxsize=8)
def _eigenbasis(spec, coupling):
    """The read-only (w, v, g, d, s) of a built-in field, once per (spec,
    coupling): H(0) + nu S_z = v diag(w) v^dag, its constant Hamiltonian in
    its frame, and the maps that read R tensors off it: from a = v^dag rho v
    at t = 0, R_c(t) = sum_i a_ii d[i, c] + sum_k Re[2 a_ij s[k, c]
    e^{-i g_k t}] over the 28 pairs k = (i, j) of _PAIRS, g_k = w_i - w_j,
    d[i, c] = (S_c)_ii and s[k, c] = (S_c)_ji, S_c = v^dag sigma_c v."""
    hs = _hamiltonians(spec.multipliers, coupling)
    h0 = np.tensordot(np.insert(spec.base(0.0), 0, 1.0), hs, 1)
    w, v = np.linalg.eigh(h0 + ROTATION[spec.kind] * np.diag(_SZ))
    sc, (i, j) = v.conj().T @ pauli.BASIS.reshape(64, 8, 8) @ v, _PAIRS
    basis = w, v, w[i] - w[j], sc.diagonal(0, 1, 2).real.T, sc[:, j, i].T
    for m in basis:
        m.flags.writeable = False
    return basis


def _density(rho0):
    """rho0 as one complex 8x8 density matrix (pauli.validate_density)."""
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (8, 8):
        raise ValidationError(f"rho0 must be one 8x8 matrix, got {rho.shape}")
    return pauli.validate_density(rho)


def propagate_direct(rho0, spec, coupling, taus, dt=1e-3):
    """Density matrices at every tau from rho0, the state at taus[0] (out[0]
    is rho0 itself): the 8x8 propagator W(tau) from taus[0] gives
    out = W rho0 W^dag, formed SAMPLE_BLOCK samples at a time.

    Built-in fields are exact: in the frame V(tau) = exp(i nu tau S_z) that
    turns with the field the Hamiltonian is the constant H(0) + nu S_z, so
    one eigendecomposition, cached per (spec, coupling), gives W at every
    tau.  Custom fields take steps of at most dt, at most MAX_STEPS in all,
    of the 4th-order commutator-free Magnus method: two exponentials at the
    Gauss nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)),
    Taylor exponentials of bounded degree built SAMPLE_BLOCK steps at a
    time and multiplied into W, so memory is bounded on any gap.
    A step whose exponent's largest row sum is not below pi, the Magnus
    convergence radius, is a ValidationError naming its tau: lower dt.
    """
    rho0, given, taus = _density(rho0), taus, _finite_reals(taus, None)
    if taus is None:
        raise ValidationError("taus must be 1-D, non-empty, finite and real, "
                              f"got {given!r}")
    if not (_real(dt) and dt > 0):   # IntegratorConfig's rule
        raise ValidationError(f"dt must be finite and positive, got {dt!r}")
    if spec.kind == "Custom":
        hs = _hamiltonians(spec.multipliers, coupling)
        # n[k] steps of length h[k] from taus[k] to taus[k + 1]; a count
        # that overflows is inf, which the bound rejects
        with np.errstate(over="ignore"):
            gap = np.diff(taus)
            n = np.maximum(1, np.ceil(np.abs(gap) / dt - 1e-12))
            if n.sum() > MAX_STEPS:
                raise ValidationError("taus / dt asks for more than "
                                      f"{MAX_STEPS} steps of dt")
        h, ends = gap / n, np.cumsum(n).astype(int)
        out, w = np.empty((len(taus), 8, 8), dtype=complex), np.eye(8)
        for s in range(0, int(n.sum()), SAMPLE_BLOCK):
            i = np.arange(s, min(s + SAMPLE_BLOCK, ends[-1]))
            k = np.searchsorted(ends, i, side="right")   # step i's gap
            j, hk = i - ends[k] + n[k], h[k, None]
            t = taus[k, None] + (j[:, None] + _GAUSS) * hk
            hn = np.insert(spec.base(t), 0, 1.0, axis=-1)   # [1, h] at nodes
            c = -1j * hk * np.tensordot(_MAGNUS, hn, (1, 1))   # (2, steps, 4)
            x = np.tensordot(c, hs, 1)
            # per step, a bound on the spectral norm of both exponents
            theta = np.abs(x).sum(axis=-1).max(axis=(0, 2))
            b = np.argmin(theta < math.pi)   # the first step outside, if any
            if not theta[b] < math.pi:
                raise ValidationError(
                    f"Magnus step at tau = {taus[k[b]] + j[b] * h[k[b]]:.6g} "
                    f"has norm bound {theta[b]:.3g}, not below pi: lower dt")
            u = _expm(x, theta.max())
            for uk, k1, last in zip(u[0] @ u[1], k + 1, i + 1 == ends[k]):
                w = uk @ w
                if last:
                    out[k1] = w
    else:   # W = V(tau) exp(-i (tau - taus[0]) (H(0) + nu S_z)) V(taus[0])^dag
        (w, v, *_), nu = _eigenbasis(spec, coupling), ROTATION[spec.kind]
        f = np.exp(1j * nu * taus[:, None] * _SZ)   # the diagonal of V(tau)
        out = v * np.exp(-1j * (taus - taus[0])[:, None, None] * w)
        out = out.reshape(-1, 8) @ (v.conj().T * f[0].conj())   # one BLAS call
        out = f[:, :, None] * out.reshape(len(taus), 8, 8)
    out[0] = rho0
    for ws in np.split(out, range(1, len(out), SAMPLE_BLOCK))[1:]:
        w_rho0 = (ws.reshape(-1, 8) @ rho0).reshape(ws.shape)   # one BLAS call
        ws[:] = w_rho0 @ ws.conj().swapaxes(1, 2)   # W rho0 W^dag
    return out


def oracle_deviation(ts, rho0, spec, coupling):
    """Per sample, the max abs difference between the R tensors ts.states of
    a built-in field in its frame (as integrate(..., lab=False) returns them)
    and those read off _eigenbasis from rho0, the lab-frame state at
    ts.taus[0]; a NaN or inf tau deviates by NaN.  Check lab-frame states,
    and a Custom field's, with rho_to_r(propagate_direct(...))."""
    if spec.kind not in ROTATION:
        raise ValueError("oracle_deviation reads a built-in field's "
                         f"eigenbasis; a {spec.kind} field has none")
    rho, dev = _density(rho0), np.empty(len(ts.taus))
    _, v, g, d, s = _eigenbasis(spec, coupling)
    t0 = ts.taus[0] if len(dev) else 0.0
    with np.errstate(invalid="ignore"):   # an inf tau: NaN, not a warning
        f = np.exp(-1j * ROTATION[spec.kind] * t0 * _SZ)   # into its frame
        a = (v.conj().T * f) @ rho @ (f.conj()[:, None] * v)
        amp = 2 * a[_PAIRS][:, None] * s
        c, re, im = a.diagonal().real @ d, amp.real.copy(), amp.imag.copy()
        for k in range(0, len(dev), SAMPLE_BLOCK):
            b = slice(k, k + SAMPLE_BLOCK)
            ph = (ts.taus[b, None] - t0) * g
            r = np.cos(ph) @ re + np.sin(ph) @ im + c
            dev[b] = np.abs(ts.states[b].reshape(r.shape) - r).max(axis=1)
    return dev
