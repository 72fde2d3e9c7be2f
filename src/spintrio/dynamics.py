"""Time evolution: driving-field models, the real-tensor ODE integration, and
an independent complex density-matrix oracle propagator.

All times are dimensionless (tau = omega t); fields and exchange constants are
expressed in units of the drive frequency omega.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels, pauli
from .errors import AccuracyError

BLOCH_DRIFT_TOL = 1e-8

# Most RK4 steps of one trajectory: 33x the default run, 512 MB of samples
# at sample_every = 1.
MAX_STEPS = 10 ** 6

FIELD_KINDS = ("R", "NR", "ConstantZ", "Custom")

# Rate nu at which a built-in field turns about z: H(tau) = V(tau) H(0)
# V(tau)^dag with V(tau) = exp(i nu tau S_z), S_z the total spin component.
ROTATION = {"R": 1, "NR": -1, "ConstantZ": 0}


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
        tau.shape + (3,).  A Custom callable is called once per tau."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "Custom":
            h = [self.custom(t) for t in tau.ravel()]
            return np.array(h, dtype=float).reshape(tau.shape + (3,))
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
                             "RK4 steps")

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

    def __post_init__(self):
        if np.any(np.diff(self.taus) <= 0):
            raise ValueError("time grid must be strictly increasing")
        for name, vals in self.channels.items():
            if len(vals) != len(self.taus):
                raise ValueError(f"channel {name!r} length mismatch")


def rhs_three(r, h_e, h_p, h_n, coupling):
    """dR/dtau of the 63-equation system (the r[0,0,0] slot stays zero)."""
    return _kernels.rhs_three(r, h_e, h_p, h_n,
                              coupling.j_ep, coupling.j_en, coupling.j_pn)


def check_gate(dev, taus, tol, what):
    """Raise AccuracyError, naming the largest deviation and the first
    sampled tau where dev is not within tol; NaN and inf fail."""
    outside = ~(dev <= tol)
    if outside.any():
        worst = float(np.max(dev))
        raise AccuracyError(
            f"{what} is {worst:.3e} (tolerance {tol:.0e}), first at "
            f"tau = {taus[outside.argmax()]:.6g}", worst)


def integrate(r0, spec, coupling, cfg=IntegratorConfig()):
    """Integrate the 63-equation system; returns a TimeSeries with a 'b'
    channel.  Raises AccuracyError if the Bloch length drifts beyond 1e-8."""
    r0 = pauli.check_normalized(r0)
    n_steps, taus = cfg.grid()
    stack = _kernels.stack(spec.multipliers, coupling.j_ep, coupling.j_en,
                           coupling.j_pn)
    states = _rk4(r0.ravel(), spec, stack, cfg, n_steps).reshape(-1, 4, 4, 4)
    b = pauli.bloch_length(states)
    check_gate(np.abs(b - b[0]), taus, BLOCH_DRIFT_TOL,
               "Bloch length drift of the three-qubit integration")
    return TimeSeries(taus=taus, states=states, channels={"b": b})


def _rk4(y0, spec, stack, cfg, n_steps):
    """RK4 over stack = [M_J; F_x; F_y; F_z] with the weights [1, h_x, h_y,
    h_z] of the base field on the half-step grid."""
    h = spec.base(np.arange(2 * n_steps + 1) * (0.5 * cfg.dt))
    coeffs = np.concatenate([np.ones((len(h), 1)), h], axis=-1)
    return _kernels.rk4(stack, coeffs, y0, cfg.dt, cfg.sample_every)


def integrate_two(r2_0, spec, j_ep, cfg=IntegratorConfig()):
    """Integrate the two-qubit reduction for the (e, p) pair."""
    r2_0 = pauli.check_normalized(r2_0)
    n_steps, taus = cfg.grid()
    m = spec.multipliers
    stack = _kernels.pair_block(_kernels.stack((m[0], m[1], 0.0), j_ep,
                                               0.0, 0.0))
    states = _rk4(r2_0.ravel(), spec, stack, cfg, n_steps).reshape(-1, 4, 4)
    b = pauli.bloch_length(states, qubits=2)
    check_gate(np.abs(b - b[0]), taus, BLOCH_DRIFT_TOL,
               "Bloch length drift of the two-qubit integration")
    return taus, states


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
    most dt (dt bounds nothing else) of the 4th-order commutator-free Magnus
    method: two exponentials at the Gauss nodes (Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    pauli.validate_density(rho0)
    taus = np.asarray(taus, dtype=float)
    out = np.empty((len(taus), 8, 8), dtype=complex)
    out[0] = rho = rho0
    if spec.kind == "Custom":
        for k in range(1, len(taus)):
            n = max(1, math.ceil(abs(taus[k] - taus[k - 1]) / dt - 1e-12))
            h = (taus[k] - taus[k - 1]) / n
            for j in range(n):
                ham = pauli.build_hamiltonian(
                    *field_at(spec, taus[k - 1] + (j + _GAUSS) * h), coupling)
                w, v = np.linalg.eigh(np.tensordot(_MAGNUS, ham, axes=1))
                u = v * np.exp(-1j * h * w)[:, None] @ v.conj().swapaxes(1, 2)
                u = u[0] @ u[1]
                rho = u @ rho @ u.conj().T
            out[k] = rho
        return out
    nu = ROTATION[spec.kind]
    sz = np.diag(pauli.SPIN_E[2] + pauli.SPIN_P[2] + pauli.SPIN_N[2]).real
    w, v = np.linalg.eigh(pauli.build_hamiltonian(*field_at(spec, 0.0),
                                                  coupling) + nu * np.diag(sz))
    f = np.exp(1j * nu * taus[:, None] * sz)   # the diagonal of V(tau)
    a = v.conj().T @ (f[0].conj()[:, None] * rho0 * f[0]) @ v
    a = a * np.exp(-1j * (taus[1:, None, None] - taus[0]) * (w[:, None] - w))
    out[1:] = v @ a @ v.conj().T * f[1:, :, None] * f[1:, None].conj()
    return out


def oracle_deviation(ts, rho0, spec, coupling):
    """Per sample, the max abs difference between the integrated R tensors
    and the direct propagation converted to R form."""
    rhos = propagate_direct(rho0, spec, coupling, ts.taus)
    dev = np.abs(ts.states - pauli.rho_to_r(rhos, validate=False))
    return dev.reshape(len(dev), -1).max(axis=1)
