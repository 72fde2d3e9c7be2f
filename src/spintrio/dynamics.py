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

# Oracle substeps per integration step dt, and substeps diagonalized at once.
ORACLE_SUBSTEPS = 10
ORACLE_CHUNK = 20000

# Most RK4 steps of one trajectory: 33x the default run, 512 MB of samples
# at sample_every = 1.
MAX_STEPS = 10 ** 6

FIELD_KINDS = ("R", "NR", "ConstantZ", "Custom")


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
        w0, w1 = self.omega0, self.omega1
        zero = np.zeros(tau.shape)
        if self.kind == "R":
            h = (-w1 * np.cos(tau), w1 * np.sin(tau), zero - w0)
        elif self.kind == "NR":
            h = (-w1 * np.cos(tau), -w1 * np.sin(tau), zero - w0)
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


def rhs_two(r2, h_e, h_p, j_ep):
    """dR/dtau of the 15-equation two-qubit reduction: the (a, b, 0) block
    of the three-qubit generator with qubit n decoupled."""
    a = _kernels.generator(np.concatenate([h_e, h_p, np.zeros(3),
                                           [j_ep, 0.0, 0.0]]))
    return (_kernels.pair_block(a) @ np.ravel(r2)).reshape(4, 4)


def _check_drift(b, taus, context):
    """Raise AccuracyError, naming the first sampled tau outside tolerance,
    unless the Bloch length stayed within it; NaN and inf fail."""
    dev = np.abs(b - b[0])
    outside = ~(dev <= BLOCH_DRIFT_TOL)
    if outside.any():
        drift = float(dev.max())
        raise AccuracyError(
            f"generalized Bloch length drifted by {drift:.3e} "
            f"(tolerance {BLOCH_DRIFT_TOL:.0e}) in {context}, first at "
            f"tau = {taus[outside.argmax()]:.6g}", drift)


def integrate(r0, spec, coupling, cfg=IntegratorConfig()):
    """Integrate the 63-equation system; returns a TimeSeries with a 'b'
    channel.  Raises AccuracyError if the Bloch length drifts beyond 1e-8."""
    r0 = pauli.check_normalized(r0)
    n_steps, taus = cfg.grid()
    stack = _kernels.stack(spec.multipliers, coupling.j_ep, coupling.j_en,
                           coupling.j_pn)
    states = _rk4(r0.ravel(), spec, stack, cfg, n_steps).reshape(-1, 4, 4, 4)
    b = pauli.bloch_length(states)
    _check_drift(b, taus, "three-qubit integration")
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
    _check_drift(pauli.bloch_length(states, qubits=2), taus,
                 "two-qubit integration")
    return taus, states


# ---------------------------------------------------------------------------
# oracle propagator (independent of the real-tensor path)
# ---------------------------------------------------------------------------

def propagate_direct(rho0, spec, coupling, taus, dt=1e-3):
    """Propagate the 8x8 density matrix directly.

    Piecewise-constant stepping: each substep (length <= dt/ORACLE_SUBSTEPS)
    applies the exact unitary of the Hamiltonian frozen at the substep
    midpoint, computed by Hermitian eigendecomposition.  Returns the density
    matrix at every requested tau.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    pauli.validate_density(rho0)
    taus = np.asarray(taus, dtype=float)
    out = np.empty((len(taus), 8, 8), dtype=complex)
    out[0] = rho = rho0

    h_max = dt / ORACLE_SUBSTEPS
    for k in range(1, len(taus)):
        gap = taus[k] - taus[k - 1]
        n_sub = max(1, math.ceil(gap / h_max - 1e-12))
        h = gap / n_sub
        for start in range(0, n_sub, ORACLE_CHUNK):
            sub = np.arange(start, min(start + ORACLE_CHUNK, n_sub))
            ham = pauli.build_hamiltonian(
                *field_at(spec, taus[k - 1] + (sub + 0.5) * h), coupling)
            w, v = np.linalg.eigh(ham)
            u = np.einsum('cab,cb,cdb->cad', v, np.exp(-1j * w * h),
                          v.conj())
            for uk in u:
                rho = uk @ rho @ uk.conj().T
        out[k] = rho
    return out


def oracle_deviation(ts, rho0, spec, coupling, dt=1e-3):
    """Max abs difference between the integrated R tensors and the oracle
    propagation converted to R form, over the whole trajectory."""
    rhos = propagate_direct(rho0, spec, coupling, ts.taus, dt=dt)
    r_oracle = pauli.rho_to_r(rhos, validate=False)
    return float(np.abs(ts.states - r_oracle).max())
