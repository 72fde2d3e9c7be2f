"""A 40-digit reference for the exact path and the oracle.

H(0) + nu S_z is assembled in mpmath from a field's input scalars (omega0,
omega1, the multipliers, nu and the three J), never cast from the double
matrix, and diagonalized by mp.eighe.  Each reference tau is the exact value
of the double sample time.  A circular drive at rate nu is the R field at
omega0 / nu, omega1 / nu and J / nu over s = nu tau, which checks RK4 on a
detuned Custom drive against the exact path at those scaled parameters.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from spintrio import dynamics, pauli
from spintrio.dynamics import (CouplingConstants, FieldSpec,
                               IntegratorConfig, integrate, oracle_deviation)
from spintrio.pauli import SIGMA

from conftest import kron3

SECT5 = CouplingConstants()
CFG = IntegratorConfig()   # 3001 samples to tau = 30
# 8 samples: the first two past tau = 0, then spread to the last, tau = 30
SAMPLES = [1, 2, 100, 777, 1500, 2222, 2999, 3000]
STATES = ("W", "GHZ")
# H(tau) = V H(0) V^dag with V = exp(i nu tau S_z): R's transverse field
# -w1 (cos tau, -sin tau) turns by -tau about z, NR's by +tau
NU = {"R": 1, "NR": -1}

mp = mpmath.MPContext()
mp.dps = 40


def _product(*abc):
    """sigma_a x sigma_b x sigma_c by np.kron: entries 0, +-1 and +-i."""
    return kron3(*(SIGMA[i] for i in abc))


# the 64 products as (row, col, re, im) of their one nonzero entry per column
_PRODUCTS = [[(i, j, int(x.real), int(x.imag))
              for (i, j), x in np.ndenumerate(_product(*abc)) if x]
             for abc in itertools.product(range(4), repeat=3)]


def _one(i, q):
    """sigma_i on qubit q (0 = e, 1 = p, 2 = n), exact in mpmath."""
    return mp.matrix(_product(*(i if k == q else 0 for k in range(3)))
                     .tolist())


def _hamiltonian(spec, coupling):
    """H(0) + nu S_z at 40 digits from spec's and coupling's scalars."""
    w0, w1 = mp.mpf(spec.omega0), mp.mpf(spec.omega1)
    base, nu = (-w1, 0, -w0), NU[spec.kind]
    h = mp.zeros(8, 8)
    for q, m in enumerate(spec.multipliers):
        for i in (1, 2, 3):
            h += (mp.mpf(m) * base[i - 1] + nu * (i == 3)) / 2 * _one(i, q)
    for (p, q), j in zip([(0, 1), (0, 2), (1, 2)],
                         (coupling.j_ep, coupling.j_en, coupling.j_pn)):
        for i in (1, 2, 3):
            h += mp.mpf(j) / 2 * (_one(i, p) * _one(i, q))
    return h, nu


def _r_tensor(rho):
    """Tr(rho sigma_abc), the sum of Re(rho_ji x) over each product's
    entries x = re + i im at (i, j)."""
    rho = rho.tolist()
    return np.array([float(mp.fsum(re * rho[j][i].real - im * rho[j][i].imag
                                   for i, j, re, im in prod))
                     for prod in _PRODUCTS]).reshape(4, 4, 4)


def _reference(rho0, spec, coupling, taus):
    """R tensors at each tau, (len(taus), 4, 4, 4), in the field's frame
    and in the lab frame, both rounded once from 40 digits."""
    h, nu = _hamiltonian(spec, coupling)
    w, u = mp.eighe(h)
    a = u.H * mp.matrix(rho0.tolist()) * u
    sz = [mp.mpf(3 - 2 * bin(k).count("1")) / 2 for k in range(8)]
    field, lab = [], []
    for t in map(mp.mpf, map(float, taus)):
        b = mp.matrix(8, 8)
        for i, j in itertools.product(range(8), repeat=2):
            b[i, j] = a[i, j] * mp.expj(-(w[i] - w[j]) * t)
        rho = u * b * u.H
        field.append(_r_tensor(rho))
        for i, j in itertools.product(range(8), repeat=2):
            rho[i, j] *= mp.expj(nu * t * (sz[i] - sz[j]))
        lab.append(_r_tensor(rho))
    return np.array(field), np.array(lab)


@pytest.fixture(scope="module")
def references():
    """(field, lab) references per (kind, state), built once."""
    taus = CFG.grid()[1][SAMPLES]
    return {(kind, name): _reference(pauli.initial_state(name)[0],
                                     FieldSpec(kind=kind), SECT5, taus)
            for kind in NU for name in STATES}


@pytest.mark.parametrize("kind", list(NU))
@pytest.mark.parametrize("lab", [False, True], ids=["field", "lab"])
def test_exact_path_is_within_1e_13_of_40_digits(references, kind, lab):
    r0 = np.stack([pauli.initial_state(n)[1] for n in STATES])
    ts = integrate(r0, FieldSpec(kind=kind), SECT5, CFG, lab=lab)
    for k, name in enumerate(STATES):
        ref = references[kind, name][lab]
        assert np.abs(ts.states[SAMPLES, k] - ref).max() < 1e-13


@pytest.mark.parametrize("kind", list(NU))
def test_oracle_reads_within_1e_13_of_40_digits(references, kind):
    # fed the reference as the states, the oracle's deviation is its own
    # R tensors' distance from it
    spec, taus = FieldSpec(kind=kind), CFG.grid()[1][SAMPLES]
    for name in STATES:
        ref = references[kind, name][0]
        dev = oracle_deviation(dynamics.TimeSeries(taus, ref),
                               pauli.initial_state(name)[0], spec, SECT5)
        assert dev.max() < 1e-13


def test_rk4_on_a_detuned_drive_matches_the_scaled_exact_path():
    # h = -(w1 cos nu tau, -w1 sin nu tau, w0) at nu = 1.07 is the R field
    # at omega0 / nu, omega1 / nu and J / nu over s = nu tau, sampled at
    # s_i = nu tau_i
    nu, w0, w1 = 1.07, 1.0, 0.3
    drive = FieldSpec(kind="Custom", custom=lambda t: (
        -w1 * math.cos(nu * t), w1 * math.sin(nu * t), -w0))
    scaled = FieldSpec(kind="R", omega0=w0 / nu, omega1=w1 / nu)
    coupling = CouplingConstants(SECT5.j_ep / nu, SECT5.j_en / nu,
                                 SECT5.j_pn / nu)
    r0 = np.stack([pauli.initial_state(n)[1] for n in STATES])
    rk4 = integrate(r0, drive, SECT5, CFG)
    exact = integrate(r0, scaled, coupling,
                      IntegratorConfig(tau_max=nu * CFG.tau_max,
                                       dt=nu * CFG.dt))
    assert np.abs(exact.taus - nu * rk4.taus).max() < 1e-13
    assert np.abs(rk4.states - exact.states).max() < 1e-8
