"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The heavy trajectory work (ten standard runs with the density-matrix oracle)
is shared through a module-scoped fixture.
"""

import numpy as np
import pytest

from spintrio import measures, pauli
from spintrio.dynamics import (CouplingConstants, FieldSpec, IntegratorConfig,
                               TimeSeries, integrate, integrate_two,
                               propagate_direct)
from spintrio.harness import preset_configs, run_preset, run_scenario

from conftest import FIELD_COPIES, random_density, random_so3, rotate_r

SECT5 = CouplingConstants()
GRID = IntegratorConfig()  # tau in [0, 30], sample spacing 0.01

_FIVE_STATES = [("S", None), ("BS", None), ("GHZ", None), ("W", None),
                ("Mix", 2 / 3)]


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def standard_runs():
    """The ten standard trajectories, integrated by RK4 on the Custom copy
    of each field (the built-in fields are propagated exactly), the five
    states of a field as one stack, with their largest deviations from the
    built-in field's density matrices, both in the lab frame."""
    starts = [pauli.initial_state(st, x) for st, x in _FIVE_STATES]
    runs = {}
    for fk in ("R", "NR"):
        copy = FieldSpec(kind="Custom", custom=FIELD_COPIES[fk])
        ts = integrate(np.stack([r0 for _, r0 in starts]), copy, SECT5, GRID)
        for i, ((st, _), (rho0, _)) in enumerate(zip(_FIVE_STATES, starts)):
            one = TimeSeries(ts.taus, ts.states[:, i],
                             {"b": ts.channels["b"][:, i]})
            rhos = propagate_direct(rho0, FieldSpec(kind=fk), SECT5, ts.taus)
            dev = np.abs(one.states
                         - pauli.rho_to_r(rhos, validate=False)).max()
            runs[(st, fk)] = (one, dev)
    return runs


def test_criterion_1_oracle_equivalence(standard_runs):
    worst = max(dev for _, dev in standard_runs.values())
    report("1 oracle equivalence (10 runs, tau<=30)", worst <= 1e-8,
           f"max |R_ode - R_oracle| = {worst:.3e} (tol 1e-8)")


def test_criterion_2_bloch_length_conservation(standard_runs):
    worst = 0.0
    for (st, fk), (ts, _) in standard_runs.items():
        target = np.sqrt(3.0) if st == "Mix" else np.sqrt(7.0)
        worst = max(worst, np.abs(ts.channels["b"] - target).max())
    report("2 Bloch length sqrt(7)/sqrt(3) conserved", worst <= 1e-8,
           f"max |b - target| = {worst:.3e} (tol 1e-8)")


def test_criterion_3_initial_measure_fixtures():
    _, ghz = pauli.initial_state("GHZ")
    _, w = pauli.initial_state("W")
    _, s = pauli.initial_state("S")
    checks = [
        ("m_l(GHZ)", measures.m_l(ghz), 1.0, 1e-12),
        ("m_l(W)", measures.m_l(w), 8 / 9, 1e-12),
        ("m_b(W)", measures.m_b(w), 8 / 9, 1e-12),
        ("m_b(GHZ)", measures.m_b(ghz), 1.0, 1e-12),
        ("m_k(GHZ)", measures.m_k(ghz), 1.0, 1e-10),
        ("c3(GHZ)", measures.concurrence_c3(ghz), np.sqrt(1.5), 1e-10),
        ("c3(S)", measures.concurrence_c3(s), 0.0, 1e-10),
        ("m_sm(GHZ)", measures.m_sm(ghz), 4.0, 1e-10),
        ("m_sm(S)", measures.m_sm(s), 0.0, 1e-10),
    ]
    worst = max(abs(got - want) - 0 for _, got, want, _ in checks)
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    report("3 initial measure fixtures", ok,
           f"worst deviation = {worst:.3e}")


def test_criterion_4_constant_field_fixed_point():
    _, r0 = pauli.initial_state("Up")
    ts = integrate(r0, FieldSpec(kind="ConstantZ"), SECT5, GRID)
    dev = np.abs(ts.states - ts.states[0]).max()
    report("4 commuting constant-field fixed point", dev <= 1e-10,
           f"max |R(tau) - R(0)| = {dev:.3e} (tol 1e-10)")


def test_criterion_5_resonant_rabi_limit():
    _, r0 = pauli.initial_state("Up")
    spec = FieldSpec(kind="R", multipliers=(1.0, 0.0, 0.0))
    ts = integrate(r0, spec, CouplingConstants(0, 0, 0), GRID)
    p = (1.0 - ts.states[:, 3, 0, 0]) / 2.0
    err = np.abs(p - np.sin(0.15 * ts.taus) ** 2).max()
    report("5 analytic resonant Rabi limit", err <= 1e-6,
           f"max |P - sin^2(0.15 tau)| = {err:.3e} (tol 1e-6)")


def test_criterion_6_two_qubit_reduction():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho_pair = np.outer(bell, bell.conj())
    up = np.array([[1, 0], [0, 0]], dtype=complex)
    r3 = pauli.rho_to_r(np.kron(rho_pair, up))
    coupling = CouplingConstants(-0.2, 0.0, 0.0)
    spec = FieldSpec(kind="R")
    ts = integrate(r3, spec, coupling, GRID)
    basis2 = np.array([[np.kron(pauli.SIGMA[a], pauli.SIGMA[b])
                        for b in range(4)] for a in range(4)])
    r2_0 = np.einsum('abij,ji->ab', basis2, rho_pair).real
    _, states2 = integrate_two(r2_0, spec, -0.2, GRID)
    dev = np.abs(ts.states[:, :, :, 0] - states2).max()
    report("6 two-qubit reduction consistency", dev <= 1e-8,
           f"max |marginal - 15-ODE solution| = {dev:.3e} (tol 1e-8)")


def _peak_spread(p):
    idx = np.where((p[1:-1] > p[:-2]) & (p[1:-1] >= p[2:]))[0] + 1
    peaks = p[idx]
    return peaks.max() - peaks.min()


def test_criterion_7_fluctuator_beats():
    coupled_cfg, free_cfg = preset_configs("figure3")
    (ts_c, _), (ts_f, _) = run_scenario(coupled_cfg), run_scenario(free_cfg)
    spread_c = _peak_spread(ts_c.channels["p_flip"])
    spread_f = _peak_spread(ts_f.channels["p_flip"])
    ok = spread_c > 0.05 and spread_f < 1e-3
    report("7 fluctuator beats (qualitative)", ok,
           f"coupled peak spread = {spread_c:.3f} (> 0.05), "
           f"free = {spread_f:.1e} (< 1e-3)")


def test_criterion_8_local_rotation_invariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        r = pauli.rho_to_r(random_density(rng, rank=rng.integers(1, 9)))
        rot = rotate_r(r, random_so3(rng), random_so3(rng), random_so3(rng))
        worst = max(
            worst,
            abs(measures.m_b(rot) - measures.m_b(r)),
            abs(measures.m_l(rot) - measures.m_l(r)),
            abs(measures.m_sm(rot) - measures.m_sm(r)),
            abs(measures.concurrence_c3(rot, purity_check=False)
                - measures.concurrence_c3(r, purity_check=False)),
        )
    report("8 measure invariance under 100 local rotations", worst <= 1e-10,
           f"max measure change = {worst:.3e} (tol 1e-10)")


def _outputs(out_dir, tag):
    """A run's CSV bytes and its manifest lines but the wall time."""
    manifest = (out_dir / f"{tag}.manifest.txt").read_text().splitlines()
    return ((out_dir / tag).read_bytes(),
            [x for x in manifest if not x.startswith("wall_time_s")])


def test_criterion_9_deterministic_csv(tmp_path):
    # a is run fresh, then over its own files at a longer tau_max and again
    # at 5, then at a shorter one and again at 5: each time it must match b,
    # a fresh run at 5
    a, b = tmp_path / "a", tmp_path / "b"
    for preset, tag in [("fixed-point", "fixed_point.csv"),
                        ("figure3", "figure3.csv")]:
        run_preset(preset, b, tau_max=5.0)
        for tau_maxes in [(5.0,), (8.0, 5.0), (3.0, 5.0)]:
            for tau_max in tau_maxes:
                run_preset(preset, a, tau_max=tau_max)
            if _outputs(a, tag) != _outputs(b, tag):
                report(f"9 deterministic CSV ({preset})", False,
                       f"files differ after tau_max {tau_maxes}")
    report("9 deterministic CSV", True,
           "byte-identical outputs, fresh and rewritten")
