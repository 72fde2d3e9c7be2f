"""Tests of the benchmark itself: the exact reference, the seeded input
generator, the fail-closed checks and the metric names."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import spintrio as st
from spintrio import harness

import reference as ref
import run
import workloads

STANDARD = [(s, x, k) for s, x in [("S", None), ("BS", None), ("GHZ", None),
                                   ("W", None), ("Mix", 2 / 3)]
            for k in ("R", "NR")]


@pytest.mark.parametrize("state,x,kind", STANDARD)
def test_reference_matches_propagate_direct(state, x, kind):
    rho0 = ref.initial_density(state, x)
    taus = workloads.grid(1.0, ref.DT, 10)
    direct = st.propagate_direct(rho0, st.FieldSpec(kind=kind),
                                 st.CouplingConstants(), taus, dt=ref.DT)
    exact = ref.propagate(rho0, taus, kind)
    assert np.abs(ref.r_tensor(direct) - ref.r_tensor(exact)).max() <= 1e-8


def test_reference_matches_propagate_direct_on_detuned_custom_field():
    nu, w1 = 1.02, 0.29
    spec = st.FieldSpec(kind="Custom", custom=lambda t: np.array(
        [-w1 * np.cos(nu * t), w1 * np.sin(nu * t), -1.0]))
    rho0 = ref.initial_density("W")
    taus = workloads.grid(0.5, ref.DT, 10)
    direct = st.propagate_direct(rho0, spec, st.CouplingConstants(), taus)
    exact = ref.propagate(rho0, taus, "Custom", w1=w1, nu=nu)
    assert np.abs(ref.r_tensor(direct) - ref.r_tensor(exact)).max() <= 1e-8


def test_two_qubit_reference_matches_integrate_two():
    rho2 = ref.reduce_to_ep(ref.initial_density("GHZ"))
    taus = workloads.grid(1.0, ref.DT, 10)
    _, states = st.integrate_two(ref.r_tensor(rho2[None])[0],
                                 st.FieldSpec(kind="NR"), ref.COUPLING[0],
                                 st.IntegratorConfig(tau_max=1.0))
    exact = ref.propagate(rho2, taus, "NR", multipliers=ref.MULTIPLIERS[:2],
                          couplings=ref.COUPLING[:1])
    assert np.abs(states - ref.r_tensor(exact)).max() <= 1e-8


@pytest.mark.parametrize("state", ["S", "BS", "GHZ", "W", "Up"])
def test_initial_states_and_channels_match_the_package(state):
    rho, r = st.initial_state(state)
    assert np.allclose(ref.initial_density(state), rho, atol=1e-15)
    assert np.allclose(ref.r_tensor(rho[None])[0], r, atol=1e-14)
    refs = ref.channel_references(rho[None])
    assert refs["m_sm"][0][0] == pytest.approx(st.m_sm(r), abs=1e-12)
    assert refs["c3"][0][0] == pytest.approx(st.concurrence_c3(r) ** 2,
                                             abs=1e-12)
    assert refs["m_l"][0][0] == pytest.approx(st.m_l(r) ** 3, abs=1e-12)


@pytest.mark.parametrize("workload", ["verified", "dense"])
def test_generator_is_deterministic_and_documents_parse(workload):
    for seed in range(5):
        docs = workloads.documents(workload, seed)
        assert docs == workloads.documents(workload, seed)
        for sc, doc in zip(workloads.scenarios(workload, seed), docs):
            cfg = harness.parse_config(doc)
            assert (cfg.initial, cfg.x, cfg.field_kind, cfg.measures,
                    cfg.oracle_check) == (sc.initial, sc.x, sc.kind,
                                          sc.measures, sc.oracle)
    assert workloads.documents(workload, 0) != workloads.documents(workload, 1)
    assert workloads.custom_inputs(3) == workloads.custom_inputs(3)


def test_checks_fail_closed():
    exact = np.zeros((2, 4, 4, 4))
    for bad in (np.nan, np.inf, 2 * ref.STATE_TOL):
        with pytest.raises(workloads.CheckFailed):
            workloads.check_r("x", exact + bad, exact)
    refs = ref.channel_references(ref.initial_density("GHZ")[None])
    assert not ref.channel_error("m_sm", [np.nan], refs["m_sm"])[1]
    assert ref.channel_error("m_sm", refs["m_sm"][0], refs["m_sm"])[1]


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json")
                      .read_text())
    for group, table in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert declared == table
        for name in declared:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", name)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
