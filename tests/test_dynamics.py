"""Field models, trajectory integration, and the direct-propagation oracle."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import spintrio
from spintrio import dynamics, pauli
from spintrio.dynamics import (GATE_TOL, MAX_STEPS, SAMPLE_BLOCK,
                               CouplingConstants, FieldSpec,
                               IntegratorConfig, integrate, integrate_two,
                               oracle_deviation, propagate_direct)
from spintrio.errors import AccuracyError, ValidationError

from conftest import FIELD_COPIES, random_pure

SECT5 = CouplingConstants()  # (-0.2, -0.1, -0.3)

# Each built-in field and a Custom field written out independently.
BUILTIN_COPIES = pytest.mark.parametrize("kind, h", list(FIELD_COPIES.items()),
                                         ids=list(FIELD_COPIES))
BUILTIN_KINDS = pytest.mark.parametrize("kind", list(FIELD_COPIES))
# The default operating point and one with every multiplier and exchange
# constant changed.
OPERATING_POINTS = pytest.mark.parametrize("mults, coupling", [
    ((1.0, 2.0, 4.0), SECT5),
    ((0.7, -1.3, 2.9), CouplingConstants(0.45, -0.8, 1.1))],
    ids=["default", "other"])
ALL_STATES = pytest.mark.parametrize("name, x", [
    (n, 2 / 3 if n == "Mix" else None) for n in pauli.STATE_NAMES],
    ids=list(pauli.STATE_NAMES))


def peak_rss_kib(code):
    """Peak resident set size, in KiB on Linux, of a fresh interpreter that
    imports this spintrio and runs `code`."""
    code += ("import resource\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(spintrio.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return int(subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True,
                              text=True).stdout)


def qubit_fields(spec, tau):
    """(h_e, h_p, h_n): each qubit's multiplier times the base field."""
    return np.multiply.outer(spec.multipliers, spec.base(tau))


def complex_rotating_frame(y, spec, gens, taus):
    """The rotating-frame closed form in complex arithmetic, as a
    reference: one eigh of 1j K and complex phases per sample."""
    gz = dynamics.stack((1.0, 1.0, 1.0), CouplingConstants(0.0, 0.0, 0.0))[3]
    g, u = np.linalg.eigh(1j * gz)
    nu = dynamics.ROTATION[spec.kind]
    a0 = np.tensordot(np.concatenate([[1.0], spec.base(0.0)]), gens, axes=1)
    w, v = np.linalg.eigh(1j * (a0 + nu * gz))
    c = v.conj().T @ y
    m = v.T @ u.conj()
    states = np.empty((len(taus), len(y)))
    for s in range(0, len(taus), SAMPLE_BLOCK):
        t = taus[s:s + SAMPLE_BLOCK, None]
        z = ((np.exp(-1j * t * w) * c) @ m) * np.exp(1j * nu * t * g)
        states[s:s + SAMPLE_BLOCK] = (z @ u.T).real
    states[0] = y   # tau = 0 is r0 itself, as on the RK4 path
    return states


class TestFieldAt:
    def test_resonant_at_zero(self):
        he, hp, hn = qubit_fields(FieldSpec(kind="R"), 0.0)
        assert np.allclose(he, [-0.3, 0.0, -1.0])
        assert np.allclose(hp, 2 * he)
        assert np.allclose(hn, 4 * he)

    def test_nonresonant_quarter_period(self):
        he, _, _ = qubit_fields(FieldSpec(kind="NR"), np.pi / 2)
        assert np.allclose(he, [0.0, -0.3, -1.0], atol=1e-15)

    def test_r_nr_agree_at_zero(self):
        r = qubit_fields(FieldSpec(kind="R"), 0.0)
        nr = qubit_fields(FieldSpec(kind="NR"), 0.0)
        for a, b in zip(r, nr):
            assert np.array_equal(a, b)

    def test_rotation_sense_differs(self):
        r = qubit_fields(FieldSpec(kind="R"), 0.7)[0]
        nr = qubit_fields(FieldSpec(kind="NR"), 0.7)[0]
        assert r[0] == nr[0] and r[2] == nr[2] and r[1] == -nr[1]

    def test_constant_z(self):
        he, hp, hn = qubit_fields(FieldSpec(kind="ConstantZ", omega0=2.0),
                                  5.0)
        assert np.allclose(he, [0, 0, 2.0])

    def test_custom(self):
        spec = FieldSpec(kind="Custom", custom=lambda t: (t, 0.0, 1.0),
                         multipliers=(1, 1, 3))
        he, _, hn = qubit_fields(spec, 2.0)
        assert np.allclose(he, [2.0, 0.0, 1.0])
        assert np.allclose(hn, [6.0, 0.0, 3.0])

    def test_custom_requires_callable(self):
        with pytest.raises(ValueError):
            FieldSpec(kind="Custom")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FieldSpec(kind="circular")

    @BUILTIN_KINDS
    def test_builtin_overflow_rule_is_the_rule_of_custom_values(self, kind):
        # FieldSpec rejects exactly the built-in fields whose base(0), as
        # base gives it, fails the check of Custom values
        big = (1.0, 1e300, 6e307, 8e307)
        for w0, w1, m in itertools.product(big, big, (1.0, 2.5, -4.0, 1e308)):
            h0 = FieldSpec(kind=kind, omega0=w0, omega1=w1,
                           multipliers=(1.0, 1.0, 1.0)).base(0.0)
            ok = dynamics._finite_reals(h0, (3,), abs(m)) is not None
            mults = (1.0, m, 0.5)
            if ok:
                FieldSpec(kind=kind, omega0=w0, omega1=w1, multipliers=mults)
                continue
            with pytest.raises(ValueError, match=f"{kind} field at tau = 0: "
                               r"sum \|h_i\| times the largest "
                               r"\|multiplier\| is not finite"):
                FieldSpec(kind=kind, omega0=w0, omega1=w1, multipliers=mults)

    def test_constant_z_ignores_omega1(self):
        spec = FieldSpec(kind="ConstantZ", omega1=1e308)
        assert np.array_equal(spec.base(0.0), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("kw", [
        {"omega0": 1j}, {"omega1": None}, {"omega0": "1"},
        {"multipliers": (1, 2, 4j)}, {"multipliers": "124"},
        {"multipliers": (1, None, 4)}, {"multipliers": np.array([1, 2, 4j])},
        {"multipliers": None}, {"multipliers": [[1, 2, 4]]},
        {"omega0": 10 ** 400}, {"multipliers": (1, 2, -10 ** 400)}],
        ids=["complex_omega0", "none_omega1", "str_omega0",
             "complex_multiplier", "str_multipliers", "none_multiplier",
             "complex_array", "none_multipliers", "nested_multipliers",
             "int_past_float_omega0", "int_past_float_multiplier"])
    def test_rejects_values_that_are_no_reals(self, kw):
        with pytest.raises(ValueError,
                           match="three per-qubit|finite and real"):
            FieldSpec(**kw)

    @pytest.mark.parametrize("values", [("a", 0, 0), (0, None, 0), (0, 0, 1j),
                                        (10 ** 400, 0, 0)])
    def test_coupling_rejects_values_that_are_no_reals(self, values):
        with pytest.raises(ValueError, match="exchange constants must be "
                                             "finite and real"):
            CouplingConstants(*values)

    @pytest.mark.parametrize("mults", [[1, 2, 4], (1.0, 2, 4),
                                       np.array([1, 2, 4]),
                                       np.array([1.0, 2.0, 4.0])],
                             ids=["list", "tuple", "int_array", "array"])
    def test_multipliers_stored_as_tuple_of_floats(self, mults):
        spec = FieldSpec(multipliers=mults)
        assert spec.multipliers == (1.0, 2.0, 4.0)
        assert all(type(m) is float for m in spec.multipliers)
        assert hash(spec) == hash(FieldSpec()) and spec == FieldSpec()


class TestIntegratorConfig:
    def test_defaults_grid(self):
        n_steps, taus = IntegratorConfig().grid()
        assert n_steps == 30000
        assert len(taus) == 3001
        assert taus[1] == pytest.approx(0.01)

    @pytest.mark.parametrize("kw", [dict(dt=-1e-3), dict(tau_max=0),
                                    dict(sample_every=0)])
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValueError):
            IntegratorConfig(**kw)

    @pytest.mark.parametrize("every", [2.5, 2.0, "3", True, np.float64(3)])
    def test_rejects_sample_every_that_is_no_integer(self, every):
        with pytest.raises(ValueError, match="sample_every must be an "
                                             "integer >= 1"):
            IntegratorConfig(tau_max=1.0, sample_every=every)

    def test_numpy_integer_sample_every(self):
        cfg = IntegratorConfig(tau_max=1.0, sample_every=np.int64(5))
        n_steps, taus = cfg.grid()
        assert n_steps == 1000 and len(taus) == 201

    def test_step_limit(self):
        # construction only: a grid at the limit would take 512 MB
        assert IntegratorConfig(tau_max=MAX_STEPS * 1e-3).sample_every == 10
        with pytest.raises(ValueError, match="more than 1000000 steps of dt"):
            IntegratorConfig(tau_max=(MAX_STEPS + 10) * 1e-3)


class TestIntegrate:
    def test_stationary_commuting_initial_state(self):
        # all-up product state commutes with the constant-z Hamiltonian
        rho0, r0 = pauli.initial_state("Up")
        spec = FieldSpec(kind="ConstantZ")
        H = pauli.build_hamiltonian(*qubit_fields(spec, 0.0), SECT5)
        assert np.abs(H @ rho0 - rho0 @ H).max() < 1e-14
        ts = integrate(r0, spec, SECT5, IntegratorConfig(tau_max=5.0))
        assert np.abs(ts.states - ts.states[0]).max() < 1e-12

    def test_bloch_length_conserved(self):
        _, r0 = pauli.initial_state("GHZ")
        ts = integrate(r0, FieldSpec(kind="R"), SECT5,
                       IntegratorConfig(tau_max=10.0))
        b = ts.channels["b"]
        assert np.abs(b - np.sqrt(7)).max() < 1e-8

    def test_purity_conserved(self):
        _, r0 = pauli.initial_state("Mix", x=2 / 3)
        ts = integrate(r0, FieldSpec(kind="NR"), SECT5,
                       IntegratorConfig(tau_max=10.0))
        purity = np.einsum('kabc,kabc->k', ts.states, ts.states) / 8.0
        assert np.abs(purity - 0.5).max() < 1e-8

    def test_states_stay_physical(self):
        _, r0 = pauli.initial_state("W")
        ts = integrate(r0, FieldSpec(kind="R"), SECT5,
                       IntegratorConfig(tau_max=5.0))
        for r in ts.states[::100]:
            rho = pauli.r_to_rho(r)
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_resonant_rabi_analytic(self):
        # decoupled qubit e: flip probability sin^2(omega1 tau / 2)
        _, r0 = pauli.initial_state("Up")
        spec = FieldSpec(kind="R", multipliers=(1.0, 0.0, 0.0))
        ts = integrate(r0, spec, CouplingConstants(0, 0, 0),
                       IntegratorConfig(tau_max=10.0))
        p = (1.0 - ts.states[:, 3, 0, 0]) / 2.0
        assert np.abs(p - np.sin(0.15 * ts.taus) ** 2).max() < 1e-6

    def test_accuracy_error_on_coarse_step(self):
        # RK4 on the Custom copy of R; the built-in R is exact at any dt
        _, r0 = pauli.initial_state("GHZ")
        custom = FieldSpec(kind="Custom", custom=FIELD_COPIES["R"])
        with pytest.raises(AccuracyError) as info:
            integrate(r0, custom, SECT5,
                      IntegratorConfig(tau_max=30.0, dt=0.1, sample_every=1))
        assert info.value.magnitude > 1e-8

    def test_rejects_unnormalized_initial(self):
        # identity component 0 or NaN, or a unit tensor of another shape
        for r000, shape in ((0.0, (4, 4, 4)), (np.nan, (4, 4, 4)),
                            (1.0, (4, 4)), (1.0, (64,))):
            r0 = np.zeros(shape)
            r0.flat[0] = r000
            with pytest.raises(ValidationError):
                integrate(r0, FieldSpec(kind="R"), SECT5,
                          IntegratorConfig(tau_max=0.1))

    @pytest.mark.parametrize("value, message", [
        (5.0, "exceeds 2.64575"), (np.nan, "non-finite"),
        (np.inf, "non-finite")], ids=["too_long", "nan", "inf"])
    def test_rejects_start_tensor_that_is_no_state(self, value, message):
        # GHZ with one Bloch component out of reach of any density matrix
        _, r0 = pauli.initial_state("GHZ")
        r0[1, 0, 0] = value
        with pytest.raises(ValidationError, match=message):
            integrate(r0, FieldSpec(kind="R"), SECT5,
                      IntegratorConfig(tau_max=0.1))

    @BUILTIN_COPIES
    def test_custom_field_matches_builtin(self, kind, h):
        # the copy is the same field; its RK4 run meets the exact one
        taus = np.arange(0, 201) * 0.01
        builtin = FieldSpec(kind=kind)
        custom = FieldSpec(kind="Custom", custom=h)
        for a, b in zip(qubit_fields(builtin, taus),
                        qubit_fields(custom, taus)):
            assert np.abs(a - b).max() < 1e-15
        _, r0 = pauli.initial_state("W")
        cfg = IntegratorConfig(tau_max=2.0)
        exact = integrate(r0, builtin, SECT5, cfg)
        rk4 = integrate(r0, custom, SECT5, cfg)
        assert np.abs(rk4.states - exact.states).max() < GATE_TOL

    def test_node_blocks_match_per_step_loop(self, rng):
        # 201 steps: not a whole number of node blocks, and samples every 3
        # steps fall at a different place in each block of 8
        cfg = IntegratorConfig(tau_max=0.201, sample_every=3)
        n_steps, taus = cfg.grid()
        assert n_steps == 201 and len(taus) == 68
        spec = FieldSpec(kind="Custom", multipliers=(0.7, -1.3, 2.9),
                         custom=lambda t: (-0.303 * np.cos(1.007 * t),
                                           0.303 * np.sin(1.007 * t), -1.0))
        coupling = CouplingConstants(0.45, -0.8, 1.1)
        y = pauli.rho_to_r(random_pure(rng)).ravel()

        # the per-step RK4 loop, four generator sums per step
        dt, every = cfg.dt, cfg.sample_every
        gens = dynamics.stack(spec.multipliers, coupling)
        h = spec.base(np.arange(2 * n_steps + 1) * (0.5 * dt))
        coeffs = np.concatenate([np.ones((len(h), 1)), h], axis=-1)
        m, d, _ = gens.shape
        flat = gens.reshape(m * d, d)

        def f(c, y):
            return c @ (flat @ y).reshape(m, d)

        ref = [y]
        for step in range(n_steps):
            c0, ch, c1 = coeffs[2 * step:2 * step + 3]
            k1 = f(c0, y)
            k2 = f(ch, y + 0.5 * dt * k1)
            k3 = f(ch, y + 0.5 * dt * k2)
            k4 = f(c1, y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (step + 1) % every == 0:
                ref.append(y)
        ts = integrate(ref[0].reshape(4, 4, 4), spec, coupling, cfg)
        assert np.abs(ts.states.reshape(len(taus), -1) - ref).max() <= 1e-13

    @ALL_STATES
    @BUILTIN_KINDS
    def test_exact_path_matches_oracle(self, name, x, kind):
        rho0, r0 = pauli.initial_state(name, x)
        spec = FieldSpec(kind=kind)
        ts = integrate(r0, spec, SECT5)
        assert oracle_deviation(ts, rho0, spec, SECT5).max() < 1e-12

    def test_grid_longer_than_one_block(self):
        rho0, r0 = pauli.initial_state("GHZ")
        spec = FieldSpec(kind="NR")
        ts = integrate(r0, spec, SECT5,
                       IntegratorConfig(tau_max=41.0, dt=0.01, sample_every=1))
        assert len(ts.taus) > SAMPLE_BLOCK
        assert oracle_deviation(ts, rho0, spec, SECT5).max() < 1e-12

    def test_nan_field_trips_drift_gate(self):
        _, r0 = pauli.initial_state("GHZ")
        spec = FieldSpec(kind="Custom",
                         custom=lambda t: (1e300 if t > 0 else 0.0, 0.0, 1.0))
        # a finite field from the first half step on that overflows RK4 to
        # inf and NaN: the first sample after tau = 0
        with np.errstate(all="ignore"), \
                pytest.raises(AccuracyError, match=r"first at tau = 0\.01$"):
            integrate(r0, spec, SECT5, IntegratorConfig(tau_max=0.1))


@pytest.mark.parametrize("value, after", [
    ((np.nan, 0.0, 1.0), 0.1), ((0.0, -np.inf, 1.0), 0.1),
    ((0.3, 1.0), 0.1), ((0.3, 1.0), -1.0), ((1j, 0.0, 1.0), 0.1),
    (("x", "y", "z"), 0.1), ((1e308, 0.0, 1.0), 0.1)],
    ids=["nan", "inf", "two_components", "two_components_throughout",
         "complex", "strings", "overflows_multipliers"])
@pytest.mark.parametrize("entry", ["integrate", "integrate_two",
                                   "propagate_direct"])
def test_bad_custom_field_is_a_validation_error(entry, value, after):
    # the callable returns `value` for tau > after; the error names the
    # first tau at which it did, and is raised before any step and without
    # a warning (1e308 is finite, but not times the multipliers 2 and 4)
    calls = []

    def field(t):
        calls.append(t)
        return value if t > after else (-0.3, 0.0, -1.0)
    spec = FieldSpec(kind="Custom", custom=field)
    rho0, r0 = pauli.initial_state("W")
    cfg = IntegratorConfig(tau_max=0.2)
    run = {"integrate": lambda: integrate(r0, spec, SECT5, cfg),
           "integrate_two": lambda: integrate_two(r0[:, :, 0], spec, -0.2,
                                                  cfg),
           "propagate_direct": lambda: propagate_direct(
               rho0, spec, SECT5, np.arange(21) * 0.01)}[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            run()
    first = next(t for t in calls if t > after)
    assert f"Custom field at tau = {first:.6g} is " in str(info.value)


@pytest.mark.parametrize("entry", ["integrate", "integrate_two",
                                   "propagate_direct"])
def test_custom_field_is_called_once_per_node(entry):
    # RK4 needs the field at the 2 n + 1 half-step nodes of n steps, each
    # Magnus step at its two Gauss nodes: one call each, over several blocks
    calls = []

    def field(t):
        calls.append(t)
        return (-0.3 * np.cos(t), 0.3 * np.sin(t), -1.0)
    spec = FieldSpec(kind="Custom", custom=field)
    rho0, r0 = pauli.initial_state("W")
    cfg = IntegratorConfig(tau_max=0.2, sample_every=3)   # 201 RK4 steps
    taus = [0.0, 0.2, 0.2, 0.1, 0.1234, 1.6]   # 1802 Magnus steps
    {"integrate": lambda: integrate(r0, spec, SECT5, cfg),
     "integrate_two": lambda: integrate_two(r0[:, :, 0], spec, -0.2, cfg),
     "propagate_direct": lambda: propagate_direct(rho0, spec, SECT5, taus),
     }[entry]()
    expected = 2 * 1802 if entry == "propagate_direct" else 2 * 201 + 1
    assert len(calls) == expected


class TestCachedStacks:
    """dynamics.stack (64x64) and the oracle's (8x8) stack are built once
    per (multipliers, coupling)."""
    STACKS = pytest.mark.parametrize("build", [dynamics.stack,
                                               dynamics._hamiltonians],
                                     ids=["stack", "hamiltonians"])

    @STACKS
    @OPERATING_POINTS
    def test_read_only_and_equal_to_a_fresh_build(self, build, mults,
                                                  coupling):
        cached = build(mults, coupling)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 1.0
        assert np.array_equal(cached, build.__wrapped__(mults, coupling))
        assert build(mults, coupling) is cached

    @OPERATING_POINTS
    def test_oracle_stack_gives_the_hamiltonian(self, rng, mults, coupling):
        h = rng.normal(size=3)
        ref = pauli.build_hamiltonian(*np.multiply.outer(mults, h), coupling)
        hs = dynamics._hamiltonians(mults, coupling)
        assert np.abs(np.tensordot(np.insert(h, 0, 1.0), hs, 1) - ref).max() \
            < 1e-14

    def test_list_tuple_and_array_share_one_entry(self):
        rho0, r0 = pauli.initial_state("W")
        cfg = IntegratorConfig(tau_max=0.05)
        mults = [(0.5, 1.5, 2.5), [0.5, 1.5, 2.5], np.array([0.5, 1.5, 2.5])]
        for build in (dynamics.stack, dynamics._hamiltonians):
            build.cache_clear()
        for m in mults:
            spec = FieldSpec(multipliers=m)
            ts = integrate(r0, spec, SECT5, cfg)
            oracle_deviation(ts, rho0, spec, SECT5)
        for build in (dynamics.stack, dynamics._hamiltonians):
            info = build.cache_info()
            assert (info.misses, info.currsize) == (1, 1)


class TestRotatingFrame:
    # G_z and the y-parity mask are over three qubits; integrate_two runs
    # the same three-qubit generators
    @pytest.mark.parametrize("qubits", [3])
    @BUILTIN_KINDS
    @OPERATING_POINTS
    def test_generator_flips_y_parity(self, kind, qubits, mults, coupling):
        # the real path needs K = A(0) + nu G_z to map the components with
        # an even number of y slots only to those with an odd number
        odd = dynamics._ODD_Y
        assert list(odd) == [sum(i == 2 for i in idx) % 2 == 1 for idx in
                             itertools.product(range(4), repeat=qubits)]
        gz = dynamics.stack((1.0, 1.0, 1.0), CouplingConstants(0, 0, 0))[3]
        spec = FieldSpec(kind=kind, omega0=0.8, omega1=0.45,
                         multipliers=mults)
        gens = dynamics.stack(spec.multipliers, coupling)
        k = (np.tensordot(np.concatenate([[1.0], spec.base(0.0)]), gens,
                          axes=1) + dynamics.ROTATION[kind] * gz)
        assert np.all(k[odd][:, odd] == 0.0)
        assert np.all(k[~odd][:, ~odd] == 0.0)
        assert np.abs(k[~odd][:, odd]).max() > 0

    @pytest.mark.parametrize("qubits", [3, 2])
    @BUILTIN_KINDS
    @OPERATING_POINTS
    def test_matches_complex_closed_form(self, rng, kind, qubits, mults,
                                         coupling):
        spec = FieldSpec(kind=kind, multipliers=mults)
        cfg = IntegratorConfig(tau_max=41.0, dt=0.01, sample_every=1)
        r0 = pauli.rho_to_r(random_pure(rng))
        if qubits == 3:
            ts = integrate(r0, spec, coupling, cfg)
            taus, states = ts.taus, ts.states
        else:
            # the (e, p) marginal with n decoupled, against the closed form
            # of the three-qubit system from (e, p) x maximally mixed n
            r0[:, :, 1:] = 0.0
            taus, states = integrate_two(r0[:, :, 0], spec, coupling.j_ep,
                                         cfg)
            spec = FieldSpec(kind=kind, multipliers=(*mults[:2], 0.0))
            coupling = CouplingConstants(coupling.j_ep, 0.0, 0.0)
            states = np.stack([states, *[np.zeros_like(states)] * 3], axis=-1)
        assert len(taus) > 2 * SAMPLE_BLOCK
        ref = complex_rotating_frame(r0.ravel(), spec,
                                     dynamics.stack(spec.multipliers,
                                                    coupling), taus)
        assert np.abs(states.reshape(len(taus), -1) - ref).max() < 1e-12

    # omega0, and the first tau at which 2^-53 max(w) tau passes GATE_TOL;
    # integrate_two's largest multiplier is 2, so 1e6 stays inside to tau 30
    @pytest.mark.parametrize("entry, omega0, first", [
        ("integrate", 1e6, 12.87), ("integrate", 1e12, 0.01),
        ("integrate", 4e307, 0.01), ("integrate_two", 1e12, 0.01),
        ("integrate_two", 4e307, 0.01)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phases_past_double_precision_fail_closed(self, entry, omega0,
                                                      first):
        # the exact path is orthogonal, so the Bloch drift cannot see the
        # rounding of the phases t w; the bound does, before any cos
        spec = FieldSpec(omega0=omega0)
        msg = (r"precision bound 2\^-53 max\(w\) tau of the exact path is "
               rf".* first at tau = {first}$")
        with pytest.raises(AccuracyError, match=msg):
            if entry == "integrate":
                integrate(pauli.initial_state("W")[1], spec, SECT5)
            else:
                r2 = np.zeros((4, 4))
                r2[0, 0] = r2[3, 3] = 1.0
                integrate_two(r2, spec, -0.2)


class TestIntegrateTwo:
    def test_marginal_matches_three_qubit_solution(self):
        # Bell pair on (e, p) x up on n, with n decoupled
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho2 = np.outer(bell, bell.conj())
        up = np.array([[1, 0], [0, 0]], dtype=complex)
        r3 = pauli.rho_to_r(np.kron(rho2, up))
        coupling = CouplingConstants(-0.2, 0.0, 0.0)
        spec = FieldSpec(kind="R")
        cfg = IntegratorConfig(tau_max=10.0)
        ts = integrate(r3, spec, coupling, cfg)
        basis2 = np.array([[np.kron(pauli.SIGMA[a], pauli.SIGMA[b])
                            for b in range(4)] for a in range(4)])
        r2_0 = np.einsum('abij,ji->ab', basis2, rho2).real
        _, states2 = integrate_two(r2_0, spec, -0.2, cfg)
        assert np.abs(ts.states[:, :, :, 0] - states2).max() < 1e-12

    def test_rejects_unnormalized(self):
        # identity component 0 or NaN, or a unit tensor of another shape
        for r00, shape in ((0.0, (4, 4)), (np.nan, (4, 4)),
                           (1.0, (4, 4, 4)), (1.0, (16,))):
            r2_0 = np.zeros(shape)
            r2_0.flat[0] = r00
            with pytest.raises(ValidationError):
                integrate_two(r2_0, FieldSpec(kind="R"), -0.2,
                              IntegratorConfig(tau_max=0.1))

    def test_exact_path_matches_oracle(self):
        # Bell pair on (e, p) x up on n, n decoupled: the (a, b, 0) slice of
        # the exact three-qubit propagation
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho2 = np.outer(bell, bell.conj())
        up = np.array([[1, 0], [0, 0]], dtype=complex)
        rho3 = np.kron(rho2, up)
        coupling = CouplingConstants(-0.2, 0.0, 0.0)
        r2_0 = pauli.rho_to_r(rho3)[:, :, 0]
        for kind in FIELD_COPIES:
            spec = FieldSpec(kind=kind)
            taus, states2 = integrate_two(r2_0, spec, -0.2)
            rhos = propagate_direct(rho3, spec, coupling, taus)
            exact = pauli.rho_to_r(rhos, validate=False)[..., 0]
            assert np.abs(states2 - exact).max() < 1e-12

    def test_rejects_pair_tensor_that_is_no_state(self):
        r2_0 = np.zeros((4, 4))
        r2_0[0, 0], r2_0[1, 1] = 1.0, 2.0   # Bloch length 2 > sqrt(3)
        with pytest.raises(ValidationError, match="exceeds 1.73205"):
            integrate_two(r2_0, FieldSpec(kind="R"), -0.2,
                          IntegratorConfig(tau_max=0.1))

    @BUILTIN_COPIES
    def test_custom_field_matches_builtin(self, kind, h):
        # the Custom copy takes RK4, the built-in field the exact path
        _, r0 = pauli.initial_state("W")
        cfg = IntegratorConfig(tau_max=2.0)
        _, exact = integrate_two(r0[:, :, 0], FieldSpec(kind=kind), -0.2, cfg)
        _, rk4 = integrate_two(r0[:, :, 0], FieldSpec(kind="Custom", custom=h),
                               -0.2, cfg)
        assert np.abs(rk4 - exact).max() < GATE_TOL

    def test_nan_exchange_fails_at_construction(self):
        r2_0 = np.zeros((4, 4))
        r2_0[0, 0] = 1.0
        with pytest.raises(ValueError, match="exchange constants"):
            integrate_two(r2_0, FieldSpec(kind="R"), np.nan,
                          IntegratorConfig(tau_max=0.1))


class TestPropagateDirect:
    def test_initial_point_unchanged(self):
        rho0, _ = pauli.initial_state("W")
        out = propagate_direct(rho0, FieldSpec(kind="R"), SECT5, [0.0])
        assert np.array_equal(out[0], rho0)

    def test_commuting_constant_field_is_fixed(self):
        rho0, _ = pauli.initial_state("Up")
        taus = np.arange(0, 51) * 0.1
        out = propagate_direct(rho0, FieldSpec(kind="ConstantZ"), SECT5, taus)
        assert np.abs(out - rho0).max() < 1e-12

    def test_step_unitarity(self):
        rho0, _ = pauli.initial_state("GHZ")
        # one short interval: unitary at machine precision
        short = propagate_direct(rho0, FieldSpec(kind="NR"), SECT5,
                                 [0.0, 1e-3])
        assert abs(np.trace(short[1]).real - 1) < 1e-14
        assert abs(np.einsum('ij,ji->', short[1], short[1]).real - 1) < 1e-13
        # trace and purity stay put at every sample up to tau = 2
        out = propagate_direct(rho0, FieldSpec(kind="NR"), SECT5,
                               np.arange(0, 21) * 0.1)
        traces = np.einsum('kii->k', out).real
        purity = np.einsum('kij,kji->k', out, out).real
        assert np.abs(traces - 1).max() < 1e-10
        assert np.abs(purity - 1).max() < 1e-10

    def test_cross_formulation_equivalence(self):
        rho0, r0 = pauli.initial_state("GHZ")
        spec = FieldSpec(kind="R")
        ts = integrate(r0, spec, SECT5, IntegratorConfig(tau_max=5.0))
        dev = oracle_deviation(ts, rho0, spec, SECT5)
        assert dev.shape == ts.taus.shape
        assert dev.max() < 1e-8

    @pytest.mark.parametrize("custom", [None, FIELD_COPIES["R"]],
                             ids=["R", "R_copy"])
    def test_blocked_deviation_matches_whole_grid(self, custom):
        # each block of the oracle restarts from the block before's last state
        rho0, r0 = pauli.initial_state("GHZ")
        spec = FieldSpec(kind="Custom" if custom else "R", custom=custom)
        ts = integrate(r0, spec, SECT5,
                       IntegratorConfig(tau_max=2.5, sample_every=1))
        assert len(ts.taus) > 2 * SAMPLE_BLOCK
        whole = pauli.rho_to_r(propagate_direct(rho0, spec, SECT5, ts.taus),
                               validate=False)
        dev = np.abs(ts.states - whole).reshape(len(whole), -1).max(axis=1)
        blocked = oracle_deviation(ts, rho0, spec, SECT5)
        assert np.abs(blocked - dev).max() < 1e-13

    def test_oracle_memory_is_bounded(self):
        # 10^5 samples, whose whole-grid complex arrays take about 400 MB
        code = textwrap.dedent("""
            from spintrio import pauli
            from spintrio.dynamics import (CouplingConstants, FieldSpec,
                                           IntegratorConfig, integrate,
                                           oracle_deviation)
            rho0, r0 = pauli.initial_state("GHZ")
            spec, coupling = FieldSpec(kind="R"), CouplingConstants()
            ts = integrate(r0, spec, coupling,
                           IntegratorConfig(tau_max=100.0, sample_every=1))
            assert oracle_deviation(ts, rho0, spec, coupling).max() < 1e-8
        """)
        assert peak_rss_kib(code) < 200 * 1024

    def test_restart_from_a_later_sample(self):
        # rho0 is the state at taus[0], which need not be 0
        rho0, _ = pauli.initial_state("GHZ")
        taus = np.arange(0, 301) * 0.01
        full = propagate_direct(rho0, FieldSpec(kind="R"), SECT5, taus)
        again = propagate_direct(full[1], FieldSpec(kind="R"), SECT5,
                                 taus[1:])
        assert np.abs(again - full[1:]).max() < 1e-12

    @BUILTIN_KINDS
    @OPERATING_POINTS
    def test_builtin_propagator_matches_sandwich_of_rho0(self, rng, kind,
                                                         mults, coupling):
        # the closed form that sandwiched rho0 itself in the eigenbasis of
        # H(0) + nu S_z, kept as the reference; an irregular grid from
        # tau = 0.37 whose W rho0 W^dag crosses a block of samples
        def reference(rho0, spec, coupling, taus):
            nu = dynamics.ROTATION[spec.kind]
            sz = np.diag(pauli.SPIN_E[2] + pauli.SPIN_P[2]
                         + pauli.SPIN_N[2]).real
            w, v = np.linalg.eigh(pauli.build_hamiltonian(
                *qubit_fields(spec, 0.0), coupling) + nu * np.diag(sz))
            f = np.exp(1j * nu * taus[:, None] * sz)
            a = v.conj().T @ (f[0].conj()[:, None] * rho0 * f[0]) @ v
            a = a * np.exp(-1j * (taus[1:, None, None] - taus[0])
                           * (w[:, None] - w))
            a = v @ a @ v.conj().T * f[1:, :, None] * f[1:, None].conj()
            return np.concatenate([rho0[None], a])

        taus = 0.37 + np.cumsum(rng.uniform(0.0, 0.05, 1500))
        assert len(taus) > SAMPLE_BLOCK
        rho0 = random_pure(rng)
        spec = FieldSpec(kind=kind, multipliers=mults)
        out = propagate_direct(rho0, spec, coupling, taus)
        assert np.array_equal(out[0], rho0)
        assert np.abs(out - reference(rho0, spec, coupling, taus)).max() \
            <= 1e-13

    @BUILTIN_COPIES
    def test_magnus_path_matches_exact_path(self, kind, h):
        # Custom copies take the Magnus steps, built-ins the closed form
        rho0, _ = pauli.initial_state("W")
        taus = np.arange(0, 201) * 0.01
        exact = propagate_direct(rho0, FieldSpec(kind=kind), SECT5, taus)
        custom = FieldSpec(kind="Custom", custom=h)
        magnus = propagate_direct(rho0, custom, SECT5, taus)
        assert np.abs(magnus - exact).max() < 1e-10
        # backwards in time over samples 0.5 apart: still steps of <= dt
        back = propagate_direct(exact[-1], custom, SECT5, taus[::-50])
        assert np.abs(back - exact[::-50]).max() < 1e-10

    def test_rejects_bad_density(self):
        with pytest.raises(ValidationError):
            propagate_direct(np.eye(8), FieldSpec(kind="R"), SECT5, [0.0])

    @pytest.mark.parametrize("kind", ["R", "Custom"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_rejects_a_stack_of_densities(self, kind, count):
        rho0, _ = pauli.initial_state("W")
        spec = FieldSpec(kind=kind, custom=FIELD_COPIES["R"])
        with pytest.raises(ValidationError, match="one 8x8"):
            propagate_direct(np.stack([rho0] * count), spec, SECT5,
                             [0.0, 0.1])

    def test_magnus_blocks_match_per_step_loop(self):
        # a zero gap, a backward gap, gaps that are not multiples of dt and
        # a gap of 1477 steps, which straddles a boundary of the step blocks
        taus = np.array([0.0, 0.2, 0.2, 0.1, 0.1234, 1.6, 2.0])
        rho0, _ = pauli.initial_state("W")
        # a drive off resonance, which no built-in field matches
        spec = FieldSpec(kind="Custom", custom=lambda t: (
            -0.303 * np.cos(1.007 * t), 0.303 * np.sin(1.007 * t), -1.0))
        dt = 1e-3
        steps = [max(1, math.ceil(abs(b - a) / dt - 1e-12))
                 for a, b in zip(taus, taus[1:])]
        assert max(steps) > SAMPLE_BLOCK and steps[1] == 1

        # the per-step Magnus loop, one step at a time
        g, m = dynamics._GAUSS, dynamics._MAGNUS
        ref = np.empty((len(taus), 8, 8), dtype=complex)
        ref[0] = rho = rho0
        for k in range(1, len(taus)):
            n = max(1, math.ceil(abs(taus[k] - taus[k - 1]) / dt - 1e-12))
            h = (taus[k] - taus[k - 1]) / n
            for j in range(n):
                ham = pauli.build_hamiltonian(
                    *qubit_fields(spec, taus[k - 1] + (j + g) * h), SECT5)
                w, v = np.linalg.eigh(np.tensordot(m, ham, axes=1))
                u = v * np.exp(-1j * h * w)[:, None] @ v.conj().swapaxes(1, 2)
                u = u[0] @ u[1]
                rho = u @ rho @ u.conj().T
            ref[k] = rho
        out = propagate_direct(rho0, spec, SECT5, taus, dt=dt)
        assert np.abs(out - ref).max() < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 1e-3, 0.1, 1.0, 3.0])
    @pytest.mark.parametrize("sign", [1, -1], ids=["forward", "backward"])
    def test_taylor_exponential_matches_eigh(self, rng, theta, sign):
        # exp(-1j h X) for a stack of Hermitian X of different norms, scaled
        # so that the largest row sum of |h X| is theta
        a = rng.normal(size=(2, 5, 8, 8)) + 1j * rng.normal(size=(2, 5, 8, 8))
        hx = (a + a.conj().swapaxes(2, 3)) * rng.uniform(size=(2, 5, 1, 1))
        hx *= theta / np.abs(hx).sum(axis=-1).max()
        u = dynamics._expm(-1j * sign * hx, theta)
        w, v = np.linalg.eigh(hx)
        ref = (v * np.exp(-1j * sign * w)[..., None, :]
               @ v.conj().swapaxes(2, 3))
        assert np.abs(u - ref).max() < 1e-14
        eye = u @ u.conj().swapaxes(2, 3)
        assert np.abs(eye - np.eye(8)).max() < 1e-14

    @pytest.mark.parametrize("custom, taus, dt, first", [
        (FIELD_COPIES["R"], [0.0, 10.0], 2.0, 0.0)] + [
        (lambda t, f=f: (f if t > 0.05 else 0.0, 0.0, 1.0),
         np.arange(21) * 0.01, 1e-3, 0.05) for f in (1e8, 1e200, 1e300)],
        ids=["dt_2", "field_1e8", "field_1e200", "field_1e300"])
    def test_rejects_steps_outside_convergence_radius(self, custom, taus, dt,
                                                      first):
        # a step whose norm bound is not below pi is no 4th-order step: it
        # is named by the tau it starts at, without overflow or warning
        rho0, _ = pauli.initial_state("W")
        spec = FieldSpec(kind="Custom", custom=custom)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=f"Magnus step at tau = {first:.6g} "
                                     r".* not below pi: lower dt"):
                propagate_direct(rho0, spec, SECT5, taus, dt=dt)

    @pytest.mark.parametrize("kind", ["R", "NR"])
    @pytest.mark.parametrize("name, x", [("W", None), ("Mix", 2 / 3)],
                             ids=["W", "Mix"])
    def test_cumulative_propagator_to_tau_10(self, kind, name, x):
        # 10^4 Magnus steps and 2001 samples, more than one SAMPLE_BLOCK of
        # each, against the closed form
        rho0, _ = pauli.initial_state(name, x)
        taus = np.arange(0, 2001) * 0.005
        exact = propagate_direct(rho0, FieldSpec(kind=kind), SECT5, taus)
        custom = FieldSpec(kind="Custom", custom=FIELD_COPIES[kind])
        magnus = propagate_direct(rho0, custom, SECT5, taus)
        assert np.abs(magnus - exact).max() <= 5e-12
        assert np.abs(np.einsum('kii->k', magnus) - 1).max() <= 5e-12

    def test_magnus_memory_is_bounded(self):
        # one gap of 5 * 10^4 Magnus steps, whose step unitaries alone
        # would take about 100 MB if built at once
        code = textwrap.dedent("""
            import numpy as np
            from spintrio import pauli
            from spintrio.dynamics import (CouplingConstants, FieldSpec,
                                           propagate_direct)
            rho0, _ = pauli.initial_state("W")
            spec = FieldSpec(kind="Custom",
                             custom=lambda t: (-0.3 * np.cos(t),
                                               0.3 * np.sin(t), -1.0))
            out = propagate_direct(rho0, spec, CouplingConstants(),
                                   [0.0, 5.0], dt=1e-4)
            assert abs(np.trace(out[1]) - 1) < 1e-10
        """)
        assert peak_rss_kib(code) < 200 * 1024

    @pytest.mark.parametrize("taus, dt", [
        ([0.0, 1e6], 1e-3), ([0.0, 600.0, 0.0], 1e-3),
        ([0.0, 1e300], 1e-300), ([-1e308, 1e308], 1e-3)],
        ids=["one_gap", "summed_over_gaps", "count_overflows",
             "gap_overflows"])
    def test_rejects_more_than_max_steps(self, taus, dt):
        # 10^9 and 1.2 * 10^6 steps, and counts that overflow to inf without
        # a warning; the field is never evaluated, so no step is taken
        def field(t):
            raise AssertionError("a Magnus step was started")
        rho0, _ = pauli.initial_state("W")
        spec = FieldSpec(kind="Custom", custom=field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=f"more than {MAX_STEPS} steps of dt"):
                propagate_direct(rho0, spec, SECT5, taus, dt=dt)

    @pytest.mark.parametrize("taus, dt", [
        ([], 1e-3), ([0.0, np.nan], 1e-3), ([0.0, np.inf], 1e-3),
        ([0.0, 0.5], -1e-3), ([0.0, 0.5], 0.0), ([0.0, 0.5], np.inf),
        ([0.0, 0.5], np.nan), ([[0.0, 0.1]], 1e-3),
    ], ids=["empty", "tau_nan", "tau_inf", "dt_negative", "dt_zero",
            "dt_inf", "dt_nan", "not_1d"])
    def test_rejects_bad_grid_or_step(self, taus, dt):
        rho0, _ = pauli.initial_state("W")
        custom = FieldSpec(kind="Custom",
                           custom=lambda t: (-0.3 * np.cos(t), 0.0, -1.0))
        with pytest.raises(ValidationError):
            propagate_direct(rho0, custom, SECT5, taus, dt=dt)
