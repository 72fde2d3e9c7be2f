"""Seeded inputs, operations and correctness checks of the four workloads.

Every operation calls the package only through its public entry points
(`spintrio.cli.main`, `harness.parse_config`, `harness.write_csv`,
`measures.evaluate_channels` and the names in `spintrio.__all__`) and is
checked against the exact reference in `reference.py`.
"""

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

STATES = ("S", "BS", "GHZ", "W", "Mix")
PURE = ("S", "BS", "GHZ", "W")
DENSE_CHANNELS = ("m_sm", "c3", "m_b", "m_k", "m_l", "p_flip", "b")

# tau_max and sample_every per workload; dt is the reference 1e-3 everywhere.
# The lengths keep each call to a few hundred milliseconds at most and one
# pass (every input of the workload once) near a second, so that a run calls
# every input several times and the median over its calls is a steady figure.
SETTINGS = {
    "verified": {"tau_max": 0.4, "sample_every": 10},
    "presets": {"tau_max": 0.5, "sample_every": 10},
    "dense": {"tau_max": 0.4, "sample_every": 1},
    "custom": {"tau_max": 0.2, "sample_every": 10, "tau_max_two": 0.4},
}
WORKLOADS = tuple(SETTINGS)

# Detuned circular drive of the custom workload: nu and omega1 stay within
# these distances of the reference drive (1, 0.3).
NU_SPREAD = 0.01
OMEGA1_SPREAD = 0.005


def _rng(workload, seed):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _mix_weight(rng):
    """Uniform in (1/3, 1]."""
    return 1 / 3 + (2 / 3) * (1.0 - rng.random())


def grid(tau_max, dt, sample_every):
    """Sampled tau grid: tau_max rounded to whole sample intervals."""
    stride = dt * sample_every
    return np.arange(max(1, round(tau_max / stride)) + 1) * stride


@dataclass(frozen=True)
class Scenario:
    """One trajectory as the benchmark generated it."""
    name: str
    initial: str
    x: float = None
    kind: str = "R"
    tau_max: float = 1.0
    sample_every: int = 10
    measures: tuple = ("m_sm",)
    oracle: bool = False
    multipliers: tuple = ref.MULTIPLIERS
    couplings: tuple = ref.COUPLING

    def document(self):
        """The scenario as a config document for `spintrio run --config`."""
        lines = [f"name = {self.name}", f"initial = {self.initial}"]
        if self.x is not None:
            lines.append(f"x = {self.x!r}")
        lines += [f"field_kind = {self.kind}",
                  f"tau_max = {self.tau_max!r}",
                  f"dt = {ref.DT!r}",
                  f"sample_every = {self.sample_every}",
                  f"measures = {', '.join(self.measures)}",
                  f"oracle_check = {'on' if self.oracle else 'off'}"]
        return "\n".join(lines) + "\n"

    def taus(self):
        return grid(self.tau_max, ref.DT, self.sample_every)

    def exact(self):
        """Exact density matrices on the sample grid."""
        return ref.propagate(ref.initial_density(self.initial, self.x),
                             self.taus(), self.kind, self.multipliers,
                             self.couplings)


def scenarios(workload, seed):
    """The config-document scenarios of `verified` and `dense`.

    Each covers every initial state with every field kind of the workload,
    in a seeded order and with a seeded Mix weight."""
    rng = _rng(workload, seed)
    s = SETTINGS[workload]
    kinds = ("R", "NR") if workload == "verified" else ("R", "NR", "ConstantZ")
    combos = [(st, k) for st in STATES for k in kinds]
    out = []
    for n, i in enumerate(rng.permutation(len(combos))):
        st, kind = combos[i]
        x = _mix_weight(rng) if st == "Mix" else None
        if workload == "verified":
            chans, oracle = ("m_sm",), True
        else:
            chans = tuple(c for c in DENSE_CHANNELS if c != "c3" or st in PURE)
            oracle = False
        out.append(Scenario(name=f"{workload}_{n:02d}_{st}_{kind}",
                            initial=st, x=x, kind=kind,
                            tau_max=s["tau_max"],
                            sample_every=s["sample_every"],
                            measures=chans, oracle=oracle))
    return out


def documents(workload, seed):
    return [sc.document() for sc in scenarios(workload, seed)]


# The presets as the README documents them; the CSV check compares each
# written file with these scenarios, so a drift of either shows as a failure.
_FIG1 = (("S", None), ("BS", None), ("GHZ", None), ("W", None), ("Mix", 2 / 3))
_FIG2 = (("S", "m_l"), ("BS", "c3"), ("GHZ", "m_k"), ("W", "m_b"))
_NO_J = (0.0, 0.0, 0.0)


def preset_scenarios(tau_max):
    """{preset: [(csv name, {csv column: Scenario})]}."""
    t = dict(tau_max=tau_max)

    def single(name, col_scen):
        return (name, {c: col_scen for c in col_scen.measures + ("b",)})

    fig1 = [single(f"figure1_{st}_{fk}",
                   Scenario(f"figure1_{st}_{fk}", st, x, fk, measures=("m_sm",), **t))
            for st, x in _FIG1 for fk in ("R", "NR")]
    fig2 = [single(f"figure2_{st}_{fk}",
                   Scenario(f"figure2_{st}_{fk}", st, None, fk, measures=(ch,), **t))
            for st, ch in _FIG2 for fk in ("R", "NR")]
    coupled = Scenario("figure3_coupled", "Up", measures=("p_flip",), **t)
    free = Scenario("figure3_free", "Up", measures=("p_flip",),
                    couplings=(-0.2, 0.0, 0.0), **t)
    rabi = Scenario("rabi_check", "Up", measures=("p_flip_e",),
                    multipliers=(1.0, 0.0, 0.0), couplings=_NO_J, **t)
    fixed = Scenario("fixed_point", "Up", kind="ConstantZ",
                     measures=("rho11", "rho88"), **t)
    return {
        "figure1": fig1,
        "figure2": fig2,
        "figure3": [("figure3", {"p_flip_coupled": coupled,
                                 "p_flip_free": free})],
        "rabi-check": [single("rabi_check", rabi)],
        "fixed-point": [single("fixed_point", fixed)],
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An output is missing, malformed, non-finite or outside its gate."""


def check_r(name, states, exact_r):
    """Largest R-tensor deviation; fails closed on NaN, inf or the gate."""
    states = np.asarray(states, dtype=float)
    if states.shape != exact_r.shape:
        raise CheckFailed(f"{name}: shape {states.shape}, "
                          f"expected {exact_r.shape}")
    err = float(np.max(np.abs(states - exact_r)))
    if not err <= ref.STATE_TOL:
        raise CheckFailed(f"{name}: R-tensor error {err:.3e} "
                          f"exceeds {ref.STATE_TOL:.0e}")
    return err


def check_csv(path, taus, columns):
    """Compare a written CSV with exact channel values.

    `columns` maps each expected column to the channel_references of its
    trajectory.  Returns the largest implied R-tensor error."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: unreadable ({exc})") from None
    if header[0] != "tau" or sorted(header[1:]) != sorted(columns):
        raise CheckFailed(f"{path}: columns {header}, "
                          f"expected tau + {sorted(columns)}")
    if data.shape != (len(taus), len(header)) or not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path}: {data.shape} values or non-finite entries")
    if not np.max(np.abs(data[:, 0] - taus)) <= 1e-9:
        raise CheckFailed(f"{path}: tau column differs from the grid")
    worst = 0.0
    for j, col in enumerate(header[1:], start=1):
        channel = col.removesuffix("_coupled").removesuffix("_free")
        err, ok = ref.channel_error(channel, data[:, j], columns[col][channel])
        if not ok:
            raise CheckFailed(f"{path}: column {col} outside the gate "
                              f"(implied R error {err:.3e})")
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One closed-loop call of a workload.

    run          the timed call
    check        validates run's result; returns its largest implied
                 R-tensor error or raises CheckFailed
    trajectories trajectories the call propagates
    replay       traced run only: the call's work, layer by layer
    accuracy     once per run, untimed: R-tensor error of every trajectory
                 whose R tensor the call does not return
    counts       work done by one call, by counter name
    outputs      files the call writes, removed before each call
    """
    label: str
    run: object
    check: object
    trajectories: int = 1
    replay: object = None
    accuracy: object = None
    counts: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)


def quiet_cli(argv):
    """cli.main with its stdout and stderr captured; returns (code, stderr)."""
    from spintrio import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _cli_check(argv, files):
    """A cli call is correct when it exits 0 and every CSV is correct."""
    def check(result):
        code, err = result
        if code != 0:
            raise CheckFailed(f"{' '.join(argv)}: exit {code}: {err.strip()}")
        return max(check_csv(path, taus, cols) for path, taus, cols in files)
    return check


def _public_inputs(sc):
    """(rho0, r0, FieldSpec, CouplingConstants, IntegratorConfig) of a
    scenario, built with the package's public constructors."""
    import spintrio as st
    rho0, r0 = st.initial_state(sc.initial, sc.x)
    spec = st.FieldSpec(kind=sc.kind, omega0=ref.OMEGA0, omega1=ref.OMEGA1,
                        multipliers=sc.multipliers)
    cfg = st.IntegratorConfig(tau_max=sc.tau_max, dt=ref.DT,
                              sample_every=sc.sample_every)
    return rho0, r0, spec, st.CouplingConstants(*sc.couplings), cfg


def _accuracy(scs):
    """Integrate each scenario once and compare its R tensor."""
    def accuracy():
        import spintrio as st
        worst = 0.0
        for sc in scs:
            _, r0, spec, coupling, cfg = _public_inputs(sc)
            states = st.integrate(r0, spec, coupling, cfg).states
            worst = max(worst, check_r(sc.name, states,
                                       ref.r_tensor(sc.exact())))
        return worst
    return accuracy


def _counts(scs):
    c = {"steps": 0, "oracle_substeps": 0, "samples": 0}
    for sc in scs:
        n = len(sc.taus())
        c["steps"] += (n - 1) * sc.sample_every
        c["samples"] += n * len(sc.measures)
        if sc.oracle:
            c["oracle_substeps"] += 10 * (n - 1) * sc.sample_every
    return c


def replay_scenario(tracer, sc, csv_path=None):
    """The work of harness.run_scenario for one scenario, one span per
    layer call, in the order the harness makes them."""
    import spintrio as st
    from spintrio import harness, measures
    with tracer.span("harness.run_scenario"):
        with tracer.span("pauli.initial_state"):
            rho0, r0, spec, coupling, cfg = _public_inputs(sc)
        with tracer.span("dynamics.integrate"):
            ts = st.integrate(r0, spec, coupling, cfg)
        chans = {}
        for ch in sc.measures:
            with tracer.span(f"measures.{ch}"):
                chans.update(measures.evaluate_channels(ts.states, [ch]))
        if sc.oracle:
            with tracer.span("dynamics.oracle"):
                rhos = st.propagate_direct(rho0, spec, coupling, ts.taus,
                                           dt=ref.DT)
                # the harness compares the oracle with the trajectory
                np.max(np.abs(ref.r_tensor(rhos) - ts.states))
        if csv_path is not None:
            cols = dict(chans)
            cols.setdefault("b", ts.channels["b"])
            with tracer.span("harness.write_csv"):
                harness.write_csv(csv_path, ts.taus, cols)
            tracer.count("csv_bytes", Path(csv_path).stat().st_size)
    return ts, chans


def document_ops(workload, seed, out_dir):
    """One `spintrio run --config` call per generated document."""
    replay_dir = out_dir / "replay"
    replay_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for sc in scenarios(workload, seed):
        path = out_dir / f"{sc.name}.cfg"
        path.write_text(sc.document())
        argv = ["run", "--config", str(path), "--out", str(out_dir)]
        refs = ref.channel_references(sc.exact())
        files = [(out_dir / f"{sc.name}.csv", sc.taus(),
                  {c: refs for c in sc.measures + ("b",)})]

        def replay(tracer, sc=sc, path=path):
            from spintrio import harness
            with tracer.span("harness.parse_config"):
                harness.parse_config(path.read_text())
            replay_scenario(tracer, sc, replay_dir / f"{sc.name}.csv")

        ops.append(Op(sc.name, lambda a=argv: quiet_cli(a),
                      _cli_check(argv, files), replay=replay,
                      accuracy=_accuracy([sc]), counts=_counts([sc]),
                      outputs=[f[0] for f in files]))
    return ops


def preset_ops(out_dir):
    """One `spintrio run --preset` call per preset, oracle off."""
    from spintrio import harness
    tau = SETTINGS["presets"]["tau_max"]
    replay_dir = out_dir / "replay"
    replay_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for preset, csvs in preset_scenarios(tau).items():
        argv = ["run", "--preset", preset, "--out", str(out_dir),
                "--oracle", "off", "--tau-max", repr(tau)]
        refs = {}
        files = []
        for name, cols in csvs:
            for sc in cols.values():
                if sc not in refs:
                    refs[sc] = ref.channel_references(sc.exact())
            files.append((out_dir / f"{name}.csv",
                           next(iter(cols.values())).taus(),
                           {col: refs[sc] for col, sc in cols.items()}))
        scs = list(refs)

        def replay(tracer, csvs=csvs):
            for name, cols in csvs:
                scs = set(cols.values())
                if len(scs) == 1:
                    replay_scenario(tracer, scs.pop(),
                                    replay_dir / f"{name}.csv")
                    continue
                # figure3: two runs merged into one CSV
                merged = {col: replay_scenario(tracer, sc)[1][sc.measures[0]]
                          for col, sc in cols.items()}
                path = replay_dir / f"{name}.csv"
                with tracer.span("harness.write_csv"):
                    harness.write_csv(path, next(iter(cols.values())).taus(),
                                      merged)
                tracer.count("csv_bytes", path.stat().st_size)

        ops.append(Op(preset, lambda a=argv: quiet_cli(a),
                      _cli_check(argv, files), trajectories=len(scs),
                      replay=replay, accuracy=_accuracy(scs),
                      counts=_counts(scs), outputs=[f[0] for f in files]))
    return ops


def custom_inputs(seed):
    """Seeded detuned drive (nu, omega1), Mix weight and the field kinds of
    the two-qubit runs."""
    rng = _rng("custom", seed)
    nu = 1.0 + NU_SPREAD * rng.uniform(-1, 1)
    w1 = ref.OMEGA1 + OMEGA1_SPREAD * rng.uniform(-1, 1)
    x = _mix_weight(rng)
    kinds = [str(k) for k in rng.choice(["R", "NR", "ConstantZ"], len(STATES))]
    return nu, w1, x, kinds


def custom_ops(seed):
    """Library-only paths for every initial state: integrate on a Custom
    field, propagate_direct on the same grid, and integrate_two for the
    (e, p) marginal."""
    import spintrio as st

    nu, w1, x, kinds = custom_inputs(seed)
    s = SETTINGS["custom"]
    coupling = st.CouplingConstants(*ref.COUPLING)

    def drive(tau):
        return np.array([-w1 * np.cos(nu * tau), w1 * np.sin(nu * tau),
                         -ref.OMEGA0])

    spec = st.FieldSpec(kind="Custom", custom=drive)
    cfg = st.IntegratorConfig(tau_max=s["tau_max"], dt=ref.DT,
                              sample_every=s["sample_every"])
    cfg2 = st.IntegratorConfig(tau_max=s["tau_max_two"], dt=ref.DT,
                               sample_every=s["sample_every"])
    taus = grid(s["tau_max"], ref.DT, s["sample_every"])
    taus2 = grid(s["tau_max_two"], ref.DT, s["sample_every"])
    ops = []
    for state, kind2 in zip(STATES, kinds):
        xs = x if state == "Mix" else None
        rho0 = ref.initial_density(state, xs)
        exact = ref.r_tensor(ref.propagate(rho0, taus, "Custom", w1=w1, nu=nu))
        rho2 = ref.reduce_to_ep(rho0)
        exact2 = ref.r_tensor(ref.propagate(
            rho2, taus2, kind2, multipliers=ref.MULTIPLIERS[:2],
            couplings=ref.COUPLING[:1]))
        r2_0 = ref.r_tensor(rho2[None])[0]

        def integrate_custom(state=state, xs=xs):
            _, r0 = st.initial_state(state, xs)
            return st.integrate(r0, spec, coupling, cfg).states

        def direct(state=state, xs=xs):
            rho, _ = st.initial_state(state, xs)
            return ref.r_tensor(st.propagate_direct(rho, spec, coupling,
                                                    taus, dt=ref.DT))

        def two(r2_0=r2_0, kind2=kind2):
            return st.integrate_two(r2_0, st.FieldSpec(kind=kind2),
                                    ref.COUPLING[0], cfg2)[1]

        def checker(name, exact):
            return lambda result: check_r(name, result, exact)

        def replay_custom(tracer, state=state, xs=xs):
            with tracer.span("pauli.initial_state"):
                _, r0 = st.initial_state(state, xs)
            with tracer.span("dynamics.integrate_custom"):
                st.integrate(r0, spec, coupling, cfg)

        def replay_direct(tracer, state=state, xs=xs):
            with tracer.span("pauli.initial_state"):
                rho, _ = st.initial_state(state, xs)
            with tracer.span("dynamics.propagate_direct"):
                st.propagate_direct(rho, spec, coupling, taus, dt=ref.DT)

        def replay_two(tracer, r2_0=r2_0, kind2=kind2):
            with tracer.span("dynamics.integrate_two"):
                st.integrate_two(r2_0, st.FieldSpec(kind=kind2),
                                 ref.COUPLING[0], cfg2)

        ops += [
            Op(f"integrate_custom_{state}", integrate_custom,
               checker(f"integrate {state}", exact), replay=replay_custom),
            Op(f"propagate_direct_{state}", direct,
               checker(f"propagate_direct {state}", exact),
               replay=replay_direct),
            Op(f"integrate_two_{state}_{kind2}", two,
               checker(f"integrate_two {state} {kind2}", exact2),
               replay=replay_two),
        ]
    return ops


def make_ops(workload, seed, out_dir):
    if workload == "presets":
        return preset_ops(out_dir)
    if workload == "custom":
        return custom_ops(seed)
    return document_ops(workload, seed, out_dir)
