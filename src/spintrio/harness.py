"""Scenario runner: named presets reproducing the reference figures, a flat
key-value config format, CSV time-series output and a run manifest.

Default parameters are the reference operating point, the defaults of
FieldSpec, CouplingConstants and IntegratorConfig.
"""

import contextlib
import functools
import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __version__, measures, pauli
from .dynamics import (GATE_TOL, SAMPLE_BLOCK, CouplingConstants, FieldSpec,
                       IntegratorConfig, TimeSeries, check_gate, integrate,
                       oracle_deviation, precision_bound)
from .errors import AccuracyError, ConfigError


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "run"
    initial: str = "GHZ"
    x: float = None
    field_kind: str = FieldSpec.kind
    omega0: float = FieldSpec.omega0
    omega1: float = FieldSpec.omega1
    j_ep: float = CouplingConstants.j_ep
    j_en: float = CouplingConstants.j_en
    j_pn: float = CouplingConstants.j_pn
    multipliers: tuple[float, ...] = FieldSpec.multipliers
    tau_max: float = IntegratorConfig.tau_max
    dt: float = IntegratorConfig.dt
    sample_every: int = IntegratorConfig.sample_every
    measures: tuple[str, ...] = ("m_sm",)
    oracle_check: bool = False


def _build(cfg):
    """(rho0, r0, FieldSpec, CouplingConstants, IntegratorConfig) of a run.

    The constructors check their own arguments; any ValueError of theirs
    becomes a ConfigError.
    """
    if (cfg.name in ("", ".", "..") or "\0" in cfg.name
            or Path(cfg.name).name != cfg.name):
        raise ConfigError(f"name must be a plain file name, got {cfg.name!r}")
    for i, ch in enumerate(cfg.measures):
        if ch not in measures.CHANNELS:
            raise ConfigError(f"unknown measure channel {ch!r}")
        if ch in cfg.measures[:i]:
            raise ConfigError(f"measure channel {ch!r} is listed twice")
    try:
        rho0, r0 = pauli.initial_state(cfg.initial, cfg.x)
        spec = FieldSpec(kind=cfg.field_kind, omega0=cfg.omega0,
                         omega1=cfg.omega1, multipliers=cfg.multipliers)
        coupling = CouplingConstants(cfg.j_ep, cfg.j_en, cfg.j_pn)
        integ = IntegratorConfig(tau_max=cfg.tau_max, dt=cfg.dt,
                                 sample_every=cfg.sample_every)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.initial == "Mix" and cfg.x < 1 and "c3" in cfg.measures:
        raise ConfigError("c3 needs a pure state; Mix with x < 1 is mixed")
    return rho0, r0, spec, coupling, integ


_BOOL_WORDS = {"on": True, "true": True, "yes": True, "1": True,
               "off": False, "false": False, "no": False, "0": False}


def _parse_value(kind, raw):
    """raw as the declared type of a ScenarioConfig field."""
    if kind is bool:
        return _BOOL_WORDS[raw.lower()]
    if get_origin(kind) is tuple:
        return tuple(map(get_args(kind)[0], raw.replace(",", " ").split()))
    return kind(raw)


def parse_config(source):
    """Parse a flat `key = value` document into a validated ScenarioConfig."""
    kinds = {f.name: f.type for f in fields(ScenarioConfig)}
    kv, seen = {}, {}
    for lineno, line in enumerate(str(source).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} already set on "
                              f"line {seen[key]}")
        seen[key] = lineno
        try:
            kv[key] = _parse_value(kinds[key], raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: "
                              f"{raw!r} ({exc})") from None
    cfg = ScenarioConfig(**kv)
    _build(cfg)
    return cfg


@functools.cache
def _words():
    """Five 4-byte words spell each value of a CSV row: "-", d0, ".", d1 |
    d2-d5 | d6-d9 | d10, d11, "e", NUL | exponent, separator."""
    return np.frombuffer(("%04d" * 10000 % tuple(range(10000)) + "".join(
        [f"-{d // 10}.{d % 10}" for d in range(100)]
        + [f"{d:02d}e\0" for d in range(100)]
        + [f"{e:+03d}{c}" for c in ",\n" for e in range(-33, 12)])).encode(),
        np.uint32)


_WORD_AT = np.array([10000, 0, 0, 10100, 10200])[:, None]   # word k's start
_SPLIT = np.array([1e10, 1e6, 1e2, 1.0])[:, None]   # n // these: 2, 6, 10, 12
_STEP = _SPLIT[:3] / _SPLIT[1:]
_POW10 = np.array([float(10 ** k) for k in range(23)])   # exact doubles
_K = np.arange(44, -1, -1)   # 10^(11 - e) = _LO _HI at e + 33, e in [-33, 11]
_LO, _HI = _POW10[np.minimum(_K, 22)], _POW10[np.maximum(_K - 22, 0)]
# Most values a CSV may hold to be written by one "%.11e" %: on small files
# that beats the byte pass's fixed cost of some 40 numpy calls.
_PERCENT_MAX = 160


@contextlib.contextmanager
def _overwrite(path):
    """path opened to write from its start without O_TRUNC (a truncate to
    zero makes ext4 flush on close), cut to length on exit, even on error."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        try:
            yield f
        finally:
            size = os.fstat(f.fileno()).st_size   # 0 on /dev/null and FIFOs
            if size and size > f.tell():
                f.truncate()


def write_csv(path, taus, channels):
    """np.savetxt's bytes (fmt "%.11e", a header), SAMPLE_BLOCK rows at once.

    s = |x| 10^(11-e), two exact products, is within 2.2e-4 of exact, so its
    rint n holds the 12 digits where s >= 1e11 - 0.04, n < 1e12, |s-n| < 0.499.
    Zero is exact; every other value (a tie, nan, inf, e past -33..11) uses %.
    A file of at most _PERCENT_MAX values is one % instead.  An existing file
    is rewritten in place and cut to length (_overwrite).
    """
    data = np.column_stack([taus, *channels.values()])
    with _overwrite(path) as f, np.errstate(all="ignore"):
        f.write(("tau," + ",".join(channels) + "\n").encode())
        if data.size <= _PERCENT_MAX:
            row = ",".join(["%.11e"] * data.shape[1]) + "\n"
            f.write((row * len(data) % tuple(data.ravel())).encode())
            return
        for start in range(0, len(data), SAMPLE_BLOCK):
            x = data[start:start + SAMPLE_BLOCK].ravel()
            a = np.abs(x)
            zero = a == 0
            i = np.fmax(np.fmin(np.log10(a + zero) + 33, 44), 0).astype(int)
            s = a * _LO.take(i) * _HI.take(i)   # i = e + 33
            n = np.rint(s)
            ok = ((s >= 1e11 - 0.04) & (n < 1e12) & (abs(s - n) < 0.499)
                  | zero)
            w = np.vstack([np.floor(n / _SPLIT), i])   # see _words
            w[1:4] -= w[:3] * _STEP
            w[4, data.shape[1] - 1::data.shape[1]] += 45   # "\n" ends a row
            w += _WORD_AT
            # a value left to % may index past the table: clip, then overwrite
            out = _words().take(w.astype(int), mode="clip").T.copy().view("u1")
            out[:, 0] *= np.signbit(x)   # "-" only where the sign bit is set
            bad = np.flatnonzero(~ok)
            if bad.size:
                text = ("%.11e\n" * bad.size % tuple(x[bad])).split()
                out[bad, :19] = np.array(text, "S19")[:, None].view("u1")
            f.write(out[out != 0].tobytes())


def csv_path(out_dir, name):
    """Where a run named `name` writes its CSV; the manifest goes next to it
    with `.manifest.txt` appended."""
    return Path(out_dir) / f"{name}.csv"


def _write(out_dir, runs):
    """Write each (name, taus, channels, manifest) of runs into out_dir,
    made once; returns the CSV paths."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = []
    for name, taus, channels, man in runs:
        paths.append(csv_path(out_dir, name))
        write_csv(paths[-1], taus, channels)
        with _overwrite(f"{paths[-1]}.manifest.txt") as f:
            f.write("".join(f"{k} = {v}\n" for k, v in man.items()).encode())
    return paths


def _run_group(cfgs, out_dir=None):
    """Run scenarios, one stacked integrate per group of configs that build
    into one FieldSpec, CouplingConstants and IntegratorConfig, which gives
    b; each other channel is evaluated once over the runs asking for it.
    Returns one (TimeSeries, manifest) per config, in input order, its
    states in the field's frame.  All configs are built first; a group's
    files are written once its runs pass their gates.  wall_time_s: the
    run's build, oracle check and manifest plus an even share of its
    group's propagation and channels."""
    built, groups = [], {}   # built: rho0, r0, spec, coupling, integ, time
    for i, cfg in enumerate(cfgs):
        start = time.perf_counter()
        built.append(_build(cfg) + (time.perf_counter() - start,))
        groups.setdefault(built[i][2:5], []).append(i)
    runs = [None] * len(cfgs)
    for (spec, coupling, integ), idx in groups.items():
        start = time.perf_counter()
        group = [cfgs[i] for i in idx]
        try:
            ts = integrate(np.array([built[i][1] for i in idx]), spec,
                           coupling, integ, lab=False)
        except AccuracyError as exc:
            if exc.index is None:
                raise
            raise AccuracyError(
                f"scenario {group[exc.index].name!r}: {exc}") from None
        b = ts.channels["b"]
        chans = [{"b": b[:, k]} for k in range(len(group))]
        for name in dict.fromkeys(ch for c in group for ch in c.measures
                                  if ch not in ts.channels):
            ks = [k for k, c in enumerate(group) if name in c.measures]
            states = ts.states if len(ks) == len(group) else ts.states[:, ks]
            values = measures.evaluate_channels(states, [name])[name]
            for j, k in enumerate(ks):
                chans[k][name] = values[:, j]
        err_bound = f"{precision_bound(spec, coupling, ts.taus[-1]):.3e}"
        shared = (time.perf_counter() - start) / len(group)
        for k, (i, cfg) in enumerate(zip(idx, group)):
            start = time.perf_counter() - built[i][-1]
            member = TimeSeries(ts.taus, ts.states[:, k], chans[k])
            man = {f: ",".join(map(str, v)) if isinstance(v, tuple) else v
                   for f, v in vars(cfg).items()}
            # exact: rotating-frame propagation, dt sets only the spacing
            drift = np.abs(b[:, k] - b[0, k]).max()
            man.update(code_version=__version__, method="exact",
                       b_drift=f"{drift:.3e}",
                       drift_gate_ratio=f"{drift / GATE_TOL:.3e}",
                       tau_end=f"{ts.taus[-1]:.11e}", err_bound=err_bound)
            if cfg.oracle_check:
                dev = oracle_deviation(member, built[i][0], spec, coupling)
                worst = np.max(dev)
                man.update(oracle_max_dev=f"{worst:.3e}",
                           oracle_gate_ratio=f"{worst / GATE_TOL:.3e}")
                check_gate(dev, ts.taus, GATE_TOL,
                           f"oracle deviation of scenario {cfg.name!r}")
            man["wall_time_s"] = f"{shared + time.perf_counter() - start:.3f}"
            runs[i] = (member, man)
        if out_dir is not None:   # the measures, then b unless one of them
            _write(out_dir, [
                (c.name, ts.taus, {n: ch[n] for n in (*c.measures, "b")},
                 runs[i][1]) for i, c, ch in zip(idx, group, chans)])
    return runs


def run_scenario(cfg, out_dir=None):
    """Integrate one scenario, evaluate its channels, write CSV + manifest.

    Returns (TimeSeries, manifest): the manifest is a flat dict, written
    as `key = value` lines.  Its states are in the field's frame, which
    turns about z at rate nu (R +1, NR -1); for ConstantZ and Custom fields
    it is the lab frame, the frame integrate returns.  The CSV goes to
    csv_path(out_dir, cfg.name) when out_dir is given; no file is written
    otherwise.
    """
    return _run_group([cfg], out_dir)[0]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_FIG1_STATES = [("S", None), ("BS", None), ("GHZ", None), ("W", None),
                ("Mix", 2 / 3)]
_FIG2_PAIRS = [("S", "m_l"), ("BS", "c3"), ("GHZ", "m_k"), ("W", "m_b")]

# preset name -> (one-line description, the ScenarioConfigs it runs)
PRESETS = {
    "figure1": (
        "triple-cumulant measure m_sm for S/BS/GHZ/W/Mix(2/3), "
        "R and NR fields (10 runs)",
        [ScenarioConfig(name=f"figure1_{st}_{fk}", initial=st, x=x,
                        field_kind=fk, measures=("m_sm",))
         for st, x in _FIG1_STATES for fk in ("R", "NR")]),
    "figure2": (
        "m_l(S), c3(BS), m_k(GHZ), m_b(W), R and NR fields (8 runs)",
        [ScenarioConfig(name=f"figure2_{st}_{fk}", initial=st,
                        field_kind=fk, measures=(ch,))
         for st, ch in _FIG2_PAIRS for fk in ("R", "NR")]),
    "figure3": (
        "spin-flip probability of qubit n, coupled vs free "
        "(fluctuator beats), R field",
        [ScenarioConfig(name="figure3_coupled", initial="Up",
                        measures=("p_flip",)),
         ScenarioConfig(name="figure3_free", initial="Up", j_en=0.0,
                        j_pn=0.0, measures=("p_flip",))]),
    "rabi-check": (
        "single decoupled qubit e in the resonant field "
        "(analytic sin^2 check)",
        [ScenarioConfig(name="rabi_check", initial="Up",
                        multipliers=(1.0, 0.0, 0.0), j_ep=0.0, j_en=0.0,
                        j_pn=0.0, measures=("p_flip_e",))]),
    "fixed-point": (
        "constant longitudinal field, polarized product state "
        "(stationary density matrix)",
        [ScenarioConfig(name="fixed_point", initial="Up",
                        field_kind="ConstantZ", measures=("rho11", "rho88"))]),
}


def list_presets():
    """Preset names with one-line descriptions."""
    return {name: desc for name, (desc, _) in PRESETS.items()}


def preset_configs(name):
    """The list of ScenarioConfigs a preset comprises."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return list(PRESETS[name][1])


def with_overrides(cfg, oracle=None, dt=None, tau_max=None):
    """cfg with the `spintrio run` overrides applied; None keeps a field."""
    overrides = {"oracle_check": oracle, "dt": dt, "tau_max": tau_max}
    return replace(cfg, **{k: v for k, v in overrides.items()
                           if v is not None})


def run_preset(name, out_dir, oracle=None, dt=None, tau_max=None):
    """Run every scenario of a preset in one _run_group call; returns the
    list of CSV paths written.

    figure3 merges its two runs into one CSV with channels p_flip_coupled
    and p_flip_free; its manifest is the coupled run's, plus each entry of
    the free run that differs, suffixed `_free`, and the wall time of both.
    """
    cfgs = [with_overrides(c, oracle, dt, tau_max)
            for c in preset_configs(name)]
    runs = _run_group(cfgs, None if name == "figure3" else out_dir)
    if name != "figure3":
        return [csv_path(out_dir, c.name) for c in cfgs]
    (ts_c, man_c), (ts_f, man_f) = runs
    wall = sum(float(m.pop("wall_time_s")) for m in (man_c, man_f))
    man = dict(man_c, name=name)
    man.update({f"{k}_free": v for k, v in man_f.items() if v != man_c[k]})
    man["wall_time_s"] = f"{wall:.3f}"
    chans = {"p_flip_coupled": ts_c.channels["p_flip"],
             "p_flip_free": ts_f.channels["p_flip"]}
    return _write(out_dir, [(name, ts_c.taus, chans, man)])
