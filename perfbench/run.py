#!/usr/bin/env python3
"""End-to-end benchmark of spintrio at the reference operating point.

Run from the repository root:

    python3 perfbench/run.py --workload verified --seed 1 --seconds 25 --trace 0

One process, one closed-loop client: each call starts after the previous one
returned.  A pass runs every generated input of the workload once; passes
repeat until --seconds is spent.

Timings are made steady against the host.  On the host this benchmark was
tuned on, a 2-vCPU KVM guest of an Intel Xeon (family 6, model 207) that
shares its CPUs with other guests, a call's time moves by 10-30 % from one
minute to the next and by more within a second.  So every call is followed
at once by a speed probe, a fixed computation of the benchmark's own that
shares no code with the package (see SpeedProbe), run over and over for as
long as the call took.  The call's time over the probe's mean time in that
window is the call's cost with the host's speed taken out; each timing is
the median of that ratio times PROBE_REF_S, the probe's mean time on the
host above, so the figures read in seconds of that host.  The probe does
not change with the package, so a faster package reads faster by the same
share, as long as the package does no work between calls.  `wall_s` is one
pass with every input at its median, `trajectory_p50_s` the median over
calls per trajectory.  The run record keeps each input's fastest and median
call unscaled, and the pass times.

Every output is checked against the exact rotating-frame reference in
reference.py; a call that raises, exits non-zero or fails its check counts
as a failed operation.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it, and a file under perfbench/out/,
record the machine and the run settings; a traced run also writes its spans
there.

Workloads:
  verified  config documents through `spintrio run --config`, oracle on
  presets   every preset through `spintrio run --preset`, oracle off
  dense     config documents, every sample, every measure channel
  custom    integrate on a Custom field, propagate_direct, integrate_two
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata, util
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS threads, pinned before numpy loads.  The matrices are at most 64x64,
# too small for threaded BLAS to pay off, and one thread keeps the timings
# free of contention with the second CPU.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7
RHS_THREE_CALLS = 200

# Speed probe: steps per run, and its mean time per run on the host named in
# the module docstring.
PROBE_STEPS = 150
PROBE_REF_S = 4.7e-3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trajectory_p50_s": "s",
    "peak_rss_mb": "MB",
    "max_err": "1",
}
PER_LAYER = {
    "cli.import_s": "s",
    "kernels.first_call_s": "s",
    "dynamics.integrate_s": "s",
    "dynamics.steps": "count",
    "kernels.rk4_step_us": "us",
    "dynamics.oracle_s": "s",
    "dynamics.oracle_substeps": "count",
    "dynamics.oracle_ns_per_substep": "ns",
    "dynamics.integrate_custom_s": "s",
    "dynamics.integrate_two_s": "s",
    "dynamics.propagate_direct_s": "s",
    "kernels.rhs_three_us": "us",
    "measures.m_sm_s": "s",
    "measures.c3_s": "s",
    "measures.m_b_s": "s",
    "measures.m_k_s": "s",
    "measures.m_l_s": "s",
    "measures.p_flip_s": "s",
    "measures.b_s": "s",
    "measures.samples": "count",
    "measures.us_per_sample": "us",
    "harness.parse_config_s": "s",
    "harness.write_csv_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.run_scenario_s": "s",
    "pauli.initial_state_s": "s",
    "harness.unaccounted_frac": "1",
    "failed_frac": "1",
}

# Fresh interpreter: import the CLI (and with it the package), then the
# first integrate call, which builds the 64x64 generators, then the same
# call again.
_SETUP_CHILD = """
import json, time
t0 = time.perf_counter()
import spintrio.cli
t1 = time.perf_counter()
import spintrio as st
args = (st.initial_state("GHZ")[1], st.FieldSpec(kind="R"),
        st.CouplingConstants(), st.IntegratorConfig(tau_max=0.01))
st.integrate(*args)
t2 = time.perf_counter()
st.integrate(*args)
t3 = time.perf_counter()
print(json.dumps({"import": t1 - t0, "first": t2 - t1, "warm": t3 - t2}))
"""


class Tracer:
    """Spans kept in memory: name, start, end, parent and the id of the
    operation (trace) they belong to; plus counters per pass."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []
        self.trace = None
        self.pass_index = 0
        self.counts = {}

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self.stack[-1] if self.stack else None,
               "trace": self.trace, "pass": self.pass_index,
               "start": time.perf_counter() - self.t0}
        self.spans.append(rec)
        self.stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self.stack.pop()

    def count(self, name, value):
        per_pass = self.counts.setdefault(self.pass_index, {})
        per_pass[name] = per_pass.get(name, 0) + value


class SpeedProbe:
    """The host's speed, from a fixed computation in the mix of the
    workloads' work but in none of the package's code: per step a scalar
    drive, an RK4 step of a 64-dimensional linear system (the R-tensor
    propagation) and a commutator step of an 8x8 complex matrix (the
    density-matrix oracle)."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64)) / 10
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.a, self.g = a - a.T, g + g.conj().T
        self.x0, self.r0 = np.ones(64), np.eye(8, dtype=complex) / 8

    def _run(self):
        a, g, x, r, h = self.a, self.g, self.x0, self.r0, 1e-3
        for n in range(PROBE_STEPS):
            w = math.cos(n * h)
            k1 = w * (a @ x)
            k2 = w * (a @ (x + 0.5 * h * k1))
            k3 = w * (a @ (x + 0.5 * h * k2))
            k4 = w * (a @ (x + h * k3))
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            r = r - 1j * h * (g @ r - r @ g)

    def run_for(self, seconds):
        """Runs the computation over and over for `seconds`, at least once;
        returns its mean time per run."""
        start, n = time.perf_counter(), 0
        while True:
            self._run()
            n += 1
            took = time.perf_counter() - start
            if took >= seconds:
                return took / n


def _blas_env():
    env = dict(os.environ)
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(probe):
    """Set-up in fresh interpreters: (setup_s, import_s, first_call_s),
    each the median over SETUP_REPEATS of its ratio to the probe."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD],
                              cwd=ROOT, env=_blas_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        r["probe"] = probe.run_for(r["import"] + r["first"])
        runs.append(r)

    def scaled(part):
        return PROBE_REF_S * statistics.median(part(r) / r["probe"]
                                               for r in runs)
    return (scaled(lambda r: r["import"] + r["first"]),
            scaled(lambda r: r["import"]),
            scaled(lambda r: r["first"] - r["warm"]))


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        name = text[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(args, workloads):
    import numpy
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba": util.find_spec("numba") is not None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "dt": workloads.ref.DT,
        "settings": workloads.SETTINGS[args.workload],
        "client": "closed loop, 1 client, 1 process",
    }


def run_passes(ops, seconds, probe, tracer=None):
    """Run passes over `ops` until `seconds` are spent (at least one).

    Returns per-pass wall times, the times of each op's correct calls and
    the probe's mean time right after each, attempted and failed counts, the
    largest implied R-tensor error and failure notes."""
    start = time.perf_counter()
    walls, notes = [], []
    calls = [[] for _ in ops]
    probes = [[] for _ in ops]
    attempted = failed = 0
    worst = 0.0
    while True:
        pass_start = time.perf_counter()
        wall = 0.0
        for k, op in enumerate(ops):
            for path in op.outputs:
                Path(path).unlink(missing_ok=True)
            attempted += 1
            try:
                if tracer is None:
                    t = time.perf_counter()
                    result = op.run()
                    took = time.perf_counter() - t
                    probe_s = probe.run_for(took)
                else:
                    tracer.trace = f"{tracer.pass_index}.{k}"
                    with tracer.span("op"):
                        with tracer.span("call") as rec:
                            result = op.run()
                        took = rec["end"] - rec["start"]
                        probe_s = probe.run_for(took)
                        with tracer.span("replay"):
                            op.replay(tracer)
                worst = max(worst, op.check(result))
            except Exception:  # any failure of the program is a failed call
                failed += 1
                notes.append(f"{op.label}: {traceback.format_exc(limit=3)}")
                continue
            wall += took
            calls[k].append(took)
            probes[k].append(probe_s)
            if tracer is not None:
                for name, value in op.counts.items():
                    tracer.count(name, value)
        if tracer is not None:
            time_rhs_three(tracer)
            tracer.pass_index += 1
        walls.append(wall)
        last_pass = time.perf_counter() - pass_start
        if time.perf_counter() - start + last_pass > seconds:
            break
    return walls, calls, probes, attempted, failed, worst, notes


def time_rhs_three(tracer):
    """RHS_THREE_CALLS public rhs_three calls in one span."""
    import numpy as np
    import spintrio as st
    _, r = st.initial_state("W")
    h = np.array([-0.3, 0.0, -1.0])
    coupling = st.CouplingConstants()
    with tracer.span("kernels.rhs_three"):
        for _ in range(RHS_THREE_CALLS):
            st.rhs_three(r, h, 2 * h, 4 * h, coupling)


def layer_metrics(tracer, setup, failed_frac, scale):
    """Per-layer metrics: medians over passes of each pass's totals, times
    multiplied by `scale`; `setup` is scaled already."""
    med = statistics.median
    by_id = {s["id"]: s for s in tracer.spans}
    passes = sorted({s["pass"] for s in tracer.spans})
    totals = {p: {} for p in passes}
    layer_sum = {p: 0.0 for p in passes}
    call_sum = {p: 0.0 for p in passes}
    for s in tracer.spans:
        dur = s["end"] - s["start"]
        tot = totals[s["pass"]]
        tot[s["name"]] = tot.get(s["name"], 0.0) + dur
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "replay":
            layer_sum[s["pass"]] += dur
        if s["name"] == "call":
            call_sum[s["pass"]] += dur

    def span_s(name):
        return med(totals[p].get(name, 0.0) for p in passes) * scale

    def count(name):
        return med(tracer.counts.get(p, {}).get(name, 0) for p in passes)

    def per(num, den, unit):
        return num / den * unit if den else 0.0

    channels = ("m_sm", "c3", "m_b", "m_k", "m_l", "p_flip", "b")
    measures_s = med(sum(v for k, v in totals[p].items()
                         if k.startswith("measures.")) for p in passes) * scale
    integrate_s = span_s("dynamics.integrate")
    oracle_s = span_s("dynamics.oracle")
    m = {
        "cli.import_s": setup[1],
        "kernels.first_call_s": setup[2],
        "dynamics.integrate_s": integrate_s,
        "dynamics.steps": count("steps"),
        "kernels.rk4_step_us": per(integrate_s, count("steps"), 1e6),
        "dynamics.oracle_s": oracle_s,
        "dynamics.oracle_substeps": count("oracle_substeps"),
        "dynamics.oracle_ns_per_substep":
            per(oracle_s, count("oracle_substeps"), 1e9),
        "dynamics.integrate_custom_s": span_s("dynamics.integrate_custom"),
        "dynamics.integrate_two_s": span_s("dynamics.integrate_two"),
        "dynamics.propagate_direct_s": span_s("dynamics.propagate_direct"),
        "kernels.rhs_three_us": span_s("kernels.rhs_three")
            / RHS_THREE_CALLS * 1e6,
        **{f"measures.{c}_s": span_s(f"measures.{c}") for c in channels},
        "measures.samples": count("samples"),
        "measures.us_per_sample": per(measures_s, count("samples"), 1e6),
        "harness.parse_config_s": span_s("harness.parse_config"),
        "harness.write_csv_s": span_s("harness.write_csv"),
        "harness.csv_bytes": count("csv_bytes"),
        "harness.run_scenario_s": span_s("harness.run_scenario"),
        "pauli.initial_state_s": span_s("pauli.initial_state"),
        "harness.unaccounted_frac":
            med(1 - per(layer_sum[p], call_sum[p], 1) for p in passes),
        "failed_frac": failed_frac,
    }
    return {k: {"value": m[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not (SRC / "spintrio" / "__init__.py").is_file():
        print(f"spintrio sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: BLAS_THREADS for v in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    args = parse_args(argv, workloads.WORKLOADS)

    probe = SpeedProbe()
    setup = measure_setup(probe)
    record = machine_record(args, workloads)
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)

    import spintrio as st
    # warm the lazily built generators so that passes time steady state
    st.integrate(st.initial_state("GHZ")[1], st.FieldSpec(),
                 st.CouplingConstants(), st.IntegratorConfig(tau_max=0.01))
    ops = workloads.make_ops(args.workload, args.seed, out_dir)

    tracer = Tracer() if args.trace else None
    walls, calls, probes, attempted, failed, worst, notes = run_passes(
        ops, args.seconds, probe, tracer)
    # each call's time over the probe's mean time right after it
    ratios = [[t / m for t, m in zip(c, p)] for c, p in zip(calls, probes)]
    if not args.trace:
        # R tensors of the trajectories the cli calls do not return
        for op in ops:
            if op.accuracy is None:
                continue
            attempted += 1
            try:
                worst = max(worst, op.accuracy())
            except Exception:  # a failed accuracy check is a failed call
                failed += 1
                notes.append(f"{op.label} accuracy: "
                             f"{traceback.format_exc(limit=3)}")

    failed_frac = failed / attempted
    med = statistics.median
    means = [m for p in probes for m in p]
    scale = PROBE_REF_S / med(means) if means else 1.0
    record.update({"probe": {"steps": PROBE_STEPS, "ref_s": PROBE_REF_S,
                             "scale": scale},
                   "pass_walls": walls,
                   "calls": {op.label: {"n": len(c), "min": min(c),
                                        "median": med(c),
                                        "probe_median": med(p)}
                             for op, c, p in zip(ops, calls, probes) if c},
                   "attempted": attempted,
                   "failed": failed, "failed_frac": failed_frac,
                   "max_err": worst, "failures": notes[:20]})
    if args.trace:
        metrics = layer_metrics(tracer, setup, failed_frac, scale)
    else:
        metrics = {
            "setup_s": setup[0],
            "wall_s": PROBE_REF_S * sum(med(r) for r in ratios if r),
            "trajectory_p50_s": PROBE_REF_S * med(
                x / op.trajectories for op, r in zip(ops, ratios) for x in r)
            if means else 0.0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "max_err": worst,
        }
        metrics = {k: {"value": metrics[k], "unit": END_TO_END[k]}
                   for k in END_TO_END}
    record["metrics"] = metrics
    dump = dict(record, spans=tracer.spans if tracer else [])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dump))
    print(json.dumps({"record": {k: v for k, v in record.items()
                                 if k != "metrics"}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
