"""Command-line front end.

Exit codes: 0 success, 2 config/parse error or invalid state, 3 accuracy
failure, 4 I/O error.
"""

import argparse
import functools
import sys
from pathlib import Path

from .errors import AccuracyError, ConfigError, ValidationError
from .harness import (csv_path, list_presets, parse_config, run_preset,
                      run_scenario, with_overrides)

EXIT_PARSE = 2
EXIT_ACCURACY = 3
EXIT_IO = 4


@functools.cache   # the parser is a constant; parse_args keeps no state
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spintrio",
        description="Three coupled qubits in time-dependent magnetic fields: "
                    "trajectory integration and entanglement measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset or a config file")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="preset name (see list-presets)")
    src.add_argument("--config", help="path to a key-value config file")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--oracle", choices=["on", "off"],
                     help="override the density-matrix oracle cross-check")
    run.add_argument("--dt", type=float,
                     help="override dt: samples every dt * sample_every")
    run.add_argument("--tau-max", type=float, help="override trajectory length")

    sub.add_parser("list-presets", help="list available presets")

    val = sub.add_parser("validate", help="validate a config file")
    val.add_argument("--config", required=True)
    return parser


def _cmd_run(args):
    oracle = None if args.oracle is None else args.oracle == "on"
    if args.preset:
        paths = run_preset(args.preset, args.out, oracle=oracle,
                           dt=args.dt, tau_max=args.tau_max)
        for p in paths:
            print(p)
        return 0
    text = Path(args.config).read_text(encoding="utf-8")
    cfg = with_overrides(parse_config(text), oracle, args.dt, args.tau_max)
    run_scenario(cfg, out_dir=args.out)
    print(csv_path(args.out, cfg.name))
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        if args.command == "list-presets":
            for name, desc in list_presets().items():
                print(f"{name:12s} {desc}")
            return 0
        if args.command == "validate":
            parse_config(Path(args.config).read_text(encoding="utf-8"))
            print("ok")
            return 0
        return _cmd_run(args)
    except (ConfigError, ValidationError, UnicodeDecodeError) as exc:
        # a config file that is not UTF-8 is a config error, not an I/O one
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
