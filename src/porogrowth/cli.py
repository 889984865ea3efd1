"""Command line interface: simulate, sweep, verify.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
The POROGROWTH_OUT environment variable overrides the default output
directory.
"""

import argparse
import dataclasses
import os
import sys

from . import config as config_mod
from . import coupling, outputs, verify
from .errors import ConfigError, PorogrowthError

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _default_out():
    return os.environ.get("POROGROWTH_OUT", "porogrowth-out")


def _load_config(args):
    if getattr(args, "preset", None):
        cfg = config_mod.preset(args.preset)
    elif getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        cfg = config_mod.parse_config(text)
    else:
        cfg = config_mod.RunConfig()
    return _apply_overrides(cfg, args)


def _apply_overrides(cfg, args):
    scenario_kwargs = {}
    if getattr(args, "nodes", None) is not None:
        scenario_kwargs["node_count"] = args.nodes
    if getattr(args, "dt", None) is not None:
        scenario_kwargs["dt"] = args.dt
    if getattr(args, "t_end", None) is not None:
        scenario_kwargs["t_end"] = args.t_end
    if not scenario_kwargs:
        return cfg
    scenario = dataclasses.replace(cfg.scenario, **scenario_kwargs)
    return dataclasses.replace(cfg, scenario=scenario)


def _run_one(cfg, out_dir):
    # an output directory that cannot be made fails before the run
    outputs.make_output_dir(out_dir)
    trajectory = coupling.run(cfg.scenario, cfg.params)
    written = outputs.emit_outputs(trajectory, cfg, out_dir)
    for path in written:
        print(path)


def cmd_simulate(args):
    cfg = _load_config(args)
    _run_one(cfg, args.out)
    return EXIT_OK


def cmd_sweep(args):
    names = config_mod.PRESET_NAMES if args.all_presets else args.presets
    if not names:
        raise ConfigError("sweep needs --all-presets or preset names")
    for name in names:
        cfg = _apply_overrides(config_mod.preset(name), args)
        _run_one(cfg, os.path.join(args.out, name))
    return EXIT_OK


def cmd_verify(args):
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    all_passed = True
    for name in names:
        result = verify.run_suite(name)
        all_passed = all_passed and result.passed
        print(f"{result.name}: {'pass' if result.passed else 'FAIL'}")
        for line in result.lines:
            print(line)
    return EXIT_OK if all_passed else EXIT_NUMERICAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="porogrowth",
        description="1D poroelastic mixture simulator of scaffold tissue growth")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario, emit CSV files")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--preset", help="named preset, e.g. static-ic1-kg1-csat")
    group.add_argument("--config", help="path to a key = value config file")
    sim.add_argument("--out", default=_default_out(), help="output directory")
    sim.add_argument("--nodes", type=int, help="override node count")
    sim.add_argument("--dt", type=float, help="override time step (s)")
    sim.add_argument("--t-end", dest="t_end", type=float,
                     help="override final time (s)")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run preset families into one tree")
    sweep.add_argument("--all-presets", action="store_true",
                       help="run all 16 presets")
    sweep.add_argument("presets", nargs="*", help="explicit preset names")
    sweep.add_argument("--out", default=_default_out(), help="output directory")
    sweep.add_argument("--nodes", type=int, help="override node count")
    sweep.add_argument("--dt", type=float, help="override time step (s)")
    sweep.add_argument("--t-end", dest="t_end", type=float,
                       help="override final time (s)")
    sweep.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run self-check oracle suites")
    ver.add_argument("suite", choices=verify.SUITE_NAMES + ("all",),
                     help="which suite to run")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PorogrowthError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
