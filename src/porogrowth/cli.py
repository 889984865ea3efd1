"""Command line interface: simulate, sweep, verify.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
The POROGROWTH_OUT environment variable, when set and not empty,
overrides the default output directory.
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


def _load_config(args):
    if args.preset:
        cfg = config_mod.preset(args.preset)
    elif args.config:
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        cfg = config_mod.parse_config(text)
    else:
        cfg = config_mod.RunConfig()
    return _apply_overrides(cfg, args)


def _apply_overrides(cfg, args):
    scenario_kwargs = {name: value for name in ("node_count", "dt", "t_end")
                       if (value := getattr(args, name)) is not None}
    if not scenario_kwargs:
        return cfg
    scenario = dataclasses.replace(cfg.scenario, **scenario_kwargs)
    return dataclasses.replace(cfg, scenario=scenario)


def _run_one(cfg, out_dir):
    # an output directory that cannot be made fails before the run
    outputs.make_output_dir(out_dir)
    try:
        trajectory = coupling.run(cfg.scenario, cfg.params)
    except PorogrowthError as exc:   # keep the steps recorded before it
        if (partial := getattr(exc, "partial_trajectory", None)) is not None:
            outputs.emit_outputs(partial, cfg, out_dir)
            print(f"wrote the initial level and {len(partial.series_times) - 1} "
                  f"accepted steps to {out_dir}", file=sys.stderr)
        raise
    written = outputs.emit_outputs(trajectory, cfg, out_dir)
    for path in written:
        print(path)


def cmd_simulate(args):
    cfg = _load_config(args)
    _run_one(cfg, args.out)
    return EXIT_OK


def cmd_sweep(args):
    if args.all_presets == bool(args.presets):
        raise ConfigError("sweep needs either --all-presets or preset names")
    names = config_mod.PRESET_NAMES if args.all_presets else args.presets
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

    # run options shared by simulate and sweep; dests are ScenarioConfig fields
    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--out", help="output directory",
                          default=os.environ.get("POROGROWTH_OUT") or "porogrowth-out")
    run_opts.add_argument("--nodes", dest="node_count", metavar="NODES", type=int,
                          help="override node count")
    run_opts.add_argument("--dt", type=float, help="override time step (s)")
    run_opts.add_argument("--t-end", dest="t_end", type=float,
                          help="override final time (s)")

    sim = sub.add_parser("simulate", parents=[run_opts],
                         help="run one scenario, emit CSV files")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--preset", help="named preset, e.g. static-ic1-kg1-csat")
    group.add_argument("--config", help="path to a key = value config file")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", parents=[run_opts],
                           help="run preset families into one tree")
    sweep.add_argument("--all-presets", action="store_true",
                       help="run all 16 presets")
    sweep.add_argument("presets", nargs="*", help="explicit preset names")
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
