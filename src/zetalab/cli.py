"""Command-line entry point: lab <experiment> [--config ...] [options]."""

from __future__ import annotations

import argparse
import sys

from .errors import UsageError, ZetalabError
from .experiments import REGISTRY, ExperimentConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Run a named experiment suite and report PASS/FAIL per criterion.",
    )
    parser.add_argument("experiment", nargs="?", help="experiment suite name")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--sieve-limit", type=int, default=None)
    parser.add_argument("--list", action="store_true", help="list experiment suites")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in sorted(REGISTRY):
            print(name)
        return 0
    if not args.experiment:
        print("error: an experiment name (or --list) is required", file=sys.stderr)
        return 2
    try:
        if args.config:
            config = ExperimentConfig.from_json(args.config)
            config.experiment = args.experiment or config.experiment
        else:
            config = ExperimentConfig(experiment=args.experiment)
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.out_dir = args.out
        if args.sieve_limit is not None:
            config.sieve_limit = args.sieve_limit
        record = run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZetalabError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    for name in sorted(record.metrics):
        print(f"{name} = {record.metrics[name]:.6g}")
    for crit in sorted(record.passes):
        print(f"{crit}: {'PASS' if record.passes[crit] else 'FAIL'}")
    return 0 if record.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
