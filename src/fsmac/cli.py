"""Command-line experiment runner: one subcommand per experiment kind plus
`validate`. Failures exit nonzero with a machine-readable JSON error record
on stderr."""

from __future__ import annotations

import argparse
import json
import sys

from .config import KINDS, ConfigError, load_config
from .experiments import run_experiment


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file (YAML)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--no-plots", action="store_true", help="skip SVG rendering")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsmac",
        description="Capacity-region computations and coding simulations for "
        "state-driven multiple-access channels with cooperating encoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        _add_common(p)
    v = sub.add_parser("validate", help="parse a config and echo the resolved experiment")
    _add_common(v)
    return parser


def _error_record(exc: BaseException) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    except (ConfigError, OSError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - reported as a record
        print(_error_record(exc), file=sys.stderr)
        return 1
    if args.command == "validate":
        print(cfg.echo())
        print("ok")
        return 0
    if cfg.kind != args.command:
        exc = ConfigError(f"config kind '{cfg.kind}' does not match subcommand '{args.command}'")
        print(_error_record(exc), file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg, plots=not args.no_plots)
    except Exception as exc:  # noqa: BLE001 - reported as a record
        print(_error_record(exc), file=sys.stderr)
        return 1
    for path in report.artifacts:
        print(path)
    for key, value in report.notes.items():
        print(f"# {key} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
