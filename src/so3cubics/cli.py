"""Command-line entry point.

Each subcommand runs one kind of `harness.KINDS` through `harness.RUNNERS`.
Its flags, each under the JSON key it sets, override the `--config` file's
entries key by key (`harness.config_from_dict`).  Exit codes: 0 on
success, 2 on configuration errors, on failures to write the output and on
closed forms asked for outside their domain, 3 on numerical degeneracy.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, DegeneracyError, OutOfDomain
from .harness import KINDS, RUNNERS, config_from_dict, read_config


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, and every parse starts from a fresh namespace.  A flag that is not
    given leaves no attribute."""
    parser = argparse.ArgumentParser(
        prog="so3cubics",
        description="Riemannian cubics in SO(3): integration, closed-form "
                    "approximants, and quadrature reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in KINDS.items():
        p = sub.add_parser(kind.command, help=kind.help, argument_default=argparse.SUPPRESS)
        p.set_defaults(kind=name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
        p.add_argument("--step", type=float, help="integration step")
        p.add_argument("--delta", dest="deltas", metavar="DELTA", type=float, action="append",
                       help="perturbation size (repeat for converge)")
        p.add_argument("--stride", type=float, help="output sample stride")
        p.add_argument("--formats", type=lambda s: [f.strip() for f in s.split(",") if f.strip()],
                       help="comma-separated subset of csv,json,svg")
        p.add_argument("--budget", type=float, help="error budget (figure2)")
    return parser


def config_from_args(args) -> "ExperimentConfig":
    flags = dict(vars(args))
    command, kind, path = flags.pop("command"), flags.pop("kind"), flags.pop("config")
    config = config_from_dict(*([read_config(path)] if path else []), flags, kind=kind)
    if config.kind != kind:
        raise ConfigError(f"config kind {config.kind!r} does not match subcommand {command!r}")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        result = RUNNERS[config.kind](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    except OutOfDomain as exc:
        print(f"out of domain: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for path in result.files:
        print(f"wrote {path}")
    maxima = result.report.get("maxima", {})
    for name, values in sorted(maxima.items()):
        formatted = ", ".join(f"{v:.4g}" for v in values)
        print(f"max |error| {name}: {formatted}")
    for name, ratios in sorted(result.report.get("ratios", {}).items()):
        flags = result.report.get("passed", {}).get(name)
        status = "" if flags is None else (" PASS" if all(flags) else " FAIL")
        print(f"ratios {name}: {', '.join(f'{r:.3g}' for r in ratios)}{status}")
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
