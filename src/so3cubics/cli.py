"""Command-line entry point.

Each subcommand names one experiment kind, run by
`harness.run_experiment` through `harness.RUNNERS`; flags override config
fields.  Exit codes: 0 on success, 2 on configuration errors and on
failures to write the output, 3 on numerical degeneracy.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .errors import ConfigError, DegeneracyError
from .harness import RUNNERS, default_config, load_config

_SUBCOMMANDS = {
    "figure1": ("figure1", "short-interval quadratic vs approximants"),
    "figure2": ("figure2", "long-interval quadratic vs approximants with error budget"),
    "figure3": ("figure3", "rotation curve vs its closed-form approximation"),
    "converge": ("converge", "convergence-order study over a list of deltas"),
    "quadratic": ("quadratic-compare", "integrate a quadratic and compare approximants"),
    "cubic": ("cubic-compare", "integrate, reconstruct and compare a rotation curve"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, and every parse starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="so3cubics",
        description="Riemannian cubics in SO(3): integration, closed-form "
                    "approximants, and quadrature reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--step", type=float, help="integration step")
        p.add_argument("--delta", type=float, action="append",
                       help="perturbation size (repeat for converge)")
        p.add_argument("--stride", type=float, help="output sample stride")
        p.add_argument("--formats", help="comma-separated subset of csv,json,svg")
        p.add_argument("--budget", type=float, help="error budget (figure2)")
    return parser


def config_from_args(args) -> "ExperimentConfig":
    kind = _SUBCOMMANDS[args.command][0]
    if args.config:
        config = load_config(args.config, kind=kind)
        if config.kind != kind:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand {args.command!r}")
    else:
        config = default_config(kind)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.step is not None:
        overrides["step"] = args.step
    if args.delta is not None:
        overrides["deltas"] = tuple(args.delta)
    if args.stride is not None:
        overrides["stride"] = args.stride
    if args.formats is not None:
        overrides["formats"] = tuple(f.strip() for f in args.formats.split(",") if f.strip())
    if args.budget is not None:
        overrides["budget"] = args.budget
    return replace(config, **overrides).validate()


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
