"""Command-line front end.

Subcommands:
    verify      run every applicable relation check over the configured
                cross-product and write a report; exit 0 only if no check fails
    sweep       tabulate margins against one parameter for external plotting
    show-state  dump the three densities and entropies of one catalog state

Exit codes: 0 all pass, 1 at least one inequality failed, 2 usage or config
error, an unwritable report path (checked before any cell runs) or a cell the
numerics cannot resolve, such as a sigma whose smear lattice would exceed its
node budget; the message of such a cell ends with its state, beta and sigma
(when the error arose under one).
Verdicts always use each check's own tolerance; a config has no override
for it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, GupcertError
from .suite import (RunConfig, check_writable, load_config, run_sweep,
                    run_verify, show_state, write_report, write_text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--beta", type=float, nargs="+",
                        help="override beta grid")
    parser.add_argument("--sigma", type=float, nargs="+",
                        help="override sigma grid")
    parser.add_argument("--alpha", type=float, nargs="+",
                        help="override alpha grid")
    parser.add_argument("--out", help="report path")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="report format")


def _config_from_args(args) -> RunConfig:
    overrides = {
        "beta_grid": args.beta,
        "sigma_grid": args.sigma,
        "alpha_grid": args.alpha,
        "output_path": args.out,
        "format": args.format,
    }
    return load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gupcert",
        description="Certify entropic uncertainty relations under a minimal "
                    "observable length.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the certification suite")
    _add_common(p_verify)

    p_sweep = sub.add_parser("sweep", help="sweep margins over one parameter")
    p_sweep.add_argument("--param", required=True,
                         choices=("beta", "sigma", "alpha"))
    _add_common(p_sweep)

    p_show = sub.add_parser("show-state", help="dump one catalog state")
    p_show.add_argument("--name", required=True)
    p_show.add_argument("--beta", type=float, required=True)
    p_show.add_argument("--shape-args", type=float, nargs="*", default=[])
    p_show.add_argument("--seed", type=int)
    p_show.add_argument("--out", help="report path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "show-state":
            if args.out:
                check_writable(args.out)
            payload = show_state(args.name, args.beta,
                                 shape_args=tuple(args.shape_args),
                                 seed=args.seed)
            text = json.dumps(payload, indent=1, sort_keys=True,
                              allow_nan=False) + "\n"
            if args.out:
                write_text(args.out, text)
            else:
                sys.stdout.write(text)
            return 0
        config = _config_from_args(args)
        check_writable(config.output_path)
        if args.command == "verify":
            records, status = run_verify(config)
            n_fail = sum(r["verdict"] == "fail" for r in records)
            summary = f"{len(records)} checks, {n_fail} failed"
        else:
            records, status = run_sweep(config, args.param), 0
            summary = f"{len(records)} sweep rows"
        write_report(records, config)
        print(f"{summary} -> {config.output_path}")
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GupcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
