"""Command-line front end for sweeps and verification runs.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 Lloyd-bound violation.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .complexity import PhysicalParams
from .sweep import (
    MODES,
    SweepConfig,
    SweepRange,
    _sink,
    run_beta_sweep,
    run_lloyd,
    run_omega_sweep,
    run_time_series,
    run_verify,
)

USAGE_ERROR, VERIFY_FAILURE, LLOYD_VIOLATION = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_range(text: str) -> tuple:
    """(start, stop, count, log); SweepRange checks the values."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise argparse.ArgumentTypeError("range must be start:stop:count[:log]")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2]), len(parts) == 4
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="landau-tfd",
        description="TFD complexity sweeps for a charged particle in a magnetic field",
    )
    parser.add_argument("--mode", required=True, choices=MODES)
    # every default is the field default of PhysicalParams or SweepConfig
    parser.add_argument("--omega", type=float, default=PhysicalParams.omega, help="cyclotron frequency")
    parser.add_argument("--omega-ref", type=float, default=PhysicalParams.omega_ref, help="reference frequency")
    parser.add_argument(
        "--beta",
        type=float,
        action="append",
        help="inverse temperature; repeatable for multi-curve time series; accepts 'inf'",
    )
    parser.add_argument("--hbar", type=float, default=PhysicalParams.hbar)
    parser.add_argument("--mass", type=float, default=PhysicalParams.mass)
    parser.add_argument("--range", type=_parse_range, dest="range_", metavar="START:STOP:COUNT[:log]")
    parser.add_argument("--samples", type=int, default=SweepConfig.samples_per_period, help="time samples per period")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--fock-dim", type=int, default=SweepConfig.fock_dim, help="Fock-space truncation for verify")
    return parser


def _config_from_args(args) -> SweepConfig:
    betas = tuple(args.beta) if args.beta else SweepConfig.betas
    # a time series draws one curve per beta, 0 included; every other mode runs at the first one
    scalar_beta = next((b for b in betas if b > 0.0), PhysicalParams.beta) if args.mode == "time-series" else betas[0]
    params = PhysicalParams(hbar=args.hbar, mass=args.mass, omega=args.omega, omega_ref=args.omega_ref, beta=scalar_beta)
    return SweepConfig(
        mode=args.mode,
        params=params,
        betas=betas,
        range_=SweepRange(*args.range_) if args.range_ else None,
        samples_per_period=args.samples,
        fock_dim=args.fock_dim,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        runner = {
            "time-series": run_time_series,
            "beta-sweep": run_beta_sweep,
            "omega-sweep": run_omega_sweep,
            "lloyd": run_lloyd,
            "verify": run_verify,
        }[config.mode]
        # a row count beyond the address space fails here, in numpy's allocation
        result = runner(config)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "wb") as stream:
            write = _sink(stream)
            if config.mode == "verify":
                # the report is small; it is JSON whatever --format says
                write((result.to_json() + "\n").encode())
            elif args.format == "csv":
                result.to_csv(stream)
            else:
                result.to_json(stream)
                write(b"\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if config.mode == "verify":
        return 0 if result.passed else VERIFY_FAILURE

    if config.mode == "lloyd":
        violated = ~result.column("satisfied")
        if violated.any():
            print("Lloyd bound violated at:", file=sys.stderr)
            for beta, rate, bound in zip(*(result.column(n)[violated] for n in ("beta", "max_rate", "bound"))):
                print(f"  beta={beta:.6g} max_rate={rate:.6g} bound={bound:.6g}", file=sys.stderr)
            return LLOYD_VIOLATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
