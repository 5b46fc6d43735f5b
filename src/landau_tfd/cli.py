"""Command-line front end for sweeps and verification runs.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 Lloyd-bound violation.
"""

from __future__ import annotations

import argparse
import math
import sys

from .complexity import PhysicalParams
from .sweep import (
    MODES,
    SweepConfig,
    SweepRange,
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
    parser.add_argument("--omega", type=float, default=0.1, help="cyclotron frequency")
    parser.add_argument("--omega-ref", type=float, default=1.0, help="reference frequency")
    parser.add_argument(
        "--beta",
        type=float,
        action="append",
        help="inverse temperature; repeatable for multi-curve time series; accepts 'inf'",
    )
    parser.add_argument("--hbar", type=float, default=1.0)
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--range", type=_parse_range, dest="range_", metavar="START:STOP:COUNT[:log]")
    parser.add_argument("--samples", type=int, default=256, help="time samples per period")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--fock-dim", type=int, default=60, help="Fock-space truncation for verify")
    return parser


def _config_from_args(args) -> SweepConfig:
    betas = tuple(args.beta) if args.beta else (math.inf, 1.0, 0.0)
    # a time series draws one curve per beta, 0 included; every other mode runs at the first one
    scalar_beta = next((b for b in betas if b > 0.0), 1.0) if args.mode == "time-series" else betas[0]
    params = PhysicalParams(hbar=args.hbar, mass=args.mass, omega=args.omega, omega_ref=args.omega_ref, beta=scalar_beta)
    return SweepConfig(
        mode=args.mode,
        params=params,
        betas=betas,
        range_=SweepRange(*args.range_) if args.range_ else None,
        samples_per_period=args.samples,
        fock_dim=args.fock_dim,
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


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

    # verify writes its report as JSON whatever --format says
    text = result.to_csv() if args.format == "csv" and config.mode != "verify" else result.to_json() + "\n"
    try:
        _emit(text, args.out)
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
