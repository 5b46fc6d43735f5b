"""Seeded workloads: each turns a seed into the argv lists the CLI receives.

The program sees only the generated argv; omega_ref stays at its default
of 1 and hbar at 1, so beta*hbar*omega is beta*omega throughout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a mode, its parameters and whether it is timed.

    ``spec`` holds what both the argv and the output validator are built
    from.  An untimed op is a probe of a domain with a known defect: it
    runs once per pass and counts towards ``ok_ratio`` only.
    """

    label: str
    spec: dict
    timed: bool = True

    @property
    def argv(self) -> list:
        s = self.spec
        argv = ["--mode", s["mode"]]
        if "omega" in s:
            argv += ["--omega", repr(s["omega"])]
        for beta in s.get("betas", ()):
            argv += ["--beta", "inf" if math.isinf(beta) else repr(beta)]
        if "range" in s:
            start, stop, count = s["range"]
            argv += ["--range", f"{start!r}:{stop!r}:{count}:log"]
        if "samples" in s:
            argv += ["--samples", str(s["samples"])]
        if "fock_dim" in s:
            argv += ["--fock-dim", str(s["fock_dim"])]
        return argv + ["--format", s["format"]]

    @property
    def rows(self) -> int:
        """Rows the table should hold; 0 for a verify report."""
        s = self.spec
        if s["mode"] == "time-series":
            return 2 * s["samples"]
        return s["range"][2] if "range" in s else 0


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def series(rng: random.Random, smoke: bool) -> list:
    # The kernel loops over t at fixed parameters and CSV serialisation
    # handles many rows; together they do almost all the work.
    omega = log_uniform(rng, 0.05, 5.0)
    b1, b2 = (log_uniform(rng, 1e-4, 1e2) / omega for _ in range(2))
    spec = {
        "mode": "time-series",
        "omega": omega,
        "betas": (math.inf, b1, b2, 0.0),
        "samples": 40 if smoke else 25000,
        "format": "csv",
    }
    return [Op("time-series", spec)]


def grid(rng: random.Random, smoke: bool) -> list:
    # One t per parameter point: per-point parameter objects, the Lloyd
    # grid and golden-section search, JSON output and three process
    # start-ups per pass.  The probe reaches beta*hbar*omega down to
    # 1e-300, where the closed forms are known to break.
    omega = log_uniform(rng, 0.05, 5.0)
    beta = log_uniform(rng, 0.1, 10.0)
    n_sweep, n_lloyd = (64, 8) if smoke else (16384, 128)
    return [
        Op("beta-sweep", {"mode": "beta-sweep", "omega": omega, "range": (1e-12 / omega, 1e3 / omega, n_sweep), "format": "json"}),
        Op("omega-sweep", {"mode": "omega-sweep", "betas": (beta,), "range": (1e-2, 1e2, n_sweep), "format": "json"}),
        Op("lloyd", {"mode": "lloyd", "omega": omega, "range": (1e-2 / omega, 1e2 / omega, n_lloyd), "format": "csv"}),
        Op("probe", {"mode": "beta-sweep", "omega": omega, "range": (1e-300 / omega, 1e-12 / omega, 256), "format": "json"}, timed=False),
    ]


def verify(rng: random.Random, smoke: bool) -> list:
    # The oracles do the work; the Fock contractions grow as N^3.
    omega = log_uniform(rng, 0.05, 2.0)
    return [
        Op(f"verify-{dim}", {"mode": "verify", "omega": omega, "fock_dim": dim, "format": "json"})
        for dim in (60, 128)
    ]


def tables(rng: random.Random, smoke: bool) -> list:
    # Every figure table: the series and grid invocations in one round.
    # They share one workload because the host this benchmark was tuned
    # on drifts too much for a run of either alone to give a steady
    # median; see README.md.
    return series(rng, smoke) + grid(rng, smoke)


WORKLOADS = {"tables": tables, "verify": verify}


def build(workload: str, seed: int, smoke: bool = False) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), smoke)
