"""Parameter sweeps, verification runs, and table emission.

Every figure-style dataset is produced here as a column-labeled table
with the fully resolved configuration echoed in the metadata, so any
output can be reproduced from its own header.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fock
from . import landau
from .complexity import (
    PhysicalParams,
    _require,
    complexity,
    complexity_rate,
    covariance_g,
    high_T_rate_limit,
    lloyd_check,
    oscillation_amplitude,
)

__all__ = [
    "SweepRange",
    "SweepConfig",
    "SweepTable",
    "run_time_series",
    "run_beta_sweep",
    "run_omega_sweep",
    "run_lloyd",
    "run_verify",
    "finite_difference_rate",
]

MODES = ("time-series", "beta-sweep", "omega-sweep", "lloyd", "verify")
# the swept field of each grid mode and the size of its default grid
_GRIDS = {"beta-sweep": ("beta", 64), "omega-sweep": ("omega", 64), "lloyd": ("beta", 25)}
# rows serialised per pass: the table is never held whole as Python floats
_CHUNK = 4096


@dataclass(frozen=True)
class SweepRange:
    start: float
    stop: float
    count: int
    log: bool = False

    def __post_init__(self):
        _require(self.count >= 2, "count must be at least 2", self.count)
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"range endpoints must be finite, got {self.start}:{self.stop}")
        if not self.start < self.stop:
            raise ValueError(f"start must be less than stop, got {self.start} >= {self.stop}")
        if self.log and self.start <= 0:
            raise ValueError("log-spaced range requires start > 0")

    def grid(self) -> np.ndarray:
        if self.log:
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    mode: str
    params: PhysicalParams = PhysicalParams()
    betas: tuple = (math.inf, 1.0, 0.0)
    range_: SweepRange | None = None
    samples_per_period: int = 256
    fock_dim: int = 60

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _require(np.array(self.betas) >= 0.0, "every beta must be >= 0 (inf allowed)", self.betas)
        _require(self.samples_per_period >= 2, "samples per period must be at least 2", self.samples_per_period)
        _require(4 <= self.fock_dim <= fock.MAX_DIM, f"fock_dim must be in [4, {fock.MAX_DIM}]", self.fock_dim)
        # every curve and grid point passes PhysicalParams before any compute
        if self.mode == "time-series":
            self.params.with_(beta=np.array([b for b in self.betas if b > 0.0]))
        if self.mode in _GRIDS:
            _grid_params(self, *_GRIDS[self.mode])
        if self.mode == "verify":
            # the oracles scale their grids and matrices by these, and rerun at omega in {0.1, 0.5, 2}
            scales = np.array([self.params.hbar, self.params.mass, self.params.omega, self.params.omega_ref])
            _require((scales >= 1e-100) & (scales <= 1e100), "verify needs hbar, mass, omega and omega_ref in [1e-100, 1e100]", scales)

    def to_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "hbar": self.params.hbar,
            "mass": self.params.mass,
            "omega": self.params.omega,
            "omega_ref": self.params.omega_ref,
            "beta": self.params.beta if math.isfinite(self.params.beta) else "inf",
            "betas": [b if math.isfinite(b) else "inf" for b in self.betas],
            "samples_per_period": self.samples_per_period,
            "fock_dim": self.fock_dim,
        }
        if self.range_ is not None:
            d["range"] = asdict(self.range_)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        # float() reads the "inf" that to_dict writes for an infinite beta
        r = d.get("range")
        return cls(
            mode=d["mode"],
            params=PhysicalParams(**{k: float(d[k]) for k in ("hbar", "mass", "omega", "omega_ref", "beta")}),
            betas=tuple(float(b) for b in d["betas"]),
            range_=SweepRange(float(r["start"]), float(r["stop"]), int(r["count"]), bool(r["log"])) if r else None,
            samples_per_period=int(d["samples_per_period"]),
            fock_dim=int(d["fock_dim"]),
        )


@dataclass
class SweepTable:
    columns: list  # (name, unit) pairs, in output order
    values: list  # one 1-D array per column, in the same order
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return self.values[[c[0] for c in self.columns].index(name)]

    def _body(self, json_: bool) -> list:
        """The rows as text pieces, _CHUNK rows per piece: CSV lines, or the rows of json.dumps(indent=2)."""
        n = min(map(len, self.values), default=0)
        if n == 0:
            return []
        cols = [np.ascontiguousarray(v[:n]) for v in self.values]
        cell_sep, row_open, row_sep, row_close = (
            (",\n      ", "\n    [\n      ", "\n    ],\n    [\n      ", "\n    ]\n  ") if json_ else (",", "", "\n", "\n")
        )
        parts = [row_open]
        for i in range(0, n, _CHUNK):
            cells = [_cells(v[i : i + _CHUNK], json_) for v in cols]
            parts += [row_sep.join(map(cell_sep.join, zip(*cells))), row_sep]
        parts[-1] = row_close
        return parts

    def to_csv(self) -> str:
        head = [f"# {key}={_fmt_meta(value)}\n" for key, value in self.metadata.items()]
        head.append(",".join(f"{name} ({unit})" for name, unit in self.columns) + "\n")
        return "".join(head + self._body(json_=False))

    def to_json(self) -> str:
        # json renders the small columns and metadata blocks around an empty rows list; every line of the
        # columns block above it is indented deeper, so the first two-space match is the rows key
        doc = {"columns": [{"name": n, "unit": u} for n, u in self.columns], "rows": [], "metadata": self.metadata}
        head, _, tail = json.dumps(doc, indent=2).partition('\n  "rows": []')
        return "".join([head, '\n  "rows": [', *self._body(json_=True), "]", tail])


def _cells(v: np.ndarray, json_: bool) -> list:
    """Cell strings of one column chunk; a chunk of bitwise-identical values is formatted once.

    Bits, not ==, decide identity, so -0.0 and 0.0 keep their own text.
    """
    bits = v.view(np.uint8).reshape(len(v), -1)
    if len(v) > 1 and (bits == bits[0]).all():
        return _cells(v[:1], json_) * len(v)
    if v.dtype == bool:
        # bools print as 0/1 in CSV
        return list(map(("false", "true").__getitem__ if json_ else "%d".__mod__, v.tolist()))
    if not json_:
        return list(map("%.17g".__mod__, v.tolist()))
    cells = list(map(repr, v.tolist()))
    # JSON has no Infinity literal; keep output loadable everywhere
    for i in np.flatnonzero(~np.isfinite(v)):
        cells[i] = '"inf"' if np.isinf(v[i]) else "NaN"
    return cells


def _fmt_meta(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _beta_label(beta: float) -> str:
    return "inf" if math.isinf(beta) else format(beta, "g")


def _base_metadata(config: SweepConfig) -> dict:
    return {"config": json.dumps(config.to_dict(), sort_keys=True)}


def run_time_series(config: SweepConfig) -> SweepTable:
    """Complexity and rate over (at least) two periods for each beta.

    beta = inf is evaluated exactly at zero temperature; beta = 0 uses
    the closed-form infinite-temperature limits (the complexity column
    is the divergent limit, emitted as inf and flagged in metadata).
    """
    p = config.params
    if config.range_ is not None:
        ts = config.range_.grid()
    else:
        ts = np.linspace(0.0, 2.0 * p.period, 2 * config.samples_per_period)
    columns, values = [("t", "time")], [ts]
    for beta in config.betas:
        columns.append((f"complexity[beta={_beta_label(beta)}]", "dimensionless"))
        columns.append((f"rate[beta={_beta_label(beta)}]", "1/time"))
        if beta == 0.0:
            values += [np.full(len(ts), math.inf), high_T_rate_limit(ts, p.omega, p.omega_ref)]
        else:
            pb = p.with_(beta=beta)
            values += [complexity(ts, pb), complexity_rate(ts, pb)]
    meta = _base_metadata(config)
    if any(b == 0.0 for b in config.betas):
        meta["beta0_note"] = "complexity column is the divergent high-temperature limit (inf); rate from the closed-form limit"
    return SweepTable(columns=columns, values=values, metadata=meta)


def _grid_params(config: SweepConfig, name: str, count: int) -> tuple:
    """The grid of params.<name> (the range, or count log-spaced points in [1e-2, 1e2]) and params carrying it."""
    grid = (config.range_ or SweepRange(1e-2, 1e2, count, log=True)).grid()
    return grid, config.params.with_(**{name: grid})


def _half_period_sweep(config: SweepConfig, mode: str, unit: str) -> SweepTable:
    """Half-period complexity and amplitude over the grid of a beta- or omega-sweep."""
    name, count = _GRIDS[mode]
    grid, p = _grid_params(config, name, count)
    return SweepTable(
        columns=[(name, unit), ("complexity_half_period", "dimensionless"), ("amplitude", "dimensionless")],
        values=[grid, complexity(math.pi / (2.0 * p.omega), p), oscillation_amplitude(p)],
        metadata=_base_metadata(config),
    )


def run_beta_sweep(config: SweepConfig) -> SweepTable:
    """Half-period complexity and oscillation amplitude over a beta grid."""
    return _half_period_sweep(config, "beta-sweep", "1/energy")


def run_omega_sweep(config: SweepConfig) -> SweepTable:
    """Half-period complexity and amplitude over an omega grid at fixed beta."""
    return _half_period_sweep(config, "omega-sweep", "1/time")


def run_lloyd(config: SweepConfig) -> SweepTable:
    """Maximum complexity rate against the energy bound over a beta grid."""
    grid, p = _grid_params(config, *_GRIDS["lloyd"])
    res = lloyd_check(p)
    return SweepTable(
        columns=[("beta", "1/energy"), ("max_rate", "1/time"), ("bound", "1/time"), ("satisfied", "bool")],
        values=[grid, res.max_rate, res.bound, res.satisfied],
        metadata=_base_metadata(config),
    )


def finite_difference_rate(t, params: PhysicalParams, step: float | None = None):
    """4th-order central finite difference of the complexity in time; t may be an array."""
    h = step if step is not None else 1e-5 * params.period
    f = lambda s: complexity(s, params)
    return (f(t - 2 * h) - 8.0 * f(t - h) + 8.0 * f(t + h) - f(t + 2 * h)) / (12.0 * h)


def run_verify(config: SweepConfig) -> fock.OracleReport:
    """Aggregate every closed-form-vs-oracle check into one report.

    Each distinct warning the checks raise goes into report.warnings once.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = _verify_checks(config)
    report.warnings += dict.fromkeys(str(w.message) for w in caught)
    return report


def _verify_checks(config: SweepConfig) -> fock.OracleReport:
    p = config.params
    report = fock.OracleReport()

    # Laguerre orthogonality against Gamma(n+ell+1)/n! * delta_nm
    dev = max(
        abs(landau.laguerre_norm_integral(n, m, ell) - (math.exp(math.lgamma(n + ell + 1) - math.lgamma(n + 1)) if n == m else 0.0))
        for ell, n, m in itertools.product(range(5), repeat=3)
    )
    report.add("laguerre orthogonality", dev, 1e-9)

    # wavefunction Gram matrix for n + |ell| <= 4
    states = [
        landau.QuantumNumbers(n, ell)
        for n in range(5)
        for ell in range(-n, 5 - n)
        if n + abs(ell) <= 4
    ]
    gram = landau.wavefunction_gram(states, p)
    report.add("wavefunction orthonormality", np.max(np.abs(gram - np.eye(len(states)))), 1e-8)

    # ladder-operator coefficients by the grid oracle (finite differences in rho, FFT in phi)
    cases = [
        (landau.QuantumNumbers(1, 0), "a_dagger", math.sqrt(2.0)),
        (landau.QuantumNumbers(0, 2), "b_dagger", math.sqrt(3.0)),
        (landau.QuantumNumbers(2, 0), "a", math.sqrt(2.0)),
        (landau.QuantumNumbers(1, 1), "b", math.sqrt(2.0)),
    ]
    dev = max(abs(landau.ladder_action_check(q, which, p) - want) for q, which, want in cases)
    report.add("ladder-operator coefficients", dev, 1e-4)

    # commutators on the truncated space
    report.checks += fock.commutator_report(config.fock_dim).checks

    # covariance blocks: brute force vs closed form, compared in the dimensionless form
    # S G S = G * scale with S = diag(sqrt(m omega), 1/sqrt(m omega)); G already carries its 1/hbar
    dev = 0.0
    mw = p.mass * p.omega
    scale = np.array([[mw, 1.0], [1.0, 1.0 / mw]])
    for bho in (1.0, 2.0, 4.0):
        pb = p.with_(beta=bho / (p.hbar * p.omega))
        for t in np.linspace(0.0, p.period, 9):
            g_p, g_m = fock.oracle_covariance_1pm(t, pb, config.fock_dim)
            closed = covariance_g(t, pb)
            dev = max(dev, np.max(np.abs(g_p - closed.block_1p) * scale), np.max(np.abs(g_m - closed.block_1m) * scale))
    report.add("covariance oracle vs closed form", dev, 1e-8)

    # analytic rate vs finite differences
    dev = 0.0
    for bho in (0.5, 2.0, 8.0):
        for omega in (0.1, 0.5, 2.0):
            pb = p.with_(omega=omega, beta=bho / (p.hbar * omega))
            ts = np.linspace(0.05, 0.95, 6) * pb.period
            fd = finite_difference_rate(ts, pb)
            dev = max(dev, np.max(np.abs(complexity_rate(ts, pb) - fd) / np.maximum(np.abs(fd), 1e-3)))
    report.add("rate vs finite differences (relative)", dev, 1e-6)
    return report
