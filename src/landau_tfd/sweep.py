"""Parameter sweeps, verification runs, and table emission.

Every figure-style dataset is produced here as a column-labeled table
with the fully resolved configuration echoed in the metadata, so any
output can be reproduced from its own header.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fock
from . import landau
from .complexity import (
    PhysicalParams,
    _kernel,
    _rate,
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
# rows computed and written per pass: no table is held whole as text, and no time series temporary holds
# more than this many points
_CHUNK = 4096


def _require_int(value, name: str) -> None:
    """Raise ValueError unless value is an int or a numpy integer, as numpy's sizes and fock._check_dim need."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SweepRange:
    start: float
    stop: float
    count: int
    log: bool = False

    def __post_init__(self):
        _require_int(self.count, "count")
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
        _require_int(self.samples_per_period, "samples per period")
        _require_int(self.fock_dim, "fock_dim")
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
            # int() writes a numpy integer as JSON can
            "samples_per_period": int(self.samples_per_period),
            "fock_dim": int(self.fock_dim),
        }
        if self.range_ is not None:
            d["range"] = {**asdict(self.range_), "count": int(self.range_.count)}
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

    def _length(self) -> int:
        return min(map(len, self.values), default=0)

    def _write(self, stream, json_: bool, head: str, tail: str) -> None:
        """Write head, the rows _CHUNK at a time as one bytes object each, and tail to a binary or text stream."""
        from . import _g17  # loaded on the first table write, not at import

        write = _sink(stream)
        write(head.encode())
        n = self._length()
        for i in range(0, n, _CHUNK):
            chunk = _g17.rows([v[i : min(i + _CHUNK, n)] for v in self.values], json_)
            # the first JSON row has no row before it to part from
            write(memoryview(chunk)[1:] if json_ and i == 0 else chunk)
        write(tail.encode())

    def to_csv(self, stream) -> None:
        """Write the table as CSV to stream, binary or text: '# key=value' metadata lines, the header, the rows."""
        head = [f"# {key}={_fmt_meta(value)}\n" for key, value in self.metadata.items()]
        head.append(",".join(f"{name} ({unit})" for name, unit in self.columns) + "\n")
        self._write(stream, False, "".join(head), "")

    def to_json(self, stream) -> None:
        """Write the table to stream, binary or text, as json.dumps(indent=2) writes it, with no final newline."""
        # json renders the small columns and metadata blocks around an empty rows list; every line of the
        # columns block above it is indented deeper, so the first two-space match is the rows key
        doc = {"columns": [{"name": n, "unit": u} for n, u in self.columns], "rows": [], "metadata": self.metadata}
        head, _, tail = json.dumps(doc, indent=2).partition('\n  "rows": []')
        self._write(stream, True, head + '\n  "rows": [', ("\n  ]" if self._length() else "]") + tail)


def _sink(stream):
    """A write for bytes to stream; a text stream, such as sys.stdout or io.StringIO, gets them as str."""
    if isinstance(stream, io.TextIOBase):
        return lambda b: stream.write(str(b, "utf-8"))
    return stream.write


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
        c, rate = np.full(len(ts), math.inf), np.empty(len(ts))
        pb = p.with_(beta=beta) if beta > 0.0 else None
        # _CHUNK times at a time, so the kernel's temporaries stay small; one kernel pass gives C and the rate
        for i in range(0, len(ts), _CHUNK):
            t = ts[i : i + _CHUNK]
            if pb is None:
                rate[i : i + _CHUNK] = high_T_rate_limit(t, p)
            else:
                kernel = _kernel(t, pb)
                c[i : i + _CHUNK] = kernel[0]
                rate[i : i + _CHUNK] = _rate(kernel, t, pb)
        values += [c, rate]
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
    max_rate, bound, _ = lloyd_check(p)
    return SweepTable(
        columns=[("beta", "1/energy"), ("max_rate", "1/time"), ("bound", "1/time"), ("satisfied", "bool")],
        values=[grid, max_rate, bound, max_rate <= bound],
        metadata=_base_metadata(config),
    )


def finite_difference_rate(t, params: PhysicalParams):
    """4th-order central finite difference of the complexity in time, with step 1e-5 periods; t, beta and omega may be arrays."""
    h = 1e-5 * params.period
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

    # Laguerre orthogonality on the (ell, n, m) grid against (n+ell)!/n! * delta_nm
    ell, n, m = np.ogrid[:5, :5, :5]
    factorial = np.cumprod(np.r_[1.0, 1:9])  # 0!, 1!, ..., 8!
    want = np.where(n == m, factorial[n + ell] / factorial[n], 0.0)
    report.add("laguerre orthogonality", np.max(np.abs(landau.laguerre_norm_integral(n, m, ell) - want)), 1e-9)

    # wavefunction Gram matrix for n + |ell| <= 4
    states = np.array([
        (n, ell)
        for n in range(5)
        for ell in range(-n, 5 - n)
        if n + abs(ell) <= 4
    ])
    gram = landau.wavefunction_gram(states[:, 0], states[:, 1], p)
    report.add("wavefunction orthonormality", np.max(np.abs(gram - np.eye(len(states)))), 1e-12)

    # ladder-operator coefficients by the grid oracle (Gauss-Legendre differentiation matrix in rho, FFT in phi)
    cases = [
        (1, 0, "a_dagger", math.sqrt(2.0)),
        (0, 2, "b_dagger", math.sqrt(3.0)),
        (2, 0, "a", math.sqrt(2.0)),
        (1, 1, "b", math.sqrt(2.0)),
    ]
    dev = max(abs(landau.ladder_action_check(n, ell, which, p) - want) for n, ell, which, want in cases)
    report.add("ladder-operator coefficients", dev, 1e-11)

    # commutators on the truncated space
    report.checks += fock.commutator_report(config.fock_dim).checks

    # covariance blocks: brute force vs closed form at 9 t x 3 beta, compared in the dimensionless form
    # S G S = G * scale with S = diag(sqrt(m omega), 1/sqrt(m omega)); G already carries its 1/hbar
    mw = p.mass * p.omega
    scale = np.array([[mw, 1.0], [1.0, 1.0 / mw]])
    pb = p.with_(beta=np.array([1.0, 2.0, 4.0]) / (p.hbar * p.omega))
    ts = np.linspace(0.0, p.period, 9)[:, None]
    g_p, g_m = fock.oracle_covariance_1pm(ts, pb, config.fock_dim)
    closed_p, closed_m, _ = covariance_g(ts, pb)
    dev = max(np.max(np.abs(g_p - closed_p) * scale), np.max(np.abs(g_m - closed_m) * scale))
    report.add("covariance oracle vs closed form", dev, 1e-8)

    # analytic rate vs finite differences on a (beta hbar omega, omega, t) grid of 3 x 3 x 6
    bho, omega = np.array([0.5, 2.0, 8.0])[:, None, None], np.array([0.1, 0.5, 2.0])[:, None]
    pb = p.with_(omega=omega, beta=bho / (p.hbar * omega))
    ts = np.linspace(0.05, 0.95, 6) * pb.period
    fd = finite_difference_rate(ts, pb)
    dev = np.max(np.abs(complexity_rate(ts, pb) - fd) / np.maximum(np.abs(fd), 1e-3))
    report.add("rate vs finite differences (relative)", dev, 1e-6)
    return report
