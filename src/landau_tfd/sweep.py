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
from typing import Callable

import numpy as np

from . import fock
from . import landau
from .complexity import (
    PhysicalParams,
    _complex_step_rate,
    _high_T_complex_step_rate,
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
]

# rows evaluated and written per pass, so no temporary of a table write holds more
_CHUNK = 4096
MODES = ("time-series", "beta-sweep", "omega-sweep", "lloyd", "verify")
# the swept field of each grid mode and the size of its default grid
_GRIDS = {"beta-sweep": ("beta", 64), "omega-sweep": ("omega", 64), "lloyd": ("beta", 25)}
# the row layouts of CSV and of json.dumps(indent=2): the bytes before a row's first cell, between a cell's ','
# and the next cell, and after the last cell, and the last cell's separator.  A JSON row opens with the ','
# that parts it from the row before; the writer drops the first row's.
_LAYOUTS = ((b"", b"", b"", b"\n"), (b",\n    [\n      ", b"\n      ", b"\n    ]", b""))


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
            name, count = _GRIDS[self.mode]
            self.params.with_(**{name: _grid(self, count)})
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


@dataclass
class SweepTable:
    """A table evaluated _CHUNK rows at a time: chunk(i, j) gives one 1-D array per column, rows i to j - 1."""

    columns: list  # (name, unit) pairs, in output order
    length: int  # the row count
    chunk: Callable  # (i, j) -> one array per column, in the same order
    metadata: dict = field(default_factory=dict)

    @classmethod
    def of(cls, columns: list, values: list, metadata: dict | None = None) -> "SweepTable":
        """A table of ready 1-D arrays, one per column."""
        if len(columns) != len(values):
            raise ValueError(f"{len(columns)} (name, unit) pairs for {len(values)} columns")
        if len(set(map(len, values))) > 1:
            raise ValueError(f"columns must have equal length, got {[len(v) for v in values]}")
        length = len(values[0]) if values else 0
        return cls(columns, length, lambda i, j: [v[i:j] for v in values], {} if metadata is None else metadata)

    @property
    def values(self) -> list:
        """Every column whole, evaluated chunk by chunk."""
        n = self.length
        chunks = [self.chunk(i, min(i + _CHUNK, n)) for i in range(0, n, _CHUNK)] or [self.chunk(0, 0)]
        return [np.concatenate(c) for c in zip(*chunks)]

    def column(self, name: str) -> np.ndarray:
        names = [c[0] for c in self.columns]
        if name not in names:
            raise ValueError(f"no column named {name!r}; the columns are {names}")
        return self.values[names.index(name)]

    def _write(self, stream, json_: bool, head: str, tail: str) -> None:
        """Write head, the rows _CHUNK at a time, each evaluated just before it is written, and tail.

        One byte buffer, sized by the first chunk, holds every chunk's
        layout in turn; stream is binary or text.
        """
        from . import _g17  # loaded on the first table write, not at import

        write = _sink(stream)
        write(head.encode())
        n, buf = self.length, bytearray()
        for i in range(0, n, _CHUNK):
            text = _g17.rows(self.chunk(i, min(i + _CHUNK, n)), json_, _LAYOUTS[json_], buf)
            # the first JSON row has no row before it to part from
            write(memoryview(text)[1:] if json_ and i == 0 else text)
            del text  # freed before the next chunk is laid out, not after
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
        self._write(stream, True, head + '\n  "rows": [', ("\n  ]" if self.length else "]") + tail)


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

    beta = inf is evaluated exactly at zero temperature, where both
    columns are constant and evaluated once; beta = 0 uses the
    closed-form infinite-temperature limits (the complexity column is
    the divergent limit, emitted as inf and flagged in metadata).  The
    other columns are evaluated a chunk of times at a time, as the table
    is written.
    """
    p = config.params
    if config.range_ is not None:
        ts = config.range_.grid()
    else:
        ts = np.linspace(0.0, 2.0 * p.period, 2 * config.samples_per_period)
    columns = [("t", "time")]
    for beta in config.betas:
        columns.append((f"complexity[beta={_beta_label(beta)}]", "dimensionless"))
        columns.append((f"rate[beta={_beta_label(beta)}]", "1/time"))
    curves = [p.with_(beta=beta) if beta > 0.0 else None for beta in config.betas]
    # at beta = inf, s = 0: C is the same at every t, sqrt(ln^2 6 + 2 u^2) to rounding, and the rate is 0.0
    c_inf = complexity(0.0, p.with_(beta=math.inf))

    def chunk(i: int, j: int) -> list:
        t = ts[i:j]
        values = [t]
        for pb in curves:
            if pb is None:
                values += [np.full(len(t), math.inf), high_T_rate_limit(t, p)]
            elif math.isinf(pb.beta):
                values += [np.full(len(t), c_inf), np.zeros(len(t))]
            else:
                # one kernel pass gives C and the rate
                kernel = _kernel(t, pb)
                values += [kernel[0], _rate(kernel, t, pb)]
        return values

    meta = _base_metadata(config)
    if any(b == 0.0 for b in config.betas):
        meta["beta0_note"] = "complexity column is the divergent high-temperature limit (inf); rate from the closed-form limit"
    return SweepTable(columns, len(ts), chunk, meta)


def _grid(config: SweepConfig, count: int) -> np.ndarray:
    """The swept grid of a grid mode: the range, or count log-spaced points in [1e-2, 1e2]."""
    return (config.range_ or SweepRange(1e-2, 1e2, count, log=True)).grid()


def _half_period_sweep(config: SweepConfig, mode: str, unit: str) -> SweepTable:
    """Half-period complexity and amplitude over the grid of a beta- or omega-sweep, evaluated as it is written."""
    name, count = _GRIDS[mode]
    grid = _grid(config, count)  # SweepConfig has checked every point of it

    def chunk(i: int, j: int) -> list:
        p = config.params.with_(**{name: grid[i:j]})
        return [grid[i:j], complexity(math.pi / (2.0 * p.omega), p), oscillation_amplitude(p)]

    columns = [(name, unit), ("complexity_half_period", "dimensionless"), ("amplitude", "dimensionless")]
    return SweepTable(columns, len(grid), chunk, _base_metadata(config))


def run_beta_sweep(config: SweepConfig) -> SweepTable:
    """Half-period complexity and oscillation amplitude over a beta grid."""
    return _half_period_sweep(config, "beta-sweep", "1/energy")


def run_omega_sweep(config: SweepConfig) -> SweepTable:
    """Half-period complexity and amplitude over an omega grid at fixed beta."""
    return _half_period_sweep(config, "omega-sweep", "1/time")


def run_lloyd(config: SweepConfig) -> SweepTable:
    """Maximum complexity rate against the energy bound over a beta grid."""
    grid = _grid(config, _GRIDS["lloyd"][1])
    max_rate, bound, _ = lloyd_check(config.params.with_(beta=grid))
    return SweepTable.of(
        [("beta", "1/energy"), ("max_rate", "1/time"), ("bound", "1/time"), ("satisfied", "bool")],
        [grid, max_rate, bound, max_rate <= bound],
        _base_metadata(config),
    )


def run_verify(config: SweepConfig) -> fock.OracleReport:
    """Aggregate every closed-form-vs-oracle check into one report.

    Each distinct warning the checks raise goes into report.warnings once.
    """
    p = config.params
    report = fock.OracleReport()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")

        # Laguerre orthogonality on the (ell, n, m) grid against (n+ell)!/n! * delta_nm
        ell, n, m = np.ogrid[:5, :5, :5]
        factorial = np.cumprod(np.r_[1.0, 1:9])  # 0!, 1!, ..., 8!
        want = np.where(n == m, factorial[n + ell] / factorial[n], 0.0)
        report.add("laguerre orthogonality", landau.laguerre_norm_integral(n, m, ell) - want, 1e-9)

        # wavefunction Gram matrix for n + |ell| <= 4
        states = np.array([
            (n, ell)
            for n in range(5)
            for ell in range(-n, 5 - n)
            if n + abs(ell) <= 4
        ])
        gram = landau.wavefunction_gram(states[:, 0], states[:, 1], p)
        report.add("wavefunction orthonormality", gram - np.eye(len(states)), 1e-12)

        # ladder-operator coefficients by the grid oracle (Gauss-Legendre differentiation matrix in rho, FFT in phi)
        cases = [
            (1, 0, "a_dagger", math.sqrt(2.0)),
            (0, 2, "b_dagger", math.sqrt(3.0)),
            (2, 0, "a", math.sqrt(2.0)),
            (1, 1, "b", math.sqrt(2.0)),
        ]
        dev = [landau.ladder_action_check(n, ell, which, p) - want for n, ell, which, want in cases]
        report.add("ladder-operator coefficients", dev, 1e-11)

        # commutators on the truncated space
        report.checks += fock.commutator_report(config.fock_dim).checks

        # covariance blocks: brute force vs closed form at 9 t x 3 beta, compared in the dimensionless form
        # S G S = G * scale with S = diag(sqrt(m omega), 1/sqrt(m omega)); G already carries its 1/hbar
        mw = p.mass * p.omega
        scale = np.array([[mw, 1.0], [1.0, 1.0 / mw]])
        pb = p.with_(beta=np.array([1.0, 2.0, 4.0]) / (p.hbar * p.omega))
        ts = np.linspace(0.0, p.period, 9)[:, None]
        oracle = np.stack(fock.oracle_covariance_1pm(ts, pb, config.fock_dim))
        closed = np.stack(covariance_g(ts, pb)[:2])
        report.add("covariance oracle vs closed form", (oracle - closed) * scale, 1e-8)

        # analytic rates vs their complex steps, relative above 1e-3: the rate on a (beta hbar omega, omega, t) grid
        # of 3 x 3 x 6, and the time series' beta = 0 column on its omega x t part, as ts does not depend on beta.
        # Both sides round to a few ulps of the derivative (at most 1.6e-14 apart for omega_ref in [1e-100, 1e100]),
        # so 1e-12 keeps a fiftyfold margin and still fails a rate off by 1e-10.
        bho, omega = np.array([0.5, 2.0, 8.0])[:, None, None], np.array([0.1, 0.5, 2.0])[:, None]
        pb = p.with_(omega=omega, beta=bho / (p.hbar * omega))
        ts = np.linspace(0.05, 0.95, 6) * pb.period
        for name, rate, step in [
            ("rate vs complex step (relative)", complexity_rate, _complex_step_rate),
            ("beta=0 rate vs complex step (relative)", high_T_rate_limit, _high_T_complex_step_rate),
        ]:
            ref = step(ts, pb)
            report.add(name, (rate(ts, pb) - ref) / np.maximum(np.abs(ref), 1e-3), 1e-12)
    report.warnings += dict.fromkeys(str(w.message) for w in caught)
    return report
