"""Output validators for every CLI invocation the benchmark makes.

An invocation fails on a nonzero exit, a traceback on stderr, missing or
malformed output (wrong header or row count, non-finite values outside
the documented beta=0 ``inf`` column), ``"passed": false`` in a verify
report, or a ``satisfied`` value of 0 in Lloyd output.

Values are also compared with the 50-digit reference on a seeded sample
of rows.  The result carries the worst relative error of the complexity
values and the worst error of the rate values divided by the largest
|reference rate| of their column; the benchmark reports both as digits.
Only a gross error fails an invocation (relative error above
``SANITY``): the closed forms are known to lose digits at high
temperature, and the rate at low temperature, and that loss is reported
as digits rather than counted as a failure.  The rate is held to
``SANITY`` only where exp(-beta*hbar*omega/2) is resolvable in double
precision, beta*hbar*omega <= ``RATE_BHO_MAX``, and at beta = inf, where
it is exactly 0.
"""

from __future__ import annotations

import io
import json
import math
import random

import numpy as np

import reference

SANITY = 1e-3
RATE_BHO_MAX = 30.0
SAMPLE_ROWS = 48


class Invalid(Exception):
    """The output breaks the contract of its mode."""


def _label(beta: float) -> str:
    return "inf" if math.isinf(beta) else format(beta, "g")


def _sample(n: int, rng: random.Random) -> list:
    """A seeded sample of row indices that always holds both ends."""
    k = min(n, SAMPLE_ROWS)
    return sorted({0, n - 1, *rng.sample(range(n), k)})


def _check_grid(x: np.ndarray, spec: dict) -> None:
    start, stop, count = spec["range"]
    want = np.logspace(math.log10(start), math.log10(stop), count)
    if not np.allclose(x, want, rtol=1e-12, atol=0.0):
        raise Invalid("parameter column differs from the requested grid")


def _parse_csv(text: str, header: list, rows: int) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != ",".join(header):
        raise Invalid(f"CSV header {lines[0][:120] if lines else ''!r} is not {','.join(header)[:120]!r}")
    if len(lines) - 1 != rows:
        raise Invalid(f"{len(lines) - 1} CSV rows, expected {rows}")
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    if data.shape != (rows, len(header)):
        raise Invalid(f"CSV data shape {data.shape}, expected {(rows, len(header))}")
    return data


def _parse_table_json(text: str, columns: list, rows: int) -> np.ndarray:
    doc = json.loads(text)
    got = [(c["name"], c["unit"]) for c in doc["columns"]]
    if got != columns:
        raise Invalid(f"JSON columns {got} are not {columns}")
    if len(doc["rows"]) != rows:
        raise Invalid(f"{len(doc['rows'])} JSON rows, expected {rows}")
    if any(len(r) != len(columns) or not all(isinstance(v, (int, float)) for v in r) for r in doc["rows"]):
        raise Invalid("JSON row with a wrong length or a non-numeric value")
    return np.array(doc["rows"], dtype=float).reshape(rows, len(columns))


def _require_finite(data: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(data)):
        raise Invalid(f"non-finite value in {what}")


def _time_series(op, text, rng, stats):
    s = op.spec
    betas, omega = s["betas"], s["omega"]
    header = ["t (time)"]
    for b in betas:
        header += [f"complexity[beta={_label(b)}] (dimensionless)", f"rate[beta={_label(b)}] (1/time)"]
    data = _parse_csv(text, header, op.rows)
    t = data[:, 0]
    for j, beta in enumerate(betas):
        c_col, r_col = data[:, 1 + 2 * j], data[:, 2 + 2 * j]
        _require_finite(r_col, f"rate column {j}")
        if beta == 0.0:
            if not np.all(c_col == math.inf):
                raise Invalid("beta=0 complexity column is not the documented inf limit")
        else:
            _require_finite(c_col, f"complexity column {j}")
    _require_finite(t, "t column")
    if t[0] != 0.0 or not np.all(np.diff(t) > 0) or not math.isclose(t[-1], 2 * math.pi / omega, rel_tol=1e-12):
        raise Invalid("t column is not the grid over two periods")

    idx = _sample(op.rows, rng)
    for j, beta in enumerate(betas):
        refs, gots = [], data[idx, 2 + 2 * j]
        for i in idx:
            if beta == 0.0:
                refs.append(reference.high_temperature_rate(t[i], omega))
            else:
                c_ref = reference.complexity(t[i], omega, beta)
                _complexity_error(stats, data[i, 1 + 2 * j], c_ref)
                refs.append(reference.complexity_rate(t[i], omega, beta))
        scale = max(abs(float(r)) for r in refs)
        err = 0.0 if scale == 0.0 else max(abs(g - float(r)) for g, r in zip(gots, refs)) / scale
        if scale == 0.0 and np.any(gots != 0.0):
            err = math.inf
        stats["rate_err"] = max(stats.get("rate_err", 0.0), err)
        if err > SANITY and not RATE_BHO_MAX < beta * omega < math.inf:
            raise Invalid(f"rate column beta={_label(beta)} off the reference by {err:.3g}")


def _complexity_error(stats, got, want) -> None:
    err = reference.relative_error(float(got), want)
    stats["c_err"] = max(stats.get("c_err", 0.0), err)
    if err > SANITY:
        raise Invalid(f"complexity {got!r} off the reference {float(want)!r} by {err:.3g}")


def _sweep(op, text, rng, stats):
    s = op.spec
    name, unit = ("beta", "1/energy") if s["mode"] == "beta-sweep" else ("omega", "1/time")
    cols = [(name, unit), ("complexity_half_period", "dimensionless"), ("amplitude", "dimensionless")]
    data = _parse_table_json(text, cols, op.rows)
    _require_finite(data, "sweep table")
    _check_grid(data[:, 0], s)
    for i in _sample(op.rows, rng):
        x = data[i, 0]
        omega, beta = (s["omega"], x) if name == "beta" else (x, s["betas"][0])
        half = math.pi / (2.0 * omega)
        c_half = reference.complexity(half, omega, beta)
        _complexity_error(stats, data[i, 1], c_half)
        amp = c_half - reference.complexity(0.0, omega, beta)
        if abs(data[i, 2] - float(amp)) > SANITY * float(c_half):
            raise Invalid(f"amplitude {data[i, 2]!r} off the reference {float(amp)!r}")


def _lloyd(op, text, rng, stats):
    header = ["beta (1/energy)", "max_rate (1/time)", "bound (1/time)", "satisfied (bool)"]
    data = _parse_csv(text, header, op.rows)
    _require_finite(data, "Lloyd table")
    _check_grid(data[:, 0], op.spec)
    if not np.all(data[:, 3] == 1.0):
        raise Invalid(f"Lloyd bound reported violated in {int(np.sum(data[:, 3] != 1.0))} rows")
    if not np.all((data[:, 1] >= 0.0) & (data[:, 1] <= data[:, 2])):
        raise Invalid("max_rate outside [0, bound]")


def _verify(op, text, rng, stats):
    doc = json.loads(text)
    checks = doc["checks"]
    if doc["passed"] is not True or not checks:
        raise Invalid("verify report did not pass")
    for c in checks:
        if c["passed"] is not True or not math.isfinite(c["max_deviation"]):
            raise Invalid(f"verify check {c['name']!r} failed")


_BY_MODE = {
    "time-series": _time_series,
    "beta-sweep": _sweep,
    "omega-sweep": _sweep,
    "lloyd": _lloyd,
    "verify": _verify,
}


def check(op, text: str | None, returncode: int, stderr: str, rng: random.Random) -> tuple:
    """Validate one invocation; return (ok, reason, stats)."""
    stats = {}
    if "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return False, f"traceback: {last}", stats
    if returncode != 0:
        return False, f"exit code {returncode}", stats
    if not text:
        return False, "no output", stats
    try:
        _BY_MODE[op.spec["mode"]](op, text, rng, stats)
    except Invalid as exc:
        return False, str(exc), stats
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"malformed output: {exc!r}", stats
    return True, None, stats
