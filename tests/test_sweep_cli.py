"""Sweep drivers, table serialization, and the command-line interface."""

import contextlib
import functools
import io
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landau_tfd import (
    PhysicalParams,
    SweepConfig,
    SweepRange,
    alpha_of,
    asymptotic_amplitude,
    asymptotic_complexity,
    complexity,
    complexity_rate,
    covariance_g,
    high_T_rate_limit,
    lloyd_check,
    oracle_covariance_1pm,
    oscillation_amplitude,
    relative_spectrum,
    run_beta_sweep,
    run_lloyd,
    run_omega_sweep,
    run_time_series,
    run_verify,
)
from landau_tfd import _g17, cli, landau, sweep
from landau_tfd.complexity import _complex_step_rate, _high_T_complex_step_rate
from landau_tfd.fock import tfd_a_sector_state
from landau_tfd.cli import main
from landau_tfd.sweep import _CHUNK, MODES, SweepTable


# row counts whose arrays exceed any address space: numpy refuses each allocation before touching memory
OVERSIZED = [
    ["--mode", "time-series", "--samples", str(10**17)],
    ["--mode", "time-series", "--samples", str(10**18)],
    ["--mode", "beta-sweep", "--range", f"1:2:{10**18}:log"],
    ["--mode", "lloyd", "--range", f"1:2:{10**17}"],
]


def small_config(mode: str, **kw) -> SweepConfig:
    defaults = dict(
        params=PhysicalParams(omega=0.5, omega_ref=1.0, beta=2.0),
        samples_per_period=8,
        fock_dim=24,
    )
    defaults.update(kw)
    return SweepConfig(mode=mode, **defaults)


class TestSweepRange:
    def test_linear_grid(self):
        g = SweepRange(0.0, 1.0, 5).grid()
        assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log_grid(self):
        g = SweepRange(0.01, 100.0, 5, log=True).grid()
        assert np.allclose(g, [0.01, 0.1, 1.0, 10.0, 100.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SweepRange(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            SweepRange(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            SweepRange(0.0, 1.0, 5, log=True)


class TestSweepConfig:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            SweepConfig(mode="banana")

    def test_non_integer_count(self):
        with pytest.raises(ValueError, match="count must be an integer, got 2.5"):
            SweepRange(0.0, 1.0, 2.5)

    def test_non_integer_samples_per_period(self):
        with pytest.raises(ValueError, match="samples per period must be an integer, got 2.5"):
            SweepConfig("time-series", samples_per_period=2.5)

    def test_non_integer_fock_dim(self):
        with pytest.raises(ValueError, match="fock_dim must be an integer, got 60.0"):
            SweepConfig("verify", fock_dim=60.0)

    def test_numpy_integer_counts(self):
        # numpy integers pass, and the header still writes them as JSON integers
        cfg = small_config("lloyd", range_=SweepRange(0.5, 2.0, np.int64(3)), samples_per_period=np.int32(8), fock_dim=np.int16(40))
        assert json.loads(run_lloyd(cfg).metadata["config"])["range"]["count"] == 3


class TestTimeSeries:
    def test_columns_per_beta(self):
        table = run_time_series(small_config("time-series", betas=(math.inf, 1.0)))
        names = [c[0] for c in table.columns]
        assert names == [
            "t",
            "complexity[beta=inf]",
            "rate[beta=inf]",
            "complexity[beta=1]",
            "rate[beta=1]",
        ]

    def test_covers_two_periods(self):
        cfg = small_config("time-series", betas=(1.0,))
        table = run_time_series(cfg)
        ts = table.column("t")
        assert len(ts) == 2 * cfg.samples_per_period
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(2.0 * cfg.params.period)

    def test_values_match_library(self):
        cfg = small_config("time-series", betas=(2.0,))
        table = run_time_series(cfg)
        p = cfg.params.with_(beta=2.0)
        for t, c in zip(table.column("t"), table.column("complexity[beta=2]")):
            assert c == complexity(t, p)

    def test_infinite_temperature_columns(self):
        cfg = small_config("time-series", betas=(0.0,))
        table = run_time_series(cfg)
        assert np.all(np.isinf(table.column("complexity[beta=0]")))
        p = cfg.params
        for t, r in zip(table.column("t"), table.column("rate[beta=0]")):
            assert r == high_T_rate_limit(t, p)
        assert "beta0_note" in table.metadata


class TestBetaOmegaSweeps:
    def test_beta_sweep_monotone(self):
        cfg = small_config("beta-sweep", range_=SweepRange(0.1, 100.0, 12, log=True))
        table = run_beta_sweep(cfg)
        comp = table.column("complexity_half_period")
        amp = table.column("amplitude")
        assert np.all(np.diff(comp) < 0)
        assert np.all(np.diff(amp) < 0)

    def test_omega_sweep_amplitude_vanishes_at_resonance(self):
        cfg = small_config(
            "omega-sweep",
            params=PhysicalParams(omega=0.5, omega_ref=1.0, beta=1.0),
            range_=SweepRange(0.5, 2.0, 7),
        )
        table = run_omega_sweep(cfg)
        omegas = table.column("omega")
        amp = table.column("amplitude")
        assert amp[np.argmin(np.abs(omegas - 1.0))] == 0.0
        assert np.all(amp[omegas != 1.0] > 0.0)


def _outputs(result) -> tuple:
    return result if isinstance(result, tuple) else (result,)


# every closed form that broadcasts, called as f(t, params), with the inputs it broadcasts over:
# t, beta ("b") and omega ("w")
_BROADCASTING = {
    "alpha_of": (lambda t, p: alpha_of(p), "bw"),
    "covariance_g": (covariance_g, "tbw"),
    "relative_spectrum": (relative_spectrum, "tbw"),
    "high_T_rate_limit": (high_T_rate_limit, "tw"),
    **{
        f"asymptotic_complexity-{regime}": (functools.partial(asymptotic_complexity, regime), "tbw")
        for regime in ("low_T", "high_T")
    },
    **{
        f"asymptotic_amplitude-{regime}": (lambda t, p, regime=regime: asymptotic_amplitude(regime, p), "bw")
        for regime in ("low_T", "high_T")
    },
}


class TestArrayPath:
    """The runners evaluate whole columns at once; each value equals the per-point scalar call."""

    def test_time_series_bit_for_bit(self):
        cfg = small_config("time-series", betas=(math.inf, 0.3, 2.0, 0.0), samples_per_period=32)
        table = run_time_series(cfg)
        p = cfg.params
        for beta in cfg.betas:
            label = "inf" if math.isinf(beta) else format(beta, "g")
            names = ("t", f"complexity[beta={label}]", f"rate[beta={label}]")
            for t, c, r in zip(*(table.column(n) for n in names)):
                t = float(t)
                if beta == 0.0:
                    assert (c, r) == (math.inf, high_T_rate_limit(t, p))
                else:
                    pb = p.with_(beta=beta)
                    assert (c, r) == (complexity(t, pb), complexity_rate(t, pb))

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1, 50_000])
    def test_time_series_chunks_equal_whole_columns(self, n):
        # run_time_series evaluates _CHUNK times at a time; each column is the whole-array call, bit for bit
        rng = np.random.default_rng(n)
        for _ in range(3):
            omega, omega_ref = 10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-30.0, 30.0)
            p = PhysicalParams(omega=omega, omega_ref=omega_ref, beta=1.0)
            betas = (math.inf, *(10.0 ** rng.uniform(-3.0, 3.0, 2) / omega), 0.0)
            cfg = small_config("time-series", params=p, betas=betas, range_=SweepRange(0.0, 2.0 * p.period, n))
            got = run_time_series(cfg).values
            ts = got[0]
            want = [ts]
            for beta in betas:
                pb = p.with_(beta=beta) if beta > 0.0 else None
                want += [np.full(n, math.inf), high_T_rate_limit(ts, p)] if pb is None else [complexity(ts, pb), complexity_rate(ts, pb)]
            for g, w in zip(got, want, strict=True):
                assert g.tobytes() == w.tobytes()

    def test_beta_sweep_bit_for_bit(self):
        cfg = small_config("beta-sweep", range_=SweepRange(1e-3, 1e3, 40, log=True))
        table = run_beta_sweep(cfg)
        half = math.pi / (2.0 * cfg.params.omega)
        for beta, c, amp in zip(*(table.column(n) for n in ("beta", "complexity_half_period", "amplitude"))):
            pb = cfg.params.with_(beta=float(beta))
            assert (c, amp) == (complexity(half, pb), oscillation_amplitude(pb))

    @pytest.mark.parametrize("name", sorted(_BROADCASTING))
    def test_closed_form_equals_scalar_calls(self, name):
        fn, inputs = _BROADCASTING[name]
        ts, betas, omegas = np.array([0.0, 0.7, 2.9, 11.0]), np.array([0.05, 2.0, math.inf]), np.array([0.25, 1.0, 3.0])
        shape = np.broadcast_shapes(*({"t": (4, 1, 1), "b": (3, 1), "w": (3,)}[x] for x in inputs))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            # an asymptotic regime warns, and may divide by 0, at the points outside it; the values still compare
            warnings.simplefilter("ignore")
            got = fn(ts[:, None, None], PhysicalParams(omega=omegas, beta=betas[:, None]))
            want = [fn(t, PhysicalParams(omega=w, beta=b)) for t, b, w in itertools.product(ts, betas, omegas)]
        assert len(_outputs(got)) == len(_outputs(want[0]))
        for g, w in zip(_outputs(got), zip(*map(_outputs, want))):
            w = np.reshape(w, (4, 3, 3) + np.shape(w[0]))
            assert np.shape(g) == shape + np.shape(w[0, 0, 0])
            np.testing.assert_array_equal(np.broadcast_to(g, w.shape), w)

    def test_fock_oracle_equals_scalar_calls(self):
        p = PhysicalParams(omega=0.5, beta=2.0)
        ts, betas = np.array([0.0, 0.9, 4.1]), np.array([2.0, 8.0, math.inf])
        grid = p.with_(beta=betas)
        c, deficit = tfd_a_sector_state(ts[:, None], grid, 40)
        blocks = oracle_covariance_1pm(ts[:, None], grid, 40)
        assert c.shape == (3, 3, 40) and deficit.shape == (3,)
        for (i, t), (j, b) in itertools.product(enumerate(ts), enumerate(betas)):
            c_1, deficit_1 = tfd_a_sector_state(t, p.with_(beta=b), 40)
            np.testing.assert_array_equal(c[i, j], c_1)
            assert deficit[j] == deficit_1
            for g, g_1 in zip(blocks, oracle_covariance_1pm(t, p.with_(beta=b), 40)):
                # a stack of amplitude vectors goes through one matrix product, not one vector product each
                np.testing.assert_allclose(g[i, j], g_1, rtol=1e-14, atol=1e-14 * np.max(np.abs(g_1)))


class TestLloyd:
    def test_all_satisfied(self):
        cfg = small_config("lloyd", range_=SweepRange(0.05, 50.0, 9, log=True))
        table = run_lloyd(cfg)
        assert np.all(table.column("satisfied") == 1.0)
        assert np.all(table.column("max_rate") <= table.column("bound"))

    def test_bound_grows_with_temperature(self):
        cfg = small_config("lloyd", range_=SweepRange(0.05, 50.0, 9, log=True))
        table = run_lloyd(cfg)
        assert np.all(np.diff(table.column("bound")) < 0)

    def test_long_period_terminates(self):
        # period ~3e300: a golden-section bracket stalls at a few ulps, far above the absolute tolerance
        argv = ["--mode", "lloyd", "--omega", "1e-300", "--omega-ref", "1e-299", "--hbar", "1e300", "--range", "1:10:3"]
        proc = subprocess.run([sys.executable, "-m", "landau_tfd.cli", *argv], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 5


class TestSerialization:
    def test_csv_shape(self):
        table = run_time_series(small_config("time-series", betas=(1.0,)))
        lines = written(table.to_csv).splitlines()
        meta = [ln for ln in lines if ln.startswith("# ")]
        body = [ln for ln in lines if not ln.startswith("# ")]
        for ln in meta:
            key, _, value = ln[2:].partition("=")
            assert key and value and "=" not in key
        assert body[0] == "t (time),complexity[beta=1] (dimensionless),rate[beta=1] (1/time)"
        assert len(body) == 1 + 2 * 8
        assert all(len(ln.split(",")) == 3 for ln in body[1:])

    def test_csv_deterministic(self):
        cfg = small_config("beta-sweep", range_=SweepRange(0.1, 10.0, 6, log=True))
        assert written(run_beta_sweep(cfg).to_csv) == written(run_beta_sweep(cfg).to_csv)

    def test_csv_full_precision(self):
        table = run_time_series(small_config("time-series", betas=(2.0,)))
        lines = written(table.to_csv).splitlines()
        first = [ln for ln in lines if not ln.startswith("#")][1]
        val = float(first.split(",")[1])
        assert val == table.column("complexity[beta=2]")[0]

    def test_json_loadable_with_inf(self):
        table = run_time_series(small_config("time-series", betas=(0.0,)))
        doc = json.loads(written(table.to_json))
        assert doc["rows"][0][1] == "inf"
        assert [c["name"] for c in doc["columns"]] == [c[0] for c in table.columns]


def written(write) -> str:
    """The text a table writer, such as table.to_csv, writes to a text stream."""
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


def reference_csv(table: SweepTable) -> str:
    """The row-at-a-time CSV writer the chunked one replaced."""
    buf = io.StringIO()
    for key, value in table.metadata.items():
        buf.write(f"# {key}={format(value, '.17g') if isinstance(value, float) else value}\n")
    buf.write(",".join(f"{name} ({unit})" for name, unit in table.columns) + "\n")
    row = ",".join("{:d}" if v.dtype == bool else "{:.17g}" for v in table.values) + "\n"
    buf.writelines(row.format(*r) for r in zip(*(v.tolist() for v in table.values)))
    return buf.getvalue()


def reference_json(table: SweepTable) -> str:
    """The json.dumps writer the chunked one replaced; every infinity is the string "inf"."""
    val = lambda v: "inf" if isinstance(v, float) and math.isinf(v) else v
    rows = [[val(v) for v in r] for r in zip(*(v.tolist() for v in table.values))]
    doc = {"columns": [{"name": n, "unit": u} for n, u in table.columns], "rows": rows, "metadata": table.metadata}
    return json.dumps(doc, indent=2)


def first_difference(got: str, want: str):
    """None for equal texts, else the first lines that differ; pytest's own diff of megabytes of text is too slow."""
    if got == want:
        return None
    lines = itertools.zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next((a, b) for a, b in lines if a != b)


def feature_table(n: int) -> SweepTable:
    """n rows with a bool column, +-inf and NaN cells, and constant columns of 0.0, -0.0 and inf."""
    x = np.random.default_rng(n).normal(size=n) * 10.0 ** (np.arange(n) % 601 - 300)
    x[1::7], x[2::11], x[3::13] = math.inf, -math.inf, math.nan
    zeros = np.zeros(n)
    zeros[n // 2 :] = -0.0  # 0.0, then -0.0
    return SweepTable.of(
        columns=[("x", "time"), ("positive", "bool"), ("zero", "1"), ("neg_zero", "1"), ("inf", "1"), ("half", "1")],
        values=[x, x > 0, zeros, np.full(n, -0.0), np.full(n, math.inf), np.full(n, 0.5)],
        metadata={"config": json.dumps({"mode": "x"}), "scale": 0.1, "count": n},
    )


class TestChunkedSerialization:
    """to_csv and to_json give the bytes of the row-at-a-time writers, at and around the chunk size."""

    @pytest.mark.parametrize("n", [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_byte_identical_to_reference(self, n):
        table = feature_table(n)
        assert first_difference(written(table.to_csv), reference_csv(table)) is None
        assert first_difference(written(table.to_json), reference_json(table)) is None

    def test_constant_chunk_keeps_signed_zero(self):
        # chunks of 0.0, of both zeros and of -0.0, which all compare equal to 0.0
        zero = np.zeros(3 * _CHUNK)
        zero[3 * _CHUNK // 2 :] = -0.0
        table = SweepTable.of(columns=[("zero", "1")], values=[zero])
        sign = np.copysign(1.0, zero).tolist()
        assert written(table.to_csv).splitlines()[1:] == ["-0" if s < 0 else "0" for s in sign]
        assert [math.copysign(1.0, r[0]) for r in json.loads(written(table.to_json))["rows"]] == sign

    def test_sweep_tables_byte_identical_to_reference(self):
        tables = [
            run_time_series(small_config("time-series", betas=(math.inf, 2.0, 0.0), samples_per_period=_CHUNK)),
            run_beta_sweep(small_config("beta-sweep", range_=SweepRange(1e-6, 1e3, _CHUNK + 3, log=True))),
            run_lloyd(small_config("lloyd", range_=SweepRange(0.05, 50.0, 9, log=True))),
        ]
        for table in tables:
            assert first_difference(written(table.to_csv), reference_csv(table)) is None
            assert first_difference(written(table.to_json), reference_json(table)) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "time-series", "--omega", "0.5", "--beta", "inf", "--beta", "2", "--beta", "0", "--samples", "16"],
            ["--mode", "beta-sweep", "--range", "0.1:10:9:log", "--format", "json"],
        ],
        ids=["csv", "json"],
    )
    def test_stdout_and_out_file_agree(self, argv, tmp_path, capsys):
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        path = tmp_path / "table"
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes() == stdout.encode()


# values the pass proves in neither style: the zeros, the infinities, NaN, the '%.17g' tie 2^-25 (repr's
# interval ends fall within the guard there too), a subnormal, and magnitudes outside [1e-280, 1e280)
UNPROVEN = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 2.0**-25, 5e-324, 1e300, -1e-300])


def unproven_table(n: int, where: int, every_row: bool) -> SweepTable:
    """Three float columns of proven values, with column where unproven in every row or in every seventh."""
    rng = np.random.default_rng([n, where])
    values = [rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n) for _ in range(3)]
    picked = slice(None) if every_row else slice(where, None, 7)
    values[where][picked] = np.resize(UNPROVEN, len(values[where][picked]))
    return SweepTable.of(columns=[("a", "1"), ("b", "1"), ("c", "1")], values=values)


def test_unproven_values_prove_in_neither_style():
    assert not _g17.digits17(UNPROVEN)[2].any() and not _g17.shortest(UNPROVEN)[2].any()


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("every_row", [False, True], ids=["some-rows", "every-row"])
def test_unproven_cells_in_every_column_position(n, where, every_row):
    # Python's text fills an unproven cell's slot up to its separator; the last JSON column has none
    table = unproven_table(n, where, every_row)
    assert first_difference(written(table.to_csv), reference_csv(table)) is None
    assert first_difference(written(table.to_json), reference_json(table)) is None


# the longest texts of a double, 24 bytes in both styles: one the array pass proves, and one below 1e-280 that it
# leaves to Python's text
WIDEST = np.array([-1.2345678901234567e-100, -2.2250738585072014e-308, 1.5])


@pytest.mark.parametrize("json_", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
def test_widest_cells_in_every_column_position(json_, where):
    # a widest text fills its slot up to the separator's byte; the last JSON cell has no separator
    assert [len(c) for c in python_cells(WIDEST, json_)] == [24, 24, 3]
    assert (_g17.shortest if json_ else _g17.digits17)(WIDEST)[2].tolist() == [True, False, True]
    cols = [np.array([0.25, -3.0, 7e10]), np.array([-1e-5, 2.5e300, 1e16])]
    cols.insert(where, WIDEST)
    lead, between, end, last_sep = (part.decode() for part in sweep._LAYOUTS[json_])
    rows = zip(*(python_cells(c, json_) for c in cols))
    want = "".join(lead + ("," + between).join(row) + last_sep + end for row in rows)
    assert _g17.rows(cols, json_, sweep._LAYOUTS[json_], bytearray()).decode() == want


class TestTableShape:
    def test_ragged_columns_raise(self):
        with pytest.raises(ValueError, match="equal length"):
            SweepTable.of(columns=[("a", "1"), ("b", "1")], values=[np.arange(3.0), np.arange(5.0)])

    @pytest.mark.parametrize("pairs", [1, 3])
    def test_column_count_mismatch_raises(self, pairs):
        with pytest.raises(ValueError, match="pairs for 2 columns"):
            SweepTable.of(columns=[("a", "1"), ("b", "1"), ("c", "1")][:pairs], values=[np.arange(3.0), np.arange(3.0)])

    def test_missing_column_is_named(self):
        table = SweepTable.of(columns=[("a", "1"), ("b", "1")], values=[np.arange(3.0), np.arange(3.0)])
        with pytest.raises(ValueError, match=r"no column named 'zz'; the columns are \['a', 'b'\]"):
            table.column("zz")

    def test_zero_rows(self):
        table = SweepTable.of(columns=[("a", "1"), ("b", "bool")], values=[np.empty(0), np.empty(0, dtype=bool)])
        assert written(table.to_csv) == "a (1),b (bool)\n" == reference_csv(table)
        assert written(table.to_json) == reference_json(table)


class RecordingText(io.StringIO):
    """A text stream that records the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


class RecordingFile(io.BufferedWriter):
    """A binary file that records the size of every write."""

    def __init__(self, path):
        super().__init__(io.FileIO(path, "w"))
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


class Discard(io.RawIOBase):
    """A binary stream that counts the bytes written to it and keeps none."""

    size = 0

    def writable(self):
        return True

    def write(self, data):
        self.size += len(data)
        return len(data)


def chunk_bound(table: SweepTable, reference) -> int:
    """The size of the reference text of the largest _CHUNK rows, with the header and the tail around them."""
    n = table.length
    parts = [SweepTable.of(table.columns, [v[i : i + _CHUNK] for v in table.values], table.metadata) for i in range(0, n, _CHUNK)]
    return max(len(reference(t)) for t in parts or [table])


class TestStreaming:
    """Tables go to the stream _CHUNK rows a write: no write holds more than one chunk with the header or tail."""

    TABLES = {
        "short": lambda: feature_table(_CHUNK - 1),
        "chunk": lambda: feature_table(_CHUNK),
        "chunk+1": lambda: feature_table(_CHUNK + 1),
        "2chunks+1": lambda: feature_table(2 * _CHUNK + 1),
        # the beta=inf and beta=0 columns are bitwise identical in each chunk
        "time-series": lambda: run_time_series(
            small_config("time-series", betas=(math.inf, 2.0, 0.0), samples_per_period=_CHUNK + 1)
        ),
    }

    def check(self, table, writer, sizes, text):
        reference = {"to_csv": reference_csv, "to_json": reference_json}[writer]
        assert first_difference(text, reference(table)) is None
        assert max(sizes) <= chunk_bound(table, reference)
        if table.length > _CHUNK:
            assert chunk_bound(table, reference) < len(text)

    @pytest.mark.parametrize("writer", ["to_csv", "to_json"])
    @pytest.mark.parametrize("make", TABLES.values(), ids=TABLES.keys())
    def test_binary_file(self, make, writer, tmp_path):
        table = make()
        with RecordingFile(tmp_path / "table") as fh:
            getattr(table, writer)(fh)
        self.check(table, writer, fh.sizes, (tmp_path / "table").read_bytes().decode())

    @pytest.mark.parametrize("writer", ["to_csv", "to_json"])
    @pytest.mark.parametrize("make", TABLES.values(), ids=TABLES.keys())
    def test_text_stream(self, make, writer):
        table, buf = make(), RecordingText()
        getattr(table, writer)(buf)
        self.check(table, writer, buf.sizes, buf.getvalue())

    @pytest.mark.parametrize("writer", ["to_csv", "to_json"])
    def test_captured_stdout(self, writer, capsys, monkeypatch):
        table, sizes = self.TABLES["time-series"](), []
        write = sys.stdout.write
        monkeypatch.setattr(sys.stdout, "write", lambda text: sizes.append(len(text)) or write(text))
        getattr(table, writer)(sys.stdout)
        self.check(table, writer, sizes, capsys.readouterr().out)

    def test_peak_memory_does_not_grow_with_rows(self):
        # beyond the columns, writing holds one chunk's arrays and bytes, whatever the row count
        peaks = []
        for n in (4 * _CHUNK, 16 * _CHUNK):
            x = np.random.default_rng(n).normal(size=(5, n)) * 10.0 ** np.arange(-2, 3)[:, None]
            table, sink = SweepTable.of(columns=[(f"x{i}", "1") for i in range(5)], values=list(x)), Discard()
            tracemalloc.start()
            table.to_csv(sink)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0] and peaks[1] < sink.size / 2

    def test_time_series_peak_memory_does_not_grow_with_rows(self):
        # the time series evaluates each chunk of rows as it writes it: of its columns only the times are held
        feature_table(2).to_csv(Discard())  # _g17's tables are built on the first write
        peaks = []
        for n in (4 * _CHUNK, 16 * _CHUNK):
            p = PhysicalParams(omega=0.5, beta=2.0)
            cfg = small_config("time-series", params=p, betas=(math.inf, 0.3, 2.0, 0.0), range_=SweepRange(0.0, 2.0 * p.period, n))
            tracemalloc.start()
            run_time_series(cfg).to_csv(Discard())
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    @pytest.mark.parametrize("writer", ["to_csv", "to_json"])
    def test_reused_chunk_buffer_leaves_no_stale_bytes(self, writer):
        # the chunks alternate between long exponent-form cells and short fixed-form ones, and column y is
        # constant, so written into the row layout, in every other chunk: each chunk's rows are wider or
        # narrower than the last's, and the last chunk is partial
        n = 5 * _CHUNK + 3
        odd = np.arange(n) // _CHUNK % 2 == 1
        long = np.random.default_rng(5).normal(size=n) * 1e-200
        x = np.where(odd, np.arange(n) % 7 * 0.25, long)
        table = SweepTable.of([("x", "1"), ("y", "1"), ("positive", "bool")], [x, np.where(odd, 1.5, long[::-1]), x > 0])
        reference = {"to_csv": reference_csv, "to_json": reference_json}[writer]
        assert first_difference(written(getattr(table, writer)), reference(table)) is None


def test_values_whose_log10_rounds_across_a_decade_fall_back():
    # just below 10^k log10 may round up to k (1e-7 gives -7): s + r then lies a decade off, and the pass falls back
    grid = np.logspace(-12, 3, 4096)
    powers = np.array([float(f"1e{q}") for q in range(-280, 280)])
    x = np.concatenate([grid, powers])
    across = np.floor(np.log10(x)) != [Decimal(v).adjusted() for v in x.tolist()]
    assert across.any()
    assert (~_g17.digits17(x)[2] == across).all()
    # repr adds its own fallback at 1e16, in [2^53, 1e17), where both ends of its interval are integers on the
    # scaled axis
    assert (~_g17.shortest(x)[2] == across | (x == 1e16)).all()
    assert mismatches(x) == []
    assert mismatches(x, json_=True) == []


def python_cells(x: np.ndarray, json_: bool = False) -> list:
    """Python's own cells: '%.17g' % x, or for JSON repr(x) with the string "inf" for +-inf and NaN for NaN."""
    if not json_:
        return ["%.17g" % v for v in x.tolist()]
    return ['"inf"' if math.isinf(v) else "NaN" if math.isnan(v) else repr(v) for v in x.tolist()]


def cells(x: np.ndarray, json_: bool = False) -> list:
    """The cells _g17.rows writes for each x, one str each, read through the CSV row layout."""
    return _g17.rows([np.asarray(x, dtype=float)], json_, sweep._LAYOUTS[0], bytearray()).decode().split("\n")[:-1]


def mismatches(x: np.ndarray, json_: bool = False) -> list:
    """The first few (value, array cell, Python cell) where the cells of _g17.rows differ from python_cells."""
    got, want = cells(x, json_), python_cells(x, json_)
    assert len(got) == len(want)
    return [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w][:5]


def with_neighbours(x: np.ndarray) -> np.ndarray:
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


# a double from its sign, biased exponent and mantissa fields: the exponent 0 gives the zeros and the
# subnormals, 2047 the infinities and the NaNs
_DOUBLE_BITS = st.tuples(st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1)).map(
    lambda f: f[0] << 63 | f[1] << 52 | f[2]
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(bits=st.lists(_DOUBLE_BITS, min_size=1, max_size=40))
@example(bits=[0, 1 << 63, 0x7FF << 52, 0xFFF << 52, 0x7FF8 << 48, 0xFFF8 << 48, 1, (1 << 63) | 1, 2**52 - 1])
def raw_bits_match(json_, bits):
    # a function, not a method: hypothesis runs a method given to two subclasses as two differing executors
    assert mismatches(np.array(bits, dtype=np.uint64).view(np.float64), json_) == []


class CellSuite:
    """Every float cell is Python's text of its value, byte for byte, whether the array pass or the fallback
    writes it: '%.17g' % x in CSV, repr(x) in JSON.  A subclass sets the style."""

    json_: bool
    seed: int

    def test_raw_bit_patterns(self):
        raw_bits_match(self.json_)

    def test_uniform_bit_patterns(self):
        bits = np.random.default_rng(self.seed).integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
        assert mismatches(bits.view(np.float64), self.json_) == []

    def test_powers_of_two(self):
        # the double below a power of two is half as far as the one above it
        assert mismatches(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))), self.json_) == []

    def test_powers_of_ten(self):
        # 10^q and its two neighbours, where floor(log10 |x|) may round to the next power
        assert mismatches(with_neighbours(np.array([float(f"1e{q}") for q in range(-300, 300)])), self.json_) == []

    def test_dyadic_fractions(self):
        # k * 2^-j has an exact decimal expansion of up to j digits, so 17-digit rounding meets exact ties
        x = (np.arange(1, 1025)[:, None] * np.ldexp(1.0, -np.arange(61))).ravel()
        if not self.json_:
            assert np.count_nonzero(~_g17.digits17(x)[2]) > 1000  # the ties and their near misses
        assert mismatches(np.concatenate([x, -x]), self.json_) == []

    def test_integers_near_two_to_the_53(self):
        # from 2^53 to 1e17 both ends of repr's interval are integers on the scaled axis: the guard band takes them
        ints = np.arange(2**53 - 1000, 2**53 + 1000).astype(float)
        assert mismatches(np.concatenate([ints * 2.0**j for j in range(5)]), self.json_) == []

    def test_every_fixed_and_exponent_form(self):
        # each k from -6 to 20 and beyond, with every count of kept digits from 1 to 17
        digits = np.array([int("123456789" * 2) // 10 ** (17 - m) * 10 ** (17 - m) for m in range(1, 18)], dtype=float)
        x = (digits[:, None] * 10.0 ** (np.arange(-300, 300) - 16.0)).ravel()
        assert mismatches(with_neighbours(x), self.json_) == []


class TestExactCells(CellSuite):
    """The CSV style, '%.17g' % x, and the digits17 pass behind it."""

    json_, seed = False, 11

    def test_tie_falls_back(self):
        # 2^-25 = 2.98023223876953125e-08 has 18 digits and ends in 5: round half to even gives ...812
        x = np.array([2.0**-25, 1.5, 0.1])
        assert _g17.digits17(x)[2].tolist() == [False, True, True]
        assert cells(x) == ["2.9802322387695312e-08", "1.5", "0.10000000000000001"]

    def test_array_pass_writes_the_time_series(self):
        # the fallback is a guard for single values, not a second writer
        table = run_time_series(small_config("time-series", betas=(math.inf, 2.0), samples_per_period=_CHUNK))
        x = np.concatenate(table.values)
        exact = _g17.digits17(x)[2]
        assert np.count_nonzero(~exact) <= np.count_nonzero(x == 0.0) + 2
        assert mismatches(x) == []


def repr_candidates(x: float) -> int:
    """How many decimals with as many digits as repr(x) lie strictly between x's midpoints to its neighbours."""
    lo = (Fraction(x) + Fraction(math.nextafter(x, -math.inf))) / 2
    hi = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    unit = Fraction(10) ** Decimal(repr(x)).as_tuple().exponent
    return math.ceil(hi / unit) - math.floor(lo / unit) - 1


class TestShortestCells(CellSuite):
    """The JSON style, repr(x), and the shortest pass behind it."""

    json_, seed = True, 12

    def test_repr_switches(self):
        # fixed notation through k = 15, an integral fixed value with '.0', and the sign of zero
        x = np.array([9999999999999998.0, 1e16, 0.0001, 0.00001, 100.0, -0.0, 123456789012345.6, 1.5e-5, -2.5])
        want = ["9999999999999998.0", "1e+16", "0.0001", "1e-05", "100.0", "-0.0", "123456789012345.6", "1.5e-05", "-2.5"]
        assert cells(x, json_=True) == want

    def test_several_candidates(self):
        # 16 and 17 digits with two or more candidates of that length between the midpoints: repr takes the nearest
        x = np.random.default_rng(13).uniform(8.0, 10.0, 4000) * 10.0 ** np.arange(-20, 20).repeat(100)
        several = [v for v in x.tolist() if repr_candidates(v) >= 2]
        sixteen = [v for v in several if len(Decimal(repr(v)).as_tuple().digits) == 16]
        assert len(sixteen) > 100 and len(several) - len(sixteen) > 100
        assert mismatches(np.array(several), json_=True) == []

    def test_array_pass_writes_the_sweeps(self):
        # on a sweep's columns the fallback is a guard for single values, not a second writer
        table = run_beta_sweep(small_config("beta-sweep", range_=SweepRange(1e-12, 1e3, _CHUNK, log=True)))
        x = np.concatenate(table.values)
        assert np.count_nonzero(~_g17.shortest(x)[2]) <= len(x) // 1000
        assert mismatches(x, json_=True) == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: run_beta_sweep(
            small_config("beta-sweep", params=PhysicalParams(omega=1.0), range_=SweepRange(1e-300, 1e3, _CHUNK + 1, log=True))
        ),
        lambda: run_omega_sweep(small_config("omega-sweep", range_=SweepRange(1e-2, 1e2, _CHUNK + 1, log=True))),
        lambda: feature_table(_CHUNK + 1),
    ],
    ids=["beta-sweep", "omega-sweep", "constant-nan-inf"],
)
def test_json_bytes_equal_the_repr_writer(make):
    # json.dumps writes each float cell as repr(x)
    table = make()
    assert first_difference(written(table.to_json), reference_json(table)) is None


class TestVerify:
    def test_report_passes(self):
        report = run_verify(small_config("verify", fock_dim=60))
        failing = [c for c in report.checks if not c.passed]
        assert report.passed, failing
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert len(doc["checks"]) >= 6

    @pytest.mark.parametrize(
        "argv",
        [["--mass", "1e-9"], ["--omega", "1e17", "--omega-ref", "1e17"], ["--hbar", "1e-9"]],
        ids=["mass-1e-9", "omega-1e17", "hbar-1e-9"],
    )
    def test_covariance_check_is_scale_free(self, argv, capsys):
        assert main(["--mode", "verify", *argv]) == 0
        check = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}["covariance oracle vs closed form"]
        assert check["max_deviation"] < 1e-12

    def test_covariance_check_catches_relative_error(self, monkeypatch):
        def perturbed(t, params):
            g_1p, g_1m, g_2 = covariance_g(t, params)
            return g_1p, g_1m * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6]]), g_2

        monkeypatch.setattr(sweep, "covariance_g", perturbed)
        report = run_verify(small_config("verify", params=PhysicalParams(mass=1e-9, omega=0.5, beta=2.0), fock_dim=60))
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["covariance oracle vs closed form"]

    def test_landau_checks_make_one_call_each(self, monkeypatch):
        calls = {"laguerre_norm_integral": 0, "wavefunction_gram": 0}

        def counted(name):
            exact = getattr(landau, name)

            def wrapper(*args):
                calls[name] += 1
                return exact(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(landau, name, counted(name))
        assert run_verify(small_config("verify", fock_dim=60)).passed
        assert calls == {"laguerre_norm_integral": 1, "wavefunction_gram": 1}

    def test_default_report_has_no_warnings(self, capsys):
        assert main(["--mode", "verify"]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == []

    @pytest.mark.parametrize("omega_ref", ["1e-100", "1e-40", "1e40", "1e100"])
    def test_passes_at_extreme_frequency_ratio(self, omega_ref, capsys):
        # C grows with |ln(omega_ref/omega)|, to 330 here; the complex step's error does not grow with it
        assert main(["--mode", "verify", "--omega-ref", omega_ref]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["rate vs complex step (relative)"]["max_deviation"] <= 1e-13

    @pytest.mark.parametrize("omega_ref", ["0.1", "0.5", "2"])
    def test_passes_where_omega_equals_omega_ref(self, omega_ref, capsys):
        # one omega of the rate checks' grid equals omega_ref, so u = 0 there: both rates and both complex steps are
        # exactly 0, and the checks' floor of 1e-3 on the reference makes the relative deviation 0, not 0/0 = NaN
        p = PhysicalParams(omega=float(omega_ref), omega_ref=float(omega_ref))
        ts = np.linspace(0.05, 0.95, 6) * p.period
        for rate in (complexity_rate, _complex_step_rate, high_T_rate_limit, _high_T_complex_step_rate):
            assert np.all(rate(ts, p) == 0.0)
        assert main(["--mode", "verify", "--omega-ref", omega_ref]) == 0

    def test_truncation_warnings_reach_the_report(self, capsys):
        assert main(["--mode", "verify", "--fock-dim", "8"]) == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        found = doc["warnings"]
        assert any("truncation norm deficit" in w for w in found)
        assert len(found) == len(set(found))
        assert captured.err == ""
        # a check that cannot survive a small truncation fails here, as in CI
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["covariance oracle vs closed form"]


class TestEvaluatedOnce:
    """Each table is evaluated once, as it is written: the command line reads back only ready arrays."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--mode", "lloyd", "--omega", "0.5", "--range", "0.1:10:5:log"], 0),
            (["--mode", "lloyd", "--omega", "1", "--omega-ref", "1e12", "--range", "0.2:0.35:4"], 3),
        ],
        ids=["satisfied", "violated"],
    )
    def test_lloyd_check_runs_once(self, argv, code, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(sweep, "lloyd_check", lambda params: calls.append(params) or lloyd_check(params))
        assert main(argv) == code
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_time_series_kernel_runs_once_per_chunk(self, fmt, monkeypatch, tmp_path):
        # three chunks, and one curve with a finite beta > 0: beta = 0 takes the closed-form limit, and the
        # constant columns of beta = inf are evaluated once
        calls = []
        kernel = sweep._kernel
        monkeypatch.setattr(sweep, "_kernel", lambda t, params: calls.append(len(t)) or kernel(t, params))
        argv = ["--mode", "time-series", "--beta", "inf", "--beta", "1", "--beta", "0", "--range", f"0:10:{2 * _CHUNK + 1}"]
        assert main([*argv, "--format", fmt, "--out", str(tmp_path / "table")]) == 0
        assert sorted(calls) == [1, _CHUNK, _CHUNK]


def argv_of(config: dict) -> list:
    """The command line that a table's config header records; an infinite beta is the string "inf" there."""
    argv = ["--mode", config["mode"]]
    for key in ("omega", "omega_ref", "hbar", "mass"):
        argv += ["--" + key.replace("_", "-"), repr(config[key])]
    for beta in config["betas"]:
        argv += ["--beta", str(beta)]
    if "range" in config:
        r = config["range"]
        argv += ["--range", f"{r['start']!r}:{r['stop']!r}:{r['count']}" + (":log" if r["log"] else "")]
    return argv + ["--samples", str(config["samples_per_period"]), "--fock-dim", str(config["fock_dim"])]


class TestCli:
    def run_cli(self, *argv, **kw):
        return main(list(argv)), kw

    def test_time_series_stdout(self, capsys):
        code = main(["--mode", "time-series", "--omega", "0.5", "--beta", "1", "--samples", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# ")
        assert "complexity[beta=1]" in out

    def test_beta_inf_token(self, capsys):
        code = main(["--mode", "time-series", "--beta", "inf", "--samples", "4"])
        assert code == 0
        assert "complexity[beta=inf]" in capsys.readouterr().out

    def test_out_file_and_json(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        code = main(
            [
                "--mode",
                "beta-sweep",
                "--range",
                "0.1:10:5:log",
                "--format",
                "json",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
        assert len(doc["rows"]) == 5

    def test_usage_error_bad_mode(self, capsys):
        assert main(["--mode", "banana"]) == 1

    def test_usage_error_bad_range(self, capsys):
        assert main(["--mode", "beta-sweep", "--range", "1:2"]) == 1

    def test_usage_error_missing_mode(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv, fmt",
        [
            (["--mode", "time-series", "--omega", "0.5", "--beta", "inf", "--beta", "1", "--beta", "0", "--samples", "16"], "csv"),
            # no --beta: the sweep runs at the first default beta, inf
            (["--mode", "beta-sweep", "--omega", "0.3", "--range", "0.1:10:9:log"], "json"),
            (["--mode", "omega-sweep", "--beta", "5", "--mass", "2", "--range", "1e-2:1e2:7"], "csv"),
        ],
        ids=["time-series", "beta-sweep", "omega-sweep"],
    )
    def test_config_header_reruns_the_table(self, argv, fmt, capsys):
        assert main([*argv, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            header = json.loads(out)["metadata"]["config"]
        else:
            header = next(ln for ln in out.splitlines() if ln.startswith("# config="))[len("# config=") :]
        assert main([*argv_of(json.loads(header)), "--format", fmt]) == 0
        assert capsys.readouterr().out == out

    def test_lloyd_exit_zero(self, capsys):
        code = main(["--mode", "lloyd", "--omega", "0.5", "--range", "0.1:10:5:log"])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied (bool)" in out

    def test_lloyd_violation(self, capsys):
        # at omega_ref / omega = 1e12 the rate passes the bound at beta = 0.25 and 0.3 (README "The Lloyd bound")
        argv = ["--mode", "lloyd", "--omega", "1", "--omega-ref", "1e12", "--range", "0.2:0.35:4"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert [ln.split()[0] for ln in captured.err.splitlines()] == ["Lloyd", "beta=0.25", "beta=0.3"]
        rows = [ln.split(",") for ln in captured.out.splitlines() if not ln.startswith("#")][1:]
        assert [r[3] for r in rows] == ["1", "0", "0", "1"]
        assert main([*argv, "--format", "json"]) == 3
        captured = capsys.readouterr()
        # the bool slot of each row, mixed within the chunk
        assert json.dumps([r[3] for r in json.loads(captured.out)["rows"]]) == "[true, false, false, true]"
        assert [ln.split()[0] for ln in captured.err.splitlines()] == ["Lloyd", "beta=0.25", "beta=0.3"]

    def test_lloyd_violation_at_high_temperature(self, capsys):
        # at omega / omega_ref = 1e153 the maximum rate lies near omega t = e^{-|u|}, and it passes the bound
        # at every beta (README "The Lloyd bound")
        argv = ["--mode", "lloyd", "--omega", "1", "--omega-ref", "1e-153", "--range", "1e-12:1e-10:5:log"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        want = ["beta=1e-12", "beta=3.16228e-12", "beta=1e-11", "beta=3.16228e-11", "beta=1e-10"]
        assert [ln.split()[0] for ln in captured.err.splitlines()] == ["Lloyd", *want]
        rows = [ln.split(",") for ln in captured.out.splitlines() if not ln.startswith("#")][1:]
        assert [r[3] for r in rows] == ["0"] * 5

    def test_shared_parser_leaks_nothing_between_calls(self, monkeypatch, tmp_path):
        # main parses every call with one parser per process: one call's appended --beta must not reach the next
        configs = []
        monkeypatch.setattr(cli, "run_time_series", lambda config: configs.append(config) or run_time_series(config))
        argv = ["--mode", "time-series", "--samples", "4", "--out", str(tmp_path / "table.csv")]
        assert [main([*argv, "--beta", "2"]), main(argv), main([*argv, "--beta", "3"])] == [0, 0, 0]
        assert [c.betas for c in configs] == [(2.0,), SweepConfig.betas, (3.0,)]
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("mode", MODES)
    def test_defaults_are_the_dataclass_defaults(self, mode):
        config = cli._config_from_args(cli.build_parser().parse_args(["--mode", mode]))
        assert config == SweepConfig(mode, params=PhysicalParams(beta=config.params.beta))
        # and pinned as values, so that no flag default moves unnoticed
        d = config.to_dict()
        names = ("hbar", "mass", "omega", "omega_ref", "beta", "betas", "samples_per_period", "fock_dim")
        assert [d[k] for k in names] == [1.0, 1.0, 0.1, 1.0, "inf", ["inf", 1.0, 0.0], 256, 60]

    def test_verify_exit_zero(self, capsys):
        code = main(["--mode", "verify", "--fock-dim", "60"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "verify", "--fock-dim", "200"],
            ["--mode", "verify", "--fock-dim", "1"],
            ["--mode", "time-series", "--samples", "-3"],
            ["--mode", "time-series", "--samples", "0"],
            ["--mode", "time-series", "--beta", "-2"],
            ["--mode", "time-series", "--beta", "nan"],
            ["--mode", "beta-sweep", "--range", "1e-2:1e320:3:log"],
            ["--mode", "beta-sweep", "--range=-1:1:3"],
            ["--mode", "omega-sweep", "--beta", "0"],
            ["--mode", "time-series", "--omega", "1e-320"],
            ["--mode", "time-series", "--omega", "1", "--beta", "1e-310", "--samples", "2"],
            ["--mode", "time-series", "--omega", "1e-310", "--omega-ref", "1e-310"],
            ["--mode", "time-series", "--omega", "1e-310", "--omega-ref", "1e-310", "--beta", "inf"],
            ["--mode", "time-series", "--beta", "1", "--beta", "1e-310", "--omega", "1"],
            ["--mode", "lloyd", "--hbar", "1e-300", "--omega", "1e-300"],
            ["--mode", "verify", "--hbar", "1e-300", "--omega", "1e-300"],
            ["--mode", "time-series", "--omega", "1e-305", "--beta", "inf"],
            *OVERSIZED,
        ],
        ids=[
            "fock-dim-200",
            "fock-dim-1",
            "samples-3",
            "samples-0",
            "beta-2",
            "beta-nan",
            "range-overflow",
            "range-negative",
            "omega-sweep-beta-0",
            "omega-ratio-overflow",
            "beta-hbar-omega-subnormal",
            "omega-1e-310",
            "period-overflow",
            "second-beta-subnormal",
            "lloyd-grid-subnormal",
            "verify-hbar-omega-underflow",
            "omega-ratio-beyond-e700",
            "samples-1e17",
            "samples-1e18",
            "beta-sweep-count-1e18",
            "lloyd-count-1e17",
        ],
    )
    def test_bad_input_is_one_line_usage_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    @pytest.mark.parametrize("mode", ["lloyd", "verify"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_one_line_usage_error(self, mode, where, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        assert main(["--mode", mode, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_unwritable_out_from_a_fresh_process(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "landau_tfd.cli", "--mode", "lloyd", "--out", str(out)], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: [Errno 2] No such file or directory: '{out}'"]

    def test_zero_temperature_is_silent(self, capsys):
        assert main(["--mode", "time-series", "--omega", "1", "--beta", "inf", "--samples", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_overflowing_beta_hbar_omega_is_silent(self, capsys):
        # beta*hbar overflows to inf, the zero-temperature limit
        assert main(["--mode", "beta-sweep", "--hbar", "1e300", "--range", "1:1e10:3"]) == 0
        assert capsys.readouterr().err == ""

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "landau_tfd.cli", "--mode", "time-series", "--samples", "4", "--beta", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "complexity[beta=2]" in proc.stdout


# a float option's text: an ordinary value, an extreme, subnormal or non-finite one, or any double
_NUMBER = st.one_of(
    st.floats(1e-3, 1e3).map(repr),
    st.sampled_from(["0", "-1", "1e-17", "1e-300", "1e-310", "1e300", "inf", "-inf", "nan", "x"]),
    st.floats().map(repr),
)
_OPTIONS = {
    "--omega": _NUMBER,
    "--omega-ref": _NUMBER,
    "--hbar": _NUMBER,
    "--mass": _NUMBER,
    "--samples": st.integers(-3, 64).map(str),
    "--fock-dim": st.integers(-1, 64).map(str),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--range": st.tuples(_NUMBER, _NUMBER, st.integers(-1, 64), st.sampled_from(["", ":log", ":lin"])).map(
        lambda r: f"{r[0]}:{r[1]}:{r[2]}{r[3]}"
    ),
}


@st.composite
def _argv(draw):
    argv = ["--mode", draw(st.sampled_from([*MODES, "banana"]))]
    for opt in draw(st.lists(st.sampled_from(sorted(_OPTIONS)), unique=True, max_size=4)):
        argv.append(f"{opt}={draw(_OPTIONS[opt])}")
    argv += [f"--beta={b}" for b in draw(st.lists(_NUMBER, max_size=3))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=200)
@given(argv=_argv())
@example(argv=["--mode", "verify", "--hbar", "1e-300", "--omega", "1e-300"])
@example(argv=OVERSIZED[0])
@example(argv=OVERSIZED[1])
@example(argv=OVERSIZED[2])
@example(argv=OVERSIZED[3])
def test_cli_never_raises(argv):
    """Any argv returns a documented exit code and raises nothing.

    Every count drawn is <= 64, so runs stay small; the oversized examples
    ask for more memory than any address space, so numpy refuses them at once.
    """
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
