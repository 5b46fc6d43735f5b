"""Sweep drivers, table serialization, and the command-line interface."""

import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landau_tfd import (
    PhysicalParams,
    SweepConfig,
    SweepRange,
    complexity,
    complexity_rate,
    high_T_rate_limit,
    oscillation_amplitude,
    run_beta_sweep,
    run_lloyd,
    run_omega_sweep,
    run_time_series,
    run_verify,
)
from landau_tfd.cli import main
from landau_tfd.sweep import MODES


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
    def test_roundtrip(self):
        cfg = small_config("beta-sweep", range_=SweepRange(0.1, 10.0, 7, log=True))
        again = SweepConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_roundtrip_infinite_beta(self):
        cfg = small_config(
            "time-series",
            params=PhysicalParams(omega=0.5, omega_ref=1.0, beta=math.inf),
            betas=(math.inf, 0.0),
        )
        again = SweepConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            SweepConfig(mode="banana")


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
            assert r == high_T_rate_limit(t, p.omega, p.omega_ref)
        assert "beta0_note" in table.metadata

    def test_metadata_echoes_config(self):
        cfg = small_config("time-series")
        table = run_time_series(cfg)
        assert SweepConfig.from_dict(json.loads(table.metadata["config"])) == cfg


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
                    assert (c, r) == (math.inf, high_T_rate_limit(t, p.omega, p.omega_ref))
                else:
                    pb = p.with_(beta=beta)
                    assert (c, r) == (complexity(t, pb), complexity_rate(t, pb))

    def test_beta_sweep_bit_for_bit(self):
        cfg = small_config("beta-sweep", range_=SweepRange(1e-3, 1e3, 40, log=True))
        table = run_beta_sweep(cfg)
        half = math.pi / (2.0 * cfg.params.omega)
        for beta, c, amp in zip(*(table.column(n) for n in ("beta", "complexity_half_period", "amplitude"))):
            pb = cfg.params.with_(beta=float(beta))
            assert (c, amp) == (complexity(half, pb), oscillation_amplitude(pb))


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
        lines = table.to_csv().splitlines()
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
        assert run_beta_sweep(cfg).to_csv() == run_beta_sweep(cfg).to_csv()

    def test_csv_full_precision(self):
        table = run_time_series(small_config("time-series", betas=(2.0,)))
        lines = table.to_csv().splitlines()
        first = [ln for ln in lines if not ln.startswith("#")][1]
        val = float(first.split(",")[1])
        assert val == table.column("complexity[beta=2]")[0]

    def test_json_loadable_with_inf(self):
        table = run_time_series(small_config("time-series", betas=(0.0,)))
        doc = json.loads(table.to_json())
        assert doc["rows"][0][1] == "inf"
        assert [c["name"] for c in doc["columns"]] == [c[0] for c in table.columns]


class TestVerify:
    def test_report_passes(self):
        report = run_verify(small_config("verify", fock_dim=60))
        failing = [c for c in report.checks if not c.passed]
        assert report.passed, failing
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert len(doc["checks"]) >= 6


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

    def test_lloyd_exit_zero(self, capsys):
        code = main(["--mode", "lloyd", "--omega", "0.5", "--range", "0.1:10:5:log"])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied (bool)" in out

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
        ],
    )
    def test_bad_input_is_one_line_usage_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    def test_zero_temperature_is_silent(self, capsys):
        assert main(["--mode", "time-series", "--omega", "1", "--beta", "inf", "--samples", "4"]) == 0
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
def test_cli_never_raises(argv):
    """Any argv returns a documented exit code and raises nothing; every count drawn is <= 64, so runs stay small."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
