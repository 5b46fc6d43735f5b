"""The closed forms over the whole physical domain, against the mpmath reference.

The domain is beta hbar omega in [1e-300, inf] and any ratio omega/omega_ref;
``mp_reference`` evaluates the definitions at high precision.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import mp_reference as ref
from landau_tfd import (
    PhysicalParams,
    asymptotic_amplitude,
    complexity,
    complexity_rate,
    lloyd_check,
    oscillation_amplitude,
    relative_spectrum,
)
from landau_tfd.cli import main
from landau_tfd.complexity import LN6, _coth_excess


def params_at(bho: float, omega: float, omega_ref: float = 1.0) -> PhysicalParams:
    return PhysicalParams(omega=omega, omega_ref=omega_ref, beta=bho / omega)


class TestHighTemperatureEdge:
    def test_complexity_and_rate_at_bho_1e_17(self):
        omega = 0.5
        p = params_at(1e-17, omega)
        for t in (0.0, 0.3, 1.1, 2.9, 4.6):
            assert ref.relative_error(complexity(t, p), ref.complexity(t, omega, p.beta)) <= 1e-15
        for t in (0.3, 1.1, 2.9, 4.6):
            assert ref.relative_error(complexity_rate(t, p), ref.complexity_rate(t, omega, p.beta)) <= 1e-12

    @pytest.mark.parametrize("mode", ["time-series", "omega-sweep"])
    def test_cli_beta_1e_17(self, mode, capsys):
        assert main(["--mode", mode, "--beta", "1e-17", "--samples", "4", "--range", "0.1:10:4:log"]) == 0
        assert "nan" not in capsys.readouterr().out

    def test_cli_high_T_rate_limit_at_omega_1e200(self, capsys):
        assert main(["--mode", "time-series", "--omega", "1e200", "--beta", "0", "--samples", "4"]) == 0
        assert "nan" not in capsys.readouterr().out

    def test_relative_spectrum_at_bho_1e_200(self):
        omega = 0.5
        p = params_at(1e-200, omega)
        for t in (0.0, 0.7, 3.0):
            a_pm, e = relative_spectrum(t, p)
            for a, a_ref, e_small, e_big in zip(a_pm, ref.a_values(t, omega, p.beta), e[0:4:2], e[1:4:2]):
                assert ref.relative_error(a, a_ref) <= 1e-13
                assert ref.relative_error(e_big, ref.mp.exp(ref.mp.acosh(a_ref))) <= 1e-12
                assert e_small * e_big == pytest.approx(1.0, rel=1e-15)


class TestExtremeFrequencies:
    @pytest.mark.parametrize(
        "omega, beta", [(1e300, 1.0), (1e-300, 1.0), (1e-300, math.inf)], ids=["1e300", "1e-300", "1e-300-zero-T"]
    )
    def test_complexity_finite(self, omega, beta):
        p = PhysicalParams(omega=omega, omega_ref=1.0, beta=beta)
        for t in (0.0, 0.37 / omega, 1.9 / omega):
            got = complexity(t, p)
            assert math.isfinite(got)
            assert ref.relative_error(got, ref.complexity(t, omega, beta)) <= 1e-15


class TestLowTemperatureRate:
    def test_lloyd_max_rate_at_bho_100(self):
        omega = 0.5
        max_rate, bound, argmax_t = lloyd_check(params_at(100.0, omega))
        assert max_rate > 0.0
        want = abs(ref.complexity_rate(argmax_t, omega, 100.0 / omega))
        assert ref.relative_error(max_rate, want) <= 1e-10
        assert max_rate <= bound


class TestLowTemperatureAmplitude:
    @pytest.mark.parametrize("bho", [10.0, 20.0, 30.0, 40.0, 60.0])
    @pytest.mark.parametrize("omega", [0.1, 0.5, 0.9, 2.0])
    def test_amplitude_matches_mpmath(self, bho, omega):
        # C(T/2) - C(0) is of order exp(-beta hbar omega) against C of order 1;
        # |u| = |ln omega| >= 0.1 for every omega here
        p = params_at(bho, omega)
        assert ref.relative_error(oscillation_amplitude(p), ref.amplitude(omega, p.beta)) <= 1e-12

    def test_amplitude_exactly_zero_at_zero_temperature_equal_frequency(self):
        # every term of the factored form is 0/0 there
        assert oscillation_amplitude(PhysicalParams(omega=1.0, beta=math.inf)) == 0.0


def coth_excess(u: float):
    """u coth u - 1 at 40 digits past its own size, which is about u^2 / 3 below |u| = 1."""
    with mp.workdps(40 + 2 * max(0, -math.floor(math.log10(abs(u))))):
        return mpf(u) * mp.coth(mpf(u)) - 1


# both sides of the series' edge at |u| = 1, and out to where expm1(2|u|) overflows
EXCESS_U = [1e-150, 1e-8, 1e-5, 1e-3, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 30.0, 700.0]


class TestCothExcess:
    @pytest.mark.parametrize("u", EXCESS_U + [-u for u in EXCESS_U])
    def test_within_four_ulps_of_mpmath(self, u):
        # u / tanh u - 1 read 0.0 at u = 1e-8, for 3.3e-17, and was 8.3e-8 relative off at 1e-5
        want = coth_excess(u)
        assert float(abs(mpf(float(_coth_excess(u))) - want)) <= 4 * math.ulp(float(want))

    def test_zero_at_zero(self):
        assert _coth_excess(0.0) == 0.0 and _coth_excess(-0.0) == 0.0

    @pytest.mark.parametrize("u", [1e-8, 1e-5, 1e-3])
    def test_low_T_amplitude_at_small_u(self, u):
        # (2 e^{-beta hbar omega} / c_0) (u coth u - 1) at the u and beta hbar omega the library forms from p
        p = PhysicalParams(omega=1.0, omega_ref=math.exp(u), beta=40.0)
        u = float(np.log(p.omega_ref) - np.log(p.omega))
        with mp.workdps(40):
            want = 2 * mp.exp(-mpf(p.beta)) / mp.sqrt(mpf(LN6) ** 2 + 2 * mpf(u) ** 2) * coth_excess(u)
        assert ref.relative_error(asymptotic_amplitude("low_T", p), want) <= 1e-15


class TestNoFloatingPointWarnings:
    @pytest.mark.parametrize(
        "bho, omega",
        [(math.inf, 0.5), (math.inf, 1.0), (1.0, 1.0), (1e-300, 0.5), (1e-300, 1.0), (1.0, 1e300), (1.0, 1e-300)],
        ids=["zero-T", "zero-T-equal-freq", "equal-freq", "bho-1e-300", "bho-1e-300-equal-freq", "1e300", "1e-300"],
    )
    def test_kernel_is_silent(self, bho, omega):
        p = PhysicalParams(omega=omega, beta=bho / omega)
        ts = np.array([0.0, 0.3, 1.9]) / omega
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (0.0, ts):
                assert np.all(np.isfinite(complexity(t, p)))
                assert np.all(np.isfinite(complexity_rate(t, p)))
            assert math.isfinite(oscillation_amplitude(p))


def draw(rnd) -> tuple:
    """(beta hbar omega, omega, omega_ref): both log-uniform, beta = inf one time in twenty.

    omega = 2^k makes omega t and beta omega exact, so the library sees the
    phase the reference sees: at high temperature and large |u|, C is so
    sensitive to the phase that one rounding of omega t alone would exceed
    the tolerance.
    """
    bho = math.inf if rnd.random() < 0.05 else 10.0 ** rnd.uniform(-300.0, 3.0)
    omega = 2.0 ** rnd.randint(-4, 4)
    return bho, omega, omega / 10.0 ** rnd.uniform(-8.0, 8.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(point=st.randoms(use_true_random=True).map(draw), t=st.floats(-1e6, 1e6))
@example(point=(math.inf, 1.0, 1.0), t=0.7)
@example(point=(1.0, 0.25, 0.25), t=0.7)
@example(point=(math.inf, 16.0, 1e-7), t=0.3)
@example(point=(1e-300, 16.0, 1.6e-7), t=0.3)
@example(point=(600.0, 1.0, 1.1), t=0.4)
def test_matches_mpmath_over_the_domain(point, t):
    """C to 1e-15 everywhere; dC/dt to 1e-12 away from its zeros and from omega = omega_ref.

    beta hbar omega is log-uniform in [1e-300, 1e3] or inf, omega/omega_ref
    log-uniform in [1e-8, 1e8], and t any float in [-1e6, 1e6].  The rate
    is exactly 0 at beta = inf and at omega = omega_ref.
    """
    bho, omega, omega_ref = point
    p = params_at(bho, omega, omega_ref)
    assert ref.relative_error(complexity(t, p), ref.complexity(t, omega, p.beta, omega_ref)) <= 1e-15
    rate = complexity_rate(t, p)
    if math.isinf(bho) or omega == omega_ref:
        assert rate == 0.0
    elif abs(math.log(omega / omega_ref)) >= 0.1 and bho <= 600.0 and abs(math.sin(2.0 * omega * t)) >= 0.05:
        assert ref.relative_error(rate, ref.complexity_rate(t, omega, p.beta, omega_ref)) <= 1e-12


# the Lloyd search at the edges of its domain: equal frequencies, the threshold |u| = 27.38 where the bound
# first fails, and |u| = 700, each at the extremes of beta hbar omega and at 0.274, where the violation is worst;
# the narrow high-temperature peak near omega t = e^{-|u|}; and a point where the best point the search
# evaluated beats the midpoint of its final bracket
_LLOYD_EDGES = [(bho, u) for bho in (1e-300, 1e-3, 0.274, 10.0) for u in (0.0, 27.38, -27.38, 700.0, -700.0)]
_LLOYD_EDGES += [(1e-300, 60.0), (6.5e-12, -352.6), (1e-11, 1e-11)]


def _with_lloyd_edges(test):
    for bho, u in _LLOYD_EDGES:
        test = example(bho=bho, u=u)(test)
    return test


@settings(derandomize=True, max_examples=100, deadline=None)
@given(bho=st.floats(-300.0, 1.0).map(lambda e: 10.0**e), u=st.floats(-700.0, 700.0))
@_with_lloyd_edges
def test_lloyd_search_finds_the_maximum_rate(bho, u):
    """max_rate is the rate at argmax_t to 1e-12, and no point of two fine grids over one period exceeds it.

    omega = 1 and omega_ref = e^u, with beta hbar omega log-uniform in
    [1e-300, 10] and u = ln(omega_ref / omega) uniform in [-700, 700].  One
    grid is linear; the other is log-spaced in t down to 1e-320 T/2, which
    resolves the peak near omega t = e^{-|u|} at high temperature.  The
    bound is not checked: it fails for |u| > 27.38.
    """
    omega_ref = math.exp(u)
    p = params_at(bho, 1.0, omega_ref)
    max_rate, _, argmax_t = lloyd_check(p)
    want = abs(ref.complexity_rate(argmax_t, 1.0, p.beta, omega_ref))
    assert ref.relative_error(max_rate, want) <= 1e-12
    for ts in (np.linspace(0.0, p.period, 65537), 0.5 * p.period * np.logspace(-320.0, 0.0, 20001)):
        assert np.abs(complexity_rate(ts, p)).max() <= max_rate


@pytest.mark.parametrize("u", [-699.0, -150.0, -27.38, -1.0, 1e-3, 0.5, 30.0, 280.0, 699.0])
def test_rate_has_one_maximum_on_half_a_period(u):
    """|dC/dt| rises to one maximum on (0, T/2) and falls, which lloyd_check's golden-section search rests on.

    A log-spaced scan of omega t over [1e-320, 1] pi/2 at omega = 1, for
    beta hbar omega from 1e-300 to 300, where the rate is resolved above
    its rounding.
    """
    ts = 0.5 * math.pi * np.logspace(-320.0, 0.0, 4001)[:, None]
    p = params_at(np.logspace(-300.0, math.log10(300.0), 12), 1.0, math.exp(u))
    steps = np.sign(np.diff(np.abs(complexity_rate(ts, p)), axis=0))
    for row in steps.T:
        row = row[row != 0.0]
        # one run of rises, then one run of falls
        assert row[0] == 1.0 and row[-1] == -1.0 and np.count_nonzero(np.diff(row)) == 1
