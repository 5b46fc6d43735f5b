"""Closed-form engine: TFD parameters, spectrum, complexity, rate, asymptotics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from landau_tfd import (
    LN6,
    PhysicalParams,
    alpha_of,
    asymptotic_amplitude,
    asymptotic_complexity,
    complexity,
    complexity_rate,
    covariance_g,
    high_T_rate_limit,
    internal_energy,
    lloyd_check,
    oscillation_amplitude,
    relative_spectrum,
)
from landau_tfd.complexity import _complex_step_rate

BHW2LN2 = 2.0 * math.log(2.0)


def params_with(bhw: float, omega: float = 0.5, omega_ref: float = 1.0, mass: float = 1.0) -> PhysicalParams:
    beta = math.inf if math.isinf(bhw) else bhw / omega
    return PhysicalParams(hbar=1.0, mass=mass, omega=omega, omega_ref=omega_ref, beta=beta)


class TestAlpha:
    def test_zero_temperature(self):
        assert alpha_of(params_with(math.inf)) == (0.0, 1.0, 0.0)

    def test_bhw_2ln2(self):
        alpha, cosh2a, sinh2a = alpha_of(params_with(BHW2LN2))
        assert alpha == pytest.approx(0.5 * math.log(3.0), rel=1e-14)
        assert cosh2a == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert sinh2a == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_bhw_4ln2(self):
        _, cosh2a, sinh2a = alpha_of(params_with(4.0 * math.log(2.0)))
        assert cosh2a == pytest.approx(17.0 / 15.0, rel=1e-14)
        assert sinh2a == pytest.approx(8.0 / 15.0, rel=1e-14)

    def test_hyperbolic_identity(self):
        for bhw in (0.01, 0.5, 3.0, 20.0):
            _, cosh2a, sinh2a = alpha_of(params_with(bhw))
            # the difference of squares loses ~eps * cosh^2 in absolute terms
            tol = 1e-15 * max(cosh2a**2, 1.0)
            assert cosh2a**2 - sinh2a**2 == pytest.approx(1.0, abs=100 * tol)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            PhysicalParams(beta=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(beta=-1.0)


class TestThermodynamics:
    def test_internal_energy_ground_state(self):
        p = params_with(math.inf, omega=0.7)
        assert internal_energy(p) == pytest.approx(p.hbar * p.omega / 2.0)

    def test_internal_energy_value(self):
        p = params_with(BHW2LN2, omega=1.0)
        assert internal_energy(p) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_internal_energy_classical_limit(self):
        p = params_with(0.01, omega=1.0)
        assert internal_energy(p) == pytest.approx(1.0 / p.beta, rel=0.01)


class TestCovariance:
    def test_vacuum_at_zero_temperature(self):
        p = params_with(math.inf, omega=0.5, mass=1.3)
        mw = p.mass * p.omega
        g_1p, g_1m, _ = covariance_g(0.0, p)
        assert np.allclose(g_1p, np.diag([1.0 / mw, mw]), atol=1e-15)
        assert np.allclose(g_1m, np.diag([1.0 / mw, mw]), atol=1e-15)

    def test_t0_values(self):
        g_1p, _, _ = covariance_g(0.0, params_with(BHW2LN2))
        assert np.allclose(g_1p, np.diag([6.0, 1.0 / 6.0]), atol=1e-14)

    def test_t0_exponential_form(self):
        p = params_with(1.7, mass=2.0)
        alpha, _, _ = alpha_of(p)
        mw = p.mass * p.omega
        g_1p, g_1m, _ = covariance_g(0.0, p)
        assert np.allclose(g_1p, np.diag([math.exp(2 * alpha) / mw, mw * math.exp(-2 * alpha)]), rtol=1e-12)
        assert np.allclose(g_1m, np.diag([math.exp(-2 * alpha) / mw, mw * math.exp(2 * alpha)]), rtol=1e-12)

    def test_b_sector_block(self):
        p = params_with(1.0, mass=0.7)
        mw = p.mass * p.omega
        _, _, g_2 = covariance_g(1.1, p)
        assert np.allclose(g_2, np.diag([1.0 / (6.0 * mw), mw / 6.0]))

    def test_positive_definite_blocks(self):
        for t in (0.0, 0.9, 2.5):
            for blk in covariance_g(t, params_with(0.3)):
                assert np.all(np.linalg.eigvalsh(blk) > 0)


class TestSpectrum:
    def test_exact_rationals(self):
        (a_plus, a_minus), e = relative_spectrum(0.0, params_with(BHW2LN2))
        assert a_plus == pytest.approx(37.0 / 12.0, abs=1e-12)
        assert a_minus == pytest.approx(13.0 / 12.0, abs=1e-12)
        want = (1 / 6, 6.0, 2 / 3, 3 / 2, 1 / 3, 1 / 12, 1 / 3, 1 / 12)
        assert np.allclose(e, want, atol=1e-12)

    def test_equal_frequency(self):
        p = params_with(BHW2LN2, omega=1.0)
        alpha, cosh2a, _ = alpha_of(p)
        for t in (0.0, 0.4, 2.0):
            a, e = relative_spectrum(t, p)
            assert a[0] == pytest.approx(cosh2a, rel=1e-14)
            assert e[1] == pytest.approx(math.exp(2 * alpha), rel=1e-12)
            assert e[0] == pytest.approx(math.exp(-2 * alpha), rel=1e-12)

    def test_reciprocal_pairs(self):
        for bhw in (0.05, 1.0, 10.0):
            for t in (0.0, 0.7, 3.0):
                _, e = relative_spectrum(t, params_with(bhw))
                assert e[0] * e[1] == pytest.approx(1.0, abs=1e-12)
                assert e[2] * e[3] == pytest.approx(1.0, abs=1e-12)
                assert e[4] * e[5] == pytest.approx(1.0 / 36.0, abs=1e-12)
                assert e[6] * e[7] == pytest.approx(1.0 / 36.0, abs=1e-12)

    def test_b_sector_eigenvalues(self):
        _, e = relative_spectrum(0.0, params_with(1.0))
        assert e[4] == pytest.approx(1.0 / 3.0)
        assert e[5] == pytest.approx(1.0 / 12.0)

    def test_a_never_below_one(self):
        for bhw in (1e-4, 1.0, 50.0):
            for t in np.linspace(0.0, 7.0, 13):
                (a_plus, a_minus), _ = relative_spectrum(t, params_with(bhw, omega=2.0))
                assert a_plus >= 1.0
                assert a_minus >= 1.0


class TestComplexity:
    def test_equal_freq_zero_temperature(self):
        p = params_with(math.inf, omega=1.0)
        for t in (0.0, 1.3, 11.0):
            assert complexity(t, p) == pytest.approx(LN6, abs=1e-12)

    def test_equal_freq_finite_temperature(self):
        p = params_with(BHW2LN2, omega=1.0)
        want = math.sqrt(LN6**2 + math.log(3.0) ** 2)
        assert complexity(0.6, p) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(2.1017494989605643, abs=1e-12)

    def test_pinned_unequal_freq_value(self):
        assert complexity(0.0, params_with(BHW2LN2)) == pytest.approx(2.31911, abs=1e-5)

    def test_zero_temperature_floor(self):
        for omega in (0.1, 2.0):
            p = params_with(math.inf, omega=omega)
            want = math.sqrt(LN6**2 + 2.0 * math.log(1.0 / omega) ** 2)
            for t in (0.0, 2.0, 9.0):
                assert complexity(t, p) == pytest.approx(want, abs=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            omega = rng.uniform(0.05, 3.0)
            p = params_with(rng.uniform(0.1, 5.0), omega=omega)
            t = rng.uniform(0.0, 10.0)
            assert complexity(t + math.pi / omega, p) == pytest.approx(complexity(t, p), abs=1e-12)

    def test_mass_invariance(self):
        base = params_with(1.3, mass=1.0)
        for m in (0.1, 10.0):
            p = params_with(1.3, mass=m)
            for t in (0.0, 0.9):
                assert abs(complexity(t, p) - complexity(t, base)) <= 1e-13
                assert abs(complexity_rate(t, p) - complexity_rate(t, base)) <= 1e-13

    def test_time_independence_equal_freq(self):
        p = params_with(2.2, omega=1.0)
        assert complexity(0.4, p) == complexity(1.9, p)

    def test_time_independence_zero_temperature(self):
        p = params_with(math.inf)
        assert complexity(0.3, p) == complexity(2.8, p)

    def test_swap_symmetry(self):
        # cos(wt) -> -cos(wt) exchanges the two time-dependent pairs
        p = params_with(0.8)
        period = p.period
        for t in (0.2, 0.9, 1.4):
            e_t = sorted(relative_spectrum(t, p)[1][:4])
            e_s = sorted(relative_spectrum(period - t, p)[1][:4])
            assert np.allclose(e_t, e_s, rtol=1e-12, atol=1e-12)

    def test_half_period_monotone_in_beta(self):
        p0 = params_with(1.0, omega=2.0)
        half = math.pi / (2.0 * p0.omega)
        betas = np.logspace(-2, 2, 40)
        vals = [complexity(half, p0.with_(beta=b)) for b in betas]
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))


class TestRate:
    def test_equal_freq_is_zero(self):
        p = params_with(1.0, omega=1.0)
        for t in (0.0, 0.7, 3.1):
            assert complexity_rate(t, p) == 0.0

    def test_zero_temperature_is_zero(self):
        p = params_with(math.inf)
        assert complexity_rate(1.1, p) == 0.0

    def test_extrema_are_stationary(self):
        p = params_with(1.0)
        assert complexity_rate(0.0, p) == pytest.approx(0.0, abs=1e-14)
        assert complexity_rate(math.pi / (2.0 * p.omega), p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_complex_step(self):
        # the grid includes t = T/2, where both rates are rounding noise below 1e-16
        for bhw in (0.5, 2.0, 8.0):
            for omega in (0.1, 0.5, 2.0):
                p = params_with(bhw, omega=omega)
                for frac in np.linspace(0.05, 0.95, 7):
                    t = frac * p.period
                    assert complexity_rate(t, p) == pytest.approx(_complex_step_rate(t, p), rel=1e-12, abs=1e-15)

    def test_high_temperature_limit(self):
        # convergence in beta*hbar*omega is only logarithmic, so check the
        # deviation from the limit shrinks monotonically as T grows
        omega = 0.1
        t = math.pi / (4.0 * omega)
        lim = high_T_rate_limit(t, params_with(1.0, omega=omega))
        devs = []
        for bhw in (1e-2, 1e-3, 1e-4, 1e-5):
            p = params_with(bhw, omega=omega)
            devs.append(abs(complexity_rate(t, p) - lim))
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.11 * lim


class TestHighTRateLimit:
    def test_equal_frequency_zero(self):
        for t in (0.0, 1.0, 4.2):
            assert high_T_rate_limit(t, PhysicalParams(omega=0.7, omega_ref=0.7)) == 0.0

    def test_zero_at_t0(self):
        assert high_T_rate_limit(0.0, PhysicalParams(omega=0.5, omega_ref=1.0)) == 0.0

    def test_pinned_value(self):
        # direct substitution: (1/2)*0.5*0.75^2*1 / (1.25^2 - 0.75^2/2)
        got = high_T_rate_limit(math.pi / 2.0, PhysicalParams(omega=0.5, omega_ref=1.0))
        assert got == pytest.approx(0.140625 / 1.28125, rel=1e-14)

    def test_invalid_frequency(self):
        # high_T_rate_limit reads its frequencies from PhysicalParams, which rejects these
        for field in ("omega", "omega_ref"):
            for value in (-1.0, 0.0, math.nan):
                with pytest.raises(ValueError):
                    PhysicalParams(**{field: value})


class TestAmplitude:
    def test_equal_freq_zero(self):
        assert oscillation_amplitude(params_with(1.0, omega=1.0)) == 0.0

    def test_zero_temperature_zero(self):
        assert oscillation_amplitude(params_with(math.inf)) == pytest.approx(0.0, abs=1e-14)

    def test_high_temperature_saturation(self):
        p = params_with(1e-7, omega=2.0)
        lim = math.log((1.0 + 4.0) / (2.0 * 2.0))
        amp = oscillation_amplitude(p)
        assert 0.0 < amp < lim
        # the leading correction to the saturation value is logarithmic
        assert amp == pytest.approx(asymptotic_amplitude("high_T", p), rel=1e-3)

    def test_low_temperature_suppression(self):
        assert oscillation_amplitude(params_with(20.0)) < 1e-7


def _max_error_over_period(regime: str, ratio: float, bhws) -> np.ndarray:
    """max over 33 times of one period of |asymptotic - exact| at omega/omega_ref = ratio, one per bhw."""
    p = PhysicalParams(omega=ratio, omega_ref=1.0, beta=np.asarray(bhws)[:, None] / ratio)
    ts = np.linspace(0.0, p.period, 33)
    return np.abs(asymptotic_complexity(regime, ts, p) - complexity(ts, p)).max(axis=1)


def _slope(x, err) -> float:
    return np.polyfit(x, np.log(err), 1)[0]


class TestAsymptotics:
    def test_low_T_zero_temperature(self):
        p = params_with(math.inf, omega=0.1)
        want = math.sqrt(LN6**2 + 2.0 * math.log(10.0) ** 2)
        assert asymptotic_complexity("low_T", 0.0, p) == pytest.approx(want, abs=1e-14)

    def test_equal_freq_low_T_limit(self):
        # at omega = omega_ref, low_T is the equal-frequency form ln 6 + 2 e^{-beta hbar omega} / ln 6, bit for bit
        ts = np.linspace(0.0, 10.0, 50)
        for bhw in (1.5, 2.0, 5.0, 20.0, 50.0, math.inf):
            got = asymptotic_complexity("low_T", ts, params_with(bhw, omega=1.0))
            np.testing.assert_array_equal(got, LN6 + 2.0 * np.exp(-bhw) / LN6)
        assert asymptotic_complexity("low_T", 0.0, params_with(math.inf, omega=1.0)) == LN6

    def test_low_T_agreement_bound(self):
        # deviation from the exact value is bounded by the next order, e^{-2 beta hbar omega}
        for bhw in (5.0, 8.0, 12.0):
            for omega in (0.5, 2.0):
                p = params_with(bhw, omega=omega)
                base = math.sqrt(LN6**2 + 2.0 * math.log(p.omega_ref / omega) ** 2)
                for t in (0.0, 0.9, 2.0):
                    dev = abs(complexity(t, p) - asymptotic_complexity("low_T", t, p))
                    assert dev <= 5.0 * math.exp(-2.0 * bhw) * (2.0 / base) * 4.0

    @pytest.mark.parametrize("ratio", [0.3, 3.0])
    def test_low_T_error_order(self, ratio):
        # error O(e^{-2 beta hbar omega}): ln err falls with slope -2 in beta hbar omega
        bhws = np.linspace(4.0, 12.0, 9)
        err = _max_error_over_period("low_T", ratio, bhws)
        assert -2.1 <= _slope(bhws, err) <= -1.9
        assert np.all((0.4 < err * np.exp(2.0 * bhws)) & (err * np.exp(2.0 * bhws) < 0.5))
        p = PhysicalParams(omega=ratio, omega_ref=1.0, beta=bhws / ratio)
        err = np.abs(asymptotic_amplitude("low_T", p) - oscillation_amplitude(p))
        assert -2.1 <= _slope(bhws, err) <= -1.9
        assert np.all((0.02 < err * np.exp(2.0 * bhws)) & (err * np.exp(2.0 * bhws) < 0.03))

    @pytest.mark.parametrize("ratio", [0.3, 3.0])
    def test_high_T_error_order(self, ratio):
        # error O(1/L^2) with L = ln(4 / beta hbar omega): ln err falls with slope -2 in ln L
        bhws = np.logspace(-16, -256, 13)
        big_l = np.log(4.0 / bhws)
        err = _max_error_over_period("high_T", ratio, bhws)
        assert -2.1 <= _slope(np.log(big_l), err) <= -1.9
        assert np.all(err * big_l**2 < 1.6)
        bhws = np.logspace(-32, -300, 13)
        big_l = np.log(4.0 / bhws)
        p = PhysicalParams(omega=ratio, omega_ref=1.0, beta=bhws / ratio)
        err = np.abs(asymptotic_amplitude("high_T", p) - oscillation_amplitude(p))
        assert -2.1 <= _slope(np.log(big_l), err) <= -1.9

    def test_high_T_converges(self):
        devs = []
        for bhw in (1e-3, 1e-4, 1e-5):
            p = params_with(bhw)
            devs.append(abs(complexity(0.8, p) - asymptotic_complexity("high_T", 0.8, p)))
        assert devs[0] > devs[1] > devs[2]

    def test_high_T_never_worse_than_leading_order(self):
        # the 1/L term only helps: against L + ln(1 + y^2)/2 alone, on a grid inside beta hbar omega e^{|u|} <= 0.1
        ratio, bhw, frac = np.meshgrid(np.logspace(-8, 8, 17), np.logspace(-300, math.log10(0.5), 23), np.linspace(0.0, 1.0, 9))
        inside = bhw * np.maximum(ratio, 1.0 / ratio) <= 0.1
        ratio, bhw, frac = ratio[inside], bhw[inside], frac[inside]
        p = PhysicalParams(omega=ratio, omega_ref=1.0, beta=bhw / ratio)
        t = frac * p.period
        exact = complexity(t, p)
        u = np.log(1.0 / ratio)
        leading = -np.log(bhw) + np.log(4.0 * np.hypot(1.0, np.sinh(u) * np.sin(ratio * t)))
        err = np.abs(asymptotic_complexity("high_T", t, p) - exact)
        assert inside.sum() > 1000
        assert np.all(err <= np.abs(leading - exact))
        assert np.all(err <= 0.09 * exact)

    def test_high_T_finite_at_extreme_frequency_ratio(self):
        ts = np.array([0.0, 1e-300, 0.25, 0.5, 1.0, 2.0, 7.3])[:, None] * math.pi
        for ratio in (math.exp(-700.0), math.exp(700.0), math.exp(-699.9)):
            p = PhysicalParams(omega=1.0, omega_ref=ratio, beta=1e-306)
            assert np.all(np.isfinite(asymptotic_complexity("high_T", ts, p)))
            with pytest.warns(RuntimeWarning, match="outside the high_T regime"):
                assert np.all(np.isfinite(asymptotic_complexity("high_T", ts, p.with_(beta=0.5))))

    def test_equal_freq_high_T(self):
        # at omega = omega_ref, high_T is the equal-frequency form L + ln^2 6 / (2L), to 4 ulp
        bhws = np.logspace(-300, -0.5, 200)
        lead = np.log(4.0 / bhws)
        want = lead + LN6 * LN6 / (2.0 * lead)
        for t in (0.0, 0.7, math.pi):
            got = asymptotic_complexity("high_T", t, PhysicalParams(omega=1.0, omega_ref=1.0, beta=bhws))
            assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))
        p = params_with(1e-6, omega=1.0)
        assert complexity(0.0, p) == pytest.approx(asymptotic_complexity("high_T", 0.0, p), rel=1e-3)

    def test_high_freq(self):
        # low_T at omega >> omega_ref beats its own leading term expanded in 1/|u|
        p = params_with(5.0, omega=50.0)
        expanded = math.sqrt(2.0) * math.log(50.0) + LN6**2 / (2.0 * math.sqrt(2.0) * math.log(50.0))
        got, exact = asymptotic_complexity("low_T", 0.0, p), complexity(0.0, p)
        assert abs(got - exact) < abs(expanded - exact) / 100.0
        assert exact == pytest.approx(got, rel=1e-5)

    def test_low_freq(self):
        # high_T at omega << omega_ref beats the leading-order low-frequency form
        p = params_with(1e-4, omega=0.01)
        t = 0.3 * p.period
        s, c = math.sin(p.omega * t), math.cos(p.omega * t)
        low_freq = -math.log(1e-4) + math.log(2.0 * math.sqrt(s * s + 2e-4 * (1.0 + c * c)) / 0.01)
        got, exact = asymptotic_complexity("high_T", t, p), complexity(t, p)
        assert abs(got - exact) < abs(low_freq - exact)
        assert exact == pytest.approx(got, rel=0.03)

    def test_regime_mismatch_warns(self):
        with pytest.warns(RuntimeWarning, match="outside the"):
            asymptotic_complexity("low_T", 0.0, params_with(0.01))
        # high_T needs beta hbar omega e^{|u|} << 1, not just beta hbar omega < 1
        with pytest.warns(RuntimeWarning, match=r"outside the high_T regime .*e\^\{\|u\|\}"):
            asymptotic_complexity("high_T", 0.0, params_with(0.1, omega=1e-3))

    def test_unknown_regime(self):
        # the merged and deleted regimes are unknown too
        for regime in ("medium_T", "equal_freq_low_T", "equal_freq_high_T", "high_freq", "low_freq"):
            with pytest.raises(ValueError, match="unknown regime"):
                asymptotic_complexity(regime, 0.0, params_with(1.0))
            with pytest.raises(ValueError, match="unknown regime"):
                asymptotic_amplitude(regime, params_with(1.0))

    def test_amplitude_low_T(self):
        p = params_with(8.0)
        got = asymptotic_amplitude("low_T", p)
        assert oscillation_amplitude(p) == pytest.approx(got, rel=0.01)

    def test_amplitude_low_T_zero_temperature(self):
        assert asymptotic_amplitude("low_T", params_with(math.inf)) == 0.0

    def test_amplitude_high_T(self):
        p = params_with(1e-5, omega=2.0)
        got = asymptotic_amplitude("high_T", p)
        assert oscillation_amplitude(p) == pytest.approx(got, rel=0.01)

    def test_amplitude_high_T_zero_at_equal_frequency(self):
        # exactly 0 at u = 0 for every beta, as the amplitude is; u^2 / (2 ln beta hbar omega) is 0/0 at 1
        assert asymptotic_amplitude("high_T", params_with(1e-8, omega=1.0)) == 0.0
        with pytest.warns(RuntimeWarning, match="outside the high_T"):
            got = asymptotic_amplitude("high_T", PhysicalParams(omega=1.0, beta=np.array([1e-300, 0.5, 1.0, 4.0, math.inf])))
        np.testing.assert_array_equal(got, 0.0)

    def test_amplitude_high_freq(self):
        # for beta hbar omega >= 3, low_T beats its 1/|u| expansion sqrt(2) e^{-beta hbar omega} (1 - 1/ln(omega/omega_ref))
        for bhw in (3.0, 4.0, 8.0):
            p = params_with(bhw, omega=40.0)
            expanded = math.sqrt(2.0) * math.exp(-bhw) * (1.0 - 1.0 / math.log(40.0))
            exact = oscillation_amplitude(p)
            assert abs(asymptotic_amplitude("low_T", p) - exact) < abs(expanded - exact)
            assert asymptotic_amplitude("low_T", p) == pytest.approx(exact, rel=1.1e-2)


def betas(count: int) -> np.ndarray:
    """count betas: count - 1 log-spaced over [1e-2, 1e2] and inf."""
    return np.r_[np.logspace(-2.0, 2.0, count - 1), math.inf]


# every rate is 0 at beta = inf and at omega = omega_ref, so there the maximum is a tie over the whole half period
LLOYD_CASES = {
    "scalar": PhysicalParams(omega=0.5, beta=2.0),
    "scalar-inf": PhysicalParams(omega=0.5, beta=math.inf),
    "1-beta": PhysicalParams(omega=0.5, beta=np.array([2.0])),
    "7-betas": PhysicalParams(omega=0.3, beta=betas(7)),
    "128-betas": PhysicalParams(omega=2.0, omega_ref=1e-3, beta=betas(128)),
    "1000-betas": PhysicalParams(omega=0.1, beta=betas(1000)),
    "array-omega": PhysicalParams(omega=np.logspace(-2.0, 2.0, 9), beta=betas(7)[:, None]),
    "omega-ref": PhysicalParams(omega=1.0, omega_ref=1.0, beta=betas(128)),
    "violation": PhysicalParams(omega=1.0, omega_ref=1e12, beta=np.linspace(0.2, 0.35, 4)),
}


class TestLloyd:
    @pytest.mark.parametrize("params", LLOYD_CASES.values(), ids=LLOYD_CASES.keys())
    def test_search_beats_a_dense_log_scan(self, params):
        max_rate, bound, argmax_t = lloyd_check(params)
        shape = np.broadcast(params.beta, params.omega).shape
        assert np.shape(max_rate) == np.shape(bound) == np.shape(argmax_t) == shape
        half = np.broadcast_to(0.5 * params.period, shape)
        assert np.all((0.0 < argmax_t) & (argmax_t <= half))
        scan = np.max([np.abs(complexity_rate(t, params)) for t in np.multiply.outer(np.logspace(-320.0, 0.0, 2001), half)], axis=0)
        assert np.all(scan <= max_rate)
        # the rate is 0 at every t at beta = inf and at omega = omega_ref, and the tie gives 0
        flat = np.broadcast_to(np.isinf(params.beta) | (params.omega == params.omega_ref), shape)
        assert np.all(max_rate[flat] == 0.0)

    def test_search_holds_one_rate_per_point(self):
        # each step of the search holds one rate per parameter point and their temporaries
        params = LLOYD_CASES["1000-betas"]
        lloyd_check(params)
        tracemalloc.start()
        lloyd_check(params)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 64 * 1000 * np.dtype(float).itemsize

    def test_zero_temperature(self):
        p = params_with(math.inf, omega=0.5)
        max_rate, bound, _ = lloyd_check(p)
        assert max_rate == 0.0
        assert bound == pytest.approx(p.omega / math.pi)

    def test_equal_frequency(self):
        max_rate, bound, _ = lloyd_check(params_with(1.0, omega=1.0))
        assert max_rate == 0.0 < bound

    def test_satisfied_over_temperatures(self):
        for beta in (0.1, 1.0, 10.0):
            p = PhysicalParams(omega=0.1, omega_ref=1.0, beta=beta)
            max_rate, bound, _ = lloyd_check(p)
            assert max_rate <= bound

    def test_argmax_is_interior_maximum(self):
        p = params_with(0.5)
        max_rate, _, argmax_t = lloyd_check(p)
        assert 0.0 < argmax_t < p.period
        eps = 1e-4 * p.period
        for t in (argmax_t - eps, argmax_t + eps):
            assert abs(complexity_rate(t, p)) <= max_rate + 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_violation_region(self, sign):
        # max_rate / (2U / pi hbar) first exceeds 1 at |ln(omega_ref/omega)| between 27.37 and 27.38,
        # at beta hbar omega near 0.274, for either sign of u: the bound with this U fails beyond it
        bhws = np.linspace(0.2, 0.35, 151)

        def worst(u):
            max_rate, bound, _ = lloyd_check(PhysicalParams(omega=1.0, omega_ref=math.exp(sign * u), beta=bhws))
            ratio = max_rate / bound
            return ratio.max(), bhws[np.argmax(ratio)]

        (below, _), (inside, _), (beyond, at) = worst(27.30), worst(27.37), worst(27.38)
        assert below == pytest.approx(0.999746, abs=1e-6)
        assert below < inside <= 1.0 < beyond
        assert at == pytest.approx(0.274, abs=2e-3)
        assert worst(27.50)[0] == pytest.approx(1.000414, abs=1e-6)
