"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion. The whole module
runs in well under a minute.
"""

import math
import warnings

import numpy as np

from landau_tfd import (
    LN6,
    PhysicalParams,
    SweepConfig,
    SweepRange,
    asymptotic_amplitude,
    asymptotic_complexity,
    complexity,
    complexity_rate,
    covariance_g,
    laguerre_norm_integral,
    ladder_action_check,
    lloyd_check,
    oracle_covariance_1pm,
    oscillation_amplitude,
    relative_spectrum,
    run_beta_sweep,
    run_lloyd,
    run_omega_sweep,
    run_time_series,
    wavefunction_gram,
)
from landau_tfd.complexity import _complex_step_rate


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {description} {detail}"


def _params(omega: float, beta: float, omega_ref: float = 1.0) -> PhysicalParams:
    return PhysicalParams(hbar=1.0, mass=1.0, omega=omega, omega_ref=omega_ref, beta=beta)


def test_criterion_01_zero_temperature_equal_frequency():
    p = _params(omega=1.0, beta=math.inf)
    devs = [abs(complexity(t, p) - LN6) for t in (0.0, 0.7, 3.3, 12.0)]
    ok = max(devs) < 1e-12 and round(LN6, 3) == 1.792
    _report(1, "zero-temperature equal-frequency complexity = ln 6", ok, f"max dev {max(devs):.1e}")


def test_criterion_02_zero_temperature_general_value():
    worst = 0.0
    for omega in (0.1, 2.0):
        p = _params(omega=omega, beta=math.inf)
        want = math.sqrt(LN6**2 + 2.0 * math.log(1.0 / omega) ** 2)
        for t in (0.0, 1.1, 5.0):
            worst = max(worst, abs(complexity(t, p) - want))
    _report(2, "zero-temperature complexity closed form at unequal frequencies", worst < 1e-12, f"max dev {worst:.1e}")


def test_criterion_03_exact_rational_spectrum():
    p = _params(omega=0.5, beta=2.0 * math.log(2.0) / 0.5)
    _, spec = relative_spectrum(0.0, p)
    want = (1.0 / 6.0, 6.0, 2.0 / 3.0, 1.5, 1.0 / 3.0, 1.0 / 12.0, 1.0 / 3.0, 1.0 / 12.0)
    spec_dev = max(abs(e - w) for e, w in zip(spec, want))
    comp_dev = abs(complexity(0.0, p) - 2.31911)
    ok = spec_dev < 1e-12 and comp_dev < 1e-5
    _report(3, "exact-rational spectrum and pinned complexity value", ok, f"spectrum dev {spec_dev:.1e}, complexity dev {comp_dev:.1e}")


def test_criterion_04_fock_oracle_equivalence():
    p = _params(omega=0.5, beta=1.0)
    worst = 0.0
    for bho in (1.0, 2.0, 4.0):
        pb = p.with_(beta=bho / (p.hbar * p.omega))
        for t in np.linspace(0.0, pb.period, 9):
            g_p, g_m = oracle_covariance_1pm(t, pb, dim=60)
            closed_p, closed_m, _ = covariance_g(t, pb)
            worst = max(worst, np.max(np.abs(g_p - closed_p)), np.max(np.abs(g_m - closed_m)))
    _report(4, "truncated-Fock covariance oracle matches closed form", worst < 1e-8, f"max entry dev {worst:.1e}")


def test_criterion_05_rate_vs_complex_step():
    worst = 0.0
    count = 0
    for bhw in (0.5, 2.0, 8.0):
        for omega in (0.1, 0.5, 2.0):
            p = _params(omega=omega, beta=bhw / omega)
            for frac in np.linspace(0.03, 0.97, 12):
                t = frac * p.period
                analytic = complexity_rate(t, p)
                ref = _complex_step_rate(t, p)
                worst = max(worst, abs(analytic - ref) / max(abs(ref), 1e-9))
                count += 1
    ok = worst < 1e-12 and count >= 100
    _report(5, "analytic rate vs its complex-step derivative", ok, f"{count} points, max rel dev {worst:.1e}")


def test_criterion_06_invariant_suites():
    rng = np.random.default_rng(11)
    ok = True
    details = []

    # periodicity
    dev = 0.0
    for _ in range(25):
        omega = rng.uniform(0.05, 3.0)
        p = _params(omega=omega, beta=rng.uniform(0.1, 20.0))
        t = rng.uniform(0.0, 10.0)
        dev = max(dev, abs(complexity(t + math.pi / omega, p) - complexity(t, p)))
    ok &= dev < 1e-12
    details.append(f"periodicity {dev:.1e}")

    # mass invariance
    dev = 0.0
    base = _params(omega=0.5, beta=2.0)
    for m in (0.1, 1.0, 10.0):
        pm = PhysicalParams(hbar=1.0, mass=m, omega=0.5, omega_ref=1.0, beta=2.0)
        for t in (0.0, 0.9, 2.7):
            dev = max(dev, abs(complexity(t, pm) - complexity(t, base)))
            dev = max(dev, abs(complexity_rate(t, pm) - complexity_rate(t, base)))
    ok &= dev < 1e-13
    details.append(f"mass invariance {dev:.1e}")

    # reciprocal pairs
    dev = 0.0
    for _ in range(25):
        p = _params(omega=rng.uniform(0.05, 3.0), beta=rng.uniform(0.05, 20.0))
        _, e = relative_spectrum(rng.uniform(0.0, 10.0), p)
        dev = max(dev, abs(e[0] * e[1] - 1.0), abs(e[2] * e[3] - 1.0))
        dev = max(dev, abs(e[4] * e[5] - 1.0 / 36.0), abs(e[6] * e[7] - 1.0 / 36.0))
    ok &= dev < 1e-12
    details.append(f"reciprocal pairs {dev:.1e}")

    # swap symmetry of the time-dependent quadruple under t -> period - t
    dev = 0.0
    for _ in range(25):
        p = _params(omega=rng.uniform(0.05, 3.0), beta=rng.uniform(0.1, 10.0))
        t = rng.uniform(0.0, p.period)
        e_t = np.sort(relative_spectrum(t, p)[1][:4])
        e_s = np.sort(relative_spectrum(p.period - t, p)[1][:4])
        dev = max(dev, float(np.max(np.abs(e_t - e_s))))
    ok &= dev < 1e-10
    details.append(f"swap symmetry {dev:.1e}")

    _report(6, "periodicity, mass-invariance, reciprocal-pair, swap-symmetry invariants", bool(ok), "; ".join(details))


def test_criterion_07_lloyd_bound():
    ok = True
    for omega in (0.1, 0.5, 2.0):
        cfg = SweepConfig(
            mode="lloyd",
            params=_params(omega=omega, beta=1.0),
            range_=SweepRange(1e-2, 1e2, 25, log=True),
        )
        table = run_lloyd(cfg)
        ok &= bool(np.all(table.column("satisfied") == 1.0))
    _report(7, "Lloyd bound satisfied across 25 temperatures and 3 frequencies", bool(ok))


def test_criterion_08_amplitude_limits():
    ok = True
    details = []
    # high-temperature: the saturation value carries a logarithmic correction,
    # so compare against the two-term expansion
    for omega in (0.1, 2.0):
        p = _params(omega=omega, beta=1e-5 / omega)
        want = asymptotic_amplitude("high_T", p)
        rel = abs(oscillation_amplitude(p) - want) / want
        ok &= rel < 0.01
        details.append(f"high-T rel dev {rel:.1e} at omega={omega}")
    # low-temperature suppression
    p = _params(omega=0.5, beta=20.0 / 0.5)
    amp = oscillation_amplitude(p)
    ok &= amp < 1e-7
    details.append(f"low-T amplitude {amp:.1e}")
    _report(8, "oscillation-amplitude limits at high and low temperature", bool(ok), "; ".join(details))


def test_criterion_09_asymptotic_regime_agreement():
    ok = True
    details = []
    # low temperature: deviation bounded by the next-order term
    worst = 0.0
    for omega in (0.1, 0.5, 2.0):
        p = _params(omega=omega, beta=10.0 / omega)
        for t in np.linspace(0.0, p.period, 9):
            worst = max(worst, abs(complexity(t, p) - asymptotic_complexity("low_T", t, p)))
    bound = 5.0 * math.exp(-20.0)
    ok &= worst <= bound
    details.append(f"low-T dev {worst:.1e} <= {bound:.1e}")
    # high temperature: monotone convergence
    devs = []
    for bhw in (1e-3, 1e-4, 1e-5):
        p = _params(omega=0.5, beta=bhw / 0.5)
        devs.append(max(abs(complexity(t, p) - asymptotic_complexity("high_T", t, p)) for t in (0.3, 1.7, 2.9)))
    ok &= devs[0] > devs[1] > devs[2]
    details.append("high-T devs " + " > ".join(f"{d:.1e}" for d in devs))
    _report(9, "asymptotic expansions agree at low and high temperature", bool(ok), "; ".join(details))


def test_criterion_10_quantization_suite():
    ok = True
    details = []

    dev = 0.0
    for ell in range(5):
        for n in range(5):
            for m in range(5):
                got = laguerre_norm_integral(n, m, ell)
                want = math.exp(math.lgamma(n + ell + 1) - math.lgamma(n + 1)) if n == m else 0.0
                dev = max(dev, abs(got - want))
    ok &= dev < 1e-9
    details.append(f"orthogonality {dev:.1e}")

    p = _params(omega=0.5, beta=1.0)
    states = np.array([(n, ell) for n in range(5) for ell in range(-n, 5 - n) if n + abs(ell) <= 4])
    gram = wavefunction_gram(states[:, 0], states[:, 1], p)
    dev = float(np.max(np.abs(gram - np.eye(len(states)))))
    ok &= dev < 1e-12
    details.append(f"gram {dev:.1e}")

    cases = [
        (0, 0, "a_dagger", 1.0),
        (1, 0, "a_dagger", math.sqrt(2.0)),
        (0, 1, "b_dagger", math.sqrt(2.0)),
        (1, 1, "b_dagger", math.sqrt(3.0)),
        (2, 0, "a", math.sqrt(2.0)),
        (1, 1, "b", math.sqrt(2.0)),
    ]
    dev = max(abs(ladder_action_check(n, ell, which, p) - want) for n, ell, which, want in cases)
    ok &= dev < 1e-11
    details.append(f"ladder {dev:.1e}")

    _report(10, "Landau-level quantization suite (orthogonality, Gram, ladder)", bool(ok), "; ".join(details))


def test_criterion_11_figure_reproduction():
    ok = True
    details = []

    # time series at the figure defaults: minima at t = m*period, maxima near
    # half-period, zero-temperature curve constant at the closed-form floor
    cfg = SweepConfig(
        mode="time-series",
        params=_params(omega=0.1, beta=1.0),
        betas=(math.inf, 1.0, 0.0),
        samples_per_period=128,
    )
    table = run_time_series(cfg)
    ts = table.column("t")
    period = cfg.params.period
    floor = math.sqrt(LN6**2 + 2.0 * math.log(10.0) ** 2)
    c_inf = table.column("complexity[beta=inf]")
    ok &= bool(np.max(np.abs(c_inf - floor)) < 1e-12)
    c1 = table.column("complexity[beta=1]")
    first_period = ts < period
    argmin_t = ts[first_period][np.argmin(c1[first_period])]
    argmax_t = ts[first_period][np.argmax(c1[first_period])]
    ok &= min(argmin_t, abs(argmin_t - period)) < period / 64
    ok &= abs(argmax_t - period / 2.0) < period / 64
    r1 = table.column("rate[beta=1]")
    ok &= abs(r1[0]) < 1e-10
    details.append(f"time-series argmin {argmin_t / period:.3f}T argmax {argmax_t / period:.3f}T")

    # beta sweep at omega = 2: monotone complexity, amplitude below and near
    # its saturation value at the hot end, closed-form floor at the cold end
    cfg = SweepConfig(
        mode="beta-sweep",
        params=_params(omega=2.0, beta=1.0),
        range_=SweepRange(1e-6, 1e3, 48, log=True),
    )
    table = run_beta_sweep(cfg)
    comp = table.column("complexity_half_period")
    amp = table.column("amplitude")
    ok &= bool(np.all(np.diff(comp) <= 1e-14))
    saturation = math.log(5.0 / 4.0)
    ok &= bool(np.all(amp < saturation))
    ok &= abs(amp[0] - saturation) / saturation < 0.1
    cold_floor = math.sqrt(LN6**2 + 2.0 * math.log(0.5) ** 2)
    ok &= abs(comp[-1] - cold_floor) < 1e-10
    details.append(f"beta-sweep hot amplitude {amp[0]:.4f} vs saturation {saturation:.4f}")

    # omega sweep: sqrt(2) log growth at the stiff end, amplitude vanishing
    # there and unbounded toward omega -> 0
    cfg = SweepConfig(
        mode="omega-sweep",
        params=_params(omega=0.1, beta=5.0),
        range_=SweepRange(1e-2, 1e2, 48, log=True),
    )
    table = run_omega_sweep(cfg)
    omegas = table.column("omega")
    comp = table.column("complexity_half_period")
    amp = table.column("amplitude")
    ok &= abs(comp[-1] / (math.sqrt(2.0) * math.log(omegas[-1])) - 1.0) < 0.1
    ok &= amp[-1] < 1e-3
    ok &= comp[0] > comp[len(comp) // 2] and amp[0] > amp[len(amp) // 2]
    details.append(f"omega-sweep stiff-end ratio {comp[-1] / (math.sqrt(2.0) * math.log(omegas[-1])):.3f}")

    # lloyd table: satisfied everywhere with strict separation
    cfg = SweepConfig(
        mode="lloyd",
        params=_params(omega=0.1, beta=1.0),
        range_=SweepRange(1e-2, 1e2, 25, log=True),
    )
    table = run_lloyd(cfg)
    ok &= bool(np.all(table.column("satisfied") == 1.0))
    ok &= bool(np.all(table.column("max_rate") < table.column("bound")))
    details.append("lloyd separation strict")

    _report(11, "figure-style tables reproduce the qualitative features", bool(ok), "; ".join(details))


if __name__ == "__main__":
    import sys

    import pytest

    sys.exit(pytest.main([__file__, "-v", "-s"]))
