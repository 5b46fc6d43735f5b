"""Laguerre polynomials, wavefunctions, and the ladder-operator oracle."""

import ast
import importlib
import math
import pathlib
import re
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad

import landau_tfd
from landau_tfd import landau
from landau_tfd import (
    PhysicalParams,
    ladder_action_check,
    laguerre,
    laguerre_norm_integral,
    length_scale,
    wavefunction,
    wavefunction_gram,
)

PARAMS = PhysicalParams(hbar=1.0, mass=1.0, omega=1.0, omega_ref=1.0, beta=1.0)
# the (n, ell) rows of the states with n + |ell| <= 4
STATES = np.array([(n, ell) for n in range(5) for ell in range(-n, 5 - n) if n + abs(ell) <= 4])


def laguerre_exact(n: int, ell: int, r: Fraction) -> Fraction:
    """Exact-rational finite-sum evaluation, the oracle for the recurrence."""
    total = Fraction(0)
    for j in range(n + 1):
        num = (-1) ** j * math.factorial(n + ell) * r**j
        den = math.factorial(j) * math.factorial(n - j) * math.factorial(ell + j)
        total += Fraction(num, den)
    return total


class TestLaguerre:
    def test_n0_is_one(self):
        for ell in (0, 2, 7):
            for r in (0.0, 0.5, 3.0):
                assert laguerre(0, ell, r) == 1.0

    def test_n1_ell0(self):
        for r in (0.0, 0.25, 2.0):
            assert laguerre(1, 0, r) == pytest.approx(1.0 - r, abs=1e-15)

    def test_pinned_value(self):
        # frozen from the exact rational sum: L_2^{(3)}(1) = 10 - 5 + 1/2
        assert laguerre_exact(2, 3, Fraction(1)) == Fraction(11, 2)
        assert laguerre(2, 3, 1.0) == pytest.approx(5.5, rel=1e-14)

    @pytest.mark.parametrize("r", [Fraction(1, 10), Fraction(1), Fraction(5)])
    def test_recurrence_matches_exact_sum(self, r):
        for n in range(11):
            for ell in range(11):
                want = float(laguerre_exact(n, ell, r))
                got = laguerre(n, ell, float(r))
                assert got == pytest.approx(want, rel=1e-12)

    def test_array_input(self):
        r = np.array([0.1, 1.0, 5.0])
        out = laguerre(3, 2, r)
        assert out.shape == r.shape
        assert out[1] == pytest.approx(laguerre(3, 2, 1.0))

    def test_array_n_and_ell_match_scalar_bits(self):
        r = np.linspace(0.0, 25.0, 41)
        n, ell = np.meshgrid(np.arange(13), np.arange(9), indexing="ij")
        got = laguerre(n[..., None], ell[..., None], r)
        want = np.array([[laguerre(int(a), int(b), r) for a, b in zip(*row)] for row in zip(n, ell)])
        np.testing.assert_array_equal(got, want)

    def test_mixed_n_keeps_scalar_bits_without_overflow(self):
        # n = 1 at r = 1e200 is -1e200; a step past its own n would overflow (pytest turns the warning into an error)
        n, r = np.array([1, 3]), np.array([1e200, 0.1])
        got = laguerre(n, 0, r)
        assert [v.hex() for v in got] == [laguerre(int(a), 0, b).hex() for a, b in zip(n, r)]

    def test_element_overflow_still_warns(self):
        # L_3(1e200) ~ -1e600/6 overflows in the element's own steps
        with pytest.warns(RuntimeWarning, match="overflow"):
            laguerre(np.array([3, 1]), 0, np.array([1e200, 0.1]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(np.array([2, -1]), 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, 0, -0.5)

    @pytest.mark.parametrize(
        "n,r",
        [(3, np.inf), (np.array([1, 3]), np.array([np.inf, 0.1])), (1, np.nan)],
        ids=["inf", "mixed-n-inf", "nan"],
    )
    def test_rejects_non_finite_r(self, n, r):
        # the recurrence meets inf - inf at r = inf and would carry a NaN through
        with pytest.raises(ValueError, match="r must be finite and non-negative"):
            laguerre(n, 0, r)


class TestNormIntegral:
    def test_pure_exponential(self):
        assert laguerre_norm_integral(0, 0, 0) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonality(self):
        assert abs(laguerre_norm_integral(1, 0, 2)) < 1e-12

    def test_gamma_value(self):
        # Gamma(6)/2! = 120/2
        assert laguerre_norm_integral(2, 2, 3) == pytest.approx(60.0, rel=1e-13)

    def test_gamma_formula_grid(self):
        for ell in range(4):
            for n in range(4):
                for m in range(4):
                    want = math.gamma(n + ell + 1) / math.factorial(n) if n == m else 0.0
                    assert laguerre_norm_integral(n, m, ell) == pytest.approx(want, abs=1e-10)

    def test_quadrature_order_overflow(self):
        with pytest.raises(ValueError, match="quadrature order"):
            laguerre_norm_integral(200, 200, 10)
        with pytest.raises(ValueError, match="quadrature order"):
            laguerre_norm_integral(np.array([0, 200]), 200, 10)

    def test_negative_arguments(self):
        with pytest.raises(ValueError):
            laguerre_norm_integral(-1, 0, 0)
        with pytest.raises(ValueError):
            laguerre_norm_integral(np.arange(3), np.arange(-1, 2), 0)

    @pytest.mark.parametrize(
        "nml, bits",
        [
            # the scalar path's values before n, m and ell broadcast
            ((0, 0, 0), "0x1.0000000000000p+0"),
            ((2, 2, 3), "0x1.e00000000000cp+5"),
            ((4, 4, 4), "0x1.a3fffffffffeep+10"),
            ((3, 1, 2), "0x1.9000000000000p-49"),
            ((10, 10, 5), "0x1.5fea000000054p+18"),
            ((4, 3, 0), "-0x1.684ccc53cfc3ap-56"),
            ((7, 7, 0), "0x1.000000000000ep+0"),
        ],
    )
    def test_scalar_bits_pinned(self, nml, bits):
        got = laguerre_norm_integral(*nml)
        assert isinstance(got, float)
        assert got == float.fromhex(bits)

    def test_grid_call_matches_scalar_calls(self):
        # one rule for the whole grid, exact on its largest degree; each scalar call takes the fewest nodes
        ell, n, m = np.ogrid[:5, :5, :5]
        got = laguerre_norm_integral(n, m, ell)
        want = np.array([[[laguerre_norm_integral(b, c, a) for c in range(5)] for b in range(5)] for a in range(5)])
        assert got.shape == (5, 5, 5)
        h = np.vectorize(math.perm)(n + ell, ell).astype(float)  # (n+ell)!/n!
        scale = np.sqrt(h * np.swapaxes(h, 1, 2))
        assert np.max(np.abs(got - want) / scale) < 1e-14


class TestWavefunction:
    def test_origin_value(self):
        lam = length_scale(PARAMS)
        assert lam == pytest.approx(math.sqrt(2.0))
        got = wavefunction(0, 0, 0.0, 0.0, PARAMS)
        assert got == pytest.approx(1.0 / (lam * math.sqrt(math.pi)))

    def test_phase_only_phi_dependence(self):
        for rho in (0.3, 1.1, 2.4):
            mags = {abs(wavefunction(2, 1, rho, phi, PARAMS)) for phi in (0.0, 1.0, 4.5)}
            assert max(mags) - min(mags) < 1e-15

    def test_normalization_by_adaptive_quadrature(self):
        lam = length_scale(PARAMS)

        def density(rho, phi):
            return abs(wavefunction(2, 1, rho, phi, PARAMS)) ** 2 * rho

        val, err = dblquad(density, 0.0, 2.0 * math.pi, 0.0, 15.0, epsabs=1e-11)
        assert lam**2 * val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and non-negative"):
            wavefunction(0, 0, rho, 0.0, PARAMS)

    def test_negative_ell_norm(self):
        # the ell < 0 states map onto conjugated positive-ell states
        plus = wavefunction(1, 2, 0.8, 0.4, PARAMS)
        minus = wavefunction(3, -2, 0.8, 0.4, PARAMS)
        assert minus == pytest.approx(np.conjugate(plus), rel=1e-13)

    def test_gram_identity(self):
        gram = wavefunction_gram(*STATES.T, PARAMS)
        assert np.max(np.abs(gram - np.eye(len(STATES)))) < 1e-12

    def test_gram_of_no_states_is_empty(self):
        empty = np.array([], dtype=int)
        assert wavefunction_gram(empty, empty, PARAMS).shape == (0, 0)

    @pytest.mark.parametrize("params", [PARAMS, PARAMS.with_(omega=0.3, mass=2.0)], ids=["unit", "scaled"])
    def test_stacked_gram_matches_per_state_construction(self, params):
        states = STATES.tolist()
        rho, w, _ = landau._radial_rule()
        phi = landau._phi_grid(4)
        # samples[state, rho, phi], one wavefunction call per state
        per_state = np.array([wavefunction(n, ell, rho[:, None], phi, params) for n, ell in states])
        lam = length_scale(params)
        dphi_lam2 = 2.0 * math.pi / len(phi) * lam * lam
        gram = wavefunction_gram(*STATES.T, params)
        flat = per_state.reshape(len(states), -1)
        weighted = flat.conj() * np.repeat(w * rho, len(phi))
        assert np.max(np.abs(gram - weighted @ flat.T * dphi_lam2)) <= 1e-15
        # a per-pair einsum sums each entry's 96 x 12 terms in another order
        einsum = np.einsum("r,irp,jrp->ij", w * rho, per_state.conj(), per_state) * dphi_lam2
        assert np.max(np.abs(gram - einsum)) < 1e-14


class TestLadderOracle:
    def test_annihilation_of_vacuum(self):
        with pytest.warns(RuntimeWarning, match=r"a annihilates the state \(n, ell\) = \(0, 0\)"):
            assert ladder_action_check(0, 0, "a", PARAMS) == 0.0
        with pytest.warns(RuntimeWarning, match=r"b annihilates the state \(n, ell\) = \(1, -1\)"):
            assert ladder_action_check(1, -1, "b", PARAMS) == 0.0

    def test_a_dagger_coefficient(self):
        got = ladder_action_check(1, 0, "a_dagger", PARAMS)
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_b_dagger_coefficient(self):
        got = ladder_action_check(0, 2, "b_dagger", PARAMS)
        assert got == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_lowering_coefficients(self):
        assert ladder_action_check(2, 0, "a", PARAMS) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )
        assert ladder_action_check(1, 1, "b", PARAMS) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_state_beyond_the_radial_rule_warns_once(self):
        # (30, 0) has 1.7e-5 of its norm beyond rho = 12, and its a_dagger coefficient errs by 2.3e-4
        with pytest.warns(RuntimeWarning, match=r"\(n, ell\) = \(30, 0\) has norm deficit 1\.70\de-05") as caught:
            ladder_action_check(30, 0, "a_dagger", PARAMS)
        assert len(caught) == 1

    def test_numpy_integer_state_warns_as_plain_integers(self):
        # numpy 2 prints a tuple of numpy integers as (np.int64(30), np.int64(0)); the warning shows each label alone
        with pytest.warns(RuntimeWarning, match=r"state \(n, ell\) = \(30, 0\) has norm deficit 1\.70\de-05") as caught:
            ladder_action_check(np.int64(30), np.int64(0), "a_dagger", PARAMS)
        assert len(caught) == 1

    @pytest.mark.parametrize(
        "n,ell,which,named",
        [
            (28, -3, "b", r"\(28, -3\) has norm deficit 1\.2\d\de-08"),
            (25, 5, "b_dagger", r"\(25, 5\) has norm deficit 1\.0\d\de-07"),
            (23, -1, "a_dagger", r"\(24, -2\) has norm deficit 1\.7\d\de-12"),
        ],
        ids=["state-negative-ell", "state-positive-ell", "target-only"],
    )
    def test_norm_guard_names_the_first_state_beyond_the_rule(self, n, ell, which, named):
        # (23, -1) itself holds its norm to 1e-12; only its a_dagger target (24, -2) misses it
        with pytest.warns(RuntimeWarning, match=rf"state \(n, ell\) = {named}") as caught:
            ladder_action_check(n, ell, which, PARAMS)
        assert len(caught) == 1

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            ladder_action_check(1, 0, "c", PARAMS)


# each entry point of the Landau oracle, called on the state (n, ell)
ENTRY_POINTS = {
    "wavefunction": lambda n, ell: wavefunction(n, ell, 1.0, 0.0, PARAMS),
    "wavefunction_gram": lambda n, ell: wavefunction_gram(np.array([0, n]), np.array([0, ell]), PARAMS),
    "ladder_action_check": lambda n, ell: ladder_action_check(n, ell, "a_dagger", PARAMS),
}


@pytest.mark.parametrize(
    "n,ell,message",
    [
        (-1, 0, "n must be non-negative"),
        (1, -2, "ell must satisfy ell >= -n"),
        (1.5, 0, "n must be an integer"),
        (1, 0.5, "ell must be an integer"),
    ],
    ids=["n-1", "ell-2", "n1.5", "ell0.5"],
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_invalid_state_is_rejected(entry, n, ell, message):
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](n, ell)


# the level and polynomial entry points, each with one label that is not an integer; no recurrence step
# equals a non-integer n, so without the check each would return the value of some other level
NON_INTEGER_LABEL = {
    "laguerre-n": (lambda: laguerre(1.5, 0, 0.3), "n"),
    "laguerre-n-nan": (lambda: laguerre(np.array([1.0, np.nan]), 0, 0.3), "n"),
    "laguerre-ell": (lambda: laguerre(1, 0.5, 0.3), "ell"),
    "laguerre_norm_integral": (lambda: laguerre_norm_integral(1, 1.5, 0), "m"),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_LABEL))
def test_non_integer_label_is_rejected(case):
    call, name = NON_INTEGER_LABEL[case]
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: wavefunction_gram(0, 0, PARAMS), r"1-D arrays of equal length, got shapes \(\) and \(\)"),
        (lambda: wavefunction_gram(np.array([0, 1]), np.array([0]), PARAMS), r"got shapes \(2,\) and \(1,\)"),
        (lambda: wavefunction_gram(np.zeros((2, 2), int), np.zeros((2, 2), int), PARAMS), r"got shapes \(2, 2\)"),
        (lambda: ladder_action_check(np.array([1, 2]), 0, "a", PARAMS), r"scalar labels of one state, got shapes \(2,\)"),
        (lambda: ladder_action_check(1, [0], "a_dagger", PARAMS), r"scalar labels of one state"),
    ],
    ids=["gram-scalars", "gram-unequal", "gram-2d", "ladder-array-n", "ladder-list-ell"],
)
def test_label_shape_is_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_integral_float_labels_are_accepted():
    assert laguerre(2.0, 1.0, 0.3) == laguerre(2, 1, 0.3)


# |ell| from 7 up: a fixed phi grid aliases e^{i ell phi}, and a finite difference in phi errs by ~1e-4
HIGH_ELL = [7, 8, 10, 12, -7, -8, -10, -12]
# high levels that still vanish by rho = 12, the end of the oracles' radial rule
HIGH_LEVELS = [(10, 10), (20, 0), (15, 15)]


class TestHighAngularMomentum:
    @pytest.mark.parametrize("ell", HIGH_ELL)
    @pytest.mark.parametrize("which", ["b_dagger", "b", "a_dagger"])
    def test_ladder_coefficient(self, which, ell):
        n = max(0, -ell) + 1  # k = n + ell >= 1, so b has a target
        want = {"b_dagger": math.sqrt(n + ell + 1), "b": math.sqrt(n + ell), "a_dagger": math.sqrt(n + 1)}[which]
        assert ladder_action_check(n, ell, which, PARAMS) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n,ell", HIGH_LEVELS)
    @pytest.mark.parametrize("which", ["a_dagger", "b_dagger"])
    def test_high_level_ladder_coefficient(self, which, n, ell):
        want = {"a_dagger": math.sqrt(n + 1), "b_dagger": math.sqrt(n + ell + 1)}[which]
        assert ladder_action_check(n, ell, which, PARAMS) == pytest.approx(want, abs=1e-11)


def test_import_does_not_load_scipy():
    # what a fresh landau-tfd process imports before its first table: no test-only package, no CSV
    # formatter tables until a CSV is written, and no numpy.polynomial until an oracle builds its rule
    banned = ("scipy", "mpmath", "sympy", "hypothesis", "landau_tfd._g17", "numpy.polynomial")
    code = (
        "import sys, landau_tfd, landau_tfd.cli; "
        f"print(sorted(m for m in sys.modules if any(m == b or m.startswith(b + '.') for b in {banned!r})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_readme_lists_every_export():
    # README's "Library use" names each module's exports on one "- `module`: ..." item
    root = pathlib.Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "src" / "landau_tfd" / "__init__.py").read_text())
    exports = {node.module: {a.name for a in node.names} for node in tree.body if isinstance(node, ast.ImportFrom)}
    readme = (root / "README.md").read_text()
    section = readme.split("Every name `landau_tfd` exports")[1].split("\n\n")[1]
    listed = {}
    for item in section.split("\n- "):
        module, names = item.lstrip("- ").split(":", 1)
        listed[module.strip("`")] = set(re.findall(r"`(\w+)`", names))
    assert listed == exports


def test_complexity_name_binds_the_function():
    # the package re-exports the function complexity under its module's name (README "Library use"):
    # "import ... as" binds the function, while a from-import or importlib reaches the module
    import landau_tfd.complexity as bound
    from landau_tfd.complexity import PhysicalParams as imported

    module = importlib.import_module("landau_tfd.complexity")
    assert bound is landau_tfd.complexity is module.complexity and not isinstance(bound, types.ModuleType)
    assert isinstance(module, types.ModuleType) and imported is module.PhysicalParams is PhysicalParams
