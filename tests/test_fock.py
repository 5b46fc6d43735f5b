"""Truncated-Fock-space oracle checks."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from landau_tfd import fock
from landau_tfd import (
    OracleReport,
    PhysicalParams,
    commutator_report,
    covariance_g,
    ladder_matrix,
    oracle_covariance_1pm,
    tfd_a_sector_state,
)

BHW2LN2 = 2.0 * math.log(2.0)


def params_with(bhw: float, omega: float = 0.5, mass: float = 1.0) -> PhysicalParams:
    return PhysicalParams(hbar=1.0, mass=mass, omega=omega, omega_ref=1.0, beta=bhw / omega)


def vdot_blocks(t: float, params: PhysicalParams, dim: int) -> tuple:
    """Reference: the covariance blocks at one t and beta, each quadrature applied to the state matrix diag(c)."""
    q = math.exp(-params.beta * params.hbar * params.omega)
    n = np.arange(dim)
    c = math.sqrt(1.0 - q) * q ** (n / 2.0) * np.exp(-1j * params.omega * t * (n + 0.5))
    a = ladder_matrix(dim)
    mw = params.mass * params.omega
    x = math.sqrt(params.hbar / (2.0 * mw)) * (a + a.T)
    p = -1j * math.sqrt(params.hbar * mw / 2.0) * (a - a.T)
    blocks = []
    for sign in (+1.0, -1.0):
        applied = [(m * c[None, :] + sign * c[:, None] * m.T) / math.sqrt(2.0) for m in (x, p)]
        blocks.append(2.0 * np.array([[np.vdot(u, v).real for v in applied] for u in applied]) / params.hbar)
    return blocks[0], blocks[1]


def rotated(dim: int) -> np.ndarray:
    """A real rotation by 1e-3 in the plane of the first two basis states."""
    rot = np.eye(dim)
    rot[:2, :2] = [[math.cos(1e-3), -math.sin(1e-3)], [math.sin(1e-3), math.cos(1e-3)]]
    return rot


class TestLadderMatrix:
    def test_small_annihilator(self):
        a = ladder_matrix(2)
        assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])

    def test_sqrt_n_rule(self):
        a = ladder_matrix(4)
        assert a[2, 3] == pytest.approx(math.sqrt(3.0))

    def test_dagger_is_transpose(self):
        # the creation matrix a^dag = a^T raises |n> to sqrt(n + 1) |n + 1>
        ad = ladder_matrix(7).T
        assert np.array_equal(ad, np.diag(np.sqrt(np.arange(1.0, 7)), k=-1))

    def test_commutator_truncation_edge(self):
        n = 9
        a = ladder_matrix(n)
        comm = a @ a.T - a.T @ a
        assert np.allclose(comm[: n - 1, : n - 1], np.eye(n - 1), atol=1e-14)
        assert comm[n - 1, n - 1] == pytest.approx(-(n - 1))

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            ladder_matrix(1)
        with pytest.raises(ValueError):
            ladder_matrix(129)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ladder_matrix(4.0),
            lambda: tfd_a_sector_state(0.0, params_with(1.0), 4.5),
        ],
        ids=["ladder_matrix", "tfd_a_sector_state"],
    )
    def test_non_integer_dim(self, call):
        with pytest.raises(ValueError, match=r"truncation size must be an integer in \[2, 128\]"):
            call()

    def test_numpy_integer_dim(self):
        assert np.array_equal(ladder_matrix(np.int64(5)), ladder_matrix(5))


class TestTfdState:
    def test_zero_temperature_vacuum(self):
        p = PhysicalParams(omega=0.5, beta=math.inf)
        t = 1.3
        c, norm_deficit = tfd_a_sector_state(t, p, 8)
        want = complex(np.exp(-1j * p.omega * t / 2.0))
        assert c[0] == pytest.approx(want)
        assert np.max(np.abs(c[1:])) == 0.0
        assert norm_deficit == 0.0

    def test_geometric_probabilities(self):
        c, _ = tfd_a_sector_state(0.0, params_with(BHW2LN2), 20)
        probs = np.abs(c) ** 2
        for n in range(20):
            assert probs[n] == pytest.approx(0.75 * 0.25**n, rel=1e-12)

    def test_partial_norm(self):
        n = 12
        c, norm_deficit = tfd_a_sector_state(0.0, params_with(BHW2LN2), n)
        total = np.sum(np.abs(c) ** 2)
        assert total == pytest.approx(1.0 - 4.0 ** (-n), rel=1e-12)
        assert norm_deficit == pytest.approx(4.0 ** (-n), rel=1e-12)


class TestCovarianceOracle:
    def test_vacuum_limit(self):
        p = PhysicalParams(mass=1.3, omega=0.5, beta=math.inf)
        mw = p.mass * p.omega
        g_p, g_m = oracle_covariance_1pm(0.9, p, 40)
        want = np.diag([1.0 / mw, mw])
        assert np.max(np.abs(g_p - want)) < 1e-10
        assert np.max(np.abs(g_m - want)) < 1e-10

    def test_t0_diagonal(self):
        p = params_with(BHW2LN2)
        mw = p.mass * p.omega
        g_p, _ = oracle_covariance_1pm(0.0, p, 60)
        assert np.max(np.abs(g_p - np.diag([3.0 / mw, mw / 3.0]))) < 1e-8

    def test_quarter_period(self):
        p = params_with(BHW2LN2)
        mw = p.mass * p.omega
        t = math.pi / (2.0 * p.omega)
        g_p, _ = oracle_covariance_1pm(t, p, 60)
        want = np.array([[5.0 / (3.0 * mw), -4.0 / 3.0], [-4.0 / 3.0, 5.0 * mw / 3.0]])
        assert np.max(np.abs(g_p - want)) < 1e-8

    def test_grid_agreement_with_closed_form(self):
        for bhw in (1.0, 2.0, 4.0):
            p = params_with(bhw)
            for t in np.linspace(0.0, p.period, 9):
                g_p, g_m = oracle_covariance_1pm(t, p, 60)
                closed_p, closed_m, _ = covariance_g(t, p)
                assert np.max(np.abs(g_p - closed_p)) < 1e-8
                assert np.max(np.abs(g_m - closed_m)) < 1e-8

    def test_symmetry(self):
        p = params_with(2.0)
        g_p, g_m = oracle_covariance_1pm(0.4, p, 60)
        assert abs(g_p[0, 1] - g_p[1, 0]) < 1e-12
        assert abs(g_m[0, 1] - g_m[1, 0]) < 1e-12

    def test_plus_minus_exchange(self):
        # the minus block equals the plus closed form with the squeezing negated
        from landau_tfd.complexity import alpha_of

        p = params_with(1.5)
        _, cosh2a, sinh2a = alpha_of(p)
        mw = p.mass * p.omega
        for t in (0.3, 1.1):
            _, g_m = oracle_covariance_1pm(t, p, 60)
            c, s = math.cos(p.omega * t), math.sin(p.omega * t)
            flipped = np.array(
                [
                    [(cosh2a - sinh2a * c) / mw, sinh2a * s],
                    [sinh2a * s, mw * (cosh2a + sinh2a * c)],
                ]
            )
            assert np.max(np.abs(g_m - flipped)) < 1e-8

    def test_unit_determinant_relative_to_vacuum(self):
        p = params_with(1.0)
        mw = p.mass * p.omega
        g0_inv = np.diag([mw, 1.0 / mw])
        for t in (0.0, 0.7, 2.9):
            g_p, g_m = oracle_covariance_1pm(t, p, 60)
            assert np.linalg.det(g_p @ g0_inv) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.det(g_m @ g0_inv) == pytest.approx(1.0, abs=1e-10)

    def test_grid_matches_vdot_reference(self):
        p = PhysicalParams(mass=1.3, omega=0.5, beta=1.0)
        ts, betas = np.linspace(0.0, p.period, 9), np.array([1.0, 2.0, 4.0]) / p.omega
        got = oracle_covariance_1pm(ts[:, None], p.with_(beta=betas), 60)
        for (i, t), (j, b) in itertools.product(enumerate(ts), enumerate(betas)):
            for g, want in zip(got, vdot_blocks(t, p.with_(beta=b), 60)):
                assert np.max(np.abs(g[i, j] - want)) <= 1e-13 * np.max(np.abs(want))

    def test_grid_holds_no_state_matrices(self):
        # a stack of 27 dense 128 x 128 complex state matrices alone would take 7 MB
        p = params_with(1.0)
        grid = p.with_(beta=np.array([1.0, 2.0, 4.0]) / p.omega)
        ts = np.linspace(0.0, p.period, 9)[:, None]
        tracemalloc.start()
        try:
            oracle_covariance_1pm(ts, grid, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_truncation_warning(self):
        with pytest.warns(RuntimeWarning, match="norm deficit"):
            oracle_covariance_1pm(0.0, params_with(0.1), 20)


def dense_commutator_report(dim: int) -> list:
    """Reference: the two-mode checks on dense N'^2 x N'^2 Kronecker products, |n, k> at index n*N' + k."""
    a = ladder_matrix(dim)
    comm = a @ a.T - a.T @ a
    dt = min(dim, 16)
    a_1 = ladder_matrix(dt)
    a_l, b_r = np.kron(a_1, np.eye(dt)), np.kron(np.eye(dt), a_1)
    n, k = np.divmod(np.arange(dt * dt), dt)
    interior = k < dt - 1
    comm_b = b_r @ b_r.T - b_r.T @ b_r
    comm_b[~interior] = 0.0
    comm_b[:, ~interior] = 0.0
    lz = b_r.T @ b_r - a_l.T @ a_l
    return [
        ("[a,a_dagger] interior", np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1)))),
        ("[b,b_dagger] interior", np.max(np.abs(comm_b - np.diag(interior * 1.0)))),
        ("[a,a_dagger] truncation edge = -(N-1)", abs(comm[dim - 1, dim - 1] - (-(dim - 1)))),
        ("[a,b] two-mode", np.max(np.abs(a_l @ b_r - b_r @ a_l))),
        ("L_z eigenvalue k - n", np.max(np.abs(lz - np.diag(k - n)))),
    ]


class TestCommutatorReport:
    def test_all_pass(self):
        report = commutator_report(60)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "[a,b] two-mode" in names
        assert "L_z eigenvalue k - n" in names

    def test_json_roundtrip(self):
        report = commutator_report(16)
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert len(data["checks"]) == len(report.checks)

    def test_min_dim(self):
        with pytest.raises(ValueError):
            commutator_report(3)

    @pytest.mark.parametrize("dim", ["x", 8.0, None])
    def test_non_integer_dim(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer of at least 4"):
            commutator_report(dim)

    @pytest.mark.parametrize("dim", [4, 5, 16, 17, 60, 128])
    def test_matches_dense_kronecker_reference(self, dim):
        report = commutator_report(dim)
        want = dense_commutator_report(dim)
        assert [(c.name, c.max_deviation.hex()) for c in report.checks] == [(m, float(v).hex()) for m, v in want]
        assert all(c.tolerance == 1e-12 for c in report.checks)

    @pytest.mark.parametrize(
        "check, perturb",
        [
            # B' = R B keeps B'^T B' = B^T B, so L_z holds, and b' = I x B' commutes with a x I
            ("[b,b_dagger] interior", lambda a, b: (a, rotated(len(b)) @ b)),
            # A' = A R still commutes with I x B, but A'^T A' is no longer diagonal
            ("L_z eigenvalue k - n", lambda a, b: (a @ rotated(len(a)), b)),
        ],
        ids=["b", "L_z"],
    )
    def test_check_fails_alone(self, check, perturb, monkeypatch):
        two_mode = fock._two_mode
        monkeypatch.setattr(fock, "_two_mode", lambda dim: perturb(*two_mode(dim)))
        report = commutator_report(16)
        assert [c.name for c in report.checks if not c.passed] == [check]


class TestOracleReport:
    @pytest.mark.parametrize(
        "deviation, worst",
        [
            (-3e-13, 3e-13),
            ([1e-13, -4e-13, 2e-13], 4e-13),
            (np.array([[1e-13, 2e-13], [-5e-13, 0.0]]), 5e-13),
            (np.array([3e-13j, 1e-13]), 3e-13),
        ],
        ids=["scalar", "list", "array", "complex"],
    )
    def test_records_the_largest_absolute_deviation(self, deviation, worst):
        report = OracleReport()
        for name, tolerance in (("loose", 1e-12), ("equal", worst), ("tight", 1e-13)):
            report.add(name, deviation, tolerance)
        assert [(c.name, c.max_deviation, c.passed) for c in report.checks] == [
            ("loose", worst, True),
            ("equal", worst, True),
            ("tight", worst, False),
        ]
        assert type(report.checks[0].max_deviation) is float

    @pytest.mark.parametrize(
        "deviation",
        [[0.0, 0.0, math.nan], np.array([[0.0, 0.0], [0.0, np.nan]]), [math.nan, 0.0], np.nan],
        ids=["list-last", "array-last", "list-first", "scalar"],
    )
    def test_nan_at_any_point_fails(self, deviation):
        report = OracleReport()
        report.add("nan", deviation, 1e-12)
        assert not report.passed
        assert math.isnan(report.checks[0].max_deviation)
        assert json.loads(report.to_json())["checks"][0]["passed"] is False

    @pytest.mark.parametrize("deviation", [[], np.empty((3, 0))], ids=["list", "array"])
    def test_empty_deviation_raises(self, deviation):
        report = OracleReport()
        with pytest.raises(ValueError, match="check 'no points' has no deviation"):
            report.add("no points", deviation, 1e-12)
        assert report.checks == []
