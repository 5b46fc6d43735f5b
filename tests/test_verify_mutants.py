"""The mutant table of `landau-tfd --mode verify`: every check it reports can fail.

Each row patches one library seam and names the exact list of checks
that a default verify run then fails, with exit 2 (mutation analysis:
DeMillo, Lipton & Sayward, IEEE Computer 11(4), 34, 1978).  A check
that no row fails is an error, so a new check arrives with its mutant.
"""

import importlib
import json
import math

import numpy as np
import pytest

from landau_tfd import fock, landau, sweep
from landau_tfd.cli import main
from landau_tfd.sweep import SweepConfig, run_verify

# the module, not the function the package exports under its name
complexity = importlib.import_module("landau_tfd.complexity")

INTERIOR, NUMBER = "[a,a_dagger] interior", "a_dagger a = diag(n)"
COVARIANCE, RATE = "covariance oracle vs closed form", "rate vs finite differences (relative)"
LAGUERRE, GRAM, LADDER = "laguerre orthogonality", "wavefunction orthonormality", "ladder-operator coefficients"


def rotated(dim: int, angle: float) -> np.ndarray:
    """A real rotation by angle in the plane of the first two basis states."""
    rot = np.eye(dim)
    rot[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    return rot


def bumped(a, index: tuple, by: float) -> np.ndarray:
    """a with by added to its entry at index, in place: a NaN for by makes that entry NaN."""
    a[index] += by
    return a


def wrap(module, seam: str, mutant):
    """A patch under which the seam returns mutant(its exact value, its arguments...)."""

    def patch(monkeypatch):
        exact = getattr(module, seam)
        monkeypatch.setattr(module, seam, lambda *args: mutant(exact(*args), *args))

    return patch


def flip_b_phi(monkeypatch):
    """b's operator with its (i/rho) d_phi term of the wrong sign."""
    dn, dell, s_rho, s_phi = landau._LADDER["b"]
    monkeypatch.setitem(landau._LADDER, "b", (dn, dell, s_rho, -s_phi))


# each row: a patch of one seam, and the checks a default verify run fails under it, in report order
ROWS = [
    pytest.param(wrap(fock, "ladder_matrix", lambda a, dim: a * (1 + 1e-9)), [INTERIOR, NUMBER], id="ladder-scaled"),
    pytest.param(wrap(fock, "ladder_matrix", lambda a, dim: a + 1e-6 * np.eye(dim)), [NUMBER], id="ladder-shifted"),
    pytest.param(wrap(fock, "ladder_matrix", lambda a, dim: rotated(dim, 1e-6) @ a), [INTERIOR], id="ladder-rotated"),
    # the covariance oracle builds its quadratures from the same matrix
    pytest.param(
        wrap(fock, "ladder_matrix", lambda a, dim: bumped(a, (0, 1), math.nan)), [INTERIOR, NUMBER, COVARIANCE], id="ladder-nan"
    ),
    pytest.param(
        wrap(fock, "tfd_a_sector_state", lambda s, t, p, dim: (s[0] * np.exp(-1e-6j * np.arange(dim)), s[1])),
        [COVARIANCE],
        id="tfd-phase",
    ),
    pytest.param(wrap(complexity, "alpha_of", lambda a, p: (*a[:2], a[2] * (1 + 1e-7))), [COVARIANCE], id="sinh2a-scaled"),
    # a NaN in the last point of the second covariance block
    pytest.param(
        wrap(sweep, "covariance_g", lambda g, t, p: (g[0], bumped(g[1], (-1, -1, 1, 1), math.nan), g[2])),
        [COVARIANCE],
        id="covariance-nan",
    ),
    pytest.param(wrap(complexity, "_rate", lambda r, kernel, t, p: r * (1 + 1e-5)), [RATE], id="rate-scaled"),
    pytest.param(
        wrap(landau, "_gauss_laguerre", lambda xw, nodes: (xw[0], xw[1] * (1 + 1e-9))),
        [LAGUERRE],
        id="gauss-laguerre-weights",
    ),
    pytest.param(
        wrap(landau, "laguerre_norm_integral", lambda v, *args: v * (1 + 1e-9)), [LAGUERRE], id="laguerre-integral-scaled"
    ),
    pytest.param(wrap(landau, "_radial_rule", lambda r: (*r[:2], r[2] * (1 + 1e-9))), [LADDER], id="radial-derivative"),
    pytest.param(flip_b_phi, [LADDER], id="b-phi-sign"),
    pytest.param(wrap(landau, "ladder_action_check", lambda v, *args: v * (1 + 1e-10)), [LADDER], id="ladder-action-scaled"),
    # "b" is the last of the ladder check's four cases
    pytest.param(
        wrap(landau, "ladder_action_check", lambda v, n, ell, which, p: math.nan if which == "b" else v),
        [LADDER],
        id="ladder-action-b-nan",
    ),
    pytest.param(
        wrap(landau, "wavefunction_gram", lambda gram, *args: bumped(gram, (0, 1), 1e-10)), [GRAM], id="gram-off-diagonal"
    ),
    pytest.param(wrap(landau, "wavefunction_gram", lambda gram, *args: gram * (1 + 1e-9)), [GRAM], id="gram-scaled"),
]


def failing_checks(capsys) -> list:
    """The names of the failing checks of a default verify run, which must exit 2."""
    assert main(["--mode", "verify"]) == 2
    return [c["name"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]


@pytest.mark.parametrize("patch, failing", ROWS)
def test_mutant_fails_its_checks(patch, failing, monkeypatch, capsys):
    patch(monkeypatch)
    assert failing_checks(capsys) == failing


def test_every_check_has_a_row():
    names = [c.name for c in run_verify(SweepConfig("verify")).checks]
    assert set(names) == {name for row in ROWS for name in row.values[1]}


def norm_with(ln6_squared: float, u_factor: float):
    return lambda u, a_c, a_s: np.sqrt(ln6_squared + u_factor * u * u + 2.0 * (a_c * a_c + a_s * a_s))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: no verify check compares C with anything independent of the closed form, "
    "so a C with a wrong ln^2 6 or u^2 term passes",
)
@pytest.mark.parametrize(
    "norm",
    [norm_with(math.log(7.0) ** 2, 1.0), norm_with(complexity.LN6**2, 1.5)],
    ids=["ln7-for-ln6", "1.5u2-for-u2"],
)
def test_norm_mutant_fails_verify(norm, monkeypatch, capsys):
    monkeypatch.setattr(complexity, "_norm", norm)
    assert main(["--mode", "verify"]) == 2
