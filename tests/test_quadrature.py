"""Tests for the adaptive Gauss-Kronrod quadrature engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lfvdw.errors import ConfigError, ConvergenceError, InvariantError, LfvdwError
from lfvdw.quadrature import QuadSpec, integrate_finite, integrate_semi_infinite


def test_spec_defaults():
    spec = QuadSpec()
    assert spec.rel_tol == 1e-8
    assert spec.abs_tol == 1e-14
    assert spec.max_subdivisions == 2000


BAD_SPECS = [
    dict(rel_tol=0.0),
    dict(rel_tol=-1e-8),
    dict(abs_tol=0.0),
    dict(max_subdivisions=4),
    dict(rel_tol=math.inf),
    dict(abs_tol=math.inf),
]


@pytest.mark.parametrize("bad", BAD_SPECS)
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        QuadSpec(**bad)


@pytest.mark.parametrize("bad", BAD_SPECS)
def test_spec_validation_raises_config_error(bad):
    with pytest.raises(LfvdwError) as err:
        QuadSpec(**bad)
    assert err.type is ConfigError


# the three analytic examples
CASES = [
    (lambda u: np.exp(-u), 1.0),
    (lambda u: 1.0 / (1.0 + u * u), math.pi / 2.0),
    (lambda u: u**4 * np.exp(-2.0 * u), 0.75),
]


@pytest.mark.parametrize("f,exact", CASES)
def test_analytic_examples(f, exact):
    res = integrate_semi_infinite(f, QuadSpec(), scale=1.0)
    assert res.value == pytest.approx(exact, rel=3e-8, abs=0.0)
    assert res.err_est >= 0.0
    assert res.evals % 15 == 0


def test_scale_invariance_rational_map():
    # the map scale moves nodes around but not the answer
    vals = [
        integrate_semi_infinite(lambda u: np.exp(-u) * u * u, QuadSpec(), scale=s).value
        for s in (0.1, 1.0, 7.0, 40.0)
    ]
    for v in vals:
        assert v == pytest.approx(2.0, rel=1e-9, abs=0.0)


def test_determinism():
    f = lambda u: np.exp(-u) / (1.0 + u)
    r1 = integrate_semi_infinite(f, QuadSpec())
    r2 = integrate_semi_infinite(f, QuadSpec())
    assert r1.value == r2.value
    assert r1.err_est == r2.err_est
    assert r1.evals == r2.evals


def test_tighter_tolerance_costs_more_and_errs_less():
    f = lambda u: 1.0 / (1.0 + u * u) ** 2
    exact = math.pi / 4.0
    loose = integrate_semi_infinite(f, QuadSpec(rel_tol=1e-4))
    tight = integrate_semi_infinite(f, QuadSpec(rel_tol=1e-11))
    assert tight.evals >= loose.evals
    assert abs(tight.value - exact) <= abs(loose.value - exact) + 1e-15
    assert abs(tight.value - exact) < 1e-11 * exact


def test_finite_interval():
    res = integrate_finite(np.sin, 0.0, math.pi, QuadSpec())
    assert res.value == pytest.approx(2.0, rel=1e-12, abs=0.0)


def test_finite_interval_degenerate_and_reversed():
    res = integrate_finite(np.sin, 1.3, 1.3, QuadSpec())
    assert res == (0.0, 0.0, 0)
    with pytest.raises(ValueError):
        integrate_finite(np.sin, 2.0, 1.0, QuadSpec())
    with pytest.raises(ValueError):
        integrate_finite(np.sin, 0.0, math.inf, QuadSpec())


def test_invalid_scale():
    with pytest.raises(ValueError):
        integrate_semi_infinite(np.exp, QuadSpec(), scale=0.0)
    with pytest.raises(ValueError):
        integrate_semi_infinite(np.exp, QuadSpec(), scale=math.inf)


def test_budget_exhaustion_reports_partial_result():
    # an integrable endpoint singularity cannot converge in 8 panels
    spec = QuadSpec(max_subdivisions=8)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_finite(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300), 0.0, 1.0, spec)
    err = exc_info.value
    assert err.evals > 0
    assert err.err_est > 0.0
    # the partial value is already in the right neighbourhood of 2
    assert abs(err.value - 2.0) < 0.5


def test_scalar_integrand_results_are_floats():
    res = integrate_semi_infinite(lambda u: np.exp(-u), QuadSpec())
    assert isinstance(res.value, float)
    assert isinstance(res.err_est, float)
    assert isinstance(res.evals, int)


def _nan_beyond(cut, calls):
    # exp(-u) up to u = cut, nan after it; records the size of every call
    def f(u):
        calls.append(u.size)
        return np.where(u > cut, math.nan, np.exp(-u))

    return f


def test_non_finite_integrand_fails_on_its_first_panel_semi_infinite():
    # u = 3 maps to t = 0.75, inside the last of the 7 initial panels;
    # its first nan node t = 0.80 is u = 4.05, and the error names both
    calls = []
    with pytest.raises(
        InvariantError, match=r"nan at node 0\.80\d+ \(u = 4\.04\d+\) of panel \[0\.5, 1\.0\]"
    ):
        integrate_semi_infinite(_nan_beyond(3.0, calls), QuadSpec())
    assert calls == [15] * 7


def test_non_finite_integrand_fails_on_its_first_panel_finite():
    calls = []
    with pytest.raises(InvariantError, match=r"nan at node 3\.\d+ of panel \[3\.0, 4\.0\]"):
        integrate_finite(_nan_beyond(3.0, calls), 0.0, 4.0, QuadSpec())
    assert calls == [15] * 4
