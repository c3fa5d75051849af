"""Tests for the adaptive Gauss-Kronrod quadrature engine."""

from __future__ import annotations

import math
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfvdw import quadrature
from lfvdw.errors import ConfigError, ConvergenceError, DomainError, InvariantError, LfvdwError
from lfvdw.quadrature import QuadSpec, integrate_finite, integrate_semi_infinite
from oracles import fsum_engine


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
    # max_subdivisions is an int: NaN or inf would never stop a failing integral
    dict(max_subdivisions=math.nan),
    dict(max_subdivisions=math.inf),
    dict(max_subdivisions=10.5),
    dict(max_subdivisions="100"),
    dict(max_subdivisions=True),
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
    # an empty interval is rejected like a reversed one, for any integrand shape
    for f in (np.sin, lambda x: np.ones((x.size, 2))):
        for a, b in ((1.3, 1.3), (2.0, 1.0)):
            with pytest.raises(DomainError, match="require a < b"):
                integrate_finite(f, a, b, QuadSpec())
    with pytest.raises(DomainError):
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
    # (the initial panels are one call, so a nan there ends the first one)
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
    assert calls == [105]


def test_non_finite_integrand_fails_on_its_first_panel_finite():
    calls = []
    with pytest.raises(InvariantError, match=r"nan at node 3\.\d+ of panel \[3\.0, 4\.0\]"):
        integrate_finite(_nan_beyond(3.0, calls), 0.0, 4.0, QuadSpec())
    assert calls == [60]


def _overflowing(u):
    # e^{-1000 u}, whose e^{1000 u} overflows to inf past u = 0.71: 1/inf is 0
    return 1.0 / np.exp(1e3 * u)


def test_integrand_may_overflow_to_a_finite_value_with_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_semi_infinite(_overflowing, QuadSpec(rel_tol=1e-12))
    assert res.value == pytest.approx(1e-3, rel=1e-12)


def test_integrand_nan_from_an_invalid_operation_is_named_with_no_warning():
    # sqrt(3 - u) is numpy's invalid nan past u = 3, as in _nan_beyond
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            InvariantError, match=r"^integrand value nan at node 0\.80\d+ \(u = 4\.04\d+\) of "
                                  r"panel \[0\.5, 1\.0\] makes the panel sum non-finite$"
        ):
            integrate_semi_infinite(lambda u: np.exp(-u) * np.sqrt(3.0 - u), QuadSpec())


def test_overflowing_integrand_keeps_the_bits_of_the_fsum_engine():
    def integrate():
        return integrate_semi_infinite(_overflowing, QuadSpec(rel_tol=1e-12))

    new = _outcome(integrate)
    with mock.patch.object(quadrature, "_adaptive", fsum_engine.adaptive):
        old = _outcome(integrate)
    assert new == old


# ----------------------------------------------------------------------
# (M, K) integrands: K integrals over shared panels
# ----------------------------------------------------------------------

def _three_scales(u):
    # components 1e6 apart in size; exact integrals 1e6, pi/2 and 0.75e-6
    return np.column_stack(
        [1e6 * np.exp(-u), 1.0 / (1.0 + u * u), 1e-6 * u**4 * np.exp(-2.0 * u)]
    )


def test_vector_integrand_meets_rel_tol_on_every_component():
    rel = 1e-10
    res = integrate_semi_infinite(_three_scales, QuadSpec(rel_tol=rel, abs_tol=1e-300))
    exact = np.array([1e6, math.pi / 2.0, 0.75e-6])
    assert res.value.shape == res.err_est.shape == (3,)
    assert np.all(res.err_est <= rel * np.abs(res.value))
    assert np.all(np.abs(res.value - exact) <= rel * exact)


def test_vector_components_match_their_scalar_integrals():
    spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-300)
    vec = integrate_semi_infinite(_three_scales, spec).value
    for k in range(3):
        alone = integrate_semi_infinite(lambda u: _three_scales(u)[:, k], spec).value
        assert vec[k] == pytest.approx(alone, rel=1e-12, abs=0.0)


def test_non_finite_component_fails_on_its_first_panel():
    calls = []
    nan_part = _nan_beyond(3.0, calls)

    def f(u):
        return np.column_stack([np.exp(-u), nan_part(u)])

    with pytest.raises(
        InvariantError,
        match=r"component 1 value nan at node 0\.80\d+ \(u = 4\.04\d+\) of panel \[0\.5, 1\.0\]",
    ):
        integrate_semi_infinite(f, QuadSpec())
    assert calls == [105]


def test_vector_budget_exhaustion_reports_every_component():
    spec = QuadSpec(max_subdivisions=8)

    def f(x):
        return np.column_stack([np.cos(x), 1.0 / np.sqrt(np.abs(x) + 1e-300)])

    with pytest.raises(ConvergenceError, match="component 1") as exc_info:
        integrate_finite(f, 0.0, 1.0, spec)
    err = exc_info.value
    assert err.value.shape == err.err_est.shape == (2,)
    assert err.value[0] == pytest.approx(math.sin(1.0), rel=1e-12, abs=0.0)
    assert err.err_est[1] > err.err_est[0] >= 0.0
    assert abs(err.value[1] - 2.0) < 0.5


# ----------------------------------------------------------------------
# one integrand call per refinement step
# ----------------------------------------------------------------------

def _one_panel_at_a_time(f, calls=None):
    # the same integrand, evaluated on each panel's 15 nodes on its own
    def g(u):
        if calls is not None:
            calls.append(u.size)
        return np.concatenate([f(u[k : k + 15]) for k in range(0, u.size, 15)])

    return g


def _peaked(x):
    # two components, each subdividing near its own peak
    return np.column_stack([1.0 / (1e-3 + (x - 0.3) ** 2), np.exp(-x) / np.sqrt(x + 1e-4)])


SPEC = QuadSpec(rel_tol=1e-11, abs_tol=1e-300)
STEP_CASES = {
    "semi-infinite (M,)": (lambda f: integrate_semi_infinite(f, SPEC), 105,
                           lambda u: 1.0 / (1.0 + u * u) ** 2),
    "semi-infinite (M, K)": (lambda f: integrate_semi_infinite(f, SPEC), 105, _three_scales),
    "finite (M,)": (lambda f: integrate_finite(f, 0.0, 2.0, SPEC), 60,
                    lambda x: 1.0 / (1e-3 + (x - 0.3) ** 2)),
    "finite (M, K)": (lambda f: integrate_finite(f, 0.0, 2.0, SPEC), 60, _peaked),
}


@pytest.mark.parametrize("case", STEP_CASES)
def test_batching_panels_does_not_move_a_bit(case):
    integrate, _, f = STEP_CASES[case]
    whole, alone = integrate(f), integrate(_one_panel_at_a_time(f))
    assert np.array_equal(whole.value, alone.value)
    assert np.array_equal(whole.err_est, alone.err_est)
    assert whole.evals == alone.evals
    assert type(whole.value) is type(alone.value)


@pytest.mark.parametrize("case", STEP_CASES)
def test_one_integrand_call_per_refinement_step(case):
    # the initial panels are one call, then each bisection is one call
    # with both halves
    integrate, first, f = STEP_CASES[case]
    calls = []
    res = integrate(_one_panel_at_a_time(f, calls))
    subdivisions = (res.evals // 15 - first // 15) // 2
    assert subdivisions > 0
    assert calls == [first] + [30] * subdivisions
    assert sum(calls) == res.evals


# ----------------------------------------------------------------------
# one integrand shape: an (M,) integrand is the (M, 1) column
# ----------------------------------------------------------------------

SCALAR_CASES = {case: STEP_CASES[case] for case in STEP_CASES if case.endswith("(M,)")}


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_scalar_integrand_is_its_one_column(case):
    integrate, _, f = SCALAR_CASES[case]
    flat, column = integrate(f), integrate(lambda x: f(x)[:, None])
    assert type(flat.value) is type(flat.err_est) is float
    assert column.value.shape == column.err_est.shape == (1,)
    assert (flat.value, flat.err_est, flat.evals) == (
        column.value[0], column.err_est[0], column.evals)


def _singular(x):
    # an integrable endpoint singularity that 8 subdivisions cannot resolve
    return 1.0 / np.sqrt(np.abs(x) + 1e-300)


@pytest.mark.parametrize("error, integrate", [
    (InvariantError, lambda f: integrate_semi_infinite(lambda u: f(_nan_beyond(3.0, [])(u)))),
    (InvariantError, lambda f: integrate_finite(lambda x: f(_nan_beyond(3.0, [])(x)), 0.0, 4.0)),
    (ConvergenceError, lambda f: integrate_finite(lambda x: f(_singular(x)), 0.0, 1.0,
                                                  QuadSpec(max_subdivisions=8))),
], ids=["non-finite semi-infinite", "non-finite finite", "budget"])
def test_one_column_errors_read_as_the_scalar_ones(error, integrate):
    raised = []
    for shape in (lambda y: y, lambda y: y[:, None]):
        with pytest.raises(error) as exc_info:
            integrate(shape)
        raised.append(exc_info.value)
    flat, column = raised
    assert str(flat) == str(column) and "component" not in str(flat)
    if error is ConvergenceError:  # the partial result: floats, and the column's entries
        assert type(flat.value) is type(flat.err_est) is float
        assert (flat.value, flat.err_est, flat.evals) == (
            column.value[0], column.err_est[0], column.evals)


@pytest.mark.parametrize("f", [
    lambda x: 1.0,
    lambda x: np.ones(x.size + 1),
    lambda x: np.ones((x.size, 2, 2)),
], ids=["scalar", "wrong-length", "3-D"])
def test_integrand_of_another_shape_is_a_domain_error(f):
    for integrate in (lambda: integrate_semi_infinite(f), lambda: integrate_finite(f, 0.0, 1.0)):
        with pytest.raises(DomainError, match="must return \\(M,\\) or \\(M, K\\) values"):
            integrate()


# ----------------------------------------------------------------------
# running sums rule out the stop test: the bits of an fsum on every step
# ----------------------------------------------------------------------

def _component(family, c, q, x0):
    # smooth, peaked at x0, singular at 0, cancelling (its integral over
    # (0, inf) is 0, so only abs_tol or the budget stops it), and kinked
    return [
        lambda x: np.exp(-c * x) / (1.0 + x) ** 2,
        lambda x: 1.0 / (10.0**-q + (x - x0) ** 2),
        lambda x: np.exp(-c * x) / np.sqrt(x + 10.0**-q),
        lambda x: np.exp(-c * x) - 2.0 * np.exp(-2.0 * c * x),
        lambda x: np.abs(np.sin(c * x)) * np.exp(-x),
    ][family]


def _outcome(integrate):
    # a result or a ConvergenceError, every float as its bytes
    try:
        res = integrate()
        return "result", np.asarray(res.value).tobytes(), np.asarray(res.err_est).tobytes(), (
            res.evals, type(res.value), type(res.err_est))
    except ConvergenceError as exc:
        return str(exc), np.asarray(exc.value).tobytes(), np.asarray(exc.err_est).tobytes(), (
            exc.evals, type(exc.value), type(exc.err_est))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    semi_infinite=st.booleans(),
    columns=st.sampled_from([1, 2, 7]).flatmap(lambda k: st.lists(
        st.tuples(st.integers(0, 4), st.floats(0.5, 30.0), st.floats(1.0, 6.0),
                  st.floats(0.1, 1.9)), min_size=k, max_size=k)),
    rel_exp=st.floats(-13.0, -4.0),
    abs_tol=st.sampled_from([1e-14, 1e-300]),
    max_subdivisions=st.sampled_from([8, 60, 400]),
    scale=st.floats(0.3, 5.0),
)
def test_running_sums_keep_the_bits_of_an_fsum_every_step(
        semi_infinite, columns, rel_exp, abs_tol, max_subdivisions, scale):
    parts = [_component(*column) for column in columns]
    if len(parts) == 1:  # the (M,) integrand, with float results
        f = parts[0]
    else:
        def f(x):
            return np.column_stack([part(x) for part in parts])
    spec = QuadSpec(rel_tol=10.0**rel_exp, abs_tol=abs_tol, max_subdivisions=max_subdivisions)

    def integrate():
        if semi_infinite:
            return integrate_semi_infinite(f, spec, scale)
        return integrate_finite(f, 0.0, 2.0, spec)

    new = _outcome(integrate)
    with mock.patch.object(quadrature, "_adaptive", fsum_engine.adaptive):
        old = _outcome(integrate)
    assert new == old


@pytest.mark.parametrize("columns", [1, 3])
def test_exact_sums_run_a_bounded_number_of_times(monkeypatch, columns):
    # an integral that subdivides over 200 times takes a few passes of
    # fsums over its components, not one per step (the weights, the last
    # step and the steps whose stop test could pass)
    calls = []

    def fsum(values):
        calls.append(1)
        return math.fsum(values)

    monkeypatch.setattr(quadrature, "math", types.SimpleNamespace(**{**vars(math), "fsum": fsum}))

    def f(x):
        y = np.abs(np.sin(20.0 * x))
        return y if columns == 1 else np.column_stack([y, np.abs(np.cos(60.0 * x)), x])

    res = integrate_finite(f, 0.0, math.pi, QuadSpec(rel_tol=1e-10))
    assert (res.evals - 60) // 30 >= 200
    assert len(calls) <= 6 * columns
