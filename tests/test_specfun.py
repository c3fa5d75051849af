"""Tests for the spherical Bessel and Hankel functions, orders 1-4."""

from __future__ import annotations

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfvdw.errors import DomainError
from oracles.specfun import MAX_ORDER, MIN_ORDER, riccati_deriv, sph_h1, sph_j

# mpmath, 50 significant digits (tests/oracles/gen_values.py)
FROZEN_J_REAL = {
    (1, 0.3): 0.09910288804064188014,
    (1, 2.7): 0.39346703205485528589,
    (2, 0.3): 0.0059615248686202177187,
    (2, 2.7): 0.27889674664101330485,
    (3, 0.3): 0.00025585976969508183757,
    (3, 2.7): 0.12300842468776194532,
    (4, 0.3): 8.5364242650251580115e-6,
    (4, 2.7): 0.040013984030962108946,
}

FROZEN_H1_AT_1P9 = {
    1: 0.43228539189143240743 - 0.40849878109212856118j,
    2: 0.18450320420362249147 - 0.81515047902099426622j,
    3: 0.053249356012837306972 - 1.7366340584368037183j,
    4: 0.01167863373840969211 - 5.582974999430387854j,
}

FROZEN_J_COMPLEX = {
    1: 0.4128227385794354737 + 0.45689168614088742854j,
    2: -0.070032278237008751869 + 0.1774757690916373642j,
    3: -0.042745326774271419121 + 0.0046964000228090021838j,
    4: -0.0043327639600649887754 - 0.0062434450471795489635j,
}


@pytest.mark.parametrize("l,x", sorted(FROZEN_J_REAL))
def test_sph_j_matches_high_precision_reference(l, x):
    assert sph_j(l, x) == pytest.approx(FROZEN_J_REAL[(l, x)], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_sph_h1_matches_high_precision_reference(l):
    val = sph_h1(l, 1.9)
    assert val.real == pytest.approx(FROZEN_H1_AT_1P9[l].real, rel=1e-13, abs=0.0)
    assert val.imag == pytest.approx(FROZEN_H1_AT_1P9[l].imag, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_sph_j_complex_argument(l):
    val = sph_j(l, 0.8 + 1.4j)
    ref = FROZEN_J_COMPLEX[l]
    assert abs(val - ref) < 1e-13 * abs(ref)


def test_series_and_closed_form_agree_at_crossover():
    # |x| < l dispatches to the power series; evaluate the series a bit
    # beyond its own region and compare against the other branch at the
    # same point.
    from oracles.specfun import _j_series

    for l in (1, 2, 3, 4):
        x = l + 0.25
        assert _j_series(l, complex(x)) == pytest.approx(sph_j(l, x), rel=1e-12, abs=0.0)


def test_recurrence_consistency():
    # (2l+1)/x j_l = j_{l-1} + j_{l+1} must hold across the branch map.
    for x in (0.4, 1.3, 2.9, 7.7):
        for l in (2, 3):
            lhs = (2 * l + 1) / x * sph_j(l, x)
            rhs = sph_j(l - 1, x) + sph_j(l + 1, x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-16)


def test_riccati_deriv_matches_finite_difference():
    h = 1e-6
    for l in (1, 2, 3, 4):
        for x in (0.7, 2.3, 5.1):
            fd = ((x + h) * sph_j(l, x + h) - (x - h) * sph_j(l, x - h)) / (2 * h)
            assert riccati_deriv(sph_j, l, x) == pytest.approx(fd, rel=1e-8, abs=0.0)


def _wronskian(l: int, x: complex) -> complex:
    jr = riccati_deriv(sph_j, l, x)
    hr = riccati_deriv(sph_h1, l, x)
    return (x * sph_j(l, x)) * hr - jr * (x * sph_h1(l, x))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    l=st.integers(min_value=MIN_ORDER, max_value=MAX_ORDER),
    a=st.floats(min_value=0.05, max_value=30.0),
    b=st.floats(min_value=-4.0, max_value=4.0),
)
def test_wronskian_identity(l, a, b):
    # x^2 (j_l h_l' - j_l' h_l) = i for every order and argument; this
    # couples the series, closed-form, and recurrence branches. |Im x|
    # stays moderate: the two products grow like e^{2|Im x|} and the
    # identity drowns in roundoff beyond that.
    x = complex(a, b)
    assert abs(_wronskian(l, x) - 1j) < 1e-10


def test_rejects_unsupported_orders():
    for l in (0, 5, -1):
        with pytest.raises(DomainError):
            sph_j(l, 1.0)
        with pytest.raises(DomainError):
            sph_h1(l, 1.0)


def test_hankel_pole_at_origin():
    with pytest.raises(DomainError):
        sph_h1(1, 0.0)


def test_riccati_deriv_rejects_unknown_family():
    with pytest.raises(ValueError):
        riccati_deriv(abs, 1, 1.0)
