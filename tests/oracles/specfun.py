"""Spherical Bessel and Hankel functions of complex argument, orders 1-4.

Closed forms are used for low orders, the ascending power series for j_l at
small argument (upward recurrence loses accuracy there), and the stable
upward recurrence otherwise. Riccati derivatives [x f_l(x)]' come from the
recurrence [x f_l]' = x f_{l-1} - l f_l, which is exact for both families.

The package itself never needs these (its cavity kernels use exponentially
scaled real forms); they serve the tests as an independent reference for
the raw complex Mie expressions.
"""

from __future__ import annotations

import cmath

from lfvdw.errors import DomainError

__all__ = ["sph_j", "sph_h1", "riccati_deriv", "MIN_ORDER", "MAX_ORDER"]

MIN_ORDER = 1
MAX_ORDER = 4

_SERIES_RTOL = 1e-14

# (2l+1)!! for l = 0..5
_DBLFACT = (1.0, 3.0, 15.0, 105.0, 945.0, 10395.0)


def _check_order(l: int) -> None:
    if not isinstance(l, int) or not (MIN_ORDER <= l <= MAX_ORDER):
        raise DomainError(
            f"order must be an integer in [{MIN_ORDER}, {MAX_ORDER}], got {l!r}"
        )


def _j_series(l: int, x: complex) -> complex:
    # j_l(x) = sum_k (-1)^k x^{2k+l} / (2^k k! (2l+2k+1)!!)
    term = x**l / _DBLFACT[l]
    total = term
    k = 1
    while abs(term) > _SERIES_RTOL * abs(total):
        term *= -x * x / (2.0 * k * (2.0 * l + 2.0 * k + 1.0))
        total += term
        k += 1
    return total


def _j_low(l: int, x: complex) -> complex:
    if l == 0:
        return cmath.sin(x) / x
    if l == 1:
        return cmath.sin(x) / x**2 - cmath.cos(x) / x
    return (3.0 / x**3 - 1.0 / x) * cmath.sin(x) - 3.0 / x**2 * cmath.cos(x)


def _sph_j(l: int, x: complex) -> complex:
    if x == 0:
        return 1.0 + 0.0j if l == 0 else 0.0 + 0.0j
    if abs(x) < l:
        return _j_series(l, x)
    if l <= 2:
        return _j_low(l, x)
    fm, f = _j_low(1, x), _j_low(2, x)
    for m in range(2, l):
        fm, f = f, (2.0 * m + 1.0) / x * f - fm
    return f


def _h_low(l: int, x: complex) -> complex:
    e = cmath.exp(1j * x)
    if l == 0:
        return -1j * e / x
    if l == 1:
        return -(1.0 / x + 1j / x**2) * e
    return (1j / x - 3.0 / x**2 - 3j / x**3) * e


def _sph_h1(l: int, x: complex) -> complex:
    if x == 0:
        raise DomainError("spherical Hankel function has a pole at x = 0")
    if l <= 2:
        return _h_low(l, x)
    fm, f = _h_low(1, x), _h_low(2, x)
    for m in range(2, l):
        fm, f = f, (2.0 * m + 1.0) / x * f - fm
    return f


def sph_j(l: int, x: complex) -> complex:
    """First-kind spherical Bessel function j_l(x) for l in 1..4.

    For l = 1 this is sin(x)/x^2 - cos(x)/x; the power series replaces the
    closed form for |x| < l where the trigonometric combination cancels
    catastrophically.
    """
    _check_order(l)
    return _sph_j(l, complex(x))


def sph_h1(l: int, x: complex) -> complex:
    """First-kind spherical Hankel function h_l^{(1)}(x) for l in 1..4, x != 0."""
    _check_order(l)
    return _sph_h1(l, complex(x))


def riccati_deriv(f, l: int, x: complex) -> complex:
    """Derivative d/dx [x f_l(x)] via [x f_l]' = x f_{l-1} - l f_l.

    Parameters
    ----------
    f : callable
        Either :func:`sph_j` or :func:`sph_h1`, selecting the family.
    l : int
        Order in 1..4 of the function whose Riccati form is differentiated.
    x : complex
        Argument; must be nonzero for the Hankel family.
    """
    _check_order(l)
    x = complex(x)
    if f is sph_j:
        return x * _sph_j(l - 1, x) - l * _sph_j(l, x)
    if f is sph_h1:
        return x * _sph_h1(l - 1, x) - l * _sph_h1(l, x)
    raise ValueError("f must be sph_j or sph_h1")
