"""Deterministic adaptive quadrature on semi-infinite and finite intervals.

The engine is a worst-panel-first adaptive Gauss-Kronrod scheme (7/15 point
pair, the classic QUADPACK rule). Semi-infinite integrals over u in (0, inf)
are mapped to t in (0, 1) by the one substitution

    u = u0 t/(1-t),    du = u0/(1-t)^2 dt.

The open panel rule never evaluates the endpoints, so integrands only need
to be finite on the open interval. Integrands are called with a 1-D float64
node array and must return an array of the same shape. A panel whose
Kronrod or Gauss sum is not finite raises InvariantError at once, naming
the first non-finite node and its panel in the integration variable (t for
semi-infinite integrals, with the node's u alongside).

Determinism: panels are refined in a fixed worst-error-first order with
insertion-order tie breaking, and the final value is an fsum over panels
sorted by position, so results are bit-reproducible for a fixed spec.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError, InvariantError

__all__ = ["QuadSpec", "QuadResult", "integrate_semi_infinite", "integrate_finite"]

# 15-point Kronrod abscissae/weights and embedded 7-point Gauss weights
# (QUADPACK dqk15 constants). Nodes ascending; Gauss nodes are every other
# entry starting at index 1.
_X_POS = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WK_POS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_POS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_XGK = np.array([-x for x in _X_POS[:-1]] + [0.0] + [x for x in reversed(_X_POS[:-1])])
_WGK = np.array(list(_WK_POS[:-1]) + [_WK_POS[-1]] + list(reversed(_WK_POS[:-1])))
_WG = np.array(list(_WG_POS[:-1]) + [_WG_POS[-1]] + list(reversed(_WG_POS[:-1])))

_INIT_BREAKS = (0.0, 0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget for one integration."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ConfigError("tolerances must be finite and positive")
        if self.max_subdivisions < 8:
            raise ConfigError("max_subdivisions must be at least 8")


class QuadResult(NamedTuple):
    value: float
    err_est: float
    evals: int


def _panel(g: Callable[[np.ndarray], np.ndarray], a: float, b: float, to_u=None):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _XGK
    y = np.asarray(g(x), dtype=np.float64)
    k15 = half * float(y @ _WGK)
    g7 = half * float(y[1::2] @ _WG)
    if not (math.isfinite(k15) and math.isfinite(g7)):
        k = int(np.argmin(np.isfinite(y)))
        node = float(x[k])
        where = f"node {node}" if to_u is None else f"node {node} (u = {to_u(node)})"
        raise InvariantError(
            f"integrand value {float(y[k])} at {where} of panel "
            f"[{float(a)}, {float(b)}] makes the panel sum non-finite"
        )
    return k15, abs(k15 - g7)


def _adaptive(
    g: Callable[[np.ndarray], np.ndarray],
    breaks: tuple[float, ...],
    spec: QuadSpec,
    to_u=None,
) -> QuadResult:
    heap = []
    seq = 0
    evals = 0
    for a, b in zip(breaks[:-1], breaks[1:]):
        val, err = _panel(g, a, b, to_u)
        heap.append((-err, seq, a, b, val, err))
        seq += 1
        evals += 15
    heapq.heapify(heap)

    def _totals():
        value = math.fsum(item[4] for item in sorted(heap, key=lambda it: it[2]))
        err = math.fsum(item[5] for item in heap)
        return value, err

    subdivisions = 0
    while True:
        value, err = _totals()
        if err <= max(spec.rel_tol * abs(value), spec.abs_tol):
            return QuadResult(value, err, evals)
        if subdivisions >= spec.max_subdivisions:
            raise ConvergenceError(
                f"no convergence after {subdivisions} subdivisions "
                f"(err_est={err:.3e}, value={value:.6e})",
                value=value,
                err_est=err,
                evals=evals,
            )
        _, _, a, b, _, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            val, perr = _panel(g, lo, hi, to_u)
            heapq.heappush(heap, (-perr, seq, lo, hi, val, perr))
            seq += 1
            evals += 15
        subdivisions += 1


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadSpec = QuadSpec(),
    scale: float = 1.0,
) -> QuadResult:
    """Integrate f over (0, inf) through u = scale t/(1-t).

    Parameters
    ----------
    f : callable
        Vectorized integrand of the frequency-like variable u; must be
        finite on the open half line and decay at least like a rational
        function times an exponential.
    spec : QuadSpec
        Tolerances and node budget.
    scale : float
        Map scale u0; callers set it to the largest resonance frequency
        of the models involved so the nodes cover the region where the
        response functions still differ from their limits.
    """
    if not (scale > 0.0) or not math.isfinite(scale):
        raise DomainError("scale must be positive and finite")

    def to_u(t):
        return scale * t / (1.0 - t)

    def g(t: np.ndarray) -> np.ndarray:
        jac = scale / (1.0 - t) ** 2
        return np.asarray(f(to_u(t)), dtype=np.float64) * jac

    return _adaptive(g, _INIT_BREAKS, spec, to_u)


def integrate_finite(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec = QuadSpec(),
) -> QuadResult:
    """Integrate the vectorized integrand f over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("bounds must be finite")
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    if a > b:
        raise DomainError("require a < b")
    breaks = tuple(a + (b - a) * k / 4.0 for k in range(5))
    return _adaptive(f, breaks, spec)
