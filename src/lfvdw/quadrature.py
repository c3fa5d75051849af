"""Deterministic adaptive quadrature on semi-infinite and finite intervals.

The engine is a worst-panel-first adaptive Gauss-Kronrod scheme (7/15 point
pair, the classic QUADPACK rule). Semi-infinite integrals over u in (0, inf)
are mapped to t in (0, 1) by the one substitution

    u = u0 t/(1-t),    du = u0/(1-t)^2 dt.

The open panel rule never evaluates the endpoints, so integrands only need
to be finite on the open interval. Integrands are called once per
refinement step with a 1-D float64 array of the step's M nodes, 15 per
panel: M = 105 for the 7 initial semi-infinite panels, 60 for the 4
initial finite ones, then 30 for the two halves of each bisection. They
return (M, K) values for K integrals over shared panels; (M,) values are
the one column (M, 1), with float results. Each panel's sums use only its
own 15 rows, so sharing a call moves no bit. Each component k stops once
its error estimate meets max(rel_tol |I_k|, abs_tol); the panel refined
next has the largest max_k err_k w_k, with w_k = 1/max(rel_tol |I_k|,
abs_tol) fixed on the initial panels.

Floating-point state: each refinement step calls the integrand and forms
its panel sums under one np.errstate that silences numpy's overflow,
invalid and divide warnings, so an integrand needs none of its own and an
intermediate may overflow to inf. A panel whose Kronrod or Gauss sum is
not finite raises InvariantError at once, naming the first non-finite
node (and its component, for K > 1) and its panel in the integration
variable (t for semi-infinite integrals, with the node's u alongside); a
step's panels are checked in order.

Determinism: panels are refined worst error first, ties in insertion order;
every total is a correctly rounded fsum, taken only on the steps whose stop
test the running sums, within their proven slack (Higham 2002), cannot rule out.
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
        if type(self.max_subdivisions) is not int or self.max_subdivisions < 8:
            raise ConfigError("max_subdivisions must be an integer of at least 8")


class QuadResult(NamedTuple):
    """value and err_est are floats for (M,) integrands, (K,) arrays else."""

    value: float | np.ndarray
    err_est: float | np.ndarray
    evals: int


def _panels(g: Callable[[np.ndarray], np.ndarray], edges, to_u=None):
    """(a, b, K15, |K15 - G7|) of the panels between consecutive edges: the
    panel ends as two tuples, K15 as P lists of K floats, |K15 - G7| as (P, K).

    All panels' nodes go to g in one call, 15 per panel in panel order;
    each panel's sums are taken on its own 15-row slice, so its bits do
    not depend on how many panels share the call.
    """
    e = np.asarray(edges, dtype=np.float64)
    mid, half = 0.5 * (e[:-1] + e[1:]), 0.5 * (e[1:] - e[:-1])
    x = (mid[:, None] + half[:, None] * _XGK).ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # named below
        y = g(x).reshape(half.size, 15, -1)
        k15, g7 = half[:, None] * (_WGK @ y), half[:, None] * (_WG @ y[:, 1::2])
        err = np.abs(k15 - g7)
    if not np.isfinite(err).all():  # finite sums leave it finite unless it overflows
        finite = np.isfinite(k15).all(axis=1) & np.isfinite(g7).all(axis=1)
        p = int(np.argmin(finite))
        if not finite[p]:
            k, c = np.unravel_index(np.argmin(np.isfinite(y[p])), y[p].shape)
            node = float(x[15 * p + k])
            where = f"node {node}" if to_u is None else f"node {node} (u = {to_u(node)})"
            what = f"component {c} value" if y.shape[2] > 1 else "value"
            raise InvariantError(
                f"integrand {what} {float(y[p, k, c])} at {where} of panel "
                f"[{float(edges[p])}, {float(edges[p + 1])}] makes the panel sum non-finite"
            )
    return edges[:-1], edges[1:], k15.tolist(), err


def _adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    breaks: tuple[float, ...],
    spec: QuadSpec,
    scale: float | None = None,
) -> QuadResult:
    """Integrate f over the panels between breaks: in x itself, or, given a
    scale, in t with u = scale t/(1-t). An (M,) f is the one column (M, 1)."""
    to_u = None if scale is None else lambda t: scale * t / (1.0 - t)
    shape = []  # of one node's value: [] for an (M,) f, [K] for (M, K)

    def g(x):
        r = None if to_u is None else 1.0 - x  # 1 - t, for the map and its Jacobian
        y = np.asarray(f(x if r is None else scale * x / r), dtype=np.float64)
        if y.ndim not in (1, 2) or len(y) != x.size:
            raise DomainError(f"integrand must return (M,) or (M, K) values on its "
                              f"M = {x.size} nodes, got shape {y.shape}")
        shape[:] = y.shape[1:]
        y = y.reshape(x.size, -1)
        return y if r is None else y * (scale / r**2)[:, None]

    def totals(rows):  # correctly rounded sums over the panels, per component, and limits
        value = list(map(math.fsum, zip(*rows)))
        return value, [max(spec.rel_tol * abs(v), spec.abs_tol) for v in value]

    def public(v):  # floats for an (M,) f
        return np.array(v) if shape else v[0]

    def track(c, v, e, av, ae, s, k15, err, d):  # the witness after a panel in (1) or out (-1)
        return c, v + d * k15[c], e + d * err[c], av + abs(k15[c]), ae + err[c], s + 2.0**-52

    def unconverged(c, v, e, av, ae, s):  # errs[c] > limits[c] for sure: n terms summed in
        return e - s * ae > (1 + 2**-40) * max(  # floats are within (n + 1) u sum |x| of exact;
            spec.rel_tol * (abs(v) + s * av), spec.abs_tol) + 2**-1070  # s = 2 (n + 2) u

    heap, seq, weight, edges, subdivisions, w = [], 0, None, breaks, 0, None
    while True:
        a, b, k15, err = _panels(g, edges, to_u)
        if weight is None:  # fixed on the initial panels, whose sums are the first value
            value, limits = totals(k15)
            weight = 1.0 / np.array(limits)
        keys = (err * weight).max(axis=1).tolist()
        if w is None and max(keys) > 1.0:  # a panel alone fails: its component is the witness
            w = (int(np.argmax(err * weight)) % len(weight), 0.0, 0.0, 0.0, 0.0, 2**-51)
        for panel in zip(keys, a, b, k15, err.tolist()):
            heapq.heappush(heap, (-panel[0], seq, *panel[1:]))
            seq, w = seq + 1, w and track(*w, *panel[3:], 1)
        if not (w and unconverged(*w)) or subdivisions >= spec.max_subdivisions:
            value, limits = totals([h[4] for h in heap]) if subdivisions else (value, limits)
            errs, evals = list(map(math.fsum, zip(*[h[5] for h in heap]))), 15 * seq
            if all(e <= t for e, t in zip(errs, limits)):
                return QuadResult(public(value), public(errs), evals)
            k = max(range(len(errs)), key=lambda i: errs[i] / limits[i])
            w = (k, value[k], errs[k], abs(value[k]), errs[k], 3 * 2**-52)  # the worst
        if subdivisions >= spec.max_subdivisions:
            raise ConvergenceError(f"no convergence after {subdivisions} subdivisions "
                                   f"({f'component {k}: ' if len(errs) > 1 else ''}"
                                   f"err_est={errs[k]:.3e}, value={value[k]:.6e})",
                                   value=public(value), err_est=public(errs), evals=evals)
        _, _, lo, hi, *rows = heapq.heappop(heap)
        edges, subdivisions, w = (lo, 0.5 * (lo + hi), hi), subdivisions + 1, track(*w, *rows, -1)


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadSpec = QuadSpec(),
    scale: float = 1.0,
) -> QuadResult:
    """Integrate f over (0, inf) through u = scale t/(1-t).

    Parameters
    ----------
    f : callable
        Vectorized integrand of the frequency-like variable u, returning
        (M, K) values for M nodes, or (M,) for K = 1, called once per
        refinement step; M is 15 times the number of panels in the step
        (105 for the initial panels, 30 per bisection). Must be finite on
        the open half line and decay at least like a rational function
        times an exponential.
    spec : QuadSpec
        Tolerances and node budget.
    scale : float
        Map scale u0; callers set it to the largest resonance frequency
        of the models involved so the nodes cover the region where the
        response functions still differ from their limits.
    """
    if not (scale > 0.0) or not math.isfinite(scale):
        raise DomainError("scale must be positive and finite")
    return _adaptive(f, _INIT_BREAKS, spec, scale)


def integrate_finite(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec = QuadSpec(),
) -> QuadResult:
    """Integrate the vectorized integrand f over the finite interval [a, b],
    a < b; an empty interval is an error, as reversed bounds are."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("bounds must be finite")
    if not a < b:
        raise DomainError("require a < b")
    breaks = tuple(a + (b - a) * k / 4.0 for k in range(5))
    return _adaptive(f, breaks, spec)
