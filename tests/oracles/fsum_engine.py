"""The quadrature engine's refinement loop with an exact stop test on every step.

lfvdw.quadrature._adaptive runs its fsums only on a step whose stop test
could pass and rules out every other step from running sums. This copy
re-sums both totals of every live panel with math.fsum on every step, as
the engine did before, and tests/test_quadrature.py requires the two to
agree bit for bit: the same value, err_est and evals, and the same
ConvergenceError. It shares the engine's _panels, so only the bookkeeping
is compared.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from lfvdw.errors import ConvergenceError
from lfvdw.quadrature import QuadResult, _panels


def adaptive(f, breaks, spec, scale=None):
    """Integrate f over the panels between breaks, as quadrature._adaptive does."""
    to_u = None if scale is None else lambda t: scale * t / (1.0 - t)
    shape = []

    def g(x):
        y = np.asarray(f(x if to_u is None else to_u(x)), dtype=np.float64)
        shape[:] = y.shape[1:]
        y = y.reshape(x.size, -1)
        return y if to_u is None else y * (scale / (1.0 - x) ** 2)[:, None]

    def fsums(rows):
        return [math.fsum(c) for c in zip(*rows)]

    def tol(value):
        return [max(spec.rel_tol * abs(v), spec.abs_tol) for v in value]

    def public(v):
        return np.array(v) if shape else v[0]

    heap, seq, weight, edges, subdivisions = [], 0, None, breaks, 0
    while True:
        a, b, k15, err = _panels(g, edges, to_u)
        if weight is None:
            weight = 1.0 / np.array(tol(fsums(k15)))
        keys = (err * weight).max(axis=1).tolist()
        for panel in zip(keys, a, b, k15, err.tolist()):
            heapq.heappush(heap, (-panel[0], seq, *panel[1:]))
            seq += 1
        value, errs = fsums([h[4] for h in heap]), fsums([h[5] for h in heap])
        limits, evals = tol(value), 15 * seq
        if all(e <= t for e, t in zip(errs, limits)):
            return QuadResult(public(value), public(errs), evals)
        if subdivisions >= spec.max_subdivisions:
            k = max(range(len(errs)), key=lambda i: errs[i] / limits[i])
            raise ConvergenceError(
                f"no convergence after {subdivisions} subdivisions "
                f"({f'component {k}: ' if len(errs) > 1 else ''}"
                f"err_est={errs[k]:.3e}, value={value[k]:.6e})",
                value=public(value),
                err_est=public(errs),
                evals=evals,
            )
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        edges, subdivisions = (lo, 0.5 * (lo + hi), hi), subdivisions + 1
