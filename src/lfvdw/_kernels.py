"""Array kernels shared by the response, cavity, green and potentials modules.

Every function here is plain numpy array code over float64 node arrays,
1-D except where a docstring gives another shape.

Bit contract
------------
The kernels give the bits of the C library's libm, so that results do not
depend on which SIMD features numpy detects on the host (numpy's vectorised
``exp``, ``expm1`` and ``power`` differ from libm in the last bit on a few
percent of inputs where AVX-512 is available). Therefore:

- exponentials go through :func:`_exp` and :func:`_expm1`, which map
  ``math.exp`` / ``math.expm1`` over the nodes;
- integer powers are written as products (``t * t * t``, not ``t**3``);
- no bare ``np.exp``, ``np.expm1`` or ``**`` appears in a kernel body.

Only the last-bit agreement with libm is promised; a C library other than
glibc may round differently.

Scaled spherical functions on the imaginary axis
------------------------------------------------
For t > 0 the combinations

    P_l(t) = i^{-l} e^{-t} j_l(it)            (regular, bounded)
    Q_l(t) = t P_{l-1}(t) - l P_l(t)          (= i^{-l} e^{-t} [x j_l(x)]' at x=it)
    S_l(t) = i^{l} e^{t} h_l^{(1)}(it)        (outgoing, bounded)
    T_l(t) = -t S_{l-1}(t) - l S_l(t)         (= i^{l} e^{t} [x h_l^{(1)}(x)]' at x=it)

are all real, which keeps the cavity coefficient evaluation free of complex
arithmetic and of exponential overflow: the e^{±t} factors cancel
analytically in the coefficient ratios below. P_1 and P_2 in closed form
lose all significant digits for small t (the 1/t^k terms cancel to O(t^l)),
so below t = 3 they are evaluated by their positive-term power series. The
cut sits at 3 because P_2's closed form still loses a few ulp to that
cancellation below it (2.8e-15 relative at t = 1.5), while the 16-term series
stays within 6e-16 of the exact value up to t = 3.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "lorentz_sum",
    "alpha_sum",
    "kernel_g",
    "kernel_h",
    "kernel_force",
    "born_bracket",
    "p0",
    "p1",
    "p2",
    "q1",
    "s1",
    "s2",
    "t1",
    "t2",
    "cavity_c",
    "cavity_c1_expansion",
    "cavity_d",
    "pair_dyads",
    "ring_trace",
]

_SERIES_CUT = 3.0
_SERIES_TERMS = 16


def _libm(fn, x):
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _exp(x):
    """e^x per node through libm."""
    return _libm(math.exp, x)


def _expm1(x):
    """e^x - 1 per node through libm."""
    return _libm(math.expm1, x)


def lorentz_sum(u, strength, resonance, damping):
    """Sum of Lorentz terms S_j / (w_Tj^2 + g_j u + u^2) over node array u."""
    out = np.zeros_like(u)
    for j in range(strength.shape[0]):
        out += strength[j] / (resonance[j] * resonance[j] + damping[j] * u + u * u)
    return out


def alpha_sum(u, strength, resonance):
    """Polarizability-type sum a_k w_k^2 / (w_k^2 + u^2) over node array u."""
    out = np.zeros_like(u)
    for k in range(strength.shape[0]):
        w2 = resonance[k] * resonance[k]
        out += strength[k] * w2 / (w2 + u * u)
    return out


def kernel_g(x):
    """Traced electric pair kernel 2 e^{-2x} (3 + 6x + 5x^2 + 2x^3 + x^4)."""
    return 2.0 * _exp(-2.0 * x) * (3.0 + x * (6.0 + x * (5.0 + x * (2.0 + x))))


def kernel_h(x):
    """Traced magnetic pair kernel 2 e^{-2x} (1 + 2x + x^2)."""
    return 2.0 * _exp(-2.0 * x) * (1.0 + x * (2.0 + x))


def kernel_force(y):
    """Radial-derivative kernel 6 g(y) - y g'(y) = 4 e^{-2y} (9 + 18y + 16y^2 + 8y^3 + 3y^4 + y^5)."""
    return 4.0 * _exp(-2.0 * y) * (
        9.0 + y * (18.0 + y * (16.0 + y * (8.0 + y * (3.0 + y))))
    )


def born_bracket(x, chi, zeta):
    """Dilute-shell bracket e^{-2x} [(2/x^3 + 4/x^2 + 2/x + 1) chi - (2/x + 1) zeta].

    The two polynomials times e^{-2x} are the tails int_x^inf g(s)/s^4 ds
    and int_x^inf h(s)/s^2 ds of the traced pair kernels.
    """
    return _exp(-2.0 * x) * (
        (((2.0 / x + 4.0) / x + 2.0) / x + 1.0) * chi - (2.0 / x + 1.0) * zeta
    )


def p0(t):
    # e^{-t} sinh(t)/t = -expm1(-2t)/(2t), stable for all t > 0
    return -_expm1(-2.0 * t) / (2.0 * t)


def _p_series(t, l):
    # e^{-t} sum_k t^{2k+l} / (2^k k! (2l+2k+1)!!), positive terms only
    if l == 1:
        term = t / 3.0
    else:
        term = t * t / 15.0
    acc = term.copy()
    for k in range(1, _SERIES_TERMS):
        term = term * t * t / (2.0 * k * (2.0 * l + 2.0 * k + 1.0))
        acc += term
    return _exp(-t) * acc


def p1(t):
    tc = np.maximum(t, 1.0)
    tc2 = tc * tc
    closed = 0.5 * ((1.0 / tc - 1.0 / tc2) + _exp(-2.0 * tc) * (1.0 / tc + 1.0 / tc2))
    return np.where(t < _SERIES_CUT, _p_series(t, 1), closed)


def p2(t):
    tc = np.maximum(t, 1.0)
    tc2 = tc * tc
    tc3 = tc2 * tc
    closed = 0.5 * (
        (1.0 / tc - 3.0 / tc2 + 3.0 / tc3)
        - _exp(-2.0 * tc) * (1.0 / tc + 3.0 / tc2 + 3.0 / tc3)
    )
    return np.where(t < _SERIES_CUT, _p_series(t, 2), closed)


def q1(t):
    return t * p0(t) - p1(t)


def s1(t):
    return -(1.0 / t + 1.0 / (t * t))


def s2(t):
    tsq = t * t
    return -(1.0 / t + 3.0 / tsq + 3.0 / (tsq * t))


def t1(t):
    return 1.0 + 1.0 / t + 1.0 / (t * t)


def t2(t):
    tsq = t * t
    return 1.0 + 3.0 / t + 6.0 / tsq + 6.0 / (tsq * t)


def cavity_c(t0, nrel, eps_like, l):
    """Mie-type cavity reflection coefficient C_l(iu), real on the imaginary axis.

    C_l(iu) = (-1)^l e^{-2 t0} [S_l(t0) T_l(n t0) - e S_l(n t0) T_l(t0)]
                          / [e S_l(n t0) Q_l(t0) - P_l(t0) T_l(n t0)]

    with t0 = u R_c, n = n(iu) and e the permittivity (electric kind) or the
    permeability (magnetic kind; n is symmetric under the swap).
    """
    tn = nrel * t0
    if l == 1:
        p = p1(t0)
        q = t0 * p0(t0) - p
        num = s1(t0) * t1(tn) - eps_like * s1(tn) * t1(t0)
        den = eps_like * s1(tn) * q - p * t1(tn)
        sign = -1.0
    else:
        p = p2(t0)
        q = t0 * p1(t0) - 2.0 * p
        num = s2(t0) * t2(tn) - eps_like * s2(tn) * t2(t0)
        den = eps_like * s2(tn) * q - p * t2(tn)
        sign = 1.0
    return sign * _exp(-2.0 * t0) * num / den


def cavity_c1_expansion(t0, eps, mu, nrel):
    """Three-term small-radius expansion of C_1(iu).

    3 (e-1)/((2e+1) t0^3) - (9/5) [e^2(5m-1) - 3e - 1]/((2e+1)^2 t0)
        + 9 e n^3/(2e+1)^2 - 1
    """
    d = 2.0 * eps + 1.0
    lead = 3.0 * (eps - 1.0) / (d * (t0 * t0 * t0))
    mid = -1.8 * (eps * eps * (5.0 * mu - 1.0) - 3.0 * eps - 1.0) / (d * d * t0)
    const = 9.0 * eps * (nrel * nrel * nrel) / (d * d) - 1.0
    return lead + mid + const


def cavity_d(t0, nrel, eps, mu):
    """Cavity-to-medium transmission factor D(iu), real on the imaginary axis.

    D(iu) = e^{(n-1) t0} [P1 T1 - Q1 S1](t0)
                / (m [P1(t0) T1(n t0) - e Q1(t0) S1(n t0)])

    The numerator is the Wronskian combination (analytically 1/t0); it is
    evaluated through the same code path as the denominator so the vacuum
    case returns exactly 1.
    """
    tn = nrel * t0
    p = p1(t0)
    q = q1(t0)
    num = p * t1(t0) - q * s1(t0)
    den = mu * (p * t1(tn) - eps * q * s1(tn))
    return _exp((nrel - 1.0) * t0) * num / den


def pair_dyads(nu, mu, dist, vv):
    """Bulk Green dyads of P atom pairs at M nodes, shape (M, P, 3, 3).

    G = (mu n u / 4 pi) e^{-y} [a(y) I - b(y) vv],  y = n u L,
    a(y) = 1/y + 1/y^2 + 1/y^3,  b(y) = 1/y + 3/y^2 + 3/y^3,

    with nu = n u and mu per node, L the pair distances and vv the outer
    products of the unit separation vectors, shape (P, 3, 3). Each dyad
    is symmetric and unchanged when the pair is swapped.
    """
    y = nu[:, None] * dist[None, :]
    a = (1.0 + (1.0 + 1.0 / y) / y) / y
    b = (1.0 + (3.0 + 3.0 / y) / y) / y
    coef = (mu * nu / (4.0 * math.pi))[:, None] * _exp(-y)
    return coef[..., None, None] * (a[..., None, None] * np.eye(3) - b[..., None, None] * vv)


def ring_trace(nu, mu, dist, vv, legs):
    """Traces of ring products of bulk dyads, shape (M, O).

    nu, mu, dist and vv are as in :func:`pair_dyads`; legs is an (O, N)
    table of pair indices, one row per ring ordering, so that row o gives
    Tr[G_{legs[o, 0]} G_{legs[o, 1]} ... G_{legs[o, N-1]}] at every node.
    """
    dyads = pair_dyads(nu, mu, dist, vv)
    prod = dyads[:, legs[:, 0]]
    for k in range(1, legs.shape[1]):
        prod = prod @ dyads[:, legs[:, k]]
    return prod[..., 0, 0] + prod[..., 1, 1] + prod[..., 2, 2]
