"""Array kernels shared by the response, cavity, green and potentials modules.

Every function here is plain numpy array code over float64 node arrays,
1-D except where a docstring gives another shape. Inside an integral a
kernel runs under the quadrature engine's np.errstate, so a value may
overflow to inf there with no warning (pair_dyads' 1/y^3 at a tiny
separation, say); the engine or the caller's finiteness check names it.
The clips below guard values, not warnings.

Bit contract
------------
The kernels give the bits of the C library's libm, so that results do not
depend on which SIMD features numpy detects on the host (numpy's vectorised
``exp``, ``expm1`` and ``power`` differ from libm in the last bit on a few
percent of inputs where AVX-512 is available). Therefore:

- exponentials go through :func:`_exp`, which takes numpy's complex
  ``exp`` of x + 0i in one C loop. numpy hands that to the C library's
  ``cexp``, and at zero imaginary part ``cexp`` returns exp(x) * cos(0),
  so the real part is libm's ``exp(x)`` bit for bit (numpy's own fallback
  and musl compute it the same way). glibc's ``cexp`` rescales once
  x > 709, just below (DBL_MAX_EXP - 1) ln 2, so the complex call is
  clipped at 709 and the rare nodes above it are mapped through
  ``math.exp``, which still raises ``OverflowError`` past 709.78;
- ``expm1`` has no complex counterpart, so :func:`_expm1` maps
  ``math.expm1`` over the nodes (as ``cli`` maps ``math.log``: ``clog``
  is not ``log``);
- integer powers are written as products (``t * t * t``, not ``t**3``);
- no bare ``np.exp``, ``np.expm1`` or ``**`` appears in a kernel body.

Only the last-bit agreement with libm is promised; a C library other than
glibc may round differently. ``tests/test_cavity.py`` checks :func:`_exp`
against ``math.exp`` node by node, so a host whose complex ``exp`` is not
libm's fails there.

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

_SERIES_CUT = 3.0
_SERIES_TERMS = 16
_EXP_CLIP = 709.0  # glibc's cexp rescales above about 709.09
# e^{-2x} is exactly 0 past x = 372.6, so clipping x at this in the pair
# kernels moves no value and leaves neither an inf * 0 nor an overflowing -2x
_POLY_CLIP = 1e3


def _libm(fn, x):
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _exp(x):
    """e^x per node with libm's bits: the real part of the complex exp below
    the clip, math.exp above it."""
    y = np.exp(np.minimum(x, _EXP_CLIP).astype(np.complex128)).real.copy()
    big = x > _EXP_CLIP
    if big.any():
        y[big] = _libm(math.exp, x[big])
    return y


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


def _poly(p, coefs):
    """The monic c_0 + p (c_1 + ... + p (c_{n-1} + p)) of coefs = (c_0, ..., c_{n-1}):
    Horner's steps run in place on one array, the same IEEE operations as the
    product written out."""
    out = p + coefs[-1]
    for c in reversed(coefs[:-1]):
        out *= p
        out += c
    return out


def kernel_g(x):
    """Traced electric pair kernel 2 e^{-2x} (3 + 6x + 5x^2 + 2x^3 + x^4)."""
    p = np.minimum(x, _POLY_CLIP)
    return 2.0 * _exp(-2.0 * p) * _poly(p, (3.0, 6.0, 5.0, 2.0))


def kernel_h(x):
    """Traced magnetic pair kernel 2 e^{-2x} (1 + 2x + x^2)."""
    p = np.minimum(x, _POLY_CLIP)
    return 2.0 * _exp(-2.0 * p) * _poly(p, (1.0, 2.0))


def kernel_force(y):
    """Radial-derivative kernel 6 g(y) - y g'(y) = 4 e^{-2y} (9 + 18y + 16y^2 + 8y^3 + 3y^4 + y^5)."""
    p = np.minimum(y, _POLY_CLIP)
    return 4.0 * _exp(-2.0 * p) * _poly(p, (9.0, 18.0, 16.0, 8.0, 3.0))


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
    p_prev, p_l, s_l, t_l, sign = (p0, p1, s1, t1, -1.0) if l == 1 else (p1, p2, s2, t2, 1.0)
    p = p_l(t0)
    q = t0 * p_prev(t0) - l * p
    num = s_l(t0) * t_l(tn) - eps_like * s_l(tn) * t_l(t0)
    den = eps_like * s_l(tn) * q - p * t_l(tn)
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
    q = t0 * p0(t0) - p
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
