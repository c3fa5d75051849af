"""Generate frozen reference values with mpmath at 50 significant digits.

Everything here is computed through mpmath's own Bessel functions and
tanh-sinh quadrature, an entirely separate code path from the package
(which uses scaled real-valued recurrences and Gauss-Kronrod panels).
Run this script and paste the printed constants into the test modules;
they are committed there so the suite never depends on mpmath.

Usage: python3 tests/oracles/gen_values.py
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50


# ----------------------------------------------------------------------
# spherical Bessel / Hankel via half-integer cylinder functions
# ----------------------------------------------------------------------

def sph_j(l, z):
    z = mp.mpmathify(z)
    return mp.sqrt(mp.pi / (2 * z)) * mp.besselj(l + mp.mpf(1) / 2, z)


def sph_y(l, z):
    z = mp.mpmathify(z)
    return mp.sqrt(mp.pi / (2 * z)) * mp.bessely(l + mp.mpf(1) / 2, z)


def sph_h1(l, z):
    return sph_j(l, z) + 1j * sph_y(l, z)


# scaled imaginary-axis functions (all real for real t > 0)
def P(l, t):
    t = mp.mpmathify(t)
    return (mp.mpc(1j) ** (-l) * mp.e ** (-t) * sph_j(l, 1j * t)).real


def S(l, t):
    # h = j + i y cancels two e^{+t} terms down to e^{-t}; give mpmath
    # enough digits to survive the cancellation at large t.
    t = mp.mpmathify(t)
    with mp.workdps(mp.mp.dps + int(float(t)) + 20):
        val = (mp.mpc(1j) ** l * mp.e ** t * sph_h1(l, 1j * t)).real
    return +val


def Q(l, t):
    return t * P(l - 1, t) - l * P(l, t)


def T(l, t):
    return -t * S(l - 1, t) - l * S(l, t)


def cavity_c(t0, n, e_like, l):
    """Scaled reflection coefficient of the vacuum cavity, order l."""
    num = S(l, t0) * T(l, n * t0) - e_like * S(l, n * t0) * T(l, t0)
    den = e_like * S(l, n * t0) * Q(l, t0) - P(l, t0) * T(l, n * t0)
    return (-1) ** l * mp.e ** (-2 * t0) * num / den


def cavity_d(t0, n, eps, mu):
    """Cavity field transmission factor."""
    num = P(1, t0) * T(1, t0) - Q(1, t0) * S(1, t0)
    den = mu * (P(1, t0) * T(1, n * t0) - eps * Q(1, t0) * S(1, n * t0))
    return mp.e ** ((n - 1) * t0) * num / den


# ----------------------------------------------------------------------
# response models (single-pole Lorentz forms)
# ----------------------------------------------------------------------

def lorentz(u, terms):
    return 1 + mp.fsum(S0 / (w * w + g * u + u * u) for S0, w, g in terms)


def alpha(u, res):
    return mp.fsum(a * w * w / (w * w + u * u) for w, a in res)


GLASS_EPS = ((mp.mpf("1.5"), mp.mpf("1.2"), mp.mpf("0.02")),)
GLASS_MU = ((mp.mpf("0.2"), mp.mpf("2.0"), mp.mpf(0)),)
ATOM_A = ((mp.mpf(1), mp.mpf("0.02")),)
ATOM_B = ((mp.mpf("1.3"), mp.mpf("0.015")),)
ATOM_B_BETA = ((mp.mpf("2.1"), mp.mpf("0.004")),)

DIEL_EPS = ((mp.mpf(1), mp.mpf(1), mp.mpf(0)),)   # eps(0) = 2
MAGN_MU = ((mp.mpf(1), mp.mpf(1), mp.mpf(0)),)    # mu(0) = 2


def kernel_g(x):
    return 2 * mp.e ** (-2 * x) * (3 + 6 * x + 5 * x * x + 2 * x ** 3 + x ** 4)


def kernel_h(x):
    return 2 * mp.e ** (-2 * x) * (1 + 2 * x + x * x)


def kernel_force(y):
    return 4 * mp.e ** (-2 * y) * (9 + 18 * y + 16 * y * y + 8 * y ** 3 + 3 * y ** 4 + y ** 5)


def show(name, value):
    print(f"{name} = {mp.nstr(value, 20)}")


def main():
    print("# --- special functions (test_specfun) ---")
    for l in (1, 2, 3, 4):
        show(f"sph_j_{l}_at_0p3", sph_j(l, mp.mpf("0.3")))
        show(f"sph_j_{l}_at_2p7", sph_j(l, mp.mpf("2.7")))
        h = sph_h1(l, mp.mpf("1.9"))
        show(f"sph_h1_{l}_at_1p9_re", h.real)
        show(f"sph_h1_{l}_at_1p9_im", h.imag)
        zc = mp.mpc("0.8", "1.4")
        jc = sph_j(l, zc)
        show(f"sph_j_{l}_at_0p8_1p4j_re", jc.real)
        show(f"sph_j_{l}_at_0p8_1p4j_im", jc.imag)

    print()
    print("# --- scaled kernels (test_cavity) ---")
    for t in ("1e-8", "0.01", "0.5", "1.4999", "1.5001", "10", "700"):
        tt = mp.mpf(t)
        tag = t.replace(".", "p").replace("-", "m")
        show(f"P1_at_{tag}", P(1, tt))
        show(f"P2_at_{tag}", P(2, tt))
        show(f"Q1_at_{tag}", Q(1, tt))
        show(f"Q2_at_{tag}", Q(2, tt))
        show(f"S1_at_{tag}", S(1, tt))
        show(f"S2_at_{tag}", S(2, tt))
        show(f"T1_at_{tag}", T(1, tt))
        show(f"T2_at_{tag}", T(2, tt))

    print()
    print("# --- cavity coefficients at constant eps, mu (test_cavity) ---")
    cases = [
        ("eps2_ur0p01", mp.mpf(2), mp.mpf(1), mp.mpf("0.01")),
        ("eps5_mu1p5_ur0p05", mp.mpf(5), mp.mpf("1.5"), mp.mpf("0.05")),
        ("eps80_ur0p001", mp.mpf(80), mp.mpf(1), mp.mpf("0.001")),
        ("eps2_mu3_ur0p7", mp.mpf(2), mp.mpf(3), mp.mpf("0.7")),
    ]
    for tag, eps, mu, t0 in cases:
        n = mp.sqrt(eps * mu)
        show(f"C1_{tag}", cavity_c(t0, n, eps, 1))
        show(f"C2_{tag}", cavity_c(t0, n, eps, 2))
        show(f"C1M_{tag}", cavity_c(t0, n, mu, 1))
        show(f"D_{tag}", cavity_d(t0, n, eps, mu))

    print()
    print("# --- cavity coefficients on a weak magnetic-only host (test_cavity) ---")
    # S = 1e-8, w_T = 1.2, R_c = 0.05: eps = 1 and mu = 1 + zeta, with zeta
    # kept to every digit of the working precision
    weak_mu = ((mp.mpf("1e-8"), mp.mpf("1.2"), mp.mpf(0)),)
    for u in ("0.5", "5", "50"):
        uu = mp.mpf(u)
        t0, n = mp.mpf("0.05") * uu, mp.sqrt(lorentz(uu, weak_mu))
        show(f"C1_WEAK_MU_U{u.replace('.', 'p')}", cavity_c(t0, n, 1, 1))
        show(f"C2_WEAK_MU_U{u.replace('.', 'p')}", cavity_c(t0, n, 1, 2))

    print()
    print("# --- reference integrals (test_potentials) ---")
    # vacuum pair, identical atoms, l = 5
    l = mp.mpf(5)

    def f_pair_vac(u):
        return alpha(u, ATOM_A) ** 2 * kernel_g(u * l)

    u_pair_vac = -mp.quad(f_pair_vac, [0, 1, 10, mp.inf]) / (2 * mp.pi * l ** 6)
    show("U_PAIR_VACUUM_L5", u_pair_vac)

    # pair in the glass medium (corrected), l = 3
    l = mp.mpf(3)

    def f_pair_med(u):
        eps = lorentz(u, GLASS_EPS)
        mu = lorentz(u, GLASS_MU)
        n = mp.sqrt(eps * mu)
        w = (3 * eps / (2 * eps + 1)) ** 4
        return alpha(u, ATOM_A) * alpha(u, ATOM_B) / eps ** 2 * w * kernel_g(n * u * l)

    u_pair_med = -mp.quad(f_pair_med, [0, 1, 10, mp.inf]) / (2 * mp.pi * l ** 6)
    show("U_PAIR_GLASS_L3", u_pair_med)

    # same but uncorrected (w = 1)
    def f_pair_unc(u):
        eps = lorentz(u, GLASS_EPS)
        mu = lorentz(u, GLASS_MU)
        n = mp.sqrt(eps * mu)
        return alpha(u, ATOM_A) * alpha(u, ATOM_B) / eps ** 2 * kernel_g(n * u * l)

    u_pair_unc = -mp.quad(f_pair_unc, [0, 1, 10, mp.inf]) / (2 * mp.pi * l ** 6)
    show("U_PAIR_GLASS_L3_UNCORRECTED", u_pair_unc)

    # force in the glass medium, l = 3
    def f_force(u):
        eps = lorentz(u, GLASS_EPS)
        mu = lorentz(u, GLASS_MU)
        n = mp.sqrt(eps * mu)
        w = (3 * eps / (2 * eps + 1)) ** 4
        return alpha(u, ATOM_A) * alpha(u, ATOM_B) / eps ** 2 * w * kernel_force(n * u * l)

    f_med = -mp.quad(f_force, [0, 1, 10, mp.inf]) / (2 * mp.pi * l ** 7)
    show("F_PAIR_GLASS_L3", f_med)

    # single-atom bulk shift, exact coefficient, glass medium, R_c = 0.05
    rc = mp.mpf("0.05")

    def f_u1(u):
        eps = lorentz(u, GLASS_EPS)
        mu = lorentz(u, GLASS_MU)
        n = mp.sqrt(eps * mu)
        return u ** 3 * cavity_c(rc * u, n, eps, 1) * alpha(u, ATOM_A)

    u1 = -mp.quad(f_u1, [0, 1, 10, 100, 1500]) / mp.pi
    show("U1_EXACT_GLASS_R0p05", u1)

    # trapping stiffness, dielectric eps(0) = 2, R_c = 0.05
    def f_k(u):
        eps = lorentz(u, DIEL_EPS)
        n = mp.sqrt(eps)
        return u ** 5 * cavity_c(rc * u, n, eps, 2) * alpha(u, ATOM_A)

    k_diel = -mp.quad(f_k, [0, 1, 10, 100, 1500]) / (3 * mp.pi)
    show("K_DIEL_R0p05", k_diel)

    def f_k_m(u):
        mu = lorentz(u, MAGN_MU)
        n = mp.sqrt(mu)
        return u ** 5 * cavity_c(rc * u, n, 1, 2) * alpha(u, ATOM_A)

    k_mag = -mp.quad(f_k_m, [0, 1, 10, 100, 1500]) / (3 * mp.pi)
    show("K_MAGN_R0p05", k_mag)

    print()
    print("# --- Born shell trace (test_green), u = 0.8, R_o = 2, chi = 5e-3, zeta = 2e-3 ---")
    u0 = mp.mpf("0.8")
    ro = mp.mpf(2)
    chi = mp.mpf("0.005")
    zeta = mp.mpf("0.002")
    ig = mp.quad(lambda s: kernel_g(u0 * s) / s ** 4, [ro, ro + 5, ro + 40, mp.inf])
    ih = mp.quad(lambda s: kernel_h(u0 * s) / s ** 2, [ro, ro + 5, ro + 40, mp.inf])
    show("BORN_TRACE_U0p8", chi / (4 * mp.pi * u0 * u0) * ig - zeta / (4 * mp.pi) * ih)

    print()
    print("# --- static triple-ring coefficients (test_potentials) ---")
    # Tr[M01 M12 M20] with M = I - 3 vv, then U3 -> trace/(pi) * int alpha^3 / prod l^3
    # single resonance: int alpha(iu)^3 du = (3 pi/16) a^3 w
    import numpy as np

    def m_of(v):
        v = np.asarray(v, dtype=float)
        v = v / np.linalg.norm(v)
        return np.eye(3) - 3.0 * np.outer(v, v)

    r = [np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]),
         np.array([0.5, np.sqrt(3.0) / 2.0, 0.0])]
    tr_eq = np.trace(m_of(r[1] - r[0]) @ m_of(r[2] - r[1]) @ m_of(r[0] - r[2]))
    print(f"TRACE_MMM_EQUILATERAL = {float(tr_eq)!r}")
    r = [np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])]
    tr_col = np.trace(m_of(r[1] - r[0]) @ m_of(r[2] - r[1]) @ m_of(r[0] - r[2]))
    print(f"TRACE_MMM_COLLINEAR = {float(tr_col)!r}")
    # static limit for side s, identical atoms (w, a):
    #   U3 = (3/16) a^3 w * Tr / (l01 l12 l20)^3
    a, w = mp.mpf("0.02"), mp.mpf(1)
    s = mp.mpf("0.002")
    show("U3_STATIC_EQUILATERAL_S0p002",
         mp.mpf(3) / 16 * a ** 3 * w * mp.mpf(float(tr_eq)) / s ** 9)

    print()
    print("# --- linearized single-atom shift vs radial closed forms ---")
    # J(t) = 2 e^{-2t}(1/t^3 + 2/t^2 + 1/t + 1/2), K(t) = 2 e^{-2t}(1/t + 1/2)
    rho = mp.mpf("0.0053")

    def f_lin(u):
        t = rc * u
        chi_u = 4 * mp.pi * rho * alpha(u, ATOM_B)
        zeta_u = 4 * mp.pi * rho * alpha(u, ATOM_B_BETA)
        jj = 1 / t ** 3 + 2 / t ** 2 + 1 / t + mp.mpf(1) / 2
        kk = 1 / t + mp.mpf(1) / 2
        return u ** 3 * alpha(u, ATOM_A) * mp.e ** (-2 * t) * (jj * chi_u - kk * zeta_u)

    u1_lin = -mp.quad(f_lin, [0, 1, 10, 100, mp.inf]) / mp.pi
    show("U1_LINEARIZED_RHO0p0053_R0p05", u1_lin)

    print()
    print("# --- retarded / non-retarded pair coefficients, glass medium ---")
    eps0 = lorentz(mp.mpf(0), GLASS_EPS)
    mu0 = lorentz(mp.mpf(0), GLASS_MU)
    n0 = mp.sqrt(eps0 * mu0)
    w0 = (3 * eps0 / (2 * eps0 + 1)) ** 4
    a0a = alpha(mp.mpf(0), ATOM_A)
    a0b = alpha(mp.mpf(0), ATOM_B)
    c_r = mp.mpf(23) / (4 * mp.pi) * a0a * a0b * w0 / (n0 * eps0 ** 2)
    show("C_R_GLASS_AB", c_r)

    def f_cnr(u):
        eps = lorentz(u, GLASS_EPS)
        w = (3 * eps / (2 * eps + 1)) ** 4
        return alpha(u, ATOM_A) * alpha(u, ATOM_B) / eps ** 2 * w

    c_nr = mp.mpf(3) / mp.pi * mp.quad(f_cnr, [0, 1, 10, mp.inf])
    show("C_NR_GLASS_AB", c_nr)


if __name__ == "__main__":
    main()
