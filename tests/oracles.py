"""Independent reference implementations used only by the test suite.

Everything here is derived from first principles (exact rational
arithmetic, classical quadrature, closed forms) and imports nothing from
the package, so agreement is evidence rather than tautology.
"""

from fractions import Fraction
from math import comb, factorial, pi, sqrt

import numpy as np


def wigner3j_exact(l1, l2, l3, m1, m2, m3):
    """3j symbol by the Racah sum in exact rational arithmetic.

    The square of the value is an exact Fraction; one final float sqrt is
    the only rounding, so the result is correct to ~1 ulp."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        return 0.0
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    pref2 = Fraction(
        factorial(l1 + l2 - l3) * factorial(l1 - l2 + l3)
        * factorial(-l1 + l2 + l3), factorial(l1 + l2 + l3 + 1))
    pref2 *= (factorial(l1 + m1) * factorial(l1 - m1)
              * factorial(l2 + m2) * factorial(l2 - m2)
              * factorial(l3 + m3) * factorial(l3 - m3))
    tmin = max(0, l2 - l3 - m1, l1 - l3 + m2)
    tmax = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    s = Fraction(0)
    for t in range(tmin, tmax + 1):
        den = (factorial(t) * factorial(l3 - l2 + m1 + t)
               * factorial(l3 - l1 - m2 + t) * factorial(l1 + l2 - l3 - t)
               * factorial(l1 - m1 - t) * factorial(l2 + m2 - t))
        s += Fraction((-1) ** t, den)
    if s == 0:
        return 0.0
    sign = (-1) ** (l1 - l2 - m3) * (1 if s > 0 else -1)
    return sign * sqrt(float(pref2 * s * s))


def gauss_legendre_integral(f, n=64):
    """int_{-1}^{1} f(x) dx by n-point Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(n)
    return float(np.sum(w * f(x)))


def d1_matrix(beta):
    """Closed-form spin-1 rotation matrix, rows/cols ordered m = -1, 0, 1."""
    c, s = np.cos(beta), np.sin(beta)
    r = 1.0 / np.sqrt(2.0)
    return np.array([
        [(1 + c) / 2, s * r, (1 - c) / 2],
        [-s * r, c, s * r],
        [(1 - c) / 2, -s * r, (1 + c) / 2],
    ])


def wigner_d_half_pi(l):
    """Wigner small-d matrix d^l(pi/2), indexed [m'+l, m+l], exactly.

    At beta = pi/2 the cos/sin powers of the factorial sum multiply to
    2^-l, and the sum itself is an integer of binomials,
        d = 2^-l sqrt((l+m')!(l-m')! / ((l+m)!(l-m)!))
              * sum_k (-1)^(m'-m+k) C(l+m, k) C(l-m, l-m'-k),
    so the square is an exact Fraction; one final float sqrt is the only
    rounding."""
    d = np.zeros((2 * l + 1, 2 * l + 1))
    for mp in range(-l, l + 1):
        for m in range(-l, l + 1):
            s = sum((-1) ** (mp - m + k) * comb(l + m, k) * comb(l - m, l - mp - k)
                    for k in range(max(0, m - mp), min(l + m, l - mp) + 1))
            sq = Fraction(s * s * factorial(l + mp) * factorial(l - mp),
                          factorial(l + m) * factorial(l - m) * 4 ** l)
            d[mp + l, m + l] = (1 if s >= 0 else -1) * sqrt(sq)
    return d


def legendre_poly_norm(l, x):
    """Pbar_l^0 via the plain Legendre recurrence, normalized to unit L2."""
    x = np.asarray(x, float)
    p0, p1 = np.ones_like(x), x
    if l == 0:
        p = p0
    elif l == 1:
        p = p1
    else:
        for n in range(2, l + 1):
            p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
        p = p1
    return np.sqrt((2 * l + 1) / 2.0) * p


def ylm(l, m, theta, phi):
    """Complex orthonormal Y_l^m(theta, phi) with the Condon-Shortley phase,
    by the closed form sqrt((2l+1)/4pi (l-m)!/(l+m)!) (-1)^m sin^m(theta)
    P_l^(m)(cos theta) e^{i m phi} for m >= 0, where P_l^(m) is the m-th
    derivative of the Legendre polynomial P_l (numpy's Legendre series, no
    associated-Legendre recurrence), and Y_l^{-m} = (-1)^m conj(Y_l^m)."""
    if abs(m) > l:
        raise ValueError("|m| must be <= l")
    am = abs(m)
    leg = np.polynomial.legendre
    dP = leg.legval(np.cos(theta), leg.legder([0] * l + [1], am))
    norm = sqrt((2 * l + 1) / (4 * pi) * factorial(l - am) / factorial(l + am))
    y = ((-1) ** am * norm * np.sin(theta) ** am * dP
         * np.exp(1j * am * np.asarray(phi, float)))
    return (-1) ** am * np.conj(y) if m < 0 else y


def triple_product_integral(t, c1, c2, c3, n_theta=64, n_phi=129):
    """Quadrature oracle for the trivial-projection contraction.

    Computes int f1 f2 f3 dOmega for the band-pure functions synthesized
    from per-degree coefficient rows c_i on degree t[i] (complex, m
    ascending).  Gauss-Legendre in latitude, trapezoid in longitude."""
    l1, l2, l3 = t
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")

    def synth(l, row):
        f = np.zeros(tg.shape, complex)
        for i, m in enumerate(range(-l, l + 1)):
            f += row[i] * ylm(l, m, tg, pg)
        return f

    f = synth(l1, c1) * synth(l2, c2) * synth(l3, c3)
    return complex(np.sum(w[:, None] * f) * (2 * np.pi / n_phi))


def sample_bilinear_fancy_index(x, theta, phi):
    """ERP bilinear sampling by four fancy-index gathers on the whole
    broadcast grid at once: the unblocked form of grid.sample_bilinear."""
    x = np.asarray(x)
    H, W = x.shape[:2]
    f = x if x.ndim == 3 else x[:, :, None]
    theta = np.asarray(theta, float)
    phi = np.mod(np.asarray(phi, float), 2.0 * np.pi)
    r = theta * H / np.pi - 0.5
    c = phi * W / (2.0 * np.pi) - 0.5
    r0 = np.floor(r).astype(int)
    c0 = np.floor(c).astype(int)
    dr = (r - r0)[..., None]
    dc = (c - c0)[..., None]
    r0c = np.clip(r0, 0, H - 1)
    r1c = np.clip(r0 + 1, 0, H - 1)
    c0m = np.mod(c0, W)
    c1m = np.mod(c0 + 1, W)
    out = (f[r0c, c0m] * (1 - dr) * (1 - dc) + f[r0c, c1m] * (1 - dr) * dc
           + f[r1c, c0m] * dr * (1 - dc) + f[r1c, c1m] * dr * dc)
    return out if x.ndim == 3 else out[..., 0]
