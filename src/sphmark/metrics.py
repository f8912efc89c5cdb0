"""Quality and robustness metrics, plus the noise-bias Monte-Carlo fit."""

import numpy as np
import scipy.ndimage

from . import coupling, grid, harmonics


def psnr(a, b, cap=99.0):
    """Peak SNR in dB for unit-range images; identical inputs hit the cap."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    mse = float(np.mean((a - b) ** 2))
    if mse <= 0.0:
        return float(cap)
    return float(min(cap, 10.0 * np.log10(1.0 / mse)))


def _win(x):
    # 11-tap Gaussian window, sigma 1.5, mirrored borders
    return scipy.ndimage.gaussian_filter(x, 1.5, truncate=5.0 / 1.5,
                                         mode="mirror")


def ssim(a, b):
    """Mean structural similarity; constants (0.01)^2, (0.03)^2 on unit range."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    if a.shape[0] < 11 or a.shape[1] < 11:
        raise ValueError("image smaller than the 11x11 window")
    fa = a if a.ndim == 3 else a[:, :, None]
    fb = b if b.ndim == 3 else b[:, :, None]
    C1 = 0.01 ** 2
    C2 = 0.03 ** 2
    vals = []
    for c in range(fa.shape[2]):
        x, y = fa[:, :, c], fb[:, :, c]
        mx, my = _win(x), _win(y)
        sxx = _win(x * x) - mx * mx
        syy = _win(y * y) - my * my
        sxy = _win(x * y) - mx * my
        num = (2 * mx * my + C1) * (2 * sxy + C2)
        den = (mx * mx + my * my + C1) * (sxx + syy + C2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def bit_accuracy(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("bit array shapes differ")
    return float((a == b).mean())


def bispectrum_cosine(v1, v2):
    """Cosine similarity of the real parts of two invariant vectors.

    The two vectors must cover the same triplets in the same order; a
    zero vector on either side yields 0."""
    if list(v1.triplets) != list(v2.triplets):
        raise ValueError("invariant vectors cover different triplet lists")
    x = np.asarray(v1.values).real
    y = np.asarray(v2.values).real
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


def retained_energy_ratio(vec, l_c):
    """Share of invariant energy on triplets lying fully at or below l_c."""
    tot = float(np.sum(np.abs(vec.values) ** 2))
    if tot == 0.0:
        return 0.0
    keep = sum(float(abs(v) ** 2)
               for t, v in zip(vec.triplets, vec.values) if max(t) <= l_c)
    return keep / tot


def _flat_symmetric_noise(rng, l_max, channels):
    """Unit-variance conjugate-symmetric coefficient noise, all degrees."""
    return np.stack([harmonics._random_symmetric(rng, l_max, 0.0)
                     for _ in range(channels)])


def noise_bias_fit(cover, sigmas, trials=200, triplets=None, seed=0):
    """Monte-Carlo noise bias of the total invariant, fit against sigma^2.

    Additive coefficient noise biases the total third-order invariant by
    a term linear in the noise variance.  Common random numbers plus
    antithetic +-noise pairs cancel the odd-order terms, so the measured
    ratio E[I_noisy]/I is affine in sigma^2 up to Monte-Carlo error.
    Returns (lambda_hat, r_squared) of the least-squares line."""
    if triplets is None:
        triplets = coupling.admissible_triplets((6, 8, 14), 16)
    l_need = max(max(t) for t in triplets)
    if isinstance(cover, harmonics.ShCoefficients):
        c = cover
    else:
        c = harmonics.forward_sht(np.asarray(cover, float), l_need)
    if c.l_max > l_need:
        # degrees above the triplet ceiling never touch the invariant;
        # dropping them keeps the noise draws aligned across input forms
        c = harmonics.ShCoefficients(
            c.data[:, :harmonics.n_coeffs(l_need)].copy(), l_need, c.real)
    elif c.l_max < l_need:
        raise ValueError("coefficients end at degree %d but triplets need %d"
                         % (c.l_max, l_need))
    sigmas = np.asarray(sigmas, float)
    if sigmas.ndim != 1 or sigmas.size < 2 or (sigmas < 0).any():
        raise ValueError("need >= 2 non-negative noise levels")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    I0 = coupling.bispectrum_vector(c, triplets).total.real
    if abs(I0) < 1e-12:
        raise ValueError("total invariant is too small to normalize against")
    rng = np.random.default_rng(seed)
    noises = [_flat_symmetric_noise(rng, c.l_max, c.channels)
              for _ in range(trials)]
    y = np.empty(sigmas.size)
    for i, s in enumerate(sigmas):
        acc = 0.0
        for nz in noises:
            for sgn in (1.0, -1.0):
                cn = harmonics.ShCoefficients(c.data + sgn * s * nz, c.l_max)
                acc += coupling.bispectrum_vector(cn, triplets).total.real
        y[i] = acc / (2.0 * trials * I0)
    x = sigmas ** 2
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(coef[1]), float(r2)
