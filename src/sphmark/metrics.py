"""Quality and robustness metrics, plus the noise-bias Monte-Carlo fit."""

import numpy as np

from . import attacks, coupling, grid, harmonics


def psnr(a, b):
    """Peak SNR in dB for unit-range images, capped at 99 dB."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    mse = float(np.mean((a - b) ** 2))
    if mse <= 0.0:
        return 99.0
    return float(min(99.0, 10.0 * np.log10(1.0 / mse)))


# SSIM's window: 11 taps, sigma 1.5, mirrored borders (d c b | a b c d |
# c b a).  It runs as GEMMs against one Toeplitz band of _TILE output rows,
# along each axis in tiles of _TILE samples with a _RADIUS-sample halo, so
# its cost grows linearly with the image.  With one BLAS thread, tiles of
# 32 ran as fast as 16 and faster than 64 or 128 at H=64 and at H=256.
_RADIUS = 5
_TILE = 32
_BAND = np.zeros((_TILE, _TILE + 2 * _RADIUS))
np.put_along_axis(_BAND, np.arange(_TILE)[:, None] + np.arange(2 * _RADIUS + 1),
                  attacks.gaussian_kernel(2 * _RADIUS + 1, 1.5)[None], axis=1)
_BAND.setflags(write=False)


def _mirrored(n):
    """Indices of 0..n-1 with a mirrored _RADIUS-sample halo on each side."""
    i = np.abs(np.arange(-_RADIUS, n + _RADIUS))
    return np.where(i > n - 1, 2 * (n - 1) - i, i)


def _window(p):
    """Window means of stacked maps p, shape (k + 10, m, w + 10) with
    mirrored halos on axes 0 and 2; returns (k, m, w)."""
    r2 = 2 * _RADIUS
    k, m, w = p.shape[0] - r2, p.shape[1], p.shape[2] - r2
    rows = p.reshape(-1, w + r2)
    v = np.empty((k + r2, m, w))
    cols = v.reshape(-1, w)
    for s in range(0, w, _TILE):
        e = min(w, s + _TILE)
        np.matmul(rows[:, s:e + r2], _BAND[:e - s, :e - s + r2].T,
                  out=cols[:, s:e])
    out = np.empty((k, m, w))
    for s in range(0, k, _TILE):
        e = min(k, s + _TILE)
        np.matmul(_BAND[:e - s, :e - s + r2], v[s:e + r2].reshape(e - s + r2, -1),
                  out=out[s:e].reshape(e - s, -1))
    return out


def ssim(a, b):
    """Mean structural similarity; constants (0.01)^2, (0.03)^2 on unit range.

    The five window maps of all channels are built and windowed in bands
    of _TILE rows, so no step holds a full-raster stack of them."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    if a.shape[0] < 11 or a.shape[1] < 11:
        raise ValueError("image smaller than the 11x11 window")
    fa = a if a.ndim == 3 else a[:, :, None]
    fb = b if b.ndim == 3 else b[:, :, None]
    H, W, ch = fa.shape
    C1 = 0.01 ** 2
    C2 = 0.03 ** 2
    R = _RADIUS
    rows = _mirrored(H)
    buf = np.empty((min(H, _TILE) + 2 * R, 5, ch, W + 2 * R))
    total = 0.0
    for s in range(0, H, _TILE):
        # the band's rows with their row halo, as five maps, then the
        # column halos mirrored in place
        r = rows[s:min(H, s + _TILE) + 2 * R]
        x = fa[r].transpose(0, 2, 1)
        y = fb[r].transpose(0, 2, 1)
        p = buf[:len(r)]
        q = p[..., R:R + W]
        q[:, 0] = x
        q[:, 1] = y
        np.multiply(x, x, out=q[:, 2])
        np.multiply(y, y, out=q[:, 3])
        np.multiply(x, y, out=q[:, 4])
        p[..., :R] = p[..., 2 * R:R:-1]
        p[..., R + W:] = p[..., R + W - 2:W - 2:-1]
        mx, my, exx, eyy, exy = _window(p.reshape(len(r), 5 * ch, -1)).reshape(
            -1, 5, ch, W).transpose(1, 0, 2, 3)
        mxy = mx * my
        mxx = mx * mx
        myy = my * my
        num = (2 * mxy + C1) * (2 * (exy - mxy) + C2)
        den = (mxx + myy + C1) * ((exx - mxx) + (eyy - myy) + C2)
        total += float(np.sum(num / den))
    return total / (H * W * ch)


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
                cn = harmonics.ShCoefficients(c.data + sgn * s * nz, c.l_max, c.real)
                acc += coupling.bispectrum_vector(cn, triplets).total.real
        y[i] = acc / (2.0 * trials * I0)
    x = sigmas ** 2
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(coef[1]), float(r2)
