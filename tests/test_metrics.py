import numpy as np
import pytest
import scipy.ndimage

from sphmark import coupling, harmonics, metrics
from sphmark.coupling import BispectrumVector, admissible_triplets, bispectrum_vector
from sphmark.metrics import (
    bispectrum_cosine, bit_accuracy, noise_bias_fit, psnr, ssim,
)


def test_psnr_values_and_cap():
    a = np.full((16, 32), 0.5)
    assert psnr(a, a) == 99.0
    b = a + 0.1
    assert psnr(a, b) == pytest.approx(20.0)     # mse = 0.01
    with pytest.raises(ValueError):
        psnr(a, np.zeros((8, 16)))


def test_ssim_basic_properties():
    x = harmonics.make_cover(20)
    assert ssim(x, x) == pytest.approx(1.0)
    noisy = np.clip(x + 0.1 * np.random.default_rng(0).standard_normal(x.shape), 0, 1)
    v = ssim(x, noisy)
    assert 0.0 < v < 0.95
    # gentler perturbation scores closer to 1
    mild = np.clip(x + 0.01 * np.random.default_rng(0).standard_normal(x.shape), 0, 1)
    assert ssim(x, mild) > v
    gray = x[:, :, 0]
    assert ssim(gray, gray) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ssim(x, x[:32])
    with pytest.raises(ValueError):
        ssim(np.zeros((8, 16)), np.zeros((8, 16)))   # below the 11x11 window


def _scipy_window(x):
    # the 11-tap, sigma 1.5 Gaussian window with mirrored borders as
    # scipy.ndimage computes it; reference only
    return scipy.ndimage.gaussian_filter(x, 1.5, truncate=5.0 / 1.5,
                                         mode="mirror")


def _ssim_scipy(a, b):
    # one gaussian_filter per map and channel: the form the numpy window
    # replaced; reference only
    fa = a if a.ndim == 3 else a[:, :, None]
    fb = b if b.ndim == 3 else b[:, :, None]
    C1 = 0.01 ** 2
    C2 = 0.03 ** 2
    vals = []
    for c in range(fa.shape[2]):
        x, y = fa[:, :, c], fb[:, :, c]
        mx, my = _scipy_window(x), _scipy_window(y)
        sxx = _scipy_window(x * x) - mx * mx
        syy = _scipy_window(y * y) - my * my
        sxy = _scipy_window(x * y) - mx * my
        num = (2 * mx * my + C1) * (2 * sxy + C2)
        den = (mx * mx + my * my + C1) * (sxx + syy + C2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def test_ssim_matches_scipy_window():
    rng = np.random.default_rng(11)
    # the smallest accepted shape, widths on and off the 32-sample tile,
    # gray, one-channel and three-channel
    for shape in ((11, 22), (64, 128, 3), (100, 200, 3), (256, 512),
                  (300, 600, 1)):
        a = rng.random(shape)
        b = np.clip(a + 0.05 * rng.standard_normal(shape), 0.0, 1.0)
        assert abs(ssim(a, b) - _ssim_scipy(a, b)) <= 1e-12
        assert abs(ssim(a, a) - _ssim_scipy(a, a)) <= 1e-12
    flat = np.full((64, 128, 3), 0.4)
    a = rng.random(flat.shape)
    assert abs(ssim(flat, flat) - _ssim_scipy(flat, flat)) <= 1e-12
    assert abs(ssim(flat, a) - _ssim_scipy(flat, a)) <= 1e-12
    # the window alone, tiled along both axes
    x = rng.random((100, 203))
    got = metrics._window(np.pad(x, 5, mode="reflect")[:, None, :])[:, 0]
    assert np.abs(got - _scipy_window(x)).max() <= 1e-14


def test_bit_accuracy():
    a = np.array([1, 0, 1, 1])
    assert bit_accuracy(a, a) == 1.0
    assert bit_accuracy(a, np.array([1, 0, 0, 0])) == 0.5
    with pytest.raises(ValueError):
        bit_accuracy(a, a[:-1])


def test_bispectrum_cosine_cases():
    c = harmonics.forward_sht(harmonics.make_cover(21), 16)
    trips = admissible_triplets({6, 8, 14}, 16)
    v = bispectrum_vector(c, trips)
    assert bispectrum_cosine(v, v) == pytest.approx(1.0)
    neg = BispectrumVector(trips, -v.values)
    assert bispectrum_cosine(v, neg) == pytest.approx(-1.0)
    zero = BispectrumVector(trips, np.zeros(len(trips)))
    assert bispectrum_cosine(v, zero) == 0.0
    other = BispectrumVector(admissible_triplets({6, 8}, 16),
                             np.ones(len(admissible_triplets({6, 8}, 16))))
    with pytest.raises(ValueError):
        bispectrum_cosine(v, other)


def _flat_symmetric_noise_loop(rng, l_max, channels):
    # the per-m loop the shared harmonics draw replaced; reference only
    out = np.zeros((channels, harmonics.n_coeffs(l_max)), complex)
    for ch in range(channels):
        for l in range(l_max + 1):
            blk = np.zeros(2 * l + 1, complex)
            blk[l] = rng.standard_normal()
            for m in range(1, l + 1):
                zre, zim = rng.standard_normal(2) / np.sqrt(2.0)
                blk[l + m] = zre + 1j * zim
                blk[l - m] = ((-1) ** m) * np.conj(blk[l + m])
            out[ch, l * l:(l + 1) * (l + 1)] = blk
    return out


def test_flat_symmetric_noise_is_symmetric():
    rng = np.random.default_rng(0)
    nz = metrics._flat_symmetric_noise(rng, 8, 3)
    c = harmonics.ShCoefficients(nz, 8, real=True)
    assert c.symmetry_deviation() < 1e-14
    # same draws as the loop; x * (1/sqrt 2) and x / sqrt 2 may differ by an ulp
    want = _flat_symmetric_noise_loop(np.random.default_rng(0), 8, 3)
    assert np.allclose(nz, want, rtol=np.finfo(float).eps, atol=0.0)


def test_noise_bias_fit_is_affine_in_variance():
    # antithetic pairs cancel odd orders exactly: the ratio is an exact
    # affine function of sigma^2, so R^2 ~ 1 even with few trials
    cover = harmonics.make_cover(50)
    c = harmonics.forward_sht(cover, 16)
    from sphmark.codec import coefficient_rms
    rms = coefficient_rms(c.data, (6, 8, 14))
    sigmas = np.array([0.01, 0.02, 0.03, 0.04, 0.05]) * rms
    lam, r2 = noise_bias_fit(c, sigmas, trials=40, seed=1)
    assert r2 >= 0.999
    assert np.isfinite(lam)


def test_noise_bias_scaling_identity():
    # doubling the cover: the bias term is linear in the cover while the
    # total is cubic, so the fitted slope drops by exactly 4 under CRN
    cover = harmonics.make_cover(51)
    c = harmonics.forward_sht(cover, 16)
    c2 = harmonics.ShCoefficients(2.0 * c.data, 16, real=True)
    sig = np.array([0.002, 0.004, 0.006])
    lam1, _ = noise_bias_fit(c, sig, trials=20, seed=3)
    lam2, _ = noise_bias_fit(c2, sig, trials=20, seed=3)
    assert lam2 == pytest.approx(lam1 / 4.0, rel=1e-9)


def test_noise_bias_fit_keeps_the_real_flag(monkeypatch):
    # the noise is conjugate symmetric, so a real-flagged cover's noisy sets
    # stay real-flagged and take bispectrum_vector's real path; the general
    # complex path of an unflagged cover fits the same line to round-off
    c = harmonics.forward_sht(harmonics.make_cover(54), 16)
    plain = harmonics.ShCoefficients(c.data, 16)
    sig = np.array([0.002, 0.004, 0.006])
    flags = []
    monkeypatch.setattr(coupling, "bispectrum_vector",
                        lambda cn, t: flags.append(cn.real) or bispectrum_vector(cn, t))
    lam, r2 = noise_bias_fit(c, sig, trials=10, seed=2)
    assert c.real and flags == [True] * (1 + 2 * 10 * sig.size)
    lam_plain, r2_plain = noise_bias_fit(plain, sig, trials=10, seed=2)
    assert not any(flags[len(flags) // 2:])
    assert lam == pytest.approx(lam_plain, rel=1e-12, abs=0.0)
    assert r2 == pytest.approx(r2_plain, rel=1e-12, abs=0.0)


def test_noise_bias_fit_validation():
    cover = harmonics.make_cover(52)
    c = harmonics.forward_sht(cover, 16)
    with pytest.raises(ValueError):
        noise_bias_fit(c, [0.01], trials=5)            # one sigma
    with pytest.raises(ValueError):
        noise_bias_fit(c, [-0.01, 0.02], trials=5)
    with pytest.raises(ValueError):
        noise_bias_fit(c, [0.01, 0.02], trials=0)
    zero = harmonics.ShCoefficients.zeros(16, channels=3)
    with pytest.raises(ValueError, match="too small"):
        noise_bias_fit(zero, [0.01, 0.02], trials=5)
    small = harmonics.ShCoefficients.zeros(8, channels=3)
    with pytest.raises(ValueError, match="triplets need"):
        noise_bias_fit(small, [0.01, 0.02], trials=5)


def test_noise_bias_fit_accepts_images():
    cover = harmonics.make_cover(53)
    lam_img, r2_img = noise_bias_fit(cover, [0.01, 0.02], trials=10, seed=5)
    c = harmonics.forward_sht(cover, 16)
    lam_c, r2_c = noise_bias_fit(c, [0.01, 0.02], trials=10, seed=5)
    assert lam_img == pytest.approx(lam_c, rel=1e-12)
