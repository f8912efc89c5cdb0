import numpy as np
import pytest

from sphmark import attacks, cli, grid, harmonics, so3
from sphmark.attacks import (
    AttackSpecError, apply_attack, attack_blur_spatial, attack_blur_spectral,
    attack_brightness, attack_contrast, attack_jpeg_approx, attack_lowpass,
    attack_noise, attack_resize, attack_rotate, gaussian_kernel,
    jpeg_quant_table, parse_attack,
)


@pytest.fixture(scope="module")
def cover():
    return harmonics.make_cover(10)


def test_blur_spectral_exact_heat_attenuation():
    # low-contrast cover so the [0,1] clamp never bites: the attenuation
    # must then hold per coefficient, not just on average
    x = harmonics.make_cover(10, img_std=0.12)
    sigma = 0.05
    y = attack_blur_spectral(x, sigma=sigma)
    c0 = harmonics.forward_sht(x, 16)
    c1 = harmonics.forward_sht(y, 16)
    ls = np.arange(17)
    g = np.exp(-(sigma ** 2) * ls * (ls + 1.0))
    assert g[16] == pytest.approx(0.50661699, abs=1e-8)
    for l in range(17):
        want = g[l] * c0.block(l)
        assert np.abs(c1.block(l) - want).max() < 1e-10
    with pytest.raises(ValueError):
        attack_blur_spectral(x, sigma=-0.1)


def test_blur_spatial_acts_like_heat_kernel_at_low_degrees(cover):
    # fit exp(-s l(l+1)) to the per-degree amplitude ratios up to l=8;
    # the planar kernel must match its own best heat fit within 5% there
    y = attack_blur_spatial(cover, sigma=3.0, size=7)
    p0 = harmonics.power_spectrum(harmonics.forward_sht(cover, 16))
    p1 = harmonics.power_spectrum(harmonics.forward_sht(y, 16))
    ls = np.arange(1, 9)
    r = np.sqrt(p1[1:9] / p0[1:9])
    ll = ls * (ls + 1.0)
    s = float(np.sum(-np.log(r) * ll) / np.sum(ll * ll))
    assert s > 0
    assert np.abs(r / np.exp(-s * ll) - 1.0).max() < 0.05


def test_gaussian_kernel_properties():
    k = gaussian_kernel(7, 3.0)
    assert k.sum() == pytest.approx(1.0)
    assert np.array_equal(k, k[::-1])
    assert k[3] == k.max()
    with pytest.raises(ValueError):
        gaussian_kernel(6, 1.0)
    with pytest.raises(ValueError):
        gaussian_kernel(0, 1.0)
    for sigma in (0.0, -1.0, float("nan")):    # a nan kernel otherwise
        with pytest.raises(ValueError, match="sigma must be positive"):
            gaussian_kernel(7, sigma)


def test_blur_spatial_wraps_longitude_clamps_latitude():
    x = np.zeros((8, 16))
    x[4, 0] = 1.0
    y = attack_blur_spatial(x, sigma=2.0, size=5)
    assert y[4, 15] > 0          # mass crossed the seam
    assert y[4, 2] > 0
    assert y.sum() == pytest.approx(1.0, rel=1e-12)   # kernel is a partition

    x2 = np.zeros((8, 16))
    x2[0, 8] = 1.0
    y2 = attack_blur_spatial(x2, sigma=2.0, size=5)
    assert np.all(y2[-1] == 0)   # clamped: nothing smears over the pole
    assert y2[0, 8] > y2[2, 8] > 0


def _blur_spatial_roll_loop(x, sigma, size):
    # np.roll along longitude, a clamped pad along latitude; reference only
    k = gaussian_kernel(size, sigma)
    r = (len(k) - 1) // 2
    out = np.zeros_like(x)
    for j, kv in enumerate(k):
        out += kv * np.roll(x, j - r, axis=1)
    H = x.shape[0]
    padded = out[np.clip(np.arange(-r, H + r), 0, H - 1)]
    out2 = np.zeros_like(x)
    for j, kv in enumerate(k):
        out2 += kv * padded[j:j + H]
    return out2


@pytest.mark.parametrize("H, sigma, size", [(64, 3.0, 7), (16, 2.0, 5),
                                            (4, 2.0, 9), (4, 5.0, 17)])
def test_blur_spatial_matches_roll_loop(H, sigma, size):
    # the kernel radius reaches H (and 2H) in the small cases
    rng = np.random.default_rng(H + size)
    x = rng.random((H, 2 * H, 3))
    for img in (x, x[:, :, 0], x[:, :, :1]):
        got = attack_blur_spatial(img, sigma=sigma, size=size)
        want = _blur_spatial_roll_loop(img, sigma, size)
        assert got.shape == img.shape
        assert np.abs(got - want).max() <= 1e-15


def test_noise_and_contrast_match_one_pass_forms(cover):
    for img in (cover, cover[:, :, 0], cover[:, :, :1]):
        for std, seed in ((0.05, 3), (0.5, 4), (0, 0)):
            want = np.clip(img + std * np.random.default_rng(seed)
                           .standard_normal(img.shape), 0.0, 1.0)
            assert np.array_equal(attack_noise(img, std=std, seed=seed), want)
        w = grid.quadrature_weights(img.shape[0])[:, None]
        f = img if img.ndim == 3 else img[:, :, None]
        mean = (w[..., None] * f).sum(axis=(0, 1)) / (4.0 * np.pi)
        for factor in (1.2, 0.5, 3):
            want = mean + (f - mean) * factor
            want = np.clip(want[:, :, 0] if img.ndim == 2 else want, 0.0, 1.0)
            got = attack_contrast(img, factor=factor)
            assert got.shape == img.shape
            assert np.array_equal(got, want)


def test_noise_statistics_and_determinism(cover):
    flat = np.full((64, 128, 3), 0.5)
    y = attack_noise(flat, std=0.05, seed=1)
    d = y - flat
    assert abs(d.mean()) < 0.002
    assert d.std() == pytest.approx(0.05, rel=0.02)
    assert np.array_equal(attack_noise(cover, 0.05, seed=2),
                          attack_noise(cover, 0.05, seed=2))
    assert not np.array_equal(attack_noise(cover, 0.05, seed=2),
                              attack_noise(cover, 0.05, seed=3))
    assert np.array_equal(attack_noise(cover, std=0.0, seed=0), cover)
    with pytest.raises(ValueError):
        attack_noise(cover, std=-1.0)


def test_lowpass_removes_high_degrees(cover):
    y = attack_lowpass(cover, l_c=6)
    p = harmonics.power_spectrum(harmonics.forward_sht(y, 16))
    # clamping reintroduces a whisper of high-degree energy at most
    assert p[7:].sum() < 1e-3 * p.sum()
    with pytest.raises(ValueError):
        attack_lowpass(cover, l_c=17)


def test_resize_shapes_and_degradation(cover):
    y = attack_resize(cover, scale=0.5)
    assert y.shape == cover.shape
    assert np.abs(y - cover).max() > 1e-3      # it actually degrades
    same = attack_resize(cover, scale=1.0)
    assert np.array_equal(same, cover)
    assert same is not cover
    with pytest.raises(ValueError):
        attack_resize(cover, scale=0.0)
    with pytest.raises(ValueError):
        attack_resize(cover, scale=0.01)       # fewer than 2 rows


def test_brightness_and_contrast(cover):
    y = attack_brightness(cover, factor=0.8)
    assert np.allclose(y, 0.8 * cover)
    assert attack_brightness(cover, 100.0).max() == 1.0
    with pytest.raises(ValueError):
        attack_brightness(cover, -0.5)

    # moderate contrast on a low-contrast image: spherical mean invariant,
    # deviations scaled exactly
    x = harmonics.make_cover(11, img_std=0.1)
    y = attack_contrast(x, factor=1.1)
    w = grid.quadrature_weights(64)[:, None, None]
    m0 = (w * x).sum(axis=(0, 1)) / (4 * np.pi)
    m1 = (w * y).sum(axis=(0, 1)) / (4 * np.pi)
    assert np.abs(m1 - m0).max() < 1e-12
    assert np.allclose(y - m1, 1.1 * (x - m0), atol=1e-12)


def _test_images(H, seed):
    # float samples and 8-bit ones (k/255, as read from a PPM), RGB and gray
    x = np.random.default_rng(seed).random((H, 2 * H, 3))
    x8 = np.round(x * 255.0) / 255.0
    return x, x[:, :, 1], x8, x8[:, :, 2]


@pytest.mark.parametrize("H", [4, 8, 20, 64, 256])
@pytest.mark.parametrize("size", [1, 3, 5, 7, 9])
def test_blur_spatial_equals_scipy_correlate1d(H, size):
    ndimage = pytest.importorskip("scipy.ndimage")
    k = gaussian_kernel(size, 3.0)
    for img in _test_images(H, 100 * H + size):
        want = ndimage.correlate1d(img, k, axis=1, mode="wrap")
        want = ndimage.correlate1d(want, k, axis=0, mode="nearest")
        assert np.array_equal(attack_blur_spatial(img, 3.0, size), want)


def test_blur_spatial_row_blocks_are_seamless(monkeypatch):
    # one output row per block: every block's halo is exercised
    x = _test_images(20, 3)[0]
    want = attack_blur_spatial(x, 2.0, 9)
    monkeypatch.setattr(attacks, "BLOCK_SAMPLES", 1)
    assert np.array_equal(attack_blur_spatial(x, 2.0, 9), want)


def test_jpeg_quant_table_law():
    assert np.array_equal(jpeg_quant_table(50), attacks._JPEG_Q)
    assert np.all(jpeg_quant_table(100) == 1.0)
    assert jpeg_quant_table(1).max() == 255.0
    # monotone: lower quality never quantizes more finely
    assert np.all(jpeg_quant_table(30) >= jpeg_quant_table(60))
    with pytest.raises(ValueError):
        jpeg_quant_table(0)
    with pytest.raises(ValueError):
        jpeg_quant_table(101)


def test_jpeg_bounds_and_fixed_points(cover):
    j100 = attack_jpeg_approx(cover, quality=100)
    assert np.abs(j100 - cover).max() <= 2.0 / 255.0
    j1 = attack_jpeg_approx(cover, quality=60)
    j2 = attack_jpeg_approx(j1, quality=60)
    assert np.abs(j2 - j1).max() <= 3.0 / 255.0     # near-idempotent
    # a uniform mid-gray image is a DC-only fixed point
    flat = np.full((16, 32), 128.0 / 255.0)
    assert np.array_equal(attack_jpeg_approx(flat, 60), flat)
    # non-multiple-of-8 sizes go through edge padding
    odd = harmonics.make_cover(3, H=20)
    out = attack_jpeg_approx(odd, 60)
    assert out.shape == odd.shape


def _round_ties_even(q):
    # the tie rule, stated on its own: within 1e-9 of n + 1/2 is a tie,
    # and a tie goes to the even neighbour
    n = np.floor(q)
    tie = np.abs(q - (n + 0.5)) <= 1e-9
    even = np.where(n % 2 == 0, n, n + 1)
    return np.where(tie, even, np.round(q))


def _jpeg_scipy_dct(x, quality):
    # reference: scipy.fft's 8x8 block DCT of the edge-padded raster, with
    # the tie rule above
    fft = pytest.importorskip("scipy.fft")
    T = jpeg_quant_table(quality)
    f = x if x.ndim == 3 else x[:, :, None]
    H, W = f.shape[:2]
    Hp, Wp = (H + 7) // 8 * 8, (W + 7) // 8 * 8
    out = np.empty((Hp, Wp, f.shape[2]))
    for c in range(f.shape[2]):
        v = np.pad(f[:, :, c] * 255.0 - 128.0, ((0, Hp - H), (0, Wp - W)),
                   mode="edge")
        blocks = v.reshape(Hp // 8, 8, Wp // 8, 8).transpose(0, 2, 1, 3)
        d = fft.dctn(blocks, type=2, axes=(2, 3), norm="ortho")
        d = _round_ties_even(d / T) * T
        r = fft.idctn(d, type=2, axes=(2, 3), norm="ortho")
        out[:, :, c] = r.transpose(0, 2, 1, 3).reshape(Hp, Wp)
    out = np.clip((out[:H, :W] + 128.0) / 255.0, 0.0, 1.0)
    return out[:, :, 0] if x.ndim == 2 else out


@pytest.mark.parametrize("quality", [1, 10, 50, 60, 90, 100])
def test_jpeg_matches_scipy_dct_oracle(quality, monkeypatch):
    # H=20 pads a partial block row and column; BLOCK_SAMPLES=1 runs one
    # block row per band, so the last band is the padded one
    smooth = harmonics.make_cover(3, H=20)
    images = (smooth, np.round(smooth * 255.0) / 255.0) + _test_images(20, 5)
    for img in images:
        want = _jpeg_scipy_dct(img, quality)
        got = attack_jpeg_approx(img, quality)
        assert got.shape == img.shape
        assert np.abs(got - want).max() <= 1e-12
        monkeypatch.setattr(attacks, "BLOCK_SAMPLES", 1)
        assert np.abs(attack_jpeg_approx(img, quality) - want).max() <= 1e-12
        monkeypatch.undo()


def test_jpeg_rounds_half_quotients_to_even():
    # a flat block of 128 + a gray levels has DC 8a and no AC; at q=50 the
    # DC step is 16, so odd a puts the DC quotient a/2 exactly on n + 1/2
    assert attacks._JPEG_Q[0, 0] == 16.0
    levels = np.array([125, 127, 129, 131, 133, 135])
    x = np.repeat(levels, 8)[:, None] * np.ones((1, 96)) / 255.0
    got = attack_jpeg_approx(x, 50)[::8, 0] * 255.0
    # quotients -1.5, -0.5, 0.5, 1.5, 2.5, 3.5 round to -2, -0, 0, 2, 2, 4
    assert np.abs(got - [124, 128, 128, 132, 132, 136]).max() <= 1e-9
    q = np.array([0.5, 1.5, 2.5, -0.5, -2.5, 2.5 + 1e-12, 2.5 - 1e-12,
                  2.5 + 1e-6, 3.49])
    assert np.array_equal(attacks._round_quotients(q.copy()),
                          [0, 2, 2, 0, -2, 2, 2, 3, 3])
    assert np.array_equal(_round_ties_even(q), [0, 2, 2, 0, -2, 2, 2, 3, 3])


def test_rotate_forms(cover):
    R = so3.random_rotation(4)
    a = attack_rotate(cover, rotation=R)
    b = attack_rotate(cover, rotation="%.17g,%.17g,%.17g,%.17g" % tuple(R.q))
    assert np.allclose(a, b)
    c = attack_rotate(cover, seed=4)
    assert np.array_equal(a, c)                  # same seed, same rotation


def test_spectral_blur_commutes_with_rotation(cover):
    R = so3.random_rotation(5)
    a = attack_rotate(attack_blur_spectral(cover, 0.05), rotation=R)
    b = attack_blur_spectral(attack_rotate(cover, rotation=R), 0.05)
    assert np.abs(a - b).max() < 0.02            # measured ~0.008
    assert np.sqrt(np.mean((a - b) ** 2)) < 2e-3


# ------------------------------------------------------------ spec grammar

def test_parse_attack_simple():
    name, p = parse_attack("noise:std=0.05,seed=7")
    assert name == "noise"
    assert p == {"std": 0.05, "seed": 7}
    assert isinstance(p["seed"], int)
    assert parse_attack("resize") == ("resize", {})
    assert parse_attack(" blur : sigma=2 , k=5 ")[1] == {"sigma": 2, "k": 5}


def test_parse_attack_comma_values():
    name, p = parse_attack("rotate:q=0.92,0.3,0.2,0.1")
    assert name == "rotate"
    assert p["q"] == "0.92,0.3,0.2,0.1"
    _, p2 = parse_attack("rotate:zyz=0.1,0.2,0.3,seed=4")
    # the trailing seed=4 starts a new parameter, the rest joined into zyz
    assert p2 == {"zyz": "0.1,0.2,0.3", "seed": 4}


def test_parse_attack_mixed_nesting():
    name, p = parse_attack("mixed:[rotate:seed=3;blur:sigma=2,k=7;"
                           "mixed:[noise:std=0.01,seed=1]]")
    assert name == "mixed"
    specs = p["specs"]
    assert [s[0] for s in specs] == ["rotate", "blur", "mixed"]
    assert specs[2][1]["specs"][0][0] == "noise"


def test_parse_attack_error_positions():
    with pytest.raises(AttackSpecError) as e:
        parse_attack("bogus:std=1")
    assert e.value.pos == 0

    text = "noise:std=abc"
    with pytest.raises(AttackSpecError) as e:
        parse_attack(text)
    assert e.value.pos == text.index("std")
    assert "position" in str(e.value)

    text = "mixed:[noise:std=bogus]"
    with pytest.raises(AttackSpecError) as e:
        parse_attack(text)
    assert e.value.pos == text.index("std")

    with pytest.raises(AttackSpecError):
        parse_attack("noise:foo=1")             # unknown parameter
    with pytest.raises(AttackSpecError):
        parse_attack("mixed:rotate")            # missing brackets
    with pytest.raises(AttackSpecError):
        parse_attack("mixed:[rotate;;noise:std=0.1]")  # empty step
    with pytest.raises(AttackSpecError):
        parse_attack("noise:0.05")              # value without a name
    with pytest.raises(AttackSpecError):
        parse_attack("   ")


def test_parse_attack_typed_values():
    # integer parameters take integral text only, real ones finite text
    assert parse_attack("blur:sigma=2,k=7.0")[1] == {"sigma": 2.0, "k": 7}
    _, p = parse_attack("jpeg:q=60")
    assert type(p["q"]) is int
    _, p = parse_attack("noise:std=1,seed=12345678901234567891")
    assert type(p["std"]) is float and p["seed"] == 12345678901234567891
    for text, why in (("lowpass:lc=8.5", "not an integer"),
                      ("noise:std=nan", "not finite"),
                      ("contrast:f=-inf", "not finite"),
                      ("blur:sigma=-2", "not positive"),
                      ("rotate:seed=x", "not a number")):
        with pytest.raises(AttackSpecError, match=why):
            parse_attack(text)


def test_apply_attack_dispatch(cover):
    y = apply_attack(cover, "brightness:f=0.9")
    assert np.allclose(y, 0.9 * cover)
    z = apply_attack(cover, ("noise", {"std": 0.02, "seed": 5}))
    assert np.array_equal(z, attack_noise(cover, 0.02, seed=5))
    m = apply_attack(cover, "mixed:[brightness:f=0.9;brightness:f=0.9]")
    assert np.allclose(m, 0.81 * cover)
    with pytest.raises(ValueError, match="lowpass needs"):
        apply_attack(cover, "lowpass:lmax=16")
    rq = apply_attack(cover, "rotate:zyz=0.2,0.4,0.1")
    ref = attack_rotate(cover, rotation="zyz:0.2,0.4,0.1")
    assert np.array_equal(rq, ref)


@pytest.mark.parametrize("spec, named", [
    ("rotate:q=1,0,0,0,zyz=1,2,3", "q, zyz"),
    ("rotate:zyz=0.1,0.2,0.3,seed=4", "seed, zyz"),
    ("rotate:q=1,0,0,0,seed=4", "q, seed"),
    ("mixed:[brightness:f=0.9;rotate:seed=1,q=1,0,0,0]", "q, seed")])
def test_apply_attack_refuses_ambiguous_rotate(spec, named, cover, tmp_path):
    # one rotation per spec: two of q, zyz and seed are refused, not
    # resolved by taking the first
    with pytest.raises(ValueError, match="^rotate takes one of q, zyz or "
                       "seed, got %s$" % named):
        apply_attack(cover, spec)
    out = tmp_path / "x.ppm"
    assert cli.main(["attack", "--image", "synth:seed=4,h=16", "--spec", spec,
                     "--out", str(out)]) == 1
    assert not out.exists()
