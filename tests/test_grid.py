import re

import numpy as np
import pytest

from sphmark import attacks, grid

from oracles import sample_bilinear_fancy_index


def test_pixel_center_direction_known_values():
    theta, phi = grid.grid_angles(2)
    assert theta[0] == pytest.approx(np.pi / 4)
    assert phi[0] == pytest.approx(np.pi / 4)
    # first pixel of a 2-row grid: theta = phi = pi/4
    s = np.sqrt(0.5)
    assert np.allclose(grid.grid_directions(2)[0, 0], [s * s, s * s, s])
    # last pixel of a 4-row grid
    theta, phi = grid.grid_angles(4)
    assert theta[3] == pytest.approx(np.pi * 3.5 / 4)
    assert phi[7] == pytest.approx(2 * np.pi * 7.5 / 8)
    t, p = np.pi * 3.5 / 4, 2 * np.pi * 7.5 / 8
    assert np.allclose(grid.grid_directions(4)[3, 7],
                       [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])


def test_grid_angles_match_pixel_centers():
    # theta = pi (row + 1/2) / H, phi = 2 pi (col + 1/2) / 2H
    H = 6
    theta, phi = grid.grid_angles(H)
    assert theta.shape == (H,) and phi.shape == (2 * H,)
    assert np.allclose(theta, np.pi * (np.arange(H) + 0.5) / H)
    assert np.allclose(phi, 2 * np.pi * (np.arange(2 * H) + 0.5) / (2 * H))


def test_grid_directions_unit_norm():
    d = grid.grid_directions(8)
    assert d.shape == (8, 16, 3)
    assert np.allclose(np.linalg.norm(d, axis=2), 1.0)


def test_grid_directions_row_slice_into_buffer():
    full = grid.grid_directions(8)
    buf = np.empty((3, 16, 3))
    assert grid.grid_directions(8, slice(2, 5), out=buf) is buf
    assert np.array_equal(buf, full[2:5])


@pytest.mark.parametrize("H", [2, 3, 8, 17, 64])
def test_quadrature_weights_sum_and_positivity(H):
    w = grid.quadrature_weights(H)
    assert w.shape == (H,)
    assert np.all(w > 0)
    # total solid angle: every row weight counts once per column
    assert np.sum(w) * 2 * H == pytest.approx(4 * np.pi, rel=1e-13)


def test_quadrature_integrates_low_degree_moments():
    # int cos^2(theta) dOmega = 4pi/3, int cos(theta) dOmega = 0
    H = 16
    w = grid.quadrature_weights(H)
    theta, _ = grid.grid_angles(H)
    ct = np.cos(theta)
    assert np.sum(w * ct) * 2 * H == pytest.approx(0.0, abs=1e-12)
    assert np.sum(w * ct * ct) * 2 * H == pytest.approx(4 * np.pi / 3, rel=1e-12)


def _quadrature_weights_loop(H):
    # the per-call loop, before the weights were cached; reference only
    theta = np.pi * (2 * np.arange(H) + 1) / (2 * H)
    w = np.ones(H)
    for m in range(1, H // 2 + 1):
        w -= 2.0 * np.cos(2 * m * theta) / (4 * m * m - 1)
    w *= 2.0 / H
    return w * (2.0 * np.pi / (2 * H))


def test_quadrature_weights_cached_read_only_and_bounded():
    w = grid.quadrature_weights(64)
    assert grid.quadrature_weights(64) is w
    assert np.array_equal(w, _quadrature_weights_loop(64))
    with pytest.raises(ValueError):
        w[0] = 0.0
    maxsize = grid.quadrature_weights.cache_info().maxsize
    for H in range(2, 3 + maxsize):
        grid.quadrature_weights(H)
    assert grid.quadrature_weights.cache_info().currsize == maxsize


def test_quadrature_rejects_tiny_grid():
    with pytest.raises(ValueError):
        grid.quadrature_weights(1)


def test_geometric_mask_is_sin_theta():
    H = 12
    theta, _ = grid.grid_angles(H)
    assert np.allclose(grid.geometric_mask(H), np.sin(theta))


def test_texture_mask_flat_image_sits_at_floor():
    x = np.full((8, 16, 3), 0.5)
    m = grid.texture_mask(x, strength_floor=0.3)
    assert m.shape == (8, 16)
    assert np.allclose(m, 0.3)


def test_texture_mask_stripes_saturate():
    # period-4 stripes: central differences see |g| = 0.5 everywhere
    H = 16
    _, cols = np.indices((H, 2 * H))
    x = (cols % 4 < 2).astype(float)
    m = grid.texture_mask(x, strength_floor=0.2)
    assert np.all(m >= 0.2 - 1e-12)
    assert np.all(m <= 1.0 + 1e-12)
    assert np.all(m >= 0.9)


def test_texture_mask_rejects_bad_floor():
    x = np.zeros((4, 8))
    with pytest.raises(ValueError):
        grid.texture_mask(x, strength_floor=1.5)


def test_sample_bilinear_reproduces_pixel_centers():
    rng = np.random.default_rng(11)
    x = rng.random((8, 16, 3))
    theta, phi = grid.grid_angles(8)
    out = grid.sample_bilinear(x, theta[:, None] + 0 * phi[None, :],
                               0 * theta[:, None] + phi[None, :])
    assert np.allclose(out, x)


def test_sample_bilinear_wraps_longitude():
    x = np.zeros((4, 8))
    x[:, 0] = 1.0
    theta, phi = grid.grid_angles(4)
    # halfway between the last and first column centers
    mid_phi = (phi[-1] + 2 * np.pi + phi[0]) / 2
    v = grid.sample_bilinear(x, np.full(4, theta[1]), np.full(4, mid_phi))
    assert np.allclose(v, 0.5)


def test_sample_bilinear_clamps_poles():
    x = np.zeros((4, 8))
    x[0] = 1.0
    # theta above the first row center: clamped, no wrap to the south
    v = grid.sample_bilinear(x, np.array([0.0]), np.array([0.1]))
    assert np.allclose(v, 1.0)


def test_sample_bilinear_matches_fancy_index_form():
    rng = np.random.default_rng(5)
    # every latitude including both pole caps (clamped rows), longitudes
    # past both ends of [0, 2pi) (wrapped columns), plus scattered points
    theta = np.concatenate([np.linspace(0.0, np.pi, 41), rng.uniform(0, np.pi, 200)])
    phi = np.concatenate([np.linspace(-0.2, 2 * np.pi + 0.2, 41),
                          rng.uniform(-7.0, 13.0, 200)])
    for x in (rng.random((16, 32, 3)), rng.random((16, 32)), rng.random((16, 32, 1))):
        for t, p in ((theta, phi), (theta[:, None], phi[None, :])):
            got = grid.sample_bilinear(x, t, p)
            want = sample_bilinear_fancy_index(x, t, p)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_resample_identity_and_shapes():
    rng = np.random.default_rng(3)
    x = rng.random((8, 16, 3))
    same = grid.resample(x, 8)
    assert np.allclose(same, x)
    up = grid.resample(x, 16)
    assert up.shape == (16, 32, 3)
    gray = grid.resample(x[:, :, 0], 4)
    assert gray.shape == (4, 8)


def test_sample_bilinear_refuses_non_finite_angles():
    x = np.zeros((4, 8, 3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="theta"):
            grid.sample_bilinear(x, [bad], [0.1])
        with pytest.raises(ValueError, match="phi"):
            grid.sample_bilinear(x, [0.1], [0.2, bad])


def test_sample_bilinear_blocks_match_one_pass():
    # more points than one block, as flat lists and as a separable grid
    rng = np.random.default_rng(8)
    x = rng.random((32, 64, 3))
    n = 2 * grid.BLOCK_POINTS + 37
    theta, phi = rng.uniform(0, np.pi, n), rng.uniform(-7.0, 13.0, n)
    assert np.array_equal(grid.sample_bilinear(x, theta, phi),
                          sample_bilinear_fancy_index(x, theta, phi))
    t, p = theta[:300, None], phi[None, :100]
    assert np.array_equal(grid.sample_bilinear(x, t, p),
                          sample_bilinear_fancy_index(x, t, p))
    assert np.array_equal(grid.sample_bilinear(x, 0.3, 1.0),
                          sample_bilinear_fancy_index(x, 0.3, 1.0))


def test_sample_bilinear_wraps_phi_like_np_mod():
    # phi in [-2pi, 2pi) skips np.mod; the edges of that range, signed
    # zeros and a negative that rounds to 2pi must sample as np.mod's phi
    rng = np.random.default_rng(6)
    x = rng.random((10, 20, 3))
    tw = 2 * np.pi
    phi = np.concatenate([np.linspace(-tw, tw, 201)[:-1], rng.uniform(-tw, tw, 300),
                          [-tw, -1e-17, -0.0, 0.0, tw - 1e-15, np.nextafter(tw, 0)]])
    theta = rng.uniform(0, np.pi, phi.size)
    for p in (phi, phi[::-1] - tw, phi + tw):    # in range, and past each end
        assert np.array_equal(grid.sample_bilinear(x, theta, p),
                              sample_bilinear_fancy_index(x, theta, p))


@pytest.mark.parametrize("H_out", [1, 5, 16, 40])
def test_resample_matches_full_grid_sampling(H_out):
    # the unbroadcast (H, 1) x (1, W) angles against the full angle grids
    rng = np.random.default_rng(H_out)
    for x in (rng.random((16, 32, 3)), rng.random((16, 32))):
        theta, phi = grid.grid_angles(H_out)
        full = grid.sample_bilinear(
            x, theta[:, None] * np.ones(2 * H_out)[None, :],
            np.ones(H_out)[:, None] * phi[None, :])
        got = grid.resample(x, H_out)
        assert got.shape == full.shape
        assert np.array_equal(got, full)


@pytest.mark.parametrize("H, H_out", [(16, 100), (256, 100), (256, 128), (128, 256)])
def test_resample_matches_full_grid_sampling_in_row_blocks(H, H_out):
    # the per-axis path against the full angle grids: H_out = 100 leaves a
    # partial last row block, and H_out lies above and below H
    rng = np.random.default_rng(H + H_out)
    x = rng.random((H, 2 * H, 3))
    theta, phi = grid.grid_angles(H_out)
    if H_out == 100:
        assert [b.stop - b.start for b in grid.row_blocks(100, 200)] == [40, 40, 20]
    for img in (x, x[:, :, 0], x[:, :, :1]):
        full = grid.sample_bilinear(
            img, theta[:, None] * np.ones(2 * H_out)[None, :],
            np.ones(H_out)[:, None] * phi[None, :])
        got = grid.resample(img, H_out)
        assert got.shape == full.shape == (H_out, 2 * H_out) + img.shape[2:]
        assert np.array_equal(got, full)


def test_attack_resize_matches_full_grid_sampling():
    # attack_resize's H=256 -> 128 -> 256 as two full-grid samplings
    x = np.random.default_rng(3).random((256, 512, 3))
    want = x
    for H_out in (128, 256):
        theta, phi = grid.grid_angles(H_out)
        want = grid.sample_bilinear(
            want, theta[:, None] * np.ones(2 * H_out)[None, :],
            np.ones(H_out)[:, None] * phi[None, :])
    assert np.array_equal(attacks.attack_resize(x, 0.5), np.clip(want, 0.0, 1.0))


def test_check_image_rejections():
    with pytest.raises(ValueError):
        grid.check_image(np.zeros((8, 15)))        # width != 2H
    with pytest.raises(ValueError):
        grid.check_image(np.zeros((8, 16, 2)))     # bad channel count
    bad = np.zeros((4, 8))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        grid.check_image(bad)


def test_ppm_round_trip_is_byte_quantized(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.random((6, 12, 3))
    p = tmp_path / "img.ppm"
    grid.write_ppm(p, x)
    y = grid.read_ppm(p)
    assert y.shape == x.shape
    assert np.allclose(y, np.rint(x * 255) / 255.0)
    # a second write/read is exact: quantization is idempotent
    grid.write_ppm(p, y)
    assert np.array_equal(grid.read_ppm(p), y)


def test_ppm_gray_written_as_rgb(tmp_path):
    x = np.linspace(0, 1, 4 * 8).reshape(4, 8)
    p = tmp_path / "g.ppm"
    grid.write_ppm(p, x)
    y = grid.read_ppm(p)
    assert y.shape == (4, 8, 3)
    assert np.array_equal(y[:, :, 0], y[:, :, 2])


def test_ppm_header_comments_and_errors(tmp_path):
    p = tmp_path / "c.ppm"
    raster = bytes(2 * 4 * 3)
    p.write_bytes(b"P6\n# a comment\n4 2\n# another\n255\n" + raster)
    img = grid.read_ppm(p)
    assert img.shape == (2, 4, 3)

    def rejects(name, content, fault):
        bad = tmp_path / name
        bad.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(bad)) + ": " + fault):
            grid.read_ppm(bad)

    rejects("m.ppm", b"P5\n4 2\n255\n" + raster, "not a binary PPM")
    rejects("v.ppm", b"P6\n4 2\n65535\n" + raster, "only maxval 255")
    rejects("t.ppm", b"P6\n4 2\n255\n" + raster[:-1], "truncated raster")
    rejects("s.ppm", b"P6\nab 2\n255\n" + raster, "header width must be")
    rejects("e.ppm", b"P6\n4 2\n", "header maxval must be")
    rejects("n.ppm", b"P6\n-4 -2\n255\n" + raster, "header width must be")
    rejects("z.ppm", b"P6\n4 0\n255\n", "header height must be")
    rejects("u.ppm", b"P6\n4 2 # no newline", "unterminated header comment")
    rejects("w.ppm", b"P6\n4 4\n255\n" + raster * 2, "ERP width must be")
