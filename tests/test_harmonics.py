import warnings

import numpy as np
import pytest

from sphmark import grid, harmonics
from sphmark.harmonics import (
    ShCoefficients, SymmetryError, coeff_index, forward_sht, inverse_sht,
    make_cover, n_coeffs, synth_random_bandlimited,
)

from oracles import gauss_legendre_integral, legendre_poly_norm, ylm


def _pbar(l, m, x):
    # the transform's own Legendre table, one (l, m) entry
    return harmonics._legendre_table(l, np.asarray(x, float))[(l, m)]


def test_assoc_legendre_closed_forms():
    x = np.linspace(-1, 1, 7)
    s = np.sqrt(1 - x * x)
    assert np.allclose(_pbar(0, 0, x), 1 / np.sqrt(2))
    assert np.allclose(_pbar(1, 0, x), np.sqrt(1.5) * x)
    # Condon-Shortley: odd m carries the minus sign
    assert np.allclose(_pbar(1, 1, x), -np.sqrt(3) / 2 * s)
    assert np.allclose(_pbar(2, 0, x), np.sqrt(2.5) * (3 * x * x - 1) / 2)
    assert np.allclose(_pbar(2, 2, x), np.sqrt(15) / 4 * s * s)


def test_assoc_legendre_matches_plain_recurrence_oracle():
    x = np.linspace(-1, 1, 33)
    for l in range(0, 17):
        assert np.allclose(_pbar(l, 0, x), legendre_poly_norm(l, x), atol=1e-12)


def test_assoc_legendre_unit_norm_by_quadrature():
    # int_{-1}^{1} Pbar_l^m(x)^2 dx = 1 for every (l, m)
    for l in range(0, 17, 4):
        for m in range(0, l + 1, max(1, l // 3)):
            v = gauss_legendre_integral(lambda x, l=l, m=m: _pbar(l, m, x) ** 2)
            assert abs(v - 1.0) < 1e-10, (l, m, v)


def test_assoc_legendre_cross_orthogonality():
    for m in (0, 2):
        v = gauss_legendre_integral(
            lambda x, m=m: _pbar(4, m, x) * _pbar(6, m, x))
        assert abs(v) < 1e-12


def test_ylm_oracle_known_values():
    assert ylm(0, 0, 0.7, 1.3) == pytest.approx(1 / np.sqrt(4 * np.pi))
    assert ylm(1, 0, 0.0, 0.0) == pytest.approx(np.sqrt(3 / (4 * np.pi)))
    # Y_1^1 = -sqrt(3/8pi) sin(theta) e^{i phi}: the Condon-Shortley sign
    assert ylm(1, 1, 0.9, 0.4) == pytest.approx(
        -np.sqrt(3 / (8 * np.pi)) * np.sin(0.9) * np.exp(0.4j))
    # negative m mirrors: Y_l^{-m} = (-1)^m conj(Y_l^m)
    th, ph = 1.1, 2.3
    for l, m in [(1, 1), (3, 2), (5, 5)]:
        a = ylm(l, -m, th, ph)
        b = (-1) ** m * np.conj(ylm(l, m, th, ph))
        assert a == pytest.approx(b)
    with pytest.raises(ValueError):
        ylm(1, 2, 0.0, 0.0)


def test_sh_orthonormality_on_grid():
    # quadrature Gram of all Y up to l_max on the working grid
    l_max, H = 6, 24
    theta, phi = grid.grid_angles(H)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    w = grid.quadrature_weights(H)[:, None] * np.ones(2 * H)[None, :]
    basis = np.array([ylm(l, m, tg, pg).ravel()
                      for l in range(l_max + 1) for m in range(-l, l + 1)])
    G = (basis * w.ravel()) @ basis.conj().T
    assert np.abs(G - np.eye(n_coeffs(l_max))).max() < 1e-6


def test_coeff_indexing():
    assert n_coeffs(0) == 1 and n_coeffs(16) == 289
    assert coeff_index(0, 0) == 0
    assert coeff_index(2, -2) == 4
    assert coeff_index(2, 2) == 8
    # blocks tile the flat array exactly
    idx = [coeff_index(l, m) for l in range(5) for m in range(-l, l + 1)]
    assert idx == list(range(n_coeffs(4)))


def test_shcoefficients_validation_and_views():
    c = ShCoefficients.zeros(4, channels=3)
    assert c.channels == 3 and c.data.shape == (3, 25)
    b = c.block(2)
    assert b.shape == (3, 5)
    b[:] = 1.0          # block is a view
    assert np.all(c.data[:, 4:9] == 1.0)
    with pytest.raises(ValueError):
        ShCoefficients(np.zeros((2, 25)), 4)       # bad channel count
    with pytest.raises(ValueError):
        ShCoefficients(np.zeros(24), 4)            # wrong length
    with pytest.raises(ValueError):
        c.block(5)


def test_symmetry_deviation_and_assert():
    c = synth_random_bandlimited(6, seed=0)
    assert c.symmetry_deviation() < 1e-15
    c.assert_symmetry()
    c.data[0, coeff_index(3, -2)] += 1e-6
    assert c.symmetry_deviation() > 1e-7
    with pytest.raises(SymmetryError):
        c.assert_symmetry()


def test_symmetry_check_fails_on_nan():
    # a NaN deviation compares False with any tolerance, in any block
    for l, m in ((0, 0), (3, -2), (6, 6)):
        c = synth_random_bandlimited(6, seed=0)
        c.data[0, coeff_index(l, m)] = np.nan
        assert np.isnan(c.symmetry_deviation())
        with pytest.raises(SymmetryError, match="nan"):
            c.assert_symmetry()


def test_constant_image_transforms_to_dc():
    v = 0.37
    c = forward_sht(np.full((16, 32), v), l_max=8)
    assert c.data[0, 0] == pytest.approx(v * np.sqrt(4 * np.pi), rel=1e-12)
    assert np.abs(c.data[0, 1:]).max() < 1e-12


def test_single_harmonic_round_trip():
    # one coefficient in, the same coefficient out
    l_max, H = 8, 32
    for l, m in [(0, 0), (3, 0), (5, 4)]:
        c = ShCoefficients.zeros(l_max)
        c.data[0, coeff_index(l, m)] = 1.0
        if m:
            c.data[0, coeff_index(l, -m)] = (-1) ** m
        img = inverse_sht(c, H)
        back = forward_sht(img, l_max)
        assert np.abs(back.data - c.data).max() < 1e-12


def test_round_trip_random_signal():
    l_max = 16
    c = synth_random_bandlimited(l_max, seed=42)
    img = inverse_sht(c, 4 * l_max)
    back = forward_sht(img, l_max)
    assert np.abs(back.data - c.data).max() < 1e-10


def test_parseval_on_working_grid():
    l_max, H = 16, 64
    c = synth_random_bandlimited(l_max, seed=7)
    img = inverse_sht(c, H)
    w = grid.quadrature_weights(H)[:, None]
    quad = float(np.sum(w * img * img))
    coef = float(np.sum(np.abs(c.data) ** 2))
    assert quad == pytest.approx(coef, rel=1e-6)


def test_synthesis_matches_pointwise_sum():
    # inverse_sht against the naive sum over the Y_lm oracle at pixel centers
    l_max, H = 4, 16
    c = synth_random_bandlimited(l_max, seed=3)
    img = inverse_sht(c, H)
    theta, phi = grid.grid_angles(H)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    ref = np.zeros(tg.shape, complex)
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            ref += c.data[0, coeff_index(l, m)] * ylm(l, m, tg, pg)
    assert np.abs(ref.imag).max() < 1e-12
    assert np.abs(ref.real - img).max() < 1e-10


def _forward_sht_loop(x, l_max):
    # the per-channel, per-m quadrature loop the separable transform replaced
    H = x.shape[0]
    theta, phi = grid.grid_angles(H)
    wrow = grid.quadrature_weights(H)
    tab = harmonics._legendre_table(l_max, np.cos(theta))
    P = [np.array([tab[(l, m)] for l in range(m, l_max + 1)])
         for m in range(l_max + 1)]
    E = np.exp(1j * np.outer(phi, np.arange(-l_max, l_max + 1)))
    f = x if x.ndim == 3 else x[:, :, None]
    out = np.zeros((f.shape[2], n_coeffs(l_max)), complex)
    pref = 1.0 / np.sqrt(2.0 * np.pi)
    for c in range(f.shape[2]):
        F = f[:, :, c] @ np.conj(E)
        for m in range(l_max + 1):
            ls = np.arange(m, l_max + 1)
            out[c, ls * ls + ls + m] = pref * (P[m] @ (F[:, m + l_max] * wrow))
            if m > 0:
                coln = F[:, -m + l_max] * wrow
                out[c, ls * ls + ls - m] = ((-1) ** m) * pref * (P[m] @ coln)
    return out


def _inverse_sht_loop(data, l_max, H):
    # the per-channel, per-m synthesis loop; complex field, (H, W, channels)
    theta, phi = grid.grid_angles(H)
    tab = harmonics._legendre_table(l_max, np.cos(theta))
    P = [np.array([tab[(l, m)] for l in range(m, l_max + 1)])
         for m in range(l_max + 1)]
    E = np.exp(1j * np.outer(phi, np.arange(-l_max, l_max + 1)))
    fields = []
    for ci in range(data.shape[0]):
        G = np.zeros((H, 2 * l_max + 1), complex)
        for m in range(l_max + 1):
            ls = np.arange(m, l_max + 1)
            G[:, m + l_max] += data[ci, ls * ls + ls + m] @ P[m]
            if m > 0:
                G[:, -m + l_max] += ((-1) ** m) * (data[ci, ls * ls + ls - m] @ P[m])
        fields.append(G @ E.T / np.sqrt(2.0 * np.pi))
    return np.stack(fields, axis=2)


@pytest.mark.parametrize("H", [16, 64, 256])
def test_transforms_match_per_m_loops(H):
    l_max = min(16, H // 4)
    for x in (make_cover(H, H=H, l_max=l_max), make_cover(H + 1, H=H)[:, :, 1]):
        c = forward_sht(x, l_max)
        want = _forward_sht_loop(x, l_max)
        assert c.real
        assert np.abs(c.data - want).max() <= 1e-14 * np.abs(want).max()
        img = inverse_sht(c, H)
        ref = _inverse_sht_loop(c.data, l_max, H)
        assert img.shape == x.shape and img.dtype == float
        ref = ref.real if x.ndim == 3 else ref.real[:, :, 0]
        assert np.abs(img - ref).max() <= 1e-14 * np.abs(c.data).max()


def test_inverse_sht_of_non_real_coefficients_is_complex():
    rng = np.random.default_rng(4)
    for ch in (1, 3):
        data = rng.standard_normal((ch, n_coeffs(6))) + 1j * rng.standard_normal(
            (ch, n_coeffs(6)))
        f = inverse_sht(ShCoefficients(data, 6, real=False), 32)
        ref = _inverse_sht_loop(data, 6, 32)
        assert np.iscomplexobj(f)
        assert f.shape == ((32, 64) if ch == 1 else (32, 64, 3))
        ref = ref if ch == 3 else ref[:, :, 0]
        assert np.abs(f - ref).max() <= 1e-14 * np.abs(data).max()
        assert np.abs(f.imag).max() > 1e-3


def test_inverse_sht_flags_broken_symmetry():
    c = synth_random_bandlimited(6, seed=1)
    c.data[0, coeff_index(4, 1)] += 0.1      # breaks conjugate symmetry
    with pytest.raises(SymmetryError):
        inverse_sht(c, 16)


def test_inverse_sht_refuses_non_finite_coefficients():
    # a NaN real part at m = 0 leaves the imaginary residue finite, so the
    # coefficients are checked themselves
    for v in (np.nan, np.inf, complex(0.0, np.nan)):
        c = synth_random_bandlimited(6, seed=1)
        c.data[0, coeff_index(4, 0)] = v
        with pytest.raises(ValueError, match="non-finite"):
            inverse_sht(c, 16)


def test_inverse_sht_refuses_overflowing_synthesis():
    # a finite conjugate pair so large that a + b overflows: the overflow
    # lands in the real part only, so the imaginary residue stays 0
    c = ShCoefficients.zeros(4)
    c.data[0, coeff_index(4, 1)] = 1e308 * (1 + 1j)
    c.data[0, coeff_index(4, -1)] = -1e308 * (1 - 1j)
    c.assert_symmetry()
    for cc in (c, ShCoefficients(c.data, 4, real=False)):
        # the error, not numpy's overflow warning, even when warnings raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                inverse_sht(cc, 16)
    # still a finite field just below it
    c.data *= 1e-300
    assert np.isfinite(inverse_sht(c, 16)).all()


def _non_finite_images():
    # NaN, +inf and -inf at a corner, an edge and an interior pixel, in
    # each channel of a gray and an RGB raster
    rgb = make_cover(8, H=16, l_max=4)
    for x in (rgb, rgb[:, :, 1]):
        for v in (np.nan, np.inf, -np.inf):
            for r, col in ((0, 0), (15, 31), (0, 17), (9, 31), (7, 12)):
                for ch in range(1 if x.ndim == 2 else 3):
                    bad = x.copy()
                    bad[(r, col) if x.ndim == 2 else (r, col, ch)] = v
                    yield bad


def test_forward_sht_refuses_non_finite_samples():
    n = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in _non_finite_images():
            with pytest.raises(ValueError, match="non-finite"):
                forward_sht(bad, 4)
            n += 1
        assert n == 3 * 5 * (3 + 1)
        # finite samples whose row sum overflows are refused too; 32 * 7e306
        # overflows, while every m >= 1 column stays below sum |cos| * 7e306
        x = np.zeros((16, 32))
        x[5] = 7e306
        with pytest.raises(ValueError, match="row whose sum overflows"):
            forward_sht(x, 4)
    # the largest finite rows that do not overflow are analysed
    x[5] = 1e308 / 64
    assert np.isfinite(forward_sht(x, 4).data).all()


def test_forward_sht_row_blocks_match_one_gemm():
    # H=256 runs the longitude stage in 16 blocks, H=64 in one; both match
    # the row-by-row transform of the whole raster
    for H in (64, 256):
        x = make_cover(H + 5, H=H)
        p = harmonics._plan(H, 16)
        A = (p.CS.T @ x).reshape(H, 2, 17, 3).transpose(2, 0, 1, 3).reshape(17, H, 6)
        C = p.Pa @ A
        want = C[p.ms, p.ls, :3] - 1j * C[p.ms, p.ls, 3:]
        got = forward_sht(x, 16).data[:, p.pos].T
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        # any real dtype is read as float64
        assert np.array_equal(forward_sht(x.astype(np.float32), 16).data,
                              forward_sht(x.astype(np.float32).astype(float), 16).data)


def test_transform_size_validation():
    c = synth_random_bandlimited(2, seed=0)
    with pytest.raises(ValueError):
        inverse_sht(c, 1)
    with pytest.raises(ValueError):
        forward_sht(np.zeros((4, 9)), 2)


def test_power_spectrum_values():
    c = ShCoefficients.zeros(3)
    c.data[0, coeff_index(2, 1)] = 3.0
    c.data[0, coeff_index(2, -1)] = -3.0
    p = harmonics.power_spectrum(c)
    assert p.shape == (4,)
    assert p[2] == pytest.approx(18.0)
    assert p[0] == p[1] == p[3] == 0.0


def test_apply_band_profile_and_low_pass():
    c = synth_random_bandlimited(5, seed=9)
    g = np.arange(6, dtype=float)
    out = harmonics.apply_band_profile(c, g)
    for l in range(6):
        assert np.allclose(out.block(l), g[l] * c.block(l))
    assert out.real
    with pytest.raises(ValueError):
        harmonics.apply_band_profile(c, np.ones(5))
    with pytest.raises(ValueError):
        harmonics.apply_band_profile(c, np.array([1, 2, 3, 4, 5, np.inf]))

    lp = harmonics.low_pass(c, 2)
    assert np.all(lp.data[:, 9:] == 0)
    assert np.allclose(lp.data[:, :9], c.data[:, :9])
    with pytest.raises(ValueError):
        harmonics.low_pass(c, 6)


def test_synth_random_bandlimited_properties():
    c = synth_random_bandlimited(8, seed=5)
    assert c.real and c.symmetry_deviation() < 1e-15
    c2 = synth_random_bandlimited(8, seed=5)
    assert np.array_equal(c.data, c2.data)
    assert not np.array_equal(c.data, synth_random_bandlimited(8, seed=6).data)


def _random_symmetric_loop(rng, l_max, decay):
    # the per-m draw-and-mirror loop the vectorized draw replaced
    c = np.zeros(n_coeffs(l_max), complex)
    for l in range(l_max + 1):
        s = (1.0 + l) ** (-decay)
        blk = np.zeros(2 * l + 1, complex)
        blk[l] = rng.standard_normal() * s
        for m in range(1, l + 1):
            zre, zim = rng.standard_normal(2) * (s / np.sqrt(2.0))
            blk[l + m] = zre + 1j * zim
            blk[l - m] = ((-1) ** m) * np.conj(blk[l + m])
        c[l * l:(l + 1) * (l + 1)] = blk
    return c


def test_random_symmetric_matches_per_m_loop():
    # key-free covers must not change: bit-identical to the loop
    for decay in (0.0, 1.5):
        got = harmonics._random_symmetric(np.random.default_rng(9), 16, decay)
        want = _random_symmetric_loop(np.random.default_rng(9), 16, decay)
        assert np.array_equal(got, want)


def test_plan_cache_is_read_only_and_bounded():
    p = harmonics._plan(16, 4)
    assert harmonics._plan(16, 4) is p
    for arr in (p.ms, p.ls, p.Ps, p.Pa, p.CS, p.pos, p.neg, p.sign):
        with pytest.raises(ValueError):
            arr[0] = 0
    maxsize = harmonics._plan.cache_info().maxsize
    for H in range(4, 4 + maxsize + 1):
        harmonics._plan(H, 2)
    assert harmonics._plan.cache_info().currsize == maxsize


def test_make_cover_statistics_and_determinism():
    x = make_cover(300)
    assert x.shape == (64, 128, 3)
    assert x.min() >= 0.0 and x.max() <= 1.0
    mu = x.mean(axis=(0, 1))
    sd = x.std(axis=(0, 1))
    assert np.abs(mu - 0.5).max() < 0.02
    assert np.abs(sd - 0.24).max() < 0.02
    assert np.array_equal(x, make_cover(300))
    assert not np.array_equal(x, make_cover(301))
    y = make_cover(1, H=32)
    assert y.shape == (32, 64, 3)

