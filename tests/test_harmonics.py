import re
import struct

import numpy as np
import pytest

from sphmark import grid, harmonics
from sphmark.harmonics import (
    ShCoefficients, SymmetryError, assoc_legendre_normalized, coeff_index,
    forward_sht, inverse_sht, make_cover, n_coeffs, sh_eval,
    synth_random_bandlimited,
)

from oracles import gauss_legendre_integral, legendre_poly_norm


def test_assoc_legendre_closed_forms():
    x = np.linspace(-1, 1, 7)
    s = np.sqrt(1 - x * x)
    assert np.allclose(assoc_legendre_normalized(0, 0, x), 1 / np.sqrt(2))
    assert np.allclose(assoc_legendre_normalized(1, 0, x), np.sqrt(1.5) * x)
    # Condon-Shortley: odd m carries the minus sign
    assert np.allclose(assoc_legendre_normalized(1, 1, x), -np.sqrt(3) / 2 * s)
    assert np.allclose(assoc_legendre_normalized(2, 0, x),
                       np.sqrt(2.5) * (3 * x * x - 1) / 2)
    assert np.allclose(assoc_legendre_normalized(2, 2, x),
                       np.sqrt(15) / 4 * s * s)


def test_assoc_legendre_matches_plain_recurrence_oracle():
    x = np.linspace(-1, 1, 33)
    for l in range(0, 17):
        assert np.allclose(assoc_legendre_normalized(l, 0, x),
                           legendre_poly_norm(l, x), atol=1e-12)


def test_assoc_legendre_unit_norm_by_quadrature():
    # int_{-1}^{1} Pbar_l^m(x)^2 dx = 1 for every (l, m)
    for l in range(0, 17, 4):
        for m in range(0, l + 1, max(1, l // 3)):
            v = gauss_legendre_integral(
                lambda x, l=l, m=m: assoc_legendre_normalized(l, m, x) ** 2)
            assert abs(v - 1.0) < 1e-10, (l, m, v)


def test_assoc_legendre_cross_orthogonality():
    for m in (0, 2):
        v = gauss_legendre_integral(
            lambda x, m=m: (assoc_legendre_normalized(4, m, x)
                            * assoc_legendre_normalized(6, m, x)))
        assert abs(v) < 1e-12


def test_assoc_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre_normalized(2, 3, 0.0)
    with pytest.raises(ValueError):
        assoc_legendre_normalized(2, -1, 0.0)
    with pytest.raises(ValueError):
        assoc_legendre_normalized(2, 0, 1.5)


def test_assoc_legendre_scalar_in_scalar_out():
    v = assoc_legendre_normalized(3, 1, 0.25)
    assert isinstance(v, float)


def test_sh_eval_known_values():
    assert sh_eval(0, 0, 0.7, 1.3) == pytest.approx(1 / np.sqrt(4 * np.pi))
    assert sh_eval(1, 0, 0.0, 0.0) == pytest.approx(np.sqrt(3 / (4 * np.pi)))
    # negative m mirrors: Y_l^{-m} = (-1)^m conj(Y_l^m)
    th, ph = 1.1, 2.3
    for l, m in [(1, 1), (3, 2), (5, 5)]:
        a = sh_eval(l, -m, th, ph)
        b = (-1) ** m * np.conj(sh_eval(l, m, th, ph))
        assert a == pytest.approx(b)
    with pytest.raises(ValueError):
        sh_eval(1, 2, 0.0, 0.0)


def test_sh_orthonormality_on_grid():
    # quadrature Gram of all Y up to l_max on the working grid
    l_max, H = 6, 24
    theta, phi = grid.grid_angles(H)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    w = grid.quadrature_weights(H)[:, None] * np.ones(2 * H)[None, :]
    basis = np.array([sh_eval(l, m, tg, pg).ravel()
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
    # inverse_sht against the naive sum over sh_eval at pixel centers
    l_max, H = 4, 16
    c = synth_random_bandlimited(l_max, seed=3)
    img = inverse_sht(c, H)
    theta, phi = grid.grid_angles(H)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    ref = np.zeros(tg.shape, complex)
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            ref += c.data[0, coeff_index(l, m)] * sh_eval(l, m, tg, pg)
    assert np.abs(ref.imag).max() < 1e-12
    assert np.abs(ref.real - img).max() < 1e-10


def test_inverse_sht_flags_broken_symmetry():
    c = synth_random_bandlimited(6, seed=1)
    c.data[0, coeff_index(4, 1)] += 0.1      # breaks conjugate symmetry
    with pytest.raises(SymmetryError):
        inverse_sht(c, 16)


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
    with pytest.raises(ValueError):
        synth_random_bandlimited(8, seed=0, decay=0.0)


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
    for arr in (p.wrow, p.E) + p.P:
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


def _save_coefficients_interleaved(c, path):
    # the manual (re, im) interleave the <c16 writer replaced; reference only
    with open(path, "wb") as fh:
        fh.write(harmonics._MAGIC)
        fh.write(struct.pack("<III B", harmonics._VERSION, c.l_max, c.channels,
                             int(c.real)))
        flat = np.empty(c.channels * n_coeffs(c.l_max) * 2)
        flat[0::2] = c.data.real.ravel()
        flat[1::2] = c.data.imag.ravel()
        fh.write(flat.astype("<f8").tobytes())


def test_coefficients_serialization_round_trip(tmp_path):
    for c in (synth_random_bandlimited(10, seed=17), forward_sht(make_cover(2), 16)):
        p = tmp_path / "c.shc"
        harmonics.save_coefficients(c, p)
        _save_coefficients_interleaved(c, tmp_path / "ref.shc")
        assert p.read_bytes() == (tmp_path / "ref.shc").read_bytes()
        d = harmonics.load_coefficients(p)
        assert d.l_max == c.l_max and d.channels == c.channels and d.real == c.real
        assert np.array_equal(d.data, c.data)
        d.data[0, 0] = 1.0                    # a loaded block is the caller's


def test_coefficients_serialization_errors(tmp_path):
    c = synth_random_bandlimited(3, seed=0)
    p = tmp_path / "c.shc"
    harmonics.save_coefficients(c, p)
    raw = p.read_bytes()

    bad_magic = tmp_path / "m.shc"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        harmonics.load_coefficients(bad_magic)

    bad_version = tmp_path / "v.shc"
    bad_version.write_bytes(raw[:4] + b"\x63" + raw[5:])
    with pytest.raises(ValueError, match="version"):
        harmonics.load_coefficients(bad_version)

    truncated = tmp_path / "t.shc"
    for bad, fault in [(raw[:-8], "truncated or oversized payload"),
                       (raw + b"\0" * 16, "truncated or oversized payload"),
                       (raw[:6], "truncated header")]:
        truncated.write_bytes(bad)
        with pytest.raises(ValueError, match=re.escape(str(truncated)) + ": " + fault):
            harmonics.load_coefficients(truncated)


def test_debug_json_dump(tmp_path):
    import json
    c = synth_random_bandlimited(2, seed=4)
    p = tmp_path / "c.json"
    harmonics.dump_coefficients_json(c, p)
    d = json.loads(p.read_text())
    assert d["l_max"] == 2 and d["channels"] == 1 and d["real"] is True
    assert set(d["blocks"]) == {"0", "1", "2"}
    row = d["blocks"]["1"][0]
    assert len(row) == 3 and len(row[0]) == 2
