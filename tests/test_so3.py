import math

import numpy as np
import pytest

from sphmark import coupling, grid, harmonics, so3
from sphmark.so3 import Rotation, little_d, random_rotation, rotate_coeffs, rotate_image, wigner_D

from oracles import d1_matrix, sample_bilinear_fancy_index, wigner_d_half_pi


def _little_d_factorial(l, beta):
    """The former little_d, kept as a reference: explicit factorial sum with
    log-factorial magnitudes, corner cases beta = 0 or pi handled exactly.
    Loses accuracy fast above l ~ 16 (alternating terms)."""
    def lf(n):  # ln(n!)
        return math.lgamma(n + 1)

    d = np.zeros((2 * l + 1, 2 * l + 1))
    cb, sb = math.cos(beta / 2.0), math.sin(beta / 2.0)
    for mp in range(-l, l + 1):
        for m in range(-l, l + 1):
            pref = 0.5 * (lf(l + mp) + lf(l - mp) + lf(l + m) + lf(l - m))
            tot = 0.0
            for s in range(max(0, m - mp), min(l + m, l - mp) + 1):
                den = lf(l + m - s) + lf(s) + lf(mp - m + s) + lf(l - mp - s)
                p_c = 2 * l + m - mp - 2 * s
                p_s = mp - m + 2 * s
                term = math.exp(pref - den)
                if cb != 0.0:
                    term *= cb ** p_c
                elif p_c > 0:
                    term = 0.0
                if sb != 0.0:
                    term *= sb ** p_s
                elif p_s > 0:
                    term = 0.0
                tot += ((-1.0) ** (mp - m + s)) * term
            d[mp + l, m + l] = tot
    return d


def test_quaternion_normalization_and_identity():
    r = Rotation(2.0, 0.0, 0.0, 0.0)
    assert np.allclose(r.q, [1, 0, 0, 0])
    assert np.allclose(Rotation.identity().matrix, np.eye(3))
    with pytest.raises(ValueError):
        Rotation(0.0, 0.0, 0.0, 0.0)


def test_axis_angle_and_angle_property():
    r = Rotation.from_axis_angle([0, 0, 1], 1.23)
    assert r.angle == pytest.approx(1.23)
    c, s = np.cos(1.23), np.sin(1.23)
    assert np.allclose(r.matrix, [[c, -s, 0], [s, c, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        Rotation.from_axis_angle([0, 0, 0], 1.0)


def test_matrix_is_special_orthogonal():
    for seed in range(10):
        M = random_rotation(seed).matrix
        assert np.allclose(M @ M.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(M) == pytest.approx(1.0)


def test_composition_matches_matrix_product():
    r1, r2 = random_rotation(1), random_rotation(2)
    assert np.allclose((r1 * r2).matrix, r1.matrix @ r2.matrix, atol=1e-12)
    assert np.allclose((r1 * r1.inverse()).matrix, np.eye(3), atol=1e-12)


def test_zyz_round_trip_and_gimbal_convention():
    for a, b, g in [(0.3, 1.1, -0.4), (-2.0, 0.5, 2.9), (1.0, 3.0, 1.0)]:
        ra = Rotation.from_zyz(a, b, g)
        a2, b2, g2 = ra.zyz
        assert np.allclose(Rotation.from_zyz(a2, b2, g2).matrix, ra.matrix,
                           atol=1e-12)
        assert b2 == pytest.approx(b)
    # beta = 0 is degenerate: gamma pinned to 0, alpha carries the z-angle
    r = Rotation.from_zyz(0.7, 0.0, 0.5)
    a2, b2, g2 = r.zyz
    assert g2 == 0.0 and b2 == pytest.approx(0.0)
    assert a2 == pytest.approx(1.2)


def test_parse_forms():
    q = Rotation.parse("0.3, 0.1, -0.2, 0.9")
    assert np.allclose(q.q, np.array([0.3, 0.1, -0.2, 0.9])
                       / np.linalg.norm([0.3, 0.1, -0.2, 0.9]))
    e = Rotation.parse("zyz:0.1,0.2,0.3")
    assert np.allclose(e.matrix, Rotation.from_zyz(0.1, 0.2, 0.3).matrix)
    for bad in ("1,2,3", "zyz:1,2", "spam", "1,2,3,4,5"):
        with pytest.raises(ValueError):
            Rotation.parse(bad)


def test_non_finite_rotations_refused():
    # a NaN quaternion once passed through and rotated to NaN coefficients
    for text in ("nan,1,0,0", "1e400,0,0,0", "zyz:nan,0,0", "zyz:0,-inf,0"):
        with pytest.raises(ValueError, match="must be finite"):
            Rotation.parse(text)
    for q in ((np.nan, 1, 0, 0), (1, 0, np.inf, 0)):
        with pytest.raises(ValueError, match="must be finite"):
            Rotation(*q)
    with pytest.raises(ValueError, match="must be finite"):
        Rotation.from_zyz(0.1, np.nan, 0.3)
    with pytest.raises(ValueError, match="must be finite"):
        Rotation.from_axis_angle([0, np.nan, 1], 0.3)
    with pytest.raises(ValueError, match="norm overflows"):
        Rotation(1e200, 0, 0, 0)             # finite, but its norm is not
    with pytest.raises(ValueError, match="zero quaternion"):
        Rotation.parse("0,0,0,0")


def test_rotate_coeffs_refuses_nan_coefficients():
    c = harmonics.synth_random_bandlimited(6, seed=2)
    c.data[0, 5 * 5 + 7] = np.nan            # one entry of a late block
    with pytest.raises(harmonics.SymmetryError, match="nan"):
        rotate_coeffs(c, random_rotation(1))


def test_haar_mean_rotation_angle():
    # For Haar-uniform rotations the angle density is (1-cos w)/pi on
    # [0, pi], whose mean is pi/2 + 2/pi ~ 2.20742.  Deterministic seeds.
    angles = [random_rotation(s).angle for s in range(4000)]
    assert np.mean(angles) == pytest.approx(np.pi / 2 + 2 / np.pi, abs=0.02)
    assert max(angles) <= np.pi + 1e-12 and min(angles) >= 0.0


def test_little_d_spin1_closed_form():
    for beta in (0.0, 0.37, np.pi / 3, 1.8, np.pi - 0.1, np.pi):
        assert np.abs(little_d(1, beta) - d1_matrix(beta)).max() < 1e-14
    # the classic check value
    assert little_d(1, np.pi / 3)[1, 1] == pytest.approx(0.5)


def test_little_d_corner_angles():
    assert np.abs(little_d(5, 0.0) - np.eye(11)).max() < 1e-14
    # d^l_{m',m}(pi) = (-1)^{l-m} delta_{m',-m}
    l = 4
    ref = np.zeros((9, 9))
    for m in range(-l, l + 1):
        ref[-m + l, m + l] = (-1.0) ** (l - m)
    assert np.abs(little_d(l, np.pi) - ref).max() < 1e-14


def test_little_d_orthogonality_and_cap():
    for l in (3, 8, 16, 33, 64):
        d = little_d(l, 0.9)
        assert np.abs(d @ d.T - np.eye(2 * l + 1)).max() < 1e-13
    with pytest.raises(ValueError):
        little_d(-1, 0.5)


def test_little_d_matches_exact_half_pi():
    for l in range(33):
        assert np.abs(little_d(l, np.pi / 2) - wigner_d_half_pi(l)).max() < 1e-14


def test_little_d_matches_factorial_sum():
    for l in (0, 1, 2, 5, 9, 16):
        for beta in (0.0, 0.37, 1.8, np.pi - 0.1, np.pi):
            assert np.abs(little_d(l, beta) - _little_d_factorial(l, beta)).max() < 1e-10


def test_full_bispectrum_invariant_at_degree_24():
    trips = coupling.admissible_triplets(range(25), 24)
    for seed in range(3):
        c = harmonics.synth_random_bandlimited(24, seed)
        base = coupling.bispectrum_vector(c, trips).values
        v = coupling.bispectrum_vector(
            rotate_coeffs(c, random_rotation(100 + seed)), trips).values
        assert np.abs(v - base).max() <= 1e-12 * np.abs(base).max()


def test_wigner_D_unitary_and_sign_ambiguity():
    R = random_rotation(5)
    negR = Rotation(*(-R.q))
    for l in (0, 1, 4):
        D = wigner_D(l, R)
        assert np.abs(D @ D.conj().T - np.eye(2 * l + 1)).max() < 1e-12
        # q and -q are the same rotation: same matrix, same zyz, same D
        assert np.array_equal(D, wigner_D(l, negR))


def test_wigner_D_homomorphism():
    for seed in range(5):
        r1 = random_rotation(100 + seed)
        r2 = random_rotation(200 + seed)
        for l in (1, 3, 8):
            lhs = wigner_D(l, r1 * r2)
            rhs = wigner_D(l, r1) @ wigner_D(l, r2)
            assert np.abs(lhs - rhs).max() < 1e-9


def test_wigner_D_spin1_matches_cartesian():
    # degree-1 coefficient rotation must mirror the 3-vector rotation:
    # synthesize a pure-l=1 field from a direction and compare maxima
    R = random_rotation(11)
    c = harmonics.ShCoefficients.zeros(1)
    c.data[0, 1:4] = [1 / np.sqrt(2), 1.0, -1 / np.sqrt(2)]  # ~ field along x
    img = harmonics.inverse_sht(c, 32)
    rot = harmonics.inverse_sht(rotate_coeffs(c, R), 32)
    # the rotated field sampled at R omega equals the original at omega
    d = rotate_image(img, R)
    assert np.abs(rot - d).max() < 0.02


def test_rotate_coeffs_preserves_power_and_symmetry():
    c = harmonics.synth_random_bandlimited(10, seed=3)
    R = random_rotation(7)
    out = rotate_coeffs(c, R)
    out.assert_symmetry()
    p0 = harmonics.power_spectrum(c)
    p1 = harmonics.power_spectrum(out)
    assert np.abs(p1 - p0).max() < 1e-10 * (1 + p0.max())


def test_rotate_coeffs_composition():
    c = harmonics.synth_random_bandlimited(8, seed=4)
    r1, r2 = random_rotation(21), random_rotation(22)
    a = rotate_coeffs(rotate_coeffs(c, r1), r2)
    b = rotate_coeffs(c, r2 * r1)
    assert np.abs(a.data - b.data).max() < 1e-9


def test_rotate_coeffs_matches_per_degree_wigner_D():
    # bit for bit the per-degree D^l(R) product, on real-flagged and complex
    # sets, with R.zyz decomposed once and cached; the rotations include
    # both gimbal branches, beta = 0 and beta = pi
    rng = np.random.default_rng(12)
    n = 17 * 17
    sets = [harmonics.synth_random_bandlimited(16, seed=5),
            harmonics.ShCoefficients(rng.standard_normal((3, n))
                                     + 1j * rng.standard_normal((3, n)), 16)]
    gimbal = [Rotation.from_axis_angle([0, 0, 1], 0.9), Rotation(0, 1, 0, 0),
              Rotation(0, 0, 1, 0)]
    assert [R.zyz[1] for R in gimbal] == [0.0, math.pi, math.pi]
    for c in sets:
        for R in gimbal + [random_rotation(s) for s in range(31, 35)]:
            got = rotate_coeffs(c, R)
            want = np.concatenate([c.block(l) @ wigner_D(l, R).T
                                   for l in range(c.l_max + 1)], axis=1)
            assert got.real == c.real
            assert np.array_equal(got.data, want)


def test_rotate_coeffs_identity_and_inverse():
    c = harmonics.synth_random_bandlimited(6, seed=8)
    assert np.abs(rotate_coeffs(c, Rotation.identity()).data - c.data).max() < 1e-12
    R = random_rotation(9)
    back = rotate_coeffs(rotate_coeffs(c, R), R.inverse())
    assert np.abs(back.data - c.data).max() < 1e-10


def test_rotate_image_identity_and_consistency():
    rng = np.random.default_rng(0)
    x = rng.random((16, 32, 3))
    assert np.allclose(rotate_image(x, Rotation.identity()), x)

    # the two actions agree up to bilinear resampling error
    c = harmonics.synth_random_bandlimited(8, seed=2)
    img = harmonics.inverse_sht(c, 64)
    R = random_rotation(99)
    a = harmonics.inverse_sht(rotate_coeffs(c, R), 64)
    b = rotate_image(img, R)
    assert np.abs(a - b).max() < 0.03            # measured ~0.017
    assert np.sqrt(np.mean((a - b) ** 2)) < 0.005


@pytest.mark.parametrize("H", [64, 100, 256])
def test_rotate_image_matches_unblocked_form(H):
    # one pass over every pixel: directions R^T omega of the whole grid,
    # then the fancy-index sampler; H=100 leaves a partial last block
    rng = np.random.default_rng(H)
    R = random_rotation(H + 1)
    d = grid.grid_directions(H) @ R.matrix
    theta = np.arccos(np.clip(d[..., 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(d[..., 1], d[..., 0]), 2.0 * np.pi)
    x = rng.random((H, 2 * H, 3))
    for img in (x, x[:, :, 0], x[:, :, :1]):
        got = rotate_image(img, R)
        want = sample_bilinear_fancy_index(img, theta, phi)
        assert got.shape == img.shape
        assert np.array_equal(got, want)
