import math

import numpy as np
import pytest

from sphmark import coupling, harmonics, so3
from sphmark.coupling import (
    BispectrumVector, admissible_triplets, bispectrum_component,
    bispectrum_vector, log_factorial, power_spectrum_features,
    trivial_projection_coeff, wigner_3j,
)

from oracles import triple_product_integral, wigner3j_exact


def _sym_row(rng, l, scale=1.0):
    row = np.zeros(2 * l + 1, complex)
    row[l] = rng.standard_normal() * scale
    for m in range(1, l + 1):
        z = (rng.standard_normal() + 1j * rng.standard_normal()) * scale
        row[l + m] = z
        row[l - m] = (-1) ** m * np.conj(z)
    return row


def test_log_factorial_against_lgamma():
    for n in range(0, 301, 7):
        assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), abs=1e-10)
    with pytest.raises(ValueError):
        log_factorial(301)
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_wigner_3j_known_values():
    assert wigner_3j(1, 1, 0, 1, -1, 0) == pytest.approx(1 / np.sqrt(3))
    assert wigner_3j(2, 2, 2, 0, 0, 0) == pytest.approx(-np.sqrt(2 / 35))
    assert wigner_3j(0, 0, 0, 0, 0, 0) == pytest.approx(1.0)
    # selection rules give exact zeros, not small numbers
    assert wigner_3j(1, 1, 1, 1, 0, 0) == 0.0    # m-sum nonzero
    assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0    # triangle violated
    assert wigner_3j(1, 1, 2, 2, -2, 0) == 0.0   # |m| > l
    assert wigner_3j(1, 1, 1, 0, 0, 0) == pytest.approx(0.0, abs=1e-16)  # parity


def test_wigner_3j_matches_exact_rational():
    # exhaustive over l <= 6; the acceptance suite pushes to l <= 8
    worst = 0.0
    for l1 in range(7):
        for l2 in range(7):
            for l3 in range(abs(l1 - l2), min(6, l1 + l2) + 1):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        m3 = -m1 - m2
                        if abs(m3) > l3:
                            continue
                        a = wigner_3j(l1, l2, l3, m1, m2, m3)
                        b = wigner3j_exact(l1, l2, l3, m1, m2, m3)
                        worst = max(worst, abs(a - b))
    assert worst < 1e-12


def test_wigner_3j_permutation_symmetries():
    rng = np.random.default_rng(12)
    for _ in range(60):
        l1, l2, l3 = rng.integers(0, 7, 3)
        m1 = rng.integers(-l1, l1 + 1)
        m2 = rng.integers(-l2, l2 + 1)
        m3 = -m1 - m2
        if abs(m3) > l3:
            continue
        v = wigner_3j(l1, l2, l3, m1, m2, m3)
        sign = (-1.0) ** (l1 + l2 + l3)
        # even permutation: invariant
        assert wigner_3j(l2, l3, l1, m2, m3, m1) == pytest.approx(v, abs=1e-13)
        # odd permutation and m-negation: factor (-1)^{l1+l2+l3}
        assert wigner_3j(l2, l1, l3, m2, m1, m3) == pytest.approx(sign * v, abs=1e-13)
        assert wigner_3j(l1, l2, l3, -m1, -m2, -m3) == pytest.approx(sign * v, abs=1e-13)


def test_wigner_3j_orthogonality():
    # sum_{m1 m2} (2 l3 + 1) 3j(...m3) 3j(...m3') = delta_{l3 l3'} delta_{m3 m3'}
    for l1, l2 in [(2, 3), (4, 4), (1, 5)]:
        for l3 in range(abs(l1 - l2), l1 + l2 + 1):
            for l3p in range(abs(l1 - l2), l1 + l2 + 1):
                m3, m3p = 0, 0
                s = 0.0
                for m1 in range(-l1, l1 + 1):
                    m2 = -m1 - m3
                    if abs(m2) > l2:
                        continue
                    s += (wigner_3j(l1, l2, l3, m1, m2, m3)
                          * wigner_3j(l1, l2, l3p, m1, m2, m3p))
                want = 1.0 if l3 == l3p else 0.0
                assert (2 * l3 + 1) * s == pytest.approx(want, abs=1e-10)


def test_trivial_projection_dc_value():
    # all-zero triplet: prefactor 1/sqrt(4pi) times two unit 3j symbols
    assert trivial_projection_coeff((0, 0, 0), 0, 0, 0) == pytest.approx(
        1 / math.sqrt(4 * math.pi))
    assert trivial_projection_coeff((0, 0, 0), 0, 0, 0) == pytest.approx(
        0.2820947917738781)


def test_contraction_matches_quadrature_integral():
    # independent oracle: int f1 f2 f3 dOmega for band-pure factors
    rng = np.random.default_rng(0)
    for t in [(1, 1, 2), (2, 2, 2), (2, 3, 3)]:
        rows = [_sym_row(rng, l) for l in t]
        pkg = coupling._contract(t, *rows)
        ref = triple_product_integral(t, *rows)
        assert abs(pkg - ref) < 1e-12 * (1 + abs(ref))
    # odd-parity triplet: identically zero on both sides
    rows = [_sym_row(rng, l) for l in (1, 2, 2)]
    assert coupling._contract((1, 2, 2), *rows) == 0.0
    assert abs(triple_product_integral((1, 2, 2), *rows)) < 1e-13


def test_admissible_triplets_cases():
    got = admissible_triplets({6, 8, 14}, 16)
    # (6, 6, 14) fails the triangle inequality and must be absent
    assert got == [(6, 6, 6), (6, 6, 8), (6, 8, 8), (6, 8, 14), (6, 14, 14),
                   (8, 8, 8), (8, 8, 14), (8, 14, 14), (14, 14, 14)]
    assert admissible_triplets({0}, 16) == [(0, 0, 0)]
    assert admissible_triplets({1}, 16) == []       # odd parity
    assert len(admissible_triplets(range(17), 16)) == 285
    # lexicographic and l1 <= l2 <= l3 throughout
    full = admissible_triplets(range(17), 16)
    assert full == sorted(full)
    assert all(a <= b <= c for a, b, c in full)
    with pytest.raises(ValueError):
        admissible_triplets({3, 17}, 16)


def test_bispectrum_homogeneity():
    c = harmonics.synth_random_bandlimited(6, seed=5)
    trips = admissible_triplets({2, 4, 6}, 6)
    v1 = bispectrum_vector(c, trips).values
    c2 = harmonics.ShCoefficients(2.0 * c.data, 6, real=True)
    v2 = bispectrum_vector(c2, trips).values
    # scaling by a power of two is exact in floating point
    assert np.array_equal(v2, 8.0 * v1)
    c3 = harmonics.ShCoefficients(0.7 * c.data, 6, real=True)
    v3 = bispectrum_vector(c3, trips).values
    assert np.allclose(v3, 0.7 ** 3 * v1, rtol=1e-12)


def test_bispectrum_blur_interplay():
    # a per-degree profile g multiplies each component by g[l1] g[l2] g[l3]
    c = harmonics.synth_random_bandlimited(8, seed=6)
    g = np.exp(-0.05 * np.arange(9) * np.arange(1, 10))
    trips = admissible_triplets(range(9), 8)
    before = bispectrum_vector(c, trips).values
    after = bispectrum_vector(harmonics.apply_band_profile(c, g), trips).values
    for t, b, a in zip(trips, before, after):
        want = g[t[0]] * g[t[1]] * g[t[2]] * b
        assert abs(a - want) <= 1e-10 * (1 + abs(want))


def test_bispectrum_rotation_invariance():
    c = harmonics.forward_sht(harmonics.make_cover(42), 16)
    trips = admissible_triplets({6, 8, 14}, 16)
    base = bispectrum_vector(c, trips).values
    for seed in range(20):
        R = so3.random_rotation(seed)
        rot = bispectrum_vector(so3.rotate_coeffs(c, R), trips).values
        err = np.abs(rot - base)
        assert np.all(err <= 1e-9 * (1 + np.abs(base)))


def test_bispectrum_realness_for_real_signals():
    c = harmonics.forward_sht(harmonics.make_cover(43), 16)
    v = bispectrum_vector(c, admissible_triplets({6, 8, 14}, 16)).values
    assert np.abs(v.imag).max() <= 1e-8 * (1 + np.abs(v.real).max())


def test_bispectrum_phase_sensitivity_witness():
    # negating one degree block preserves every power-spectrum feature but
    # flips odd-order components: second-order stats cannot see it
    c = harmonics.synth_random_bandlimited(6, seed=11)
    c2 = c.copy()
    c2.data[:, 4:9] *= -1.0                      # degree-2 block
    assert np.allclose(power_spectrum_features(c, range(7)),
                       power_spectrum_features(c2, range(7)))
    t = (2, 2, 2)
    a = bispectrum_component(c, t)
    b = bispectrum_component(c2, t)
    assert abs(a) > 1e-6
    assert b == pytest.approx(-a)


def test_power_spectrum_features_single_channel_reduces_to_power():
    c = harmonics.synth_random_bandlimited(8, seed=13)
    f = power_spectrum_features(c, range(9))
    assert f.shape == (9,)
    assert np.allclose(f, harmonics.power_spectrum(c))


def test_power_spectrum_features_three_channels():
    c = harmonics.forward_sht(harmonics.make_cover(45), 8)
    f = power_spectrum_features(c, [2, 5])
    assert f.shape == (18,)                       # 9 reals per degree
    # first three entries are the per-channel powers of degree 2
    b = c.block(2)
    assert np.allclose(f[:3], np.sum(np.abs(b) ** 2, axis=1))
    with pytest.raises(ValueError):
        power_spectrum_features(c, [9])


def _power_features_loop(c, L):
    # the per-set, per-entry loop the batched Gram indexing replaced;
    # reference only
    out = []
    for l in sorted(set(L)):
        B = c.block(l)
        G = B @ B.conj().T
        out.extend(G[i, i].real for i in range(c.channels))
        for i in range(c.channels):
            for j in range(i + 1, c.channels):
                out.append(G[i, j].real)
                out.append(G[i, j].imag)
    return np.array(out)


def test_power_spectrum_features_batch_matches_per_set_loop():
    for ch, seed in ((3, 46), (1, 47)):
        sets = [harmonics.ShCoefficients(
            harmonics.forward_sht(harmonics.make_cover(seed + i), 8).data[:ch], 8,
            real=True) for i in range(6)]
        want = np.stack([_power_features_loop(c, range(1, 9)) for c in sets])
        got = power_spectrum_features(
            np.stack([c.data for c in sets]).reshape((2, 3, ch, 81)), range(1, 9))
        assert got.shape == (2, 3, 8 * ch * ch)
        assert np.array_equal(got.reshape(6, -1), want)
        for c, w in zip(sets, want):
            assert np.array_equal(power_spectrum_features(c, range(1, 9)), w)
    assert power_spectrum_features(np.zeros((2, 3, 81)), []).shape == (2, 0)
    with pytest.raises(ValueError, match="within"):
        power_spectrum_features(np.zeros((2, 3, 80)), [8])


def test_bispectrum_vector_container():
    v = BispectrumVector([(1, 1, 2)], [1 + 2j])
    assert len(v) == 1 and v.total == 1 + 2j
    with pytest.raises(ValueError):
        BispectrumVector([(1, 1, 2)], [1.0, 2.0])
    empty = BispectrumVector([], [])
    assert len(empty) == 0 and empty.total == 0j


def test_bispectrum_to_csv(tmp_path):
    c = harmonics.synth_random_bandlimited(6, seed=1)
    trips = admissible_triplets({2, 4}, 6)
    vec = bispectrum_vector(c, trips)
    p = tmp_path / "b.csv"
    coupling.bispectrum_to_csv(vec, p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "l1,l2,l3,re,im"
    assert len(lines) == 1 + len(trips)
    for line, t, val in zip(lines[1:], trips, vec.values):
        f = line.split(",")
        assert tuple(int(v) for v in f[:3]) == t
        assert float(f[3]) == pytest.approx(val.real, rel=1e-10, abs=1e-12)


def test_projection_tables_are_immutable():
    C = coupling._projection_table((2, 2, 2))
    for arr in (C, coupling.threej_table(2, 3, 4)):
        with pytest.raises(ValueError):
            arr[0] = 0
    # repeated calls hand back the same cached objects
    assert coupling._projection_table((2, 2, 2)) is C
    assert coupling.threej_table(2, 3, 4) is coupling.threej_table(2, 3, 4)


def test_threej_table_matches_scalar_and_oracle():
    # every triplet with degrees 0..16 against the scalar symbol; the
    # exact-rational oracle up to degree 8
    worst_scalar = worst_oracle = 0.0
    for l1 in range(17):
        for l2 in range(17):
            for l3 in range(abs(l1 - l2), min(16, l1 + l2) + 1):
                T = coupling.threej_table(l1, l2, l3)
                assert T.shape == (2 * l1 + 1, 2 * l2 + 1)
                m3 = -np.add.outer(np.arange(-l1, l1 + 1), np.arange(-l2, l2 + 1))
                assert np.all(T[np.abs(m3) > l3] == 0.0)
                for i, j in zip(*np.nonzero(np.abs(m3) <= l3)):
                    m1, m2 = int(i) - l1, int(j) - l2
                    v = wigner_3j(l1, l2, l3, m1, m2, -m1 - m2)
                    worst_scalar = max(worst_scalar, abs(T[i, j] - v))
                    if max(l1, l2, l3) <= 8:
                        ref = wigner3j_exact(l1, l2, l3, m1, m2, -m1 - m2)
                        worst_oracle = max(worst_oracle, abs(T[i, j] - ref))
    assert worst_scalar <= 1e-14
    assert worst_oracle <= 1e-12


def _projection_table_loop(t):
    # the per-entry builder the vectorized table replaced; reference only
    l1, l2, l3 = t
    pref = (math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
            * wigner_3j(l1, l2, l3, 0, 0, 0))
    C = np.zeros((2 * l1 + 1, 2 * l2 + 1))
    for i, m1 in enumerate(range(-l1, l1 + 1)):
        for j, m2 in enumerate(range(-l2, l2 + 1)):
            if abs(m1 + m2) <= l3:
                C[i, j] = pref * wigner_3j(l1, l2, l3, m1, m2, -m1 - m2)
    return C


def test_projection_table_matches_per_entry_loop():
    for t in admissible_triplets((1, 2, 5, 6, 8, 14), 16):
        C = coupling._projection_table(t)
        assert np.abs(C - _projection_table_loop(t)).max() <= 1e-14


def _gather(t):
    # index of m3 = -m1-m2 in block l3, clipped where that order is absent
    l1, l2, l3 = t
    return np.clip(l3 - np.add.outer(np.arange(-l1, l1 + 1), np.arange(-l2, l2 + 1)),
                   0, 2 * l3)


def _contract_gather(t, b1, b2, b3):
    # the materialised-gather contraction of single rows that the Hankel
    # view replaced; b1=None leaves leg 1 free; reference only
    C = coupling._projection_table(t)
    if b1 is None:
        return np.einsum("ij,j,ij->i", C, b2, b3[_gather(t)])
    return np.einsum("ij,i,j,ij->", C, b1, b2, b3[_gather(t)])


def test_contract_batched_and_free_leg_match_per_row_gather():
    rng = np.random.default_rng(3)
    # sorted and reordered legs, as the keyed features use them
    for t in [(2, 2, 2), (6, 8, 14), (14, 6, 8), (8, 14, 6), (1, 2, 2)]:
        b1, b2, b3 = (rng.standard_normal((4, 3, 2 * l + 1))
                      + 1j * rng.standard_normal((4, 3, 2 * l + 1)) for l in t)
        full = coupling._contract(t, b1, b2, b3)
        free = coupling._contract(t, None, b2, b3)
        assert full.shape == (4, 3) and free.shape == (4, 3, 2 * t[0] + 1)
        want = np.array([[_contract_gather(t, b1[x, y], b2[x, y], b3[x, y])
                          for y in range(3)] for x in range(4)])
        want_free = np.array([[_contract_gather(t, None, b2[x, y], b3[x, y])
                               for y in range(3)] for x in range(4)])
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(full - want).max() <= 1e-14 * scale
        assert np.abs(free - want_free).max() <= 1e-14 * scale
        # broadcasting: one row against the whole batch
        assert np.abs(coupling._contract(t, b1[0, 0], b2, b3) - np.array(
            [[_contract_gather(t, b1[0, 0], b2[x, y], b3[x, y])
              for y in range(3)] for x in range(4)])).max() <= 1e-14 * scale
    with pytest.raises(ValueError, match="triangle"):
        coupling._contract((1, 1, 3), *(np.ones(2 * l + 1) for l in (1, 1, 3)))


def test_bispectrum_vector_matches_channel_gather_form():
    trips = admissible_triplets(range(17), 16)
    c64 = harmonics.forward_sht(harmonics.make_cover(5), 16)
    # the robustness scale (H=256) and a 1-channel cover
    for c in [c64, harmonics.forward_sht(harmonics.make_cover(5, H=256), 16),
              harmonics.ShCoefficients(c64.data[:1], 16, real=True)]:
        got = bispectrum_vector(c, trips).values
        want = np.array([np.einsum("ij,ci,cj,cij->",
                                   coupling._projection_table(t),
                                   c.block(t[0]), c.block(t[1]),
                                   c.block(t[2])[:, _gather(t)]) for t in trips])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_bispectrum_vector_edge_triplets():
    c = harmonics.forward_sht(harmonics.make_cover(7), 16)
    with pytest.raises(ValueError, match="triangle"):
        bispectrum_vector(c, [(1, 1, 3)])
    with pytest.raises(ValueError, match="degree out of range"):
        bispectrum_vector(c, [(8, 9, 17)])
    # odd parity: all of C is 0; the triplet still owns its entries, so it
    # sums to an exact 0 and does not read its neighbour's segment
    v = bispectrum_vector(c, [(1, 1, 1), (2, 2, 2)]).values
    assert v[0] == 0 and v[1] == bispectrum_component(c, (2, 2, 2)) != 0
    empty = bispectrum_vector(c, [])
    assert len(empty) == 0 and empty.values.shape == (0,)
    # legs in any order, as _contract reads them
    trips = [(14, 6, 8), (8, 14, 6), (6, 8, 14), (16, 2, 14)]
    got = bispectrum_vector(c, trips).values
    want = np.array([coupling._contract(t, *(c.block(l) for l in t)).sum()
                     for t in trips])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the plan is read-only and its cache bounded
    top, chunks = coupling._vector_plan(tuple(trips))
    assert top == 16 and chunks
    for _, _, idx, C, starts in chunks:
        assert idx.dtype == np.int32
        assert not any(a.flags.writeable for a in (idx, C, starts))
    assert coupling._vector_plan.cache_info().maxsize is not None
