"""Property tests of the transform and the invariants over generated inputs.

Derandomized: every run draws the same examples, so a failure reproduces
and the module takes a few seconds.
"""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sphmark import attacks, codec, coupling, grid, harmonics, so3  # noqa: E402

from test_coupling import _bispectrum_full_plane  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=50, deadline=None,
                   database=None)

seeds = st.integers(0, 2 ** 32 - 1)
channels = st.sampled_from([1, 3])


def _real_set(l_max, ch, seed):
    rng = np.random.default_rng(seed)
    data = np.stack([harmonics._random_symmetric(rng, l_max, 1.5)
                     for _ in range(ch)])
    return harmonics.ShCoefficients(data, l_max, real=True)


def _triplets(l_max, seed, n):
    trips = coupling.admissible_triplets(range(l_max + 1), l_max)
    pick = np.random.default_rng(seed).choice(len(trips), min(n, len(trips)),
                                              replace=False)
    # legs in any order, as bispectrum_vector reads them
    return [tuple(np.random.default_rng(seed + i).permutation(trips[i]).tolist())
            for i in sorted(pick)]


@PROFILE
@given(l_max=st.integers(1, 12), ch=channels, seed=seeds,
       angles=st.tuples(st.floats(0, 2 * np.pi), st.floats(0, np.pi),
                        st.floats(0, 2 * np.pi)))
def test_bispectrum_vector_rotation_invariant(l_max, ch, seed, angles):
    c = _real_set(l_max, ch, seed)
    trips = coupling.admissible_triplets(range(l_max + 1), l_max)
    base = coupling.bispectrum_vector(c, trips).values
    R = so3.Rotation.from_zyz(*angles)
    v = coupling.bispectrum_vector(so3.rotate_coeffs(c, R), trips).values
    # relative to the largest component: a per-component bound would let a
    # near-zero component's error hide behind its own small scale
    assert np.abs(v - base).max() <= 1e-12 * np.abs(base).max()


@PROFILE
@given(l_max=st.integers(0, 12), extra=st.integers(0, 9), ch=channels,
       seed=seeds)
def test_sht_round_trip_at_sampling_minimum(l_max, extra, ch, seed):
    H = max(2, 4 * l_max + extra)
    c = _real_set(l_max, ch, seed)
    x = harmonics.inverse_sht(c, H)
    back = harmonics.forward_sht(x, l_max)
    assert back.real
    assert np.abs(back.data - c.data).max() <= 1e-12 * np.abs(c.data).max()


@PROFILE
@given(l_max=st.integers(0, 10), ch=channels, seed=seeds,
       real=st.booleans())
def test_bispectrum_half_plane_equals_full_plane(l_max, ch, seed, real):
    if real:
        c = _real_set(l_max, ch, seed)
    else:
        rng = np.random.default_rng(seed)
        n = (l_max + 1) ** 2
        c = harmonics.ShCoefficients(rng.standard_normal((ch, n))
                                     + 1j * rng.standard_normal((ch, n)), l_max)
    trips = _triplets(l_max, seed % 1000, 12)
    got = coupling.bispectrum_vector(c, trips).values
    want = _bispectrum_full_plane(c, trips)
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)
    if real:
        assert np.all(got.imag == 0)


@PROFILE
@given(k=st.integers(1, 80), seed=seeds, prefix=st.sampled_from(["", "0x", "0X"]))
def test_payload_round_trips_through_hex_and_bit_strings(k, seed, prefix):
    bits = np.random.default_rng(seed).integers(0, 2, k)
    text = codec.format_payload(bits)
    assert len(text) == (k + 3) // 4
    assert np.array_equal(codec.parse_payload(prefix + text, k), bits)
    assert np.array_equal(codec.parse_payload("".join(map(str, bits)), k), bits)


@PROFILE
@given(H=st.integers(1, 12), shape=st.sampled_from([(), (1,), (3,)]),
       seed=seeds)
def test_read_ppm_after_write_ppm_is_the_8_bit_rounding(H, shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((H, 2 * H) + shape)
    # exact ends and exact half-steps, which round half to even
    x.flat[rng.integers(0, x.size, 4)] = [0.0, 1.0, 0.5 / 255, 254.5 / 255]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.ppm")
        grid.write_ppm(path, x)
        got = grid.read_ppm(path)
    want = np.rint(x * 255.0) / 255.0
    assert np.array_equal(got, np.broadcast_to(
        want if want.ndim == 3 else want[:, :, None], got.shape))


_VALID_SPECS = ["rotate:seed=3", "rotate:q=1,0,0,0", "blur:sigma=3,k=7",
                "noise:std=0.05,seed=4", "resize:scale=0.5", "jpeg:q=60",
                "lowpass:lc=8,lmax=16", "mixed:[rotate:seed=1;jpeg:q=60]",
                "mixed:[brightness:f=1.1;mixed:[contrast:f=1.2]]"]


@PROFILE
@given(spec=st.sampled_from(_VALID_SPECS), data=st.data())
def test_malformed_attack_specs_name_a_position_inside_the_spec(spec, data):
    # one edit of a valid spec: a deletion, an insertion or a replacement
    # from the grammar's own characters
    i = data.draw(st.integers(0, len(spec)))
    ch = data.draw(st.sampled_from(list(":=,;[] xq0.-") + [""]))
    cut = data.draw(st.integers(0, 1))
    text = spec[:i] + ch + spec[i + cut:]
    try:
        attacks.parse_attack(text)
    except attacks.AttackSpecError as e:
        assert 0 <= e.pos <= len(text), (text, e.pos)
