import functools
import json
import math
import re
import struct

import numpy as np
import pytest

from sphmark import attacks, codec, coupling, harmonics, so3
from sphmark.codec import (
    CodecConfig, EmbeddingStrengthWarning, SignatureSet, check_key,
    coefficient_rms, compute_features, config_from_dict, config_to_dict,
    embed, embed_coefficients, extract_nonblind, feature_length,
    features_from_coeffs, format_payload, generate_patterns, make_signature,
    parse_payload, random_payload,
)


@pytest.fixture(scope="module")
def clean_embed():
    cover = harmonics.make_cover(1)
    bits = random_payload(5)
    stego, side = embed(cover, bits, key=99)
    return cover, bits, stego, side


# ------------------------------------------------------------ configuration

def test_config_defaults_and_derived():
    cfg = CodecConfig()
    assert cfg.L_embed == (6, 8, 14)
    assert cfg.n_groups == 32            # groups=0 means one group per bit
    assert cfg.capacity == 3 * (2 * 6 + 1)
    assert CodecConfig(groups=8).n_groups == 8
    # degree list is sorted and deduplicated
    assert CodecConfig(L_embed=(14, 6, 8, 6)).L_embed == (6, 8, 14)


@pytest.mark.parametrize("kw", [
    dict(L_embed=()),
    dict(L_embed=(0, 6)),
    dict(L_embed=(6, 17)),
    dict(channels=2),
    dict(mask_floor=1.5),
    dict(alpha=0.0),
    dict(k=0),
    dict(groups=5),                      # 32 % 5 != 0
    dict(compensation_iterations=-1),
    dict(n_contexts=0),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        CodecConfig(**kw)


def test_config_dict_round_trip():
    cfg = CodecConfig(alpha=0.07, groups=16, channels=1, L_embed=(4, 6))
    d = config_to_dict(cfg)
    assert d["L_embed"] == [4, 6]
    assert config_from_dict(d) == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"alpha": 0.1, "bogus": 1})


# ------------------------------------------------------------ payload text

def test_payload_parsing_round_trips():
    bits = random_payload(3)
    hexstr = format_payload(bits)
    assert len(hexstr) == 8
    assert np.array_equal(parse_payload(hexstr, 32), bits)
    assert np.array_equal(parse_payload("0x" + hexstr, 32), bits)
    bitstr = "".join(str(b) for b in bits)
    assert np.array_equal(parse_payload(bitstr, 32), bits)
    assert np.array_equal(parse_payload("deadbeef", 32),
                          parse_payload("DEADBEEF", 32))


def test_payload_parsing_errors():
    with pytest.raises(ValueError):
        parse_payload("012", 32)              # neither 32 bits nor 8 hex digits
    with pytest.raises(ValueError):
        parse_payload("zz", 8)
    with pytest.raises(ValueError):
        parse_payload("f", 3)                 # 15 does not fit in 3 bits


def test_random_payload_deterministic():
    assert np.array_equal(random_payload(7), random_payload(7))
    assert random_payload(7, k=16).shape == (16,)
    assert set(np.unique(random_payload(0))) <= {0, 1}


def test_check_key_range():
    assert check_key(0) == 0
    assert check_key(2 ** 64 - 1) == 2 ** 64 - 1
    with pytest.raises(ValueError):
        check_key(-1)
    with pytest.raises(ValueError):
        check_key(2 ** 64)


def test_coefficient_rms_hand_value():
    data = np.zeros((1, 9), complex)
    data[0, 1:4] = [1.0, 1.0, 1.0]            # degree-1 block
    assert coefficient_rms(data, [1]) == pytest.approx(1.0)
    assert coefficient_rms(data, [2]) == 0.0


@pytest.mark.parametrize("path", ["make_signature", "embed_coefficients",
                                  "embed"])
def test_zero_energy_cover_refused_by_every_strength_path(path):
    # only degree 0 set: the strength alpha * RMS on the embed degrees is 0
    cfg = CodecConfig()
    c = np.zeros((3, harmonics.n_coeffs(cfg.l_max)), complex)
    c[:, 0] = 1.0
    bits = random_payload(1)
    calls = {
        "make_signature": lambda: make_signature(c, 5, cfg),
        "embed_coefficients": lambda: embed_coefficients(c, bits, 5, cfg),
        "embed": lambda: embed(harmonics.inverse_sht(
            harmonics.ShCoefficients(c, cfg.l_max, real=True), 64), bits, 5, cfg),
    }
    with pytest.raises(ValueError, match="no energy on the embed degrees 6, 8, 14"):
        calls[path]()
    # an explicit strength still derives directions
    assert make_signature(c, 5, cfg, alpha=0.01)[2] == 0.01


# ------------------------------------------------------------ pattern bank

def test_patterns_shape_orthonormality_symmetry():
    cfg = CodecConfig()
    P = generate_patterns(1234, cfg)
    assert P.shape == (32, 3, 289)
    G = P.reshape(32, -1) @ P.reshape(32, -1).conj().T
    assert np.abs(G - np.eye(32)).max() < 1e-12
    emb = codec._embed_band_mask(cfg)
    assert np.abs(P[:, :, ~emb]).max() == 0.0
    for kk in (0, 17, 31):
        c = harmonics.ShCoefficients(P[kk].copy(), 16, real=True)
        assert c.symmetry_deviation() < 1e-12


def test_patterns_determinism_and_cache():
    cfg = CodecConfig()
    assert generate_patterns(5, cfg) is generate_patterns(5, cfg)
    a = generate_patterns(5, cfg)
    b = generate_patterns(6, cfg)
    assert np.abs(a - b).max() > 1e-3
    with pytest.raises(ValueError):
        a[0, 0, 0] = 0.0                       # cached bank is frozen
    # the cache is keyed by the secret key, so it must stay bounded
    small = CodecConfig(L_embed=(2,), l_max=4, k=4, groups=2, channels=1)
    maxsize = codec._patterns.cache_info().maxsize
    for key in range(1000, 1000 + maxsize + 1):
        generate_patterns(key, small)
    assert codec._patterns.cache_info().currsize == maxsize
    assert generate_patterns(5, cfg) is generate_patterns(5, cfg)


def _conj_symmetric_row_loop(rng, l):
    # the per-m mirror loop the vectorized row replaced; reference only
    dof = rng.standard_normal(2 * l + 1)
    bv = np.zeros(2 * l + 1, complex)
    bv[l] = dof[l]
    for m in range(1, l + 1):
        bv[l + m] = (dof[l + m] + 1j * dof[l - m]) / math.sqrt(2.0)
        bv[l - m] = ((-1.0) ** m) * np.conj(bv[l + m])
    return bv


def test_conj_symmetric_row_matches_per_m_loop():
    for l in range(17):
        got = codec._conj_symmetric_row(np.random.default_rng(l), l)
        want = _conj_symmetric_row_loop(np.random.default_rng(l), l)
        assert np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def _cg_tensor_loop(la, lb, l):
    # the per-entry Clebsch-Gordan builder the scatter replaced
    T = np.zeros((2 * la + 1, 2 * lb + 1, 2 * l + 1))
    for i, m1 in enumerate(range(-la, la + 1)):
        for j, m2 in enumerate(range(-lb, lb + 1)):
            m = m1 + m2
            if abs(m) <= l:
                T[i, j, m + l] = (((-1.0) ** (la - lb + m))
                                  * math.sqrt(2 * l + 1)
                                  * coupling.wigner_3j(la, lb, l, m1, m2, -m))
    return T


@functools.lru_cache(maxsize=None)
def _dense_tensor_loop(t):
    # the per-entry dense codec tensor, C^{0,0} placed at m3 = -m1-m2
    l1, l2, l3 = t
    pref = (math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
            * coupling.wigner_3j(l1, l2, l3, 0, 0, 0))
    B = np.zeros((2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1))
    for i, m1 in enumerate(range(-l1, l1 + 1)):
        for j, m2 in enumerate(range(-l2, l2 + 1)):
            if abs(m1 + m2) <= l3:
                B[i, j, l3 - m1 - m2] = pref * coupling.wigner_3j(
                    l1, l2, l3, m1, m2, -m1 - m2)
    return B


def test_coupling_tensors_match_per_entry_loops():
    bank = codec._bank(CodecConfig())
    for t in bank.trips:
        slots, pairs = bank.roster[t]
        for arr in (slots, pairs, bank.ctx_weights[t[0]]):
            with pytest.raises(ValueError):
                arr[0] = 0
    # the context plan's CG column, scattered back to one dense tensor per
    # row, against the per-entry builder
    idx, _, legs, cg, _ = bank.ctx_plan
    w = idx.shape[2]
    r, i = np.divmod(legs[0], 2 * w)
    j = legs[1] - (2 * r + 1) * w
    pairs = [(l, la, lb) for l in bank.L_embed for la, lb in bank.ctx_pairs[l]]
    for row, (l, la, lb) in enumerate(pairs):
        at = r == row
        T = np.zeros((2 * la + 1, 2 * lb + 1, 2 * l + 1))
        T[i[at], j[at], i[at] - la + j[at] - lb + l] = cg[at]
        assert np.abs(T - _cg_tensor_loop(la, lb, l)).max() <= 1e-14
    S = codec._slice_profiles(4, 3, 3)
    assert codec._slice_profiles(4, 3, 3) is S
    with pytest.raises(ValueError):
        S[0, 0, 0] = 1.0


def _patterns_gram_schmidt_loop(key, cfg):
    # one draw per bit, then modified Gram-Schmidt with k^2 vdot steps per
    # embed degree: the loop the one QR per degree replaced; reference only
    sw = codec._slice_profiles(cfg.n_groups, len(cfg.L_embed), cfg.channels)
    rng = np.random.default_rng(np.random.SeedSequence([key, 0xA11CE]))
    P = np.zeros((cfg.k, cfg.channels, harmonics.n_coeffs(cfg.l_max)), complex)
    for li, l in enumerate(cfg.L_embed):
        V = np.zeros((cfg.k, cfg.channels, 2 * l + 1), complex)
        for kk in range(cfg.k):
            V[kk] = (sw[kk % cfg.n_groups, li, :, None]
                     * codec._conj_symmetric_row(rng, l)[None, :])
        Vf = V.reshape(cfg.k, -1)
        for i in range(cfg.k):
            for j in range(i):
                Vf[i] -= np.vdot(Vf[j], Vf[i]) * Vf[j]
            Vf[i] /= np.linalg.norm(Vf[i])
        P[:, :, l * l:(l + 1) * (l + 1)] = (Vf.reshape(V.shape)
                                            / math.sqrt(len(cfg.L_embed)))
    return P


def test_patterns_match_gram_schmidt_loop():
    for kw in (dict(), dict(k=8, groups=2)):
        cfg = CodecConfig(**kw)
        for key in list(range(20)) + [2 ** 64 - 1]:
            want = _patterns_gram_schmidt_loop(key, cfg)
            got = generate_patterns(key, cfg)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # orthonormal to rounding, also at full capacity, where the loop itself
    # drifts (one channel, k=13: 6e-14 off orthonormal)
    for kw in (dict(), dict(k=8, groups=2), dict(k=39, groups=39),
               dict(channels=1, k=13)):
        cfg = CodecConfig(**kw)
        for key in (1, 7, 2 ** 63):
            F = generate_patterns(key, cfg).reshape(cfg.k, -1)
            assert np.abs(F @ F.conj().T - np.eye(cfg.k)).max() <= 1e-14
    # one batched draw is the k sequential rows, stream position included
    for l in (0, 1, 6, 14):
        rng_a, rng_b = np.random.default_rng(l), np.random.default_rng(l)
        got = codec._conj_symmetric_row(rng_a, l, (5,))
        want = np.stack([codec._conj_symmetric_row(rng_b, l) for _ in range(5)])
        assert np.array_equal(got, want)
        assert rng_a.standard_normal() == rng_b.standard_normal()


def test_patterns_capacity_limit():
    # 3 channels on min degree 6 support at most 39 orthogonal bits
    with pytest.raises(ValueError, match="39"):
        generate_patterns(1, CodecConfig(k=40, groups=1))
    with pytest.raises(ValueError, match="13"):
        generate_patterns(1, CodecConfig(channels=1, groups=1))
    # at the limit the construction still succeeds
    P = generate_patterns(1, CodecConfig(k=39, groups=39))
    assert P.shape[0] == 39


# ------------------------------------------------------------ features

def test_feature_length_scales_with_groups():
    assert feature_length(CodecConfig()) == 32 * 153
    assert feature_length(CodecConfig(groups=16)) == 16 * 153


def test_features_zero_signal():
    cfg = CodecConfig()
    z = features_from_coeffs(np.zeros((3, 289), complex), cfg)
    assert z.shape == (feature_length(cfg),)
    assert np.all(z == 0.0)


def test_features_validation():
    cfg = CodecConfig()
    with pytest.raises(ValueError):
        features_from_coeffs(harmonics.ShCoefficients.zeros(8, channels=3), cfg)
    with pytest.raises(ValueError):
        features_from_coeffs(np.zeros((1, 289), complex), cfg)
    for n in (288, 300):                      # not (l_max+1)^2 coefficients
        with pytest.raises(ValueError, match="coefficient shape"):
            features_from_coeffs(np.zeros((2, 3, n), complex), cfg)


def test_features_rotation_invariance(clean_embed):
    _, bits, stego, side = clean_embed
    cfg = side.config
    c = harmonics.forward_sht(stego, cfg.l_max)
    z = features_from_coeffs(c, cfg)
    for seed in (3, 4):
        zr = features_from_coeffs(so3.rotate_coeffs(c, so3.random_rotation(seed)), cfg)
        assert np.abs(zr - z).max() <= 1e-9 * (1 + np.abs(z).max())


def test_feature_displacement_linear_in_strength():
    # matched-filter stats are strength-normalized, so monotonicity is
    # asserted on the raw feature displacement instead
    cover = harmonics.make_cover(1)
    c = harmonics.forward_sht(cover, 16).data
    bits = random_payload(5)
    disp = []
    for a in (0.02, 0.05, 0.1, 0.2):
        cfg = CodecConfig(alpha=a)
        after = embed_coefficients(c, bits, 99, cfg)
        z0 = features_from_coeffs(c, cfg)
        disp.append(np.linalg.norm(features_from_coeffs(after, cfg) - z0))
    assert all(b > a + 5e-3 * a for a, b in zip(disp, disp[1:]))


def _context_rows_loop(bank, data):
    # the per-channel accumulation the one-matmul-per-leg rows replaced
    ctx = {}
    for l in bank.L_embed:
        rows = np.empty((bank.n_ctx, 2 * l + 1), complex)
        wch = bank.ctx_weights[l]
        for a, (la, lb) in enumerate(bank.ctx_pairs[l]):
            u = np.zeros(2 * la + 1, complex)
            v = np.zeros(2 * lb + 1, complex)
            for ch in range(bank.channels):
                u += wch[a, 0, ch] * data[ch, la * la:(la + 1) * (la + 1)]
                v += wch[a, 1, ch] * data[ch, lb * lb:(lb + 1) * (lb + 1)]
            out = np.einsum("ijm,i,j->m", _cg_tensor_loop(la, lb, l), u, v)
            rows[a] = out / (np.linalg.norm(out) + 1e-30)
        ctx[l] = rows
    return ctx


@functools.lru_cache(maxsize=None)
def _cg_tensor_scatter(la, lb, l):
    # the dense Clebsch-Gordan tensor (la x lb -> l) over (m1, m2, m1+m2),
    # scattered from one 3j table; where |m1+m2| > l the coefficient is 0
    # and its index is clipped into range; reference only
    m = np.add.outer(np.arange(-la, la + 1), np.arange(-lb, lb + 1))
    T = (((-1.0) ** (la - lb + m) * math.sqrt(2 * l + 1))
         * coupling.threej_table(la, lb, l))
    out = np.zeros(T.shape + (2 * l + 1,))
    np.put_along_axis(out, np.clip(m + l, 0, 2 * l)[..., None], T[..., None],
                      axis=2)
    return out


def _context_rows_per_pair_loop(bank, data):
    # one tensordot per (embed degree, pair) against the dense CG tensor:
    # the loop the flat plan replaced; reference only
    ctx = {}
    for l in bank.L_embed:
        rows = np.empty((bank.n_ctx, 2 * l + 1), complex)
        wch = bank.ctx_weights[l]
        for a, (la, lb) in enumerate(bank.ctx_pairs[l]):
            u = wch[a, 0] @ data[:, la * la:(la + 1) * (la + 1)]
            v = wch[a, 1] @ data[:, lb * lb:(lb + 1) * (lb + 1)]
            out = v @ np.tensordot(u, _cg_tensor_scatter(la, lb, l), 1)
            rows[a] = out / (np.linalg.norm(out) + 1e-30)
        ctx[l] = rows
    return ctx


def test_context_rows_match_per_pair_loop():
    for kw in (dict(), dict(channels=1, k=8, groups=4)):
        cfg = CodecConfig(**kw)
        bank = codec._bank(cfg)
        plan = bank.ctx_plan
        for H in (64, 256):
            c = harmonics.forward_sht(harmonics.make_cover(3, H=H), cfg.l_max).data
            c = c[:cfg.channels]
            got = codec._context_rows(bank, c)
            want = _context_rows_per_pair_loop(bank, c)
            assert sorted(got) == sorted(want)
            for l in want:
                assert got[l].shape == want[l].shape
                assert np.abs(got[l] - want[l]).max() <= 1e-15 * np.abs(want[l]).max()
        # one read-only plan per bank, built with it
        assert codec._bank(cfg) is bank and bank.ctx_plan is plan
        for arr in plan:
            with pytest.raises(ValueError):
                arr.flat[0] = 0


def _features_three_branch(bank, data):
    # the dense-tensor feature path with one einsum branch per keyed slot,
    # which the one trilinear kernel replaced; reference only
    ctx = _context_rows_loop(bank, data)
    Y = {}
    for li, l in enumerate(bank.L_embed):
        Y[l] = bank.sw[:, li, :] @ data[:, l * l:(l + 1) * (l + 1)]
    T = len(bank.trips)
    pure = np.empty((T, bank.G))
    ctxf = np.empty((T, bank.G, bank.n_pairs))
    for ti, t in enumerate(bank.trips):
        l1, l2, l3 = t
        B = _dense_tensor_loop(t)
        pure[ti] = np.einsum("ijm,gi,gj,gm->g", B, Y[l1], Y[l2], Y[l3],
                             optimize=True).real
        slots, pairs = bank.roster[t]
        rows = np.empty((bank.G, bank.n_pairs))
        for s in range(3):
            gsel = np.where(slots == s)[0]
            if gsel.size == 0:
                continue
            A = pairs[gsel, :, 0]
            Bb = pairs[gsel, :, 1]
            if s == 0:
                BY = np.einsum("ijm,xi->xjm", B, Y[l1][gsel], optimize=True)
                tjm = np.einsum("xjm,xpm->xpj", BY, ctx[l3][Bb], optimize=True)
                r = np.einsum("xpj,xpj->xp", tjm, ctx[l2][A], optimize=True).real
            elif s == 1:
                BY = np.einsum("ijm,xj->xim", B, Y[l2][gsel], optimize=True)
                tim = np.einsum("xim,xpm->xpi", BY, ctx[l3][Bb], optimize=True)
                r = np.einsum("xpi,xpi->xp", tim, ctx[l1][A], optimize=True).real
            else:
                BY = np.einsum("ijm,xm->xij", B, Y[l3][gsel], optimize=True)
                tij = np.einsum("xij,xpi->xpj", BY, ctx[l1][A], optimize=True)
                r = np.einsum("xpj,xpj->xp", tij, ctx[l2][Bb], optimize=True).real
            rows[gsel] = r
        ctxf[ti] = rows
    per_group = np.concatenate(
        [pure.T, ctxf.transpose(1, 0, 2).reshape(bank.G, -1)], axis=1)
    return per_group.ravel()


def _make_signature_loop(data, key, cfg, a):
    # the per-bit finite-difference loop the closed form replaced
    bank = codec._bank(cfg)
    P = generate_patterns(key, cfg)
    z0 = _features_three_branch(bank, data)
    d = np.empty((cfg.k, bank.n_features))
    for kk in range(cfg.k):
        d[kk] = (_features_three_branch(bank, data + a * P[kk])
                 - _features_three_branch(bank, data - a * P[kk]))
    return z0, d


@pytest.mark.parametrize("groups", [0, 2, 1])
def test_features_match_three_branch_reference(groups):
    # groups 2 and 1 leave one and two of the three keyed slots empty; one
    # channel leaves each group mix a signed copy of the coefficients
    for channels in (3, 1):
        cfg = CodecConfig(groups=groups, channels=channels)
        bank = codec._bank(cfg)
        for H in (64, 256):
            c = harmonics.forward_sht(harmonics.make_cover(3, H=H), cfg.l_max).data
            c = c[:channels]
            want = _features_three_branch(bank, c)
            got = features_from_coeffs(c, cfg)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kw", [dict(), dict(k=8, groups=2),
                                dict(channels=1, k=8, groups=4)])
def test_make_signature_matches_finite_difference_loop(kw):
    cfg = CodecConfig(**kw)
    c = harmonics.forward_sht(harmonics.make_cover(4), cfg.l_max).data[:cfg.channels]
    z0, d, a = make_signature(c, 321, cfg)
    z0_ref, d_ref = _make_signature_loop(c, 321, cfg, a)
    assert np.abs(z0 - z0_ref).max() <= 1e-12 * np.abs(z0_ref).max()
    assert np.abs(d - d_ref).max() <= 1e-12 * np.abs(d_ref).max()


@pytest.mark.parametrize("kw", [dict(), dict(channels=1, k=8, groups=4)])
def test_batched_features_match_per_row_calls(kw):
    # embeds into one cover share its non-embed degrees, so one context
    # serves the whole batch; the GEMMs' blocking may differ with batch size
    cfg = CodecConfig(**kw)
    c = harmonics.forward_sht(harmonics.make_cover(6), cfg.l_max).data[:cfg.channels]
    bits = np.random.default_rng(2).integers(0, 2, (6, cfg.k))
    ct = embed_coefficients(c, bits, 77, cfg)
    want = np.stack([features_from_coeffs(row, cfg) for row in ct])
    got = features_from_coeffs(ct, cfg)
    assert got.shape == want.shape == (6, feature_length(cfg))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    # any number of leading axes; a batch of one is the single-set call
    got2 = features_from_coeffs(ct.reshape((2, 3) + ct.shape[1:]), cfg)
    assert np.abs(got2.reshape(want.shape) - want).max() <= 1e-15 * np.abs(want).max()
    assert np.array_equal(features_from_coeffs(ct[:1], cfg)[0],
                          features_from_coeffs(ct[0], cfg))


def test_batched_features_refuse_differing_non_embed_degrees():
    cfg = CodecConfig()
    c = harmonics.forward_sht(harmonics.make_cover(6), cfg.l_max).data
    batch = np.stack([c, c, c])
    batch[1, 0, 14 * 14 + 3] += 1e-3          # embed degree 14: allowed
    assert features_from_coeffs(batch, cfg).shape == (3, feature_length(cfg))
    for l in (0, 3, 16):                      # non-embed degrees
        bad = batch.copy()
        bad[2, 1, l * l] += 1e-12
        with pytest.raises(ValueError, match="non-embed degree"):
            features_from_coeffs(bad, cfg)


def test_batched_embed_coefficients_match_per_row_calls():
    cfg = CodecConfig()
    c = harmonics.forward_sht(harmonics.make_cover(2), cfg.l_max)
    bits = np.random.default_rng(4).integers(0, 2, (2, 5, cfg.k))
    got = embed_coefficients(c, bits, 7, cfg)
    assert isinstance(got, np.ndarray) and got.shape == (2, 5) + c.data.shape
    for i in range(2):
        for j in range(5):
            assert np.array_equal(got[i, j], embed_coefficients(c, bits[i, j], 7, cfg).data)
    for bad in (bits[..., :-1], np.full((3, cfg.k), 2), np.zeros(()), np.zeros((cfg.k, 1))):
        with pytest.raises(ValueError, match="payload must be"):
            embed_coefficients(c, bad, 7, cfg)


def test_delta_features_match_matched_filter_directions():
    cover = harmonics.make_cover(4)
    c = harmonics.forward_sht(cover, 16).data
    cfg = CodecConfig()
    bits = random_payload(8)
    z0, d, a = make_signature(c, 321, cfg)
    dz = features_from_coeffs(embed_coefficients(c, bits, 321, cfg), cfg) - z0
    pred = np.einsum("k,kf->f", 2.0 * bits - 1.0, d) / 2.0
    cos = float(dz @ pred / (np.linalg.norm(dz) * np.linalg.norm(pred)))
    assert cos > 0.99


# ------------------------------------------------------------ embed/extract

def test_clean_round_trip(clean_embed):
    cover, bits, stego, side = clean_embed
    assert stego.shape == cover.shape
    assert stego.min() >= 0.0 and stego.max() <= 1.0
    got, stats = extract_nonblind(stego, side)
    assert np.array_equal(got, bits)
    assert np.abs(stats).min() > 0.15          # measured ~0.31
    assert 0.3 < np.abs(stats).mean() < 0.8    # nominal value is ~0.5
    signs = np.where(bits == 1, 1.0, -1.0)
    assert np.all(np.sign(stats) == signs)


def test_cover_without_mark_gives_null_stats(clean_embed):
    cover, _, _, side = clean_embed
    _, stats = extract_nonblind(cover, side)
    # z equals the recorded reference exactly: statistic is identically 0
    assert np.abs(stats).max() < 1e-12


def test_wrong_key_is_uninformative(clean_embed):
    _, bits, stego, side = clean_embed
    got, stats = extract_nonblind(stego, side, key=100)
    assert (got == bits).mean() <= 0.75        # chance level, measured 0.375
    assert np.abs(stats).mean() < 0.35


def test_correct_key_rederivation_matches_stored(clean_embed):
    _, bits, stego, side = clean_embed
    got, stats = extract_nonblind(stego, side, key=99)
    ref_bits, ref_stats = extract_nonblind(stego, side)
    assert np.array_equal(got, ref_bits)
    assert np.allclose(stats, ref_stats, atol=1e-12)


def test_rotation_does_not_move_stats(clean_embed):
    _, bits, stego, side = clean_embed
    cfg = side.config
    c = harmonics.forward_sht(stego, cfg.l_max)
    _, base = extract_nonblind(stego, side)
    for seed in (7, 77):
        crot = so3.rotate_coeffs(c, so3.random_rotation(seed))
        z = features_from_coeffs(crot, cfg)
        stats = (z - side.z0) @ side.directions.T / np.sum(
            side.directions ** 2, axis=1)
        assert np.abs(stats - base).max() < 1e-9
        assert np.array_equal((stats > 0).astype(int), bits)


def test_embed_band_confinement(clean_embed):
    cover, bits, stego, side = clean_embed
    cfg = side.config
    delta = (harmonics.forward_sht(stego, cfg.l_max).data
             - harmonics.forward_sht(cover, cfg.l_max).data)
    emb = codec._embed_band_mask(cfg)
    on = np.linalg.norm(delta[:, emb])
    off = np.linalg.norm(delta[:, ~emb])
    # masking spreads some energy off-band; the payload must dominate
    assert off < 0.6 * on
    # the realized on-band change is close to the requested one
    P = generate_patterns(99, cfg)
    target = side.alpha * np.einsum("k,kcn->cn", 2.0 * bits - 1.0, P)
    short = (np.linalg.norm(np.where(emb, delta, 0) - np.where(emb, target, 0))
             / np.linalg.norm(target))
    assert short < 0.10


def test_embed_coefficients_exact_confinement():
    c = harmonics.forward_sht(harmonics.make_cover(2), 16)
    cfg = CodecConfig()
    bits = random_payload(1)
    out = embed_coefficients(c, bits, 7, cfg)
    assert isinstance(out, harmonics.ShCoefficients) and out.real
    delta = out.data - c.data
    emb = codec._embed_band_mask(cfg)
    assert np.abs(delta[:, ~emb]).max() == 0.0
    assert np.abs(delta[:, emb]).max() > 0.0
    out.assert_symmetry()


def test_mask_compensation_recovers_payload():
    cover = harmonics.make_cover(6)
    bits = random_payload(11)
    cfg_off = CodecConfig(mask_compensation=False)

    def shortfall(cfg, sg):
        c0 = harmonics.forward_sht(cover, cfg.l_max).data
        delta = harmonics.forward_sht(sg, cfg.l_max).data - c0
        P = generate_patterns(42, cfg)
        a = cfg.alpha * coefficient_rms(c0, cfg.L_embed)
        target = a * np.einsum("k,kcn->cn", 2.0 * bits - 1.0, P)
        emb = codec._embed_band_mask(cfg)
        return (np.linalg.norm(np.where(emb, delta - target, 0))
                / np.linalg.norm(target))

    stego_on, _ = embed(cover, bits, 42, CodecConfig())
    with pytest.warns(EmbeddingStrengthWarning):
        stego_off, _ = embed(cover, bits, 42, cfg_off)
    assert shortfall(CodecConfig(), stego_on) < 0.10
    assert shortfall(cfg_off, stego_off) > 0.20


def test_embed_validation_errors():
    cover = harmonics.make_cover(1)
    with pytest.raises(ValueError):
        embed(cover, np.zeros(31, int), 1)            # wrong payload length
    with pytest.raises(ValueError):
        embed(cover, np.full(32, 2), 1)               # non-binary
    with pytest.raises(ValueError):
        embed(cover[:, :, 0], random_payload(0), 1)   # gray vs 3-channel cfg
    with pytest.raises(ValueError):
        extract_nonblind(np.zeros((64, 128)), SignatureSet(
            CodecConfig(), 1.0, np.zeros(feature_length()),
            np.zeros((32, feature_length())), np.zeros((3, 289), complex),
            np.zeros((3, 289), complex)))             # degenerate directions


def test_embed_refuses_height_below_sampling_minimum():
    # the transform is exact only for H >= 4*l_max; below it a rotated
    # stego loses payload bits, so embed must refuse
    for H in (32, 63):
        with pytest.raises(ValueError, match=r"H=%d .*4\*l_max=64 for l_max=16" % H):
            embed(harmonics.make_cover(1, H=H), random_payload(0), 1)
    with pytest.raises(ValueError, match=r"H=32 .*4\*l_max=40 for l_max=10"):
        embed(harmonics.make_cover(1, H=32), random_payload(0), 1,
              CodecConfig(l_max=10, L_embed=(6, 8)))


def test_embedding_mask_composition():
    cover = harmonics.make_cover(1)
    cfg = CodecConfig(use_geometric_mask=False, use_texture_mask=False)
    assert np.array_equal(codec.embedding_mask(cover, cfg), np.ones((64, 128)))
    geo = codec.embedding_mask(cover, CodecConfig(use_texture_mask=False))
    assert np.allclose(geo, np.sin(np.pi * (np.arange(64) + 0.5) / 64)[:, None])
    full = codec.embedding_mask(cover)
    assert full.shape == (64, 128)
    assert np.all(full > 0) and np.all(full <= 1.0)


# ------------------------------------------------------------ side info

def _sig_bin_stacked(side):
    # the np.stack([re, im]) .sig.bin writer the <c16 one replaced
    out = [b"SPHS" + struct.pack("<I", 1)]
    out += [np.ascontiguousarray(a, "<f8").tobytes()
            for a in (side.z0, side.directions)]
    out += [np.ascontiguousarray(np.stack([a.real, a.imag], axis=-1), "<f8").tobytes()
            for a in (side.cover_coeffs, side.delta_coeffs)]
    return b"".join(out)


def test_signature_save_load_round_trip(tmp_path, clean_embed):
    _, _, _, side = clean_embed
    base = tmp_path / "img"
    side.save(base)
    assert (tmp_path / "img.sig.json").exists()
    assert (tmp_path / "img.sig.bin").read_bytes() == _sig_bin_stacked(side)
    back = SignatureSet.load(base)
    assert back.config == side.config
    assert back.alpha == side.alpha
    assert np.array_equal(back.z0, side.z0)
    assert np.array_equal(back.directions, side.directions)
    assert np.array_equal(back.cover_coeffs, side.cover_coeffs)
    assert np.array_equal(back.delta_coeffs, side.delta_coeffs)
    # suffixed paths resolve to the same base
    again = SignatureSet.load(str(base) + ".sig.json")
    assert np.array_equal(again.z0, side.z0)


def test_signature_load_errors(tmp_path, clean_embed):
    _, _, _, side = clean_embed
    base = tmp_path / "img"
    side.save(base)

    js = tmp_path / "img.sig.json"
    meta = js.read_text().replace("sphmark-signature", "other-format")
    js.write_text(meta)
    with pytest.raises(ValueError, match="not a recognized signature"):
        SignatureSet.load(base)
    js.write_text(meta.replace("other-format", "sphmark-signature"))

    bb = tmp_path / "img.sig.bin"
    raw = bb.read_bytes()
    bpat = re.escape(str(bb))
    bb.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match=bpat + ".*truncated"):
        SignatureSet.load(base)
    for bad in (b"XXXX" + raw[4:], raw[:5]):
        bb.write_bytes(bad)
        with pytest.raises(ValueError, match=bpat + ".*header"):
            SignatureSet.load(base)
    bb.write_bytes(raw)

    # malformed JSON side files: every error names the file and the fault
    good = json.loads(js.read_text())
    jpat = re.escape(str(js))
    cases = [({k: v for k, v in good.items() if k != f}, "missing field '%s'" % f)
             for f in ("config", "alpha", "feature_length")]
    cases += [
        (dict(good, config=dict(good["config"], k="abc")), "field k must be int"),
        (dict(good, config=[1, 2]), "config must be a mapping"),
        (dict(good, alpha="abc"), "could not convert"),
        (dict(good, alpha=-1.0), "strength must be positive"),
        (dict(good, feature_length="abc"), "invalid literal for int()"),
    ]
    for obj, fault in cases:
        js.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=jpat + ": .*" + re.escape(fault)):
            SignatureSet.load(base)
    js.write_text("{not json")
    with pytest.raises(ValueError, match=jpat + ": Expecting"):
        SignatureSet.load(base)


def test_signature_validate_errors(clean_embed):
    _, _, _, side = clean_embed
    bad = SignatureSet(side.config, -1.0, side.z0, side.directions,
                       side.cover_coeffs, side.delta_coeffs)
    with pytest.raises(ValueError):
        bad.validate()
    bad2 = SignatureSet(side.config, side.alpha, side.z0[:-1],
                        side.directions, side.cover_coeffs, side.delta_coeffs)
    with pytest.raises(ValueError):
        bad2.validate()


# ------------------------------------------------------------ resolutions

def test_noise_robustness_at_default_strength(clean_embed):
    _, bits, stego, side = clean_embed
    noisy = attacks.attack_noise(stego, std=0.02, seed=3)
    got, _ = extract_nonblind(noisy, side)
    assert (got == bits).mean() == 1.0
