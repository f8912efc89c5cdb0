"""Keyed payload embedding in rotation-invariant harmonic subspaces.

The payload rides on a small set of spherical-harmonic degrees.  Each
payload bit gets a key-derived coefficient pattern confined to those
degrees; detection works on third-order invariant features of the
coefficients, so the decoded bits survive arbitrary rotations of the
stego image.
"""

import functools
import json
import math
import numbers
import struct
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import coupling, grid, harmonics


class EmbeddingStrengthWarning(UserWarning):
    pass


# ------------------------------------------------------------ configuration

@dataclass(frozen=True)
class CodecConfig:
    l_max: int = 16
    L_embed: tuple = (6, 8, 14)
    k: int = 32
    alpha: float = 0.1          # strength, as a multiple of cover RMS on L_embed
    groups: int = 0             # feature groups; 0 means one group per bit
    channels: int = 3
    use_geometric_mask: bool = True
    use_texture_mask: bool = True
    mask_floor: float = 0.25
    mask_compensation: bool = True
    compensation_iterations: int = 8
    n_contexts: int = 24
    context_pairs: int = 16

    def __post_init__(self):
        object.__setattr__(self, "L_embed",
                           tuple(sorted(set(int(l) for l in self.L_embed))))
        if not self.L_embed:
            raise ValueError("L_embed must not be empty")
        if self.L_embed[0] < 1:
            # degree 0 is a pure average: no angular structure to key on
            raise ValueError("L_embed must not contain degree 0")
        if self.L_embed[-1] > self.l_max:
            raise ValueError("L_embed exceeds l_max=%d" % self.l_max)
        if self.l_max < 1:
            raise ValueError("l_max must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        if not 0.0 <= self.mask_floor <= 1.0:
            raise ValueError("mask_floor must lie in [0, 1]")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.groups < 0 or self.n_contexts < 1 or self.context_pairs < 1:
            raise ValueError("groups/n_contexts/context_pairs out of range")
        if self.k % self.n_groups:
            raise ValueError("k=%d must be a multiple of groups=%d"
                             % (self.k, self.n_groups))
        if self.compensation_iterations < 0:
            raise ValueError("compensation_iterations must be >= 0")

    @property
    def n_groups(self):
        return self.k if self.groups == 0 else self.groups

    @property
    def capacity(self):
        """Max key-separable bits: degree-block orthogonality caps k at
        channels*(2*min(L_embed)+1)."""
        return self.channels * (2 * min(self.L_embed) + 1)


def config_to_dict(cfg):
    return {f.name: (list(cfg.L_embed) if f.name == "L_embed"
                     else getattr(cfg, f.name)) for f in fields(CodecConfig)}


def check_config_fields(d):
    """Reject a non-mapping, unknown field names and wrong-typed values;
    the rules across fields are CodecConfig's."""
    if not isinstance(d, dict):
        raise ValueError("config must be a mapping, got %s" % type(d).__name__)
    known = {f.name: f.type for f in fields(CodecConfig)}
    bad = sorted(str(n) for n in set(d) - set(known))
    if bad:
        raise ValueError("unknown config keys: %s" % ", ".join(bad))
    # JSON writes an integral float such as 1.0 as 1, and a tuple as a list
    accept = {int: numbers.Integral, float: numbers.Real, bool: bool,
              tuple: (list, tuple)}
    for name, v in d.items():
        if not isinstance(v, accept[known[name]]):
            raise ValueError("config field %s must be %s, got %r"
                             % (name, known[name].__name__, v))


def config_from_dict(d):
    check_config_fields(d)
    return CodecConfig(**d)


# ------------------------------------------------------------ payload text

def parse_payload(text, k):
    """Payload from a bit string of length k or a hex string (0x optional)."""
    t = str(text).strip().lower()
    if t.startswith("0x"):
        t = t[2:]
        as_hex = True
    else:
        as_hex = not (len(t) == k and set(t) <= {"0", "1"})
    if not as_hex:
        return np.array([int(ch) for ch in t], np.int64)
    ndig = (k + 3) // 4
    if len(t) != ndig or not all(ch in "0123456789abcdef" for ch in t):
        raise ValueError("payload must be %d bits or %d hex digits" % (k, ndig))
    v = int(t, 16)
    if v >> k:
        raise ValueError("payload value does not fit in %d bits" % k)
    return np.array([(v >> (k - 1 - i)) & 1 for i in range(k)], np.int64)


def format_payload(bits):
    bits = np.asarray(bits).astype(np.int64)
    k = bits.size
    v = 0
    for b in bits:
        v = (v << 1) | int(b)
    return "%0*x" % ((k + 3) // 4, v)


def random_payload(seed, k=32):
    return np.random.default_rng(seed).integers(0, 2, k)


def check_key(key):
    key = int(key)
    if not 0 <= key < 2 ** 64:
        raise ValueError("key must be a 64-bit unsigned integer")
    return key


# ------------------------------------------------------------ pattern bank

def coefficient_rms(data, degrees):
    """RMS of the coefficient entries on the given degrees, all channels."""
    data = np.atleast_2d(np.asarray(data))
    tot = 0.0
    n = 0
    for l in degrees:
        b = data[:, l * l:(l + 1) * (l + 1)]
        tot += float(np.sum(np.abs(b) ** 2))
        n += b.size
    return math.sqrt(tot / n)


def _conj_symmetric_row(rng, l, lead=()):
    # 2l+1 real degrees of freedom per row -> conjugate-symmetric complex
    # blocks of shape lead + (2l+1,); one draw fills the rows in order, so
    # the stream matches one call per row
    dof = rng.standard_normal(tuple(lead) + (2 * l + 1,))
    bv = np.zeros(dof.shape, complex)
    bv[..., l] = dof[..., l]
    bv[..., l + 1:] = (dof[..., l + 1:] + 1j * dof[..., :l][..., ::-1]) / math.sqrt(2.0)
    bv[..., :l] = harmonics.conj_flip(bv)[..., :l]
    return bv


def generate_patterns(key, cfg=None):
    """Key-derived payload patterns, shape (k, channels, n_coeffs) complex.

    Supported only on the embed degrees, conjugate-symmetric per channel,
    and orthonormal as a set: every per-degree sub-block family is made
    orthogonal across bits, in bit order, by a thin QR (the Gram-Schmidt
    factor), then degrees are weighted equally.  Raises if k exceeds what
    that construction can keep independent.
    """
    cfg = cfg or CodecConfig()
    key = check_key(key)
    if cfg.k > cfg.capacity:
        raise ValueError(
            "k=%d payload bits cannot be kept orthogonal on degrees %r with "
            "%d channel(s); at most %d are achievable"
            % (cfg.k, cfg.L_embed, cfg.channels, cfg.capacity))
    return _patterns(key, cfg.L_embed, cfg.l_max, cfg.k, cfg.n_groups,
                     cfg.channels)


# keyed by the secret key, so bounded: ~0.44 MB per key at the defaults
@functools.lru_cache(maxsize=16)
def _patterns(key, L_embed, l_max, k, n_groups, channels):
    sw = _slice_profiles(n_groups, len(L_embed), channels)
    rng = np.random.default_rng(np.random.SeedSequence([key, 0xA11CE]))
    P = np.zeros((k, channels, harmonics.n_coeffs(l_max)), complex)
    nL = len(L_embed)
    for li, l in enumerate(L_embed):
        bv = _conj_symmetric_row(rng, l, (k,))
        V = sw[np.arange(k) % n_groups, li, :, None] * bv[:, None, :]
        # modified Gram-Schmidt over the bits in order is the Q factor of a
        # thin QR with a positive diagonal; LAPACK's R diagonal is real, so
        # its sign fixes each column's phase
        Q, R = np.linalg.qr(V.reshape(k, -1).T)
        r = R.diagonal()
        if (np.abs(r) < 1e-12).any():
            raise ValueError("pattern construction degenerated; reduce k")
        blk = (Q * (r / np.abs(r))).T.reshape(k, channels, 2 * l + 1)
        P[:, :, l * l:(l + 1) * (l + 1)] = blk / math.sqrt(nL)
    P.setflags(write=False)
    return P


# ------------------------------------------------------------ keyed features
#
# Detection features are built from the same trivial-projection couplings
# as the plain invariant vector, but evaluated on key-free channel mixes:
# each of G groups sees its own per-degree channel slice, and each group
# additionally couples against quadratic "context" vectors formed from the
# non-embed degrees.  All entries are rotation invariants.

class _FeatureBank:
    __slots__ = ("L_embed", "l_max", "channels", "G", "n_ctx", "n_pairs",
                 "trips", "sw", "ctx_pairs", "ctx_weights", "ctx_plan", "roster",
                 "n_features")

    def __init__(self, L_embed, l_max, channels, G, n_ctx, n_pairs):
        self.L_embed = L_embed
        self.l_max = l_max
        self.channels = channels
        self.G = G
        self.n_ctx = n_ctx
        self.n_pairs = n_pairs
        self.trips = coupling.admissible_triplets(L_embed, l_max)
        if not self.trips:
            raise ValueError("embed degrees admit no invariant couplings")
        self.sw = _slice_profiles(G, len(L_embed), channels)
        self._build_contexts_plan()
        self._build_roster()
        self.n_features = len(self.trips) * self.G * (1 + self.n_pairs)

    def _build_contexts_plan(self):
        non_embed = [l for l in range(1, self.l_max + 1) if l not in self.L_embed]
        rng = np.random.default_rng(
            np.random.SeedSequence([0xC0DE, self.n_ctx, self.channels]))
        self.ctx_pairs = {}
        self.ctx_weights = {}
        for l in self.L_embed:
            ps = [(la, lb) for la in non_embed for lb in non_embed
                  if la <= lb and abs(la - lb) <= l <= la + lb
                  and (la + lb + l) % 2 == 0]
            if not ps:
                raise ValueError("no context couplings reach degree %d" % l)
            sel = rng.integers(0, len(ps), self.n_ctx)
            wch = rng.standard_normal((self.n_ctx, 2, self.channels))
            wch /= np.linalg.norm(wch, axis=2, keepdims=True)
            wch.setflags(write=False)
            self.ctx_pairs[l] = [ps[s] for s in sel]
            self.ctx_weights[l] = wch
        self._build_rows_plan()

    def _build_rows_plan(self):
        # Flat plan of _context_rows.  Row r is one (embed degree l, pair
        # (la, lb)); idx[r, leg] holds the flat coefficient indices of its
        # two legs' blocks, padded to a common width w (padding reads
        # coefficient 0 and no entry uses it).  Every (r, m1, m2) with
        # |m1+m2| <= l is an entry: its two flat positions in the (R, 2, w)
        # table of channel mixes and its Clebsch-Gordan value (-1)^(la-lb+m)
        # sqrt(2l+1) (la lb l; m1 m2 -m), m = m1+m2, sorted by (r, m), so
        # each (r, m) segment sums to one output coefficient.  Zero CG
        # values are kept: l <= la+lb leaves no segment empty, as
        # np.add.reduceat needs.
        pairs = [(l, la, lb) for l in self.L_embed for la, lb in self.ctx_pairs[l]]
        w = 2 * max(max(la, lb) for _, la, lb in pairs) + 1
        idx = np.zeros((len(pairs), 2, w), np.int32)
        legs, cg, seg, n = [], [], [], 0
        for r, (l, la, lb) in enumerate(pairs):
            idx[r, 0, :2 * la + 1] = np.arange(la * la, (la + 1) ** 2)
            idx[r, 1, :2 * lb + 1] = np.arange(lb * lb, (lb + 1) ** 2)
            m = np.add.outer(np.arange(-la, la + 1), np.arange(-lb, lb + 1))
            i, j = np.nonzero(np.abs(m) <= l)
            o = np.argsort(m[i, j], kind="stable")
            i, j = i[o], j[o]
            m = m[i, j]
            legs.append(np.stack([2 * r * w + i, (2 * r + 1) * w + j]))
            cg.append(((-1.0) ** (la - lb + m) * math.sqrt(2 * l + 1))
                      * coupling.threej_table(la, lb, l)[i, j])
            seg.append(n + m + l)
            n += 2 * l + 1
        plan = (idx,
                np.concatenate([self.ctx_weights[l] for l in self.L_embed]),
                np.concatenate(legs, axis=1).astype(np.int32),
                np.concatenate(cg),
                np.searchsorted(np.concatenate(seg), np.arange(n)))
        for a in plan:
            a.setflags(write=False)
        self.ctx_plan = plan

    def _build_roster(self):
        rng = np.random.default_rng(
            np.random.SeedSequence([0x9057, self.G, self.n_pairs, self.n_ctx]))
        self.roster = {}
        for ti, t in enumerate(self.trips):
            slots = (np.arange(self.G) + ti) % 3
            pairs = rng.integers(0, self.n_ctx, size=(self.G, self.n_pairs, 2))
            for arr in (slots, pairs):
                arr.setflags(write=False)
            self.roster[t] = (slots, pairs)


@functools.lru_cache(maxsize=None)
def _slice_profiles(n_groups, n_degrees, channels):
    """Per-(group, embed degree) unit channel-mix rows, key independent."""
    rng = np.random.default_rng(
        np.random.SeedSequence([0x51ABE, n_groups, channels]))
    S = rng.standard_normal((n_groups, n_degrees, channels))
    S /= np.linalg.norm(S, axis=2, keepdims=True)
    S.setflags(write=False)
    return S


_feature_bank = functools.lru_cache(maxsize=None)(_FeatureBank)


def _bank(cfg):
    return _feature_bank(cfg.L_embed, cfg.l_max, cfg.channels, cfg.n_groups,
                         cfg.n_contexts, cfg.context_pairs)


def feature_length(cfg=None):
    return _bank(cfg or CodecConfig()).n_features


def _context_rows(bank, data):
    """Per embed degree l, n_ctx unit rows: the (la x lb -> l) coupling of
    channel mixes of two non-embed degree blocks, from the bank's flat
    plan: mix every row's two legs, multiply the entries' legs and CG
    values, and sum each (row, m) segment."""
    idx, wch, legs, cg, starts = bank.ctx_plan
    X = np.einsum("rxc,crxi->rxi", wch, data[:, idx]).ravel()
    p = X.take(legs[0])
    p *= X.take(legs[1])
    p *= cg
    out = np.add.reduceat(p, starts)
    ctx, lo = {}, 0
    for l in bank.L_embed:
        rows = out[lo:lo + bank.n_ctx * (2 * l + 1)].reshape(bank.n_ctx, -1)
        lo += rows.size
        ctx[l] = rows / (np.linalg.norm(rows, axis=1, keepdims=True) + 1e-30)
    return ctx


def _context(bank, data):
    """The part of the features that only the non-embed degrees set: yield
    (ti, l, groups, W) per triplet ti and keyed slot s holding groups,
    l = t[s], where W[x, p] is the context coupling of group groups[x],
    pair p, with the keyed leg free (C^{0,0} is symmetric in its legs, so
    that leg goes first).  Every pair couples two of the n_ctx rows, so
    one GEMM couples all of them and the pairs are gathered from it.
    Lazy, so one W is alive at a time."""
    rows = _context_rows(bank, data)
    for ti, t in enumerate(bank.trips):
        slots, pairs = bank.roster[t]
        for s in range(3):
            g = np.flatnonzero(slots == s)
            if not g.size:
                continue
            o1, o2 = t[:s] + t[s + 1:]
            tp = (t[s], o1, o2)
            M = coupling._projection_table(tp) * coupling._hankel(tp, rows[o2])
            # W[b, i, a]: row a on leg o1, row b on leg o2
            W = (M.reshape(-1, M.shape[-1]) @ rows[o1].T).reshape(M.shape[:2] + (-1,))
            yield ti, t[s], g, W[pairs[g, :, 1], :, pairs[g, :, 0]]


def _mix(bank, data):
    """Per embed degree l, the group channel mixes (..., G, 2l+1) of
    coefficients (..., channels, n_coeffs)."""
    return {l: bank.sw[:, li, :] @ data[..., l * l:(l + 1) * (l + 1)]
            for li, l in enumerate(bank.L_embed)}


def _pure(bank, data):
    """Pure couplings of the group mixes of coefficients data (...,
    channels, n_coeffs): (..., G, len(trips)).  C^{0,0} is trilinear and a
    group mix is linear in the channels, so the channels are coupled once,
    (..., ch, ch, ch) per triplet, and each group applies its three mix
    rows to that."""
    blk = {l: data[..., l * l:(l + 1) * (l + 1)] for l in bank.L_embed}
    sw = {l: bank.sw[:, li, :] for li, l in enumerate(bank.L_embed)}
    out = []
    for t in bank.trips:
        l1, l2, l3 = t
        W = coupling._contract(t, None, blk[l2][..., :, None, :],
                               blk[l3][..., None, :, :])
        # K[..., c2, c3, c1]; only its real part reaches a real mix
        K = (W @ blk[l1][..., None, :, :].swapaxes(-1, -2)).real
        S = np.einsum("gi,gj,gk->gijk", sw[l2], sw[l3], sw[l1]).reshape(bank.G, -1)
        out.append(K.reshape(K.shape[:-3] + (-1,)) @ S.T)
    return np.stack(out, axis=-1)


def _placements(bank, Y, Q):
    """First-order change of the pure couplings of the group mixes Y when
    the batch Q (..., G, 2l+1) is placed on one leg, summed over the three
    legs: (..., G, len(trips)).  C^{0,0} is symmetric in its legs, so the
    placed leg goes first and the other two are contracted once."""
    out = np.zeros(Q[bank.L_embed[0]].shape[:-1] + (len(bank.trips),))
    for ti, t in enumerate(bank.trips):
        for s in range(3):
            o1, o2 = t[:s] + t[s + 1:]
            W = coupling._contract((t[s], o1, o2), None, Y[o1], Y[o2])
            out[..., ti] += np.einsum("...gi,gi->...g", Q[t[s]], W).real
    return out


def _keyed(bank, ctx, Y, pure):
    """Feature vectors (..., n_features) of the group mixes Y, group-major:
    one group's entries are contiguous, its len(trips) pure couplings (given
    as pure, (..., G, len(trips))), then its context couplings of Y."""
    T = len(bank.trips)
    lead = pure.shape[:-2]
    out = np.empty(pure.shape[:-1] + (T * (1 + bank.n_pairs),))
    out[..., :T] = pure
    ctxf = out[..., T:].reshape(pure.shape + (bank.n_pairs,))
    for ti, l, g, W in ctx:
        # one (rows x 2l+1) @ (2l+1 x n_pairs) product per group
        Yg = Y[l][..., g, :].reshape((-1, g.size, 2 * l + 1)).swapaxes(0, 1)
        R = (Yg @ W.swapaxes(-1, -2)).real
        ctxf[..., g, ti, :] = R.swapaxes(0, 1).reshape(lead + (g.size, -1))
    return out.reshape(lead + (-1,))


def features_from_coeffs(c, cfg=None):
    """Features (..., n_features) of sets (..., channels, n_coeffs) sharing
    their non-embed degrees (else ValueError): one context, from the first."""
    cfg = cfg or CodecConfig()
    if isinstance(c, harmonics.ShCoefficients):
        if c.l_max != cfg.l_max:
            raise ValueError("coefficient l_max does not match config")
        data = c.data
    else:
        data = np.atleast_2d(np.asarray(c, complex))
    if data.shape[-2:] != (cfg.channels, harmonics.n_coeffs(cfg.l_max)):
        raise ValueError("coefficient shape %r does not match config" % (data.shape,))
    flat = data.reshape((-1,) + data.shape[-2:])
    if (flat[1:] != flat[0])[..., ~_embed_band_mask(cfg)].any():
        raise ValueError("coefficient sets differ on a non-embed degree")
    bank = _bank(cfg)
    return _keyed(bank, _context(bank, flat[0]), _mix(bank, data), _pure(bank, data))


def compute_features(x, cfg=None):
    """Rotation-invariant detection features of an image."""
    cfg = cfg or CodecConfig()
    c = harmonics.forward_sht(np.asarray(x, float), cfg.l_max)
    return features_from_coeffs(c, cfg)


# ------------------------------------------------------------ side info

@dataclass
class SignatureSet:
    """Non-blind detection side information produced by embed().

    Holds the reference feature vector, per-bit matched-filter directions,
    the cover coefficients (so directions can be re-derived under any
    candidate key), and the realized coefficient change."""
    config: CodecConfig
    alpha: float
    z0: np.ndarray
    directions: np.ndarray
    cover_coeffs: np.ndarray
    delta_coeffs: np.ndarray

    def validate(self):
        cfg = self.config
        F = feature_length(cfg)
        nlm = harmonics.n_coeffs(cfg.l_max)
        if self.z0.shape != (F,) or self.directions.shape != (cfg.k, F):
            raise ValueError("signature arrays do not match configuration")
        if (self.cover_coeffs.shape != (cfg.channels, nlm)
                or self.delta_coeffs.shape != (cfg.channels, nlm)):
            raise ValueError("signature coefficients do not match configuration")
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError("signature strength must be positive")

    def save(self, base):
        base = _strip_sig_suffix(str(base))
        self.validate()
        meta = {
            "format": "sphmark-signature",
            "version": 1,
            "config": config_to_dict(self.config),
            "alpha": self.alpha,
            "feature_length": int(self.z0.size),
        }
        with open(base + ".sig.json", "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(base + ".sig.bin", "wb") as fh:
            fh.write(b"SPHS" + struct.pack("<I", 1))
            for arr in (self.z0, self.directions):
                fh.write(np.ascontiguousarray(arr, "<f8").tobytes())
            for arr in (self.cover_coeffs, self.delta_coeffs):
                fh.write(np.ascontiguousarray(arr, "<c16").tobytes())

    @classmethod
    def load(cls, base):
        base = _strip_sig_suffix(str(base))
        js, bn = base + ".sig.json", base + ".sig.bin"
        try:
            with open(js) as fh:
                meta = json.load(fh)  # a syntax error is a ValueError
            if (not isinstance(meta, dict) or meta.get("format") != "sphmark-signature"
                    or meta.get("version") != 1):
                raise ValueError("not a recognized signature file")
            cfg = config_from_dict(meta["config"])
            alpha, F = float(meta["alpha"]), int(meta["feature_length"])
        except KeyError as e:
            raise ValueError("%s: missing field %s" % (js, e))
        except (TypeError, ValueError) as e:
            raise ValueError("%s: %s" % (js, e))
        with open(bn, "rb") as fh:
            raw = fh.read()
        if raw[:8] != b"SPHS" + struct.pack("<I", 1):
            raise ValueError("%s: signature binary header mismatch" % bn)
        nlm = harmonics.n_coeffs(cfg.l_max)
        counts = [F, cfg.k * F, cfg.channels * nlm * 2, cfg.channels * nlm * 2]
        if len(raw) != 8 + 8 * sum(counts):
            raise ValueError("%s: signature binary is truncated or oversized" % bn)
        vals = np.frombuffer(raw, "<f8", offset=8).copy()
        z0, dflat, cov, dlt = np.split(vals, np.cumsum(counts)[:-1])
        sig = cls(cfg, alpha, z0, dflat.reshape(cfg.k, F),
                  *(a.view("<c16").reshape(cfg.channels, nlm) for a in (cov, dlt)))
        try:
            sig.validate()
        except ValueError as e:
            raise ValueError("%s: %s" % (js, e))
        return sig


def _strip_sig_suffix(base):
    for suf in (".sig.json", ".sig.bin", ".sig"):
        if base.endswith(suf):
            return base[:-len(suf)]
    return base


def _embed_strength(data, cfg):
    """Payload strength alpha * (cover RMS on the embed degrees).

    A zero RMS (a flat cover, or one with only odd degrees) would give a
    zero strength and so a stego with no payload: ValueError instead."""
    rms = coefficient_rms(data, cfg.L_embed)
    if rms < 1e-9:
        raise ValueError("cover has no energy on the embed degrees %s (RMS "
                         "%.3g); nothing to scale the payload to"
                         % (", ".join(map(str, cfg.L_embed)), rms))
    return cfg.alpha * rms


def make_signature(cover_coeffs, key, cfg, alpha=None):
    """Signature for given cover coefficients under a candidate key."""
    cfg = cfg or CodecConfig()
    data = np.atleast_2d(np.asarray(cover_coeffs, complex))
    bank = _bank(cfg)
    P = generate_patterns(key, cfg)
    a = alpha if alpha is not None else _embed_strength(data, cfg)
    aP = a * P
    Y, Q = _mix(bank, data), _mix(bank, aP)
    # Row 0 is z0 = f(c), row 1 + k is d_k = f(c + aP_k) - f(c - aP_k).
    # The patterns live on the embed degrees only, so every row sees the
    # cover's context, and the context couplings are linear in the keyed
    # mix: their part of d_k is f_ctx(2aP_k).  The pure couplings are
    # trilinear, so theirs is exactly 2 (three first-order placements of
    # Q_k) + 2 f_pure(Q_k), with no difference of near-equal terms.
    pure = np.concatenate([_pure(bank, data)[None],
                           2.0 * (_placements(bank, Y, Q) + _pure(bank, aP))])
    X = {l: np.concatenate([Y[l][None], 2.0 * Q[l]]) for l in Y}
    del Q  # X replaces it: hold the ~1 MB batch once
    f = _keyed(bank, _context(bank, data), X, pure)
    return f[0], f[1:], a


# ------------------------------------------------------------ embed/extract

def embedding_mask(x, cfg=None):
    """Perceptual embedding mask in [mask floor context, 1], shape (H, W)."""
    cfg = cfg or CodecConfig()
    x = np.asarray(x, float)
    H = x.shape[0]
    M = np.ones((H, 2 * H))
    if cfg.use_geometric_mask:
        M = M * grid.geometric_mask(H)[:, None]
    if cfg.use_texture_mask:
        M = M * grid.texture_mask(x, cfg.mask_floor)
    return M


def _embed_band_mask(cfg):
    emb = np.zeros(harmonics.n_coeffs(cfg.l_max), bool)
    for l in cfg.L_embed:
        emb[l * l:(l + 1) * (l + 1)] = True
    return emb


def embed(cover, payload_bits, key, cfg=None):
    """Embed k payload bits; returns (stego image, SignatureSet).

    The requested coefficient change is confined to the embed degrees.
    The spatial change is shaped by the perceptual/geometric mask, and a
    fixed-point correction loop re-solves for the masked pattern whose
    projection onto the embed degrees matches the target, so masking does
    not erode the payload.  Pixels are clamped to [0, 1] at the end."""
    cfg = cfg or CodecConfig()
    x = np.asarray(cover, float)
    H = grid.check_image(x)[0]
    if H < 4 * cfg.l_max:
        # below it the transform is not exact and rotations break decoding
        raise ValueError("image height H=%d is below the minimum height "
                         "4*l_max=%d for l_max=%d" % (H, 4 * cfg.l_max, cfg.l_max))
    bits = np.asarray(payload_bits)
    if bits.shape != (cfg.k,) or not np.isin(bits, (0, 1)).all():
        raise ValueError("payload must be %d bits of 0/1" % cfg.k)
    c = harmonics.forward_sht(x, cfg.l_max)
    if c.channels != cfg.channels:
        raise ValueError("image has %d channel(s), config wants %d"
                         % (c.channels, cfg.channels))
    a = _embed_strength(c.data, cfg)
    P = generate_patterns(key, cfg)
    target = a * np.einsum("k,kcn->cn", 2.0 * bits - 1.0, P)
    M = embedding_mask(x, cfg)
    Mb = M if x.ndim == 2 else M[..., None]
    mbar = float(M.mean())
    emb = _embed_band_mask(cfg)
    dc = target / mbar
    iters = cfg.compensation_iterations if cfg.mask_compensation else 0
    for _ in range(iters):
        dx = harmonics.inverse_sht(
            harmonics.ShCoefficients(dc, cfg.l_max, real=True), H)
        realized = harmonics.forward_sht(Mb * dx, cfg.l_max).data
        dc = dc + np.where(emb[None, :], target - realized, 0.0) / mbar
    dx = harmonics.inverse_sht(
        harmonics.ShCoefficients(dc, cfg.l_max, real=True), H)
    stego = np.clip(x + Mb * dx, 0.0, 1.0)

    c_after = harmonics.forward_sht(stego, cfg.l_max)
    delta = c_after.data - c.data
    got = np.where(emb[None, :], delta, 0.0)
    want = np.where(emb[None, :], target, 0.0)
    short = np.linalg.norm(got - want) / np.linalg.norm(want)
    if short > 0.10:
        warnings.warn(
            "mask/clamp removed %.0f%% of the payload energy; consider a "
            "larger alpha or a weaker mask" % (100.0 * short),
            EmbeddingStrengthWarning, stacklevel=2)

    z0, d, _ = make_signature(c.data, key, cfg, alpha=a)
    side = SignatureSet(cfg, a, z0, d, c.data.copy(), delta)
    return stego, side


def embed_coefficients(c, payload_bits, key, cfg=None):
    """Coefficient-domain embed (no mask, no clamp) of payloads (..., k):
    c + alpha * sum bits, as ShCoefficients if c is one and bits are 1-D."""
    cfg = cfg or CodecConfig()
    bits = np.asarray(payload_bits)
    if bits.shape[-1:] != (cfg.k,) or not np.isin(bits, (0, 1)).all():
        raise ValueError("payload must be %d bits of 0/1" % cfg.k)
    wrap = isinstance(c, harmonics.ShCoefficients)
    data = c.data if wrap else np.atleast_2d(np.asarray(c, complex))
    P = generate_patterns(key, cfg)
    a = _embed_strength(data, cfg)
    out = data + a * np.einsum("...k,kcn->...cn", 2.0 * bits - 1.0, P)
    if wrap and out.ndim == 2:
        return harmonics.ShCoefficients(out, cfg.l_max, real=c.real)
    return out


def extract_nonblind(y, side, key=None):
    """Decode bits from an image given its SignatureSet.

    Per-bit statistic is the matched-filter response
    (z - z0) . d_k / |d_k|^2, which is near +-0.5 for a clean embed at
    the recorded strength.  Passing a key re-derives the directions from
    the stored cover coefficients under that key (a wrong key yields
    near-zero statistics and chance-level bits)."""
    side.validate()
    cfg = side.config
    c = harmonics.forward_sht(np.asarray(y, float), cfg.l_max)
    if c.channels != cfg.channels:
        raise ValueError("image channels do not match the signature")
    z = features_from_coeffs(c, cfg)
    if key is None:
        z0, d = side.z0, side.directions
    else:
        z0, d, _ = make_signature(side.cover_coeffs, key, cfg, alpha=side.alpha)
    dn = np.sum(d * d, axis=1)
    if (dn < 1e-30).any():
        raise ValueError("degenerate detection directions in signature")
    stats = (z - z0) @ d.T / dn
    bits = (stats > 0).astype(np.int64)
    return bits, stats

