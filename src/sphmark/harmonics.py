"""Spherical-harmonic analysis/synthesis on ERP grids.

Complex orthonormal basis with the Condon-Shortley phase:
Y_l^m(theta, phi) = Pbar_l^m(cos theta) e^{i m phi} / sqrt(2 pi),
Y_l^{-m} = (-1)^m conj(Y_l^m).  Coefficients are stored as banded blocks
c_l of length 2l+1 per channel; real signals satisfy
c_l^{-m} = (-1)^m conj(c_l^m).

The transform is a direct quadrature sum over the grid (separable in
longitude/latitude), exact to machine precision for band-limited signals
when H >= 4*l_max.
"""

import functools
import json
import struct

import numpy as np

from . import grid

__all__ = [
    "SymmetryError", "ShCoefficients",
    "assoc_legendre_normalized", "sh_eval",
    "forward_sht", "inverse_sht",
    "power_spectrum", "apply_band_profile", "low_pass",
    "synth_random_bandlimited", "make_cover",
    "save_coefficients", "load_coefficients", "coefficients_debug_dict",
]


class SymmetryError(ArithmeticError):
    """Conjugate-symmetry / realness contract violated beyond tolerance."""


def n_coeffs(l_max):
    return (l_max + 1) * (l_max + 1)


def coeff_index(l, m):
    # flat banded index: block l occupies [l^2, (l+1)^2), m counted from -l
    return l * l + l + m


def conj_flip(blk):
    """(-1)^m conj(c^{-m}) for every m, along the last axis of degree blocks.

    A block is conjugate symmetric (its synthesis real) iff it equals its
    flip; copying the flip's m < 0 half completes a block from m >= 0."""
    l = blk.shape[-1] // 2
    return (-1.0) ** np.arange(-l, l + 1) * np.conj(blk[..., ::-1])


def _legendre_table(l_max, x):
    """dict[(l,m)] -> Pbar_l^m(x); orthonormal, CS phase folded in."""
    x = np.asarray(x, float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    P = {(0, 0): np.full_like(x, 1.0 / np.sqrt(2.0))}
    for m in range(1, l_max + 1):
        # diagonal seed carries (-1)^m
        P[(m, m)] = -np.sqrt((2 * m + 1) / (2.0 * m)) * s * P[(m - 1, m - 1)]
    for m in range(0, l_max + 1):
        if m + 1 <= l_max:
            a = np.sqrt((4 * (m + 1) ** 2 - 1.0) / ((m + 1) ** 2 - m ** 2))
            P[(m + 1, m)] = a * x * P[(m, m)]
        for l in range(m + 2, l_max + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m))
                        / ((2.0 * l - 3.0) * (l * l - m * m)))
            P[(l, m)] = a * x * P[(l - 1, m)] - b * P[(l - 2, m)]
    return P


def assoc_legendre_normalized(l, m, x):
    """Orthonormal-convention Pbar_l^m(x), stable three-term recurrence.

    Normalized so that int_{-1}^{1} Pbar_l^m(x)^2 dx = 1 and
    Y_l^m = Pbar_l^m(cos theta) e^{im phi}/sqrt(2 pi) is L2-orthonormal.
    """
    if not (0 <= m <= l):
        raise ValueError("need 0 <= m <= l, got l=%d m=%d" % (l, m))
    xa = np.asarray(x, float)
    if np.any(np.abs(xa) > 1.0 + 1e-14):
        raise ValueError("argument outside [-1, 1]")
    out = _legendre_table(l, np.clip(xa, -1.0, 1.0))[(l, m)]
    return float(out) if np.isscalar(x) else out


def sh_eval(l, m, theta, phi):
    """Complex orthonormal Y_l^m at (theta, phi); m may be negative."""
    if abs(m) > l:
        raise ValueError("|m| must be <= l")
    am = abs(m)
    P = assoc_legendre_normalized(l, am, np.cos(theta))
    val = P * np.exp(1j * am * np.asarray(phi)) / np.sqrt(2.0 * np.pi)
    if m < 0:
        val = (-1) ** am * np.conj(val)
    return val


# ------------------------------------------------------------ coefficients

class ShCoefficients:
    """Banded complex SH coefficients, shape (channels, (l_max+1)^2).

    block(l) returns the (channels, 2l+1) view for degree l with m
    ascending from -l.  The real flag marks signals whose synthesis is
    real-valued; conjugate symmetry is then a maintained invariant.
    """

    __slots__ = ("data", "l_max", "real")

    def __init__(self, data, l_max, real=False):
        data = np.asarray(data, complex)
        if data.ndim == 1:
            data = data[None, :]
        if data.ndim != 2 or data.shape[1] != n_coeffs(l_max):
            raise ValueError("coefficient array shape %r does not match l_max=%d"
                             % (data.shape, l_max))
        if data.shape[0] not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        self.data = data
        self.l_max = l_max
        self.real = bool(real)

    @property
    def channels(self):
        return self.data.shape[0]

    @classmethod
    def zeros(cls, l_max, channels=1, real=True):
        return cls(np.zeros((channels, n_coeffs(l_max)), complex), l_max, real)

    def block(self, l, channel=None):
        if not (0 <= l <= self.l_max):
            raise ValueError("degree out of range")
        b = self.data[:, l * l:(l + 1) * (l + 1)]
        return b if channel is None else b[channel]

    def copy(self):
        return ShCoefficients(self.data.copy(), self.l_max, self.real)

    def symmetry_deviation(self):
        """max |c_l^{-m} - (-1)^m conj(c_l^m)| over all blocks."""
        blocks = (self.block(l) for l in range(self.l_max + 1))
        return max(float(np.abs(b - conj_flip(b)).max()) for b in blocks)

    def assert_symmetry(self, tol=1e-9):
        dev = self.symmetry_deviation()
        if dev > tol:
            raise SymmetryError("conjugate symmetry violated: %.3e > %.3e" % (dev, tol))


# ------------------------------------------------------------ transform plan

class _Plan:
    def __init__(self, H, l_max):
        W = 2 * H
        theta, phi = grid.grid_angles(H)
        self.H, self.W, self.l_max = H, W, l_max
        self.wrow = grid.quadrature_weights(H)
        tab = _legendre_table(l_max, np.cos(theta))
        # per |m|: matrix (l_max+1-m, H) of Pbar_l^m over rows
        self.P = tuple(np.array([tab[(l, m)] for l in range(m, l_max + 1)])
                       for m in range(l_max + 1))
        self.E = np.exp(1j * np.outer(phi, np.arange(-l_max, l_max + 1)))  # (W, 2l+1)
        for arr in (self.wrow, self.E) + self.P:
            arr.setflags(write=False)


# keyed by the image height, so bounded
_plan = functools.lru_cache(maxsize=8)(_Plan)


def forward_sht(x, l_max):
    """Quadrature analysis: c_l^m = sum_pixels w * x * conj(Y_l^m)."""
    H, W, ch = grid.check_image(x)
    if H < 2:
        raise ValueError("H must be >= 2")
    p = _plan(H, l_max)
    f = x if x.ndim == 3 else x[:, :, None]
    out = np.zeros((f.shape[2], n_coeffs(l_max)), complex)
    pref = 1.0 / np.sqrt(2.0 * np.pi)
    for c in range(f.shape[2]):
        # longitude first: F[:, n] = sum_col x e^{-i n phi}; the 2pi/W
        # longitude measure is already folded into the row weights
        F = f[:, :, c] @ np.conj(p.E)
        for m in range(l_max + 1):
            ls = np.arange(m, l_max + 1)
            col = F[:, m + l_max] * p.wrow
            vals = pref * (p.P[m] @ col)
            out[c, ls * ls + ls + m] = vals
            if m > 0:
                coln = F[:, -m + l_max] * p.wrow
                out[c, ls * ls + ls - m] = ((-1) ** m) * pref * (p.P[m] @ coln)
    return ShCoefficients(out, l_max, real=True)


def inverse_sht(c, H):
    """Synthesis f = sum c_l^m Y_l^m at pixel centers; unclamped real field.

    For real-flagged coefficients the imaginary residue must stay below
    1e-7 or a SymmetryError is raised; the residue is then discarded.
    """
    if H < 2:
        raise ValueError("H must be >= 2")
    p = _plan(H, c.l_max)
    l_max = c.l_max
    pref = 1.0 / np.sqrt(2.0 * np.pi)
    fields = []
    for ci in range(c.channels):
        G = np.zeros((H, 2 * l_max + 1), complex)
        for m in range(l_max + 1):
            ls = np.arange(m, l_max + 1)
            G[:, m + l_max] += c.data[ci, ls * ls + ls + m] @ p.P[m]
            if m > 0:
                # Y_l^{-m} = (-1)^m conj(Y_l^m): same Pbar, mirrored phase
                G[:, -m + l_max] += ((-1) ** m) * (c.data[ci, ls * ls + ls - m] @ p.P[m])
        f = pref * (G @ p.E.T)
        if c.real:
            resid = float(np.abs(f.imag).max())
            if resid >= 1e-7:
                raise SymmetryError("imaginary residue %.3e in real-flagged synthesis"
                                    % resid)
            f = f.real
        fields.append(f)
    out = np.stack(fields, axis=2)
    return out[:, :, 0] if c.channels == 1 else out


# ------------------------------------------------------------ spectral utils

def power_spectrum(c):
    """P(l) = sum_m |c_l^m|^2, summed over channels."""
    out = np.empty(c.l_max + 1)
    for l in range(c.l_max + 1):
        out[l] = float(np.sum(np.abs(c.block(l)) ** 2))
    return out


def apply_band_profile(c, g):
    """Scale every degree block by g[l]; real flag preserved."""
    g = np.asarray(g, float)
    if g.shape != (c.l_max + 1,):
        raise ValueError("profile must have one entry per degree 0..l_max")
    if not np.isfinite(g).all():
        raise ValueError("profile must be finite")
    out = c.copy()
    for l in range(c.l_max + 1):
        out.data[:, l * l:(l + 1) * (l + 1)] *= g[l]
    return out


def low_pass(c, l_c):
    if not (0 <= l_c <= c.l_max):
        raise ValueError("cutoff out of range")
    out = c.copy()
    out.data[:, (l_c + 1) * (l_c + 1):] = 0.0
    return out


def synth_random_bandlimited(l_max, seed, decay=1.5):
    """Random real-signal coefficients, per-coefficient std (1+l)^-decay."""
    if decay <= 0:
        raise ValueError("decay must be positive")
    rng = np.random.default_rng(seed)
    return ShCoefficients(_random_symmetric(rng, l_max, decay), l_max, real=True)


def _random_symmetric(rng, l_max, decay):
    c = np.zeros(n_coeffs(l_max), complex)
    for l in range(l_max + 1):
        s = (1.0 + l) ** (-decay)
        # one draw per block: m = 0, then (re, im) pairs for m = 1..l
        z = rng.standard_normal(2 * l + 1)
        blk = c[l * l:(l + 1) * (l + 1)]
        blk[l] = z[0] * s
        blk.real[l + 1:] = z[1::2] * (s / np.sqrt(2.0))
        blk.imag[l + 1:] = z[2::2] * (s / np.sqrt(2.0))
        blk[:l] = conj_flip(blk)[:l]
    return c


def make_cover(seed, H=64, l_max=16, img_std=0.24, decay=1.5):
    """Bundled natural-like synthetic cover: 3-channel ERP image in [0,1].

    Band-limited random field per channel, normalized to mean 0.5 and the
    requested per-channel std, then clipped.  Deterministic in seed.
    """
    rng = np.random.default_rng(seed)
    data = np.stack([_random_symmetric(rng, l_max, decay) for _ in range(3)])
    img = inverse_sht(ShCoefficients(data, l_max, real=True), H)
    img = 0.5 + (img - img.mean(axis=(0, 1))) * (img_std / img.std(axis=(0, 1)))
    return np.clip(img, 0.0, 1.0)


# ------------------------------------------------------------ serialization

_MAGIC = b"SPHC"
_VERSION = 1


def save_coefficients(c, path):
    """Little-endian binary: header + <c16 (re, im) pairs, channel/l/m ascending."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III B", _VERSION, c.l_max, c.channels, int(c.real)))
        fh.write(np.ascontiguousarray(c.data, "<c16").tobytes())


def load_coefficients(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValueError("%s: bad magic, not a coefficient file" % path)
    if len(raw) < 17:
        raise ValueError("%s: truncated header" % path)
    version, l_max, channels, real = struct.unpack_from("<III B", raw, 4)
    if version != _VERSION:
        raise ValueError("%s: unsupported version %d" % (path, version))
    n = channels * n_coeffs(l_max)
    if len(raw) != 17 + 16 * n:
        raise ValueError("%s: truncated or oversized payload" % path)
    data = np.frombuffer(raw, "<c16", offset=17).reshape(channels, n_coeffs(l_max))
    return ShCoefficients(data.copy(), l_max, real=bool(real))


def coefficients_debug_dict(c):
    """JSON-ready debug dump (exact values as [re, im] pairs)."""
    blocks = {}
    for l in range(c.l_max + 1):
        b = c.block(l)
        blocks[str(l)] = [[[v.real, v.imag] for v in row] for row in b]
    return {"l_max": c.l_max, "channels": c.channels, "real": c.real,
            "blocks": blocks}


def dump_coefficients_json(c, path):
    with open(path, "w") as fh:
        json.dump(coefficients_debug_dict(c), fh, sort_keys=True)
