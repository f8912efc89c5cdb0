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

import numpy as np

from . import grid

__all__ = [
    "SymmetryError", "ShCoefficients",
    "forward_sht", "inverse_sht",
    "power_spectrum", "apply_band_profile", "low_pass",
    "synth_random_bandlimited", "make_cover",
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


def symmetry_deviation(data):
    """max |c_l^{-m} - (-1)^m conj(c_l^m)| over coefficient sets (...,
    n_coeffs); NaN if any entry is NaN."""
    k = np.arange(data.shape[-1])
    l = np.sqrt(k).astype(int)
    m = k - l * l - l
    flip = (-1.0) ** m * np.conj(data[..., 2 * (l * l + l) - k])
    return float(np.max(np.abs(data - flip)))


def _legendre_table(l_max, x):
    """dict[(l,m)] -> Pbar_l^m(x), 0 <= m <= l <= l_max, by the stable
    three-term recurrence; unit norm on [-1, 1], CS phase folded in."""
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
    def zeros(cls, l_max, channels=1):
        return cls(np.zeros((channels, n_coeffs(l_max)), complex), l_max, real=True)

    def block(self, l):
        if not (0 <= l <= self.l_max):
            raise ValueError("degree out of range")
        return self.data[:, l * l:(l + 1) * (l + 1)]

    def copy(self):
        return ShCoefficients(self.data.copy(), self.l_max, self.real)

    def symmetry_deviation(self):
        """max |c_l^{-m} - (-1)^m conj(c_l^m)| over all blocks."""
        return symmetry_deviation(self.data)

    def assert_symmetry(self):
        dev = self.symmetry_deviation()
        if not dev <= 1e-9:  # NaN fails too
            raise SymmetryError("conjugate symmetry violated: %.3e > 1.000e-09" % dev)


# ------------------------------------------------------------ transform plan

class _Plan:
    """Tables of the separable transform on an H-row grid, m = 0..l_max.

    Pa[m, l, row] is Pbar_l^m at the row colatitudes times the row
    quadrature weight and 1/sqrt(2 pi) (analysis), Ps[m, l, row] the same
    without the weight (synthesis); both are zero where l < m.  CS is the
    real longitude matrix [cos(m phi) | sin(m phi)], (W, 2(l_max+1)).
    (ms, ls) list the banded pairs l >= m; pos and neg are the flat indices
    of (l, m) and (l, -m), sign is (-1)^m."""

    def __init__(self, H, l_max):
        theta, phi = grid.grid_angles(H)
        self.Ps = np.zeros((l_max + 1, l_max + 1, H))
        for (l, m), v in _legendre_table(l_max, np.cos(theta)).items():
            self.Ps[m, l] = v / np.sqrt(2.0 * np.pi)
        self.Pa = self.Ps * grid.quadrature_weights(H)
        self.ms, self.ls = np.triu_indices(l_max + 1)
        mphi = np.outer(phi, np.arange(l_max + 1))
        self.CS = np.concatenate([np.cos(mphi), np.sin(mphi)], axis=1)
        self.pos = self.ls * self.ls + self.ls + self.ms
        self.neg = self.ls * self.ls + self.ls - self.ms
        self.sign = (-1.0) ** self.ms
        for arr in (self.ms, self.ls, self.Ps, self.Pa, self.CS, self.pos,
                    self.neg, self.sign):
            arr.setflags(write=False)


# keyed by the image height, so bounded
_plan = functools.lru_cache(maxsize=8)(_Plan)


# a non-finite sample or an overflow is refused with a ValueError below, so
# numpy's warnings about them would only precede that error
@np.errstate(over="ignore", invalid="ignore")
def forward_sht(x, l_max):
    """Quadrature analysis: c_l^m = sum_pixels w * x * conj(Y_l^m).

    x is a real raster, so only m >= 0 is computed; the m < 0 half is its
    conjugate mirror c_l^{-m} = (-1)^m conj(c_l^m), and the result is
    flagged real.  A raster with a non-finite sample, or with a row whose
    sum overflows, is refused (ValueError)."""
    x = np.asarray(x)
    H, W, ch = grid._check_shape(x)
    if H < 2:
        raise ValueError("H must be >= 2")
    p = _plan(H, l_max)
    L1 = l_max + 1
    f = x if x.ndim == 3 else x[:, :, None]
    # longitude, one GEMM per block of rows copied to (rows*ch, W) in one
    # reused buffer: A[h, c] = [sum_col x cos(m phi) | sum_col x sin(m phi)];
    # the 2pi/W longitude measure is already in the row weights
    A = np.empty((H, ch, 2 * L1))
    buf = None
    for s in grid.row_blocks(H, W):
        n = s.stop - s.start
        if buf is None:
            buf = np.empty((n, ch, W))
        blk = buf[:n]
        blk[...] = f[s].transpose(0, 2, 1)
        np.matmul(blk.reshape(n * ch, W), p.CS, out=A[s].reshape(n * ch, 2 * L1))
    # cos(0 phi) = 1, so the m = 0 cosine column holds the row sums: a NaN
    # or an infinity anywhere in a row makes its sum non-finite
    if not np.isfinite(A[:, :, 0]).all():
        raise ValueError("image contains non-finite samples, or a row whose "
                         "sum overflows")
    # latitude, one matmul per m: B[m, h] = (Re, -Im) of the row transform
    B = A.reshape(H, ch, 2, L1).transpose(3, 0, 2, 1).reshape(L1, H, 2 * ch)
    C = p.Pa @ B
    cm = C[p.ms, p.ls, :ch] - 1j * C[p.ms, p.ls, ch:]
    out = np.empty((ch, n_coeffs(l_max)), complex)
    out[:, p.neg] = p.sign * np.conj(cm).T
    out[:, p.pos] = cm.T
    return ShCoefficients(out, l_max, real=True)


def _check_synthesis(f):
    """Refuse a synthesized field with a non-finite sample: finite
    coefficients large enough to overflow (ValueError)."""
    # max and min propagate NaN and reach +-inf, with no raster temporary
    if not (np.isfinite(f.max()) and np.isfinite(f.min())):
        raise ValueError("synthesis overflows: the coefficients are too "
                         "large for a finite field")


def _field_rows(p, U):
    """Per block of rows s, the synthesized rows U[s] @ CS.T as an (n, ch,
    W) view of one reused buffer, U (H, ch, 2 L1) holding each row's
    [cos | sin] longitude coefficients: one (n*ch, 2 L1) x (2 L1, W) GEMM
    per block."""
    H, ch, K = U.shape
    W = p.CS.shape[0]
    buf = None
    for s in grid.row_blocks(H, W):
        n = s.stop - s.start
        if buf is None:
            buf = np.empty((n * ch, W))
        blk = buf[:n * ch]
        np.matmul(U[s].reshape(n * ch, K), p.CS.T, out=blk)
        yield s, blk.reshape(n, ch, W)


def _latitude(p, cos, sin):
    """U (H, ch, 2 L1): row h's [cos | sin] longitude coefficients of each
    channel, from the per-m coefficient columns cos and sin (L1, L1, ch)
    by one matmul per m."""
    L1, _, ch = cos.shape
    G = p.Ps.transpose(0, 2, 1) @ np.concatenate([cos, sin], axis=2)
    return G.reshape(L1, -1, 2, ch).transpose(1, 3, 2, 0).reshape(-1, ch, 2 * L1)


def _synthesize(p, U):
    """The field (H, W, ch) of _field_rows."""
    out = np.empty((U.shape[0], p.CS.shape[0], U.shape[1]))
    for s, f in _field_rows(p, U):
        out[s] = f.transpose(0, 2, 1)
    return out


@np.errstate(over="ignore", invalid="ignore")
def inverse_sht(c, H):
    """Synthesis f = sum c_l^m Y_l^m at pixel centers; unclamped field.

    For real-flagged coefficients the imaginary residue must stay below
    1e-7 or a SymmetryError is raised; the residue is then discarded and
    the field is real.  Otherwise the complex field is returned.
    Non-finite coefficients, and finite ones whose field overflows, are
    refused (ValueError).  The imaginary part is synthesized only when
    its inputs are not exactly zero; for an exactly conjugate-symmetric
    set, such as forward_sht returns, they are, and that part would be
    exactly 0.
    """
    if H < 2:
        raise ValueError("H must be >= 2")
    if not np.isfinite(c.data).all():
        raise ValueError("coefficients contain non-finite values")
    p = _plan(H, c.l_max)
    L1, ch = c.l_max + 1, c.channels
    # per m >= 0: a = coefficients of Y^m, b = those of Y^{-m} times (-1)^m,
    # so that f = sum_m a P e^{im phi} + b P e^{-im phi}
    # = sum_m (a+b) P cos(m phi) + i (a-b) P sin(m phi)
    a = np.zeros((L1, L1, ch), complex)
    b = np.zeros((L1, L1, ch), complex)
    a[p.ms, p.ls] = c.data[:, p.pos].T
    b[p.ms, p.ls] = (p.sign * c.data[:, p.neg]).T
    b[0] = 0.0  # m = 0 is one term, already in a
    s, d = a + b, a - b
    d[0] = 0.0  # it multiplies sin(0 phi) = 0
    # Re f = [Re s | -Im d] @ CS.T and Im f = [Im s | Re d] @ CS.T
    U_im = _latitude(p, s.imag, d.real) if s.imag.any() or d.real.any() else None
    if c.real and U_im is not None:
        # np.max, not max(): a NaN in any block must reach the result
        resid = float(np.max([np.abs(f, out=f).max()
                              for _, f in _field_rows(p, U_im)]))
        if not resid < 1e-7:  # NaN fails too
            raise SymmetryError("imaginary residue %.3e in real-flagged "
                                "synthesis" % resid)
    out = _synthesize(p, _latitude(p, s.real, -d.imag))
    _check_synthesis(out)
    if not c.real:
        out = out.astype(complex)
        if U_im is not None:
            im = _synthesize(p, U_im)
            _check_synthesis(im)
            out.imag = im
    return out[:, :, 0] if ch == 1 else out


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


def synth_random_bandlimited(l_max, seed):
    """Random real-signal coefficients, per-coefficient std (1+l)^-1.5."""
    rng = np.random.default_rng(seed)
    return ShCoefficients(_random_symmetric(rng, l_max, 1.5), l_max, real=True)


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


def make_cover(seed, H=64, l_max=16, img_std=0.24):
    """Bundled natural-like synthetic cover: 3-channel ERP image in [0,1].

    Band-limited random field per channel, normalized to mean 0.5 and the
    requested per-channel std, then clipped.  Deterministic in seed.
    """
    rng = np.random.default_rng(seed)
    data = np.stack([_random_symmetric(rng, l_max, 1.5) for _ in range(3)])
    img = inverse_sht(ShCoefficients(data, l_max, real=True), H)
    img = 0.5 + (img - img.mean(axis=(0, 1))) * (img_std / img.std(axis=(0, 1)))
    return np.clip(img, 0.0, 1.0)

