"""Equirectangular (ERP) sampling geometry.

Pixel <-> direction maps, solid-angle quadrature, masks, bilinear
resampling, and binary PPM I/O.  An ERP image is a plain ndarray of
shape (H, 2H) or (H, 2H, 3) with float samples in [0, 1]; row 0 is the
north-pole row, theta grows downward, phi grows with the column index.
"""

import functools
import math

import numpy as np

__all__ = [
    "grid_angles", "grid_directions",
    "quadrature_weights", "geometric_mask", "texture_mask",
    "sample_bilinear", "resample", "read_ppm", "write_ppm",
    "check_image",
]


def _check_shape(x):
    """(H, W, channels) of an ERP-shaped array; ValueError otherwise."""
    if x.ndim == 2:
        H, W = x.shape
        ch = 1
    elif x.ndim == 3 and x.shape[2] in (1, 3):
        H, W, ch = x.shape
    else:
        raise ValueError("expected (H, 2H) or (H, 2H, {1|3}) array, got %r" % (x.shape,))
    if W != 2 * H:
        raise ValueError("ERP width must be 2*height, got %dx%d" % (H, W))
    return H, W, ch


def check_image(x):
    """Validate ERP shape/range conventions; returns (H, W, channels)."""
    x = np.asarray(x)
    H, W, ch = _check_shape(x)
    if not np.isfinite(x).all():
        raise ValueError("image contains non-finite samples")
    return H, W, ch


def grid_angles(H):
    """Per-row theta (H,) and per-column phi (2H,) at pixel centers:
    theta = pi (row + 1/2) / H, phi = 2 pi (col + 1/2) / (2H)."""
    theta = np.pi * (np.arange(H) + 0.5) / H
    phi = 2.0 * np.pi * (np.arange(2 * H) + 0.5) / (2 * H)
    return theta, phi


@functools.lru_cache(maxsize=8)
def _grid_trig(H):
    """Read-only sin and cos of grid_angles(H): (sin theta, cos theta,
    cos phi, sin phi)."""
    theta, phi = grid_angles(H)
    trig = np.sin(theta), np.cos(theta), np.cos(phi), np.sin(phi)
    for a in trig:
        a.setflags(write=False)
    return trig


def grid_directions(H, rows=slice(None), out=None):
    """Unit vectors (H, 2H, 3) of all pixel centers, or of the row slice
    ``rows``, written to out when given; z is the polar axis."""
    st, ct, cp, sp = _grid_trig(H)
    st, ct = st[rows], ct[rows]
    d = np.empty((len(st), 2 * H, 3)) if out is None else out
    d[:, :, 0] = st[:, None] * cp
    d[:, :, 1] = st[:, None] * sp
    d[:, :, 2] = ct[:, None]
    return d


# keyed by the image height, so bounded
@functools.lru_cache(maxsize=8)
def quadrature_weights(H):
    """Per-row pixel weight for the S^2 integral; Sum over all pixels = 4pi exactly.

    Fejer-1 row weights at the pixel-center colatitudes, scaled by the
    longitude step.  Unlike per-cell area differences these integrate every
    band-limited product up to the grid's Nyquist degree to machine
    precision, which the transform contracts (orthonormality, Parseval,
    round trip) rely on.  Positive for every row.
    """
    if H < 2:
        raise ValueError("H must be >= 2")
    theta = np.pi * (2 * np.arange(H) + 1) / (2 * H)
    w = np.ones(H)
    for m in range(1, H // 2 + 1):
        w -= 2.0 * np.cos(2 * m * theta) / (4 * m * m - 1)
    w *= 2.0 / H                     # sum_i w_i = 2 = int_{-1}^{1} dcos
    w *= 2.0 * np.pi / (2 * H)
    w.setflags(write=False)
    return w


def geometric_mask(H):
    """Per-row sin(theta_i): suppresses strength near the poles, ~1 at the equator."""
    theta, _ = grid_angles(H)
    return np.sin(theta)


def texture_mask(x, strength_floor=0.25):
    """Gradient-magnitude mask in [strength_floor, 1].

    Central differences with longitudinal wrap and latitudinal clamp,
    magnitude averaged over channels, squashed by 1 - exp(-g/0.08) so flat
    regions sit at the floor and textured regions approach 1.
    """
    H, W, ch = check_image(x)
    if not (0.0 <= strength_floor <= 1.0):
        raise ValueError("strength_floor must be in [0, 1]")
    f = x if x.ndim == 3 else x[:, :, None]
    # d/drow: clamp at poles (one-sided at the boundary rows)
    up = np.vstack([f[:1], f[:-1]])
    dn = np.vstack([f[1:], f[-1:]])
    gr = 0.5 * (dn - up)
    # d/dcol: periodic
    gc = 0.5 * (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1))
    g = np.sqrt(gr * gr + gc * gc).mean(axis=2)
    s = 1.0 - np.exp(-g / 0.08)
    return strength_floor + (1.0 - strength_floor) * s


# sample points per block of the pixel kernels: each block's temporaries
# (~200 kB for 3 channels) stay in cache and are reused, where whole-raster
# temporaries cost a fresh page fault per 4 kB
BLOCK_POINTS = 8192


def row_blocks(n_rows, row_points):
    """Slices of consecutive rows that hold about BLOCK_POINTS points each."""
    step = max(1, BLOCK_POINTS // max(1, row_points))
    for i in range(0, n_rows, step):
        yield slice(i, min(i + step, n_rows))


def _pixel_coords(theta, phi, H, W):
    """Floor row and column (int) and their fractions at finite angles,
    phi wrapped as np.mod(phi, 2pi)."""
    if phi.size and -2.0 * np.pi <= phi.min() and phi.max() < 2.0 * np.pi:
        # np.mod(phi, 2pi) bit for bit on this range, where fmod returns
        # phi unchanged, without fmod's ~20 ns per point
        phi = np.where(phi < 0, phi + 2.0 * np.pi, phi)
    else:
        phi = np.mod(phi, 2.0 * np.pi)
    r = theta * H / np.pi - 0.5
    c = phi * W / (2.0 * np.pi) - 0.5
    r0 = np.floor(r).astype(int)
    c0 = np.floor(c).astype(int)
    return r0, c0, r - r0, c - c0


def _corners_into(out, flat, r0, r1, c0, c1, dr, dc):
    """out[..., k] = the bilinear sum of the (H*W, ch) pixel view at the
    flat corner indices r + c, rows r0, r1 (times W) and columns c0, c1,
    over the fractions dr, dc, summed in the order
    (p00 er) ec + (p01 er) dc + (p10 dr) ec + (p11 dr) dc."""
    # gather whole pixels, then the corner sum one channel at a time: a
    # (..., ch) * (..., 1) broadcast runs numpy's inner loop over only ch
    # elements
    p00, p01 = flat.take(r0 + c0, 0), flat.take(r0 + c1, 0)
    p10, p11 = flat.take(r1 + c0, 0), flat.take(r1 + c1, 0)
    er, ec = 1 - dr, 1 - dc
    t = np.empty(out.shape[:-1], out.dtype)
    for k in range(flat.shape[1]):
        acc = p00[..., k] * er
        acc *= ec
        np.multiply(p01[..., k], er, out=t)
        t *= dc
        acc += t
        np.multiply(p10[..., k], dr, out=t)
        t *= ec
        acc += t
        np.multiply(p11[..., k], dr, out=t)
        t *= dc
        acc += t
        out[..., k] = acc


def _sample_into(out, flat, H, W, theta, phi):
    """Bilinear samples of the (H*W, ch) pixel view at finite angles, written
    to out (broadcast shape of theta and phi, plus ch)."""
    r0, c0, dr, dc = _pixel_coords(theta, phi, H, W)
    _corners_into(out, flat, np.clip(r0, 0, H - 1) * W,
                  np.clip(r0 + 1, 0, H - 1) * W,
                  np.mod(c0, W), np.mod(c0 + 1, W), dr, dc)


def _sample_grid_into(out, img, theta, phi):
    """Bilinear samples of the (H, W, ch) image on the grid of the row
    angles theta (n,) and the column angles phi (m,), written to out
    (n, m, ch); each source row is scaled once, then its columns gathered.

    Bit for bit the per-point sum: (p00 er) ec is gathered from the row
    pass's p er, and the four terms add in the same order."""
    H, W, ch = img.shape
    r0, c0, dr, dc = _pixel_coords(theta, phi, H, W)
    r1 = np.clip(r0 + 1, 0, H - 1)
    r0 = np.clip(r0, 0, H - 1)
    c1, c0 = np.mod(c0 + 1, W), np.mod(c0, W)
    er, ec = 1 - dr, 1 - dc
    blocks = list(row_blocks(len(theta), len(phi)))
    # the scaled source rows, channels ahead of columns, so each column
    # gather and weight runs along contiguous rows
    rows = np.empty((2, blocks[0].stop if blocks else 0, ch, W), out.dtype)
    for s in blocks:
        a, b = rows[:, :s.stop - s.start]
        np.multiply(img.take(r0[s], 0).transpose(0, 2, 1), er[s, None, None], out=a)
        np.multiply(img.take(r1[s], 0).transpose(0, 2, 1), dr[s, None, None], out=b)
        acc = a.take(c0, 2)
        acc *= ec
        t = a.take(c1, 2)
        t *= dc
        acc += t
        np.take(b, c0, 2, out=t)
        t *= ec
        acc += t
        np.take(b, c1, 2, out=t)
        t *= dc
        acc += t
        out[s] = acc.transpose(0, 2, 1)


def sample_bilinear(x, theta, phi):
    """Sample an ERP image at arbitrary directions.

    theta and phi broadcast against each other.  Fractional pixel
    coordinates invert grid_angles' pixel centers; columns wrap
    modulo W, rows clamp at the first/last row centers (no cross-pole
    interpolation).  Non-finite angles raise ValueError.
    """
    H, W, ch = check_image(x)
    x = np.asarray(x)
    theta = np.asarray(theta, float)
    phi = np.asarray(phi, float)
    for name, a in (("theta", theta), ("phi", phi)):
        if not np.isfinite(a).all():
            raise ValueError("%s contains non-finite angles" % name)
    flat = x.reshape(H * W, ch)
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    out = np.empty(shape + (ch,), np.result_type(flat, float))
    if not shape:
        _sample_into(out, flat, H, W, theta, phi)
    else:
        theta = theta.reshape((1,) * (len(shape) - theta.ndim) + theta.shape)
        phi = phi.reshape((1,) * (len(shape) - phi.ndim) + phi.shape)
        if theta.shape[1:] == (1,) and phi.shape[0] == 1:
            # theta along rows only and phi along columns only, as resample
            # passes: indices and fractions once per axis
            _sample_grid_into(out, flat.reshape(H, W, ch), theta[:, 0], phi[0])
        else:
            # blocks along the leading axis; an axis of length 1 stays
            # whole, so neither angle array is broadcast to the full shape
            for s in row_blocks(shape[0], math.prod(shape[1:])):
                _sample_into(out[s], flat, H, W,
                             theta[s] if len(theta) > 1 else theta,
                             phi[s] if len(phi) > 1 else phi)
    return out if x.ndim == 3 else out[..., 0]


def resample(x, H_out):
    """Bilinear resample to (H_out, 2*H_out) by sampling at the new pixel centers."""
    if H_out < 1:
        raise ValueError("H_out must be >= 1")
    theta, phi = grid_angles(H_out)
    return sample_bilinear(x, theta[:, None], phi[None, :])


# ---------------------------------------------------------------- PPM I/O

def write_ppm(path, x):
    """Binary PPM (P6, 8-bit); value = round(sample*255), gamma-less."""
    H, W, ch = check_image(x)
    f = x if x.ndim == 3 else np.repeat(x[:, :, None], 3, axis=2)
    if f.shape[2] == 1:
        f = np.repeat(f, 3, axis=2)
    b = np.clip(np.rint(f * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (W, H))
        fh.write(b.tobytes())


def read_ppm(path):
    """Read binary P6 into float (H, W, 3) in [0,1]; value = byte/255."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise ValueError("%s: not a binary PPM (P6)" % path)
    # header: magic, width, height, maxval, single whitespace, then raster
    names = ("width", "height", "maxval")
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":           # comment line
            end = data.find(b"\n", pos)
            if end < 0:
                raise ValueError("%s: unterminated header comment" % path)
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tok = data[start:pos]
        if not tok.isdigit() or int(tok) == 0:
            raise ValueError("%s: header %s must be a positive integer, got %r"
                             % (path, names[len(fields)], tok))
        fields.append(int(tok))
    pos += 1
    W, H, maxval = fields
    if maxval != 255:
        raise ValueError("%s: only maxval 255 supported" % path)
    if W != 2 * H:
        raise ValueError("%s: ERP width must be 2*height, got %dx%d"
                         % (path, H, W))
    if len(data) - pos < H * W * 3:
        raise ValueError("%s: truncated raster, %d of %d bytes"
                         % (path, max(0, len(data) - pos), H * W * 3))
    raster = np.frombuffer(data, np.uint8, count=H * W * 3, offset=pos)
    out = raster.reshape(H, W, 3).astype(float)
    out /= 255.0
    return out
