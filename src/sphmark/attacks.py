"""Distortion bench: geometric, spectral, photometric and codec attacks.

Every attack maps an ERP image in [0, 1] to another one of the same kind
(resolution may change only through the documented resize path).  A small
text grammar describes attack pipelines for the CLI:

    rotate:q=0.92,0.3,0.2,0.1      blur:sigma=3,k=7
    noise:std=0.05,seed=7          jpeg:q=60
    mixed:[rotate:seed=3;blur:sigma=2,k=7;noise:std=0.02,seed=1]
"""

import math

import numpy as np

from . import grid, harmonics, so3


def attack_rotate(x, rotation=None, seed=None):
    if rotation is None:
        rotation = so3.random_rotation(0 if seed is None else int(seed))
    elif isinstance(rotation, str):
        rotation = so3.Rotation.parse(rotation)
    return so3.rotate_image(np.asarray(x, float), rotation)


def attack_blur_spectral(x, sigma=0.05, l_max=16):
    """Heat-kernel attenuation exp(-sigma^2 l(l+1)) on the band to l_max."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    c = harmonics.forward_sht(np.asarray(x, float), l_max)
    ls = np.arange(l_max + 1)
    g = np.exp(-(sigma ** 2) * ls * (ls + 1.0))
    out = harmonics.inverse_sht(harmonics.apply_band_profile(c, g), x.shape[0])
    return np.clip(out, 0.0, 1.0, out=out)


def gaussian_kernel(size, sigma):
    if size < 1 or size % 2 == 0:
        raise ValueError("kernel size must be odd and positive")
    if not sigma > 0:
        raise ValueError("blur sigma must be positive")
    t = np.arange(size) - (size - 1) / 2.0
    k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


# samples (pixels x channels) in one row block of the blur and JPEG kernels:
# their temporaries stay this size, only the output is a full raster
BLOCK_SAMPLES = 1 << 15


def _symmetric_taps(p, w, n, axis, out, buf):
    """Correlate p along axis with the odd symmetric kernel w into out, n
    samples from a source padded by len(w)//2 on each side of that axis.

    The terms and their order are those of scipy.ndimage.correlate1d for a
    symmetric kernel, x0 w0 then += (x[-j] + x[+j]) w[j] for j = h..1, so
    the sums agree bit for bit."""
    h = len(w) // 2
    lead = (slice(None),) * axis
    np.multiply(p[lead + (slice(h, h + n),)], w[h], out=out)
    for j in range(h, 0, -1):
        np.add(p[lead + (slice(h - j, h - j + n),)],
               p[lead + (slice(h + j, h + j + n),)], out=buf)
        buf *= w[h - j]
        out += buf


def attack_blur_spatial(x, sigma=3.0, size=7):
    """Separable planar Gaussian; wraps in longitude, clamps in latitude.

    Equal to scipy.ndimage.correlate1d along longitude (mode "wrap") and
    then along latitude (mode "nearest"), computed in row blocks of about
    BLOCK_SAMPLES samples with a halo of size//2 clamped rows."""
    x = np.asarray(x, float)
    H, W, ch = grid.check_image(x)
    w = gaussian_kernel(int(size), float(sigma))
    h = len(w) // 2
    f = x if x.ndim == 3 else x[:, :, None]
    out = np.empty(f.shape)
    nb = min(H, max(1, BLOCK_SAMPLES // (W * ch)))
    # source columns of the h wrapped columns on each side of the padding
    left = h + np.arange(-h, 0) % W
    right = h + np.arange(W, W + h) % W
    p = np.empty((nb + 2 * h, W + 2 * h, ch))   # rows with halo, wrapped
    t = np.empty((nb + 2 * h, W, ch))           # their longitude pass
    buf = np.empty_like(t)
    for r0 in range(0, H, nb):
        r1 = min(r0 + nb, H)
        m = r1 - r0 + 2 * h
        np.take(f, np.arange(r0 - h, r1 + h), axis=0, mode="clip",
                out=p[:m, h:h + W])
        p[:m, :h] = p[:m, left]
        p[:m, W + h:] = p[:m, right]
        _symmetric_taps(p[:m], w, W, 1, t[:m], buf[:m])
        _symmetric_taps(t[:m], w, r1 - r0, 0, out[r0:r1], buf[:r1 - r0])
    return out[:, :, 0] if x.ndim == 2 else out


def attack_noise(x, std=0.05, seed=0):
    x = np.asarray(x, float)
    if std < 0:
        raise ValueError("std must be >= 0")
    out = np.random.default_rng(seed).standard_normal(x.shape)
    out *= std
    out += x
    return np.clip(out, 0.0, 1.0, out=out)


def attack_lowpass(x, l_c, l_max=16):
    x = np.asarray(x, float)
    c = harmonics.forward_sht(x, l_max)
    out = harmonics.inverse_sht(harmonics.low_pass(c, int(l_c)), x.shape[0])
    return np.clip(out, 0.0, 1.0, out=out)


def attack_resize(x, scale=0.5):
    """Bilinear down to floor(scale*H), then back up to the original H."""
    x = np.asarray(x, float)
    grid.check_image(x)
    if scale <= 0:
        raise ValueError("scale must be positive")
    H = x.shape[0]
    Hd = int(math.floor(scale * H))
    if Hd < 2:
        raise ValueError("scale leaves fewer than 2 rows")
    if Hd == H:
        return x.copy()
    out = grid.resample(grid.resample(x, Hd), H)
    return np.clip(out, 0.0, 1.0, out=out)


def attack_brightness(x, factor=1.1):
    if factor < 0:
        raise ValueError("factor must be >= 0")
    out = np.asarray(x, float) * factor
    return np.clip(out, 0.0, 1.0, out=out)


def attack_contrast(x, factor=1.2):
    """Scale around the per-channel spherical mean (quadrature measure)."""
    x = np.asarray(x, float)
    H, W, ch = grid.check_image(x)
    if factor < 0:
        raise ValueError("factor must be >= 0")
    w = grid.quadrature_weights(H)[:, None, None]
    f = x if x.ndim == 3 else x[:, :, None]
    out = w * f                 # the weighted samples, then the result
    mean = out.sum(axis=(0, 1)) / (4.0 * np.pi)
    np.subtract(f, mean, out=out)
    out *= factor
    out += mean
    np.clip(out, 0.0, 1.0, out=out)
    return out[:, :, 0] if x.ndim == 2 else out


# standard luminance quantization table, in zig-zag-free row order
_JPEG_Q = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99]], float)


def jpeg_quant_table(quality):
    q = int(quality)
    if not 1 <= q <= 100:
        raise ValueError("quality must lie in [1, 100]")
    s = 5000.0 / q if q < 50 else 200.0 - 2.0 * q
    return np.clip(np.floor((_JPEG_Q * s + 50.0) / 100.0), 1.0, 255.0)


def _dct_matrix(n):
    """Orthonormal DCT-II: row k is a_k cos(pi (2i+1) k / 2n) over i."""
    i = np.arange(n)
    m = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * i[None, :] + 1) * i[:, None]
                                  / (2.0 * n))
    m[0] = np.sqrt(1.0 / n)
    m.setflags(write=False)
    return m


_DCT8 = _dct_matrix(8)

# a quantized coefficient this close to n + 1/2 is a tie, whatever side of
# it the transform's round-off put it on
_TIE = 1e-9


def _round_quotients(q):
    """Round in place to the nearest integer, ties to even, after snapping
    values within _TIE of a half-integer onto it; returns q.

    8-bit inputs put many DCT quotients d/T exactly on n + 1/2, so without
    the snap the rounding of those ties would depend on the DCT's round-off
    rather than on the image."""
    half = np.floor(q)
    half += 0.5
    tie = np.abs(q - half) <= _TIE
    np.copyto(q, half, where=tie)
    return np.round(q, out=q)


def attack_jpeg_approx(x, quality=60):
    """Grayscale-pipeline JPEG approximation applied per channel.

    8x8 block DCT, luminance-table quantization at the given quality,
    dequantize, inverse.  No chroma subsampling and no entropy stage, so
    only the quantization distortion is modeled.  Partial blocks are padded
    by edge replication; quotients are rounded by _round_quotients.  Runs in
    bands of 8-row block rows of about BLOCK_SAMPLES samples: per band two
    GEMMs forward and two back."""
    x = np.asarray(x, float)
    H, W, ch = grid.check_image(x)
    T = jpeg_quant_table(quality)
    f = (x if x.ndim == 3 else x[:, :, None]).transpose(2, 0, 1)
    Wp = (W + 7) // 8 * 8
    Tb = np.tile(T, (1, Wp // 8))       # T over a block row, (8, Wp)
    cols = np.minimum(np.arange(Wp), W - 1)
    step = 8 * max(1, BLOCK_SAMPLES // (8 * Wp * ch))
    out = np.empty((H, W, ch))
    for r0 in range(0, H, step):
        r1 = min(r0 + step, (H + 7) // 8 * 8)
        rows = np.minimum(np.arange(r0, r1), H - 1)
        v = f[:, rows[:, None], cols]   # (ch, rows, Wp), padded
        v *= 255.0
        v -= 128.0
        # along each block's columns, then along its rows
        d = _DCT8 @ (v.reshape(-1, 8) @ _DCT8.T).reshape(-1, 8, Wp)
        d /= Tb
        _round_quotients(d)
        d *= Tb
        v = ((_DCT8.T @ d).reshape(-1, 8) @ _DCT8).reshape(ch, r1 - r0, Wp)
        n = min(r1, H) - r0
        v = v[:, :n, :W]
        v += 128.0
        v /= 255.0
        out[r0:r0 + n] = v.transpose(1, 2, 0)
    np.clip(out, 0.0, 1.0, out=out)
    return out[:, :, 0] if x.ndim == 2 else out


def attack_mixed(x, specs):
    """Apply parsed attack specs in order."""
    out = np.asarray(x, float)
    for spec in specs:
        out = apply_attack(out, spec)
    return out


# ------------------------------------------------------------ spec grammar

class AttackSpecError(ValueError):
    """Malformed attack spec; carries the character position."""

    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


def _real(v):
    try:
        x = float(v)
    except ValueError:
        raise ValueError("not a number")
    if not math.isfinite(x):
        raise ValueError("not finite")
    return x


def _integer(v):
    try:
        return int(v)       # exact, however many digits
    except ValueError:
        x = _real(v)
    if x != int(x):
        raise ValueError("not an integer")
    return int(x)


def _positive(v):
    x = _real(v)
    if x <= 0:
        raise ValueError("not positive")
    return x


# each attack's parameters and the type that reads a value's text
_PARAMS = {
    "rotate": {"q": str, "zyz": str, "seed": _integer},
    "blur": {"sigma": _positive, "k": _integer},
    "blur_spectral": {"sigma": _real, "lmax": _integer},
    "noise": {"std": _real, "seed": _integer},
    "lowpass": {"lc": _integer, "lmax": _integer},
    "resize": {"scale": _real},
    "brightness": {"f": _real},
    "contrast": {"f": _real},
    "jpeg": {"q": _integer},
}


def parse_attack(text, base=0):
    """Parse one attack spec into (name, params).

    Commas inside a value (e.g. a quaternion) need no quoting: a token
    without '=' continues the previous value.  Raises AttackSpecError
    with the offending character position."""
    s = str(text)
    if not s.strip():
        raise AttackSpecError("empty attack spec", base)
    head, sep, rest = s.partition(":")
    name = head.strip()
    if name == "mixed":
        if not sep:
            raise AttackSpecError("mixed needs a [...] body", base + len(s))
        body = rest.strip()
        off = base + len(head) + 1 + (len(rest) - len(rest.lstrip()))
        if not (body.startswith("[") and body.endswith("]")):
            raise AttackSpecError("mixed body must be bracketed", off)
        inner = body[1:-1]
        specs = []
        pos = off + 1
        depth = 0
        start = 0
        parts = []
        for i, chq in enumerate(inner):
            if chq == "[":
                depth += 1
            elif chq == "]":
                depth -= 1
            elif chq == ";" and depth == 0:
                parts.append((start, inner[start:i]))
                start = i + 1
        parts.append((start, inner[start:]))
        for st, part in parts:
            if not part.strip():
                raise AttackSpecError("empty step in mixed spec", pos + st)
            specs.append(parse_attack(part, base=pos + st))
        return ("mixed", {"specs": specs})
    if name not in _PARAMS:
        raise AttackSpecError("unknown attack %r" % name, base)
    params = {}
    if not sep or not rest.strip():
        return (name, params)
    cursor = base + len(head) + 1
    last_key = None
    positions = {}
    for tok in rest.split(","):
        if "=" in tok:
            kk, vv = tok.split("=", 1)
            kk = kk.strip()
            if kk not in _PARAMS[name]:
                raise AttackSpecError("unknown parameter %r for %s" % (kk, name),
                                      cursor)
            params[kk] = vv.strip()
            positions[kk] = cursor
            last_key = kk
        else:
            # commas inside a value (quaternions etc.) continue the last one
            if last_key is None:
                raise AttackSpecError("value %r without a parameter name"
                                      % tok.strip(), cursor)
            params[last_key] += "," + tok.strip()
        cursor += len(tok) + 1
    out = {}
    for kk, vv in params.items():
        try:
            out[kk] = _PARAMS[name][kk](vv)
        except ValueError as e:
            raise AttackSpecError("invalid value %r for %s: %s" % (vv, kk, e),
                                  positions[kk])
    return (name, out)


def apply_attack(x, spec):
    """Run an attack given a spec string or a parsed (name, params) pair."""
    if isinstance(spec, str):
        spec = parse_attack(spec)
    name, params = spec
    if name == "mixed":
        return attack_mixed(x, params["specs"])
    if name == "rotate":
        if len(params) > 1:
            raise ValueError("rotate takes one of q, zyz or seed, got %s"
                             % ", ".join(sorted(params)))
        if "q" in params:
            return attack_rotate(x, rotation=str(params["q"]))
        if "zyz" in params:
            return attack_rotate(x, rotation="zyz:" + str(params["zyz"]))
        return attack_rotate(x, seed=params.get("seed", 0))
    if name == "blur":
        return attack_blur_spatial(x, sigma=params.get("sigma", 3.0),
                                   size=params.get("k", 7))
    if name == "blur_spectral":
        return attack_blur_spectral(x, sigma=params.get("sigma", 0.05),
                                    l_max=params.get("lmax", 16))
    if name == "noise":
        return attack_noise(x, std=params.get("std", 0.05),
                            seed=params.get("seed", 0))
    if name == "lowpass":
        if "lc" not in params:
            raise ValueError("lowpass needs lc=<degree>")
        return attack_lowpass(x, params["lc"], l_max=params.get("lmax", 16))
    if name == "resize":
        return attack_resize(x, scale=params.get("scale", 0.5))
    if name == "brightness":
        return attack_brightness(x, factor=params.get("f", 1.1))
    if name == "contrast":
        return attack_contrast(x, factor=params.get("f", 1.2))
    if name == "jpeg":
        return attack_jpeg_approx(x, quality=params.get("q", 60))
    raise ValueError("unhandled attack %r" % name)
