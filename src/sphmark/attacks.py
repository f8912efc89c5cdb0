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
    return np.clip(out, 0.0, 1.0)


def gaussian_kernel(size, sigma):
    if size < 1 or size % 2 == 0:
        raise ValueError("kernel size must be odd and positive")
    if not sigma > 0:
        raise ValueError("blur sigma must be positive")
    t = np.arange(size) - (size - 1) / 2.0
    k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


def attack_blur_spatial(x, sigma=3.0, size=7):
    """Separable planar Gaussian; wraps in longitude, clamps in latitude."""
    # scipy loads on first use only: embed and extract never need it
    import scipy.ndimage
    x = np.asarray(x, float)
    grid.check_image(x)
    k = gaussian_kernel(int(size), float(sigma))
    out = scipy.ndimage.correlate1d(x, k, axis=1, mode="wrap")
    # rows are filtered line by line from a buffer, so in place is safe
    return scipy.ndimage.correlate1d(out, k, axis=0, mode="nearest",
                                     output=out)


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
    return np.clip(out, 0.0, 1.0)


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


def attack_jpeg_approx(x, quality=60):
    """Grayscale-pipeline JPEG approximation applied per channel.

    8x8 block DCT, luminance-table quantization at the given quality,
    dequantize, inverse.  No chroma subsampling and no entropy stage, so
    only the quantization distortion is modeled."""
    import scipy.fft
    x = np.asarray(x, float)
    H, W, ch = grid.check_image(x)
    T = jpeg_quant_table(quality)
    f = x if x.ndim == 3 else x[:, :, None]
    # pad to full blocks by edge replication, crop after
    Hp = (H + 7) // 8 * 8
    Wp = (W + 7) // 8 * 8
    out = np.empty((Hp, Wp, f.shape[2]))
    for c in range(f.shape[2]):
        v = f[:, :, c] * 255.0 - 128.0
        v = np.pad(v, ((0, Hp - H), (0, Wp - W)), mode="edge")
        blocks = v.reshape(Hp // 8, 8, Wp // 8, 8).transpose(0, 2, 1, 3)
        d = scipy.fft.dctn(blocks, type=2, axes=(2, 3), norm="ortho")
        d = np.round(d / T) * T
        r = scipy.fft.idctn(d, type=2, axes=(2, 3), norm="ortho")
        out[:, :, c] = r.transpose(0, 2, 1, 3).reshape(Hp, Wp)
    out = (out[:H, :W] + 128.0) / 255.0
    out = out[:, :, 0] if x.ndim == 2 else out
    return np.clip(out, 0.0, 1.0)


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
