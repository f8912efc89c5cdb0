"""SO(3) elements, Wigner-D matrices, and the two rotation actions.

A rotation acts on signals by pullback, (R.f)(omega) = f(R^{-1} omega);
on coefficients it acts block-diagonally through the per-degree Wigner-D
matrices, c'_l = D^l(R) c_l.  Both actions use the same active ZYZ
convention so they agree up to resampling error.
"""

import functools
import math

import numpy as np

from . import grid

__all__ = [
    "Rotation", "random_rotation",
    "little_d", "wigner_D", "rotate_coeffs", "rotate_image",
]


class Rotation:
    """Unit quaternion (w, x, y, z); q and -q denote the same rotation."""

    __slots__ = ("q", "_zyz")

    def __init__(self, w, x, y, z):
        q = np.array([w, x, y, z], float)
        if not np.isfinite(q).all():
            raise ValueError("rotation components must be finite, got %r"
                             % (tuple(q.tolist()),))
        with np.errstate(over="ignore"):
            n = np.linalg.norm(q)
        if n == np.inf:
            raise ValueError("quaternion norm overflows; scale the components down")
        if n < 1e-12:
            raise ValueError("zero quaternion is not a rotation")
        self.q = q / n

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis, angle):
        axis = np.asarray(axis, float)
        n = np.linalg.norm(axis)
        if n < 1e-12:
            raise ValueError("axis must be nonzero")
        axis = axis / n
        h = 0.5 * angle
        return cls(math.cos(h), *(math.sin(h) * axis))

    @classmethod
    def from_zyz(cls, alpha, beta, gamma):
        rz1 = cls.from_axis_angle([0, 0, 1], alpha)
        ry = cls.from_axis_angle([0, 1, 0], beta)
        rz2 = cls.from_axis_angle([0, 0, 1], gamma)
        return rz1 * ry * rz2

    @classmethod
    def parse(cls, text):
        """CLI forms: quaternion "w,x,y,z" or Euler "zyz:alpha,beta,gamma"."""
        t = text.strip()
        zyz = t.lower().startswith("zyz:")
        try:
            vals = [float(v) for v in (t[4:] if zyz else t).split(",")]
        except ValueError:
            vals = []
        if len(vals) != (3 if zyz else 4):
            raise ValueError('rotation must be "w,x,y,z" or "zyz:a,b,g", got %r' % text)
        if not all(map(math.isfinite, vals)):
            raise ValueError("rotation components must be finite, got %r" % text)
        return cls.from_zyz(*vals) if zyz else cls(*vals)

    def __mul__(self, other):
        w1, x1, y1, z1 = self.q
        w2, x2, y2, z2 = other.q
        return Rotation(w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)

    def inverse(self):
        w, x, y, z = self.q
        return Rotation(w, -x, -y, -z)

    @property
    def matrix(self):
        w, x, y, z = self.q
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])

    @property
    def zyz(self):
        """Active ZYZ Euler angles; gimbal degeneracy resolved by gamma = 0.
        Computed once per rotation (q is never reassigned)."""
        try:
            return self._zyz
        except AttributeError:
            pass
        M = self.matrix
        cb = float(np.clip(M[2, 2], -1.0, 1.0))
        b = math.acos(cb)
        if math.sin(b) > 1e-12:
            a = math.atan2(M[1, 2], M[0, 2])
            g = math.atan2(M[2, 1], -M[2, 0])
        else:
            g = 0.0
            if cb > 0:
                a = math.atan2(M[1, 0], M[0, 0])
            else:
                a = math.atan2(-M[1, 0], -M[0, 0])
        self._zyz = a, b, g
        return a, b, g

    @property
    def angle(self):
        """Geodesic distance to the identity, omega = 2 arccos|q_w|, in [0, pi]."""
        return 2.0 * math.acos(min(1.0, abs(self.q[0])))

    def __repr__(self):
        return "Rotation(%.6f, %.6f, %.6f, %.6f)" % tuple(self.q)


def random_rotation(seed):
    """Haar-uniform rotation from four normalized standard-normal draws."""
    v = np.random.default_rng(seed).standard_normal(4)
    return Rotation(*v)


@functools.lru_cache(maxsize=None)
def _jy_eigenbasis(l):
    """Read-only eigenvectors V of J_y in the |l m> basis, columns ordered by
    eigenvalue -l..l, so that d^l(beta) = V diag(e^{-i beta m}) V^H."""
    m = np.arange(-l, l)
    J = np.diag(0.5j * np.sqrt(l * (l + 1) - m * (m + 1)), 1)  # <m|J_y|m+1>
    lam, V = np.linalg.eigh(J + J.conj().T)
    if np.abs(lam - np.arange(-l, l + 1)).max() > 1e-9:
        raise RuntimeError("J_y eigenvalues of degree %d are not -l..l" % l)
    V.setflags(write=False)
    return V


def little_d(l, beta):
    """Wigner small-d matrix d^l_{m',m}(beta), indexed [m'+l, m+l], by exact
    diagonalization of J_y (Feng et al., PRE 92, 043307, 2015); no degree cap."""
    if l < 0:
        raise ValueError("degree must be >= 0")
    V = _jy_eigenbasis(l)
    return ((V * np.exp(-1j * beta * np.arange(-l, l + 1))) @ V.conj().T).real


def wigner_D(l, R):
    """D^l_{m',m}(R) = e^{-i m' alpha} d^l_{m',m}(beta) e^{-i m gamma}."""
    a, b, g = R.zyz
    d = little_d(l, b)
    ma = np.arange(-l, l + 1)
    return np.exp(-1j * ma * a)[:, None] * d * np.exp(-1j * ma * g)[None, :]


def rotate_coeffs(c, R):
    """c'_l = D^l(R) c_l per block and channel; degrees never mix.  The
    Euler decomposition behind every D^l is R's one cached R.zyz."""
    out = c.copy()
    for l in range(c.l_max + 1):
        D = wigner_D(l, R)
        out.data[:, l * l:(l + 1) * (l + 1)] = c.block(l) @ D.T
    if out.real:
        out.assert_symmetry()
    return out


def rotate_image(x, R):
    """Pullback resampling: each output pixel samples x at R^{-1} omega.

    Runs in blocks of grid.BLOCK_POINTS pixels into one output array."""
    H, W, ch = grid.check_image(x)
    x = np.asarray(x)
    flat = x.reshape(H * W, ch)
    M = R.matrix
    out = np.empty((H, W, ch), np.result_type(flat, float))
    # arccos puts the floor row r0 in [-1, H-1] and the wrapped phi puts the
    # floor column c0 in [-1, W-1], so each corner's clamped or wrapped
    # index is one lookup, index -1 reading a table's last entry
    rows = np.arange(H) * W
    r0_tab = np.append(rows, 0)
    r1_tab = np.concatenate([rows[1:], rows[-1:], [0]])
    c0_tab, c1_tab = np.arange(W), np.roll(np.arange(W), -1)
    blocks = list(grid.row_blocks(H, W))
    d = np.empty((blocks[0].stop if blocks else 0, W, 3))
    for s in blocks:
        # row-vector form of R^T omega
        e = grid.grid_directions(H, s, out=d[:s.stop - s.start]) @ M
        theta = np.arccos(np.clip(e[..., 2], -1.0, 1.0))
        phi = np.arctan2(e[..., 1], e[..., 0])
        r0, c0, dr, dc = grid._pixel_coords(theta, phi, H, W)
        grid._corners_into(out[s], flat, r0_tab.take(r0), r1_tab.take(r0),
                           c0_tab.take(c0), c1_tab.take(c0), dr, dc)
    return out if x.ndim == 3 else out[..., 0]
