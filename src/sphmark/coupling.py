"""Wigner 3j symbols, trivial-projection tables, and bispectrum invariants.

The third-order invariant of a triplet (l1, l2, l3) is the full
contraction of three coefficient blocks against the trivial-projection
coefficients C^{0,0} = prefactor * 3j(l1,l2,l3;0,0,0) * 3j(l1,l2,l3;m1,m2,m3),
prefactor sqrt((2l1+1)(2l2+1)(2l3+1)/4pi).  For any rotation the three
Wigner-D conjugations cancel, so every component is exactly SO(3)
invariant; for real signals every component is real.
"""

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "log_factorial", "wigner_3j", "threej_table", "trivial_projection_coeff",
    "admissible_triplets", "BispectrumVector",
    "bispectrum_component", "bispectrum_vector", "power_spectrum_features",
    "bispectrum_to_csv",
]

# ln(n!) for n = 0..300, then +inf: a negative index wraps into the tail,
# so 1/n! = 0 for n < 0 and Racah terms outside their t range vanish
_LOGFACT = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 301))),
                           np.full(300, np.inf)])


def log_factorial(n):
    """ln(n!) from the precomputed cumulative table (n <= 300)."""
    if not (0 <= n <= 300):
        raise ValueError("log_factorial table covers 0..300")
    return float(_LOGFACT[n])


def _racah(l1, l2, l3, m1, m2):
    """3j(l1 l2 l3; m1 m2 -m1-m2) by the Racah sum, elementwise over integer
    m1, m2 (scalars or arrays); selection-rule failures are exact zeros."""
    if l1 + l2 + l3 >= 300:
        raise ValueError("3j degrees exceed the log-factorial table")
    m3 = -m1 - m2
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        return np.zeros(np.shape(m3))
    ok = (abs(m1) <= l1) & (abs(m2) <= l2) & (abs(m3) <= l3)
    m1, m2, m3 = m1 * ok, m2 * ok, m3 * ok  # park failures at m = 0
    F = _LOGFACT
    pref = 0.5 * (F[l1 + l2 - l3] + F[l1 - l2 + l3] + F[-l1 + l2 + l3]
                  - F[l1 + l2 + l3 + 1]
                  + F[l1 + m1] + F[l1 - m1] + F[l2 + m2] + F[l2 - m2]
                  + F[l3 + m3] + F[l3 - m3])
    # the summation index t runs along a new leading axis
    t = np.arange(l1 + l2 - l3 + 1).reshape((-1,) + (1,) * np.ndim(m3))
    den = (F[t] + F[t + (l3 - l2 + m1)] + F[t + (l3 - l1 - m2)]
           + F[(l1 + l2 - l3) - t] + F[(l1 - m1) - t] + F[(l2 + m2) - t])
    terms = np.exp(pref - den)
    terms[1::2] *= -1.0
    return np.where(ok, (-1.0) ** (l1 - l2 - m3) * terms.sum(axis=0), 0.0)


def wigner_3j(l1, l2, l3, m1, m2, m3):
    """3j symbol by the Racah sum; selection-rule failures return exact 0."""
    if m1 + m2 + m3 != 0:
        return 0.0
    return float(_racah(l1, l2, l3, m1, m2))


@functools.lru_cache(maxsize=None)
def threej_table(l1, l2, l3):
    """Read-only 3j(l1 l2 l3; m1 m2 -m1-m2) over the grid [m1+l1, m2+l2]."""
    T = _racah(l1, l2, l3, np.arange(-l1, l1 + 1)[:, None],
               np.arange(-l2, l2 + 1))
    T.setflags(write=False)
    return T


def trivial_projection_coeff(t, m1, m2, m3):
    """C^{0,0}_{l1 m1 l2 m2 l3 m3}: prefactor x 3j(zeros) x 3j(m's)."""
    l1, l2, l3 = t
    pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
    return pref * wigner_3j(l1, l2, l3, 0, 0, 0) * wigner_3j(l1, l2, l3, m1, m2, m3)


def admissible_triplets(L, l_max):
    """All (l1 <= l2 <= l3) from L with triangle + even parity, lexicographic."""
    Ls = sorted(set(int(l) for l in L))
    if Ls and (Ls[0] < 0 or Ls[-1] > l_max):
        raise ValueError("degree set must lie within [0, l_max]")
    out = []
    for i, l1 in enumerate(Ls):
        for j in range(i, len(Ls)):
            l2 = Ls[j]
            for k in range(j, len(Ls)):
                l3 = Ls[k]
                if l3 <= l1 + l2 and (l1 + l2 + l3) % 2 == 0:
                    out.append((l1, l2, l3))
    return out


@functools.lru_cache(maxsize=None)
def _projection_table(t):
    """Read-only C[m1+l1, m2+l2] = C^{0,0} at m3 = -m1-m2 (0 where |m3| > l3)."""
    l1, l2, l3 = t
    T = threej_table(l1, l2, l3)
    C = (math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
         * T[l1, l2]) * T
    C.setflags(write=False)
    return C


class BispectrumVector:
    """Ordered per-triplet invariant components plus their scalar total."""

    __slots__ = ("triplets", "values", "total")

    def __init__(self, triplets, values):
        self.triplets = [tuple(t) for t in triplets]
        self.values = np.asarray(values, complex)
        if len(self.triplets) != self.values.size:
            raise ValueError("triplet/value length mismatch")
        self.total = complex(self.values.sum()) if self.values.size else 0j

    def __len__(self):
        return self.values.size


def _hankel(t, b3):
    """b3 read at m3 = -m1-m2 over the grid [m1+l1, m2+l2] (leading axes
    kept): index (l1+l2+l3)-i-j, a zero-copy Hankel view of the reversed
    block, padded with l1+l2-l3 zeros per side for the orders |m3| > l3."""
    l1, l2, l3 = t
    n = l1 + l2 - l3
    if n < 0:
        raise ValueError("degrees %r violate the triangle rule l3 <= l1 + l2" % (t,))
    pad = np.zeros(b3.shape[:-1] + (2 * (l1 + l2) + 1,), b3.dtype)
    pad[..., n:n + 2 * l3 + 1] = b3[..., ::-1]
    return as_strided(pad, pad.shape[:-1] + (2 * l1 + 1, 2 * l2 + 1),
                      pad.strides + pad.strides[-1:], writeable=False)


def _contract(t, b1, b2, b3):
    """Trivial-projection contraction of three degree blocks (last axis m,
    leading axes broadcast; t in any order).  b1=None leaves leg 1 free, the
    result keeping a last axis of 2*l1+1.  b3 is read through _hankel."""
    H = _hankel(t, b3)
    C = _projection_table(t)
    if b1 is None:
        return np.einsum("ij,...j,...ij->...i", C, b2, H)
    return np.einsum("ij,...i,...j,...ij->...", C, b1, b2, H)


# entries per plan chunk: ~4096 keeps each chunk's (entries, channels)
# products in cache; one chunk of all 70k entries of the 285 triplets at
# l_max 16 took 2.8x as long
_CHUNK = 4096


@functools.lru_cache(maxsize=8)
def _vector_plan(triplets):
    """Flat evaluation plan of bispectrum_vector for one triplet tuple.

    Every entry (m1, m2) of _projection_table(t) with |m3| <= l3 (the
    orders _hankel reads, zero-C entries kept so that each triplet owns at
    least one entry) becomes three flat coefficient indices l^2 + l + m and
    its C, cut at triplet boundaries into chunks of about _CHUNK entries.
    Returns (highest degree, chunks); a chunk is (first triplet, end
    triplet, (3, n) int32 indices, C, offset of each triplet's first
    entry).  Bounded because its key comes from outside."""
    chunks, parts, lo, n, top = [], [], 0, 0, 0
    for k, t in enumerate(triplets):
        l1, l2, l3 = t
        if min(t) < 0:
            raise ValueError("degree out of range")
        top = max(top, l1, l2, l3)
        # _hankel of the leg-3 flat indices (shifted by one so that its
        # zero padding reads -1) gives the leg-3 index of every (m1, m2)
        k3 = _hankel(t, np.arange(l3 * l3, (l3 + 1) ** 2) + 1) - 1
        i, j = np.nonzero(k3 >= 0)
        parts.append((l1 * l1 + i, l2 * l2 + j, k3[i, j],
                      _projection_table(t)[i, j]))
        n += i.size
        if n >= _CHUNK or k + 1 == len(triplets):
            *legs, C = (np.concatenate(x) for x in zip(*parts))
            chunk = (np.array(legs, np.int32), C,
                     np.cumsum([0] + [p[-1].size for p in parts[:-1]]))
            for a in chunk:
                a.setflags(write=False)
            chunks.append((lo, k + 1) + chunk)
            parts, lo, n = [], k + 1, 0
    return top, tuple(chunks)


def bispectrum_component(c, t):
    """I_t = sum_{m1+m2+m3=0} C^{0,0} c^{m1} c^{m2} c^{m3}, channel-summed."""
    return bispectrum_vector(c, [t]).values[0]


def bispectrum_vector(c, triplets):
    """Every I_t of the triplet list, in its order, from the cached flat
    plan: per chunk, gather the three legs, multiply, sum the channels,
    scale by C and sum each triplet's entries."""
    top, chunks = _vector_plan(tuple(map(tuple, triplets)))
    if top > c.l_max:
        raise ValueError("degree out of range")
    d = c.data.T.copy()
    ones = np.ones(c.channels)
    out = np.empty(len(triplets), complex)
    for lo, hi, idx, C, starts in chunks:
        p = d.take(idx[0], 0)
        p *= d.take(idx[1], 0)
        p *= d.take(idx[2], 0)
        out[lo:hi] = np.add.reduceat((p @ ones) * C, starts)
    return BispectrumVector(triplets, out)


def power_spectrum_features(c, L):
    """Second-order rotation-invariant baseline features.

    Per degree l in L, the cross-channel Gram of the degree block:
    diagonal entries are the per-channel powers P(l) = sum_m |c_l^m|^2,
    off-diagonal entries the complex cross-channel correlations (re, im).
    Single-channel input reduces exactly to [P(l)].  An array c of sets
    (..., channels, n_coeffs) keeps its leading axes.
    """
    data = c if isinstance(c, np.ndarray) else c.data
    Ls = sorted(set(int(l) for l in L))
    if Ls and (Ls[0] < 0 or (Ls[-1] + 1) ** 2 > data.shape[-1]):
        raise ValueError("degree set must lie within [0, l_max]")
    ch = data.shape[-2]
    i, j = np.triu_indices(ch, 1)
    out = np.empty(data.shape[:-2] + (len(Ls), ch * ch))
    for n, l in enumerate(Ls):
        B = data[..., l * l:(l + 1) * (l + 1)]
        G = B @ B.conj().swapaxes(-1, -2)
        out[..., n, :ch] = G.diagonal(axis1=-2, axis2=-1).real
        out[..., n, ch::2] = G[..., i, j].real
        out[..., n, ch + 1::2] = G[..., i, j].imag
    return out.reshape(data.shape[:-2] + (-1,))


def bispectrum_to_csv(vec, path):
    with open(path, "w") as fh:
        fh.write("l1,l2,l3,re,im\n")
        for t, v in zip(vec.triplets, vec.values):
            fh.write("%d,%d,%d,%.12g,%.12g\n" % (t[0], t[1], t[2], v.real, v.imag))
