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
    "bispectrum_component", "bispectrum_vector",
    "perturbation_sensitivity", "power_spectrum_features",
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


def _contract(t, b1, b2, b3):
    """Trivial-projection contraction of three degree blocks (last axis m,
    leading axes broadcast; t in any order).  b1=None leaves leg 1 free, the
    result keeping a last axis of 2*l1+1.  b3 is read at m3 = -m1-m2, index
    (l1+l2+l3)-i-j: a zero-copy Hankel view of the reversed block, padded
    with l1+l2-l3 zeros per side for the orders |m3| > l3."""
    l1, l2, l3 = t
    n = l1 + l2 - l3
    if n < 0:
        raise ValueError("degrees %r violate the triangle rule l3 <= l1 + l2" % (t,))
    pad = np.zeros(b3.shape[:-1] + (2 * (l1 + l2) + 1,), b3.dtype)
    pad[..., n:n + 2 * l3 + 1] = b3[..., ::-1]
    H = as_strided(pad, pad.shape[:-1] + (2 * l1 + 1, 2 * l2 + 1),
                   pad.strides + pad.strides[-1:], writeable=False)
    C = _projection_table(t)
    if b1 is None:
        return np.einsum("ij,...j,...ij->...i", C, b2, H)
    return np.einsum("ij,...i,...j,...ij->...", C, b1, b2, H)


def bispectrum_component(c, t):
    """I_t = sum_{m1+m2+m3=0} C^{0,0} c^{m1} c^{m2} c^{m3}, channel-summed."""
    return _contract(t, *(c.block(l) for l in t)).sum()


def bispectrum_vector(c, triplets):
    return BispectrumVector(triplets, [bispectrum_component(c, t) for t in triplets])


def perturbation_sensitivity(c, delta, triplets):
    """First-order change of each component: the three placement terms only."""
    if delta.l_max != c.l_max or delta.channels != c.channels:
        raise ValueError("perturbation must match the signal's l_max and channels")
    out = np.zeros(len(triplets), complex)
    for i, t in enumerate(triplets):
        b1, b2, b3 = (c.block(l) for l in t)
        d1, d2, d3 = (delta.block(l) for l in t)
        out[i] = (_contract(t, d1, b2, b3) + _contract(t, b1, d2, b3)
                  + _contract(t, b1, b2, d3)).sum()
    return out


def power_spectrum_features(c, L):
    """Second-order rotation-invariant baseline features.

    Per degree l in L, the cross-channel Gram of the degree block:
    diagonal entries are the per-channel powers P(l) = sum_m |c_l^m|^2,
    off-diagonal entries the complex cross-channel correlations (re, im).
    Single-channel input reduces exactly to [P(l)].
    """
    Ls = sorted(set(int(l) for l in L))
    if Ls and (Ls[0] < 0 or Ls[-1] > c.l_max):
        raise ValueError("degree set must lie within [0, l_max]")
    out = []
    for l in Ls:
        B = c.block(l)
        G = B @ B.conj().T
        out.extend(G[i, i].real for i in range(c.channels))
        for i in range(c.channels):
            for j in range(i + 1, c.channels):
                out.append(G[i, j].real)
                out.append(G[i, j].imag)
    return np.array(out)


def bispectrum_to_csv(vec, path):
    with open(path, "w") as fh:
        fh.write("l1,l2,l3,re,im\n")
        for t, v in zip(vec.triplets, vec.values):
            fh.write("%d,%d,%d,%.12g,%.12g\n" % (t[0], t[1], t[2], v.real, v.imag))
