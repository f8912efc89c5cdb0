"""Rotation-invariant watermarking for spherical (equirectangular) images."""

import os as _os

# honor the thread cap before numpy/BLAS spin up their pools
_cap = _os.environ.get("SPHMARK_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "OPENBLAS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

__version__ = "0.1.0"

from .harmonics import (ShCoefficients, SymmetryError, forward_sht,
                        inverse_sht, make_cover, synth_random_bandlimited)
from .codec import (CodecConfig, SignatureSet, embed, extract_nonblind,
                    compute_features, generate_patterns)
from .so3 import Rotation, random_rotation, rotate_coeffs, rotate_image

__all__ = [
    "__version__", "ShCoefficients", "SymmetryError", "forward_sht",
    "inverse_sht", "make_cover", "synth_random_bandlimited", "CodecConfig",
    "SignatureSet", "embed", "extract_nonblind", "compute_features",
    "generate_patterns", "Rotation", "random_rotation", "rotate_coeffs",
    "rotate_image",
]
