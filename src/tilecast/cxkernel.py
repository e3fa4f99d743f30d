"""Minimal complex-vector kernels shared by the beamforming and solver code.

Vectors are 1-D numpy arrays of complex128. All routines check lengths and
keep double precision throughout; single precision drifts too much over the
dual iterations downstream.
"""

import numpy as np


def as_cvec(a) -> np.ndarray:
    """Coerce to a 1-D complex128 array with finite entries."""
    v = np.asarray(a, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ValueError("non-finite entry in complex vector")
    return v


def cdot(a, b) -> complex:
    """Inner product with the conjugate on the FIRST argument: sum conj(a_i)*b_i."""
    a = as_cvec(a)
    b = as_cvec(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.vdot(a, b))

