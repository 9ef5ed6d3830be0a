"""Finite-difference stencils shared by the verification routines.

Interior nodes use 4th-order central differences; the two nodes nearest
each boundary fall back to numpy.gradient and are excluded from residual
maxima (see INTERIOR_TRIM).
"""

import numpy as np

INTERIOR_TRIM = 2


def _axslice(ndim, axis, s):
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def d1(a, h, axis=0):
    """First derivative along axis, 4th-order central in the interior."""
    a = np.asarray(a, dtype=float)
    out = np.gradient(a, h, axis=axis)
    n = a.shape[axis]
    if n >= 5:
        sl = lambda s0, s1: _axslice(a.ndim, axis, slice(s0, s1))
        out[sl(2, n - 2)] = (
            -a[sl(4, n)] + 8 * a[sl(3, n - 1)]
            - 8 * a[sl(1, n - 3)] + a[sl(0, n - 4)]
        ) / (12.0 * h)
    return out


def d2(a, h, axis=0):
    """Second derivative along axis, 4th-order central in the interior."""
    a = np.asarray(a, dtype=float)
    out = np.gradient(np.gradient(a, h, axis=axis), h, axis=axis)
    n = a.shape[axis]
    if n >= 5:
        sl = lambda s0, s1: _axslice(a.ndim, axis, slice(s0, s1))
        out[sl(2, n - 2)] = (
            -a[sl(4, n)] + 16 * a[sl(3, n - 1)] - 30 * a[sl(2, n - 2)]
            + 16 * a[sl(1, n - 3)] - a[sl(0, n - 4)]
        ) / (12.0 * h * h)
    return out


def interior(a):
    """View of a with INTERIOR_TRIM nodes removed on each side of axes 0
    and 1; a grid too small to keep a node raises ValueError."""
    a = np.asarray(a)
    t = INTERIOR_TRIM
    nu, nv = a.shape[:2]
    if min(nu, nv) <= 2 * t:
        raise ValueError(f"a grid of {nu} x {nv} nodes has no interior; "
                         f"residuals need at least {2 * t + 1} nodes per direction")
    return a[t:nu - t, t:nv - t]


def max_interior(a):
    return float(np.max(np.abs(interior(a))))
