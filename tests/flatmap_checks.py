"""Flat-map constructions that only the tests use: the polar flat map and
the normal shape check of a flat map's derivatives."""

import math

import numpy as np

from flatsurf4 import _fd as fd
from flatsurf4.flatmap import FlatMapGrid


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def polar_dual(g: FlatMapGrid) -> FlatMapGrid:
    """The polar flat map (F, Fh) -> (Fh, -F) with angle w + pi, built on
    the polar factors (ProductFactors.polar) of g."""
    return FlatMapGrid(g.spec, g.factors().polar(), g.omega_grid + math.pi,
                       g.omega_fn.shifted(math.pi), g.lattice)


def normal_shape_check(g: FlatMapGrid):
    """Product of the polar-map eigenvalue ratios; equals -1 on flat maps.

    Writes (Fh_u, Fh_v) in the tangent basis (F_u, F_v) and returns the
    max deviation |det M + 1| over interior nodes where |sin w| >= 0.1.
    """
    Fu, Fv, Fhu, Fhv = g.derivatives()
    E = _dot(Fu, Fu)
    Fm = _dot(Fu, Fv)
    G = _dot(Fv, Fv)
    det_gram = E * G - Fm * Fm
    # components of Fh_u, Fh_v against the Gram matrix of (F_u, F_v)
    b1u, b2u = _dot(Fhu, Fu), _dot(Fhu, Fv)
    b1v, b2v = _dot(Fhv, Fu), _dot(Fhv, Fv)
    m11 = (G * b1u - Fm * b2u)
    m21 = (E * b2u - Fm * b1u)
    m12 = (G * b1v - Fm * b2v)
    m22 = (E * b2v - Fm * b1v)
    with np.errstate(invalid="ignore", divide="ignore"):
        detM = (m11 * m22 - m12 * m21) / det_gram ** 2
    mask = np.abs(np.sin(g.omega_grid)) >= 0.1
    mask = fd.interior(mask)
    vals = fd.interior(detM)[mask]
    if vals.size == 0:
        raise ValueError("no interior nodes with sin w bounded away from 0")
    return float(np.max(np.abs(vals + 1.0)))
