"""Constructions that only the tests use: the constant and shifted angle
functions, the polar flat map, the normal shape check of a flat map's
derivatives, linear combinations of solutions and the circle member of the
search family."""

import math
from dataclasses import replace

import numpy as np

from flatsurf4 import _fd as fd
from flatsurf4.curve import CurvatureProfile
from flatsurf4.errors import GridMismatch
from flatsurf4.flatmap import AngleFunction, FlatMapGrid
from flatsurf4.hypsys import DERIVATIVE_FIELDS, SolutionGrid
from flatsurf4.torusearch import (SearchOutcome, holonomy,
                                  holonomy_closure_residual)


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def constant_angle(w0):
    z = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return AngleFunction(lambda u: np.full_like(np.asarray(u, dtype=float), w0),
                         z, z, z)


def shifted(w: AngleFunction, delta):
    """The angle w + delta."""
    return AngleFunction(lambda u: np.asarray(w.f1(u)) + delta, w.df1,
                         w.f2, w.df2)


def polar_dual(g: FlatMapGrid) -> FlatMapGrid:
    """The polar flat map (F, Fh) -> (Fh, -F) with angle w + pi, built on
    the polar factors (ProductFactors.polar) of g."""
    return FlatMapGrid(g.spec, g.factors().polar(), g.omega_grid + math.pi,
                       shifted(g.omega_fn, math.pi))


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


def combine(x: SolutionGrid, y: SolutionGrid, a=1.0, b=1.0) -> SolutionGrid:
    """Linear combination a*x + b*y (the system is linear)."""
    if not x.spec.same_geometry(y.spec):
        raise GridMismatch("solution grids differ in geometry")

    def mix(p, q):
        if p is None or q is None:
            return None
        return a * p + b * q

    return replace(
        x, provenance=f"{x.provenance}+{y.provenance}",
        **{k: mix(getattr(x, k), getattr(y, k))
           for k in ("alpha", "beta") + DERIVATIVE_FIELDS})


def circle_outcome(k0):
    """The exact eps = 0 member of the family as a degenerate SearchOutcome (n = 2).

    The lift-monodromy phase is not differentiable in eps at 0 (it moves
    like |eps|), so a bisected near-zero root never closes as cleanly as
    the circle itself; control runs should start from this outcome.
    """
    profile = CurvatureProfile(math.pi, k0)
    ach = holonomy(profile.stretch(2))
    residual = holonomy_closure_residual(profile.stretch(2), 1)
    return SearchOutcome(profile, 2, ach, (0, 1), 0.0, 1e-3, 1, residual)
