"""Assembly of flat immersions f = alpha N + beta Nhat + alpha_u N_u
+ beta_u Nhat_u and their per-node diagnostics.

With A = alpha + alpha_uu + w_u beta_u and B = beta + beta_uu - w_u alpha_u
(and their rotation Ahat, Bhat by the system matrix), the tangents are
f_u = A N_u + B Nhat_u, f_v = Ahat N_u + Bhat Nhat_u, the induced metric is

    <df,df> = (A^2+B^2)(du^2+dv^2)
              + 2((A^2-B^2) cos w + 2AB sin w) du dv,

and the node is regular iff the margin (A^2-B^2) sin w - 2AB cos w is
nonzero.  Note E^2 = F^2 + margin^2, so the metric degenerates exactly
where the margin vanishes.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _fd as fd
from .errors import (DegenerateMetric, GridMismatch, NoLambdaFound,
                     PreconditionViolated)
from .flatmap import FlatMapGrid, GridSpec, _write_grid_csv, verify_flat_map
from .hypsys import DERIVATIVE_FIELDS, SolutionGrid

K_TRIM = 4  # Brioschi needs second derivatives of first derivatives


@dataclass
class ImmersionGrid:
    spec: GridSpec
    f: np.ndarray          # (Nu, Nv, 4)
    A: np.ndarray
    B: np.ndarray
    Ahat: np.ndarray
    Bhat: np.ndarray
    margin: np.ndarray     # (A^2-B^2) sin w - 2AB cos w
    E: np.ndarray          # = G = A^2 + B^2
    Fm: np.ndarray         # (A^2-B^2) cos w + 2AB sin w
    K_est: Optional[np.ndarray] = None     # set by flatness_check

    @property
    def G(self):
        """The metric coefficient <f_v, f_v>, which equals E."""
        return self.E

    def margin_min(self):
        return float(np.min(fd.interior(self.margin)))

    def metric_min_eigenvalue(self):
        """Smallest eigenvalue of [[E, F], [F, G]] over interior nodes."""
        return float(np.min(fd.interior(self.E - np.abs(self.Fm))))

    def max_radius(self):
        return float(np.max(np.linalg.norm(self.f, axis=-1)))


def _angle_terms(gmap: FlatMapGrid):
    """(w_u, cos w, sin w) on the grid of the flat map."""
    w = gmap.omega_grid
    return gmap.omega_u_grid(), np.cos(w), np.sin(w)


def _margin_terms(sol: SolutionGrid, wu, cw, sw):
    """(alpha_u, beta_u, A, B, margin) of a solution with analytic
    derivatives; no f is built."""
    if not sol.has_analytic_derivatives:
        raise PreconditionViolated(
            f"the {sol.provenance!r} solution carries no analytic "
            "derivatives, which the representation formula needs")
    au, bu = sol.alpha_u, sol.beta_u
    A = sol.alpha + sol.alpha_uu + wu * bu
    B = sol.beta + sol.beta_uu - wu * au
    margin = (A * A - B * B) * sw - 2.0 * A * B * cw
    return au, bu, A, B, margin


def assemble(gmap: FlatMapGrid, sol: SolutionGrid) -> ImmersionGrid:
    """Evaluate the representation formula on matching grids."""
    if not sol.spec.same_geometry(gmap.spec):
        raise GridMismatch("flat map and solution grids differ")
    wu, cw, sw = _angle_terms(gmap)
    au, bu, A, B, margin = _margin_terms(sol, wu, cw, sw)
    Nu_, Nhu_ = gmap.u_derivatives()

    f = (sol.alpha[..., None] * gmap.F + sol.beta[..., None] * gmap.Fhat
         + au[..., None] * Nu_ + bu[..., None] * Nhu_)
    Ahat = cw * A + sw * B
    Bhat = sw * A - cw * B
    E = A * A + B * B
    Fm = (A * A - B * B) * cw + 2.0 * A * B * sw

    return ImmersionGrid(gmap.spec, f, A, B, Ahat, Bhat, margin, E, Fm)


# ---------------------------------------------------------------------------
# frame and tangency diagnostics


def verify_frame(gmap: FlatMapGrid) -> float:
    """verify_flat_map(gmap).frame_residual: the max deviation of the Gram
    matrix of {N, Nhat, N_u, Nhat_u} from I_4 under central differences.
    Kept as a function because the benchmark's tracer times it by name."""
    return verify_flat_map(gmap).frame_residual


def tangency_check(im: ImmersionGrid, gmap: FlatMapGrid):
    """Residuals of f_u = A N_u + B Nh_u and f_v = Ahat N_u + Bhat Nh_u.

    f is differentiated by central differences; the frame derivatives come
    from the flat map (analytic for constructed grids).
    """
    Nu_, Nhu_ = gmap.u_derivatives()
    fu = fd.d1(im.f, im.spec.hu, axis=0)
    fv = fd.d1(im.f, im.spec.hv, axis=1)
    ru = fu - im.A[..., None] * Nu_ - im.B[..., None] * Nhu_
    rv = fv - im.Ahat[..., None] * Nu_ - im.Bhat[..., None] * Nhu_
    return (fd.max_interior(np.linalg.norm(ru, axis=-1)),
            fd.max_interior(np.linalg.norm(rv, axis=-1)))


def metric_identity_check(im: ImmersionGrid):
    """Finite-difference first fundamental form of f against (E, F, G)."""
    fu = fd.d1(im.f, im.spec.hu, axis=0)
    fv = fd.d1(im.f, im.spec.hv, axis=1)
    dot = lambda a, b: np.einsum("...k,...k->...", a, b)
    return max(fd.max_interior(dot(fu, fu) - im.E),
               fd.max_interior(dot(fu, fv) - im.Fm),
               fd.max_interior(dot(fv, fv) - im.G))


def derived_solution(im: ImmersionGrid) -> SolutionGrid:
    """The (A, B) grid as a SolutionGrid; it re-solves the system."""
    return SolutionGrid(im.spec, im.A.copy(), im.B.copy(), "derived")


# ---------------------------------------------------------------------------
# Gaussian curvature via the Brioschi formula


def brioschi_curvature(E, F, G, hu, hv):
    """Discrete Gaussian curvature of E du^2 + 2F du dv + G dv^2.

    Nodes where EG - F^2 <= 1e-8 (or too close to the boundary for the
    stencils) are NaN.
    """
    Eu, Ev = fd.d1(E, hu, axis=0), fd.d1(E, hv, axis=1)
    Gu, Gv = fd.d1(G, hu, axis=0), fd.d1(G, hv, axis=1)
    Fu, Fv = fd.d1(F, hu, axis=0), fd.d1(F, hv, axis=1)
    Evv = fd.d2(E, hv, axis=1)
    Guu = fd.d2(G, hu, axis=0)
    Fuv = fd.d1(fd.d1(F, hu, axis=0), hv, axis=1)

    det = E * G - F * F
    # expanded 3x3 determinants of the Brioschi matrices
    det_m1 = ((-0.5 * Evv + Fuv - 0.5 * Guu) * (E * G - F * F)
              - 0.5 * Eu * ((Fv - 0.5 * Gu) * G - 0.5 * Gv * F)
              + (Fu - 0.5 * Ev) * ((Fv - 0.5 * Gu) * F - 0.5 * Gv * E))
    det_m2 = (0.0 * E
              - 0.5 * Ev * (0.5 * Ev * G - 0.5 * Gu * F)
              + 0.5 * Gu * (0.5 * Ev * F - 0.5 * Gu * E))
    with np.errstate(invalid="ignore", divide="ignore"):
        K = (det_m1 - det_m2) / det ** 2
    K = np.where(det > 1e-8, K, np.nan)
    mask = np.zeros_like(K, dtype=bool)
    mask[K_TRIM:K.shape[0] - K_TRIM, K_TRIM:K.shape[1] - K_TRIM] = True
    return np.where(mask, K, np.nan)


def flatness_check(im: ImmersionGrid):
    """Max |K| over the valid interior, kept as im.K_est; raises
    DegenerateMetric if no node is valid."""
    if im.K_est is None:
        im.K_est = brioschi_curvature(im.E, im.Fm, im.G, im.spec.hu, im.spec.hv)
    valid = np.isfinite(im.K_est)
    if not valid.any():
        raise DegenerateMetric("metric is singular on the whole tested region")
    return float(np.max(np.abs(im.K_est[valid])))


# ---------------------------------------------------------------------------
# affine-sphere fit


@dataclass(frozen=True)
class SphereFit:
    center: np.ndarray
    radius: float
    rms_residual: float


def sphere_fit(im_or_points) -> SphereFit:
    """Least-squares affine 3-sphere through the sampled surface.

    Solves |f|^2 = 2 <f, a> + (rho^2 - |a|^2) in the unknowns (a, const)
    with a tiny ridge so exactly spherical data stays well posed, then
    reports the rms of |f - a| - rho.
    """
    pts = im_or_points.f if hasattr(im_or_points, "f") else im_or_points
    pts = np.asarray(pts, dtype=float).reshape(-1, 4)
    if pts.shape[0] < 5:
        raise ValueError("sphere fit needs at least 5 points")
    A = np.concatenate([2.0 * pts, np.ones((pts.shape[0], 1))], axis=1)
    b = np.einsum("ij,ij->i", pts, pts)
    M = A.T @ A + 1e-12 * np.eye(5)
    x = np.linalg.solve(M, A.T @ b)
    center = x[:4]
    rad2 = x[4] + float(center @ center)
    radius = math.sqrt(max(rad2, 0.0))
    dist = np.linalg.norm(pts - center, axis=1) - radius
    return SphereFit(center, radius, float(np.sqrt(np.mean(dist ** 2))))


# ---------------------------------------------------------------------------
# lambda rescaling (the collapse toward the unperturbed Hopf surface)


def lambda_rescale(sol: SolutionGrid, lam) -> SolutionGrid:
    """(alpha, beta) -> (1 + lam alpha, lam beta); still a solution."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    scale = lambda arr: None if arr is None else lam * arr
    return replace(sol, alpha=1.0 + lam * sol.alpha, beta=lam * sol.beta,
                   **{k: scale(getattr(sol, k)) for k in DERIVATIVE_FIELDS})


def auto_lambda(gmap: FlatMapGrid, sol: SolutionGrid):
    """Halve lambda from 1 until min margin > 0.5 * min sin w.

    Under (1 + lam alpha, lam beta) the margin at each node is quadratic
    in lambda, sin w + 2 lam (A1 sin w - B1 cos w) + lam^2 margin_1 with
    (A1, B1) the coefficients of the unscaled solution, and it depends
    only on A, B and w.  So no f and no frame derivative is built: each
    halving evaluates the margin by the same code as assemble, and the
    margin tested here is the one assemble would report.  As lambda -> 0
    the margin converges uniformly to sin w, so this terminates whenever
    sin w is bounded away from zero on the grid.
    """
    if not sol.spec.same_geometry(gmap.spec):
        raise GridMismatch("flat map and solution grids differ")
    s_min = float(np.min(np.sin(fd.interior(gmap.omega_grid))))
    if s_min <= 0.0:
        raise NoLambdaFound(
            f"min sin w = {s_min:.3e} is not positive; no margin target exists")
    wu, cw, sw = _angle_terms(gmap)
    lam = 1.0
    while lam >= 1e-12:
        margin = _margin_terms(lambda_rescale(sol, lam), wu, cw, sw)[-1]
        if float(np.min(fd.interior(margin))) > 0.5 * s_min:
            return lam
        lam *= 0.5
    raise NoLambdaFound("lambda underflowed 1e-12 without clearing "
                        f"margin > 0.5 * {s_min:.3e}")


# ---------------------------------------------------------------------------
# CSV export


IMMERSION_HEADER = "u,v,x1,x2,x3,x4,A,B,margin,K"


def write_immersion_csv(im: ImmersionGrid, path):
    """Write im as CSV with the columns of IMMERSION_HEADER (see GridSpec).

    K is NaN where no curvature estimate exists (near the boundary, or
    everywhere when flatness_check has not run on im).
    """
    K = im.K_est if im.K_est is not None else np.full_like(im.A, np.nan)
    _write_grid_csv(path, IMMERSION_HEADER, im.spec, im.f, im.A, im.B,
                    im.margin, K)
