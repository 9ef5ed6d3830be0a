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

An assembled immersion is checked in two walks over its row tiles:
metric_checks over its metric, tangency_check over f (differenced once
per tile for the tangency and the metric-identity residuals).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _fd as fd
from .errors import (DegenerateMetric, GridMismatch, NoLambdaFound,
                     PreconditionViolated)
from .flatmap import FlatMapGrid, GridSpec, _write_grid_csv, verify_flat_map
from .hypsys import DERIVATIVE_FIELDS, SolutionGrid

K_TRIM = 4  # Brioschi needs second derivatives of first derivatives


@dataclass
class ImmersionGrid:
    """f, the coefficients A, B and the angle terms cos w, sin w of the flat
    map (read-only broadcast views for a Hopf map).  Every other per-node
    field is an elementwise function of A, B and w, formed by metric(rows)
    and margin(rows) on the rows a reader asks for, so f, A and B are the
    only grids an immersion holds."""
    spec: GridSpec
    f: np.ndarray          # (Nu, Nv, 4)
    A: np.ndarray
    B: np.ndarray
    cos_w: np.ndarray
    sin_w: np.ndarray

    def metric(self, rows):
        """(E, Fm) on the u-rows rows (a slice): E = A^2 + B^2 =
        <f_u, f_u> = <f_v, f_v> and Fm = (A^2-B^2) cos w + 2AB sin w =
        <f_u, f_v>."""
        A, B, cw, sw = (x[rows] for x in (self.A, self.B, self.cos_w,
                                           self.sin_w))
        return A * A + B * B, (A * A - B * B) * cw + 2.0 * A * B * sw

    def margin(self, rows):
        """The margin (A^2-B^2) sin w - 2AB cos w on the u-rows rows."""
        return _margin(*(x[rows] for x in (self.A, self.B, self.cos_w,
                                           self.sin_w)))


def _angle_terms(gmap: FlatMapGrid):
    """(w_u, cos w, sin w) on the grid of the flat map; w_u is one (nu, 1)
    column, since w_u depends on u alone.  When omega_grid is a broadcast
    view of its u-column (a Hopf map), cos w and sin w are taken on that
    column and broadcast too, with the same values, so they hold no grid."""
    gmap.factors()  # product-form maps carry their angle function
    w = gmap.omega_grid
    col = w[:, :1] if w.strides[1] == 0 else w
    return (gmap.omega_fn.omega_u(gmap.spec.u_nodes)[:, None],
            np.broadcast_to(np.cos(col), w.shape),
            np.broadcast_to(np.sin(col), w.shape))


def _coefficients(sol: SolutionGrid, wu):
    """(alpha_u, beta_u, A, B) of a solution with analytic derivatives."""
    if not sol.has_analytic_derivatives:
        raise PreconditionViolated(
            f"the {sol.provenance!r} solution carries no analytic "
            "derivatives, which the representation formula needs")
    au, bu = sol.alpha_u, sol.beta_u
    return (au, bu, sol.alpha + sol.alpha_uu + wu * bu,
            sol.beta + sol.beta_uu - wu * au)


def _margin(A, B, cw, sw):
    """The margin (A^2-B^2) sin w - 2AB cos w, nonzero where the node is
    regular."""
    return (A * A - B * B) * sw - 2.0 * A * B * cw


def assemble(gmap: FlatMapGrid, sol) -> ImmersionGrid:
    """Evaluate the representation formula on matching grids.

    sol is a SolutionGrid, a hypsys.FactorSolution or a lambda_rescale of
    one; it is read tile by tile (sol.tile), and so are the flat map
    (gmap.maps) and its u-frame, so the only grids built are f, A and B.
    """
    if not sol.spec.same_geometry(gmap.spec):
        raise GridMismatch("flat map and solution grids differ")
    wu, cw, sw = _angle_terms(gmap)
    shape = (gmap.spec.nu, gmap.spec.nv)
    f, A, B = np.empty(shape + (4,)), np.empty(shape), np.empty(shape)
    for rows, slab, core in fd.row_tiles(gmap.spec.nu):
        part = sol.tile(rows, slab, core)
        au, bu, A[rows], B[rows] = _coefficients(part, wu[rows])
        # f = alpha N + beta Nh + alpha_u N_u + beta_u Nh_u, summed in
        # that order into the tile of f
        ft = f[rows]
        N, Nh = gmap.maps(rows)
        np.multiply(part.alpha[:, :, None], N, out=ft)
        ft += part.beta[:, :, None] * Nh
        del N, Nh
        Nu_, Nhu_ = gmap.factors().u_frame(rows)
        ft += au[:, :, None] * Nu_
        ft += bu[:, :, None] * Nhu_
    return ImmersionGrid(gmap.spec, f, A, B, cw, sw)


# ---------------------------------------------------------------------------
# frame and tangency diagnostics


def verify_frame(gmap: FlatMapGrid) -> float:
    """verify_flat_map(gmap).frame_residual: the max deviation of the Gram
    matrix of {N, Nhat, N_u, Nhat_u} from I_4 under central differences.
    Kept as a function because the benchmark's tracer times it by name."""
    return verify_flat_map(gmap).frame_residual


def tangency_check(im: ImmersionGrid, gmap: FlatMapGrid):
    """{tangency_u, tangency_v, metric_identity} of im on gmap, from one
    walk over the row tiles of f (fd.row_tiles) that differences each tile
    once along u (on its slab) and once along v; no grid is kept.

    tangency_u and tangency_v are the max residuals of f_u = A N_u + B Nh_u
    and f_v = Ahat N_u + Bhat Nh_u, with the frame derivatives from the
    factor curves of the flat map (ProductFactors.u_frame) and
    Ahat = A cos w + B sin w, Bhat = A sin w - B cos w from the fields of
    im; metric_identity is the max deviation of <f_u, f_u>, <f_u, f_v> and
    <f_v, f_v> from E, Fm and E (im.metric).
    """
    f, hu, hv = im.f, im.spec.hu, im.spec.hv
    dot = lambda a, b: np.einsum("...k,...k->...", a, b)

    def terms(rows, slab, core):
        Nu_, Nhu_ = gmap.factors().u_frame(rows)
        fu = fd.d1(f[slab], hu, axis=0)[core]
        fv = fd.d1(f[rows], hv, axis=1)
        A, B, cw, sw = im.A[rows], im.B[rows], im.cos_w[rows], im.sin_w[rows]
        Ahat, Bhat = cw * A + sw * B, sw * A - cw * B
        ru = fu - A[:, :, None] * Nu_ - B[:, :, None] * Nhu_
        rv = fv - Ahat[:, :, None] * Nu_ - Bhat[:, :, None] * Nhu_
        E, Fm = im.metric(rows)
        return {"u": np.linalg.norm(ru, axis=-1),
                "v": np.linalg.norm(rv, axis=-1), "E": dot(fu, fu) - E,
                "F": dot(fu, fv) - Fm, "G": dot(fv, fv) - E}

    m = fd.tiled_max_interior(f.shape, terms)
    return {"tangency_u": m["u"], "tangency_v": m["v"],
            "metric_identity": max(m["E"], m["F"], m["G"])}


def metric_identity_check(im: ImmersionGrid, gmap: FlatMapGrid) -> float:
    """tangency_check(im, gmap)["metric_identity"].  Kept as a function
    because the benchmark's tracer times it by name."""
    return tangency_check(im, gmap)["metric_identity"]


def derived_solution(im: ImmersionGrid) -> SolutionGrid:
    """The (A, B) grid as a SolutionGrid; it re-solves the system.  Its
    alpha and beta are im.A and im.B themselves, not copies."""
    return SolutionGrid(im.spec, im.A, im.B, "derived")


# ---------------------------------------------------------------------------
# Gaussian curvature via the Brioschi formula


def brioschi_curvature(E, F, hu, hv):
    """Discrete Gaussian curvature of E (du^2 + dv^2) + 2F du dv.

    Nodes where E^2 - F^2 <= 1e-8 (or too close to the boundary for the
    stencils) are NaN.  K is computed on the whole arrays given; a full
    grid is walked in row tiles by _metric_tiles, which hands it slabs.
    """
    Eu, Ev = fd.d1(E, hu, axis=0), fd.d1(E, hv, axis=1)
    Fu, Fv = fd.d1(F, hu, axis=0), fd.d1(F, hv, axis=1)
    Evv, Euu = fd.d2(E, hv, axis=1), fd.d2(E, hu, axis=0)
    Fuv = fd.d1(Fu, hv, axis=1)

    det = E * E - F * F
    # expanded 3x3 determinants of the Brioschi matrices
    det_m1 = ((-0.5 * Evv + Fuv - 0.5 * Euu) * det
              - 0.5 * Eu * ((Fv - 0.5 * Eu) * E - 0.5 * Ev * F)
              + (Fu - 0.5 * Ev) * ((Fv - 0.5 * Eu) * F - 0.5 * Ev * E))
    det_m2 = (0.0 * E
              - 0.5 * Ev * (0.5 * Ev * E - 0.5 * Eu * F)
              + 0.5 * Eu * (0.5 * Ev * F - 0.5 * Eu * E))
    with np.errstate(invalid="ignore", divide="ignore"):
        K = np.where(det > 1e-8, (det_m1 - det_m2) / det ** 2, np.nan)
    keep = np.zeros(K.shape, dtype=bool)
    keep[K_TRIM:K.shape[0] - K_TRIM, K_TRIM:K.shape[1] - K_TRIM] = True
    K[~keep] = np.nan
    return K


def _metric_tiles(im: ImmersionGrid, rows):
    """Yield (tile, E, Fm, K) over the row tiles of the u-rows rows (a
    slice with start and stop) of im, with (E, Fm) = im.metric(tile) and K
    its brioschi_curvature.  The metric is formed once, on the tile's rows
    widened by K_TRIM rows on each side (clipped to the grid); K is taken
    on that slab, and all three are cut back to the tile:
    brioschi_curvature leaves its K_TRIM edge rows NaN and reads no further
    than that, so the tile's K is that of the whole grid, bit for bit."""
    nu, hu, hv = im.spec.nu, im.spec.hu, im.spec.hv
    for t, _, _ in fd.row_tiles(rows.stop - rows.start):
        tile = slice(rows.start + t.start, rows.start + t.stop)
        s0 = max(tile.start - K_TRIM, 0)
        E, Fm = im.metric(slice(s0, min(tile.stop + K_TRIM, nu)))
        K = brioschi_curvature(E, Fm, hu, hv)
        core = slice(tile.start - s0, tile.stop - s0)
        yield tile, E[core], Fm[core], K[core]


def metric_checks(im: ImmersionGrid):
    """{margin_min, metric_min_eigenvalue, gauss_K_max, max_radius} of im,
    from one walk over its row tiles (_metric_tiles); no grid is kept.

    The margin and the metric's min eigenvalue E - |Fm| are minima over
    the grid's interior, gauss_K_max the max |K| over the nodes with a
    curvature estimate, max_radius the max |f| over all nodes.  A grid
    without an interior raises ValueError, as does one with fewer than
    2 K_TRIM + 1 nodes in a direction; DegenerateMetric if no node has a
    curvature estimate.
    """
    nu, nv = im.spec.nu, im.spec.nv
    fd._check_interior(nu, nv)
    if min(nu, nv) <= 2 * K_TRIM:
        raise ValueError(f"a grid of {nu} x {nv} nodes is too small for the "
                         f"curvature; the Brioschi stencils need at least "
                         f"{2 * K_TRIM + 1} nodes per direction")
    tiles = []
    for rows, E, Fm, K in _metric_tiles(im, slice(0, nu)):
        inner = lambda x: fd.tile_interior(x, rows, nu)
        tiles.append((np.min(inner(im.margin(rows)), initial=np.inf),
                      np.min(inner(E - np.abs(Fm)), initial=np.inf),
                      np.max(np.abs(K[np.isfinite(K)]), initial=-np.inf),
                      np.max(np.linalg.norm(im.f[rows], axis=-1))))
    margin, eigenvalue, curvature, radius = zip(*tiles)
    if max(curvature) == -np.inf:
        raise DegenerateMetric("metric is singular on the whole tested region")
    return {"margin_min": float(np.min(margin)),
            "metric_min_eigenvalue": float(np.min(eigenvalue)),
            "gauss_K_max": float(max(curvature)),
            "max_radius": float(np.max(radius))}


# ---------------------------------------------------------------------------
# affine-sphere fit


@dataclass(frozen=True)
class SphereFit:
    center: np.ndarray
    radius: float
    rms_residual: float


def _sphere_normal_equations(grid):
    """(M, r) of the least-squares system M x = r of sphere_fit for the
    (rows, per row, 4) points grid: with the rows a_p = (2 p, 1) and
    b_p = |p|^2, M = sum a_p a_p^T and r = sum b_p a_p, summed one grid row
    at a time in row order (a tile's rows by one batched product each), so
    that no (N, 5) matrix is built and the tile height changes no bit."""
    M, r = np.zeros((5, 5)), np.zeros((5, 1))
    for rows, _, _ in fd.row_tiles(grid.shape[0]):
        pts = grid[rows]
        a = np.concatenate([2.0 * pts, np.ones(pts.shape[:2] + (1,))], axis=-1)
        at = np.swapaxes(a, 1, 2)
        b = np.einsum("ijk,ijk->ij", pts, pts)[..., None]
        for Mi, ri in zip(at @ a, at @ b):
            M += Mi
            r += ri
    return M, r[:, 0]


def sphere_fit(grid) -> SphereFit:
    """Least-squares affine 3-sphere through the (nu, nv, 4) point grid of
    a sampled surface (an immersion's f).

    Solves |f|^2 = 2 <f, a> + (rho^2 - |a|^2) in the unknowns (a, const)
    with a tiny ridge so exactly spherical data stays well posed, then
    reports the rms of |f - a| - rho.  The normal equations are summed and
    the distances taken in tiles of u-rows (fd.row_tiles).
    """
    if grid.shape[0] * grid.shape[1] < 5:
        raise ValueError("sphere fit needs at least 5 points")
    M, r = _sphere_normal_equations(grid)
    x = np.linalg.solve(M + 1e-12 * np.eye(5), r)
    center = x[:4]
    rad2 = x[4] + float(center @ center)
    radius = math.sqrt(max(rad2, 0.0))
    dist = np.empty(grid.shape[:2])
    for rows, _, _ in fd.row_tiles(grid.shape[0]):
        dist[rows] = np.linalg.norm(grid[rows] - center, axis=-1) - radius
    dist **= 2
    return SphereFit(center, radius, float(np.sqrt(np.mean(dist.reshape(-1)))))


# ---------------------------------------------------------------------------
# lambda rescaling (the collapse toward the unperturbed Hopf surface)


@dataclass(frozen=True)
class _Rescaled:
    """lambda_rescale of a solution that is read tile by tile: each tile is
    rescaled where it is read."""

    spec: GridSpec
    sol: object
    lam: float

    def tile(self, rows, slab, core):
        return lambda_rescale(self.sol.tile(rows, slab, core), self.lam)


def lambda_rescale(sol, lam):
    """(alpha, beta) -> (1 + lam alpha, lam beta); still a solution.

    A SolutionGrid is rescaled whole; any other solution (a
    hypsys.FactorSolution) tile by tile where assemble reads it, with the
    same arithmetic on each node.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if not isinstance(sol, SolutionGrid):
        return _Rescaled(sol.spec, sol, lam)
    scale = lambda arr: None if arr is None else lam * arr
    return replace(sol, alpha=1.0 + lam * sol.alpha, beta=lam * sol.beta,
                   **{k: scale(getattr(sol, k)) for k in DERIVATIVE_FIELDS})


def auto_lambda(gmap: FlatMapGrid, sol):
    """Halve lambda from 1 until min margin > 0.5 * min sin w.

    Under (1 + lam alpha, lam beta) the margin at each node is quadratic
    in lambda, sin w + 2 lam (A1 sin w - B1 cos w) + lam^2 margin_1 with
    (A1, B1) the coefficients of the unscaled solution, and it depends
    only on A, B and w.  So no f and no frame derivative is built: each
    halving forms A, B and the margin by the same code as assemble and
    ImmersionGrid.margin, and the margin tested here is the one the
    assembled immersion would report.  As lambda -> 0
    the margin converges uniformly to sin w, so this terminates whenever
    sin w is bounded away from zero on the grid.  sol is read as assemble
    reads it: each halving reads it tile by tile (sol.tile, fd.row_tiles),
    rescales the tile and takes its minimum, so neither a whole solution
    nor a rescaled copy is held.
    """
    if not sol.spec.same_geometry(gmap.spec):
        raise GridMismatch("flat map and solution grids differ")
    wu, cw, sw = _angle_terms(gmap)
    s_min = float(np.min(fd.interior(sw)))
    if s_min <= 0.0:
        raise NoLambdaFound(
            f"min sin w = {s_min:.3e} is not positive; no margin target exists")
    nu = gmap.spec.nu
    lam = 1.0
    while lam >= 1e-12:
        minima = []
        for rows, slab, core in fd.row_tiles(nu):
            part = lambda_rescale(sol.tile(rows, slab, core), lam)
            A, B = _coefficients(part, wu[rows])[2:]
            margin = _margin(A, B, cw[rows], sw[rows])
            minima.append(np.min(fd.tile_interior(margin, rows, nu),
                                 initial=np.inf))
        if float(np.min(minima)) > 0.5 * s_min:
            return lam
        lam *= 0.5
    raise NoLambdaFound("lambda underflowed 1e-12 without clearing "
                        f"margin > 0.5 * {s_min:.3e}")


# ---------------------------------------------------------------------------
# CSV export


IMMERSION_HEADER = "u,v,x1,x2,x3,x4,A,B,margin,K"


def write_immersion_csv(im: ImmersionGrid, path):
    """Write im as CSV with the columns of IMMERSION_HEADER (see GridSpec).

    The margin and K are formed per block of rows, by the process that
    writes the block (this one, or the forked child of _write_halves): the
    margin by im.margin, K by a _metric_tiles walk over the block, so no
    process forms K for rows it does not write.  K is the Brioschi
    curvature of the metric, the estimate metric_checks takes its maximum
    of; it is NaN where no estimate exists: within K_TRIM nodes of the
    boundary (so everywhere on a grid too small for the stencils) and where
    the metric is singular.
    """
    def fields(rows):
        K = np.concatenate([K for *_, K in _metric_tiles(im, rows)])
        return im.f[rows], im.A[rows], im.B[rows], im.margin(rows), K

    _write_grid_csv(path, IMMERSION_HEADER, im.spec, fields)
