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

An immersion keeps one grid, f.  A and B are pointwise functions of the
solution that assemble read, which a build holds as factors
(hypsys.FactorSolution), so the immersion keeps that solution
(Coefficients) and every reader forms (A, B) once per row tile or block
it reads, never for the whole grid.  An assembled immersion is checked in
two walks over its row tiles: metric_checks over its metric,
tangency_check over f (differenced once per tile for the tangency and the
metric-identity residuals).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _fd as fd
from .errors import (DegenerateMetric, GridMismatch, NoLambdaFound,
                     PreconditionViolated)
from .flatmap import (FlatMapGrid, GridSpec, _write_grid_csv, cos_sin,
                      verify_flat_map)
from .hypsys import DERIVATIVE_FIELDS, FactorSolution, SolutionGrid

K_TRIM = 4  # Brioschi needs second derivatives of first derivatives


@dataclass
class ImmersionGrid:
    """f, the source of its coefficients A and B, and the angle terms
    cos w, sin w of the flat map (read-only broadcast views for a Hopf
    map).

    source gives (A, B) on any u-rows (source.alpha_beta(rows)): a
    Coefficients in a build, or a SolutionGrid of A and B.  Every other
    per-node field is an elementwise function of A, B and w.  A reader
    forms (A, B) by coefficients(rows) once per row tile or block it reads
    and takes the metric and the margin from them (metric(rows) and
    margin(rows) form (A, B) for one call each), so f is the only grid an
    immersion holds."""
    spec: GridSpec
    f: np.ndarray          # (Nu, Nv, 4)
    source: object
    cos_w: np.ndarray
    sin_w: np.ndarray

    def coefficients(self, rows):
        """(A, B) on the u-rows rows (a slice)."""
        return self.source.alpha_beta(rows)

    def metric(self, rows):
        """(E, Fm) on the u-rows rows (a slice): E = A^2 + B^2 =
        <f_u, f_u> = <f_v, f_v> and Fm = (A^2-B^2) cos w + 2AB sin w =
        <f_u, f_v>."""
        return _metric(*self.coefficients(rows), self.cos_w[rows],
                       self.sin_w[rows])

    def margin(self, rows):
        """The margin (A^2-B^2) sin w - 2AB cos w on the u-rows rows."""
        return _margin(*self.coefficients(rows), self.cos_w[rows],
                       self.sin_w[rows])


@dataclass(frozen=True)
class Coefficients:
    """The coefficients (A, B) of the solution sol on the grid spec, on any
    u-rows: sol is read on the row tiles (fd.row_tiles, the tiles assemble
    read it on) that hold the rows, and A and B follow by _coefficients,
    wu being the (nu, 1) column of w_u.  sol is a SolutionGrid or a
    hypsys.FactorSolution.

    A FactorSolution's products can give a row other bits in another row
    set (see _fd); formed on its own tile, each node has one (A, B)
    whatever rows a reader asks for.  Two slots, allocated once so that
    no kept tile sits among a walk's temporaries, hold the last two tiles
    formed: a walk over consecutive tiles or blocks, each widened by a
    halo, forms each tile once.

    (A, B) solves the system again: a Coefficients is also a solution for
    system_residual, which reads it by alpha_beta one slab at a time."""

    spec: GridSpec
    sol: object
    wu: np.ndarray
    _slots: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def _tile(self, lo, hi):
        """(A, B) on the row tile lo..hi-1, as views of its slot."""
        if (lo, hi) not in self._slots:
            slot = (self._slots.pop(next(iter(self._slots)))
                    if len(self._slots) == 2 else ())
            if not slot or len(slot[0]) < hi - lo:
                shape = (fd.TILE_ROWS, self.spec.nv)
                slot = [np.empty(shape), np.empty(shape)]
            rows = slice(lo, hi)
            part = self.sol.tile(rows, *fd.slab_of(lo, hi, self.spec.nu))
            for x, value in zip(slot, _coefficients(part, self.wu[rows])):
                x[:hi - lo] = value
            self._slots[lo, hi] = slot
        return [x[:hi - lo] for x in self._slots[lo, hi]]

    def alpha_beta(self, rows):
        """(A, B) on the u-rows rows (a slice), new arrays copied from the
        row tiles that hold them; meant for one tile's or one block's
        rows."""
        nu, t = self.spec.nu, fd.TILE_ROWS
        lo, hi, _ = rows.indices(nu)
        shape = (hi - lo, self.spec.nv)
        A, B = np.empty(shape), np.empty(shape)
        for s in range(lo // t * t, hi, t):
            a, b = max(lo, s), min(hi, s + t)
            for x, y in zip((A, B), self._tile(s, min(s + t, nu))):
                x[a - lo:b - lo] = y[a - s:b - s]
        return A, B


def _angle_terms(gmap: FlatMapGrid):
    """(w_u, cos w, sin w) on the grid of the flat map; w_u is one (nu, 1)
    column, since w_u depends on u alone, and cos w and sin w hold no grid
    when omega_grid is a broadcast view of its u-column (cos_sin)."""
    gmap.factors()  # product-form maps carry their angle function
    return (gmap.omega_fn.omega_u(gmap.spec.u_nodes)[:, None],
            *cos_sin(gmap.omega_grid))


def _u_derivatives(sol: SolutionGrid):
    """(alpha_u, beta_u) of a solution with analytic derivatives."""
    if not sol.has_analytic_derivatives:
        raise PreconditionViolated(
            f"the {sol.provenance!r} solution carries no analytic "
            "derivatives, which the representation formula needs")
    return sol.alpha_u, sol.beta_u


def _coefficients(sol: SolutionGrid, wu):
    """(A, B) of a solution with analytic derivatives: the one formula of
    the immersion's coefficients (Coefficients) and of auto_lambda."""
    au, bu = _u_derivatives(sol)
    return sol.alpha + sol.alpha_uu + wu * bu, sol.beta + sol.beta_uu - wu * au


def _metric(A, B, cw, sw):
    """(E, Fm) = (A^2 + B^2, (A^2-B^2) cos w + 2AB sin w)."""
    return A * A + B * B, (A * A - B * B) * cw + 2.0 * A * B * sw


def _margin(A, B, cw, sw):
    """The margin (A^2-B^2) sin w - 2AB cos w, nonzero where the node is
    regular."""
    return (A * A - B * B) * sw - 2.0 * A * B * cw


def assemble(gmap: FlatMapGrid, sol) -> ImmersionGrid:
    """Evaluate the representation formula on matching grids.

    sol is a SolutionGrid or a hypsys.FactorSolution; it is read tile by
    tile (sol.tile), and so are the flat map (gmap.maps) and its u-frame,
    so the one grid built is f.  The immersion keeps sol as the source of
    its coefficients (Coefficients), which its readers form per row tile
    or block.
    """
    if not sol.spec.same_geometry(gmap.spec):
        raise GridMismatch("flat map and solution grids differ")
    wu, cw, sw = _angle_terms(gmap)
    f = np.empty((gmap.spec.nu, gmap.spec.nv, 4))
    for rows, slab, core in fd.row_tiles(gmap.spec.nu):
        part = sol.tile(rows, slab, core)
        au, bu = _u_derivatives(part)
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
    return ImmersionGrid(gmap.spec, f, Coefficients(gmap.spec, sol, wu),
                         cw, sw)


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
    Ahat = A cos w + B sin w, Bhat = A sin w - B cos w from the (A, B) of
    im, formed once per tile; metric_identity is the max deviation of
    <f_u, f_u>, <f_u, f_v> and <f_v, f_v> from E, Fm and E (the metric of
    that (A, B)).
    """
    f, hu, hv = im.f, im.spec.hu, im.spec.hv
    dot = lambda a, b: np.einsum("...k,...k->...", a, b)

    def terms(rows, slab, core):
        A, B = im.coefficients(rows)
        cw, sw = im.cos_w[rows], im.sin_w[rows]
        Nu_, Nhu_ = gmap.factors().u_frame(rows)
        fu = fd.d1(f[slab], hu, axis=0)[core]
        fv = fd.d1(f[rows], hv, axis=1)
        Ahat, Bhat = cw * A + sw * B, sw * A - cw * B
        yield "u", np.linalg.norm(fu - A[:, :, None] * Nu_
                                  - B[:, :, None] * Nhu_, axis=-1)
        yield "v", np.linalg.norm(fv - Ahat[:, :, None] * Nu_
                                  - Bhat[:, :, None] * Nhu_, axis=-1)
        E, Fm = _metric(A, B, cw, sw)
        yield "E", dot(fu, fu) - E
        yield "F", dot(fu, fv) - Fm
        yield "G", dot(fv, fv) - E

    m = fd.tiled_max_interior(f.shape, terms)
    return {"tangency_u": m["u"], "tangency_v": m["v"],
            "metric_identity": max(m["E"], m["F"], m["G"])}


def metric_identity_check(im: ImmersionGrid, gmap: FlatMapGrid) -> float:
    """tangency_check(im, gmap)["metric_identity"].  Kept as a function
    because the benchmark's tracer times it by name."""
    return tangency_check(im, gmap)["metric_identity"]


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
    """Yield (tile, A, B, margin, E, Fm, K) over the row tiles of the
    u-rows rows (a slice with start and stop) of im: (A, B) =
    im.coefficients(tile), their margin and metric (E, Fm), and K its
    brioschi_curvature.  (A, B) and the metric are formed once, on the
    tile's rows widened by K_TRIM rows on each side (clipped to the grid);
    K is taken on that slab, and all are cut back to the tile:
    brioschi_curvature leaves its K_TRIM edge rows NaN and reads no further
    than that, so the tile's K is that of the whole grid, bit for bit."""
    nu, hu, hv = im.spec.nu, im.spec.hu, im.spec.hv
    for t, _, _ in fd.row_tiles(rows.stop - rows.start):
        tile = slice(rows.start + t.start, rows.start + t.stop)
        s0 = max(tile.start - K_TRIM, 0)
        wide = slice(s0, min(tile.stop + K_TRIM, nu))
        A, B = im.coefficients(wide)
        cw, sw = im.cos_w[wide], im.sin_w[wide]
        E, Fm = _metric(A, B, cw, sw)
        K = brioschi_curvature(E, Fm, hu, hv)
        core = slice(tile.start - s0, tile.stop - s0)
        A, B, cw, sw = A[core], B[core], cw[core], sw[core]
        yield tile, A, B, _margin(A, B, cw, sw), E[core], Fm[core], K[core]


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
    for rows, _, _, margin, E, Fm, K in _metric_tiles(im, slice(0, nu)):
        inner = lambda x: fd.tile_interior(x, rows, nu)
        tiles.append((np.min(inner(margin), initial=np.inf),
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
    reports the rms of |f - a| - rho.  The normal equations and the
    squared distances are summed in tiles of u-rows (fd.row_tiles), the
    tile sums of the distances by math.fsum, so no grid is kept.
    """
    n = grid.shape[0] * grid.shape[1]
    if n < 5:
        raise ValueError("sphere fit needs at least 5 points")
    M, r = _sphere_normal_equations(grid)
    x = np.linalg.solve(M + 1e-12 * np.eye(5), r)
    center = x[:4]
    rad2 = x[4] + float(center @ center)
    radius = math.sqrt(max(rad2, 0.0))
    dist = lambda rows: np.linalg.norm(grid[rows] - center, axis=-1) - radius
    squares = math.fsum(np.sum(dist(rows) ** 2)
                        for rows, _, _ in fd.row_tiles(grid.shape[0]))
    return SphereFit(center, radius, math.sqrt(squares / n))


# ---------------------------------------------------------------------------
# lambda rescaling (the collapse toward the unperturbed Hopf surface)


def lambda_rescale(sol, lam):
    """(alpha, beta) -> (1 + lam alpha, lam beta), a solution of sol's type.

    A hypsys.FactorSolution is linear in its blocks aR, aRd and in rho:
    its rescaling is the FactorSolution with blocks lam aR, lam aRd and
    rho 1 + lam rho.  A SolutionGrid is rescaled field by field.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if isinstance(sol, FactorSolution):
        return replace(sol, aR=lam * sol.aR, aRd=lam * sol.aRd,
                       rho=1.0 + lam * sol.rho)
    scale = lambda arr: None if arr is None else lam * arr
    return replace(sol, alpha=1.0 + lam * sol.alpha, beta=lam * sol.beta,
                   **{k: scale(getattr(sol, k)) for k in DERIVATIVE_FIELDS})


def auto_lambda(gmap: FlatMapGrid, sol):
    """Halve lambda from 1 until min margin > 0.5 * min sin w.

    Under (1 + lam alpha, lam beta) the margin at each node is quadratic
    in lambda, sin w + 2 lam (A1 sin w - B1 cos w) + lam^2 margin_1 with
    (A1, B1) the coefficients of the unscaled solution, and it depends
    only on A, B and w.  So no f and no frame derivative is built: each
    halving forms one lambda_rescale of sol and reads it tile by tile
    (tile, fd.row_tiles, the tiles the immersion's Coefficients read),
    forming A, B and the margin by the same code as the immersion, so the
    margin tested here is the one the assembled immersion would report.
    A halving ends at its first tile whose interior margin fails.  As
    lambda -> 0 the margin converges uniformly to sin w, so this
    terminates whenever sin w is bounded away from zero on the grid.
    """
    if not sol.spec.same_geometry(gmap.spec):
        raise GridMismatch("flat map and solution grids differ")
    wu, cw, sw = _angle_terms(gmap)
    s_min = float(np.min(fd.interior(sw)))
    if s_min <= 0.0:
        raise NoLambdaFound(
            f"min sin w = {s_min:.3e} is not positive; no margin target exists")
    nu = gmap.spec.nu

    def clears(scaled, rows, slab, core):
        A, B = _coefficients(scaled.tile(rows, slab, core), wu[rows])
        margin = _margin(A, B, cw[rows], sw[rows])
        return (np.min(fd.tile_interior(margin, rows, nu), initial=np.inf)
                > 0.5 * s_min)

    lam = 1.0
    while lam >= 1e-12:
        scaled = lambda_rescale(sol, lam)
        if all(clears(scaled, *tile) for tile in fd.row_tiles(nu)):
            return lam
        lam *= 0.5
    raise NoLambdaFound("lambda underflowed 1e-12 without clearing "
                        f"margin > 0.5 * {s_min:.3e}")


# ---------------------------------------------------------------------------
# CSV export


IMMERSION_HEADER = "u,v,x1,x2,x3,x4,A,B,margin,K"


def write_immersion_csv(im: ImmersionGrid, path):
    """Write im as CSV with the columns of IMMERSION_HEADER (see GridSpec).

    A, B, the margin and K are formed per block of rows, by the process
    that writes the block (this one, or the forked child of _write_halves),
    in one _metric_tiles walk over the block that forms (A, B) once per
    tile, so no process forms them for rows it does not write.  K is the
    Brioschi curvature of the metric, the estimate metric_checks takes its
    maximum of; it is NaN where no estimate exists: within K_TRIM nodes of
    the boundary (so everywhere on a grid too small for the stencils) and
    where the metric is singular.
    """
    def fields(rows):
        tiles = [(A, B, margin, K)
                 for _, A, B, margin, _, _, K in _metric_tiles(im, rows)]
        return (im.f[rows], *map(np.concatenate, zip(*tiles)))

    _write_grid_csv(path, IMMERSION_HEADER, im.spec, fields)
