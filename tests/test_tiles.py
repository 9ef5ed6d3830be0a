"""The full-grid passes walk the grid in row tiles (fd.row_tiles), and the
tile height must not change a single bit of any result.

Each tiled function runs with tiles of 1, 2, 3 and 5 rows and with one
tile taller than the grid (the whole-grid pass), on a Hopf map whose nu is
a multiple of none of 2, 3 and 5, and on the smallest grid that has an
interior (5 x 5).  Results are compared with np.array_equal, NaN positions
included.  The metric's tiles (_metric_tiles, which metric_checks and the
immersion CSV walk, the CSV over each block of rows it writes) widen each
tile by K_TRIM rows for the curvature, so their stacked A, B, margin, E,
Fm and K, and the K of blocks of 7 rows, must match the whole-grid
coefficients, margin, metric and brioschi_curvature.
The tiles formed from factors (the flat map's F and Fhat, the stretched
solution's fields) are also checked at the real tile height on a grid of
k TILE_ROWS + 1 rows, whose last tile is a single row, against the
whole-grid products.
"""

import numpy as np
import pytest

from flatsurf4 import _fd as fd
from flatsurf4.curve import CurvatureProfile
from flatsurf4.flatmap import GridSpec, _hopf_map, _outer, verify_flat_map
from flatsurf4.hypsys import stretched_solution, system_residual
from flatsurf4.immersion import (K_TRIM, _metric_tiles,
                                 _sphere_normal_equations, assemble,
                                 auto_lambda, brioschi_curvature,
                                 lambda_rescale, metric_checks, sphere_fit,
                                 tangency_check)
from flatsurf4.quat import qmul

K = CurvatureProfile(2.0, 0.5, (0.3,))
GRIDS = {
    "49x41": GridSpec.from_ranges((0.0, 2.0), (0.0, 1.0), 2.0 / 48, 1.0 / 40),
    "5x5": GridSpec.from_ranges((0.0, 0.2), (0.0, 0.2), 0.05),
}


SOLUTION_TILE_FIELDS = ("alpha", "beta", "alpha_u", "beta_u", "alpha_uu",
                        "beta_uu")
METRIC_TILE_FIELDS = ("A", "B", "margin", "E", "Fm", "K")


def _tiled(spec, tile):
    """The arrays of tile(rows, slab, core), a tuple of arrays on the tile's
    rows, stacked over the tiles of spec's grid."""
    parts = [tile(*t) for t in fd.row_tiles(spec.nu)]
    return [np.concatenate(arrays) for arrays in zip(*parts)]


def _factor_tiles(g, sol):
    """F and Fhat of the flat map g and the fields of the FactorSolution
    sol, each formed tile by tile and stacked."""
    maps = _tiled(g.spec, lambda rows, slab, core: g.maps(rows))
    fields = _tiled(g.spec, lambda *t: [getattr(sol.tile(*t), name)
                                        for name in SOLUTION_TILE_FIELDS])
    return dict(zip(("F", "Fhat") + SOLUTION_TILE_FIELDS, maps + fields))


def _results(spec):
    """Every output of the tiled functions on the Hopf map of K at spec."""
    g = _hopf_map(K, spec)
    sol = stretched_solution(K, 2, spec)
    lam = auto_lambda(g, sol)
    im = assemble(g, lambda_rescale(sol, lam))
    fit = sphere_fit(im.f)
    rep = verify_flat_map(g)
    small = min(spec.nu, spec.nv) <= 2 * K_TRIM  # no curvature interior
    out = {"lambda": lam,
           "metric_checks": [] if small else list(metric_checks(im).values()),
           "tangency": list(tangency_check(im, g).values()),
           "sphere": (*fit.center, fit.radius, fit.rms_residual),
           "flatmap": list(rep.as_dict().values()),
           "frame": rep.frame_residual,
           "system_central": system_residual(im.source, g.omega_grid),
           "system_analytic": system_residual(sol.grid(), g.omega_fn,
                                              derivatives="analytic"),
           "sphere_sums": np.column_stack(_sphere_normal_equations(im.f))}
    out["f"] = im.f
    out["A"], out["B"] = im.coefficients(slice(None))
    out.update(zip(("E", "Fm"), im.metric(slice(None))))
    out["K"] = brioschi_curvature(out["E"], out["Fm"], spec.hu, spec.hv)
    stacked = zip(*(t[1:] for t in _metric_tiles(im, slice(0, spec.nu))))
    out.update(zip([name + "_tiles" for name in METRIC_TILE_FIELDS],
                   map(np.concatenate, stacked)))
    # K walked block by block, as the immersion CSV forms it
    out["K_blocks"] = np.concatenate([
        K for lo in range(0, spec.nu, 7)
        for *_, K in _metric_tiles(im, slice(lo, min(lo + 7, spec.nu)))])
    out["margin"] = im.margin(slice(None))
    out.update(_factor_tiles(g, sol))
    return out


@pytest.mark.parametrize("grid", GRIDS)
def test_tile_height_changes_no_bit(grid, monkeypatch):
    spec = GRIDS[grid]
    monkeypatch.setattr(fd, "TILE_ROWS", spec.nu + 1)
    whole = _results(spec)
    for rows in (1, 2, 3, 5):
        monkeypatch.setattr(fd, "TILE_ROWS", rows)
        tiled = _results(spec)
        for name, ref in whole.items():
            assert np.array_equal(np.asarray(tiled[name]), np.asarray(ref),
                                  equal_nan=True), (rows, name)
        for name in METRIC_TILE_FIELDS:  # the metric's tiles stack to the grid
            assert np.array_equal(tiled[name + "_tiles"], whole[name],
                                  equal_nan=True), (rows, name)
        assert np.array_equal(tiled["K_blocks"], whole["K"], equal_nan=True)


def test_factor_tiles_match_whole_grid_products():
    # nu = 2 TILE_ROWS + 1: the last tile is one row, whose product alone
    # would take another BLAS path; the slab's product cut to the tile is
    # that of the whole grid, bit for bit
    spec = GridSpec.from_ranges((0.0, 2.0), (0.0, 1.0), 2.0 / (2 * fd.TILE_ROWS),
                                1.0 / 40)
    assert spec.nu == 2 * fd.TILE_ROWS + 1
    assert [r.stop - r.start for r, _, _ in fd.row_tiles(spec.nu)][-1] == 1
    g = _hopf_map(K, spec)
    sol = stretched_solution(K, 2, spec)
    p, q, aR, n = sol.p, sol.q, sol.aR, sol.n
    L, R, xi = g.factors().L, g.factors().R, g.factors().xi
    whole = {"F": _outer(L, R), "Fhat": _outer(qmul(L, xi), R),
             "alpha": p.L @ aR + sol.rho, "beta": q.L @ aR,
             "alpha_u": n * (p.Ld @ aR), "beta_u": n * (q.Ld @ aR),
             "alpha_uu": n * n * (p.Ldd @ aR), "beta_uu": n * n * (q.Ldd @ aR)}
    tiled = _factor_tiles(g, sol)
    grid = sol.grid()
    for name, ref in whole.items():
        assert np.array_equal(tiled[name], ref), name
        if name in SOLUTION_TILE_FIELDS:
            assert np.array_equal(getattr(grid, name), ref), name


def test_grids_are_the_intended_ones():
    assert [(s.nu, s.nv) for s in GRIDS.values()] == [(49, 41), (5, 5)]
    K49 = _results(GRIDS["49x41"])["K"]
    assert np.isfinite(K49).sum() == (49 - 8) * (41 - 8)


def test_row_tiles_cover_the_grid_once(monkeypatch):
    monkeypatch.setattr(fd, "TILE_ROWS", 3)
    tiles = list(fd.row_tiles(8))
    assert [(r.start, r.stop) for r, _, _ in tiles] == [(0, 3), (3, 6), (6, 8)]
    assert [(s.start, s.stop) for _, s, _ in tiles] == [(0, 5), (1, 8), (4, 8)]
    a = np.arange(8.0)
    for rows, slab, core in tiles:
        assert np.array_equal(a[slab][core], a[rows])


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("n", range(1, 10))
def test_stencils_are_five_point_inside_and_nan_at_the_ends(n, axis):
    # the stencil contract every tile relies on: the INTERIOR_TRIM nodes at
    # each end of the axis (all of an axis shorter than 5) are NaN, and
    # every other node is the written five-point formula, bit for bit
    h = 0.1
    a = np.random.default_rng(n).standard_normal((n, 3) if axis == 0 else (3, n))
    x = np.moveaxis(a, axis, 0)
    d1 = np.moveaxis(fd.d1(a, h, axis=axis), axis, 0)
    d2 = np.moveaxis(fd.d2(a, h, axis=axis), axis, 0)
    edge = np.ones(n, dtype=bool)
    if n >= 5:
        edge[2:n - 2] = False
    for d in (d1, d2):
        assert np.array_equal(np.isnan(d), np.broadcast_to(edge[:, None], d.shape))
    i = np.arange(2, n - 2)
    assert np.array_equal(
        d1[i], (-x[i + 2] + 8 * x[i + 1] - 8 * x[i - 1] + x[i - 2]) / (12.0 * h))
    assert np.array_equal(
        d2[i], (-x[i + 2] + 16 * x[i + 1] - 30 * x[i] + 16 * x[i - 1]
                - x[i - 2]) / (12.0 * h * h))


def test_stencils_converge_at_fourth_order():
    # on sin over [0, 2 pi] both grids hold the nodes where |sin| and |cos|
    # peak, so halving h divides the largest error by 2^4
    def errors(n):
        u = np.linspace(0.0, 2 * np.pi, n + 1)
        h = u[1] - u[0]
        return (np.nanmax(np.abs(fd.d1(np.sin(u), h) - np.cos(u))),
                np.nanmax(np.abs(fd.d2(np.sin(u), h) + np.sin(u))))

    for coarse, fine in zip(errors(32), errors(64)):
        assert np.log2(coarse / fine) >= 3.9
