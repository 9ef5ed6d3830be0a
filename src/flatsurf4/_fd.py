"""Finite-difference stencils shared by the verification routines, and the
row tiles that every full-grid pass walks.

Interior nodes use 4th-order central differences; the INTERIOR_TRIM nodes
nearest each end of the axis are NaN, and so is every node of an axis
shorter than 5.  Residual maxima exclude them (see INTERIOR_TRIM).

A pass over a (nu, nv, ...) grid takes TILE_ROWS u-rows at a time
(row_tiles), so that no temporary it builds is larger than a tile.  A
derivative along u is taken on the tile's slab, its rows widened by a halo
of INTERIOR_TRIM rows on each side and clipped at the grid's edges, and
then cut back to the tile; a derivative along v is taken on the tile's
rows alone.  The results are those of the whole-grid pass, bit for bit:

* the stencils read at most INTERIOR_TRIM rows on either side, so a tile
  row in the interior gets the same stencil on the same operands;
* a node within INTERIOR_TRIM of a slab's edge is NaN and is never read
  by a maximum;
* elementwise arithmetic does not depend on where an element sits in its
  array, and a maximum or minimum over tiles is that over the grid.

A field that is a product of a (nu, .) factor and a (., nv) factor is
formed per tile too, never whole: F and Fhat (flatmap.ProductFactors.maps,
elementwise quaternion products) and the fields of a solution held as
factors (hypsys.FactorSolution.tile, (rows, 4) @ (4, nv) products).  The
matrix products are taken on a tile's slab and cut to core, and on the
tiles of row_tiles only, because BLAS may give a row other bits in
another row set.  Under OpenBLAS 0.3.31 with one thread on an AVX-512
Xeon, the last column of a (rows, 4) @ (4, 193) product (the release
grid's nv) differs between row sets of almost every size from 1 to 139
rows, and between the tiles and the whole 1537-row grid, while the other
192 columns agree.  A reader that needs other rows
(immersion.Coefficients) cuts them from the tiles that hold them, so each
node has one value, that of its tile.
"""

import numpy as np

INTERIOR_TRIM = 2
TILE_ROWS = 64  # u-rows per tile of a full-grid pass


def _axslice(ndim, axis, s):
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def d1(a, h, axis=0):
    """First derivative along axis, 4th-order central in the interior."""
    a = np.asarray(a, dtype=float)
    out = np.full(a.shape, np.nan)
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
    out = np.full(a.shape, np.nan)
    n = a.shape[axis]
    if n >= 5:
        sl = lambda s0, s1: _axslice(a.ndim, axis, slice(s0, s1))
        out[sl(2, n - 2)] = (
            -a[sl(4, n)] + 16 * a[sl(3, n - 1)] - 30 * a[sl(2, n - 2)]
            + 16 * a[sl(1, n - 3)] - a[sl(0, n - 4)]
        ) / (12.0 * h * h)
    return out


def _check_interior(nu, nv):
    if min(nu, nv) <= 2 * INTERIOR_TRIM:
        raise ValueError(f"a grid of {nu} x {nv} nodes has no interior; "
                         f"residuals need at least {2 * INTERIOR_TRIM + 1} "
                         "nodes per direction")


def interior(a):
    """View of a with INTERIOR_TRIM nodes removed on each side of axes 0
    and 1; a grid too small to keep a node raises ValueError."""
    a = np.asarray(a)
    t = INTERIOR_TRIM
    nu, nv = a.shape[:2]
    _check_interior(nu, nv)
    return a[t:nu - t, t:nv - t]


def max_interior(a):
    return float(np.max(np.abs(interior(a))))


def slab_of(lo, hi, n):
    """(slab, core) of the rows lo..hi-1 of an n-row grid: slab those rows
    widened by INTERIOR_TRIM on each side and clipped to the grid, core
    the rows as a slice of the slab."""
    s0 = max(lo - INTERIOR_TRIM, 0)
    return slice(s0, min(hi + INTERIOR_TRIM, n)), slice(lo - s0, hi - s0)


def row_tiles(n):
    """Yield (rows, slab, core) for the tiles of an n-row grid, in order.

    rows are the tile's (at most TILE_ROWS) rows of the grid and (slab,
    core) their slab_of: a derivative along u of the tile is
    fd.d1(a[slab], h, axis=0)[core].
    """
    for lo in range(0, n, TILE_ROWS):
        hi = min(lo + TILE_ROWS, n)
        yield (slice(lo, hi), *slab_of(lo, hi, n))


def tile_interior(a, rows, n):
    """The nodes of a, the values on the rows of one tile of an n-row
    grid, that lie in the grid's interior (possibly none)."""
    t = INTERIOR_TRIM
    return a[max(t - rows.start, 0):max(n - t - rows.start, 0),
             t:a.shape[1] - t]


def tiled_max_interior(shape, terms):
    """{name: max_interior(x)} for the grid-shaped arrays x that are built
    tile by tile: terms(rows, slab, core) yields (name, values) pairs, the
    values of each x on the tile's rows, and each is reduced as it comes,
    so a generator holds one result at a time.  The maxima equal those of
    whole-grid arrays, NaN included."""
    nu, nv = shape[:2]
    _check_interior(nu, nv)
    maxima = {}
    for rows, slab, core in row_tiles(nu):
        for name, x in terms(rows, slab, core):
            maxima.setdefault(name, []).append(
                np.max(np.abs(tile_interior(x, rows, nu)), initial=0.0))
    return {name: float(np.max(m)) for name, m in maxima.items()}
