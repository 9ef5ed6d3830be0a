"""Flat maps F: rectangle -> S^3 with polar map F-hat and Tschebysheff angle.

A flat map satisfies, in the coordinates (u, v),

    <dF,dF>   = du^2 + 2 cos(w) du dv + dv^2,      <F, Fh> = 0,
    <dF,dFh>  = 2 sin(w) du dv,                    <dF, Fh> = <F, dFh> = 0,
    <dFh,dFh> = du^2 - 2 cos(w) du dv + dv^2,      w_uv = 0,

with w(u,v) = w1(u) + w2(v) separable.  Every constructor here produces
maps of the product form F = L(u) * R(v), Fh = L(u) * xi * R(v), held by
ProductFactors, which carries exact analytic derivatives and gives F and
Fh on any grid rows, so no grid of F or Fh is stored; verification always
re-derives the relations by central differences instead.
"""

import math
import os
import shutil
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _fd as fd
from ._fork import Forked, can_fork
from .curve import CurvatureProfile, S3Curve, asymptotic_lift
from .errors import PreconditionViolated
from .quat import QI, QJ, QONE, fiber_circle, qconj, qinv, qmul, qnorm

TWO_PI = 2.0 * math.pi
ODE_STEP = 1e-3  # largest step of the lift integration in every Hopf builder


# ---------------------------------------------------------------------------
# separable angle functions


@dataclass
class AngleFunction:
    """Separable angle w(u,v) = w1(u) + w2(v) with analytic u/v derivatives."""

    f1: Callable
    df1: Callable
    f2: Callable
    df2: Callable

    def omega(self, u, v):
        return np.asarray(self.f1(u)) + np.asarray(self.f2(v))

    def grid(self, u_nodes, v_nodes):
        return np.asarray(self.f1(u_nodes))[:, None] + np.asarray(self.f2(v_nodes))[None, :]

    def omega_u(self, u):
        return np.asarray(self.df1(u))

    def omega_v(self, v):
        return np.asarray(self.df2(v))


def linear_angle(cu, cv, c0=0.0):
    return AngleFunction(
        lambda u: cu * np.asarray(u, dtype=float) + c0,
        lambda u: np.full_like(np.asarray(u, dtype=float), cu),
        lambda v: cv * np.asarray(v, dtype=float),
        lambda v: np.full_like(np.asarray(v, dtype=float), cv))


def profile_angle(k):
    """Hopf-surface angle w(u) = arccot(k(u)), branch (0, pi)."""

    def f1(u):
        return 0.5 * math.pi - np.arctan(k.value(u))

    def df1(u):
        kv = np.asarray(k.value(u), dtype=float)
        return -np.asarray(k.deriv(u), dtype=float) / (1.0 + kv * kv)

    z = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return AngleFunction(f1, df1, z, z)


def _hermite(x, y, dy):
    """(f, df): the cubic Hermite interpolant of the values y and slopes dy
    at the uniform nodes x, and its derivative; the end cells extrapolate."""
    x, y, dy = (np.asarray(a, dtype=float) for a in (x, y, dy))
    if len(x) < 2:
        raise PreconditionViolated(
            f"an angle needs at least 2 samples per axis, got {len(x)}")
    h = x[1] - x[0]

    def cell(t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
        return i, (t - x[i]) / h

    def f(t):
        i, s = cell(t)
        r = 1.0 - s
        return ((1.0 + 2.0 * s) * r * r * y[i] + s * s * (3.0 - 2.0 * s) * y[i + 1]
                + h * s * r * (r * dy[i] - s * dy[i + 1]))

    def df(t):
        i, s = cell(t)
        r = 1.0 - s
        return (6.0 * s * r * (y[i + 1] - y[i]) / h
                + r * (1.0 - 3.0 * s) * dy[i] + s * (3.0 * s - 2.0) * dy[i + 1])

    return f, df


# ---------------------------------------------------------------------------
# the sampled flat map


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid u0 + i hu (i < nu) by v0 + j hv (j < nv).

    The one grid geometry: flat maps, solutions and immersions each hold
    one, and two grids match when same_geometry holds.  Grids are written
    as CSV with a header line, then one row per node in u-major order (v
    varies fastest), each float with 17 significant digits so that it
    reads back bit for bit.  read_flatmap_csv requires this layout: it
    takes the grid from the first row and column and refuses rows in any
    other order.
    """

    u0: float
    v0: float
    hu: float
    hv: float
    nu: int
    nv: int

    @classmethod
    def from_ranges(cls, u_range, v_range, h, hv=None):
        """The one rounding rule: round(span / step) cells on each axis,
        the step adjusted to divide its span; a step must be in (0, span]."""
        hv = h if hv is None else hv
        su, sv = u_range[1] - u_range[0], v_range[1] - v_range[0]
        if not (0 < h <= su and 0 < hv <= sv):
            raise ValueError(f"grid steps (h, hv) = ({h:g}, {hv:g}) must be "
                             f"positive and no larger than the spans of "
                             f"u_range {tuple(u_range)} and v_range {tuple(v_range)}")
        nu, nv = int(round(su / h)) + 1, int(round(sv / hv)) + 1
        return cls(u_range[0], v_range[0], su / (nu - 1), sv / (nv - 1), nu, nv)

    @property
    def u_nodes(self):
        return self.u0 + self.hu * np.arange(self.nu)

    @property
    def v_nodes(self):
        return self.v0 + self.hv * np.arange(self.nv)

    def mesh(self):
        return self.u_nodes[:, None], self.v_nodes[None, :]

    def same_geometry(self, other):
        return ((self.nu, self.nv) == (other.nu, other.nv)
                and abs(self.u0 - other.u0) < 1e-12 and abs(self.v0 - other.v0) < 1e-12
                and abs(self.hu - other.hu) < 1e-12 and abs(self.hv - other.hv) < 1e-12)


def _outer(a, b):  # the (na, nb, 4) grid of the products a_i b_j
    return qmul(a[:, None, :], b[None, :, :])


@dataclass(frozen=True)
class ProductFactors:
    """The factor curves of a product-form flat map F = L(u) R(v),
    Fhat = L(u) xi R(v), the one place that knows this layout: L, Ld, Ldd
    are (nu, 4) samples of the left factor and its first and second
    u-derivatives, R, Rd (nv, 4) samples of the right factor and its
    v-derivative, xi a unit pure quaternion.  No derivative is differenced.
    """

    L: np.ndarray
    Ld: np.ndarray
    Ldd: np.ndarray
    xi: np.ndarray
    R: np.ndarray
    Rd: np.ndarray

    def maps(self, rows):
        """(F, Fhat) on the grid rows `rows` (a row tile, or slice(None) for
        the whole grid); qmul is elementwise, so a tile's values are those
        of the whole grid, bit for bit."""
        L = self.L[rows]
        return _outer(L, self.R), _outer(qmul(L, self.xi), self.R)

    def u_frame(self, rows):
        """(F_u, Fh_u) on the grid rows `rows` (a row tile)."""
        Ld = self.Ld[rows]
        return _outer(Ld, self.R), _outer(qmul(Ld, self.xi), self.R)

    def derivatives(self):
        """(F_u, F_v, Fh_u, Fh_v) on the whole grid."""
        Fu, Fhu = self.u_frame(slice(None))
        return Fu, _outer(self.L, self.Rd), Fhu, _outer(qmul(self.L, self.xi), self.Rd)

    def polar(self):
        """The factors (L xi, L' xi, L'' xi, xi, R, R') of the polar map
        (Fhat, -F) = (L xi R, L xi xi R)."""
        return ProductFactors(*(qmul(x, self.xi) for x in (self.L, self.Ld, self.Ldd)),
                              self.xi, self.R, self.Rd)


@dataclass(frozen=True)
class SampledMaps:
    """F and Fhat held whole as (nu, nv, 4) samples: the maps of a grid read
    back from CSV, which has no factor curves."""

    F: np.ndarray
    Fhat: np.ndarray

    def maps(self, rows):
        """(F, Fhat) on the grid rows `rows`."""
        return self.F[rows], self.Fhat[rows]


@dataclass
class FlatMapGrid:
    """Flat map sampled on the uniform grid spec.

    source gives (F, Fhat), each (nu, nv, 4), on any grid rows (maps): every
    constructor keeps the map's ProductFactors there, so no (nu, nv, 4)
    array is stored and each reader forms the rows it reads, tile by tile;
    a grid read back from CSV keeps its SampledMaps.  The factors (with the
    angle function) are the one source of the grid derivatives, so a grid
    without them (product is None) has none: only verify_flat_map and
    write_flatmap_csv apply to it.
    """

    spec: GridSpec
    source: object  # ProductFactors, or SampledMaps for a grid read from CSV
    omega_grid: np.ndarray
    omega_fn: Optional[AngleFunction] = None

    @property
    def product(self):
        """The ProductFactors of the map, or None for sampled maps."""
        return self.source if isinstance(self.source, ProductFactors) else None

    def maps(self, rows):
        """(F, Fhat) on the grid rows `rows` (a row tile, or slice(None))."""
        return self.source.maps(rows)

    def factors(self):
        """The ProductFactors; the one check before any derivative: a grid
        without factors (read from CSV) raises PreconditionViolated."""
        if self.product is None:
            raise PreconditionViolated(
                "flat map has no factor curves (read from CSV?) and so no "
                "derivatives; only verify_flat_map and write_flatmap_csv apply")
        return self.product

    def derivatives(self):
        """(F_u, F_v, Fh_u, Fh_v) from the factor curves."""
        return self.factors().derivatives()


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


# ---------------------------------------------------------------------------
# constructors


def _check_side_conditions(a1, a2, xi):
    tol = 1e-6
    d1, d2 = a1.deriv, a2.deriv
    r_start = max(float(np.linalg.norm(a1.samples[0] - QONE)),
                  float(np.linalg.norm(a2.samples[0] - QONE)))
    if r_start > tol:
        raise PreconditionViolated(
            f"product curves must start at 1 (residual {r_start:.3e})", r_start)
    if abs(qnorm(xi) - 1.0) > 1e-9 or abs(xi[0]) > 1e-9:
        raise PreconditionViolated("xi must be a unit pure quaternion")
    r_orth = max(abs(float(np.dot(xi, d1[0]))), abs(float(np.dot(xi, d2[0]))))
    if r_orth > tol:
        raise PreconditionViolated(
            f"xi must be orthogonal to both initial tangents (residual {r_orth:.3e})",
            r_orth)
    s1 = float(np.max(np.abs(_dot(d1, qmul(a1.samples, xi)))))
    s2 = float(np.max(np.abs(_dot(d2, qmul(xi, a2.samples)))))
    if max(s1, s2) > tol:
        raise PreconditionViolated(
            f"asymptotic side conditions fail: <a1',a1 xi> max {s1:.3e}, "
            f"<a2',xi a2> max {s2:.3e}", max(s1, s2))


def bianchi_spivak_product(a1: S3Curve, a2: S3Curve, xi=QJ):
    """Flat map F = a1(u) a2(v), Fhat = a1(u) xi a2(v).

    Requires unit-speed curves through 1 whose side conditions
    <a1', a1 xi> = 0 = <a2', xi a2> hold within 1e-6.  The angle is
    recovered pointwise from cos(w) = <F_u, F_v>, sin(w) = <F_u, Fh_v>,
    unwrapped along the axes into omega_grid.  The AngleFunction is the
    cubic Hermite interpolant of these node values and of the exact slopes
    from a1'' and a2'' (below), so each curve needs at least 2 samples.
    """
    xi = np.asarray(xi, dtype=float)
    _check_side_conditions(a1, a2, xi)

    L, R, d1, d2 = a1.samples, a2.samples, a1.deriv, a2.deriv
    product = ProductFactors(L, d1, a1.deriv2, xi, R, d2)

    # angle from the analytic derivatives (exact at the nodes)
    Fu, Fv, _, Fhv = product.derivatives()
    theta = np.arctan2(_dot(Fu, Fhv), _dot(Fu, Fv))
    w1 = np.unwrap(theta[:, 0])
    w2 = np.unwrap(theta[0, :]) - theta[0, 0]
    # the unit body velocities b1 = conj(a1) a1', c2 = a2' conj(a2) are
    # orthogonal to xi and turn about it at the rates w1' and -w2'
    La, Ra = qconj(L), qconj(R)
    dw1 = _dot(qmul(La, a1.deriv2), qmul(xi, qmul(La, d1)))
    dw2 = -_dot(qmul(a2.deriv2, Ra), qmul(xi, qmul(d2, Ra)))
    omega_fn = AngleFunction(*_hermite(a1.u_grid, w1, dw1),
                             *_hermite(a2.u_grid, w2, dw2))
    omega_grid = w1[:, None] + w2[None, :]
    sep = max(float(np.max(np.abs(np.cos(omega_grid) - np.cos(theta)))),
              float(np.max(np.abs(np.sin(omega_grid) - np.sin(theta)))))
    if sep > 1e-5:
        raise PreconditionViolated(
            f"recovered angle is not separable (residual {sep:.3e})", sep)

    spec = GridSpec(a1.u0, a2.u0, a1.h, a2.h, len(L), len(R))
    return FlatMapGrid(spec, product, omega_grid, omega_fn)


HOPF_XI = np.array([0.0, 0.0, -1.0, 0.0])  # polar sign keeps w in (0, pi)


def _hopf_factors(k, spec: GridSpec, a0=QONE):
    """ProductFactors of the Hopf surface L(u) e^{iv} of k: the lift
    (L, L', L'') from a(u0) = a0 at spec.u_nodes, by ceil(hu / ODE_STEP)
    Magnus steps per cell (copied, so no fine lift stays alive), xi =
    HOPF_XI and the fiber (e^{iv}, i e^{iv}) at spec.v_nodes."""
    sub = max(1, int(math.ceil(spec.hu / ODE_STEP - 1e-12)))
    lift = asymptotic_lift(k, (spec.u0, spec.u0 + spec.hu * (spec.nu - 1)),
                           spec.hu / sub, a0=a0)
    L, Ld, Ldd = (x[::sub].copy()
                  for x in (lift.samples, lift.deriv, lift.deriv2))
    R = fiber_circle(spec.v_nodes)
    return ProductFactors(L, Ld, Ldd, HOPF_XI, R, qmul(QI, R))


def _hopf_map(k, spec: GridSpec, a0=QONE):
    """F = L e^{iv}, Fhat = L HOPF_XI e^{iv} on spec (see hopf_flat_map).

    The angle w(u) depends on u alone, so omega_grid is a read-only
    broadcast view of its u-column (strides[1] == 0), not a grid copy."""
    omega_fn = profile_angle(k)
    omega_grid = np.broadcast_to(
        np.asarray(omega_fn.f1(spec.u_nodes))[:, None], (spec.nu, spec.nv))
    return FlatMapGrid(spec, _hopf_factors(k, spec, a0), omega_grid, omega_fn)


def hopf_flat_map(k, U, h=1e-2, v_range=(0.0, TWO_PI), hv=None):
    """Flat map of the Hopf surface over the curve with curvature profile k.

    F(u,v) = a(u) e^{iv} with a the asymptotic lift of k, a(0) = 1, on
    GridSpec.from_ranges((0, U), v_range, h, hv), built by _hopf_factors,
    the one Hopf builder (clifford_flat_map, stretched_solution, the
    cylinder and the CLI's solve use it too).  The polar map is
    a(u) xi e^{iv} with xi = HOPF_XI = -j, the sign that puts the angle
    w(u) = arccot(k(u)) in the branch (0, pi); V-period is 2 pi.

    U must be a whole number of k.base_period (when k has one): a partial
    period of a non-constant profile cannot close the torus, so it is
    refused.  Whether the lift closes is not decided here: the torus build
    finds its closure multiple (torusearch.lift_closure_multiple) and
    reports closure_u and closure_v.
    """
    T = getattr(k, "base_period", None)
    if T is not None:
        m = U / T
        if abs(m - round(m)) > 1e-9 * max(1.0, abs(m)):
            raise ValueError(f"U = {U:g} must be a multiple of the base period {T:g}")
    return _hopf_map(k, GridSpec.from_ranges((0.0, U), v_range, h, hv))


def clifford_flat_map(h=1e-2, u_range=(0.0, TWO_PI), v_range=(0.0, TWO_PI)):
    """The standard-pose Clifford torus as a Hopf flat map (k = 0, w = pi/2).

    The lift is a(u) = a0 exp(u k) with a0 = (1+i+j+k)/2, so that the image
    is the torus |z1| = |z2| = 1/sqrt(2), z1 = x1 + i x2, z2 = x3 + i x4.
    The profile is constant, so any u-window is a true piece of the map:
    the grid starts at u0 = u_range[0] and a given (u, v) is the same point
    whatever window is asked for.
    """
    u0 = u_range[0]
    a0 = qmul(0.5 * np.array([1.0, 1.0, 1.0, 1.0]),
              np.array([math.cos(u0), 0.0, 0.0, math.sin(u0)]))
    return _hopf_map(CurvatureProfile(math.pi, 0.0),
                     GridSpec.from_ranges(u_range, v_range, h), a0=a0)


def helix_product_map(r, u_range=(0.0, 1.0), v_range=(0.0, 1.0), h=1e-2):
    """Bianchi product of two helices with torsions +1/-1 and equal curvature.

    The resulting angle is w(u,v) = 2 mu (u+v) with mu = (r^2-1)/(2r).
    xi = i: both helix body velocities stay on the j-k great circle.
    """
    from .curve import helix
    mu = (r * r - 1.0) / (2.0 * r)
    a1 = helix(r, +1, (0.0, u_range[1] - u_range[0]), h)
    a1 = a1.left_translate(qinv(a1.samples[0]))
    a2 = helix(r, -1, (0.0, v_range[1] - v_range[0]), h)
    a2 = a2.right_translate(qinv(a2.samples[0]))
    g = bianchi_spivak_product(a1, a2, xi=QI)
    return g, mu


# ---------------------------------------------------------------------------
# verification


@dataclass
class FlatMapReport:
    residuals: dict
    gauss_metric: float
    frame_residual: float  # Gram matrix of {F, Fhat, F_u, Fhat_u} vs I_4

    @property
    def max_flatmap_residual(self):
        return max(self.residuals.values())

    def as_dict(self):
        out = dict(self.residuals)
        out["gauss_metric"] = self.gauss_metric
        out["flatmap_max"] = self.max_flatmap_residual
        return out


def verify_flat_map(g: FlatMapGrid) -> FlatMapReport:
    """Max-norm residuals of the flat-map relations under central differences.

    Boundary nodes (two per side, where the 4th-order stencil degrades)
    are excluded from the maxima.  Also reports the Gauss-map metric
    defect |<dF,dF> + <dFh,dFh> - 2(du^2+dv^2)| and the frame residual,
    the max deviation of the Gram matrix of {F, Fhat, F_u, Fhat_u} from
    I_4, which as_dict leaves out.  The grid is walked in row tiles
    (fd.row_tiles), and F and Fhat are read on each tile's slab (g.maps),
    so no grid-sized array is built.
    """
    w, hu, hv = g.omega_grid, g.spec.hu, g.spec.hv

    def terms(rows, slab, core):
        F, Fh = g.maps(slab)
        Ft, Fht = F[core], Fh[core]
        Fu = fd.d1(F, hu, axis=0)[core]
        Fv = fd.d1(Ft, hv, axis=1)
        Fhu = fd.d1(Fh, hu, axis=0)[core]
        Fhv = fd.d1(Fht, hv, axis=1)
        cw, sw = np.cos(w[rows]), np.sin(w[rows])
        return {
            "unit_F": qnorm(Ft) - 1.0,
            "unit_Fhat": qnorm(Fht) - 1.0,
            "first_uu": _dot(Fu, Fu) - 1.0,
            "first_vv": _dot(Fv, Fv) - 1.0,
            "first_uv_cos": _dot(Fu, Fv) - cw,
            "orth_F_Fhat": _dot(Ft, Fht),
            "mixed_uv_sin": _dot(Fu, Fhv) - sw,
            "mixed_vu_sin": _dot(Fv, Fhu) - sw,
            "mixed_uu": _dot(Fu, Fhu),
            "mixed_vv": _dot(Fv, Fhv),
            "dF_Fhat_u": _dot(Fu, Fht),
            "dF_Fhat_v": _dot(Fv, Fht),
            "F_dFhat_u": _dot(Ft, Fhu),
            "F_dFhat_v": _dot(Ft, Fhv),
            "polar_uu": _dot(Fhu, Fhu) - 1.0,
            "polar_vv": _dot(Fhv, Fhv) - 1.0,
            "polar_uv_cos": _dot(Fhu, Fhv) + cw,
            "omega_uv": fd.d1(fd.d1(w[slab], hu, axis=0)[core], hv, axis=1),
            "gauss_u": _dot(Fu, Fu) + _dot(Fhu, Fhu) - 2.0,
            "gauss_v": _dot(Fv, Fv) + _dot(Fhv, Fhv) - 2.0,
            "gauss_uv": _dot(Fu, Fv) + _dot(Fhu, Fhv),
            # the Gram entries of {F, Fhat, F_u, Fhat_u} not built above
            "frame_00": _dot(Ft, Ft) - 1.0,
            "frame_11": _dot(Fht, Fht) - 1.0,
            "frame_02": _dot(Ft, Fu),
            "frame_13": _dot(Fht, Fhu),
        }

    m = fd.tiled_max_interior(w.shape, terms)
    res = {name: m[name] for name in (
        "unit_F", "unit_Fhat", "first_uu", "first_vv", "first_uv_cos",
        "orth_F_Fhat", "mixed_uv_sin", "mixed_vu_sin", "mixed_uu", "mixed_vv")}
    res["tangency_dF_Fhat"] = max(m["dF_Fhat_u"], m["dF_Fhat_v"])
    res["tangency_F_dFhat"] = max(m["F_dFhat_u"], m["F_dFhat_v"])
    for name in ("polar_uu", "polar_vv", "polar_uv_cos", "omega_uv"):
        res[name] = m[name]
    gauss = max(m["gauss_u"], m["gauss_v"], m["gauss_uv"])
    frame_res = max(m[name] for name in (
        "frame_00", "orth_F_Fhat", "frame_02", "F_dFhat_u", "frame_11",
        "dF_Fhat_u", "frame_13", "first_uu", "mixed_uu", "polar_uu"))
    return FlatMapReport(res, gauss, frame_res)


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits, bit-exact round trip).  Every
# CSV and OBJ file is written by _write_halves: on two or more allowed CPUs
# a forked child (_fork.Forked) formats the second half of the file while
# this process writes the header and the first half, then appends the
# child's half.


FLATMAP_HEADER = "u,v,F1,F2,F3,F4,Fh1,Fh2,Fh3,Fh4,omega"
BLOCK_ROWS = 4096


def _write_halves(path, header, n, block, part):
    """Write the text file path: header, then the items 0..n-1.

    part(fh, lo, hi) writes the items lo..hi-1 to the open text file fh;
    block is the number of items the writer formats at a time.  The file is
    header, part(fh, 0, mid) and part(fh, mid, n), with mid = n // 2.
    Where n exceeds one block and a child may be forked (_fork.can_fork), a
    forked child (_fork.Forked) writes the second half to the sibling file
    path.<this pid>.part while this process writes the header and the first
    half; this process then appends the sibling's bytes.  If the fork or
    the child failed, this process writes the second half itself; if this
    process's half fails, the child is killed.  The sibling is removed on
    every path.  Otherwise both halves are written here.
    """
    mid = n // 2
    sibling = f"{path}.{os.getpid()}.part"

    def second_half():
        with open(sibling, "w") as out:
            part(out, mid, n)

    with open(path, "w") as fh:
        if n <= block or not can_fork():
            fh.write(header)
            part(fh, 0, n)
            return
        try:
            with Forked.after(second_half) as child:
                fh.write(header)
                part(fh, 0, mid)
                child.result()
            fh.flush()
            with open(sibling, "rb") as src:
                shutil.copyfileobj(src, fh.buffer)
        finally:
            try:
                os.remove(sibling)
            except FileNotFoundError:
                pass


def _write_rows(fh, first, last, rows, fmt, sep, prefix):
    """Write the rows of the items first..last-1 to the open text file fh.

    rows(lo, hi) returns the rows of items lo..hi-1 as one 2-D array; each
    row is written as prefix, then its entries in fmt joined by sep.  Items
    are taken BLOCK_ROWS at a time and each block is formatted by one
    %-operation, which gives the same bytes as formatting row by row;
    neither the whole table nor the whole file is held at once.  Writers
    call it from a part of _write_halves, so the process that writes a half
    of the file (this one, or the forked child) formats that half's rows.
    """
    for lo in range(first, last, BLOCK_ROWS):
        block = rows(lo, min(lo + BLOCK_ROWS, last))
        row_fmt = prefix + sep.join([fmt] * block.shape[1]) + "\n"
        fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def _write_grid_csv(path, header, spec: GridSpec, fields):
    """CSV of a grid: the header line, then u, v and the fields per node,
    each float with 17 significant digits (%.17g), rows in u-major order.

    fields(rows) returns the fields on the grid rows `rows` (a slice), each
    of shape (rows, nv) or (rows, nv, k), with the columns of header after
    u and v, so a field formed per row tile is formed only for the rows of
    each block.  Blocks hold whole u rows, about BLOCK_ROWS nodes.  Each u
    and v value is formatted once: parts[j] is the format of the tail of a
    row at v_j, and a u row is its u string joined with parts, so one
    %-operation per block formats only the fields, with the same bytes as
    formatting row by row.  The file is written by _write_halves, split
    between u rows: this process forms and writes the fields of the first
    half of the u rows, and on two CPUs a forked child those of the second.
    """
    nv = spec.nv
    u_strings = ["%.17g" % u for u in spec.u_nodes.tolist()]
    tail = ",%.17g" * (header.count(",") - 1) + "\n"
    parts = ["," + "%.17g" % v + tail for v in spec.v_nodes.tolist()]
    step = max(1, BLOCK_ROWS // nv)

    def part(fh, first, last):
        for lo in range(first, last, step):
            hi = min(lo + step, last)
            block = np.concatenate([np.reshape(f, (hi - lo, nv, -1))
                                    for f in fields(slice(lo, hi))], axis=2)
            fh.write("".join(u + u.join(parts) for u in u_strings[lo:hi])
                     % tuple(block.ravel().tolist()))

    _write_halves(path, header + "\n", spec.nu, step, part)


def write_flatmap_csv(g: FlatMapGrid, path):
    """Write g as CSV with the columns of FLATMAP_HEADER (see GridSpec)."""
    _write_grid_csv(path, FLATMAP_HEADER, g.spec,
                    lambda rows: (*g.maps(rows), g.omega_grid[rows]))


def read_flatmap_csv(path) -> FlatMapGrid:
    """The flat map of a CSV written by write_flatmap_csv, bit for bit: F,
    Fhat and omega are views of the table as SampledMaps, no factor curves.

    The rows must be in the u-major order of GridSpec: nv is the length of
    the first run of equal u, u0, v0 and the steps come from the first row
    and column (step 1.0 on an axis of one node).  A file without rows, with
    rows of other than the columns of FLATMAP_HEADER, with a row count that
    is not nu nv, a step that is not positive, u and v columns that are
    not that grid's nodes within 1e-9 of max(1, step), or a value that is
    not finite (NaN or infinite; the message names its line, the header
    being line 1) raises ValueError."""
    with warnings.catch_warnings():  # numpy warns of a file without rows
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows, cols = data.shape
    ncols = len(FLATMAP_HEADER.split(","))
    if rows == 0 or cols != ncols:
        found = f"{rows} rows of {cols} columns" if rows else "no rows"
        raise ValueError(f"{path}: a flat-map CSV needs rows of the {ncols} "
                         f"columns {FLATMAP_HEADER}; found {found}")
    u, v = data[:, 0], data[:, 1]
    nv = int(np.argmax(u != u[0])) or rows
    nu = rows // nv
    hu = float(u[nv] - u[0]) if nu > 1 else 1.0
    hv = float(v[1] - v[0]) if nv > 1 else 1.0
    spec = GridSpec(float(u[0]), float(v[0]), hu, hv, nu, nv)

    def on_nodes(x, nodes, h):
        return np.all(np.abs(x.reshape(nu, nv) - nodes) <= 1e-9 * max(1.0, h))

    if not (nu * nv == rows and hu > 0 and hv > 0
            and on_nodes(u, spec.u_nodes[:, None], hu)
            and on_nodes(v, spec.v_nodes, hv)):
        raise ValueError(f"{path}: the {rows} rows are not the u-major nodes of "
                         f"a uniform grid (nv = {nv} from the first run of "
                         f"equal u); see GridSpec")
    # min and max propagate NaN: two reductions, no array
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        line = int(np.argmax(~np.isfinite(data).all(axis=1))) + 2
        raise ValueError(f"{path}: line {line} holds a value that is not "
                         "finite; F, Fhat and omega must be finite")
    table = data.reshape(nu, nv, ncols)
    return FlatMapGrid(spec, SampledMaps(table[..., 2:6], table[..., 6:10]),
                       table[..., 10])
