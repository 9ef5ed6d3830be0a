"""Flat maps F: rectangle -> S^3 with polar map F-hat and Tschebysheff angle.

A flat map satisfies, in the coordinates (u, v),

    <dF,dF>   = du^2 + 2 cos(w) du dv + dv^2,      <F, Fh> = 0,
    <dF,dFh>  = 2 sin(w) du dv,                    <dF, Fh> = <F, dFh> = 0,
    <dFh,dFh> = du^2 - 2 cos(w) du dv + dv^2,      w_uv = 0,

with w(u,v) = w1(u) + w2(v) separable.  Every constructor here produces
maps of the product form F = L(u) * R(v), Fh = L(u) * xi0 * R(v), which
carries exact analytic derivatives; verification always re-derives the
relations by central differences instead.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _fd as fd
from .curve import CurvatureProfile, S3Curve, asymptotic_lift
from .errors import PreconditionViolated
from .quat import QI, QJ, QONE, fiber_circle, qinv, qmul, qnorm

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

    def shifted(self, delta):
        f1, df1 = self.f1, self.df1
        return AngleFunction(lambda u: np.asarray(f1(u)) + delta, df1,
                             self.f2, self.df2)


def constant_angle(w0):
    z = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return AngleFunction(lambda u: np.full_like(np.asarray(u, dtype=float), w0),
                         z, z, z)


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


def sampled_angle(u_nodes, w1_samples, v_nodes, w2_samples):
    """Angle interpolated from exact samples along the two axes."""
    # imported here, so that importing flatsurf4 loads no scipy module
    from scipy.interpolate import CubicSpline

    if len(u_nodes) >= 2:
        s1 = CubicSpline(u_nodes, w1_samples)
        ds1 = s1.derivative()
    else:
        c = float(w1_samples[0])
        s1 = lambda u: np.full_like(np.asarray(u, dtype=float), c)
        ds1 = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    if len(v_nodes) >= 2:
        s2 = CubicSpline(v_nodes, w2_samples)
        ds2 = s2.derivative()
    else:
        c2 = float(w2_samples[0])
        s2 = lambda v: np.full_like(np.asarray(v, dtype=float), c2)
        ds2 = lambda v: np.zeros_like(np.asarray(v, dtype=float))
    return AngleFunction(s1, ds1, s2, ds2)


# ---------------------------------------------------------------------------
# the sampled flat map


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid u0 + i hu (i < nu) by v0 + j hv (j < nv).

    The one grid geometry: flat maps, solutions and immersions each hold
    one, and two grids match when same_geometry holds.  Grids are written
    as CSV with a header line, then one row per node in u-major order (v
    varies fastest), each float with 17 significant digits so that it
    reads back bit for bit.
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


@dataclass
class FlatMapGrid:
    """Flat map sampled on the uniform grid spec.

    F and Fhat have shape (nu, nv, 4).  Every constructor builds the map
    as a quaternion product L(u) * R(v) and keeps the factor curves with
    their derivatives (and the angle function), the one source of the grid
    derivatives.  A grid read back from CSV has no factors and so no
    derivatives: only verify_flat_map and write_flatmap_csv apply to it.
    """

    spec: GridSpec
    F: np.ndarray
    Fhat: np.ndarray
    omega_grid: np.ndarray
    omega_fn: Optional[AngleFunction] = None
    lattice: Optional[tuple] = None
    # product-form factors: F = L R, Fhat = L xi0 R
    left: Optional[np.ndarray] = None      # (Nu, 4)
    left_d: Optional[np.ndarray] = None
    left_dd: Optional[np.ndarray] = None
    right: Optional[np.ndarray] = None     # (Nv, 4)
    right_d: Optional[np.ndarray] = None
    xi0: Optional[np.ndarray] = None

    @property
    def has_factors(self):
        return self.left is not None and self.right is not None

    def factors(self):
        """(L, L', L'', xi0, R, R'); the one check before any derivative:
        a grid without factors (read from CSV) raises PreconditionViolated."""
        if not self.has_factors:
            raise PreconditionViolated(
                "flat map has no factor curves (read from CSV?) and so no "
                "derivatives; only verify_flat_map and write_flatmap_csv apply")
        return (self.left, self.left_d, self.left_dd, self.xi0, self.right,
                self.right_d)

    def _outer(self, a, b):
        return qmul(a[:, None, :], b[None, :, :])

    def u_derivatives(self):
        """(F_u, Fh_u) from the factor curves."""
        _, Ld, _, xi0, R, _ = self.factors()
        return self._outer(Ld, R), self._outer(qmul(Ld, xi0), R)

    def derivatives(self):
        """(F_u, F_v, Fh_u, Fh_v) from the factor curves."""
        L, _, _, xi0, _, Rd = self.factors()
        Fu, Fhu = self.u_derivatives()
        return Fu, self._outer(L, Rd), Fhu, self._outer(qmul(L, xi0), Rd)

    def omega_u_grid(self):
        self.factors()  # product-form maps carry their angle function
        return np.broadcast_to(
            self.omega_fn.omega_u(self.spec.u_nodes)[:, None],
            self.omega_grid.shape).copy()


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


# ---------------------------------------------------------------------------
# constructors


def _check_side_conditions(a1, a2, xi0):
    tol = 1e-6
    d1, d2 = a1.deriv, a2.deriv
    r_start = max(float(np.linalg.norm(a1.samples[0] - QONE)),
                  float(np.linalg.norm(a2.samples[0] - QONE)))
    if r_start > tol:
        raise PreconditionViolated(
            f"product curves must start at 1 (residual {r_start:.3e})", r_start)
    if abs(qnorm(xi0) - 1.0) > 1e-9 or abs(xi0[0]) > 1e-9:
        raise PreconditionViolated("xi0 must be a unit pure quaternion")
    r_orth = max(abs(float(np.dot(xi0, d1[0]))), abs(float(np.dot(xi0, d2[0]))))
    if r_orth > tol:
        raise PreconditionViolated(
            f"xi0 must be orthogonal to both initial tangents (residual {r_orth:.3e})",
            r_orth)
    s1 = float(np.max(np.abs(_dot(d1, qmul(a1.samples, xi0)))))
    s2 = float(np.max(np.abs(_dot(d2, qmul(xi0, a2.samples)))))
    if max(s1, s2) > tol:
        raise PreconditionViolated(
            f"asymptotic side conditions fail: <a1',a1 xi0> max {s1:.3e}, "
            f"<a2',xi0 a2> max {s2:.3e}", max(s1, s2))


def bianchi_spivak_product(a1: S3Curve, a2: S3Curve, xi0=QJ):
    """Flat map F = a1(u) a2(v), Fhat = a1(u) xi0 a2(v).

    Requires unit-speed curves through 1 whose side conditions
    <a1', a1 xi0> = 0 = <a2', xi0 a2> hold within 1e-6.  The angle is
    recovered pointwise from cos(w) = <F_u, F_v>, sin(w) = <F_u, Fh_v>,
    unwrapped along the axes and stored as a separable AngleFunction.
    """
    xi0 = np.asarray(xi0, dtype=float)
    _check_side_conditions(a1, a2, xi0)

    L, R, d1, d2 = a1.samples, a2.samples, a1.deriv, a2.deriv
    F = qmul(L[:, None, :], R[None, :, :])
    Lx = qmul(L, xi0)
    Fhat = qmul(Lx[:, None, :], R[None, :, :])

    # angle from the analytic derivatives (exact at the nodes)
    Fu = qmul(d1[:, None, :], R[None, :, :])
    Fv = qmul(L[:, None, :], d2[None, :, :])
    Fhv = qmul(Lx[:, None, :], d2[None, :, :])
    theta = np.arctan2(_dot(Fu, Fhv), _dot(Fu, Fv))
    w1 = np.unwrap(theta[:, 0])
    w2 = np.unwrap(theta[0, :]) - theta[0, 0]
    omega_fn = sampled_angle(a1.u_grid, w1, a2.u_grid, w2)
    omega_grid = w1[:, None] + w2[None, :]
    sep = max(float(np.max(np.abs(np.cos(omega_grid) - np.cos(theta)))),
              float(np.max(np.abs(np.sin(omega_grid) - np.sin(theta)))))
    if sep > 1e-5:
        raise PreconditionViolated(
            f"recovered angle is not separable (residual {sep:.3e})", sep)

    spec = GridSpec(a1.u0, a2.u0, a1.h, a2.h, len(L), len(R))
    return FlatMapGrid(spec, F, Fhat, omega_grid, omega_fn,
                       left=L, left_d=d1,
                       left_dd=a1.deriv2, right=R, right_d=d2, xi0=xi0)


HOPF_XI = np.array([0.0, 0.0, -1.0, 0.0])  # polar sign keeps w in (0, pi)


def _hopf_factors(k, spec: GridSpec, a0=QONE):
    """Factors of the Hopf surface L(u) e^{iv} of k: the lift (L, L', L'')
    from a(u0) = a0 at spec.u_nodes, by ceil(hu / ODE_STEP) Magnus steps
    per cell (copied, so no fine lift stays alive), and the fiber
    (e^{iv}, i e^{iv}) at spec.v_nodes."""
    sub = max(1, int(math.ceil(spec.hu / ODE_STEP - 1e-12)))
    lift = asymptotic_lift(k, (spec.u0, spec.u0 + spec.hu * (spec.nu - 1)),
                           spec.hu / sub, a0=a0)
    L, Ld, Ldd = (x[::sub].copy()
                  for x in (lift.samples, lift.deriv, lift.deriv2))
    R = fiber_circle(spec.v_nodes)
    return L, Ld, Ldd, R, qmul(QI, R)


def _hopf_map(k, spec: GridSpec, a0=QONE):
    """F = L e^{iv}, Fhat = L HOPF_XI e^{iv} on spec (see hopf_flat_map).

    lattice = (u span, 2 pi) is set only when the lift returns to its
    start and v spans 2 pi."""
    L, Ld, Ldd, R, Rd = _hopf_factors(k, spec, a0)
    F = qmul(L[:, None, :], R[None, :, :])
    Fhat = qmul(qmul(L, HOPF_XI)[:, None, :], R[None, :, :])
    omega_fn = profile_angle(k)
    omega_grid = np.broadcast_to(
        np.asarray(omega_fn.f1(spec.u_nodes))[:, None], F.shape[:2]).copy()

    lattice = None
    closure = max(float(np.linalg.norm(L[-1] - L[0])),
                  float(np.linalg.norm(Ld[-1] - Ld[0])))
    if closure < 1e-6 and abs(spec.hv * (spec.nv - 1) - TWO_PI) < 1e-12:
        lattice = (spec.hu * (spec.nu - 1), TWO_PI)
    return FlatMapGrid(spec, F, Fhat, omega_grid, omega_fn, lattice=lattice,
                       left=L, left_d=Ld, left_dd=Ldd, right=R, right_d=Rd,
                       xi0=HOPF_XI)


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
    refused.  Whether the map closes is decided separately (see _hopf_map).
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
    whatever window is asked for.  lattice is set only when the lift closes
    and v spans 2 pi, as for the default 2 pi x 2 pi window; a u-window
    whose length is no multiple of 2 pi leaves it None.
    """
    u0 = u_range[0]
    a0 = qmul(0.5 * np.array([1.0, 1.0, 1.0, 1.0]),
              np.array([math.cos(u0), 0.0, 0.0, math.sin(u0)]))
    return _hopf_map(CurvatureProfile(math.pi, 0.0),
                     GridSpec.from_ranges(u_range, v_range, h), a0=a0)


def helix_product_map(r, u_range=(0.0, 1.0), v_range=(0.0, 1.0), h=1e-2):
    """Bianchi product of two helices with torsions +1/-1 and equal curvature.

    The resulting angle is w(u,v) = 2 mu (u+v) with mu = (r^2-1)/(2r).
    xi0 = i: both helix body velocities stay on the j-k great circle.
    """
    from .curve import helix
    mu = (r * r - 1.0) / (2.0 * r)
    a1 = helix(r, +1, (0.0, u_range[1] - u_range[0]), h)
    a1 = a1.left_translate(qinv(a1.samples[0]))
    a2 = helix(r, -1, (0.0, v_range[1] - v_range[0]), h)
    a2 = a2.right_translate(qinv(a2.samples[0]))
    g = bianchi_spivak_product(a1, a2, xi0=QI)
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
    I_4, which as_dict leaves out.
    """
    if g.spec.nu < 3 or g.spec.nv < 3:
        raise ValueError("grid needs at least 3 nodes per direction")
    F, Fh, w = g.F, g.Fhat, g.omega_grid
    Fu = fd.d1(F, g.spec.hu, axis=0)
    Fv = fd.d1(F, g.spec.hv, axis=1)
    Fhu = fd.d1(Fh, g.spec.hu, axis=0)
    Fhv = fd.d1(Fh, g.spec.hv, axis=1)
    cw, sw = np.cos(w), np.sin(w)

    trim = fd.max_interior
    res = {
        "unit_F": trim(qnorm(F) - 1.0),
        "unit_Fhat": trim(qnorm(Fh) - 1.0),
        "first_uu": trim(_dot(Fu, Fu) - 1.0),
        "first_vv": trim(_dot(Fv, Fv) - 1.0),
        "first_uv_cos": trim(_dot(Fu, Fv) - cw),
        "orth_F_Fhat": trim(_dot(F, Fh)),
        "mixed_uv_sin": trim(_dot(Fu, Fhv) - sw),
        "mixed_vu_sin": trim(_dot(Fv, Fhu) - sw),
        "mixed_uu": trim(_dot(Fu, Fhu)),
        "mixed_vv": trim(_dot(Fv, Fhv)),
        "tangency_dF_Fhat": max(trim(_dot(Fu, Fh)), trim(_dot(Fv, Fh))),
        "tangency_F_dFhat": max(trim(_dot(F, Fhu)), trim(_dot(F, Fhv))),
        "polar_uu": trim(_dot(Fhu, Fhu) - 1.0),
        "polar_vv": trim(_dot(Fhv, Fhv) - 1.0),
        "polar_uv_cos": trim(_dot(Fhu, Fhv) + cw),
    }
    if g.spec.nu >= 5 and g.spec.nv >= 5:
        res["omega_uv"] = trim(fd.d1(fd.d1(w, g.spec.hu, axis=0), g.spec.hv,
                                     axis=1))
    gauss = max(
        trim(_dot(Fu, Fu) + _dot(Fhu, Fhu) - 2.0),
        trim(_dot(Fv, Fv) + _dot(Fhv, Fhv) - 2.0),
        trim(_dot(Fu, Fv) + _dot(Fhu, Fhv)),
    )
    frame = (F, Fh, Fu, Fhu)
    frame_res = max(trim(_dot(frame[i], frame[j]) - float(i == j))
                    for i in range(4) for j in range(i, 4))
    return FlatMapReport(res, gauss, frame_res)


def polar_dual(g: FlatMapGrid) -> FlatMapGrid:
    """The polar flat map (F, Fh) -> (Fh, -F) with angle w + pi."""
    omega_fn = g.omega_fn.shifted(math.pi) if g.omega_fn is not None else None
    lx = ld = ldd = None
    if g.has_factors:
        lx = qmul(g.left, g.xi0)
        ld = qmul(g.left_d, g.xi0)
        ldd = qmul(g.left_dd, g.xi0)
    return FlatMapGrid(g.spec, g.Fhat.copy(), -g.F,
                       g.omega_grid + math.pi, omega_fn, lattice=g.lattice,
                       left=lx, left_d=ld, left_dd=ldd,
                       right=None if g.right is None else g.right.copy(),
                       right_d=None if g.right_d is None else g.right_d.copy(),
                       xi0=None if g.xi0 is None else g.xi0.copy())


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


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits, bit-exact round trip)


FLATMAP_HEADER = "u,v,F1,F2,F3,F4,Fh1,Fh2,Fh3,Fh4,omega"
BLOCK_ROWS = 4096


def _write_rows(fh, n, rows, fmt="%.17g", sep=",", prefix=""):
    """Write the rows of the items 0..n-1 to the open text file fh.

    rows(lo, hi) returns the rows of items lo..hi-1 as one 2-D array; each
    row is written as prefix, then its entries in fmt joined by sep.  The
    default is the CSV row: 17 significant digits, so floats read back bit
    for bit.  Items are taken BLOCK_ROWS at a time and each block is
    formatted by one %-operation, which gives the same bytes as formatting
    row by row; neither the whole table nor the whole file is held at once.
    """
    for lo in range(0, n, BLOCK_ROWS):
        block = rows(lo, min(lo + BLOCK_ROWS, n))
        row_fmt = prefix + sep.join([fmt] * block.shape[1]) + "\n"
        fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def _write_grid_csv(path, header, spec: GridSpec, *fields):
    """CSV of a grid: the header line, then u, v and the fields per node.

    fields are (nu, nv) or (nu, nv, k) arrays; rows are in u-major order.
    """
    u, v = spec.u_nodes, spec.v_nodes

    def rows(lo, hi):
        i, j = np.divmod(np.arange(lo, hi), spec.nv)
        return np.column_stack([u[i], v[j]] + [f[i, j] for f in fields])

    with open(path, "w") as fh:
        fh.write(header + "\n")
        _write_rows(fh, spec.nu * spec.nv, rows)


def write_flatmap_csv(g: FlatMapGrid, path):
    """Write g as CSV with the columns of FLATMAP_HEADER (see GridSpec)."""
    _write_grid_csv(path, FLATMAP_HEADER, g.spec, g.F, g.Fhat, g.omega_grid)


def _infer_axis(values, name):
    nodes = np.unique(values)
    if len(nodes) > 1:
        steps = np.diff(nodes)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
            raise ValueError(f"non-uniform {name} grid in CSV")
        h = float(steps[0])
    else:
        h = 1.0
    return nodes, h


def read_flatmap_csv(path) -> FlatMapGrid:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    u_nodes, hu = _infer_axis(data[:, 0], "u")
    v_nodes, hv = _infer_axis(data[:, 1], "v")
    nu, nv = len(u_nodes), len(v_nodes)
    if nu * nv != data.shape[0]:
        raise ValueError("CSV rows do not fill a full rectangle")
    order = np.lexsort((data[:, 1], data[:, 0]))
    data = data[order]
    F = data[:, 2:6].reshape(nu, nv, 4)
    Fhat = data[:, 6:10].reshape(nu, nv, 4)
    omega = data[:, 10].reshape(nu, nv)
    return FlatMapGrid(GridSpec(float(u_nodes[0]), float(v_nodes[0]), hu, hv,
                                nu, nv), F, Fhat, omega)
