"""Solutions of the linear hyperbolic system

    alpha_v = cos(w) alpha_u + sin(w) beta_u
    beta_v  = sin(w) alpha_u - cos(w) beta_u

for a separable angle w(u,v) = w1(u) + w2(v): travelling waves for
constant angle, geometric solutions read off a flat map, stretched
solutions pulled back from an n-stretched Hopf surface, the closed-form
families for linear angles, a quadrature transform producing new
solutions from old ones, and a best-effort characteristic marcher.
Every Hopf surface, stretched or not, is built by flatmap._hopf_factors,
whose lift integrates one base period of the (stretched) profile and
fills the later periods from its monodromy, a(u + T) = M a(u); every
solution read off a map is contracted on its flatmap.ProductFactors and
every grid given by ranges follows GridSpec.from_ranges.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import _fd as fd
from .errors import (EqualSpeeds, GridMismatch, NonConstantAngle,
                     PathDependence)
from .flatmap import (AngleFunction, FlatMapGrid, GridSpec, ProductFactors,
                      _hopf_factors, cos_sin)
from .quat import qconj, qmul


# ---------------------------------------------------------------------------
# small helpers


@dataclass(frozen=True)
class SmoothFn:
    """A scalar function with its analytic derivatives of orders 1 to 3."""

    f: Callable
    df: Callable
    d2f: Callable
    d3f: Callable

    def deriv(self, order):
        return (self.f, self.df, self.d2f, self.d3f)[order]


DERIVATIVE_FIELDS = ("alpha_u", "beta_u", "alpha_v", "beta_v",
                     "alpha_uu", "beta_uu")


@dataclass
class SolutionGrid:
    """Sampled (alpha, beta) on spec with optional analytic derivative arrays."""

    spec: GridSpec
    alpha: np.ndarray
    beta: np.ndarray
    provenance: str = "numeric"
    alpha_u: Optional[np.ndarray] = None
    beta_u: Optional[np.ndarray] = None
    alpha_v: Optional[np.ndarray] = None
    beta_v: Optional[np.ndarray] = None
    alpha_uu: Optional[np.ndarray] = None
    beta_uu: Optional[np.ndarray] = None

    @property
    def has_analytic_derivatives(self):
        return self.alpha_u is not None and self.alpha_uu is not None

    def tile(self, rows, slab, core):
        """The solution on the rows of one row tile (fd.row_tiles): views,
        spec unchanged."""
        return replace(self, **{k: getattr(self, k)[rows] for k in
                                ("alpha", "beta") + DERIVATIVE_FIELDS
                                if getattr(self, k) is not None})

    def alpha_beta(self, rows):
        """(alpha, beta) on the u-rows rows (a slice): views."""
        return self.alpha[rows], self.beta[rows]


def _omega_grid(omega, spec: GridSpec):
    if isinstance(omega, AngleFunction):
        return omega.grid(spec.u_nodes, spec.v_nodes)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (spec.nu, spec.nv):
        raise GridMismatch("angle grid does not match the solution grid")
    return omega


# ---------------------------------------------------------------------------
# residual verification


def system_residual(sol, omega, derivatives="central"):
    """Max-norm residuals (r_alpha, r_beta) of the hyperbolic system.

    derivatives="central" re-derives everything by central differences
    (the independent check); "analytic" uses the solution's stored
    derivative arrays.  The grid is walked in row tiles
    (fd.tiled_max_interior), so no grid-sized derivative is built, and the
    central check reads (alpha, beta) once per tile's slab through
    sol.alpha_beta(slab): sol is a SolutionGrid or any solution with a
    spec and that method, such as the (A, B) of an immersion
    (immersion.Coefficients, its source), which forms them on the slab.
    """
    w = _omega_grid(omega, sol.spec)
    if derivatives not in ("central", "analytic"):
        raise ValueError("derivatives must be 'central' or 'analytic'")
    if derivatives == "analytic" and any(
            getattr(sol, k, None) is None for k in ("alpha_u", "alpha_v")):
        raise ValueError("solution carries no analytic derivatives")
    hu, hv = sol.spec.hu, sol.spec.hv

    def terms(rows, slab, core):
        if derivatives == "central":
            ab = sol.alpha_beta(slab)
            au, bu = (fd.d1(x, hu, axis=0)[core] for x in ab)
            av, bv = (fd.d1(x[core], hv, axis=1) for x in ab)
        else:
            au, bu, av, bv = (x[rows] for x in (sol.alpha_u, sol.beta_u,
                                                sol.alpha_v, sol.beta_v))
        cw, sw = cos_sin(w[rows])
        yield "alpha", av - cw * au - sw * bu
        yield "beta", bv - sw * au + cw * bu

    m = fd.tiled_max_interior(w.shape, terms)
    return m["alpha"], m["beta"]


# ---------------------------------------------------------------------------
# travelling waves for constant angle


def wave_solution(omega0, f1, f2, spec: GridSpec):
    """General solution for constant angle: profiles riding the eigenlines.

    (alpha, beta) = f1(u+v) e+ + f2(u-v) e- where e+/- are the +-1
    eigenvectors (cos w/2, sin w/2), (-sin w/2, cos w/2) of the constant
    coefficient matrix.
    """
    if isinstance(omega0, AngleFunction):
        du = float(np.max(np.abs(omega0.omega_u(spec.u_nodes))))
        dv = float(np.max(np.abs(omega0.omega_v(spec.v_nodes))))
        if max(du, dv) > 1e-12:
            raise NonConstantAngle("wave solutions need a constant angle")
        omega0 = float(omega0.omega(spec.u0, spec.v0))
    c, s = math.cos(omega0 / 2.0), math.sin(omega0 / 2.0)
    U, V = spec.mesh()
    p, m = U + V, U - V

    vals = [(f1.deriv(i)(p), f2.deriv(i)(m)) for i in range(3)]
    (g1, g2), (dg1, dg2), (d2g1, d2g2) = vals
    alpha = c * g1 - s * g2
    beta = s * g1 + c * g2
    return SolutionGrid(
        spec, alpha, beta, "wave",
        alpha_u=c * dg1 - s * dg2, beta_u=s * dg1 + c * dg2,
        alpha_v=c * dg1 + s * dg2, beta_v=s * dg1 - c * dg2,
        alpha_uu=c * d2g1 - s * d2g2, beta_uu=s * d2g1 + c * d2g2)


# ---------------------------------------------------------------------------
# geometric solutions <a, N> + rho


@dataclass(frozen=True)
class FactorSolution:
    """(<a, F> + rho, <a, Fhat>) of the product map of p and its exact
    derivatives, times n per order, held as factors: every field is one
    (nu, 4) factor of p or of q = p.polar() (beta is read off the polar map)
    times the (4, nv) block aR = (a conj(R_j))_j, or aRd = (a conj(R'_j))_j
    for the v-derivatives.

    Right multiplication by r has adjoint right multiplication by conj(r),
    so <a, L_i R_j> = <L_i, a conj(R_j)>: no (nu, nv, 4) array is built.
    tile gives the fields that the representation formula reads on one row
    tile; grid gives the SolutionGrid of all eight fields.
    """

    spec: GridSpec
    p: ProductFactors
    q: ProductFactors
    aR: np.ndarray
    aRd: np.ndarray
    n: int
    rho: float
    provenance: str

    def _fields(self, product):
        """The SolutionGrid of alpha, beta and their first and second
        u-derivatives, product(X) being the contraction of a (nu, 4)
        factor X with aR on the rows wanted."""
        p, q, n = self.p, self.q, self.n
        return SolutionGrid(
            self.spec, product(p.L) + self.rho, product(q.L), self.provenance,
            alpha_u=n * product(p.Ld), beta_u=n * product(q.Ld),
            alpha_uu=n * n * product(p.Ldd), beta_uu=n * n * product(q.Ldd))

    def tile(self, rows, slab, core):
        """The fields on the rows of one row tile (fd.row_tiles), without
        the v-derivatives, which no assembly reads.  Each product is taken
        on the tile's slab and cut to core, so no product has a single
        row.  BLAS may give a row other bits in another row set (see _fd),
        so the fields are read on the grid's row tiles only."""
        return self._fields(lambda X: (X[slab] @ self.aR)[core])

    def grid(self):
        """The SolutionGrid of all eight fields on the whole grid."""
        sol = self._fields(lambda X: X @ self.aR)
        sol.alpha_v = self.n * (self.p.L @ self.aRd)
        sol.beta_v = self.n * (self.q.L @ self.aRd)
        return sol


def _factor_solution(spec: GridSpec, p: ProductFactors, a, rho, n,
                     provenance):
    """The FactorSolution of the product map of p, a and rho."""
    return FactorSolution(spec, p, p.polar(), qmul(a, qconj(p.R)).T,
                          qmul(a, qconj(p.Rd)).T, n, rho, provenance)


def geometric_solution(g: FlatMapGrid, a=(1.0, 0.0, 0.0, 0.0), rho=0.0):
    """(alpha, beta) = (<a, F> + rho, <a, Fhat>) for a in R^4, rho in R.

    The coordinates of a flat map and its polar map solve the system; the
    resulting surface is the affine 3-sphere |f - a| = |rho|.  It is
    contracted on the factor curves of g (FlatMapGrid.factors), so a grid
    read back from CSV raises PreconditionViolated.
    """
    return _factor_solution(g.spec, g.factors(), np.asarray(a, dtype=float),
                            rho, 1, "geometric").grid()


# ---------------------------------------------------------------------------
# stretched solutions (the engine of the perturbed tori)


def stretched_solution(k, n, spec: GridSpec, a=(1.0, 0.0, 0.0, 0.0), rho=0.0):
    """Geometric solution of the n-stretched Hopf surface, read at (nu, nv),
    as a FactorSolution: its fields are formed per row tile where they are
    read (FactorSolution.tile), or whole by FactorSolution.grid.

    Takes (alpha~, beta~) = (<a,N~>+rho, <a,N~hat>) on the Hopf map N~ of
    the stretched profile k~(u) = k(u/n) and returns
    (alpha, beta)(u, v) = (alpha~, beta~)(n u, n v), which solves the
    system for the original angle but is no longer geometric for it.
    N~ is built by flatmap._hopf_factors, the Hopf builder of
    hopf_flat_map, on GridSpec(n u0, n v0, n hu, n hv, nu, nv): spec
    scaled by n, not re-rounded by GridSpec.from_ranges.  Its lift starts
    at a~(n u0) = 1, and by the chain rule each derivative order carries
    a factor n.
    """
    if n < 2:
        raise ValueError("stretch factor n must be >= 2")
    stretched = GridSpec(n * spec.u0, n * spec.v0, n * spec.hu, n * spec.hv,
                         spec.nu, spec.nv)
    return _factor_solution(spec, _hopf_factors(k.stretch(n), stretched),
                            np.asarray(a, dtype=float), rho, n, "stretched")


# ---------------------------------------------------------------------------
# closed forms for the helix-product angle w = 2 mu (u+v)


def helical_angle_solution(mu, g_fn, h_fn, spec: GridSpec):
    """Complete integration for the angle w(u,v) = 2 mu (u+v).

    With theta = mu(u+v), phi = 2 g'(u+v), psi = 2 mu g(u+v) + h(u-v):

        alpha =  phi cos(theta) + psi sin(theta)
        beta  = -psi cos(theta) + phi sin(theta)
    """
    U, V = spec.mesh()
    p, m = U + V, U - V
    theta = mu * p
    ct, st = np.cos(theta), np.sin(theta)

    gp = [g_fn.deriv(i)(p) for i in range(4)]
    hm = [h_fn.deriv(i)(m) for i in range(3)]
    phi = 2.0 * gp[1]
    psi = 2.0 * mu * gp[0] + hm[0]
    phi_u = phi_v = 2.0 * gp[2]
    psi_u = 2.0 * mu * gp[1] + hm[1]
    psi_v = 2.0 * mu * gp[1] - hm[1]
    phi_uu = 2.0 * gp[3]
    psi_uu = 2.0 * mu * gp[2] + hm[2]

    alpha = phi * ct + psi * st
    beta = -psi * ct + phi * st

    def d_alpha(phi_d, psi_d):
        return phi_d * ct - mu * phi * st + psi_d * st + mu * psi * ct

    def d_beta(phi_d, psi_d):
        return -psi_d * ct + mu * psi * st + phi_d * st + mu * phi * ct

    alpha_u = d_alpha(phi_u, psi_u)
    alpha_v = d_alpha(phi_v, psi_v)
    beta_u = d_beta(phi_u, psi_u)
    beta_v = d_beta(phi_v, psi_v)
    alpha_uu = (phi_uu * ct - 2 * mu * phi_u * st - mu * mu * phi * ct
                + psi_uu * st + 2 * mu * psi_u * ct - mu * mu * psi * st)
    beta_uu = (-psi_uu * ct + 2 * mu * psi_u * st + mu * mu * psi * ct
               + phi_uu * st + 2 * mu * phi_u * ct - mu * mu * phi * st)
    return SolutionGrid(spec, alpha, beta, "helical", alpha_u, beta_u,
                        alpha_v, beta_v, alpha_uu, beta_uu)


# ---------------------------------------------------------------------------
# exponential family for w = 2 r u + 2 s v


def exponential_solution(r, s, spec: GridSpec):
    """Closed-form solution for the linear angle w(u,v) = 2ru + 2sv.

    alpha = exp(su+rv)(cos(ru+sv) + sin(ru+sv)),
    beta  = exp(su+rv)(sin(ru+sv) - cos(ru+sv));  requires r^2 != s^2.
    """
    if abs(r * r - s * s) < 1e-12:
        raise EqualSpeeds("exponential family requires r^2 != s^2")
    U, V = spec.mesh()
    E = np.exp(s * U + r * V)
    theta = r * U + s * V
    ct, st = np.cos(theta), np.sin(theta)

    def val(A, B):
        return E * (A * ct + B * st)

    def du(A, B):  # d/du of E(A cos + B sin) in coefficient form
        return s * A + r * B, s * B - r * A

    def dv(A, B):
        return r * A + s * B, r * B - s * A

    a0 = (1.0, 1.0)
    b0 = (-1.0, 1.0)
    au, bu = du(*a0), du(*b0)
    av, bv = dv(*a0), dv(*b0)
    auu, buu = du(*au), du(*bu)
    return SolutionGrid(
        spec, val(*a0), val(*b0), "exponential",
        alpha_u=val(*au), beta_u=val(*bu), alpha_v=val(*av), beta_v=val(*bv),
        alpha_uu=val(*auu), beta_uu=val(*buu))


# ---------------------------------------------------------------------------
# quadrature transform: a new solution from an old one


def _rotation_factors(omega: AngleFunction, spec: GridSpec):
    w1 = np.asarray(omega.f1(spec.u_nodes), dtype=float)
    w2 = np.asarray(omega.f2(spec.v_nodes), dtype=float)
    c1, s1 = np.cos(w1), np.sin(w1)
    c2, s2 = np.cos(w2), np.sin(w2)
    L = np.empty((spec.nu, 2, 2))
    L[:, 0, 0], L[:, 0, 1] = c1, s1
    L[:, 1, 0], L[:, 1, 1] = s1, -c1
    H = np.empty((spec.nv, 2, 2))
    H[:, 0, 0], H[:, 0, 1] = c2, s2
    H[:, 1, 0], H[:, 1, 1] = -s2, c2
    Hinv = np.transpose(H, (0, 2, 1))  # H is a rotation
    return L, H, Hinv


def _cum_u(field_grid, h):
    """Cumulative Simpson integral along axis 0, from 0 at the first node.

    A port of the equal-interval branch of scipy's cumulative_simpson with
    initial=0.0, in its order of operations, so the two agree bit for bit:
    even cells are integrated forwards, odd cells and the last cell
    backwards, and fewer than 3 nodes take the trapezoid rule.
    """
    y = np.asarray(field_grid, dtype=float)
    simpson = lambda a: h / 3 * (5 * a[:-2] / 4 + 2 * a[1:-1] - a[2:] / 4)
    if y.shape[0] < 3:
        cells = h * (y[1:] + y[:-1]) / 2.0
    else:
        fwd, bwd = simpson(y), simpson(y[::-1])[::-1]
        cells = np.empty_like(y[1:])
        cells[:-1:2] = fwd[::2]
        cells[1::2] = bwd[::2]
        cells[-1] = bwd[-1]
    return np.concatenate([np.zeros_like(y[:1]), np.cumsum(cells, axis=0) + 0.0])


def _cum_v(field_grid, h):
    return np.swapaxes(_cum_u(np.swapaxes(field_grid, 0, 1), h), 0, 1)


def _corner_integral(P, Q, spec):
    """grid(u,v) = int_{u0}^{u} P(t, v0) dt + int_{v0}^{v} Q(u, t) dt."""
    first_leg = _cum_u(P, spec.hu)[:, :1, :]
    return first_leg + _cum_v(Q, spec.hv)


def quadrature_transform(X: SolutionGrid, omega: AngleFunction, y0=(0.0, 0.0)):
    """Produce a new solution Z by two nested path integrals of X.

    Y = y0 + int L X du + int H X dv,  Z = int L Y du + int H^-1 Y dv,
    where L, H are the reflection/rotation factors of the system matrix.
    Path independence of both integrals (which holds exactly when X solves
    the system) is verified by comparing the two integration orders;
    disagreement beyond 1e-4 raises PathDependence.  Every path integral
    is a cumulative Simpson sum along grid lines (_cum_u, a numpy port of
    scipy's cumulative_simpson that matches it bit for bit).
    """
    spec = X.spec
    L, H, Hinv = _rotation_factors(omega, spec)
    Xg = np.stack([X.alpha, X.beta], axis=-1)

    LX = np.einsum("iab,ijb->ija", L, Xg)
    HX = np.einsum("jab,ijb->ija", H, Xg)
    Y = np.asarray(y0, dtype=float) + _corner_integral(LX, HX, spec)
    Y_alt = (np.asarray(y0, dtype=float)
             + _cum_v(HX, spec.hv)[:1, :, :] + _cum_u(LX, spec.hu))
    dev_y = float(np.max(np.abs(Y - Y_alt)))

    LY = np.einsum("iab,ijb->ija", L, Y)
    HinvY = np.einsum("jab,ijb->ija", Hinv, Y)
    Z = _corner_integral(LY, HinvY, spec)
    Z_alt = _cum_v(HinvY, spec.hv)[:1, :, :] + _cum_u(LY, spec.hu)
    dev_z = float(np.max(np.abs(Z - Z_alt)))
    if max(dev_y, dev_z) > 1e-4:
        raise PathDependence(
            f"integration orders disagree by {max(dev_y, dev_z):.3e} "
            "(input is not a solution of the system)")

    # analytic derivatives: Z_u = L Y, Z_v = H^-1 Y, Z_uu = L' Y + L L X
    w1 = np.asarray(omega.f1(spec.u_nodes), dtype=float)
    dw1 = np.asarray(omega.omega_u(spec.u_nodes), dtype=float)
    Lp = np.empty_like(L)
    Lp[:, 0, 0], Lp[:, 0, 1] = -np.sin(w1) * dw1, np.cos(w1) * dw1
    Lp[:, 1, 0], Lp[:, 1, 1] = np.cos(w1) * dw1, np.sin(w1) * dw1
    Zuu = (np.einsum("iab,ijb->ija", Lp, Y)
           + np.einsum("iab,ijb->ija", L, LX))
    return SolutionGrid(
        spec, Z[..., 0], Z[..., 1], "quadrature",
        alpha_u=LY[..., 0], beta_u=LY[..., 1],
        alpha_v=HinvY[..., 0], beta_v=HinvY[..., 1],
        alpha_uu=Zuu[..., 0], beta_uu=Zuu[..., 1])


def zero_solution(spec: GridSpec):
    return constant_solution(spec, 0.0, 0.0)


def constant_solution(spec: GridSpec, alpha0=1.0, beta0=0.0):
    return SolutionGrid(spec, np.full((spec.nu, spec.nv), float(alpha0)),
                        np.full((spec.nu, spec.nv), float(beta0)), "wave",
                        **{k: np.zeros((spec.nu, spec.nv))
                           for k in DERIVATIVE_FIELDS})


# ---------------------------------------------------------------------------
# generic numerical marcher (best effort, first-order upwind)


def solve_numeric(omega, spec: GridSpec, alpha0, beta0, cfl=0.5):
    """March the system in v by upwinding along the characteristic fields.

    The system matrix is the reflection [[cos w, sin w], [sin w, -cos w]],
    whose +-1 eigenfields advect left/right; each is transported with a
    first-order one-sided difference (CFL number cfl relative to hu).
    Boundary columns are filled by zero-gradient extrapolation, so accuracy
    degrades near the u-boundary; the residual report is authoritative.
    """
    nu_steps_per_cell = max(1, int(math.ceil(spec.hv / (cfl * spec.hu))))
    dv = spec.hv / nu_steps_per_cell
    lam = dv / spec.hu

    u_nodes = spec.u_nodes
    alpha = np.array(alpha0, dtype=float).copy()
    beta = np.array(beta0, dtype=float).copy()
    if alpha.shape != (spec.nu,) or beta.shape != (spec.nu,):
        raise GridMismatch("initial data must be sampled on the u-nodes")

    out_a = np.empty((spec.nu, spec.nv))
    out_b = np.empty((spec.nu, spec.nv))
    out_a[:, 0], out_b[:, 0] = alpha, beta

    if not isinstance(omega, AngleFunction):
        raise TypeError("solve_numeric needs an AngleFunction")
    # w = w1(u) + w2(v), as AngleFunction.omega sums it; w1 is taken once
    w1 = np.asarray(omega.f1(u_nodes))
    w_of = lambda v: np.asarray(w1 + np.asarray(omega.f2(v)), dtype=float)
    wu = np.asarray(omega.omega_u(u_nodes), dtype=float)

    v = spec.v0
    for j in range(1, spec.nv):
        for _ in range(nu_steps_per_cell):
            w = w_of(v)
            wv = float(omega.omega_v(v))
            ch, sh = np.cos(w / 2.0), np.sin(w / 2.0)
            # characteristic fields phi+- in the frame rotated by w/2
            fp = ch * alpha + sh * beta
            fm = -sh * alpha + ch * beta
            # phi+_v = +phi+_u -> forward difference; phi-_v = -phi-_u -> backward;
            # the frame itself rotates, coupling the fields at order zero
            dfp = np.empty_like(fp)
            dfm = np.empty_like(fm)
            dfp[:-1] = fp[1:] - fp[:-1]
            dfp[-1] = dfp[-2]
            dfm[1:] = fm[1:] - fm[:-1]
            dfm[0] = dfm[1]
            c12 = 0.5 * (wv - wu)
            c21 = -0.5 * (wv + wu)
            fp_new = fp + lam * dfp + dv * c12 * fm
            fm_new = fm - lam * dfm + dv * c21 * fp
            v += dv
            w = w_of(v)
            ch, sh = np.cos(w / 2.0), np.sin(w / 2.0)
            alpha = ch * fp_new - sh * fm_new
            beta = sh * fp_new + ch * fm_new
        out_a[:, j], out_b[:, j] = alpha, beta
    return SolutionGrid(spec, out_a, out_b, "numeric")
