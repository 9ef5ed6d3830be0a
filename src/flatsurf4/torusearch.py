"""Holonomy of stretched curvature profiles, rational-angle search, and
assembly of perturbed Hopf tori and complete flat cylinders.

For a T-periodic profile k the curve in S^2 with geodesic curvature k(u)
(u = lift arclength) advances per period by a rigid rotation; the curve
closes after m periods iff that rotation has finite order dividing m.  The
map a_n sends k to theta/pi of the rotation of the n-stretched profile
k(u/n); the stretched curve closes (and its Hopf surface is a torus)
exactly when a_n is rational.  Tuning a one-parameter profile family onto
a rational value and pulling the stretched geometric solutions back at
n-fold speed produces flat tori in R^4 that sit on no affine 3-sphere.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional

import numpy as np

from ._fork import Forked
from .curve import CurvatureProfile, lift_product
from .errors import ClosureFailure, NoSignChange, SingularAfterRescale
from .flatmap import (FlatMapGrid, GridSpec, _hopf_map, hopf_flat_map,
                      verify_flat_map)
from .hypsys import stretched_solution, system_residual
from .immersion import (ImmersionGrid, assemble, auto_lambda, lambda_rescale,
                        metric_checks, sphere_fit, tangency_check)
from .quat import QONE, qmul, rotation_matrix

TWO_PI = 2.0 * math.pi
Q_MAX = 64  # the largest denominator rationalize accepts
RATIONAL_WINDOW = 1e-8


def rationalize(x):
    """Best rational p/q, q <= Q_MAX, within RATIONAL_WINDOW of x
    (convergents): the one closure test of a lift (lift_closure_multiple)."""
    frac = Fraction(x).limit_denominator(Q_MAX)
    if abs(x - float(frac)) <= RATIONAL_WINDOW:
        return frac.numerator, frac.denominator
    return None


# ---------------------------------------------------------------------------
# holonomy of one curvature period


@dataclass(frozen=True)
class HolonomyResult:
    """The lift monodromy Psi over one period and its rotation Ad(Psi)."""
    rotation: np.ndarray          # (3,3) in SO(3)
    theta: float                  # signed angle in (-pi, pi]
    axis: np.ndarray              # (3,) unit; axis . e3 >= 0
    theta_over_pi: float
    rational: Optional[tuple]     # (p, q) when theta/pi is near-rational
    monodromy: np.ndarray         # (4,) unit quaternion Psi

    @property
    def so3_deviation(self):
        R = self.rotation
        return float(max(np.max(np.abs(R.T @ R - np.eye(3))),
                         abs(np.linalg.det(R) - 1.0)))


def holonomy(k, h=1e-3) -> HolonomyResult:
    """Rotation carrying the curve frame across one base period of k.

    The frame (c, t, c x t) of the curve with geodesic curvature k(u) obeys
    c' = v t, t' = v(-c + k c x t) with v = 2/sqrt(1+k^2); it is exactly
    Ad(a)(i, j, k) for the asymptotic lift a with a(0) = 1.  So the
    rotation is Ad of the lift monodromy, integrated by Magnus-4 steps of
    size h.  The angle sign follows the convention axis . (c(0) x t(0)) >= 0.
    """
    psi = lift_product(k, k.base_period, h)  # a(u + T) = a(u) Psi
    R = rotation_matrix(psi)  # columns c, t, c x t

    w = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    cos_theta = 0.5 * (np.trace(R) - 1.0)
    s = np.linalg.norm(w)
    if s > 1e-8:
        axis = w / s
    elif cos_theta > 0.0:          # rotation near the identity
        axis = np.array([0.0, 0.0, 1.0])
    else:                          # angle near pi: axis from R + I = 2 n n^T
        sym = 0.5 * (R + np.eye(3))
        col = int(np.argmax(np.diag(sym)))
        axis = sym[:, col]
        axis = axis / np.linalg.norm(axis)
    if axis[2] < 0.0:
        axis = -axis
    theta = math.atan2(float(w @ axis), float(cos_theta))
    top = theta / math.pi
    return HolonomyResult(R, theta, axis, top, rationalize(top), psi)


def a_n(k, n, h=1e-3):
    """theta/pi for the n-stretched profile; rational iff the stretched
    curve (and hence its Hopf surface) closes up."""
    if n < 2:
        raise ValueError("a_n is defined for stretch factors n >= 2")
    return holonomy(k.stretch(n), h=h).theta_over_pi


def _power(psi, m):
    """Psi^m by one left-to-right qmul chain: a(mT) for a(0) = 1."""
    return reduce(qmul, [psi] * m)


def _frame_gap(a):
    """Mismatch of the frame Ad(a)(i, j) against its start (i, j); for
    a = Psi^m it is the curve's closure gap after m periods."""
    R = rotation_matrix(a)
    c1, t1 = R[:, 0], R[:, 1]
    return float(max(np.linalg.norm(c1 - np.array([1.0, 0.0, 0.0])),
                     np.linalg.norm(t1 - np.array([0.0, 1.0, 0.0]))))


def holonomy_closure_residual(k, multiples=1, h=1e-3):
    """Frame gap after the given number of base periods, by brute force
    (Magnus-4 steps of size h straight through): the tests' reference for
    search_rational's closure_residual, kept by name for the benchmark's
    tracer.  No package code calls it."""
    return _frame_gap(lift_product(k, multiples * k.base_period, h))


def closure_multiple(p, q):
    """Smallest m with m*theta = 0 mod 2 pi for theta = p pi / q."""
    if p == 0:
        return 1
    return 2 * q // math.gcd(abs(p), 2 * q)


# ---------------------------------------------------------------------------
# rational-angle search over a profile family


def _brentq(f, xa, xb, xtol):
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's brentq.c with rtol = 4 eps and 100
    iterations, so it takes the same iterates as scipy.optimize.brentq.
    An endpoint where f is 0 is returned as the root; endpoints of one
    sign raise ValueError and a search that does not converge raises
    RuntimeError.
    """
    rtol = 4.0 * np.finfo(float).eps
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method failed to converge after 100 "
                       f"iterations, value is {xcur}")


@dataclass
class SearchOutcome:
    profile: CurvatureProfile
    n: int
    achieved: HolonomyResult
    target: tuple
    parameter: float
    h: float  # the Magnus step of the search
    closure_multiple: int = 1
    closure_residual: float = math.nan

    def to_json(self):
        return json.dumps({
            "profile": json.loads(self.profile.to_json()),
            "n": self.n,
            "theta_over_pi": self.achieved.theta_over_pi,
            "rational": list(self.target),
            "parameter": self.parameter,
        })


def single_harmonic_family(k0, T=math.pi):
    """The default search family k_eps(u) = k0 + eps cos(2 pi u / T)."""
    return lambda eps: CurvatureProfile(T, k0, (eps,))


def search_rational(family: Callable[[float], CurvatureProfile], n, target,
                    bracket, h=1e-3) -> SearchOutcome:
    """Solve a_n(k_eps) = p/q for the family parameter by Brent's method
    (`_brentq`, a port of scipy's `brentq.c`; xtol 1e-10), with Magnus
    steps of size h.

    If the bracket endpoints do not straddle the target, 17 points of the
    bracket are scanned for a sign change first; a scan without one raises
    NoSignChange carrying the sampled (eps, a_n) values, which covers the
    possibility that a_n is constant on the family.  The root is then
    validated from its stretched holonomy's monodromy Psi: a frame gap of
    Psi^m (m = closure_multiple(p, q)) above 1e-4 raises ClosureFailure.
    """
    p, q = target
    t_val = p / q

    known = {}

    def g(eps):
        # memoized, so _brentq does not recompute the scanned end values
        if eps not in known:
            known[eps] = a_n(family(eps), n, h=h) - t_val
        return known[eps]

    lo, hi = bracket
    if g(lo) * g(hi) > 0.0:
        eps_grid = np.linspace(lo, hi, 17)
        vals = [g(e) for e in eps_grid]
        scan = [(float(e), v + t_val) for e, v in zip(eps_grid, vals)]
        idx = next((i for i in range(len(vals) - 1)
                    if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0), None)
        if idx is None:
            raise NoSignChange(
                f"a_{n} never crosses {p}/{q} = {t_val:g} on the bracket "
                f"[{bracket[0]:g}, {bracket[1]:g}]; scanned range "
                f"[{min(v for _, v in scan):.6g}, {max(v for _, v in scan):.6g}]",
                scan=scan)
        lo, hi = float(eps_grid[idx]), float(eps_grid[idx + 1])

    eps_root = _brentq(g, lo, hi, 1e-10)
    profile = family(eps_root)
    ach = holonomy(profile.stretch(n), h=h)

    m_star = closure_multiple(p, q)
    residual = _frame_gap(_power(ach.monodromy, m_star))
    if residual > 1e-4:
        raise ClosureFailure(
            f"stretched curve misses closure after {m_star} periods "
            f"(residual {residual:.3e})", best_residual=residual)
    return SearchOutcome(profile, n, ach, (p, q), eps_root, h, m_star,
                         residual)


# ---------------------------------------------------------------------------
# lift closure (periods of the Hopf surface in the u direction)


def lift_closure_multiple(hol: HolonomyResult):
    """(M, |Psi^M - 1|): the lift of holonomy hol closes over M periods.

    For theta/pi = p/q (hol.rational), Ad(Psi) has order
    m = closure_multiple(p, q), so Psi^m = +-1 and M is m, or 2m when
    Psi^m = -1 (powers by one left-to-right qmul chain).  Otherwise it
    raises ClosureFailure with the gap to the nearest p/q, q <= Q_MAX."""
    if hol.rational is None:
        x = hol.theta_over_pi
        near = Fraction(x).limit_denominator(Q_MAX)
        raise ClosureFailure(
            f"lift holonomy theta/pi = {x:.8f} is not rational, so the lift "
            f"does not close: the nearest p/q with q <= {Q_MAX} is {near}, "
            f"{abs(x - near):.3e} away", best_residual=abs(x - near))
    m = closure_multiple(*hol.rational)
    if _power(hol.monodromy, m)[0] < 0.0:  # Psi^m = -1
        m *= 2
    return m, float(np.linalg.norm(_power(hol.monodromy, m) - QONE))


# ---------------------------------------------------------------------------
# torus and cylinder assembly


def _assemble_stretched(gmap: FlatMapGrid, k, n, lam):
    """(immersion, diagnostics) of the n-stretched solution on gmap's grid;
    lambda comes from auto_lambda when lam is None.  The solution and its
    lambda_rescale are held as factors (hypsys.FactorSolution), which
    auto_lambda and assemble read tile by tile, as they form F and Fhat.

    The flat map is checked first: verify_flat_map needs no immersion.  On
    two allowed CPUs a forked child (_fork.Forked) runs it while this
    process solves, picks lambda and assembles, and only its small report
    comes back; on one CPU it runs here before the solution.  Either way
    its tile temporaries never sit on top of f, A and B, and its error wins
    over one of the assembly."""
    with Forked.before(verify_flat_map, gmap) as check:
        sol = stretched_solution(k, n, gmap.spec)
        lam = auto_lambda(gmap, sol) if lam is None else float(lam)
        im = assemble(gmap, lambda_rescale(sol, lam))
        fm = check.result()
    return im, _diagnostics(gmap, im, lam, fm)


def _diagnostics(gmap: FlatMapGrid, im: ImmersionGrid, lam, fm):
    """The report of a build: lam, the checks of im on gmap, and fm, the
    verify_flat_map report of gmap.

    The one walk that differences f (tangency_check) comes last: on two
    allowed CPUs a forked child runs it while this process runs
    sphere_fit, metric_checks and system_residual, and it sends back its
    three keys (tangency_u, tangency_v, metric_identity).  An error of this
    process's checks wins; the child is then killed and reaped."""
    with Forked.after(tangency_check, im, gmap) as checks:
        fit = sphere_fit(im.f)
        rep = {"lambda": lam, **metric_checks(im)}
        rep["sphere_rms"] = fit.rms_residual
        rep["sphere_radius"] = fit.radius
        ra, rb = system_residual(im.source, gmap.omega_grid)
        rep["derived_system_residual"] = max(ra, rb)
        rep.update(checks.result())
    rep["frame_residual"] = fm.frame_residual
    rep["flatmap_max"] = fm.max_flatmap_residual
    rep["gauss_metric"] = fm.gauss_metric
    w = gmap.omega_grid
    rep["omega_range"] = float(np.max(w) - np.min(w))
    rep["sin_omega_min"] = float(np.min(im.sin_w))
    return rep


def build_perturbed_torus(outcome: SearchOutcome, lam=None, nodes_per_period=96,
                          nv=192):
    """Assemble the flat torus of a validated search outcome.

    Takes a common u-period U = lcm(m1, m2) T of the Hopf surface (lift
    closure m1 of the base holonomy at the search's step outcome.h) and
    the pulled-back stretched solution (m2 of the search's holonomy, not
    integrated again), builds the flat map on [0, U] x [0, 2 pi], rescales
    the stretched solution by lambda (auto-collapsed if not given) and
    assembles f with full diagnostics.  Double periodicity of f is
    enforced within 1e-4; flatness, sphere, and nonconstant-angle checks
    are reported.
    """
    k = outcome.profile
    n = outcome.n
    T = k.base_period
    m1, gap1 = lift_closure_multiple(holonomy(k, outcome.h))
    m2, gap2 = lift_closure_multiple(outcome.achieved)
    # the stretched lift closes over m2 * nT; the pullback at (nu, nv) is
    # then m2 * T periodic in u
    m_common = m1 * m2 // math.gcd(m1, m2)
    U = m_common * T

    hu = T / nodes_per_period
    gmap = hopf_flat_map(k, U, h=hu, hv=TWO_PI / nv)
    im, rep = _assemble_stretched(gmap, k, n, lam)
    rep["lift_period_multiple"] = m1
    rep["stretched_period_multiple"] = m2
    rep["u_period"] = U
    rep["lift_closure_gap"] = max(gap1, gap2)
    rep["closure_u"] = float(np.max(np.linalg.norm(im.f[-1] - im.f[0], axis=-1)))
    rep["closure_v"] = float(np.max(np.linalg.norm(im.f[:, -1] - im.f[:, 0], axis=-1)))

    if max(rep["closure_u"], rep["closure_v"]) > 1e-4:
        raise ClosureFailure(
            f"assembled torus is not doubly periodic (u gap "
            f"{rep['closure_u']:.3e}, v gap {rep['closure_v']:.3e})",
            best_residual=max(rep["closure_u"], rep["closure_v"]))
    if rep["margin_min"] <= 0.0:
        raise SingularAfterRescale(f"margin min {rep['margin_min']:.3e} <= 0 "
                                   f"at lambda = {rep['lambda']:g}")

    rep["flags"] = []
    if rep["omega_range"] < 1e-6:
        rep["flags"].append("degenerate_product")  # circle control case
    if rep["sphere_rms"] < 1e-2:
        rep["flags"].append("on_affine_sphere")
    rep["ok"] = (rep["gauss_K_max"] < 1e-3 and rep["margin_min"] > 0
                 and rep["sphere_rms"] > 1e-2 and rep["omega_range"] > 1e-6)
    return im, rep


def build_perturbed_cylinder(k, n=2, lam=None, u_window=None, h=0.02, nv=128):
    """Assemble a complete flat cylinder from a (quasi-)periodic profile.

    Same pipeline as the torus without any closure requirement: the
    profile only needs bounded k and k' (so sin w = 1/sqrt(1+k^2) stays
    bounded away from zero and the asymptotic curves have bounded
    curvature).  The grid is GridSpec.from_ranges(u_window, (0, 2 pi), h,
    2 pi / nv), and both lifts start at 1 at the window's start.  Reports
    positivity of the margin and of the smallest metric eigenvalue on the
    window plus boundedness of f.
    """
    if u_window is None:
        u_window = (0.0, 4.0 * math.pi)
    gmap = _hopf_map(k, GridSpec.from_ranges(u_window, (0.0, TWO_PI), h,
                                             TWO_PI / nv))
    im, rep = _assemble_stretched(gmap, k, n, lam)
    if hasattr(k, "bound"):
        kmax, kpmax = k.bound()
        rep["profile_k_max"] = kmax
        rep["profile_kprime_max"] = kpmax
        rep["sin_omega_lower_bound"] = 1.0 / math.sqrt(1.0 + kmax * kmax)
    if lam is not None and rep["margin_min"] <= 0.0:
        raise SingularAfterRescale(f"margin min {rep['margin_min']:.3e} <= 0 "
                                   f"at lambda = {rep['lambda']:g}")
    rep["ok"] = (rep["margin_min"] > 0 and rep["metric_min_eigenvalue"] > 0
                 and rep["gauss_K_max"] < 1e-3 and rep["sphere_rms"] > 1e-2)
    return im, rep
