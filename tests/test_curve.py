import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flatsurf4 import _fd as fd
from flatsurf4 import curve
from flatsurf4.curve import (
    ODE_STEP, CurvatureProfile, QuasiPeriodicProfile, asymptotic_lift,
    frenet_s3, helix, helix_curvature, lift_body_velocity, lift_product,
    parse_profile,
)
from flatsurf4.errors import IntegrationFailure
from flatsurf4.flatmap import hopf_flat_map
from flatsurf4.quat import QONE, hopf, pure, qconj, qmul, qnorm

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# curvature profiles


def test_profile_periodicity_through_series():
    k = CurvatureProfile(1.7, 0.4, (0.3, 0.0, 0.1), (0.05,))
    u = np.linspace(0.0, 1.7, 11)
    assert np.max(np.abs(k.value(u + 1.7) - k.value(u))) < 1e-12


def test_profile_derivative_matches_fd():
    k = CurvatureProfile(2.0, 1.0, (0.2,), (0.1,))
    u = np.linspace(0, 2, 37)
    eps = 1e-6
    fd = (k.value(u + eps) - k.value(u - eps)) / (2 * eps)
    assert np.max(np.abs(fd - k.deriv(u))) < 1e-8


def test_profile_json_roundtrip():
    k = CurvatureProfile(math.pi, 0.75, (0.11, 0.0), (0.0, -0.2))
    k2 = parse_profile(k.to_json())
    assert k2 == k


def test_profile_stretch_is_substitution():
    k = CurvatureProfile(1.3, 0.5, (1.0,))
    k2 = k.stretch(2)
    assert k2.base_period == pytest.approx(2.6)
    u = np.linspace(-2, 2, 17)
    assert np.max(np.abs(k2.value(2 * u) - k.value(u))) < 1e-14


def test_quasiperiodic_profile():
    k = QuasiPeriodicProfile(0.8, ((0.1, 1.0, 0.0), (0.05, math.sqrt(2), 0.3)))
    kmax, kpmax = k.bound()
    u = np.linspace(0, 50, 1001)
    assert np.max(np.abs(k.value(u))) <= kmax + 1e-12
    assert np.max(np.abs(k.deriv(u))) <= kpmax + 1e-12
    ks = k.stretch(2)
    assert np.allclose(ks.value(2 * u), k.value(u))


# ---------------------------------------------------------------------------
# helices


def test_helix_start_point():
    c = helix(2.0, s_range=(0.0, 0.1), h=0.05)
    assert np.allclose(c.samples[0], np.array([2, 0, 1, 0]) / math.sqrt(5))


def test_helix_unit_speed():
    c = helix(2.0, s_range=(0.0, 1.0), h=1e-3)
    d1 = (c.samples[2:] - c.samples[:-2]) / (2 * c.h)
    assert np.max(np.abs(np.linalg.norm(d1, axis=1) - 1.0)) < 1e-6


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("tau_sign", [1, -1])
def test_helix_frenet_oracle(r, tau_sign):
    c = helix(r, tau_sign, s_range=(0.0, 2.0), h=1e-3)
    kappa, tau = frenet_s3(c)
    assert np.max(np.abs(kappa - helix_curvature(r))) < 1e-5
    assert np.max(np.abs(tau - tau_sign)) < 1e-5
    assert np.max(np.abs(tau * tau - 1.0)) < 1e-5


def test_helix_closure_period():
    # r = 2: simple closed curve of period 2*pi*r = 4*pi
    c = helix(2.0, s_range=(0.0, 4 * math.pi), h=math.pi / 1000)
    for arr in (c.samples, c.deriv, c.deriv2):
        assert np.linalg.norm(arr[-1] - arr[0]) < 1e-9
    # and not after half the period: the point is then antipodal in x1, x2
    half = c.n // 2
    assert np.linalg.norm(c.samples[half] - c.samples[0]) > 0.5


def test_helix_rejects_degenerate_radius():
    with pytest.raises(ValueError):
        helix(1.0)
    with pytest.raises(ValueError):
        helix(0.5)


# ---------------------------------------------------------------------------
# asymptotic lifts


def test_lift_kernel_is_fourth_order():
    # end-point error of the Magnus steps against DOP853 on a' = a w(u)
    k = CurvatureProfile(2.0, 0.7, (0.4,), (0.2,))

    def rhs(u, a):
        p, q, _, _ = lift_body_velocity(k.value(u), None)
        return qmul(a, np.array([0.0, p, 0.0, q]))

    ref = solve_ivp(rhs, (0.0, 2.0), QONE, method="DOP853",
                    rtol=1e-13, atol=1e-14).y[:, -1]
    errs = [np.linalg.norm(lift_product(k, 2.0, h) - ref)
            for h in (0.08, 0.04, 0.02)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.8)


def test_lift_rejects_non_finite_curvature():
    with pytest.raises(IntegrationFailure):
        lift_product(CurvatureProfile(1.0, math.nan), 1.0, h=0.1)


def test_lift_closed_form_for_flat_projection():
    # k = 0: a(u) = a0 (cos u + k sin u)
    k = CurvatureProfile(math.pi, 0.0)
    c = asymptotic_lift(k, (0.0, TWO_PI), h=1e-3)
    u = c.u_grid
    expect = np.zeros((c.n, 4))
    expect[:, 0] = np.cos(u)
    expect[:, 3] = np.sin(u)
    assert np.max(np.abs(c.samples - expect)) < 1e-10
    assert np.linalg.norm(c.samples[-1] - c.samples[0]) < 1e-8


def test_lift_unit_speed():
    k = CurvatureProfile(2.0, 0.7, (0.2,), (0.1,))
    c = asymptotic_lift(k, (0.0, 4.0), h=1e-3)
    d = fd.d1(c.samples, c.h, axis=0)[2:-2]
    assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) < 1e-7
    # analytic derivative agrees with finite differences
    assert np.max(np.abs(d - c.deriv[2:-2])) < 1e-8


def test_lift_asymptotic_condition():
    # <a', a*j> = 0 exactly along the lift
    k = CurvatureProfile(1.0, 0.5, (0.3,))
    c = asymptotic_lift(k, (0.0, 2.0), h=1e-3)
    aj = qmul(c.samples, np.array([0.0, 0.0, 1.0, 0.0]))
    dots = np.einsum("ij,ij->i", c.deriv, aj)
    assert np.max(np.abs(dots)) < 1e-12


def test_lift_projection_speed_identity():
    # |d/du hopf(a)| * sqrt(1+k^2) / 2 = 1
    k = CurvatureProfile(2.0, 0.6, (0.25,), (-0.1,))
    c = asymptotic_lift(k, (0.0, 4.0), h=1e-3)
    proj = hopf(c.samples)
    dproj = (proj[2:] - proj[:-2]) / (2 * c.h)
    speed = np.linalg.norm(dproj, axis=1)
    kv = k.value(c.u_grid[1:-1])
    assert np.max(np.abs(speed * np.sqrt(1 + kv ** 2) / 2 - 1)) < 1e-6


def test_lift_projected_curvature_matches_profile():
    # geodesic curvature of the Hopf projection, measured in its own
    # arclength, equals k(u(s))
    rng = np.random.default_rng(5)
    for _ in range(3):
        coeffs = rng.uniform(-0.3, 0.3, 2)
        k = CurvatureProfile(2.5, rng.uniform(0.2, 1.0), tuple(coeffs))
        c = asymptotic_lift(k, (0.0, 5.0), h=1e-3)
        proj = hopf(c.samples)
        d1 = np.gradient(proj, c.h, axis=0)
        d2 = np.gradient(d1, c.h, axis=0)
        speed = np.linalg.norm(d1, axis=1)
        # geodesic curvature of a spherical curve in an arbitrary parameter
        n = np.cross(proj, d1 / speed[:, None])
        kg = np.einsum("ij,ij->i", d2, n) / speed ** 2
        kv = k.value(c.u_grid)
        interior = slice(5, -5)
        assert np.max(np.abs(kg[interior] - kv[interior])) < 1e-4


def test_lift_torsion_is_plus_one():
    # the asymptotic family integrated by the lift has torsion +1 wherever
    # the S^3 curvature (which vanishes with k'(u)) is bounded away from 0
    k = CurvatureProfile(2.0, 0.8, (0.2,))
    c = asymptotic_lift(k, (0.0, 2.0), h=1e-3)
    kappa, tau = frenet_s3(c)
    mask = kappa > 0.05
    assert mask.any()
    assert np.max(np.abs(tau[mask] - 1.0)) < 1e-4


# ---------------------------------------------------------------------------
# one-period lifts


# the release base profile (T = pi, see tests/test_acceptance.py) at the
# root of its search
RELEASE_K = CurvatureProfile(math.pi, 1.21321612108222, (1.0900033738813364,))


def _scan(k, u0, nodes, hu):
    """The lift from a(u0) = 1 at u0 + j hu (j < nodes) with its analytic
    derivatives, by a scan that keeps every Magnus step and then takes
    every sub-th node: no cell products, no period."""
    sub = math.ceil(hu / ODE_STEP - 1e-12)
    a, _ = curve._transport(curve._lift_velocity(k.value), u0,
                            (nodes - 1) * hu, hu / sub, stride=1)
    a = a[::sub] / qnorm(a[::sub])[:, None]
    p, q, dp, dq = lift_body_velocity(*(f(u0 + hu * np.arange(nodes))
                                        for f in (k.value, k.deriv)))
    return (a, qmul(a, pure(curve._ik(p, q))),
            -a + qmul(a, pure(curve._ik(dp, dq))))


def _assert_lift_matches(lift, ref, tol):
    # lift and ref are (samples, deriv, deriv2) triples
    for got, want in zip(lift, ref):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < tol


@pytest.mark.parametrize("n", [1, 2])
def test_one_period_lift_matches_every_step_scan(n):
    # the release grid: 96 nodes per base period, 16 base periods; the
    # n-stretched lift runs on the n-scaled grid, 96 nodes per its period
    k, hu = RELEASE_K.stretch(n), n * math.pi / 96
    c = asymptotic_lift(k, (0.0, 1536 * hu), hu)
    _assert_lift_matches((c.samples, c.deriv, c.deriv2),
                         _scan(k, 0.0, 1537, hu), 1e-13)


def test_one_period_lift_rows_a_period_apart_differ_by_the_monodromy():
    k, p = RELEASE_K, 96
    c = asymptotic_lift(k, (0.5, 0.5 + 4 * math.pi), math.pi / p)
    M = qmul(c.samples[p], qconj(c.samples[0]))
    for x in (c.samples, c.deriv, c.deriv2):
        assert np.max(np.abs(x[p:] - qmul(M, x[:-p]))) < 1e-13


def test_lift_without_a_whole_period_matches_every_step_scan():
    # a quasi-periodic profile has no period; a grid of h = 0.03 over two
    # periods of 2 has round(4 / 0.03) = 133 cells, 66.5 per period
    quasi = QuasiPeriodicProfile(0.8, ((0.15, 2.0, 0.0),
                                       (0.1, 2.0 * math.sqrt(2), 0.4)))
    c = asymptotic_lift(quasi, (1.0, 9.0), 0.05)
    _assert_lift_matches((c.samples, c.deriv, c.deriv2),
                         _scan(quasi, 1.0, 161, 0.05), 1e-13)
    k = CurvatureProfile(2.0, 0.7, (0.4,), (0.2,))
    g = hopf_flat_map(k, 4.0, h=0.03).product
    _assert_lift_matches((g.L, g.Ld, g.Ldd), _scan(k, 0.0, 134, 4.0 / 133),
                         1e-13)


def test_lift_steps_do_not_grow_with_the_periods(monkeypatch):
    steps, real = [], curve._magnus_factors

    def counted(wfun, u, h):
        steps.append(len(u))
        return real(wfun, u, h)

    monkeypatch.setattr(curve, "_magnus_factors", counted)
    hu = math.pi / 96
    counts = []
    for periods in (1, 16):
        steps.clear()
        asymptotic_lift(RELEASE_K, (0.0, periods * math.pi), hu)
        counts.append(sum(steps))
    assert counts == [96 * math.ceil(hu / ODE_STEP)] * 2


def test_lift_refuses_a_node_spacing_longer_than_the_range():
    with pytest.raises(ValueError, match=r"step h = 3 must be in \(0, 2\]"):
        asymptotic_lift(RELEASE_K, (0.0, 2.0), 3.0)
    with pytest.raises(ValueError, match=r"step h = 5 must be in \(0, 2\]"):
        lift_product(CurvatureProfile(2.0, 0.5, (0.3,)), 2.0, h=5.0)
