import math

import numpy as np
import pytest

from flatsurf4 import _fd as fd
from flatsurf4.curve import CurvatureProfile, S3Curve, asymptotic_lift
from flatsurf4.errors import PreconditionViolated
from flatsurf4.flatmap import (
    FlatMapGrid, GridSpec, SampledMaps, bianchi_spivak_product,
    clifford_flat_map, helix_product_map, hopf_flat_map,
    linear_angle, profile_angle, read_flatmap_csv, verify_flat_map,
    write_flatmap_csv, _hopf_map,
)
from flatsurf4.quat import QI, QJ, hopf, qmul

from flatmap_checks import (constant_angle, normal_shape_check, polar_dual,
                            shifted)

TWO_PI = 2 * math.pi


def fiber_curve_i(length, h):
    """e^{iu} as a unit-speed S3 curve (left body velocity i)."""
    u = h * np.arange(int(round(length / h)) + 1)
    s = np.stack([np.cos(u), np.sin(u), np.zeros_like(u), np.zeros_like(u)], axis=-1)
    d = np.stack([-np.sin(u), np.cos(u), np.zeros_like(u), np.zeros_like(u)], axis=-1)
    return S3Curve(s, h, deriv=d, deriv2=-s)


def fiber_curve_k(length, h):
    """e^{kv} (body velocity k)."""
    u = h * np.arange(int(round(length / h)) + 1)
    z = np.zeros_like(u)
    s = np.stack([np.cos(u), z, z, np.sin(u)], axis=-1)
    d = np.stack([-np.sin(u), z, z, np.cos(u)], axis=-1)
    return S3Curve(s, h, deriv=d, deriv2=-s)


# ---------------------------------------------------------------------------
# Bianchi product maps


def test_helix_product_angle_is_linear():
    g, mu = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    assert mu == pytest.approx(0.75)
    expect = 2 * mu * (g.spec.u_nodes[:, None] + g.spec.v_nodes[None, :])
    assert np.max(np.abs(g.omega_grid - expect)) < 1e-5


def test_helix_product_flatmap_residuals():
    g, _ = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    rep = verify_flat_map(g)
    assert rep.max_flatmap_residual < 1e-5
    assert rep.gauss_metric < 1e-5


@pytest.mark.parametrize("r", [1.5, 2.5])
def test_helix_product_random_radii(r):
    g, mu = helix_product_map(r, (0, 0.8), (0, 0.8), h=0.008)
    assert verify_flat_map(g).max_flatmap_residual < 1e-5
    expect = 2 * mu * (g.spec.u_nodes[:, None] + g.spec.v_nodes[None, :])
    assert np.max(np.abs(g.omega_grid - expect)) < 1e-5


def test_great_circle_product_is_clifford():
    a1 = fiber_curve_i(1.0, 0.01)
    a2 = fiber_curve_k(1.0, 0.01)
    g = bianchi_spivak_product(a1, a2, xi=QJ)
    # constant angle pi/2 everywhere
    assert np.max(np.abs(g.omega_grid - math.pi / 2)) < 1e-12
    # closed form e^{iu} e^{kv}
    u = g.spec.u_nodes[:, None]
    v = g.spec.v_nodes[None, :]
    # (cos u + i sin u)(cos v + k sin v); ik = -j
    expect = np.stack([np.cos(u) * np.cos(v) + 0 * v,
                       np.sin(u) * np.cos(v),
                       -np.sin(u) * np.sin(v),
                       np.cos(u) * np.sin(v)], axis=-1)
    assert np.max(np.abs(g.maps(slice(None))[0] - expect)) < 1e-12
    assert verify_flat_map(g).max_flatmap_residual < 1e-8


@pytest.mark.parametrize("r,span,h", [(2.0, 1.0, 0.01), (1.5, 1.0, 0.01),
                                      (3.7, 0.8, 0.008)])
def test_helix_product_angle_slopes_are_exact(r, span, h):
    g, mu = helix_product_map(r, (0, span), (0, span), h=h)
    assert np.max(np.abs(g.omega_fn.omega_u(g.spec.u_nodes) - 2 * mu)) < 1e-14
    assert np.max(np.abs(g.omega_fn.omega_v(g.spec.v_nodes) - 2 * mu)) < 1e-14


def test_product_angle_slopes_follow_the_profile():
    # a1 the asymptotic lift of k: w1 = arccot(k) up to sign, so with
    # xi = j the slope is w1' = k' / (1 + k^2)
    k = CurvatureProfile(math.pi, 1.2, (0.4,))
    a1 = asymptotic_lift(k, (0.0, 2.0), 0.01)
    g = bianchi_spivak_product(a1, fiber_curve_k(1.0, 0.01), xi=QJ)
    slope = lambda u: k.deriv(u) / (1.0 + k.value(u) ** 2)
    u = g.spec.u_nodes
    assert np.max(np.abs(g.omega_fn.omega_u(u) - slope(u))) < 1e-12
    mid = u[:-1] + 0.5 * g.spec.hu
    assert np.max(np.abs(g.omega_fn.df1(mid) - slope(mid))) < 1e-9
    assert np.max(np.abs(g.omega_fn.omega_v(g.spec.v_nodes))) < 1e-13


def test_product_of_a_single_sample_is_refused():
    a1 = fiber_curve_i(0.0, 0.01)
    assert a1.n == 1
    with pytest.raises(PreconditionViolated, match="at least 2 samples"):
        bianchi_spivak_product(a1, fiber_curve_k(1.0, 0.01), xi=QJ)


def test_product_precondition_start_point():
    from flatsurf4.curve import helix
    a1 = helix(2.0, +1, (0, 0.5), 0.01)  # starts at (2,0,1,0)/sqrt5, not 1
    a2 = helix(2.0, -1, (0, 0.5), 0.01)
    with pytest.raises(PreconditionViolated):
        bianchi_spivak_product(a1, a2, xi=QI)


def test_product_precondition_side_condition():
    a1 = fiber_curve_i(0.5, 0.01)
    a2 = fiber_curve_i(0.5, 0.01)  # <a2', i a2> = 1: wrong family for xi = i
    with pytest.raises(PreconditionViolated):
        bianchi_spivak_product(a1, a2, xi=QI)


# ---------------------------------------------------------------------------
# Hopf flat maps


def test_hopf_map_clifford_angle():
    k = CurvatureProfile(math.pi, 0.0)
    g = hopf_flat_map(k, TWO_PI, h=0.02)
    assert np.max(np.abs(g.omega_grid - math.pi / 2)) < 1e-12
    assert verify_flat_map(g).max_flatmap_residual < 1e-6


def test_hopf_map_constant_k1_angle():
    k = CurvatureProfile(math.pi, 1.0)
    g = hopf_flat_map(k, TWO_PI, h=0.02)
    assert np.max(np.abs(g.omega_grid - math.pi / 4)) < 1e-8
    # angle recovered from the analytic derivatives agrees (sign conventions)
    Fu, Fv, Fhu, Fhv = g.derivatives()
    rec = np.arctan2(np.einsum("...i,...i->...", Fu, Fhv),
                     np.einsum("...i,...i->...", Fu, Fv))
    assert np.max(np.abs(rec - math.pi / 4)) < 1e-8


def test_hopf_map_nonconstant_profile():
    k = CurvatureProfile(2.0, 0.5, (0.3,), (-0.2,))
    g = hopf_flat_map(k, 4.0, h=0.01, v_range=(0.0, TWO_PI), hv=0.02)
    rep = verify_flat_map(g)
    assert rep.max_flatmap_residual < 1e-5
    assert rep.gauss_metric < 1e-5
    # omega = arccot(k) in (0, pi)
    kv = k.value(g.spec.u_nodes)
    expect = 0.5 * math.pi - np.arctan(kv)
    assert np.max(np.abs(g.omega_grid - expect[:, None])) < 1e-12
    assert np.all(g.omega_grid > 0) and np.all(g.omega_grid < math.pi)


def test_hopf_map_fibers_project_to_points():
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    g = hopf_flat_map(k, 2.0, h=0.02, v_range=(0.0, 1.0))
    proj = hopf(g.maps(slice(None))[0])
    spread = proj.max(axis=1) - proj.min(axis=1)
    assert np.max(spread) < 1e-8


def test_hopf_map_rejects_partial_period():
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    with pytest.raises(ValueError):
        hopf_flat_map(k, 3.0, h=0.01)


# ---------------------------------------------------------------------------
# verification details


def test_verify_detects_corruption():
    k = CurvatureProfile(math.pi, 1.0)
    g = hopf_flat_map(k, TWO_PI, h=0.02)
    F = g.maps(slice(None))[0]
    g = FlatMapGrid(g.spec, SampledMaps(F, F.copy()), g.omega_grid)
    rep = verify_flat_map(g)
    assert abs(rep.residuals["orth_F_Fhat"] - 1.0) < 1e-9


@pytest.mark.parametrize("nu,nv", [(1, 9), (2, 9), (9, 4)])
def test_verify_refuses_a_grid_without_interior(nu, nv):
    g = FlatMapGrid(GridSpec(0.0, 0.0, 0.1, 0.1, nu, nv),
                    SampledMaps(np.zeros((nu, nv, 4)), np.zeros((nu, nv, 4))),
                    np.zeros((nu, nv)))
    with pytest.raises(ValueError, match=f"a grid of {nu} x {nv} nodes has no "
                                         "interior; residuals need at least 5"):
        verify_flat_map(g)


def test_polar_duality():
    g, _ = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    gd = polar_dual(g)
    rep = verify_flat_map(gd)
    assert rep.max_flatmap_residual < 1e-5
    assert np.max(np.abs(gd.omega_grid - g.omega_grid - math.pi)) < 1e-12


PRODUCT_MAPS = {
    "helix": lambda: helix_product_map(2.0, (0, 1), (0, 1), h=0.01)[0],
    "hopf": lambda: hopf_flat_map(CurvatureProfile(2.0, 0.5, (0.3,)), 2.0,
                                  h=0.01, v_range=(0.0, 1.0)),
}


@pytest.mark.parametrize("kind", PRODUCT_MAPS)
def test_u_frame_is_rows_of_derivatives(kind):
    g = PRODUCT_MAPS[kind]()
    Fu, _, Fhu, _ = g.derivatives()
    for rows in (slice(0, 1), slice(3, 17), slice(g.spec.nu - 5, g.spec.nu)):
        Nu, Nhu = g.factors().u_frame(rows)
        assert np.array_equal(Nu, Fu[rows]) and np.array_equal(Nhu, Fhu[rows])


@pytest.mark.parametrize("kind", PRODUCT_MAPS)
def test_polar_dual_factors_give_its_derivatives(kind):
    # the polar factors (L xi, L' xi, L'' xi, xi, R, R') rebuild (Fhat, -F)
    # and differentiate it like central differences of its grids do
    g = PRODUCT_MAPS[kind]()
    gd = polar_dual(g)
    F, Fhat = gd.factors().maps(slice(None))
    G, Ghat = g.maps(slice(None))
    assert np.array_equal(F, Ghat)
    assert np.max(np.abs(Fhat + G)) < 1e-12
    hu, hv = gd.spec.hu, gd.spec.hv
    central = (fd.d1(F, hu, axis=0), fd.d1(F, hv, axis=1),
               fd.d1(Fhat, hu, axis=0), fd.d1(Fhat, hv, axis=1))
    for exact, diff in zip(gd.derivatives(), central):
        assert fd.max_interior(np.linalg.norm(exact - diff, axis=-1)) < 1e-6


def test_normal_shape_ratios():
    g, _ = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    assert normal_shape_check(g) < 1e-3
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    g2 = hopf_flat_map(k, 4.0, h=0.01, v_range=(0.0, 1.0))
    assert normal_shape_check(g2) < 1e-3


def test_clifford_standard_pose():
    F = clifford_flat_map(h=0.05).maps(slice(None))[0]
    z1 = np.hypot(F[..., 0], F[..., 1])
    z2 = np.hypot(F[..., 2], F[..., 3])
    assert np.max(np.abs(z1 - 1 / math.sqrt(2))) < 1e-9
    assert np.max(np.abs(z2 - 1 / math.sqrt(2))) < 1e-9


def test_clifford_any_u_window(tmp_path):
    # the constant profile accepts a window that is no multiple of its
    # period, and the window's start is the u of its first node
    g = clifford_flat_map(h=0.02, u_range=(1.0, 2.0), v_range=(0.0, 1.0))
    ref = clifford_flat_map(h=0.02, u_range=(0.0, 2.0), v_range=(0.0, 1.0))
    assert g.spec.u0 == 1.0
    assert g.spec.nu == 51
    i0 = 50  # ref node with u = 1.0
    assert np.max(np.abs(g.spec.u_nodes - ref.spec.u_nodes[i0:])) < 1e-12
    F, Fhat = g.maps(slice(None))
    assert np.max(np.abs(F - ref.maps(slice(i0, None))[0])) < 1e-12
    assert np.max(np.abs(Fhat - ref.maps(slice(i0, None))[1])) < 1e-12
    z1 = np.hypot(F[..., 0], F[..., 1])
    z2 = np.hypot(F[..., 2], F[..., 3])
    assert np.max(np.abs(z1 - 1 / math.sqrt(2))) < 1e-9
    assert np.max(np.abs(z2 - 1 / math.sqrt(2))) < 1e-9
    path = tmp_path / "clifford.csv"
    write_flatmap_csv(g, path)
    first_row = path.read_text().splitlines()[1]
    assert float(first_row.split(",")[0]) == 1.0
    g2 = read_flatmap_csv(path)
    assert g2.spec.u0 == 1.0
    assert np.array_equal(g2.maps(slice(None))[0], F)


def test_hopf_map_owns_its_factor_curves():
    # 50 lift steps per grid step: the stored factors are copies, not
    # strided views that keep the fine lift alive with the grid
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    g = hopf_flat_map(k, 2.0, h=0.05, v_range=(0.0, 1.0))
    p = g.factors()
    for arr in (p.L, p.Ld, p.Ldd):
        assert arr.shape == (g.spec.nu, 4)
        assert arr.base is None and arr.flags.c_contiguous


def test_hopf_map_angle_is_a_view_of_its_u_column():
    # w depends on u alone: the grid is the u-column broadcast along v,
    # read-only, so no (nu, nv) copy is kept and none can be written into
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    spec = GridSpec.from_ranges((0.0, 2.0), (0.0, 1.0), 0.05)
    w = _hopf_map(k, spec).omega_grid
    assert w.shape == (spec.nu, spec.nv)
    assert w.strides[1] == 0
    assert not w.flags.writeable
    expect = 0.5 * math.pi - np.arctan(k.value(spec.u_nodes))
    assert np.max(np.abs(w - expect[:, None])) < 1e-12


# ---------------------------------------------------------------------------
# angle functions


def test_angle_function_forms():
    a = constant_angle(0.7)
    assert a.omega(1.0, 2.0) == pytest.approx(0.7)
    assert a.omega_u(1.0) == pytest.approx(0.0)
    b = linear_angle(2.0, 3.0, 0.1)
    assert b.omega(0.5, 0.25) == pytest.approx(2 * 0.5 + 3 * 0.25 + 0.1)
    assert b.omega_u(9.9) == pytest.approx(2.0)
    k = CurvatureProfile(2.0, 1.0)
    c = profile_angle(k)
    assert c.omega(0.3, 12.0) == pytest.approx(math.pi / 4)


def test_angle_shift():
    b = linear_angle(2.0, 3.0)
    bs = shifted(b, math.pi)
    assert bs.omega(0.1, 0.2) == pytest.approx(b.omega(0.1, 0.2) + math.pi)


# ---------------------------------------------------------------------------
# grid rounding


@pytest.mark.parametrize("h,hv", [(1.5, 0.1), (0.1, 0.6), (0.0, 0.1),
                                  (0.1, -0.1)])
def test_grid_from_ranges_rejects_steps_beyond_spans(h, hv):
    with pytest.raises(ValueError, match="no larger than the spans"):
        GridSpec.from_ranges((1.0, 2.0), (0.5, 1.0), h, hv)


# ---------------------------------------------------------------------------
# CSV round trip


def test_flatmap_csv_roundtrip(tmp_path):
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    g = hopf_flat_map(k, 2.0, h=0.1, v_range=(0.0, 1.0), hv=0.1)
    path = tmp_path / "grid.csv"
    write_flatmap_csv(g, path)
    g2 = read_flatmap_csv(path)
    (F, Fhat), (F2, Fhat2) = g.maps(slice(None)), g2.maps(slice(None))
    assert F2.shape == F.shape
    assert np.array_equal(F2, F)
    assert np.array_equal(Fhat2, Fhat)
    assert np.array_equal(g2.omega_grid, g.omega_grid)
    assert g2.spec.hu == pytest.approx(g.spec.hu, abs=1e-15)
    # a reloaded grid still verifies through finite differences
    assert verify_flat_map(g2).max_flatmap_residual < 1e-3
