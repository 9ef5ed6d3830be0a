import math

import numpy as np
import pytest

from flatsurf4.curve import ODE_STEP, CurvatureProfile, asymptotic_lift
from flatsurf4.errors import (EqualSpeeds, GridMismatch, NonConstantAngle,
                              PathDependence, PreconditionViolated)
from flatsurf4.flatmap import (helix_product_map, hopf_flat_map,
                               linear_angle, profile_angle, read_flatmap_csv,
                               verify_flat_map, write_flatmap_csv)
from flatsurf4.hypsys import (DERIVATIVE_FIELDS, GridSpec, SmoothFn,
                              SolutionGrid, _cum_u, constant_solution,
                              exponential_solution, geometric_solution,
                              helical_angle_solution, quadrature_transform,
                              solve_numeric, stretched_solution, system_residual,
                              wave_solution, zero_solution)
from flatsurf4.immersion import assemble, tangency_check
from flatsurf4.quat import qmul

from flatmap_checks import (combine, constant_angle, normal_shape_check,
                            polar_dual)

TWO_PI = 2 * math.pi

SIN = SmoothFn(np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))
COS = SmoothFn(np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin)
ZERO = SmoothFn(lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                lambda t: np.zeros_like(np.asarray(t, dtype=float)))
ONE = SmoothFn(lambda t: np.ones_like(np.asarray(t, dtype=float)),
               lambda t: np.zeros_like(np.asarray(t, dtype=float)),
               lambda t: np.zeros_like(np.asarray(t, dtype=float)),
               lambda t: np.zeros_like(np.asarray(t, dtype=float)))

SPEC = GridSpec.from_ranges((0, 1), (0, 1), 0.01)


# ---------------------------------------------------------------------------
# residuals of trivial solutions


def test_zero_and_constant_solutions():
    w = constant_angle(0.9)
    assert system_residual(zero_solution(SPEC), w) == (0.0, 0.0)
    ra, rb = system_residual(constant_solution(SPEC, 1.0, 0.0), w)
    assert ra == 0.0 and rb == 0.0


def test_diagonal_system_at_omega_zero():
    # omega = 0: alpha_v = alpha_u, beta_v = -beta_u
    U, V = SPEC.mesh()
    sol = SolutionGrid(SPEC,
                       (U + V) * np.ones_like(V), (U - V) * np.ones_like(V))
    ra, rb = system_residual(sol, constant_angle(0.0))
    assert ra < 1e-10 and rb < 1e-10


# ---------------------------------------------------------------------------
# waves


def test_wave_omega_zero():
    sol = wave_solution(0.0, SIN, COS, SPEC)
    U, V = SPEC.mesh()
    assert np.max(np.abs(sol.alpha - np.sin(U + V))) < 1e-14
    assert np.max(np.abs(sol.beta - np.cos(U - V))) < 1e-14
    ra, rb = system_residual(sol, constant_angle(0.0), derivatives="analytic")
    assert ra < 1e-10 and rb < 1e-10
    ra_c, rb_c = system_residual(sol, constant_angle(0.0))
    assert ra_c < 1e-8 and rb_c < 1e-8


def test_wave_omega_right_angle():
    sol = wave_solution(math.pi / 2, SIN, COS, SPEC)
    ra, rb = system_residual(sol, constant_angle(math.pi / 2), derivatives="analytic")
    assert ra < 1e-8 and rb < 1e-8


def test_wave_rejects_nonconstant_angle():
    with pytest.raises(NonConstantAngle):
        wave_solution(linear_angle(1.0, 0.0), SIN, COS, SPEC)


def test_combine_of_wave_solutions():
    # the system is linear: a x + b y solves it, field by field
    x = wave_solution(0.7, SIN, COS, SPEC)
    y = wave_solution(0.7, COS, ONE, SPEC)
    a, b = 0.3, -1.7
    z = combine(x, y, a, b)
    ra, rb = system_residual(z, constant_angle(0.7), derivatives="analytic")
    assert ra <= 1e-10 and rb <= 1e-10
    for name in ("alpha", "beta") + DERIVATIVE_FIELDS:
        assert np.array_equal(getattr(z, name),
                              a * getattr(x, name) + b * getattr(y, name))
    assert z.spec == SPEC and z.provenance == "wave+wave"
    other = GridSpec.from_ranges((0, 1), (0, 1), 0.02)
    with pytest.raises(GridMismatch):
        combine(x, wave_solution(0.7, SIN, COS, other))


# ---------------------------------------------------------------------------
# geometric solutions


def test_geometric_solution_on_hopf_map():
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    g = hopf_flat_map(k, 4.0, h=0.01, v_range=(0.0, 1.0))
    sol = geometric_solution(g, a=(1, 0, 0, 0), rho=0.0)
    ra, rb = system_residual(sol, g.omega_fn)
    assert max(ra, rb) < 1e-4
    ra2, rb2 = system_residual(sol, g.omega_fn, derivatives="analytic")
    assert max(ra2, rb2) < 1e-8


def test_geometric_zero_vector_gives_constant():
    k = CurvatureProfile(math.pi, 1.0)
    g = hopf_flat_map(k, TWO_PI, h=0.05)
    sol = geometric_solution(g, a=(0, 0, 0, 0), rho=1.0)
    assert np.max(np.abs(sol.alpha - 1.0)) == 0.0
    assert np.max(np.abs(sol.beta)) == 0.0


def test_geometric_linear_combination():
    k = CurvatureProfile(2.0, 0.5, (0.2,), (0.1,))
    g = hopf_flat_map(k, 4.0, h=0.01, v_range=(0.0, 1.0))
    s1 = geometric_solution(g, a=(1, 0, 0, 0))
    s2 = geometric_solution(g, a=(0, 0, 1, 0), rho=0.5)
    combo = combine(s1, s2, 2.0, -3.0)
    ra, rb = system_residual(combo, g.omega_fn)
    assert max(ra, rb) < 1e-4


def test_linearity_of_residual():
    k = CurvatureProfile(2.0, 0.5, (0.2,))
    g = hopf_flat_map(k, 4.0, h=0.01, v_range=(0.0, 1.0))
    s1 = geometric_solution(g, a=(1, 0, 0, 0))
    s2 = geometric_solution(g, a=(0, 1, 0, 0))
    r1 = max(system_residual(s1, g.omega_fn))
    r2 = max(system_residual(s2, g.omega_fn))
    a, b = 1.7, -0.6
    rc = max(system_residual(combine(s1, s2, a, b), g.omega_fn))
    assert rc <= abs(a) * r1 + abs(b) * r2 + 1e-12


# a non-unit vector and a nonzero rho, so no term of the contraction can hide
A_VEC = np.array([0.3, -0.5, 0.7, 0.2])
RHO = 0.4


def _fields(sol):
    return (sol.alpha, sol.beta, sol.alpha_u, sol.beta_u, sol.alpha_v,
            sol.beta_v, sol.alpha_uu, sol.beta_uu)


def _a_dot(arr):
    return np.einsum("ijk,k->ij", arr, A_VEC)


def _outer_dot(left, right):
    """<a, left_i right_j> through the expanded (nu, nv, 4) product."""
    return _a_dot(qmul(left[:, None, :], right[None, :, :]))


def _assert_fields_close(sol, ref, tol=1e-13):
    for got, want in zip(_fields(sol), ref):
        assert np.max(np.abs(got - want)) < tol


@pytest.mark.parametrize("kind", ["hopf", "polar", "helix"])
def test_geometric_solution_contracts_on_factors(kind):
    if kind == "helix":
        g, _ = helix_product_map(1.5, (0.0, 1.0), (0.0, 1.0), h=0.02)
    else:
        g = hopf_flat_map(CurvatureProfile(2.0, 0.5, (0.3,)), 4.0, h=0.05,
                          v_range=(0.0, 1.0), hv=0.02)
        g = polar_dual(g) if kind == "polar" else g
    p = g.factors()
    sol = geometric_solution(g, a=A_VEC, rho=RHO)
    Fu, Fv, Fhu, Fhv = g.derivatives()
    F, Fhat = g.maps(slice(None))
    ref = (_a_dot(F) + RHO, _a_dot(Fhat), _a_dot(Fu), _a_dot(Fhu),
           _a_dot(Fv), _a_dot(Fhv), _outer_dot(p.Ldd, p.R),
           _outer_dot(qmul(p.Ldd, p.xi), p.R))
    _assert_fields_close(sol, ref)


@pytest.mark.parametrize("kind", ["helix", "hopf"])
def test_geometric_solution_of_polar_dual_solves_shifted_system(kind):
    # contracted on the polar factors, it solves the system for w + pi
    if kind == "helix":
        g, _ = helix_product_map(2.0, (0.0, 1.0), (0.0, 1.0), h=0.01)
    else:
        g = hopf_flat_map(CurvatureProfile(2.0, 0.5, (0.3,)), 2.0, h=0.01,
                          v_range=(0.0, 1.0))
    gd = polar_dual(g)
    sol = geometric_solution(gd, a=A_VEC, rho=RHO)
    assert max(system_residual(sol, gd.omega_fn)) < 1e-4
    assert max(system_residual(sol, gd.omega_grid)) < 1e-4


def test_csv_grid_has_no_derivatives(tmp_path):
    # a grid read back from CSV has no factor curves, so everything that
    # needs a derivative of the map refuses it; the checks still accept it
    g = hopf_flat_map(CurvatureProfile(2.0, 0.5, (0.3,)), 2.0, h=0.05,
                      v_range=(0.0, 1.0), hv=0.05)
    path = tmp_path / "grid.csv"
    write_flatmap_csv(g, path)
    csv_grid = read_flatmap_csv(path)
    assert csv_grid.product is None
    im = assemble(g, constant_solution(g.spec))
    for use in (lambda: geometric_solution(csv_grid, a=A_VEC, rho=RHO),
                lambda: assemble(csv_grid, constant_solution(g.spec)),
                lambda: tangency_check(im, csv_grid),
                lambda: normal_shape_check(csv_grid)):
        with pytest.raises(PreconditionViolated, match="no factor curves"):
            use()
    assert verify_flat_map(csv_grid).as_dict() == verify_flat_map(g).as_dict()


# ---------------------------------------------------------------------------
# stretched solutions


def test_stretched_solution_contracts_on_factors():
    n = 2
    k = CurvatureProfile(2.0, 0.5, (0.2,), (0.1,))
    spec = GridSpec.from_ranges((0.3, 2.3), (0.0, TWO_PI), 0.05, TWO_PI / 64)
    sub = round(n * spec.hu / ODE_STEP)
    # the reference lift takes the same ODE_STEP-sized steps, sub per grid step
    sol = stretched_solution(k, n, spec, a=A_VEC, rho=RHO).grid()
    lift = asymptotic_lift(k.stretch(n), (n * spec.u0, n * spec.u_nodes[-1]),
                           n * spec.hu / sub)
    L, Ld, Ldd = (x[::sub] for x in (lift.samples, lift.deriv, lift.deriv2))
    assert L.shape == (spec.nu, 4)
    xi = np.array([0.0, 0.0, -1.0, 0.0])
    v = n * spec.v_nodes
    zero = np.zeros_like(v)
    R = np.stack([np.cos(v), np.sin(v), zero, zero], axis=-1)
    Rd = np.stack([-np.sin(v), np.cos(v), zero, zero], axis=-1)
    ref = (_outer_dot(L, R) + RHO, _outer_dot(qmul(L, xi), R),
           n * _outer_dot(Ld, R), n * _outer_dot(qmul(Ld, xi), R),
           n * _outer_dot(L, Rd), n * _outer_dot(qmul(L, xi), Rd),
           n * n * _outer_dot(Ldd, R), n * n * _outer_dot(qmul(Ldd, xi), R))
    _assert_fields_close(sol, ref)


def test_stretched_solution_is_geometric_solution_of_stretched_map():
    # chain rule: (alpha, beta)(u, v) = (alpha~, beta~)(n u, n v) on the Hopf
    # map of k(u/n); each derivative order carries a factor n (n = 2 keeps
    # the scaled grid exact, so the fields agree bit for bit)
    n, T = 2, 2.0
    k = CurvatureProfile(T, 0.5, (0.2,), (0.1,))
    spec = GridSpec.from_ranges((0.0, T), (0.0, 1.0), 0.02, 0.05)
    sol = stretched_solution(k, n, spec, a=A_VEC, rho=RHO).grid()
    g = hopf_flat_map(k.stretch(n), n * T, h=n * spec.hu, hv=n * spec.hv,
                      v_range=(0.0, n * 1.0))
    geo = geometric_solution(g, a=A_VEC, rho=RHO)
    scale = (1, 1, n, n, n, n, n * n, n * n)
    for got, want, s in zip(_fields(sol), _fields(geo), scale):
        assert np.array_equal(got, s * want)


def test_stretched_constant_profile_still_solves():
    k = CurvatureProfile(math.pi, 1.0)
    spec = GridSpec.from_ranges((0, math.pi), (0, 1), 0.01)
    sol = stretched_solution(k, 2, spec).grid()
    ra, rb = system_residual(sol, profile_angle(k))
    assert max(ra, rb) < 1e-4


def test_stretched_nonconstant_profile():
    T = 2.0
    k = CurvatureProfile(T, 0.5, (0.2,))
    spec = GridSpec.from_ranges((0, T), (0, 1), 0.01)
    sol = stretched_solution(k, 2, spec).grid()
    ra, rb = system_residual(sol, profile_angle(k))
    assert max(ra, rb) < 1e-4
    ra2, rb2 = system_residual(sol, profile_angle(k), derivatives="analytic")
    assert max(ra2, rb2) < 1e-8


def test_stretched_solution_v_frequency_is_n():
    # stretched solutions oscillate at frequency n in v, so they are not of
    # the geometric form a(u) sin v + b(u) cos v
    n = 2
    k = CurvatureProfile(2.0, 0.5, (0.2,))
    spec = GridSpec.from_ranges((0, 2), (0, TWO_PI), 0.02, TWO_PI / 128)
    sol = stretched_solution(k, n, spec).grid()
    row = sol.alpha[17, :-1] - np.mean(sol.alpha[17, :-1])
    power = np.abs(np.fft.rfft(row)) ** 2
    assert np.argmax(power[1:]) + 1 == n


def test_stretched_requires_n_at_least_two():
    with pytest.raises(ValueError):
        stretched_solution(CurvatureProfile(1.0, 0.5), 1, SPEC)


# ---------------------------------------------------------------------------
# closed forms for linear angles


def test_helical_solution_simplest_case():
    # g = 0, h = 1 gives (alpha, beta) = (sin, -cos) of mu(u+v)
    mu = 0.6
    sol = helical_angle_solution(mu, ZERO, ONE, SPEC)
    U, V = SPEC.mesh()
    theta = mu * (U + V)
    assert np.max(np.abs(sol.alpha - np.sin(theta))) < 1e-14
    assert np.max(np.abs(sol.beta + np.cos(theta))) < 1e-14
    ra, rb = system_residual(sol, linear_angle(2 * mu, 2 * mu), derivatives="analytic")
    assert max(ra, rb) < 1e-8


def test_helical_solution_helix_angle():
    mu = 0.75  # helix r = 2
    sol = helical_angle_solution(mu, SIN, ZERO, SPEC)
    ra, rb = system_residual(sol, linear_angle(2 * mu, 2 * mu), derivatives="analytic")
    assert max(ra, rb) < 1e-6
    ra_c, rb_c = system_residual(sol, linear_angle(2 * mu, 2 * mu))
    assert max(ra_c, rb_c) < 1e-6


def test_helical_solution_mu_zero_reduces_to_waves():
    sol = helical_angle_solution(0.0, SIN, COS, SPEC)
    ra, rb = system_residual(sol, constant_angle(0.0), derivatives="analytic")
    assert max(ra, rb) < 1e-10
    # phi = 2g'(u+v) rides the (1,0) eigenline, psi = h(u-v) the (0,1) line
    U, V = SPEC.mesh()
    assert np.max(np.abs(sol.alpha - 2 * np.cos(U + V))) < 1e-14
    assert np.max(np.abs(sol.beta + np.cos(U - V))) < 1e-14


def test_helical_matches_product_map_angle():
    # the helix-product flat map carries exactly the angle this family solves
    g, mu = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    sol = helical_angle_solution(mu, SIN, COS, g.spec)
    ra, rb = system_residual(sol, g.omega_fn)
    assert max(ra, rb) < 1e-5


# ---------------------------------------------------------------------------
# exponential family


def test_exponential_solution_residual():
    sol = exponential_solution(2.0, 1.0, SPEC)
    w = linear_angle(4.0, 2.0)
    ra, rb = system_residual(sol, w, derivatives="analytic")
    assert max(ra, rb) < 1e-6
    ra_c, rb_c = system_residual(sol, w)
    assert max(ra_c, rb_c) < 1e-4  # values reach ~e^3, FD error scales along


def test_exponential_equal_speeds_rejected():
    with pytest.raises(EqualSpeeds):
        exponential_solution(1.0, 1.0, SPEC)
    with pytest.raises(EqualSpeeds):
        exponential_solution(1.0, -1.0, SPEC)


# ---------------------------------------------------------------------------
# quadrature transform


def test_quadrature_from_zero_matches_closed_form():
    # w1 = u, w2 = v, X = 0, y0 = (1,0):
    # Z = (sin u + sin v, (1-cos u) + (1-cos v))
    spec = GridSpec.from_ranges((0, 2), (0, 2), 0.01)
    w = linear_angle(1.0, 1.0)
    Z = quadrature_transform(zero_solution(spec), w, y0=(1.0, 0.0))
    U, V = spec.mesh()
    expect_a = np.sin(U) + np.sin(V) + 0 * U
    expect_b = 2.0 - np.cos(U) - np.cos(V)
    assert np.max(np.abs(Z.alpha - expect_a)) < 1e-6
    assert np.max(np.abs(Z.beta - expect_b)) < 1e-6
    ra, rb = system_residual(Z, w)
    assert max(ra, rb) < 1e-3


def test_quadrature_zero_constant():
    spec = GridSpec.from_ranges((0, 1), (0, 1), 0.02)
    w = linear_angle(1.0, 1.0)
    Z = quadrature_transform(zero_solution(spec), w, y0=(0.0, 0.0))
    assert np.max(np.abs(Z.alpha)) == 0.0
    assert np.max(np.abs(Z.beta)) == 0.0


def test_quadrature_applied_twice():
    spec = GridSpec.from_ranges((0, 2), (0, 2), 0.01)
    w = linear_angle(1.0, 0.5)
    Z1 = quadrature_transform(zero_solution(spec), w, y0=(1.0, 0.0))
    Z2 = quadrature_transform(Z1, w, y0=(0.0, 1.0))
    ra, rb = system_residual(Z2, w)
    assert max(ra, rb) < 1e-3


def test_quadrature_path_dependence_detected():
    spec = GridSpec.from_ranges((0, 2), (0, 2), 0.01)
    w = linear_angle(1.0, 1.0)
    rng = np.random.default_rng(0)
    bad = zero_solution(spec)
    bad.alpha = rng.standard_normal(bad.alpha.shape)
    with pytest.raises(PathDependence):
        quadrature_transform(bad, w)


@pytest.mark.parametrize("nu", [2, 3, 4, 5, 6, 801])
@pytest.mark.parametrize("tail", [(), (7, 2)], ids=["1d", "3d"])
def test_cumulative_simpson_port_matches_scipy_bitwise(nu, tail):
    integrate = pytest.importorskip("scipy.integrate")
    h = 1.0 / 3.0
    y = np.random.default_rng(nu).standard_normal((nu,) + tail)
    ours = _cum_u(y, h)
    ref = integrate.cumulative_simpson(y, dx=h, axis=0, initial=0.0)
    assert ours.shape == ref.shape
    assert np.array_equal(ours, ref)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


@pytest.mark.parametrize("y", [[-0.0, -0.0], [-0.0, -0.0, 0.0]])
def test_cumulative_simpson_port_keeps_scipy_signed_zeros(y):
    # each input has a partial sum of -0.0, which scipy's initial = 0.0 turns
    # into 0.0
    integrate = pytest.importorskip("scipy.integrate")
    ours = _cum_u(np.array(y), 0.1)
    ref = integrate.cumulative_simpson(np.array(y), dx=0.1, initial=0.0)
    assert np.array_equal(ours, ref)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


# ---------------------------------------------------------------------------
# generic numerical marcher


def test_numeric_marcher_against_wave():
    spec = GridSpec.from_ranges((0, 4), (0, 0.5), 0.005)
    w0 = math.pi / 2
    ref = wave_solution(w0, SIN, COS, spec)
    sol = solve_numeric(constant_angle(w0), spec, ref.alpha[:, 0], ref.beta[:, 0])
    # compare away from the u-boundaries (information cone) at first order
    inner = slice(40, -40)
    err = max(np.max(np.abs(sol.alpha[inner, :] - ref.alpha[inner, :])),
              np.max(np.abs(sol.beta[inner, :] - ref.beta[inner, :])))
    assert err < 0.05


def test_numeric_marcher_nonconstant_angle():
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    g = hopf_flat_map(k, 4.0, h=0.005, v_range=(0.0, 0.4))
    ref = geometric_solution(g, a=(1, 0, 0, 0))
    spec = g.spec
    sol = solve_numeric(g.omega_fn, spec, ref.alpha[:, 0], ref.beta[:, 0])
    inner = slice(80, -80)
    err = max(np.max(np.abs(sol.alpha[inner, :] - ref.alpha[inner, :])),
              np.max(np.abs(sol.beta[inner, :] - ref.beta[inner, :])))
    assert err < 0.05


def test_numeric_marcher_rejects_bad_shapes():
    with pytest.raises(GridMismatch):
        solve_numeric(constant_angle(0.3), SPEC, np.zeros(3), np.zeros(3))
