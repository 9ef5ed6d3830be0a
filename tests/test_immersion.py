import math

import numpy as np
import pytest

from flatsurf4 import _fd as fd
from flatsurf4 import immersion
from flatsurf4.curve import CurvatureProfile
from flatsurf4.errors import (DegenerateMetric, GridMismatch, NoLambdaFound,
                              PreconditionViolated)
from flatsurf4.flatmap import (FlatMapGrid, SampledMaps, clifford_flat_map,
                               helix_product_map, hopf_flat_map, linear_angle,
                               verify_flat_map)
from flatsurf4.hypsys import (FactorSolution, GridSpec, SmoothFn,
                              SolutionGrid, constant_solution,
                              exponential_solution,
                              geometric_solution, helical_angle_solution,
                              solve_numeric, stretched_solution,
                              system_residual, wave_solution)
from flatsurf4.immersion import (ImmersionGrid, assemble, auto_lambda,
                                 brioschi_curvature, lambda_rescale,
                                 metric_checks, metric_identity_check,
                                 sphere_fit, tangency_check, verify_frame,
                                 write_immersion_csv)

TWO_PI = 2 * math.pi

SIN = SmoothFn(np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))
COS = SmoothFn(np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin)


@pytest.fixture(scope="module")
def hopf_grid():
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    return hopf_flat_map(k, 4.0, h=0.01, v_range=(0.0, 1.0))


@pytest.fixture(scope="module")
def clifford():
    return clifford_flat_map(h=0.02)


# ---------------------------------------------------------------------------
# assembly basics


def test_constant_solution_reproduces_the_flat_map(hopf_grid):
    sol = constant_solution(hopf_grid.spec, 1.0, 0.0)
    im = assemble(hopf_grid, sol)
    assert np.max(np.abs(im.f - hopf_grid.maps(slice(None))[0])) < 1e-12
    assert np.max(np.abs(np.linalg.norm(im.f, axis=-1) - 1.0)) < 1e-9
    A, B = im.coefficients(slice(None))
    assert np.max(np.abs(A - 1.0)) < 1e-12
    assert np.max(np.abs(B)) < 1e-12
    # margin = sin w, strictly positive for 0 < w < pi
    margin = im.margin(slice(None))
    assert np.max(np.abs(margin - np.sin(hopf_grid.omega_grid))) < 1e-12
    assert metric_checks(im)["margin_min"] > 0


def test_assemble_rejects_mismatched_grids(hopf_grid):
    sol = constant_solution(GridSpec.from_ranges((0, 1), (0, 1), 0.05))
    with pytest.raises(GridMismatch):
        assemble(hopf_grid, sol)


def test_assemble_rejects_solution_without_derivatives(hopf_grid):
    # the marcher's solution has no analytic derivatives, and assembly
    # does not difference one
    ref = geometric_solution(hopf_grid)
    sol = solve_numeric(hopf_grid.omega_fn, hopf_grid.spec, ref.alpha[:, 0],
                        ref.beta[:, 0])
    with pytest.raises(PreconditionViolated, match="'numeric' solution"):
        assemble(hopf_grid, sol)


def test_metric_arrays_identities(hopf_grid):
    sol = geometric_solution(hopf_grid, a=(0.3, -0.2, 0.5, 0.1), rho=0.7)
    im = assemble(hopf_grid, sol)
    (E, Fm), margin = im.metric(slice(None)), im.margin(slice(None))
    A, B = im.coefficients(slice(None))
    # E = A^2 + B^2
    assert np.max(np.abs(E - (A ** 2 + B ** 2))) < 1e-14
    # E^2 = F^2 + margin^2: the metric degenerates exactly on the margin zeros
    assert np.max(np.abs(E ** 2 - Fm ** 2 - margin ** 2)) < 1e-10


# ---------------------------------------------------------------------------
# frame


def test_frame_orthonormal_on_clifford(clifford):
    assert verify_frame(clifford) < 1e-6


def test_frame_orthonormal_on_helix_product():
    g, _ = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    assert verify_frame(g) < 1e-5


def _frame_reference(gmap):
    """The frame check written out over all 16 entries of the Gram matrix,
    with its own differences of F and Fhat along u."""
    F, Fhat = gmap.maps(slice(None))
    Nu_ = fd.d1(F, gmap.spec.hu, axis=0)
    Nhu_ = fd.d1(Fhat, gmap.spec.hu, axis=0)
    frame = (F, Fhat, Nu_, Nhu_)
    dev = 0.0
    for i, x in enumerate(frame):
        for j, y in enumerate(frame):
            g = np.einsum("...k,...k->...", x, y)
            target = 1.0 if i == j else 0.0
            dev = max(dev, fd.max_interior(g - target))
    return dev


def test_frame_residual_matches_reference(clifford, hopf_grid):
    helix_grid, _ = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    for g in (clifford, hopf_grid, helix_grid):
        ref = _frame_reference(g)
        assert verify_flat_map(g).frame_residual == ref
        assert verify_frame(g) == ref


def test_frame_detects_corruption(clifford):
    F = clifford.maps(slice(None))[0]
    g = FlatMapGrid(clifford.spec, SampledMaps(F, F), clifford.omega_grid)
    assert verify_frame(g) > 0.9


# ---------------------------------------------------------------------------
# tangency


def test_tangency_for_constant_solution(hopf_grid):
    sol = constant_solution(hopf_grid.spec)
    im = assemble(hopf_grid, sol)
    rep = tangency_check(im, hopf_grid)
    assert rep["tangency_u"] < 1e-5 and rep["tangency_v"] < 1e-5


def test_tangency_for_exponential_surface():
    spec = GridSpec.from_ranges((0, 1), (0, 1), 0.01)
    sol = exponential_solution(2.0, 1.0, spec)
    # the flat map with angle 2ru + 2sv comes from helices of different
    # curvatures; pair the solution with a product map carrying that angle
    from flatsurf4.curve import helix
    from flatsurf4.flatmap import bianchi_spivak_product
    from flatsurf4.quat import QI, qinv
    # left factor with body-velocity rate 2r, right with rate 2s
    r_, s_ = 2.0, 1.0

    def rate_to_radius(rate):
        # body velocity rotates at 2 mu = (r^2-1)/r; solve for r > 1
        return (rate + math.sqrt(rate * rate + 4.0)) / 2.0

    a1 = helix(rate_to_radius(2 * r_), +1, (0, 1), 0.01)
    a1 = a1.left_translate(qinv(a1.samples[0]))
    a2 = helix(rate_to_radius(2 * s_), -1, (0, 1), 0.01)
    a2 = a2.right_translate(qinv(a2.samples[0]))
    g = bianchi_spivak_product(a1, a2, xi=QI)
    u, v = g.spec.mesh()
    expect = 2 * r_ * u + 2 * s_ * v
    assert np.max(np.abs(g.omega_grid - expect)) < 1e-5

    im = assemble(g, sol)
    rep = tangency_check(im, g)
    assert rep["tangency_u"] < 1e-4 and rep["tangency_v"] < 1e-4
    # the paper's regularity claim for this family: margin never vanishes
    assert metric_checks(im)["margin_min"] > 0


def test_tangents_orthogonal_to_normals(hopf_grid):
    from flatsurf4 import _fd as fd
    sol = geometric_solution(hopf_grid, a=(1, 0, 0, 0), rho=0.3)
    im = assemble(hopf_grid, sol)
    fu = fd.d1(im.f, im.spec.hu, axis=0)
    fv = fd.d1(im.f, im.spec.hv, axis=1)
    for tangent in (fu, fv):
        for normal in hopf_grid.maps(slice(None)):
            dots = np.einsum("...k,...k->...", tangent, normal)
            assert fd.max_interior(dots) < 1e-4


# ---------------------------------------------------------------------------
# metric identity and derived solutions


def test_metric_identity_on_constructed_surfaces(hopf_grid):
    cases = []
    sol1 = geometric_solution(hopf_grid, a=(1, 0, 0, 0), rho=0.5)
    cases.append((hopf_grid, sol1))
    g2, mu = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    cases.append((g2, helical_angle_solution(mu, SIN, COS,
                                             g2.spec)))
    for g, sol in cases:
        im = assemble(g, sol)
        residual = tangency_check(im, g)["metric_identity"]
        assert residual < 1e-4
        assert metric_identity_check(im, g) == residual


def test_derived_AB_resolves_system(hopf_grid):
    sol = geometric_solution(hopf_grid, a=(1, 0, 0.5, 0), rho=0.2)
    im = assemble(hopf_grid, sol)
    # the source of (A, B) forms them per slab; no copy is made
    ra, rb = system_residual(im.source, hopf_grid.omega_fn)
    assert max(ra, rb) < 1e-3


# ---------------------------------------------------------------------------
# flatness


def test_clifford_torus_is_flat(clifford):
    sol = constant_solution(clifford.spec)
    im = assemble(clifford, sol)
    assert metric_checks(im)["gauss_K_max"] < 1e-4


def test_product_of_curves_torus_is_flat(clifford):
    # wave solutions on a constant-angle map give products of plane curves
    spec = clifford.spec
    sol = wave_solution(math.pi / 2, SIN, COS, spec)
    sol = lambda_rescale(sol, 0.25)
    im = assemble(clifford, sol)
    checks = metric_checks(im)
    assert checks["margin_min"] > 0
    assert checks["gauss_K_max"] < 1e-3


def test_exponential_cylinder_is_flat():
    spec = GridSpec.from_ranges((0, 1), (0, 1), 0.01)
    sol = exponential_solution(2.0, 1.0, spec)
    from flatsurf4.curve import helix
    from flatsurf4.flatmap import bianchi_spivak_product
    from flatsurf4.quat import QI, qinv

    def rate_to_radius(rate):
        return (rate + math.sqrt(rate * rate + 4.0)) / 2.0

    a1 = helix(rate_to_radius(4.0), +1, (0, 1), 0.01)
    a1 = a1.left_translate(qinv(a1.samples[0]))
    a2 = helix(rate_to_radius(2.0), -1, (0, 1), 0.01)
    a2 = a2.right_translate(qinv(a2.samples[0]))
    g = bianchi_spivak_product(a1, a2, xi=QI)
    im = assemble(g, sol)
    assert metric_checks(im)["gauss_K_max"] < 1e-3


def test_helical_family_regularity_factors():
    # for solutions of the 2mu(u+v)-angle family with G = (1+mu^2)g + g''
    # and H = (1+mu^2)h + h'':
    #   A^2 + B^2 = (2G')^2 + (2 mu G + H)^2
    #   margin    = 2 (2G') (2 mu G + H)
    # so the immersion is regular iff BOTH factors are nonzero
    g, mu = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    spec = g.spec
    sol = helical_angle_solution(mu, SIN, COS, spec)
    im = assemble(g, sol)
    U, V = spec.mesh()
    p, m = U + V, U - V
    Gp = mu ** 2 * np.cos(p)            # G' for g = sin
    R = 2 * mu * mu ** 2 * np.sin(p) + mu ** 2 * np.cos(m)
    E, margin = im.metric(slice(None))[0], im.margin(slice(None))
    assert np.max(np.abs(E - ((2 * Gp) ** 2 + R ** 2))) < 1e-12
    assert np.max(np.abs(margin - 2 * (2 * Gp) * R)) < 1e-12


def test_helical_family_degenerates_without_g():
    # g = 0 kills the G' factor: the margin vanishes identically and the
    # map drops rank everywhere (f_u = -f_v), confirmed by the
    # finite-difference Gram determinant
    from flatsurf4 import _fd as fd
    g, mu = helix_product_map(2.0, (0, 1), (0, 1), h=0.01)
    spec = g.spec
    ZERO = SmoothFn(*(lambda t: np.zeros_like(np.asarray(t, dtype=float)),) * 4)
    im = assemble(g, helical_angle_solution(mu, ZERO, COS, spec))
    assert np.max(np.abs(im.margin(slice(None)))) < 1e-12
    fu = fd.d1(im.f, spec.hu, axis=0)
    fv = fd.d1(im.f, spec.hv, axis=1)
    assert fd.max_interior(np.linalg.norm(fu + fv, axis=-1)) < 1e-10


def test_wave_solutions_give_product_of_curves():
    # constant angle: (f_u + f_v)/2 depends only on u+v and
    # (f_u - f_v)/2 only on u-v, the split of a product of plane curves
    from flatsurf4 import _fd as fd
    g = clifford_flat_map(h=0.02, u_range=(0, 1.0), v_range=(0, 1.0))
    spec = g.spec
    sol = lambda_rescale(wave_solution(math.pi / 2, SIN, COS, spec), 0.25)
    im = assemble(g, sol)
    fu = fd.d1(im.f, spec.hu, axis=0)
    fv = fd.d1(im.f, spec.hv, axis=1)
    fp = 0.5 * (fu + fv)
    fm = 0.5 * (fu - fv)
    n = im.spec.nu
    for d in (n // 2, n - 5, n + 3):  # anti-diagonals: constant u+v
        lo, hi = max(2, d - (n - 3)), min(d - 2, n - 3)
        pts = np.array([fp[i, d - i] for i in range(lo, hi + 1)])
        assert len(pts) >= 3
        assert np.max(np.ptp(pts, axis=0)) < 1e-6
    for o in (-7, 0, 9):              # diagonals: constant u-v
        lo, hi = max(2, o + 2), min(n - 3, n - 3 + o)
        pts = np.array([fm[i, i - o] for i in range(lo, hi + 1)])
        assert len(pts) >= 3
        assert np.max(np.ptp(pts, axis=0)) < 1e-6


def test_brioschi_on_known_nonflat_metric():
    # round-sphere metric in stereographic-like coordinates has K = 1
    h = 0.01
    u = np.arange(0, 1 + h / 2, h)
    v = np.arange(0, 1 + h / 2, h)
    U, V = u[:, None], v[None, :]
    lam = 4.0 / (1.0 + U ** 2 + V ** 2) ** 2 + 0 * V
    K = brioschi_curvature(lam, np.zeros_like(lam), h, h)
    valid = np.isfinite(K)
    assert np.max(np.abs(K[valid] - 1.0)) < 1e-6


def test_brioschi_takes_each_derivative_once(monkeypatch):
    # E is differenced for both E and G of E (du^2 + dv^2) + 2F du dv, and
    # the arrays given are not tiled again, so a call makes 5 fd.d1 calls
    # (E_u, E_v, F_u, F_v, F_uv) and 2 fd.d2 calls (E_uu, E_vv)
    calls = {"d1": 0, "d2": 0}
    for name, stencil in [("d1", fd.d1), ("d2", fd.d2)]:
        def counted(*args, name=name, stencil=stencil, **kwargs):
            calls[name] += 1
            return stencil(*args, **kwargs)
        monkeypatch.setattr(fd, name, counted)
    h = 0.05
    u = np.arange(21) * h
    E = 1.0 + 0.1 * np.sin(u[:, None] + 2 * u[None, :])
    F = 0.05 * np.cos(u[:, None] - u[None, :])
    K = brioschi_curvature(E, F, h, h)
    assert calls == {"d1": 5, "d2": 2}
    assert np.isfinite(K).sum() == (21 - 8) ** 2


def test_metric_checks_walk_the_row_tiles_once(hopf_grid, monkeypatch):
    # the margin, the metric eigenvalue, K and |f| come from one walk, and
    # each tile's slab goes to brioschi_curvature whole
    im = assemble(hopf_grid, constant_solution(hopf_grid.spec))
    ntiles = len(list(fd.row_tiles(im.spec.nu)))
    assert ntiles >= 3
    calls = {"row_tiles": 0, "brioschi_curvature": 0}
    for owner, name in ((fd, "row_tiles"), (immersion, "brioschi_curvature")):
        def counted(*args, name=name, fn=getattr(owner, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)
    metric_checks(im)
    assert calls == {"row_tiles": 1, "brioschi_curvature": ntiles}


def test_flatness_degenerate_raises():
    h = 0.05
    n = 21
    E = np.zeros((n, n))
    spec = GridSpec(0, 0, h, h, n, n)
    im = ImmersionGrid(spec, np.zeros((n, n, 4)), SolutionGrid(spec, E, E),
                       E, E)
    with pytest.raises(DegenerateMetric):
        metric_checks(im)


@pytest.mark.parametrize("nu,nv", [(8, 21), (21, 8)])
def test_flatness_needs_nine_nodes_per_direction(nu, nv):
    # the Brioschi stencils have no interior below 2 K_TRIM + 1 nodes; that
    # is a grid too small for the check, not a singular metric
    def unit_metric(nu, nv):  # A = 1, B = 0 and w = pi/2
        one, spec = np.ones((nu, nv)), GridSpec(0, 0, 0.05, 0.05, nu, nv)
        return ImmersionGrid(spec, np.zeros((nu, nv, 4)),
                             SolutionGrid(spec, one, 0 * one), 0 * one, one)

    im = unit_metric(nu, nv)
    with pytest.raises(ValueError, match=f"{nu} x {nv} nodes.*at least 9"):
        metric_checks(im)
    big = unit_metric(9, 9)
    assert metric_checks(big)["gauss_K_max"] == 0.0


# ---------------------------------------------------------------------------
# sphere fits


def test_sphere_fit_unit_sphere(hopf_grid):
    sol = constant_solution(hopf_grid.spec)
    im = assemble(hopf_grid, sol)
    fit = sphere_fit(im.f)
    assert np.linalg.norm(fit.center) < 1e-8
    assert fit.radius == pytest.approx(1.0, abs=1e-8)
    assert fit.rms_residual < 1e-8


def test_sphere_fit_recovers_affine_center(hopf_grid):
    a = np.array([1.0, 0.0, 0.0, 0.0])
    sol = geometric_solution(hopf_grid, a=a, rho=1.0)
    im = assemble(hopf_grid, sol)
    fit = sphere_fit(im.f)
    assert np.linalg.norm(fit.center - a) < 1e-6
    assert fit.radius == pytest.approx(1.0, abs=1e-6)
    assert fit.rms_residual < 1e-6


def test_stretched_solution_leaves_spheres():
    T = 2.0
    k = CurvatureProfile(T, 0.5, (0.2,))
    g = hopf_flat_map(k, 2 * T, h=0.01, v_range=(0.0, TWO_PI), hv=0.02)
    sol = stretched_solution(k, 2, g.spec)
    im = assemble(g, sol)
    fit = sphere_fit(im.f)
    assert fit.rms_residual > 1e-2
    # the fsum of the row tiles' squared distances is their whole-grid mean
    dist = np.linalg.norm(im.f - fit.center, axis=-1) - fit.radius
    assert fit.rms_residual == pytest.approx(np.sqrt(np.mean(dist ** 2)),
                                             rel=1e-14)


# ---------------------------------------------------------------------------
# lambda rescaling


def test_lambda_zero_is_constant_solution(hopf_grid):
    sol = geometric_solution(hopf_grid, a=(0, 1, 0, 0))
    r0 = lambda_rescale(sol, 0.0)
    assert np.max(np.abs(r0.alpha - 1.0)) == 0.0
    assert np.max(np.abs(r0.beta)) == 0.0
    im = assemble(hopf_grid, r0)
    margin = im.margin(slice(None))
    assert np.max(np.abs(margin - np.sin(hopf_grid.omega_grid))) < 1e-12


@pytest.mark.parametrize("lam", [0.0, 1 / 32, 0.5, 0.03])
def test_rescaled_factor_solution_matches_rescaled_tiles(hopf_grid, lam):
    # a rescaled FactorSolution, read tile by tile, is each tile rescaled:
    # with equal bits at a power of two or 0, to rounding at other lambdas
    sol = stretched_solution(CurvatureProfile(2.0, 0.5, (0.3,)), 2,
                             hopf_grid.spec)
    scaled = lambda_rescale(sol, lam)
    assert type(scaled) is FactorSolution
    exact = lam == 0.0 or math.log2(lam).is_integer()
    for rows, slab, core in fd.row_tiles(sol.spec.nu):
        tile, got = sol.tile(rows, slab, core), scaled.tile(rows, slab, core)
        ref = {"alpha": 1.0 + lam * tile.alpha, "beta": lam * tile.beta,
               **{k: lam * getattr(tile, k) for k in
                  ("alpha_u", "beta_u", "alpha_uu", "beta_uu")}}
        for name, want in ref.items():
            if exact:
                assert np.array_equal(getattr(got, name), want), name
            else:
                assert np.max(np.abs(getattr(got, name) - want)) <= 1e-15


def test_rescaled_residual_scales_linearly(hopf_grid):
    sol = geometric_solution(hopf_grid, a=(0, 1, 0, 0))
    base = max(system_residual(sol, hopf_grid.omega_fn))
    for lam in (1.0, 0.25):
        r = max(system_residual(lambda_rescale(sol, lam), hopf_grid.omega_fn))
        assert r <= lam * base + 1e-10


def test_margin_collapses_to_sin_omega(hopf_grid):
    sol = geometric_solution(hopf_grid, a=(0, 0.8, 0.4, 0), rho=0.3)
    sw = np.sin(hopf_grid.omega_grid)
    devs = []
    for lam in (1.0, 0.5, 0.25, 0.125):
        im = assemble(hopf_grid, lambda_rescale(sol, lam))
        devs.append(np.max(np.abs(im.margin(slice(None)) - sw)))
    assert all(devs[i + 1] < devs[i] for i in range(3))


def test_auto_lambda_margin_policy(hopf_grid):
    sol = stretched_solution(
        CurvatureProfile(2.0, 0.5, (0.3,)), 2, hopf_grid.spec)
    lam = auto_lambda(hopf_grid, sol)
    s_min = float(np.min(np.sin(hopf_grid.omega_grid)))
    im = assemble(hopf_grid, lambda_rescale(sol, lam))
    assert metric_checks(im)["margin_min"] > 0.5 * s_min
    assert 0 < lam <= 1.0


def test_csv_export(tmp_path, hopf_grid):
    sol = constant_solution(hopf_grid.spec)
    im = assemble(hopf_grid, sol)
    metric_checks(im)
    path = tmp_path / "im.csv"
    write_immersion_csv(im, path)
    first = path.read_text().splitlines()
    assert first[0] == "u,v,x1,x2,x3,x4,A,B,margin,K"
    assert len(first) == 1 + im.spec.nu * im.spec.nv
