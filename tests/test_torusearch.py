import dataclasses
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from flatsurf4 import _fd as fd
from flatsurf4 import immersion, torusearch
from flatsurf4.curve import CurvatureProfile, QuasiPeriodicProfile, asymptotic_lift
from flatsurf4.errors import (ClosureFailure, NoSignChange,
                              SingularAfterRescale)
from flatsurf4.flatmap import FlatMapGrid
from flatsurf4.hypsys import FactorSolution
from flatsurf4.immersion import (assemble, auto_lambda, lambda_rescale,
                                 sphere_fit)
from flatsurf4.quat import ad, pure, rotation_matrix, vec
from flatsurf4.torusearch import (HolonomyResult, SearchOutcome, a_n,
                                  build_perturbed_cylinder,
                                  build_perturbed_torus,
                                  closure_multiple, holonomy,
                                  holonomy_closure_residual,
                                  lift_closure_multiple, lift_monodromy,
                                  rationalize,
                                  search_rational, single_harmonic_family,
                                  _brentq)

from flatmap_checks import circle_outcome
from test_writers import _allow_cpus

T = math.pi

# the documented release configuration: base-curve lift closes after 8
# periods exactly when the stretched holonomy hits 1/4
K0_STAR = 1.21321612108222
TARGET = (1, 4)
BRACKET = (0.9, 1.2)


@pytest.fixture(scope="module")
def release_outcome():
    fam = single_harmonic_family(K0_STAR, T)
    return search_rational(fam, 2, TARGET, BRACKET)


@pytest.fixture(scope="module")
def release_torus(release_outcome):
    return build_perturbed_torus(release_outcome, nodes_per_period=64, nv=128)


# ---------------------------------------------------------------------------
# holonomy basics


def test_circle_holonomy_is_identity():
    for k0 in (0.5, 1.0, 2.0):
        res = holonomy(CurvatureProfile(T, k0))
        assert abs(res.theta) < 1e-9
        assert res.rational == (0, 1)
        assert res.so3_deviation < 1e-8


def test_half_period_circle_rotates_by_pi():
    k0 = 1.0
    res = holonomy(CurvatureProfile(T / 2, k0))
    assert abs(abs(res.theta) - math.pi) < 1e-9
    axis_expected = np.array([k0, 0.0, 1.0]) / math.sqrt(1 + k0 * k0)
    assert np.linalg.norm(res.axis - axis_expected) < 1e-8


def test_holonomy_so3_membership_random_profiles():
    rng = np.random.default_rng(7)
    for _ in range(5):
        k = CurvatureProfile(2.0 + rng.uniform(0, 1), rng.uniform(0.3, 1.5),
                             tuple(rng.uniform(-0.3, 0.3, 2)),
                             tuple(rng.uniform(-0.3, 0.3, 1)))
        res = holonomy(k)
        assert res.so3_deviation < 1e-8
        assert abs(math.cos(res.theta) - 0.5 * (np.trace(res.rotation) - 1)) < 1e-8
        assert res.axis[2] >= 0.0


def _ad_matrix(psi):
    return np.stack([vec(ad(psi, pure(e))) for e in np.eye(3)], axis=1)


def test_holonomy_is_ad_of_lift_monodromy():
    # the S^2 frame rotation is Ad of the lift monodromy; the scanned lift
    # (every node) and the product-only monodromy agree on it
    for k in (CurvatureProfile(T, 1.0, (0.3,)),
              CurvatureProfile(2.5, 0.6, (0.2, -0.1), (0.15,)),
              CurvatureProfile(T, K0_STAR, (1.09,)).stretch(2)):
        R = holonomy(k).rotation
        assert np.max(np.abs(R - _ad_matrix(lift_monodromy(k)))) < 1e-11
        end = asymptotic_lift(k, (0.0, k.base_period), h=1e-3).samples[-1]
        assert np.max(np.abs(R - _ad_matrix(end))) < 1e-11


def test_release_a2_against_independent_solver():
    # frame ODE c' = v t, t' = v(-c + k c x t), v = 2/sqrt(1+k^2), by DOP853
    k = CurvatureProfile(T, K0_STAR, (1.0900033738813364,)).stretch(2)

    def rhs(u, y):
        c, t = y[:3], y[3:]
        kv = k.value(u)
        v = 2.0 / math.sqrt(1.0 + kv * kv)
        return np.concatenate([v * t, v * (-c + kv * np.cross(c, t))])

    y = solve_ivp(rhs, (0.0, k.base_period), [1, 0, 0, 0, 1, 0],
                  method="DOP853", rtol=1e-13, atol=1e-14).y[:, -1]
    c, t = y[:3], y[3:]
    R = np.stack([c, t, np.cross(c, t)], axis=1)
    w = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    # signed angle about the axis with non-negative e3 component
    theta = math.atan2(math.copysign(np.linalg.norm(w), w[2]),
                       0.5 * (np.trace(R) - 1.0))
    assert abs(holonomy(k).theta_over_pi - theta / math.pi) < 1e-12


def test_identity_stretch_matches_plain_holonomy():
    k = CurvatureProfile(2.0, 0.8, (0.2,))
    r1 = holonomy(k)
    r2 = holonomy(k.stretch(1))
    assert abs(r1.theta - r2.theta) < 1e-12


def test_a_n_circle_is_zero():
    for n in (2, 3):
        assert abs(a_n(CurvatureProfile(T, 1.0), n)) < 1e-6


def test_a_n_continuity_in_coefficients():
    k0 = 0.9
    base = a_n(CurvatureProfile(T, k0, (0.4,)), 2)
    gaps = []
    for de in (1e-2, 1e-3, 1e-4):
        gaps.append(abs(a_n(CurvatureProfile(T, k0, (0.4 + de,)), 2) - base))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_stretch_profile_substitution():
    k = CurvatureProfile(1.3, 0.5, (1.0,))
    ks = k.stretch(3)
    assert ks.base_period == pytest.approx(3.9)
    u = np.linspace(0, 1.3, 7)
    assert np.max(np.abs(ks.value(3 * u) - k.value(u))) < 1e-14


# ---------------------------------------------------------------------------
# rational detection


def test_rationalize():
    assert rationalize(0.75) == (3, 4)
    assert rationalize(0.25 + 5e-9) == (1, 4)
    assert rationalize(-2.0 / 7.0) == (-2, 7)
    assert rationalize(0.1427) is None            # near 1/7 but outside window
    assert rationalize(1 / 65) is None            # denominator above Q_MAX


def test_closure_multiple():
    assert closure_multiple(0, 1) == 1
    assert closure_multiple(1, 4) == 8
    assert closure_multiple(2, 7) == 7
    assert closure_multiple(3, 4) == 8
    assert closure_multiple(2, 3) == 3


# ---------------------------------------------------------------------------
# search


def test_search_finds_circle_for_zero_target():
    fam = single_harmonic_family(1.0, T)
    out = search_rational(fam, 2, (0, 1), (0.0, 0.05))
    assert abs(out.parameter) < 1e-4
    assert out.closure_multiple == 1
    assert out.closure_residual < 1e-4


@pytest.mark.parametrize("bracket", [(0.0, 0.05), (-0.05, 0.0)])
def test_search_returns_an_endpoint_root(bracket, monkeypatch):
    # a_n reads exactly the target at eps = 0, one end of the bracket
    monkeypatch.setattr(torusearch, "a_n",
                        lambda k, n, h: k.fourier_cos[0] + 0.25)
    fam = single_harmonic_family(1.0, T)
    out = search_rational(fam, 2, (1, 4), bracket)
    assert out.parameter == 0.0


def test_search_no_sign_change_reports_scan():
    fam = single_harmonic_family(1.0, T)
    with pytest.raises(NoSignChange) as err:
        search_rational(fam, 2, (1, 2), (0.0, 0.3))
    scan = err.value.scan
    assert len(scan) >= 10
    assert all(abs(v) < 0.5 for _, v in scan)


def test_release_search(release_outcome):
    out = release_outcome
    assert abs(out.achieved.theta_over_pi - 0.25) < 1e-9
    assert out.parameter == pytest.approx(1.0900033738, abs=1e-6)
    assert out.closure_multiple == 8
    assert out.closure_residual < 1e-6


BRENT_CASES = [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
    (lambda x: math.exp(x) - 1e6, 0.0, 20.0),
    (lambda x: math.atan(50 * (x - 0.7)), 0.0, 1.0),
    (lambda x: x, -1.0, 1.0),
    (lambda x: x - 1, 1.0, 2.0),
    # a jump without a root: the search bisects down to rtol |x| + xtol
    (lambda x: -1.0 if x < 12345.678 else 1.0, 0.0, 1e5),
]


@pytest.mark.parametrize("xtol", [1e-10, 2e-12])
@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
def test_brentq_port_matches_scipy_exactly(case, xtol):
    f, a, b = BRENT_CASES[case]
    assert _brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)


def test_brentq_endpoint_roots_and_sign_error():
    assert _brentq(lambda x: x - 1, 1.0, 2.0, 1e-10) == 1.0
    assert _brentq(lambda x: x - 2, 1.0, 2.0, 1e-10) == 2.0
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1, -1.0, 1.0, 1e-10)


def test_brentq_port_fails_to_converge_where_scipy_does():
    def f(x):
        return (x - 0.3) ** 9
    with pytest.raises(RuntimeError):
        brentq(f, 0.0, 1.0, xtol=2e-12)
    with pytest.raises(RuntimeError):
        _brentq(f, 0.0, 1.0, 2e-12)


def test_release_search_roots_bit_for_bit(release_outcome):
    # the roots that scipy.optimize.brentq found for the two benchmark
    # searches (1/4 at h = 1e-3, 1/5 at h = 2e-3)
    assert release_outcome.parameter == 1.0900033738547867
    fam = single_harmonic_family(K0_STAR, T)
    out = search_rational(fam, 2, (1, 5), (0.8, 1.05), h=2e-3)
    assert out.parameter == 0.9715441414649105


def test_property_p_rational_side(release_outcome):
    # stretched curves with a_2 within 1e-6 of p/q close after the
    # corresponding number of periods
    cases = [CurvatureProfile(T, k0) for k0 in (0.5, 1.0, 2.0)]
    mults = [1, 1, 1]
    cases.append(release_outcome.profile)
    mults.append(release_outcome.closure_multiple)
    fam = single_harmonic_family(K0_STAR, T)
    out2 = search_rational(fam, 2, (1, 5), (0.8, 1.05), h=2e-3)
    cases.append(out2.profile)
    mults.append(out2.closure_multiple)
    for k, m in zip(cases, mults):
        ks = k.stretch(2)
        assert a_n(k, 2) is not None
        residual = holonomy_closure_residual(ks, m, h=2e-3)
        assert residual < 1e-3


def test_property_p_far_side():
    # profiles with a_2 at distance >= 1e-2 from all rationals q <= 8
    # stay open after any m <= 16 periods
    for eps in (0.3, 0.5, 0.6, 0.7, 1.2):
        k = CurvatureProfile(T, K0_STAR, (eps,))
        v = a_n(k, 2, h=2e-3)
        dist = min(abs(v - p / q) for q in range(1, 9)
                   for p in range(-q, q + 1))
        assert dist >= 1e-2
        ks = k.stretch(2)
        best = min(holonomy_closure_residual(ks, m, h=4e-3)
                   for m in range(1, 17))
        assert best > 1e-2


# ---------------------------------------------------------------------------
# lift closure


def test_lift_closure_circle():
    m, gap = lift_closure_multiple(holonomy(CurvatureProfile(T, 1.0)))
    assert m == 2 and gap < 1e-9


def test_lift_closure_failure():
    k = CurvatureProfile(T, 1.0, (0.5,))
    hol = holonomy(k)
    with pytest.raises(ClosureFailure) as err:
        lift_closure_multiple(hol)
    # the evidence is the distance to the nearest p/q with q <= Q_MAX
    x = hol.theta_over_pi
    assert f"{x:.8f} is not rational" in str(err.value)
    assert 1e-8 < err.value.best_residual == min(
        abs(x - p / q) for q in range(1, 65) for p in range(-q, q + 1))


def test_lift_closure_beyond_q_max_periods():
    # theta/pi = 1/33: Ad(Psi) has order 66 and Psi^66 = -1, so the lift
    # closes over 132 periods, more than Q_MAX = 64
    half = math.pi / 66
    psi = np.array([math.cos(half), 0.0, 0.0, math.sin(half)])
    hol = HolonomyResult(rotation_matrix(psi), 2 * half,
                         np.array([0.0, 0.0, 1.0]), 1 / 33, (1, 33), psi)
    m, gap = lift_closure_multiple(hol)
    assert m == 132 and gap < 1e-13


def test_build_integrates_only_the_base_monodromy(release_outcome,
                                                  monkeypatch):
    # the stretched lift's monodromy comes with the search outcome
    # (outcome.achieved), so the build integrates the base lift's alone
    calls, real = [], torusearch.lift_product

    def counted(k, *args):
        calls.append(k)
        return real(k, *args)

    monkeypatch.setattr(torusearch, "lift_product", counted)
    _, rep = build_perturbed_torus(release_outcome, nodes_per_period=32, nv=64)
    assert calls == [release_outcome.profile]
    assert (rep["lift_period_multiple"],
            rep["stretched_period_multiple"]) == (8, 16)


def test_build_takes_the_base_monodromy_at_the_search_step(monkeypatch):
    # build-torus --h 0.002: the base lift's monodromy is integrated at the
    # step of the search that gave the stretched one, not at the default
    out = search_rational(single_harmonic_family(K0_STAR, T), 2, TARGET,
                          BRACKET, h=0.002)
    assert out.h == 0.002
    steps, real = [], torusearch.lift_product

    def counted(k, span, h):
        steps.append(h)
        return real(k, span, h)

    monkeypatch.setattr(torusearch, "lift_product", counted)
    _, rep = build_perturbed_torus(out, nodes_per_period=32, nv=64)
    assert steps == [0.002]
    base = lift_closure_multiple(holonomy(out.profile, 0.002))[1]
    stretched = lift_closure_multiple(out.achieved)[1]
    assert rep["lift_closure_gap"] == base > stretched
    assert base != lift_closure_multiple(holonomy(out.profile))[1]


# ---------------------------------------------------------------------------
# torus assembly


def test_build_torus_release_configuration(release_torus):
    im, rep = release_torus
    assert rep["closure_u"] < 1e-4 and rep["closure_v"] < 1e-4
    assert rep["margin_min"] > 0
    assert rep["gauss_K_max"] < 1e-3
    assert rep["sphere_rms"] > 1e-2
    assert rep["omega_range"] > 1e-3
    assert rep["ok"] is True
    assert rep["lift_period_multiple"] == 8
    assert rep["stretched_period_multiple"] == 16
    # all supporting diagnostics hold on the assembled torus
    assert rep["tangency_u"] < 1e-4 and rep["tangency_v"] < 1e-4
    assert rep["metric_identity"] < 1e-4
    assert rep["derived_system_residual"] < 1e-3
    # 4th-order verification stencil at this deliberately coarse grid step
    assert rep["flatmap_max"] < 1e-4


def test_release_torus_residuals_are_fourth_order(release_outcome,
                                                  release_torus):
    # the residuals of the exactly flat torus are truncation error of the
    # 4th-order stencils: halving both steps divides them by about 16
    _, coarse = build_perturbed_torus(release_outcome, nodes_per_period=32,
                                      nv=64)
    _, fine = release_torus
    for key in ("gauss_K_max", "tangency_u", "tangency_v", "metric_identity",
                "derived_system_residual", "frame_residual"):
        assert math.log2(coarse[key] / fine[key]) >= 3.5, key


# the stages of a torus build whose memory is measured: functions that
# build_perturbed_torus, _assemble_stretched and _diagnostics call by their
# torusearch names
TORUSEARCH_STAGES = ("hopf_flat_map", "verify_flat_map", "stretched_solution",
                     "auto_lambda", "assemble", "metric_checks", "sphere_fit",
                     "tangency_check", "system_residual")


def stage_table(outcome, nodes_per_period, nv):
    """Build the torus of outcome under tracemalloc, with one CPU allowed,
    so that no stage runs in a forked child, where it is not measured.
    Returns im, the whole build's peak and, for each stage, a list with one
    (start, own) pair per call: start is the memory in use when the call
    began and own the call's peak above start, all in units of one (nu, nv)
    float64 array."""
    calls, peaks = {}, []

    def measured(name, fn):
        def wrapper(*args, **kwargs):
            start, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)  # the peak since the last stage began
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            calls.setdefault(name, []).append(
                (start, tracemalloc.get_traced_memory()[1] - start))
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as m:
        _allow_cpus(m, 1)
        for name in TORUSEARCH_STAGES:
            m.setattr(torusearch, name, measured(name, getattr(torusearch, name)))
        tracemalloc.start()
        try:
            im, _ = build_perturbed_torus(outcome, nv=nv,
                                          nodes_per_period=nodes_per_period)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    unit = im.spec.nu * im.spec.nv * 8
    table = {name: [(start / unit, own / unit) for start, own in pairs]
             for name, pairs in calls.items()}
    return im, max(peaks) / unit, table


@pytest.fixture(scope="module")
def stages_64(release_outcome):
    return stage_table(release_outcome, 64, 128)


@pytest.fixture(scope="module")
def stages_release(release_outcome):
    return stage_table(release_outcome, 96, 192)


def test_every_stage_runs_once(stages_64):
    _, _, table = stages_64
    assert {name: len(c) for name, c in table.items()} == dict.fromkeys(
        TORUSEARCH_STAGES, 1)


def test_every_stage_runs_once_across_parent_and_child(release_outcome,
                                                        tmp_path, monkeypatch):
    # on two CPUs the flat-map check and the walk that differences f run
    # in forked children, one fork each; every stage still runs once.
    # Each call, here or in a child, appends its name and pid to a file
    forks = _allow_cpus(monkeypatch, 2)
    log = tmp_path / "stages.txt"

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return wrapper

    for name in TORUSEARCH_STAGES:
        monkeypatch.setattr(torusearch, name,
                            counted(name, getattr(torusearch, name)))
    build_perturbed_torus(release_outcome, nodes_per_period=32, nv=64)
    calls = [line.split() for line in log.read_text().splitlines()]
    assert Counter(name for name, _ in calls) == dict.fromkeys(
        TORUSEARCH_STAGES, 1)
    assert {name for name, pid in calls if int(pid) != os.getpid()} == {
        "verify_flat_map", "tangency_check"}
    assert len(forks) == 2


def test_build_differences_each_quaternion_grid_once(release_outcome,
                                                     monkeypatch):
    # per row tile a build takes one derivative along u and one along v of
    # each of f, F and Fhat: f is walked once, by tangency_check, and F and
    # Fhat once, by verify_flat_map
    _allow_cpus(monkeypatch, 1)
    calls, real_d1 = [], fd.d1

    def d1(a, h, axis=0):
        calls.append(np.shape(a))
        return real_d1(a, h, axis)

    monkeypatch.setattr(fd, "d1", d1)
    im, _ = build_perturbed_torus(release_outcome, nodes_per_period=32, nv=64)
    tiles = len(list(fd.row_tiles(im.spec.nu)))
    assert sum(len(shape) == 3 and shape[-1] == 4 for shape in calls) == (
        6 * tiles)


def _fail(monkeypatch, name):
    message = f"{name} fails"

    def fails(*args, **kwargs):
        raise RuntimeError(message)

    monkeypatch.setattr(torusearch, name, fails)
    return message


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("first,second", [
    # the flat-map check comes before the assembly: its error wins
    ("verify_flat_map", "stretched_solution"),
    ("verify_flat_map", "assemble"),
    # the walk that differences f comes after the other checks: its error
    # loses
    ("metric_checks", "tangency_check"),
    ("system_residual", "tangency_check"),
])
def test_build_raises_the_error_of_the_serial_order(release_outcome,
                                                    monkeypatch, cpus, first,
                                                    second):
    forks = _allow_cpus(monkeypatch, cpus)
    want = _fail(monkeypatch, first)
    _fail(monkeypatch, second)
    with pytest.raises(RuntimeError, match=f"^{want}$"):
        build_perturbed_torus(release_outcome, nodes_per_period=32, nv=64)
    assert len(forks) <= 2 * (cpus - 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", ["verify_flat_map", "tangency_check"])
def test_build_raises_the_error_of_a_forked_stage(release_outcome, monkeypatch,
                                                  cpus, name):
    _allow_cpus(monkeypatch, cpus)
    want = _fail(monkeypatch, name)
    with pytest.raises(RuntimeError, match=f"^{want}$"):
        build_perturbed_torus(release_outcome, nodes_per_period=32, nv=64)


def test_build_torus_peak_memory(stages_64):
    # the full-grid passes walk row tiles, F, Fhat and the scaled solution
    # are formed per tile from their factors, and the immersion keeps only
    # f (4 grid arrays), its A and B formed per tile by their readers; the
    # lifts keep only their grid rows
    _, peak, _ = stages_64
    assert peak <= 7.5, peak


@pytest.mark.parametrize("stage", ["hopf_flat_map", "stretched_solution"])
def test_lift_stages_peak_memory(stages_64, stage):
    # each lift integrates one base period and records only its grid rows:
    # no array of one node per Magnus step is made
    (_, own), = stages_64[2][stage]
    assert own <= 1.0, own


def test_release_build_peak_memory(stages_release):
    _, peak, _ = stages_release
    assert peak <= 6.5, peak


def test_system_residual_peak_memory(stages_64):
    # the build's residual of the derived (A, B) walks row tiles and forms
    # A and B once per tile's slab, so its own peak is a fraction of one
    # grid array
    (_, own), = stages_64[2]["system_residual"]
    assert own <= 1.5, own


def test_assemble_peak_memory(stages_64):
    # assemble builds f alone; A, B, the margin, E and Fm are formed per
    # tile where they are read, and Ahat and Bhat where tangency_check
    # reads them
    (_, own), = stages_64[2]["assemble"]
    assert own <= 6.0, own


def test_immersion_owns_only_f(stages_release):
    # f is the one grid: the source of A and B holds the factors of the
    # stretched solution and two slots for the last row tiles of (A, B) it
    # formed, and the angle terms of a Hopf map are broadcast views of one
    # u column
    im = stages_release[0]
    nu, nv = im.spec.nu, im.spec.nv
    owned = [a for a in (getattr(im, f.name) for f in dataclasses.fields(im))
             if isinstance(a, np.ndarray) and a.flags.owndata]
    assert len(owned) == 1 and owned[0] is im.f
    assert im.cos_w.strides[1] == im.sin_w.strides[1] == 0
    sol = im.source.sol  # the lambda_rescale of the stretched solution
    factors = [getattr(pf, f.name) for pf in (sol.p, sol.q)
               for f in dataclasses.fields(pf)]
    factors += [sol.aR, sol.aRd, im.source.wu]
    assert max(x.size for x in factors) <= 4 * max(nu, nv)
    slots = list(im.source._slots.values())
    assert len(slots) <= 2
    assert all(x.shape == (fd.TILE_ROWS, nv) for slot in slots for x in slot)


def test_build_torus_circle_control():
    out = circle_outcome(1.0)
    im, rep = build_perturbed_torus(out, lam=0.0, nodes_per_period=48, nv=96)
    assert "degenerate_product" in rep["flags"]
    assert rep["sphere_rms"] < 1e-6
    assert rep["ok"] is False  # products of circles are excluded by design
    fit = sphere_fit(im.f)
    assert fit.radius == pytest.approx(1.0, abs=1e-9)


def test_build_torus_forced_lambda_singular(release_outcome):
    with pytest.raises(SingularAfterRescale):
        build_perturbed_torus(release_outcome, lam=10.0, nodes_per_period=48,
                              nv=96)


# ---------------------------------------------------------------------------
# cylinder assembly


@pytest.fixture(scope="module")
def quasi_profile():
    return QuasiPeriodicProfile(0.8, ((0.15, 2.0, 0.0),
                                      (0.1, 2.0 * math.sqrt(2), 0.4)))


def test_build_cylinder_quasi_periodic(quasi_profile):
    im, rep = build_perturbed_cylinder(quasi_profile, n=2, h=0.02, nv=96)
    assert rep["margin_min"] > 0
    assert rep["metric_min_eigenvalue"] > 0
    assert rep["gauss_K_max"] < 1e-3
    assert rep["sphere_rms"] > 1e-2
    assert math.isfinite(rep["max_radius"])
    assert rep["max_radius"] < 2.0  # bounded in R^4
    assert rep["sin_omega_lower_bound"] > 0
    assert rep["ok"] is True


def test_build_cylinder_lambda_zero_is_hopf(quasi_profile):
    im, rep = build_perturbed_cylinder(quasi_profile, n=2, lam=0.0, h=0.03,
                                       nv=64)
    assert rep["sphere_rms"] < 1e-9
    assert rep["max_radius"] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# lambda selection


class _Captured(Exception):
    pass


def _auto_lambda_inputs(monkeypatch, build):
    """The (flat map, solution) a build function hands to auto_lambda."""
    def capture(gmap, sol):
        raise _Captured(gmap, sol)

    with monkeypatch.context() as m:
        m.setattr(torusearch, "auto_lambda", capture)
        with pytest.raises(_Captured) as info:
            build()
    return info.value.args


def _assembled_margin(gmap, sol, lam):
    margin = assemble(gmap, lambda_rescale(sol, lam)).margin(slice(None))
    return float(np.min(fd.interior(margin)))


def _check_auto_lambda(gmap, sol):
    """auto_lambda against the halving loop over full assemblies."""
    target = 0.5 * float(np.min(np.sin(fd.interior(gmap.omega_grid))))
    ref = 1.0
    while _assembled_margin(gmap, sol, ref) <= target:
        ref *= 0.5
        assert ref > 1e-12
    lam = auto_lambda(gmap, sol)
    assert lam == ref
    assert _assembled_margin(gmap, sol, lam) > target
    if lam != 1.0:
        assert _assembled_margin(gmap, sol, 2.0 * lam) <= target
    return lam


def test_auto_lambda_matches_assembly_loop_on_release_torus(release_outcome,
                                                            monkeypatch):
    gmap, sol = _auto_lambda_inputs(
        monkeypatch, lambda: build_perturbed_torus(release_outcome))
    assert gmap.maps(slice(None))[0].shape == (1537, 193, 4)
    assert _check_auto_lambda(gmap, sol) == 0.03125
    # a halving ends at its first failing tile: the six halvings form at
    # most 32 of their 6 x 25 row tiles
    tiles, real = [], FactorSolution.tile

    def counted(self, *args):
        tiles.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(FactorSolution, "tile", counted)
    assert auto_lambda(gmap, sol) == 1 / 32
    assert len(tiles) <= 32


def test_auto_lambda_matches_assembly_loop_on_cylinder(quasi_profile,
                                                       monkeypatch):
    gmap, sol = _auto_lambda_inputs(
        monkeypatch,
        lambda: build_perturbed_cylinder(quasi_profile, n=2, h=0.02, nv=96))
    assert _check_auto_lambda(gmap, sol) < 1.0


def test_cylinder_build_assembles_once(quasi_profile, monkeypatch):
    # lambda selection needs only the margin: one assembly and no full
    # set of flat-map derivatives per build
    calls = {"assemble": 0, "derivatives": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_assemble = immersion.assemble
    for module in (immersion, torusearch):
        monkeypatch.setattr(module, "assemble", counted("assemble", real_assemble))
    monkeypatch.setattr(FlatMapGrid, "derivatives",
                        counted("derivatives", FlatMapGrid.derivatives))
    _, rep = build_perturbed_cylinder(quasi_profile, n=2, h=0.05, nv=64)
    assert rep["lambda"] < 1.0  # some halvings were made
    assert calls == {"assemble": 1, "derivatives": 0}


# ---------------------------------------------------------------------------
# serialization


def test_search_outcome_json(release_outcome):
    import json
    blob = json.loads(release_outcome.to_json())
    assert blob["n"] == 2
    assert blob["rational"] == [1, 4]
    assert blob["profile"]["T"] == pytest.approx(T)
    assert abs(blob["theta_over_pi"] - 0.25) < 1e-9
