"""Batch front end: one job per process, JSON reports, CSV/OBJ artifacts.

Subcommands: helix | clifford | hopf-torus | flatmap-verify | solve |
build-torus | build-cylinder | holonomy | search-rational | verify.
Every numeric result lands in a JSON report (sorted keys, so identical
configs produce byte-identical reports); grids are written as CSV with
17-significant-digit floats and surfaces optionally as OBJ meshes.
"""

import argparse
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curve import (CurvatureProfile, frenet_s3, helix, helix_curvature,
                    parse_profile, _real)
from .errors import FlatSurfaceError, NotOnSphere, PoleOnSurface
from .flatmap import (GridSpec, clifford_flat_map, helix_product_map,
                      hopf_flat_map, linear_angle, profile_angle,
                      read_flatmap_csv, verify_flat_map, write_flatmap_csv,
                      _hopf_map, _write_grid_csv, _write_rows)
from .hypsys import (SmoothFn, exponential_solution,
                     geometric_solution, helical_angle_solution,
                     quadrature_transform, solve_numeric, stretched_solution,
                     system_residual, wave_solution, zero_solution)
from .immersion import sphere_fit, write_immersion_csv
from .quat import QK
from .torusearch import (build_perturbed_cylinder, build_perturbed_torus,
                         holonomy, search_rational, single_harmonic_family)

TWO_PI = 2.0 * math.pi
STEP_KEYS = ("h", "hv")
COUNT_KEYS = ("nv", "nodes_per_period")
LENGTH_KEYS = {"u_range": 2, "v_range": 2, "u_window": 2, "y0": 2, "a": 4}

NAMED_FUNCTIONS = {
    "sin": SmoothFn(np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)),
    "cos": SmoothFn(np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin),
    "zero": SmoothFn(*(lambda t: np.zeros_like(np.asarray(t, dtype=float)),) * 4),
    "one": SmoothFn(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                    *(lambda t: np.zeros_like(np.asarray(t, dtype=float)),) * 3),
}


# ---------------------------------------------------------------------------
# OBJ export


def _stereographic(points):
    """Stereographic projection of the unit 3-sphere from the pole +e_4."""
    return points[..., :3] / (1.0 - points[..., 3])[..., None]


def export_obj(points, path, projection="stereographic", drop_index=3):
    """Write a triangulated OBJ of the surface under a 3D projection.

    projection="stereographic": the surface must sit on an affine 3-sphere
    (fit rms at most 1e-4); it is recentred and rescaled to the unit
    sphere and projected from the pole +e_4, which must be at least 1e-3
    from the surface.
    projection="drop": simply drops coordinate drop_index.
    The file holds one "v x y z" line per node in u-major order, 9
    significant digits each, then two "f a b c" triangles per grid cell.
    """
    pts = np.asarray(points, dtype=float)
    nu, nv = pts.shape[0], pts.shape[1]
    if projection == "stereographic":
        fit = sphere_fit(pts)
        if fit.rms_residual > 1e-4:
            raise NotOnSphere(
                f"sphere fit rms {fit.rms_residual:.3e} exceeds 0.0001")
        unit = (pts - fit.center) / fit.radius
        gap = float(np.min(np.linalg.norm(unit - QK, axis=-1)))
        if gap < 1e-3:
            raise PoleOnSurface(f"pole within {gap:.3e} of the surface")
        xyz = _stereographic(unit)
    elif projection == "drop":
        xyz = np.delete(pts, drop_index, axis=-1)
    else:
        raise ValueError("projection must be 'stereographic' or 'drop'")

    def faces(lo, hi):
        # cells lo..hi-1 in u-major order, two triangles each
        i, j = np.divmod(np.arange(lo, hi), nv - 1)
        a = i * nv + j + 1
        return np.stack([a, a + nv, a + nv + 1, a, a + nv + 1, a + 1],
                        axis=1).reshape(-1, 3)

    flat = xyz.reshape(-1, 3)
    with open(path, "w") as fh:
        _write_rows(fh, nu * nv, lambda lo, hi: flat[lo:hi], "%.9g", " ", "v ")
        _write_rows(fh, (nu - 1) * (nv - 1), faces, "%d", " ", "f ")
    return xyz


def revolution_radii(xyz):
    """(R, r) of a torus of revolution about the z axis from mesh points."""
    d = np.hypot(xyz[..., 0], xyz[..., 1])
    return (float(d.max() + d.min()) / 2.0, float(d.max() - d.min()) / 2.0)


# ---------------------------------------------------------------------------
# job configuration


class _Params(dict):
    """The parameters of one job: a required key that is missing raises a
    ValueError naming the command and the key."""

    def __init__(self, command, params):
        super().__init__(params)
        self.command = command

    def __missing__(self, key):
        raise ValueError(f"{self.command} needs the parameter {key!r}")


@dataclass
class JobConfig:
    command: str
    params: dict = field(default_factory=dict)
    out_dir: Path = Path(".")

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        if not isinstance(self.params, dict):
            raise ValueError("params must be an object of parameter names and "
                             f"values, got {self.params!r}")
        self.params = _Params(self.command, self.params)
        for key, value in self.params.items():
            if key in STEP_KEYS and not (value is None or _real(value) and value > 0):
                raise ValueError(f"step size {key} must be a positive number, "
                                 f"got {value!r}")
            if key in COUNT_KEYS and not (value is None or type(value) is int and value > 0):
                raise ValueError(f"node count {key} must be a positive integer, "
                                 f"got {value!r}")
            if key == "drop_index" and not (type(value) is int and 0 <= value <= 3):
                raise ValueError(f"drop_index must be 0, 1, 2 or 3, got {value!r}")
            if key in LENGTH_KEYS and not _numbers(value, LENGTH_KEYS[key]):
                raise ValueError(f"{key} must hold {LENGTH_KEYS[key]} numbers, "
                                 f"got {value!r}")

    def path(self, name):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name


def _numbers(value, n):
    """True if value is a list or tuple of n real numbers."""
    return (isinstance(value, (list, tuple)) and len(value) == n
            and all(map(_real, value)))


def _parse_fraction(text):
    p, _, q = text.partition("/")
    p, q = int(p), int(q or 1)
    if q == 0:
        raise ValueError(f"target {text!r} has a zero denominator")
    return p, q


def _periodic_profile(text):
    """The CurvatureProfile of a JSON object, for the commands that trace
    whole base periods; a QuasiPeriodicProfile has none."""
    k = parse_profile(text)
    if not isinstance(k, CurvatureProfile):
        raise ValueError("this command needs a periodic profile "
                         '{"T", "k0", "cos"/"sin"}, not {"k0", "terms"}')
    return k


def _parse_bracket(text):
    ends = [float(x) for x in text.split(",")]
    if len(ends) != 2 or not ends[0] < ends[1]:
        raise ValueError(f"bracket {text!r} must be lo,hi with lo < hi")
    return tuple(ends)


# ---------------------------------------------------------------------------
# command implementations (each returns a report dict)


def _cmd_helix(cfg):
    r = cfg.params["r"]
    tau = cfg.params.get("tau", 1)
    h = cfg.params.get("h", 1e-3)
    s_max = cfg.params.get("s_max", TWO_PI * r)
    c = helix(r, tau, (0.0, s_max), h)
    kappa, tau_meas = frenet_s3(c)
    csv = cfg.path(cfg.params.get("csv", "helix.csv"))
    s, q = c.u_grid, c.samples
    with open(csv, "w") as fh:
        fh.write("s,x1,x2,x3,x4\n")
        _write_rows(fh, len(q),
                    lambda lo, hi: np.column_stack([s[lo:hi], q[lo:hi]]))
    return {
        "kappa": float(np.median(kappa)),
        "kappa_expected": helix_curvature(r),
        "kappa_max_dev": float(np.max(np.abs(kappa - helix_curvature(r)))),
        "tau": float(np.median(tau_meas)),
        "tau2": float(np.median(tau_meas) ** 2),
        "tau2_max_dev": float(np.max(np.abs(tau_meas ** 2 - 1.0))),
        "csv": str(csv),
    }


def _cmd_clifford(cfg):
    h = cfg.params.get("h", 0.02)
    g = clifford_flat_map(h=h)
    rep = verify_flat_map(g).as_dict()
    if cfg.params.get("csv"):
        write_flatmap_csv(g, cfg.path(cfg.params["csv"]))
        rep["csv"] = str(cfg.path(cfg.params["csv"]))
    if cfg.params.get("obj"):
        xyz = export_obj(g.maps(slice(None))[0], cfg.path(cfg.params["obj"]))
        R, r_minor = revolution_radii(xyz)
        rep["obj"] = str(cfg.path(cfg.params["obj"]))
        rep["revolution_R"] = R
        rep["revolution_r"] = r_minor
        rep["radii_ratio"] = R / r_minor
    return rep


def _cmd_hopf_torus(cfg):
    k = _periodic_profile(cfg.params["profile"])
    periods = cfg.params.get("periods", 1)
    h = cfg.params.get("h", 0.01)
    g = hopf_flat_map(k, periods * k.base_period, h=h,
                      hv=cfg.params.get("hv", h))
    rep = verify_flat_map(g).as_dict()
    rep["omega_min"] = float(np.min(g.omega_grid))
    rep["omega_max"] = float(np.max(g.omega_grid))
    if cfg.params.get("csv"):
        write_flatmap_csv(g, cfg.path(cfg.params["csv"]))
        rep["csv"] = str(cfg.path(cfg.params["csv"]))
    return rep


def _cmd_flatmap_verify(cfg):
    kind = cfg.params.get("kind", "hopf")
    if kind == "hopf":
        return _cmd_hopf_torus(cfg)
    if kind == "clifford":
        return _cmd_clifford(cfg)
    if kind == "helix-product":
        r = cfg.params["r"]
        span = cfg.params.get("span", 1.0)
        h = cfg.params.get("h", 0.01)
        g, mu = helix_product_map(r, (0, span), (0, span), h=h)
        rep = verify_flat_map(g).as_dict()
        expect = 2 * mu * np.add(*g.spec.mesh())
        rep["mu"] = mu
        rep["angle_dev_from_linear"] = float(np.max(np.abs(g.omega_grid - expect)))
        return rep
    raise ValueError(f"unknown flat map kind: {kind}")


def _cmd_verify(cfg):
    g = read_flatmap_csv(cfg.params["input"])
    rep = verify_flat_map(g).as_dict()
    rep["nu"], rep["nv"] = g.spec.nu, g.spec.nv
    return rep


def _fn(name):
    try:
        return NAMED_FUNCTIONS[name]
    except KeyError:
        raise ValueError(f"unknown function name: {name}; "
                         f"choose from {sorted(NAMED_FUNCTIONS)}")


def _cmd_solve(cfg):
    p = cfg.params
    family = p["family"]
    h = p.get("h", 0.01)
    spec = GridSpec.from_ranges(p.get("u_range", (0.0, 1.0)),
                                p.get("v_range", (0.0, 1.0)), h,
                                p.get("hv"))
    if family == "wave":
        omega0 = p.get("omega0", 0.0)
        sol = wave_solution(omega0, _fn(p.get("f1", "sin")),
                            _fn(p.get("f2", "cos")), spec)
        omega = linear_angle(0.0, 0.0, omega0)
    elif family == "geometric":
        k = parse_profile(p["profile"])
        g = _hopf_map(k, spec)
        sol = geometric_solution(g, tuple(p.get("a", (1, 0, 0, 0))),
                                 p.get("rho", 0.0))
        omega = g.omega_fn
    elif family == "stretched":
        k = parse_profile(p["profile"])
        sol = stretched_solution(k, p.get("n", 2), spec).grid()
        omega = profile_angle(k)
    elif family == "helical":
        mu = p.get("mu", 0.75)
        sol = helical_angle_solution(mu, _fn(p.get("g", "sin")),
                                     _fn(p.get("h_fn", "zero")), spec)
        omega = linear_angle(2 * mu, 2 * mu)
    elif family == "exponential":
        r, s = p.get("r", 2.0), p.get("s", 1.0)
        sol = exponential_solution(r, s, spec)
        omega = linear_angle(2 * r, 2 * s)
    elif family == "quadrature":
        cu, cv = p.get("cu", 1.0), p.get("cv", 1.0)
        omega = linear_angle(cu, cv)
        sol = quadrature_transform(zero_solution(spec), omega,
                                   y0=p.get("y0", (1.0, 0.0)))
    elif family == "numeric":
        k = parse_profile(p["profile"])
        g = _hopf_map(k, spec)
        ref = geometric_solution(g, tuple(p.get("a", (1, 0, 0, 0))))
        sol = solve_numeric(g.omega_fn, spec, ref.alpha[:, 0], ref.beta[:, 0])
        omega = g.omega_fn
    else:
        raise ValueError(f"unknown solution family: {family}")

    ra, rb = system_residual(sol, omega)
    rep = {"family": family, "residual_alpha": ra, "residual_beta": rb}
    if sol.has_analytic_derivatives and sol.alpha_v is not None:
        ra2, rb2 = system_residual(sol, omega, derivatives="analytic")
        rep["residual_alpha_analytic"] = ra2
        rep["residual_beta_analytic"] = rb2
    csv = cfg.path(p.get("csv", "solution.csv"))
    _write_grid_csv(csv, "u,v,alpha,beta", sol.spec,
                    lambda rows: (sol.alpha[rows], sol.beta[rows]))
    rep["csv"] = str(csv)
    return rep


def _cmd_holonomy(cfg):
    k = _periodic_profile(cfg.params["profile"])
    n = cfg.params.get("n", 1)
    res = holonomy(k if n == 1 else k.stretch(n),
                   h=cfg.params.get("h", 1e-3))
    return {
        "theta": res.theta,
        "theta_over_pi": res.theta_over_pi,
        "axis": list(res.axis),
        "rational": list(res.rational) if res.rational else None,
        "so3_deviation": res.so3_deviation,
    }


def _search(p):
    """The search of search-rational and build-torus: the single-harmonic
    family k0 + eps cos(2 pi u / T) tuned onto a_n = target."""
    fam = single_harmonic_family(p["k0"], p.get("T", math.pi))
    return search_rational(fam, p.get("n", 2), _parse_fraction(p["target"]),
                           _parse_bracket(p["bracket"]), h=p.get("h", 1e-3))


def _cmd_search_rational(cfg):
    out = _search(cfg.params)
    rep = json.loads(out.to_json())
    rep["closure_multiple"] = out.closure_multiple
    rep["closure_residual"] = out.closure_residual
    return rep


def _export_immersion(cfg, im, rep):
    """The CSV and OBJ files of build-torus and build-cylinder; returns rep
    with their paths added."""
    p = cfg.params
    if p.get("csv"):
        write_immersion_csv(im, cfg.path(p["csv"]))
        rep["csv"] = str(cfg.path(p["csv"]))
    if p.get("obj"):
        export_obj(im.f, cfg.path(p["obj"]), projection="drop",
                   drop_index=p.get("drop_index", 3))
        rep["obj"] = str(cfg.path(p["obj"]))
    return rep


def _cmd_build_torus(cfg):
    p = cfg.params
    out = _search(p)
    im, rep = build_perturbed_torus(
        out, lam=p.get("lam"),
        nodes_per_period=p.get("nodes_per_period", 96),
        nv=p.get("nv", 192))
    rep["search_parameter"] = out.parameter
    rep["theta_over_pi"] = out.achieved.theta_over_pi
    return _export_immersion(cfg, im, rep)


def _cmd_build_cylinder(cfg):
    p = cfg.params
    im, rep = build_perturbed_cylinder(
        parse_profile(p["profile"]), n=p.get("n", 2), lam=p.get("lam"),
        u_window=tuple(p.get("u_window", (0.0, 4 * math.pi))),
        h=p.get("h", 0.02), nv=p.get("nv", 128))
    return _export_immersion(cfg, im, rep)


COMMANDS = {
    "helix": _cmd_helix,
    "clifford": _cmd_clifford,
    "hopf-torus": _cmd_hopf_torus,
    "flatmap-verify": _cmd_flatmap_verify,
    "solve": _cmd_solve,
    "build-torus": _cmd_build_torus,
    "build-cylinder": _cmd_build_cylinder,
    "holonomy": _cmd_holonomy,
    "search-rational": _cmd_search_rational,
    "verify": _cmd_verify,
}


def _error_report(exc, command):
    """Report of a failed job, with the evidence the exception carries."""
    report = {"error": type(exc).__name__, "message": str(exc),
              "command": command}
    for attr in ("scan", "best_residual", "residual"):
        if getattr(exc, attr, None) is not None:
            report[attr] = getattr(exc, attr)
    return report


def run(cfg: JobConfig):
    """Execute one job; returns (exit_code, report dict).

    Every exception becomes an error report with exit code 1, so no input
    ends the job without a report; one of an unexpected type is a fault in
    the program, and its traceback also goes to stderr.
    """
    try:
        handler = COMMANDS[cfg.command]
    except KeyError:
        return 2, {"error": "UnknownCommand", "message": cfg.command}
    try:
        report = handler(cfg)
        report["command"] = cfg.command
        return 0, report
    except (FlatSurfaceError, ValueError, KeyError, OSError) as exc:
        return 1, _error_report(exc, cfg.command)
    except Exception as exc:
        traceback.print_exc()
        return 1, _error_report(exc, cfg.command)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="flatsurf4",
        description="flat surfaces in R^4: Hopf tori, flat maps, perturbed tori")
    ap.add_argument("--config", help="JSON file with {command, params, out_dir}")
    ap.add_argument("--out-dir", default=".")
    ap.add_argument("--report", default="report.json")
    sub = ap.add_subparsers(dest="command")

    def add(name, *specs):
        sp = sub.add_parser(name)
        for flag, kw in specs:
            sp.add_argument(flag, **kw)
        return sp

    f = dict(type=float)
    i = dict(type=int)
    s = dict()
    add("helix", ("--r", f), ("--tau", dict(type=int, default=1)),
        ("--s-max", f), ("--h", f), ("--csv", s))
    add("clifford", ("--h", f), ("--csv", s), ("--obj", s))
    add("hopf-torus", ("--profile", s), ("--periods", i), ("--h", f),
        ("--hv", f), ("--csv", s))
    add("flatmap-verify", ("--kind", s), ("--r", f), ("--span", f),
        ("--h", f), ("--profile", s), ("--periods", i))
    add("solve", ("--family", s), ("--h", f), ("--hv", f), ("--omega0", f),
        ("--f1", s), ("--f2", s), ("--g", s), ("--h-fn", s), ("--mu", f),
        ("--r", f), ("--s", f), ("--cu", f), ("--cv", f), ("--n", i),
        ("--profile", s), ("--rho", f), ("--csv", s))
    add("build-torus", ("--k0", f), ("--T", f), ("--target", s),
        ("--bracket", s), ("--n", i), ("--lam", f), ("--nodes-per-period", i),
        ("--nv", i), ("--h", f), ("--csv", s), ("--obj", s), ("--drop-index", i))
    add("build-cylinder", ("--profile", s), ("--n", i), ("--lam", f),
        ("--h", f), ("--nv", i), ("--csv", s), ("--obj", s), ("--drop-index", i))
    add("holonomy", ("--profile", s), ("--n", i), ("--h", f))
    add("search-rational", ("--k0", f), ("--T", f), ("--target", s),
        ("--bracket", s), ("--n", i), ("--h", f))
    add("verify", ("--input", s))
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    if not (args.config or args.command):
        ap.error("a subcommand or --config is required")
    command, out_dir = args.command, Path(args.out_dir)
    try:
        if args.config:
            blob = json.loads(Path(args.config).read_text())
            if not isinstance(blob, dict):
                raise ValueError("config must be an object of command, params "
                                 f"and out_dir, got {blob!r}")
            command, params = blob["command"], blob.get("params", {})
            out_dir = Path(blob.get("out_dir", args.out_dir))
        else:
            params = {k.replace("-", "_"): v for k, v in vars(args).items()
                      if k not in ("command", "config", "out_dir", "report")
                      and v is not None}
        cfg = JobConfig(command, params, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # unreadable config file, or a parameter that failed its check
        code, report = 1, _error_report(exc, command)
    else:
        code, report = run(cfg)
    report_path = out_dir / args.report
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
