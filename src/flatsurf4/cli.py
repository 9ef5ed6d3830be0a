"""Batch front end: one job per process, JSON reports, CSV/OBJ artifacts.

COMMANDS lists the subcommands, each with its handler and the table of its
keys, where each key's kind (what its values must be) and default live: the
tables build the flags, and JobConfig checks every job against them.  A
command with a selector key (flatmap-verify --kind, solve --family) also
takes the keys of the table its value selects (SELECTORS).  Every numeric result lands in a JSON report (sorted keys, so identical
configs produce byte-identical reports); grids are written as CSV with
17-significant-digit floats and surfaces optionally as OBJ meshes.
"""

import argparse
import json
import math
import sys
import traceback
from collections import namedtuple
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _fd as fd
from .curve import (CurvatureProfile, frenet_s3, helix, helix_curvature,
                    parse_profile, _real)
from .errors import FlatSurfaceError, NotOnSphere, PoleOnSurface
from .flatmap import (BLOCK_ROWS, GridSpec, clifford_flat_map,
                      helix_product_map, hopf_flat_map, linear_angle,
                      profile_angle, read_flatmap_csv, verify_flat_map,
                      write_flatmap_csv, _hopf_map, _write_grid_csv,
                      _write_halves, _write_rows)
from .hypsys import (SmoothFn, exponential_solution,
                     geometric_solution, helical_angle_solution,
                     quadrature_transform, solve_numeric, stretched_solution,
                     system_residual, wave_solution, zero_solution)
from .immersion import sphere_fit, write_immersion_csv
from .quat import QK
from .torusearch import (build_perturbed_cylinder, build_perturbed_torus,
                         holonomy, search_rational, single_harmonic_family)

NAMED_FUNCTIONS = {
    "sin": SmoothFn(np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)),
    "cos": SmoothFn(np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin),
    "zero": SmoothFn(*(lambda t: np.zeros_like(np.asarray(t, dtype=float)),) * 4),
    "one": SmoothFn(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                    *(lambda t: np.zeros_like(np.asarray(t, dtype=float)),) * 3),
}


# ---------------------------------------------------------------------------
# OBJ export


# A node's "v" line (three %.9g) costs about this many times a cell's two
# "f" lines (six %d), measured by formatting the benchmark cylinder's lines
OBJ_NODE_COST = 1.4


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
    It is written by _write_halves, which splits the index space of the
    items (the nodes, then the cells) at its middle: this process writes
    the first half, and on two CPUs a forked child the second.  A node's
    line costs OBJ_NODE_COST times a cell's two, so index i stands for the
    item item(i), a stretch of the items that puts the middle at the node
    where the two halves cost the same.

    Each block of nodes is projected inside the part that writes it, so no
    projected copy of the surface is held; for the stereographic
    projection, the sphere fit (sphere_fit) and the pole gap are taken over
    the grid in row tiles first.  Returns the projection, a function of an
    (..., 4) array of points, for a caller that needs projected points.
    """
    pts = np.asarray(points, dtype=float)
    nu, nv = pts.shape[0], pts.shape[1]
    if projection == "stereographic":
        fit = sphere_fit(pts)
        if fit.rms_residual > 1e-4:
            raise NotOnSphere(
                f"sphere fit rms {fit.rms_residual:.3e} exceeds 0.0001")
        unit = lambda p: (p - fit.center) / fit.radius
        gap = min(float(np.min(np.linalg.norm(unit(pts[rows]) - QK, axis=-1)))
                  for rows, _, _ in fd.row_tiles(nu))
        if gap < 1e-3:
            raise PoleOnSurface(f"pole within {gap:.3e} of the surface")
        project = lambda p: _stereographic(unit(p))
    elif projection == "drop":
        keep = [i for i in range(4) if i != drop_index]
        project = lambda p: p[..., keep]
    else:
        raise ValueError("projection must be 'stereographic' or 'drop'")

    def faces(lo, hi):
        # cells lo..hi-1 in u-major order, two triangles each
        i, j = np.divmod(np.arange(lo, hi), nv - 1)
        a = i * nv + j + 1
        return np.stack([a, a + nv, a + nv + 1, a, a + nv + 1, a + 1],
                        axis=1).reshape(-1, 3)

    flat, nodes = pts.reshape(-1, 4), nu * nv
    n = nodes + (nu - 1) * (nv - 1)
    # the items (nodes first) of half the file's cost; there are fewer cells
    # than nodes, so this falls among the nodes
    mid, split = n // 2, round(0.5 * (nodes + (n - nodes) / OBJ_NODE_COST))

    def item(i):
        return (i * split // mid if i < mid
                else split + (i - mid) * (n - split) // (n - mid))

    def part(fh, lo, hi):
        # the items item(lo)..item(hi)-1 of the nodes, then the cells
        lo, hi = item(lo), item(hi)
        _write_rows(fh, min(lo, nodes), min(hi, nodes),
                    lambda a, b: project(flat[a:b]), "%.9g", " ", "v ")
        _write_rows(fh, max(lo, nodes) - nodes, max(hi, nodes) - nodes,
                    faces, "%d", " ", "f ")

    _write_halves(path, "", n, BLOCK_ROWS, part)
    return project


def revolution_radii(xyz):
    """(R, r) of a torus of revolution about the z axis from mesh points."""
    d = np.hypot(xyz[..., 0], xyz[..., 1])
    return (float(d.max() + d.min()) / 2.0, float(d.max() - d.min()) / 2.0)


# ---------------------------------------------------------------------------
# job configuration


# A parameter's kind: test(value) is true of the values that rule describes
# ("{key}" stands for the key); convert reads the text of its flag.
Kind = namedtuple("Kind", "test rule convert")


def numbers(n):
    """The kind of a list of n finite numbers; its flag takes a JSON list."""
    return Kind(lambda v: isinstance(v, (list, tuple)) and len(v) == n
                and all(map(_real, v)),
                f"{{key}} must hold {n} numbers, all finite", json.loads)


def choice(*options):
    """The kind of a value equal to one of options and of the same type."""
    listed = ", ".join(map(repr, options[:-1])) + f" or {options[-1]!r}"
    return Kind(lambda v: (type(v), v) in [(type(o), o) for o in options],
                "{key} must be " + listed, type(options[0]))


STEP = Kind(lambda v: _real(v) and v > 0,
            "step size {key} must be a positive finite number", float)
COUNT = Kind(lambda v: type(v) is int and v > 0, "{key} must be a positive integer", int)
NODES = COUNT._replace(rule="node count " + COUNT.rule)
REAL = Kind(_real, "{key} must be a number", float)
TEXT = Kind(lambda v: isinstance(v, str), "{key} must be a string", str)
FUNCTION = choice(*NAMED_FUNCTIONS)
REQUIRED = object()  # the default of a key that a job cannot run without


class _Params(dict):
    """The parameters of one job but those set to None; a missing required
    key raises a ValueError naming the command and the key."""

    def __init__(self, command, params):
        super().__init__((k, v) for k, v in params.items() if v is not None)
        self.command = command

    def __missing__(self, key):
        raise ValueError(f"{self.command} needs the parameter {key!r}")

    def fill(self, table):
        """Check the given keys of table, fill in the others; returns table."""
        for key, (kind, default) in table.items():
            if key in self:
                if not kind.test(self[key]):
                    raise ValueError(kind.rule.format(key=key)
                                     + f", got {self[key]!r}")
            elif default is REQUIRED:
                self.__missing__(key)
            elif default is not None:
                self[key] = default
        return table


@dataclass
class JobConfig:
    """One job, checked against its command's table before any work."""
    command: str
    params: dict = field(default_factory=dict)
    out_dir: Path = Path(".")

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        if not isinstance(self.params, dict):
            raise ValueError("params must be an object of parameter names and "
                             f"values, got {self.params!r}")
        p = self.params = _Params(self.command, self.params)
        if self.command not in COMMANDS:
            return  # run reports the unknown command
        table = p.fill(COMMANDS[self.command][1])
        if self.command in SELECTORS:
            key, variants = SELECTORS[self.command]
            table = {**table, **p.fill(variants[p[key]][1])}
        unknown = sorted(set(p) - set(table))
        if unknown:
            raise ValueError(f"{self.command} has no parameter {unknown[0]!r}; "
                             f"it takes {', '.join(sorted(table))}")

    def path(self, name):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name


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
    if len(ends) != 2 or not all(map(_real, ends)) or not ends[0] < ends[1]:
        raise ValueError(f"bracket {text!r} must be finite lo,hi with lo < hi")
    return tuple(ends)


# ---------------------------------------------------------------------------
# command implementations (each returns a report dict)


def _cmd_helix(cfg):
    p = cfg.params
    r = p["r"]
    s_max = 2.0 * math.pi * r if p.get("s_max") is None else p["s_max"]
    c = helix(r, p["tau"], (0.0, s_max), p["h"])
    kappa, tau_meas = frenet_s3(c)
    csv = cfg.path(p["csv"])
    s, q = c.u_grid, c.samples

    def part(fh, first, last):
        _write_rows(fh, first, last,
                    lambda lo, hi: np.column_stack([s[lo:hi], q[lo:hi]]),
                    "%.17g", ",", "")

    _write_halves(csv, "s,x1,x2,x3,x4\n", len(q), BLOCK_ROWS, part)
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
    g = clifford_flat_map(h=cfg.params["h"])
    rep = verify_flat_map(g).as_dict()
    if cfg.params.get("csv"):
        write_flatmap_csv(g, cfg.path(cfg.params["csv"]))
        rep["csv"] = str(cfg.path(cfg.params["csv"]))
    if cfg.params.get("obj"):
        F = g.maps(slice(None))[0]
        project = export_obj(F, cfg.path(cfg.params["obj"]))
        R, r_minor = revolution_radii(project(F))
        rep["obj"] = str(cfg.path(cfg.params["obj"]))
        rep["revolution_R"] = R
        rep["revolution_r"] = r_minor
        rep["radii_ratio"] = R / r_minor
    return rep


def _cmd_hopf_torus(cfg):
    p = cfg.params
    k = _periodic_profile(p["profile"])
    g = hopf_flat_map(k, p["periods"] * k.base_period, h=p["h"], hv=p.get("hv"))
    rep = verify_flat_map(g).as_dict()
    rep["omega_min"] = float(np.min(g.omega_grid))
    rep["omega_max"] = float(np.max(g.omega_grid))
    if p.get("csv"):
        write_flatmap_csv(g, cfg.path(p["csv"]))
        rep["csv"] = str(cfg.path(p["csv"]))
    return rep


def _cmd_helix_product(cfg):
    p = cfg.params
    g, mu = helix_product_map(p["r"], (0, p["span"]), (0, p["span"]), h=p["h"])
    rep = verify_flat_map(g).as_dict()
    expect = 2 * mu * np.add(*g.spec.mesh())
    rep["mu"] = mu
    rep["angle_dev_from_linear"] = float(np.max(np.abs(g.omega_grid - expect)))
    return rep


def _cmd_verify(cfg):
    g = read_flatmap_csv(cfg.params["input"])
    rep = verify_flat_map(g).as_dict()
    rep["nu"], rep["nv"] = g.spec.nu, g.spec.nv
    return rep


def _wave(p, spec):
    return (wave_solution(p["omega0"], NAMED_FUNCTIONS[p["f1"]],
                          NAMED_FUNCTIONS[p["f2"]], spec),
            linear_angle(0.0, 0.0, p["omega0"]))


def _geometric(p, spec):
    g = _hopf_map(parse_profile(p["profile"]), spec)
    return geometric_solution(g, tuple(p["a"]), p["rho"]), g.omega_fn


def _stretched(p, spec):
    k = parse_profile(p["profile"])
    return stretched_solution(k, p["n"], spec).grid(), profile_angle(k)


def _helical(p, spec):
    return (helical_angle_solution(p["mu"], NAMED_FUNCTIONS[p["g"]],
                                   NAMED_FUNCTIONS[p["h_fn"]], spec),
            linear_angle(2 * p["mu"], 2 * p["mu"]))


def _exponential(p, spec):
    return (exponential_solution(p["r"], p["s"], spec),
            linear_angle(2 * p["r"], 2 * p["s"]))


def _quadrature(p, spec):
    omega = linear_angle(p["cu"], p["cv"])
    return quadrature_transform(zero_solution(spec), omega, y0=p["y0"]), omega


def _numeric(p, spec):
    # the initial data is column 0 of a geometric solution; two columns,
    # not one, keep the contraction on the BLAS path of a whole grid
    g = _hopf_map(parse_profile(p["profile"]), replace(spec, nv=2))
    ref = geometric_solution(g, tuple(p["a"]))
    return (solve_numeric(g.omega_fn, spec, ref.alpha[:, 0], ref.beta[:, 0]),
            g.omega_fn)


def _cmd_solve(cfg):
    p = cfg.params
    spec = GridSpec.from_ranges(p["u_range"], p["v_range"], p["h"], p.get("hv"))
    sol, omega = SOLVE_FAMILIES[p["family"]][0](p, spec)
    ra, rb = system_residual(sol, omega)
    rep = {"family": p["family"], "residual_alpha": ra, "residual_beta": rb}
    if sol.has_analytic_derivatives and sol.alpha_v is not None:
        ra2, rb2 = system_residual(sol, omega, derivatives="analytic")
        rep["residual_alpha_analytic"] = ra2
        rep["residual_beta_analytic"] = rb2
    csv = cfg.path(p["csv"])
    _write_grid_csv(csv, "u,v,alpha,beta", sol.spec,
                    lambda rows: (sol.alpha[rows], sol.beta[rows]))
    rep["csv"] = str(csv)
    return rep


def _cmd_holonomy(cfg):
    k = _periodic_profile(cfg.params["profile"])
    n = cfg.params["n"]
    res = holonomy(k if n == 1 else k.stretch(n), h=cfg.params["h"])
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
    fam = single_harmonic_family(p["k0"], p["T"])
    return search_rational(fam, p["n"], _parse_fraction(p["target"]),
                           _parse_bracket(p["bracket"]), h=p["h"])


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
                   drop_index=p["drop_index"])
        rep["obj"] = str(cfg.path(p["obj"]))
    return rep


def _cmd_build_torus(cfg):
    p = cfg.params
    out = _search(p)
    im, rep = build_perturbed_torus(out, lam=p.get("lam"), nv=p["nv"],
                                    nodes_per_period=p["nodes_per_period"])
    rep["search_parameter"] = out.parameter
    rep["theta_over_pi"] = out.achieved.theta_over_pi
    return _export_immersion(cfg, im, rep)


def _cmd_build_cylinder(cfg):
    p = cfg.params
    im, rep = build_perturbed_cylinder(
        parse_profile(p["profile"]), n=p["n"], lam=p.get("lam"),
        u_window=tuple(p["u_window"]), h=p["h"], nv=p["nv"])
    return _export_immersion(cfg, im, rep)


# Each command: its handler and its table, key -> (kind, default).  REQUIRED
# marks a key no job of the command runs without; a default of None leaves
# the key unset, read with get, or with [] where only some jobs need it.
SEARCH = {"k0": (REAL, REQUIRED), "T": (REAL, math.pi), "n": (COUNT, 2),
          "target": (TEXT, REQUIRED), "bracket": (TEXT, REQUIRED), "h": (STEP, 1e-3)}
EXPORT = {"csv": (TEXT, None), "obj": (TEXT, None), "drop_index": (choice(0, 1, 2, 3), 3)}
# solve --family: the solution and angle of each family, (p, spec) ->
# (sol, omega), and the table of the keys it reads
HOPF = {"profile": (TEXT, REQUIRED), "a": (numbers(4), (1, 0, 0, 0))}
SOLVE_FAMILIES = {
    "wave": (_wave, {"omega0": (REAL, 0.0), "f1": (FUNCTION, "sin"),
                     "f2": (FUNCTION, "cos")}),
    "geometric": (_geometric, {**HOPF, "rho": (REAL, 0.0)}),
    "stretched": (_stretched, {"profile": (TEXT, REQUIRED), "n": (COUNT, 2)}),
    "helical": (_helical, {"mu": (REAL, 0.75), "g": (FUNCTION, "sin"),
                           "h_fn": (FUNCTION, "zero")}),
    "exponential": (_exponential, {"r": (REAL, 2.0), "s": (REAL, 1.0)}),
    "quadrature": (_quadrature, {"cu": (REAL, 1.0), "cv": (REAL, 1.0),
                                 "y0": (numbers(2), (1.0, 0.0))}),
    "numeric": (_numeric, HOPF),
}
COMMANDS = {
    "helix": (_cmd_helix, {
        "r": (REAL, REQUIRED), "tau": (choice(1, -1), 1), "h": (STEP, 1e-3),
        "s_max": (REAL, None), "csv": (TEXT, "helix.csv")}),
    "clifford": (_cmd_clifford, {
        "h": (STEP, 0.02), "csv": (TEXT, None), "obj": (TEXT, None)}),
    "hopf-torus": (_cmd_hopf_torus, {
        "profile": (TEXT, REQUIRED), "periods": (COUNT, 1), "h": (STEP, 0.01),
        "hv": (STEP, None), "csv": (TEXT, None)}),
    "flatmap-verify": (lambda cfg: FLATMAP_KINDS[cfg.params["kind"]][0](cfg), {
        "kind": (choice("hopf", "clifford", "helix-product"), "hopf")}),
    "solve": (_cmd_solve, {
        "family": (choice(*SOLVE_FAMILIES), REQUIRED),
        "h": (STEP, 0.01), "hv": (STEP, None), "u_range": (numbers(2), (0.0, 1.0)),
        "v_range": (numbers(2), (0.0, 1.0)), "csv": (TEXT, "solution.csv")}),
    "build-torus": (_cmd_build_torus, {
        **SEARCH, "lam": (REAL, None), "nodes_per_period": (NODES, 96),
        "nv": (NODES, 192), **EXPORT}),
    "build-cylinder": (_cmd_build_cylinder, {
        "profile": (TEXT, REQUIRED), "n": (COUNT, 2), "lam": (REAL, None),
        "u_window": (numbers(2), (0.0, 4 * math.pi)), "h": (STEP, 0.02),
        "nv": (NODES, 128), **EXPORT}),
    "holonomy": (_cmd_holonomy, {
        "profile": (TEXT, REQUIRED), "n": (COUNT, 1), "h": (STEP, 1e-3)}),
    "search-rational": (_cmd_search_rational, SEARCH),
    "verify": (_cmd_verify, {"input": (TEXT, REQUIRED)}),
}
# flatmap-verify --kind: the handler and the table of each kind
FLATMAP_KINDS = {"hopf": COMMANDS["hopf-torus"], "clifford": COMMANDS["clifford"],
                 "helix-product": (_cmd_helix_product, {
                     "r": (REAL, REQUIRED), "span": (REAL, 1.0), "h": (STEP, 0.01)})}
# A command with a selector key also takes the keys of the table that the
# selector's value picks: command -> (selector key, {value: (handler, table)})
SELECTORS = {"flatmap-verify": ("kind", FLATMAP_KINDS),
             "solve": ("family", SOLVE_FAMILIES)}


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
    if cfg.command not in COMMANDS:
        return 2, {"error": "UnknownCommand", "message": cfg.command}
    try:
        report = COMMANDS[cfg.command][0](cfg)
        report["command"] = cfg.command
        return 0, report
    except (FlatSurfaceError, ValueError, KeyError, OSError) as exc:
        return 1, _error_report(exc, cfg.command)
    except Exception as exc:
        traceback.print_exc()
        return 1, _error_report(exc, cfg.command)


def _build_parser():
    """Each command's flags are the keys of its table.  They only convert
    text; JobConfig checks and fills in values, so a bad one is reported."""
    ap = argparse.ArgumentParser(
        prog="flatsurf4",
        description="flat surfaces in R^4: Hopf tori, flat maps, perturbed tori")
    ap.add_argument("--config", help="JSON file with {command, params, out_dir}")
    ap.add_argument("--out-dir", default=".")
    ap.add_argument("--report", default="report.json")
    sub = ap.add_subparsers(dest="command")
    for command, entry in COMMANDS.items():
        variants = SELECTORS[command][1].values() if command in SELECTORS else ()
        flags = {key: kind for _, table in [entry, *variants]
                 for key, (kind, _) in table.items()}
        sp = sub.add_parser(command)
        for key, kind in flags.items():
            sp.add_argument("--" + key.replace("_", "-"), type=kind.convert)
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
            params = {k: v for k, v in vars(args).items()
                      if k not in ("command", "config", "out_dir", "report")}
        cfg = JobConfig(command, params, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # unreadable config file, or a parameter that failed its check
        code, report = 1, _error_report(exc, command)
    else:
        code, report = run(cfg)
    text = json.dumps(report, indent=2, sort_keys=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / args.report).write_text(text + "\n")
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
