"""The benchmark's workloads: which CLI jobs each runs, and how each job's
report and files are checked.

Every workload is a closed loop with one client: one fresh interpreter runs
the jobs of the workload back to back through ``flatsurf4.cli.main``, each
job starting when the previous one has ended.  Flags are used where the CLI
has them; parameters without a flag (``u_window``, ``u_range``) go through a
``--config`` JSON file written before the interpreter starts.

The tolerances in the checks are those of the package's acceptance suite.
"""

import json
import math
import random
from pathlib import Path

WORKLOADS = ("search", "torus", "cylinder", "roundtrip")

# The release family k_eps(u) = K0 + eps cos(2u) of the perturbed torus.
RELEASE_K0 = 1.21321612108222
RELEASE_T = math.pi
# Cylinder: k0 + sum amp cos(freq u + phase); the seed draws the phases.
CYLINDER_K0 = 0.8
CYLINDER_TERMS = ((0.15, 2.0), (0.1, 2.8284271247461903))
CYLINDER_WINDOW = 4.0 * math.pi  # 629 x 257 nodes at h = 0.02, nv = 256
CYLINDER_H = 0.02
CYLINDER_NV = 256
ROUNDTRIP_PROFILE = '{"T":2,"k0":0.5,"cos":[0.3]}'

# Report entries that record accuracy; they are kept beside the timings.
ACCURACY_KEYS = ("gauss_K_max", "closure_u", "closure_v", "closure_residual",
                 "lift_closure_gap", "lambda", "margin_min", "sphere_rms",
                 "metric_min_eigenvalue", "flatmap_max", "residual_alpha",
                 "residual_beta")


class Job:
    """One CLI invocation: its argv, its output directory and its checks.

    ``check(reports)`` gets the parsed reports of every job of the cycle,
    keyed by job name, and returns a list of failure messages.
    """

    def __init__(self, name, argv, out_dir, check):
        self.name = name
        self.argv = argv
        self.out_dir = out_dir
        self.check = check

    @property
    def report_path(self):
        return Path(self.out_dir) / "report.json"


def _count_lines(path):
    """Number of newline characters in a file, read in 1 MiB blocks."""
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            n += block.count(b"\n")
    return n


def _expect(fails, ok, message):
    if not ok:
        fails.append(message)


def _check_csv_lines(fails, path, nu, nv):
    try:
        lines = _count_lines(path)
    except OSError as exc:
        fails.append(f"cannot read {path}: {exc}")
        return
    _expect(fails, lines == nu * nv + 1,
            f"{path} has {lines} lines, expected {nu * nv + 1}")


def _search_check(name, p, q):
    def check(reports):
        rep, fails = reports[name], []
        _expect(fails, rep.get("rational") == [p, q],
                f"rational {rep.get('rational')} != {[p, q]}")
        _expect(fails, abs(rep.get("theta_over_pi", math.inf) - p / q) < 1e-9,
                f"|theta_over_pi - {p}/{q}| >= 1e-9")
        _expect(fails, rep.get("closure_residual", math.inf) < 1e-4,
                "closure_residual >= 1e-4")
        return fails
    return check


def _torus_check(reports):
    rep, fails = reports["build-torus"], []
    _expect(fails, rep.get("ok") is True, "ok is not true")
    _expect(fails, rep.get("gauss_K_max", math.inf) < 1e-3, "gauss_K_max >= 1e-3")
    _expect(fails, rep.get("closure_u", math.inf) < 1e-4, "closure_u >= 1e-4")
    _expect(fails, rep.get("closure_v", math.inf) < 1e-4, "closure_v >= 1e-4")
    _expect(fails, rep.get("margin_min", -1.0) > 0, "margin_min <= 0")
    _expect(fails, rep.get("sphere_rms", 0.0) > 1e-2, "sphere_rms <= 1e-2")
    _expect(fails, rep.get("omega_range", 0.0) > 1e-6, "omega_range <= 1e-6")
    _expect(fails, abs(rep.get("theta_over_pi", math.inf) - 0.25) < 1e-9,
            "|a_2 - 1/4| >= 1e-9")
    return fails


def _cylinder_check(out_dir, nu, nv):
    def check(reports):
        rep, fails = reports["build-cylinder"], []
        _expect(fails, rep.get("ok") is True, "ok is not true")
        _expect(fails, rep.get("margin_min", -1.0) > 0, "margin_min <= 0")
        _expect(fails, rep.get("metric_min_eigenvalue", -1.0) > 0,
                "metric_min_eigenvalue <= 0")
        _expect(fails, rep.get("gauss_K_max", math.inf) < 1e-3,
                "gauss_K_max >= 1e-3")
        _check_csv_lines(fails, out_dir / "cylinder.csv", nu, nv)
        try:
            data = (out_dir / "cylinder.obj").read_bytes()
        except OSError as exc:
            fails.append(f"cannot read the OBJ: {exc}")
            return fails
        v_lines = data.count(b"\nv ") + data.startswith(b"v ")
        f_lines = data.count(b"\nf ") + data.startswith(b"f ")
        _expect(fails, v_lines == nu * nv,
                f"OBJ has {v_lines} v lines, expected {nu * nv}")
        _expect(fails, f_lines == 2 * (nu - 1) * (nv - 1),
                f"OBJ has {f_lines} f lines, expected {2 * (nu - 1) * (nv - 1)}")
        return fails
    return check


def _hopf_check(csv, nu, nv):
    def check(reports):
        fails = []
        _check_csv_lines(fails, csv, nu, nv)
        return fails
    return check


def _verify_check(nu, nv):
    def check(reports):
        rep, fails = reports["verify"], []
        written = reports["hopf-torus"].get("flatmap_max")
        _expect(fails, rep.get("flatmap_max") == written,
                f"flatmap_max read back {rep.get('flatmap_max')!r} != "
                f"written {written!r}")
        _expect(fails, (rep.get("nu"), rep.get("nv")) == (nu, nv),
                f"grid read back {rep.get('nu')}x{rep.get('nv')} != {nu}x{nv}")
        return fails
    return check


def _solve_check(csv, nu, nv):
    def check(reports):
        rep, fails = reports["solve"], []
        _expect(fails, rep.get("residual_alpha", math.inf) < 0.1,
                "residual_alpha >= 0.1")
        _check_csv_lines(fails, csv, nu, nv)
        return fails
    return check


def _search_job(work, name, target, bracket, h):
    out = work / name
    p, q = (int(x) for x in target.split("/"))
    argv = ["--out-dir", str(out), "search-rational",
            "--k0", repr(RELEASE_K0), "--T", repr(RELEASE_T), "--n", "2",
            "--target", target, "--bracket", bracket, "--h", repr(h)]
    return Job(name, argv, out, _search_check(name, p, q))


def _config_argv(work, name, config):
    path = work / f"{name}.json"
    path.write_text(json.dumps(config))
    return ["--config", str(path)]


def build(workload, seed, work):
    """The jobs of one workload, with their config files written to work.

    The seed picks the two cylinder phases only.
    """
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    if workload == "search":
        return [_search_job(work, "search-1-4", "1/4", "0.9,1.2", 1e-3),
                _search_job(work, "search-1-5", "1/5", "0.8,1.05", 2e-3)]
    if workload == "torus":
        out = work / "build-torus"
        argv = ["--out-dir", str(out), "build-torus",
                "--k0", repr(RELEASE_K0), "--T", repr(RELEASE_T), "--n", "2",
                "--target", "1/4", "--bracket", "0.9,1.2", "--h", "0.001",
                "--nodes-per-period", "96", "--nv", "192"]
        return [Job("build-torus", argv, out, _torus_check)]
    if workload == "cylinder":
        rng = random.Random(seed)
        terms = [[amp, freq, rng.uniform(0.0, 2.0 * math.pi)]
                 for amp, freq in CYLINDER_TERMS]
        out = work / "build-cylinder"
        config = {"command": "build-cylinder", "out_dir": str(out), "params": {
            "profile": json.dumps({"k0": CYLINDER_K0, "terms": terms}),
            "n": 2, "h": CYLINDER_H, "nv": CYLINDER_NV,
            "u_window": [0.0, CYLINDER_WINDOW],
            "csv": "cylinder.csv", "obj": "cylinder.obj"}}
        nu = round(CYLINDER_WINDOW / CYLINDER_H) + 1
        return [Job("build-cylinder", _config_argv(work, "cylinder", config),
                    out, _cylinder_check(out, nu, CYLINDER_NV + 1))]
    if workload == "roundtrip":
        hopf_out, verify_out, solve_out = (
            work / "hopf-torus", work / "verify", work / "solve")
        hopf_csv = hopf_out / "hopf.csv"
        hopf = Job("hopf-torus",
                   ["--out-dir", str(hopf_out), "hopf-torus",
                    "--profile", ROUNDTRIP_PROFILE, "--periods", "2",
                    "--h", "0.01", "--hv", "0.02", "--csv", "hopf.csv"],
                   hopf_out, _hopf_check(hopf_csv, 401, 315))
        verify = Job("verify",
                     ["--out-dir", str(verify_out), "verify",
                      "--input", str(hopf_csv)],
                     verify_out, _verify_check(401, 315))
        config = {"command": "solve", "out_dir": str(solve_out), "params": {
            "family": "numeric", "profile": ROUNDTRIP_PROFILE,
            "u_range": [0.0, 2.0], "v_range": [0.0, 1.0], "h": 0.0025,
            "csv": "solve.csv"}}
        solve = Job("solve", _config_argv(work, "solve", config),
                    solve_out, _solve_check(solve_out / "solve.csv", 801, 401))
        return [hopf, verify, solve]
    raise ValueError(f"unknown workload: {workload}")


def accuracy(job_name, report):
    """Accuracy figures of one job's report, including the a_n error."""
    out = {k: report[k] for k in ACCURACY_KEYS if k in report}
    if "theta_over_pi" in report and "rational" in report:
        p, q = report["rational"]
        out["a2_error"] = abs(report["theta_over_pi"] - p / q)
    elif job_name == "build-torus" and "theta_over_pi" in report:
        out["a2_error"] = abs(report["theta_over_pi"] - 0.25)
    return out
