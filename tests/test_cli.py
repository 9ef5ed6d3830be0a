import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flatsurf4
from flatsurf4 import _fd as fd
from flatsurf4 import cli, immersion
from flatsurf4.cli import (JobConfig, export_obj, main, revolution_radii, run,
                           _stereographic)
from flatsurf4.curve import CurvatureProfile, asymptotic_lift
from flatsurf4.errors import NotOnSphere, PoleOnSurface

from test_writers import _allow_cpus


def test_stereographic_point():
    assert np.allclose(_stereographic(np.array([1.0, 0.0, 0.0, 0.0])),
                       [1.0, 0.0, 0.0])


def test_export_obj_pole_on_surface(tmp_path):
    # unit-sphere points including the pole itself
    theta = np.linspace(0, 2 * math.pi, 13)
    pts = np.zeros((13, 2, 4))
    pts[:, 0, 0] = np.cos(theta)
    pts[:, 0, 3] = np.sin(theta)  # contains (0,0,0,1)
    pts[:, 1, 1] = np.cos(theta)
    pts[:, 1, 3] = np.sin(theta)
    with pytest.raises(PoleOnSurface):
        export_obj(pts, tmp_path / "x.obj")


def test_export_obj_not_on_sphere(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((5, 5, 4))
    with pytest.raises(NotOnSphere):
        export_obj(pts, tmp_path / "x.obj")


def test_export_obj_drop_projection(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((4, 3, 4))
    path = tmp_path / "m.obj"
    export_obj(pts, path, projection="drop", drop_index=0)
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 12
    assert len(f_lines) == 2 * 3 * 2


def test_cmd_helix(tmp_path):
    code, rep = run(JobConfig("helix", {"r": 2.0, "s_max": 2.0}, tmp_path))
    assert code == 0
    assert rep["kappa"] == pytest.approx(1.5, abs=1e-5)
    assert rep["tau2"] == pytest.approx(1.0, abs=1e-5)
    assert (tmp_path / "helix.csv").exists()


@pytest.mark.parametrize("s_max,samples", [(0.005, 6), (0.008, 9)])
def test_cmd_helix_needs_nine_samples(tmp_path, s_max, samples):
    # frenet_s3 trims 4 nodes at each end: 6 samples get an error report and
    # no numpy warning, 9 keep one node with the helix's curvature
    src = Path(flatsurf4.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "flatsurf4.cli", "--out-dir", str(tmp_path),
         "helix", "--r", "2", "--s-max", str(s_max), "--h", "0.001"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stderr == ""
    rep = json.loads((tmp_path / "report.json").read_text())
    if samples < 9:
        assert proc.returncode == 1
        assert rep["error"] == "ValueError"
        assert rep["message"].startswith(f"a curve of {samples} samples")
        assert "at least 9 samples" in rep["message"]
    else:
        assert proc.returncode == 0
        assert rep["kappa"] == pytest.approx(1.5, abs=1e-6)


def test_cmd_clifford_export_ratio(tmp_path):
    code, rep = run(JobConfig("clifford",
                              {"h": 0.05, "obj": "clifford.obj"}, tmp_path))
    assert code == 0
    assert rep["flatmap_max"] < 1e-5
    assert rep["radii_ratio"] == pytest.approx(math.sqrt(2), abs=1e-3)


def test_cmd_hopf_torus_and_verify(tmp_path):
    profile = json.dumps({"T": 2.0, "k0": 0.5, "cos": [0.3], "sin": []})
    code, rep = run(JobConfig("hopf-torus",
                              {"profile": profile, "periods": 2, "h": 0.02,
                               "csv": "grid.csv"}, tmp_path))
    assert code == 0
    assert rep["flatmap_max"] < 1e-5
    code2, rep2 = run(JobConfig("verify",
                                {"input": str(tmp_path / "grid.csv")}, tmp_path))
    assert code2 == 0
    # the grid reads back bit for bit, so its residuals are the written ones
    assert rep2["flatmap_max"] == rep["flatmap_max"]
    assert (rep2["nu"], rep2["nv"]) == (201, 315)  # U = 4 and 2 pi at h = 0.02


def test_cmd_flatmap_verify_helix_product(tmp_path):
    code, rep = run(JobConfig("flatmap-verify",
                              {"kind": "helix-product", "r": 2.0,
                               "span": 1.0, "h": 0.01}, tmp_path))
    assert code == 0
    assert rep["mu"] == pytest.approx(0.75)
    assert rep["angle_dev_from_linear"] < 1e-5
    assert rep["flatmap_max"] < 1e-5


@pytest.mark.parametrize("family,params", [
    ("wave", {"omega0": 0.7, "f1": "sin", "f2": "cos"}),
    ("helical", {"mu": 0.75, "g": "sin", "h_fn": "zero"}),
    ("exponential", {"r": 2.0, "s": 1.0}),
    ("quadrature", {"cu": 1.0, "cv": 1.0}),
])
def test_cmd_solve_families(tmp_path, family, params):
    code, rep = run(JobConfig("solve", {"family": family, "h": 0.01, **params},
                              tmp_path))
    assert code == 0
    assert rep["residual_alpha"] < 1e-3
    assert rep["residual_beta"] < 1e-3
    assert (tmp_path / "solution.csv").exists()


def test_cmd_solve_geometric_and_numeric(tmp_path):
    profile = json.dumps({"T": 2.0, "k0": 0.5, "cos": [0.3], "sin": []})
    code, rep = run(JobConfig("solve",
                              {"family": "geometric", "profile": profile,
                               "u_range": (0.0, 2.0), "h": 0.01}, tmp_path))
    assert code == 0 and rep["residual_alpha"] < 1e-4
    code2, rep2 = run(JobConfig("solve",
                                {"family": "numeric", "profile": profile,
                                 "u_range": (0.0, 2.0),
                                 "v_range": (0.0, 0.2), "h": 0.01}, tmp_path))
    assert code2 == 0
    assert rep2["residual_alpha"] < 0.1  # first-order marcher, best effort


@pytest.mark.parametrize("family,n", [("geometric", 1), ("numeric", 1),
                                      ("stretched", 2)])
def test_cmd_solve_honours_range_starts(tmp_path, family, n):
    # the Hopf surface's lift starts at 1 at u_range[0]: the CSV's u column
    # runs over u_range, its v column starts at v_range[0], and alpha at
    # v0 is <1, a(n u) e^{i n v0}> for the lift a of k(u/n) from n u0; only
    # the stretched family takes n
    k = CurvatureProfile(2.0, 0.5, (0.3,))
    stretch = {"n": n} if family == "stretched" else {}
    code, rep = run(JobConfig("solve",
                              {"family": family, "profile": k.to_json(),
                               "u_range": (1.0, 2.0), "v_range": (0.5, 1.0),
                               "h": 0.01, **stretch}, tmp_path))
    assert code == 0
    data = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1)
    assert data[0, 0] == 1.0 and data[-1, 0] == 2.0
    assert data[0, 1] == 0.5
    lift = asymptotic_lift(k.stretch(n), (n * 1.0, n * 2.0), 1e-3).samples
    a = lift[::10 * n]
    v0 = n * 0.5
    expect = a[:, 0] * math.cos(v0) - a[:, 1] * math.sin(v0)
    assert np.max(np.abs(data[data[:, 1] == 0.5, 2] - expect)) < 1e-12
    assert rep["residual_alpha"] < (0.1 if family == "numeric" else 1e-4)


def test_cmd_solve_numeric_peak_memory(tmp_path):
    # the benchmark's roundtrip solve, 801 x 401 nodes: its initial data is
    # column 0 of a two-column geometric solution
    tracemalloc.start()
    try:
        code, rep = run(JobConfig("solve", {
            "family": "numeric", "profile": '{"T":2,"k0":0.5,"cos":[0.3]}',
            "u_range": (0.0, 2.0), "v_range": (0.0, 1.0), "h": 0.0025},
            tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and rep["residual_alpha"] < 0.1
    assert peak <= 5 * 801 * 401 * 8


def test_cmd_build_cylinder_honours_window_start(tmp_path):
    # the CSV's u column runs over u_window, not over [0, its length]
    profile = json.dumps({"k0": 0.8, "terms": [[0.15, 2.0, 1.1]]})
    code, rep = run(JobConfig("build-cylinder",
                              {"profile": profile, "u_window": (1.0, 3.0),
                               "h": 0.05, "nv": 32, "csv": "cyl.csv"},
                              tmp_path))
    assert code == 0
    u = np.loadtxt(tmp_path / "cyl.csv", delimiter=",", skiprows=1, usecols=0)
    assert u[0] == 1.0 and u[-1] == 3.0


def test_cmd_holonomy(tmp_path):
    profile = json.dumps({"T": math.pi, "k0": 1.0, "cos": [], "sin": []})
    code, rep = run(JobConfig("holonomy", {"profile": profile, "n": 2}, tmp_path))
    assert code == 0
    assert abs(rep["theta_over_pi"]) < 1e-6
    assert rep["rational"] == [0, 1]
    assert rep["so3_deviation"] < 1e-8


def test_cmd_search_rational(tmp_path):
    code, rep = run(JobConfig("search-rational",
                              {"k0": 1.0, "T": math.pi, "target": "0/1",
                               "bracket": "0.0,0.05"}, tmp_path))
    assert code == 0
    assert abs(rep["parameter"]) < 1e-4
    assert rep["rational"] == [0, 1]


def test_error_reporting(tmp_path):
    code, rep = run(JobConfig("solve", {"family": "exponential", "r": 1.0,
                                        "s": 1.0}, tmp_path))
    assert code == 1
    assert rep["error"] == "EqualSpeeds"
    code2, rep2 = run(JobConfig("nonsense", {}, tmp_path))
    assert code2 == 2


def test_main_deterministic_reports(tmp_path):
    argv = ["--out-dir", str(tmp_path / "a"), "helix", "--r", "2.0",
            "--s-max", "1.0"]
    assert main(argv) == 0
    rep_a = (tmp_path / "a" / "report.json").read_bytes()
    argv2 = ["--out-dir", str(tmp_path / "b"), "helix", "--r", "2.0",
             "--s-max", "1.0"]
    assert main(argv2) == 0
    rep_b = (tmp_path / "b" / "report.json").read_bytes()
    # reports are identical apart from the embedded output paths
    ja = json.loads(rep_a)
    jb = json.loads(rep_b)
    ja.pop("csv"), jb.pop("csv")
    assert ja == jb


def test_main_config_file(tmp_path):
    cfg = {"command": "helix", "params": {"r": 2.0, "s_max": 1.0},
           "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["kappa"] == pytest.approx(1.5, abs=1e-5)


DATA = Path(__file__).resolve().parent / "data"


# the message of each OSError a bad output path gives, and its type
OS_ERRORS = {"No such file or directory": "FileNotFoundError",
             "Is a directory": "IsADirectoryError"}


def _main_report(tmp_path, *argv):
    code = main(["--out-dir", str(tmp_path), *argv])
    return code, json.loads((tmp_path / "report.json").read_text())


@pytest.mark.parametrize("argv,needle", [
    (["search-rational", "--k0", "1.0", "--target", "1/0",
      "--bracket", "0.0,0.05"], "zero denominator"),
    (["search-rational", "--k0", "1.0", "--target", "1/4",
      "--bracket", "0.05,0.0"], "lo < hi"),
    (["solve", "--family", "wave", "--h", "0"], "step size h"),
    (["helix", "--r", "2.0", "--h", "-1"], "step size h"),
    (["build-cylinder", "--profile", '{"k0": 0.8, "terms": [[0.1, 2.0]]}'],
     "[amplitude, frequency, phase]"),
    (["solve", "--family", "wave", "--h", "5"], "no larger than the spans"),
    (["build-torus", "--k0", "1.21321612108222", "--target", "1/4",
      "--bracket", "0.9,1.2", "--nodes-per-period", "0"],
     "node count nodes_per_period"),
    (["build-torus", "--k0", "1.21321612108222", "--target", "1/4",
      "--bracket", "0.9,1.2", "--nv", "0"], "node count nv"),
    (["build-cylinder", "--profile", '{"k0": 0.8, "terms": [[0.1, 2.0, 0.0]]}',
      "--nv", "0"], "node count nv"),
    (["hopf-torus", "--profile", '{"k0": 0.8, "terms": [[0.1, 2.0, 0.0]]}'],
     '{"T", "k0", "cos"/"sin"}'),
    (["holonomy", "--profile", '{"k0": 0.8, "terms": [[0.1, 2.0, 0.0]]}'],
     '{"T", "k0", "cos"/"sin"}'),
    (["clifford", "--h", "3"], "has no interior"),
    (["solve", "--family", "wave", "--h", "0.3"], "has no interior"),
    (["solve", "--family", "quadrature", "--h", "1"], "has no interior"),
    (["build-cylinder", "--profile", '{"k0": 0.8, "terms": [[0.1, 2.0, 0.0]]}',
      "--h", "4", "--nv", "4"], "has no interior"),
    (["build-cylinder", "--profile", '{"k0": 0.8, "terms": [[0.1, 2.0, 0.0]]}',
      "--obj", "c.obj", "--drop-index", "7"], "drop_index must be 0, 1, 2 or 3"),
    (["build-cylinder", "--profile", '{"k0":0.8,"terms":[["a",1,2]]}'],
     "[amplitude, frequency, phase]"),
    (["verify", "--input", str(DATA / "header_only.csv")],
     "header_only.csv: a flat-map CSV needs rows of the 11 columns "
     "u,v,F1,F2,F3,F4,Fh1,Fh2,Fh3,Fh4,omega; found no rows"),
    (["verify", "--input", str(DATA / "solve.csv")],
     "solve.csv: a flat-map CSV needs rows of the 11 columns "
     "u,v,F1,F2,F3,F4,Fh1,Fh2,Fh3,Fh4,omega; found 4 rows of 4 columns"),
    (["build-torus", "--k0", "1.21321612108222", "--T", "3.141592653589793",
      "--n", "2", "--target", "1/4", "--bracket", "0.9,1.2",
      "--nodes-per-period", "2", "--nv", "4"],
     "a grid of 33 x 5 nodes is too small for the curvature; the Brioschi "
     "stencils need at least 9 nodes per direction"),
    (["build-cylinder", "--profile", '{"k0":0.8,"terms":[[0.15,2.0,0.0]]}',
      "--h", "0.5", "--nv", "6"],
     "a grid of 26 x 7 nodes is too small for the curvature"),
    # output paths that cannot be written: in a missing directory, or the
    # output directory itself
    (["build-cylinder", "--profile", '{"k0":0.8,"terms":[[0.15,2.0,0.0]]}',
      "--h", "0.1", "--nv", "32", "--csv", "missing/c.csv"],
     "No such file or directory"),
    (["build-cylinder", "--profile", '{"k0":0.8,"terms":[[0.15,2.0,0.0]]}',
      "--h", "0.1", "--nv", "32", "--csv", "."], "Is a directory"),
    (["hopf-torus", "--profile", '{"T":2,"k0":0.5,"cos":[0.3]}',
      "--csv", "missing/h.csv"], "No such file or directory"),
    (["hopf-torus", "--profile", '{"T":2,"k0":0.5,"cos":[0.3]}',
      "--csv", "."], "Is a directory"),
    # a step longer than the period it integrates
    (["holonomy", "--profile", '{"T":2,"k0":0.5,"cos":[0.3]}', "--h", "5"],
     "step h = 5 must be in (0, 2]"),
])
def test_bad_input_gives_error_report(tmp_path, capsys, argv, needle):
    code, rep = _main_report(tmp_path, *argv)
    assert code == 1
    assert rep["error"] == OS_ERRORS.get(needle, "ValueError")
    assert needle in rep["message"]
    assert rep["command"] == argv[0]
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    # no child process or half-file is left
    assert not list(tmp_path.rglob("*.part"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv,needle", [
    (["search-rational", "--k0", "1.2", "--T", "inf", "--target", "1/4",
      "--bracket", "0.9,1.2"], "T must be a number, got inf"),
    (["build-cylinder", "--profile", '{"k0": 0.8, "terms": [[0.1, 2.0, 0.0]]}',
      "--u-window", "[0, Infinity]"], "u_window must hold 2 numbers, all finite"),
    (["solve", "--family", "wave", "--u-range", "[0, Infinity]"],
     "u_range must hold 2 numbers, all finite"),
    (["build-torus", "--k0", "1.21321612108222", "--target", "1/4",
      "--bracket", "0.9,1.2", "--lam", "nan"], "lam must be a number, got nan"),
    (["hopf-torus", "--profile", '{"T": Infinity, "k0": 1}'],
     "of finite numbers"),
    (["hopf-torus", "--profile", '{"T": 2, "k0": 1, "cos": [Infinity]}'],
     "of finite numbers"),
    (["search-rational", "--k0", "1.2", "--target", "1/4",
      "--bracket", "0.9,inf"], "must be finite lo,hi"),
])
def test_non_finite_input_is_refused(tmp_path, capfd, argv, needle):
    # inf and nan fail the parameter checks: no OverflowError, no warning
    code, rep = _main_report(tmp_path, *argv)
    assert code == 1
    assert rep["error"] == "ValueError"
    assert needle in rep["message"]
    assert capfd.readouterr().err == ""


def test_integer_beyond_the_largest_float_is_refused(tmp_path, capfd):
    # JSON reads 10**400 as an int; float() of it would raise OverflowError
    cfg = tmp_path / "job.json"
    cfg.write_text('{"command": "helix", "params": {"r": 1%s}}' % ("0" * 400))
    code, rep = _main_report(tmp_path, "--config", str(cfg))
    assert (code, rep["error"]) == (1, "ValueError")
    assert rep["message"].startswith("r must be a number, got 1000")
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("argv,key", [
    (["solve", "--family", "geometric", "--h", "0.02"], "profile"),
    (["build-cylinder", "--n", "3", "--lam", "0.02", "--h", "0.05", "--nv", "64"],
     "profile"),
    (["build-torus", "--k0", "1.21321612108222", "--target", "1/4"], "bracket"),
    (["search-rational", "--k0", "1.0", "--bracket", "0.9,1.2"], "target"),
    (["hopf-torus", "--h", "0.05"], "profile"),
    (["holonomy", "--n", "2"], "profile"),
    (["helix", "--h", "0.01"], "r"),
    (["verify"], "input"),
    (["solve", "--h", "0.02"], "family"),
])
def test_missing_required_key_names_command_and_key(tmp_path, capsys, argv,
                                                    key):
    code, rep = _main_report(tmp_path, *argv)
    assert code == 1
    assert rep["error"] == "ValueError"
    assert rep["message"] == f"{argv[0]} needs the parameter {key!r}"
    assert rep["command"] == argv[0]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["holonomy", "build-cylinder"])
@pytest.mark.parametrize("profile", ["[1,2]", "3", '{"T":"x"}',
                                     '{"k0":0.5,"terms":5}', '{"k0":1}'])
def test_profile_of_wrong_shape_names_both_forms(tmp_path, capsys, command,
                                                 profile):
    code, rep = _main_report(tmp_path, command, "--profile", profile)
    assert code == 1
    assert rep["error"] == "ValueError"
    assert '{"T", "k0", "cos", "sin"}' in rep["message"]
    assert '{"k0", "terms"}' in rep["message"]
    assert "Traceback" not in capsys.readouterr().err


QUASI = '{"k0": 0.8, "terms": [[0.1, 2.0, 0.0]]}'
WAVY = '{"T": 3.141592653589793, "k0": 1.2, "cos": [0.1]}'


@pytest.mark.parametrize("blob,needle", [
    ({"command": "build-cylinder", "params": {"profile": QUASI, "u_window": [1]}},
     "u_window must hold 2 numbers"),
    ({"command": "build-cylinder", "params": {"profile": QUASI, "u_window": "ab"}},
     "u_window must hold 2 numbers"),
    ({"command": "solve", "params": {"family": "wave", "u_range": [0]}},
     "u_range must hold 2 numbers"),
    ({"command": "solve", "params": {"family": "wave", "v_range": [0, 1, 2]}},
     "v_range must hold 2 numbers"),
    ({"command": "solve", "params": {"family": "geometric", "profile": WAVY,
                                     "a": [1, 2]}}, "a must hold 4 numbers"),
    ({"command": "solve", "params": {"family": "quadrature", "y0": [1, None]}},
     "y0 must hold 2 numbers"),
    ({"command": "build-cylinder", "params": {"profile": QUASI, "obj": "c.obj",
                                              "drop_index": 1.0}},
     "drop_index must be 0, 1, 2 or 3"),
    ([1, 2], "config must be an object"),
    ({"command": "build-cylinder", "params": {"profile": QUASI, "h": "0.1"}},
     "step size h"),
    ({"command": "build-cylinder", "params": {"profile": QUASI, "nv": 64.5}},
     "node count nv"),
    ({"command": "build-cylinder", "params": {"profile": QUASI, "nv": True,
                                              "h": 0.1}}, "node count nv"),
    ({"command": "helix", "params": {"r": "2"}}, "r must be a number, got '2'"),
    ({"command": "build-cylinder", "params": {"profile": QUASI, "obj": "c.obj",
                                              "u_windw": [1, 3]}},
     "build-cylinder has no parameter 'u_windw'; it takes csv, drop_index, h, "
     "lam, n, nv, obj, profile, u_window"),
    ({"command": "build-cylinder", "params": {"profile": QUASI, "n": 2.5}},
     "n must be a positive integer, got 2.5"),
    ({"command": "build-cylinder", "params": {"profile": QUASI, "h": 0.1,
                                              "nv": 8, "csv": True}},
     "csv must be a string, got True"),
    ({"command": "build-cylinder", "params": {"profile": {"k0": 0.8,
                                                          "terms": []}}},
     "profile must be a string"),
])
def test_config_of_wrong_shape_gives_error_report(tmp_path, capsys, blob,
                                                  needle):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(blob))
    code, rep = _main_report(tmp_path, "--config", str(cfg_path))
    assert code == 1
    assert rep["error"] == "ValueError"
    assert needle in rep["message"]
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "c.obj").exists()


NO_SCIPY_SCRIPT = """
import sys
from flatsurf4.cli import main
release = ["--k0", "1.21321612108222", "--target", "1/4", "--bracket", "0.9,1.2"]
main(["--out-dir", sys.argv[1], "search-rational", *release])
main(["--out-dir", sys.argv[2], "build-torus", *release,
      "--nodes-per-period", "24", "--nv", "32"])
main(["--out-dir", sys.argv[3], "solve", "--family", "quadrature"])
main(["--out-dir", sys.argv[4], "flatmap-verify", "--kind", "helix-product",
      "--r", "2"])
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_cli_jobs_load_no_scipy(tmp_path):
    # every CLI job is its own process, and importing scipy takes longer
    # than a whole search; the package needs only numpy, so no job loads it
    src = Path(flatsurf4.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    outs = [tmp_path / "search", tmp_path / "torus", tmp_path / "quadrature",
            tmp_path / "helix-product"]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, *map(str, outs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for out in outs:
        assert "error" not in json.loads((out / "report.json").read_text())


def test_unexpected_exception_still_reports(tmp_path, capsys, monkeypatch):
    # a fault in a command's code, not in its input
    def divide(cfg):
        return 1 / 0
    monkeypatch.setitem(cli.COMMANDS, "helix", (divide, cli.COMMANDS["helix"][1]))
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"command": "helix", "params": {"r": 2.0},
                                    "out_dir": str(tmp_path)}))
    assert main(["--config", str(cfg_path)]) == 1
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["error"] == "ZeroDivisionError"
    assert rep["command"] == "helix" and rep["message"]
    assert "Traceback" in capsys.readouterr().err


def test_null_value_counts_as_absent_key(tmp_path):
    profile = json.dumps({"T": math.pi, "k0": 1.0, "cos": [], "sin": []})
    reports = []
    for name, params in [("null", {"profile": profile, "h": None}),
                         ("absent", {"profile": profile})]:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"command": "holonomy", "params": params}))
        assert _main_report(tmp_path / name, "--config", str(cfg_path))[0] == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv,name,lines", [
    # h = 0.02 for clifford: 315 x 315 nodes, a v line each, 2 f lines a cell
    (["--kind", "clifford", "--obj", "c.obj"], "c.obj", 315 ** 2 + 2 * 314 ** 2),
    # h = 0.01 for hopf: 201 x 629 nodes and a header
    (["--kind", "hopf", "--profile", '{"T": 2.0, "k0": 0.5, "cos": [0.3]}',
      "--csv", "x.csv"], "x.csv", 201 * 629 + 1),
])
def test_flatmap_verify_takes_the_flags_of_its_kind(tmp_path, argv, name,
                                                    lines):
    code, rep = _main_report(tmp_path, "flatmap-verify", *argv)
    assert code == 0
    assert rep[name.split(".")[1]] == str(tmp_path / name)
    assert len((tmp_path / name).read_text().splitlines()) == lines


@pytest.mark.parametrize("argv,key,takes", [
    (["--family", "wave", "--profile", '{"T":2,"k0":0.5,"cos":[0.3]}'],
     "profile", "f1, f2, omega0"),
    (["--family", "numeric", "--profile", WAVY, "--rho", "0.5"], "rho",
     "a, profile"),
    (["--family", "geometric", "--profile", WAVY, "--n", "2"], "n",
     "a, profile, rho"),
    (["--family", "exponential", "--cu", "1"], "cu", "r, s"),
])
def test_solve_takes_the_keys_of_its_family(tmp_path, capsys, argv, key, takes):
    code, rep = _main_report(tmp_path, "solve", "--h", "0.02", *argv)
    assert code == 1
    assert rep["error"] == "ValueError"
    common = ["csv", "family", "h", "hv", "u_range", "v_range"]
    assert rep["message"] == (f"solve has no parameter {key!r}; it takes "
                              + ", ".join(sorted(common + takes.split(", "))))
    assert not (tmp_path / "solution.csv").exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("content,error", [
    (None, "FileNotFoundError"),
    ("{not json", "JSONDecodeError"),
    ('{"params": {}}', "KeyError"),
    ('{"command": "helix", "params": []}', "ValueError"),
    ('["helix"]', "ValueError"),
])
def test_bad_config_file_gives_error_report(tmp_path, content, error):
    cfg_path = tmp_path / "job.json"
    if content is not None:
        cfg_path.write_text(content)
    code = main(["--out-dir", str(tmp_path), "--config", str(cfg_path)])
    assert code == 1
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["error"] == error


def test_error_report_carries_scan(tmp_path):
    code, rep = _main_report(tmp_path, "search-rational", "--k0", "1.0",
                             "--target", "1/4", "--bracket", "0.0,0.01")
    assert code == 1
    assert rep["error"] == "NoSignChange"
    assert len(rep["scan"]) >= 10
    assert all(len(pt) == 2 and abs(pt[1]) < 0.25 for pt in rep["scan"])


def test_error_report_names_an_irrational_lift(tmp_path):
    # the 1/5 root of the search closes the stretched lift, but the base
    # lift's theta/pi is not rational: no number of periods closes it
    code, rep = _main_report(tmp_path, "build-torus", "--k0", "1.21321612108222",
                             "--target", "1/5", "--bracket", "0.8,1.05",
                             "--h", "0.002")
    assert code == 1
    assert rep["error"] == "ClosureFailure"
    assert rep["message"].startswith(
        "lift holonomy theta/pi = -0.43733759 is not rational")
    assert "nearest p/q with q <= 64 is -7/16" in rep["message"]
    assert rep["best_residual"] == pytest.approx(1.624e-4, abs=1e-7)


TWO_CORE_JOBS = {
    "torus": ["build-torus", "--k0", "1.21321612108222", "--target", "1/4",
              "--bracket", "0.9,1.2", "--nodes-per-period", "32", "--nv", "64",
              "--csv", "t.csv", "--obj", "t.obj"],
    "cylinder": ["build-cylinder", "--profile",
                 '{"k0":0.8,"terms":[[0.15,2.0,0.3],[0.1,2.8284271247461903,1.0]]}',
                 "--h", "0.04", "--nv", "64", "--csv", "c.csv", "--obj", "c.obj"],
}


@pytest.mark.parametrize("job", TWO_CORE_JOBS)
def test_build_outputs_same_on_one_and_two_cpus(tmp_path, job):
    # on two CPUs the build's checks run in forked children and the files
    # are written in two halves; every byte is that of one CPU
    out, files = tmp_path / "out", {}
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as m:
            forks = _allow_cpus(m, cpus)
            assert main(["--out-dir", str(out), *TWO_CORE_JOBS[job]]) == 0
        files[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        # two forks in the build, one for each file of more than one block
        assert len(forks) == (cpus - 1) * 4, forks
    assert sorted(files[1]) == sorted(["report.json", *(
        a for a in TWO_CORE_JOBS[job] if a.endswith((".csv", ".obj")))])
    assert "error" not in json.loads(files[1]["report.json"])
    assert files[1] == files[2]


@pytest.mark.parametrize("job", TWO_CORE_JOBS)
def test_build_forms_coefficients_a_tile_or_block_at_a_time(tmp_path,
                                                            monkeypatch, job):
    # an immersion keeps only f: its checks, the derived system residual and
    # the CSV writer each ask its coefficient source for one row tile or one
    # block at a time, widened by at most the curvature halo, never for the
    # whole grid (one CPU: every reader runs here)
    _allow_cpus(monkeypatch, 1)
    asked, alpha_beta = [], immersion.Coefficients.alpha_beta

    def recorded(self, rows):
        lo, hi, _ = rows.indices(self.spec.nu)
        asked.append((hi - lo, self.spec.nu))
        return alpha_beta(self, rows)

    monkeypatch.setattr(immersion.Coefficients, "alpha_beta", recorded)
    assert main(["--out-dir", str(tmp_path), *TWO_CORE_JOBS[job]]) == 0
    sizes, grids = zip(*asked)
    nu, = set(grids)
    assert max(sizes) <= fd.TILE_ROWS + 2 * immersion.K_TRIM < nu
    # at least four walks over the tiles: metric_checks, tangency_check,
    # system_residual and the CSV
    assert len(sizes) >= 4 * math.ceil(nu / fd.TILE_ROWS)


@pytest.mark.parametrize("shape", [(629, 257), (80, 61), (2, 2), (1, 3)])
def test_obj_halves_cost_the_same(tmp_path, monkeypatch, shape):
    # a node's line costs OBJ_NODE_COST times a cell's two, so the first
    # half holds fewer items than the second; the file is the same
    halves = []

    def record(path, header, n, block, part):
        for lo, hi in ((0, n // 2), (n // 2, n)):
            buf = io.StringIO()
            part(buf, lo, hi)
            lines = buf.getvalue().splitlines()
            halves.append((sum(ln[0] == "v" for ln in lines),
                           sum(ln[0] == "f" for ln in lines) // 2))
        with open(path, "w") as fh:
            fh.write(header)
            part(fh, 0, n)

    monkeypatch.setattr(cli, "_write_halves", record)
    pts = np.random.default_rng(3).standard_normal(shape + (4,))
    export_obj(pts, tmp_path / "m.obj", projection="drop", drop_index=3)
    (v1, c1), (v2, c2) = halves
    nu, nv = shape
    assert (v1 + v2, c1 + c2) == (nu * nv, (nu - 1) * (nv - 1))
    assert v1 <= nu * nv and c1 == 0
    cost = lambda v, c: cli.OBJ_NODE_COST * v + c
    assert abs(cost(v1, c1) - cost(v2, c2)) <= cli.OBJ_NODE_COST
    assert (tmp_path / "m.obj").read_text().splitlines()[:nu * nv] == [
        "v %.9g %.9g %.9g" % tuple(p) for p in pts[..., :3].reshape(-1, 3)]
