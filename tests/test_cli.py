import json
import math

import numpy as np
import pytest

from flatsurf4.cli import (JobConfig, export_obj, main, revolution_radii, run,
                           _stereographic)
from flatsurf4.errors import NotOnSphere, PoleOnSurface


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
    assert rep2["flatmap_max"] < 1e-3  # finite differences on the reloaded grid


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
])
def test_bad_input_gives_error_report(tmp_path, argv, needle):
    code, rep = _main_report(tmp_path, *argv)
    assert code == 1
    assert rep["error"] == "ValueError"
    assert needle in rep["message"]
    assert rep["command"] == argv[0]


def test_unexpected_exception_still_reports(tmp_path):
    # a parameter of the wrong type fails inside the command, not in a check
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"command": "helix", "params": {"r": "2"},
                                    "out_dir": str(tmp_path)}))
    assert main(["--config", str(cfg_path)]) == 1
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["error"] == "TypeError"
    assert rep["command"] == "helix" and rep["message"]


@pytest.mark.parametrize("content,error", [
    (None, "FileNotFoundError"),
    ("{not json", "JSONDecodeError"),
    ('{"params": {}}', "KeyError"),
    ('{"command": "helix", "params": []}', "ValueError"),
    ('["helix"]', "TypeError"),
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
