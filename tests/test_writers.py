"""Bytes of every CSV and OBJ file against row-by-row formatting.

The reference functions below format one row at a time, as the package
did before its writers formatted rows in blocks; the files must match
them byte for byte, across block boundaries and for NaN, -0.0, tiny and
whole-number values, whatever the grid's shape and nodes.  A written flat
map reads back bit for bit.  Each file is the same whether it is written
by one process or in two halves, the second by a forked child, and no
child or half-file is left behind when either half fails.  The reader
takes the u-major rows as written and refuses rows in any other order.
"""

import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

import flatsurf4.cli as cli
import flatsurf4.flatmap as flatmap
from flatsurf4.cli import NAMED_FUNCTIONS, JobConfig, export_obj, run
from flatsurf4.curve import helix, parse_profile
from flatsurf4.flatmap import (BLOCK_ROWS, FLATMAP_HEADER, FlatMapGrid,
                               GridSpec, SampledMaps, hopf_flat_map,
                               read_flatmap_csv, write_flatmap_csv,
                               _write_grid_csv, _write_halves)
from flatsurf4.hypsys import SolutionGrid, wave_solution
from flatsurf4.immersion import (IMMERSION_HEADER, ImmersionGrid,
                                 brioschi_curvature, write_immersion_csv)

SPECIAL = (np.nan, -0.0, 1e-300, 3.0, -2.0, 0.0, 1.0 / 3.0, 1e300, np.inf)
NV = 7
# one block and a few rows more
SPEC = GridSpec(-1.0, 2.0, 0.5, 0.25, BLOCK_ROWS // NV + 3, NV)


def _csv(header, rows):
    out = header + "\n"
    for row in rows:
        out += ",".join(f"{x:.17g}" for x in row) + "\n"
    return out.encode()


def _grid_rows(spec, *fields):
    u, v = spec.u_nodes, spec.v_nodes
    for i in range(spec.nu):
        for j in range(spec.nv):
            row = [u[i], v[j]]
            for f in fields:
                row.extend(np.atleast_1d(f[i, j]))
            yield row


def _obj(xyz):
    nu, nv = xyz.shape[:2]
    out = ""
    for i in range(nu):
        for j in range(nv):
            out += "v %.9g %.9g %.9g\n" % tuple(xyz[i, j])
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            c = (i + 1) * nv + j + 2
            d = i * nv + j + 2
            out += f"f {a} {b} {c}\n"
            out += f"f {a} {c} {d}\n"
    return out.encode()


def _field(shape, seed):
    a = np.random.default_rng(seed).standard_normal(shape)
    flat = a.reshape(-1)
    flat[::97] = np.resize(SPECIAL, flat[::97].shape)
    return a


def test_flatmap_csv_bytes(tmp_path):
    shape = (SPEC.nu, SPEC.nv)
    F, Fhat = _field(shape + (4,), 1), _field(shape + (4,), 2)
    g = FlatMapGrid(SPEC, SampledMaps(F, Fhat), _field(shape, 3))
    write_flatmap_csv(g, tmp_path / "g.csv")
    expect = _csv(FLATMAP_HEADER, _grid_rows(SPEC, F, Fhat, g.omega_grid))
    assert (tmp_path / "g.csv").read_bytes() == expect


@pytest.mark.parametrize("spec", [
    # more v nodes than BLOCK_ROWS: each block holds one u row
    GridSpec(0.0, -1.0, 0.5, 1e-3, 3, BLOCK_ROWS + 5),
    # an nv that does not divide BLOCK_ROWS, over three blocks
    GridSpec(0.0, 0.0, 0.25, 0.5, 2 * (BLOCK_ROWS // 13) + 5, 13),
    # one u row
    GridSpec(2.0, 0.0, 1.0, 0.1, 1, 50),
    # negative u0, steps without a finite decimal expansion
    GridSpec(-1.3, -0.7, 1.0 / 3.0, 2.0 / 7.0, 40, 11),
], ids=["nv_above_block", "nv_not_dividing", "one_u_row", "negative_u0"])
def test_grid_csv_bytes_for_any_shape(tmp_path, spec):
    shape = (spec.nu, spec.nv)
    F, Fhat = _field(shape + (4,), 11), _field(shape + (4,), 12)
    # the Hopf angle is a broadcast view of its u column
    omega = np.broadcast_to(_field((spec.nu, 1), 13), shape)
    write_flatmap_csv(FlatMapGrid(spec, SampledMaps(F, Fhat), omega),
                      tmp_path / "g.csv")
    assert (tmp_path / "g.csv").read_bytes() == _csv(
        FLATMAP_HEADER, _grid_rows(spec, F, Fhat, omega))
    a, b = _field(shape, 14), _field(shape, 15)
    _write_grid_csv(tmp_path / "s.csv", "u,v,alpha,beta", spec,
                    lambda rows: (a[rows], b[rows]))
    assert (tmp_path / "s.csv").read_bytes() == _csv(
        "u,v,alpha,beta", _grid_rows(spec, a, b))


def test_hopf_csv_reads_back_bit_for_bit(tmp_path):
    # the benchmark's roundtrip map: 401 x 315 nodes
    k = parse_profile('{"T":2,"k0":0.5,"cos":[0.3]}')
    g = hopf_flat_map(k, 2 * k.base_period, h=0.01, hv=0.02)
    write_flatmap_csv(g, tmp_path / "hopf.csv")
    g2 = read_flatmap_csv(tmp_path / "hopf.csv")
    assert (g2.spec.nu, g2.spec.nv) == (401, 315)
    assert g2.spec == g.spec
    for got, want in zip(g2.maps(slice(None)), g.maps(slice(None))):
        assert np.array_equal(got, want)
    assert np.array_equal(g2.omega_grid, g.omega_grid)


SPEC_6x5 = GridSpec(-1.25, -0.5, 0.25, 0.125, 6, 5)


def _write_sampled(path, spec):
    # the reader refuses a value that is not finite: the specials keep
    # their finite members (-0.0, 1e-300, 1e300, ...) and NaN and inf
    # become 0.5
    shape = (spec.nu, spec.nv)
    F, Fhat, omega = (np.nan_to_num(x, nan=0.5, posinf=0.5, neginf=0.5)
                      for x in (_field(shape + (4,), 21),
                                _field(shape + (4,), 22), _field(shape, 23)))
    g = FlatMapGrid(spec, SampledMaps(F, Fhat), omega)
    write_flatmap_csv(g, path)
    return g


def _reorder(path, how):
    """path, a file of SPEC_6x5, with its rows shuffled, cut inside the last
    u row, or written v-major (u varying fastest)."""
    header, *rows = path.read_text().splitlines(keepends=True)
    if how == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
    elif how == "truncated":
        rows = rows[:-1]
    else:
        nu, nv = SPEC_6x5.nu, SPEC_6x5.nv
        rows = [rows[i * nv + j] for j in range(nv) for i in range(nu)]
    bad = path.with_name(f"{how}.csv")
    bad.write_text(header + "".join(rows))
    return bad


@pytest.mark.parametrize("how", ["shuffled", "truncated", "v_major"])
def test_reader_refuses_rows_out_of_u_major_order(tmp_path, how):
    _write_sampled(tmp_path / "g.csv", SPEC_6x5)
    bad = _reorder(tmp_path / "g.csv", how)
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: .* not the u-major nodes"):
        read_flatmap_csv(bad)
    # verify turns it into a JSON error report
    code = cli.main(["--out-dir", str(tmp_path / "out"), "verify",
                     "--input", str(bad)])
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert code == 1
    assert rep["error"] == "ValueError" and str(bad) in rep["message"]


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_reader_refuses_a_value_that_is_not_finite(tmp_path, token):
    # one F value of a grid row becomes token; verify reports the line
    _write_sampled(tmp_path / "g.csv", SPEC_6x5)
    lines = (tmp_path / "g.csv").read_text().splitlines(keepends=True)
    cells = lines[13].split(",")
    cells[3] = token
    lines[13] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 14 "
                       "holds a value that is not finite"):
        read_flatmap_csv(bad)
    code = cli.main(["--out-dir", str(tmp_path / "out"), "verify",
                     "--input", str(bad)])
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert code == 1
    assert rep["error"] == "ValueError" and "line 14" in rep["message"]


@pytest.mark.parametrize("nu,nv", [(1, 1), (1, 6), (6, 1)])
def test_reader_single_node_axes(tmp_path, nu, nv):
    # an axis of one node reads back with step 1.0
    spec = GridSpec(2.0, -0.5, 0.25, 0.125, nu, nv)
    g = _write_sampled(tmp_path / "g.csv", spec)
    g2 = read_flatmap_csv(tmp_path / "g.csv")
    assert g2.spec == GridSpec(2.0, -0.5, 0.25 if nu > 1 else 1.0,
                               0.125 if nv > 1 else 1.0, nu, nv)
    for got, want in zip(g2.maps(slice(None)), g.maps(slice(None))):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(g2.omega_grid, g.omega_grid, equal_nan=True)


def test_reader_holds_little_beside_its_table(tmp_path):
    # F, Fhat and omega are views of the parsed table
    k = parse_profile('{"T":2,"k0":0.5,"cos":[0.3]}')
    g = hopf_flat_map(k, 2 * k.base_period, h=0.02, hv=0.04)
    write_flatmap_csv(g, tmp_path / "hopf.csv")
    tracemalloc.start()
    try:
        g2 = read_flatmap_csv(tmp_path / "hopf.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = g2.spec.nu * g2.spec.nv * len(FLATMAP_HEADER.split(",")) * 8
    assert (g2.spec.nu, g2.spec.nv) == (201, 158)
    assert peak - table <= 0.5 * table


@pytest.mark.parametrize("with_curvature", [True, False])
def test_immersion_csv_bytes(tmp_path, with_curvature):
    # margin and K are formed from A, B and w as the file is written; K is
    # the Brioschi curvature of the metric, NaN near the boundary and on a
    # grid too small for its stencils (SPEC has 7 v nodes, K needs 9)
    spec = (GridSpec(-1.0, 2.0, 0.5, 0.25, BLOCK_ROWS // 11 + 3, 11)
            if with_curvature else SPEC)
    K = _check_immersion_csv(tmp_path / "im.csv", spec, 4)
    assert np.isfinite(K).any() == with_curvature


def _check_immersion_csv(path, spec, seed):
    """Write an immersion of random fields to path and check its bytes;
    returns the K column."""
    shape = (spec.nu, spec.nv)
    A, B, w = (_field(shape, s) for s in (seed, seed + 1, seed + 2))
    with np.errstate(all="ignore"):  # the special values overflow
        cw, sw = np.cos(w), np.sin(w)
        im = ImmersionGrid(spec, _field(shape + (4,), seed + 4),
                           SolutionGrid(spec, A, B), cw, sw)
        write_immersion_csv(im, path)
        E = A * A + B * B
        Fm = (A * A - B * B) * cw + 2.0 * A * B * sw
        margin = (A * A - B * B) * sw - 2.0 * A * B * cw
        K = brioschi_curvature(E, Fm, spec.hu, spec.hv)
    expect = _csv(IMMERSION_HEADER,
                  _grid_rows(spec, im.f, A, B, margin, K))
    assert path.read_bytes() == expect
    return K


def test_solve_csv_bytes(tmp_path):
    code, rep = run(JobConfig("solve", {"family": "wave", "omega0": 0.4,
                                        "h": 0.01, "csv": "s.csv"}, tmp_path))
    assert code == 0
    spec = GridSpec.from_ranges((0.0, 1.0), (0.0, 1.0), 0.01)
    assert spec.nu * spec.nv > BLOCK_ROWS
    sol = wave_solution(0.4, NAMED_FUNCTIONS["sin"], NAMED_FUNCTIONS["cos"],
                        spec)
    expect = _csv("u,v,alpha,beta", _grid_rows(spec, sol.alpha, sol.beta))
    assert (tmp_path / "s.csv").read_bytes() == expect


def test_helix_csv_bytes(tmp_path):
    params = {"r": 2.0, "s_max": 2.0, "h": 4e-4}
    code, rep = run(JobConfig("helix", params, tmp_path))
    assert code == 0
    c = helix(2.0, 1, (0.0, 2.0), 4e-4)
    assert c.n > BLOCK_ROWS
    expect = _csv("s,x1,x2,x3,x4",
                  ([s, *q] for s, q in zip(c.u_grid, c.samples)))
    assert (tmp_path / "helix.csv").read_bytes() == expect


@pytest.mark.parametrize("shape", [(3, 4), (80, 60)])
def test_obj_bytes(tmp_path, shape):
    pts = _field(shape + (4,), 10)
    project = export_obj(pts, tmp_path / "m.obj", projection="drop",
                         drop_index=1)
    xyz = np.delete(pts, 1, axis=-1)
    assert np.array_equal(project(pts), xyz, equal_nan=True)
    assert (tmp_path / "m.obj").read_bytes() == _obj(xyz)


def test_obj_export_holds_no_projected_grid(tmp_path, monkeypatch):
    # each block of nodes is projected inside the part that writes it, so
    # export_obj's own peak stays below one (nu, nv) array; small blocks
    # keep the cost of formatting one block small beside the grid
    _allow_cpus(monkeypatch, 1)
    monkeypatch.setattr(flatmap, "BLOCK_ROWS", 256)
    monkeypatch.setattr(cli, "BLOCK_ROWS", 256)
    pts = _field((160, 150, 4), 30)
    tracemalloc.start()
    try:
        export_obj(pts, tmp_path / "m.obj", projection="drop", drop_index=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 150 * 8, peak / (160 * 150 * 8)
    assert (tmp_path / "m.obj").read_bytes() == _obj(np.delete(pts, 1, axis=-1))


# ---------------------------------------------------------------------------
# the same bytes in two halves


def _allow_cpus(monkeypatch, n):
    """Allow n CPUs; returns the list of the forks made from now on."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _nothing_left(directory):
    """Every child is reaped and no half-file is left in directory."""
    assert not list(directory.glob("*.part"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def cpus(request, monkeypatch, tmp_path):
    """(allowed CPUs, forks made); checks that nothing is left after."""
    yield request.param, _allow_cpus(monkeypatch, request.param)
    _nothing_left(tmp_path)


@pytest.mark.parametrize("nu", [
    # a whole number of blocks plus an odd count of u rows
    2 * (BLOCK_ROWS // NV) + 3,
    # exactly one block: written in one process
    BLOCK_ROWS // NV,
    # one block and one u row
    BLOCK_ROWS // NV + 1,
], ids=["odd_rows", "one_block", "one_block_and_a_row"])
def test_split_grid_csv_same_bytes(tmp_path, cpus, nu):
    n_cpus, forks = cpus
    spec = GridSpec(-1.0, 2.0, 0.5, 0.25, nu, NV)
    shape = (nu, NV)
    F, Fhat = _field(shape + (4,), 21), _field(shape + (4,), 22)
    g = FlatMapGrid(spec, SampledMaps(F, Fhat), _field(shape, 23))
    write_flatmap_csv(g, tmp_path / "g.csv")
    assert (tmp_path / "g.csv").read_bytes() == _csv(
        FLATMAP_HEADER, _grid_rows(spec, F, Fhat, g.omega_grid))
    assert len(forks) == (n_cpus == 2 and nu > BLOCK_ROWS // NV)


def test_split_immersion_csv_same_bytes(tmp_path, cpus):
    n_cpus, forks = cpus
    spec = GridSpec(-1.0, 2.0, 0.5, 0.25, 2 * (BLOCK_ROWS // 11) + 1, 11)
    K = _check_immersion_csv(tmp_path / "im.csv", spec, 24)
    assert np.isfinite(K).any()
    assert len(forks) == (n_cpus == 2)


@pytest.mark.parametrize("shape", [(3, 4), (80, 61)])
def test_split_obj_same_bytes(tmp_path, cpus, shape):
    n_cpus, forks = cpus
    pts = _field(shape + (4,), 28)
    export_obj(pts, tmp_path / "m.obj", projection="drop", drop_index=2)
    assert (tmp_path / "m.obj").read_bytes() == _obj(np.delete(pts, 2, axis=-1))
    assert len(forks) == (n_cpus == 2 and shape == (80, 61))


def test_split_helix_csv_same_bytes(tmp_path, cpus):
    n_cpus, forks = cpus
    code, rep = run(JobConfig("helix", {"r": 2.0, "s_max": 2.0, "h": 4e-4},
                              tmp_path))
    assert code == 0
    c = helix(2.0, 1, (0.0, 2.0), 4e-4)
    assert c.n > BLOCK_ROWS and c.n % 2 == 1
    assert (tmp_path / "helix.csv").read_bytes() == _csv(
        "s,x1,x2,x3,x4", ([s, *q] for s, q in zip(c.u_grid, c.samples)))
    assert len(forks) == (n_cpus == 2)


@pytest.mark.parametrize("at", ["in_nodes", "on_boundary", "in_cells"])
def test_obj_split_anywhere_same_bytes(tmp_path, monkeypatch, at):
    # export_obj splits its index space (nodes, then cells) in the middle,
    # which lies among the nodes; route the split through the real writer
    # at any index, so the child writes from a node, the first cell or a
    # later cell on
    forks = _allow_cpus(monkeypatch, 2)
    nu, nv = 9, 7
    n_nodes, n_cells = nu * nv, (nu - 1) * (nv - 1)
    mid = {"in_nodes": n_nodes - 5, "on_boundary": n_nodes,
           "in_cells": n_nodes + n_cells // 3}[at]

    def write_at_mid(path, header, n, block, part):
        assert n == n_nodes + n_cells
        ends = (0, mid, n)
        _write_halves(path, header, 2, 1,
                      lambda fh, lo, hi: part(fh, ends[lo], ends[hi]))

    monkeypatch.setattr(cli, "_write_halves", write_at_mid)
    pts = _field((nu, nv, 4), 29)
    export_obj(pts, tmp_path / "m.obj", projection="drop", drop_index=0)
    assert (tmp_path / "m.obj").read_bytes() == _obj(np.delete(pts, 0, axis=-1))
    assert len(forks) == 1
    _nothing_left(tmp_path)


def _numbers(fh, lo, hi):
    fh.write("".join(f"{i}\n" for i in range(lo, hi)))


NUMBERS = "n\n" + "".join(f"{i}\n" for i in range(9))


def test_no_fork_beside_another_thread(tmp_path, monkeypatch):
    forks = _allow_cpus(monkeypatch, 2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(10,))
    thread.start()
    try:
        _write_halves(tmp_path / "n.txt", "n\n", 9, 4, _numbers)
    finally:
        done.set()
        thread.join(10)
    assert not thread.is_alive()
    assert (tmp_path / "n.txt").read_text() == NUMBERS
    assert forks == []


def test_failed_fork_writes_both_halves_here(tmp_path, monkeypatch):
    _allow_cpus(monkeypatch, 2)

    def fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    _write_halves(tmp_path / "n.txt", "n\n", 9, 4, _numbers)
    assert (tmp_path / "n.txt").read_text() == NUMBERS
    _nothing_left(tmp_path)


def test_child_failure_parent_writes_second_half(tmp_path, monkeypatch):
    forks = _allow_cpus(monkeypatch, 2)
    parent = os.getpid()

    def part(fh, lo, hi):
        _numbers(fh, lo, lo + 1)
        if os.getpid() != parent:
            raise RuntimeError("the child fails after one line")
        _numbers(fh, lo + 1, hi)

    _write_halves(tmp_path / "n.txt", "n\n", 9, 4, part)
    assert (tmp_path / "n.txt").read_text() == NUMBERS
    assert len(forks) == 1
    _nothing_left(tmp_path)


def test_parent_failure_propagates(tmp_path, monkeypatch):
    forks = _allow_cpus(monkeypatch, 2)
    parent = os.getpid()

    def part(fh, lo, hi):
        _numbers(fh, lo, hi)
        if os.getpid() == parent:
            raise RuntimeError("the parent fails")

    with pytest.raises(RuntimeError, match="the parent fails"):
        _write_halves(tmp_path / "n.txt", "n\n", 9, 4, part)
    assert len(forks) == 1
    _nothing_left(tmp_path)
