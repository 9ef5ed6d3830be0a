"""Job benchmark for flatsurf4: whole CLI jobs, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

``--workload`` is one of search, torus, cylinder, roundtrip (see
``workloads.py`` for what each runs and why) or ``all``.  A run repeats
cycles of the workload until ``--seconds`` would be exceeded (at least one
cycle).  A cycle is one fresh interpreter (``worker.py``) that imports the
CLI and runs the workload's jobs back to back through ``flatsurf4.cli.main``;
the program is run from ``src/`` with BLAS pinned to one thread.  After each
cycle every report and written file is checked against the acceptance
tolerances, reports are compared with the first cycle's, and the outputs
are deleted.

With ``--trace 0`` the end-to-end metrics are medians over cycles:
``wall_s`` (first job start to last job end), ``setup_s`` (interpreter
spawn until the first job can start) and ``peak_rss_mb`` (the cycle
process's ``ru_maxrss``).  With ``--trace 1`` untraced and traced cycles
alternate; traced cycles wrap the package's public functions
(``tracer.py``) and give the per-layer metrics as medians over traced
cycles, plus ``trace.overhead_s`` = traced wall minus untraced wall.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (jobs) and ``metrics``.  The full record of the
run, with the environment, every sample, the accuracy figures and the spans,
is written to ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"
RUN_CAP_S = 170.0  # a run must end within 180 s
COUNT_STATS = ("calls", "steps", "elems", "attempts", "bytes")


def _environment(seed, stack):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"seed": seed, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), **(stack or {}),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def _worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_cycle(jobs, traced, work, timeout):
    """Run one cycle in a fresh interpreter and check its outputs."""
    for job in jobs:
        shutil.rmtree(job.out_dir, ignore_errors=True)
    spec_path, result_path = work / "spec.json", work / "result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({
        "jobs": [job.argv for job in jobs], "trace": traced,
        "result": str(result_path)}))
    cycle = {"traced": traced, "failures": {}, "reports": {}, "result": None}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=_worker_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout)
        stderr, cycle["timed_out"] = proc.stderr, False
    except subprocess.TimeoutExpired:
        stderr, cycle["timed_out"] = "timed out", True
    cycle["duration"] = time.monotonic() - t0
    if result_path.exists():
        cycle["result"] = json.loads(result_path.read_text())
    if cycle["result"] is None:
        for job in jobs:
            cycle["failures"][job.name] = [
                f"cycle produced no result: {stderr.strip()[-500:]}"]
        return cycle

    res = cycle["result"]
    cycle["setup_s"] = res["ready"] - t0
    cycle["wall_s"] = res["jobs"][-1]["end"] - res["jobs"][0]["start"]
    cycle["rss_mb"] = res["maxrss_kib"] / 1024.0
    parsed = {}
    for job, run in zip(jobs, res["jobs"]):
        fails = []
        if run["code"] != 0:
            fails.append(f"exit code {run['code']}: {run['error'] or ''}")
        try:
            text = job.report_path.read_text()
            cycle["reports"][job.name] = text
            parsed[job.name] = json.loads(text)
        except (OSError, ValueError) as exc:
            fails.append(f"no report: {exc}")
        cycle["failures"][job.name] = fails
    for job in jobs:
        if not cycle["failures"][job.name]:
            try:
                cycle["failures"][job.name] = job.check(parsed)
            except KeyError as exc:  # a job this one depends on has no report
                cycle["failures"][job.name] = [f"missing report {exc}"]
    cycle["accuracy"] = {name: workloads.accuracy(name, rep)
                         for name, rep in parsed.items()}
    for job in jobs:
        shutil.rmtree(job.out_dir, ignore_errors=True)
    return cycle


def _layer_values(cycle, per_layer):
    spans = cycle["result"]["spans"]
    agg = tracer.aggregate(spans)
    return {m["name"]: tracer.layer_metric(m["name"], spans, agg)
            for m in per_layer if m["name"] != "trace.overhead_s"}


def _trace_problems(cycle, n_jobs):
    """Every span must descend from one cli.run root per job."""
    spans = cycle["result"]["spans"]
    roots = [s for s in spans if s[3] < 0]
    if [s[0] for s in roots] != [tracer.ROOT_SPAN] * n_jobs:
        return [f"root spans {[s[0] for s in roots]} are not one "
                f"{tracer.ROOT_SPAN} per job"]
    return []


def _root_gaps(cycle):
    """Per job: job wall time minus its root cli.run span."""
    roots = [s for s in cycle["result"]["spans"] if s[3] < 0]
    return [(run["end"] - run["start"]) - (root[2] - root[1])
            for run, root in zip(cycle["result"]["jobs"], roots)]


def _summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def _run_cycles(jobs, seconds, trace, work):
    """Cycles until the next, of median cycle length, would overrun ``seconds``.

    With tracing, untraced and traced cycles alternate, one of each at least.
    """
    cycles, t_begin = [], time.monotonic()
    while True:
        traced = trace and len(cycles) % 2 == 1
        timeout = max(1.0, RUN_CAP_S - (time.monotonic() - t_begin))
        cycles.append(run_cycle(jobs, traced, work, timeout))
        if cycles[-1]["timed_out"]:
            return cycles
        elapsed = time.monotonic() - t_begin
        typical = statistics.median(c["duration"] for c in cycles)
        if len(cycles) >= 1 + trace and elapsed + typical > seconds:
            return cycles


def _failed_jobs(cycles, jobs, problems):
    """Count failed jobs; a report that differs from cycle 0's fails too."""
    failed = 0
    reference = cycles[0]["reports"]
    for i, cycle in enumerate(cycles):
        for job in jobs:
            fails = cycle["failures"][job.name]
            text = cycle["reports"].get(job.name)
            if text is not None and text != reference.get(job.name):
                fails.append("report differs from cycle 0's")
            if fails:
                failed += 1
                kind = "traced" if cycle["traced"] else "untraced"
                problems.append(f"{kind} cycle {i} {job.name}: {'; '.join(fails)}")
    return failed


def _layer_medians(traced, jobs, per_layer, problems):
    """Median per-layer metrics over traced cycles; counts must repeat."""
    per_cycle = []
    for cycle in traced:
        problems.extend(_trace_problems(cycle, len(jobs)))
        per_cycle.append(_layer_values(cycle, per_layer))
    metrics = {}
    for key in per_cycle[0]:
        values = [v[key] for v in per_cycle]
        if key.rpartition(".")[2] not in COUNT_STATS:
            metrics[key] = statistics.median(values)
            continue
        metrics[key] = values[0]
        if len(set(values)) > 1:
            problems.append(f"count {key} differs between traced cycles: {values}")
    return metrics


def run_workload(name, seed, seconds, trace, bench, work):
    """Run one workload; returns (result line, detailed record)."""
    jobs = workloads.build(name, seed, work)
    cycles = _run_cycles(jobs, seconds, trace, work)
    problems = []
    failed = _failed_jobs(cycles, jobs, problems)

    done = [c for c in cycles if c["result"] is not None]
    plain = [c for c in done if not c["traced"]]
    traced = [c for c in done if c["traced"]]
    samples = {}
    if plain:
        samples["wall_s"] = _summary([c["wall_s"] for c in plain])
        samples["setup_s"] = _summary([c["setup_s"] for c in plain])
        samples["peak_rss_mb"] = _summary([c["rss_mb"] for c in plain])
    detail = {"workload": name, "trace": int(trace), "samples": samples,
              "accuracy": done[0]["accuracy"] if done else {},
              "environment": _environment(
                  seed, done[0]["result"]["stack"] if done else None),
              "problems": problems}

    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    if plain and not trace:
        metrics = {m["name"]: samples[m["name"]]["median"] for m in wanted}
    elif plain and traced:
        metrics = _layer_medians(traced, jobs, wanted, problems)
        samples["traced_wall_s"] = _summary([c["wall_s"] for c in traced])
        metrics["trace.overhead_s"] = (samples["traced_wall_s"]["median"]
                                       - samples["wall_s"]["median"])
        detail["root_span_gap_s"] = max(g for c in traced for g in _root_gaps(c))
        detail["spans"] = [c["result"]["spans"] for c in traced]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"no value for {missing}")
    units = {m["name"]: m["unit"] for m in wanted}
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(cycles) * len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, detail


def _print_summary(name, result, detail, units):
    parts = [f"{name}:"]
    for key, s in detail["samples"].items():
        parts.append(f"{key} {s['median']:.4g} {units.get(key, 's')} (n={s['n']})")
    parts.append(f"failed {result['failed']}/{result['attempted']} jobs")
    parts.append("correct" if result["correct"] else "NOT CORRECT")
    print(" ".join(parts))
    for problem in detail["problems"][:10]:
        print(f"  {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flatsurf4" / "cli.py").is_file():
        print("perfbench: no src/flatsurf4 here; run from a flatsurf4 checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = ROOT / ".perfbench_work"
    work = work_root / str(os.getpid())
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), bench, work / name)
            results[name] = result
            record = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps({"result": result, **detail}))
            detail.pop("spans", None)
            _print_summary(name, result, detail,
                           {m["name"]: m["unit"] for m in bench["end_to_end"]})
            print(json.dumps(detail))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
