"""One cycle of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC.json holds ``{"jobs": [argv, ...], "trace": bool, "result": path}``.
The worker imports the CLI (the set-up every CLI invocation pays), then runs
the jobs back to back through ``flatsurf4.cli.main`` and writes to
``result``: the monotonic time at which the first job could start, each
job's start, end and exit code, the peak resident set, the numeric stack it
ran on and, when tracing, the spans.  The parent process checks the outputs.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _stack_info():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(spec_path):
    import flatsurf4.cli as cli
    ready = time.monotonic()
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    jobs = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in spec["jobs"]:
            error = None
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
                error = f"SystemExit({exc.code!r})"
            except Exception:
                code = 1
                error = traceback.format_exc(limit=-3)
            end = time.perf_counter()
            jobs.append({"start": start, "end": end, "code": code,
                         "error": error})
    result = {
        "ready": ready,
        "jobs": jobs,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stack": _stack_info(),
        "spans": tracer.spans if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
