"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
module and name and reads their arguments by name, so a rename in the
package would silently empty its per-layer metrics.  These tests load the
tracer from its file, without installing it, and check that every name it
relies on still exists.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from flatsurf4.flatmap import GridSpec

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# the arguments the tracer's work counters read, over all wrapped functions
COUNTER_ARGUMENTS = {"path", "spec", "cfl", "k", "h", "multiples", "u_range",
                     "a", "b"}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _arguments_read(work):
    """Names a work counter reads from its argument mapping: the string
    constants of its code and of the tracer functions it calls."""
    code = work.__code__
    names = {c for c in code.co_consts if isinstance(c, str)}
    for called in code.co_names:
        fn = work.__globals__.get(called)
        if inspect.isfunction(fn):
            names |= _arguments_read(fn)
    return names


def test_tracer_targets_resolve():
    tracer = _tracer()
    for modname, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr)), attr
    for modname, cls, attr, _ in tracer.METHOD_TARGETS:
        klass = getattr(importlib.import_module(modname), cls)
        assert callable(getattr(klass, attr)), f"{cls}.{attr}"


def test_tracer_counters_read_existing_parameters():
    tracer = _tracer()
    seen = set()
    for modname, attr, _, work in tracer.TARGETS:
        if work is None:
            continue
        fn = getattr(importlib.import_module(modname), attr)
        read = _arguments_read(work)
        assert read <= set(inspect.signature(fn).parameters), (attr, read)
        seen |= read
    assert seen == COUNTER_ARGUMENTS


def test_tracer_solve_counter_reads_grid_spec():
    spec = GridSpec.from_ranges((0.0, 1.0), (0.0, 0.5), 0.01)
    steps = _tracer()._solve_steps({"spec": spec, "cfl": 0.5})
    assert steps == 2 * (spec.nv - 1)
