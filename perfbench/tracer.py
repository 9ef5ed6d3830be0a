"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces the public functions of each ``flatsurf4``
module with wrappers that record a span (name, start, end, parent, work)
per call.  Spans stay in memory and are written out when the run ends.
``aggregate`` and ``layer_metric`` turn the spans into per-layer metrics.

Three details of the package shape how the wrappers are installed:

* ``flatsurf4.quat`` is the function ``quat`` re-exported by the package,
  so modules are taken from ``sys.modules``.
* A name bound by ``from .x import f`` is a separate reference in every
  importing module, so each ``flatsurf4`` namespace holding the original
  object gets the wrapper.  ``_fd`` is reached as ``fd.d1``, so swapping
  the module attribute is enough there.
* ``FlatMapGrid.derivatives`` is a method and is patched on the class.
"""

import functools
import inspect
import math
import os
import sys
import time


def _steps(length, h):
    return max(1, int(round(length / h)))


def _file_bytes(args):
    return os.path.getsize(args["path"])


def _qmul_elems(args):
    import numpy as np  # loaded already in the traced process
    return math.prod(np.broadcast_shapes(np.shape(args["a"])[:-1],
                                         np.shape(args["b"])[:-1]))


def _solve_steps(args):
    spec = args["spec"]
    return (spec.nv - 1) * math.ceil(spec.hv / (args["cfl"] * spec.hu))


# (module, attribute, span name, work counter computed from the call's
# bound arguments after it returns, or None)
TARGETS = (
    ("flatsurf4.torusearch", "holonomy", "torusearch.holonomy",
     lambda a: _steps(a["k"].base_period, a["h"])),
    ("flatsurf4.torusearch", "holonomy_closure_residual",
     "torusearch.holonomy_closure_residual",
     lambda a: _steps(a["multiples"] * a["k"].base_period, a["h"])),
    ("flatsurf4.torusearch", "search_rational", "torusearch.search_rational", None),
    ("flatsurf4.torusearch", "lift_closure_multiple",
     "torusearch.lift_closure_multiple", None),
    ("flatsurf4.torusearch", "build_perturbed_torus",
     "torusearch.build_perturbed_torus", None),
    ("flatsurf4.torusearch", "build_perturbed_cylinder",
     "torusearch.build_perturbed_cylinder", None),
    ("flatsurf4.curve", "asymptotic_lift", "curve.asymptotic_lift",
     lambda a: _steps(a["u_range"][1] - a["u_range"][0], a["h"])),
    ("flatsurf4.quat", "qmul", "quat.qmul", _qmul_elems),
    ("flatsurf4._fd", "d1", "fd.d1", None),
    ("flatsurf4._fd", "d2", "fd.d2", None),
    ("flatsurf4.flatmap", "hopf_flat_map", "flatmap.hopf_flat_map", None),
    ("flatsurf4.flatmap", "verify_flat_map", "flatmap.verify_flat_map", None),
    ("flatsurf4.flatmap", "write_flatmap_csv", "flatmap.write_flatmap_csv",
     _file_bytes),
    ("flatsurf4.flatmap", "read_flatmap_csv", "flatmap.read_flatmap_csv",
     _file_bytes),
    ("flatsurf4.hypsys", "stretched_solution", "hypsys.stretched_solution", None),
    ("flatsurf4.hypsys", "geometric_solution", "hypsys.geometric_solution", None),
    ("flatsurf4.hypsys", "solve_numeric", "hypsys.solve_numeric", _solve_steps),
    ("flatsurf4.hypsys", "system_residual", "hypsys.system_residual", None),
    ("flatsurf4.immersion", "assemble", "immersion.assemble", None),
    ("flatsurf4.immersion", "auto_lambda", "immersion.auto_lambda", None),
    ("flatsurf4.immersion", "brioschi_curvature",
     "immersion.brioschi_curvature", None),
    ("flatsurf4.immersion", "tangency_check", "immersion.tangency_check", None),
    ("flatsurf4.immersion", "metric_identity_check",
     "immersion.metric_identity_check", None),
    ("flatsurf4.immersion", "sphere_fit", "immersion.sphere_fit", None),
    ("flatsurf4.immersion", "verify_frame", "immersion.verify_frame", None),
    ("flatsurf4.immersion", "write_immersion_csv",
     "immersion.write_immersion_csv", _file_bytes),
    ("flatsurf4.cli", "export_obj", "cli.export_obj", _file_bytes),
    ("flatsurf4.cli", "run", "cli.run", None),
)
# (module, class, method, span name)
METHOD_TARGETS = (
    ("flatsurf4.flatmap", "FlatMapGrid", "derivatives",
     "flatmap.FlatMapGrid.derivatives"),
)
SPAN_NAMES = frozenset([t[2] for t in TARGETS] + [t[3] for t in METHOD_TARGETS])
ROOT_SPAN = "cli.run"


class Tracer:
    """Records one span per wrapped call; spans are lists
    [name, start, end, parent index or -1, work count or None]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work=None):
        sig = inspect.signature(fn) if work is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = work(bound.arguments)
            return result

        return wrapper

    def install(self):
        """Swap the wrappers into every loaded flatsurf4 namespace."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "flatsurf4" or name.startswith("flatsurf4.")]
        for modname, attr, name, work in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig, work)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapped)
        for modname, cls, attr, name in METHOD_TARGETS:
            klass = getattr(sys.modules[modname], cls)
            setattr(klass, attr, self.wrap(name, getattr(klass, attr)))


def aggregate(spans):
    """Per span name: calls, total_s, self_s and summed work.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, since calls nest.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    agg = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
           for name in SPAN_NAMES}
    for i, (name, start, end, parent, work) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["total_s"] += end - start
        a["self_s"] += end - start - child[i]
        a["work"] += work or 0
    return agg


def layer_metric(name, spans, agg):
    """Value of one per-layer metric named '<span name>.<stat>'."""
    span, _, stat = name.rpartition(".")
    if span not in SPAN_NAMES:
        raise KeyError(f"per-layer metric {name} names no traced span")
    if stat in ("attempts", "useful_ratio"):
        # assemble calls made directly by this span (auto_lambda's tries)
        attempts = sum(1 for s in spans if s[0] == "immersion.assemble"
                       and s[3] >= 0 and spans[s[3]][0] == span)
        if stat == "attempts":
            return attempts
        return agg[span]["calls"] / attempts if attempts else 0.0
    if stat in ("steps", "elems", "bytes"):
        return agg[span]["work"]
    return agg[span][stat]
