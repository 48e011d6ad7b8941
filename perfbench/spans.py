"""In-memory call tracing of the cardcsp modules, for the traced run only.

``Tracer.install`` replaces every public function of the pipeline modules
with a wrapper that records one span (name, start, end, parent, note) per
call.  The replacement is made on every module attribute bound to the
function, so calls between modules (``pipeline`` calling ``repair_balance``,
``solve`` calling ``project_psd``) are seen too.  ``uninstall`` restores the
originals.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Modules whose public functions form the layers, in pipeline order.
LAYERS = ("instance", "lasserre", "sdp_solver", "independence", "rounding",
          "landscape", "dictator", "oracle")

# Helpers called once per matrix entry or per index pair: a span per call
# would cost more than the work it measures.  Their time stays in the caller.
HOT_HELPERS = {"lasserre.merge_assignments", "lasserre.build_index_set"}


def _note_build(args, kwargs, result):
    return {"dim": result.dim, "rows": len(result.constraints)}


def _note_solve(args, kwargs, result):
    report = result[1]
    return {"iterations": report.iterations, "status": report.status}


def _note_decorrelate(args, kwargs, result):
    return {"steps": len(result.steps), "achieved_alpha": result.achieved_alpha}


def _note_repair(args, kwargs, result):
    before = args[1] if len(args) > 1 else kwargs["assignment"]
    return {"moves": len(result.repair_moves) - len(before.repair_moves)}


def _note_grid(args, kwargs, result):
    return {"cells": int(result.size)}


def _note_ratio_search(args, kwargs, result):
    return {"kind": result.payoff_kind}


def _note_soundness(args, kwargs, result):
    # the benchmark enumerates every +-1 function on the cube
    gadget = args[0] if args else kwargs["gadget"]
    return {"functions": 1 << (1 << gadget.R)}


NOTES = {
    "lasserre.build_relaxation": _note_build,
    "sdp_solver.solve": _note_solve,
    "independence.decorrelate": _note_decorrelate,
    "rounding.repair_balance": _note_repair,
    "landscape.bvn_cdf_grid": _note_grid,
    "landscape.ratio_search": _note_ratio_search,
    "dictator.soundness_enumerate": _note_soundness,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []      # [name, start_ns, end_ns, parent index, note]
        self._stack = []
        self._patches = []   # (owner module, attribute, original)
        self.paused = False

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == self.package or name.startswith(self.package + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or name in HOT_HELPERS):
                    continue
                wrapper = self._wrap(name, fn)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            setattr(owner, key, wrapper)
                            self._patches.append((owner, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "note"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Per span: duration minus the time its direct children cover, in s."""
    own = [(s[2] - s[1]) for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return [t / 1e9 for t in own]
