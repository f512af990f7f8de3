"""Per-layer tracing by wrapping adaptsel's public functions from outside.

Modules import names directly (``from .policy import run``) and call module
globals, so a wrapper only sees every call if it replaces *every* alias of
the function: each ``adaptsel.*`` module namespace and the package one.

Each wrapped call records one span (name, start, end, parent span, request
id) in flat arrays, so the ~10^6 spans of a ``gamma`` pass stay compact.
A function that returns a generator is also timed across the generator's
``next()`` calls, one span per resumption, and its yields are counted.
Self time is computed afterwards: a span's duration minus the durations of
its child spans.  Spans nest strictly (one thread), so children never
overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from array import array
from time import perf_counter

# The traced public functions, by layer.  ``cli.main`` is the request entry
# point; the benchmark wraps its own call to it.
TRACED = {
    "cli": ["main"],
    "fileio": ["load_instance", "load_hypotheses", "save", "dumps"],
    "bounds": ["verify"],
    "metrics": ["alpha", "beta", "frontier_gains", "gamma", "param_report"],
    "oracle": ["optimal_budget", "optimal_coverage", "enumerate_policies"],
    "policy": ["build_greedy", "find_threshold_pair", "run", "cut_tree",
               "annotate_tree", "cut_stats"],
    "core": ["version_space", "policy_gain", "f_avg", "c_avg",
             "check_adaptive_monotone", "check_adaptive_submodular",
             "positive_partial_realizations"],
    "learn": ["coverage_utility", "coverage_instance", "gbs_policy"],
}
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

# fileio functions whose first argument is a path: their file sizes give
# fileio.bytes_read and fileio.bytes_written.
_READS = {"fileio.load_instance", "fileio.load_hypotheses"}
_WRITES = {"fileio.save"}

# Name ids at and above RESUME mark a generator resumption of function
# ``id - RESUME``: it adds self time but is not a call.
RESUME = len(FUNCTIONS)


class Tracer:
    """Span recorder.  ``install`` swaps the wrappers into adaptsel's
    namespaces; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.yielded = [0] * len(FUNCTIONS)
        self.bytes_read = 0
        self.bytes_written = 0
        self.request_id = -1
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, qualname: str, fn):
        name_id = FUNCTIONS.index(qualname)
        sized = qualname in _READS or qualname in _WRITES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if sized:
                size = os.path.getsize(args[0])
                if qualname in _READS:
                    tracer.bytes_read += size
                else:
                    tracer.bytes_written += size
            if isinstance(result, types.GeneratorType):
                return tracer._resumed(name_id, result)
            return result

        return wrapper

    def _resumed(self, name_id: int, gen):
        resume_id = RESUME + name_id
        while True:
            sid = self._open(resume_id)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(sid)
            self.yielded[name_id] += 1
            yield item

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "adaptsel" or key.startswith("adaptsel.")]
        for qualname in FUNCTIONS:
            if qualname == "cli.main":
                continue
            mod, fn = qualname.split(".")
            original = getattr(sys.modules[f"adaptsel.{mod}"], fn)
            wrapper = self.wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-function calls and self time, per-layer self time, and the
        work counters, keyed by metric name."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=len(duration))
        self_time = duration - child
        function = name % RESUME
        self_s = np.bincount(function, weights=self_time,
                             minlength=len(FUNCTIONS))
        calls = np.bincount(name[name < RESUME], minlength=len(FUNCTIONS))

        out: dict[str, float] = {}
        for i, qualname in enumerate(FUNCTIONS):
            out[f"{qualname}.calls"] = int(calls[i])
            out[f"{qualname}.self_s"] = float(self_s[i])
        for mod, fns in TRACED.items():
            out[f"{mod}.self_s"] = sum(out[f"{mod}.{fn}.self_s"] for fn in fns)
        out["fileio.bytes_read"] = self.bytes_read
        out["fileio.bytes_written"] = self.bytes_written
        out["oracle.enumerate_policies.yielded"] = self.yielded[
            FUNCTIONS.index("oracle.enumerate_policies")]
        runs = out["policy.run.calls"]
        out["policy.cut_tree_per_run"] = (
            out["policy.cut_tree.calls"] / runs if runs else 0.0)
        return out

    def save(self, path: str) -> None:
        """Write the spans as one ``.npz`` of parallel arrays; times are
        ``perf_counter`` seconds."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(FUNCTIONS),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )


def counts(summary: dict[str, float]) -> dict[str, float]:
    """The deterministic part of a summary: everything but times."""
    return {k: v for k, v in summary.items() if not k.endswith("self_s")}
