"""Call wrapping from outside the package: stage timers for the untraced
run and per-function spans for the traced run.

Both replace a function at every name a caller looks it up by (each
``sfsynth`` module attribute bound to the same object, since modules
import functions by name) and restore the originals on exit.  Nothing
inside ``src/sfsynth`` is edited.  Only the layer boundaries the metrics
name are wrapped; a helper that is not wrapped (``bessel.jy01``,
``datasets.control_pressures``) counts toward its caller's self time.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

import netcount

# stage boundaries timed in the untraced run
STAGE_FUNCTIONS = ("build_dataset", "train_compensator", "metric_samples",
                   "render_field")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sfsynth" or name.startswith("sfsynth."))]


@contextmanager
def patched(replacements: dict):
    """Rebind each original function to its wrapper in every sfsynth
    module namespace that holds it; restore on exit."""
    undo = []
    try:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper[0] is value:
                    setattr(mod, attr, wrapper[1])
                    undo.append((mod, attr, value))
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


# -- untraced: stage timers ---------------------------------------------------

@dataclasses.dataclass
class StageCall:
    name: str
    start: float
    end: float
    args: tuple
    result: object


@contextmanager
def stage_timers(calls: list):
    """Append a StageCall for every stage-boundary call into `calls`."""
    import sfsynth.experiment as experiment

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append(StageCall(name, t0, time.perf_counter(), args, result))
            return result
        return wrapper

    repl = {}
    for name in STAGE_FUNCTIONS:
        fn = getattr(experiment, name)
        repl[id(fn)] = (fn, timed(name, fn))
    with patched(repl):
        yield


# -- traced: spans, self time and counters ------------------------------------

def _fingerprint(v):
    """Cheap hashable identity of an argument's content."""
    if isinstance(v, np.ndarray):
        return (v.shape, v.dtype.str, hash(v.tobytes()))
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return (type(v).__name__,) + tuple(
            _fingerprint(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, (list, tuple)):
        return tuple(_fingerprint(x) for x in v)
    return v


def _distinct_key(args, kwargs):
    return (_fingerprint(args), _fingerprint(tuple(sorted(kwargs.items()))))


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _count_points(st, args, kwargs, result):
    st["points"] += np.size(args[0])


def _count_entries(st, args, kwargs, result):
    st["entries"] += np.size(result)


def _count_forward(st, args, kwargs, result):
    params, x = args[0], args[1]
    st["samples"] += x.shape[-1]
    st["flop"] += x.shape[-1] * netcount.forward_flop_per_sample(
        params.layers, params.rows, params.cols)


def _count_backward(st, args, kwargs, result):
    params, gout = args[0], args[1]
    st["samples"] += gout.shape[-1]
    st["flop"] += gout.shape[-1] * netcount.backward_flop_per_sample(
        params.layers, params.rows, params.cols)


def _count_saved(st, args, kwargs, result):
    path = str(args[0])
    st["bytes"] += _file_bytes(path, path + ".json")


def _count_read(st, args, kwargs, result):
    st["bytes"] += _file_bytes(args[0])


COUNTERS = {
    "bessel.hankel2_zero": _count_points,
    "acoustics.green_matrix": _count_entries,
    "network.forward": _count_forward,
    "network.backward": _count_backward,
    "fileio.save_dataset": _count_saved,
    "fileio.save_checkpoint": _count_saved,
    "fileio.sha256_file": _count_read,
}

# functions whose distinct argument tuples are counted (waste ratios)
DISTINCT = ("bessel.hankel2_sym_range", "acoustics.green_matrix",
            "renderers.mr_linear_filter_bank", "renderers.pm_operator")


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory, plus per
    name call counts, self time, counters and distinct-argument sets.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded and nested, so the children never
    overlap and the sum of self times under a root equals its duration.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stats = {}
        self.keys = {name: set() for name in DISTINCT}
        self._stack = []            # open span indices
        self._child = []            # child time accumulated per open span

    def _stat(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "self_s": 0.0, "points": 0,
                                     "entries": 0, "samples": 0, "flop": 0,
                                     "bytes": 0}
        return st

    def wrap(self, name: str, fn):
        st = self._stat(name)
        counter = COUNTERS.get(name)
        keys = self.keys.get(name)
        spans, stack, child = self.spans, self._stack, self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(_distinct_key(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                spans[idx] = (name, t0, t1, parent)
                dur = t1 - t0
                st["calls"] += 1
                st["self_s"] += dur - inner
                if child:
                    child[-1] += dur
            if counter is not None:
                counter(st, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def active(self, names):
        """Wrap each named function ("module.function" or
        "module.Class.method" under sfsynth) for the duration of the
        block."""
        repl, methods = {}, []
        for name in names:
            parts = name.split(".")
            owner = importlib.import_module(f"sfsynth.{parts[0]}")
            if len(parts) == 3:
                owner = getattr(owner, parts[1])
                orig = owner.__dict__[parts[2]]
                methods.append((owner, parts[2], orig))
                setattr(owner, parts[2], self.wrap(name, orig))
            else:
                orig = getattr(owner, parts[1])
                repl[id(orig)] = (orig, self.wrap(name, orig))
        try:
            with patched(repl):
                yield self
        finally:
            for cls, attr, orig in methods:
                setattr(cls, attr, orig)

    def self_time_total(self) -> float:
        return sum(st["self_s"] for st in self.stats.values())

    def write(self, path) -> None:
        """Spans as CSV: index, name, start, end, parent index, run id."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,run_id\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{self.run_id}\n")
