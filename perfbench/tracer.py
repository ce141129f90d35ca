"""Span tracing of the zigzag library from outside it.

Each traced function is replaced, at every place it is looked up, by a
wrapper that records one span: the function, the span that called it, the
operation it belongs to, its start and end, and whether an exception left
it.  Spans live in flat arrays in memory and are written out once, when the
run ends.  Nothing in the library is edited; ``installed()`` swaps the
wrappers in and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute path) of every traced function, grouped by layer.
TARGETS = (
    ("quadrature", "interval_abs_integral"),
    ("quadrature", "IntervalPlan.integrate_abs"),
    ("quadrature", "segment_integral"),
    ("quadrature", "arc_integral"),
    ("quadrature", "product_value"),
    ("scmap", "solve_parameter_problem"),
    ("scmap", "side_length"),
    ("scmap", "coalescence_log_fit"),
    ("elliptic", "extremal_lengths"),
    ("elliptic", "extremal_length_quad"),
    ("elliptic", "carlson_rf"),
    ("height", "continuation_solve"),
    ("height", "minimize"),
    ("height", "height_parts"),
    ("geometry", "add_handle"),
    ("geometry", "build_vertices"),
    ("weierstrass", "build_weierstrass"),
    ("weierstrass", "verify_periods"),
    ("weierstrass", "generate_mesh"),
    ("weierstrass", "evaluate_surface"),
    ("io", "save_solution"),
    ("io", "load_solution"),
    ("io", "write_obj"),
    ("io", "write_csv"),
)

LAYERS = ("quadrature", "scmap", "elliptic", "height", "geometry", "weierstrass", "io")

# io functions whose first argument is the path they write
_WRITERS = {"save_solution", "write_obj", "write_csv"}


def _lookup(mod: str, path: str):
    """(owner, attribute, function) of one target.  The module comes from
    sys.modules: the package re-exports the function ``height``, which
    shadows the submodule ``zigzag.height`` as a package attribute."""
    obj = owner = sys.modules[f"zigzag.{mod}"]
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.split(".")[-1], obj


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "zigzag" or name.startswith("zigzag."))]


class Tracer:
    """Collects spans for the functions in TARGETS while installed."""

    def __init__(self):
        self.names = [f"{m}.{p}" for m, p in TARGETS]
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.bytes_written = 0
        self.current_op = -1
        self._stack = [-1]
        self._targets = []  # (owner, attribute, original, wrapper)
        for idx, (mod, path) in enumerate(TARGETS):
            owner, attr, fn = _lookup(mod, path)
            self._targets.append((owner, attr, fn, self._wrap(idx, mod, path, fn)))

    def _wrap(self, idx: int, mod: str, path: str, fn):
        fns, parents, ops = self.fn, self.parent, self.op
        starts, ends, failed, stack = self.start, self.end, self.failed, self._stack
        clock = time.perf_counter
        writer = mod == "io" and path in _WRITERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(fns)
            fns.append(idx)
            parents.append(stack[-1])
            ops.append(self.current_op)
            failed.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
                if writer and os.path.exists(args[0]):
                    self.bytes_written += os.path.getsize(args[0])

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every lookup site of each target by its wrapper.

        Names bound by ``from .x import f`` (for example
        ``zigzag.height.solve_parameter_problem`` or
        ``zigzag.cli.generate_mesh``) are found by identity in every loaded
        zigzag module; calls through a module attribute (``quad.*``,
        ``zio.*``) and module-global calls hit the defining module.
        """
        undo = []
        by_id = {}
        try:
            for owner, attr, fn, wrapper in self._targets:
                undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                by_id[id(fn)] = (fn, wrapper)
            for m in _library_modules():
                for name, value in list(vars(m).items()):
                    hit = by_id.get(id(value))
                    if hit is not None and value is hit[0]:
                        undo.append((m, name, value))
                        setattr(m, name, hit[1])
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def arrays(self):
        fn = np.frombuffer(self.fn, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        failed = np.frombuffer(self.failed, dtype=np.int8).astype(bool)
        op = np.frombuffer(self.op, dtype=np.int32).copy()
        return fn, parent, op, start, end, failed

    def save(self, path) -> None:
        """Write the spans as an .npz of flat arrays (one row per span)."""
        fn, parent, op, start, end, failed = self.arrays()
        np.savez(path, names=np.array(self.names), fn=fn, parent=parent, op=op,
                 start=start, end=end, failed=failed)

    def layer_metrics(self) -> dict:
        """Per-function calls, microseconds per call (inclusive) and self
        seconds; per-layer failures; and the derived ratios."""
        fn, parent, _, start, end, failed = self.arrays()
        n_fn = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=fn.size)
        self_time = dur - child
        calls = np.bincount(fn, minlength=n_fn)
        total = np.bincount(fn, weights=dur, minlength=n_fn)
        own = np.bincount(fn, weights=self_time, minlength=n_fn)

        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            us = 1e6 * total[i] / calls[i] if calls[i] else 0.0
            out[f"{name}.us_per_call"] = (float(us), "us")
            out[f"{name}.self_s"] = (float(own[i]), "s")

        # an exception leaves a layer when the caller is outside that layer
        layer_of = np.array([LAYERS.index(m) for m, _ in TARGETS])
        span_layer = layer_of[fn]
        caller_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        leaving = failed & (caller_layer != span_layer)
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.failures"] = (int(np.sum(leaving & (span_layer == li))), "count")

        idx = {name: i for i, name in enumerate(self.names)}

        def count(name):
            return int(calls[idx[name]])

        def ratio(a, b):
            return float(a) / b if b else 0.0

        intervals = count("quadrature.interval_abs_integral")
        out["quadrature.doublings_per_interval"] = (
            ratio(count("quadrature.IntervalPlan.integrate_abs"), intervals) - 1.0
            if intervals else 0.0, "ratio")
        solve = idx["scmap.solve_parameter_problem"]
        surface = idx["weierstrass.evaluate_surface"]
        under_solve = _descends_from(fn, parent, solve)
        under_surface = _descends_from(fn, parent, surface)
        out["scmap.intervals_per_solve"] = (ratio(
            np.sum(under_solve & (fn == idx["quadrature.interval_abs_integral"])),
            count("scmap.solve_parameter_problem")), "count")
        out["weierstrass.segments_per_vertex"] = (ratio(
            np.sum(under_surface & (fn == idx["quadrature.segment_integral"])),
            count("weierstrass.evaluate_surface")), "count")
        out["weierstrass.vertex_us"] = (1e6 * ratio(
            total[idx["weierstrass.generate_mesh"]],
            count("weierstrass.evaluate_surface")), "us")
        out["io.bytes_written"] = (int(self.bytes_written), "bytes")
        return out


def _descends_from(fn: np.ndarray, parent: np.ndarray, target: int) -> np.ndarray:
    """Mask of spans with an ancestor span of function ``target``.

    Span ids are assigned at entry, so a parent id is always smaller than
    its child's and one forward sweep settles every span."""
    mask = [False] * fn.size
    hit = (fn == target).tolist()
    for sid, par in enumerate(parent.tolist()):
        if par >= 0 and (hit[par] or mask[par]):
            mask[sid] = True
    return np.array(mask, dtype=bool)
