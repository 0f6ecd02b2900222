"""Spans around the calls into each layer (module) of sandsmooth.

The traced run swaps, for the length of one op, the module attributes
through which the workloads and sandsmooth's own modules call a layer's
public functions for wrappers that record a span.  The program itself is
not edited.  A binding that a later version of the program no longer has
is skipped, and its layer then reads zero.

A span holds its name, start and end (``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so comparable between processes), the id of
its parent span and the op id.  Spans stay in memory until the run ends.
A layer's self time is its span's duration minus its child spans'.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from collections import defaultdict


def _grid_gflop(args, kwargs, out):
    # Ytilde = A1' Y A2, evaluated left to right: 2 c1 n1 n2 + 2 c1 n2 c2 flops
    data, sx, sz = args[:3]
    (n1, n2), c1, c2 = data.Y.shape, sx.n_basis, sz.n_basis
    return {"gflop": 2.0 * c1 * n2 * (n1 + c2) / 1e9}


# (module, attribute, span name, counts taken from (args, kwargs, result))
BINDINGS = [
    ("sandsmooth.spectra", "design_matrix", "basis.design_matrix", None),
    *[(f"sandsmooth.{m}", "axis_spectrum", "spectra.axis_spectrum",
       lambda a, k, out: {"basis_dim": out.n_basis})
      for m in ("sandwich2d", "glam", "binning", "fda")],
    ("sandsmooth.sandwich2d", "transform_data", "sandwich2d.transform_data",
     _grid_gflop),
    *[(f"sandsmooth.{m}", "select_lambda", "sandwich2d.select_lambda",
       lambda a, k, out: {"pairs": out.gcv_surface.size})
      for m in ("sandwich2d", "binning", "cli")],
    ("sandsmooth.glam", "fit_array", "glam.fit_array",
     lambda a, k, out: {"tuples": out.gcv_table.size}),
    ("sandsmooth.glam", "rh", "glam.rh", None),
    ("sandsmooth.binning", "bin_scatter", "binning.bin_scatter", None),
    ("sandsmooth.binning", "fill_nearest", "binning.fill_nearest", None),
    ("sandsmooth.binning", "iterative_fit", "binning.iterative_fit", None),
    ("sandsmooth.fda", "sample_cov", "fda.sample_cov", None),
    ("sandsmooth.fda", "smooth_cov", "fda.smooth_cov", None),
    ("sandsmooth.fda", "eigenpairs", "fda.eigenpairs", None),
    ("sandsmooth.cli", "read_grid_csv", "gridio.read_grid_csv", None),
    ("sandsmooth.cli", "write_grid_csv", "gridio.write_grid_csv", None),
]

# Top-level entry points whose working memory the memory probe measures.
MEMORY_BINDINGS = [
    ("sandsmooth.sandwich2d", "select_lambda", "sandwich2d.peak_mb"),
    ("sandsmooth.glam", "fit_array", "glam.peak_mb"),
    ("sandsmooth.fda", "sample_cov", "fda.peak_mb"),
    ("sandsmooth.fda", "smooth_cov", "fda.peak_mb"),
    ("sandsmooth.fda", "eigenpairs", "fda.peak_mb"),
]


class Patches:
    """Module attributes swapped for wrappers, restored by ``restore``."""

    def __init__(self):
        self._saved = []

    def wrap(self, module: str, attr: str, make):
        mod = sys.modules.get(module)
        if mod is None or not hasattr(mod, attr):
            return
        fn = getattr(mod, attr)
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, functools.wraps(fn)(make(fn)))

    def restore(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


class Tracer:
    """Spans kept in memory; ``patch()`` turns the layer bindings on."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._patches = Patches()

    def start(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.start(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def patch(self) -> None:
        for module, attr, name, counts in BINDINGS:
            self._patches.wrap(module, attr, self._wrapper(name, counts))

    def unpatch(self) -> None:
        self._patches.restore()

    def _wrapper(self, name, counts):
        def make(fn):
            def traced(*args, **kwargs):
                rec = self.start(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end(rec)
                if counts is not None:
                    rec["counts"] = counts(args, kwargs, out)
                return out
            return traced
        return make

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Add spans recorded by a child process under the span ``parent``."""
        offset = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=rec["id"] + offset, op=self.op,
                       parent=parent if rec["parent"] is None
                       else rec["parent"] + offset)
            self.spans.append(rec)


def memory_patches(peaks: dict) -> Patches:
    """Wrap the top-level entry points to record their peak traced memory.

    ``peaks`` maps a metric name to the largest peak seen, in MB.  The
    tracemalloc peak counts only memory allocated during the call.
    """
    patches = Patches()
    for module, attr, metric in MEMORY_BINDINGS:
        def make(fn, metric=metric):
            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    peaks[metric] = max(peaks.get(metric, 0.0), peak)
            return measured
        patches.wrap(module, attr, make)
    return patches


def per_op(spans: list[dict]) -> dict:
    """For each op id: per span name, total duration, self time and counts."""
    children = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            children[rec["parent"]] += rec["end"] - rec["start"]
    ops = defaultdict(lambda: defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "counts": defaultdict(list)}))
    for rec in spans:
        dur = rec["end"] - rec["start"]
        entry = ops[rec["op"]][rec["name"]]
        entry["total"] += dur
        entry["self"] += dur - children[rec["id"]]
        for key, value in rec.get("counts", {}).items():
            entry["counts"][key].append(value)
    return ops
