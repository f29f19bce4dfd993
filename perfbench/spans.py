"""Span tracing of snnkit from outside the package.

`Tracer.install` replaces every public function of the snnkit modules, and
the few methods listed in METHODS, with a wrapper that records a span: name,
start, end and parent.  A function is replaced under every name a caller can
look it up by, so `from .treesolve import tree_labeling_solve` in `inn` sees
the wrapper too.  `uninstall` puts the originals back.

Counts are taken in HOOKS at the same boundaries, after the wrapped call
returns, and summed per pass.  Hook work runs inside a `trace.hook` span, so
it never counts as the self time of the caller.  Spans and counts stay in
memory until `dump` writes them out.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

# layers are the modules of src/snnkit/ that a workload can reach
LAYERS = ("core", "denoise", "exact", "generators", "graphs", "inn", "lowerbound",
          "metric", "nn", "sparse", "treemetric", "treesolve", "zeroext")
METHODS = (("metric", "EuclideanSpace", "cross"), ("metric", "MatrixSpace", "cross"),
           ("nn", "NnIndex", "nn_map"))
HOOK_SPAN = "trace.hook"
MEM_SPAN = "treesolve.euclidean_refine"
MIB = float(1 << 20)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _brute_force_states(tr, args, kwargs, result):
    inst = args[0]
    allowed = _arg(args, kwargs, 1, "allowed")
    n = inst.n_labels if allowed is None else len(np.unique(np.asarray(allowed)))
    tr.add("core.enum_states", n ** inst.k)


def _zero_ext_states(tr, args, kwargs, result):
    z = args[0]
    tr.add("zeroext.enum_states", z.n_terminals ** z.n_free)


def _bb_nodes(tr, args, kwargs, result):
    if isinstance(result, tuple):
        tr.add("exact.bb_nodes", result[1].nodes)


def _pruned(tr, args, kwargs, result):
    tr.add("inn.pruned_labels", len(result.label_points))
    tr.add("inn.labels_before_pruning", args[0].n_labels)


def _cross_bytes(tr, args, kwargs, result):
    nbytes = int(np.asarray(result).nbytes)      # computed from the output shape
    tr.add("metric.cross.calls", 1)
    tr.add("metric.cross.bytes_total", nbytes)
    tr.max("metric.cross.bytes_max", nbytes)


def _palette(tr, args, kwargs, result):
    if _arg(args, kwargs, 1, "label_space", "full") == "image":
        tr.add("denoise.palette_size", len(result.labels))


def _refine_gain(tr, args, kwargs, result):
    inst, labels = args[0], _arg(args, kwargs, 1, "labels")
    if inst.has_explicit_labels:
        before = tr.original("core.cost")(inst, labels).total
    else:
        before = tr.original("core.cost_points")(inst, np.asarray(labels)).total
    tr.add("treesolve.cost_before_refine", before)
    tr.add("treesolve.cost_after_refine", result.total)


HOOKS = {
    "core.brute_force_opt": _brute_force_states,
    "zeroext.zero_ext_exact": _zero_ext_states,
    "exact.bb_opt": _bb_nodes,
    "inn.pruned_label_set": _pruned,
    "metric.EuclideanSpace.cross": _cross_bytes,
    "metric.MatrixSpace.cross": _cross_bytes,
    "denoise.pixel_instance": _palette,
    "treesolve.euclidean_refine": _refine_gain,
}


class Tracer:
    """In-memory spans and per-pass counts for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack: list[int] = []
        self.passes: list[tuple[str, int, int]] = []   # (phase, first span, end span)
        self.counts: list[dict] = []
        self.paused = False
        self.track_memory = False
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ---------- installation ----------

    def install(self) -> None:
        wrappers = {}                      # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"snnkit.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    self._originals[name] = fn
                    wrappers[id(fn)] = self._wrap(name, fn)
        for mname in sorted(sys.modules):
            mod = sys.modules[mname]
            if mod is None or not (mname == "snnkit" or mname.startswith("snnkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, w)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"snnkit.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            self._originals[name] = fn
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()

    def original(self, name: str):
        return self._originals[name]

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # ---------- recording ----------

    def call(self, name, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        idx = self._open(name)
        mem = self.track_memory and name == MEM_SPAN and not tracemalloc.is_tracing()
        if mem:
            tracemalloc.start()
        self.starts[idx] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self.stack.pop()
            if mem:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.max("treesolve.euclidean_refine.peak_mb", peak / MIB)
        hook = HOOKS.get(name)
        if hook is not None:
            h = self._open(HOOK_SPAN)
            self.starts[h] = time.perf_counter_ns()
            self.paused = True
            try:
                hook(self, args, kwargs, result)
            finally:
                self.paused = False
                self.ends[h] = time.perf_counter_ns()
                self.stack.pop()
        return result

    def _open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(0)
        self.ends.append(0)
        self.stack.append(idx)
        return idx

    def add(self, key, value) -> None:
        c = self.counts[-1]
        c[key] = c.get(key, 0) + value

    def max(self, key, value) -> None:
        c = self.counts[-1]
        c[key] = max(c.get(key, value), value)

    @contextmanager
    def phase(self, label: str):
        """Bracket one set-up or one pass; spans and counts inside belong to it."""
        first = len(self.names)
        self.counts.append({})
        try:
            yield
        finally:
            self.passes.append((label, first, len(self.names)))

    @contextmanager
    def untraced(self):
        """Run output checks without recording their calls."""
        prev, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = prev

    # ---------- reading ----------

    def phase_summary(self, i: int) -> dict:
        """Span time per name (outermost calls), self time and counts of one phase."""
        _, lo, hi = self.passes[i]
        total: dict[str, float] = {}
        child_ns = [0] * (hi - lo)
        for s in range(lo, hi):
            dur = self.ends[s] - self.starts[s]
            p = self.parents[s]
            if p >= lo:
                child_ns[p - lo] += dur
            if p < lo or self.names[p] != self.names[s]:
                total[self.names[s]] = total.get(self.names[s], 0.0) + dur * 1e-9
        counts = dict(self.counts[i], **{"inn.stage2.exact": 0, "inn.stage2.tree": 0})
        stage2 = {"core.brute_force_opt": "inn.stage2.exact",
                  "treesolve.tree_labeling_solve": "inn.stage2.tree"}
        descend = 0.0
        for s in range(lo, hi):
            name, p = self.names[s], self.parents[s]
            if name == "treesolve.tree_labeling_solve":
                descend += (self.ends[s] - self.starts[s] - child_ns[s - lo]) * 1e-9
            if p >= lo and self.names[p] == "inn.inn_solve" and name in stage2:
                counts[stage2[name]] += 1
        total["treesolve.descend"] = descend
        return {"time": total, "counts": counts}

    def dump(self, path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "phases": [{"label": lab, "first_span": lo, "end_span": hi, "counts": c}
                       for (lab, lo, hi), c in zip(self.passes, self.counts)],
            "spans": {"name": self.names, "parent": self.parents,
                      "start_ns": self.starts, "end_ns": self.ends},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
