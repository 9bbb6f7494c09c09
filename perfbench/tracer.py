"""Spans and counters at the public-function boundaries of ``hopfcensus``.

``Tracer.install`` wraps, from outside the program:

* every public module-level function of ``groups``, ``fusion``, ``census``,
  ``hopfcore`` and ``cli``, plus ``HopfData.vec_mul`` and
  ``HopfData.tensor_mul``, in a span wrapper.  The wrapper replaces the
  module attribute and every other ``hopfcensus`` namespace that imported
  the same function, so calls between modules are seen too;
* every ``CycNumber`` operation and public ``cyclotomic`` function in a
  cheaper wrapper.  It counts operations and adds up the time of the
  outermost one, without one span per operation (there are millions).

A span is ``(id, parent, name, start, end, cyclotomic_s)``; spans stay in
memory until ``write_spans``.  A layer's self time is its spans' time minus
their child spans and the cyclotomic operations they ran directly, so the
six layer self times add up to the ``cli.run`` span exactly.
"""

from __future__ import annotations

import json
import types
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "census", "fusion", "hopfcore", "cyclotomic", "groups")
SPAN_MODULES = ("groups", "fusion", "census", "hopfcore", "cli")
SPAN_METHODS = (("hopfcore", "HopfData", "vec_mul"),
                ("hopfcore", "HopfData", "tensor_mul"))

# CycNumber operations by counter family; the rest count as "other".
CYC_KINDS = {"__add__": "add", "__radd__": "add", "__sub__": "add",
             "__rsub__": "add", "__mul__": "mul", "__rmul__": "mul",
             "inv": "inv", "__bool__": "bool"}
CYC_OTHER = ("__init__", "__neg__", "__truediv__", "__rtruediv__", "__pow__",
             "conjugate", "__eq__", "__hash__", "is_zero", "is_rational",
             "rational_value", "sort_key", "to_json", "__repr__")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [id, start, child_s, cyc_s]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.busy = Counter()        # span name -> inclusive seconds
        self.calls = Counter()
        self.counts = Counter()
        self.cyc_depth = 0
        self._active = Counter()     # span name -> open frames (recursion)

    # -- wrappers

    def _span(self, name, layer, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            label = name
            if label == "fusion.verify_fusion_datum" and \
                    tracer._active["fusion.search_fusion"]:
                label = "fusion.verify_fusion_datum.leaf"
            sid = len(tracer.spans)
            tracer.spans.append(None)
            frame = [sid, perf_counter(), 0.0, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            tracer._active[label] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._active[label] -= 1
                dur = end - frame[1]
                tracer.self_s[layer] += dur - frame[2] - frame[3]
                if stack:
                    stack[-1][2] += dur
                if not tracer._active[label]:
                    tracer.busy[label] += dur
                tracer.calls[label] += 1
                tracer.spans[sid] = (sid, parent, label, frame[1], end,
                                     frame[3])
            tracer._on_return(label, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cyc(self, fn, kind):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.cyc_depth:
                return fn(*args, **kwargs)
            if kind in ("add", "mul"):
                rational = all(getattr(x, "conductor", 1) == 1
                               for x in args[:2])
                counts[f"cyclotomic.{kind}."
                       f"{'rational' if rational else 'cyclotomic'}"] += 1
            else:
                counts[f"cyclotomic.{kind}.calls"] += 1
            tracer.cyc_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tracer.cyc_depth = 0
                tracer.self_s["cyclotomic"] += dur
                if tracer.stack:
                    tracer.stack[-1][3] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_return(self, name, result):
        c = self.counts
        if name == "fusion.search_fusion":
            c["fusion.search.requested"] += 1
            c["fusion.search.nodes"] += result.nodes
            if result.status in ("feasible", "infeasible"):
                c["fusion.search.decided"] += 1
                c["fusion.search.nodes_to_verdict"] += result.nodes
            else:
                c["fusion.search.inconclusive"] += 1
        elif name == "census.enumerate_types":
            c["census.candidates"] += len(result.survivors) + \
                len(result.eliminated)
            c["census.survivors"] += len(result.survivors)
            c["census.oracle_requests"] += len(result.oracle)
            for e in result.eliminated:
                c[f"census.kills.{e.rule}"] += 1

    # -- installation

    def install(self, package) -> None:
        """Wrap the public functions of ``package`` (``hopfcensus``)."""
        mods = {name: getattr(package, name)
                for name in ("cyclotomic",) + SPAN_MODULES}
        replaced = {}
        for layer in SPAN_MODULES:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and \
                        not name.startswith("_") and \
                        obj.__module__ == mod.__name__:
                    replaced[obj] = self._span(f"{layer}.{name}", layer, obj)
        cyc = mods["cyclotomic"]
        for name, obj in list(vars(cyc).items()):
            if isinstance(obj, types.FunctionType) and \
                    not name.startswith("_") and obj.__module__ == cyc.__name__:
                replaced[obj] = self._cyc(obj, "other")
        for mod in list(mods.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(mod, name, replaced[obj])
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(mods[layer], cls_name)
            setattr(cls, meth, self._span(f"{layer}.{meth}", layer,
                                          getattr(cls, meth)))
        number = cyc.CycNumber
        for meth, kind in list(CYC_KINDS.items()) + \
                [(m, "other") for m in CYC_OTHER]:
            setattr(number, meth, self._cyc(number.__dict__[meth], kind))
        for meth in ("from_rational", "root_of_unity", "from_json"):
            fn = number.__dict__[meth].__func__
            setattr(number, meth, staticmethod(self._cyc(fn, "other")))

    # -- output

    def summary(self) -> dict:
        return {"self_s": self.self_s, "busy_s": dict(self.busy),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def write_spans(self, path: str, command_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command": command_id,
                       "fields": ["id", "parent", "name", "start", "end",
                                  "cyclotomic_s"],
                       "spans": self.spans}, fh)
