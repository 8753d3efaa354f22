"""Spans around the calls into each knotupsilon layer, recorded from outside.

install() replaces each traced function in every knotupsilon namespace
that binds it (and each traced method on its class), so a call is caught
where it is looked up; uninstall() puts the originals back.  A span is
[name, start, end, parent, job, covered, raised]: covered is the time
taken by its child spans and by aggregated leaf calls, so
self time = end - start - covered.

The GF(2) echelon methods run hundreds of thousands of times per pass.
They are counted and timed as leaf calls charged to the enclosing span
instead of being stored one span each.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute or Class.method, span name)
TARGETS = [
    ("knots", "torus_knot_complex", "knots.build"),
    ("knots", "figure_eight_complex", "knots.build"),
    ("knots", "staircase", "knots.build"),
    ("knots", "unknot_complex", "knots.build"),
    ("knots", "box_complex", "knots.build"),
    ("knots", "builtin_record", "knots.build"),
    ("knots", "KnotRecord.upsilon_function", "knots.upsilon_function"),
    ("complexes", "tensor", "complexes.tensor"),
    ("complexes", "validate", "complexes.validate"),
    ("complexes", "complex_to_json", "complexes.json"),
    ("complexes", "complex_to_json_dict", "complexes.json"),
    ("complexes", "complex_from_json", "complexes.json"),
    ("complexes", "complex_from_json_dict", "complexes.json"),
    ("engine", "nu_at", "engine.nu_at"),
    ("engine", "upsilon", "engine.upsilon"),
    ("engine", "tau", "engine.tau"),
    ("engine", "jump_report", "engine.jump_report"),
    ("gf2", "kernel_basis", "gf2.kernel"),
    ("plfunction", "PLFunction.__init__", "plfunction.construct"),
    ("plfunction", "PLFunction.__call__", "plfunction.eval"),
    ("plfunction", "PLFunction.__add__", "plfunction.op"),
    ("plfunction", "PLFunction.__neg__", "plfunction.op"),
    ("plfunction", "PLFunction.__sub__", "plfunction.op"),
    ("plfunction", "PLFunction.__eq__", "plfunction.op"),
    ("plfunction", "PLFunction.segments", "plfunction.op"),
    ("plfunction", "PLFunction.slope_intervals", "plfunction.op"),
    ("plfunction", "PLFunction.to_json_dict", "plfunction.op"),
    ("plfunction", "PLFunction.sample_rows", "plfunction.op"),
    ("certificates", "certify_right_veering", "certificates.call"),
    ("certificates", "classify_tightness", "certificates.call"),
    ("certificates", "obstruct_concordance", "certificates.call"),
    ("certificates", "ribbon_minimality_report", "certificates.call"),
    ("cli", "main", "cli.main"),
]
LEAVES = [("gf2", "BitEchelon.add", "gf2.echelon_add"),
          ("gf2", "BitEchelon.reduce", "gf2.echelon_reduce")]

NAME, START, END, PARENT, JOB, COVERED, RAISED = range(7)


class Tracer:
    """Spans of one process, kept in memory until write()."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.leaf_calls = {name: 0 for _, _, name in LEAVES}
        self.leaf_s = 0.0
        self._leaf_depth = 0
        self._undo = []

    # -- installing wrappers

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "knotupsilon" or n.startswith("knotupsilon.")]
        for mod, attr, name in TARGETS:
            owner = sys.modules["knotupsilon." + mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._span(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._span(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for mod, attr, name in LEAVES:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules["knotupsilon." + mod], cls_name)
            self._patch(cls, meth, self._leaf(name, getattr(cls, meth)))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _patch(self, owner, key, wrapper):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    0.0, False]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]][COVERED] += span[END] - span[START]
        return wrapper

    def _leaf(self, name, fn):
        spans, stack, calls = self.spans, self.stack, self.leaf_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self._leaf_depth = 0
                self.leaf_s += took
                if stack:
                    spans[stack[-1]][COVERED] += took
        return wrapper

    # -- reading the record

    def snapshot(self):
        """Position to measure a later window from."""
        return len(self.spans), dict(self.leaf_calls), self.leaf_s

    def layer_metrics(self, since):
        """Per-layer counts and times of the spans recorded after `since`."""
        first, calls0, leaf0 = since
        spans = self.spans[first:]
        by_index = {first + k: s for k, s in enumerate(spans)}

        def outermost(names):
            # indices of spans with these names not nested in another of them
            out = []
            for k, s in enumerate(spans, first):
                if s[NAME] not in names:
                    continue
                p = s[PARENT]
                while p in by_index and by_index[p][NAME] not in names:
                    p = by_index[p][PARENT]
                if p not in by_index:
                    out.append(k)
            return out

        def inclusive(names):
            picked = outermost(names)
            return len(picked), sum(by_index[k][END] - by_index[k][START]
                                    for k in picked)

        def count(name):
            return sum(1 for s in spans if s[NAME] == name)

        def self_time(prefix):
            return sum(s[END] - s[START] - s[COVERED] for s in spans
                       if s[NAME].startswith(prefix))

        # nu_at time under each span, and which spans reach nu_at at all
        nu_below, reaches_nu = {}, set()
        for s in spans:
            if s[NAME] == "engine.nu_at":
                parent = by_index.get(s[PARENT])
                if parent is not None and parent[NAME] == "engine.upsilon":
                    nu_below[s[PARENT]] = (nu_below.get(s[PARENT], 0.0)
                                           + s[END] - s[START])
                p = s[PARENT]
                while p in by_index:
                    reaches_nu.add(p)
                    p = by_index[p][PARENT]
        ups = outermost({"engine.upsilon", "knots.upsilon_function"})
        ups_self = sum(s[END] - s[START] - nu_below.get(k, 0.0)
                       for k, s in by_index.items()
                       if s[NAME] == "engine.upsilon")
        builds, build_s = inclusive({"knots.build"})
        tensors, tensor_s = inclusive({"complexes.tensor"})
        nu_calls, nu_s = inclusive({"engine.nu_at"})
        kernels, kernel_s = inclusive({"gf2.kernel"})
        jumps = [s for s in spans if s[NAME] == "engine.jump_report"]
        calls = {k: v - calls0[k] for k, v in self.leaf_calls.items()}
        return {
            "knots.build_calls": builds,
            "knots.build_s": build_s,
            "complexes.tensor_calls": tensors,
            "complexes.tensor_s": tensor_s,
            "complexes.validate_s": inclusive({"complexes.validate"})[1],
            "complexes.json_s": inclusive({"complexes.json"})[1],
            "engine.nu_at_calls": nu_calls,
            "engine.nu_at_s": nu_s,
            "engine.upsilon_calls": len(ups),
            "engine.upsilon_self_s": ups_self,
            "engine.upsilon_cache_hits": sum(
                1 for k in ups
                if k not in reaches_nu and not by_index[k][RAISED]),
            "engine.tau_s": inclusive({"engine.tau"})[1],
            "engine.jump_report_s": sum(s[END] - s[START] for s in jumps),
            "engine.jump_report_failures": sum(1 for s in jumps if s[RAISED]),
            "gf2.echelon_adds": calls["gf2.echelon_add"],
            "gf2.echelon_reduces": calls["gf2.echelon_reduce"],
            "gf2.echelon_s": self.leaf_s - leaf0,
            "gf2.kernel_calls": kernels,
            "gf2.kernel_s": kernel_s,
            "plfunction.constructs": count("plfunction.construct"),
            "plfunction.evals": count("plfunction.eval"),
            "plfunction.self_s": self_time("plfunction."),
            "certificates.calls": count("certificates.call"),
            "certificates.self_s": self_time("certificates."),
            "cli.main_s": inclusive({"cli.main"})[1],
            "trace.spans": len(spans),
        }

    def write(self, path):
        """One JSON array per line, after a header line naming the fields;
        a span's id is its line number less two, and parent -1 is none."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "job",
                                 "self_s", "raised"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT],
                                     s[JOB], s[END] - s[START] - s[COVERED],
                                     s[RAISED]]) + "\n")
