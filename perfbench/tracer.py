"""Span tracer for the benchmark's traced run.

It wraps public entry points of hilbcert's layers by rebinding them from
outside: every module attribute that holds the original function (modules
import each other's functions by name) and the class attribute for methods.
Spans (id, parent, input id, name, start, end, work count) stay in memory
and are written out once the run ends.  The leaf layers `rings`, `modules`
and `fields` are not wrapped: they take millions of calls, so their time
stays in the self time of whichever wrapped caller reached them.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "verdict"


def _rref_cells(args, kwargs, result, before):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return len(rows) * ncols


def _syzygies_before(args, kwargs):
    return sum(1 for s in args[0].syzygies if s)


def _syzygies_kept(args, kwargs, result, before):
    # work = (transcript syzygies, kept syzygies)
    return (before, len(args[0].syzygies))


def wrapped_entry_points():
    """(span name, owner, attribute, before, after) for every wrapped call.
    `before`/`after` optionally record a work count on the span."""
    from hilbcert import artinian, certify, groebner, homology, linalg, parsing, search

    return [
        ("parsing.parse", parsing, "parse_ideal_file", None, None),
        ("search.candidate", search, "random_candidate", None, None),
        ("certify.cert", certify, "elementary_certificate", None, None),
        ("certify.cert", certify, "pair_certificate", None, None),
        ("groebner.ideal", groebner.IdealPresentation, "__init__", None, None),
        ("groebner.engine", groebner.ModuleGroebner, "__init__", None, None),
        ("groebner.trim", groebner.IdealPresentation, "trim_syzygies",
         _syzygies_before, _syzygies_kept),
        ("groebner.normal_form", groebner, "vector_normal_form", None, None),
        ("artinian.quotient", artinian.ArtinianQuotient, "__init__", None, None),
        ("artinian.poly_matrix", artinian.FiniteModule, "poly_matrix", None, None),
        ("homology.hom", homology, "hom_space", None, None),
        ("homology.ext1", homology, "ext1_space", None, None),
        ("homology.ext1", homology, "ext1_generic", None, None),
        ("homology.t2", homology, "t2_space", None, None),
        ("homology.diagram", homology, "diagram_maps", None, None),
        ("homology.evaluate", homology, "evaluate", None, None),
        ("linalg.rref", linalg, "rref", None, _rref_cells),
        ("linalg.matvec", linalg, "matvec", None, None),
    ]


class Tracer:
    def __init__(self):
        # span: [id, parent, input, name, start, end, work]
        self.spans = []
        self._stack = []
        self._open = set()
        self._restore = []
        self.input_id = None

    # -- installing --------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hilbcert" or n.startswith("hilbcert.")]
        for name, owner, attr, before, after in wrapped_entry_points():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, before, after)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._open:
                # same-named span already open (ext1_space -> ext1_generic)
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            span = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(span, name)
            if after:
                span[6] = after(args, kwargs, result, pre)
            return result

        return traced

    def _begin(self, name):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self.input_id, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        self._open.add(name)
        span[4] = perf_counter()
        return span

    def _end(self, span, name):
        span[5] = perf_counter()
        self._stack.pop()
        self._open.discard(name)

    @contextmanager
    def root(self, input_id):
        """The span covering one input's verdict."""
        self.input_id = input_id
        span = self._begin(ROOT_SPAN)
        try:
            yield span
        finally:
            self._end(span, ROOT_SPAN)
            self.input_id = None

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "input", "name", "start", "end", "work"), s
                ))) + "\n")


# -- per-layer metrics ---------------------------------------------------------

LAYERS = ("parsing", "search", "certify", "groebner", "artinian", "homology",
          "linalg", ROOT_SPAN)
TIMED = {
    "linalg.rref_s": "linalg.rref",
    "linalg.matvec_s": "linalg.matvec",
    "groebner.ideal_s": "groebner.ideal",
    "groebner.engine_s": "groebner.engine",
    "groebner.trim_s": "groebner.trim",
    "artinian.quotient_s": "artinian.quotient",
    "artinian.poly_matrix_s": "artinian.poly_matrix",
    "homology.hom_s": "homology.hom",
    "homology.ext1_s": "homology.ext1",
    "homology.t2_s": "homology.t2",
    "homology.diagram_s": "homology.diagram",
    "homology.evaluate_s": "homology.evaluate",
    "search.candidate_s": "search.candidate",
    "certify.cert_s": "certify.cert",
    "parsing.parse_s": "parsing.parse",
}


def layer_of(name):
    return name.split(".", 1)[0]


def per_input_counts(spans, input_id):
    """Exact work counts for one input; they repeat run to run."""
    by_id = {s[0]: s for s in spans}
    counts = {"rref_calls": 0, "rref_cells": 0, "engines": 0,
              "poly_matrix_calls": 0, "hom_calls": 0,
              "syz_transcript": 0, "syz_kept": 0}
    for s in spans:
        if s[2] != input_id:
            continue
        name = s[3]
        if name == "linalg.rref":
            counts["rref_calls"] += 1
            counts["rref_cells"] += s[6]
        elif name == "groebner.engine":
            counts["engines"] += 1
        elif name == "artinian.poly_matrix":
            counts["poly_matrix_calls"] += 1
        elif name == "groebner.trim":
            counts["syz_transcript"] += s[6][0]
            counts["syz_kept"] += s[6][1]
        elif name == "homology.hom":
            # Hom computations requested from outside the homology layer
            # (search, certify); those nested in Ext^1 or the diagram are
            # part of that computation
            parent = by_id.get(s[1])
            if parent is None or layer_of(parent[3]) != "homology":
                counts["hom_calls"] += 1
    return counts


def layer_metrics(spans, traced_inputs, counted_inputs, counts):
    """Per-verdict layer metrics.

    Times are means over `traced_inputs`; counts are means over
    `counted_inputs` (the first traced round, which is the same for a given
    seed however many rounds fit in the run).
    """
    n = len(traced_inputs)
    wanted = set(traced_inputs)
    spans = [s for s in spans if s[2] in wanted]
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
    total = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        duration = s[5] - s[4]
        total[s[3]] = total.get(s[3], 0.0) + duration
        self_time[layer_of(s[3])] += duration - child_time.get(s[0], 0.0)
    verdict_time = total.get(ROOT_SPAN, 0.0)
    out = {}
    for metric, name in TIMED.items():
        out[metric] = (total.get(name, 0.0) / n, "s/verdict")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_time[layer] / n, "s/verdict")
        share = 100.0 * self_time[layer] / verdict_time if verdict_time else 0.0
        out[f"{layer}.self_pct"] = (share, "%")
    m = len(counted_inputs)
    summed = {k: sum(counts[i][k] for i in counted_inputs) for k in counts[counted_inputs[0]]}
    out["linalg.rref_calls"] = (summed["rref_calls"] / m, "count/verdict")
    out["linalg.rref_cells"] = (summed["rref_cells"] / m, "count/verdict")
    out["groebner.engines"] = (summed["engines"] / m, "count/verdict")
    out["artinian.poly_matrix_calls"] = (summed["poly_matrix_calls"] / m, "count/verdict")
    out["homology.hom_calls_per_verdict"] = (summed["hom_calls"] / m, "count/verdict")
    ratio = (summed["syz_kept"] / summed["syz_transcript"]
             if summed["syz_transcript"] else 0.0)
    out["groebner.syz_kept_ratio"] = (ratio, "ratio")
    out["trace.spans"] = (len(spans) / n, "count/verdict")
    return out
