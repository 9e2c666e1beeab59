"""Spans around calls into the program, kept in memory and written at the end.

Used only by the traced run.  ``Tracer.patch`` replaces a public function
(or a method reached only through another layer, such as
``PlanarTree.canonical`` inside ``PhyloTree.make``) with a wrapper that
records (name, start, end, parent span, operation, measure).  The untraced
run never imports this module.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable

Measure = Callable[[tuple, dict, Any], Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1

    def patch(self, owner: Any, attr: str, name: str,
              measure: Measure | None = None, static: bool = False) -> None:
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = [name, t0, t1, parent, tracer.op, None]
            if measure is not None:
                tracer.spans[idx][5] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def begin_op(self, name: str) -> None:
        """Open the root span of one operation; its layer spans nest under it."""
        self.op += 1
        self.stack.append(len(self.spans))
        self.spans.append(["op." + name, time.perf_counter(), None, -1, self.op, None])

    def end_op(self) -> None:
        idx = self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (duration minus child spans)
        and the list of measures."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0 and t1 is not None:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for k, (name, t0, t1, _, _, m) in enumerate(self.spans):
            if t1 is None:
                continue
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "measures": []})
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[k]
            if m is not None:
                agg["measures"].append(m)
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, operation
        index and measure (null when there is none or it is not JSON)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, t0, t1, parent, op, m = span
                if t1 is None:
                    continue
                try:
                    line = json.dumps([name, t0, t1, parent, op, m])
                except TypeError:   # expm keys hold bytes
                    line = json.dumps([name, t0, t1, parent, op, None])
                fh.write(line + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of every ``phylo`` module already
    imported, so a workload that never imports numpy stays without it."""
    from phylo import newick, operads, treespace, trees

    tracer.patch(newick, "parse_newick", "newick.parse",
                 lambda a, k, r: len(a[0]))
    tracer.patch(newick, "serialize_newick", "newick.serialize")
    tracer.patch(trees.PlanarTree, "canonical", "trees.canonical",
                 lambda a, k, r: a[0].n + a[0].num_vertices)
    tracer.patch(operads.PhyloTree, "make", "operads.make", static=True)
    tracer.patch(operads, "phylo_compose", "operads.compose",
                 lambda a, k, r: r.n)
    tracer.patch(operads, "phylo_act", "operads.act")
    tracer.patch(operads, "normal_form", "operads.normal_form",
                 lambda a, k, r: a[0].shape.num_vertices - r.shape.num_vertices)
    tracer.patch(treespace, "bhv_distance", "treespace.distance")
    tracer.patch(treespace, "decompose", "treespace.decompose")
    if "phylo.coalgebra" in sys.modules:
        from phylo import coalgebra, markov

        def expm_key(a, k, r):
            return (a[0].H.tobytes(), float(a[1]))

        # evaluate reaches expm through its own module-level name
        tracer.patch(markov, "expm", "markov.expm", expm_key)
        tracer.patch(coalgebra, "expm", "markov.expm", expm_key)
        tracer.patch(markov, "limit_operator", "markov.limit")
        tracer.patch(markov, "simulate_branching", "markov.simulate",
                     lambda a, k, r: k["samples"])

        def entries(a, k, r):
            s, n = a[1].size, a[0].n
            return (s ** n * s, s ** n, n, s)

        tracer.patch(coalgebra, "evaluate", "coalgebra.evaluate", entries)
        tracer.patch(coalgebra, "evaluate_extended", "coalgebra.evaluate", entries)


def layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics from ``Tracer.totals``: calls, self time and the
    work counts each layer's measure gives."""
    out: dict[str, float] = {}
    for name, agg in totals.items():
        if name.startswith("op."):
            continue
        out[name + ".calls"] = agg["calls"]
        out[name + ".busy_s"] = agg["self_s"]
    m = {name: agg["measures"] for name, agg in totals.items()}
    if "newick.parse" in m:
        out["newick.parse.bytes"] = sum(m["newick.parse"])
    if "trees.canonical" in m:
        out["trees.canonical.nodes"] = sum(m["trees.canonical"])
    if "operads.normal_form" in m:
        out["operads.normal_form.steps"] = sum(m["operads.normal_form"])
    if "markov.expm" in m:
        keys = m["markov.expm"]
        out["markov.expm.distinct_ratio"] = len(set(keys)) / len(keys)
    if "markov.simulate" in m:
        out["markov.simulate.samples"] = sum(m["markov.simulate"])
    if "coalgebra.evaluate" in m:
        op_entries = sum(e[0] for e in m["coalgebra.evaluate"])
        leaf_entries = sum(e[1] for e in m["coalgebra.evaluate"])
        out["coalgebra.operator_entries"] = op_entries
        out["coalgebra.output_entries"] = leaf_entries
        # computed from array sizes: the float64 operator and leaf tensor
        out["coalgebra.bytes_computed"] = 8 * (op_entries + leaf_entries)
    return out
