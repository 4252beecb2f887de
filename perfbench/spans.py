"""Span tracing of perronnet's layers from outside the package.

``Tracer.installed()`` replaces, for the duration of a ``with`` block,
the names that ``perronnet.cli`` and ``perronnet.recommend`` import from
the other modules with timing wrappers, so every call into a layer made
by the CLI or by the ranking code records a span: name, start, end,
parent span and operation id.  Per-edge helpers get a call count in
place of a span.  Spans stay in memory; ``write`` dumps them as one JSON
document.  A layer's self time is its span time minus the time of its
direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import perronnet.cli as cli
import perronnet.recommend as recommend

# (module, imported name) -> span name; perron spans split into cold/warm
SPANNED = {
    (cli, "load_multiplex"): "model.load",
    (cli, "load_multilayer"): "model.load",
    (cli, "supra_operator"): "model.operator",
    (recommend, "supra_operator"): "model.operator",
    (cli, "is_strongly_connected"): "model.connectivity",
    (recommend, "is_strongly_connected"): "model.connectivity",
    (recommend, "apply_edge_delta"): "model.mutation",
    (cli, "perron"): "eigen",
    (recommend, "perron"): "eigen",
    (cli, "structured_condition_number"): "sensitivity.structured_kappa",
    (cli, "sensitivity_matrix"): "sensitivity.matrix",
    (cli, "wilkinson"): "sensitivity.wilkinson",
    (cli, "first_order_delta_rho"): "sensitivity.first_order",
    (cli, "rank_insertions"): "recommend.insertions",
    (cli, "rank_removals"): "recommend.removals",
    (cli, "perturbation_experiment"): "recommend.experiment",
    (cli, "perron_communicability"): "communicability.report",
    (cli, "total_communicability0"): "communicability.total",
}
COUNTED = {
    (recommend, "sensitivity_entry"): "sensitivity.entry_calls",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    iterations: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[Counter] = []  # one Counter per operation
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self) -> int:
        self._op += 1
        self.counts.append(Counter())
        return self._op

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            label = name
            if name == "eigen":
                label = "eigen.warm" if kwargs.get("x0") is not None else "eigen.cold"
            with self.span(label) as rec:
                out = fn(*args, **kwargs)
                rec.iterations = getattr(out, "iterations", 0)
            return out
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[self._op][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for (mod, attr), name in table.items():
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, make(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def write(self, path) -> None:
        doc = {"spans": [asdict(s) for s in self.spans],
               "self_s": self.self_times(),
               "counts": [dict(c) for c in self.counts]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def layer_metrics(tracer: Tracer, ops, lines_per_load: int) -> dict:
    """Per-layer totals over the operations ``ops`` (one round)."""
    ops = set(ops)
    self_s = tracer.self_times()
    total = Counter()
    selft = Counter()
    calls = Counter()
    iters = Counter()
    for s, own in zip(tracer.spans, self_s):
        if s.op not in ops:
            continue
        total[s.name] += s.end - s.start
        selft[s.name] += own
        calls[s.name] += 1
        iters[s.name] += s.iterations
    entry_calls = sum(tracer.counts[op]["sensitivity.entry_calls"] for op in ops)
    load_s = total["model.load"]
    return {
        "model.load_s": load_s,
        "model.load_lines_per_s": lines_per_load * calls["model.load"] / load_s,
        "model.operator_s": total["model.operator"],
        "model.connectivity_s": total["model.connectivity"],
        "model.connectivity_calls": calls["model.connectivity"],
        "model.mutation_s": total["model.mutation"],
        "model.mutation_calls": calls["model.mutation"],
        "eigen.cold_s": total["eigen.cold"],
        "eigen.cold_iterations": iters["eigen.cold"],
        "eigen.warm_s": total["eigen.warm"],
        "eigen.warm_calls": calls["eigen.warm"],
        "eigen.warm_iterations": iters["eigen.warm"],
        "sensitivity.structured_kappa_s": total["sensitivity.structured_kappa"],
        "sensitivity.entry_calls": entry_calls,
        "recommend.removals_self_s": selft["recommend.removals"],
        "recommend.insertions_self_s": selft["recommend.insertions"],
        "recommend.experiment_self_s": selft["recommend.experiment"],
        "cli.self_s": selft["cli"],
    }
