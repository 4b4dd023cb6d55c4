"""Per-layer spans recorded around calls into hornlr's public functions.

`Tracer.install` replaces each function named in `LAYERS` by a wrapper
on every hornlr module that bound the name (``hornlr.spectra`` imports
``exact_spectrum`` from ``hornlr.graphs``, the package re-exports
everything), so calls between modules are seen too. A span is
``[layer, start, end, parent index]``; spans stay in memory and are
summarised when the round ends. Counts are taken from each call's
arguments and result, outside the span.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Optional

# (module, function, layer); a generator function gets one span per item.
LAYERS = [
    ("hornlr.graphs", "connected_bipartite_graphs", "graphs.enumerate"),
    ("hornlr.graphs", "line_graph", "graphs.line_graph"),
    ("hornlr.graphs", "char_poly_exact", "graphs.char_poly"),
    ("hornlr.graphs", "exact_spectrum", "graphs.exact_spectrum"),
    ("hornlr.graphs", "diameter", "graphs.diameter"),
    ("hornlr.graphs", "clique_number", "graphs.clique_number"),
    ("hornlr.spectra", "enumerate_p", "spectra.enumerate_p"),
    ("hornlr.spectra", "ramanujan_verdict", "spectra.ramanujan_verdict"),
    ("hornlr.spectra", "analyze_line_graph", "spectra.analyze"),
    ("hornlr.lr", "lr_positive", "lr.positive"),
    ("hornlr.lr", "lr_coefficient", "lr.coefficient"),
    ("hornlr.horn", "generate_t", "horn.generate_t"),
    ("hornlr.horn", "find_horn_violation", "horn.check"),
    ("hornlr.horn", "sample_necessity", "horn.sample"),
]
GENERATORS = {"graphs.enumerate"}

# Reported per layer: inclusive time ("s") or self time ("self_s").
TIMES = [
    ("graphs.enumerate", "s"),
    ("graphs.line_graph", "s"),
    ("graphs.char_poly", "s"),
    ("graphs.exact_spectrum", "self_s"),
    ("graphs.diameter", "s"),
    ("graphs.clique_number", "s"),
    ("spectra.enumerate_p", "s"),
    ("spectra.ramanujan_verdict", "self_s"),
    ("spectra.analyze", "self_s"),
    ("lr.positive", "s"),
    ("lr.coefficient", "s"),
    ("horn.generate_t", "s"),
    ("horn.check", "s"),
    ("horn.sample", "s"),
]
COUNTS = [
    "graphs.enumerate.graphs",
    "graphs.char_poly.calls",
    "graphs.char_poly.order_sum",
    "spectra.enumerate_p.calls",
    "spectra.enumerate_p.distinct",
    "spectra.enumerate_p.members",
    "lr.positive.calls",
    "lr.coefficient.calls",
    "horn.triples",
    "horn.check.calls",
    "horn.check.ineq_evaluated",
    "horn.sample.trials",
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._outer: list[bool] = []
        self._enum_p: dict = {}
        self._tables: dict = {}
        self._positions: dict = {}
        self.active = False
        self._originals: dict[str, Callable] = {}

    # -- recording

    def _begin(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._outer.append(self._open.get(layer, 0) == 0)
        self._open[layer] = self._open.get(layer, 0) + 1
        self._stack.append(idx)
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        return idx

    def _end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        count = getattr(self, "_count_" + layer.replace(".", "_"), None)

        if layer in GENERATORS:
            def traced_gen(*args: Any, **kwargs: Any):
                inner = fn(*args, **kwargs)
                if not self.active:
                    yield from inner
                    return
                while True:
                    idx = self._begin(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._end(idx)
                    count(args, item)
                    yield item

            return traced_gen

        def traced(*args: Any, **kwargs: Any):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if count is not None:
                count(args, result)
            return result

        return traced

    # -- counters, from arguments and results

    def _count_graphs_enumerate(self, args, result) -> None:
        self.counts["graphs.enumerate.graphs"] += 1

    def _count_graphs_char_poly(self, args, result) -> None:
        self.counts["graphs.char_poly.calls"] += 1
        self.counts["graphs.char_poly.order_sum"] += len(result) - 1

    def _count_spectra_enumerate_p(self, args, result) -> None:
        self.counts["spectra.enumerate_p.calls"] += 1
        self._enum_p[(result.alpha, result.beta)] = len(result.members)
        self.counts["spectra.enumerate_p.distinct"] = len(self._enum_p)
        self.counts["spectra.enumerate_p.members"] = sum(self._enum_p.values())

    def _count_lr_positive(self, args, result) -> None:
        self.counts["lr.positive.calls"] += 1

    def _count_lr_coefficient(self, args, result) -> None:
        self.counts["lr.coefficient.calls"] += 1

    def _count_horn_generate_t(self, args, result) -> None:
        self._tables[args[:2]] = len(result)
        self.counts["horn.triples"] = sum(self._tables.values())

    def _count_horn_check(self, args, result) -> None:
        self.counts["horn.check.calls"] += 1
        self.counts["horn.check.ineq_evaluated"] += self._inequalities_evaluated(len(args[0]), result)

    def _count_horn_sample(self, args, result) -> None:
        self.counts["horn.sample.trials"] += result.trials

    def _inequalities_evaluated(self, n: int, witness) -> int:
        """Position of the witness in the (r, lexicographic) scan of
        find_horn_violation, |T(n)| for a compatible triple, 0 when the
        trace condition failed first."""
        if witness == "trace":
            return 0
        if n not in self._positions:
            generate_t = self._originals["horn.generate_t"]
            order: dict = {}
            for r in range(1, n):
                for t in generate_t(n, r):
                    order[t] = len(order) + 1
            self._positions[n] = order
        order = self._positions[n]
        return len(order) if witness is None else order[witness]

    # -- installation

    def install(self) -> None:
        for module_name, attr, layer in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            self._originals[layer] = original
            wrapper = self._wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if name == "hornlr" or name.startswith("hornlr."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    # -- summary

    def layer_metrics(self, since: float) -> dict[str, float]:
        """Per-layer times plus the counters; `since` marks the start of
        the timed operations, for the covered share."""
        inclusive: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for (layer, start, end, parent), outer in zip(self.spans, self._outer):
            if parent is not None:
                child_time[parent] += end - start
            if outer:
                inclusive[layer] = inclusive.get(layer, 0.0) + end - start
        self_time: dict[str, float] = {}
        covered = 0.0
        for idx, (layer, start, end, parent) in enumerate(self.spans):
            self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[idx]
            if parent is None and start >= since:
                covered += end - start
        out: dict[str, float] = {}
        for layer, kind in TIMES:
            table = inclusive if kind == "s" else self_time
            out[f"{layer}.{kind}"] = table.get(layer, 0.0)
        out.update(self.counts)
        out["trace.covered_s"] = covered
        return out


def installed(active: bool) -> Optional[Tracer]:
    """A tracer wrapped around hornlr, recording from now on, or None."""
    if not active:
        return None
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    return tracer
