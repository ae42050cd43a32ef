"""Spans around the public entry points of bifurcbox's modules, installed
from outside the package.

Each wrapped name is replaced at the module where its caller looks it up
(``bifurcbox.cli.find_group``, ``bifurcbox.pdeverify.solve_branch``, the
methods of ``ReducedFunctional``), and put back by ``Tracer.uninstall``.
A span is (trace id, span id, parent id, name, start, end); one CLI call
is one trace.  Spans stay in memory until ``write_spans``.  The reduced
functional's evaluators run hundreds of thousands of times per pass, so
they are leaf counters: their calls and time are summed, and charged to
the enclosing span as child time, but they record no span.

The layer of a span is the first part of its name; a layer's self time is
the time of its spans minus the time covered by their child spans, so the
self times of all layers add up to the time of the ``cli.main`` spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "spectrum", "reduced", "critpoints", "pdeverify")

UNITS = {  # every per-layer metric of a traced run, with its unit
    "cli.import_s": "s", "cli.self_s": "s", "cli.report_bytes": "bytes",
    "spectrum.s": "s", "spectrum.calls": "count",
    "reduced.build_s": "s", "reduced.evals": "count", "reduced.eval_s": "s",
    "reduced.self_s": "s",
    "critpoints.search_s": "s", "critpoints.seeds": "count",
    "critpoints.seeds_failed": "count", "critpoints.pairs": "count",
    "critpoints.seed_yield": "pairs/seed", "critpoints.predict_s": "s",
    "critpoints.oracle_s": "s", "critpoints.self_s": "s",
    "pdeverify.build_s": "s", "pdeverify.newton_s": "s", "pdeverify.solves": "count",
    "pdeverify.solves_failed": "count", "pdeverify.newton_steps": "count",
    "pdeverify.morse_s": "s", "pdeverify.morse_calls": "count",
    "pdeverify.morse_deferred": "count", "pdeverify.continuation_self_s": "s",
    "pdeverify.self_s": "s",
    "trace.layers_s": "s", "trace.untraced_run_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._trace_id = 0
        self._next_span = 0
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, leaf: bool = False, on_result=None, on_error=None):
        """``fn`` inside a span called ``name``.  ``on_result(counts,
        result)`` and ``on_error(counts, exc)`` update the counters."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            if parent is None:
                self._trace_id += 1
            self._next_span += 1
            frame = [self._next_span, 0.0]  # span id, time of child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if not leaf:
                    self.spans.append((self._trace_id, frame[0],
                                       None if parent is None else parent[0],
                                       name, start, end))
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by its traced version until uninstall."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(self.wrap(original.__func__, name, **hooks)))
        else:
            setattr(owner, attr, self.wrap(original, name, **hooks))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_self_s(self, layer: str) -> float:
        return sum(t for n, t in self.self_s.items() if n.split(".")[0] == layer)

    def write_spans(self, path, label: str) -> None:
        with open(path, "a") as fh:
            for trace_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"pass": label, "trace": trace_id, "span": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _count_search(counts, result):
    points, diagnostics = result
    counts["critpoints.seeds"] += diagnostics.n_seeds
    counts["critpoints.seeds_failed"] += diagnostics.n_failed
    counts["critpoints.pairs"] += len(points)


def _count_newton(counts, record):
    counts["pdeverify.newton_steps"] += len(record.residual_history) - 1


def _count_newton_failure(counts, exc):
    counts["pdeverify.solves_failed"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the cross-module entry points of bifurcbox."""
    from bifurcbox import cli, pdeverify
    from bifurcbox.errors import SpectrumTooClose
    from bifurcbox.reduced import ReducedFunctional

    def count_morse_deferral(counts, exc):
        if isinstance(exc, SpectrumTooClose):
            counts["pdeverify.morse_deferred"] += 1

    tracer.patch(cli, "find_group", "spectrum.find_group")
    tracer.patch(cli, "enumerate_groups", "spectrum.enumerate_groups")
    tracer.patch(pdeverify, "enumerate_modes", "spectrum.enumerate_modes")
    tracer.patch(pdeverify, "eigenfunction_eval", "spectrum.eigenfunction_eval")
    tracer.patch(ReducedFunctional, "for_group", "reduced.for_group")
    for method in ("value", "gradient", "hessian", "gradient_many"):
        tracer.patch(ReducedFunctional, method, "reduced.eval", leaf=True)
    tracer.patch(cli, "find_critical_points_with_diagnostics", "critpoints.search",
                 on_result=_count_search)
    tracer.patch(cli, "predict_branches", "critpoints.predict")
    tracer.patch(cli, "brute_force_oracle", "critpoints.oracle")
    tracer.patch(cli, "pair_set_distance", "critpoints.pair_set_distance")
    tracer.patch(cli, "build_laplacian", "pdeverify.build")
    tracer.patch(cli, "continuation_run", "pdeverify.continuation")
    tracer.patch(pdeverify, "solve_branch", "pdeverify.newton",
                 on_result=_count_newton, on_error=_count_newton_failure)
    tracer.patch(pdeverify, "discrete_morse_index", "pdeverify.morse",
                 on_error=count_morse_deferral)


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pass.  ``*_s`` named after a
    function are inclusive span times; ``*.self_s`` are layer self times."""
    c, t = tracer.counts, tracer.total_s
    seeds = c["critpoints.seeds"]
    return {
        "cli.self_s": tracer.layer_self_s("cli"),
        "cli.report_bytes": report_bytes,
        "spectrum.s": tracer.layer_self_s("spectrum"),
        "spectrum.calls": sum(n for name, n in tracer.calls.items()
                              if name.startswith("spectrum.")),
        "reduced.build_s": t["reduced.for_group"],
        "reduced.evals": tracer.calls["reduced.eval"],
        "reduced.eval_s": t["reduced.eval"],
        "reduced.self_s": tracer.layer_self_s("reduced"),
        "critpoints.search_s": t["critpoints.search"],
        "critpoints.seeds": seeds,
        "critpoints.seeds_failed": c["critpoints.seeds_failed"],
        "critpoints.pairs": c["critpoints.pairs"],
        "critpoints.seed_yield": c["critpoints.pairs"] / seeds if seeds else 0.0,
        "critpoints.predict_s": t["critpoints.predict"],
        "critpoints.oracle_s": t["critpoints.oracle"],
        "critpoints.self_s": tracer.layer_self_s("critpoints"),
        "pdeverify.build_s": t["pdeverify.build"],
        "pdeverify.newton_s": t["pdeverify.newton"],
        "pdeverify.solves": tracer.calls["pdeverify.newton"],
        "pdeverify.solves_failed": c["pdeverify.solves_failed"],
        "pdeverify.newton_steps": c["pdeverify.newton_steps"],
        "pdeverify.morse_s": t["pdeverify.morse"],
        "pdeverify.morse_calls": tracer.calls["pdeverify.morse"],
        "pdeverify.morse_deferred": c["pdeverify.morse_deferred"],
        "pdeverify.continuation_self_s": tracer.self_s["pdeverify.continuation"],
        "pdeverify.self_s": tracer.layer_self_s("pdeverify"),
        "trace.layers_s": sum(tracer.layer_self_s(layer) for layer in LAYERS),
    }
