"""Spans around calls into pivotlex's layers, for the traced run.

The traced run wraps two kinds of call: the public functions the
benchmark calls itself (Tracer.call), and the public functions that
pivotlex.pipeline and pivotlex.evaluation call, which Tracer.patched
rebinds in the calling module and restores afterwards. A span keeps its
name, start, end, parent span and the transgraph id of its arguments, if
one has one. Spans stay in memory until the run writes them out.

A name that no longer exists is listed in Tracer.missing and reports zero
calls; one that is no longer called simply has no spans.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType


class Span:
    __slots__ = ("name", "start", "end", "parent", "tg")

    def __init__(self, name: str, start: float, parent: int, tg: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tg = tg


def _tg_id(args) -> int | None:
    for arg in args:
        if type(arg).__name__ == "Transgraph":
            return arg.id
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1, _tg_id(args))
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def call(self, name: str, fn, *args, count=None, **kwargs):
        return self.wrap(name, fn, count)(*args, **kwargs)

    @contextmanager
    def patched(self, module: ModuleType, names: dict[str, tuple[str, object]]):
        """Rebind module.<attr> to a traced wrapper for the duration."""
        saved = {}
        for attr, (span_name, count) in names.items():
            if not hasattr(module, attr):
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            saved[attr] = getattr(module, attr)
            setattr(module, attr, self.wrap(span_name, saved[attr], count))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "transgraph"],
                    "spans": [
                        [s.name, round(s.start - t0, 7), round(s.end - t0, 7), s.parent, s.tg]
                        for s in self.spans
                    ],
                    "counts": dict(self.counts),
                    "missing": self.missing,
                },
                f,
            )


def counter(key: str, n_of):
    """A span counter adding n_of(args, result) to counts[key]."""
    def count(counts, args, result):
        counts[key] += n_of(args, result)

    return count


def _formula(counts, args, result):
    if result is not None:
        counts["encoding.formulas"] += 1
        counts["encoding.clauses"] += result.nclauses


# pivotlex.pipeline's module-level names: attr -> (span name, counter)
PIPELINE_CALLS = {
    "compute_tables": ("heuristics.compute_tables", None),
    "generate_candidates": (
        "heuristics.generate_candidates",
        counter("heuristics.candidates", lambda args, r: len(r)),
    ),
    "compute_cognate_probabilities": ("heuristics.compute_cognate_probabilities", None),
    "compute_edge_cost": ("heuristics.compute_edge_cost", None),
    "add_new_edges": (
        "transgraph.add_new_edges",
        counter("transgraph.edges_added", lambda args, r: len(r.edges) - len(args[0].edges)),
    ),
    "encode_cognate_cnf": ("encoding.encode_cognate_cnf", _formula),
    "encode_synonym_cnf": ("encoding.encode_synonym_cnf", _formula),
    "update_after_acceptance": (
        "encoding.update_after_acceptance",
        counter("pipeline.acceptances", lambda args, r: 1),
    ),
    "solve": ("solver.solve", None),
    "run_cycles": ("pipeline.run_cycles", None),
    "run_cognate_stage": ("pipeline.run_cognate_stage", None),
    "run_synonym_stage": ("pipeline.run_synonym_stage", None),
}

EVALUATION_CALLS = {
    "induce_on_transgraphs": ("pipeline.induce_on_transgraphs", None),
    "score": ("evaluation.score", None),
}

# layer metric -> the span names whose self time it sums
SELF_TIME = {
    "lexicon.parse_s": ("lexicon.parse_dictionary", "lexicon.parse_gold_standard"),
    "lexicon.write_s": ("lexicon.write_result_pairs",),
    "transgraph.build_s": ("transgraph.build_transgraphs", "transgraph.filter_big"),
    "transgraph.grow_s": ("transgraph.add_new_edges",),
    "heuristics.score_s": (
        "heuristics.compute_tables",
        "heuristics.generate_candidates",
        "heuristics.compute_cognate_probabilities",
        "heuristics.compute_edge_cost",
    ),
    "encoding.encode_s": ("encoding.encode_cognate_cnf", "encoding.encode_synonym_cnf"),
    "encoding.update_s": ("encoding.update_after_acceptance",),
    "solver.solve_s": ("solver.solve",),
    "pipeline.cycles_s": ("pipeline.run_cycles",),
    "pipeline.cognate_stage_s": ("pipeline.run_cognate_stage",),
    "pipeline.synonym_stage_s": ("pipeline.run_synonym_stage",),
    "evaluation.grid_s": ("evaluation.grid_search",),
    "evaluation.score_s": ("evaluation.score",),
}

COUNTS = (
    "lexicon.entries",
    "lexicon.pairs_written",
    "transgraph.edges_added",
    "heuristics.candidates",
    "encoding.formulas",
    "encoding.clauses",
    "pipeline.acceptances",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, counts and solver call statistics."""
    own = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    for s, t in zip(tracer.spans, own):
        by_name[s.name] += t
    out: dict[str, float] = {m: sum(by_name[n] for n in names) for m, names in SELF_TIME.items()}
    out.update({k: tracer.counts.get(k, 0) for k in COUNTS})
    calls = [(s.end - s.start) * 1000 for s in tracer.spans if s.name == "solver.solve"]
    out["solver.calls"] = len(calls)
    out["solver.call_p50_ms"] = statistics.median(calls) if calls else 0.0
    out["solver.call_p99_ms"] = percentile(calls, 0.99)
    acceptances = out["pipeline.acceptances"]
    out["solver.calls_per_acceptance"] = len(calls) / acceptances if acceptances else 0.0
    grid = {i for i, s in enumerate(tracer.spans) if s.name == "evaluation.grid_search"}
    out["evaluation.probe_s"] = sum(
        s.end - s.start
        for s in tracer.spans
        if s.name == "pipeline.induce_on_transgraphs" and s.parent in grid
    )
    out["evaluation.score_calls"] = sum(1 for s in tracer.spans if s.name == "evaluation.score")
    return out
