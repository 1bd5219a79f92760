"""The full-grid threshold search: the reference for evaluation's breakpoint sweep.

full_sweep tallies every point of the 0.01 grid, cutting each transgraph's
unthresholded stage runs (Runs) at the point's thresholds with
pipeline._cut; evaluation._sweep yields only the points where a tally can
change, from the tally steps that evaluation._tally_steps builds, which
this module does not use. Its grid is global, past the costliest pair of
any run. A transgraph's share of its fold's totals is recounted only where
its cognate prefix grows, which keeps the reference fast enough to run on
every fold of every random fixture.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from pivotlex import pipeline
from pivotlex.evaluation import GridPoint, _metrics, score
from pivotlex.lexicon import PairSet
from pivotlex.pipeline import InducedPair, MethodDescriptor, _cut
from pivotlex.transgraph import Transgraph, TransgraphSet


class Runs:
    """One transgraph's unthresholded stage runs: the cognate run, and the
    synonym run after each of its prefixes, run once when first needed."""

    def __init__(
        self,
        cognates: tuple[InducedPair, ...],
        synonyms_after: Callable[[tuple[InducedPair, ...]], tuple[InducedPair, ...]],
    ):
        self.cognates = cognates
        self.synonyms_after = synonyms_after
        self._synonyms: dict[int, tuple[InducedPair, ...]] = {}  # by cognate prefix length

    def pairs(self, ct: float | None, st: float | None) -> tuple[InducedPair, ...]:
        """The pairs a run at thresholds (ct, st) accepts, in order."""
        cognates = _cut(self.cognates, ct)
        k = len(cognates)
        if k not in self._synonyms:
            self._synonyms[k] = self.synonyms_after(cognates)
        return cognates + _cut(self._synonyms[k], st)


def stage_runs(tg: Transgraph, descriptor: MethodDescriptor) -> Runs:
    """A transgraph's Runs over pipeline.run_graph, each stage called through pipeline's globals."""
    run = pipeline.run_graph(tg, descriptor)
    return Runs(run.cognates, run.synonyms_after)


def full_sweep(
    folds: Sequence[Sequence[Runs]], gold: PairSet, with_synonyms: bool
) -> Iterator[tuple[float, float | None, list[tuple[int, int]]]]:
    """(ct, st, [(pairs, gold pairs) per fold]) at every point of the 0.01 grid.

    The search order is evaluation._sweep's: the cognate axis runs past the
    costliest unthresholded acceptance of any run, the synonym axis (0..1 or
    None) varies fastest.
    """
    runs = [(f, run) for f, fold in enumerate(folds) for run in fold]
    top = max((p.cost for _, r in runs for p in r.pairs(None, None)), default=0.0)
    cognate_grid = [i / 100 for i in range(math.ceil(round(top * 100, 6)) + 2)]
    synonym_grid = [i / 100 for i in range(101)] if with_synonyms else [None]
    shares = [[(0, 0)] * len(synonym_grid) for _ in runs]
    prefixes = [-1] * len(runs)  # none counted yet
    totals = [[[0, 0] for _ in synonym_grid] for _ in folds]
    for ct in cognate_grid:
        for g, (f, run) in enumerate(runs):
            prefix = len(_cut(run.cognates, ct))
            if prefix == prefixes[g]:
                continue
            prefixes[g] = prefix
            kept = [run.pairs(ct, st) for st in synonym_grid]
            share = [(len(ps), sum(p.pair in gold.pairs for p in ps)) for ps in kept]
            for total, (size, hits), (old_size, old_hits) in zip(totals[f], share, shares[g]):
                total[0] += size - old_size
                total[1] += hits - old_hits
            shares[g] = share
        for s, st in enumerate(synonym_grid):
            yield ct, st, [(fold[s][0], fold[s][1]) for fold in totals]


def grid_points(
    tset: TransgraphSet,
    descriptor: MethodDescriptor,
    gold: PairSet,
    beta: float = 1.0,
) -> Iterator[GridPoint]:
    """Every point of the 0.01 grid with the metrics of a run there: a one-fold full_sweep."""
    score(PairSet(tset.lang_a, tset.lang_c, frozenset()), gold, beta)
    runs = [stage_runs(g, descriptor) for g in sorted(tset.graphs, key=lambda g: g.id)]
    for ct, st, ((size, hits),) in full_sweep([runs], gold, descriptor.synonyms):
        yield GridPoint(ct, st, _metrics(hits, size, len(gold.pairs), beta))


def reference_grid_search(
    tset: TransgraphSet,
    descriptor: MethodDescriptor,
    gold: PairSet,
    beta: float = 1.0,
) -> GridPoint:
    """The first F-maximum over every grid point: what grid_search must pick."""
    return max(grid_points(tset, descriptor, gold, beta), key=lambda p: p.metrics.f_score)
