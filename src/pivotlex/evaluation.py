"""Scoring against a gold standard, threshold search, cross-validation,
and the paired comparison test.

grid_search and cross_validate tally each transgraph's run (pipeline.run_graph) in steps
(_tally_steps); one sweep (_sweep) of the 0.01 grid's breakpoints serves search and folds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from . import pipeline
from .lexicon import PairSet
from .pipeline import GraphRun, InducedPair, MethodDescriptor
from .transgraph import Transgraph, TransgraphSet


class Metrics(NamedTuple):
    precision: float
    recall: float
    f_score: float
    beta: float = 1.0


def score(result: PairSet, gold: PairSet, beta: float = 1.0) -> Metrics:
    """Precision/recall/F over pair sets; empty result scores all zeros."""
    # `not <` also rejects NaN, which fails every comparison
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if (result.lang_a, result.lang_c) != (gold.lang_a, gold.lang_c):
        raise ValueError("result and gold use different language pairs")
    if not gold.pairs:
        raise ValueError("gold standard is empty")
    hits = len(result.pairs & gold.pairs)
    return _metrics(hits, len(result.pairs), len(gold.pairs), beta)


def _metrics(hits: int, size: int, gold_size: int, beta: float) -> Metrics:
    precision = hits / size if size else 0.0
    recall = hits / gold_size
    b2 = beta * beta
    denom = b2 * precision + recall
    f = (1 + b2) * precision * recall / denom if denom > 0 else 0.0
    return Metrics(precision, recall, f, beta)


class GridPoint(NamedTuple):
    cognate_threshold: float
    synonym_threshold: float | None
    metrics: Metrics


def _entries(accepted: Sequence[InducedPair], grid: Sequence[float]) -> list[int]:
    """Per acceptance, the first grid index past its running maximum cost (pipeline._cut)."""
    return list(accumulate((bisect_right(grid, p.cost) for p in accepted), max))


Steps = list[tuple[int, Counter]]  # (row, (column, in gold) -> pairs kept there)
_SYNONYM_GRID = [i / 100 for i in range(101)]


def _tally_steps(run: GraphRun, gold: PairSet) -> Steps:
    """At row 0 and each 0.01-grid row where the prefix of the run's cognates
    grows, the pairs a run there keeps at synonym threshold 1.0, by the
    column each enters at. Row 0's prefix is empty, as no cost is below 0,
    and a synonym run anchored on no cognate is empty, so it is not asked
    for. A grid reaching the costliest cognate gives every row its global index.
    """
    top = max((p.cost for p in run.cognates), default=0.0)
    rows = _entries(run.cognates, [i / 100 for i in range(math.ceil(round(top * 100, 6)) + 2)])
    steps = []
    for row in sorted({0, *rows}):
        prefix = run.cognates[: bisect_right(rows, row)]  # what a run at this row keeps
        synonyms = run.synonyms_after(prefix) if prefix else ()
        cols = [0] * len(prefix) + _entries(synonyms, _SYNONYM_GRID)
        hits = (p.pair in gold.pairs for p in prefix + synonyms)
        steps.append((row, Counter((c, hit) for c, hit in zip(cols, hits) if c <= 100)))
    return steps


def _sweep(
    folds: Sequence[Sequence[Steps]], with_synonyms: bool
) -> Iterator[tuple[float, float | None, list[tuple[int, int]]]]:
    """(ct, st, [(pairs, gold pairs) per fold]) at the breakpoints of the 0.01 grid.

    Each fold holds the Steps of each of its transgraphs; the synonym axis
    (0..1 or None) varies fastest. Tallies change only on a row where some
    transgraph steps and, in it, a column where a synonym prefix grows. Only
    those points and each row's first are yielded; every other repeats an
    earlier one, so a first maximum is always yielded. tests/grid_reference.py sweeps every point.
    """
    changes = {0: []}  # row -> [(fold, share before, share)] of the transgraphs stepping there
    for f, fold in enumerate(folds):
        for steps in fold:
            for (_, before), (row, share) in zip([(0, Counter())] + steps, steps):
                changes.setdefault(row, []).append((f, before, share))
    totals = [Counter() for _ in folds]  # per fold, the shares at the current row
    for row in sorted(changes):
        for f, before, share in changes[row]:
            totals[f].subtract(before)
            totals[f].update(share)
        sizes, hits = [0] * len(folds), [0] * len(folds)
        for col in sorted({col for t in totals for col, _ in +t} | {0}):
            for f, t in enumerate(totals):
                hits[f] += t[col, True]
                sizes[f] += t[col, False] + t[col, True]
            yield row / 100, col / 100 if with_synonyms else None, list(zip(sizes, hits))


def grid_search(
    tset: TransgraphSet,
    descriptor: MethodDescriptor,
    gold: PairSet,
    beta: float = 1.0,
) -> GridPoint:
    """Pick the thresholds maximizing F on a 0.01 grid (ties: smallest).

    The metrics are those of a run at the chosen thresholds: one sweep over
    each transgraph's tally steps scores the grid's breakpoints (_sweep)
    without a run per point, dropping each graph once its steps exist.
    """
    # fail on the inputs score rejects, before any work
    score(PairSet(tset.lang_a, tset.lang_c, frozenset()), gold, beta)
    steps = [_tally_steps(pipeline.run_graph(g, descriptor), gold) for g in tset.graphs]
    points = (
        GridPoint(ct, st, _metrics(hits, size, len(gold.pairs), beta))
        for ct, st, ((size, hits),) in _sweep([steps], descriptor.synonyms)
    )
    return max(points, key=lambda p: p.metrics.f_score)  # the first of equal maxima


class FoldPlan(NamedTuple):
    k: int
    folds: tuple[tuple[int, ...], ...]


def make_fold_plan(ids: Sequence[int], k: int) -> FoldPlan:
    """Contiguous folds over sorted ids, sizes differing by at most one."""
    ids = sorted(ids)
    if k < 2 or k > len(ids):
        raise ValueError(f"need 2 <= k <= {len(ids)}, got {k}")
    base, extra = divmod(len(ids), k)
    folds = []
    pos = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(tuple(ids[pos : pos + size]))
        pos += size
    return FoldPlan(k, tuple(folds))


def restrict_gold(gold: PairSet, graphs: Sequence[Transgraph]) -> PairSet:
    """Keep gold pairs whose both words appear in the given transgraphs."""
    a_words = {w for g in graphs for w in g.a_words}
    c_words = {w for g in graphs for w in g.c_words}
    kept = frozenset(
        (a, c) for a, c in gold.pairs if a in a_words and c in c_words
    )
    return PairSet(gold.lang_a, gold.lang_c, kept)


class FoldResult(NamedTuple):
    fold_index: int
    test_ids: tuple[int, ...]
    grid: GridPoint
    test_metrics: Metrics


class CvReport(NamedTuple):
    plan: FoldPlan
    folds: tuple[FoldResult, ...]
    mean_f: float


def cross_validate(
    tset: TransgraphSet,
    descriptor: MethodDescriptor,
    gold: PairSet,
    k: int,
    beta: float = 1.0,
) -> CvReport:
    """Tune thresholds on k-1 folds of transgraphs, test on the held-out one.

    Each fold gets what grid_search on its training transgraphs and a run
    of its test ones at the pick would score, from one _sweep of every
    transgraph's tally steps, each graph dropped once its steps exist: a
    transgraph's pair is in any restricted gold exactly when it is in
    `gold`, a fold's training tallies are all folds' minus its own, and
    points past its training grid repeat that grid's last metrics.
    """
    plan = make_fold_plan([g.id for g in tset.graphs], k)
    # fail on the inputs score rejects, and on a fold without gold, before any search
    score(PairSet(tset.lang_a, tset.lang_c, frozenset()), gold, beta)
    by_id = {g.id: g for g in tset.graphs}
    gold_sizes = {}  # the recall denominators, by fold and part
    for i, test_ids in enumerate(plan.folds):
        train_ids = [t for t in by_id if t not in test_ids]
        for part, ids in (("training", train_ids), ("test", test_ids)):
            gold_sizes[i, part] = len(restrict_gold(gold, [by_id[t] for t in ids]).pairs)
            if not gold_sizes[i, part]:
                raise ValueError(
                    f"fold {i} (test transgraphs {test_ids[0]}-{test_ids[-1]}):"
                    f" no gold pair in its {part} transgraphs"
                )
    steps = {t: _tally_steps(pipeline.run_graph(g, descriptor), gold) for t, g in by_id.items()}
    folds = [[steps[t] for t in fold] for fold in plan.folds]
    # per fold: the first training F-maximum and the test tallies there
    best: list[tuple[GridPoint, tuple[int, int]] | None] = [None] * k
    for ct, st, tallies in _sweep(folds, descriptor.synonyms):
        size, hits = map(sum, zip(*tallies))
        for i, (test_size, test_hits) in enumerate(tallies):
            train = _metrics(hits - test_hits, size - test_size, gold_sizes[i, "training"], beta)
            if best[i] is None or train.f_score > best[i][0].metrics.f_score:
                best[i] = (GridPoint(ct, st, train), (test_size, test_hits))
    results = [
        FoldResult(i, plan.folds[i], point, _metrics(hits, size, gold_sizes[i, "test"], beta))
        for i, (point, (size, hits)) in enumerate(best)
    ]
    mean_f = sum(r.test_metrics.f_score for r in results) / len(results)
    return CvReport(plan, tuple(results), mean_f)


class TTestReport(NamedTuple):
    t_stat: float
    df: int
    p_value: float
    mean_diff: float


def t_cdf(t: float, df: int) -> float:
    """Student-t CDF for integer degrees of freedom, as an exact finite sum.

    With theta = atan(|t| / sqrt(df)), P(|T| < |t|) is Abramowitz & Stegun
    26.7.3 for odd df and 26.7.4 for even df.
    """
    if isinstance(df, bool) or not isinstance(df, int) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    theta = math.atan(abs(t) / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    # 1 + 2/3 cos^2 + (2*4)/(3*5) cos^4 + ... for odd df, 1 + 1/2 cos^2 + ... for even
    term = series = 1.0
    for k in range(1 + df % 2, df - 2, 2):
        term *= cos2 * k / (k + 1)
        series += term
    if df % 2 == 0:
        inside = math.sin(theta) * series
    elif df == 1:
        inside = 2 / math.pi * theta
    else:
        inside = 2 / math.pi * (theta + math.sin(theta) * math.cos(theta) * series)
    inside = min(inside, 1.0)  # rounding can carry the sum a hair past 1
    return 0.5 + 0.5 * inside if t >= 0 else 0.5 - 0.5 * inside


def paired_t_test(xs: Sequence[float], ys: Sequence[float]) -> TTestReport:
    """One-tailed paired test of mean(xs - ys) > 0.

    All-zero differences give t=0, p=0.5. Zero variance with a non-zero
    mean makes t infinite and p collapses to 0 or 1. Differences whose mean
    or variance overflows the float range raise ValueError.
    """
    if len(xs) != len(ys):
        raise ValueError("paired samples must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two observation pairs")
    diffs = [x - y for x, y in zip(xs, ys)]
    # t is computed on the differences scaled by a power of two, which is
    # exact for normal floats, so squares neither underflow nor overflow
    _, exp = math.frexp(max(abs(d) for d in diffs))
    scaled = [math.ldexp(d, -exp) for d in diffs]
    mean_s = sum(scaled) / n
    var_s = sum((d - mean_s) ** 2 for d in scaled) / (n - 1)
    try:
        mean = math.ldexp(mean_s, exp)
        var = math.ldexp(var_s, 2 * exp)
    except OverflowError:  # ldexp raises where * gives inf
        var = math.inf
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ValueError("the differences are too large: their mean or variance overflows")
    sd_s = math.sqrt(var_s)
    if sd_s == 0:
        t = 0.0 if mean_s == 0 else math.copysign(math.inf, mean_s)
    else:
        t = mean_s / (sd_s / math.sqrt(n))
    p = 1.0 - t_cdf(t, n - 1)
    return TTestReport(t, n - 1, p, mean)


def metrics_tsv(metrics: Metrics) -> str:
    return (
        f"precision\t{metrics.precision:.6f}\n"
        f"recall\t{metrics.recall:.6f}\n"
        f"f_score\t{metrics.f_score:.6f}\n"
        f"beta\t{metrics.beta:g}\n"
    )


def format_aligned(rows: Sequence[Sequence[str]]) -> str:
    """Pad columns with spaces so they line up."""
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    return "\n".join(lines) + "\n"
