"""Scoring against a gold standard, threshold search, cross-validation,
and the paired comparison test."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

from .lexicon import PairSet
from .pipeline import (
    HyperParams,
    MethodDescriptor,
    StageRuns,
    _kept,
    induce_on_transgraphs,
    result_pair_set,
)
from .transgraph import Transgraph, TransgraphSet


@dataclass(frozen=True)
class Metrics:
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


@dataclass(frozen=True)
class GridPoint:
    cognate_threshold: float
    synonym_threshold: float | None
    metrics: Metrics


def grid_points(
    tset: TransgraphSet,
    descriptor: MethodDescriptor,
    gold: PairSet,
    beta: float = 1.0,
) -> Iterator[GridPoint]:
    """Every point of the 0.01 threshold grid with the metrics of a run there.

    The cognate axis runs past the costliest unthresholded acceptance; the
    synonym axis is 0..1 for method S and None otherwise. Points come in
    search order, the synonym threshold varying fastest. A transgraph's
    pairs at a point are the prefixes its pipeline.StageRuns cuts, as in
    any run at those thresholds, so nothing reruns per point.
    """
    # fail on the inputs score rejects, before any work
    score(PairSet(tset.lang_a, tset.lang_c, frozenset()), gold, beta)
    runs = [StageRuns(g, descriptor) for g in sorted(tset.graphs, key=lambda g: g.id)]
    top = max((p.cost for r in runs for p in r.pairs(None, None)), default=0.0)
    cognate_grid = [i / 100 for i in range(math.ceil(round(top * 100, 6)) + 2)]
    synonym_grid: list[float | None]
    synonym_grid = [i / 100 for i in range(101)] if descriptor.method == "S" else [None]
    # (pairs, gold pairs) per synonym threshold, for each transgraph and
    # cognate prefix length: a transgraph's pairs depend on ct through that alone
    tallies: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ct in cognate_grid:
        row = []
        for g, run in enumerate(runs):
            key = (g, _kept(run.cognates.accepted, ct))
            if key not in tallies:
                kept = [run.pairs(ct, st) for st in synonym_grid]
                tallies[key] = [
                    (len(ps), sum(p.pair in gold.pairs for p in ps)) for ps in kept
                ]
            row.append(tallies[key])
        for s, st in enumerate(synonym_grid):
            size = sum(t[s][0] for t in row)
            hits = sum(t[s][1] for t in row)
            yield GridPoint(ct, st, _metrics(hits, size, len(gold.pairs), beta))


def grid_search(
    tset: TransgraphSet,
    descriptor: MethodDescriptor,
    gold: PairSet,
    beta: float = 1.0,
) -> GridPoint:
    """Pick the thresholds maximizing F on a 0.01 grid (ties: smallest).

    The metrics are those of a run at the chosen thresholds, found without
    a run per grid point. Every run, induce's included, cuts each stage's
    prefix from one unthresholded run per transgraph (pipeline.StageRuns):
    the prefix ends at the first pick costing >= t, so it is not every
    pair costing less than t, since accepting a pair can make later ones
    cheaper. For method S the synonym stage runs once per distinct
    cognate prefix.
    """
    points = grid_points(tset, descriptor, gold, beta)
    return max(points, key=lambda p: p.metrics.f_score)  # the first of equal maxima


@dataclass(frozen=True)
class FoldPlan:
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


@dataclass(frozen=True)
class FoldResult:
    fold_index: int
    test_ids: tuple[int, ...]
    grid: GridPoint
    test_metrics: Metrics


@dataclass(frozen=True)
class CvReport:
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
    """Tune thresholds on k-1 folds of transgraphs, test on the held-out one."""
    plan = make_fold_plan([g.id for g in tset.graphs], k)
    # fail on the inputs score rejects, and on a fold without gold, before any search
    score(PairSet(tset.lang_a, tset.lang_c, frozenset()), gold, beta)
    by_id = {g.id: g for g in tset.graphs}
    train_folds = [
        [tid for fold in plan.folds if fold != test_ids for tid in fold]
        for test_ids in plan.folds
    ]
    for i, test_ids in enumerate(plan.folds):
        for part, ids in (("training", train_folds[i]), ("test", test_ids)):
            if not restrict_gold(gold, [by_id[t] for t in ids]).pairs:
                raise ValueError(
                    f"fold {i} (test transgraphs {test_ids[0]}-{test_ids[-1]}):"
                    f" no gold pair in its {part} transgraphs"
                )
    results = []
    for i, test_ids in enumerate(plan.folds):
        train_graphs = [by_id[t] for t in train_folds[i]]
        test_graphs = [by_id[t] for t in test_ids]
        train_set = TransgraphSet(tset.lang_a, tset.lang_b, tset.lang_c, train_graphs)
        test_set = TransgraphSet(tset.lang_a, tset.lang_b, tset.lang_c, test_graphs)
        train_gold = restrict_gold(gold, train_graphs)
        best = grid_search(train_set, descriptor, train_gold, beta)
        hp = HyperParams(best.cognate_threshold, best.synonym_threshold)
        test_run = induce_on_transgraphs(test_set, descriptor, hp, jobs=1)
        test_gold = restrict_gold(gold, test_graphs)
        metrics = score(result_pair_set(test_run), test_gold, beta)
        results.append(FoldResult(i, test_ids, best, metrics))
    mean_f = sum(r.test_metrics.f_score for r in results) / len(results)
    return CvReport(plan, tuple(results), mean_f)


@dataclass(frozen=True)
class TTestReport:
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


def paired_t_test(
    xs: Sequence[float], ys: Sequence[float], tail: str = "greater"
) -> TTestReport:
    """One-tailed paired test of mean(xs - ys) > 0.

    All-zero differences give t=0, p=0.5. Zero variance with a non-zero
    mean makes t infinite and p collapses to 0 or 1. Differences whose mean
    or variance overflows the float range raise ValueError.
    """
    if tail != "greater":
        raise ValueError("only the 'greater' tail is supported")
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


def build_gold(eval_pairs: PairSet, universe: PairSet) -> PairSet:
    """Intersect an evaluation pair list with the reachable universe."""
    if (eval_pairs.lang_a, eval_pairs.lang_c) != (universe.lang_a, universe.lang_c):
        raise ValueError("pair sets use different language pairs")
    kept = eval_pairs.pairs & universe.pairs
    if not kept:
        warnings.warn("gold standard is empty: no overlap with the universe")
    return PairSet(eval_pairs.lang_a, eval_pairs.lang_c, frozenset(kept))


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
