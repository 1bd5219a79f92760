"""Scoring against a gold standard, threshold search, cross-validation,
and the paired comparison test."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .lexicon import PairSet
from .pipeline import (
    COGNATE,
    SYNONYM,
    HyperParams,
    InducedPair,
    MethodDescriptor,
    induce_on_transgraphs,
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
    if beta <= 0:
        raise ValueError("beta must be positive")
    if (result.lang_a, result.lang_c) != (gold.lang_a, gold.lang_c):
        raise ValueError("result and gold use different language pairs")
    if not gold.pairs:
        raise ValueError("gold standard is empty")
    hits = len(result.pairs & gold.pairs)
    precision = hits / len(result.pairs) if result.pairs else 0.0
    recall = hits / len(gold.pairs)
    b2 = beta * beta
    denom = b2 * precision + recall
    f = (1 + b2) * precision * recall / denom if denom > 0 else 0.0
    return Metrics(precision, recall, f, beta)


@dataclass(frozen=True)
class GridPoint:
    cognate_threshold: float
    synonym_threshold: float | None
    metrics: Metrics


def _filtered_pairs(
    cognates: list[InducedPair],
    synonyms: list[InducedPair],
    ct: float,
    st: float | None,
) -> set:
    kept = {p.pair for p in cognates if p.cost < ct}
    if st is not None:
        kept |= {
            p.pair for p in synonyms if p.anchor in kept and p.cost < st
        }
    return kept


def _threshold_grid(top: float) -> list[float]:
    steps = math.ceil(round(top * 100, 6)) + 1
    return [i / 100 for i in range(steps + 1)]


def grid_search(
    tset: TransgraphSet,
    descriptor: MethodDescriptor,
    gold: PairSet,
    beta: float = 1.0,
    exact: bool = False,
) -> GridPoint:
    """Pick the thresholds maximizing F on a 0.01 grid (ties: smallest).

    The default path runs the pipeline once without thresholds and
    post-filters pairs by their recorded costs; exact=True re-runs the
    pipeline at every grid point instead (slow, for verification).
    """
    probe = induce_on_transgraphs(tset, descriptor, HyperParams(), jobs=1)
    cognates = [p for p in probe.pairs if p.stage == COGNATE]
    synonyms = [p for p in probe.pairs if p.stage == SYNONYM]
    max_cost = max((p.cost for p in probe.pairs), default=0.0)
    cognate_grid = _threshold_grid(max_cost)
    synonym_grid: list[float | None]
    synonym_grid = [i / 100 for i in range(101)] if descriptor.method == "S" else [None]

    best: GridPoint | None = None
    for ct in cognate_grid:
        for st in synonym_grid:
            if exact:
                run = induce_on_transgraphs(
                    tset, descriptor, HyperParams(ct, st), jobs=1
                )
                pairs = {p.pair for p in run.pairs}
            else:
                pairs = _filtered_pairs(cognates, synonyms, ct, st)
            metrics = score(
                PairSet(tset.lang_a, tset.lang_c, frozenset(pairs)), gold, beta
            )
            if best is None or metrics.f_score > best.metrics.f_score:
                best = GridPoint(ct, st, metrics)
    assert best is not None
    return best


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
    exact: bool = False,
) -> CvReport:
    """Tune thresholds on k-1 folds of transgraphs, test on the held-out one."""
    plan = make_fold_plan([g.id for g in tset.graphs], k)
    by_id = {g.id: g for g in tset.graphs}
    results = []
    for i, test_ids in enumerate(plan.folds):
        train_ids = [tid for fold in plan.folds if fold != test_ids for tid in fold]
        train_graphs = [by_id[t] for t in train_ids]
        test_graphs = [by_id[t] for t in test_ids]
        train_set = TransgraphSet(tset.lang_a, tset.lang_b, tset.lang_c, train_graphs)
        test_set = TransgraphSet(tset.lang_a, tset.lang_b, tset.lang_c, test_graphs)
        best = grid_search(
            train_set, descriptor, restrict_gold(gold, train_graphs), beta, exact
        )
        hp = HyperParams(best.cognate_threshold, best.synonym_threshold)
        test_run = induce_on_transgraphs(test_set, descriptor, hp, jobs=1)
        test_pairs = PairSet(
            tset.lang_a,
            tset.lang_c,
            frozenset((p.word_a, p.word_c) for p in test_run.pairs),
        )
        metrics = score(test_pairs, restrict_gold(gold, test_graphs), beta)
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
    """Student-t CDF through the regularized incomplete beta function."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    from scipy.special import betainc  # heavy; only the t-test needs it

    x = df / (df + t * t)
    tail = 0.5 * float(betainc(0.5 * df, 0.5, x))
    return 1.0 - tail if t >= 0 else tail


def paired_t_test(
    xs: Sequence[float], ys: Sequence[float], tail: str = "greater"
) -> TTestReport:
    """One-tailed paired test of mean(xs - ys) > 0.

    All-zero differences give t=0, p=0.5. Zero variance with a non-zero
    mean makes t infinite and p collapses to 0 or 1.
    """
    if tail != "greater":
        raise ValueError("only the 'greater' tail is supported")
    if len(xs) != len(ys):
        raise ValueError("paired samples must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two observation pairs")
    diffs = [x - y for x, y in zip(xs, ys)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(var)
    if sd == 0:
        t = 0.0 if mean == 0 else math.copysign(math.inf, mean)
    else:
        t = mean / (sd / math.sqrt(n))
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
