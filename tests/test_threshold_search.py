"""The threshold search against runs at its grid points.

grid_search scores every (cognate, synonym) threshold point from the
prefixes that pipeline.StageRuns cuts from one unthresholded run per
transgraph. Two references check it:

- at sampled points, induce_on_transgraphs rerun at the point's
  thresholds. It cuts its prefixes the same way, so this checks the
  search's tallies, metrics and synonym-stage reuse, not the cut itself;
- at each fixture's F-optimal point, test_selection.reference_induce,
  the solver-driven loop that applies the thresholds itself.

Both must give the same pairs, in the same order with the same stage,
cost, anchor and transgraph; the rerun must also give the same metrics.
"""

import random

import pytest

from helpers import LANG_A, LANG_C, random_dictionaries, wa, wc
from pivotlex.evaluation import grid_points, grid_search, score
from pivotlex.lexicon import PairSet
from pivotlex.pipeline import HyperParams, StageRuns, induce_on_transgraphs, parse_method
from pivotlex.transgraph import build_transgraphs
from test_evaluation import _planted_tset, _synonym_tset, pair_set
from test_selection import reference_induce

DESCRIPTORS = {
    "C": ["1:C:H1", "2:C:H14", "3:C:H1234", "1:C:H4", "2:C:H23"],
    "S": ["1:S:H14", "2:S:H14", "3:S:H1234", "1:S:H4", "2:S:H123"],
    "M": ["1:M:H1", "2:M:H1", "3:M:H1"],
}
FIXTURES = {"C": 80, "S": 70, "M": 100}
MAX_WORDS = {"C": 5, "S": 4, "M": 5}  # per language; S reruns cost the most
POINTS_PER_FIXTURE = 70
# points checked per method: more than 10,000 in all, most of them S and M
MIN_POINTS = {"C": 2000, "S": 5000, "M": 3500}


def fields(pairs):
    return [(p.pair, p.stage, p.cost, p.anchor, p.transgraph_id) for p in pairs]


def rerun(tset, descriptor, ct, st):
    return induce_on_transgraphs(tset, descriptor, HyperParams(ct, st)).pairs


def as_pair_set(pairs):
    return PairSet(LANG_A, LANG_C, frozenset(p.pair for p in pairs))


def exhaustive_search(tset, descriptor, gold):
    """The grid search with a full rerun at every grid point."""
    best = None
    for point in grid_points(tset, descriptor, gold):
        pairs = rerun(tset, descriptor, point.cognate_threshold, point.synonym_threshold)
        metrics = score(as_pair_set(pairs), gold)
        if best is None or metrics.f_score > best[2].f_score:
            best = (point.cognate_threshold, point.synonym_threshold, metrics)
    return best


def random_gold(rng, tset):
    """About half of the transgraphs' A x C pairs plus one pair off them."""
    pairs = sorted(
        ((a, c) for g in tset.graphs for a in g.a_words for c in g.c_words),
        key=lambda p: (p[0].surface, p[1].surface),
    )
    kept = [p for p in pairs if rng.random() < 0.5] + [(wa("zz"), wc("zz"))]
    return PairSet(LANG_A, LANG_C, frozenset(kept))


@pytest.mark.parametrize("method", sorted(DESCRIPTORS))
def test_search_matches_rerun_at_sampled_points(method):
    rng = random.Random(f"threshold-search-{method}")
    checked = 0
    for _ in range(FIXTURES[method]):
        n_a, n_b, n_c = (rng.randint(2, MAX_WORDS[method]) for _ in range(3))
        d_ab, d_cb = random_dictionaries(
            rng, n_a, n_b, n_c, p_edge=rng.choice([0.3, 0.4, 0.55])
        )
        tset = build_transgraphs(d_ab, d_cb)
        descriptor = parse_method(rng.choice(DESCRIPTORS[method]))
        gold = random_gold(rng, tset)
        points = list(grid_points(tset, descriptor, gold))
        runs = [StageRuns(g, descriptor) for g in sorted(tset.graphs, key=lambda g: g.id)]
        best = max(points, key=lambda p: p.metrics.f_score)  # grid_search's pick
        sample = rng.sample(points, min(len(points), POINTS_PER_FIXTURE))
        for point in [best, points[0], points[-1], *sample]:
            ct, st = point.cognate_threshold, point.synonym_threshold
            want = rerun(tset, descriptor, ct, st)
            got = [p for run in runs for p in run.pairs(ct, st)]
            context = f"{descriptor} at ({ct}, {st})"
            assert fields(got) == fields(want), context
            assert point.metrics == score(as_pair_set(want), gold), context
            checked += 1
        hp = HyperParams(best.cognate_threshold, best.synonym_threshold)
        solved = [
            p
            for g in sorted(tset.graphs, key=lambda g: g.id)
            for p in reference_induce(g, descriptor, hp)[0][1]
        ]
        got = [p for run in runs for p in run.pairs(hp.cognate_threshold, hp.synonym_threshold)]
        assert fields(got) == fields(solved), f"{descriptor} at the optimum {hp}"
    print(f"{method}: {checked} points")
    assert checked >= MIN_POINTS[method]


@pytest.mark.parametrize("method", ["1:C:H1", "1:S:H14", "1:M:H1"])
@pytest.mark.parametrize(
    "fixture",
    [
        (_planted_tset, [("a1", "c1")]),
        (_synonym_tset, [("a1", "c1"), ("a1", "c5"), ("a2", "c2")]),
    ],
    ids=["planted", "synonym"],
)
def test_search_matches_exhaustive_search(method, fixture):
    make_tset, gold_pairs = fixture
    tset, gold = make_tset(), pair_set(*gold_pairs)
    desc = parse_method(method)
    best = grid_search(tset, desc, gold)
    ct, st, metrics = exhaustive_search(tset, desc, gold)
    assert (best.cognate_threshold, best.synonym_threshold, best.metrics) == (ct, st, metrics)
