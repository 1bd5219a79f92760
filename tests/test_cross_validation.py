"""Cross-validation against a fold-by-fold reference.

cross_validate serves every fold from one sweep of the threshold grid's
breakpoints over each transgraph's tally steps. The reference
below is the plain fold loop: for each fold, the full-grid search of
grid_reference on the training transgraphs (not grid_search, which shares
the sweep under test), a run of the test transgraphs at the thresholds it
picks, and score against the gold restricted to each side. Both must give
equal FoldResults and mean F on random multi-component fixtures, for
methods C, S and M, every fold count from 2 up to min(6, number of
transgraphs), and beta from 0.3 to 3.
"""

import collections
import itertools
import random

import pytest

from grid_reference import reference_grid_search
from helpers import LANG_A, LANG_C, dict_ab, dict_cb, result_pair_set, wa, wc
from pivotlex.evaluation import (
    CvReport,
    FoldResult,
    cross_validate,
    make_fold_plan,
    restrict_gold,
    score,
)
from pivotlex.lexicon import PairSet
from pivotlex.pipeline import HyperParams, induce_on_transgraphs, parse_method
from pivotlex.transgraph import TransgraphSet, build_transgraphs

DESCRIPTORS = {
    "C": ["1:C:H1", "2:C:H14", "3:C:H1234", "1:C:H4"],
    "S": ["1:S:H14", "2:S:H14", "3:S:H1234", "2:S:H123"],
    "M": ["1:M:H1", "2:M:H1", "3:M:H1"],
}
# the S reference costs the most: 101 synonym thresholds per cognate one
FIXTURES = {"C": 50, "S": 50, "M": 50}
MAX_BLOCKS = {"C": 5, "S": 3, "M": 5}
MAX_WORDS = {"C": 4, "S": 3, "M": 4}  # per language and block
MAX_FOLDS = 6
# compared (fixture, k) runs per method, more than 150 in all
MIN_RUNS = {"C": 80, "S": 50, "M": 80}
BETAS = (0.3, 1.0, 3.0)


def reference_cross_validate(tset, descriptor, gold, k, beta=1.0):
    """Search each fold's training transgraphs, run its test ones, score both."""
    plan = make_fold_plan([g.id for g in tset.graphs], k)
    by_id = {g.id: g for g in tset.graphs}
    results = []
    for i, test_ids in enumerate(plan.folds):
        train = [by_id[t] for j, fold in enumerate(plan.folds) if j != i for t in fold]
        test = [by_id[t] for t in test_ids]
        train_set = TransgraphSet(tset.lang_a, tset.lang_b, tset.lang_c, train)
        test_set = TransgraphSet(tset.lang_a, tset.lang_b, tset.lang_c, test)
        best = reference_grid_search(train_set, descriptor, restrict_gold(gold, train), beta)
        hp = HyperParams(best.cognate_threshold, best.synonym_threshold)
        run = induce_on_transgraphs(test_set, descriptor, hp)
        metrics = score(result_pair_set(run), restrict_gold(gold, test), beta)
        results.append(FoldResult(i, test_ids, best, metrics))
    mean_f = sum(r.test_metrics.f_score for r in results) / len(results)
    return CvReport(plan, tuple(results), mean_f)


def random_components(rng, max_blocks, max_words):
    """Two or more independent random blocks, each one or more transgraphs."""
    ab, cb = [], []
    for blk in range(rng.randint(2, max_blocks)):
        n_a, n_b, n_c = (rng.randint(1, max_words) for _ in range(3))
        p_edge = rng.choice([0.4, 0.55, 0.7])
        for side, n, entries in (("a", n_a, ab), ("c", n_c, cb)):
            links = [
                (f"{side}{blk}x{i}", f"b{blk}x{j}")
                for i in range(n)
                for j in range(n_b)
                if rng.random() < p_edge
            ]
            entries += links or [(f"{side}{blk}x0", f"b{blk}x0")]
    return build_transgraphs(dict_ab(*ab), dict_cb(*cb))


def random_gold(rng, tset):
    """A pair of each transgraph that has one, a third of the rest, and one off them all."""
    kept = [(wa("zz"), wc("zz"))]
    for g in tset.graphs:
        pairs = sorted(itertools.product(g.a_words, g.c_words), key=str)
        kept += rng.sample(pairs, min(1, len(pairs)))
        kept += [p for p in pairs if rng.random() < 1 / 3]
    return PairSet(LANG_A, LANG_C, frozenset(kept))


@pytest.mark.parametrize("method", sorted(DESCRIPTORS))
def test_cross_validate_matches_fold_by_fold_reference(method):
    rng = random.Random(f"cross-validate-{method}")
    runs = 0
    for _ in range(FIXTURES[method]):
        tset = random_components(rng, MAX_BLOCKS[method], MAX_WORDS[method])
        gold = random_gold(rng, tset)
        descriptor = parse_method(rng.choice(DESCRIPTORS[method]))
        beta = rng.choice([1.0, 1.0, 0.5, 2.0])
        for k in range(2, min(MAX_FOLDS, len(tset.graphs)) + 1):
            context = f"{descriptor} k={k} beta={beta}"
            try:
                got = cross_validate(tset, descriptor, gold, k, beta)
            except ValueError:  # a fold without gold: the reference fails on it too
                with pytest.raises(ValueError):
                    reference_cross_validate(tset, descriptor, gold, k, beta)
                continue
            want = reference_cross_validate(tset, descriptor, gold, k, beta)
            assert got.plan == want.plan, context
            assert got.folds == want.folds, context
            assert got.mean_f == want.mean_f, context
            runs += 1
    print(f"{method}: {runs} runs")
    assert runs >= MIN_RUNS[method]


@pytest.mark.parametrize("method", sorted(DESCRIPTORS))
def test_cross_validate_matches_reference_at_every_beta(method):
    rng = random.Random(f"cross-validate-beta-{method}")
    runs = collections.Counter()
    for n in range(30):
        tset = random_components(rng, MAX_BLOCKS[method], MAX_WORDS[method])
        gold = random_gold(rng, tset)
        descriptor = parse_method(rng.choice(DESCRIPTORS[method]))
        beta = BETAS[n % len(BETAS)]
        for k in range(2, min(5, len(tset.graphs)) + 1):
            try:
                got = cross_validate(tset, descriptor, gold, k, beta)
            except ValueError:
                continue
            assert got == reference_cross_validate(tset, descriptor, gold, k, beta), (
                f"{descriptor} k={k} beta={beta}"
            )
            runs[beta] += 1
    print(f"{method}: {dict(runs)}")
    assert all(runs[beta] >= 5 for beta in BETAS)
