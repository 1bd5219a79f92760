"""The threshold search against runs at its grid points.

grid_search scores the breakpoints of the (cognate, synonym) threshold
grid from tally steps (evaluation._tally_steps): per transgraph, the pairs
a run keeps at each cognate threshold where its prefix grows.
grid_reference.grid_points scores every grid point from the prefixes it
cuts from one unthresholded run per transgraph (grid_reference.Runs):
grid_search must pick its first F-maximum, and the breakpoint sweep must
give its tallies at every point, also on hand-set costs that sit exactly
on a grid value, or whose transgraphs' costliest pairs lie far apart. Two
references check the full grid's runs:

- at sampled points, induce_on_transgraphs rerun at the point's
  thresholds. It cuts its prefixes the same way, so this checks the
  reference's tallies, metrics and synonym-stage reuse, not the cut itself;
- at each fixture's F-optimal point, test_selection.reference_induce,
  the solver-driven loop that applies the thresholds itself.

Both must give the same pairs, in the same order with the same stage,
cost, anchor and transgraph; the rerun must also give the same metrics.
grid_search and cross_validate must also drop each grown transgraph before
the sweep starts.
"""

import gc
import itertools
import random
import weakref

import pytest

from helpers import LANG_A, LANG_C, dict_ab, dict_cb, random_dictionaries, wa, wc
from grid_reference import Runs, full_sweep, grid_points, reference_grid_search, stage_runs
from pivotlex import evaluation, pipeline
from pivotlex.evaluation import (
    _sweep,
    _tally_steps,
    cross_validate,
    grid_search,
    restrict_gold,
    score,
)
from pivotlex.lexicon import PairSet
from pivotlex.pipeline import (
    COGNATE,
    SYNONYM,
    HyperParams,
    InducedPair,
    induce_on_transgraphs,
    parse_method,
)
from pivotlex.transgraph import TransgraphSet, build_transgraphs
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
BETAS = (0.3, 1.0, 3.0)
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
        (p for g in tset.graphs for p in itertools.product(g.a_words, g.c_words)),
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
        runs = [stage_runs(g, descriptor) for g in sorted(tset.graphs, key=lambda g: g.id)]
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


@pytest.mark.parametrize("method", sorted(DESCRIPTORS))
def test_search_matches_full_grid_reference(method):
    rng = random.Random(f"breakpoint-search-{method}")
    for n in range(60):
        n_a, n_b, n_c = (rng.randint(2, MAX_WORDS[method]) for _ in range(3))
        d_ab, d_cb = random_dictionaries(
            rng, n_a, n_b, n_c, p_edge=rng.choice([0.3, 0.4, 0.55])
        )
        tset = build_transgraphs(d_ab, d_cb)
        descriptor = parse_method(rng.choice(DESCRIPTORS[method]))
        gold = random_gold(rng, tset)
        beta = BETAS[n % len(BETAS)]
        got = grid_search(tset, descriptor, gold, beta)
        want = reference_grid_search(tset, descriptor, gold, beta)
        assert got == want, f"{descriptor} beta={beta}"


# costs on a grid value, just off one (0.1 + 0.2 > 0.3, 0.57 * 100 < 57),
# and on or past the end of the synonym axis
COSTS = (0.0, 0.01, 0.07, 0.29, 0.3, 0.1 + 0.2, 0.5, 0.57, 0.58, 0.99, 1.0, 1.01, 1.2)


class FixedRuns(Runs):
    """Stage runs with set costs, for the sweeps: the cognates, and the
    synonyms that follow each non-empty cognate prefix (synonym_costs[k - 1]
    after k cognates; none after none, as in a real run). full_sweep cuts
    them per grid point; _sweep reads the steps that _tally_steps builds
    from them."""

    def __init__(self, graph_id, cognate_costs, synonym_costs):
        self.synonyms = [self.outcome(graph_id, SYNONYM, c) for c in [[], *synonym_costs]]
        cognates = self.outcome(graph_id, COGNATE, cognate_costs)
        super().__init__(cognates, lambda prefix: self.synonyms[len(prefix)])

    @staticmethod
    def outcome(graph_id, stage, costs):
        names = [f"{graph_id}{stage}{i}" for i in range(len(costs))]
        return tuple(
            InducedPair(wa(name), wc(name), stage, cost, graph_id)
            for name, cost in zip(names, costs)
        )

    def steps(self, gold, with_synonyms):
        return _tally_steps(self if with_synonyms else Runs(self.cognates, lambda prefix: ()), gold)


def check_breakpoints(folds, gold, with_synonyms):
    """_sweep's points are full_sweep's, in search order, and every point it
    skips repeats the one before it in its row (on a visited row) or in its
    column (on a skipped row), which comes earlier: so no first maximum of
    a function of the tallies is skipped."""
    visited = {}
    steps = [[run.steps(gold, with_synonyms) for run in fold] for fold in folds]
    for ct, st, tallies in _sweep(steps, with_synonyms):
        assert st not in visited.get(ct, {}), f"({ct}, {st}) twice"
        visited.setdefault(ct, {})[st] = tallies
    full = list(full_sweep(folds, gold, with_synonyms))
    position = {(ct, st): i for i, (ct, st, _) in enumerate(full)}
    order = [position[ct, st] for ct in visited for st in visited[ct]]
    assert order == sorted(order), "not in search order"
    row = last = None
    for ct, st, tallies in full:
        row = visited.get(ct, row)
        last = row.get(st, last)  # each row's first column is visited
        assert last == tallies, f"at ({ct}, {st})"
    return visited


def test_costs_on_a_grid_value_enter_one_step_later():
    # a run at t keeps a pair costing exactly t never, and one costing 1.0
    # on no synonym threshold; prefix costs need not rise
    synonyms = [[1.0, 0.3], [0.07, 1.0], [], [0.99]]  # after 1, 2, ... cognates
    runs = FixedRuns(0, [0.5, 0.2, 0.57, 0.1 + 0.2], synonyms)
    gold = PairSet(LANG_A, LANG_C, frozenset(p.pair for p in runs.pairs(None, None)))
    visited = check_breakpoints([[runs]], gold, True)
    assert list(visited) == [0.0, 0.51, 0.58]
    assert {ct: list(row) for ct, row in visited.items()} == {
        0.0: [0.0],  # no cognate, so no synonym
        0.51: [0.0, 0.08],  # the 1.0 never enters
        0.58: [0.0, 1.0],  # 0.1 + 0.2 enters behind 0.57
    }
    assert visited[0.0][0.0] == [(0, 0)]
    assert visited[0.51][0.0] == [(2, 2)]
    assert visited[0.51][0.08] == [(3, 3)]
    assert visited[0.58][0.0] == [(4, 4)]
    assert visited[0.58][1.0] == [(5, 5)]


def test_cognate_only_costs_on_a_grid_value():
    # two folds, no synonym axis: the 0.49 and the first 0.5 enter at 0.5 and 0.51
    costs = [[0.5], [0.49, 0.5]]
    runs = [FixedRuns(g, c, [[]] * len(c)) for g, c in enumerate(costs)]
    gold = PairSet(LANG_A, LANG_C, frozenset(p.pair for r in runs for p in r.pairs(None, None)))
    visited = check_breakpoints([runs[:1], runs[1:]], gold, False)
    assert {ct: list(row) for ct, row in visited.items()} == {
        0.0: [None],
        0.5: [None],
        0.51: [None],
    }
    assert visited[0.5][None] == [(0, 0), (1, 1)]
    assert visited[0.51][None] == [(1, 1), (2, 2)]


def cost(rng, high):
    return rng.choice(COSTS) if rng.random() < 0.5 else rng.uniform(0, high)


def test_sweep_skips_only_repeated_points():
    rng = random.Random("breakpoints")
    for _ in range(100):
        with_synonyms = rng.random() < 0.6  # else every run's synonym stages are empty
        folds = []
        for f in range(rng.randint(1, 4)):
            fold = []
            for g in range(rng.randint(1, 3)):
                cognates = [cost(rng, 1.2) for _ in range(rng.randint(0, 4))]
                synonyms = [
                    [cost(rng, 1.0) for _ in range(rng.randint(0, 3 * with_synonyms))]
                    for _ in range(len(cognates))
                ]
                fold.append(FixedRuns(f * 10 + g, cognates, synonyms))
            folds.append(fold)
        pairs = [
            p.pair
            for fold in folds
            for r in fold
            for outcome in [r.cognates, *r.synonyms]
            for p in outcome
        ]
        kept = [p for p in pairs if rng.random() < 0.5] + [(wa("zz"), wc("zz"))]
        gold = PairSet(LANG_A, LANG_C, frozenset(kept))
        check_breakpoints(folds, gold, with_synonyms)


@pytest.mark.parametrize("with_synonyms", [True, False])
def test_far_apart_costs_enter_on_their_global_rows(with_synonyms):
    # each transgraph's steps index a grid that reaches only its own
    # costliest cognate; full_sweep's grid runs past 12.0 for all of them
    costs = {
        0: ([0.07], [[0.2, 0.99]]),
        1: ([0.01, 0.1 + 0.2], [[0.3], [0.07, 1.0]]),
        2: ([0.5, 12.0, 0.3], [[], [0.01], [0.58, 0.1]]),
        3: ([0.02, 0.6], [[0.4], [0.5]]),
    }
    runs = [
        FixedRuns(g, cognates, synonyms if with_synonyms else [[]] * len(synonyms))
        for g, (cognates, synonyms) in costs.items()
    ]
    pairs = [p.pair for r in runs for p in r.cognates + sum(r.synonyms, ())]
    gold = PairSet(LANG_A, LANG_C, frozenset(pairs[::2]))
    visited = check_breakpoints([runs[:3], runs[3:]], gold, with_synonyms)
    assert list(visited) == [0.0, 0.02, 0.03, 0.08, 0.31, 0.51, 0.61, 12.01]


def chained_inputs(chains):
    """test_golden.chained's transgraphs that hold a planted pair, and those pairs."""
    from test_golden import chained

    inputs = chained(1, chains)
    tset = build_transgraphs(dict_ab(*inputs.ab), dict_cb(*inputs.cb))
    gold = PairSet(LANG_A, LANG_C, frozenset((wa(a), wc(c)) for a, c in inputs.gold))
    graphs = [g for g in tset.graphs if restrict_gold(gold, [g]).pairs]
    return TransgraphSet(tset.lang_a, tset.lang_b, tset.lang_c, graphs), gold


@pytest.mark.parametrize(
    "search",
    [
        lambda tset, desc, gold: grid_search(tset, desc, gold),
        lambda tset, desc, gold: cross_validate(tset, desc, gold, 2),
    ],
    ids=["grid_search", "cross_validate"],
)
def test_sweep_holds_no_grown_graph(monkeypatch, search):
    grown = []  # a weak reference to each graph a symmetry cycle grew
    alive = []  # per sweep, the grown graphs still alive when it starts
    add_new_edges, sweep = pipeline.add_new_edges, evaluation._sweep

    def tracked_add_new_edges(*args):
        graph = add_new_edges(*args)
        grown.append(weakref.ref(graph))
        return graph

    def counted_sweep(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in grown))
        return sweep(*args)

    monkeypatch.setattr(pipeline, "add_new_edges", tracked_add_new_edges)
    monkeypatch.setattr(evaluation, "_sweep", counted_sweep)
    tset, gold = chained_inputs((20, 20, 20))
    search(tset, parse_method("3:S:H1"), gold)
    assert grown  # the cycles grew graphs that the search could have kept
    assert alive == [0]
