import random

import pytest

from helpers import (
    ASYM_AB,
    ASYM_CB,
    dict_ab,
    graphs_from,
    random_dictionaries,
    single_graph,
    wa,
    wb,
    wc,
)
from pivotlex.heuristics import HeuristicSelection, generate_candidates
from pivotlex.lexicon import BilingualDictionary, Word
from pivotlex.pipeline import parse_method, run_cycles
from pivotlex.transgraph import (
    MIN_EDGE_PROB,
    add_new_edges,
    build_transgraphs,
    component_stats,
    filter_big,
)
import transgraph_reference
from test_golden import chained
from test_selection import (
    COGNATE_THRESHOLDS,
    DESCRIPTORS,
    RUNS_PER_METHOD,
    SYNONYM_THRESHOLDS,
)


class TestBuildTransgraphs:
    def test_single_shared_pivot(self):
        tset = graphs_from([("a1", "b1")], [("c1", "b1")])
        assert len(tset.graphs) == 1
        g = tset.graphs[0]
        assert len(g.b_words) == 1 and len(g.edges) == 2

    def test_no_shared_pivot_gives_two_components(self):
        tset = graphs_from([("a1", "b1")], [("c1", "b2")])
        assert len(tset.graphs) == 2
        # degenerate components are retained; they just yield no candidates
        for g in tset.graphs:
            assert generate_candidates(g, HeuristicSelection.from_token("H1")) == []

    def test_join_through_shared_a_word(self):
        # b1 and b2 meet through a1, so union-find folds everything together
        tset = graphs_from(
            [("a1", "b1"), ("a1", "b2")], [("c1", "b1"), ("c2", "b2")]
        )
        assert len(tset.graphs) == 1
        g = tset.graphs[0]
        assert g.b_words == frozenset({wb("b1"), wb("b2")})
        assert len(g.edges) == 4

    def test_pivot_mismatch_rejected(self):
        from pivotlex.lexicon import Word

        other = BilingualDictionary(
            "ccc", "qqq", frozenset({(wc("c1"), Word("qqq", "q"))})
        )
        with pytest.raises(ValueError, match="pivot"):
            build_transgraphs(dict_ab(("a1", "b1")), other)

    def test_edges_partition_across_components(self):
        rng = random.Random(7)
        for _ in range(25):
            ab = [(f"a{rng.randint(0,5)}", f"b{rng.randint(0,5)}") for _ in range(8)]
            cb = [(f"c{rng.randint(0,5)}", f"b{rng.randint(0,5)}") for _ in range(8)]
            tset = graphs_from(ab, cb)
            total = sum(len(g.edges) for g in tset.graphs)
            assert total == len(set(ab)) + len(set(cb))
            seen = set()
            for g in tset.graphs:
                keys = set(g.edges)
                assert not keys & seen
                seen |= keys
            # each word lies in exactly one component's word set
            words = {
                "a_words": {wa(a) for a, _ in ab},
                "b_words": {wb(b) for _, b in ab + cb},
                "c_words": {wc(c) for c, _ in cb},
            }
            for name, expected in words.items():
                sets = [getattr(g, name) for g in tset.graphs]
                assert sum(map(len, sets)) == len(expected) and set().union(*sets) == expected

    def test_ids_independent_of_input_order(self):
        ab = [("a2", "b2"), ("a1", "b1")]
        cb = [("c2", "b2"), ("c1", "b1")]
        t1 = graphs_from(ab, cb)
        t2 = graphs_from(list(reversed(ab)), list(reversed(cb)))
        assert [(g.id, g.a_words, list(g.edges.items())) for g in t1.graphs] == [
            (g.id, g.a_words, list(g.edges.items())) for g in t2.graphs
        ]


TAGS = [("min", "ind", "zlm"), ("zz", "b", "aa")]


def _random_links(rng):
    """Random A-B and C-B links; with shared surfaces, only the tags tell words apart."""
    n = rng.randint(1, 14)
    a, b, c = ("w", "w", "w") if rng.random() < 0.5 else ("a", "b", "c")

    def word(prefix):
        return f"{prefix}{rng.randrange(n)}"

    ab = {(word(a), word(b)) for _ in range(rng.randint(1, 30))}
    cb = {(word(c), word(b)) for _ in range(rng.randint(1, 30))}
    return ab, cb


@pytest.mark.parametrize("tags", TAGS, ids="/".join)
def test_build_equals_union_find_reference(tags):
    lang_a, lang_b, lang_c = tags
    rng = random.Random(17)
    links = [(x.ab, x.cb) for x in (chained(1), chained(2, (60,) * 4), chained(3, (7,) * 9))]
    links += [_random_links(rng) for _ in range(200)]
    for ab, cb in links:
        d_ab = BilingualDictionary(
            lang_a, lang_b, frozenset((Word(lang_a, x), Word(lang_b, y)) for x, y in ab)
        )
        d_cb = BilingualDictionary(
            lang_c, lang_b, frozenset((Word(lang_c, x), Word(lang_b, y)) for x, y in cb)
        )
        got = build_transgraphs(d_ab, d_cb)
        want = transgraph_reference.build_transgraphs(d_ab, d_cb)
        assert (got.lang_a, got.lang_b, got.lang_c) == (want.lang_a, want.lang_b, want.lang_c)
        assert [(g.id, list(g.edges.items())) for g in got.graphs] == [
            (g.id, list(g.edges.items())) for g in want.graphs
        ]
        for cap in {1, 2, 5, max(len(g.edges) for g in want.graphs)}:
            kept, ref = filter_big(got, cap), filter_big(want, cap)
            assert kept.skipped == ref.skipped
            assert [g.id for g in kept.graphs] == [g.id for g in ref.graphs]


class TestFilterBig:
    def test_at_threshold_kept(self):
        tset = graphs_from(
            [(f"a1", f"b{i}") for i in range(20)],
            [(f"c1", f"b{i}") for i in range(19)],
        )
        assert len(tset.graphs[0].edges) == 39
        kept = filter_big(tset, 39)
        assert len(kept.graphs) == 1 and not kept.skipped

    def test_big_component_skipped(self):
        n = 9274  # yields an 18,548-edge component
        tset = graphs_from(
            [("a1", f"b{i}") for i in range(n)],
            [("c1", f"b{i}") for i in range(n)],
        )
        assert len(tset.graphs[0].edges) == 18548
        kept = filter_big(tset, 2000)
        assert kept.graphs == [] and kept.skipped == [(0, 18548)]

    def test_empty_set(self):
        tset = graphs_from([("a1", "b1")], [("c1", "b1")])
        tset.graphs = []
        out = filter_big(tset, 10)
        assert out.graphs == [] and out.skipped == []


def _scored(graph):
    return generate_candidates(graph, HeuristicSelection.from_token("H1"))


class TestAddNewEdges:
    def test_symmetric_graph_unchanged(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        cands = _scored(g)
        assert add_new_edges(g, cands) is g

    def test_asymmetric_shape_completed(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        cands = _scored(g)
        g2 = add_new_edges(g, cands)
        added = [key for key in g2.edges if key not in g.edges]
        assert added == [("BC", wc("c2"), wb("b2"))]
        # confidence mirrors the proposing candidate's coexistence
        (cand,) = [c for c in cands if c.word_c == wc("c2")]
        assert g2.edges[added[0]] == pytest.approx(cand.coexistence)

    def test_idempotent(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        cands = _scored(g)
        g2 = add_new_edges(g, cands)
        g3 = add_new_edges(g2, cands)
        assert g3 is g2

    def test_monotone_and_bounded(self):
        from helpers import random_dictionaries

        rng = random.Random(11)
        for _ in range(20):
            d_ab, d_cb = random_dictionaries(rng)
            for g in build_transgraphs(d_ab, d_cb).graphs:
                cands = _scored(g)
                g2 = add_new_edges(g, cands)
                keys = set(g.edges)
                keys2 = set(g2.edges)
                assert keys <= keys2
                # bounded by the complete closure over the component's words
                limit = len(g.a_words) * len(g.b_words) + len(g.c_words) * len(
                    g.b_words
                )
                assert len(keys2) <= limit


def selection_graphs():
    """The random transgraphs of test_selection.py, drawn in the same order."""
    for method in sorted(DESCRIPTORS):
        rng = random.Random(f"selection-{method}")
        for _ in range(RUNS_PER_METHOD):
            n_a, n_b, n_c = (rng.randint(2, 5) for _ in range(3))
            d_ab, d_cb = random_dictionaries(
                rng, n_a, n_b, n_c, p_edge=rng.choice([0.3, 0.4, 0.55])
            )
            # the descriptor and thresholds drawn there, to stay in step
            rng.choice(DESCRIPTORS[method])
            rng.choice(COGNATE_THRESHOLDS), rng.choice(SYNONYM_THRESHOLDS)
            yield from build_transgraphs(d_ab, d_cb).graphs


def check_edge_map(g, input_keys):
    keys = list(g.edges)
    assert keys == sorted(keys)
    assert all(g.edges[key] == 1.0 for key in input_keys)
    assert all(MIN_EDGE_PROB <= prob <= 1.0 for prob in g.edges.values())


def check_missing_order(candidates):
    for cand in candidates:
        assert cand.missing_edges == tuple(sorted(cand.missing_edges))


def check_growth(before, candidates, after):
    """`after` is `before` plus each wanted edge at its clamped best coexistence."""
    best = {}
    for cand in candidates:
        for key in cand.missing_edges:
            best[key] = max(best.get(key, cand.coexistence), cand.coexistence)
    clamped = {key: min(max(conf, MIN_EDGE_PROB), 1.0) for key, conf in best.items()}
    assert after.edges == {**before.edges, **clamped}
    # growth joins words already in the graph
    assert (after.a_words, after.b_words, after.c_words) == (
        before.a_words, before.b_words, before.c_words
    )


class TestEdgeMap:
    def test_invariants_over_three_cycles(self):
        graphs = 0
        for tg in selection_graphs():
            check_edge_map(tg, tg.edges)
            prev = run_cycles(tg, parse_method("1:C:H1"))
            assert prev.graph is tg
            check_missing_order(prev.candidates)
            for cycle in (2, 3):
                out = run_cycles(tg, parse_method(f"{cycle}:C:H1"))
                check_edge_map(out.graph, tg.edges)
                check_missing_order(out.candidates)
                check_growth(prev.graph, prev.candidates, out.graph)
                # the coexistences here lie in (1e-6, 2/3]: push them out of
                # range on both sides so that the clamp is exercised too
                for scale in (1e-7, 3.0):
                    pushed = [
                        c._replace(coexistence=c.coexistence * scale)
                        for c in prev.candidates
                    ]
                    grown = add_new_edges(prev.graph, pushed)
                    check_edge_map(grown, tg.edges)
                    check_growth(prev.graph, pushed, grown)
                prev = out
            graphs += 1
        assert graphs >= 1200


class TestComponentStats:
    def test_single_pivot_chain(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        s = component_stats(g)
        assert (s.a_count, s.b_count, s.c_count, s.edge_count) == (1, 1, 1, 2)

    def test_asymmetric_shape(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        s = component_stats(g)
        assert (s.a_count, s.b_count, s.c_count, s.edge_count) == (1, 2, 2, 5)

    def test_empty_graph_is_error(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        g.edges = ()
        with pytest.raises(ValueError):
            component_stats(g)

