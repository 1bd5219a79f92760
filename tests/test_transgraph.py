import random

import pytest

from helpers import ASYM_AB, ASYM_CB, dict_ab, graphs_from, single_graph, wa, wb, wc
from pivotlex.heuristics import HeuristicSelection, generate_candidates
from pivotlex.lexicon import BilingualDictionary
from pivotlex.transgraph import (
    Edge,
    add_new_edges,
    build_transgraphs,
    component_stats,
    filter_big,
)


class TestEdge:
    def test_dictionary_edge_must_have_prob_one(self):
        with pytest.raises(ValueError):
            Edge(wa("a"), wb("b"), "AB", cycle=0, prob=0.5)

    def test_prob_range(self):
        with pytest.raises(ValueError):
            Edge(wa("a"), wb("b"), "AB", cycle=1, prob=0.0)
        with pytest.raises(ValueError):
            Edge(wa("a"), wb("b"), "AB", cycle=1, prob=1.5)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            Edge(wa("a"), wb("b"), "XY")


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
                keys = {e.key for e in g.edges}
                assert not keys & seen
                seen |= keys

    def test_ids_independent_of_input_order(self):
        ab = [("a2", "b2"), ("a1", "b1")]
        cb = [("c2", "b2"), ("c1", "b1")]
        t1 = graphs_from(ab, cb)
        t2 = graphs_from(list(reversed(ab)), list(reversed(cb)))
        assert [(g.id, g.a_words, g.edges) for g in t1.graphs] == [
            (g.id, g.a_words, g.edges) for g in t2.graphs
        ]


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
        assert add_new_edges(g, cands, 1) is g

    def test_asymmetric_shape_completed(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        cands = _scored(g)
        g2 = add_new_edges(g, cands, 1)
        added = [e for e in g2.edges if e.cycle > 0]
        assert [(e.non_pivot, e.pivot, e.side) for e in added] == [
            (wc("c2"), wb("b2"), "BC")
        ]
        assert added[0].cycle == 1
        # confidence mirrors the proposing candidate's coexistence
        (cand,) = [c for c in cands if c.word_c == wc("c2")]
        assert added[0].prob == pytest.approx(cand.coexistence)

    def test_idempotent(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        cands = _scored(g)
        g2 = add_new_edges(g, cands, 1)
        g3 = add_new_edges(g2, cands, 2)
        assert g3 is g2

    def test_monotone_and_bounded(self):
        from helpers import random_dictionaries

        rng = random.Random(11)
        for _ in range(20):
            d_ab, d_cb = random_dictionaries(rng)
            for g in build_transgraphs(d_ab, d_cb).graphs:
                cands = _scored(g)
                g2 = add_new_edges(g, cands, 1)
                keys = {e.key for e in g.edges}
                keys2 = {e.key for e in g2.edges}
                assert keys <= keys2
                # bounded by the complete closure over the component's words
                limit = len(g.a_words) * len(g.b_words) + len(g.c_words) * len(
                    g.b_words
                )
                assert len(keys2) <= limit

    def test_bad_cycle_rejected(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        with pytest.raises(ValueError):
            add_new_edges(g, [], 0)


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

