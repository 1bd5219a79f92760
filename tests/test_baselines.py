import random

import pytest

from helpers import dict_ab, dict_cb, graphs_from, random_dictionaries, wa, wc
from pivotlex.baselines import ACROSS, WITHIN, cartesian_product, inverse_consultation
from pivotlex.transgraph import SIDE_AB, SIDE_BC, build_transgraphs


class TestCartesianProduct:
    def _two_by_three(self, suffix=""):
        ab = [(f"a1{suffix}", f"b1{suffix}"), (f"a2{suffix}", f"b1{suffix}")]
        cb = [
            (f"c1{suffix}", f"b1{suffix}"),
            (f"c2{suffix}", f"b1{suffix}"),
            (f"c3{suffix}", f"b1{suffix}"),
        ]
        return ab, cb

    def test_within_single_graph(self):
        ab, cb = self._two_by_three()
        pairs = cartesian_product(graphs_from(ab, cb), WITHIN)
        assert len(pairs) == 6

    def test_across_two_graphs(self):
        ab1, cb1 = self._two_by_three()
        ab2, cb2 = self._two_by_three("x")
        tset = graphs_from(ab1 + ab2, cb1 + cb2)
        assert len(tset.graphs) == 2
        assert len(cartesian_product(tset, WITHIN)) == 12
        assert len(cartesian_product(tset, ACROSS)) == 24

    def test_empty_set(self):
        tset = graphs_from([("a1", "b1")], [("c1", "b1")])
        tset.graphs = []
        assert len(cartesian_product(tset, WITHIN)) == 0
        assert len(cartesian_product(tset, ACROSS)) == 0

    def test_bad_scope(self):
        tset = graphs_from([("a1", "b1")], [("c1", "b1")])
        with pytest.raises(ValueError):
            cartesian_product(tset, "everywhere")

    def test_within_subset_of_across(self):
        rng = random.Random(4)
        for _ in range(10):
            d_ab, d_cb = random_dictionaries(rng)
            tset = build_transgraphs(d_ab, d_cb)
            within = cartesian_product(tset, WITHIN)
            across = cartesian_product(tset, ACROSS)
            assert within.pairs <= across.pairs


class TestInverseConsultation:
    def test_two_shared_pivots_kept(self):
        d_ab = dict_ab(("a1", "b1"), ("a1", "b2"))
        d_cb = dict_cb(("c1", "b1"), ("c1", "b2"), ("c2", "b1"))
        pairs = inverse_consultation(d_ab, d_cb, delta=2)
        assert pairs.pairs == frozenset({(wa("a1"), wc("c1"))})

    def test_one_shared_pivot_dropped_at_delta_two(self):
        d_ab = dict_ab(("a1", "b1"), ("a1", "b2"))
        d_cb = dict_cb(("c2", "b1"))
        pairs = inverse_consultation(d_ab, d_cb, delta=2)
        assert len(pairs) == 0

    def test_delta_one_is_connected_pairs(self):
        rng = random.Random(19)
        for _ in range(10):
            d_ab, d_cb = random_dictionaries(rng)
            ic1 = inverse_consultation(d_ab, d_cb, delta=1)
            tset = build_transgraphs(d_ab, d_cb)
            connected = set()
            for g in tset.graphs:
                ab = [(a, b) for side, a, b in g.edges if side == SIDE_AB]
                cb = [(c, b) for side, c, b in g.edges if side == SIDE_BC]
                connected |= {(a, c) for a, b in ab for c, b_c in cb if b == b_c}
            assert ic1.pairs == frozenset(connected)

    def test_nesting_in_delta_and_cp(self):
        rng = random.Random(21)
        for _ in range(10):
            d_ab, d_cb = random_dictionaries(rng)
            tset = build_transgraphs(d_ab, d_cb)
            ic1 = inverse_consultation(d_ab, d_cb, delta=1).pairs
            ic2 = inverse_consultation(d_ab, d_cb, delta=2).pairs
            ic3 = inverse_consultation(d_ab, d_cb, delta=3).pairs
            assert ic3 <= ic2 <= ic1
            assert ic1 <= cartesian_product(tset, WITHIN).pairs
            assert (
                cartesian_product(tset, WITHIN).pairs
                <= cartesian_product(tset, ACROSS).pairs
            )

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            inverse_consultation(dict_ab(("a1", "b1")), dict_cb(("c1", "b1")), delta=0)

    def test_pivot_mismatch(self):
        from pivotlex.lexicon import BilingualDictionary, Word

        other = BilingualDictionary(
            "ccc", "qqq", frozenset({(Word("ccc", "c1"), Word("qqq", "q"))})
        )
        with pytest.raises(ValueError):
            inverse_consultation(dict_ab(("a1", "b1")), other)
