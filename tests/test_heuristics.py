import random

import pytest
from hypothesis import given, strategies as st

from helpers import (
    ASYM_AB,
    ASYM_CB,
    joint_probability,
    marginal_probability,
    random_dictionaries,
    single_graph,
    wa,
    wb,
    wc,
)
from pivotlex.heuristics import (
    HeuristicSelection,
    PairCandidate,
    generate_candidates,
    _lcs_len,
    lcsr,
)
from scoring_reference import compute_cognate_probabilities, compute_edge_cost, compute_tables
from pivotlex.transgraph import SIDE_AB, SIDE_BC, build_transgraphs


H1 = HeuristicSelection.from_token("H1")


def scored(graph):
    """Each candidate's (coexistence, missing_contribution, pivot_ambiguity)."""
    tables = compute_tables(graph)
    return {
        c.pair: compute_cognate_probabilities(c.word_a, c.word_c, c.pivots, c.missing_edges, tables)
        for c in generate_candidates(graph, H1)
    }


class TestGenerateCandidates:
    def test_asymmetric_shape_paths(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        cands = {c.pair: c for c in generate_candidates(g, H1)}
        full = cands[(wa("a1"), wc("c1"))]
        assert full.pivots == (wb("b1"), wb("b2"))
        assert full.missing_edges == ()
        partial = cands[(wa("a1"), wc("c2"))]
        assert partial.pivots == (wb("b1"), wb("b2"))
        assert partial.missing_edges == ((SIDE_BC, wc("c2"), wb("b2")),)

    def test_single_chain(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        (cand,) = generate_candidates(g, H1)
        assert cand.pair == (wa("a1"), wc("c1"))
        assert cand.pivots == (wb("b1"),) and cand.missing_edges == ()

    def test_no_a_words(self):
        from helpers import dict_ab, dict_cb

        tset = build_transgraphs(dict_ab(("a1", "b1")), dict_cb(("c1", "b2")))
        for g in tset.graphs:
            assert generate_candidates(g, H1) == []

    def test_candidates_are_immutable(self):
        (cand,) = generate_candidates(single_graph([("a1", "b1")], [("c1", "b1")]), H1)
        for name in ("coexistence", "edge_cost", "pivots", "missing_edges"):
            with pytest.raises(AttributeError):
                setattr(cand, name, getattr(cand, name))

    def test_candidate_needs_its_scores(self):
        with pytest.raises(TypeError):
            PairCandidate(wa("a1"), wc("c1"), (wb("b1"),), (), 1.0)

    def test_ordering_deterministic(self):
        g = single_graph(
            [("a2", "b1"), ("a1", "b1")], [("c2", "b1"), ("c1", "b1")]
        )
        pairs = [c.pair for c in generate_candidates(g, H1)]
        assert pairs == sorted(pairs)


class TestCognateProbabilities:
    def test_symmetric_unambiguous_pair(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        coexistence, missing_contribution, pivot_ambiguity = scored(g)[(wa("a1"), wc("c1"))]
        assert coexistence == 1.0
        assert missing_contribution == 0.0
        assert pivot_ambiguity == 0.0

    def test_asymmetric_shape_values(self):
        # full pair: A->C direction 1/2+1/2, C->A 1/4+1/2 -> 1 * 3/4
        cands = scored(single_graph(ASYM_AB, ASYM_CB))
        full_coex, full_miss, _ = cands[(wa("a1"), wc("c1"))]
        assert full_coex == pytest.approx(0.75, abs=1e-12)
        assert full_miss == pytest.approx(0.0, abs=1e-12)
        partial_coex, partial_miss, _ = cands[(wa("a1"), wc("c2"))]
        assert partial_coex == pytest.approx(0.25, abs=1e-12)
        assert partial_miss == pytest.approx(0.5, abs=1e-12)

    def test_ambiguous_pivot_sense_probability(self):
        # single path, pivot linked to two C words -> 1/(2^2-1)
        g = single_graph([("a1", "b1")], [("c1", "b1"), ("c2", "b1")])
        _, _, pivot_ambiguity = scored(g)[(wa("a1"), wc("c1"))]
        assert 1.0 - pivot_ambiguity == pytest.approx(1 / 3)
        assert pivot_ambiguity == pytest.approx(2 / 3)

    def test_zero_paths_is_error(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        cand = generate_candidates(g, H1)[0]
        with pytest.raises(ValueError):
            compute_cognate_probabilities(
                cand.word_a, cand.word_c, (), cand.missing_edges, compute_tables(g)
            )

    def test_missing_contribution_zero_without_missing_paths(self):
        rng = random.Random(3)
        for _ in range(30):
            d_ab, d_cb = random_dictionaries(rng)
            for g in build_transgraphs(d_ab, d_cb).graphs:
                probs = scored(g)
                for cand in generate_candidates(g, H1):
                    coexistence, missing_contribution, pivot_ambiguity = probs[cand.pair]
                    if not cand.missing_edges:
                        assert missing_contribution == pytest.approx(0.0)
                    assert 0.0 <= coexistence <= 1.0 + 1e-12
                    assert missing_contribution >= -1e-12
                    assert 0.0 <= pivot_ambiguity < 1.0  # shared-sense probability in (0, 1]

    def test_matches_path_sum_enumeration(self):
        # independent re-derivation of the directed path sums from raw edges
        rng = random.Random(17)
        checked = 0
        for _ in range(40):
            d_ab, d_cb = random_dictionaries(rng)
            for g in build_transgraphs(d_ab, d_cb).graphs:
                for (a, c), (coexistence, _, _) in scored(g).items():
                    expected = _coexistence_by_enumeration(g, a, c)
                    assert coexistence == pytest.approx(expected, abs=1e-12)
                    checked += 1
        assert checked > 50


def _coexistence_by_enumeration(g, a, c):
    def recip_degree(word, side=None):
        total = 0.0
        for key, prob in g.edges.items():
            if side is not None and key[0] != side:
                continue
            if word in key[1:]:
                total += 1.0 / prob
        return total

    p_ac = p_ca = 0.0
    for b in g.b_words:
        if (SIDE_AB, a, b) in g.edges and (SIDE_BC, c, b) in g.edges:
            p_ac += (1.0 / recip_degree(b, SIDE_AB)) * (1.0 / recip_degree(c))
            p_ca += (1.0 / recip_degree(b, SIDE_BC)) * (1.0 / recip_degree(a))
    return p_ac * p_ca


class TestLcsr:
    def test_identical(self):
        assert lcsr("abc", "abc") == 1.0

    def test_kitab_kitap(self):
        assert lcsr("kitab", "kitap") == pytest.approx(0.8)

    def test_disjoint(self):
        assert lcsr("a", "xyz") == 0.0

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            lcsr("", "abc")

    @given(st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12))
    def test_symmetric_and_bounded(self, a, b):
        v = lcsr(a, b)
        assert 0.0 <= v <= 1.0
        assert v == lcsr(b, a)

    @given(st.text(min_size=1, max_size=12))
    def test_identity_iff_equal(self, a):
        assert lcsr(a, a) == 1.0

    def test_one_only_for_equal_strings(self):
        assert lcsr("ab", "ba") < 1.0
        assert lcsr("ab", "abc") < 1.0


def dp_lcs_len(a: str, b: str) -> int:
    """The quadratic dynamic program: the reference for the bit-parallel LCS."""
    prev = [0] * (len(b) + 1)
    for ch_a in a:
        cur = [0] * (len(b) + 1)
        for j, ch_b in enumerate(b, start=1):
            if ch_a == ch_b:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


# small alphabets repeat characters; the last two hold non-ASCII letters and
# combining marks, each of which the LCS counts as a character of its own
LCS_ALPHABETS = [
    "ab",
    "abc",
    "aeiou",
    "abcdefghijklmnopqrstuvwxyz",
    "aéøßñ漢字ı",
    "ae\u0301\u0308\u0327n\u0303",
]


def test_bit_parallel_lcs_matches_dynamic_program():
    rng = random.Random(20201006)
    longest = 0
    for i in range(10_000):
        alphabet = LCS_ALPHABETS[i % len(LCS_ALPHABETS)]
        a = "".join(rng.choices(alphabet, k=rng.randint(1, 80)))
        b = "".join(rng.choices(alphabet, k=rng.randint(1, 80)))
        want = dp_lcs_len(a, b)
        assert _lcs_len(a, b) == want, (a, b)
        assert _lcs_len(b, a) == want, (b, a)
        longest = max(longest, len(a), len(b))
    assert longest > 64  # masks wider than one machine word


class TestHeuristicSelection:
    def test_token_round_trip(self):
        sel = HeuristicSelection.from_token("H14")
        assert sel.coexistence and sel.form_similarity
        assert not sel.missing_contribution and not sel.pivot_ambiguity
        assert sel.token == "H14"

    @pytest.mark.parametrize("bad", ["H", "H5", "H41", "H11", "X1", "", "H0"])
    def test_bad_tokens(self, bad):
        with pytest.raises(ValueError):
            HeuristicSelection.from_token(bad)

    def test_needs_one_flag(self):
        with pytest.raises(ValueError):
            HeuristicSelection()


class TestEdgeCost:
    @staticmethod
    def _cost(token, coex, miss=0.0, poly=0.0, form=1.0):
        # spellings whose LCS ratio is `form`, a multiple of 0.1
        k = round(form * 10)
        surface_a, surface_c = "a" * 10, "a" * k + "b" * (10 - k)
        assert lcsr(surface_a, surface_c) == form
        sel = HeuristicSelection.from_token(token)
        return compute_edge_cost(sel, coex, miss, poly, surface_a, surface_c)

    def test_perfect_pair_costs_nothing(self):
        assert self._cost("H14", 1.0) == 0.0

    def test_coexistence_only(self):
        assert self._cost("H1", 0.75) == pytest.approx(0.25)

    def test_combined_with_form_cap(self):
        got = self._cost("H14", 0.75, form=0.8)
        assert got == pytest.approx(0.252)

    def test_monotonicity(self):
        base = self._cost("H1234", 0.5, 0.1, 0.2, 0.5)
        assert self._cost("H1234", 0.6, 0.1, 0.2, 0.5) <= base
        assert self._cost("H1234", 0.5, 0.2, 0.2, 0.5) >= base
        assert self._cost("H1234", 0.5, 0.1, 0.3, 0.5) >= base
        assert self._cost("H1234", 0.5, 0.1, 0.2, 0.6) <= base


class TestEventProbabilities:
    def test_marginal_and_joint(self):
        # three AB edges; a1 carries two of them, (a1,b1) is one of them
        g = single_graph(
            [("a1", "b1"), ("a1", "b2"), ("a2", "b1")], [("c1", "b1")]
        )
        assert marginal_probability(g, wa("a1")) == 2 / 3
        assert joint_probability(g, wa("a1"), wb("b1")) == 1 / 3
        assert joint_probability(g, wa("a2"), wb("b2")) == 0.0

    def test_pivot_needs_explicit_side(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        with pytest.raises(ValueError):
            marginal_probability(g, wb("b1"))
        assert marginal_probability(g, wb("b1"), SIDE_AB) == 1.0
