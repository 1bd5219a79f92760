"""The one-pass scorer against the step-by-step reference (scoring_reference).

Candidates are compared with exact ==: pairs, pivots, missing-edge order,
coexistence and edge cost, float for float. Graphs come from random
dictionaries and from growing them with add_new_edges for up to three
cycles, which gives their edges fractional probabilities.
"""

import random
from itertools import combinations
from types import SimpleNamespace

import pytest

import scoring_reference as reference
from helpers import random_dictionaries
from pivotlex import pipeline
from pivotlex.heuristics import HeuristicSelection, generate_candidates
from pivotlex.lexicon import BilingualDictionary, Word
from pivotlex.pipeline import induce_on_transgraphs, parse_method
from pivotlex.transgraph import add_new_edges, build_transgraphs

SELECTIONS = [
    HeuristicSelection.from_token("H" + "".join(digits))
    for k in range(1, 5)
    for digits in combinations("1234", k)
]


def random_graphs(seed: int, count: int):
    """Graphs of `count` random dictionary pairs of varied size and density.

    Every other pair renames language A to one that sorts after C, so
    A-words sort before C-words in half of the graphs and after them in
    the rest; the missing edges stay in key order, A-side first, either way.
    """
    rng = random.Random(seed)
    for i in range(count):
        d_ab, d_cb = random_dictionaries(
            rng, rng.randint(2, 6), rng.randint(2, 5), rng.randint(2, 6), rng.uniform(0.25, 0.6)
        )
        if i % 2:
            entries = frozenset((Word("zzz", a.surface), b) for a, b in d_ab.entries)
            d_ab = BilingualDictionary("zzz", d_ab.target, entries)
        yield from build_transgraphs(d_ab, d_cb).graphs


def grown(graph, cycles: int = 3):
    """The graph each of the first `cycles` scoring rounds sees."""
    for _ in range(cycles):
        yield graph
        graph = add_new_edges(graph, reference.generate_candidates(graph, SELECTIONS[0]))


def without_form(sel: HeuristicSelection) -> SimpleNamespace:
    """``sel`` with form similarity off; it may then select nothing."""
    return SimpleNamespace(**{**sel._asdict(), "form_similarity": False})


def test_last_round_matches_reference_exactly():
    assert len(set(SELECTIONS)) == 15
    rounds = fractional = 0
    for g in random_graphs(1606, 60):
        for graph in grown(g):
            rounds += 1
            fractional += any(p < 1.0 for p in graph.edges.values())
            for sel in SELECTIONS:
                assert generate_candidates(graph, sel) == reference.generate_candidates(graph, sel)
    assert rounds > 150 and fractional > 50


def test_growth_round_leaves_out_only_form_similarity():
    growth = fixpoints = 0
    for g in random_graphs(1607, 40):
        for graph in grown(g):
            for sel in SELECTIONS:
                got = generate_candidates(graph, sel, last_round=False)
                want = reference.generate_candidates(graph, sel)
                if any(c.missing_edges for c in want):
                    growth += 1
                    # priced under H1-H3 only; the pair, pivots, missing
                    # edges and coexistence that growth reads are unchanged
                    tables = reference.compute_tables(graph)
                    want = [
                        c._replace(
                            edge_cost=reference.compute_edge_cost(
                                without_form(sel),
                                *reference.compute_cognate_probabilities(
                                    c.word_a, c.word_c, c.pivots, c.missing_edges, tables
                                ),
                                c.word_a.surface,
                                c.word_c.surface,
                            )
                        )
                        for c in want
                    ]
                else:
                    fixpoints += 1
                assert got == want
    assert growth > 500 and fixpoints > 500


METHODS = ["1:C:H1", "2:C:H1234", "3:C:H23", "1:S:H4", "2:S:H14", "3:S:H124", "2:M:H1", "3:M:H1"]


@pytest.mark.parametrize("method", METHODS)
def test_induction_matches_reference_scoring(monkeypatch, method):
    descriptor = parse_method(method)
    rng = random.Random(1608)
    tsets = [
        build_transgraphs(*random_dictionaries(rng, 5, 4, 5, rng.uniform(0.3, 0.6)))
        for _ in range(25)
    ]
    fast = [induce_on_transgraphs(t, descriptor) for t in tsets]
    monkeypatch.setattr(pipeline, "generate_candidates", reference.generate_candidates)
    for t, got in zip(tsets, fast):
        want = induce_on_transgraphs(t, descriptor)
        assert got.pairs == want.pairs
        assert got.reports == want.reports
