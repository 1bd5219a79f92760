"""Shared fixture builders for the test suite."""

from __future__ import annotations

import random

from maxsat_reference import CnfFormula, VarRegistry, hard_clause, soft_clause
from pivotlex.heuristics import HeuristicSelection, generate_candidates
from pivotlex.lexicon import BilingualDictionary, PairSet, Word
from pivotlex.pipeline import InductionResult, _synonym_candidates
from pivotlex.transgraph import SIDE_AB, SIDE_BC, Transgraph, TransgraphSet, build_transgraphs

LANG_A, LANG_B, LANG_C = "aaa", "ppp", "ccc"


def wa(s: str) -> Word:
    return Word(LANG_A, s)


def wb(s: str) -> Word:
    return Word(LANG_B, s)


def wc(s: str) -> Word:
    return Word(LANG_C, s)


def dict_ab(*entries: tuple[str, str]) -> BilingualDictionary:
    return BilingualDictionary(
        LANG_A, LANG_B, frozenset((wa(s), wb(t)) for s, t in entries)
    )


def dict_cb(*entries: tuple[str, str]) -> BilingualDictionary:
    return BilingualDictionary(
        LANG_C, LANG_B, frozenset((wc(s), wb(t)) for s, t in entries)
    )


def graphs_from(ab: list[tuple[str, str]], cb: list[tuple[str, str]]) -> TransgraphSet:
    return build_transgraphs(dict_ab(*ab), dict_cb(*cb))


def single_graph(ab: list[tuple[str, str]], cb: list[tuple[str, str]]):
    tset = graphs_from(ab, cb)
    assert len(tset.graphs) == 1, f"expected one component, got {len(tset.graphs)}"
    return tset.graphs[0]


# the recurring asymmetric shape: a1-{b1,b2}, b1-{c1,c2}, b2-c1
ASYM_AB = [("a1", "b1"), ("a1", "b2")]
ASYM_CB = [("c1", "b1"), ("c1", "b2"), ("c2", "b1")]


def random_dictionaries(
    rng: random.Random,
    n_a: int = 4,
    n_b: int = 4,
    n_c: int = 4,
    p_edge: float = 0.4,
) -> tuple[BilingualDictionary, BilingualDictionary]:
    """Random dictionaries guaranteed non-empty on both sides."""
    while True:
        ab = [
            (f"a{i}", f"b{j}")
            for i in range(n_a)
            for j in range(n_b)
            if rng.random() < p_edge
        ]
        cb = [
            (f"c{i}", f"b{j}")
            for i in range(n_c)
            for j in range(n_b)
            if rng.random() < p_edge
        ]
        if ab and cb:
            return dict_ab(*ab), dict_cb(*cb)


def random_formula(rng: random.Random, max_vars: int = 18) -> CnfFormula:
    """Random mixed hard/soft formula for solver-oracle comparisons."""
    n = rng.randint(2, max_vars)
    reg = VarRegistry()
    for i in range(1, n + 1):
        reg.intern(("var", i))

    def clause_lits(width: int) -> tuple[int, ...]:
        chosen = rng.sample(range(1, n + 1), min(width, n))
        return tuple(v if rng.random() < 0.5 else -v for v in chosen)

    hard = [
        hard_clause(clause_lits(rng.randint(1, 3)))
        for _ in range(rng.randint(0, n))
    ]
    soft = [
        soft_clause(clause_lits(rng.randint(1, 3)), rng.choice([0.1, 0.25, 0.5, 1.0, 2.5]))
        for _ in range(rng.randint(1, n))
    ]
    return CnfFormula(reg, hard=hard, soft=soft)


def marginal_probability(tg: Transgraph, word: Word, side: str | None = None) -> float:
    """Share of one dictionary side's edges that touch the given word."""
    if side is None:
        if word in tg.a_words:
            side = SIDE_AB
        elif word in tg.c_words:
            side = SIDE_BC
        else:
            raise ValueError("side is required for pivot words")
    side_edges = [key for key in tg.edges if key[0] == side]
    if not side_edges:
        raise ValueError(f"no edges on side {side}")
    touching = [key for key in side_edges if word in key[1:]]
    return len(touching) / len(side_edges)


def joint_probability(tg: Transgraph, non_pivot: Word, pivot: Word) -> float:
    """Share of one dictionary side's edges that join exactly this pair."""
    side = SIDE_AB if non_pivot in tg.a_words else SIDE_BC
    side_edges = [key for key in tg.edges if key[0] == side]
    if not side_edges:
        raise ValueError(f"no edges on side {side}")
    hit = 1 if (side, non_pivot, pivot) in tg.edges else 0
    return hit / len(side_edges)


def synonym_shares(tg: Transgraph, anchor: tuple[Word, Word]) -> dict[Word, float]:
    """Each synonym word's shared_prob when ``anchor`` is the one accepted cognate."""
    (cognate,) = [
        c
        for c in generate_candidates(tg, HeuristicSelection.from_token("H1"))
        if c.pair == anchor
    ]
    return {
        s.word_c if s.word_a == anchor[0] else s.word_a: s.shared_prob
        for s in _synonym_candidates(tg, [cognate])
    }


def result_pair_set(result: InductionResult) -> PairSet:
    return PairSet(
        result.lang_a,
        result.lang_c,
        frozenset((p.word_a, p.word_c) for p in result.pairs),
    )
