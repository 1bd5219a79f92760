"""Reference methods to compare the constraint pipeline against."""

from __future__ import annotations

from itertools import product

from .lexicon import BilingualDictionary, PairSet
from .transgraph import TransgraphSet

WITHIN = "within"
ACROSS = "across"

DEFAULT_IC_DELTA = 2


def cartesian_product(tset: TransgraphSet, scope: str = WITHIN) -> PairSet:
    """All A x C combinations, per transgraph or across the kept set."""
    if scope == WITHIN:
        # product reads each graph's word sets once
        pairs = {pair for g in tset.graphs for pair in product(g.a_words, g.c_words)}
    elif scope == ACROSS:
        all_a = {a for g in tset.graphs for a in g.a_words}
        all_c = {c for g in tset.graphs for c in g.c_words}
        pairs = {(a, c) for a in all_a for c in all_c}
    else:
        raise ValueError(f"scope must be {WITHIN!r} or {ACROSS!r}, got {scope!r}")
    return PairSet(tset.lang_a, tset.lang_c, frozenset(pairs))


def inverse_consultation(
    dict_ab: BilingualDictionary,
    dict_cb: BilingualDictionary,
    delta: int = DEFAULT_IC_DELTA,
) -> PairSet:
    """Keep pairs whose pivot translation sets overlap in >= delta words.

    Requiring more than one shared pivot is what gives this method its
    high-precision, low-recall profile; delta=1 degenerates to every
    connected pair.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if dict_ab.target != dict_cb.target:
        raise ValueError("pivot language mismatch")
    pivots_of_a: dict = {}
    pivots_of_c: dict = {}
    for a, b in dict_ab.entries:
        pivots_of_a.setdefault(a, set()).add(b)
    for c, b in dict_cb.entries:
        pivots_of_c.setdefault(c, set()).add(b)
    c_words_of_pivot: dict = {}
    for c, bs in pivots_of_c.items():
        for b in bs:
            c_words_of_pivot.setdefault(b, set()).add(c)
    pairs = set()
    for a, bs_a in pivots_of_a.items():
        partners = set()
        for b in bs_a:
            partners |= c_words_of_pivot.get(b, set())
        for c in partners:
            if len(bs_a & pivots_of_c[c]) >= delta:
                pairs.add((a, c))
    return PairSet(dict_ab.source, dict_cb.source, frozenset(pairs))
