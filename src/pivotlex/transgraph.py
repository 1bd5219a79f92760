"""Tripartite word graphs: two non-pivot languages joined through a pivot.

A transgraph holds words of languages A and C on the outside and pivot
words of language B in the middle; an edge marks a shared-meaning
indication taken from the input dictionaries (or proposed later by the
symmetry-completion cycles). A graph is its id and its edges, one map
from edge key, (side, non-pivot, pivot), to probability: dictionary edges
have probability 1, and a proposed edge has the proposing pair's
coexistence, clamped into [MIN_EDGE_PROB, 1]. Its word sets are not
stored: each access reads them from the edge keys, at a cost of O(edges).

Edge keys have one order, their natural tuple order: a graph's edges and
every candidate's missing edges are kept in key order.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .lexicon import BilingualDictionary, Word

SIDE_AB = "AB"
SIDE_BC = "BC"

# proposed-edge confidence is clamped into (0, 1]
MIN_EDGE_PROB = 1e-6

EdgeKey = tuple[str, Word, Word]  # (side, non_pivot, pivot)


class Transgraph:
    """One connected component of the joined dictionaries: an id and its edges.

    ``a_words``, ``b_words`` and ``c_words`` are read from the edge keys on
    each access, at a cost of O(edges); a hot loop walks ``edges`` instead.
    """

    def __init__(self, id: int, edges: dict[EdgeKey, float]):
        self.id = id
        # edge key -> probability, in key order
        self.edges = edges

    @property
    def a_words(self) -> frozenset[Word]:
        return frozenset(np_ for side, np_, _ in self.edges if side == SIDE_AB)

    @property
    def b_words(self) -> frozenset[Word]:
        return frozenset(pivot for _, _, pivot in self.edges)

    @property
    def c_words(self) -> frozenset[Word]:
        return frozenset(np_ for side, np_, _ in self.edges if side == SIDE_BC)


class TransgraphSet:
    """All components of one dictionary pair, plus the ones set aside."""

    def __init__(
        self,
        lang_a: str,
        lang_b: str,
        lang_c: str,
        graphs: list[Transgraph],
        skipped: list[tuple[int, int]] | None = None,
    ):
        self.lang_a = lang_a
        self.lang_b = lang_b
        self.lang_c = lang_c
        self.graphs = graphs
        self.skipped = [] if skipped is None else skipped  # (id, edge count)


class ComponentStats(NamedTuple):
    a_count: int
    b_count: int
    c_count: int
    edge_count: int


def build_transgraphs(
    dict_ab: BilingualDictionary, dict_cb: BilingualDictionary
) -> TransgraphSet:
    """Join the two dictionaries and split into connected components.

    Both dictionaries must be oriented non-pivot -> pivot and share the
    pivot language on the target side. Component ids are assigned by the
    smallest word contained, so they do not depend on input order. Words
    compare by language tag first, so the tags' spelling orders the ids (by
    smallest pivot with min/ind/zlm, by smallest A-word with a/b/c), and with
    them the cv folds, which are runs of consecutive ids.
    """
    if dict_ab.target != dict_cb.target:
        raise ValueError(
            f"pivot language mismatch: {dict_ab.target!r} vs {dict_cb.target!r}"
        )
    if dict_ab.source == dict_cb.source:
        raise ValueError("the two non-pivot languages must differ")
    lang_a, lang_b, lang_c = dict_ab.source, dict_ab.target, dict_cb.source

    # word -> (its component's words, the component's edge keys); a merge
    # moves the smaller component into the larger, so a word moves at most
    # log2(words) times
    comp: dict[Word, tuple[list[Word], list[EdgeKey]]] = {}
    keys = [(SIDE_AB, a, b) for a, b in dict_ab.entries]
    keys += [(SIDE_BC, c, b) for c, b in dict_cb.entries]
    for key in keys:
        _, non_pivot, pivot = key
        here, there = comp.get(non_pivot), comp.get(pivot)
        if here is None:
            if there is None:
                there = comp[pivot] = ([pivot], [])
            there[0].append(non_pivot)
            here = comp[non_pivot] = there
        elif there is None:
            here[0].append(pivot)
            comp[pivot] = here
        elif here is not there:
            if len(here[0]) < len(there[0]):
                here, there = there, here
            here[0].extend(there[0])
            here[1].extend(there[1])
            for word in there[0]:
                comp[word] = here
        here[1].append(key)

    components = sorted({id(c): c for c in comp.values()}.values(), key=lambda c: min(c[0]))
    graphs = [
        Transgraph(cid, dict.fromkeys(sorted(comp_keys), 1.0))
        for cid, (_, comp_keys) in enumerate(components)
    ]
    return TransgraphSet(lang_a, lang_b, lang_c, graphs)


def filter_big(tset: TransgraphSet, max_edges: int) -> TransgraphSet:
    """Move components with more than max_edges edges to the skipped list."""
    if max_edges <= 0:
        raise ValueError("max_edges must be positive")
    kept, skipped = [], list(tset.skipped)
    for g in tset.graphs:
        if len(g.edges) > max_edges:
            skipped.append((g.id, len(g.edges)))
        else:
            kept.append(g)
    return TransgraphSet(tset.lang_a, tset.lang_b, tset.lang_c, kept, sorted(skipped))


def add_new_edges(tg: Transgraph, candidates: Iterable) -> Transgraph:
    """Materialize the missing edges demanded by the candidates' symmetry.

    Each added edge's probability is the proposing candidate's coexistence
    (the best one when several candidates want the same edge), clamped
    into [MIN_EDGE_PROB, 1]; re-applying with the same candidates is a
    no-op.
    """
    proposals: dict[EdgeKey, float] = {}
    for cand in candidates:
        conf = cand.coexistence
        for key in cand.missing_edges:
            if key not in tg.edges and (key not in proposals or conf > proposals[key]):
                proposals[key] = conf
    if not proposals:
        return tg
    edges = dict(tg.edges)
    for key, conf in proposals.items():
        edges[key] = min(max(conf, MIN_EDGE_PROB), 1.0)
    return Transgraph(tg.id, dict(sorted(edges.items())))


def component_stats(tg: Transgraph) -> ComponentStats:
    if not tg.edges:
        raise ValueError("empty transgraph")
    return ComponentStats(
        a_count=len(tg.a_words),
        b_count=len(tg.b_words),
        c_count=len(tg.c_words),
        edge_count=len(tg.edges),
    )

