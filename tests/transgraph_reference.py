"""The component build with union-find: the reference for build_transgraphs.

transgraph.build_transgraphs labels components by merging word lists, the
smaller into the larger, and sorts each component's own keys. Here every
edge key is sorted once, the words are joined in a union-find forest with
path compression, and the keys are grouped by root in that sorted order.
Both number the components by their smallest word; the tests require the
same ids, edge-key order and probabilities.
"""

from __future__ import annotations

from pivotlex.lexicon import BilingualDictionary, Word
from pivotlex.transgraph import SIDE_AB, SIDE_BC, EdgeKey, Transgraph, TransgraphSet


class UnionFind:
    """Forest over hashable keys with path compression."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, k):
        if k not in self.parent:
            self.parent[k] = k
        root = k
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[k] != root:
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra


def build_transgraphs(
    dict_ab: BilingualDictionary, dict_cb: BilingualDictionary
) -> TransgraphSet:
    """Join the two dictionaries and split into connected components."""
    if dict_ab.target != dict_cb.target:
        raise ValueError(
            f"pivot language mismatch: {dict_ab.target!r} vs {dict_cb.target!r}"
        )
    if dict_ab.source == dict_cb.source:
        raise ValueError("the two non-pivot languages must differ")
    lang_a, lang_b, lang_c = dict_ab.source, dict_ab.target, dict_cb.source

    keys = [(SIDE_AB, a, b) for a, b in sorted(dict_ab.entries)]
    keys += [(SIDE_BC, c, b) for c, b in sorted(dict_cb.entries)]

    uf = UnionFind()
    for _, non_pivot, pivot in keys:
        uf.union(non_pivot, pivot)

    # keys is in key order, so each component's keys are too
    by_root: dict[Word, list[EdgeKey]] = {}
    for key in keys:
        by_root.setdefault(uf.find(key[1]), []).append(key)

    components = sorted(by_root.values(), key=lambda ks: min(min(k[1:]) for k in ks))
    graphs = [
        Transgraph(cid, dict.fromkeys(comp_keys, 1.0))
        for cid, comp_keys in enumerate(components)
    ]
    return TransgraphSet(lang_a, lang_b, lang_c, graphs)
