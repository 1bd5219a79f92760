"""The candidate scoring as separate steps: the reference for the one-pass scorer.

heuristics.generate_candidates builds its degree sums and adjacency in one
pass over the edges and prices each pair as it enumerates it. Here the same
quantities come from the formulas one at a time: the reciprocal-probability
tables, the missing edges found by edge-key lookups, heuristics 1-3 of a
pair, and its edge cost. Every round is priced in full. The tests require
the two to agree exactly, float for float.
"""

from __future__ import annotations

import math
from typing import Sequence

from pivotlex.heuristics import HeuristicSelection, PairCandidate, lcsr
from pivotlex.lexicon import Word
from pivotlex.transgraph import SIDE_AB, SIDE_BC, EdgeKey, Transgraph

# compute_tables' (from_a, from_c, from_pivot)
Tables = tuple[dict[Word, float], dict[Word, float], dict[Word, float]]

# exponents beyond this leave the shared-sense factor indistinguishable from 0
MAX_SENSE_EXPONENT = 62


def compute_tables(tg: Transgraph) -> Tables:
    """Reciprocal-probability degree sums over the current edge set.

    from_a[b]  = sum of 1/prob over b's A-side edges
    from_c[b]  = sum of 1/prob over b's C-side edges
    from_pivot[w] = sum of 1/prob over the pivot edges of non-pivot w
    """
    from_a: dict[Word, float] = {}
    from_c: dict[Word, float] = {}
    from_pivot: dict[Word, float] = {}
    for (side, non_pivot, pivot), prob in tg.edges.items():
        w = 1.0 / prob
        table = from_a if side == SIDE_AB else from_c
        table[pivot] = table.get(pivot, 0.0) + w
        from_pivot[non_pivot] = from_pivot.get(non_pivot, 0.0) + w
    return from_a, from_c, from_pivot


def generate_candidates(
    tg: Transgraph, sel: HeuristicSelection, last_round: bool = True
) -> list[PairCandidate]:
    """Every pair joined through a shared pivot, priced in full.

    ``last_round`` is accepted, as run_cycles passes it, and ignored: every
    round is priced in full, form similarity included.
    """
    word_pivots: dict[Word, set[Word]] = {}
    pivot_c_neighbors: dict[Word, set[Word]] = {}
    for side, non_pivot, pivot in tg.edges:
        word_pivots.setdefault(non_pivot, set()).add(pivot)
        if side == SIDE_BC:
            pivot_c_neighbors.setdefault(pivot, set()).add(non_pivot)
    tables = compute_tables(tg)
    out: list[PairCandidate] = []
    for a in sorted(tg.a_words):
        pivots_a = word_pivots.get(a, set())
        reachable: set[Word] = set()
        for b in pivots_a:
            reachable.update(pivot_c_neighbors.get(b, ()))
        for c in sorted(reachable):
            pivots = tuple(sorted(pivots_a | word_pivots[c]))
            missing = []
            for b in pivots:
                if (SIDE_AB, a, b) not in tg.edges:
                    missing.append((SIDE_AB, a, b))
                if (SIDE_BC, c, b) not in tg.edges:
                    missing.append((SIDE_BC, c, b))
            missing.sort()
            coex, miss, amb = compute_cognate_probabilities(a, c, pivots, missing, tables)
            cost = compute_edge_cost(sel, coex, miss, amb, a.surface, c.surface)
            out.append(PairCandidate(a, c, pivots, tuple(missing), coex, cost))
    return out


def compute_cognate_probabilities(
    a: Word,
    c: Word,
    pivots: Sequence[Word],
    missing_edges: Sequence[EdgeKey],
    tables: Tables,
) -> tuple[float, float, float]:
    """Heuristics 1-3 of (a, c): (coexistence, missing_contribution, pivot_ambiguity).

    A pivot is complete when neither of its edges to a and c is missing.
    Complete pivots feed the coexistence product; incomplete pivots feed
    the missing-contribution difference, with the pair's own hypothesized
    edges counted as existing (at probability 1) in those denominators only.
    The pivot ambiguity is 1 minus the probability that the pair shares
    exact senses.
    """
    if not pivots:
        raise ValueError(f"candidate {(a, c)} has no pivots")
    from_a, from_c, from_pivot = tables
    hyp_ab = {pv for (side, _, pv) in missing_edges if side == SIDE_AB}
    hyp_bc = {pv for (side, _, pv) in missing_edges if side == SIDE_BC}
    sup_from_pivot_a = from_pivot.get(a, 0.0) + len(hyp_ab)
    sup_from_pivot_c = from_pivot.get(c, 0.0) + len(hyp_bc)

    p_ac = p_ca = miss_ac = miss_ca = 0.0
    shared = 1.0
    for b in pivots:
        if b not in hyp_ab and b not in hyp_bc:
            p_ac += (1.0 / from_a[b]) * (1.0 / from_pivot[c])
            p_ca += (1.0 / from_c[b]) * (1.0 / from_pivot[a])
            # senses modelled as a count: round the real-valued degree up
            degree = max(from_a[b], from_c[b])
            n = min(math.ceil(degree - 1e-9), MAX_SENSE_EXPONENT)
            shared *= 1.0 / ((1 << n) - 1)
        else:
            sup_a_b = from_a.get(b, 0.0) + (1.0 if b in hyp_ab else 0.0)
            sup_c_b = from_c.get(b, 0.0) + (1.0 if b in hyp_bc else 0.0)
            miss_ac += (1.0 / sup_a_b) * (1.0 / sup_from_pivot_c)
            miss_ca += (1.0 / sup_c_b) * (1.0 / sup_from_pivot_a)

    coexistence = p_ac * p_ca
    missing_contribution = (p_ac + miss_ac) * (p_ca + miss_ca) - coexistence
    return coexistence, missing_contribution, 1.0 - shared


def compute_edge_cost(
    sel: HeuristicSelection,
    coexistence: float,
    missing_contribution: float,
    pivot_ambiguity: float,
    surface_a: str,
    surface_c: str,
) -> float:
    """Price of assuming one of a pair's missing edges under ``sel``.

    Form dissimilarity, the spellings' LCS ratio computed only under H4,
    is capped at 1/100 of a full heuristic unit so it only breaks ties
    between otherwise equal candidates.
    """
    cost = 0.0
    if sel.coexistence:
        cost += 1.0 - coexistence
    if sel.missing_contribution:
        cost += missing_contribution
    if sel.pivot_ambiguity:
        cost += pivot_ambiguity
    if sel.form_similarity:
        cost += (1.0 - lcsr(surface_a, surface_c)) / 100.0
    return cost
