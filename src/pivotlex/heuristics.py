"""Candidate enumeration and the cognate-likelihood heuristics.

For a candidate pair (A-word, C-word) four signals are computed from the
transgraph around it:

  1. coexistence          -- product of the two directed conditional
                             probabilities of reaching one word from the
                             other through their shared pivots
  2. missing_contribution -- how much the pair's hypothesized (absent)
                             edges would add to that coexistence
  3. pivot_ambiguity      -- 1 minus the probability that the pair shares
                             exact senses given how polysemous its pivots are
  4. form_similarity      -- longest-common-subsequence ratio of the spellings;
                             the LCS length is computed bit-parallel (Allison
                             & Dix 1986; Hyyro 2004), one big-integer step per
                             character of one word instead of a table

The combined edge cost turns the selected signals into the price of
assuming one of the pair's missing edges. generate_candidates scores each
pair once, as it enumerates it, into an immutable PairCandidate; the form
similarity is computed only when it is selected.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .lexicon import Word
from .transgraph import SIDE_AB, SIDE_BC, EdgeKey, Transgraph


class PairCandidate(NamedTuple):
    """An (A-word, C-word) translation pair candidate, scored and immutable.

    ``pivots`` holds every pivot of either word, in pivot order; a pivot
    linked to only one of them has its absent edge in ``missing_edges``.
    ``edge_cost`` is the price of each of the missing edges.
    """

    word_a: Word
    word_c: Word
    pivots: tuple[Word, ...]
    missing_edges: tuple[EdgeKey, ...]
    coexistence: float
    edge_cost: float

    @property
    def pair(self) -> tuple[Word, Word]:
        return (self.word_a, self.word_c)


class SynonymCandidate(NamedTuple):
    """A pair proposed because one side looks synonymous with a found cognate."""

    word_a: Word
    word_c: Word
    anchor: tuple[Word, Word]
    anchor_pivots: tuple[Word, ...]
    shared_prob: float
    missing_edges: tuple[EdgeKey, ...]

    @property
    def pair(self) -> tuple[Word, Word]:
        return (self.word_a, self.word_c)

    @property
    def edge_cost(self) -> float:
        """The leftover improbability, spread evenly over the missing edges."""
        if not self.missing_edges:
            return 0.0
        return (1.0 - self.shared_prob) / len(self.missing_edges)


_HEURISTIC_FIELDS = {
    1: "coexistence",
    2: "missing_contribution",
    3: "pivot_ambiguity",
    4: "form_similarity",
}


class _SelectionFields(NamedTuple):
    coexistence: bool
    missing_contribution: bool
    pivot_ambiguity: bool
    form_similarity: bool


class HeuristicSelection(_SelectionFields):
    __slots__ = ()

    def __new__(
        cls,
        coexistence: bool = False,
        missing_contribution: bool = False,
        pivot_ambiguity: bool = False,
        form_similarity: bool = False,
    ):
        flags = (coexistence, missing_contribution, pivot_ambiguity, form_similarity)
        if not any(flags):
            raise ValueError("at least one heuristic must be selected")
        return tuple.__new__(cls, flags)

    @classmethod
    def _make(cls, fields):  # so that _replace checks too
        return cls(*fields)

    @classmethod
    def from_token(cls, token: str) -> "HeuristicSelection":
        """Parse a token like ``H14``: distinct ascending digits 1-4."""
        if not token.startswith("H") or len(token) < 2:
            raise ValueError(f"bad heuristic token: {token!r}")
        digits = token[1:]
        if any(d not in "1234" for d in digits) or list(digits) != sorted(set(digits)):
            raise ValueError(
                f"bad heuristic token: {token!r} (want distinct ascending digits 1-4)"
            )
        flags = {_HEURISTIC_FIELDS[int(d)]: True for d in digits}
        return cls(**flags)

    @property
    def token(self) -> str:
        digits = "".join(
            str(n) for n, name in _HEURISTIC_FIELDS.items() if getattr(self, name)
        )
        return "H" + digits


# compute_tables' (from_a, from_c, from_pivot)
_Tables = tuple[dict[Word, float], dict[Word, float], dict[Word, float]]


def compute_tables(tg: Transgraph) -> _Tables:
    """Reciprocal-probability degree sums over the current edge set.

    from_a[b]  = sum of 1/prob over b's A-side edges
    from_c[b]  = sum of 1/prob over b's C-side edges
    from_pivot[w] = sum of 1/prob over the pivot edges of non-pivot w
    """
    from_a: dict[Word, float] = {}
    from_c: dict[Word, float] = {}
    from_pivot: dict[Word, float] = {}
    for (non_pivot, pivot, side), prob in tg.edges.items():
        w = 1.0 / prob
        table = from_a if side == SIDE_AB else from_c
        table[pivot] = table.get(pivot, 0.0) + w
        from_pivot[non_pivot] = from_pivot.get(non_pivot, 0.0) + w
    return from_a, from_c, from_pivot


def generate_candidates(tg: Transgraph, sel: HeuristicSelection) -> list[PairCandidate]:
    """Enumerate and score pairs joined through at least one shared pivot.

    A candidate's pivots are every pivot adjacent to either of its words;
    a pivot adjacent to only one of them is incomplete, and its absent
    edge is recorded in missing_edges. Each pair is priced under ``sel``
    against the graph as given. Output is ordered by pair.
    """
    tables = compute_tables(tg)
    out: list[PairCandidate] = []
    for a in sorted(tg.a_words):
        pivots_a = set(tg.word_pivots.get(a, ()))
        reachable: set[Word] = set()
        for b in pivots_a:
            reachable.update(tg.pivot_c_neighbors.get(b, ()))
        for c in sorted(reachable):
            pivots = tuple(sorted(pivots_a | set(tg.word_pivots.get(c, ()))))
            missing = []
            for b in pivots:
                if (a, b, SIDE_AB) not in tg.edges:
                    missing.append((a, b, SIDE_AB))
                if (c, b, SIDE_BC) not in tg.edges:
                    missing.append((c, b, SIDE_BC))
            missing.sort()
            coex, miss, amb = compute_cognate_probabilities(a, c, pivots, missing, tables)
            cost = compute_edge_cost(sel, coex, miss, amb, a.surface, c.surface)
            out.append(PairCandidate(a, c, pivots, tuple(missing), coex, cost))
    return out


# exponents beyond this leave the shared-sense factor indistinguishable from 0
_MAX_SENSE_EXPONENT = 62


def compute_cognate_probabilities(
    a: Word,
    c: Word,
    pivots: Sequence[Word],
    missing_edges: Sequence[EdgeKey],
    tables: _Tables,
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
    hyp_ab = {pv for (_, pv, side) in missing_edges if side == SIDE_AB}
    hyp_bc = {pv for (_, pv, side) in missing_edges if side == SIDE_BC}
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
            n = min(math.ceil(degree - 1e-9), _MAX_SENSE_EXPONENT)
            shared *= 1.0 / ((1 << n) - 1)
        else:
            sup_a_b = from_a.get(b, 0.0) + (1.0 if b in hyp_ab else 0.0)
            sup_c_b = from_c.get(b, 0.0) + (1.0 if b in hyp_bc else 0.0)
            miss_ac += (1.0 / sup_a_b) * (1.0 / sup_from_pivot_c)
            miss_ca += (1.0 / sup_c_b) * (1.0 / sup_from_pivot_a)

    coexistence = p_ac * p_ca
    missing_contribution = (p_ac + miss_ac) * (p_ca + miss_ca) - coexistence
    return coexistence, missing_contribution, 1.0 - shared


def lcsr(a: str, b: str) -> float:
    """Longest common subsequence length over the longer string's length."""
    if not a or not b:
        raise ValueError("lcsr needs non-empty strings")
    return _lcs_len(a, b) / max(len(a), len(b))


def _lcs_len(a: str, b: str) -> int:
    # bit-parallel LCS length (Allison & Dix 1986; Hyyro 2004): after each
    # character of a, bit j of v is 0 exactly where the LCS of the prefix of
    # a read so far with b[:j + 1] is one longer than with b[:j]
    masks: dict[str, int] = {}
    for j, ch in enumerate(b):
        masks[ch] = masks.get(ch, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for ch in a:
        u = v & masks.get(ch, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


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

