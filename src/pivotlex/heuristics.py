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
assuming one of the pair's missing edges. A scoring round,
generate_candidates, is one pass over the graph's edges that builds the
degree sums and the adjacency together, then prices each pair inline as
it is enumerated into an immutable PairCandidate: signals 1-3 fall out of
the walk over the pair's pivots (2 and 3 only when selected), and its
missing edges are the differences of the two words' pivot sets, as
(side, non-pivot, pivot) keys in key order: the A-word's before the
C-word's, each in pivot order. The form similarity is computed only when
it is selected, and then only in a round whose prices are kept: a growth
round, one that still has missing edges and is not the last, leaves it
out.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lexicon import Word, _checked_make
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

    _make = classmethod(_checked_make)

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


# exponents beyond this leave the shared-sense factor indistinguishable from 0
_MAX_SENSE_EXPONENT = 62


def generate_candidates(
    tg: Transgraph, sel: HeuristicSelection, last_round: bool = True
) -> list[PairCandidate]:
    """Enumerate and price the pairs joined through at least one shared pivot.

    A candidate's pivots are every pivot adjacent to either of its words;
    a pivot adjacent to only one of them is incomplete, and its absent
    edge is recorded in missing_edges. Each pair is priced under ``sel``
    against the graph as given. Output is ordered by pair.

    With ``last_round`` false the caller discards the prices of a round
    that still has missing edges (a growth round), so such a round leaves
    out the form-similarity term; a round without missing edges is priced
    in full either way.
    """
    # from_a[b], from_c[b]: sum of 1/prob over pivot b's A-side, C-side edges;
    # from_pivot[w]: sum of 1/prob over the pivot edges of non-pivot w
    from_a: dict[Word, float] = {}
    from_c: dict[Word, float] = {}
    from_pivot: dict[Word, float] = {}
    # the keys of pivots_of_a are the graph's A-words
    pivots_of_a: dict[Word, set[Word]] = {}
    pivots_of_c: dict[Word, set[Word]] = {}
    c_words_of: dict[Word, list[Word]] = {}
    for (side, non_pivot, pivot), prob in tg.edges.items():
        w = 1.0 / prob
        if side == SIDE_AB:
            from_a[pivot] = from_a.get(pivot, 0.0) + w
            pivots_of_a.setdefault(non_pivot, set()).add(pivot)
        else:
            from_c[pivot] = from_c.get(pivot, 0.0) + w
            pivots_of_c.setdefault(non_pivot, set()).add(pivot)
            c_words_of.setdefault(pivot, []).append(non_pivot)
        from_pivot[non_pivot] = from_pivot.get(non_pivot, 0.0) + w

    h1, h2, h3 = sel.coexistence, sel.missing_contribution, sel.pivot_ambiguity
    rows = []
    growth = False  # some candidate has a missing edge
    for a in sorted(pivots_of_a):
        pa = pivots_of_a[a]
        reachable: set[Word] = set()
        for b in pa:
            reachable.update(c_words_of.get(b, ()))
        from_pivot_a = from_pivot[a]
        for c in sorted(reachable):
            pc = pivots_of_c[c]
            pivots = tuple(sorted(pa | pc))
            if pa == pc:  # every pivot complete
                miss_ab = miss_bc = ()
            else:
                growth = True
                # a pivot of only one word hypothesizes the other word's edge,
                # counted as existing (at probability 1) in its denominators
                miss_ab = [(SIDE_AB, a, b) for b in pivots if b not in pa]
                miss_bc = [(SIDE_BC, c, b) for b in pivots if b not in pc]
                inv_sup_a = 1.0 / (from_pivot_a + len(miss_ab))
                inv_sup_c = 1.0 / (from_pivot[c] + len(miss_bc))
            inv_from_pivot_a = 1.0 / from_pivot_a
            inv_from_pivot_c = 1.0 / from_pivot[c]
            p_ac = p_ca = miss_ac = miss_ca = 0.0
            shared = 1.0
            for b in pivots:
                if b in pa and b in pc:
                    fa, fc = from_a[b], from_c[b]
                    p_ac += (1.0 / fa) * inv_from_pivot_c
                    p_ca += (1.0 / fc) * inv_from_pivot_a
                    if h3:
                        # senses modelled as a count: round the real-valued degree up
                        n = min(math.ceil(max(fa, fc) - 1e-9), _MAX_SENSE_EXPONENT)
                        shared *= 1.0 / ((1 << n) - 1)
                elif not h2:
                    continue
                elif b in pa:  # c lacks its edge to b
                    miss_ac += (1.0 / from_a[b]) * inv_sup_c
                    miss_ca += (1.0 / (from_c.get(b, 0.0) + 1.0)) * inv_sup_a
                else:  # a lacks its edge to b
                    miss_ac += (1.0 / (from_a.get(b, 0.0) + 1.0)) * inv_sup_c
                    miss_ca += (1.0 / from_c[b]) * inv_sup_a
            coexistence = p_ac * p_ca
            cost = 0.0
            if h1:
                cost += 1.0 - coexistence
            if h2:
                cost += (p_ac + miss_ac) * (p_ca + miss_ca) - coexistence
            if h3:
                cost += 1.0 - shared
            rows.append((a, c, pivots, tuple(miss_ab + miss_bc), coexistence, cost))

    if sel.form_similarity and (last_round or not growth):
        # form dissimilarity, capped at 1/100 of a full heuristic unit so it
        # only breaks ties between otherwise equal candidates
        return [
            PairCandidate._make(
                (a, c, pivots, missing, coex, cost + (1.0 - lcsr(a.surface, c.surface)) / 100.0)
            )
            for a, c, pivots, missing, coex, cost in rows
        ]
    return [PairCandidate._make(row) for row in rows]


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
