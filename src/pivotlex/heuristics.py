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

The combined edge cost turns these into the price of assuming one of the
pair's missing edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lexicon import Word
from .transgraph import SIDE_AB, SIDE_BC, EdgeKey, Transgraph


@dataclass(frozen=True)
class Path:
    """One pivot linking (or almost linking) a candidate pair."""

    pivot: Word
    has_ab: bool
    has_bc: bool

    def __post_init__(self):
        if not (self.has_ab or self.has_bc):
            raise ValueError("path must have at least one real edge")

    @property
    def complete(self) -> bool:
        return self.has_ab and self.has_bc


@dataclass
class PairCandidate:
    """An (A-word, C-word) translation pair candidate and its scores."""

    word_a: Word
    word_c: Word
    paths: list[Path]
    missing_edges: tuple[EdgeKey, ...] = ()
    coexistence: float = 0.0
    missing_contribution: float = 0.0
    pivot_ambiguity: float = 0.0
    form_similarity: float = 0.0
    shared_sense_prob: float = 1.0
    edge_cost: float = 0.0

    @property
    def pair(self) -> tuple[Word, Word]:
        return (self.word_a, self.word_c)


@dataclass(frozen=True)
class SynonymCandidate:
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


_HEURISTIC_FIELDS = {
    1: "coexistence",
    2: "missing_contribution",
    3: "pivot_ambiguity",
    4: "form_similarity",
}


@dataclass(frozen=True)
class HeuristicSelection:
    coexistence: bool = False
    missing_contribution: bool = False
    pivot_ambiguity: bool = False
    form_similarity: bool = False

    def __post_init__(self):
        if not any(
            (
                self.coexistence,
                self.missing_contribution,
                self.pivot_ambiguity,
                self.form_similarity,
            )
        ):
            raise ValueError("at least one heuristic must be selected")

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


@dataclass(frozen=True)
class ConditionalTables:
    """Reciprocal-probability degree sums over the current edge set.

    from_a[b]  = sum of 1/prob over b's A-side edges
    from_c[b]  = sum of 1/prob over b's C-side edges
    from_pivot[w] = sum of 1/prob over the pivot edges of non-pivot w
    """

    from_a: dict[Word, float]
    from_c: dict[Word, float]
    from_pivot: dict[Word, float]


def compute_tables(tg: Transgraph) -> ConditionalTables:
    from_a: dict[Word, float] = {}
    from_c: dict[Word, float] = {}
    from_pivot: dict[Word, float] = {}
    for e in tg.edges:
        w = 1.0 / e.prob
        side = from_a if e.side == SIDE_AB else from_c
        side[e.pivot] = side.get(e.pivot, 0.0) + w
        from_pivot[e.non_pivot] = from_pivot.get(e.non_pivot, 0.0) + w
    return ConditionalTables(from_a, from_c, from_pivot)


def generate_candidates(tg: Transgraph) -> list[PairCandidate]:
    """Enumerate pairs joined by at least one complete pivot path.

    A candidate's path list covers every pivot adjacent to either of its
    words; pivots adjacent to only one side become incomplete paths whose
    absent edge is recorded in missing_edges. Output is ordered by pair.
    """
    out: list[PairCandidate] = []
    for a in sorted(tg.a_words):
        pivots_a = set(tg.word_pivots.get(a, ()))
        reachable: set[Word] = set()
        for b in pivots_a:
            reachable.update(tg.pivot_c_neighbors.get(b, ()))
        for c in sorted(reachable):
            pivots_c = set(tg.word_pivots.get(c, ()))
            paths = []
            missing = []
            for b in sorted(pivots_a | pivots_c):
                has_ab = (a, b, SIDE_AB) in tg.edge_index
                has_bc = (c, b, SIDE_BC) in tg.edge_index
                paths.append(Path(b, has_ab, has_bc))
                if not has_ab:
                    missing.append((a, b, SIDE_AB))
                if not has_bc:
                    missing.append((c, b, SIDE_BC))
            out.append(
                PairCandidate(a, c, paths, tuple(sorted(missing)))
            )
    return out


# exponents beyond this leave the shared-sense factor indistinguishable from 0
_MAX_SENSE_EXPONENT = 62


def compute_cognate_probabilities(
    cand: PairCandidate, tables: ConditionalTables
) -> PairCandidate:
    """Fill in the four heuristic scores for one candidate.

    Complete paths feed the coexistence product; incomplete paths feed the
    missing-contribution difference, with the candidate's own hypothesized
    edges counted as existing (at probability 1) in those denominators only.
    """
    if not cand.paths:
        raise ValueError(f"candidate {cand.pair} has no paths")
    a, c = cand.word_a, cand.word_c
    hyp_ab = {pv for (_, pv, side) in cand.missing_edges if side == SIDE_AB}
    hyp_bc = {pv for (_, pv, side) in cand.missing_edges if side == SIDE_BC}
    sup_from_pivot_a = tables.from_pivot.get(a, 0.0) + len(hyp_ab)
    sup_from_pivot_c = tables.from_pivot.get(c, 0.0) + len(hyp_bc)

    p_ac = p_ca = miss_ac = miss_ca = 0.0
    shared = 1.0
    for path in cand.paths:
        b = path.pivot
        if path.complete:
            p_ac += (1.0 / tables.from_a[b]) * (1.0 / tables.from_pivot[c])
            p_ca += (1.0 / tables.from_c[b]) * (1.0 / tables.from_pivot[a])
            # senses modelled as a count: round the real-valued degree up
            degree = max(tables.from_a[b], tables.from_c[b])
            n = min(math.ceil(degree - 1e-9), _MAX_SENSE_EXPONENT)
            shared *= 1.0 / ((1 << n) - 1)
        else:
            sup_a_b = tables.from_a.get(b, 0.0) + (1.0 if b in hyp_ab else 0.0)
            sup_c_b = tables.from_c.get(b, 0.0) + (1.0 if b in hyp_bc else 0.0)
            miss_ac += (1.0 / sup_a_b) * (1.0 / sup_from_pivot_c)
            miss_ca += (1.0 / sup_c_b) * (1.0 / sup_from_pivot_a)

    cand.coexistence = p_ac * p_ca
    cand.missing_contribution = (p_ac + miss_ac) * (p_ca + miss_ca) - p_ac * p_ca
    cand.shared_sense_prob = shared
    cand.pivot_ambiguity = 1.0 - shared
    cand.form_similarity = lcsr(a.surface, c.surface)
    return cand


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


def compute_edge_cost(cand: PairCandidate, sel: HeuristicSelection) -> float:
    """Price of assuming one of the candidate's missing edges.

    Form dissimilarity is capped at 1/100 of a full heuristic unit so it
    only breaks ties between otherwise equal candidates.
    """
    cost = 0.0
    if sel.coexistence:
        cost += 1.0 - cand.coexistence
    if sel.missing_contribution:
        cost += cand.missing_contribution
    if sel.pivot_ambiguity:
        cost += cand.pivot_ambiguity
    if sel.form_similarity:
        cost += (1.0 - cand.form_similarity) / 100.0
    cand.edge_cost = cost
    return cost


def marginal_probability(tg: Transgraph, word: Word, side: str | None = None) -> float:
    """Share of one dictionary side's edges that touch the given word."""
    if side is None:
        if word.lang == tg.lang_a:
            side = SIDE_AB
        elif word.lang == tg.lang_c:
            side = SIDE_BC
        else:
            raise ValueError("side is required for pivot words")
    side_edges = [e for e in tg.edges if e.side == side]
    if not side_edges:
        raise ValueError(f"no edges on side {side}")
    touching = [e for e in side_edges if word in (e.non_pivot, e.pivot)]
    return len(touching) / len(side_edges)


def joint_probability(tg: Transgraph, non_pivot: Word, pivot: Word) -> float:
    """Share of one dictionary side's edges that join exactly this pair."""
    side = SIDE_AB if non_pivot.lang == tg.lang_a else SIDE_BC
    side_edges = [e for e in tg.edges if e.side == side]
    if not side_edges:
        raise ValueError(f"no edges on side {side}")
    hit = 1 if (non_pivot, pivot, side) in tg.edge_index else 0
    return hit / len(side_edges)
