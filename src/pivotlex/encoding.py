"""Weighted CNF encoding of the cognate stage, and its WCNF export.

This is what export-wcnf writes for external MaxSAT solvers. Propositions
are edges (the word link exists) and cognate decisions. Hard clauses pin
down the known graph and the rules of the game; soft clauses price the
hypothesized edges, so a solver's optimum is the cheapest consistent
reading of the transgraph.

The formula is a pure function of the graph, the stage's candidates and
the decisions accepted so far; a stage is replayed by encoding again
after each acceptance. Each accepted decision is a hard unit and implies
its own edges, so the edges that exist are the graph's plus every missing
edge of the accepted decisions, and only the candidates' other missing
edges stay hypothesized.

A soft clause's weight is kept only in integer micro-units (rounded to
1e-6 by pipeline.micro_units, which the stages price with too); the WCNF
export writes that integer, so formulas are bit-reproducible.

The synonym stage's formula, the exact solver and the WCNF reader are
the test suite's reference (tests/maxsat_reference.py): the pipeline reads
each stage's optimum off directly, and the tests compare it with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import IO, Iterable, Sequence

from .heuristics import PairCandidate
from .lexicon import Word
from .pipeline import _edge_weights, micro_units
from .transgraph import SIDE_AB, SIDE_BC, EdgeKey, Transgraph

KIND_COGNATE = "cognate"
KIND_EDGE = "edge"


@dataclass(frozen=True)
class Clause:
    """Disjunction of signed variable ids; a soft one weighs `micro` micro-units."""

    literals: tuple[int, ...]
    micro: int = 0

    def __post_init__(self):
        if not self.literals:
            raise ValueError("empty clause")
        seen = set(self.literals)
        if len(seen) != len(self.literals):
            raise ValueError(f"duplicate literal in clause {self.literals}")
        if any(-l in seen for l in self.literals):
            raise ValueError(f"complementary literals in clause {self.literals}")


def hard_clause(literals: Iterable[int]) -> Clause:
    return Clause(tuple(literals))


def soft_clause(literals: Iterable[int], weight: float) -> Clause:
    """Soft clause; weight is floored at one micro-unit to stay positive."""
    return Clause(tuple(literals), micro=micro_units(weight))


class VarRegistry:
    """Bijection between proposition descriptors and dense positive ids."""

    def __init__(self):
        self._ids: dict[tuple, int] = {}

    def intern(self, desc: tuple) -> int:
        vid = self._ids.get(desc)
        if vid is None:
            vid = self._ids[desc] = len(self._ids) + 1
        return vid

    def id_of(self, desc: tuple) -> int:
        return self._ids[desc]

    def __len__(self) -> int:
        return len(self._ids)


def edge_desc(key: EdgeKey) -> tuple:
    return (KIND_EDGE, *key)


def cognate_desc(pair: tuple[Word, Word]) -> tuple:
    return (KIND_COGNATE, pair[0], pair[1])


@dataclass
class CnfFormula:
    registry: VarRegistry
    hard: list[Clause] = field(default_factory=list)
    soft: list[Clause] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def nvars(self) -> int:
        return len(self.registry)

    @property
    def nclauses(self) -> int:
        return len(self.hard) + len(self.soft)


def _edge_clauses(
    reg: VarRegistry,
    tg: Transgraph,
    candidates: Sequence,
    accepted: Iterable,
) -> CnfFormula:
    """A formula holding the edge variables and their clauses.

    The existing edges (the graph's plus every missing edge of an accepted
    decision) are pinned true; the candidates' other missing edges are soft
    false at the cheapest cost among the candidates wanting them.
    """
    existing = set(tg.edges)
    existing.update(key for cand in accepted for key in cand.missing_edges)
    new = {key for cand in candidates for key in cand.missing_edges} - existing
    for key in sorted(existing | new):
        reg.intern(edge_desc(key))
    cnf = CnfFormula(reg)
    for key in sorted(existing):
        cnf.hard.append(hard_clause((reg.id_of(edge_desc(key)),)))
    weights = _edge_weights(candidates)
    for key in sorted(new):
        cnf.soft.append(soft_clause((-reg.id_of(edge_desc(key)),), weights[key]))
    cnf.counts["edge_exists"] = len(cnf.hard)
    cnf.counts["edge_absent"] = len(cnf.soft)
    return cnf


def encode_cognate_cnf(
    tg: Transgraph,
    candidates: Sequence[PairCandidate],
    accepted: Sequence[PairCandidate] = (),
    uniqueness: bool = True,
) -> CnfFormula:
    """Build the cognate-extraction formula after the accepted decisions.

    Clause groups: existing edges pinned true; hypothesized edges soft-false
    at their owners' cost; each decision implies all of its pair's edges;
    optionally at most one decision per word; the accepted decisions, a
    subset of the candidates, pinned true; and, last, one disjunction
    demanding a fresh decision. An accepted decision implies its edges, so
    they count as existing. Raises ValueError when no candidate is left
    undecided.
    """
    if not candidates:
        raise ValueError("cannot encode without candidates")
    reg = VarRegistry()
    ordered = sorted(candidates, key=lambda c: c.pair)
    for cand in ordered:
        reg.intern(cognate_desc(cand.pair))
    cnf = _edge_clauses(reg, tg, candidates, accepted)
    counts = cnf.counts

    n_sym = 0
    for cand in ordered:
        cvar = reg.id_of(cognate_desc(cand.pair))
        for pivot in cand.pivots:
            ab = reg.id_of(edge_desc((SIDE_AB, cand.word_a, pivot)))
            bc = reg.id_of(edge_desc((SIDE_BC, cand.word_c, pivot)))
            cnf.hard.append(hard_clause((-cvar, ab)))
            cnf.hard.append(hard_clause((-cvar, bc)))
            n_sym += 2
    counts["symmetry"] = n_sym

    n_uniq = 0
    if uniqueness:
        by_a: dict[Word, list[int]] = {}
        by_c: dict[Word, list[int]] = {}
        for cand in ordered:
            cvar = reg.id_of(cognate_desc(cand.pair))
            by_a.setdefault(cand.word_a, []).append(cvar)
            by_c.setdefault(cand.word_c, []).append(cvar)
        for groups in (by_a, by_c):
            for w in sorted(groups):
                for v1, v2 in combinations(groups[w], 2):
                    cnf.hard.append(hard_clause((-v1, -v2)))
                    n_uniq += 1
    counts["uniqueness"] = n_uniq

    for cand in accepted:
        cnf.hard.append(hard_clause((reg.id_of(cognate_desc(cand.pair)),)))
    counts["committed"] = len(accepted)

    taken = {cand.pair for cand in accepted}
    pool = [reg.id_of(cognate_desc(c.pair)) for c in ordered if c.pair not in taken]
    if not pool:
        raise ValueError("no undecided candidates left to encode")
    cnf.hard.append(hard_clause(tuple(pool)))
    counts["pick_one"] = 1
    return cnf


def export_wcnf(cnf: CnfFormula, sink: IO[str]) -> None:
    """Write the standard weighted-CNF text form.

    Header ``p wcnf <nvars> <nclauses> <top>`` with top one above the sum
    of all soft weights (already scaled to integers); hard clauses carry
    weight top, every clause ends with 0.
    """
    if not cnf.hard and not cnf.soft:
        raise ValueError("refusing to export an empty formula")
    top = 1 + sum(c.micro for c in cnf.soft)
    sink.write(f"p wcnf {cnf.nvars} {cnf.nclauses} {top}\n")
    for clause in cnf.hard:
        lits = " ".join(str(l) for l in clause.literals)
        sink.write(f"{top} {lits} 0\n")
    for clause in cnf.soft:
        lits = " ".join(str(l) for l in clause.literals)
        sink.write(f"{clause.micro} {lits} 0\n")
