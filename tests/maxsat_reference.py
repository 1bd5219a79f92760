"""The exact weighted MaxSAT reference the pipeline is tested against.

The pipeline reads each stage's optimum off directly. This module keeps
what that shortcut is checked with: each stage's formula as a pure
function of the graph, the candidates and the decisions accepted so far
(encode_cognate_cnf, encode_synonym_cnf), its WCNF text (export_wcnf) and
a reader for it (parse_wcnf), and an exact solver. export-wcnf streams the
cognate formula before any acceptance (pivotlex.encoding.write_cognate_wcnf);
its bytes are compared with export_wcnf(encode_cognate_cnf(...)).

A formula is a variable registry plus hard and soft clauses; a soft
clause's weight is kept in integer micro-units (pipeline.micro_units).

solve() is a branch-and-bound search with unit propagation over the hard
clauses. It returns the canonical optimum: minimal total weight of
falsified soft clauses, ties broken by preferring false for the lowest-id
variable, so results are bit-reproducible. check_assignment() prices a
total assignment independently. The exhaustive oracle in oracle.py checks
solve() in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import IO, Iterable, Sequence

from pivotlex.heuristics import PairCandidate, SynonymCandidate
from pivotlex.lexicon import Word
from pivotlex.pipeline import MICRO, _edge_weights, micro_units
from pivotlex.transgraph import SIDE_AB, SIDE_BC, EdgeKey, Transgraph

KIND_COGNATE = "cognate"
KIND_EDGE = "edge"
KIND_SYNONYM = "synonym"
KIND_RAW = "var"


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


def synonym_desc(pair: tuple[Word, Word]) -> tuple:
    return (KIND_SYNONYM, pair[0], pair[1])


def encode_synonym_cnf(
    tg: Transgraph,
    candidates: Sequence[PairCandidate],
    cognates: Sequence[PairCandidate],
    syn_candidates: Sequence[SynonymCandidate],
    accepted: Sequence[SynonymCandidate] = (),
) -> CnfFormula | None:
    """Build the synonym-extraction formula; None when the stage is empty.

    ``candidates`` are the cognate stage's candidates and ``cognates`` the
    ones it accepted; the rest are pinned false. ``accepted`` are the
    synonym decisions taken so far, a subset of ``syn_candidates``. A
    synonym decision implies its anchor cognate plus a link from the
    synonym word to every anchor pivot; absent links are soft with the
    leftover synonym improbability spread evenly across them. Every
    accepted decision, cognate or synonym, implies its edges, so they count
    as existing; the cognate stage's leftover hypotheses play no part.
    """
    if not syn_candidates:
        return None
    reg = VarRegistry()
    for cand in sorted(candidates, key=lambda c: c.pair):
        reg.intern(cognate_desc(cand.pair))
    ordered = sorted(syn_candidates, key=lambda c: c.pair)
    for cand in ordered:
        reg.intern(synonym_desc(cand.pair))
    cnf = _edge_clauses(reg, tg, syn_candidates, [*cognates, *accepted])
    counts = cnf.counts

    for cand in cognates:
        cnf.hard.append(hard_clause((reg.id_of(cognate_desc(cand.pair)),)))
    for cand in accepted:
        cnf.hard.append(hard_clause((reg.id_of(synonym_desc(cand.pair)),)))
    counts["committed"] = len(cognates) + len(accepted)

    kept = {cand.pair for cand in cognates}
    rejected = sorted(
        (c for c in candidates if c.pair not in kept), key=lambda c: c.pair
    )
    for cand in rejected:
        cnf.hard.append(hard_clause((-reg.id_of(cognate_desc(cand.pair)),)))
    counts["non_cognate"] = len(rejected)

    anchor_pivots = {cand.pair: cand.pivots for cand in cognates}
    n_link = 0
    for cand in ordered:
        svar = reg.id_of(synonym_desc(cand.pair))
        cnf.hard.append(hard_clause((-svar, reg.id_of(cognate_desc(cand.anchor)))))
        n_link += 1
        if cand.word_a == cand.anchor[0]:  # a synonym of the anchor's C-word
            syn_word, side = cand.word_c, "BC"
        else:
            syn_word, side = cand.word_a, "AB"
        for pivot in anchor_pivots[cand.anchor]:
            evar = reg.id_of(edge_desc((side, syn_word, pivot)))
            cnf.hard.append(hard_clause((-svar, evar)))
            n_link += 1
    counts["synonym_link"] = n_link

    taken = {cand.pair for cand in accepted}
    pool = [reg.id_of(synonym_desc(c.pair)) for c in ordered if c.pair not in taken]
    if not pool:
        return None
    cnf.hard.append(hard_clause(tuple(pool)))
    counts["pick_one"] = 1
    return cnf


def parse_wcnf(text: str) -> CnfFormula:
    """Read back a formula written by export_wcnf.

    Weights are interpreted as micro-units, inverting the export scaling,
    so optimal costs round-trip exactly.
    """
    reg = VarRegistry()
    cnf = CnfFormula(reg)
    top = None
    nvars = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise ValueError(f"line {lineno}: bad header")
            nvars, top = int(parts[2]), int(parts[4])
            continue
        if top is None:
            raise ValueError(f"line {lineno}: clause before header")
        parts = [int(p) for p in line.split()]
        if parts[-1] != 0:
            raise ValueError(f"line {lineno}: clause must end with 0")
        weight, lits = parts[0], tuple(parts[1:-1])
        if weight == top:
            cnf.hard.append(hard_clause(lits))
        else:
            cnf.soft.append(Clause(lits, micro=weight))
    for vid in range(1, nvars + 1):
        reg.intern((KIND_RAW, vid))
    return cnf


@dataclass(frozen=True)
class SolveOutcome:
    assignment: dict[int, bool]
    soft_cost: float
    micro_cost: int


@dataclass(frozen=True)
class HardViolation:
    clause_index: int
    clause: Clause


def _validate(cnf: CnfFormula) -> int:
    if not cnf.hard and not cnf.soft:
        raise ValueError("formula is empty")
    nvars = cnf.nvars
    for clause in list(cnf.hard) + list(cnf.soft):
        for lit in clause.literals:
            if not 1 <= abs(lit) <= nvars:
                raise ValueError(f"literal {lit} outside 1..{nvars}")
    return nvars


def solve(cnf: CnfFormula) -> SolveOutcome | None:
    """Find the canonical optimum, or None if the hard clauses conflict."""
    n = _validate(cnf)
    search = _Search(n, cnf.hard, cnf.soft)
    return search.run()


class _Search:
    def __init__(self, nvars: int, hard: list[Clause], soft: list[Clause]):
        self.n = nvars
        self.hard = [c.literals for c in hard]
        self.soft = [c.literals for c in soft]
        self.smicro = [c.micro for c in soft]
        self.value = [0] * (nvars + 1)  # 0 unassigned, 1 true, -1 false

        self.h_occ_pos = [[] for _ in range(nvars + 1)]
        self.h_occ_neg = [[] for _ in range(nvars + 1)]
        for ci, lits in enumerate(self.hard):
            for lit in lits:
                (self.h_occ_pos if lit > 0 else self.h_occ_neg)[abs(lit)].append(ci)
        self.s_occ_pos = [[] for _ in range(nvars + 1)]
        self.s_occ_neg = [[] for _ in range(nvars + 1)]
        for ci, lits in enumerate(self.soft):
            for lit in lits:
                (self.s_occ_pos if lit > 0 else self.s_occ_neg)[abs(lit)].append(ci)

        self.h_sat = [0] * len(self.hard)  # satisfied-literal counts
        self.h_free = [len(c) for c in self.hard]
        self.s_sat = [0] * len(self.soft)
        self.s_free = [len(c) for c in self.soft]
        self.lb = 0  # micro weight of soft clauses already falsified
        self.trail: list[int] = []

    def _apply(self, var: int, val: bool) -> bool:
        """Record one assignment; returns False on a hard conflict."""
        self.value[var] = 1 if val else -1
        self.trail.append(var)
        pos_first = val
        conflict = False
        for ci in (self.h_occ_pos if pos_first else self.h_occ_neg)[var]:
            self.h_sat[ci] += 1
        for ci in (self.h_occ_neg if pos_first else self.h_occ_pos)[var]:
            self.h_free[ci] -= 1
            if self.h_sat[ci] == 0 and self.h_free[ci] == 0:
                conflict = True
        for ci in (self.s_occ_pos if pos_first else self.s_occ_neg)[var]:
            self.s_sat[ci] += 1
        for ci in (self.s_occ_neg if pos_first else self.s_occ_pos)[var]:
            self.s_free[ci] -= 1
            if self.s_sat[ci] == 0 and self.s_free[ci] == 0:
                self.lb += self.smicro[ci]
        return not conflict

    def _undo_one(self):
        var = self.trail.pop()
        val = self.value[var] > 0
        self.value[var] = 0
        for ci in (self.h_occ_pos if val else self.h_occ_neg)[var]:
            self.h_sat[ci] -= 1
        for ci in (self.h_occ_neg if val else self.h_occ_pos)[var]:
            self.h_free[ci] += 1
        for ci in (self.s_occ_pos if val else self.s_occ_neg)[var]:
            self.s_sat[ci] -= 1
        for ci in (self.s_occ_neg if val else self.s_occ_pos)[var]:
            self.s_free[ci] += 1
            if self.s_sat[ci] == 0 and self.s_free[ci] == 1:
                self.lb -= self.smicro[ci]

    def _undo_to(self, mark: int):
        while len(self.trail) > mark:
            self._undo_one()

    def _assign(self, var: int, val: bool) -> bool:
        """Assign and propagate hard units until fixpoint or conflict."""
        if not self._apply(var, val):
            return False
        queue = [var]
        while queue:
            v = queue.pop()
            sign = self.value[v] > 0
            for ci in (self.h_occ_neg if sign else self.h_occ_pos)[v]:
                if self.h_sat[ci] == 0 and self.h_free[ci] == 1:
                    forced = self._unassigned_literal(ci)
                    if forced is None:
                        continue
                    fv, fval = abs(forced), forced > 0
                    if not self._apply(fv, fval):
                        return False
                    queue.append(fv)
        return True

    def _unassigned_literal(self, ci: int) -> int | None:
        for lit in self.hard[ci]:
            if self.value[abs(lit)] == 0:
                return lit
        return None

    def _initial_propagate(self) -> bool:
        for ci, lits in enumerate(self.hard):
            if self.h_sat[ci] > 0 or self.h_free[ci] != 1:
                continue
            forced = self._unassigned_literal(ci)
            if forced is not None and not self._assign(abs(forced), forced > 0):
                return False
        return True

    def _next_unassigned(self, start: int) -> int | None:
        for v in range(start, self.n + 1):
            if self.value[v] == 0:
                return v
        return None

    def run(self) -> SolveOutcome | None:
        best_micro: int | None = None
        best_val: list[int] | None = None

        if not self._initial_propagate():
            return None

        def record():
            nonlocal best_micro, best_val
            best_micro = self.lb
            best_val = self.value[:]

        first = self._next_unassigned(1)
        if first is None:
            record()
        else:
            # frames: [var, next value index (0 false, 1 true, 2 done), mark]
            frames = [[first, 0, len(self.trail)]]
            while frames:
                var, vidx, mark = frames[-1]
                self._undo_to(mark)
                if vidx == 2:
                    frames.pop()
                    continue
                frames[-1][1] += 1
                ok = self._assign(var, vidx == 1)
                if not ok or (best_micro is not None and self.lb >= best_micro):
                    continue
                child = self._next_unassigned(var + 1)
                if child is None:
                    record()  # guarded by lb < best, so strictly better
                else:
                    frames.append([child, 0, len(self.trail)])
            self._undo_to(0)

        if best_micro is None:
            return None
        assignment = {v: best_val[v] > 0 for v in range(1, self.n + 1)}
        return SolveOutcome(assignment, best_micro / MICRO, best_micro)


def check_assignment(
    cnf: CnfFormula, assignment: dict[int, bool]
) -> float | HardViolation:
    """Soft cost of a total assignment, or the first violated hard clause."""
    n = _validate(cnf)
    for v in range(1, n + 1):
        if v not in assignment:
            raise ValueError(f"assignment misses variable {v}")

    def satisfied(lits: tuple[int, ...]) -> bool:
        return any(assignment[abs(l)] == (l > 0) for l in lits)

    for i, clause in enumerate(cnf.hard):
        if not satisfied(clause.literals):
            return HardViolation(i, clause)
    micro = sum(c.micro for c in cnf.soft if not satisfied(c.literals))
    return micro / MICRO
