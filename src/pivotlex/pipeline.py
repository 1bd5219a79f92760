"""End-to-end extraction: symmetry cycles, cognate stage, synonym stage.

A run is configured by a method descriptor ``<cycle>:<method>:<heuristic>``:

  cycle      1-9, how often the symmetry assumption is re-applied, each
             round treating the previous round's proposed edges as given
  method     C = one-to-one cognates only, S = cognates plus their
             synonyms, M = many-to-many (no uniqueness constraint)
  heuristic  H followed by ascending digits out of 1-4 selecting
             coexistence / missing-contribution / pivot-ambiguity /
             form-similarity (method M supports H1 only)

Each stage repeatedly accepts the cheapest consistent fresh decision while
its incremental cost stays below the stage threshold (no threshold =
accept everything reachable). That decision is the optimum of the stage's
weighted MaxSAT formula (encoding.encode_cognate_cnf / encode_synonym_cnf,
solved by solver.solve), read off directly: every decision implies its own
edges and every soft weight is at least one micro-unit, so the optimum
turns on exactly one fresh decision, the one whose still-hypothesized
edges weigh least, ties going to the decision with the highest variable
id, i.e. the last pair. The formula and the solver remain the exact
reference that the tests compare this selection with.

Stages pass data, not shared state: a stage returns the candidates it
accepted, in order. The synonym stage depends only on the graph and the
accepted cognates: each of those leaves all of its missing edges existing,
and its pivots anchor the synonym search. A stage run at threshold t makes
the same picks as an unthresholded one and stops at the first pick costing
>= t, so it keeps a prefix of the unthresholded acceptances; costs need not
rise along that prefix. evaluation.grid_search relies on both facts.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from .encoding import MICRO, edge_micro_weights
from .heuristics import (
    HeuristicSelection,
    PairCandidate,
    SynonymCandidate,
    compute_cognate_probabilities,
    compute_edge_cost,
    compute_tables,
    generate_candidates,
)
from .lexicon import BilingualDictionary, PairSet, Word
from .transgraph import (
    SIDE_AB,
    SIDE_BC,
    EdgeKey,
    Transgraph,
    TransgraphSet,
    add_new_edges,
    build_transgraphs,
    edge_sort_key,
    filter_big,
)

COGNATE = "cognate"
SYNONYM = "synonym"

DEFAULT_MAX_EDGES = 2000
MAX_CYCLE = 9


@dataclass(frozen=True)
class MethodDescriptor:
    cycle: int
    method: str
    heuristics: HeuristicSelection

    def __str__(self) -> str:
        return f"{self.cycle}:{self.method}:{self.heuristics.token}"


def parse_method(text: str) -> MethodDescriptor:
    """Parse a descriptor like ``2:S:H14``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad method descriptor {text!r}: want cycle:method:heuristic")
    cycle_s, method, heur = parts
    if len(cycle_s) != 1 or cycle_s not in "123456789":
        raise ValueError(f"bad cycle {cycle_s!r}: want a single digit 1-9")
    if method not in ("C", "S", "M"):
        raise ValueError(f"bad method letter {method!r}: want C, S or M")
    sel = HeuristicSelection.from_token(heur)
    if method == "M" and sel.token != "H1":
        raise ValueError("method M supports only heuristic H1")
    return MethodDescriptor(int(cycle_s), method, sel)


@dataclass(frozen=True)
class HyperParams:
    """Stage thresholds; None disables the filter entirely."""

    cognate_threshold: float | None = None
    synonym_threshold: float | None = None

    def __post_init__(self):
        # `not >=` also rejects NaN, which fails every comparison
        if self.cognate_threshold is not None and not self.cognate_threshold >= 0:
            raise ValueError("cognate threshold must be >= 0")
        if self.synonym_threshold is not None and not 0 <= self.synonym_threshold <= 1:
            raise ValueError("synonym threshold must lie in [0, 1]")


@dataclass(frozen=True)
class InducedPair:
    word_a: Word
    word_c: Word
    stage: str
    cost: float
    transgraph_id: int
    anchor: tuple[Word, Word] | None = None

    @property
    def pair(self) -> tuple[Word, Word]:
        return (self.word_a, self.word_c)


@dataclass
class CycleResult:
    graph: Transgraph
    candidates: list[PairCandidate]
    cycles_run: int
    fixpoint: bool


@dataclass
class StageOutcome:
    accepted: list[InducedPair]
    # the candidates behind `accepted`, in acceptance order
    candidates: list[PairCandidate | SynonymCandidate]
    hard_unsat: bool


@dataclass(frozen=True)
class TransgraphReport:
    transgraph_id: int
    cycles_run: int
    fixpoint: bool
    candidates: int
    cognate_pairs: int
    synonym_pairs: int
    cognate_unsat: bool
    synonym_unsat: bool


@dataclass
class InductionResult:
    lang_a: str
    lang_c: str
    pairs: list[InducedPair]
    reports: dict[int, TransgraphReport] = field(default_factory=dict)
    skipped: list[tuple[int, int]] = field(default_factory=list)


def _scored_candidates(
    graph: Transgraph, sel: HeuristicSelection
) -> list[PairCandidate]:
    tables = compute_tables(graph)
    cands = generate_candidates(graph)
    for cand in cands:
        compute_cognate_probabilities(cand, tables)
        compute_edge_cost(cand, sel)
    return cands


def run_cycles(tg: Transgraph, descriptor: MethodDescriptor) -> CycleResult:
    """Alternate candidate scoring and edge materialization.

    Runs descriptor.cycle scoring rounds, materializing the missing edges
    between rounds, and stops early once a round would add nothing. The
    returned candidates are scored against the final graph.
    """
    graph = tg
    candidates = _scored_candidates(graph, descriptor.heuristics)
    cycles = 1
    fixpoint = not any(c.missing_edges for c in candidates)
    for cyc in range(2, descriptor.cycle + 1):
        grown = add_new_edges(graph, candidates, cycle=cyc - 1)
        if grown is graph:
            fixpoint = True
            break
        graph = grown
        candidates = _scored_candidates(graph, descriptor.heuristics)
        cycles = cyc
        fixpoint = not any(c.missing_edges for c in candidates)
    return CycleResult(graph, candidates, cycles, fixpoint)


def _run_stage(
    candidates: Sequence[PairCandidate | SynonymCandidate],
    threshold: float | None,
    stage: str,
    tg_id: int,
    exclusive: bool,
) -> StageOutcome:
    """Accept the cheapest fresh decision until the pool, the budget or feasibility runs out.

    A candidate costs the summed micro-weights of its hypothesized edges
    that are still new; accepting one hardens them, which lowers the cost
    of every candidate sharing them. No hypothesized edge exists when the
    stage starts, so an edge is new until an acceptance hardens it. With
    ``exclusive``, a candidate sharing a word with an accepted one is
    blocked. ``hard_unsat`` is True when candidates remain but every one of
    them is blocked.
    """
    ranked = sorted(candidates, key=lambda c: c.pair)
    weight = edge_micro_weights(ranked)
    wanting: dict[EdgeKey, list[int]] = {}
    cost: list[int] = []
    for i, cand in enumerate(ranked):
        for key in cand.missing_edges:
            wanting.setdefault(key, []).append(i)
        cost.append(sum(weight[key] for key in cand.missing_edges))
    # min-heap on (cost, -rank): ties go to the last pair; an entry whose
    # cost is no longer current is stale and skipped
    heap = [(micro, -i) for i, micro in enumerate(cost)]
    heapq.heapify(heap)
    done = [False] * len(ranked)  # accepted or blocked
    hardened: set[EdgeKey] = set()
    used_a: set[Word] = set()
    used_c: set[Word] = set()
    out = StageOutcome([], [], False)
    while heap:
        micro, neg_rank = heapq.heappop(heap)
        i = -neg_rank
        if done[i] or micro != cost[i]:
            continue
        cand = ranked[i]
        done[i] = True
        if exclusive and (cand.word_a in used_a or cand.word_c in used_c):
            continue
        value = micro / MICRO
        if threshold is not None and not value < threshold:
            return out
        for key in cand.missing_edges:
            if key in hardened:
                continue
            hardened.add(key)
            for j in wanting[key]:
                if not done[j]:
                    cost[j] -= weight[key]
                    heapq.heappush(heap, (cost[j], -j))
        if exclusive:
            used_a.add(cand.word_a)
            used_c.add(cand.word_c)
        anchor = cand.anchor if isinstance(cand, SynonymCandidate) else None
        out.accepted.append(
            InducedPair(cand.word_a, cand.word_c, stage, value, tg_id, anchor)
        )
        out.candidates.append(cand)
    out.hard_unsat = len(out.accepted) < len(ranked)
    return out


def run_cognate_stage(
    tg: Transgraph,
    candidates: list[PairCandidate],
    hp: HyperParams,
    one_to_one: bool = True,
) -> StageOutcome:
    return _run_stage(candidates, hp.cognate_threshold, COGNATE, tg.id, one_to_one)


def cognate_synonym_probability(tg: Transgraph, cognate, syn_word: Word) -> float:
    """Share of the cognate's pivots the synonym word is already linked to.

    The cognate's pivots are those connected to both of its endpoints in
    the graph as given (pass the post-acceptance graph for exact pipeline
    semantics). Accepts an InducedPair or a plain (word_a, word_c) tuple.
    """
    # a Word is a (lang, surface) tuple, not a pair
    is_pair = isinstance(cognate, tuple) and not isinstance(cognate, Word)
    wa, wc = cognate if is_pair else (cognate.word_a, cognate.word_c)
    if syn_word.lang not in (wa.lang, wc.lang):
        raise ValueError(f"{syn_word} matches neither side of the cognate pair")
    anchor_pivots = set(tg.word_pivots.get(wa, ())) & set(tg.word_pivots.get(wc, ()))
    if not anchor_pivots:
        raise ValueError(f"cognate pair ({wa}, {wc}) shares no pivot")
    linked = anchor_pivots & set(tg.word_pivots.get(syn_word, ()))
    return len(linked) / len(anchor_pivots)


def _synonym_candidates(
    tg: Transgraph, cognates: Sequence[PairCandidate]
) -> list[SynonymCandidate]:
    """Propose partners sharing pivots with an accepted cognate's endpoints.

    The graph counts the missing edges that accepting the cognates hardened.
    """
    present = {e.key for e in tg.edges}
    for cog in cognates:
        present.update(cog.missing_edges)
    taken = {cog.pair for cog in cognates}
    word_pivots: dict[Word, set[Word]] = {}
    pivot_a: dict[Word, set[Word]] = {}
    pivot_c: dict[Word, set[Word]] = {}
    for np_, pv, side in present:
        word_pivots.setdefault(np_, set()).add(pv)
        (pivot_a if side == SIDE_AB else pivot_c).setdefault(pv, set()).add(np_)

    by_pair: dict[tuple[Word, Word], SynonymCandidate] = {}

    def offer(cand: SynonymCandidate) -> None:
        # several cognates may suggest the same pair: keep the likeliest anchor
        prev = by_pair.get(cand.pair)
        if prev is None:
            by_pair[cand.pair] = cand
        elif cand.shared_prob > prev.shared_prob or (
            cand.shared_prob == prev.shared_prob and cand.anchor < prev.anchor
        ):
            by_pair[cand.pair] = cand

    for anchor in sorted(cognates, key=lambda c: c.pair):
        wa, wc = anchor.pair
        pivots = tuple(sorted(p.pivot for p in anchor.paths))
        for side, seed_word, neighbours in (
            (SIDE_BC, wc, pivot_c),
            (SIDE_AB, wa, pivot_a),
        ):
            partners: set[Word] = set()
            for b in pivots:
                partners |= neighbours.get(b, set())
            partners.discard(seed_word)
            for w in sorted(partners):
                pair = (wa, w) if side == SIDE_BC else (w, wc)
                if pair in taken:
                    continue
                linked = sum(1 for b in pivots if b in word_pivots.get(w, ()))
                missing = tuple(
                    sorted(
                        ((w, b, side) for b in pivots if (w, b, side) not in present),
                        key=edge_sort_key,
                    )
                )
                offer(
                    SynonymCandidate(
                        word_a=pair[0],
                        word_c=pair[1],
                        anchor=(wa, wc),
                        anchor_pivots=pivots,
                        shared_prob=linked / len(pivots),
                        missing_edges=missing,
                    )
                )
    return sorted(by_pair.values(), key=lambda c: c.pair)


def run_synonym_stage(
    tg: Transgraph, cognates: Sequence[PairCandidate], hp: HyperParams
) -> StageOutcome:
    """Extract synonym partners of the accepted cognates; empty stage is fine."""
    syn_cands = _synonym_candidates(tg, cognates)
    return _run_stage(syn_cands, hp.synonym_threshold, SYNONYM, tg.id, False)


def _induce_one(args) -> tuple[int, list[InducedPair], TransgraphReport]:
    tg, descriptor, hp = args
    cyc = run_cycles(tg, descriptor)
    st1 = run_cognate_stage(
        cyc.graph, cyc.candidates, hp, one_to_one=descriptor.method != "M"
    )
    pairs = list(st1.accepted)
    synonyms: list[InducedPair] = []
    syn_unsat = False
    if descriptor.method == "S":
        st2 = run_synonym_stage(cyc.graph, st1.candidates, hp)
        synonyms = st2.accepted
        syn_unsat = st2.hard_unsat
        pairs += synonyms
    report = TransgraphReport(
        transgraph_id=tg.id,
        cycles_run=cyc.cycles_run,
        fixpoint=cyc.fixpoint,
        candidates=len(cyc.candidates),
        cognate_pairs=len(st1.accepted),
        synonym_pairs=len(synonyms),
        cognate_unsat=st1.hard_unsat,
        synonym_unsat=syn_unsat,
    )
    return tg.id, pairs, report


def induce_on_transgraphs(
    tset: TransgraphSet,
    descriptor: MethodDescriptor,
    hp: HyperParams | None = None,
    jobs: int = 1,
) -> InductionResult:
    """Run the per-transgraph pipeline and aggregate by transgraph id.

    Transgraphs are independent, so any worker count yields identical
    output; aggregation is ordered by id regardless of completion order.
    """
    hp = hp or HyperParams()
    graphs = sorted(tset.graphs, key=lambda g: g.id)
    tasks = [(g, descriptor, hp) for g in graphs]
    if jobs > 1 and len(tasks) > 1:
        # a few chunks per worker: a round trip to a worker per graph costs
        # more than inducing a small graph
        chunk = math.ceil(len(tasks) / (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as executor:
            outputs = list(executor.map(_induce_one, tasks, chunksize=chunk))
    else:
        outputs = [_induce_one(t) for t in tasks]
    pairs: list[InducedPair] = []
    reports: dict[int, TransgraphReport] = {}
    for tg_id, ps, report in sorted(outputs, key=lambda o: o[0]):
        pairs.extend(ps)
        reports[tg_id] = report
    return InductionResult(tset.lang_a, tset.lang_c, pairs, reports, list(tset.skipped))


def run_pipeline(
    dict_ab: BilingualDictionary,
    dict_cb: BilingualDictionary,
    descriptor: MethodDescriptor,
    hp: HyperParams | None = None,
    *,
    max_edges: int = DEFAULT_MAX_EDGES,
    jobs: int = 1,
) -> InductionResult:
    """Dictionaries in, induced pair list out."""
    tset = filter_big(build_transgraphs(dict_ab, dict_cb), max_edges)
    return induce_on_transgraphs(tset, descriptor, hp, jobs=jobs)


def result_pair_set(result: InductionResult) -> PairSet:
    return PairSet(
        result.lang_a,
        result.lang_c,
        frozenset((p.word_a, p.word_c) for p in result.pairs),
    )


def render_report(result: InductionResult) -> str:
    """Human-readable per-transgraph diagnostics."""
    lines = []
    for tg_id in sorted(result.reports):
        r = result.reports[tg_id]
        flags = []
        if r.cognate_unsat:
            flags.append("cognate-stage-unsat")
        if r.synonym_unsat:
            flags.append("synonym-stage-unsat")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"transgraph {tg_id}: cycles={r.cycles_run}"
            f" fixpoint={'yes' if r.fixpoint else 'no'}"
            f" candidates={r.candidates}"
            f" cognates={r.cognate_pairs} synonyms={r.synonym_pairs}{suffix}"
        )
    for tg_id, edges in result.skipped:
        lines.append(f"skipped transgraph {tg_id} ({edges} edges)")
    lines.append(
        f"total pairs: {len(result.pairs)}"
        f" (cognate {sum(1 for p in result.pairs if p.stage == COGNATE)},"
        f" synonym {sum(1 for p in result.pairs if p.stage == SYNONYM)})"
    )
    return "\n".join(lines) + "\n"
