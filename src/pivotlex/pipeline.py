"""End-to-end extraction: symmetry cycles, cognate stage, synonym stage.

A run is configured by a method descriptor ``<cycle>:<method>:<heuristic>``:

  cycle      1-9, how often the symmetry assumption is re-applied, each
             round treating the previous round's proposed edges as given
  method     C = one-to-one cognates only, S = cognates plus their
             synonyms, M = many-to-many (no uniqueness constraint)
  heuristic  H followed by ascending digits out of 1-4 selecting
             coexistence / missing-contribution / pivot-ambiguity /
             form-similarity (method M supports H1 only)

Each stage repeatedly accepts the cheapest consistent fresh decision
until none is left. That decision is the optimum of the stage's weighted
MaxSAT formula, read off directly: every decision implies its own edges
and every soft weight is at least one micro-unit, so the optimum turns on
exactly one fresh decision, the one whose still-hypothesized edges weigh
least, ties going to the decision with the highest variable id, i.e. the
last pair. Prices are integer micro-units (micro_units), the same ones
the cognate formula that export-wcnf writes (encoding) uses. Both
stages' replayable formulas and an exact solver live with the tests
(tests/maxsat_reference.py), as the reference this selection is
compared with.

Stages pass data, not shared state. Each scoring round is one pure pass
over the graph's edges, heuristics.generate_candidates, that enumerates
the candidates and prices each as it goes; a growth round, one that is
not the last and still has missing edges, needs only their coexistence
and missing edges, so it leaves out the form-similarity (H4) term. The
last round, or a fixpoint reached early, returns immutable, fully priced
candidates. A stage returns the pairs it accepted, in order. The synonym
stage depends only on the graph and the candidates behind the accepted
cognates: each of those leaves all of its missing edges existing, and its
pivots anchor the synonym search. A stage run at threshold t
would make the same picks as an unthresholded one and stop at the first
pick costing >= t: it keeps a prefix of the unthresholded acceptances,
along which costs need not rise. So induce cuts (_cut) the unthresholded
runs, the synonym one anchored on the kept cognates (_synonyms_after), and
grid-search and cv tally each transgraph's runs at every threshold where its
cognate prefix grows (evaluation._graph_steps), then drop the graph.

With jobs > 1, induce_on_transgraphs maps _induce_one over the graphs
through _fork_map. It deals the graphs, largest first, into a fixed number
of chunks per process and writes the chunk ids into a queue pipe, then
forks up to jobs - 1 children. Every process, this one included, reads
chunk ids from the queue until it is empty, so a process that runs faster
takes more chunks. A child inherits the graphs, the descriptor and the
thresholds, so nothing is pickled on the way out; after each chunk it
writes that chunk's (id, pairs, report) list, pickled and length-prefixed,
or the exception it raised, to its own result pipe, and it ends with
os._exit. Between its own chunks, this process reads whatever frames have
arrived, so pickling overlaps induction, and then waits for the rest. The
results are aggregated by id as in a serial run. Without os.fork (Windows)
the graphs are induced serially. The garbage collector is frozen while the
children run (gc.freeze), so neither this process nor a child walks, and
so copies, the objects they share; a caller that has frozen objects itself
keeps them frozen, and then nothing more is frozen. A fork copies only the
calling thread, so a caller that forks children should have no other
thread running.
"""

from __future__ import annotations

import gc
import heapq
import os
from functools import partial
from operator import itemgetter
from typing import BinaryIO, Callable, NamedTuple, Sequence

from .heuristics import (
    HeuristicSelection,
    PairCandidate,
    SynonymCandidate,
    generate_candidates,
)
from .lexicon import BilingualDictionary, Word, _checked_make
from .transgraph import (
    SIDE_AB,
    SIDE_BC,
    EdgeKey,
    Transgraph,
    TransgraphSet,
    add_new_edges,
    build_transgraphs,
    filter_big,
)

COGNATE = "cognate"
SYNONYM = "synonym"

DEFAULT_MAX_EDGES = 2000

MICRO = 10**6

# a candidate's or an induced pair's (word_a, word_c)
_pair = itemgetter(0, 1)


def micro_units(weight: float) -> int:
    """A soft weight in integer micro-units, floored at one."""
    if weight < 0:
        raise ValueError("soft weight must be non-negative")
    return max(1, round(weight * MICRO))


def _edge_weights(cands: Sequence) -> dict[EdgeKey, float]:
    """Per-edge soft weight: the cheapest cost among the candidates wanting it."""
    weights: dict[EdgeKey, float] = {}
    for cand in cands:
        w = cand.edge_cost
        for key in cand.missing_edges:
            if key not in weights or w < weights[key]:
                weights[key] = w
    return weights


class MethodDescriptor(NamedTuple):
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


class _ThresholdFields(NamedTuple):
    cognate_threshold: float | None
    synonym_threshold: float | None


class HyperParams(_ThresholdFields):
    """Stage thresholds; None disables the filter entirely."""

    __slots__ = ()

    def __new__(
        cls, cognate_threshold: float | None = None, synonym_threshold: float | None = None
    ):
        # `not >=` also rejects NaN, which fails every comparison
        if cognate_threshold is not None and not cognate_threshold >= 0:
            raise ValueError("cognate threshold must be >= 0")
        if synonym_threshold is not None and not 0 <= synonym_threshold <= 1:
            raise ValueError("synonym threshold must lie in [0, 1]")
        return tuple.__new__(cls, (cognate_threshold, synonym_threshold))

    _make = classmethod(_checked_make)


class InducedPair(NamedTuple):
    word_a: Word
    word_c: Word
    stage: str
    cost: float
    transgraph_id: int
    anchor: tuple[Word, Word] | None = None

    @property
    def pair(self) -> tuple[Word, Word]:
        return (self.word_a, self.word_c)


class CycleResult(NamedTuple):
    graph: Transgraph
    candidates: tuple[PairCandidate, ...]
    cycles_run: int
    fixpoint: bool


class TransgraphReport(NamedTuple):
    transgraph_id: int
    cycles_run: int
    fixpoint: bool
    candidates: int
    cognate_pairs: int
    synonym_pairs: int
    cognate_unsat: bool


class InductionResult:
    def __init__(
        self,
        lang_a: str,
        lang_c: str,
        pairs: list[InducedPair],
        reports: dict[int, TransgraphReport] | None = None,
        skipped: list[tuple[int, int]] | None = None,
    ):
        self.lang_a = lang_a
        self.lang_c = lang_c
        self.pairs = pairs
        self.reports = {} if reports is None else reports
        self.skipped = [] if skipped is None else skipped


def run_cycles(tg: Transgraph, descriptor: MethodDescriptor) -> CycleResult:
    """Alternate candidate scoring and edge materialization.

    Runs descriptor.cycle scoring rounds, materializing the missing edges
    between rounds, and stops early at a fixpoint, where no candidate has
    a missing edge and so another round would add nothing. The returned
    candidates are priced in full against the final graph under the
    descriptor's heuristics; a growth round's prices are discarded, so it
    skips form similarity. Each round is one generate_candidates call,
    looked up in this module, so that it can be traced.
    """
    graph, cycles = tg, 0
    while True:
        cycles += 1
        last = cycles == descriptor.cycle
        candidates = generate_candidates(graph, descriptor.heuristics, last_round=last)
        fixpoint = not any(c.missing_edges for c in candidates)
        if fixpoint or last:
            return CycleResult(graph, tuple(candidates), cycles, fixpoint)
        graph = add_new_edges(graph, candidates)


def _run_stage(
    candidates: Sequence[PairCandidate | SynonymCandidate],
    stage: str,
    tg_id: int,
    exclusive: bool,
) -> tuple[InducedPair, ...]:
    """Accept the cheapest fresh decision until the pool or feasibility runs out.

    A candidate costs the summed micro-weights of its hypothesized edges
    that are still new; accepting one hardens them, which lowers the cost
    of every candidate sharing them. No hypothesized edge exists when the
    stage starts, so an edge is new until an acceptance hardens it. With
    ``exclusive``, a candidate sharing a word with an accepted one is
    blocked.
    """
    ranked = sorted(candidates, key=_pair)
    weight = {key: micro_units(w) for key, w in _edge_weights(ranked).items()}
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
    accepted: list[InducedPair] = []
    while heap:
        micro, neg_rank = heapq.heappop(heap)
        i = -neg_rank
        if done[i] or micro != cost[i]:
            continue
        cand = ranked[i]
        done[i] = True
        if exclusive and (cand.word_a in used_a or cand.word_c in used_c):
            continue
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
        accepted.append(
            InducedPair._make((cand.word_a, cand.word_c, stage, micro / MICRO, tg_id, anchor))
        )
    return tuple(accepted)


def run_cognate_stage(
    tg: Transgraph, candidates: Sequence[PairCandidate], *, one_to_one: bool = True
) -> tuple[InducedPair, ...]:
    return _run_stage(candidates, COGNATE, tg.id, one_to_one)


def _synonym_candidates(
    tg: Transgraph, cognates: Sequence[PairCandidate]
) -> list[SynonymCandidate]:
    """Propose partners sharing pivots with an accepted cognate's endpoints.

    The graph counts the missing edges that accepting the cognates hardened.
    Several cognates may propose one pair: it keeps the likeliest anchor,
    the smallest of equals.
    """
    present = set(tg.edges)
    for cog in cognates:
        present.update(cog.missing_edges)
    taken = set(map(_pair, cognates))
    pivot_a: dict[Word, set[Word]] = {}
    pivot_c: dict[Word, set[Word]] = {}
    for side, np_, pv in present:
        (pivot_a if side == SIDE_AB else pivot_c).setdefault(pv, set()).add(np_)

    by_pair: dict[tuple[Word, Word], SynonymCandidate] = {}
    # an anchor proposes each pair once, and later anchors are larger
    for anchor in sorted(cognates, key=_pair):
        wa, wc = _pair(anchor)
        pivots = anchor.pivots  # in pivot order
        for side, seed_word, neighbours in (
            (SIDE_BC, wc, pivot_c),
            (SIDE_AB, wa, pivot_a),
        ):
            partners: set[Word] = set()
            for b in pivots:
                partners |= neighbours.get(b, set())
            partners.discard(seed_word)
            for w in partners:
                pair = (wa, w) if side == SIDE_BC else (w, wc)
                if pair in taken:
                    continue
                missing = tuple((side, w, b) for b in pivots if (side, w, b) not in present)
                share = (len(pivots) - len(missing)) / len(pivots)
                prev = by_pair.get(pair)
                if prev is None or share > prev.shared_prob:
                    by_pair[pair] = SynonymCandidate._make((*pair, (wa, wc), share, missing))
    return sorted(by_pair.values(), key=_pair)


def run_synonym_stage(
    tg: Transgraph, cognates: Sequence[PairCandidate]
) -> tuple[InducedPair, ...]:
    """Extract synonym partners of the accepted cognates; empty stage is fine."""
    syn_cands = _synonym_candidates(tg, cognates)
    return _run_stage(syn_cands, SYNONYM, tg.id, False)


def _cut(pairs: tuple[InducedPair, ...], threshold: float | None) -> tuple[InducedPair, ...]:
    """The prefix of an unthresholded stage run that a run at `threshold` accepts."""
    if threshold is None:
        return pairs
    k = next((i for i, p in enumerate(pairs) if not p.cost < threshold), len(pairs))
    return pairs[:k]


def _synonyms_after(cycles: CycleResult, prefix: Sequence[InducedPair]) -> tuple[InducedPair, ...]:
    """The unthresholded synonym run anchored on the candidates behind a cognate prefix."""
    kept = set(map(_pair, prefix))
    anchors = [c for c in cycles.candidates if _pair(c) in kept]
    return run_synonym_stage(cycles.graph, anchors)


def _induce_one(
    tg: Transgraph, descriptor: MethodDescriptor, hp: HyperParams
) -> tuple[int, list[InducedPair], TransgraphReport]:
    cycles = run_cycles(tg, descriptor)
    full = run_cognate_stage(cycles.graph, cycles.candidates, one_to_one=descriptor.method != "M")
    cognates = _cut(full, hp.cognate_threshold)
    synonyms = _synonyms_after(cycles, cognates) if descriptor.method == "S" else ()
    synonyms = _cut(synonyms, hp.synonym_threshold)
    # a stage not cut short that left candidates had them blocked by uniqueness
    uncut = len(cognates) == len(full)
    report = TransgraphReport(
        transgraph_id=tg.id,
        cycles_run=cycles.cycles_run,
        fixpoint=cycles.fixpoint,
        candidates=len(cycles.candidates),
        cognate_pairs=len(cognates),
        synonym_pairs=len(synonyms),
        cognate_unsat=uncut and len(cognates) < len(cycles.candidates),
    )
    return tg.id, list(cognates + synonyms), report


# the chunks dealt per process: a faster process takes more of them, and a
# child streams each one's results back while the others still run; 4 to 32
# ran about equally fast on many small transgraphs
_CHUNKS_PER_PROCESS = 8
# chunk ids are single bytes, so the whole queue is one write of at most
# 256 <= PIPE_BUF bytes, which fits in any pipe
_MAX_CHUNKS = 256


def _fork_map(fn: Callable[[Transgraph], object], graphs: Sequence[Transgraph], jobs: int) -> list:
    """fn over the graphs in up to `jobs` processes; the results in graph order.

    The processes pull chunk ids from a queue pipe whose write end is
    closed before the first fork, so each reads them until EOF. A child's
    frames are an 8-byte little-endian length and a pickle of
    (True, (chunk id, results)) or, last, (False, exception).
    """
    n_chunks = min(len(graphs), jobs * _CHUNKS_PER_PROCESS, _MAX_CHUNKS)
    procs = min(jobs, n_chunks) if hasattr(os, "fork") else 1
    if procs <= 1:
        return [fn(g) for g in graphs]
    import pickle  # only a run that forks needs these
    import select
    import signal

    order = sorted(range(len(graphs)), key=lambda i: -len(graphs[i].edges))
    chunks = [order[c::n_chunks] for c in range(n_chunks)]
    results: list = [None] * len(graphs)

    def run(c: int) -> list:
        return [fn(graphs[i]) for i in chunks[c]]

    def take(c: int, values: list) -> None:
        for i, value in zip(chunks[c], values):
            results[i] = value

    def send(f: BinaryIO, frame: tuple) -> None:
        payload = pickle.dumps(frame)
        f.write(len(payload).to_bytes(8, "little") + payload)
        f.flush()

    children: dict[int, tuple[int, bytearray]] = {}  # result pipe's read end -> (pid, unread bytes)
    poller = select.poll()

    def receive(timeout: int | None) -> None:
        """Read what has arrived, waiting up to `timeout` ms (None: for some)."""
        for fd, _ in poller.poll(timeout):
            pid, buf = children[fd]
            data = os.read(fd, 1 << 20)
            buf += data
            while len(buf) >= 8:
                end = 8 + int.from_bytes(buf[:8], "little")
                if len(buf) < end:
                    break
                ok, value = pickle.loads(buf[8:end])
                del buf[:end]
                if not ok:
                    raise value
                take(*value)
            if not data:  # the child has exited and closed its end
                poller.unregister(fd)
                del children[fd]
                os.close(fd)
                if os.waitpid(pid, 0)[1] or buf:  # killed, or ended mid-frame
                    raise RuntimeError(f"worker process {pid} exited without a result")

    qr, qw = os.pipe()
    os.write(qw, bytes(range(n_chunks)))
    os.close(qw)  # so a read at the queue's end gives EOF
    # a collection walks every object it tracks and writes to each, so
    # children would copy the pages they share with this process; frozen
    # objects are not walked, here or in the children. gc.unfreeze thaws
    # everything, so only a caller that has frozen nothing gets a freeze.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        for _ in range(procs - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as f:
                        try:
                            while c := os.read(qr, 1):
                                send(f, (True, (c[0], run(c[0]))))
                        except Exception as exc:  # raised again in the parent
                            send(f, (False, exc))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[r] = (pid, bytearray())
            poller.register(r, select.POLLIN)
        while c := os.read(qr, 1):
            take(c[0], run(c[0]))
            receive(0)
        while children:
            receive(None)
    finally:
        os.close(qr)
        for fd, (pid, _) in children.items():  # those not yet reaped: end them
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if freeze:
            gc.unfreeze()
    return results


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
    pairs: list[InducedPair] = []
    reports: dict[int, TransgraphReport] = {}
    for tg_id, ps, report in _fork_map(partial(_induce_one, descriptor=descriptor, hp=hp), graphs, jobs):
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


def render_report(result: InductionResult) -> str:
    """Human-readable per-transgraph diagnostics."""
    lines = []
    for tg_id in sorted(result.reports):
        r = result.reports[tg_id]
        suffix = " [cognate-stage-unsat]" if r.cognate_unsat else ""
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
