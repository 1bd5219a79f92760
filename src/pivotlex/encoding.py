"""The cognate stage's weighted MaxSAT formula, written as WCNF.

This is what export-wcnf writes for external MaxSAT solvers: the formula
of the stage's first decision. Propositions are cognate decisions, ids 1
to n in pair order, then edges (the word link exists), in key order. Hard
clauses pin the graph's edges true, make each decision imply its pair's
edges, optionally allow at most one decision per word, and demand one
decision; soft clauses price the candidates' missing edges false at the
cheapest cost among the candidates wanting them, so a solver's optimum
is the cheapest consistent reading of the transgraph.

A soft clause's weight is an integer number of micro-units (rounded to
1e-6 by pipeline.micro_units, which the stages price with too), so
formulas are bit-reproducible.

The formula replayed after each decision, the synonym stage's formula,
the exact solver and the WCNF reader are the test suite's reference
(tests/maxsat_reference.py): the pipeline reads each stage's optimum off
directly, and the tests compare it with them.
"""

from __future__ import annotations

from itertools import combinations
from typing import IO, Sequence

from .heuristics import PairCandidate
from .lexicon import Word
from .pipeline import _edge_weights, micro_units
from .transgraph import SIDE_AB, SIDE_BC, Transgraph


def write_cognate_wcnf(
    tg: Transgraph,
    candidates: Sequence[PairCandidate],
    sink: IO[str],
    *,
    uniqueness: bool,
) -> None:
    """Write the first cognate decision's formula in WCNF text form.

    The header ``p wcnf <nvars> <nclauses> <top>`` has top one above the
    sum of the soft weights; hard clauses carry weight top, and every
    clause ends with 0. Raises ValueError when there are no candidates.
    """
    if not candidates:
        raise ValueError("cannot encode without candidates")
    ordered = sorted(candidates, key=lambda c: c.pair)
    n = len(ordered)
    weights = _edge_weights(candidates)
    keys = sorted(tg.edges.keys() | weights.keys())
    evar = {key: vid for vid, key in enumerate(keys, n + 1)}
    soft = [(micro_units(weights[key]), evar[key]) for key in keys if key not in tg.edges]
    by_a: dict[Word, list[int]] = {}
    by_c: dict[Word, list[int]] = {}
    if uniqueness:
        for vid, cand in enumerate(ordered, 1):
            by_a.setdefault(cand.word_a, []).append(vid)
            by_c.setdefault(cand.word_c, []).append(vid)
    n_sym = 2 * sum(len(cand.pivots) for cand in ordered)
    n_uniq = sum(len(g) * (len(g) - 1) // 2 for groups in (by_a, by_c) for g in groups.values())
    top = 1 + sum(micro for micro, _ in soft)

    sink.write(f"p wcnf {n + len(keys)} {len(keys) + n_sym + n_uniq + 1} {top}\n")
    for key in keys:
        if key in tg.edges:
            sink.write(f"{top} {evar[key]} 0\n")
    for vid, cand in enumerate(ordered, 1):
        for pivot in cand.pivots:
            sink.write(f"{top} -{vid} {evar[(SIDE_AB, cand.word_a, pivot)]} 0\n")
            sink.write(f"{top} -{vid} {evar[(SIDE_BC, cand.word_c, pivot)]} 0\n")
    for groups in (by_a, by_c):
        for word in sorted(groups):
            for v1, v2 in combinations(groups[word], 2):
                sink.write(f"{top} -{v1} -{v2} 0\n")
    sink.write(f"{top} {' '.join(map(str, range(1, n + 1)))} 0\n")
    for micro, vid in soft:
        sink.write(f"{micro} -{vid} 0\n")
