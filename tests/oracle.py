"""Exhaustive weighted partial MaxSAT oracle for testing maxsat_reference.solve.

brute_force_solve() enumerates every assignment, vectorized with numpy,
and returns the same canonical optimum as solve(): minimal total weight of
falsified soft clauses, ties broken by preferring false for the lowest-id
variable.
"""

from __future__ import annotations

import numpy as np

from maxsat_reference import CnfFormula, SolveOutcome, _validate
from pivotlex.pipeline import MICRO

BRUTE_FORCE_LIMIT = 25
_CHUNK_BITS = 20


def brute_force_solve(cnf: CnfFormula) -> SolveOutcome | None:
    """Exhaustive oracle with the same canonical tie-breaking as solve()."""
    n = _validate(cnf)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"{n} variables exceed the brute-force limit of {BRUTE_FORCE_LIMIT}")

    total = 1 << n
    chunk = 1 << min(_CHUNK_BITS, n)
    best_cost: int | None = None
    best_index: int | None = None

    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        codes = np.arange(lo, hi, dtype=np.int64)
        feasible = np.ones(hi - lo, dtype=bool)
        for clause in cnf.hard:
            feasible &= _clause_sat(codes, clause.literals, n)
        if not feasible.any():
            continue
        cost = np.zeros(hi - lo, dtype=np.int64)
        for clause in cnf.soft:
            sat = _clause_sat(codes, clause.literals, n)
            cost[~sat] += clause.micro
        cost[~feasible] = np.iinfo(np.int64).max
        i = int(np.argmin(cost))
        c = int(cost[i])
        if best_cost is None or c < best_cost:
            best_cost, best_index = c, lo + i

    if best_cost is None:
        return None
    assignment = {
        v: bool((best_index >> (n - v)) & 1) for v in range(1, n + 1)
    }
    return SolveOutcome(assignment, best_cost / MICRO, best_cost)


def _clause_sat(codes: np.ndarray, literals: tuple[int, ...], n: int) -> np.ndarray:
    sat = np.zeros(codes.shape, dtype=bool)
    for lit in literals:
        bit = (codes >> (n - abs(lit))) & 1
        sat |= (bit == 1) if lit > 0 else (bit == 0)
    return sat
