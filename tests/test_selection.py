"""The pipeline's direct selection against the solver-driven reference.

The reference loop below encodes each stage's weighted MaxSAT formula
over the decisions accepted so far, asks the exact solver for the optimum
and accepts its fresh decision, then encodes again, until the pool, the
threshold or feasibility runs out. The pipeline reads the same optimum off
directly; both must agree on every pair, cost, anchor, report and accepted
candidate.
"""

import random

import pytest

from helpers import random_dictionaries
from maxsat_reference import (
    cognate_desc,
    encode_cognate_cnf,
    encode_synonym_cnf,
    solve,
    synonym_desc,
)
from pivotlex.heuristics import SynonymCandidate
from pivotlex.pipeline import (
    COGNATE,
    SYNONYM,
    HyperParams,
    InducedPair,
    TransgraphReport,
    _cut,
    _induce_one,
    _synonym_candidates,
    parse_method,
    run_cognate_stage,
    run_cycles,
    run_synonym_stage,
)
from pivotlex.transgraph import build_transgraphs

DESCRIPTORS = {
    "C": ["1:C:H1", "2:C:H14", "3:C:H1234", "1:C:H4", "2:C:H23"],
    "S": ["1:S:H14", "2:S:H14", "3:S:H1234", "1:S:H4", "2:S:H123"],
    "M": ["1:M:H1", "2:M:H1", "3:M:H1"],
}
COGNATE_THRESHOLDS = [None, 0.0, 0.3, 0.6, 1.0, 5.0]
SYNONYM_THRESHOLDS = [None, 0.0, 0.3, 0.5, 1.0]
RUNS_PER_METHOD = 400


def solver_stage(encode, desc_of, candidates, threshold, stage, tg_id):
    """Accept solver optima until the pool, the budget or feasibility runs out.

    ``encode(accepted)`` builds the stage formula after the acceptances so far.
    """
    accepted, pairs = [], []
    while len(accepted) < len(candidates):
        cnf = encode(accepted)
        outcome = solve(cnf)
        if outcome is None:
            return accepted, pairs, True
        # the canonical optimum turns on exactly one fresh decision
        taken = {c.pair for c in accepted}
        (cand,) = [
            c
            for c in candidates
            if c.pair not in taken
            and outcome.assignment[cnf.registry.id_of(desc_of(c.pair))]
        ]
        cost = outcome.soft_cost
        if threshold is not None and not cost < threshold:
            break
        accepted.append(cand)
        anchor = cand.anchor if isinstance(cand, SynonymCandidate) else None
        pairs.append(InducedPair(cand.word_a, cand.word_c, stage, cost, tg_id, anchor))
    return accepted, pairs, False


def reference_induce(tg, descriptor, hp):
    """One transgraph through the solver-driven stages, like _induce_one."""
    cyc = run_cycles(tg, descriptor)
    accepted, cognates, cog_unsat = solver_stage(
        lambda acc: encode_cognate_cnf(
            cyc.graph, cyc.candidates, acc, uniqueness=descriptor.method != "M"
        ),
        cognate_desc,
        cyc.candidates,
        hp.cognate_threshold,
        COGNATE,
        tg.id,
    )
    syn_accepted, synonyms, syn_unsat = [], [], False
    if descriptor.method == "S":
        syn_cands = _synonym_candidates(cyc.graph, accepted)
        syn_accepted, synonyms, syn_unsat = solver_stage(
            lambda acc: encode_synonym_cnf(
                cyc.graph, cyc.candidates, accepted, syn_cands, acc
            ),
            synonym_desc,
            syn_cands,
            hp.synonym_threshold,
            SYNONYM,
            tg.id,
        )
    report = TransgraphReport(
        transgraph_id=tg.id,
        cycles_run=cyc.cycles_run,
        fixpoint=cyc.fixpoint,
        candidates=len(cyc.candidates),
        cognate_pairs=len(cognates),
        synonym_pairs=len(synonyms),
        cognate_unsat=cog_unsat,
    )
    assert not syn_unsat  # no synonym blocks another, so the stage is never unsat
    return (
        (tg.id, cognates + synonyms, report),
        [c.pair for c in accepted],
        [c.pair for c in syn_accepted],
    )


def direct_candidates(tg, descriptor, hp):
    """The candidates the pipeline's own stages accept, in order."""
    cyc = run_cycles(tg, descriptor)
    st1 = _cut(
        run_cognate_stage(cyc.graph, cyc.candidates, one_to_one=descriptor.method != "M"),
        hp.cognate_threshold,
    )
    by_pair = {c.pair: c for c in cyc.candidates}
    cognates = [by_pair[p.pair] for p in st1]
    synonyms = []
    if descriptor.method == "S":
        st2 = run_synonym_stage(cyc.graph, cognates)
        synonyms = _cut(st2, hp.synonym_threshold)
    return [c.pair for c in cognates], [p.pair for p in synonyms]


def fields(pairs):
    return [(p.pair, p.stage, p.cost, p.anchor, p.transgraph_id) for p in pairs]


@pytest.mark.parametrize("method", sorted(DESCRIPTORS))
def test_direct_selection_matches_solver(method):
    rng = random.Random(f"selection-{method}")
    graphs = 0
    for _ in range(RUNS_PER_METHOD):
        n_a, n_b, n_c = (rng.randint(2, 5) for _ in range(3))
        d_ab, d_cb = random_dictionaries(
            rng, n_a, n_b, n_c, p_edge=rng.choice([0.3, 0.4, 0.55])
        )
        descriptor = parse_method(rng.choice(DESCRIPTORS[method]))
        hp = HyperParams(
            rng.choice(COGNATE_THRESHOLDS), rng.choice(SYNONYM_THRESHOLDS)
        )
        for tg in build_transgraphs(d_ab, d_cb).graphs:
            tg_id, pairs, report = _induce_one(tg, descriptor, hp)
            (ref_id, ref_pairs, ref_report), *ref_accepted = reference_induce(
                tg, descriptor, hp
            )
            context = f"{descriptor} {hp} transgraph {tg.id}"
            assert tg_id == ref_id
            assert fields(pairs) == fields(ref_pairs), context
            assert report == ref_report, context
            assert list(direct_candidates(tg, descriptor, hp)) == ref_accepted, context
            graphs += 1
    assert graphs >= RUNS_PER_METHOD
