"""The cognate formula export-wcnf writes, and the reference formulas it is checked with."""

import copy
import io
import random
from itertools import combinations

import pytest

from helpers import ASYM_AB, ASYM_CB, random_dictionaries, single_graph, wa, wb, wc
from maxsat_reference import (
    Clause,
    CnfFormula,
    VarRegistry,
    cognate_desc,
    edge_desc,
    encode_cognate_cnf,
    encode_synonym_cnf,
    export_wcnf,
    hard_clause,
    parse_wcnf,
    soft_clause,
    solve,
)
from pivotlex.encoding import write_cognate_wcnf
from pivotlex.heuristics import HeuristicSelection, generate_candidates
from pivotlex.lexicon import BilingualDictionary, Word
from pivotlex.pipeline import MICRO, parse_method, run_cycles
from pivotlex.transgraph import build_transgraphs, filter_big
from test_golden import chained
from test_transgraph import TAGS, _random_links


def prepared(graph, token="H1"):
    return generate_candidates(graph, HeuristicSelection.from_token(token))


def hypothesized(cands):
    return {k for c in cands for k in c.missing_edges}


def wcnf_text(cnf):
    sink = io.StringIO()
    export_wcnf(cnf, sink)
    return sink.getvalue()


class TestClause:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Clause(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Clause((1, 1))

    def test_rejects_tautology(self):
        with pytest.raises(ValueError):
            Clause((1, -1))

    def test_soft_weight_floor(self):
        c = soft_clause((1,), 0.0)
        assert c.micro == 1 and c.micro / MICRO == 1e-6

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            soft_clause((1,), -0.5)


class TestRegistryOrdering:
    def test_decision_vars_before_edge_vars(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        cands = prepared(g)
        cnf = encode_cognate_cnf(g, cands)
        n_decisions = len(cands)
        for cand in cands:
            assert cnf.registry.id_of(cognate_desc(cand.pair)) <= n_decisions
        for key in set(g.edges) | hypothesized(cands):
            assert cnf.registry.id_of(edge_desc(key)) > n_decisions


class TestCognateEncoding:
    def test_chain_counts(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        cands = prepared(g)
        cnf = encode_cognate_cnf(g, cands)
        assert cnf.counts["edge_exists"] == 2
        assert cnf.counts["edge_absent"] == 0
        assert cnf.counts["symmetry"] == 2
        assert cnf.counts["uniqueness"] == 0
        assert cnf.counts["pick_one"] == 1
        out = solve(cnf)
        cvar = cnf.registry.id_of(cognate_desc(cands[0].pair))
        assert out.assignment[cvar] is True and out.soft_cost == 0.0

    def test_shared_endpoint_gives_one_uniqueness_clause(self):
        g = single_graph([("a1", "b1")], [("c1", "b1"), ("c2", "b1")])
        cands = prepared(g)
        cnf = encode_cognate_cnf(g, cands)
        assert cnf.counts["uniqueness"] == 1

    def test_implication_expands_to_binary_clauses(self):
        # decision -> e1 and e2 must appear as two two-literal clauses
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        cands = prepared(g)
        cnf = encode_cognate_cnf(g, cands)
        cvar = cnf.registry.id_of(cognate_desc(cands[0].pair))
        implications = [
            c.literals
            for c in cnf.hard
            if len(c.literals) == 2 and -cvar in c.literals
        ]
        assert len(implications) == 2
        for lits in implications:
            (other,) = [l for l in lits if l != -cvar]
            assert other > 0

    def test_mm_drops_uniqueness_only(self):
        g = single_graph([("a1", "b1")], [("c1", "b1"), ("c2", "b1")])
        cands = prepared(g)
        one = encode_cognate_cnf(g, cands)
        mm = encode_cognate_cnf(g, cands, uniqueness=False)
        assert mm.counts["uniqueness"] == 0
        assert len(one.hard) - len(mm.hard) == one.counts["uniqueness"]
        assert len(one.soft) == len(mm.soft)

    def test_empty_candidates_is_error(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        with pytest.raises(ValueError):
            encode_cognate_cnf(g, [])

    def test_soft_weights_match_owner_costs(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        cands = prepared(g)
        cnf = encode_cognate_cnf(g, cands)
        (partial,) = [c for c in cands if c.missing_edges]
        (sc,) = cnf.soft
        assert sc.micro / MICRO == pytest.approx(partial.edge_cost, abs=1e-6)
        evar = cnf.registry.id_of(edge_desc(partial.missing_edges[0]))
        assert sc.literals == (-evar,)

    def test_shared_new_edge_takes_cheapest_owner(self):
        # candidates (a1,c1) and (a1,c2) both miss the link a1-b2 at
        # different costs; the cheaper owner sets the price
        g = single_graph(
            [("a1", "b1"), ("a2", "b2")],
            [("c1", "b1"), ("c1", "b2"), ("c2", "b1"), ("c2", "b2"), ("c2", "b3")],
        )
        cands = prepared(g)
        owners = [c for c in cands if ("AB", wa("a1"), wb("b2")) in c.missing_edges]
        assert len(owners) == 2
        assert owners[0].edge_cost != owners[1].edge_cost
        cheapest = min(o.edge_cost for o in owners)
        cnf = encode_cognate_cnf(g, cands)
        evar = cnf.registry.id_of(edge_desc(("AB", wa("a1"), wb("b2"))))
        (sc,) = [c for c in cnf.soft if c.literals == (-evar,)]
        assert sc.micro / MICRO == pytest.approx(cheapest, abs=1e-6)


class TestClauseCountClosedForms:
    def test_random_graphs_match_formulas(self):
        rng = random.Random(5)
        seen = 0
        for _ in range(40):
            d_ab, d_cb = random_dictionaries(rng)
            for g in build_transgraphs(d_ab, d_cb).graphs:
                cands = prepared(g)
                if not cands:
                    continue
                cnf = encode_cognate_cnf(g, cands)
                assert cnf.counts["symmetry"] == 2 * sum(len(c.pivots) for c in cands)
                by_a, by_c = {}, {}
                for c in cands:
                    by_a.setdefault(c.word_a, []).append(c)
                    by_c.setdefault(c.word_c, []).append(c)
                expected = sum(
                    len(list(combinations(g_, 2)))
                    for grp in (by_a, by_c)
                    for g_ in grp.values()
                )
                assert cnf.counts["uniqueness"] == expected
                assert cnf.counts["edge_exists"] == len(g.edges)
                assert cnf.counts["edge_absent"] == len(hypothesized(cands))
                seen += 1
        assert seen >= 30


def pick_one(cnf):
    assert cnf.counts["pick_one"] == 1
    return cnf.hard[-1].literals


class TestUpdateAfterAcceptance:
    """The stage formula encoded again with the decisions accepted so far."""

    def test_acceptance_hardens_edges(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        cands = prepared(g)
        (partial,) = [c for c in cands if c.missing_edges]
        before = encode_cognate_cnf(g, cands)
        after = encode_cognate_cnf(g, cands, [partial])
        evar = after.registry.id_of(edge_desc(partial.missing_edges[0]))
        assert (-evar,) in [c.literals for c in before.soft]
        assert (-evar,) not in [c.literals for c in after.soft]
        assert (evar,) in [c.literals for c in after.hard]
        assert len(after.soft) == len(before.soft) - 1
        assert after.counts["edge_exists"] == before.counts["edge_exists"] + 1

    def test_accepted_decision_is_hard_unit(self):
        g = single_graph([("a1", "b1")], [("c1", "b1"), ("c2", "b1")])
        cands = prepared(g)
        before = encode_cognate_cnf(g, cands, uniqueness=False)
        after = encode_cognate_cnf(g, cands, [cands[0]], uniqueness=False)
        cvar = after.registry.id_of(cognate_desc(cands[0].pair))
        assert (cvar,) not in [c.literals for c in before.hard]
        assert (cvar,) in [c.literals for c in after.hard]
        assert after.counts["committed"] == 1

    def test_pool_shrinks_by_one(self):
        g = single_graph([("a1", "b1")], [("c1", "b1"), ("c2", "b1")])
        cands = prepared(g)
        before = encode_cognate_cnf(g, cands, uniqueness=False)
        after = encode_cognate_cnf(g, cands, [cands[0]], uniqueness=False)
        cvar = after.registry.id_of(cognate_desc(cands[0].pair))
        assert set(pick_one(before)) - set(pick_one(after)) == {cvar}
        assert len(pick_one(after)) == len(pick_one(before)) - 1

    def test_last_acceptance_empties_pool(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        cands = prepared(g)
        with pytest.raises(ValueError):
            encode_cognate_cnf(g, cands, cands)

    def test_encoding_is_pure(self):
        rng = random.Random(31)
        seen = 0
        for _ in range(10):
            d_ab, d_cb = random_dictionaries(rng)
            for g in build_transgraphs(d_ab, d_cb).graphs:
                cands = prepared(g, "H14")
                if len(cands) < 2:
                    continue
                accepted = cands[:1]
                kept = copy.deepcopy((cands, accepted))
                one = wcnf_text(encode_cognate_cnf(g, cands, accepted))
                assert wcnf_text(encode_cognate_cnf(g, cands, accepted)) == one
                assert (cands, accepted) == kept
                seen += 1
        assert seen >= 5


class TestSynonymEncoding:
    def _stage_one(self, ab, cb, threshold=0.01):
        from pivotlex.pipeline import _cut, run_cognate_stage, run_cycles, parse_method

        g = single_graph(ab, cb)
        out = run_cycles(g, parse_method("1:S:H14"))
        st = _cut(run_cognate_stage(out.graph, out.candidates), threshold)
        by_pair = {c.pair: c for c in out.candidates}
        return out.graph, out.candidates, [by_pair[p.pair] for p in st]

    def test_two_thirds_share_prices_the_single_missing_link(self):
        from pivotlex.pipeline import _synonym_candidates

        ab = [("a1", "b1"), ("a1", "b2"), ("a1", "b3")]
        cb = [
            ("c1", "b1"), ("c1", "b2"), ("c1", "b3"),
            ("c2", "b1"), ("c2", "b2"),
        ]
        g, cands, cognates = self._stage_one(ab, cb)
        (syn,) = _synonym_candidates(g, cognates)
        assert syn.shared_prob == pytest.approx(2 / 3)
        cnf = encode_synonym_cnf(g, cands, cognates, [syn])
        (sc,) = cnf.soft
        assert sc.micro / MICRO == pytest.approx(1 / 3, abs=1e-6)

    def test_half_share_splits_evenly_over_two_links(self):
        from pivotlex.pipeline import _synonym_candidates

        ab = [(f"a1", f"b{i}") for i in range(1, 5)]
        cb = [(f"c1", f"b{i}") for i in range(1, 5)] + [
            ("c2", "b1"), ("c2", "b2"),
        ]
        g, cands, cognates = self._stage_one(ab, cb)
        (syn,) = _synonym_candidates(g, cognates)
        assert syn.shared_prob == pytest.approx(0.5)
        assert len(syn.missing_edges) == 2
        cnf = encode_synonym_cnf(g, cands, cognates, [syn])
        assert len(cnf.soft) == 2
        for sc in cnf.soft:
            assert sc.micro / MICRO == pytest.approx(0.25, abs=1e-6)

    def test_encoding_is_pure(self):
        from pivotlex.pipeline import _synonym_candidates

        ab = [(f"a1", f"b{i}") for i in range(1, 5)]
        cb = [(f"c1", f"b{i}") for i in range(1, 5)] + [
            ("c2", "b1"), ("c2", "b2"),
        ]
        g, cands, cognates = self._stage_one(ab, cb)
        syn_cands = _synonym_candidates(g, cognates)
        kept = copy.deepcopy((cands, cognates, syn_cands))
        one = wcnf_text(encode_synonym_cnf(g, cands, cognates, syn_cands))
        assert wcnf_text(encode_synonym_cnf(g, cands, cognates, syn_cands)) == one
        assert (cands, cognates, syn_cands) == kept

    def test_rejected_cognates_are_pinned_false(self):
        from pivotlex.pipeline import _synonym_candidates

        ab = [("a1", "b1"), ("a1", "b2"), ("a1", "b3")]
        cb = [
            ("c1", "b1"), ("c1", "b2"), ("c1", "b3"),
            ("c2", "b1"), ("c2", "b2"),
        ]
        g, cands, cognates = self._stage_one(ab, cb)
        rejected = [c for c in cands if c not in cognates]
        assert cognates and rejected
        cnf = encode_synonym_cnf(g, cands, cognates, _synonym_candidates(g, cognates))
        units = [c.literals for c in cnf.hard if len(c.literals) == 1]
        for cand in cands:
            cvar = cnf.registry.id_of(cognate_desc(cand.pair))
            assert ((cvar,) in units) == (cand in cognates)
            assert ((-cvar,) in units) == (cand in rejected)
        assert cnf.counts["non_cognate"] == len(rejected)

    def test_every_synonym_accepted_gives_none(self):
        from pivotlex.pipeline import _synonym_candidates

        ab = [("a1", "b1"), ("a1", "b2"), ("a1", "b3")]
        cb = [
            ("c1", "b1"), ("c1", "b2"), ("c1", "b3"),
            ("c2", "b1"), ("c2", "b2"),
        ]
        g, cands, cognates = self._stage_one(ab, cb)
        syn_cands = _synonym_candidates(g, cognates)
        assert encode_synonym_cnf(g, cands, cognates, syn_cands) is not None
        assert encode_synonym_cnf(g, cands, cognates, syn_cands, syn_cands) is None


class TestWcnfExport:
    def test_single_hard_unit(self):
        reg = VarRegistry()
        x1 = reg.intern(("var", 1))
        cnf = CnfFormula(reg, hard=[hard_clause((x1,))])
        sink = io.StringIO()
        export_wcnf(cnf, sink)
        assert sink.getvalue() == "p wcnf 1 1 1\n1 1 0\n"

    def test_top_is_one_above_soft_sum(self):
        reg = VarRegistry()
        x1 = reg.intern(("var", 1))
        cnf = CnfFormula(
            reg, hard=[hard_clause((x1,))], soft=[soft_clause((-x1,), 2.0)]
        )
        sink = io.StringIO()
        export_wcnf(cnf, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "p wcnf 1 2 2000001"
        assert lines[1] == "2000001 1 0"
        assert lines[2] == "2000000 -1 0"

    def test_empty_formula_is_error(self):
        with pytest.raises(ValueError):
            export_wcnf(CnfFormula(VarRegistry()), io.StringIO())

    def test_round_trip_preserves_optimal_cost(self):
        rng = random.Random(23)
        for _ in range(25):
            d_ab, d_cb = random_dictionaries(rng)
            for g in build_transgraphs(d_ab, d_cb).graphs:
                cands = prepared(g, "H14")
                if not cands:
                    continue
                cnf = encode_cognate_cnf(g, cands)
                sink = io.StringIO()
                export_wcnf(cnf, sink)
                again = parse_wcnf(sink.getvalue())
                a, b = solve(cnf), solve(again)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.micro_cost == b.micro_cost

    def test_reparse_identical_text(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        cands = prepared(g)
        cnf = encode_cognate_cnf(g, cands)
        s1, s2 = io.StringIO(), io.StringIO()
        export_wcnf(cnf, s1)
        export_wcnf(parse_wcnf(s1.getvalue()), s2)
        assert s1.getvalue() == s2.getvalue()


HEURISTICS = ["H" + "".join(d) for r in range(1, 5) for d in combinations("1234", r)]
WRITER_DESCRIPTORS = [
    f"{cycle}:{method}:{h}" for cycle in (1, 2, 3) for method in "CS" for h in HEURISTICS
] + [f"{cycle}:M:H1" for cycle in (1, 2, 3)]


class TestCognateWriter:
    """write_cognate_wcnf streams the bytes of the reference formula's export."""

    def test_empty_candidates_is_error(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        with pytest.raises(ValueError):
            write_cognate_wcnf(g, [], io.StringIO(), uniqueness=True)

    @pytest.mark.parametrize("tags", TAGS, ids="/".join)
    def test_bytes_match_reference_export(self, tags):
        lang_a, lang_b, lang_c = tags
        rng = random.Random(29)
        links = [(x.ab, x.cb) for x in (chained(1, (5, 10)), chained(2, (7,) * 3))]
        links += [_random_links(rng) for _ in range(20)]
        graphs = []
        for ab, cb in links:
            d_ab = BilingualDictionary(
                lang_a, lang_b, frozenset((Word(lang_a, x), Word(lang_b, y)) for x, y in ab)
            )
            d_cb = BilingualDictionary(
                lang_c, lang_b, frozenset((Word(lang_c, x), Word(lang_b, y)) for x, y in cb)
            )
            graphs += filter_big(build_transgraphs(d_ab, d_cb), 100).graphs
        seen = set()
        # each descriptor takes every sixth graph, a different sixth for the next
        for i, desc in enumerate(WRITER_DESCRIPTORS):
            for g in graphs[i % 6 :: 6]:
                cyc = run_cycles(g, parse_method(desc))
                if not cyc.candidates:
                    continue
                for uniqueness in (True, False):
                    sink = io.StringIO()
                    write_cognate_wcnf(cyc.graph, cyc.candidates, sink, uniqueness=uniqueness)
                    cnf = encode_cognate_cnf(cyc.graph, cyc.candidates, uniqueness=uniqueness)
                    assert sink.getvalue() == wcnf_text(cnf), (desc, g.id, uniqueness)
                seen.add(desc)
        assert seen == set(WRITER_DESCRIPTORS)
