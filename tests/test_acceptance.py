"""Acceptance suite: one test per release criterion, one printed line each."""

import math
import random
import time
from itertools import combinations, product

import pytest

from helpers import (
    dict_ab,
    dict_cb,
    joint_probability,
    marginal_probability,
    random_dictionaries,
    random_formula,
    result_pair_set,
    single_graph,
    synonym_shares,
    wa,
    wb,
    wc,
)
from maxsat_reference import encode_cognate_cnf, export_wcnf, parse_wcnf, solve
from oracle import brute_force_solve
from scoring_reference import compute_cognate_probabilities, compute_tables
from pivotlex.evaluation import paired_t_test, score, t_cdf
from pivotlex.heuristics import HeuristicSelection, generate_candidates
from pivotlex.lexicon import PairSet
from pivotlex.pipeline import (
    COGNATE,
    parse_method,
    run_cycles,
    run_pipeline,
)
from pivotlex.polysemy import predicted_precision, wrong_translations
from pivotlex.transgraph import add_new_edges, build_transgraphs
from pivotlex.cli import main as cli_main


def note(line: str) -> None:
    print(line)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_polysemy_model_exactness():
    start = time.perf_counter()
    assert predicted_precision(2, 2) == pytest.approx(0.388889, abs=1e-6)
    assert wrong_translations(2, 2) == 22
    for n in range(1, 11):
        row = [predicted_precision(n, m) for m in range(0, n + 1)]
        assert all(a > b for a, b in zip(row, row[1:])), f"not decreasing at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    note(f"[PASS] criterion 1: polysemy model exact (2,2)->0.388889, 22 wrong, {elapsed:.3f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_probability_fixtures():
    # three links on the A side, two of them touching a1
    g = single_graph(
        [("a1", "b1"), ("a1", "b2"), ("a2", "b1")], [("c1", "b1")]
    )
    assert marginal_probability(g, wa("a1")) == 2 / 3
    assert joint_probability(g, wa("a1"), wb("b1")) == 1 / 3

    chain = single_graph([("a1", "b1")], [("c1", "b1")])
    (cand,) = generate_candidates(chain, HeuristicSelection.from_token("H1"))
    coexistence, missing_contribution, pivot_ambiguity = compute_cognate_probabilities(
        cand.word_a, cand.word_c, cand.pivots, cand.missing_edges, compute_tables(chain)
    )
    assert coexistence == 1.0
    assert missing_contribution == 0.0
    assert pivot_ambiguity == 0.0
    note("[PASS] criterion 2: marginal 2/3, joint 1/3; symmetric pair -> 1, 0, 0")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_synonym_probabilities():
    ab = [("a1", "b1"), ("a1", "b2"), ("a1", "b3")]
    cb = [
        ("c1", "b1"), ("c1", "b2"), ("c1", "b3"),
        ("c2", "b1"), ("c2", "b2"), ("c2", "b3"),
        ("c3", "b1"), ("c3", "b2"),
        ("c4", "b1"),
    ]
    g = single_graph(ab, cb)
    shares = synonym_shares(g, (wa("a1"), wc("c1")))
    assert shares[wc("c2")] == 1.0
    assert shares[wc("c3")] == pytest.approx(0.67, abs=0.005)
    assert shares[wc("c4")] == pytest.approx(0.33, abs=0.005)

    both = single_graph(
        [("a1", "b1"), ("a1", "b2")],
        [("c1", "b1"), ("c1", "b2"), ("c2", "b1"), ("c2", "b2")],
    )
    assert synonym_shares(both, (wa("a1"), wc("c1")))[wc("c2")] == 1.0
    half = single_graph(
        [("a1", "b1"), ("a1", "b2")],
        [("c1", "b1"), ("c1", "b2"), ("c2", "b1")],
    )
    assert synonym_shares(half, (wa("a1"), wc("c1")))[wc("c2")] == 0.5
    note("[PASS] criterion 3: synonym ratios 1.0 / 0.67 / 0.33 and 1.0 / 0.5")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_solver_oracle_equivalence():
    rng = random.Random(20240817)
    start = time.perf_counter()
    n_instances = 1000
    n_unsat = 0
    for _ in range(n_instances):
        cnf = random_formula(rng, max_vars=18)
        got = solve(cnf)
        want = brute_force_solve(cnf)
        assert (got is None) == (want is None)
        if got is None:
            n_unsat += 1
            continue
        assert got.micro_cost == want.micro_cost
        assert got.assignment == want.assignment
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    note(
        f"[PASS] criterion 4: {n_instances} instances (incl. {n_unsat} unsat) "
        f"match the oracle bit-for-bit in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------- criterion 5


def _prepared(graph):
    return generate_candidates(graph, HeuristicSelection.from_token("H14"))


def test_criterion_5_constraint_count_closed_forms():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        d_ab, d_cb = random_dictionaries(rng)
        for g in build_transgraphs(d_ab, d_cb).graphs:
            cands = _prepared(g)
            if not cands:
                continue
            cnf = encode_cognate_cnf(g, cands)
            assert cnf.counts["symmetry"] == 2 * sum(len(c.pivots) for c in cands)
            by_end = {}
            for c in cands:
                by_end.setdefault(("a", c.word_a), []).append(c)
                by_end.setdefault(("c", c.word_c), []).append(c)
            expected_uniq = sum(
                len(list(combinations(group, 2))) for group in by_end.values()
            )
            assert cnf.counts["uniqueness"] == expected_uniq

            import io

            sink = io.StringIO()
            export_wcnf(cnf, sink)
            again = parse_wcnf(sink.getvalue())
            a, b = solve(cnf), solve(again)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.micro_cost == b.micro_cost
            checked += 1
    note(f"[PASS] criterion 5: clause closed forms and export round-trip on {checked} graphs")


# ---------------------------------------------------------------- criterion 6


def _planted_family(n_groups: int):
    ab, cb, gold = [], [], []
    for i in range(n_groups):
        pivots = [f"b{i}p{j}" for j in range(1 + i % 3)]
        for b in pivots:
            ab.append((f"a{i}", b))
            cb.append((f"c{i}", b))
        gold.append((f"a{i}", f"c{i}"))
    return ab, cb, gold


def _planted_synonym_family(n_groups: int):
    ab, cb, gold = [], [], []
    for i in range(n_groups):
        pivots = [f"b{i}p{j}" for j in range(2)]
        for b in pivots:
            ab.append((f"a{i}", b))
            cb.append((f"c{i}", b))
            cb.append((f"s{i}", b))
        cb.append((f"t{i}", pivots[0]))
        gold += [(f"a{i}", f"c{i}"), (f"a{i}", f"s{i}"), (f"a{i}", f"t{i}")]
    return ab, cb, gold


def test_criterion_6_pipeline_recovery():
    ab, cb, gold_pairs = _planted_family(8)
    res = run_pipeline(dict_ab(*ab), dict_cb(*cb), parse_method("1:C:H1"))
    gold = PairSet("aaa", "ccc", frozenset((wa(a), wc(c)) for a, c in gold_pairs))
    m = score(result_pair_set(res), gold)
    assert (m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0)

    ab, cb, gold_pairs = _planted_synonym_family(6)
    res = run_pipeline(dict_ab(*ab), dict_cb(*cb), parse_method("1:S:H14"))
    gold = PairSet("aaa", "ccc", frozenset((wa(a), wc(c)) for a, c in gold_pairs))
    m = score(result_pair_set(res), gold)
    assert (m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0)
    note("[PASS] criterion 6: planted 1-1 and many-to-many mappings recovered at F=1")


# ---------------------------------------------------------------- criterion 7


def _uniqueness_violated(pairs) -> bool:
    seen_a, seen_c = set(), set()
    for p in pairs:
        if p.word_a in seen_a or p.word_c in seen_c:
            return True
        seen_a.add(p.word_a)
        seen_c.add(p.word_c)
    return False


def test_criterion_7_prior_work_equivalences():
    rng = random.Random(815)
    fixtures = []
    ab, cb, _ = _planted_family(5)
    fixtures.append((dict_ab(*ab), dict_cb(*cb)))
    ab, cb, _ = _planted_synonym_family(4)
    fixtures.append((dict_ab(*ab), dict_cb(*cb)))
    fixtures.append((dict_ab(("a1", "b1")), dict_cb(("c1", "b1"), ("c2", "b1"))))
    for _ in range(6):
        fixtures.append(random_dictionaries(rng))

    saw_mm_violation = False
    for d_ab, d_cb in fixtures:
        one = run_pipeline(d_ab, d_cb, parse_method("1:C:H1"))
        one_pairs = {p.pair for p in one.pairs}
        assert not _uniqueness_violated(one.pairs)
        for method in ("1:M:H1", "2:M:H1"):
            many = run_pipeline(d_ab, d_cb, parse_method(method))
            assert one_pairs <= {p.pair for p in many.pairs}
            saw_mm_violation |= _uniqueness_violated(many.pairs)
        syn = run_pipeline(d_ab, d_cb, parse_method("1:S:H14"))
        cognate_only = [p for p in syn.pairs if p.stage == COGNATE]
        assert not _uniqueness_violated(cognate_only)
    assert saw_mm_violation, "expected at least one many-to-many fixture"
    note("[PASS] criterion 7: M supersets of C everywhere; uniqueness broken only in M/S")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_cycle_fixpoint():
    rng = random.Random(4242)
    graphs_checked = 0
    for _ in range(30):
        d_ab, d_cb = random_dictionaries(rng)
        for g in build_transgraphs(d_ab, d_cb).graphs:
            out = run_cycles(g, parse_method("9:C:H1"))
            assert out.fixpoint, "nine cycles must exhaust any test-size graph"
            # edge-set fixpoint: materializing again changes nothing
            assert add_new_edges(out.graph, out.candidates) is out.graph
            expected = set(product(g.a_words, g.c_words))
            assert {c.pair for c in out.candidates} == expected
            graphs_checked += 1
    assert graphs_checked >= 30
    note(f"[PASS] criterion 8: fixpoint + complete candidate coverage on {graphs_checked} graphs")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_statistics():
    report = paired_t_test([0.1, 0.2, 0.15], [0.0, 0.0, 0.0])
    assert report.t_stat == pytest.approx(5.196, abs=1e-3)
    assert report.p_value == pytest.approx(0.0176, abs=1e-3)

    for t in (-6.0, -1.2, 0.0, 0.4, 2.5, 8.0):
        assert t_cdf(t, 1) == pytest.approx(0.5 + math.atan(t) / math.pi, abs=1e-8)
        assert t_cdf(t, 2) == pytest.approx(
            0.5 + t / (2.0 * math.sqrt(t * t + 2.0)), abs=1e-8
        )

    def ps(*pairs):
        return PairSet("aaa", "ccc", frozenset((wa(a), wc(c)) for a, c in pairs))

    m = score(ps(("a", "x")), ps(("a", "x")))
    assert (m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0)
    m = score(ps(("a", "x"), ("b", "y"), ("c", "z")), ps(("b", "y"), ("c", "z"), ("d", "w")))
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f_score == pytest.approx(2 / 3)
    m = score(ps(), ps(("a", "x"), ("b", "y")))
    assert (m.precision, m.recall, m.f_score) == (0.0, 0.0, 0.0)
    note("[PASS] criterion 9: t-test 5.196/0.0176, t CDF closed forms, P/R/F fixtures")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(tmp_path):
    rng = random.Random(77)
    fixtures = []
    ab, cb, _ = _planted_synonym_family(5)
    fixtures.append((ab, cb))
    for _ in range(2):
        d_ab, d_cb = random_dictionaries(rng, n_a=5, n_b=5, n_c=5, p_edge=0.45)
        fixtures.append(
            (
                sorted((a.surface, b.surface) for a, b in d_ab.entries),
                sorted((c.surface, b.surface) for c, b in d_cb.entries),
            )
        )

    for i, (ab_rows, cb_rows) in enumerate(fixtures):
        ab_path = tmp_path / f"ab{i}.tsv"
        cb_path = tmp_path / f"cb{i}.tsv"
        ab_path.write_text(
            "".join(f"{s}\t{t}\n" for s, t in ab_rows), encoding="utf-8"
        )
        cb_path.write_text(
            "".join(f"{s}\t{t}\n" for s, t in cb_rows), encoding="utf-8"
        )
        outputs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"out{i}_j{jobs}.tsv"
            code = cli_main(
                [
                    "induce",
                    "--dict-ab", str(ab_path),
                    "--dict-cb", str(cb_path),
                    "--lang-a", "aaa", "--lang-b", "ppp", "--lang-c", "ccc",
                    "--method", "2:S:H14",
                    "--jobs", jobs,
                    "-o", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"fixture {i} differs across job counts"
    note("[PASS] criterion 10: induce output bit-identical at --jobs 1 and --jobs 8")
