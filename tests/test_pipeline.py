import collections
import gc
import itertools
import os
import pickle
import random
import select
import signal
import time

import pytest

from helpers import (
    ASYM_AB,
    ASYM_CB,
    dict_ab,
    dict_cb,
    random_dictionaries,
    result_pair_set,
    single_graph,
    synonym_shares,
    wa,
    wc,
)
from pivotlex import heuristics, pipeline
from grid_reference import grid_points
from pivotlex.evaluation import cross_validate, grid_search
from pivotlex.lexicon import PairSet
from pivotlex.pipeline import (
    COGNATE,
    SYNONYM,
    HyperParams,
    _cut,
    _induce_one,
    _synonym_candidates,
    induce_on_transgraphs,
    parse_method,
    render_report,
    run_cognate_stage,
    run_cycles,
    run_pipeline,
    run_synonym_stage,
)
from pivotlex.transgraph import SIDE_AB, SIDE_BC, build_transgraphs
from test_cross_validation import random_components, random_gold
from test_evaluation import _synonym_tset, pair_set


def surfaces(pairs):
    return sorted((p.word_a.surface, p.word_c.surface) for p in pairs)


def skewed_dictionaries():
    """A 320-edge component, named to get the last id, and 150 one-pivot ones."""
    rng = random.Random(21)
    ab, cb = [], []
    for j in range(40):
        ab += [(f"za{i}", f"zb{j}") for i in rng.sample(range(30), 4)]
        cb += [(f"zc{i}", f"zb{j}") for i in rng.sample(range(30), 4)]
    for k in range(150):
        ab += [(f"sa{k}_{i}", f"sb{k}") for i in range(1 + k % 2)]
        cb += [(f"sc{k}_{i}", f"sb{k}") for i in range(1 + k % 3)]
    return dict_ab(*ab), dict_cb(*cb)


def largest_chunk(tset, jobs):
    """The most graphs _fork_map deals into one chunk of the queue."""
    chunks = min(len(tset.graphs), jobs * pipeline._CHUNKS_PER_PROCESS, pipeline._MAX_CHUNKS)
    return -(-len(tset.graphs) // chunks)


def open_fds():
    return set(os.listdir("/dev/fd"))


def assert_closed_and_reaped(fds):
    """No pipe is left open beyond `fds`, and no child is left unreaped."""
    assert open_fds() == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def per_process(monkeypatch):
    """Wraps run_cycles to act per process, told apart by pid.

    per_process(parent, child) calls parent(tg) before each graph that the
    calling process induces, and child(n) before the n-th graph that a
    forked child induces; it returns the ids of the graphs the calling
    process induced. Before its first graph, the calling process waits
    until some child has started one, so a child always takes part.
    """
    caller = os.getpid()
    started_r, started_w = os.pipe()
    run_cycles = pipeline.run_cycles

    def wrap(parent=None, child=None):
        induced = []  # children fork before any graph, so each counts its own

        def wrapped(tg, descriptor):
            induced.append(tg.id)
            if os.getpid() == caller:
                if len(induced) == 1:
                    select.select([started_r], [], [], 10)
                if parent:
                    parent(tg)
            else:
                if len(induced) == 1:
                    os.write(started_w, b".")
                if child:
                    child(len(induced))
            return run_cycles(tg, descriptor)

        monkeypatch.setattr(pipeline, "run_cycles", wrapped)
        return induced

    yield wrap
    os.close(started_r)
    os.close(started_w)


class TestParseMethod:
    def test_standard_descriptor(self):
        m = parse_method("2:S:H14")
        assert (m.cycle, m.method) == (2, "S")
        assert m.heuristics.coexistence and m.heuristics.form_similarity
        assert str(m) == "2:S:H14"

    def test_one_to_one_legacy(self):
        m = parse_method("1:C:H1")
        assert (m.cycle, m.method, m.heuristics.token) == (1, "C", "H1")

    @pytest.mark.parametrize(
        "bad",
        ["0:C:H1", "10:C:H1", "1:X:H1", "1:C:H5", "1:C:", "1:C", "1:M:H14", "x", ""],
    )
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            parse_method(bad)

    def test_m_needs_h1(self):
        assert parse_method("2:M:H1").method == "M"
        with pytest.raises(ValueError, match="H1"):
            parse_method("2:M:H12")


class TestHyperParams:
    def test_bounds(self):
        with pytest.raises(ValueError):
            HyperParams(cognate_threshold=-0.1)
        with pytest.raises(ValueError):
            HyperParams(synonym_threshold=1.5)
        with pytest.raises(ValueError):
            HyperParams(cognate_threshold=float("nan"))
        with pytest.raises(ValueError):
            HyperParams(synonym_threshold=float("nan"))
        assert HyperParams().cognate_threshold is None


class TestRunCycles:
    def test_symmetric_graph_hits_fixpoint_immediately(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        out = run_cycles(g, parse_method("5:C:H1"))
        assert out.cycles_run == 1 and out.fixpoint
        assert out.graph is g

    def test_second_cycle_sees_new_candidates(self):
        # (a2,c1) only becomes reachable over the first cycle's proposed edge
        ab = [("a1", "b1"), ("a1", "b2"), ("a2", "b2")]
        cb = [("c1", "b1"), ("c2", "b2")]
        g = single_graph(ab, cb)
        one = run_cycles(g, parse_method("1:M:H1"))
        two = run_cycles(g, parse_method("2:M:H1"))
        assert (wa("a2"), wc("c1")) not in {c.pair for c in one.candidates}
        assert (wa("a2"), wc("c1")) in {c.pair for c in two.candidates}
        proposed = [key for key in two.graph.edges if key not in g.edges]
        assert proposed

    def test_fixpoint_reached_and_candidates_complete(self):
        rng = random.Random(2)
        for _ in range(15):
            d_ab, d_cb = random_dictionaries(rng)
            for g in build_transgraphs(d_ab, d_cb).graphs:
                out = run_cycles(g, parse_method("9:C:H1"))
                assert out.fixpoint, "nine cycles should exhaust any small graph"
                expected = set(itertools.product(g.a_words, g.c_words))
                assert {c.pair for c in out.candidates} == expected

    def test_rerunning_at_fixpoint_changes_nothing(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        out = run_cycles(g, parse_method("9:C:H1"))
        again = run_cycles(out.graph, parse_method("9:C:H1"))
        assert set(again.graph.edges) == set(out.graph.edges)


class TestCognateStage:
    def test_chain_accepts_at_zero_cost(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        out = run_cycles(g, parse_method("1:C:H1"))
        st = run_cognate_stage(g, out.candidates)
        assert surfaces(st) == [("a1", "c1")]
        assert st[0].cost == 0.0
        assert len(st) == len(out.candidates)  # none blocked
        assert not _induce_one(g, parse_method("1:C:H1"), HyperParams())[2].cognate_unsat

    def test_uniqueness_blocks_second_pair(self):
        # the symmetric pair wins; its rival shares a1 and gets blocked
        g = single_graph(ASYM_AB, ASYM_CB)
        out = run_cycles(g, parse_method("1:C:H1"))
        st = run_cognate_stage(g, out.candidates)
        assert surfaces(st) == [("a1", "c1")]
        assert len(st) < len(out.candidates)  # the pick-one clause became unsatisfiable
        assert _induce_one(g, parse_method("1:C:H1"), HyperParams())[2].cognate_unsat

    def test_zero_threshold_rejects_positive_costs(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        out = run_cycles(g, parse_method("1:C:H1"))
        st = _cut(run_cognate_stage(g, out.candidates), 0.0)
        assert st == ()

    def test_empty_candidates(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        st = run_cognate_stage(g, [])
        assert st == ()

    def test_positional_hyperparams_rejected(self):
        # thresholds are cut after the stage; a stale positional HyperParams
        # must not pass for one_to_one
        g = single_graph(ASYM_AB, ASYM_CB)
        out = run_cycles(g, parse_method("1:C:H1"))
        with pytest.raises(TypeError):
            run_cognate_stage(g, out.candidates, HyperParams(cognate_threshold=0.0))

    def test_accepted_costs_non_decreasing_without_sharing(self):
        # candidate edge sets are disjoint here, so greedy costs are sorted
        ab = [("a1", "b1"), ("a2", "b2"), ("a2", "b3")]
        cb = [("c1", "b1"), ("c2", "b2"), ("c2", "b4")]
        g = single_graph(ab + [("a1", "b4")], cb + [("c1", "b3")])
        out = run_cycles(g, parse_method("1:M:H1"))
        st = run_cognate_stage(g, out.candidates, one_to_one=False)
        costs = [p.cost for p in st]
        assert costs == sorted(costs)


class TestSynonymProbability:
    def test_three_pivot_ratios(self):
        # anchor fully linked over b1..b3; partners hit 3, 2 and 1 of them
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
        assert shares[wc("c3")] == pytest.approx(2 / 3)
        assert shares[wc("c4")] == pytest.approx(1 / 3)

    def test_two_pivot_full_share(self):
        ab = [("a1", "b1"), ("a1", "b2")]
        cb = [("c1", "b1"), ("c1", "b2"), ("c2", "b1"), ("c2", "b2")]
        g = single_graph(ab, cb)
        assert synonym_shares(g, (wa("a1"), wc("c1")))[wc("c2")] == 1.0

    def test_half_share(self):
        g = single_graph(ASYM_AB, ASYM_CB)
        assert synonym_shares(g, (wa("a1"), wc("c1")))[wc("c2")] == 0.5


class TestSynonymStage:
    def _run(self, ab, cb, method="1:S:H14", hp=None):
        g = single_graph(ab, cb)
        desc = parse_method(method)
        out = run_cycles(g, desc)
        hp = hp or HyperParams()
        st1 = _cut(run_cognate_stage(g, out.candidates), hp.cognate_threshold)
        by_pair = {c.pair: c for c in out.candidates}
        anchors = [by_pair[p.pair] for p in st1]
        st2 = _cut(run_synonym_stage(out.graph, anchors), hp.synonym_threshold)
        return st1, st2

    def test_synonyms_of_both_sides(self):
        # the dangling pivot b3 makes (a1,c2) imperfect, so the cognate
        # stage uniquely picks (a1,c1); c2 then shares both anchor pivots,
        # a2 shares one of two
        ab = [("a1", "b1"), ("a1", "b2"), ("a2", "b1")]
        cb = [
            ("c1", "b1"), ("c1", "b2"),
            ("c2", "b1"), ("c2", "b2"), ("c2", "b3"),
        ]
        st1, st2 = self._run(ab, cb, hp=HyperParams(cognate_threshold=0.01))
        assert surfaces(st1) == [("a1", "c1")]
        got = {(p.word_a.surface, p.word_c.surface): p for p in st2}
        assert set(got) == {("a1", "c2"), ("a2", "c1")}
        assert got[("a1", "c2")].cost == 0.0
        assert got[("a2", "c1")].cost == pytest.approx(0.5)
        assert all(p.stage == SYNONYM for p in st2)
        assert all(p.anchor == (wa("a1"), wc("c1")) for p in st2)

    def test_fully_linked_synonym_is_free(self):
        # both pairs are perfect; the canonical tie-break makes (a1,c2) the
        # cognate and the equally well linked c1 comes back as its synonym
        ab = [("a1", "b1"), ("a1", "b2")]
        cb = [("c1", "b1"), ("c1", "b2"), ("c2", "b1"), ("c2", "b2")]
        st1, st2 = self._run(ab, cb)
        assert surfaces(st1) == [("a1", "c2")]
        assert surfaces(st2) == [("a1", "c1")]
        assert st2[0].cost == 0.0

    def test_zero_threshold_rejects_half_linked(self):
        _, st2 = self._run(
            ASYM_AB, ASYM_CB, hp=HyperParams(synonym_threshold=0.0)
        )
        assert st2 == ()

    def test_stage_empty_without_cognates(self):
        g = single_graph([("a1", "b1")], [("c1", "b1")])
        st = run_synonym_stage(g, [])
        assert st == () and not _synonym_candidates(g, [])  # none blocked

    def test_synonym_shares_anchor_pivot(self):
        rng = random.Random(77)
        for _ in range(10):
            d_ab, d_cb = random_dictionaries(rng, p_edge=0.5)
            res = run_pipeline(d_ab, d_cb, parse_method("1:S:H14"))
            anchors = {
                (p.word_a, p.word_c): p for p in res.pairs if p.stage == COGNATE
            }
            for p in res.pairs:
                if p.stage != SYNONYM:
                    continue
                assert p.anchor in anchors


def offered_synonyms(graph, cognates):
    """Every (share, anchor, missing edges) offer of each synonym pair, from scratch.

    Each accepted cognate offers every word sharing one of its pivots, on
    either side, as its other word's partner; the cognates' missing edges
    count as existing.
    """
    present = set(graph.edges).union(*(cog.missing_edges for cog in cognates))
    taken = {cog.pair for cog in cognates}
    words = [(w, SIDE_AB) for w in graph.a_words] + [(w, SIDE_BC) for w in graph.c_words]
    offers = {}
    for cog in cognates:
        for w, side in words:
            pair = (w, cog.word_c) if side == SIDE_AB else (cog.word_a, w)
            linked = [b for b in cog.pivots if (side, w, b) in present]
            if w in cog.pair or pair in taken or not linked:
                continue
            missing = tuple((side, w, b) for b in cog.pivots if b not in linked)
            offers.setdefault(pair, []).append(
                (len(linked) / len(cog.pivots), cog.pair, missing)
            )
    return offers


def test_synonym_keeps_the_smallest_of_the_likeliest_anchors():
    rng = random.Random("synonym-anchor")
    ties = 0
    for _ in range(120):
        n_a, n_b, n_c = (rng.randint(2, 5) for _ in range(3))
        d_ab, d_cb = random_dictionaries(rng, n_a, n_b, n_c, p_edge=rng.choice([0.3, 0.45]))
        for tg in build_transgraphs(d_ab, d_cb).graphs:
            for cycle in (1, 2, 3):
                cyc = run_cycles(tg, parse_method(f"{cycle}:S:H1"))
                by_pair = {c.pair: c for c in cyc.candidates}
                for one_to_one in (True, False):
                    stage = run_cognate_stage(cyc.graph, cyc.candidates, one_to_one=one_to_one)
                    cognates = [by_pair[p.pair] for p in stage]
                    got = {s.pair: s for s in _synonym_candidates(cyc.graph, cognates)}
                    offers = offered_synonyms(cyc.graph, cognates)
                    assert set(got) == set(offers)
                    for pair, offered in offers.items():
                        top = max(share for share, _, _ in offered)
                        likeliest = [o for o in offered if o[0] == top]
                        ties += len(likeliest) > 1
                        share, anchor, missing = min(likeliest, key=lambda o: o[1])
                        kept = got[pair]
                        assert (kept.anchor, kept.shared_prob, kept.missing_edges) == (
                            anchor, share, missing
                        ), pair
                        assert kept.missing_edges == tuple(sorted(kept.missing_edges))
    assert ties >= 50  # equal shares from several anchors are common


class TestStageCalls:
    """Every run calls the stages through pipeline's globals, each as often as needed."""

    STAGES = ("run_cycles", "run_cognate_stage", "run_synonym_stage")

    @pytest.fixture
    def calls(self, monkeypatch):
        """A function returning the calls per stage since it was last called."""
        counts = collections.Counter()
        for name in self.STAGES:

            def counted(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        return lambda: tuple(counts.pop(name, 0) for name in self.STAGES)

    @staticmethod
    def fixtures():
        gold = pair_set(("a1", "c1"), ("a1", "c5"), ("a2", "c2"))
        yield _synonym_tset(), gold
        rng = random.Random(31)
        for _ in range(4):
            tset = build_transgraphs(*random_dictionaries(rng, n_a=5, n_b=4, n_c=5))
            pairs = [p for g in tset.graphs for p in itertools.product(g.a_words, g.c_words)]
            gold_pairs = frozenset(p for p in pairs if rng.random() < 0.5) | {pairs[0]}
            yield tset, PairSet(gold.lang_a, gold.lang_c, gold_pairs)

    @staticmethod
    def cognate_axis(tset, desc, gold):
        """The search's cognate thresholds and the graphs' distinct prefixes
        over them, each graph's empty prefix (at threshold 0) among them."""
        cognate_grid = sorted({p.cognate_threshold for p in grid_points(tset, desc, gold)})
        prefixes = sum(
            len({_induce_one(g, desc, HyperParams(ct))[2].cognate_pairs for ct in cognate_grid})
            for g in tset.graphs
        )
        return cognate_grid, prefixes

    def test_grid_points_runs_each_stage_once_per_graph_or_prefix(self, calls):
        desc = parse_method("2:S:H14")
        for tset, gold in self.fixtures():
            cognate_grid, prefixes = self.cognate_axis(tset, desc, gold)
            calls()
            points = list(grid_points(tset, desc, gold))
            assert len(points) == len(cognate_grid) * 101
            graphs = len(tset.graphs)
            assert calls() == (graphs, graphs, prefixes)
            assert prefixes > graphs  # the fixture cuts the cognate stage somewhere

    def test_grid_search_runs_each_stage_once_per_graph_or_prefix(self, calls):
        desc = parse_method("2:S:H14")
        for tset, gold in self.fixtures():
            _, prefixes = self.cognate_axis(tset, desc, gold)
            calls()
            grid_search(tset, desc, gold)
            graphs = len(tset.graphs)
            # a synonym run anchored on no cognate is empty, so it is skipped
            assert calls() == (graphs, graphs, prefixes - graphs)

    def test_cross_validate_runs_each_stage_once_per_graph_or_prefix(self, calls):
        desc = parse_method("2:S:H14")
        rng = random.Random(37)
        fixtures = [(_synonym_tset(), pair_set(("a1", "c1"), ("a2", "c2")))]
        for _ in range(8):
            tset = random_components(rng, 5, 4)
            fixtures.append((tset, random_gold(rng, tset)))
        folds = 0
        for tset, gold in fixtures:
            _, prefixes = self.cognate_axis(tset, desc, gold)
            graphs = len(tset.graphs)
            for k in range(2, graphs + 1):
                calls()
                try:
                    cross_validate(tset, desc, gold, k)
                except ValueError:  # a fold without gold fails before any stage runs
                    assert calls() == (0, 0, 0)
                    continue
                assert calls() == (graphs, graphs, prefixes - graphs)
                folds += k
        assert folds >= 30

    @pytest.mark.parametrize("method, synonym_runs", [("S", 1), ("C", 0), ("M", 0)])
    def test_induce_one_runs_each_stage_once(self, calls, method, synonym_runs):
        hp = HyperParams(0.3, 0.4)
        for tset, _ in self.fixtures():
            for g in tset.graphs:
                calls()
                _induce_one(g, parse_method(f"2:{method}:H1"), hp)
                assert calls() == (1, 1, synonym_runs)


class TestRunPipeline:
    def test_recovers_planted_mapping(self):
        ab = [("a1", "b1"), ("a1", "b2"), ("a2", "b3")]
        cb = [("c1", "b1"), ("c1", "b2"), ("c2", "b3")]
        res = run_pipeline(dict_ab(*ab), dict_cb(*cb), parse_method("1:C:H1"))
        assert surfaces(res.pairs) == [("a1", "c1"), ("a2", "c2")]
        assert all(p.cost == 0.0 for p in res.pairs)

    def test_star_many_to_many(self):
        res = run_pipeline(
            dict_ab(("a1", "b1")),
            dict_cb(("c1", "b1"), ("c2", "b1")),
            parse_method("1:M:H1"),
        )
        assert surfaces(res.pairs) == [("a1", "c1"), ("a1", "c2")]

    def test_m_supersets_c(self):
        rng = random.Random(5)
        for _ in range(8):
            d_ab, d_cb = random_dictionaries(rng)
            one = {
                (p.word_a, p.word_c)
                for p in run_pipeline(d_ab, d_cb, parse_method("1:C:H1")).pairs
            }
            for method in ("1:M:H1", "2:M:H1"):
                many = {
                    (p.word_a, p.word_c)
                    for p in run_pipeline(d_ab, d_cb, parse_method(method)).pairs
                }
                assert one <= many

    def test_c_output_is_partial_matching(self):
        rng = random.Random(6)
        for _ in range(8):
            d_ab, d_cb = random_dictionaries(rng)
            res = run_pipeline(d_ab, d_cb, parse_method("1:C:H1"))
            seen_a, seen_c = set(), set()
            for p in res.pairs:
                assert p.word_a not in seen_a and p.word_c not in seen_c
                seen_a.add(p.word_a)
                seen_c.add(p.word_c)

    def test_accepted_costs_reproducible(self):
        # rebuilding the stage and re-checking each optimum gives same costs
        rng = random.Random(8)
        d_ab, d_cb = random_dictionaries(rng)
        r1 = run_pipeline(d_ab, d_cb, parse_method("2:S:H14"))
        r2 = run_pipeline(d_ab, d_cb, parse_method("2:S:H14"))
        assert [(p.pair, p.cost) for p in r1.pairs] == [
            (p.pair, p.cost) for p in r2.pairs
        ]

    def test_each_acceptance_cost_verifiable(self):
        # replaying the cognate stage move by move, every optimum's cost
        # survives an independent assignment check
        from maxsat_reference import (
            check_assignment,
            cognate_desc,
            encode_cognate_cnf,
            solve,
        )

        rng = random.Random(23)
        d_ab, d_cb = random_dictionaries(rng)
        for g in build_transgraphs(d_ab, d_cb).graphs:
            out = run_cycles(g, parse_method("1:S:H14"))
            accepted = []
            while len(accepted) < len(out.candidates):
                cnf = encode_cognate_cnf(out.graph, out.candidates, accepted)
                opt = solve(cnf)
                if opt is None:
                    break
                assert check_assignment(cnf, opt.assignment) == opt.soft_cost
                pool = {
                    cnf.registry.id_of(cognate_desc(c.pair)): c
                    for c in out.candidates
                    if c not in accepted
                }
                accepted.append(pool[min(v for v in pool if opt.assignment[v])])

    def test_threshold_monotonicity(self):
        rng = random.Random(12)
        for _ in range(5):
            d_ab, d_cb = random_dictionaries(rng)
            low = run_pipeline(
                d_ab, d_cb, parse_method("1:S:H14"), HyperParams(0.3, 0.4)
            )
            high = run_pipeline(
                d_ab, d_cb, parse_method("1:S:H14"), HyperParams(0.8, 0.9)
            )
            assert {p.pair for p in low.pairs} <= {p.pair for p in high.pairs}

    def test_jobs_do_not_change_output(self):
        rng = random.Random(13)
        d_ab, d_cb = random_dictionaries(rng, n_a=5, n_b=5, n_c=5)
        seq = run_pipeline(d_ab, d_cb, parse_method("2:S:H14"), jobs=1)
        par = run_pipeline(d_ab, d_cb, parse_method("2:S:H14"), jobs=4)
        assert [(p.pair, p.stage, p.cost) for p in seq.pairs] == [
            (p.pair, p.stage, p.cost) for p in par.pairs
        ]
        assert seq.reports == par.reports

    def test_jobs_do_not_change_output_on_skewed_input(self):
        # one big component and many one-pivot ones: largest-first dealing
        # puts the last graph in the first chunk
        tset = build_transgraphs(*skewed_dictionaries())
        assert max(tset.graphs, key=lambda g: len(g.edges)).id == len(tset.graphs) - 1
        method = parse_method("2:S:H14")
        runs = [induce_on_transgraphs(tset, method, jobs=jobs) for jobs in (1, 2, 3)]
        for res in runs[1:]:
            assert [(p.pair, p.stage, p.cost, p.anchor) for p in res.pairs] == [
                (p.pair, p.stage, p.cost, p.anchor) for p in runs[0].pairs
            ]
            assert res.reports == runs[0].reports

    def test_jobs_above_transgraph_count(self, monkeypatch):
        forked = []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        tset = build_transgraphs(
            dict_ab(("a1", "b1"), ("a2", "b2")), dict_cb(("c1", "b1"), ("c2", "b2"))
        )
        assert len(tset.graphs) == 2
        fds = open_fds()
        res = induce_on_transgraphs(tset, parse_method("1:C:H1"), jobs=8)
        assert len(forked) == 1  # one process per transgraph
        assert len(res.pairs) == 2
        assert_closed_and_reaped(fds)

    @pytest.mark.parametrize("raises_in", [None, "parent", "child"])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_forked_run_returns_or_raises_and_reaps(self, per_process, jobs, raises_in):
        tset = build_transgraphs(*skewed_dictionaries())
        method = parse_method("1:S:H14")
        serial = induce_on_transgraphs(tset, method)

        def failing(_):
            raise ValueError(f"no cycles in the {raises_in}")

        per_process(**({raises_in: failing} if raises_in else {}))
        fds = open_fds()
        if raises_in is None:
            res = induce_on_transgraphs(tset, method, jobs=jobs)
            assert res.pairs == serial.pairs and res.reports == serial.reports
        else:
            with pytest.raises(ValueError, match=f"^no cycles in the {raises_in}$"):
                induce_on_transgraphs(tset, method, jobs=jobs)
        assert_closed_and_reaped(fds)

    def test_slow_child_takes_fewer_graphs(self, per_process):
        tset = build_transgraphs(*skewed_dictionaries())
        method = parse_method("1:S:H14")
        serial = induce_on_transgraphs(tset, method)
        induced = per_process(child=lambda n: time.sleep(0.005))
        fds = open_fds()
        res = induce_on_transgraphs(tset, method, jobs=2)
        assert res.pairs == serial.pairs and res.reports == serial.reports
        # the child induced the graphs the calling process did not
        assert len(induced) > len(tset.graphs) - len(induced)
        assert_closed_and_reaped(fds)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_child_raising_after_streamed_chunks(self, per_process, monkeypatch, jobs):
        tset = build_transgraphs(*skewed_dictionaries())
        chunk = largest_chunk(tset, jobs)

        def failing(n):
            if n > chunk:  # in its second chunk or later
                raise ValueError("no cycles in the child")

        frames = []  # each result frame's ok flag, as the calling process reads it
        loads = pickle.loads

        def spy(data):
            frame = loads(data)
            frames.append(frame[0])
            return frame

        monkeypatch.setattr(pickle, "loads", spy)
        per_process(parent=lambda tg: time.sleep(0.002), child=failing)
        fds = open_fds()
        with pytest.raises(ValueError, match="^no cycles in the child$"):
            induce_on_transgraphs(tset, parse_method("1:S:H14"), jobs=jobs)
        assert frames[-1] is False and True in frames
        assert_closed_and_reaped(fds)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_killed_child_is_an_error(self, per_process, jobs):
        tset = build_transgraphs(*skewed_dictionaries())
        chunk = largest_chunk(tset, jobs)

        def killed(n):
            if n > chunk:  # partway through the queue
                os.kill(os.getpid(), signal.SIGKILL)

        per_process(parent=lambda tg: time.sleep(0.002), child=killed)
        fds = open_fds()
        with pytest.raises(RuntimeError, match=r"^worker process \d+ exited without a result$"):
            induce_on_transgraphs(tset, parse_method("1:S:H14"), jobs=jobs)
        assert_closed_and_reaped(fds)

    @pytest.mark.parametrize("raises", [False, True])
    def test_caller_freeze_count_is_kept(self, per_process, raises):
        tset = build_transgraphs(*skewed_dictionaries())
        method = parse_method("1:C:H1")

        def failing(_):
            raise ValueError("no cycles in the child")

        per_process(child=failing if raises else None)

        def induce():
            if not raises:
                return induce_on_transgraphs(tset, method, jobs=2)
            with pytest.raises(ValueError, match="^no cycles in the child$"):
                induce_on_transgraphs(tset, method, jobs=2)

        assert gc.get_freeze_count() == 0
        induce()
        assert gc.get_freeze_count() == 0
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen
            induce()
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize(
        "method, reads_spelling",
        [("1:C:H1", False), ("2:S:H123", False), ("2:S:H14", True), ("3:S:H14", True)],
    )
    def test_spelling_similarity_only_under_h4(self, monkeypatch, method, reads_spelling):
        # spelling is read once per candidate that run_cycles returns, never
        # in a growth round whose prices are discarded
        reads = []

        def counting(a, b):
            reads.append((a, b))
            return lcsr(a, b)

        lcsr = heuristics.lcsr
        monkeypatch.setattr(heuristics, "lcsr", counting)
        # the asymmetric shape grows in cycle 1 and is a fixpoint in cycle 2;
        # the chain a9-b9-c9 is a fixpoint in cycle 1, before its last cycle
        tset = build_transgraphs(
            dict_ab(*ASYM_AB, ("a9", "b9")), dict_cb(*ASYM_CB, ("c9", "b9"))
        )
        res = induce_on_transgraphs(tset, parse_method(method))
        assert res.pairs
        ran = sorted((r.cycles_run, r.fixpoint) for r in res.reports.values())
        assert ran == ([(1, False), (1, True)] if method[0] == "1" else [(1, True), (2, True)])
        returned = sum(r.candidates for r in res.reports.values())
        assert len(reads) == (returned if reads_spelling else 0)
        assert len(set(reads)) == len(reads)

    def test_no_duplicate_pairs(self):
        rng = random.Random(14)
        for _ in range(6):
            d_ab, d_cb = random_dictionaries(rng)
            res = run_pipeline(d_ab, d_cb, parse_method("2:S:H14"))
            pairs = [(p.word_a, p.word_c) for p in res.pairs]
            assert len(pairs) == len(set(pairs))

    def test_report_rendering(self):
        res = run_pipeline(
            dict_ab(("a1", "b1")), dict_cb(("c1", "b1")), parse_method("1:C:H1")
        )
        text = render_report(res)
        assert "transgraph 0" in text and "total pairs: 1" in text

    def test_result_pair_set(self):
        res = run_pipeline(
            dict_ab(("a1", "b1")), dict_cb(("c1", "b1")), parse_method("1:C:H1")
        )
        ps = result_pair_set(res)
        assert ps.pairs == frozenset({(wa("a1"), wc("c1"))})
