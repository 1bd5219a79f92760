"""The result records: immutable NamedTuples, the validating ones checked on
construction and on _replace, and the ones sent to --jobs workers picklable.
"""

import math
import pickle

import pytest

from pivotlex.evaluation import CvReport, FoldPlan, FoldResult, GridPoint, Metrics, TTestReport
from pivotlex.heuristics import HeuristicSelection, SynonymCandidate
from pivotlex.lexicon import BilingualDictionary, PairSet, Word
from pivotlex.pipeline import (
    CycleResult,
    HyperParams,
    InducedPair,
    InductionResult,
    TransgraphReport,
    parse_method,
)
from pivotlex.transgraph import ComponentStats, Transgraph, TransgraphSet

A1, A2 = Word("a", "x"), Word("a", "y")
B1 = Word("b", "p")
C1 = Word("c", "z")

METRICS = Metrics(0.5, 0.25, 1 / 3)
GRID = GridPoint(0.1, None, METRICS)
PLAN = FoldPlan(2, ((0,), (1,)))
FOLD = FoldResult(0, (0,), GRID, METRICS)
GRAPH = Transgraph(0, {("AB", A1, B1): 1.0, ("BC", C1, B1): 1.0})
SELECTION = HeuristicSelection(True, False, False, True)

RECORDS = [
    METRICS,
    GRID,
    PLAN,
    FOLD,
    CvReport(PLAN, (FOLD,), 0.5),
    TTestReport(1.0, 2, 0.2, 0.1),
    SynonymCandidate(A2, C1, (A1, C1), 0.5, (("AB", A2, B1),)),
    parse_method("2:S:H14"),
    InducedPair(A1, C1, "synonym", 0.5, 0, (A2, C1)),
    CycleResult(GRAPH, (), 1, True),
    TransgraphReport(0, 1, True, 2, 1, 0, False),
    ComponentStats(1, 1, 1, 2),
    HyperParams(0.5, 0.25),
    SELECTION,
    A1,
    BilingualDictionary("a", "b", frozenset({(A1, B1)})),
    PairSet("a", "c", frozenset({(A1, C1), (A2, C1)})),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    # _replace builds the record through its checks
    same = record._replace()
    assert same == record and type(same) is type(record)
    assert list(record._asdict()) == list(record._fields)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: A1._replace(surface=""), "empty word surface", id="word"),
        pytest.param(lambda: HyperParams(math.nan), "cognate threshold must be >= 0", id="nan"),
        pytest.param(lambda: HyperParams(-1), "cognate threshold must be >= 0", id="negative"),
        pytest.param(
            lambda: HyperParams(None, 1.5), "synonym threshold must lie in [0, 1]", id="above-1"
        ),
        pytest.param(
            lambda: HyperParams(0.5)._replace(synonym_threshold=-0.1),
            "synonym threshold must lie in [0, 1]",
            id="replaced-threshold",
        ),
        pytest.param(
            HeuristicSelection, "at least one heuristic must be selected", id="no-heuristic"
        ),
        pytest.param(
            lambda: SELECTION._replace(coexistence=False, form_similarity=False),
            "at least one heuristic must be selected",
            id="replaced-heuristics",
        ),
        pytest.param(
            lambda: BilingualDictionary("a", "a", frozenset()),
            "source and target language must differ",
            id="same-languages",
        ),
        pytest.param(
            lambda: BilingualDictionary("a", "b", frozenset({(A1, C1)})),
            "entry (Word(lang='a', surface='x'), Word(lang='c', surface='z'))"
            " does not match declared languages",
            id="entry-language",
        ),
        pytest.param(
            lambda: PairSet("a", "c", frozenset({(A1, B1)})),
            "pair (Word(lang='a', surface='x'), Word(lang='b', surface='p'))"
            " does not match declared languages",
            id="pair-language",
        ),
    ],
)
def test_validating_records_reject(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_sized_records_replace_and_count_entries():
    pairs = PairSet("a", "c", frozenset({(A1, C1)}))
    grown = pairs._replace(pairs=frozenset({(A1, C1), (A2, C1)}))
    assert len(pairs) == 1 and len(grown) == 2 and isinstance(grown, PairSet)


@pytest.mark.parametrize(
    "record",
    [
        InducedPair(A1, C1, "cognate", 0.25, 3),
        InducedPair(A1, C1, "synonym", 0.5, 0, (A2, C1)),
        TransgraphReport(0, 1, True, 2, 1, 0, False),
        parse_method("3:M:H1"),
        HyperParams(),
        HyperParams(0.5, 0.25),
        SELECTION,
    ],
    ids=lambda r: type(r).__name__,
)
def test_worker_records_pickle_round_trip(record):
    # --jobs children send back pairs and reports pickled; the other
    # records pickle too, for callers that send them to processes of their own
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert back == record and type(back) is type(record)


def test_transgraph_pickle_round_trip():
    # --jobs children inherit their graphs, but a caller may send graphs
    # to processes of its own
    graph = Transgraph(3, {("AB", A1, B1): 1.0, ("AB", A2, B1): 0.5, ("BC", C1, B1): 0.25})
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(graph, protocol))
        assert back.id == 3 and list(back.edges.items()) == list(graph.edges.items())
        assert (back.a_words, back.b_words, back.c_words) == (
            frozenset({A1, A2}), frozenset({B1}), frozenset({C1})
        )


def test_containers_take_fields_in_order_and_own_their_defaults():
    tset = TransgraphSet("a", "b", "c", [GRAPH])
    other = TransgraphSet("a", "b", "c", [])
    assert (tset.lang_a, tset.lang_b, tset.lang_c, tset.graphs) == ("a", "b", "c", [GRAPH])
    assert tset.skipped == [] and tset.skipped is not other.skipped
    result = InductionResult("a", "c", [])
    assert result.reports == {} and result.skipped == []
    assert result.reports is not InductionResult("a", "c", []).reports
