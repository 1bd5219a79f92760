import math
import random

import pytest

from helpers import LANG_A, LANG_C, dict_ab, dict_cb, wa, wc
from pivotlex.evaluation import (
    cross_validate,
    format_aligned,
    grid_search,
    make_fold_plan,
    metrics_tsv,
    paired_t_test,
    restrict_gold,
    score,
    t_cdf,
)
from pivotlex.lexicon import PairSet
from pivotlex.pipeline import parse_method
from pivotlex.transgraph import build_transgraphs


def pair_set(*pairs: tuple[str, str]) -> PairSet:
    return PairSet(
        LANG_A, LANG_C, frozenset((wa(a), wc(c)) for a, c in pairs)
    )


class TestScore:
    def test_perfect_match(self):
        gold = pair_set(("a", "x"), ("b", "y"))
        m = score(gold, gold)
        assert (m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0)

    def test_partial_overlap(self):
        result = pair_set(("a", "x"), ("b", "y"), ("c", "z"))
        gold = pair_set(("b", "y"), ("c", "z"), ("d", "w"))
        m = score(result, gold)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f_score == pytest.approx(2 / 3)

    def test_empty_result_scores_zero(self):
        m = score(pair_set(), pair_set(("a", "x")))
        assert (m.precision, m.recall, m.f_score) == (0.0, 0.0, 0.0)

    def test_empty_gold_is_error(self):
        with pytest.raises(ValueError):
            score(pair_set(("a", "x")), pair_set())

    def test_f1_is_harmonic_mean(self):
        result = pair_set(("a", "x"), ("b", "q"))
        gold = pair_set(("a", "x"), ("c", "z"), ("d", "w"), ("e", "v"))
        m = score(result, gold)
        p, r = m.precision, m.recall
        assert m.f_score == pytest.approx(2 * p * r / (p + r))

    def test_beta_weighting(self):
        # precision 1, recall 0.5: F0.5 leans towards precision
        result = pair_set(("a", "x"))
        gold = pair_set(("a", "x"), ("b", "y"))
        m = score(result, gold, beta=0.5)
        assert m.precision == 1.0 and m.recall == 0.5
        assert m.f_score == pytest.approx(1.25 * 1.0 * 0.5 / (0.25 * 1.0 + 0.5))

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_beta_must_be_positive_and_finite(self, beta):
        with pytest.raises(ValueError):
            score(pair_set(("a", "x")), pair_set(("a", "x")), beta)

    def test_language_mismatch(self):
        other = PairSet("xxx", LANG_C, frozenset())
        with pytest.raises(ValueError):
            score(other, pair_set(("a", "x")))


def _planted_tset():
    # component 0: (a1,c1) perfect; component 1: (a2,c2) pays for a
    # missing a2-b4 link, so a threshold can separate the two
    ab = [("a1", "b1"), ("a1", "b2"), ("a2", "b3")]
    cb = [("c1", "b1"), ("c1", "b2"), ("c2", "b3"), ("c2", "b4")]
    return build_transgraphs(dict_ab(*ab), dict_cb(*cb))


def _synonym_tset():
    # c1 and c5 tie as perfect partners of a1 (the canonical optimum takes
    # c5), c6 only half-shares the pivots; plus one perfect pair (a2,c2)
    ab = [("a1", "b1"), ("a1", "b2"), ("a2", "b3")]
    cb = [
        ("c1", "b1"), ("c1", "b2"),
        ("c5", "b1"), ("c5", "b2"),
        ("c6", "b1"),
        ("c2", "b3"),
    ]
    return build_transgraphs(dict_ab(*ab), dict_cb(*cb))


class TestGridSearch:
    def test_zero_cost_pairs_and_full_gold(self):
        tset = build_transgraphs(
            dict_ab(("a1", "b1"), ("a2", "b2")),
            dict_cb(("c1", "b1"), ("c2", "b2")),
        )
        gold = pair_set(("a1", "c1"), ("a2", "c2"))
        best = grid_search(tset, parse_method("1:C:H1"), gold)
        assert best.metrics.f_score == 1.0
        assert best.cognate_threshold == 0.01  # smallest grid point keeping cost-0 pairs
        assert best.synonym_threshold is None

    def test_threshold_separates_planted_from_spurious(self):
        tset = _planted_tset()
        gold = pair_set(("a1", "c1"))
        best = grid_search(tset, parse_method("1:C:H1"), gold)
        assert best.metrics.f_score == 1.0
        # the imperfect pair costs 0.5 (coexistence 0.5 over one missing
        # edge); the winning threshold must sit below that
        assert best.cognate_threshold <= 0.5

    def test_synonym_axis_searched_for_s_method(self):
        tset = _synonym_tset()
        gold = pair_set(("a1", "c1"), ("a1", "c5"), ("a2", "c2"))
        best = grid_search(tset, parse_method("1:S:H14"), gold)
        assert best.synonym_threshold is not None
        assert best.metrics.f_score == 1.0
        # c6 half-shares the anchor pivots: only thresholds <= 0.5 reach F=1
        assert best.synonym_threshold <= 0.5


class TestFoldPlan:
    def test_even_split(self):
        plan = make_fold_plan(range(9), 3)
        assert plan.folds == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def test_uneven_split_sizes_differ_by_at_most_one(self):
        plan = make_fold_plan(range(10), 3)
        sizes = [len(f) for f in plan.folds]
        assert sorted(sizes) == [3, 3, 4]
        assert max(sizes) - min(sizes) <= 1

    def test_partition(self):
        plan = make_fold_plan(range(7), 3)
        flat = [i for fold in plan.folds for i in fold]
        assert sorted(flat) == list(range(7))

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            make_fold_plan(range(3), 4)
        with pytest.raises(ValueError):
            make_fold_plan(range(3), 1)


class TestCrossValidate:
    def _homogeneous_tset(self, n=6):
        ab, cb = [], []
        for i in range(n):
            ab += [(f"a{i}", f"b{i}x"), (f"a{i}", f"b{i}y")]
            cb += [(f"c{i}", f"b{i}x"), (f"c{i}", f"b{i}y"), (f"d{i}", f"b{i}x")]
        return build_transgraphs(dict_ab(*ab), dict_cb(*cb))

    def test_homogeneous_folds_transfer(self):
        tset = self._homogeneous_tset()
        gold = pair_set(*[(f"a{i}", f"c{i}") for i in range(6)])
        report = cross_validate(tset, parse_method("1:C:H1"), gold, k=3)
        assert len(report.folds) == 3
        for fold in report.folds:
            assert fold.test_metrics.f_score == 1.0
        assert report.mean_f == 1.0

    def test_k_above_graph_count(self):
        tset = self._homogeneous_tset(2)
        gold = pair_set(("a0", "c0"))
        with pytest.raises(ValueError):
            cross_validate(tset, parse_method("1:C:H1"), gold, k=5)

    def test_restrict_gold(self):
        tset = self._homogeneous_tset(3)
        gold = pair_set(("a0", "c0"), ("a2", "c2"), ("zz", "qq"))
        sub = restrict_gold(gold, [tset.graphs[0]])
        assert sub.pairs == frozenset({(wa("a0"), wc("c0"))})


class TestTTest:
    def test_all_zero_differences(self):
        report = paired_t_test([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        assert report.t_stat == 0.0
        assert report.p_value == pytest.approx(0.5)

    def test_known_case(self):
        report = paired_t_test([0.1, 0.2, 0.15], [0.0, 0.0, 0.0])
        assert report.t_stat == pytest.approx(5.196, abs=1e-3)
        assert report.df == 2
        assert report.p_value == pytest.approx(0.01755, abs=1e-4)
        assert report.mean_diff == pytest.approx(0.15)

    def test_wrong_direction_gives_large_p(self):
        report = paired_t_test([0.0, 0.0, 0.0], [0.1, 0.1, 0.2])
        assert report.t_stat < 0
        assert report.p_value > 0.5

    def test_swapping_flips_t_and_p(self):
        a = [0.3, 0.5, 0.4, 0.6]
        b = [0.2, 0.4, 0.5, 0.3]
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_stat == pytest.approx(-rev.t_stat)
        assert fwd.p_value == pytest.approx(1.0 - rev.p_value)

    def test_self_comparison_gives_half(self):
        x = [0.1, 0.4, 0.2]
        assert paired_t_test(x, x).p_value == pytest.approx(0.5)

    def test_constant_nonzero_difference(self):
        report = paired_t_test([1.0, 1.0], [0.0, 0.0])
        assert math.isinf(report.t_stat)
        assert report.p_value == 0.0

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [0.0])

    def test_tiny_differences_scale_like_unit_ones(self):
        unit = paired_t_test([1.0, 2.0, -1.0], [0.0, 0.0, 0.0])
        assert unit.t_stat == pytest.approx(0.7559, abs=1e-4)
        # a power-of-two scale is exact, any other rounds the last bit
        exact = paired_t_test([2.0**-996, 2.0**-995, -(2.0**-996)], [0.0, 0.0, 0.0])
        assert (exact.t_stat, exact.p_value) == (unit.t_stat, unit.p_value)
        tiny = paired_t_test([1e-300, 2e-300, -1e-300], [0.0, 0.0, 0.0])
        assert tiny.t_stat == pytest.approx(unit.t_stat, rel=1e-15)
        assert tiny.p_value == pytest.approx(unit.p_value, rel=1e-15)
        assert tiny.mean_diff == pytest.approx(2e-300 / 3, rel=1e-15)

    @pytest.mark.parametrize(
        "xs, ys",
        [([1e308, 1e308], [-1e308, -1e308]), ([1e200, -1e200], [0.0, 0.0])],
        ids=["mean", "variance"],
    )
    def test_overflowing_differences(self, xs, ys):
        with pytest.raises(ValueError, match="overflows"):
            paired_t_test(xs, ys)


class TestTCdf:
    def test_zero_is_half(self):
        for df in (1, 2, 5, 30):
            assert t_cdf(0.0, df) == pytest.approx(0.5, abs=1e-12)

    def test_df1_closed_form(self):
        for t in (-5.0, -0.7, 0.0, 0.3, 2.0, 10.0):
            expected = 0.5 + math.atan(t) / math.pi
            assert t_cdf(t, 1) == pytest.approx(expected, abs=1e-8)

    def test_df2_closed_form(self):
        for t in (-4.0, -1.0, 0.0, 0.5, 3.0, 5.196):
            expected = 0.5 + t / (2.0 * math.sqrt(t * t + 2.0))
            assert t_cdf(t, 2) == pytest.approx(expected, abs=1e-8)

    def test_large_t_approaches_one(self):
        assert t_cdf(1e6, 3) == pytest.approx(1.0, abs=1e-8)
        assert t_cdf(math.inf, 3) == 1.0

    def test_bad_df(self):
        with pytest.raises(ValueError):
            t_cdf(0.0, 0)

    @pytest.mark.parametrize("df", [2.0, 2.5, True])
    def test_non_integer_df(self, df):
        with pytest.raises(ValueError, match="positive integer"):
            t_cdf(1.0, df)

    def test_nan_t(self):
        with pytest.raises(ValueError, match="NaN"):
            t_cdf(math.nan, 3)

    def test_matches_scipy(self):
        from scipy.stats import t as student_t

        rng = random.Random(5)
        grid = [0.0, 1e-6, 0.3, 1.0, 2.5, 5.0, 10.0, 40.0, 1e3, 1e6]
        for df in [*range(1, 201), 500, 1000, 10000]:
            for t in [*grid, *(rng.uniform(0.0, 12.0) for _ in range(4))]:
                for signed in (t, -t):
                    got, want = t_cdf(signed, df), float(student_t.cdf(signed, df))
                    assert got == pytest.approx(want, abs=1e-9), (signed, df)
                    assert 0.0 <= got <= 1.0, (signed, df)


class TestFormatting:
    def test_metrics_tsv(self):
        m = score(pair_set(("a", "x")), pair_set(("a", "x")))
        text = metrics_tsv(m)
        assert "precision\t1.000000" in text

    def test_aligned_columns(self):
        text = format_aligned([["ab", "c"], ["d", "efg"]])
        assert text == "ab  c\nd   efg\n"
