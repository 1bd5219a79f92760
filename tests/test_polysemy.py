import io
from math import comb

import pytest

from pivotlex.polysemy import (
    MAX_SHARED_SENSES,
    correct_translations,
    predicted_precision,
    sweep,
    total_translations,
    write_sweep_csv,
    wrong_translations,
)


class TestCorrectTranslations:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0), (1, 1), (2, 7), (3, 31), (20, 6970423075)]
    )
    def test_small_values(self, n, expected):
        assert correct_translations(n) == expected

    def test_equals_binomial_sums(self):
        for n in range(0, MAX_SHARED_SENSES + 1):
            double = sum(
                comb(n, i) * comb(i, j) for i in range(1, n + 1) for j in range(1, i + 1)
            )
            single = sum(comb(n, i) for i in range(1, n + 1))
            assert correct_translations(n) == 2 * double - single

    def test_bounded_by_total(self):
        for n in range(0, 12):
            assert correct_translations(n) <= (2**n - 1) ** 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            correct_translations(-1)


class TestPredictedPrecision:
    def test_two_shared_two_unshared(self):
        assert predicted_precision(2, 2) == pytest.approx(14 / 36)
        assert wrong_translations(2, 2) == 22

    def test_single_shared_sense_is_perfect(self):
        assert predicted_precision(1, 0) == 1.0

    def test_one_and_one(self):
        assert predicted_precision(1, 1) == pytest.approx(0.5)

    def test_zero_senses_rejected(self):
        with pytest.raises(ValueError):
            predicted_precision(0, 0)

    def test_range(self):
        for n in range(1, 11):
            for m in range(0, n + 1):
                assert 0.0 < predicted_precision(n, m) <= 1.0

    def test_strictly_decreasing_in_unshared(self):
        for n in range(1, 11):
            values = [predicted_precision(n, m) for m in range(0, n + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_in_shared_without_unshared(self):
        values = [predicted_precision(n, 0) for n in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_counts_consistent(self):
        for n in range(0, 8):
            for m in range(0, 8):
                if n + m == 0:
                    continue
                assert (
                    correct_translations(n)
                    + correct_translations(m)
                    + wrong_translations(n, m)
                    == total_translations(n, m)
                )

    def test_cap(self):
        with pytest.raises(ValueError):
            predicted_precision(MAX_SHARED_SENSES + 1, 0)


class TestSweep:
    def test_minimal_sweep(self):
        assert sweep(1) == [(1, 0, 1.0), (1, 1, 0.5)]

    def test_row_count(self):
        rows = sweep(10)
        assert len(rows) == sum(n + 1 for n in range(1, 11))

    def test_bounds(self):
        with pytest.raises(ValueError):
            sweep(0)
        with pytest.raises(ValueError):
            sweep(MAX_SHARED_SENSES + 1)

    def test_csv_format(self):
        sink = io.StringIO()
        write_sweep_csv(sweep(1), sink)
        assert sink.getvalue() == "n,m,precision\n1,0,1.000000\n1,1,0.500000\n"
