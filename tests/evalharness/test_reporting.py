"""Figure-rendering tests."""

import pytest

from repro.evalharness.reporting import format_cdf_table, format_scatter, ranking


class TestCdfTable:
    def test_contains_all_predictors_and_rows(self):
        series = {
            "alpha": [10.0] * 20,
            "beta": [90.0] * 20,
        }
        text = format_cdf_table(series, title="demo")
        assert "demo" in text
        assert "alpha" in text and "beta" in text
        assert text.count("<") == 20
        assert "AUC" in text

    def test_values_formatted_as_percentages(self):
        series = {"only": [12.3456] * 20}
        text = format_cdf_table(series)
        assert "12.3%" in text

    def test_custom_thresholds(self):
        series = {"p": [1.0, 2.0, 3.0]}
        text = format_cdf_table(series, thresholds=[1, 5, 10])
        assert "<  1" in text
        assert "< 10" in text


class TestRanking:
    def test_best_first(self):
        series = {
            "weak": [10.0, 10.0],
            "strong": [90.0, 95.0],
            "middle": [50.0, 50.0],
        }
        names = [name for name, _ in ranking(series)]
        assert names == ["strong", "middle", "weak"]

    def test_scores_are_auc(self):
        series = {"p": [0.0, 100.0]}
        (entry,) = ranking(series)
        assert entry[1] == pytest.approx(50.0)


class TestScatter:
    def test_points_and_fit(self):
        points = [(10, 100), (20, 210), (30, 290)]
        text = format_scatter(points, "x", "y", title="scaling")
        assert "scaling" in text
        for x, y in points:
            assert str(x) in text and str(y) in text
        assert "linear fit" in text
        assert "rms residual" in text

    def test_single_point_no_fit(self):
        text = format_scatter([(5, 10)], "x", "y")
        assert "linear fit" not in text

    def test_equal_xs_no_fit(self):
        """Every x equal: Sxx is 0 and no line fits, so none is printed."""
        text = format_scatter([(5, 10), (5, 12)], "x", "y")
        assert "linear fit" not in text
        assert text.splitlines()[-1].split() == ["5", "12"]

    def test_fit_is_least_squares(self):
        # y = 2x + 1 plus residuals (+1, -2, +1): the line is exact for
        # the noise-free points and the residuals have RMS sqrt(2).
        text = format_scatter([(0, 2), (1, 1), (2, 6)], "x", "y")
        assert text.splitlines()[-1] == (
            "linear fit: y = 2.000x + 1.0  (rms residual 47.1% of mean)"
        )
