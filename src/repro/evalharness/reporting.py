"""ASCII rendering of evaluation results (the paper's figures as tables).

The paper presents Figures 7-8 as line charts of "percentage of branches
predicted to within a given error margin"; a terminal reproduction
renders the same series as a table with one column per predictor plus a
coarse sparkline, so orderings and crossovers are visible at a glance.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.evalharness.accuracy import DEFAULT_THRESHOLDS, area_under_cdf
from repro.evalharness.runner import SuiteEvaluation


def format_cdf_table(
    series: Dict[str, Sequence[float]],
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
    title: str = "",
) -> str:
    """Render predictor CDF series side by side.

    Rows are error margins ("<K" percentage points), columns are
    predictors, cells are the percentage of branches within the margin.
    """
    names = list(series)
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "margin  " + "  ".join(f"{name:>12s}" for name in names)
    lines.append(header)
    lines.append("-" * len(header))
    for index, threshold in enumerate(thresholds):
        row = f"<{threshold:>3d}    " + "  ".join(
            f"{series[name][index]:>11.1f}%" for name in names
        )
        lines.append(row)
    lines.append("-" * len(header))
    summary = "AUC     " + "  ".join(
        f"{area_under_cdf(series[name]):>11.1f} " for name in names
    )
    lines.append(summary)
    return "\n".join(lines)


def format_suite_figure(
    evaluation: SuiteEvaluation, weighted: bool, title: str
) -> str:
    """One panel of Figure 7/8: a suite, weighted or unweighted."""
    series = {
        name: evaluation.aggregate_cdf(name, weighted=weighted)
        for name in evaluation.predictors()
    }
    mode = "weighted by execution count" if weighted else "unweighted"
    return format_cdf_table(series, evaluation.thresholds, f"{title} ({mode})")


def ranking(series: Dict[str, Sequence[float]]) -> List[Tuple[str, float]]:
    """Predictors ordered best-first by area under the CDF."""
    scored = [(name, area_under_cdf(values)) for name, values in series.items()]
    return sorted(scored, key=lambda pair: -pair[1])


def _least_squares(
    points: Sequence[Tuple[int, int]]
) -> Optional[Tuple[float, float, float]]:
    """``(slope, intercept, rms residual)`` of the least-squares line.

    The closed form: ``slope = Sxy / Sxx`` through the means.  None when
    there are fewer than two points or every x is equal (``Sxx = 0``),
    where no line fits.
    """
    count = len(points)
    if count < 2:
        return None
    mean_x = sum(x for x, _ in points) / count
    mean_y = sum(y for _, y in points) / count
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0.0:
        return None
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sxx
    intercept = mean_y - slope * mean_x
    residual = math.sqrt(
        sum((y - (slope * x + intercept)) ** 2 for x, y in points) / count
    )
    return slope, intercept, residual


def format_scatter(
    points: Sequence[Tuple[int, int]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Render (x, y) pairs plus a least-squares fit line summary.

    Used for the Figure 5/6 linearity plots: the fit's relative residual
    tells you at a glance how linear the relationship is.  The fit line
    is omitted when :func:`_least_squares` finds none.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{x_label:>12s}  {y_label:>14s}")
    for x, y in points:
        lines.append(f"{x:>12d}  {y:>14d}")
    fit = _least_squares(points)
    if fit is not None:
        slope, intercept, residual = fit
        scale = sum(y for _, y in points) / len(points) or 1.0
        lines.append(
            f"linear fit: y = {slope:.3f}x + {intercept:.1f}  "
            f"(rms residual {100.0 * residual / scale:.1f}% of mean)"
        )
    return "\n".join(lines)
