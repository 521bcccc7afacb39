"""Prediction-accuracy metrics: the paper's error-CDF analysis.

The paper scores predictors by "how far each branch's predicted
probability deviated from its actual behavior", in percentage points,
and plots the percentage of branches predicted to within a given error
margin -- unweighted (each branch equal) and weighted by execution
count.  This module computes those records and curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.profiling.profile_data import BranchProfile

# The paper plots error margins 0..40 percentage points in steps of 2.
DEFAULT_THRESHOLDS: Tuple[int, ...] = tuple(range(1, 41, 2))


@dataclass
class BranchError:
    """One branch's prediction error against observed behaviour."""

    function: str
    label: str
    predicted: float
    actual: float
    weight: int  # ref-run execution count

    @property
    def error_points(self) -> float:
        """Absolute error in percentage points."""
        return abs(self.predicted - self.actual) * 100.0


def branch_errors(
    predictions: Dict[Tuple[str, str], float],
    truth: BranchProfile,
    default_prediction: float = 0.5,
) -> List[BranchError]:
    """Error records for every branch the ground-truth run executed.

    Branches never executed by the ref input have no observable
    behaviour and are excluded (matching profile-evaluation practice);
    executed branches missing from the prediction map get
    ``default_prediction``.
    """
    records: List[BranchError] = []
    for (function, label), counts in sorted(truth.branch_counts.items()):
        total = counts[0] + counts[1]
        if total == 0:
            continue
        actual = counts[0] / total
        predicted = predictions.get((function, label), default_prediction)
        records.append(
            BranchError(
                function=function,
                label=label,
                predicted=predicted,
                actual=actual,
                weight=total,
            )
        )
    return records


def error_cdf(
    records: Sequence[BranchError],
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
    weighted: bool = False,
) -> List[float]:
    """Percentage of (weighted) branches predicted within each margin.

    ``cdf[i]`` = percentage of branches with error < thresholds[i]
    (strictly less, matching the paper's "< K" axis labels).
    """
    if not records:
        return [0.0 for _ in thresholds]
    total = sum(r.weight if weighted else 1 for r in records)
    out: List[float] = []
    for threshold in thresholds:
        covered = sum(
            (r.weight if weighted else 1)
            for r in records
            if r.error_points < threshold
        )
        out.append(100.0 * covered / total)
    return out


def mean_error(records: Sequence[BranchError], weighted: bool = False) -> float:
    """Average absolute error in percentage points."""
    if not records:
        return 0.0
    total = sum(r.weight if weighted else 1 for r in records)
    return (
        sum(r.error_points * (r.weight if weighted else 1) for r in records) / total
    )


def average_cdfs(cdfs: Sequence[Sequence[float]]) -> List[float]:
    """Average several benchmarks' CDFs point-wise.

    The paper weights "each benchmark equally within its suite"; this is
    that aggregation.
    """
    if not cdfs:
        return []
    length = len(cdfs[0])
    if any(len(c) != length for c in cdfs):
        raise ValueError("CDFs have mismatched lengths")
    return [sum(c[i] for c in cdfs) / len(cdfs) for i in range(length)]


def area_under_cdf(cdf: Sequence[float]) -> float:
    """Summary statistic: mean CDF height (higher = better predictor)."""
    if not cdf:
        return 0.0
    return sum(cdf) / len(cdf)
