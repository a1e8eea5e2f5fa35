"""Post-synthesis risk and utility summaries.

Covers the within-p% closeness table, confidence-interval overlap, the
variance combination rule for completely synthesized data, trimmed-mean
percentage differences between parameter estimates, and points on the
risk-utility frontier (utility = mean CI overlap, privacy = 1 - tau4(1)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import UndefinedResultError, ValidationError
from .synthesis import SyntheticTable
from .table import SparseContingencyTable
from .taumetrics import tau_empirical


# -- within p% ------------------------------------------------------------------


def within_p_percent(
    original: SparseContingencyTable,
    synthetic: SyntheticTable | SparseContingencyTable,
    p_list: Sequence[float],
    nonzero_only: bool = False,
) -> dict[float, float]:
    """Proportion of cells whose synthetic count is within p% of the original.

    Zero cells that stay zero count as within every p.  A zero cell
    synthesized to a nonzero count has no defined percentage difference;
    it is treated as farther than every listed p.  ``nonzero_only``
    restricts the denominator to cells that are nonzero in the original
    data.
    """
    if isinstance(synthetic, SyntheticTable):
        synthetic = synthetic.table
    original.check_replicate(synthetic)
    if not all(p > 0 for p in p_list):  # also refuses NaN
        raise ValidationError("p values must be positive percentages")

    k_eff = original.num_cells - original.num_structural_zeros
    syn_at_orig = synthetic.counts_at(original.index)
    pct = 100.0 * np.abs(syn_at_orig - original.count) / original.count

    n_zero_to_nonzero = synthetic.num_nonzero - int(np.count_nonzero(syn_at_orig))
    n_zero_stay_zero = (k_eff - original.num_nonzero) - n_zero_to_nonzero

    out: dict[float, float] = {}
    for p in p_list:
        inside_nonzero = int((pct <= p).sum())
        if nonzero_only:
            denom = original.num_nonzero
            inside = inside_nonzero
        else:
            denom = k_eff
            inside = inside_nonzero + n_zero_stay_zero
        if denom == 0:
            raise UndefinedResultError("no cells qualify for the within-p computation")
        out[float(p)] = inside / denom
    return out


# -- confidence-interval overlap ---------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A confidence interval; either endpoint may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValidationError("interval endpoints must not be NaN")
        if self.lower > self.upper:
            raise ValidationError(f"interval ({self.lower}, {self.upper}) is inverted")

    @property
    def length(self) -> float:
        return self.upper - self.lower


def _length_ratio(inter: float, length: float) -> float:
    if math.isinf(length):
        return 1.0 if math.isinf(inter) and inter > 0 else 0.0
    return inter / length


def ci_overlap(original: Interval, synthetic: Interval) -> float:
    """Mean of the two intersection-length ratios.

    Equal intervals give 1; a finite interval against an infinite one
    gives exactly 1/2 (the infinite side's ratio vanishes in the limit);
    disjoint intervals give a negative value, reported raw.
    """
    for iv in (original, synthetic):
        if not (iv.length > 0):  # also catches NaN from (inf, inf)
            raise ValidationError(f"interval ({iv.lower}, {iv.upper}) has no positive length")
    lower = max(original.lower, synthetic.lower)
    upper = min(original.upper, synthetic.upper)
    inter = upper - lower
    if math.isnan(inter):  # inf - inf from identical one-sided infinities
        inter = 0.0
    return 0.5 * (_length_ratio(inter, original.length) + _length_ratio(inter, synthetic.length))


def mean_ci_overlap(
    original_intervals: Mapping[str, Interval],
    synthetic_intervals: Mapping[str, Interval],
    skip: Sequence[str] = (),
) -> float:
    """Average overlap across shared keys (e.g. model terms)."""
    keys = [k for k in original_intervals if k in synthetic_intervals and k not in set(skip)]
    if not keys:
        raise UndefinedResultError("no shared intervals to overlap")
    return float(np.mean([ci_overlap(original_intervals[k], synthetic_intervals[k]) for k in keys]))


# -- variance combination -----------------------------------------------------------


def raab_variance(mean_within_variance: float, n: int, n_syn: int, m: int) -> float:
    """Variance estimate for analyses of completely synthesized tables.

    ``mean_within_variance`` is the average of the m within-replicate
    variance estimates; the total is v * (n_syn / n + 1 / m).
    """
    if not all(0 < x <= sys.float_info.max for x in (mean_within_variance, n, n_syn, m)):  # False for NaN and huge ints
        raise ValidationError("all inputs must be positive and finite")
    return mean_within_variance * (n_syn / n + 1.0 / m)


# -- trimmed-mean percentage difference ----------------------------------------------


def trimmed_mean_pct_diff(
    original_values: Sequence[float],
    synthetic_values: Sequence[float],
    trim_fraction: float = 0.1,
) -> float:
    """Trimmed mean of per-pair percentage differences 100*(syn - orig)/orig.

    Pairs with an original value of exactly zero are excluded (their
    percentage difference is undefined).  ``floor(trim * N)`` values are
    dropped from each end after sorting.
    """
    q = np.asarray(original_values, dtype=np.float64)
    qs = np.asarray(synthetic_values, dtype=np.float64)
    if q.shape != qs.shape or q.ndim != 1:
        raise ValidationError("value lists must be 1-d and equally long")
    if not (0.0 <= trim_fraction < 0.5):
        raise ValidationError("trim_fraction must lie in [0, 0.5)")
    keep = q != 0.0
    diffs = 100.0 * (qs[keep] - q[keep]) / q[keep]
    diffs.sort()
    drop = int(math.floor(trim_fraction * diffs.size))
    kept = diffs[drop : diffs.size - drop] if drop else diffs
    if kept.size == 0:
        raise UndefinedResultError("all pairs excluded or trimmed away")
    return float(kept.mean())


# -- risk-utility frontier -------------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    """One synthesis setting's position in utility/privacy space.

    ``utility`` is the mean CI overlap (clipped into [0, 1] for the
    plotted coordinate; the raw mean is retained), ``privacy`` is
    1 - tau4(1).
    """

    label: str
    utility: float
    privacy: float
    utility_raw: float

    def as_row(self) -> dict:
        return asdict(self)


def frontier_point(
    original: SparseContingencyTable,
    synthetic_set,
    overlaps: Sequence[float],
    label: str | None = None,
) -> FrontierPoint:
    """Combine mean CI overlap with empirical tau4(1) into a frontier point."""
    if isinstance(synthetic_set, (SyntheticTable, SparseContingencyTable)):
        synthetic_set = [synthetic_set]
    if not overlaps:
        raise ValidationError("need at least one overlap value")
    report = tau_empirical(original, synthetic_set, k_report=1)
    t41 = float(report.tau4[1])
    if math.isnan(t41):
        raise UndefinedResultError("tau4(1) undefined: no synthetic uniques")
    if label is None:
        if isinstance(synthetic_set[0], SyntheticTable):
            label = synthetic_set[0].provenance.label
        else:
            label = "unlabelled"
    raw = float(np.mean(overlaps))
    return FrontierPoint(
        label=label,
        utility=min(max(raw, 0.0), 1.0),
        privacy=1.0 - t41,
        utility_raw=raw,
    )
