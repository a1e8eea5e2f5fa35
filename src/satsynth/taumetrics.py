"""Cell-size agreement metrics between original and synthetic tables.

Four per-size quantities drive the risk assessment:

* tau1(k) — proportion of cells of size k in the synthetic data;
* tau2(k) — proportion of cells of size k in the original data;
* tau3(k) — proportion of original size-k cells synthesized to k;
* tau4(k) — proportion of synthetic size-k cells that came from size-k
  cells.  tau4(1), the share of synthetic uniques that are real
  uniques, is the headline disclosure-risk number.

Because cells are synthesized independently with known mass functions,
expected values of all four are available in closed form before any
data are generated; this module provides those analytic values for all
three families and the post-hoc empirical counterparts.  Structural
zeros sit outside every bucket: size-0 quantities refer to random zeros.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UndefinedResultError, ValidationError, integer
from .models import MAX_PMF_ENTRIES, Family, LogPmf, check_parameter, pmf, pmf_range
from .synthesis import SyntheticTable
from .table import CellSizeDistribution, SparseContingencyTable


MAX_K_REPORT = 2**20  # a report row per k, and k_report + 2 bins per replicate


def _means_weights(dist: CellSizeDistribution, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """``means = [alpha, sizes...]``, ``weights = [tau2(0), proportions...]``:
    the synthesis mean of each original cell group and its share of cells."""
    check_parameter("alpha", alpha)
    means = np.concatenate(([float(alpha)], dist.nonzero_sizes.astype(np.float64)))
    weights = np.concatenate(([dist.proportion(0)], dist.nonzero_proportions))
    return means, weights


class TauCurve:
    """tau1(k) and tau4(k) of one size histogram, family, sigma and k, as
    functions of alpha: the one analytic route of both.

    Only the random zeros' mean depends on alpha.  The pmf's terms free of
    the mean (a :class:`LogPmf`), the pmf of k at every occupied size, and
    tau3(k) * tau2(k) for k >= 1, are computed once; each alpha costs the
    pmf's mean terms, put in front of that column for the dot product with
    the weights of a full evaluation.  Nothing is written after construction.
    """

    def __init__(self, dist: CellSizeDistribution, family: Family | str, sigma: float, k: int):
        k = integer(k, 0, 2**63 - 1, "counts must be integers >= 0 and below 2**63")
        self._logpmf, self.k = LogPmf(family, k, sigma), k
        means, self._weights = _means_weights(dist, 0.0)
        self._sizes = np.exp(self._logpmf(means[1:]))  # occupied sizes: finite and > 0
        self._tau2 = dist.proportion(k)
        if k >= 1:  # tau3(k) = pmf(k | k)
            self._tau3_tau2 = float(np.exp(self._logpmf(np.float64(k)))) * self._tau2

    def _at(self, alpha: float) -> tuple[float, float]:
        """(pmf(k | alpha), tau1(k)) at this alpha."""
        check_parameter("alpha", alpha)
        p_alpha = float(np.exp(self._logpmf(np.float64(alpha))))
        return p_alpha, float(np.concatenate(([p_alpha], self._sizes)) @ self._weights)

    def tau1(self, alpha: float) -> float:
        """tau1(k) at this alpha; see :func:`tau1_expected`."""
        return self._at(alpha)[1]

    def tau4(self, alpha: float) -> float:
        """tau3(k) * tau2(k) / tau1(k); tau3(0) is pmf(0 | alpha) itself."""
        p_alpha, t1 = self._at(alpha)
        if t1 <= 0.0:
            raise UndefinedResultError(
                f"tau4({self.k}) undefined: no synthetic cells of size {self.k} are expected"
            )
        return (self._tau3_tau2 if self.k >= 1 else p_alpha * self._tau2) / t1


def tau1_expected(
    dist: CellSizeDistribution,
    family: Family | str,
    sigma: float,
    alpha: float,
    k: int,
) -> float:
    """Expected proportion of synthetic cells of size k.

    Total-probability sum over the original size distribution: the
    alpha-smoothed zeros contribute pmf(k | alpha) * tau2(0) and each
    occupied size j contributes pmf(k | j) * tau2(j).  The sum is over
    the finite support of the original table, hence exact.
    """
    return TauCurve(dist, family, sigma, k).tau1(alpha)


def tau4_expected(
    dist: CellSizeDistribution,
    family: Family | str,
    sigma: float,
    alpha: float,
    k: int,
    method: str = "bayes",
) -> float:
    """Expected proportion of synthetic size-k cells originating from size k:
    tau3(k) * tau2(k) / tau1(k) from the pmf, as the solvers and reports do.

    ``method`` names that one route, ``'bayes'``, for callers that pass it.
    """
    if method != "bayes":
        raise ValidationError(f"method must be 'bayes', got {method!r}")
    return TauCurve(dist, family, sigma, k).tau4(alpha)


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class TauReport:
    """Per-size tau values, either analytic expectations or empirical rates.

    Absent empirical values (0/0 buckets) are NaN, not 0.
    """

    mode: str  # "analytic" | "empirical"
    family: str | None
    sigma: float | None
    alpha: float | None
    ks: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    tau3: np.ndarray
    tau4: np.ndarray

    def to_rows(self) -> list[dict]:
        rows = []
        for i, k in enumerate(self.ks):
            rows.append(
                {
                    "k": int(k),
                    "tau1": float(self.tau1[i]),
                    "tau2": float(self.tau2[i]),
                    "tau3": float(self.tau3[i]),
                    "tau4": float(self.tau4[i]),
                }
            )
        return rows

    def to_csv(self, header_comments: Sequence[str] = ()) -> str:
        buf = io.StringIO()
        for line in header_comments:
            buf.write(f"# {line}\n")
        buf.write(f"# mode: {self.mode}\n")
        if self.family is not None:
            buf.write(f"# model: family={self.family} sigma={self.sigma} alpha={self.alpha}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["k", "tau1", "tau2", "tau3", "tau4"])
        for row in self.to_rows():
            writer.writerow(
                [row["k"]] + ["" if math.isnan(row[c]) else repr(row[c]) for c in ("tau1", "tau2", "tau3", "tau4")]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "family": self.family,
                "sigma": self.sigma,
                "alpha": self.alpha,
                "values": [
                    {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in row.items()}
                    for row in self.to_rows()
                ],
            },
            indent=2,
        )


def tau_analytic(
    dist: CellSizeDistribution,
    family: Family | str,
    sigma: float,
    alpha: float,
    k_report: int = 3,
) -> TauReport:
    """Analytic TauReport over k = 0..k_report; tau4 is NaN where tau1 = 0.

    tau1 for every k is one ``(k_report + 1) x (support + 1)`` pmf matrix
    times the weights.  tau3(k) does not depend on the table: pmf(0 | alpha)
    for k = 0 (a random zero must stay zero) and pmf(k | k) for k >= 1.
    """
    family = Family.coerce(family)
    limit = min(MAX_K_REPORT, MAX_PMF_ENTRIES // (dist.nonzero_sizes.size + 1) - 1)  # the pmf matrix's rows
    k_report = integer(k_report, 0, limit, f"k_report must be >= 0 and at most the limit {limit}")
    ks = np.arange(k_report + 1)
    means, weights = _means_weights(dist, alpha)
    t3 = pmf(family, ks, np.where(ks == 0, alpha, ks), sigma)  # before the matrix: a refused Bessel ladder stops it
    t1 = pmf_range(family, k_report, means, sigma) @ weights
    t2 = np.zeros(ks.size)
    reported = dist.sizes <= k_report
    t2[dist.sizes[reported]] = dist.proportions[reported]
    t4 = np.divide(t3 * t2, t1, out=np.full(ks.size, np.nan), where=t1 > 0.0)
    return TauReport("analytic", family.value, float(sigma), float(alpha), ks, t1, t2, t3, t4)


# -- empirical ------------------------------------------------------------------


def _empirical_one(
    original: SparseContingencyTable, syn: SparseContingencyTable, k_report: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """tau1..tau4 of one replicate for k = 0..k_report.

    Sizes above k_report share one overflow bin, dropped from the report.
    Size 0 counts the random zeros: the cells outside each table's
    nonzero set, and for ``stayed`` outside both.
    """
    k_eff = original.num_cells - original.num_structural_zeros
    at_orig = syn.counts_at(original.index)

    def by_size(counts: np.ndarray) -> np.ndarray:
        return np.bincount(np.minimum(counts, k_report + 1), minlength=k_report + 2)[:-1]

    n_orig = by_size(original.count)
    n_syn = by_size(syn.count)
    stayed = by_size(original.count[at_orig == original.count])
    n_orig[0] = k_eff - original.num_nonzero
    n_syn[0] = k_eff - syn.num_nonzero
    stayed[0] = k_eff - original.num_nonzero - syn.num_nonzero + np.count_nonzero(at_orig)
    t3 = np.divide(stayed, n_orig, out=np.full(k_report + 1, np.nan), where=n_orig != 0)
    t4 = np.divide(stayed, n_syn, out=np.full(k_report + 1, np.nan), where=n_syn != 0)
    return n_syn / k_eff, n_orig / k_eff, t3, t4


def tau_empirical(
    original: SparseContingencyTable,
    synthetic: SyntheticTable | SparseContingencyTable | Sequence,
    k_report: int = 3,
) -> TauReport:
    """Empirical tau values, averaged over replicates when several are given.

    Replicates with provenance must share one model (family, sigma,
    alpha), which the report carries.  Structural zeros are excluded from
    every bucket.  A bucket with no qualifying cells in any replicate
    reports NaN.
    """
    k_report = integer(k_report, 0, MAX_K_REPORT, f"k_report must be >= 0 and at most the limit {MAX_K_REPORT}")
    if isinstance(synthetic, (SyntheticTable, SparseContingencyTable)):
        synthetic = [synthetic]
    if not synthetic:
        raise ValidationError("need at least one synthetic table")
    tables = [s.table if isinstance(s, SyntheticTable) else s for s in synthetic]
    models = {(s.provenance.family, s.provenance.sigma, s.provenance.alpha)
              for s in synthetic if isinstance(s, SyntheticTable)}
    if len(models) > 1:  # their average would be reported under one model
        models = ", ".join(sorted(map(str, models)))
        raise ValidationError(f"replicates of different models (family, sigma, alpha): {models}")
    family, sigma, alpha = models.pop() if models else (None, None, None)
    for t in tables:
        original.check_replicate(t)
    if original.num_cells == original.num_structural_zeros:
        raise UndefinedResultError("every cell is a structural zero")
    per_rep = np.array([_empirical_one(original, t, k_report) for t in tables])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN buckets stay NaN
        t1, t2, t3, t4 = np.nanmean(per_rep, axis=0)
    return TauReport("empirical", family, sigma, alpha, np.arange(k_report + 1), t1, t2, t3, t4)


def tau2_of_table(table: SparseContingencyTable) -> CellSizeDistribution:
    """The original table's size distribution, tau2(k) for every size k: the
    k=0 bucket holds random zeros only, and structural zeros are excluded
    from the denominator."""
    if table.num_cells == table.num_structural_zeros:
        raise ValidationError("every cell is a structural zero")
    uniq, freq = np.unique(table.count, return_counts=True)
    sizes = np.concatenate([[0], uniq]).astype(np.int64)
    cells = np.concatenate([[table.num_random_zeros], freq]).astype(np.int64)
    return CellSizeDistribution(sizes, cells / (table.num_cells - table.num_structural_zeros))
