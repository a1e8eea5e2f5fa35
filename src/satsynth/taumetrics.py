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

from .bessel import log_bessel_k_half
from .errors import UndefinedResultError, ValidationError
from .models import Family, pig_c, pmf, pmf_range
from .synthesis import SyntheticTable
from .table import CellSizeDistribution, SparseContingencyTable, cell_size_distribution


def _means_weights(dist: CellSizeDistribution, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """``means = [alpha, sizes...]``, ``weights = [tau2(0), proportions...]``:
    the synthesis mean of each original cell group and its share of cells."""
    means = np.concatenate(([float(alpha)], dist.nonzero_sizes.astype(np.float64)))
    weights = np.concatenate(([dist.proportion(0)], dist.nonzero_proportions))
    return means, weights


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
    means, weights = _means_weights(dist, alpha)
    return float(pmf(family, k, means, sigma) @ weights)


def tau1_expected_range(
    dist: CellSizeDistribution,
    family: Family | str,
    sigma: float,
    alpha: float,
    k_max: int,
) -> np.ndarray:
    """tau1 for every k in 0..k_max in one pass.

    One ``(k_max + 1) x (support + 1)`` pmf matrix times the weights, so
    summing the synthetic size distribution to check its mass costs
    O(support * k_max) rather than O(support * k_max^2).
    """
    means, weights = _means_weights(dist, alpha)
    return pmf_range(family, k_max, means, sigma) @ weights


def tau3_expected(family: Family | str, sigma: float, alpha: float, k: int) -> float:
    """Expected proportion of original size-k cells synthesized to k.

    Independent of the table's size distribution: pmf(0 | alpha) for
    k = 0 (a random zero must stay zero) and pmf(k | k) for k >= 1.
    """
    return float(pmf(family, k, alpha if k == 0 else float(k), sigma))


def tau4_expected(
    dist: CellSizeDistribution,
    family: Family | str,
    sigma: float,
    alpha: float,
    k: int,
    method: str = "bayes",
) -> float:
    """Expected proportion of synthetic size-k cells originating from size k.

    ``method='bayes'`` evaluates tau3(k) * tau2(k) / tau1(k) from the pmf,
    as the solvers and reports do.  ``method='reduced'`` evaluates the
    ratio with all k-only factors cancelled, written out per family apart
    from the pmf; it is the cross-check, and both agree to near machine
    precision.
    """
    family = Family.coerce(family)
    if method == "bayes":
        t1 = tau1_expected(dist, family, sigma, alpha, k)
        if t1 <= 0.0:
            raise UndefinedResultError(
                f"tau4({k}) undefined: no synthetic cells of size {k} are expected"
            )
        return tau3_expected(family, sigma, alpha, k) * dist.proportion(k) / t1
    if method == "reduced":
        return _tau4_reduced(dist, family, sigma, alpha, k)
    raise ValidationError("method must be 'bayes' or 'reduced'")


def _tau4_reduced(
    dist: CellSizeDistribution, family: Family, sigma: float, alpha: float, k: int
) -> float:
    """Cancelled-ratio form of tau4.

    Every term shares the same k-only constants, which cancel between
    numerator and denominator; only the mean-dependent weight survives.
    Weights are handled in log space with a common reference, so the
    route stays finite for large sizes.
    """
    if k < 0:
        raise ValidationError("k must be >= 0")

    if family is Family.POISSON or sigma == 0.0:
        if k == 0:
            logw = lambda mu: -mu
        else:
            logw = lambda mu: k * np.log(mu) - mu
    elif family is Family.NBI:
        if k == 0:
            logw = lambda mu: -np.log1p(sigma * mu) / sigma
        else:
            logw = lambda mu: k * np.log(mu) - (k + 1.0 / sigma) * np.log1p(sigma * mu)
    elif family is Family.PIG:
        if k == 0:
            logw = lambda mu: -pig_c(mu, sigma)
        else:
            logw = lambda mu: (
                (0.5 - k) * np.log(pig_c(mu, sigma))
                + k * np.log(mu)
                + log_bessel_k_half(k, pig_c(mu, sigma))
            )
    else:  # pragma: no cover
        raise ValidationError(f"unhandled family {family}")

    means, weights = _means_weights(dist, alpha)
    if k == 0:
        log_num = float(logw(float(alpha)))
        w_num = weights[0]
    else:
        log_num = float(logw(float(k)))
        w_num = dist.proportion(k)
        reach = means > 0.0  # mean 0 cannot reach k >= 1
        means, weights = means[reach], weights[reach]
    terms = logw(means)
    ref = terms.max() if terms.size else 0.0
    den = float(np.exp(terms - ref) @ weights)
    if den <= 0.0:
        raise UndefinedResultError(
            f"tau4({k}) undefined: no synthetic cells of size {k} are expected"
        )
    return math.exp(log_num - ref) * w_num / den


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
    """Analytic TauReport over k = 0..k_report; tau4 is NaN where tau1 = 0."""
    family = Family.coerce(family)
    ks = np.arange(k_report + 1)
    t1 = tau1_expected_range(dist, family, sigma, alpha, k_report)
    t2 = np.zeros(ks.size)
    reported = dist.sizes <= k_report
    t2[dist.sizes[reported]] = dist.proportions[reported]
    t3 = pmf(family, ks, np.where(ks == 0, alpha, ks), sigma)
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

    Structural zeros are excluded from every bucket.  A bucket with no
    qualifying cells in any replicate reports NaN.
    """
    if isinstance(synthetic, (SyntheticTable, SparseContingencyTable)):
        synthetic = [synthetic]
    if not synthetic:
        raise ValidationError("need at least one synthetic table")
    tables = []
    family = sigma = alpha = None
    for s in synthetic:
        if isinstance(s, SyntheticTable):
            tables.append(s.table)
            family, sigma, alpha = s.provenance.family, s.provenance.sigma, s.provenance.alpha
        else:
            tables.append(s)
    for t in tables:
        original.check_replicate(t)
    if k_report < 0:
        raise ValidationError("k_report must be >= 0")
    if original.num_cells == original.num_structural_zeros:
        raise UndefinedResultError("every cell is a structural zero")
    per_rep = np.array([_empirical_one(original, t, k_report) for t in tables])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN buckets stay NaN
        t1, t2, t3, t4 = np.nanmean(per_rep, axis=0)
    return TauReport("empirical", family, sigma, alpha, np.arange(k_report + 1), t1, t2, t3, t4)


def tau2_of_table(table: SparseContingencyTable) -> CellSizeDistribution:
    """The original table's size distribution (random-zero basis)."""
    return cell_size_distribution(table, zero_basis="random")
