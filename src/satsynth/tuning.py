"""Solving for the pseudocount that hits a risk/utility target a priori.

Two targets are supported, both evaluated on the original table's size
distribution before any synthesis happens:

* match-zeros — choose alpha* so the expected proportion of (random)
  zeros in the synthetic data equals the original proportion,
  tau1(0) = tau2(0).  Closed form for all three families.
* tau4-equals — choose alpha* so the expected share of synthetic uniques
  that are true uniques equals a chosen p, tau4(1) = p.  Solved by
  bisection; tau4(1) is strictly decreasing in alpha on the bracket
  (injected uniques dilute the true ones), and the solver verifies that
  rather than assuming it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError, ValidationError
from .models import Family, check_parameter, effective_family, pmf
from .table import CellSizeDistribution
from .taumetrics import TauCurve

ALPHA_CAP = 1e6  # the tau4 solve's bracket search stops here


@dataclass(frozen=True)
class TuningResult:
    family: str
    sigma: float
    target: str
    alpha_star: float
    residual: float
    iterations: int
    p: float | None = None

    def to_json(self) -> str:
        out = asdict(self)
        if self.p is None:
            del out["p"]
        return json.dumps(out, indent=2)


def _shrink_weight_sum(dist: CellSizeDistribution, family: Family, sigma: float) -> float:
    """(1/tau2(0)) * sum_j p(draw 0 | mean j) * tau2(j) over occupied sizes."""
    t20 = dist.proportion(0)
    if t20 <= 0.0:
        raise InfeasibleError("tau2(0) = 0: the original table has no random zeros to match")
    return float(pmf(family, 0, dist.nonzero_sizes, sigma) @ dist.nonzero_proportions) / t20


def alpha_star_match_zeros(
    dist: CellSizeDistribution, family: Family | str, sigma_star: float = 0.0
) -> float:
    """Closed-form alpha* with expected tau1(0) = tau2(0).

    The shrink-to-zero mass flowing from occupied cells must be offset by
    zeros escaping to nonzero values; feasibility requires that mass to be
    smaller than the available zero proportion.
    """
    family = effective_family(family, sigma_star)
    s = _shrink_weight_sum(dist, family, sigma_star)
    if s >= 1.0:
        raise InfeasibleError(
            f"infeasible: shrink-to-zero mass ratio {s:.6g} >= 1; too few zeros "
            "relative to the mass collapsing onto them"
        )
    with np.errstate(over="ignore"):
        if family is Family.POISSON:
            alpha = -math.log1p(-s)
        elif family is Family.NBI:
            alpha = (np.float64(1.0 - s) ** -sigma_star - 1.0) / sigma_star
        else:  # PIG: invert c_alpha = 1/sigma - log(1 - s); alpha = (c^2 - 1/sigma^2) * sigma / 2
            c_alpha = np.float64(1.0 / sigma_star - math.log1p(-s))
            alpha = 0.5 * (sigma_star * c_alpha**2 - 1.0 / sigma_star)
    if not math.isfinite(alpha):
        raise InfeasibleError(f"alpha* overflows float64 at sigma_star = {sigma_star:g}")
    return float(alpha)


def solve_alpha_for_tau4_target(
    dist: CellSizeDistribution,
    family: Family | str,
    sigma_star: float,
    p: float,
    tol: float = 1e-10,
) -> TuningResult:
    """alpha* with expected tau4(1) = p, by bracketed bisection.

    Bisection stops once ``|tau4(1) - p| < tol``.  Raises
    :class:`InfeasibleError` when p exceeds the alpha = 0 value (the
    achievable maximum) or cannot be reached inside the monotone region
    of tau4(1), and :class:`ConvergenceError` when the bracket's
    midpoint no longer splits it before the target is met.
    """
    family = Family.coerce(family)
    if np.asarray(p).dtype.kind not in "iuf" or not 0.0 < p <= 1.0:  # a bool, None or str is no share
        raise ValidationError("p must lie in (0, 1]")
    check_parameter("tol", tol)

    f = TauCurve(dist, family, sigma_star, 1).tau4
    f0 = f(0.0)
    if p > f0 + 1e-12:
        raise InfeasibleError(
            f"infeasible: requested tau4(1) = {p} exceeds the achievable maximum "
            f"{f0:.10g} at alpha = 0"
        )
    if abs(f0 - p) <= tol:
        return TuningResult(family.value, sigma_star, "tau4-equals", 0.0, f0 - p, 0, p)

    # bracket by doubling; tau4(1) must keep falling while above p
    lo, f_lo = 0.0, f0
    hi, f_hi = 1.0, f(1.0)
    iterations = 1
    while f_hi > p:
        if f_hi > f_lo + 1e-13:
            raise InfeasibleError(
                f"tau4(1) stopped decreasing at alpha = {lo:.6g} "
                f"(value {f_lo:.10g} < requested {p}); target not reachable "
                "in the monotone region"
            )
        if hi >= ALPHA_CAP:
            raise InfeasibleError(
                f"no bracket below alpha = {ALPHA_CAP:g}; smallest tau4(1) seen "
                f"is {f_hi:.10g} > requested {p}"
            )
        lo, f_lo = hi, f_hi
        hi = min(hi * 2.0, ALPHA_CAP)
        f_hi = f(hi)
        iterations += 1

    while True:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        iterations += 1
        if abs(fm - p) < tol:
            return TuningResult(
                family.value, sigma_star, "tau4-equals", mid, fm - p, iterations, p
            )
        if not lo < mid < hi:
            raise ConvergenceError(
                f"tau4(1) = {p} not met within tol = {tol:g}: the bracket [{lo!r}, {hi!r}] "
                f"cannot be split, residual {fm - p:.3g} after {iterations} evaluations"
            )
        if fm > f_lo + 1e-12 or fm < f_hi - 1e-12:
            raise InfeasibleError(
                f"tau4(1) is not monotone on [{lo:.6g}, {hi:.6g}] "
                f"(f({mid:.6g}) = {fm:.10g} outside [{f_hi:.10g}, {f_lo:.10g}]); "
                "refusing to return a root"
            )
        if fm > p:
            lo, f_lo = mid, fm
        else:
            hi, f_hi = mid, fm
