"""Output checks of the satsynth benchmark.

Each check returns the problems it found as strings; an empty list
means the output passed.  The workloads attach the problems to the
operation that produced the output, so a failed check counts as a
failed operation.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

from satsynth import (
    SatsynthError,
    SynthesisJob,
    expected_grand_total,
    read_table,
    tau1_expected,
    tau4_expected,
    tau_analytic,
    tau_empirical,
)
from satsynth.models import Family

NSYN_SE_LIMIT = 6.0
DRIFT_SE_LIMIT = 4.0
TAU4_RESIDUAL_LIMIT = 1e-9
MATCH_ZEROS_RESIDUAL_LIMIT = 1e-10


def nsyn_sd(table, job: SynthesisJob) -> float:
    """Standard deviation of n_syn: sqrt of sum(mu + sigma * mu^2) over cells,
    random zeros at mean alpha, structural zeros excluded."""
    spec = job.model
    sigma = 0.0 if spec.effective_family is Family.POISSON else spec.sigma
    mu = table.count.astype(np.float64)
    var = float(np.sum(mu + sigma * mu * mu))
    var += table.num_random_zeros * (spec.alpha + sigma * spec.alpha**2)
    return math.sqrt(var)


def check_nsyn(table, job: SynthesisJob, n_syn: int) -> list[str]:
    expect = expected_grand_total(table, job)
    sd = nsyn_sd(table, job)
    if abs(n_syn - expect) > NSYN_SE_LIMIT * sd:
        return [f"n_syn {n_syn} is {(n_syn - expect) / sd:+.1f} SE from its expectation {expect:.1f}"]
    return []


def drift(table, dist, job: SynthesisJob, syn_table, emp=None) -> tuple[float, list[str]]:
    """Empirical minus analytic tau1/tau3/tau4 for k <= 3 in Monte-Carlo SEs.

    Returns the largest |z| and a problem for every value beyond
    ``DRIFT_SE_LIMIT`` standard errors (binomial SEs from the analytic
    values, as in acceptance criterion 02).  ``emp`` is the replicate's
    empirical report when the caller has already computed it.
    """
    spec = job.model
    if emp is None:
        emp = tau_empirical(table, syn_table, k_report=3)
    ana = tau_analytic(dist, spec.family, spec.sigma, spec.alpha, k_report=3)
    k_eff = table.num_cells - table.num_structural_zeros

    def cells_of_size(t, k):
        return k_eff - t.num_nonzero if k == 0 else int(np.count_nonzero(t.count == k))

    worst = 0.0
    problems = []
    for k in range(4):
        if not abs(emp.tau2[k] - ana.tau2[k]) <= 1e-12:
            problems.append(f"tau2({k}) empirical {emp.tau2[k]} != analytic {ana.tau2[k]}")
        for name, value, expect, denom in (
            ("tau1", emp.tau1[k], ana.tau1[k], k_eff),
            ("tau3", emp.tau3[k], ana.tau3[k], cells_of_size(table, k)),
            ("tau4", emp.tau4[k], ana.tau4[k], cells_of_size(syn_table, k)),
        ):
            se = math.sqrt(max(expect * (1.0 - expect), 0.0) / max(denom, 1))
            gap = abs(value - expect)
            z = gap / se if se > 0 else (0.0 if gap <= 1e-12 else math.inf)
            if not z <= DRIFT_SE_LIMIT:  # NaN fails too
                problems.append(f"{name}({k}) empirical {value:.6g} vs analytic {expect:.6g}, |z| = {z:.1f}")
            if z > worst:
                worst = z
    return worst, problems


def check_tuning(dist, family: str, sigma: float, alpha_zeros: float, alpha_tau4: float, p: float) -> list[str]:
    """Residuals of the two tuning targets, re-evaluated independently of the solver."""
    problems = []
    r0 = tau1_expected(dist, family, sigma, alpha_zeros, 0) - dist.proportion(0)
    if not abs(r0) <= MATCH_ZEROS_RESIDUAL_LIMIT:
        problems.append(f"match-zeros residual {r0:.3g} at sigma={sigma}")
    r4 = tau4_expected(dist, family, sigma, alpha_tau4, 1, method="bayes") - p
    if not abs(r4) <= TAU4_RESIDUAL_LIMIT:
        problems.append(f"tau4(1) residual {r4:.3g} at sigma={sigma}")
    return problems


def check_readback(path: Path, printed_n: int) -> list[str]:
    """A synthesized CSV must read back with the n_syn the CLI printed."""
    try:
        table = read_table(str(path))
    except (SatsynthError, OSError, ValueError) as exc:
        return [f"{path.name} does not read back: {exc}"]
    if table.n != printed_n:
        return [f"{path.name} reads back n={table.n}, CLI printed n_syn={printed_n}"]
    return []


def check_analytic_csv(path: Path, dist, family: str, sigma: float, alpha: float, k_report: int) -> list[str]:
    """The CLI's analytic tau CSV must equal the in-process ``tau_analytic``."""
    try:
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    except OSError as exc:
        return [f"{path.name} unreadable: {exc}"]
    rows = list(csv.DictReader(lines))
    ana = tau_analytic(dist, family, sigma, alpha, k_report=k_report)
    if [int(r["k"]) for r in rows] != [int(k) for k in ana.ks]:
        return [f"{path.name} has k values {[r['k'] for r in rows]}"]
    problems = []
    for i, row in enumerate(rows):
        for col in ("tau1", "tau2", "tau3", "tau4"):
            want = float(getattr(ana, col)[i])
            got = float(row[col]) if row[col] else math.nan
            if not (got == want or (math.isnan(got) and math.isnan(want))):
                problems.append(f"{col}({row['k']}) is {got!r} in {path.name}, {want!r} in-process")
    return problems


def synthesize_readback(stdout: str, paths: list[Path]) -> tuple[list[int], list[str]]:
    """The n_syn values ``satsynth synthesize`` printed, and the problems
    found reading its replicates back."""
    found = re.search(r"n_syn: ([\d, ]+)", stdout)
    printed = [int(v) for v in found.group(1).split(",")] if found else []
    if len(printed) != len(paths):
        return printed, [f"unexpected output {stdout.strip()!r}"]
    return printed, [p for path, n in zip(paths, printed) for p in check_readback(path, n)]


def check_report(path: Path, rows: int) -> list[str]:
    """A CLI report CSV exists and has the expected number of data rows."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    if len(lines) - 1 != rows:
        return [f"{path.name} has {len(lines) - 1} rows, expected {rows}"]
    return []
