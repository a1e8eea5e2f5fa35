"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed in the terminal summary.
"""

import math
import time

import numpy as np
import pytest
from scipy import special, stats

from satsynth import log_bessel_k_half
from satsynth.evaluation import Interval, ci_overlap, frontier_point, raab_variance
from satsynth.generator import esc_like_spec, generate_table, scaled_spec
from satsynth.loglin import build_design, fit_loglinear, poisson_loglik
from satsynth.models import CountModelSpec, pmf_range
from satsynth.schema import CategoricalSchema
from satsynth.synthesis import SynthesisJob, synthesize
from satsynth.table import CellSizeDistribution, SparseContingencyTable
from satsynth.taumetrics import (
    tau1_expected,
    tau4_expected,
    tau_analytic,
    tau_empirical,
    tau2_of_table,
)
from satsynth.tuning import alpha_star_match_zeros, solve_alpha_for_tau4_target

from oracles import (
    MarginSpec,
    chisq_pvalue_from_draws,
    ipf_fit,
    log_bessel_k_quadrature,
    sample_iid,
    tau4_reduced,
    truncation_for_mass,
)


@pytest.fixture(scope="module")
def esc_million():
    """Table-2-shaped table with 2^20 > 10^6 cells."""
    return generate_table(scaled_spec(esc_like_spec(), 1_048_576), seed=777)


@pytest.fixture(scope="module")
def esc_full():
    """Full-scale 3,468,640-cell table."""
    return generate_table(esc_like_spec(), seed=2024)


def test_criterion_01_unique_survival_rate_poisson():
    """Empirical tau3(1) on 200k unit cells equals exp(-1) +/- 0.004 in < 5 s."""
    t0 = time.perf_counter()
    schema = CategoricalSchema([("cell", [f"c{i:06d}" for i in range(200_000)])])
    idx = np.arange(200_000, dtype=np.uint64)
    table = SparseContingencyTable(schema, idx, np.ones(200_000, dtype=np.int64))
    reps = synthesize(table, SynthesisJob(CountModelSpec("poisson"), master_seed=101))
    rep = tau_empirical(table, reps, k_report=1)
    elapsed = time.perf_counter() - t0
    assert abs(rep.tau3[1] - math.exp(-1)) <= 0.004
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_analytic_empirical_tau_agreement(esc_million):
    """|empirical - analytic| tau below 4 Monte-Carlo SEs on a >=1e6-cell table."""
    t0 = time.perf_counter()
    table = esc_million
    dist = tau2_of_table(table)
    k_eff = table.num_cells - table.num_structural_zeros
    for family, sigma in (("poisson", 0.0), ("nbi", 1.0), ("pig", 1.0)):
        for alpha in (0.0, 0.02):
            job = SynthesisJob(
                CountModelSpec(family, sigma=sigma, alpha=alpha),
                master_seed=hash_stable(family, sigma, alpha),
            )
            syn = synthesize(table, job)[0]
            emp = tau_empirical(table, syn, k_report=3)
            ana = tau_analytic(dist, family, sigma, alpha, k_report=3)
            n_orig_k = np.array([
                k_eff - table.num_nonzero if k == 0 else int((table.count == k).sum())
                for k in range(4)
            ])
            n_syn_k = np.array([
                k_eff - syn.table.num_nonzero if k == 0 else int((syn.table.count == k).sum())
                for k in range(4)
            ])
            for k in range(4):
                checks = [
                    (emp.tau1[k], ana.tau1[k], k_eff),
                    (emp.tau3[k], ana.tau3[k], n_orig_k[k]),
                    (emp.tau4[k], ana.tau4[k], n_syn_k[k]),
                ]
                for value, expect, denom in checks:
                    se = math.sqrt(max(expect * (1 - expect), 0.0) / max(denom, 1))
                    tol = max(4 * se, 1e-12)
                    assert abs(value - expect) <= tol, (family, sigma, alpha, k, value, expect)
                assert emp.tau2[k] == pytest.approx(ana.tau2[k], abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def hash_stable(*parts) -> int:
    import zlib

    return zlib.crc32(repr(parts).encode())


def test_criterion_03_reduced_tau4_forms_match_bayes_quotient():
    """Cancelled NBI/PIG tau4 ratios equal tau3*tau2/tau1 to 1e-10 relative."""
    dist = CellSizeDistribution.from_counts(
        {0: 9038, 1: 346, 2: 148, 3: 75, 4: 56, 5: 38, 11: 195}
    )
    for family in ("nbi", "pig"):
        for sigma in (0.1, 1.0, 10.0):
            for alpha in (0.0, 0.02):
                for k in range(6):
                    bayes = tau4_expected(dist, family, sigma, alpha, k)
                    reduced = tau4_reduced(dist, family, sigma, alpha, k)
                    assert reduced == pytest.approx(bayes, rel=1e-10), (family, sigma, alpha, k)


def test_criterion_04_tuning_round_trips():
    """alpha* hits tau1(0)=tau2(0) to 1e-10 and tau4(1)=p to 1e-9; MC confirms."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    for trial in range(50):
        support = int(rng.integers(1, 8))
        props = rng.dirichlet(np.ones(support + 1))
        props[0] += 1.0  # zero-heavy, like real sparse tables
        props /= props.sum()
        dist = CellSizeDistribution.from_proportions({k: float(p) for k, p in enumerate(props)})
        for family, sigma in (("poisson", 0.0), ("nbi", 0.8), ("pig", 1.2)):
            alpha = alpha_star_match_zeros(dist, family, sigma)
            assert tau1_expected(dist, family, sigma, alpha, 0) == pytest.approx(
                dist.proportion(0), abs=1e-10
            ), (trial, family)
            alpha_true = float(rng.uniform(0.01, 0.5))
            p = tau4_expected(dist, family, sigma, alpha_true, 1)
            res = solve_alpha_for_tau4_target(dist, family, sigma, p)
            assert tau4_expected(dist, family, sigma, res.alpha_star, 1) == pytest.approx(
                p, abs=1e-9
            ), (trial, family)

    # Monte-Carlo confirmation on one case
    schema = CategoricalSchema([("cell", [f"c{i:06d}" for i in range(200_000)])])
    counts = {(i,): 1 + (i % 3) for i in range(70_000)}
    table = SparseContingencyTable.from_dict(schema, counts)
    dist = tau2_of_table(table)
    alpha = alpha_star_match_zeros(dist, "nbi", 1.0)
    job = SynthesisJob(CountModelSpec("nbi", sigma=1.0, alpha=alpha), master_seed=31)
    syn = synthesize(table, job)[0]
    emp = tau_empirical(table, syn, k_report=0)
    t20 = dist.proportion(0)
    se = math.sqrt(t20 * (1 - t20) / table.num_cells)
    assert abs(emp.tau1[0] - t20) <= 3 * se
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_05_pmf_sampler_and_bessel_oracles():
    """PIG mass reaches 1-1e-9; Bessel matches quadrature to 1e-8;
    chi-square sampler tests pass at the 0.001 level on a 9-point grid."""
    t0 = time.perf_counter()
    for mu in (0.5, 5.0, 50.0):
        for sigma in (0.1, 1.0, 10.0):
            kstar = truncation_for_mass("pig", mu, sigma, tail=1e-9)
            assert pmf_range("pig", kstar, mu, sigma).sum() >= 1 - 1e-9

    for n in (1, 3, 7, 13, 25):
        for t in (0.01, 0.1, 1.0, 10.0, 100.0):
            ours = log_bessel_k_half(n, t)
            ref = log_bessel_k_quadrature(n - 0.5, t)
            assert abs(ours - ref) <= 1e-8 * max(1.0, abs(ref)), (n, t)

    grid = [
        ("poisson", 0.5, 0.0), ("poisson", 5.0, 0.0), ("poisson", 25.0, 0.0),
        ("nbi", 0.5, 1.0), ("nbi", 5.0, 0.5), ("nbi", 12.0, 3.0),
        ("pig", 0.5, 1.0), ("pig", 5.0, 0.5), ("pig", 12.0, 3.0),
    ]
    for family, mu, sigma in grid:
        rng = np.random.default_rng(hash_stable("chi", family, mu, sigma))
        draws = sample_iid(family, mu, sigma, rng, 1_000_000)
        kstar = truncation_for_mass(family, mu, sigma, tail=1e-12)
        _, _, pval = chisq_pvalue_from_draws(draws, pmf_range(family, kstar, mu, sigma))
        assert pval > 0.001, (family, mu, sigma, pval)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_06_sample_moments_match_mean_variance():
    """1e6 NBI and PIG draws match mean mu and variance mu + sigma*mu^2 in 4 SEs."""
    for family, mu, sigma in (("nbi", 5.0, 0.5), ("pig", 5.0, 0.5)):
        rng = np.random.default_rng(hash_stable("mom6", family))
        draws = sample_iid(family, mu, sigma, rng, 1_000_000).astype(float)
        var = mu + sigma * mu**2
        kstar = truncation_for_mass(family, mu, sigma, tail=1e-12)
        probs = pmf_range(family, kstar, mu, sigma)
        ks = np.arange(probs.size)
        m4 = float(np.dot((ks - mu) ** 4, probs))
        assert abs(draws.mean() - mu) <= 4 * math.sqrt(var / draws.size)
        assert abs(draws.var() - var) <= 4 * math.sqrt((m4 - var**2) / draws.size)


def test_criterion_07_performance_envelope_full_scale(esc_full):
    """Poisson and NBI synthesis of 3,468,640 cells in <= 5 s, PIG in <= 180 s;
    outputs identical for any --threads value."""
    table = esc_full
    assert table.num_cells == 3_468_640
    budgets = {"poisson": 5.0, "nbi": 5.0, "pig": 180.0}
    sigmas = {"poisson": 0.0, "nbi": 1.0, "pig": 1.0}
    for family, budget in budgets.items():
        job = SynthesisJob(
            CountModelSpec(family, sigma=sigmas[family], alpha=0.0), master_seed=7
        )
        t0 = time.perf_counter()
        single = synthesize(table, job, threads=1)[0]
        elapsed = time.perf_counter() - t0
        assert elapsed <= budget, f"{family} took {elapsed:.1f}s (budget {budget}s)"
        threaded = synthesize(table, job, threads=4)[0]
        assert single.table.same_contents(threaded.table), family


def test_criterion_08_evaluation_constants():
    """Variance rule doubles at m=1; shifted/infinite overlaps are exactly 1/2;
    the original data sit at frontier point (1, 0)."""
    assert raab_variance(2.5, 12345, 12345, 1) == 5.0
    assert ci_overlap(Interval(0.0, 2.0), Interval(1.0, 3.0)) == 0.5
    assert ci_overlap(Interval(0.0, 2.0), Interval(-math.inf, math.inf)) == 0.5
    schema = CategoricalSchema([("cell", [f"c{i}" for i in range(30)])])
    table = SparseContingencyTable.from_dict(schema, {(i,): 1 + i % 2 for i in range(12)})
    point = frontier_point(table, table, overlaps=[1.0] * 8, label="original")
    assert (point.utility, point.privacy) == (1.0, 0.0)


def test_criterion_09_loglinear_suite():
    """IPF == IRLS to 1e-6 on 20 random tables; score matches finite
    differences to 1e-5; the 2x2 independence fit and the 608-parameter
    design come out exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    import itertools

    for trial in range(20):
        ndim = int(rng.integers(2, 5))
        sizes = tuple(int(s) for s in rng.integers(2, 4, ndim))
        schema = CategoricalSchema(
            [(f"v{i}", [f"c{j}" for j in range(s)]) for i, s in enumerate(sizes)]
        )
        counts = rng.integers(1, 25, schema.num_cells)
        table = SparseContingencyTable.from_dict(
            schema, {schema.coords_of(i): int(c) for i, c in enumerate(counts)}
        )
        if ndim == 2:
            margins = [(n,) for n in schema.names]
        else:
            margins = [tuple(p) for p in itertools.combinations(schema.names, 2)]
        spec = MarginSpec(margins)
        fitted_ipf = ipf_fit(table, spec, tol=1e-10, max_iter=5000)
        fit = fit_loglinear(table, spec.model_terms(), tol=1e-9)
        err = np.abs(fit.fitted - fitted_ipf) / np.maximum(fitted_ipf, 1e-12)
        assert err.max() < 1e-6, f"trial {trial}"

    # score vs central finite differences of the log-likelihood
    schema = CategoricalSchema([("A", ["a", "b", "c"]), ("B", ["x", "y"])])
    counts = {(i, j): 3 + 2 * i + j for i in range(3) for j in range(2)}
    table = SparseContingencyTable.from_dict(schema, counts)
    terms = [("A",), ("B",), ("A", "B")]
    fit = fit_loglinear(table, terms, tol=1e-10)
    x, labels = build_design(schema, terms)
    y = table.to_dense().astype(float).ravel()
    beta = np.array([fit.coefficients[l] for l in labels])
    score = x.T @ (y - np.exp(x @ beta))
    assert np.abs(score).max() < 1e-8
    eps = 1e-6
    for j in range(beta.size):
        bp, bm = beta.copy(), beta.copy()
        bp[j] += eps
        bm[j] -= eps
        fd = (poisson_loglik(y, np.exp(x @ bp)) - poisson_loglik(y, np.exp(x @ bm))) / (2 * eps)
        assert abs(fd - score[j]) <= 1e-5 * max(1.0, abs(fd))

    table22 = SparseContingencyTable.from_dict(
        CategoricalSchema([("A", ["a1", "a2"]), ("B", ["b1", "b2"])]),
        {(0, 0): 10, (0, 1): 20, (1, 0): 30, (1, 1): 40},
    )
    fitted = ipf_fit(table22, MarginSpec([("A",), ("B",)]), tol=1e-10)
    np.testing.assert_allclose(fitted, [[12.0, 18.0], [28.0, 42.0]], atol=1e-8)

    big = CategoricalSchema(
        [
            ("ethnicity", [f"e{i}" for i in range(20)]),
            ("age", [f"y{i}" for i in range(19)]),
            ("language", [f"l{i}" for i in range(7)]),
        ]
    )
    x, labels = build_design(
        big, [("ethnicity",), ("age",), ("language",),
              ("ethnicity", "age"), ("ethnicity", "language"), ("age", "language")]
    )
    assert len(labels) == 608
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_10_risk_monotonicity_in_dispersion_and_pseudocount():
    """Analytic tau4(1) never rises with sigma (alpha=0) and falls with alpha."""
    dist = CellSizeDistribution.from_counts(
        {0: 3_134_980, 1: 119_917, 2: 51_412, 3: 25_952, 4: 19_450, 5: 13_076,
         6: 10_345, 7: 7_947, 8: 7_077, 9: 5_809, 10: 5_163, 11: 67_512}
    )
    sigmas = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    for family in ("nbi", "pig"):
        vals = [tau4_expected(dist, family, s, 0.0, 1) for s in sigmas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), (family, vals)
        for sigma in (0.5, 2.0):
            by_alpha = [tau4_expected(dist, family, sigma, a, 1) for a in (0.0, 0.01, 0.02, 0.05)]
            assert all(a > b for a, b in zip(by_alpha, by_alpha[1:])), (family, sigma, by_alpha)
