"""Checks against the published reference results for the ESC-like data.

These anchor the package to the documented behaviour of the mechanism on
the schools-census substitute: its cell-size histogram, the tau values
reported for it, the within-0.5% closeness figure, and the risk
coordinate of the frontier.  Published numbers are single-run empirical
values, so tolerances are statistical rather than exact.
"""

import math

import numpy as np
import pytest

from satsynth.evaluation import within_p_percent, frontier_point
from satsynth.generator import ESC_LIKE_N, esc_like_spec, generate_table, scaled_spec
from satsynth.models import CountModelSpec
from satsynth.synthesis import SynthesisJob, expected_grand_total, synthesize
from satsynth.taumetrics import tau1_expected, tau4_expected, tau_empirical, tau2_of_table
from satsynth.tuning import solve_alpha_for_tau4_target


@pytest.fixture(scope="module")
def full_table():
    return generate_table(esc_like_spec(), seed=515)


@pytest.fixture(scope="module")
def million_table():
    return generate_table(scaled_spec(esc_like_spec(), 1_000_000), seed=616)


def test_full_scale_histogram_matches_published_proportions(full_table):
    dist = tau2_of_table(full_table)
    published = {0: 0.9038, 1: 0.0346, 2: 0.0148, 3: 0.0075, 4: 0.0056,
                 5: 0.0038, 6: 0.0030, 7: 0.0023, 8: 0.0020, 9: 0.0017, 10: 0.0015}
    for k, p in published.items():
        assert dist.proportion(k) == pytest.approx(p, abs=5e-4), k
    tail = float((full_table.count >= 11).sum()) / full_table.num_cells
    assert tail == pytest.approx(0.0195, abs=5e-4)
    assert full_table.n == ESC_LIKE_N


def test_pseudocount_injection_grand_total(full_table):
    assert full_table.num_random_zeros == 3_134_980
    job = SynthesisJob(CountModelSpec("poisson", alpha=0.02), master_seed=0)
    assert expected_grand_total(full_table, job) == pytest.approx(ESC_LIKE_N + 62_699.6)


def test_synthetic_grand_total_unbiased(full_table):
    m = 3
    job = SynthesisJob(CountModelSpec("poisson"), master_seed=99, m=m)
    totals = np.array([r.n_syn for r in synthesize(full_table, job)], dtype=float)
    se = math.sqrt(ESC_LIKE_N / m)  # totals are Poisson(n)
    assert abs(totals.mean() - ESC_LIKE_N) <= 4 * se


def test_analytic_tau_values_for_published_settings(million_table):
    dist = tau2_of_table(million_table)
    # synthetic zero share under NBI sigma=1, alpha=0 (published 0.9317)
    assert tau1_expected(dist, "nbi", 1.0, 0.0, 0) == pytest.approx(0.9317, abs=2e-3)
    # unique-risk values under the Poisson (published 0.6893 and 0.352)
    assert tau4_expected(dist, "poisson", 0.0, 0.0, 1) == pytest.approx(0.689, abs=2e-3)
    assert tau4_expected(dist, "poisson", 0.0, 0.02, 1) == pytest.approx(0.352, abs=2e-3)


def test_pseudocount_recovering_published_risk_levels(million_table):
    dist = tau2_of_table(million_table)
    res_high = solve_alpha_for_tau4_target(dist, "poisson", 0.0, 0.689)
    assert res_high.alpha_star == pytest.approx(0.0, abs=5e-3)
    res_low = solve_alpha_for_tau4_target(dist, "poisson", 0.0, 0.352)
    assert res_low.alpha_star == pytest.approx(0.02, abs=5e-3)


def test_within_half_percent_all_cells(million_table):
    job = SynthesisJob(CountModelSpec("poisson"), master_seed=4)
    syn = synthesize(million_table, job)[0]
    res = within_p_percent(million_table, syn, [0.5])
    assert res[0.5] == pytest.approx(0.927, abs=0.01)


def test_frontier_privacy_coordinate_poisson(million_table):
    job = SynthesisJob(CountModelSpec("poisson"), master_seed=6)
    syn = synthesize(million_table, job)[0]
    point = frontier_point(million_table, syn, overlaps=[1.0], label="poisson")
    assert point.privacy == pytest.approx(1.0 - 0.689, abs=0.01)


def test_empirical_tau3_unique_rate(million_table):
    job = SynthesisJob(CountModelSpec("poisson"), master_seed=8)
    syn = synthesize(million_table, job)[0]
    rep = tau_empirical(million_table, syn, k_report=1)
    # published single-run value 0.3674 against exp(-1) = 0.3679
    assert rep.tau3[1] == pytest.approx(math.exp(-1), abs=0.005)
