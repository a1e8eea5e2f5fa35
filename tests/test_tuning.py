import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from satsynth.errors import ConvergenceError, InfeasibleError, ValidationError
from satsynth.generator import esc_like_spec, generate_table
from satsynth.table import CellSizeDistribution
from satsynth.taumetrics import tau1_expected, tau2_of_table, tau4_expected, tau_analytic
from satsynth.tuning import TuningResult, alpha_star_match_zeros, solve_alpha_for_tau4_target
from test_taumetrics import table2_reference_dist

HALF = CellSizeDistribution.from_proportions({0: 0.5, 1: 0.5})


def test_poisson_zero_match_closed_form():
    alpha = alpha_star_match_zeros(HALF, "poisson", 0.0)
    assert alpha == pytest.approx(-math.log(1 - math.exp(-1)), rel=1e-12)
    assert alpha == pytest.approx(0.458675, abs=1e-6)


def test_nbi_zero_match_hand_value():
    # s = (1/0.5) * (1+1)^(-1) * 0.5 = 0.5; alpha* = (1-s)^(-1) - 1 = 1
    assert alpha_star_match_zeros(HALF, "nbi", 1.0) == pytest.approx(1.0, rel=1e-12)


def test_zero_match_with_no_nonzero_cells():
    empty = CellSizeDistribution.from_proportions({0: 1.0})
    for fam, sigma in (("poisson", 0.0), ("nbi", 2.0), ("pig", 2.0)):
        assert alpha_star_match_zeros(empty, fam, sigma) == 0.0


def test_zero_match_roundtrip_random_distributions():
    rng = np.random.default_rng(12)
    for trial in range(50):
        support = rng.integers(1, 9)
        props = rng.dirichlet(np.ones(support + 1))
        props[0] = props[0] + 0.5  # keep plenty of zeros so targets are feasible
        props /= props.sum()
        dist = CellSizeDistribution.from_proportions(
            {k: float(p) for k, p in enumerate(props)}
        )
        for fam, sigma in (("poisson", 0.0), ("nbi", 0.7), ("pig", 1.3)):
            alpha = alpha_star_match_zeros(dist, fam, sigma)
            assert alpha >= 0.0
            t10 = tau1_expected(dist, fam, sigma, alpha, 0)
            assert t10 == pytest.approx(dist.proportion(0), abs=1e-10), (fam, trial)


def test_zero_match_infeasible_no_zeros():
    with pytest.raises(InfeasibleError, match="tau2"):
        alpha_star_match_zeros(CellSizeDistribution.from_proportions({1: 1.0}), "poisson")


def test_zero_match_infeasible_too_few_zeros():
    thin = CellSizeDistribution.from_proportions({0: 0.01, 1: 0.99})
    with pytest.raises(InfeasibleError, match="shrink"):
        alpha_star_match_zeros(thin, "poisson", 0.0)


def test_sigma_limit_matches_poisson():
    pois = alpha_star_match_zeros(HALF, "poisson", 0.0)
    for fam in ("nbi", "pig"):
        near = alpha_star_match_zeros(HALF, fam, 1e-9)
        assert near == pytest.approx(pois, abs=1e-6)


def test_tau4_target_no_zero_cells_alpha_irrelevant():
    ones = CellSizeDistribution.from_proportions({1: 1.0})
    for fam in ("poisson", "nbi", "pig"):
        res = solve_alpha_for_tau4_target(ones, fam, 0.0, 1.0)
        assert res.alpha_star == 0.0
        assert abs(res.residual) <= 1e-10


def test_tau4_target_against_fine_grid_scan():
    dist = CellSizeDistribution.from_proportions({0: 0.9, 1: 0.1})
    p = 0.5
    res = solve_alpha_for_tau4_target(dist, "poisson", 0.0, p)

    # independent oracle: direct algebraic scan of the target equation
    grid = np.linspace(0.0, 0.2, 2_000_001)
    f = (math.exp(-1) * 0.1) / (grid * np.exp(-grid) * 0.9 + math.exp(-1) * 0.1)
    i = int(np.searchsorted(-f, -p))  # f decreasing
    a0, a1 = grid[i - 1], grid[i]
    f0, f1 = f[i - 1], f[i]
    alpha_scan = a0 + (f0 - p) / (f0 - f1) * (a1 - a0)
    assert res.alpha_star == pytest.approx(alpha_scan, abs=1e-8)


def test_tau4_target_roundtrip_all_families():
    rng = np.random.default_rng(99)
    for fam, sigma in (("poisson", 0.0), ("nbi", 1.0), ("pig", 0.5)):
        for _ in range(10):
            props = rng.dirichlet([8.0, 1.0, 0.5, 0.25])
            dist = CellSizeDistribution.from_proportions(
                {k: float(p) for k, p in enumerate(props)}
            )
            # take the target from a known pseudocount inside the monotone
            # region, then require the solver to reproduce it
            alpha_true = float(rng.uniform(0.01, 0.6))
            p = tau4_expected(dist, fam, sigma, alpha_true, 1)
            res = solve_alpha_for_tau4_target(dist, fam, sigma, p)
            achieved = tau4_expected(dist, fam, sigma, res.alpha_star, 1)
            assert achieved == pytest.approx(p, abs=1e-9), (fam, sigma)
            assert res.alpha_star == pytest.approx(alpha_true, abs=1e-6)


def test_tau4_target_infeasible_above_maximum():
    dist = CellSizeDistribution.from_proportions({0: 0.5, 1: 0.25, 2: 0.25})
    top = tau4_expected(dist, "poisson", 0.0, 0.0, 1)
    with pytest.raises(InfeasibleError, match="achievable maximum"):
        solve_alpha_for_tau4_target(dist, "poisson", 0.0, min(top * 1.5, 0.999))


def test_tau4_target_below_monotone_region_aborts():
    dist = CellSizeDistribution.from_proportions({0: 0.9, 1: 0.1})
    # the alpha-term weight peaks and turns; targets below the dip abort
    with pytest.raises(InfeasibleError, match="stopped decreasing|no bracket"):
        solve_alpha_for_tau4_target(dist, "poisson", 0.0, 0.05)


@pytest.mark.parametrize("sigma", [1e4, 1e8, 1e160])
def test_tau4_target_met_when_alpha_star_is_tiny(sigma):
    # an absolute bracket-width stop returned residuals -8.0e-9, 3.8e-5 and -0.265 here
    res = solve_alpha_for_tau4_target(table2_reference_dist(), "nbi", sigma, 0.3)
    assert abs(res.residual) <= 1e-10
    assert res.alpha_star > 0.0


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
def test_tau4_target_refuses_a_tolerance_outside_its_domain(tol):
    # inf returned alpha* = 0 with a residual of 0.43 as a success; nan and -1 bisected to float
    # resolution and raised a ConvergenceError
    with pytest.raises(ValidationError, match="^tol must be finite and >= 0$"):
        solve_alpha_for_tau4_target(table2_reference_dist(), "nbi", 1.0, 0.3, tol=tol)


@pytest.mark.parametrize("p", [True, np.True_, "0.3", None])
def test_tau4_target_refuses_a_p_that_is_not_a_number(p):
    # True was taken as p = 1 and written to the result's JSON as "p": true; "0.3" raised a raw TypeError
    with pytest.raises(ValidationError, match=r"^p must lie in \(0, 1\]$"):
        solve_alpha_for_tau4_target(HALF, "poisson", 0.0, p)


def test_tau4_target_out_of_float_reach_is_a_convergence_error():
    with pytest.raises(ConvergenceError, match="cannot be split"):
        solve_alpha_for_tau4_target(table2_reference_dist(), "nbi", 1.0, 0.3, tol=0.0)


@pytest.fixture(scope="module")
def esc_full_dist():
    return tau2_of_table(generate_table(esc_like_spec(), 1))


# alpha* and bisection steps of the benchmark's tune units at tau4(1) = 0.3;
# any change to the tau4 evaluation or the bisection shows up here
TAU4_PINS = {
    ("poisson", 0.0): ("0.02722077927319333", 35),
    ("nbi", 0.5): ("0.018958522705361247", 33),
    ("nbi", 1.0): ("0.014345502044307068", 36),
    ("nbi", 2.0): ("0.009361602686112747", 36),
    ("pig", 0.5): ("0.01999050864833407", 36),
    ("pig", 1.0): ("0.01631791569525376", 35),
    ("pig", 2.0): ("0.012221954020787962", 37),
}
MATCH_ZEROS_PINS = {
    ("poisson", 0.0): "0.01700042047287631",
    ("nbi", 1.0): "0.03133337288486704",
    ("pig", 1.0): "0.027358464858548648",
}

@pytest.mark.parametrize("family,sigma", list(TAU4_PINS))
def test_tau4_target_pins_on_full_scale_histogram(esc_full_dist, family, sigma):
    res = solve_alpha_for_tau4_target(esc_full_dist, family, sigma, 0.3)
    assert (repr(res.alpha_star), res.iterations) == TAU4_PINS[family, sigma]


@pytest.mark.parametrize("family,sigma", list(MATCH_ZEROS_PINS))
def test_match_zeros_pins_on_full_scale_histogram(esc_full_dist, family, sigma):
    assert repr(alpha_star_match_zeros(esc_full_dist, family, sigma)) == MATCH_ZEROS_PINS[family, sigma]


# tau_analytic's report at each tune unit's pinned alpha*, as [k, tau1, tau2, tau3, tau4] rows (null: NaN), keyed
# "family sigma k_report"; written on an x86 host with numpy's AVX-512 loops on.  Those loops' log, exp and log1p
# differ from the baseline's in the last bit, which moves a report's floats by up to 2.3e-13 relative (README,
# Reproducibility model), so each is pinned within REPORT_RTOL: 20 times inside the pmf's 2e-11 error budget
ANALYTIC_REPORT_PINS = json.loads(Path(__file__).with_name("analytic_report_pins.json").read_text())
REPORT_RTOL = 1e-12


def assert_report_pinned(report, key):
    got = [[row["k"], row["tau1"], row["tau2"], row["tau3"], row["tau4"]] for row in report.to_rows()]
    want = np.array(ANALYTIC_REPORT_PINS[key], dtype=np.float64)  # null reads as NaN
    np.testing.assert_allclose(np.array(got), want, rtol=REPORT_RTOL, atol=0.0, equal_nan=True, err_msg=key)


@pytest.mark.parametrize("family,sigma", list(TAU4_PINS))
def test_analytic_report_pins_on_full_scale_histogram(esc_full_dist, family, sigma):
    alpha = float(TAU4_PINS[family, sigma][0])
    assert_report_pinned(tau_analytic(esc_full_dist, family, sigma, alpha, k_report=3), f"{family} {sigma} 3")


# the same for PIG at k_report = 200, where tau1 reads the Bessel ladder at 201 orders
# x every mean of the histogram and tau3 at 201 (order, argument) pairs
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_pig_analytic_report_pins_at_k_report_200(esc_full_dist, sigma):
    alpha = float(TAU4_PINS["pig", sigma][0])
    assert_report_pinned(tau_analytic(esc_full_dist, "pig", sigma, alpha, k_report=200), f"pig {sigma} 200")


def test_pins_and_draw_digests_hold_with_numpy_dispatch_held_to_its_baseline():
    # a CPU without AVX-512 runs numpy's baseline loops; a child with every dispatch target this CPU has turned
    # off runs the float pins above and the stream digests of test_synthesis.py as such a CPU would
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    if not targets:
        pytest.skip("numpy dispatches no target on this CPU beyond its baseline")
    tests = Path(__file__).parent
    pinned = [f"{tests / 'test_tuning.py'}::{name}" for name in (
        "test_tau4_target_pins_on_full_scale_histogram", "test_match_zeros_pins_on_full_scale_histogram",
        "test_analytic_report_pins_on_full_scale_histogram", "test_pig_analytic_report_pins_at_k_report_200")]
    pinned += [f"{tests / 'test_synthesis.py'}::test_stream_v{v}_draws_do_not_drift" for v in (1, 2)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    active = "import numpy._core._multiarray_umath as m; print([k for k, on in m.__cpu_features__.items() if on" \
             " and k in m.__cpu_dispatch__])"
    assert subprocess.run([sys.executable, "-c", active], env=env, capture_output=True, text=True,
                          timeout=60).stdout == "[]\n"
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pinned],
                           env=env, cwd=tests.parent, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]


def test_tuning_result_json_bytes_with_and_without_p():
    # `satsynth tune` prints these bytes; p is left out when it is None
    with_p = TuningResult("nbi", 1.0, "tau4-equals", 0.25, -1e-12, 31, 0.3).to_json()
    assert with_p == ('{\n  "family": "nbi",\n  "sigma": 1.0,\n  "target": "tau4-equals",\n  "alpha_star": 0.25,'
                      '\n  "residual": -1e-12,\n  "iterations": 31,\n  "p": 0.3\n}')
    without_p = TuningResult("poisson", 0.0, "match-zeros", 0.458675, 0.0, 0).to_json()
    assert without_p == ('{\n  "family": "poisson",\n  "sigma": 0.0,\n  "target": "match-zeros",'
                         '\n  "alpha_star": 0.458675,\n  "residual": 0.0,\n  "iterations": 0\n}')
