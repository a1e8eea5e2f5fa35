"""Property tests: every analytic tau route agrees with the one pmf.

Sizes stay below 60 so that no mass underflows; the PIG dispersion stays
above 1e-3, where its 1/sigma - c cancellation costs less than 1e-12.
Across the whole dispersion range the routes give finite values or typed
errors.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satsynth.errors import SatsynthError, UndefinedResultError
from satsynth.models import pmf, pmf_range
from satsynth.table import CellSizeDistribution
from satsynth.taumetrics import TauCurve, tau1_expected, tau4_expected, tau_analytic
from satsynth.tuning import alpha_star_match_zeros

from oracles import tau1_full_vector, tau4_full_vector, tau4_reduced

size_counts = st.dictionaries(
    st.integers(0, 60), st.integers(1, 10_000), min_size=1, max_size=12
)


@st.composite
def models(draw):
    family = draw(st.sampled_from(["poisson", "nbi", "pig"]))
    if family == "poisson":
        sigma = 0.0
    else:
        low = 1e-9 if family == "nbi" else 1e-3
        sigma = draw(st.one_of(st.just(0.0), st.floats(low, 20.0)))
    alpha = draw(st.one_of(st.just(0.0), st.floats(1e-6, 2.0)))
    return family, sigma, alpha


@settings(max_examples=60, deadline=None)
@given(models(), st.lists(st.floats(0.0, 80.0), min_size=1, max_size=8), st.integers(0, 40))
def test_pmf_range_matrix_equals_its_columns(model, means, k_max):
    family, sigma, _ = model
    mat = pmf_range(family, k_max, np.array(means), sigma)
    assert mat.shape == (k_max + 1, len(means))
    for j, mu in enumerate(means):
        np.testing.assert_allclose(mat[:, j], pmf_range(family, k_max, mu, sigma), rtol=1e-14, atol=0)


@settings(max_examples=60, deadline=None)
@given(size_counts, models(), st.integers(0, 6))
def test_tau_analytic_rows_equal_scalar_routes(counts, model, k_report):
    family, sigma, alpha = model
    dist = CellSizeDistribution.from_counts(counts)
    rep = tau_analytic(dist, family, sigma, alpha, k_report=k_report)
    for i, k in enumerate(rep.ks):
        k = int(k)
        assert rep.tau1[i] == pytest.approx(tau1_expected(dist, family, sigma, alpha, k), rel=1e-13, abs=1e-300)
        assert rep.tau2[i] == dist.proportion(k)
        assert rep.tau3[i] == pmf(family, k, alpha if k == 0 else k, sigma)
        try:
            tau4 = tau4_expected(dist, family, sigma, alpha, k)
        except UndefinedResultError:
            assert np.isnan(rep.tau4[i])
        else:
            assert rep.tau4[i] == pytest.approx(tau4, rel=1e-13, abs=1e-300)


@settings(max_examples=80, deadline=None)
@given(size_counts, models(), st.integers(0, 6))
def test_bayes_and_reduced_tau4_agree(counts, model, k):
    family, sigma, alpha = model
    dist = CellSizeDistribution.from_counts(counts)
    try:
        bayes = tau4_expected(dist, family, sigma, alpha, k)
    except UndefinedResultError:
        with pytest.raises(UndefinedResultError):
            tau4_reduced(dist, family, sigma, alpha, k)
        return
    reduced = tau4_reduced(dist, family, sigma, alpha, k)
    assert reduced == pytest.approx(bayes, rel=1e-10, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(
    size_counts,
    st.sampled_from(["poisson", "nbi", "pig"]),
    st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
    st.lists(st.one_of(st.just(0.0), st.floats(-300.0, 6.0).map(lambda e: 10.0**e)), min_size=1, max_size=4),
    st.integers(0, 3),
)
def test_tau_curve_equals_a_full_pmf_vector_per_alpha(counts, family, sigma, alphas, k):
    dist = CellSizeDistribution.from_counts(counts)
    curve = TauCurve(dist, family, sigma, k)
    for alpha in alphas:
        assert curve.tau1(alpha) == tau1_full_vector(dist, family, sigma, alpha, k)
        try:
            tau4 = tau4_full_vector(dist, family, sigma, alpha, k)
        except UndefinedResultError:
            with pytest.raises(UndefinedResultError):
                curve.tau4(alpha)
        else:
            assert curve.tau4(alpha) == tau4


def _finite_or_typed(call):
    """``call()``, or None when it raises a SatsynthError; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except SatsynthError:
            return None


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["nbi", "pig"]),
    st.one_of(st.just(0.0), st.floats(math.log10(5e-324), math.log10(1.7e308)).map(lambda e: 10.0**e)),
    size_counts,
    st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
)
@example(family="pig", sigma=1e-309, counts={0: 1}, alpha=0.0)  # 1/sigma overflowed to inf - inf
def test_extreme_dispersion_gives_finite_values_or_typed_errors(family, sigma, counts, alpha):
    dist = CellSizeDistribution.from_counts(counts)
    mass = _finite_or_typed(lambda: pmf(family, np.arange(6)[:, None], [0.0, alpha, 1.0, 740.0], sigma))
    assert mass is None or np.all(np.isfinite(mass))
    alpha_star = _finite_or_typed(lambda: alpha_star_match_zeros(dist, family, sigma))
    assert alpha_star is None or math.isfinite(alpha_star)
    rep = _finite_or_typed(lambda: tau_analytic(dist, family, sigma, alpha, k_report=3))
    if rep is not None:
        assert np.all(np.isfinite([rep.tau1, rep.tau2, rep.tau3]))
        assert np.all(np.isfinite(rep.tau4) | (rep.tau1 == 0.0))
