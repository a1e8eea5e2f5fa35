import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from satsynth import models
from satsynth.errors import ValidationError
from satsynth.models import (
    MAX_PMF_ENTRIES,
    CountModelSpec,
    Family,
    LogPmf,
    _log_gamma,
    logpmf,
    pig_c,
    pmf,
    pmf_range,
)
from satsynth.sampling import SLOTS_PER_DRAW, draw_counts
from satsynth.table import CellSizeDistribution
from satsynth.taumetrics import tau1_expected, tau4_expected, tau_analytic
from satsynth.tuning import alpha_star_match_zeros, solve_alpha_for_tau4_target

from oracles import logpmf_v1, moments, nbi_pmf_direct, pig_pmf_quadrature, pmf_exact, truncation_for_mass


def test_poisson_pmf_one_given_one():
    assert pmf("poisson", 1, 1.0) == pytest.approx(math.exp(-1), rel=1e-14)


def test_degenerate_zero_mean_all_families():
    for fam in Family:
        assert pmf(fam, 0, 0.0, 1.0) == 1.0
        assert pmf(fam, 3, 0.0, 1.0) == 0.0


def test_nbi_pmf_zero_given_one():
    # (1/(1 + sigma*mu))^(1/sigma) at sigma=1, mu=1
    assert pmf("nbi", 0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_nbi_pmf_matches_independent_form():
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(0, 30))
        mu = float(rng.uniform(0.01, 20))
        sigma = float(rng.uniform(0.05, 8))
        assert pmf("nbi", k, mu, sigma) == pytest.approx(
            nbi_pmf_direct(k, mu, sigma), rel=1e-12
        )


def test_pig_pmf_zero_given_one_against_quadrature():
    # exp(1/sigma - c) with c = sqrt(3); quadrature of the mixture agrees
    val = pmf("pig", 0, 1.0, 1.0)
    assert val == pytest.approx(math.exp(1.0 - math.sqrt(3.0)), rel=1e-14)
    assert val == pytest.approx(pig_pmf_quadrature(0, 1.0, 1.0), rel=1e-9)
    assert val == pytest.approx(0.480922, abs=5e-7)


def test_pig_pmf_grid_against_quadrature():
    for k in (0, 1, 2, 5, 11):
        for mu, sigma in ((0.5, 0.3), (1.0, 1.0), (4.0, 2.0), (9.0, 0.1)):
            assert pmf("pig", k, mu, sigma) == pytest.approx(
                pig_pmf_quadrature(k, mu, sigma), rel=1e-8
            ), (k, mu, sigma)


def test_pmf_normalizes_all_families():
    for fam, sigma in (("poisson", 0.0), ("nbi", 1.0), ("nbi", 10.0), ("pig", 1.0), ("pig", 10.0)):
        for mu in (0.02, 1.0, 8.0, 50.0):
            kstar = truncation_for_mass(fam, mu, sigma, tail=1e-9)
            total = pmf_range(fam, kstar, mu, sigma).sum()
            assert total >= 1 - 1e-9, (fam, sigma, mu)
            assert total <= 1 + 1e-9


def test_poisson_limit_of_two_parameter_families():
    ks = np.arange(0, 51)
    for mu in (0.5, 5.0, 20.0):
        base = pmf("poisson", ks, mu)
        for fam in ("nbi", "pig"):
            near = pmf(fam, ks, mu, 1e-8)
            assert np.max(np.abs(near - base)) < 1e-6, (fam, mu)


def test_sigma_zero_dispatches_to_poisson():
    ks = np.arange(0, 20)
    for fam in ("nbi", "pig"):
        np.testing.assert_allclose(pmf(fam, ks, 3.0, 0.0), pmf("poisson", ks, 3.0))
    assert CountModelSpec("nbi", sigma=0.0).effective_family is Family.POISSON


@pytest.mark.parametrize("sigma", [1e-310, 5e-324])
def test_nbi_sigma_with_infinite_inverse_is_the_poisson_limit(sigma):
    # 1/sigma is inf here; the NBI shape factor gave [1, nan, nan]
    ks, means = [0, 1, 5], [0.0, 3.0, 740.0]
    assert np.array_equal(pmf("nbi", ks, means, sigma), pmf("poisson", ks, means))


@pytest.mark.parametrize("sigma", [10**400, -1, -1e-300, math.nan, math.inf], ids=["10**400", "-1", "-1e-300", "nan", "inf"])
@pytest.mark.parametrize("family", ["poisson", "nbi", "pig"])
def test_sigma_outside_its_domain_is_refused_by_every_entry(family, sigma):
    # effective_family owns the check; an int beyond the float range raised a raw
    # OverflowError (int too large to convert to float) from pmf, draw_counts and alpha*
    dist = CellSizeDistribution.from_proportions({0: 0.5, 1: 0.5})
    entries = [
        lambda: pmf(family, 1, 1.0, sigma),
        lambda: draw_counts(family, [1.0], sigma, np.zeros((1, SLOTS_PER_DRAW))),
        lambda: alpha_star_match_zeros(dist, family, sigma),
        lambda: solve_alpha_for_tau4_target(dist, family, sigma, 0.5),
    ]
    for entry in entries:
        with pytest.raises(ValidationError, match="^sigma must be finite and >= 0$"):
            entry()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [math.inf, 1e300, 2**63, 2**70, [1, 2**70]], ids=["inf", "1e300", "2**63", "2**70", "[1, 2**70]"])
@pytest.mark.parametrize("family", ["poisson", "nbi", "pig"])
def test_counts_outside_int64_are_refused_before_the_cast(family, k):
    # inf and 1e300 were cast to int64 (RuntimeWarning: invalid value) and called
    # negative, 2**63 wrapped to -2**63, and 2**70 raised a raw OverflowError
    with pytest.raises(ValidationError, match=r"^counts must be integers >= 0 and below 2\*\*63$"):
        logpmf(family, k, 1.0, 1.0)


@pytest.mark.parametrize("k_max", [2.5, 2**70, math.inf, math.nan], ids=["2.5", "2**70", "inf", "nan"])
def test_pmf_range_refuses_a_k_max_it_cannot_tabulate(k_max):
    # 2.5 gave the pmf over 0..3; 2**70, inf and nan raised numpy's raw ValueError from arange
    with pytest.raises(ValidationError, match="k_max"):
        pmf_range("poisson", k_max, 1.0)


def test_pmf_range_refuses_a_table_over_max_pmf_entries_before_any_pmf(monkeypatch):
    def no_pmf(*args):
        raise AssertionError("pmf evaluated")

    monkeypatch.setattr(models, "pmf", no_pmf)
    means = np.ones(2**13 + 1)
    for k_max in (2**13 - 1, 2**13):  # (k_max + 1) x means: 2**26 + 2**13 and 2**26 + 2**14 + 1 entries
        with pytest.raises(ValidationError, match=f"tops {MAX_PMF_ENTRIES} entries"):
            pmf_range("poisson", k_max, means)
    with pytest.raises(ValidationError, match=f"tops {MAX_PMF_ENTRIES} entries"):
        pmf_range("poisson", MAX_PMF_ENTRIES, 1.0)
    with pytest.raises(AssertionError, match="pmf evaluated"):  # 8,191 x 8,193 entries, just under the bound
        pmf_range("poisson", 2**13 - 2, means)


def test_moments_values():
    assert moments("nbi", 5.0, 0.5) == (5.0, pytest.approx(17.5))
    assert moments("poisson", 3.0) == (3.0, 3.0)
    assert moments("pig", 2.0, 2.0) == (2.0, pytest.approx(10.0))


def test_logpmf_matches_log_of_pmf():
    ks = np.arange(0, 15)
    for fam, sigma in (("poisson", 0.0), ("nbi", 0.7), ("pig", 0.7)):
        lp = logpmf(fam, ks, 2.5, sigma)
        np.testing.assert_allclose(np.exp(lp), pmf(fam, ks, 2.5, sigma), rtol=1e-12)


def test_pig_c_definition_and_bounds():
    assert pig_c(1.0, 1.0) == pytest.approx(math.sqrt(3.0))
    assert pig_c(0.0, 2.0) == pytest.approx(0.5)
    for mu, sigma in ((0.1, 0.2), (50.0, 10.0)):
        assert pig_c(mu, sigma) >= 1.0 / sigma


def test_pig_c_refuses_nan_mean():
    # returned NaN, which the Bessel ladder then carried into the pmf
    with pytest.raises(ValidationError):
        pig_c(math.nan, 1.0)


def test_pig_c_refuses_infinite_mean():
    # returned inf
    with pytest.raises(ValidationError):
        pig_c(np.array([1.0, math.inf]), 1.0)


def test_pig_c_overflowed_by_the_mean_names_the_mean():
    # blamed sigma = 1 ("sigma must be > 0 and keep the PIG auxiliary c in float64, got 1")
    for call in (lambda: pig_c(1e308, 1.0), lambda: logpmf("pig", 1, [1.0, 1e308], 1.0)):
        with pytest.raises(ValidationError, match=r"^mu = 1e\+308 overflows the PIG auxiliary c at sigma = 1$"):
            call()
    with pytest.raises(ValidationError, match="^sigma must be > 0"):  # c overflows at every mean
        pig_c(1.0, 1e-160)


def test_input_validation():
    with pytest.raises(ValidationError):
        pmf("poisson", -1, 1.0)
    with pytest.raises(ValidationError):
        pmf("poisson", 1, -1.0)
    with pytest.raises(ValidationError):
        pmf("nbi", 1, 1.0, -0.5)
    with pytest.raises(ValidationError):
        moments("poisson", -2.0)
    with pytest.raises(ValidationError):
        Family.coerce("weibull")
    with pytest.raises(ValidationError):
        CountModelSpec("poisson", alpha=-0.1)


@pytest.mark.parametrize("mu", [0.5, 5.0, 740.0])
@pytest.mark.parametrize("sigma", [1e-12, 1e-9, 1e-7, 1e-5, 1e-2, 1.0])
def test_nbi_mass_and_mean_stable_as_sigma_vanishes(sigma, mu):
    # log-gamma differences at shape 1/sigma cancel; the mass drifted by
    # +1.9e-6 at sigma=1e-9, mu=5 before the shape factor was rewritten
    k_max = int(mu + 40.0 * math.sqrt(mu + sigma * mu**2) + 100.0)
    probs = pmf_range("nbi", k_max, mu, sigma)
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert abs(np.arange(k_max + 1) @ probs - mu) <= 1e-10 * mu


def test_pmf_range_array_of_means():
    means = np.array([0.0, 0.3, 4.0, 60.0])
    for fam, sigma in (("poisson", 0.0), ("nbi", 0.7), ("pig", 0.7), ("pig", 0.0)):
        mat = pmf_range(fam, 80, means, sigma)
        assert mat.shape == (81, means.size)
        for j, mu in enumerate(means):
            np.testing.assert_array_equal(mat[:, j], pmf_range(fam, 80, float(mu), sigma))
        np.testing.assert_array_equal(mat[:, 0], np.eye(81)[0])
    assert pmf_range("pig", 5, 2.0, 1.0).shape == (6,)
    with pytest.raises(ValidationError):
        pmf_range("poisson", 3, np.ones((2, 2)))


def test_truncation_for_mass_rejects_unresolvable_tail():
    # the Poisson(740) float sum levels off at 1 - 1.7e-13; doubling the
    # truncation point used to run on until MemoryError
    with pytest.raises(ValidationError, match="stalls"):
        truncation_for_mass("poisson", 740.0, tail=1e-15)
    with pytest.raises(ValidationError):
        truncation_for_mass("nbi", 5.0, 1.0, tail=0.0)
    assert truncation_for_mass("poisson", 740.0, tail=1e-12) < 2_000


@pytest.mark.parametrize("sigma", [1e-3, 1e-5, 1e-7, 1e-9, 1e-12])
def test_pig_mass_and_mean_exact_as_sigma_vanishes(sigma):
    # 1/sigma used to be added to a log K_{k-1/2}(c) carrying -c, c ~ 1/sigma,
    # which lost c * eps: the mass was off by -6.8e-10 at sigma = 1e-7 and
    # by -1.05e-4 at sigma = 1e-12
    mu = 5.0
    k_max = int(mu + 40.0 * math.sqrt(mu + sigma * mu**2) + 100.0)
    probs = pmf_range("pig", k_max, mu, sigma)
    assert abs(probs.sum() - 1.0) <= 1e-14
    assert abs(np.arange(k_max + 1) @ probs - mu) <= 1e-13 * mu


@pytest.mark.parametrize("sigma", [1e-12, 1e-9])
def test_pig_truncation_resolves_as_sigma_vanishes(sigma):
    # each of these used to stall short of 1 - 1e-12
    for mu in (1e-4, 0.01, 1.0, 5.0, 740.0):
        k_max = truncation_for_mass("pig", mu, sigma, tail=1e-12)
        assert k_max == truncation_for_mass("poisson", mu, tail=1e-12), mu


def test_pig_logpmf_and_pmf_range_agree_bit_for_bit():
    means = np.array([0.0, 0.02, 1.0, 7.5, 740.0])
    for sigma in (1e-9, 0.5, 30.0):
        log_grid = logpmf("pig", np.arange(61)[:, None], means, sigma)
        np.testing.assert_array_equal(pmf_range("pig", 60, means, sigma), np.exp(log_grid))
        for k in (0, 1, 2, 13, 60):
            for j, mu in enumerate(means):
                assert log_grid[k, j] == logpmf("pig", k, float(mu), sigma), (sigma, k, mu)


_SIGMAS = st.one_of(st.just(0.0), st.floats(-12.0, 6.0).map(lambda e: 10.0**e))
_MEANS = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(list(Family)), sigma=_SIGMAS, mu=_MEANS)
def test_pmf_normalises_and_keeps_its_mean(family, sigma, mu):
    # truncation_for_mass doubles from this guess, but the NBI and PIG tails
    # decay like exp(-k / (sigma mu)) and exp(-k / (2 sigma mu)), so the search
    # runs on to about 50 sigma mu; both bounds keep an example under a second
    guess = mu + 10.0 * math.sqrt(moments(family, mu, sigma)[1]) + 20.0
    if guess > 2e4 or (family is not Family.POISSON and 60.0 * sigma * mu > 2e4):
        reject()
    try:
        k_max = truncation_for_mass(family, mu, sigma, tail=1e-12)
    except ValidationError as exc:
        if "stalls" not in str(exc):
            raise
        reject()
    probs = pmf_range(family, k_max, mu, sigma)
    assert abs(probs.sum() - 1.0) <= 1e-12 + 4e-15 * mu
    if sigma * mu <= 1.0:
        # the tail past k_max holds up to 1e-12 of mass at counts near k_max
        assert abs(np.arange(k_max + 1) @ probs - mu) <= 1e-10 * mu + 2e-12 * k_max


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_ANY_SIGMA = st.one_of(st.just(0.0), _log_uniform(5e-324, 1.7e308))
_ANY_MEAN = st.one_of(st.just(0.0), _log_uniform(1e-300, 1e12))


def _outcome(f, *args):
    """The log pmf's shape, dtype and bytes, or the ValidationError it raised."""
    try:
        out = np.asarray(f(*args))
    except ValidationError:
        return ValidationError
    return out.shape, out.dtype, out.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@example(family=Family.POISSON, sigma=0.0, k=1, mu=0.02, means=[0.02, 7.5, 740.0])
@example(family=Family.NBI, sigma=1e-3, k=1, mu=0.02, means=[0.02, 7.5, 740.0])  # the Stirling branch
@example(family=Family.PIG, sigma=1.0, k=1, mu=0.02, means=[0.02, 7.5, 740.0])
@given(
    family=st.sampled_from(list(Family)),
    sigma=_ANY_SIGMA,
    k=st.integers(0, 50),
    mu=_ANY_MEAN,
    means=st.lists(_ANY_MEAN, min_size=1, max_size=8),
)
def test_two_stage_logpmf_is_the_one_pass_logpmf_bit_for_bit(family, sigma, k, mu, means):
    assert _outcome(logpmf, family, k, mu, sigma) == _outcome(logpmf_v1, family, k, mu, sigma)
    # every k of 0..50 against the means: a sum regrouped in either stage shows up here
    ks, means = np.arange(51)[:, None], np.array(means)[None, :]
    assert _outcome(logpmf, family, ks, means, sigma) == _outcome(logpmf_v1, family, ks, means, sigma)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
# means whose math.log differs from np.log in the last bit on x86-64 glibc: a point
# evaluation that swapped a numpy ufunc for its math twin would differ here
@example(family=Family.POISSON, k=3, sigma=0.0, mu=165.7208377359313, others=[7.5])
@example(family=Family.NBI, k=1, sigma=1.0, mu=3.0993778518686628, others=[7.5])
@example(family=Family.PIG, k=1, sigma=1.0, mu=479.1466009062319, others=[7.5])
@example(family=Family.PIG, k=2, sigma=0.5, mu=77.46511539248576, others=[0.0])
@given(
    family=st.sampled_from(list(Family)),
    k=st.integers(0, 300),
    sigma=st.one_of(st.just(0.0), _log_uniform(1e-12, 1e6)),
    mu=st.one_of(st.just(0.0), _log_uniform(1e-300, 1e6)),
    others=st.lists(_ANY_MEAN.filter(lambda m: m <= 1e6), min_size=1, max_size=4),
)
def test_point_evaluation_is_the_array_evaluation_bit_for_bit(family, k, sigma, mu, others):
    f = LogPmf(family, k, sigma)
    point = f(np.float64(mu))
    assert type(point) is np.float64  # scalar steps throughout, no 0-d arrays
    for means in ([mu], [mu, *others]):
        assert point.tobytes() == f(np.array(means))[0].tobytes(), means


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 1 / 0.3])
def test_log_gamma_matches_scipy_gammaln_to_rounding(r):
    """The pmf's log-gamma (math.lgamma) against scipy's gammaln on k + r
    for k = 1..200,000: r = 0 gives log k!'s arguments, the others NBI's
    shape factor at sigma = 2, 1, 0.5 and 0.3.  Near log-gamma's zeros at 1
    and 2 the bound is absolute: math.lgamma(2.5) is 4e-16 (1.6e-15 relative)
    from the exact value, where gammaln is within 1e-16."""
    from scipy import special

    x = np.arange(1, 200_001) + r
    ours, ref = _log_gamma(x), special.gammaln(x)
    assert ours.dtype == np.float64 and ours.shape == x.shape
    assert np.all(np.abs(ours - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    assert [_log_gamma(v) for v in x[::10_007].tolist()] == ours[::10_007].tolist()  # the scalar path


_MU_ENTRY_POINTS = {
    "logpmf": lambda mu: logpmf("pig", 1, mu, 1.0),
    "pmf": lambda mu: pmf("nbi", 1, mu, 1.0),
    "pmf_range": lambda mu: pmf_range("poisson", 3, mu),
    "pig_c": lambda mu: pig_c(mu, 1.0),
    "draw_counts": lambda mu: draw_counts("poisson", mu, 0.0, np.zeros((np.size(mu), SLOTS_PER_DRAW))),
}
_DIST = CellSizeDistribution.from_counts({0: 5, 1: 2, 3: 1})
_ALPHA_ENTRY_POINTS = {
    "tau1_expected": lambda alpha: tau1_expected(_DIST, "pig", 1.0, alpha, 1),
    "tau4_expected": lambda alpha: tau4_expected(_DIST, "pig", 1.0, alpha, 1),
    "tau_analytic": lambda alpha: tau_analytic(_DIST, "pig", 1.0, alpha),
}


@pytest.mark.parametrize("mu", [10**400, -(10**400), [1.0, 10**400]], ids=["1e400", "-1e400", "[1, 1e400]"])
@pytest.mark.parametrize("entry", _MU_ENTRY_POINTS)
def test_a_mean_beyond_the_float_range_is_refused(entry, mu):
    # each raised a raw OverflowError from its float cast
    with pytest.raises(ValidationError, match="^mu must be finite and >= 0$"):
        _MU_ENTRY_POINTS[entry](mu)


@pytest.mark.parametrize("entry", _ALPHA_ENTRY_POINTS)
def test_an_alpha_beyond_the_float_range_is_refused(entry):
    # each raised a raw OverflowError from its float cast, after a check that 10**400 passed
    with pytest.raises(ValidationError, match="^alpha must be finite and >= 0$"):
        _ALPHA_ENTRY_POINTS[entry](10**400)


PMF_ERROR_BUDGET = 2e-11  # the worst of about 90,000 random cases in the domain below was 8.1e-12 (NBI)


@settings(max_examples=1000, deadline=None)
@example(family="nbi", sigma=391.5253620876532, mu=107.13759874464569, at=1.0)  # 8.1e-12, k = 1905
@example(family="pig", sigma=219.55854992071738, mu=14.289672308184164, at=1.0)  # 5.7e-12, k = 2000
@example(family="poisson", sigma=20.163093040970782, mu=981.2871762042336, at=0.4)  # 2.1e-12, k = 1219
@given(
    family=st.sampled_from(["poisson", "nbi", "pig"]),
    sigma=st.one_of(st.just(0.0), st.floats(math.log(1e-6), math.log(1e3)).map(math.exp)),
    mu=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
    at=st.floats(0.0, 1.0),
)
def test_pmf_is_within_its_error_budget_of_the_exact_pmf(family, sigma, mu, at):
    # k up to the mean plus 10 SD, at most 2,000; pmf values below 1e-300 are left out
    sd = math.sqrt(mu + (0.0 if family == "poisson" else sigma * mu * mu))
    k = round(at * min(2000, int(mu + 10.0 * sd)))
    exact = pmf_exact(family, k, mu, sigma)
    if exact < decimal.Decimal("1e-300"):
        reject()
    error = abs(decimal.Decimal(pmf(family, k, mu, sigma)) - exact) / exact
    assert error <= PMF_ERROR_BUDGET, (family, k, mu, sigma, float(error))
