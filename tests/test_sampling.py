import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from satsynth.errors import ValidationError
from satsynth.models import moments, pmf_range, truncation_for_mass
from satsynth.sampling import (
    SLOTS_PER_DRAW,
    draw_counts,
    poisson_inverse,
    sample,
    uniform_block,
)

from oracles import chisq_pvalue_from_draws

DRAWS = 1_000_000
GRID = [
    ("poisson", 0.5, 0.0),
    ("poisson", 5.0, 0.0),
    ("poisson", 25.0, 0.0),
    ("nbi", 0.5, 1.0),
    ("nbi", 5.0, 0.5),
    ("nbi", 12.0, 3.0),
    ("pig", 0.5, 1.0),
    ("pig", 5.0, 0.5),
    ("pig", 12.0, 3.0),
]


def test_uniform_block_is_positional():
    a = uniform_block(42, 0, 0, 100)
    b = uniform_block(42, 0, 37, 10)
    np.testing.assert_array_equal(a[37:47], b)
    c = uniform_block(42, 1, 0, 100)
    assert not np.array_equal(a, c)  # replicate key changes the stream


def test_uniform_block_range_and_shape():
    u = uniform_block(7, 3, 1000, 500)
    assert u.shape == (500, SLOTS_PER_DRAW)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_poisson_inverse_matches_scipy_ppf():
    rng = np.random.default_rng(11)
    u = rng.random(50_000)
    lam = rng.uniform(0.001, 200.0, u.size)
    ours = poisson_inverse(u, lam)
    ref = stats.poisson.ppf(u, lam).astype(np.int64)
    assert np.array_equal(ours, ref)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(60.0, 1e8, exclude_min=True))
def test_poisson_inverse_equals_scipy_ppf_at_large_means(u, lam):
    assert poisson_inverse(np.array([u]), np.array([lam]))[0] == max(stats.poisson.ppf(u, lam), 0.0)


def test_poisson_inverse_degenerate_and_extreme():
    assert poisson_inverse(np.array([0.3]), np.array([0.0]))[0] == 0
    hi = poisson_inverse(np.array([1.0 - 2.0**-53]), np.array([1.0]))[0]
    assert hi >= 15  # far tail reached, no stall


def test_poisson_inverse_zero_uniform_is_zero_at_large_means():
    # scipy's ppf(0, lam) is -1, which leaked through above the loop cut
    lam = np.array([0.5, 60.0, 61.0, 740.0, 1e6])
    np.testing.assert_array_equal(poisson_inverse(np.zeros(lam.size), lam), 0)
    u = np.array([2.0**-53, 0.5, 1.0 - 2.0**-53])
    ours = poisson_inverse(np.repeat(u, lam.size), np.tile(lam, u.size))
    np.testing.assert_array_equal(ours, stats.poisson.ppf(np.repeat(u, lam.size), np.tile(lam, u.size)))


def test_zero_mean_always_zero():
    rng = np.random.default_rng(0)
    for fam in ("poisson", "nbi", "pig"):
        out = sample(fam, 0.0, 1.0, rng, size=1000)
        assert not out.any()


def test_nbi_sample_mean_clt_bound():
    rng = np.random.default_rng(202)
    out = sample("nbi", 5.0, 0.5, rng, size=DRAWS)
    se = math.sqrt(17.5 / DRAWS)
    assert abs(out.mean() - 5.0) < 3 * se


def test_pig_zero_frequency_matches_pmf():
    rng = np.random.default_rng(303)
    out = sample("pig", 1.0, 1.0, rng, size=DRAWS)
    p0 = math.exp(1.0 - math.sqrt(3.0))
    se = math.sqrt(p0 * (1 - p0) / DRAWS)
    assert abs((out == 0).mean() - p0) < 3 * se


def _stable_seed(*parts) -> int:
    return zlib.crc32(repr(parts).encode())


@pytest.mark.parametrize("family,mu,sigma", GRID)
def test_sampler_chi_square_against_pmf(family, mu, sigma):
    rng = np.random.default_rng(_stable_seed(family, mu, sigma))
    draws = sample(family, mu, sigma, rng, size=DRAWS)
    kstar = truncation_for_mass(family, mu, sigma, tail=1e-12)
    probs = pmf_range(family, kstar, mu, sigma)
    _, _, pval = chisq_pvalue_from_draws(draws, probs)
    assert pval > 0.001, (family, mu, sigma, pval)


@pytest.mark.parametrize("family,mu,sigma", GRID)
def test_sample_moments_match(family, mu, sigma):
    rng = np.random.default_rng(_stable_seed("mom", family, mu, sigma))
    draws = sample(family, mu, sigma, rng, size=DRAWS).astype(np.float64)
    mean, var = moments(family, mu, sigma)
    # exact fourth central moment from the pmf gives the variance-of-variance
    kstar = truncation_for_mass(family, mu, sigma, tail=1e-12)
    probs = pmf_range(family, kstar, mu, sigma)
    ks = np.arange(probs.size)
    m4 = float(np.dot((ks - mean) ** 4, probs))
    se_mean = math.sqrt(var / DRAWS)
    se_var = math.sqrt(max(m4 - var**2, 0.0) / DRAWS)
    assert abs(draws.mean() - mean) < 4 * se_mean
    assert abs(draws.var() - var) < 4 * se_var


def test_draw_counts_validates_shapes():
    with pytest.raises(ValidationError):
        draw_counts("poisson", np.ones(3), 0.0, np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        draw_counts("poisson", -np.ones(3), 0.0, np.zeros((3, SLOTS_PER_DRAW)))


def test_scalar_sample_is_int():
    rng = np.random.default_rng(1)
    val = sample("poisson", 2.0, 0.0, rng)
    assert isinstance(val, int)
