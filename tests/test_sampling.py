import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from scipy import special, stats

from satsynth import sampling
from satsynth.errors import ValidationError
from satsynth.models import Family, effective_family, pmf, pmf_range
from satsynth.sampling import (
    _EXP_SLACK,
    _SCREEN_STEPS,
    SLOTS_PER_DRAW,
    _cap_table,
    _inverse_gaussian_from_uniforms,
    draw_counts,
    poisson_inverse,
    uniform_block,
    uniform_rows,
)

from oracles import (
    chisq_pvalue_from_draws,
    draw_counts_unscreened,
    mixing_unscreened,
    moments,
    poisson_inverse_unscreened,
    sample_iid,
    sampler_law,
    truncation_for_mass,
)

TOP = 1.0 - 2.0**-53  # the largest uniform a counter block yields

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


def test_uniform_block_is_the_top_53_bits_of_philox():
    raw = Philox(key=np.array([5, 2], dtype=np.uint64), counter=np.array([9, 0, 0, 0], dtype=np.uint64)).random_raw(
        12 * SLOTS_PER_DRAW
    )
    expected = ((raw >> np.uint64(11)) * 2.0**-53).reshape(12, SLOTS_PER_DRAW)
    np.testing.assert_array_equal(uniform_block(5, 2, 9, 12), expected)


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
        out = sample_iid(fam, 0.0, 1.0, rng, 1000)
        assert not out.any()


def test_nbi_sample_mean_clt_bound():
    rng = np.random.default_rng(202)
    out = sample_iid("nbi", 5.0, 0.5, rng, DRAWS)
    se = math.sqrt(17.5 / DRAWS)
    assert abs(out.mean() - 5.0) < 3 * se


def test_pig_zero_frequency_matches_pmf():
    rng = np.random.default_rng(303)
    out = sample_iid("pig", 1.0, 1.0, rng, DRAWS)
    p0 = math.exp(1.0 - math.sqrt(3.0))
    se = math.sqrt(p0 * (1 - p0) / DRAWS)
    assert abs((out == 0).mean() - p0) < 3 * se


def _stable_seed(*parts) -> int:
    return zlib.crc32(repr(parts).encode())


@pytest.mark.parametrize("family,mu,sigma", GRID)
def test_sampler_chi_square_against_pmf(family, mu, sigma):
    rng = np.random.default_rng(_stable_seed(family, mu, sigma))
    draws = sample_iid(family, mu, sigma, rng, DRAWS)
    kstar = truncation_for_mass(family, mu, sigma, tail=1e-12)
    probs = pmf_range(family, kstar, mu, sigma)
    _, _, pval = chisq_pvalue_from_draws(draws, probs)
    assert pval > 0.001, (family, mu, sigma, pval)


@pytest.mark.parametrize("family,mu,sigma", GRID)
def test_sample_moments_match(family, mu, sigma):
    rng = np.random.default_rng(_stable_seed("mom", family, mu, sigma))
    draws = sample_iid(family, mu, sigma, rng, DRAWS).astype(np.float64)
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


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_draw_counts_refuses_non_finite_sigma(sigma):
    # these used to draw [0 0 0]
    with pytest.raises(ValidationError, match="sigma must be finite"):
        draw_counts("nbi", [1.0, 2.0, 3.0], sigma, np.full((3, SLOTS_PER_DRAW), 0.7))


@pytest.mark.parametrize("family", ["poisson", "nbi", "pig"])
@pytest.mark.parametrize("mu", [np.nan, np.inf, -1.0])
def test_draw_counts_refuses_means_outside_its_domain(family, mu):
    # a NaN mean used to draw 0 in every family
    with pytest.raises(ValidationError, match="mu must be finite"):
        draw_counts(family, [1.0, mu], 1.0, np.full((2, SLOTS_PER_DRAW), 0.7))


@pytest.mark.parametrize("family", ["poisson", "nbi", "pig"])
@pytest.mark.parametrize("slot", range(SLOTS_PER_DRAW))
@pytest.mark.parametrize("bad", [np.nan, -2.0**-1074, 1.0, 1.5])
def test_draw_counts_refuses_uniforms_outside_the_unit_interval(family, slot, bad):
    # a NaN uniform used to draw 0
    u = np.full((2, SLOTS_PER_DRAW), 0.7)
    u[1, slot] = bad
    with pytest.raises(ValidationError, match=r"uniforms must lie in \[0, 1\)"):
        draw_counts(family, [1.0, 2.0], 1.0, u)


def test_count_uniform_above_one_is_not_reported_as_an_int64_overflow():
    with pytest.raises(ValidationError, match="uniforms"):
        draw_counts("nbi", [1.0], 1.0, [[0.5, 1.5, 0.0, 0.0]])


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_uniform_block_refuses_seeds_outside_64_bits(seed):
    # these used to alias seed mod 2**64
    with pytest.raises(ValidationError, match="master seed must be in"):
        uniform_block(seed, 0, 0, 4)
    with pytest.raises(ValidationError, match="stream must be in"):
        uniform_block(0, seed, 0, 4)
    assert uniform_block(2**64 - 1, 2**64 - 1, 0, 4).shape == (4, SLOTS_PER_DRAW)


@pytest.mark.parametrize("start,n", [(-1, 4), (0, -1)])
def test_uniform_block_refuses_a_negative_start_or_length(start, n):
    # start=-1 used to alias counter block 2**128 - 1
    with pytest.raises(ValidationError, match="block start and length must be >= 0"):
        uniform_block(3, 0, start, n)


@pytest.mark.parametrize(
    "args,message",
    [
        ((1.5, 0, 0, 2), "master seed must be in"),  # seed 1's uniforms
        ((True, 0, 0, 2), "master seed must be in"),  # seed 1's uniforms
        ((0, 2.5, 0, 2), "stream must be in"),  # stream 2's uniforms
        ((1, 0, 0.5, 2), "block start and length must be >= 0"),  # block 0's uniforms
        ((1, 0, True, 2), "block start and length must be >= 0"),  # block 1's uniforms
        ((1, 0, 0, 2.5), "block start and length must be >= 0"),  # a raw TypeError
    ],
)
def test_uniform_block_refuses_keys_and_blocks_that_are_not_integers(args, message):
    with pytest.raises(ValidationError, match=message):
        uniform_block(*args)
    numpy_ints = (np.uint64(1), np.int64(0), np.int32(3), np.uint8(2))
    np.testing.assert_array_equal(uniform_block(*numpy_ints), uniform_block(1, 0, 3, 2))


def _is_quantile(k: int, u: float, lam: float) -> bool:
    return k >= 0 and special.pdtr(k, lam) >= u and (k == 0 or special.pdtr(k - 1, lam) < u)


@pytest.mark.parametrize("u,lam", [(TOP, 1e12), (TOP, 1e13), (2.0**-53, 1e13), (0.5, 1e15), (0.5, 1e11)])
def test_poisson_inverse_where_pdtrik_fails(u, lam):
    # scipy's pdtrik is NaN at these points; the quantile used to come out as -2**63
    k = int(poisson_inverse(np.array([u]), np.array([lam]))[0])
    assert _is_quantile(k, u, lam), k


@pytest.mark.parametrize("family", ["nbi", "pig"])
@pytest.mark.parametrize("mu,sigma", [(1e5, 1e6), (740.0, 1e9)])
def test_huge_mixture_means_draw_exact_quantiles(family, mu, sigma):
    u = np.full((1, SLOTS_PER_DRAW), TOP)
    k = int(draw_counts(family, [mu], sigma, u)[0])
    if family == "nbi":
        lam = special.gammaincinv(1.0 / sigma, TOP) * sigma * mu
    else:
        lam = _inverse_gaussian_from_uniforms(mu, sigma, TOP, TOP)
    assert lam > 1e12
    assert _is_quantile(k, TOP, lam), (k, lam)


@pytest.mark.parametrize("lam", [1e19, np.inf])
def test_poisson_count_beyond_int64_is_a_typed_error(lam):
    with pytest.raises(ValidationError, match="int64"):
        poisson_inverse(np.array([0.5]), np.array([lam]))


# -- the pdtr walk keeps the pdtrik quantile's values ---------------------------------

_WALK_CAP = 2.0**20
_WALK_MEANS = st.one_of(
    st.floats(1.0, 60.0),
    st.floats(60.0, 1e5, exclude_min=True),
    st.floats(_WALK_CAP / 2.0, 2.0 * _WALK_CAP),
    st.sampled_from(
        [60.0, np.nextafter(60.0, 61.0), np.nextafter(_WALK_CAP, 0.0), _WALK_CAP, np.nextafter(_WALK_CAP, 3e6)]
    ),
)


@st.composite
def _uniforms_at_cdf_steps(draw):
    """Means on both sides of the loop cut (60) and of the walk's cap, with uniforms at
    random, deep in either tail (subnormals included), or on a CDF value pdtr(k, lam) or
    one of its float neighbours."""
    n = draw(st.integers(1, 8))
    lam = np.array(draw(st.lists(_WALK_MEANS, min_size=n, max_size=n)))
    u = np.empty(n)
    for i in range(n):
        kind = draw(st.sampled_from(["random", "low", "high", "step", "step"]))
        if kind == "random":
            u[i] = draw(st.floats(0.0, 1.0, exclude_max=True))
        elif kind == "low":
            u[i] = draw(st.one_of(st.floats(0.0, 1e-8), st.floats(-324.0, -8.0).map(lambda e: 10.0**e)))
        elif kind == "high":
            u[i] = 1.0 - draw(st.floats(2.0**-53, 1e-8))
        else:
            k = max(np.floor(lam[i] + draw(st.floats(-8.0, 8.0)) * np.sqrt(lam[i])), 0.0)
            cdf = special.pdtr(k, lam[i])
            u[i] = min(np.nextafter(cdf, draw(st.sampled_from([0.0, cdf, 1.0]))), TOP)
    return u, lam


@settings(max_examples=300, deadline=None)
# u = nextafter(pdtr(15375, lam), 1): without the margin the walk gives the exact quantile
# 15376, where pdtrik gives 15375
@example((np.array([0.7850405569603003]), np.array([15277.998498473771])))
# the top uniform, at means on both sides of the cap
@example((np.full(5, TOP), np.array([61.0, 740.0, 2e4, _WALK_CAP, 2.0 * _WALK_CAP])))
# a subnormal count uniform, as NBI draws at large means meet: without the tail cut the
# walk gives 25106, pdtrik 25110
@example((np.array([5e-324]), np.array([31703.5])))
@given(_uniforms_at_cdf_steps())
def test_poisson_inverse_keeps_the_pdtrik_quantile(case):
    u, lam = case
    np.testing.assert_array_equal(poisson_inverse(u, lam), poisson_inverse_unscreened(u, lam))


def test_few_large_mean_draws_fall_back_to_pdtrik(monkeypatch):
    reached = []
    quantile = sampling._poisson_quantile

    def counted(u, lam):
        reached.append(u.size)
        return quantile(u, lam)

    monkeypatch.setattr(sampling, "_poisson_quantile", counted)
    rng = np.random.default_rng(20)
    lam = 2e4 - (2e4 - 60.0) * rng.random(1_000_000)  # in (60, 2e4]
    u = rng.random(lam.size)
    got = poisson_inverse(u, lam)
    assert sum(reached) < 10
    np.testing.assert_array_equal(got, poisson_inverse_unscreened(u, lam))


# the means reach the Poisson walk (above 60) and its pdtrik fallback (above 2**20)
_LIMIT_MEANS = np.repeat([0.0, 1e-3, 0.5, 3.0, 60.0, 740.0, 2e4, 3e6], 8)


@settings(max_examples=200, deadline=None)
# 1/sigma overflows: gammaincinv(inf, u) made every NBI screen threshold NaN, so every count was 0
@example(family=Family.NBI, sigma=1e-310, seed=1)
@example(family=Family.PIG, sigma=5e-324, seed=1)  # pmf raised pig_c's ValidationError
@example(family=Family.NBI, sigma=1.7e308, seed=1)  # lambda was 0 * inf = NaN
@example(family=Family.PIG, sigma=1e300, seed=1)  # the roots and the screen bound overflowed
@given(
    st.sampled_from(list(Family)),
    st.one_of(st.just(0.0), st.floats(math.log10(5e-324), math.log10(1.7e308)).map(lambda e: 10.0**e)),
    st.integers(0, 2**64 - 1),
)
def test_every_finite_sigma_draws_without_warnings_and_the_poisson_limit_exactly(family, sigma, seed):
    u = uniform_block(seed, 0, 0, _LIMIT_MEANS.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        counts = draw_counts(family, _LIMIT_MEANS, sigma, u)
        assert (counts >= 0).all()
        if effective_family(family, sigma) is Family.POISSON:
            np.testing.assert_array_equal(counts, draw_counts("poisson", _LIMIT_MEANS, 0.0, u))
            ks, means = np.arange(6)[:, None], [0.0, 0.5, 3.0, 740.0]
            np.testing.assert_array_equal(pmf(family, ks, means, sigma), pmf("poisson", ks, means))


# -- the sure-zero screen changes no value --------------------------------------------

_MEANS = st.one_of(st.just(0.0), st.floats(1e-4, 0.1), st.floats(1.0, 1e4))
_SIGMAS = st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
_EDGES = list(np.arange(_SCREEN_STEPS + 1) / _SCREEN_STEPS) + [0.5]


def _uniform(draw, thresholds) -> float:
    """Random, 0, the top uniform, or a threshold or one of its float neighbours."""
    kind = draw(st.sampled_from(["random", "zero", "top"] + ["near"] * 5))
    if kind == "random":
        return draw(st.floats(0.0, 1.0, exclude_max=True))
    if kind == "zero":
        return 0.0
    if kind == "top":
        return TOP
    t = float(draw(st.sampled_from(thresholds)))
    t = float(np.nextafter(t, draw(st.sampled_from([0.0, t, 1.0]))))
    return min(max(t, 0.0), TOP)


def _uniforms_near_thresholds(draw, family: str, mu: np.ndarray, sigma: float) -> np.ndarray:
    """Uniform blocks whose mixing, root-choice and count uniforms often sit at or next
    to the values where the draw path's decisions flip."""
    n = mu.size
    u = np.array([[_uniform(draw, _EDGES) for _ in range(SLOTS_PER_DRAW)] for _ in range(n)])
    mixture = family != "poisson" and sigma > 0.0
    slot = {"poisson": 0, "nbi": 1, "pig": 2}[family] if mixture else 0
    with np.errstate(all="ignore"):  # mu = 0 gives 0/0 in the PIG roots; those draws are 0 anyway
        if family == "pig" and mixture:  # root-choice uniforms next to mu / (mu + small root)
            h = sigma * special.ndtri(u[:, 0]) ** 2
            pick = mu / (mu + 2.0 * mu / (2.0 + h + np.sqrt(h * (h + 4.0))))
            for i in range(n):
                u[i, 1] = _uniform(draw, [0.5, pick[i]] if np.isfinite(pick[i]) else [0.5])
        # count uniforms next to the thresholds the screen and the Poisson stage test
        lam, _ = mixing_unscreened(family, mu, sigma, u)
        exact = np.exp(-lam)
        if family == "nbi" and mixture:  # NBI's screen bound
            cap = np.exp(-_cap_table(sigma).take(np.ceil(u[:, 0] * _SCREEN_STEPS).astype(np.intp)) * mu) * _EXP_SLACK
        else:
            cap = exact
    for i in range(n):
        u[i, slot] = _uniform(draw, [exact[i], cap[i]] if np.isfinite([exact[i], cap[i]]).all() else [0.5])
    return u


@st.composite
def _draw_inputs(draw):
    family = draw(st.sampled_from(["poisson", "nbi", "pig"]))
    sigma = draw(_SIGMAS)
    n = draw(st.integers(1, 24))
    mu = np.array(draw(st.lists(_MEANS, min_size=n, max_size=n)))
    return family, mu, sigma, _uniforms_near_thresholds(draw, family, mu, sigma)


def _large_root_just_above_half():
    """PIG at small sigma: u1 = 0.55 takes the large root lam > mu; count uniform just above exp(-lam)."""
    mu, sigma = np.array([5.0]), 1e-4
    u = np.array([[0.55, 0.55, 0.0, 0.5]])
    lam, _ = mixing_unscreened("pig", mu, sigma, u)
    assert lam[0] > mu[0]
    u[0, 2] = np.nextafter(np.exp(-lam[0]), 1.0)
    return "pig", mu, sigma, u


@settings(max_examples=400, deadline=None)
@example(_large_root_just_above_half())
@given(_draw_inputs())
def test_screened_draws_equal_unscreened_bit_for_bit(case):
    family, mu, sigma, u = case
    got = draw_counts(family, mu, sigma, u)
    want = draw_counts_unscreened(family, mu, sigma, u)
    assert (got >= 0).all()
    valid = want >= 0  # negative: the old NaN cast, fixed above
    np.testing.assert_array_equal(got[valid], want[valid])


# -- every sampler integrates to models.pmf ----------------------------------------------


@st.composite
def _law_cases(draw):
    """A family, mu in [1e-3, 1e3], sigma in [1e-3, 1e2] and k in 0..3 or within 4 SDs of
    the mean, at most 2000 (PIG's pmf costs O(k) Bessel steps)."""
    family = draw(st.sampled_from(["poisson", "nbi", "pig"]))
    mu = 10.0 ** draw(st.floats(-3.0, 3.0))
    sigma = 0.0 if family == "poisson" else 10.0 ** draw(st.floats(-3.0, 2.0))
    sd = math.sqrt(mu + sigma * mu * mu)
    k = draw(st.one_of(st.integers(0, 3), st.floats(-4.0, 4.0).map(lambda z: round(mu + z * sd))))
    return family, min(max(k, 0), 2000), mu, sigma


@settings(max_examples=100, deadline=None)
@example(("poisson", 740, 740.0, 0.0))  # the pdtr walk
@example(("poisson", 60, 60.0, 0.0))  # the CDF loop's last mean
@example(("nbi", 2000, 1e3, 1e2))
@example(("nbi", 1000, 1e3, 1e-3))
@example(("pig", 2000, 1e3, 1e2))
@example(("pig", 1000, 1e3, 1e-3))
@example(("pig", 0, 1e-3, 1e2))
@given(_law_cases())
def test_each_sampler_integrates_to_the_pmf(case):
    # the chi-square tests resolve the law to about 1e-3; this checks it to 1e-7
    family, k, mu, sigma = case
    law, want = sampler_law(family, k, mu, sigma), float(pmf(family, k, mu, sigma))
    assert abs(law - want) <= max(1e-7 * want, 1e-13), (law, want)


_U64 = st.integers(0, 2**64 - 1)
# counters near 0, near 2**64 - 1 (where b + 1 carries into word 1) and anywhere
_BLOCKS = st.lists(st.one_of(st.integers(0, 40), st.integers(2**64 - 41, 2**64 - 1), _U64), max_size=60)


@settings(max_examples=300, deadline=None)
@given(_U64, _U64, _BLOCKS)
@example(0, 0, [])
@example(2**64 - 1, 2**64 - 1, [2**64 - 1, 0, 2**64 - 1, 2**64 - 2, 0])
@example(5, 2, [9, 3, 3, 2**64 - 1, 1])
def test_uniform_rows_are_the_rows_of_uniform_block(seed, stream, blocks):
    got = uniform_rows(seed, stream, np.array(blocks, dtype=np.uint64))
    assert got.shape == (len(blocks), SLOTS_PER_DRAW)
    for row, b in zip(got, blocks):
        np.testing.assert_array_equal(row, uniform_block(seed, stream, b, 1)[0], err_msg=f"block {b}")


def test_uniform_rows_match_uniform_block_across_passes():
    blocks = np.arange(3 * sampling._ROWS_PER_PASS + 17, dtype=np.uint64)[::-1]
    np.testing.assert_array_equal(uniform_rows(3, 8, blocks), uniform_block(3, 8, 0, blocks.size)[::-1])


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_uniform_rows_refuse_key_words_outside_64_bits(seed):
    blocks = np.array([0, 1], dtype=np.uint64)
    with pytest.raises(ValidationError, match="master seed must be in"):
        uniform_rows(seed, 0, blocks)
    with pytest.raises(ValidationError, match="stream must be in"):
        uniform_rows(0, seed, blocks)


@pytest.mark.parametrize(
    "args,message",
    [
        ((1.5, 0, [0]), "master seed must be in"),  # a raw TypeError
        ((1, True, [0]), "stream must be in"),  # stream 1's uniforms
        ((1, 0, np.array([-1])), "counter blocks must be integers >= 0"),  # block 2**64 - 1
        ((1, 0, np.array([1.5])), "counter blocks must be integers >= 0"),  # block 1
        ((1, 0, [True]), "counter blocks must be integers >= 0"),  # block 1
    ],
)
def test_uniform_rows_refuse_keys_and_blocks_that_are_not_integers(args, message):
    with pytest.raises(ValidationError, match=message):
        uniform_rows(*args)
    signed = uniform_rows(np.int64(3), np.uint32(8), np.array([4, 0, 2**40], dtype=np.int64))
    np.testing.assert_array_equal(signed, uniform_rows(3, 8, np.array([4, 0, 2**40], dtype=np.uint64)))
    assert uniform_rows(3, 8, []).shape == (0, SLOTS_PER_DRAW)  # no block is not a non-integer one
