import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from satsynth.bessel import log_bessel_k_half
from satsynth.errors import ValidationError

from oracles import log_bessel_k_quadrature


def test_half_order_seed_value():
    # frozen from the quadrature oracle
    assert log_bessel_k_quadrature(0.5, 1.0) == pytest.approx(math.log(0.461068504447894), rel=1e-10)
    assert np.exp(log_bessel_k_half(1, 1.0)) == pytest.approx(0.461068504447894, rel=1e-10)


def test_three_halves_closed_form():
    # K_{3/2}(t) = sqrt(pi/(2 t)) exp(-t) (1 + 1/t)
    for t in (0.3, 1.0, 7.5):
        expected = math.sqrt(math.pi / (2 * t)) * math.exp(-t) * (1 + 1 / t)
        assert np.exp(log_bessel_k_half(2, t)) == pytest.approx(expected, rel=1e-12)
    assert np.exp(log_bessel_k_half(2, 1.0)) == pytest.approx(0.922137, abs=5e-7)


def test_order_symmetry():
    for t in (0.05, 1.0, 40.0):
        assert np.exp(log_bessel_k_half(0, t)) == np.exp(log_bessel_k_half(1, t))
        assert log_bessel_k_half(-3, t) == pytest.approx(log_bessel_k_half(4, t), rel=1e-14)


def test_matches_quadrature_over_grid():
    # orders up to 49/2, arguments across four decades
    for n in (1, 2, 3, 7, 13, 25):
        order = n - 0.5
        for t in (0.01, 0.1, 1.0, 10.0, 100.0):
            ours = log_bessel_k_half(n, t)
            ref = log_bessel_k_quadrature(order, t)
            assert ours == pytest.approx(ref, rel=0.0, abs=1e-8 * max(1.0, abs(ref))), (n, t)


def test_matches_scipy_kv():
    ns = np.arange(0, 30)
    for t in (0.02, 0.7, 5.0, 80.0):
        ours = np.exp(log_bessel_k_half(ns, t))
        ref = special.kv(ns - 0.5, t)
        np.testing.assert_allclose(ours, ref, rtol=1e-10)


def test_ladder_matches_pointwise():
    t = np.array([0.5, 2.0, 9.0])
    grid = log_bessel_k_half(np.arange(13)[:, None], t)
    assert grid.shape == (13, 3)
    for n in range(13):
        for j, tj in enumerate(t):
            assert grid[n, j] == log_bessel_k_half(n, tj), (n, tj)


def test_elementwise_high_orders_stay_within_a_few_megabytes():
    # 20,000 (order, argument) pairs with orders up to 2,000: a ladder of
    # every order at every argument would hold about 320 MB
    rng = np.random.default_rng(7)
    n = rng.integers(0, 2001, 20_000)
    t = rng.uniform(0.1, 50.0, 20_000)
    tracemalloc.start()
    try:
        vals = log_bessel_k_half(n, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    for i in (0, 1, 4_321, 19_999):
        assert vals[i] == log_bessel_k_half(int(n[i]), float(t[i]))


def test_log_form_survives_large_order_small_argument():
    # plain K overflows here; the log form must stay finite
    val = log_bessel_k_half(400, 0.05)
    assert np.isfinite(val)
    assert val > 700  # far beyond float overflow if exponentiated


def test_rejects_nonpositive_argument():
    with pytest.raises(ValidationError):
        log_bessel_k_half(1, 0.0)
    with pytest.raises(ValidationError):
        log_bessel_k_half(1, -2.0)


def test_rejects_nan_argument():
    # NaN used to pass the t <= 0 screen and come back as NaN with a RuntimeWarning
    with pytest.raises(ValidationError):
        log_bessel_k_half(1, math.nan)
    with pytest.raises(ValidationError):
        log_bessel_k_half(np.arange(3), np.array([2.0, math.nan, 1.0]))


def test_rejects_arguments_below_the_overflow_floor():
    # a recurrence step multiplies by (2n - 3) / t, which must stay finite
    assert np.isfinite(log_bessel_k_half(400, 1e-300))
    with pytest.raises(ValidationError):
        log_bessel_k_half(2, 1e-301)
