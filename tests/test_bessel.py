import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from satsynth import models
from satsynth.models import _log_k_half_scaled, log_bessel_k_half, pmf
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


_ARGUMENT = st.floats(math.log(1e-300), math.log(1e6)).map(math.exp)


@settings(max_examples=200, deadline=None)
# arguments whose math.log differs from np.log in the last bit on x86-64 glibc
@example(n=1, t=77.46511539248576, others=[2.0])
@example(n=5, t=165.7208377359313, others=[2.0])
@example(n=-3, t=3.0993778518686628, others=[2.0, 9.0])
@given(n=st.integers(-300, 300), t=_ARGUMENT, others=st.lists(_ARGUMENT, min_size=1, max_size=4))
def test_one_argument_is_that_argument_among_many_bit_for_bit(n, t, others):
    many = np.array([t, *others])
    point = _log_k_half_scaled(np.int64(n), np.float64(t))
    assert type(point) is np.float64  # scalar steps, no 0-d arrays
    assert point.tobytes() == _log_k_half_scaled(np.int64(n), many)[0].tobytes()
    orders = np.array([n, 0, 1, abs(n) + 2, n // 2])[:, None]  # every order's row up to the largest
    one = _log_k_half_scaled(orders, np.array([t]))
    assert one.shape == (5, 1) and one.tobytes() == _log_k_half_scaled(orders, many)[:, :1].tobytes()
    assert _log_k_half_scaled(np.int64(n), np.array([t])).tobytes() == point.tobytes()


_SHAPES = [  # (orders, arguments) at sizes a and b: one order, one argument, sorted slices, empty
    lambda a, b: ((), ()),
    lambda a, b: ((), (b,)),
    lambda a, b: ((), (a, b)),
    lambda a, b: ((a, 1), (1, b)),
    lambda a, b: ((b,), (b,)),
    lambda a, b: ((a, b), (a, b)),
]


@settings(max_examples=200, deadline=None)
@given(shapes=st.sampled_from(_SHAPES), a=st.integers(0, 4), b=st.integers(0, 4), data=st.data())
def test_each_element_of_a_ladder_is_its_point_evaluation_bit_for_bit(shapes, a, b, data):
    n_shape, t_shape = shapes(a, b)
    n = np.array(data.draw(st.lists(st.integers(-300, 300), min_size=math.prod(n_shape), max_size=math.prod(n_shape))))
    t = np.array(data.draw(st.lists(_ARGUMENT, min_size=math.prod(t_shape), max_size=math.prod(t_shape))))
    n, t = n.astype(np.int64).reshape(n_shape), t.reshape(t_shape)
    out = _log_k_half_scaled(n, t)
    assert np.shape(out) == np.broadcast_shapes(n_shape, t_shape)
    orders, arguments = np.broadcast_arrays(n, t)
    for at in np.ndindex(np.shape(out)):
        assert np.float64(out[at]).tobytes() == _log_k_half_scaled(orders[at], arguments[at]).tobytes(), at


def test_no_arguments_step_no_ladder_rows(monkeypatch):
    # one order's row stepped over no arguments all the same: order 10**6 took 12 s
    def no_rows(t):
        pytest.fail("a ladder row was stepped for no arguments")
        yield

    monkeypatch.setattr(models, "_rows", no_rows)
    for n in (np.int64(10**6), np.array([[1], [10**6]])):
        assert _log_k_half_scaled(n, np.empty(0)).shape == np.broadcast_shapes(n.shape, (0,))


class _Stepped(Exception):
    pass


@pytest.mark.parametrize(
    "reached,refused,t",
    [
        (2**26, 2**26 + 1, [1.0]),  # one order at one argument
        (2**25, 2**25 + 1, [1.0, 2.0]),  # one order at two arguments
        ([2**25, 1], [2**25 + 1, 1], [1.0, 2.0]),  # elementwise orders at two arguments
    ],
    ids=["one-order-one-argument", "one-order-two-arguments", "elementwise"],
)
def test_ladder_of_more_than_max_pmf_entries_cells_is_refused_before_any_row(monkeypatch, reached, refused, t):
    # the largest order times the argument count: exactly MAX_PMF_ENTRIES (order, argument) cells are stepped
    def stepped(t):
        raise _Stepped
        yield

    monkeypatch.setattr(models, "_rows", stepped)
    with pytest.raises(_Stepped):
        log_bessel_k_half(reached, t)
    with pytest.raises(ValidationError, match=f"^the Bessel ladder would step {2**26 // len(t) + 1} orders at {len(t)} "):
        log_bessel_k_half(refused, t)


def test_orders_whose_ladder_wraps_int64_are_refused(monkeypatch):
    # the ladder key (order - 1) x arguments wrapped int64 here, and the first element came back as
    # np.empty's leftover; one order 2**62 at four arguments would step 2**62 rows, and never returned
    monkeypatch.setattr(models, "_rows", lambda t: pytest.fail("a ladder row was stepped"))
    with pytest.raises(ValidationError, match="^the Bessel ladder would step 4611686018427387904 orders at 4 "):
        log_bessel_k_half(np.array([2**62, 1, 2, 3]), np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValidationError, match="^the Bessel ladder would step 4611686018427387904 orders at 4 "):
        pmf("pig", 2**62, [1.0, 2.0, 3.0, 4.0], 1.0)
    with pytest.raises(ValidationError, match="^the Bessel ladder would step 1000000000 orders at 1 "):
        pmf("pig", 10**9, 1.0, 1.0)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "n", [math.inf, 1e300, -(2**63), 1 - 2**63, 2**63, 2**70, [1, -(2**63)]],
    ids=["inf", "1e300", "-2**63", "1-2**63", "2**63", "2**70", "[1, -2**63]"],
)
def test_orders_outside_int64_are_refused_before_the_cast(n):
    # inf, 1e300 and -2**63 raised a raw ValueError from islice, the floats after an
    # invalid cast; 2**70 a raw OverflowError; [1, -2**63] returned a wrong second value,
    # as the fold 1 - n wrapped
    t = np.array([1.0, 2.0]) if np.ndim(n) else 1.0
    with pytest.raises(ValidationError, match="order index must be an integer"):
        log_bessel_k_half(n, t)
