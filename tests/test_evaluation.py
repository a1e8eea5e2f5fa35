import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satsynth.errors import UndefinedResultError, ValidationError
from satsynth.evaluation import (
    FrontierPoint,
    Interval,
    ci_overlap,
    frontier_point,
    mean_ci_overlap,
    raab_variance,
    trimmed_mean_pct_diff,
    within_p_percent,
)
from satsynth.schema import CategoricalSchema
from satsynth.table import SparseContingencyTable

P_LIST = [0.5, 1.0, 5.0, 10.0, 50.0]


def grid_table(num_cells, counts, structural=()):
    schema = CategoricalSchema([("cell", [f"c{i}" for i in range(num_cells)])])
    return SparseContingencyTable.from_dict(
        schema, {(i,): c for i, c in counts.items()}, structural=[(i,) for i in structural]
    )


# -- within p% ---------------------------------------------------------------


def test_within_p_rejects_counts_on_structural_zeros():
    # the same pair reported a proportion of -1.0
    schema = CategoricalSchema([("V", ["a", "b", "c"])])
    original = SparseContingencyTable.from_dict(schema, {(0,): 1}, structural=[(1,), (2,)])
    synthetic = SparseContingencyTable.from_dict(schema, {(0,): 1, (1,): 1, (2,): 1})
    with pytest.raises(ValidationError, match="structural zeros"):
        within_p_percent(original, synthetic, [5.0])


def test_within_p_identity_is_one_everywhere():
    table = grid_table(30, {0: 10, 1: 3, 5: 1})
    res = within_p_percent(table, table, P_LIST)
    assert all(v == 1.0 for v in res.values())


def test_within_p_four_percent_example():
    orig = grid_table(1, {0: 100})
    syn = grid_table(1, {0: 104})
    res = within_p_percent(orig, syn, [1.0, 5.0])
    assert res[5.0] == 1.0
    assert res[1.0] == 0.0


def test_within_p_monotone_in_p():
    rng = np.random.default_rng(5)
    orig = grid_table(200, {i: int(c) for i, c in enumerate(rng.integers(1, 40, 120))})
    syn = grid_table(200, {i: int(c) for i, c in enumerate(rng.integers(1, 40, 120))})
    res = within_p_percent(orig, syn, P_LIST)
    vals = [res[p] for p in P_LIST]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_within_p_zero_to_nonzero_outside_all_buckets():
    orig = grid_table(4, {0: 10})
    syn = grid_table(4, {0: 10, 1: 2})
    res = within_p_percent(orig, syn, [50.0, 80.0])
    # 4 cells: the exact match, two zeros staying zero, one escaped zero
    assert res[50.0] == pytest.approx(3 / 4)
    assert res[80.0] == pytest.approx(3 / 4)


def test_within_p_nonzero_only_block():
    orig = grid_table(10, {0: 100, 1: 10})
    syn = grid_table(10, {0: 100, 1: 13})
    res = within_p_percent(orig, syn, [1.0, 50.0], nonzero_only=True)
    assert res[1.0] == pytest.approx(0.5)
    assert res[50.0] == pytest.approx(1.0)


def test_within_p_excludes_structural_zeros():
    orig = grid_table(5, {0: 10}, structural=[4])
    syn = grid_table(5, {0: 10}, structural=[4])
    res = within_p_percent(orig, syn, [5.0])
    assert res[5.0] == 1.0  # 4 live cells, all matching


def test_within_p_rejects_bad_inputs():
    t = grid_table(3, {0: 1})
    with pytest.raises(ValidationError):
        within_p_percent(t, grid_table(4, {0: 1}), [5.0])
    with pytest.raises(ValidationError):
        within_p_percent(t, t, [0.0])


def test_within_p_rejects_nan_percentage():
    t = grid_table(3, {0: 1})
    with pytest.raises(ValidationError, match="positive"):
        within_p_percent(t, t, [math.nan])
    with pytest.raises(ValidationError, match="positive"):
        within_p_percent(t, t, [5.0, math.nan])


# -- CI overlap ----------------------------------------------------------------


def test_overlap_identical_intervals():
    assert ci_overlap(Interval(0.0, 2.0), Interval(0.0, 2.0)) == 1.0


def test_overlap_half_for_shifted_pair():
    assert ci_overlap(Interval(0.0, 2.0), Interval(1.0, 3.0)) == 0.5


def test_overlap_half_against_infinite():
    assert ci_overlap(Interval(0.0, 2.0), Interval(-math.inf, math.inf)) == 0.5
    assert ci_overlap(Interval(-math.inf, math.inf), Interval(0.0, 2.0)) == 0.5


def test_overlap_disjoint_is_negative_raw():
    val = ci_overlap(Interval(0.0, 1.0), Interval(3.0, 4.0))
    assert val == pytest.approx(0.5 * (-2.0 / 1.0 + -2.0 / 1.0))
    assert val < 0


def test_overlap_rejects_degenerate():
    with pytest.raises(ValidationError):
        ci_overlap(Interval(1.0, 1.0), Interval(0.0, 2.0))
    with pytest.raises(ValidationError):
        ci_overlap(Interval(math.inf, math.inf), Interval(0.0, 2.0))
    with pytest.raises(ValidationError):
        Interval(2.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.floats(-50, 50), st.floats(-50, 50)).map(sorted),
    st.tuples(st.floats(-50, 50), st.floats(-50, 50)).map(sorted),
    st.floats(-10, 10),
    st.floats(0.1, 10),
)
@example(ab=[0.0, 1e-6], cd=[1.0, 2.0], shift=4.0, scale=0.25)  # rel. error 1.03e-9 at a 2.5e-7 width
def test_overlap_symmetric_and_affine_equivariant(ab, cd, shift, scale):
    a, b = ab
    c, d = cd
    if b - a < 1e-6 or d - c < 1e-6:
        return
    i1, i2 = Interval(a, b), Interval(c, d)
    v = ci_overlap(i1, i2)
    assert ci_overlap(i2, i1) == pytest.approx(v, rel=1e-12)
    j1 = Interval(a * scale + shift, b * scale + shift)
    j2 = Interval(c * scale + shift, d * scale + shift)
    # Rounding x * scale, then + shift, moves an endpoint by at most e (below), so the
    # intersection and each length L move by at most 2e, and each ratio r = inter / L by
    # (1 + |r|) * err with err = 2e / (scale * L_min).  As v is the mean of two ratios of
    # one sign, |r| <= 2|v|: the error is within err * (1 + 2|v|) <= max(4 err |v|, 2 err).
    e = max(0.5 * (math.ulp(x * scale) + math.ulp(x * scale + shift)) for x in (a, b, c, d))
    err = 2.0 * e / (scale * min(b - a, d - c))
    assert ci_overlap(j1, j2) == pytest.approx(v, rel=4.0 * err + 1e-12, abs=2.0 * err + 1e-12)


def test_overlap_one_only_for_identical():
    assert ci_overlap(Interval(0.0, 2.0), Interval(0.0, 2.1)) < 1.0
    assert ci_overlap(Interval(-1.0, 2.0), Interval(0.0, 2.0)) < 1.0


def test_mean_overlap_skips_requested_terms():
    orig = {"a": Interval(0, 2), "b": Interval(0, 2)}
    syn = {"a": Interval(0, 2), "b": Interval(10, 12)}
    assert mean_ci_overlap(orig, syn, skip=["b"]) == 1.0
    with pytest.raises(UndefinedResultError):
        mean_ci_overlap(orig, syn, skip=["a", "b"])


# -- variance combination ----------------------------------------------------------


def test_raab_variance_values():
    assert raab_variance(2.5, 1000, 1000, 1) == 5.0
    assert raab_variance(1.0, 500, 500, 100) == pytest.approx(1.01)
    assert raab_variance(3.0, 100, 200, 1) == pytest.approx(9.0)


def test_raab_variance_monotonicity():
    assert raab_variance(2.0, 10, 10, 1) == 2 * raab_variance(1.0, 10, 10, 1)
    assert raab_variance(1.0, 10, 10, 2) < raab_variance(1.0, 10, 10, 1)
    with pytest.raises(ValidationError):
        raab_variance(0.0, 10, 10, 1)
    with pytest.raises(ValidationError):
        raab_variance(1.0, 10, 10, 0)


@pytest.mark.parametrize(
    "args", [(1.0, 1, math.nan, 1), (math.nan, 1, 1, 1), (1.0, math.inf, 1, 1), (math.inf, 1, 1, 1), (1.0, 10**400, 1, 1)]
)
def test_raab_variance_refuses_inputs_that_are_not_finite(args):
    # nan came back as nan, and n = inf or 10**400 as 1.0
    with pytest.raises(ValidationError, match="^all inputs must be positive and finite$"):
        raab_variance(*args)


# -- trimmed mean percentage difference -----------------------------------------------


def test_trimmed_mean_identity_is_zero():
    assert trimmed_mean_pct_diff([1.0, 2.0, 4.0], [1.0, 2.0, 4.0], 0.1) == 0.0


def test_trimmed_mean_uniform_ten_percent():
    assert trimmed_mean_pct_diff([1.0, 2.0, 4.0], [1.1, 2.2, 4.4], 0.0) == pytest.approx(10.0)


def test_trimmed_mean_drops_extremes():
    orig = [1.0] * 5
    syn = [1.0 + d / 100 for d in (-100.0, -1.0, 0.0, 1.0, 100.0)]
    assert trimmed_mean_pct_diff(orig, syn, 0.2) == pytest.approx(0.0)


def test_trimmed_mean_excludes_zero_originals():
    assert trimmed_mean_pct_diff([0.0, 1.0, 2.0], [5.0, 1.1, 2.2], 0.0) == pytest.approx(10.0)


def test_trimmed_mean_equals_plain_mean_without_trim():
    rng = np.random.default_rng(8)
    q = rng.uniform(0.5, 3.0, 40)
    qs = q * rng.uniform(0.8, 1.2, 40)
    expect = float(np.mean(100 * (qs - q) / q))
    assert trimmed_mean_pct_diff(q, qs, 0.0) == pytest.approx(expect, rel=1e-12)


def test_trimmed_mean_undefined_when_everything_excluded():
    with pytest.raises(UndefinedResultError):
        trimmed_mean_pct_diff([0.0, 0.0], [1.0, 2.0], 0.0)


# -- frontier --------------------------------------------------------------------


def test_frontier_original_vs_itself():
    table = grid_table(40, {i: 1 + i % 3 for i in range(20)})
    pt = frontier_point(table, table, overlaps=[1.0] * 5, label="original")
    assert (pt.utility, pt.privacy) == (1.0, 0.0)


def test_frontier_opposite_corner():
    # synthetic uniques exist but none match; zero overlaps
    orig = grid_table(40, {i: 2 for i in range(10)})
    syn = grid_table(40, {i + 20: 1 for i in range(10)})
    pt = frontier_point(orig, syn, overlaps=[0.0, 0.0], label="garbage")
    assert (pt.utility, pt.privacy) == (0.0, 1.0)


def test_frontier_clips_plot_coordinate_keeps_raw():
    table = grid_table(40, {i: 1 for i in range(10)})
    pt = frontier_point(table, table, overlaps=[-0.5, 0.5], label="x")
    assert pt.utility == 0.0
    assert pt.utility_raw == pytest.approx(0.0)
    pt2 = frontier_point(table, table, overlaps=[-1.0, -0.2], label="y")
    assert pt2.utility == 0.0
    assert pt2.utility_raw == pytest.approx(-0.6)


def test_frontier_point_row_keys_in_report_column_order():
    # `satsynth frontier` writes its report's first columns in this order
    table = grid_table(40, {i: 1 for i in range(10)})
    row = frontier_point(table, table, overlaps=[0.5], label="x").as_row()
    assert list(row) == ["label", "utility", "privacy", "utility_raw"]
    assert row == {"label": "x", "utility": 0.5, "privacy": 0.0, "utility_raw": 0.5}
