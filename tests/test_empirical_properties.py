"""Empirical tau and within-p% against the per-size set-operation oracles.

Both functions align the synthetic table with the original through one
``counts_at`` lookup; every value they report is a ratio of the same
integer counts the oracles reach by unions, intersections and ``isin``,
so the two must agree bit for bit (NaN where a bucket is empty).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tau_empirical_setwise, within_p_percent_setwise
from satsynth.errors import UndefinedResultError
from satsynth.evaluation import within_p_percent
from satsynth.schema import CategoricalSchema
from satsynth.table import SparseContingencyTable
from satsynth.taumetrics import tau_empirical

P_LIST = [0.5, 1.0, 5.0, 10.0, 50.0, 60.0, 100.0, 250.0]

CELL = st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 40))


def _table(schema, cells, structural):
    live = [i for i, c in enumerate(cells) if c and i not in structural]
    return SparseContingencyTable(schema, live, [cells[i] for i in live], sorted(structural))


@st.composite
def original_and_replicates(draw):
    """A small table with structural zeros and 1-3 replicates over it.

    Any table may be empty, and the replicates fill cells the original
    lacks as readily as the ones it has.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    schema = CategoricalSchema([(f"v{i}", [f"c{j}" for j in range(s)]) for i, s in enumerate(sizes)])
    k = schema.num_cells
    structural = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    original = _table(schema, draw(st.lists(CELL, min_size=k, max_size=k)), structural)
    n_rep = draw(st.integers(1, 3))
    reps = [_table(schema, draw(st.lists(CELL, min_size=k, max_size=k)), structural) for _ in range(n_rep)]
    return original, reps


@settings(max_examples=300, deadline=None)
@given(original_and_replicates(), st.integers(-2, 3))
def test_empirical_tau_and_within_p_equal_the_set_oracles(tables, k_offset):
    original, reps = tables
    largest = int(max([0] + [t.count.max() for t in [original, *reps] if t.count.size]))
    k_report = max(0, largest + k_offset)  # below, at and above the largest size

    report = tau_empirical(original, reps, k_report=k_report)
    want = tau_empirical_setwise(original, reps, k_report)
    for got, exp in zip((report.tau1, report.tau2, report.tau3, report.tau4), want):
        assert np.array_equal(got, exp, equal_nan=True)

    for syn in reps:
        for nonzero_only in (False, True):
            args = (original, syn, P_LIST, nonzero_only)
            try:
                expected = within_p_percent_setwise(*args)
            except UndefinedResultError:
                with pytest.raises(UndefinedResultError):
                    within_p_percent(*args)
                continue
            got = within_p_percent(*args)
            assert got == expected
            assert all(type(v) is float for v in got.values())
