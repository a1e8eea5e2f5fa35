"""The integer rule of ``satsynth.errors``, at every entry point that takes an integer."""

import numpy as np
import pytest

from satsynth.errors import ValidationError
from satsynth.generator import HistogramSpec, TailSpec, generate_table, scaled_spec
from satsynth.loglin import fit_loglinear
from satsynth.models import CountModelSpec, log_bessel_k_half, logpmf, pmf, pmf_range
from satsynth.sampling import uniform_block, uniform_rows
from satsynth.schema import CategoricalSchema
from satsynth.synthesis import SynthesisJob, synthesize
from satsynth.table import CellSizeDistribution, SparseContingencyTable
from satsynth.taumetrics import MAX_K_REPORT, tau1_expected, tau_analytic, tau_empirical

SCHEMA = CategoricalSchema([("A", ["a", "b", "c"]), ("B", ["x", "y"])])
TABLE = SparseContingencyTable.from_dict(SCHEMA, {(0, 0): 3, (1, 1): 1, (2, 0): 2})
DIST = CellSizeDistribution.from_counts({0: 3, 1: 1, 2: 1, 3: 1})
POISSON = SynthesisJob(CountModelSpec("poisson"), master_seed=0)
U64_MAX = 2**64 - 1

# entry point: (call on one integer argument, lowest accepted value, highest or None)
ENTRY_POINTS = {
    "uniform_block master seed": (lambda v: uniform_block(v, 0, 0, 1), 0, U64_MAX),
    "uniform_block stream": (lambda v: uniform_block(0, v, 0, 1), 0, U64_MAX),
    "uniform_block start": (lambda v: uniform_block(0, 0, v, 1), 0, None),
    "uniform_block length": (lambda v: uniform_block(0, 0, 0, v), 0, None),
    "uniform_rows master seed": (lambda v: uniform_rows(v, 0, np.zeros(1, np.uint64)), 0, U64_MAX),
    "SynthesisJob m": (lambda v: SynthesisJob(CountModelSpec("poisson"), 0, v), 1, None),
    "SynthesisJob master_seed": (lambda v: SynthesisJob(CountModelSpec("poisson"), v), 0, U64_MAX),
    "synthesize threads": (lambda v: synthesize(TABLE, POISSON, threads=v), 1, 256),
    "generate_table seed": (lambda v: generate_table(HistogramSpec({1: 1}, num_cells=2), v), 0, U64_MAX),
    "HistogramSpec size": (lambda v: HistogramSpec({v: 1}, num_cells=2**20), 0, None),
    "HistogramSpec cell count": (lambda v: HistogramSpec({1: v}, num_cells=2**20), 0, None),
    "HistogramSpec num_cells": (lambda v: HistogramSpec({}, num_cells=v), 1, 2**20),
    "TailSpec start": (lambda v: TailSpec(v, 0, 0), 1, None),
    "TailSpec cells": (lambda v: TailSpec(1, v, 2**40), 0, None),
    "TailSpec total": (lambda v: TailSpec(1, 0, v), 0, None),
    "scaled_spec num_cells": (lambda v: scaled_spec(HistogramSpec({1: 1}, num_cells=2), v), 1, None),
    "tau_empirical k_report": (lambda v: tau_empirical(TABLE, TABLE, k_report=v), 0, MAX_K_REPORT),
    "tau_analytic k_report": (lambda v: tau_analytic(DIST, "poisson", 0.0, 0.1, k_report=v), 0, MAX_K_REPORT),
    "tau1_expected k": (lambda v: tau1_expected(DIST, "poisson", 0.0, 0.1, v), 0, 2**63 - 1),
    "pmf_range k_max": (lambda v: pmf_range("poisson", v, 1.0), 0, 2**26 - 1),
    "fit_loglinear max_iter": (lambda v: fit_loglinear(TABLE, [["A"]], max_iter=v), 1, None),
    "flat_of coordinate": (lambda v: SCHEMA.flat_of((v, 0)), 0, 2),
    "coords_of flat index": (lambda v: SCHEMA.coords_of(v), 0, 5),
    "table flat index": (lambda v: TABLE[v], 0, 5),
    "from_dict count": (lambda v: SparseContingencyTable.from_dict(SCHEMA, {(0, 0): v}), 0, 2**63 - 1),
    "from_proportions size": (lambda v: CellSizeDistribution.from_proportions({0: 0.5, v: 0.5}), 0, 2**63 - 1),
    "from_counts size": (lambda v: CellSizeDistribution.from_counts({0: 1, v: 1}), 0, 2**63 - 1),
    "from_counts cell number": (lambda v: CellSizeDistribution.from_counts({0: 1, 1: v}), 0, None),
}


def _cases():
    for name, (call, low, high) in ENTRY_POINTS.items():
        values = [True, np.True_, 1.5, 2.0, "3", None, low - 1] + ([] if high is None else [high + 1])
        for value in values:
            yield pytest.param(call, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize("call,value", _cases())
def test_every_integer_entry_point_refuses_what_is_not_an_integer_in_its_bounds(call, value):
    # before one rule owned them, entry points cut 1.5 to 1 with int(), took True as 1 or raised a raw
    # TypeError or OverflowError; others refused these values with hand-written checks of their own
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_numpy_integers_are_stored_as_python_ints(kind):
    assert type(SynthesisJob(CountModelSpec("poisson"), kind(3)).master_seed) is int
    tail = TailSpec(kind(2), kind(3), kind(7))
    assert [type(v) for v in (tail.start, tail.cells, tail.total)] == [int, int, int]
    spec = HistogramSpec({kind(1): kind(2)}, tail, num_cells=kind(9))
    assert [type(v) for v in (*next(iter(spec.cells_per_size.items())), spec.num_cells)] == [int, int, int]
    assert HistogramSpec.from_json(spec.to_json()) == spec  # np.int64 keys and values raised a raw TypeError
    assert generate_table(spec, kind(5)).same_contents(generate_table(spec, 5))


@pytest.mark.parametrize("value", [True, [True], "3", None])
@pytest.mark.parametrize("call", [
    lambda k: logpmf("poisson", k, 1.0),
    lambda k: pmf("pig", k, 1.0, 1.0),
    lambda n: log_bessel_k_half(n, 1.0),
], ids=["logpmf", "pmf", "log_bessel_k_half"])
def test_array_entry_points_refuse_bools_strings_and_none(call, value):
    # each was a raw OverflowError (k < 2**63 on a bool array) or TypeError (np.floor of a str or None)
    with pytest.raises(ValidationError):
        call(value)
