import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import flat_of_array, project_by_coords
from satsynth.errors import FormatError, ValidationError
from satsynth.schema import CategoricalSchema
from satsynth.table import (
    CellSizeDistribution,
    SparseContingencyTable,
    aggregate_microdata,
    aggregate_microdata_csv,
    mark_structural_zeros,
    read_table,
    write_table,
)
from satsynth.taumetrics import tau2_of_table


@pytest.fixture
def ab_schema():
    return CategoricalSchema([("A", ["a", "b"]), ("B", ["x", "y"])])


def test_schema_cell_count_is_category_product():
    schema = CategoricalSchema(
        [
            ("area", [f"a{i}" for i in range(326)]),
            ("ethnicity", [f"e{i}" for i in range(20)]),
            ("sex", [f"s{i}" for i in range(4)]),
            ("age", [f"y{i}" for i in range(19)]),
            ("language", [f"l{i}" for i in range(7)]),
        ]
    )
    assert schema.num_cells == 326 * 20 * 4 * 19 * 7 == 3_468_640


def test_schema_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        CategoricalSchema([])
    with pytest.raises(ValidationError):
        CategoricalSchema([("A", [])])
    with pytest.raises(ValidationError):
        CategoricalSchema([("A", ["x", "x"])])
    with pytest.raises(ValidationError):
        CategoricalSchema([("A", ["x"]), ("A", ["y"])])


def test_schema_rejects_cell_count_overflowing_64_bits():
    # 65536**4 == 2**64, one past the largest representable cell count
    huge = [(f"v{i}", [str(j) for j in range(2**16)]) for i in range(4)]
    with pytest.raises(ValidationError, match="64-bit"):
        CategoricalSchema(huge)


def test_schema_flat_roundtrip_small(ab_schema):
    for flat in range(4):
        assert ab_schema.flat_of(ab_schema.coords_of(flat)) == flat


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flat_index_bijection(data):
    sizes = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    schema = CategoricalSchema(
        [(f"v{i}", [f"c{j}" for j in range(s)]) for i, s in enumerate(sizes)]
    )
    flat = data.draw(st.integers(0, schema.num_cells - 1))
    coords = schema.coords_of(flat)
    assert all(0 <= c < s for c, s in zip(coords, sizes))
    assert schema.flat_of(coords) == flat


def test_vectorised_flat_matches_scalar(ab_schema):
    flats = np.arange(4, dtype=np.uint64)
    coords = ab_schema.coords_of_array(flats)
    back = flat_of_array(ab_schema, coords)
    assert np.array_equal(back, flats)


def test_aggregate_hand_tally(ab_schema):
    records = [("a", "x"), ("a", "x"), ("b", "x"), ("b", "y")]
    table = aggregate_microdata(records, ab_schema)
    assert table.n == 4
    assert table.same_contents(SparseContingencyTable.from_dict(ab_schema, {(0, 0): 2, (1, 0): 1, (1, 1): 1}))


def test_aggregate_empty_stream(ab_schema):
    table = aggregate_microdata([], ab_schema)
    assert table.n == 0
    assert table.num_nonzero == 0


def test_aggregate_rejects_unknown_label(ab_schema):
    with pytest.raises(ValidationError, match=r"record 2.*'z'.*'B'"):
        aggregate_microdata([("a", "x"), ("a", "z")], ab_schema)


def test_aggregate_rejects_ragged_record(ab_schema):
    with pytest.raises(ValidationError, match="record 1"):
        aggregate_microdata([("a",)], ab_schema)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("xy")), max_size=40))
def test_aggregate_total_equals_stream_length(records):
    schema = CategoricalSchema([("A", ["a", "b"]), ("B", ["x", "y"])])
    table = aggregate_microdata(records, schema)
    assert table.n == len(records)


def test_cell_size_distribution_enumeration():
    schema = CategoricalSchema([("V", [f"c{i}" for i in range(10)])])
    table = SparseContingencyTable.from_dict(
        schema, {(0,): 1, (1,): 1, (2,): 1, (3,): 2, (4,): 2}
    )
    dist = tau2_of_table(table)
    assert dist.proportion(0) == pytest.approx(0.5)
    assert dist.proportion(1) == pytest.approx(0.3)
    assert dist.proportion(2) == pytest.approx(0.2)
    assert dist.proportions.sum() == pytest.approx(1.0, abs=1e-12)


def test_cell_size_distribution_all_ones():
    schema = CategoricalSchema([("V", ["c0", "c1", "c2"])])
    table = SparseContingencyTable.from_dict(schema, {(0,): 1, (1,): 1, (2,): 1})
    dist = tau2_of_table(table)
    assert dist.proportion(1) == 1.0
    assert dist.proportion(0) == 0.0


def test_distribution_mass_identity_with_counts():
    schema = CategoricalSchema([("V", [f"c{i}" for i in range(50)])])
    rng = np.random.default_rng(7)
    counts = {(int(i),): int(c) for i, c in enumerate(rng.integers(0, 5, 50)) if c > 0}
    table = SparseContingencyTable.from_dict(schema, counts)
    dist = tau2_of_table(table)
    assert dist.sizes @ dist.proportions * schema.num_cells == pytest.approx(table.n, rel=1e-12)


def test_structural_zeros_excluded_from_random_zero_bucket():
    schema = CategoricalSchema([("V", [f"c{i}" for i in range(10)])])
    table = SparseContingencyTable.from_dict(
        schema, {(0,): 3}, structural=[(8,), (9,)]
    )
    dist = tau2_of_table(table)
    assert dist.proportion(0) == pytest.approx(7 / 8)


def test_mark_structural_zeros_moves_cells(ab_schema):
    table = SparseContingencyTable.from_dict(ab_schema, {(0, 0): 2, (1, 0): 1})
    marked = mark_structural_zeros(table, [{"A": "b", "B": "y"}])
    assert marked.num_structural_zeros == 1
    assert marked.num_random_zeros == 1
    assert marked[(1, 1)] == 0
    assert np.array_equal(marked.count, table.count)


def test_mark_structural_zeros_empty_rules_is_identity(ab_schema):
    table = SparseContingencyTable.from_dict(ab_schema, {(0, 0): 2})
    assert mark_structural_zeros(table, []) is table


def test_mark_structural_zeros_exhaustive_rule(ab_schema):
    table = SparseContingencyTable.from_dict(ab_schema, {(0, 0): 1, (0, 1): 1})
    marked = mark_structural_zeros(table, [{"A": "b"}])
    assert marked.num_random_zeros == 0
    assert marked.num_structural_zeros == 2


def test_mark_structural_zeros_rejects_rule_hitting_nonzero(ab_schema):
    table = SparseContingencyTable.from_dict(ab_schema, {(0, 0): 2})
    with pytest.raises(ValidationError, match="nonzero"):
        mark_structural_zeros(table, [{"A": "a"}])


def test_table_invariants_rejected():
    schema = CategoricalSchema([("V", ["c0", "c1"])])
    with pytest.raises(ValidationError, match="positive"):
        SparseContingencyTable(schema, [0], [0])
    with pytest.raises(ValidationError, match="duplicate"):
        SparseContingencyTable(schema, [1, 1], [2, 3])
    with pytest.raises(ValidationError, match="overlap"):
        SparseContingencyTable(schema, [0], [1], structural=[0])
    with pytest.raises(ValidationError, match="range"):
        SparseContingencyTable(schema, [5], [1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.data())
def test_counts_at_matches_getitem_and_dense_view(cells, data):
    schema = CategoricalSchema([("V", [f"c{i}" for i in range(len(cells))])])
    table = SparseContingencyTable(schema, [i for i, c in enumerate(cells) if c], [c for c in cells if c])
    k = len(cells)
    # every cell, the stored index's own ends and their neighbours, in a drawn order
    probes = list(range(k))
    if table.index.size:
        lo, hi = int(table.index[0]), int(table.index[-1])
        probes += [lo, hi] + [i for i in (lo - 1, hi + 1) if 0 <= i < k]
    probes = data.draw(st.permutations(probes))
    got = table.counts_at(np.array(probes, dtype=np.uint64))
    assert got.dtype == np.int64
    assert got.tolist() == [table[i] for i in probes] == [cells[i] for i in probes]
    assert np.array_equal(table.counts_at(np.arange(k)), table.to_dense())
    assert table.counts_at([]).shape == (0,)


def test_getitem_range_checks_a_flat_index():
    schema = CategoricalSchema([("V", ["a", "b", "c"])])
    table = SparseContingencyTable.from_dict(schema, {(0,): 1, (2,): 4})
    assert [table[i] for i in range(3)] == [1, 0, 4]
    assert table[np.uint64(2)] == 4
    for flat in (3, 7, -1, np.int64(-1), 2**64):
        with pytest.raises(ValidationError, match="out of range"):
            table[flat]


def test_counts_at_on_an_empty_table_is_zero(ab_schema):
    table = SparseContingencyTable(ab_schema, [], [])
    assert table.counts_at(np.arange(4)).tolist() == [0, 0, 0, 0]
    assert table[(1, 1)] == 0


def test_write_read_roundtrip(tmp_path, ab_schema):
    table = SparseContingencyTable.from_dict(
        ab_schema, {(0, 0): 2, (1, 0): 1}, structural=[(1, 1)]
    )
    path = tmp_path / "t.csv"
    write_table(table, str(path))
    back = read_table(str(path))
    assert back.same_contents(table)
    # canonical form is byte-stable
    write_table(back, str(tmp_path / "t2.csv"))
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)), st.integers(1, 9), max_size=8))
def test_roundtrip_identity_property(tmp_path_factory, counts):
    schema = CategoricalSchema([("A", ["a", "b", "c"]), ("B", ["w", "x", "y", "z"])])
    table = SparseContingencyTable.from_dict(schema, counts)
    path = tmp_path_factory.mktemp("io") / "t.csv"
    write_table(table, str(path))
    back = read_table(str(path))
    assert back.same_contents(table)
    write_table(back, str(path.with_name("t2.csv")))
    assert path.with_name("t2.csv").read_bytes() == path.read_bytes()


def test_read_rejects_duplicate_cell(tmp_path, ab_schema):
    table = SparseContingencyTable.from_dict(ab_schema, {(0, 0): 2})
    path = tmp_path / "t.csv"
    write_table(table, str(path))
    lines = path.read_text().splitlines()
    lines.append(lines[-1])  # duplicate the data row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_table(str(path))


def test_read_rejects_negative_count(tmp_path, ab_schema):
    path = tmp_path / "t.csv"
    write_table(SparseContingencyTable.from_dict(ab_schema, {(0, 0): 2}), str(path))
    path.write_text(path.read_text().replace(",2,0", ",-2,0"))
    with pytest.raises(FormatError, match="negative"):
        read_table(str(path))


def test_read_rejects_overflow_and_malformed(tmp_path, ab_schema):
    path = tmp_path / "t.csv"
    write_table(SparseContingencyTable.from_dict(ab_schema, {(0, 0): 2}), str(path))
    content = path.read_text()
    path.write_text(content.replace(",2,0", f",{2**63},0"))
    with pytest.raises(FormatError, match="overflow"):
        read_table(str(path))
    path.write_text(content.replace("a,x,2,0", "a,x,2"))
    with pytest.raises(FormatError, match="fields"):
        read_table(str(path))


def test_microdata_csv_roundtrip(tmp_path, ab_schema):
    micro = tmp_path / "m.csv"
    micro.write_text("A,B\na,x\na,x\nb,y\n")
    table = aggregate_microdata_csv(str(micro), ab_schema)
    assert table.same_contents(SparseContingencyTable.from_dict(ab_schema, {(0, 0): 2, (1, 1): 1}))


@st.composite
def _wide_tables(draw):
    """A table over up to 24 variables and up to 2**64 - 1 cells, its cells
    drawn anywhere and next to the last, with structural zeros."""
    sizes = draw(st.lists(st.integers(1, 16), min_size=1, max_size=24).filter(
        lambda s: math.prod(s) < 2**64))
    schema = CategoricalSchema([(f"v{i}", [f"c{j}" for j in range(s)]) for i, s in enumerate(sizes)])
    k = schema.num_cells
    cell = st.one_of(st.integers(0, k - 1), st.integers(max(0, k - 64), k - 1))
    cells = draw(st.lists(cell, unique=True, max_size=60))
    split = draw(st.integers(0, len(cells)))
    counts = draw(st.lists(st.integers(1, 2**40), min_size=split, max_size=split))
    names = draw(st.permutations(schema.names))[: draw(st.integers(1, len(sizes)))]
    return SparseContingencyTable(schema, cells[:split], counts, cells[split:]), names


@settings(max_examples=300, deadline=None)
@given(_wide_tables())
@example((SparseContingencyTable(  # 15 * 2**60 cells, between 2**63 and 2**64
    CategoricalSchema([(f"v{i}", [f"c{j}" for j in range(15 if i == 0 else 16)]) for i in range(16)]),
    [0, 15 * 2**60 - 2, 15 * 2**60 - 1], [1, 2, 3], [2**63 + 5]), ["v15", "v0", "v7"]))
def test_projection_matches_the_coordinate_array_oracle(case):
    table, names = case
    assert table.project(names).same_contents(project_by_coords(table, names))


def test_projection_sums_counts():
    schema = CategoricalSchema([("A", ["a", "b"]), ("B", ["x", "y"]), ("C", ["u", "v"])])
    table = SparseContingencyTable.from_dict(
        schema, {(0, 0, 0): 1, (0, 0, 1): 2, (1, 1, 0): 4}
    )
    proj = table.project(["A", "B"])
    assert proj.same_contents(SparseContingencyTable.from_dict(proj.schema, {(0, 0): 3, (1, 1): 4}))
    assert proj.n == table.n


def test_distribution_from_proportions_validates():
    d = CellSizeDistribution.from_proportions({0: 0.5, 1: 0.5})
    assert d.proportion(0) == 0.5
    with pytest.raises(ValidationError):
        CellSizeDistribution.from_proportions({0: 0.5, 1: 0.6})


@pytest.mark.parametrize("p0", [float("nan"), float("inf"), -0.5])
def test_distribution_refuses_non_finite_or_negative_proportions(p0):
    # NaN passed the sum check (every tau came out NaN) and was cast to int64 with a RuntimeWarning
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        CellSizeDistribution.from_proportions({0: p0, 1: 1.0})


def test_distribution_refuses_negative_cell_numbers():
    # gave a proportion of -0.2 and an NBI tau4(1) of 3.26
    with pytest.raises(ValidationError, match="nonnegative"):
        CellSizeDistribution.from_counts({0: 5, 1: 1, 2: -1})
    with pytest.raises(ValidationError, match="nonnegative"):
        CellSizeDistribution.from_counts({-1: 1, 0: 1})


@pytest.mark.parametrize("cells", [float("nan"), 1.5])
def test_distribution_refuses_cell_numbers_that_are_not_integers(cells):
    # NaN raised a raw ValueError; 1.5 was cut to 1 and gave proportions 0.5 / 0.5
    with pytest.raises(ValidationError, match="nonnegative integers"):
        CellSizeDistribution.from_counts({0: cells, 1: 1})


def test_distribution_refuses_sizes_that_do_not_ascend():
    # proportion(1) searched [0, 2, 1] and answered 0.0
    with pytest.raises(ValidationError, match="ascend strictly"):
        CellSizeDistribution(np.array([0, 2, 1]), np.array([0.5, 0.25, 0.25]))


def test_distribution_of_an_all_structural_table_is_refused(ab_schema):
    # divided 0 by 0 and gave a NaN proportion, then NaN taus
    table = SparseContingencyTable(ab_schema, [], [], [0, 1, 2, 3])
    with pytest.raises(ValidationError, match="every cell is a structural zero"):
        tau2_of_table(table)
