"""Canonical table CSV against the row-at-a-time reference writer and reader."""

import csv
import io
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import project_by_coords, read_table_rowwise, write_table_rowwise, write_table_whole
from satsynth import table as table_module
from satsynth.errors import FormatError, ValidationError
from satsynth.generator import esc_like_spec, generate_table, scaled_spec
from satsynth.schema import CategoricalSchema
from satsynth.table import (
    SparseContingencyTable, aggregate_microdata_csv, read_table, write_table,
)

# characters that need quoting or trip tokenisers, plus any non-NUL code point
_LABEL_CHARS = st.one_of(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "#"]),
    st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
)
_LABELS = st.lists(st.text(_LABEL_CHARS, max_size=4), min_size=1, max_size=4, unique=True)


@st.composite
def _tables(draw):
    """A small table whose cells are random zeros, structural zeros or counts."""
    schema = CategoricalSchema(
        [(f"v{j}", cats) for j, cats in enumerate(draw(st.lists(_LABELS, min_size=1, max_size=3)))]
    )
    kinds = draw(st.lists(st.sampled_from("0sc"), min_size=schema.num_cells, max_size=schema.num_cells))
    counts = draw(st.lists(st.integers(1, 2**40), min_size=schema.num_cells, max_size=schema.num_cells))
    index = [i for i, k in enumerate(kinds) if k == "c"]
    structural = [i for i, k in enumerate(kinds) if k == "s"]
    return SparseContingencyTable(schema, index, [counts[i] for i in index], structural)


def _oracle_text(table) -> str:
    buf = io.StringIO()
    write_table_rowwise(table, buf)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_write_matches_rowwise_writer(table):
    buf = io.StringIO()
    table_module._write_table_stream(table, buf)
    assert buf.getvalue() == _oracle_text(table)


@st.composite
def _runs_of_cells(draw):
    """A one-variable table of up to 300 cells whose nonzero cells and
    structural zeros come in runs, so either may fill a write block."""
    kinds = "".join(draw(st.lists(st.tuples(st.sampled_from("0sc"), st.integers(1, 70)), min_size=1,
                                  max_size=12).map(lambda runs: [kind * n for kind, n in runs])))[:300]
    schema = CategoricalSchema([("cell", [f"c{i}" for i in range(len(kinds))])])
    index = [i for i, k in enumerate(kinds) if k == "c"]
    return SparseContingencyTable(schema, index, [i + 1 for i in index], [i for i, k in enumerate(kinds) if k == "s"])


@pytest.mark.parametrize("block", [1, 3, 64])
@settings(max_examples=60, deadline=None)
@given(st.one_of(_tables(), _runs_of_cells()))
def test_merging_writer_matches_the_whole_table_writer(block, table):
    with mock.patch.object(table_module, "_WRITE_BLOCK_ROWS", block):
        got, want = io.StringIO(), io.StringIO()
        table_module._write_table_stream(table, got)
        write_table_whole(table, want)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=150, deadline=None)
@given(_tables(), st.data())
def test_read_matches_rowwise_reader(tmp_path_factory, table, data):
    """Rows in any order, with explicit zero-count rows mixed in, CRLF or all fields quoted."""
    schema = table.schema
    rows = [list(schema.labels_of(schema.coords_of(int(f)))) + [int(c), 0]
            for f, c in zip(table.index, table.count)]
    rows += [list(schema.labels_of(schema.coords_of(int(f)))) + [0, 1] for f in table.structural]
    zeros = data.draw(st.lists(st.integers(0, schema.num_cells - 1), max_size=3))
    rows += [list(schema.labels_of(schema.coords_of(f))) + [0, 0] for f in zeros]
    rows = data.draw(st.permutations(rows))
    buf = io.StringIO()
    buf.write(f"# satsynth-table v1\n# schema: {schema.to_json()}\n# n: {table.n}\n")
    # with LF rows csv leaves a lone CR bare unless it quotes every field
    dialect = data.draw(st.sampled_from([{"lineterminator": "\r\n"},
                                         {"lineterminator": "\n", "quoting": csv.QUOTE_ALL}]))
    writer = csv.writer(buf, **dialect)
    writer.writerow([*schema.names, "count", "structural"])
    writer.writerows(rows)
    path = tmp_path_factory.mktemp("io") / "t.csv"
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")
    back = read_table(str(path))
    assert back.same_contents(read_table_rowwise(str(path)))
    assert back.same_contents(table)


@settings(max_examples=100, deadline=None)
@given(_tables(), st.data())
def test_blocks_of_any_size_read_like_one_block(tmp_path_factory, table, data):
    """Cut after 1, 7 or 64 bytes, a body decodes as in one block: quoted labels
    holding commas, quotes, LF or CRLF, LF or CRLF row ends, no final newline."""
    schema = table.schema
    rows = [list(schema.labels_of(schema.coords_of(int(f)))) + [int(c), 0]
            for f, c in zip(table.index, table.count)]
    rows += [list(schema.labels_of(schema.coords_of(int(f)))) + [0, 1] for f in table.structural]
    zeros = data.draw(st.lists(st.integers(0, schema.num_cells - 1), max_size=3))
    rows += [list(schema.labels_of(schema.coords_of(f))) + [0, 0] for f in zeros]
    rows = data.draw(st.permutations(rows))
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    body = []
    for row in rows:  # write_table's quoting, then the drawn row end
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        body.append(buf.getvalue()[:-2] + end)
    text = f"# satsynth-table v1\n# schema: {schema.to_json()}\n# n: {table.n}\n"
    text += ",".join([*schema.names, "count", "structural"]) + "\n" + "".join(body)
    if body and data.draw(st.booleans()):
        text = text.removesuffix(end)
    path = tmp_path_factory.mktemp("io") / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    whole = read_table(str(path))
    assert whole.same_contents(table)
    with mock.patch.object(table_module, "_check_rows", _refuse):
        for block in (1, 7, 64):
            with mock.patch.object(table_module, "_READ_BLOCK_BYTES", block):
                assert read_table(str(path)).same_contents(whole), block


_FUZZ_SCHEMA = CategoricalSchema([("A", ["a", "b", ""]), ("B", ["x", 'y"', "z,", "w\n"])])
_FUZZ_TOKENS = st.sampled_from(
    ["a", "b", "x", "y", "z", "w", ",", '"', "\n", "\r", "\r\n", " ", "\t", "\x00", "0", "1", "2",
     "-", "+", "5.0", str(2**63), "a,x,1,0\n", "b,y,0,1\n", "a,x,1,0\r\n", "b,y,0,1\r\n",
     '"a"', '"y"""', '"z,"']
)


def _outcome(reader, path):
    try:
        table = reader(path)
    except FormatError as exc:
        return str(exc), exc.line
    return table.index.tolist(), table.count.tolist(), table.structural.tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(_FUZZ_TOKENS, max_size=30))
@example(["a,x,1,0,", "\n", "x,1,0\n"])  # 5 fields then 3: as many delimiters as two good rows
def test_any_body_reads_like_rowwise(tmp_path_factory, tokens):
    """Well-formed or not, a body gives the row-wise reader's table or error."""
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    header = f"# satsynth-table v1\n# schema: {_FUZZ_SCHEMA.to_json()}\nA,B,count,structural\n"
    path.write_text(header + "".join(tokens), encoding="utf-8", newline="")
    assert _outcome(read_table, str(path)) == _outcome(read_table_rowwise, str(path))


_SCHEMA = CategoricalSchema([("A", ["a001", "a002"]), ("B", ["x", "y"])])
# lines 1-3 comments, 4 the column header, 5-7 the rows
_BASE = (
    "# satsynth-table v1\n"
    f"# schema: {_SCHEMA.to_json()}\n"
    "# n: 3\n"
    "A,B,count,structural\n"
    "a001,x,2,0\n"
    "a002,x,1,0\n"
    "a002,y,0,1\n"
)

_MALFORMED = {
    "missing field": ("a001,x,2,0\n", "a001,x,2\n"),
    "extra field": ("a001,x,2,0\n", "a001,x,2,0,0\n"),
    "negative count": ("a001,x,2,0\n", "a001,x,-2,0\n"),
    "overflowing count": ("a001,x,2,0\n", f"a001,x,{2**63},0\n"),
    "duplicate nonzero row": ("a002,x,1,0\n", "a002,x,1,0\na002,x,1,0\n"),
    "blank line": ("a002,x,1,0\n", "a002,x,1,0\n\n"),
    "blank first row": ("a001,x,2,0\n", "\na001,x,2,0\n"),
    "blank crlf line": ("a002,x,1,0\n", "a002,x,1,0\r\n\r\n"),
    "whitespace-only line": ("a002,x,1,0\n", "a002,x,1,0\n   \n"),
    "unknown label": ("a002,x,1,0\n", "a009,x,1,0\n"),
    "label extending a valid one": ("a002,x,1,0\n", "a0011,x,1,0\n"),
    "label longer than the field width": ("a002,x,1,0\n", "a00111,x,1,0\n"),
    "count abc": ("a002,x,1,0\n", "a002,x,abc,0\n"),
    "count 5.0": ("a002,x,1,0\n", "a002,x,5.0,0\n"),
    "empty count": ("a002,x,1,0\n", "a002,x,,0\n"),
    "structural flag 2": ("a002,x,1,0\n", "a002,x,1,2\n"),
    "structural flag 10": ("a002,x,1,0\n", "a002,x,1,10\n"),
    "padded structural flag": ("a002,x,1,0\n", "a002,x,1, 0\n"),
    "NUL after the flag": ("a002,x,1,0\n", "a002,x,1,0\x00\n"),
    "NUL after a label": ("a002,x,1,0\n", "a002,x\x00,1,0\n"),
    "structural row with a count": ("a002,y,0,1\n", "a002,y,3,1\n"),
    "duplicate across nonzero and structural": ("a002,y,0,1\n", "a002,y,0,1\na001,x,0,1\n"),
    "header n mismatch": ("# n: 3\n", "# n: 4\n"),
    "header n without rows": ("a001,x,2,0\na002,x,1,0\na002,y,0,1\n", ""),
    "unterminated quote": ("a002,y,0,1\n", 'a002,y,0,1\n"a001,y,1,0\n'),
}


@pytest.mark.parametrize("old, new", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_file_raises_the_rowwise_error(tmp_path, old, new):
    path = tmp_path / "t.csv"
    path.write_text(_BASE.replace(old, new, 1), encoding="utf-8", newline="")
    with pytest.raises(FormatError) as expected:
        read_table_rowwise(str(path))
    with pytest.raises(FormatError) as got:
        read_table(str(path))
    assert str(got.value) == str(expected.value)
    assert got.value.line == expected.value.line


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("old, new", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_row_in_a_later_block_raises_the_rowwise_error(tmp_path, old, new, block):
    # ten zero-count rows first put the malformed row past the first block
    text = _BASE.replace(old, new, 1).replace("structural\n", "structural\n" + "a001,y,0,0\n" * 10, 1)
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(FormatError) as expected:
        read_table_rowwise(str(path))
    with mock.patch.object(table_module, "_READ_BLOCK_BYTES", block), pytest.raises(FormatError) as got:
        read_table(str(path))
    assert str(got.value) == str(expected.value)
    assert got.value.line == expected.value.line


@pytest.mark.parametrize("block", [1, 7, 64])
def test_rowwise_reader_gets_only_the_body_from_the_failing_block(tmp_path, block):
    # one padded count in the last row sent the whole body to the row-wise reader
    text = _BASE.replace("structural\n", "structural\n" + "a001,y,0,0\n" * 10, 1)
    text = text.replace("a002,y,0,1\n", "a002,x, 0 ,0\na002,y,0,1\n")
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    tails, check_rows = [], table_module._check_rows

    def spy(fh, schema, lineno):
        tails.append(fh.read())
        return check_rows(io.StringIO(tails[-1], newline=""), schema, lineno)

    with mock.patch.object(table_module, "_READ_BLOCK_BYTES", block), \
            mock.patch.object(table_module, "_check_rows", spy):
        back = read_table(str(path))
    assert back.same_contents(read_table_rowwise(str(path)))
    [tail] = tails
    assert text.endswith(tail) and "a002,x, 0 ,0\n" in tail and len(tail) < 2 * block + 24
    if block == 1:  # one row a block
        assert tail == "a002,x, 0 ,0\na002,y,0,1\n"


_ACCEPTED = {
    "crlf line ends": ("\n", "\r\n"),
    "cr line ends": (",0\n", ",0\r"),
    "padded and signed counts": ("a001,x,2,0\n", "a001,x, +2 ,0\n"),
    "explicit zero row": ("a001,x,2,0\n", "a001,y,0,0\na001,x,2,0\n"),
    "quoted labels": ("a001,x,2,0\n", '"a001","x",2,0\n'),
    "no final newline": ("a002,y,0,1\n", "a002,y,0,1"),
}


@pytest.mark.parametrize("old, new", _ACCEPTED.values(), ids=_ACCEPTED.keys())
def test_accepted_variants_read_like_rowwise(tmp_path, old, new):
    path = tmp_path / "t.csv"
    path.write_text(_BASE.replace(old, new), encoding="utf-8", newline="")
    back = read_table(str(path))
    assert back.same_contents(read_table_rowwise(str(path)))
    assert back.n == 3 and back.num_structural_zeros == 1


_VECTORISED = {
    "lf": ("\n", "\n"),
    "crlf": ("\n", "\r\n"),
    "quoted labels": ("a001,x,2,0\n", '"a001","x",2,0\n'),
    "no final newline": ("a002,y,0,1\n", "a002,y,0,1"),
    "explicit zero row": ("a001,x,2,0\n", "a001,y,0,0\na001,x,2,0\n"),
    "empty body": ("a001,x,2,0\na002,x,1,0\na002,y,0,1\n", ""),
}


def _refuse(*args):
    raise AssertionError("the body fell back to the row-wise reader")


@pytest.mark.parametrize("old, new", _VECTORISED.values(), ids=_VECTORISED.keys())
def test_canonical_bodies_decode_without_the_rowwise_reader(tmp_path, old, new):
    path = tmp_path / "t.csv"
    text = _BASE.replace(old, new)
    if not new:
        text = text.replace("# n: 3", "# n: 0")
    path.write_text(text, encoding="utf-8", newline="")
    expected = read_table_rowwise(str(path))
    with mock.patch.object(table_module, "_check_rows", _refuse):
        assert read_table(str(path)).same_contents(expected)


@settings(max_examples=100, deadline=None)
@given(_tables())
def test_written_tables_decode_without_the_rowwise_reader(tmp_path_factory, table):
    """Every label write_table spells, quoted or bare, is read in the vectorised pass."""
    path = tmp_path_factory.mktemp("io") / "t.csv"
    write_table(table, str(path))
    with mock.patch.object(table_module, "_check_rows", _refuse):
        assert read_table(str(path)).same_contents(table)


def test_large_canonical_table_reads_like_rowwise(tmp_path):
    table = generate_table(scaled_spec(esc_like_spec(), 200_000), 1)
    path = tmp_path / "t.csv"
    write_table(table, str(path))
    back = read_table(str(path))
    assert back.same_contents(read_table_rowwise(str(path)))
    assert back.same_contents(table)


@pytest.fixture(scope="module")
def full_scale(tmp_path_factory):
    table = generate_table(esc_like_spec(), 1)
    path = tmp_path_factory.mktemp("full") / "t.csv"
    write_table(table, str(path))
    return table, str(path)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_scale_read_stays_under_40_megabytes(full_scale):
    # the 7.8 MB file holds a 5.4 MB table; one pass over its whole body holds about 93 MB
    table, path = full_scale
    assert _traced_peak(read_table, path) < 40e6
    assert read_table(path).same_contents(table)


def test_full_scale_write_stays_under_20_megabytes(full_scale, tmp_path):
    # 2**16-row blocks of np.char text would peak at 40 MB
    table, path = full_scale
    out = tmp_path / "again.csv"
    assert _traced_peak(write_table, table, str(out)) < 20e6
    assert out.read_bytes() == Path(path).read_bytes()


MIB = 2**20


def test_full_scale_read_holds_one_block_not_the_file(full_scale):
    # the 7.8 MB file held whole for the decode peaked at 23 MiB, and the
    # block's byte masks held past their offsets at 15.8 MiB
    table, path = full_scale
    assert _traced_peak(read_table, path) < 15 * MIB


def test_full_scale_write_merges_without_whole_table_copies(full_scale, tmp_path):
    # concatenating and argsorting the index and structural zeros peaked at 13.4 MiB
    table, _ = full_scale
    assert _traced_peak(write_table, table, str(tmp_path / "again.csv")) < 6 * MIB


def test_full_scale_projection_reads_ordinals_off_the_flat_index(full_scale):
    # the (rows x variables) int64 coordinate array and its column copy peaked at 23.3 MiB
    table, _ = full_scale
    names = ["ethnicity", "age", "language"]
    assert _traced_peak(table.project, names) < 17 * MIB
    assert table.project(names).same_contents(project_by_coords(table, names))


@pytest.mark.parametrize("count", ["1_000", "٥", "0x10"])
def test_count_grammar_is_ascii_decimal(tmp_path, count):
    path = tmp_path / "t.csv"
    path.write_text(_BASE.replace("a001,x,2,0", f"a001,x,{count},0"), encoding="utf-8")
    with pytest.raises(FormatError, match=r"line 5: unreadable count"):
        read_table(str(path))


def test_field_over_csv_size_limit_is_a_format_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_BASE.replace("a002,x,1,0", "a" * 200_000 + ",x,1,0"), encoding="utf-8")
    with pytest.raises(FormatError, match="line 6: field larger than field limit"):
        read_table(str(path))


def test_nul_in_labels_rejected(tmp_path):
    schema = CategoricalSchema([("A", ["a", "a\x00"])])
    path = tmp_path / "t.csv"
    write_table(SparseContingencyTable(schema, [0], [1]), str(path))
    with pytest.raises(FormatError, match="NUL"):
        read_table(str(path))


def test_empty_body_reads_as_empty_table(tmp_path):
    path = tmp_path / "t.csv"
    write_table(SparseContingencyTable(_SCHEMA, [], []), str(path))
    back = read_table(str(path))
    assert back.num_nonzero == 0 and back.n == 0
    assert np.array_equal(back.structural, np.empty(0, dtype=np.uint64))


@pytest.mark.parametrize("crlf", [False, True])
@pytest.mark.parametrize("line,good,bad", [(6, b"a002,x", b"a\xff02,x"), (2, b"# schema", b"# sch\xc3ema")])
def test_non_utf8_bytes_are_a_format_error_naming_the_line(tmp_path, crlf, line, good, bad):
    data = _BASE.encode().replace(good, bad, 1)
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"line {line}: not valid UTF-8") as info:
        read_table(str(path))
    assert info.value.line == line


def test_microdata_that_is_not_utf8_is_a_format_error_naming_the_line(tmp_path):
    path = tmp_path / "micro.csv"
    path.write_bytes(b"A\na1\na\xff2\n")
    with pytest.raises(FormatError, match="line 3: not valid UTF-8"):
        aggregate_microdata_csv(str(path), CategoricalSchema([("A", ["a1", "a2"])]))


@pytest.mark.parametrize("name", ["A\n", "A\r", "x\r\ny"])
def test_variable_names_with_line_breaks_are_rejected(name):
    # write_table quotes such a name in the one-line column header, which read_table cannot read back
    with pytest.raises(ValidationError, match="line break"):
        CategoricalSchema([(name, ["a", "b"])])


def test_spelling_tables_are_built_once_per_categories_and_field_size_limit(tmp_path):
    # a read reuses the tables an earlier read built, but not those of another field size limit
    schema = CategoricalSchema([("A", ["a" * 200, "b"]), ("B", ["x"])])
    table = SparseContingencyTable(schema, [0, 1], [1, 2])
    path = tmp_path / "t.csv"
    write_table(table, str(path))
    table_module._spellings.cache_clear()
    for _ in range(3):
        assert read_table(str(path)).same_contents(table)
    assert table_module._spellings.cache_info()[:2] == (4, 2)  # (hits, misses): one build per variable
    old = csv.field_size_limit(100)
    try:
        with pytest.raises(FormatError, match="line 5: field larger than field limit"):
            read_table(str(path))
    finally:
        csv.field_size_limit(old)
    assert read_table(str(path)).same_contents(table)
