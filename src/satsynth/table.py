"""Sparse multi-way contingency tables.

Only nonzero cells are stored (flat index -> count); zero cells are
implicit.  Structural zeros — cells that are logically impossible rather
than empty by chance — are tracked as a separate index set and never
receive counts.  Tables are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import FormatError, ValidationError
from .schema import CategoricalSchema, Coords

_I64_MAX = 2**63 - 1

_FORMAT_TAG = "satsynth-table v1"


def _as_sorted_u64(values, what: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort a flat-index array, rejecting duplicates; returns (sorted, order|None)."""
    arr = np.asarray(values, dtype=np.uint64)
    if arr.ndim != 1:
        raise ValidationError(f"{what} must be one-dimensional")
    order = None
    if arr.size > 1 and np.any(arr[1:] <= arr[:-1]):
        order = np.argsort(arr, kind="stable")
        arr = arr[order]
    if arr.size > 1 and np.any(arr[1:] == arr[:-1]):
        raise ValidationError(f"duplicate cell in {what}")
    return arr, order


@dataclass(frozen=True, eq=False)
class SparseContingencyTable:
    """Immutable sparse count table over a categorical schema.

    ``index``/``count`` hold the nonzero cells (flat index ascending);
    ``structural`` holds flat indices of structural zeros.  The two index
    sets are disjoint and every index is below ``schema.num_cells``.
    """

    schema: CategoricalSchema
    index: np.ndarray
    count: np.ndarray
    structural: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))

    def __init__(self, schema, index, count, structural=()):
        index = np.asarray(index, dtype=np.uint64)
        count = np.asarray(count, dtype=np.int64)
        if index.shape != count.shape:
            raise ValidationError("index and count arrays must align")
        index, order = _as_sorted_u64(index, "nonzero cells")
        if order is not None:
            count = count[order]
        structural, _ = _as_sorted_u64(structural, "structural zeros")
        k = schema.num_cells
        for arr, what in ((index, "nonzero cell"), (structural, "structural zero")):
            if arr.size and int(arr[-1]) >= k:
                raise ValidationError(f"{what} index {int(arr[-1])} out of range [0, {k})")
        if count.size and count.min() <= 0:
            bad = int(index[int(np.argmin(count))])
            raise ValidationError(
                f"stored counts must be positive (cell {bad} has {int(count.min())}); "
                "zero cells are implicit"
            )
        if structural.size and index.size:
            clash = np.intersect1d(index, structural)
            if clash.size:
                raise ValidationError(
                    f"structural zeros overlap nonzero cells: {clash[:5].tolist()}"
                )
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "structural", structural)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_dict(
        cls,
        schema: CategoricalSchema,
        counts: Mapping[Coords, int],
        structural: Iterable[Coords] = (),
    ) -> "SparseContingencyTable":
        """Build from ``{coordinate tuple: count}``; zero entries are dropped."""
        items = [(schema.flat_of(c), int(v)) for c, v in counts.items() if int(v) != 0]
        idx = [f for f, _ in items]
        cnt = [v for _, v in items]
        st = [schema.flat_of(c) for c in structural]
        return cls(schema, idx, cnt, st)

    # -- basic properties ----------------------------------------------------

    @property
    def n(self) -> int:
        """Grand total of all counts."""
        return int(self.count.sum()) if self.count.size else 0

    @property
    def num_cells(self) -> int:
        return self.schema.num_cells

    @property
    def num_nonzero(self) -> int:
        return int(self.index.size)

    @property
    def num_structural_zeros(self) -> int:
        return int(self.structural.size)

    @property
    def num_random_zeros(self) -> int:
        return self.num_cells - self.num_nonzero - self.num_structural_zeros

    def counts_at(self, flat) -> np.ndarray:
        """This table's count at each flat index (int64), 0 where the cell is empty.

        One ``searchsorted`` into the sorted nonzero index; ``flat`` may be
        in any order.
        """
        flat = np.asarray(flat, dtype=np.uint64)
        if not self.index.size:
            return np.zeros(flat.shape, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.index, flat), self.index.size - 1)
        return np.where(self.index[pos] == flat, self.count[pos], 0)

    def __getitem__(self, cell: Coords | int) -> int:
        if isinstance(cell, (int, np.integer)):
            if not 0 <= cell < self.num_cells:
                raise ValidationError(f"flat index {cell} out of range [0, {self.num_cells})")
            flat = cell
        else:
            flat = self.schema.flat_of(cell)
        return int(self.counts_at([flat])[0])

    def check_replicate(self, synthetic: "SparseContingencyTable") -> None:
        """Refuse a synthetic table that cannot come from this one: another
        schema, or a count on one of this table's structural zeros."""
        if synthetic.schema != self.schema:
            raise ValidationError("synthetic table schema does not match the original")
        if synthetic.counts_at(self.structural).any():
            raise ValidationError("synthetic table has counts on structural zeros of the original")

    def items(self) -> Iterator[tuple[Coords, int]]:
        """Nonzero cells as (coordinates, count), flat-index ascending."""
        coords = self.schema.coords_of_array(self.index)
        for row, c in zip(coords, self.count):
            yield tuple(int(x) for x in row), int(c)

    def counts_dict(self) -> dict[Coords, int]:
        return dict(self.items())

    def same_contents(self, other: "SparseContingencyTable") -> bool:
        return (
            self.schema == other.schema
            and np.array_equal(self.index, other.index)
            and np.array_equal(self.count, other.count)
            and np.array_equal(self.structural, other.structural)
        )

    # -- dense views (desk scale only) ----------------------------------------

    def to_dense(self, max_cells: int = 1 << 25) -> np.ndarray:
        if self.num_cells > max_cells:
            raise ValidationError(
                f"table has {self.num_cells} cells; dense view capped at {max_cells}"
            )
        out = np.zeros(self.num_cells, dtype=np.int64)
        out[self.index.astype(np.int64)] = self.count
        return out.reshape(self.schema.shape)

    # -- projection ------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "SparseContingencyTable":
        """Marginal table over a subset of variables (in the order given).

        Structural-zero designations do not carry over: a projected zero is
        treated as a random zero unless re-declared.
        """
        if not names:
            raise ValidationError("projection needs at least one variable")
        positions = [self.schema.variable_index(n) for n in names]
        sub = CategoricalSchema([self.schema.variables[i] for i in positions])
        coords = self.schema.coords_of_array(self.index)[:, positions]
        flat = sub.flat_of_array(coords)
        uniq, inverse = np.unique(flat, return_inverse=True)
        agg = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(agg, inverse, self.count)
        return SparseContingencyTable(sub, uniq, agg)


# -- aggregation ----------------------------------------------------------------


def aggregate_microdata(
    records: Iterable[Sequence[str]], schema: CategoricalSchema
) -> SparseContingencyTable:
    """Cross-tabulate a stream of per-record category labels.

    Each record supplies one label per schema variable.  Unknown labels and
    ragged records are rejected with the 1-based record number.
    """
    p = len(schema.variables)
    flats: list[np.ndarray] = []
    buf: list[int] = []
    for recno, rec in enumerate(records, start=1):
        rec = tuple(rec)
        if len(rec) != p:
            raise ValidationError(
                f"record {recno}: expected {p} fields, got {len(rec)}"
            )
        flat = 0
        for j, label in enumerate(rec):
            name, cats = schema.variables[j]
            try:
                c = schema.ordinal(j, label)
            except ValidationError:
                raise ValidationError(
                    f"record {recno}: unknown category {label!r} for variable {name!r}"
                ) from None
            flat = flat * len(cats) + c
        buf.append(flat)
        if len(buf) >= 1 << 18:
            flats.append(np.array(buf, dtype=np.uint64))
            buf.clear()
    if buf:
        flats.append(np.array(buf, dtype=np.uint64))
    if not flats:
        return SparseContingencyTable(schema, [], [])
    allflat = np.concatenate(flats)
    uniq, counts = np.unique(allflat, return_counts=True)
    return SparseContingencyTable(schema, uniq, counts.astype(np.int64))


def aggregate_microdata_csv(path: str, schema: CategoricalSchema) -> SparseContingencyTable:
    """Aggregate a microdata CSV (header of variable names, one record per row)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("microdata file is empty") from None
        if tuple(header) != schema.names:
            raise FormatError(
                f"header {header!r} does not match schema variables {list(schema.names)!r}",
                line=1,
            )
        return aggregate_microdata(reader, schema)


# -- cell-size distribution -------------------------------------------------------


@dataclass(frozen=True)
class CellSizeDistribution:
    """Proportion of cells of each count size k (the table's size histogram).

    ``sizes`` lists the distinct sizes ascending, always starting with 0;
    ``cells``/``proportions`` align with it.  ``zero_basis`` records whether
    the k=0 bucket counts random zeros only (structural zeros excluded from
    the denominator as well) or all zeros.
    """

    sizes: np.ndarray
    cells: np.ndarray
    proportions: np.ndarray
    zero_basis: str  # "random" | "all"

    def __post_init__(self):
        if self.zero_basis not in ("random", "all"):
            raise ValidationError("zero_basis must be 'random' or 'all'")
        total = float(self.proportions.sum())
        if self.proportions.size and abs(total - 1.0) > 1e-12:
            raise ValidationError(f"proportions sum to {total}, expected 1")

    @property
    def k_max(self) -> int:
        return int(self.sizes[-1]) if self.sizes.size else 0

    @property
    def num_cells(self) -> int:
        return int(self.cells.sum())

    def proportion(self, k: int) -> float:
        pos = int(np.searchsorted(self.sizes, k))
        if pos < self.sizes.size and int(self.sizes[pos]) == k:
            return float(self.proportions[pos])
        return 0.0

    @property
    def nonzero_sizes(self) -> np.ndarray:
        """Sizes j >= 1 present in the table."""
        return self.sizes[self.sizes > 0]

    @property
    def nonzero_proportions(self) -> np.ndarray:
        return self.proportions[self.sizes > 0]

    @classmethod
    def from_proportions(
        cls, props: Mapping[int, float], zero_basis: str = "random"
    ) -> "CellSizeDistribution":
        """Build directly from ``{size: proportion}`` (must sum to 1)."""
        ks = sorted(int(k) for k in props)
        if ks and ks[0] < 0:
            raise ValidationError("cell sizes must be nonnegative")
        if not ks or ks[0] != 0:
            ks = [0] + ks
        sizes = np.array(ks, dtype=np.int64)
        p = np.array([float(props.get(int(k), 0.0)) for k in sizes])
        if np.any(p < 0):
            raise ValidationError("proportions must be nonnegative")
        # synthesize a nominal cell budget so `cells` is populated
        cells = np.round(p * 1_000_000).astype(np.int64)
        return cls(sizes, cells, p, zero_basis)

    @classmethod
    def from_counts(
        cls, cells_per_size: Mapping[int, int], zero_basis: str = "random"
    ) -> "CellSizeDistribution":
        ks = sorted(int(k) for k in cells_per_size)
        if not ks or ks[0] != 0:
            ks = [0] + ks
        sizes = np.array(ks, dtype=np.int64)
        cells = np.array([int(cells_per_size.get(int(k), 0)) for k in sizes], dtype=np.int64)
        total = cells.sum()
        if total <= 0:
            raise ValidationError("no cells in distribution")
        return cls(sizes, cells, cells / total, zero_basis)


def cell_size_distribution(
    table: SparseContingencyTable, zero_basis: str = "random"
) -> CellSizeDistribution:
    """Histogram of cell sizes.

    With ``zero_basis='random'`` (default) the k=0 bucket holds random
    zeros only and structural zeros are excluded from the denominator;
    with ``'all'`` every zero cell counts and the denominator is K.
    """
    if table.num_cells <= 0:
        raise ValidationError("table has no cells")
    uniq, freq = (
        np.unique(table.count, return_counts=True)
        if table.count.size
        else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    )
    if zero_basis == "random":
        zeros = table.num_random_zeros
        denom = table.num_cells - table.num_structural_zeros
    elif zero_basis == "all":
        zeros = table.num_random_zeros + table.num_structural_zeros
        denom = table.num_cells
    else:
        raise ValidationError("zero_basis must be 'random' or 'all'")
    sizes = np.concatenate([[0], uniq]).astype(np.int64)
    cells = np.concatenate([[zeros], freq]).astype(np.int64)
    return CellSizeDistribution(sizes, cells, cells / denom, zero_basis)


# -- structural zeros ---------------------------------------------------------------

Rule = Mapping[str, object]


def _rule_flat_indices(schema: CategoricalSchema, rule: Rule, cap: int = 1 << 25) -> np.ndarray:
    """Expand a {variable: category or categories} pattern to flat indices."""
    ordinal_lists = []
    size = 1
    for j, (name, cats) in enumerate(schema.variables):
        if name in rule:
            val = rule[name]
            labels = [val] if isinstance(val, str) else list(val)
            ords = sorted(schema.ordinal(j, str(lab)) for lab in labels)
        else:
            ords = list(range(len(cats)))
        ordinal_lists.append(np.array(ords, dtype=np.uint64))
        size *= len(ords)
        if size > cap:
            raise ValidationError(
                f"rule matches more than {cap} cells; restrict the pattern"
            )
    unknown = set(rule) - set(schema.names)
    if unknown:
        raise ValidationError(f"rule references unknown variables {sorted(unknown)}")
    flat = np.zeros(1, dtype=np.uint64)
    for ords, dim in zip(ordinal_lists, schema.shape):
        flat = (flat[:, None] * np.uint64(dim) + ords[None, :]).ravel()
    return flat


def mark_structural_zeros(
    table: SparseContingencyTable, rules: Sequence[Rule]
) -> SparseContingencyTable:
    """Return a table with rule-matched zero cells declared structural.

    Every rule is a ``{variable: category or list of categories}`` pattern;
    omitted variables match anything.  A rule that matches a nonzero cell is
    an error: a structural zero cannot hold a count.
    """
    if not rules:
        return table
    matched = [_rule_flat_indices(table.schema, rule) for rule in rules]
    flat = np.unique(np.concatenate(matched))
    hits = flat[table.counts_at(flat) > 0]
    if hits.size:
        offending = [table.schema.labels_of(table.schema.coords_of(int(f))) for f in hits[:10]]
        raise ValidationError(
            f"rules match {hits.size} nonzero cell(s), e.g. {offending}; "
            "a structural zero cannot hold a count"
        )
    combined = np.union1d(table.structural, flat)
    return SparseContingencyTable(table.schema, table.index, table.count, combined)


# -- file I/O ----------------------------------------------------------------------


_WRITE_BLOCK_ROWS = 1 << 16  # rows formatted per write; bounds the text held at once


def _csv_field(label: str) -> str:
    """``label`` as :mod:`csv` writes it inside a row, quoted only if needed.

    A CRLF terminator makes csv quote a lone CR as well; with LF alone it
    leaves the CR bare, and the row no longer reads back.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([label, ""])
    return buf.getvalue()[:-3]


def _write_table_stream(table: SparseContingencyTable, fh) -> None:
    schema = table.schema
    fh.write(f"# {_FORMAT_TAG}\n")
    fh.write(f"# schema: {schema.to_json()}\n")
    fh.write(f"# n: {table.n}\n")
    csv.writer(fh, lineterminator="\n").writerow(list(schema.names) + ["count", "structural"])
    merged = np.concatenate([table.index, table.structural])
    counts = np.concatenate([table.count, np.zeros(table.structural.size, dtype=np.int64)])
    flags = np.concatenate(
        [np.zeros(table.index.size, dtype=bool), np.ones(table.structural.size, dtype=bool)]
    )
    order = np.argsort(merged, kind="stable")
    merged, counts, flags = merged[order], counts[order], flags[order]
    # each label quoted once, with its trailing comma, then gathered by ordinal
    fields = [np.array([_csv_field(c) + "," for c in cats]) for _, cats in schema.variables]
    for lo in range(0, merged.size, _WRITE_BLOCK_ROWS):
        block = slice(lo, lo + _WRITE_BLOCK_ROWS)
        coords = schema.coords_of_array(merged[block])
        values, inverse = np.unique(counts[block], return_inverse=True)
        tails = np.char.add(values.astype(str), ",0\n")[inverse]
        tails[flags[block]] = "0,1\n"  # structural rows always hold count 0
        lines = fields[0][coords[:, 0]]
        for j in range(1, len(fields)):
            lines = np.char.add(lines, fields[j][coords[:, j]])
        fh.write("".join(np.char.add(lines, tails).tolist()))


def write_table(table: SparseContingencyTable, path: str) -> None:
    """Write the canonical aggregated-CSV form (stable byte-for-byte)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_table_stream(table, fh)


def _label_ordinals(labels: np.ndarray, cats: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Ordinal of each label within ``cats``, and a mask of the labels found."""
    cats_arr = np.array(cats)
    order = np.argsort(cats_arr)
    ranked = cats_arr[order]
    pos = np.minimum(np.searchsorted(ranked, labels), len(cats) - 1)
    return order.astype(np.uint64)[pos], ranked[pos] == labels


def _decode_rows(fh, schema: CategoricalSchema) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat index, count and structural mask of every body row, in one pass.

    Raises ValueError if any row is malformed; :func:`_check_rows` names it.
    """
    # one wider than the longest label, so a longer field cannot be
    # truncated into a valid label; likewise for the 0/1 flag
    dtype = [(f"label{j}", f"U{max(map(len, cats)) + 1}") for j, (_, cats) in enumerate(schema.variables)]
    dtype += [("count", "i8"), ("structural", "U2")]
    *labels, count, flag = np.loadtxt(
        fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1, unpack=True
    )
    flat = np.zeros(count.size, dtype=np.uint64)
    bad = np.zeros(count.size, dtype=bool)
    for column, (_, cats) in zip(labels, schema.variables):
        ordinals, found = _label_ordinals(column, cats)
        flat = flat * np.uint64(len(cats)) + ordinals
        bad |= ~found
    structural = flag == "1"
    bad |= ~(structural | (flag == "0")) | (count < 0) | (structural & (count != 0))
    if bad.any():
        raise ValueError(f"row {int(np.argmax(bad)) + 1} of the body fails a check")
    return flat, count, structural


def _check_rows(fh, schema: CategoricalSchema, lineno: int) -> None:
    """Read the body row by row and raise the first offending row's FormatError.

    ``lineno`` is the line number of the column header; rows are numbered
    by CSV record, as :mod:`csv` reads them.
    """
    p = len(schema.names)
    try:
        for row in csv.reader(fh):
            lineno += 1
            if len(row) != p + 2:
                raise FormatError(f"expected {p + 2} fields, got {len(row)}", line=lineno)
            try:
                schema.ordinals_of(row[:p])
            except ValidationError as exc:
                raise FormatError(str(exc), line=lineno) from None
            text = row[p].strip()
            digits = text[1:] if text[:1] in ("+", "-") else text
            if not (digits.isascii() and digits.isdigit()):
                raise FormatError(f"unreadable count {row[p]!r}", line=lineno)
            count = int(text)
            if count < 0:
                raise FormatError(f"negative count {count}", line=lineno)
            if count > _I64_MAX:
                raise FormatError(f"count {count} overflows 64-bit storage", line=lineno)
            if row[p + 1] not in ("0", "1"):
                raise FormatError(f"structural flag must be 0 or 1, got {row[p + 1]!r}", line=lineno)
            if row[p + 1] == "1" and count != 0:
                raise FormatError("structural zero rows must have count 0", line=lineno)
    except csv.Error as exc:
        raise FormatError(str(exc), line=lineno + 1) from None


def read_table(path: str, schema: CategoricalSchema | None = None) -> SparseContingencyTable:
    """Read an aggregated-CSV table.

    The schema is taken from the ``# schema:`` header comment unless one is
    passed explicitly.  Rejects malformed rows, duplicate cells, negative or
    overflowing counts, nonzero structural rows and bytes that are not
    UTF-8, naming the line.
    """
    try:
        return _read_table_text(path, schema)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(re.findall(rb"\r\n?|\n", data[: exc.start])) + 1
            raise FormatError(f"not valid UTF-8: {exc.reason}", line=line) from None
        raise


def _read_table_text(path: str, schema: CategoricalSchema | None) -> SparseContingencyTable:
    header_n: int | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        lineno = 0
        line = fh.readline()
        while line.startswith("#"):
            lineno += 1
            body = line[1:].strip()
            if body.startswith("schema:"):
                schema_json = body[len("schema:"):].strip()
                parsed = CategoricalSchema.from_json(schema_json)
                if schema is None:
                    schema = parsed
            elif body.startswith("n:"):
                try:
                    header_n = int(body[len("n:"):].strip())
                except ValueError:
                    raise FormatError("unreadable n header", line=lineno) from None
            line = fh.readline()
        if schema is None:
            raise FormatError("no schema header found and none supplied")
        lineno += 1
        header = next(csv.reader([line])) if line else []
        expected = list(schema.names) + ["count", "structural"]
        if header != expected:
            raise FormatError(f"header {header!r}, expected {expected!r}", line=lineno)
        if any("\x00" in c for _, cats in schema.variables for c in cats):
            # numpy strings drop trailing NULs, so such labels would alias
            raise FormatError("category labels containing NUL characters cannot be read")
        start = fh.tell()
        text = fh.read()
        flat, count, structural = np.empty(0, np.uint64), np.empty(0, np.int64), np.empty(0, bool)
        # loadtxt skips blank lines and numpy strings drop trailing NULs,
        # where csv reads an empty row or a different field: check row-wise
        if text.startswith(("\n", "\r")) or any(s in text for s in ("\n\n", "\n\r", "\r\r", "\x00")):
            fh.seek(start)
            _check_rows(fh, schema, lineno)
        if text:  # loadtxt warns on an empty body
            fh.seek(start)
            try:
                flat, count, structural = _decode_rows(fh, schema)
            except ValueError as exc:
                fh.seek(start)
                _check_rows(fh, schema, lineno)
                raise FormatError(f"unreadable table body: {exc}") from None
        # explicit zero-count rows are optional random zeros and may repeat
        seen = np.sort(flat[structural | (count > 0)])
        dup = seen[1:][seen[1:] == seen[:-1]]
        if dup.size:
            raise FormatError(
                f"duplicate cell {schema.labels_of(schema.coords_of(int(dup[0])))}"
            )
        live = count > 0
        table = SparseContingencyTable(schema, flat[live], count[live], flat[structural])
        if header_n is not None and header_n != table.n:
            raise FormatError(f"header n={header_n} but counts sum to {table.n}")
        return table


def table_to_string(table: SparseContingencyTable) -> str:
    """Canonical CSV text (same bytes as :func:`write_table`)."""
    buf = io.StringIO()
    _write_table_stream(table, buf)
    return buf.getvalue()
