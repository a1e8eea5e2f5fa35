"""Sparse multi-way contingency tables.

Only nonzero cells are stored (flat index -> count); zero cells are
implicit.  Structural zeros — cells that are logically impossible rather
than empty by chance — are tracked as a separate index set and never
receive counts.  Tables are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FormatError, ValidationError, integer
from .schema import CategoricalSchema, Coords

_I64_MAX = 2**63 - 1

_FORMAT_TAG = "satsynth-table v1"
MAX_DENSE_CELLS = 1 << 25  # to_dense's int64 array: 256 MB


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
        items = [(schema.flat_of(c), integer(v, 0, _I64_MAX, "cell counts must be integers in [0, 2**63)"))
                 for c, v in counts.items()]
        idx = [f for f, v in items if v]
        cnt = [v for _, v in items if v]
        st = [schema.flat_of(c) for c in structural]
        return cls(schema, idx, cnt, st)

    # -- basic properties ----------------------------------------------------

    @property
    def n(self) -> int:
        """Grand total of all counts."""
        return int(self.count.sum())

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
        if hasattr(cell, "__len__"):  # coordinates
            flat = self.schema.flat_of(cell)
        else:
            flat = integer(cell, 0, self.num_cells - 1, f"flat index out of range [0, {self.num_cells})")
        return int(self.counts_at([flat])[0])

    def check_replicate(self, synthetic: "SparseContingencyTable") -> None:
        """Refuse a synthetic table that cannot come from this one: another
        schema, or a count on one of this table's structural zeros."""
        if synthetic.schema != self.schema:
            raise ValidationError("synthetic table schema does not match the original")
        if synthetic.counts_at(self.structural).any():
            raise ValidationError("synthetic table has counts on structural zeros of the original")

    def same_contents(self, other: "SparseContingencyTable") -> bool:
        return (
            self.schema == other.schema
            and np.array_equal(self.index, other.index)
            and np.array_equal(self.count, other.count)
            and np.array_equal(self.structural, other.structural)
        )

    # -- dense views (desk scale only) ----------------------------------------

    def to_dense(self) -> np.ndarray:
        if self.num_cells > MAX_DENSE_CELLS:
            raise ValidationError(
                f"table has {self.num_cells} cells; dense view capped at {MAX_DENSE_CELLS}"
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
        shape, flat = self.schema.shape, np.zeros_like(self.index)
        for i in positions:  # a kept variable's ordinal is (index // stride) % size
            flat *= np.uint64(shape[i])
            flat += self.index // np.uint64(math.prod(shape[i + 1:])) % np.uint64(shape[i])
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
    with utf8_errors(path), open(path, newline="", encoding="utf-8") as fh:
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
    ``proportions`` aligns with it.  The k=0 bucket counts random zeros
    only: structural zeros are outside the denominator as well.
    """

    sizes: np.ndarray
    proportions: np.ndarray

    def __post_init__(self):
        if (self.sizes < 0).any():
            raise ValidationError("cell sizes must be nonnegative")
        if (np.diff(self.sizes) <= 0).any():  # proportion(k) searches them
            raise ValidationError("cell sizes must ascend strictly")
        if not (np.isfinite(self.proportions).all() and (self.proportions >= 0).all()):
            raise ValidationError("proportions must be finite and nonnegative")
        total = float(self.proportions.sum())
        if self.proportions.size and abs(total - 1.0) > 1e-12:
            raise ValidationError(f"proportions sum to {total}, expected 1")

    def proportion(self, k: int) -> float:
        k = integer(k, 0, 2**63 - 1, "a cell size must be an integer in [0, 2**63)")
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
    def from_proportions(cls, props: Mapping[int, float]) -> "CellSizeDistribution":
        """Build directly from ``{size: proportion}`` (must sum to 1)."""
        ks = sorted(integer(k, 0, _I64_MAX, "cell sizes must be nonnegative integers below 2**63") for k in props)
        if not ks or ks[0] != 0:
            ks = [0] + ks
        return cls(np.array(ks, dtype=np.int64), np.array([float(props.get(k, 0.0)) for k in ks]))

    @classmethod
    def from_counts(cls, cells_per_size: Mapping[int, int]) -> "CellSizeDistribution":
        """Build from ``{size: number of cells}``."""
        cells = {k: integer(c, 0, None, "cell numbers must be nonnegative integers") for k, c in cells_per_size.items()}
        total = sum(cells.values())
        if total <= 0:
            raise ValidationError("cell numbers must have a positive total")
        return cls.from_proportions({k: c / total for k, c in cells.items()})


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


_WRITE_BLOCK_ROWS = 1 << 13  # rows formatted per write; bounds the text held at once
_READ_BLOCK_BYTES = 1 << 20  # body bytes decoded per pass; bounds the masks and offsets held at once


def _csv_field(label: str) -> str:
    """``label`` as :mod:`csv` writes it inside a row, quoted only if needed.

    A CRLF terminator makes csv quote a lone CR as well; with LF alone it
    leaves the CR bare, and the row no longer reads back.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([label, ""])
    return buf.getvalue()[:-3]


def _merged_rows(table: SparseContingencyTable):
    """The table's rows in flat-index order, as (cells, counts, structural mask)
    blocks: the next ``_WRITE_BLOCK_ROWS`` of each index set, both cut at the
    lesser last cell of one with more after it, one inserted into the other."""
    index, structural, step = table.index, table.structural, _WRITE_BLOCK_ROWS
    i = j = 0
    while i < index.size or j < structural.size:
        cells, zeros = index[i:i + step], structural[j:j + step]
        tops = [w[-1] for w, at, whole in ((cells, i, index), (zeros, j, structural)) if at + step < whole.size]
        if tops:
            cells, zeros = (w[: np.searchsorted(w, min(tops), "right")] for w in (cells, zeros))
        at = np.searchsorted(cells, zeros)
        yield (np.insert(cells, at, zeros), np.insert(table.count[i:i + cells.size], at, 0),
               np.insert(np.zeros(cells.size, dtype=bool), at, True))
        i, j = i + cells.size, j + zeros.size


def _write_table_stream(table: SparseContingencyTable, fh) -> None:
    schema = table.schema
    fh.write(f"# {_FORMAT_TAG}\n")
    fh.write(f"# schema: {schema.to_json()}\n")
    fh.write(f"# n: {table.n}\n")
    csv.writer(fh, lineterminator="\n").writerow(list(schema.names) + ["count", "structural"])
    # each label quoted once, with its trailing comma, then gathered by ordinal
    fields = [np.array([_csv_field(c) + "," for c in cats]) for _, cats in schema.variables]
    for cells, counts, flags in _merged_rows(table):
        coords = schema.coords_of_array(cells)
        values, inverse = np.unique(counts, return_inverse=True)
        tails = np.char.add(values.astype(str), ",0\n")[inverse]
        tails[flags] = "0,1\n"  # structural rows always hold count 0
        lines = fields[0][coords[:, 0]]
        for j in range(1, len(fields)):
            lines = np.char.add(lines, fields[j][coords[:, j]])
        fh.write("".join(np.char.add(lines, tails).tolist()))


def write_table(table: SparseContingencyTable, path: str) -> None:
    """Write the canonical aggregated-CSV form (stable byte-for-byte)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_table_stream(table, fh)


_FIB = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio: spreads structured keys
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)?")  # a line as readline splits it with newline=""


def _field_keys(buf: bytes, starts: np.ndarray, sizes: np.ndarray, width: int):
    """Each field's bytes as ``width`` little-endian words, zero past its end,
    and a key per field: its one word, or a hash of its words.  ``buf``
    holds ``8 * width`` bytes past the start of the last field."""
    view = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    words = [view[starts + 8 * w] & np.take(_BYTE_MASKS, sizes - 8 * w, mode="clip") for w in range(width)]
    return words, functools.reduce(lambda key, word: key * _FIB + word, words)


@functools.lru_cache(maxsize=64)
def _spellings(cats: tuple[str, ...], limit: int):
    """A hash table of each category's spellings for :func:`_label_ordinals`,
    built once per categories and csv field size limit: quoted with doubled
    quotes, and bare where :func:`_csv_field` leaves it bare.  A label over
    ``limit``, which csv refuses, gets length -1 and matches nothing.
    """
    spellings = [(s.encode(), i) for i, c in enumerate(cats)
                 for s in dict.fromkeys((_csv_field(c), '"' + c.replace('"', '""') + '"'))]
    lengths = np.array([len(s) for s, _ in spellings])
    width = -(-int(lengths.max()) // 8)
    joined = b"".join(s for s, _ in spellings) + bytes(8 * width)
    mine, keys = _field_keys(joined, np.cumsum(lengths) - lengths, lengths, width)
    # slots[r, h] is the r-th spelling whose key hashes to h, or spelling 0
    bits = (8 * lengths.size).bit_length()  # at least 8 slots per spelling
    home = lambda k: ((k * _FIB) >> np.uint64(64 - bits)).view(np.intp)
    order = np.argsort(home(keys), kind="stable")
    ranked = home(keys)[order]
    rank = np.arange(order.size) - np.searchsorted(ranked, ranked)
    slots = np.zeros((rank.max() + 1, 2**bits), dtype=np.intp)
    slots[rank, ranked] = order
    lengths = np.where([len(cats[i]) <= limit for _, i in spellings], lengths, -1)
    ordinals = np.array([i for _, i in spellings], dtype=np.uint64)
    for shared in (*mine, keys, slots, lengths, ordinals):  # one table serves every read
        shared.flags.writeable = False
    return mine, keys, home, slots, lengths, ordinals


def _label_ordinals(buf: bytes, starts: np.ndarray, sizes: np.ndarray, spellings):
    """Ordinal of each field's category, and a mask of the fields that spell one.

    A field's key finds one candidate in the hash table of ``spellings``,
    and the candidate counts if its bytes and length match.
    """
    mine, keys, home, slots, lengths, ordinals = spellings
    theirs, their_keys = _field_keys(buf, starts, sizes, len(mine))
    their_home = home(their_keys)
    found = slots[0][their_home]
    for slot in slots[1:]:
        miss = np.flatnonzero(keys[found] != their_keys)
        found[miss] = slot[their_home[miss]]
    exact = lengths[found] == sizes
    for word, their_word in zip(mine, theirs):
        exact &= word[found] == their_word
    return ordinals[found], exact


def _decode_rows(body: bytes, schema: CategoricalSchema, tables: list):
    """Flat index, count and structural mask of every row of a block of the
    body, from one vectorised pass over its bytes; None where it cannot
    decode the block.  ``tables`` holds each variable's :func:`_spellings`.

    Rows end in LF or CRLF, the last perhaps at the end of the body, and a
    delimiter after an odd number of quotes is inside a quoted field.  Each
    label must be one of its category's spellings, the count 1 to 18 ASCII
    digits and the flag ``0``, or ``1`` with count 0.  csv reads such a
    body field for field as this pass does, and it is valid UTF-8.
    """
    p = len(schema.names)
    if body and not body.endswith(b"\n"):
        body += b"\n"
    buf = body + bytes(8 * max(len(t[0]) for t in tables))  # whole words of the longest spelling
    b = np.frombuffer(buf, dtype=np.uint8)[: len(body)]
    lf = b == ord("\n")
    delimiters = lf | (b == ord(","))
    if b'"' in body:
        quoted = np.logical_xor.accumulate(b == ord('"'))
        lf &= ~quoted
        delimiters &= ~quoted
        del quoted
    rows, extra = divmod(int(np.count_nonzero(delimiters)), p + 2)
    # each row's last delimiter is an LF, and no other one is
    if extra or (b.size and not delimiters[-1]) or np.count_nonzero(lf) != rows:
        return None
    at = np.flatnonzero(delimiters)
    del lf, delimiters  # the offsets replace the masks: each is as long as the block
    ends = at.reshape(rows, p + 2).T.copy()  # one row per field
    if not (b[ends[-1]] == ord("\n")).all():
        return None
    starts = at.reshape(p + 2, rows)  # at's memory, no longer needed
    np.add(ends[:-1], 1, out=starts[1:])
    starts[0, 1:] = ends[-1, :-1] + 1
    starts[0, :1] = 0
    ends[-1] -= b[ends[-1] - 1] == ord("\r")  # CRLF: the flag ends before the CR
    sizes = np.subtract(ends, starts, out=ends)
    flat = np.zeros(rows, dtype=np.uint64)
    for j, dim in enumerate(schema.shape):
        ordinals, exact = _label_ordinals(buf, starts[j], sizes[j], tables[j])
        if not exact.all():
            return None
        flat = flat * np.uint64(dim) + ordinals
    count = np.zeros(rows, dtype=np.int64)
    ok = (sizes[p] >= 1) & (sizes[p] <= 18)
    for k in range(min(18, int(sizes[p].max(initial=0)))):  # digit k, in the rows that have it
        has = np.flatnonzero(sizes[p] > k)
        digit = b[starts[p, has] + k] - np.uint8(ord("0"))  # wraps: any other byte is above 9
        ok[has] &= digit <= 9
        count[has] = count[has] * 10 + digit
    flag = b[starts[p + 1]]
    structural = flag == ord("1")
    ok &= (sizes[p + 1] == 1) & (structural | (flag == ord("0"))) & ~(structural & (count != 0))
    return (flat, count, structural) if ok.all() else None


def _decode_body(fh, data: bytearray, schema: CategoricalSchema, lineno: int):
    """Flat index, count and structural mask of every row of the body: the
    bytes in ``data``, then the rest of the binary file ``fh``.  It is read and
    decoded in blocks of about ``_READ_BLOCK_BYTES``; from the first block
    that cannot be, the rest is read by :func:`_check_rows`.

    A block ends at the end of the body or after the first LF past its size
    that follows an even number of its quotes, so no quoted field is split.
    The quotes are counted once, LF to LF.  A decoded block holds one CSV
    record per row and ends on a record boundary, so csv reads the rest as
    it would read the whole body.
    """
    tables = [_spellings(cats, csv.field_size_limit()) for _, cats in schema.variables]
    parts = []

    def more() -> bool:  # append the file's next bytes; False at its end
        chunk = fh.read(_READ_BLOCK_BYTES)
        data.extend(chunk)
        return bool(chunk)

    while True:  # an empty body is one empty block
        counted, quotes, hi = 0, 0, _READ_BLOCK_BYTES - 1
        while (end := data.find(b"\n", hi) + 1) or more():
            if end:
                quotes += data.count(b'"', counted, end)
                counted = hi = end
                if quotes % 2 == 0:
                    break
        else:  # no such LF: the block is the rest of the body
            end = len(data)
        block = bytes(data[:end])
        del data[:end]
        parts.append(_decode_rows(block, schema, tables))
        if parts[-1] is None:  # blank lines, lone CRs, padded counts, errors ...: csv names the row
            lineno += sum(part[0].size for part in parts[:-1])
            rest = io.StringIO((block + data + fh.read()).decode("utf-8"), newline="")
            parts[-1] = _check_rows(rest, schema, lineno)
            break
        if not (data or more()):
            break
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _check_rows(fh, schema: CategoricalSchema, lineno: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat index, count and structural mask of every body row, read row by
    row with :mod:`csv`; raises the first offending row's FormatError.

    ``lineno`` is the line number of the column header; rows are numbered
    by CSV record, as :mod:`csv` reads them.
    """
    p = len(schema.names)
    flats, counts, flags = [], [], []
    try:
        for row in csv.reader(fh):
            lineno += 1
            if len(row) != p + 2:
                raise FormatError(f"expected {p + 2} fields, got {len(row)}", line=lineno)
            try:
                flats.append(schema.flat_of(schema.ordinals_of(row[:p])))
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
            counts.append(count)
            flags.append(row[p + 1] == "1")
    except csv.Error as exc:
        raise FormatError(str(exc), line=lineno + 1) from None
    return np.array(flats, dtype=np.uint64), np.array(counts, dtype=np.int64), np.array(flags, dtype=bool)


def read_table(path: str) -> SparseContingencyTable:
    """Read an aggregated-CSV table.

    The schema is taken from the first ``# schema:`` header comment.
    Rejects malformed rows, duplicate cells, negative or overflowing
    counts, nonzero structural rows and bytes that are not UTF-8, naming
    the line.
    """
    with utf8_errors(path):
        return _read_table_file(path)


@contextmanager
def utf8_errors(path: str):
    """Report a UnicodeDecodeError of the file ``path`` as a FormatError naming the line."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(re.findall(rb"\r\n?|\n", data[: exc.start])) + 1
            raise FormatError(f"not valid UTF-8 in {path}: {exc.reason}", line=line) from None
        raise


def _read_table_file(path: str) -> SparseContingencyTable:
    header_n: int | None = None
    schema: CategoricalSchema | None = None
    with open(path, "rb") as fh:
        data = bytearray()

        def next_line() -> str:  # read on until it is whole: a CR may end a line or precede its LF
            while (line := _LINE.match(data)).end() == len(data) and (chunk := fh.read(_READ_BLOCK_BYTES)):
                data.extend(chunk)
            text = line.group().decode("utf-8")
            del data[: line.end()]
            return text

        lineno = 0
        line = next_line()
        while line.startswith("#"):
            lineno += 1
            body = line[1:].strip()
            if body.startswith("schema:"):
                parsed = CategoricalSchema.from_json(body[len("schema:"):].strip())
                if schema is None:
                    schema = parsed
            elif body.startswith("n:"):
                try:
                    header_n = int(body[len("n:"):].strip())
                except ValueError:
                    raise FormatError("unreadable n header", line=lineno) from None
            line = next_line()
        if schema is None:
            raise FormatError("no schema header found")
        lineno += 1
        header = next(csv.reader([line])) if line else []
        expected = list(schema.names) + ["count", "structural"]
        if header != expected:
            raise FormatError(f"header {header!r}, expected {expected!r}", line=lineno)
        if any("\x00" in c for _, cats in schema.variables for c in cats):
            raise FormatError("category labels containing NUL characters cannot be read")
        flat, count, structural = _decode_body(fh, data, schema, lineno)
    # explicit zero-count rows are optional random zeros and may repeat
    live = count > 0
    seen = flat[live | structural]
    if np.any(seen[1:] <= seen[:-1]):  # rows out of order, or a cell twice
        seen.sort()
        dup = seen[1:][seen[1:] == seen[:-1]]
        if dup.size:
            raise FormatError(
                f"duplicate cell {schema.labels_of(schema.coords_of(int(dup[0])))}"
            )
    del seen
    table = SparseContingencyTable(schema, flat[live], count[live], flat[structural])
    if header_n is not None and header_n != table.n:
        raise FormatError(f"header n={header_n} but counts sum to {table.n}")
    return table
