"""Generation of sparse tables with a prescribed cell-size histogram.

The headline evaluation data for this package (a pupil-level schools
census substitute) is not redistributable, so experiments run on
generated stand-ins: tables whose cell-size histogram matches a target
specification.  Bucket sizes are allocated by largest-remainder quota
(deterministic, exact to within one cell per bucket) and placed on
uniformly random cells.  A geometric tail covers the aggregated
"size >= start" bucket that published summaries typically end with.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer
from .schema import CategoricalSchema
from .table import SparseContingencyTable

# Cell-size histogram of the ESC-substitute table: 3,468,640 cells,
# n = 8,190,870; sizes 11 and above are aggregated.
ESC_LIKE_CELL_SIZE_FREQUENCIES: dict[int, int] = {
    0: 3_134_980,
    1: 119_917,
    2: 51_412,
    3: 25_952,
    4: 19_450,
    5: 13_076,
    6: 10_345,
    7: 7_947,
    8: 7_077,
    9: 5_809,
    10: 5_163,
}
ESC_LIKE_TAIL = {"start": 11, "cells": 67_512, "total": 7_468_867}
ESC_LIKE_N = 8_190_870
MAX_LINE_CELLS = 1 << 20  # a spec without a schema gets one label per cell: 2**22 took 1 GB


def esc_like_schema() -> CategoricalSchema:
    """Five pupil-level variables: 326 x 20 x 4 x 19 x 7 = 3,468,640 cells."""
    return CategoricalSchema(
        [
            ("area", [f"a{i + 1:03d}" for i in range(326)]),
            ("ethnicity", [f"e{i + 1:02d}" for i in range(20)]),
            ("sex", [f"s{i + 1}" for i in range(4)]),
            ("age", [f"y{i + 1:02d}" for i in range(19)]),
            ("language", [f"l{i + 1}" for i in range(7)]),
        ]
    )


@dataclass(frozen=True)
class TailSpec:
    """Aggregated bucket of sizes >= start: how many cells, their total count."""

    start: int
    cells: int
    total: int

    def __post_init__(self):
        for name, low in (("start", 1), ("cells", 0), ("total", 0)):
            value = integer(getattr(self, name), low, None, f"tail {name} must be an integer >= {low}")
            object.__setattr__(self, name, value)
        if self.cells and self.total < self.cells * self.start:
            raise ValidationError(
                f"tail total {self.total} cannot give {self.cells} cells a count >= {self.start}"
            )


@dataclass(frozen=True)
class HistogramSpec:
    """Target histogram: cells per size, optional tail, optional schema."""

    cells_per_size: dict[int, int]
    tail: TailSpec | None = None
    schema: CategoricalSchema | None = None
    num_cells: int | None = None

    def __post_init__(self):
        rule = "sizes and cell counts must be nonnegative integers"
        object.__setattr__(self, "cells_per_size", {
            integer(s, 0, None, rule): integer(c, 0, None, rule) for s, c in self.cells_per_size.items()})
        if self.schema is None and self.num_cells is None:
            raise ValidationError("spec needs a schema or num_cells")
        if self.num_cells is not None:
            high = MAX_LINE_CELLS if self.schema is None else None
            n = integer(self.num_cells, 1, high, "num_cells must be an integer >= 1, and num_cells without a schema "
                                                 "must be <= 2**20 (one label per cell)")
            object.__setattr__(self, "num_cells", n)
        k = self.total_cells
        if self.num_cells is not None and self.schema is not None and self.schema.num_cells != self.num_cells:
            raise ValidationError("num_cells disagrees with the schema's cell count")
        declared = sum(c for s, c in self.cells_per_size.items())
        declared += self.tail.cells if self.tail else 0
        zeros = self.cells_per_size.get(0)
        if zeros is None:
            if declared > k:
                raise ValidationError(f"histogram places {declared} cells but the table has {k}")
        elif declared != k:
            raise ValidationError(
                f"histogram places {declared} cells (zeros included) but the table has {k}"
            )

    @property
    def total_cells(self) -> int:
        return self.schema.num_cells if self.schema is not None else self.num_cells

    def resolved_schema(self) -> CategoricalSchema:
        if self.schema is not None:
            return self.schema
        width = len(str(self.total_cells - 1))
        return CategoricalSchema(
            [("cell", [f"c{i:0{width}d}" for i in range(self.total_cells)])]
        )

    def to_json(self) -> str:
        data: dict = {"cells_per_size": {str(k): v for k, v in sorted(self.cells_per_size.items())}}
        if self.tail:
            data["tail"] = {"start": self.tail.start, "cells": self.tail.cells, "total": self.tail.total}
        if self.schema is not None:
            data["schema"] = json.loads(self.schema.to_json())
        if self.num_cells is not None:
            data["num_cells"] = self.num_cells
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "HistogramSpec":
        try:
            data = json.loads(text)
            if unknown := sorted(data.keys() - cls.__dataclass_fields__.keys()):
                raise ValidationError(f"malformed histogram spec: unknown keys {unknown}")
            cells = {int(k): v for k, v in data["cells_per_size"].items()}  # JSON keys are strings
            if len(cells) < len(data["cells_per_size"]):
                raise ValidationError("malformed histogram spec: two cells_per_size keys name one size")
            tail = TailSpec(**data["tail"]) if data.get("tail") else None
            schema = None
            if data.get("schema"):
                schema = CategoricalSchema([(n, c) for n, c in data["schema"]["variables"]])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            raise ValidationError(f"malformed histogram spec: {exc!r}") from exc
        return cls(cells, tail, schema, data.get("num_cells"))


def esc_like_spec() -> HistogramSpec:
    """Full-scale spec matching the published histogram exactly."""
    return HistogramSpec(
        dict(ESC_LIKE_CELL_SIZE_FREQUENCIES),
        TailSpec(**ESC_LIKE_TAIL),
        esc_like_schema(),
    )


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` proportional to nonnegative weights."""
    if total == 0:
        return np.zeros(weights.size, dtype=np.int64)
    shares = weights / weights.sum() * total
    base = np.floor(shares).astype(np.int64)
    short = total - int(base.sum())
    if short:
        order = np.argsort(-(shares - base), kind="stable")
        base[order[:short]] += 1
    return base


def scaled_spec(base: HistogramSpec, num_cells: int) -> HistogramSpec:
    """Shrink or grow a spec to a new cell count, preserving proportions."""
    num_cells = integer(num_cells, 1, None, "num_cells must be >= 1")
    sizes = sorted(s for s in base.cells_per_size if s > 0)
    weights = np.array([base.cells_per_size[s] for s in sizes], dtype=np.float64)
    tail_cells_w = float(base.tail.cells) if base.tail else 0.0
    factor = num_cells / base.total_cells
    target_nonzero = int(round((weights.sum() + tail_cells_w) * factor))
    alloc = _largest_remainder(
        np.concatenate([weights, [tail_cells_w]]), min(target_nonzero, num_cells)
    )
    cells = {int(s): int(a) for s, a in zip(sizes, alloc[:-1]) if a > 0}
    tail = None
    if base.tail and alloc[-1] > 0:
        mean = base.tail.total / base.tail.cells
        t_cells = int(alloc[-1])
        tail = TailSpec(base.tail.start, t_cells, max(int(round(mean * t_cells)), t_cells * base.tail.start))
    return HistogramSpec(cells, tail, None, num_cells)


def _tail_counts(tail: TailSpec) -> np.ndarray:
    """Per-cell counts for the aggregated tail bucket.

    Sizes follow a geometric quota starting at ``tail.start`` whose mean
    matches ``total / cells``; the grand total is then made exact by
    spreading unit adjustments over the largest cells.
    """
    if tail.cells == 0:
        return np.zeros(0, dtype=np.int64)
    mean = tail.total / tail.cells
    excess = mean - tail.start
    if excess <= 0:
        counts = np.full(tail.cells, tail.start, dtype=np.int64)
    else:
        r = excess / (excess + 1.0)
        # enough buckets that the truncated mass rounds to nothing
        span = max(1, int(math.ceil(math.log(0.25 / tail.cells) / math.log(r))))
        ks = np.arange(tail.start, tail.start + span + 1, dtype=np.int64)
        weights = (1.0 - r) * r ** np.arange(span + 1, dtype=np.float64)
        alloc = _largest_remainder(weights, tail.cells)
        counts = np.repeat(ks, alloc)
    counts = np.sort(counts)[::-1].copy()
    diff = tail.total - int(counts.sum())
    while diff != 0:
        if diff > 0:
            q, rem = divmod(diff, counts.size)
            counts += q
            counts[:rem] += 1
            diff = 0
        else:
            eligible = np.flatnonzero(counts > tail.start)
            if eligible.size == 0:
                raise ValidationError("tail total too small for its start bound")
            take = min(-diff, eligible.size)
            counts[eligible[:take]] -= 1
            diff += take
    return counts


def generate_table(spec: HistogramSpec, seed: int) -> SparseContingencyTable:
    """Random table realizing the spec's histogram exactly.

    Deterministic given (spec, integer seed in [0, 2**64)).  Nonzero cells are placed uniformly
    at random; bucket sizes are met exactly, and the tail's grand total
    is exact.
    """
    seed = integer(seed, 0, 2**64 - 1, "seed must be in [0, 2**64)")
    schema = spec.resolved_schema()
    k = spec.total_cells
    pieces = [
        np.full(c, s, dtype=np.int64)
        for s, c in sorted(spec.cells_per_size.items())
        if s > 0 and c > 0
    ]
    if spec.tail:
        pieces.append(_tail_counts(spec.tail))
    counts = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
    if counts.size > k:
        raise ValidationError("more nonzero cells than table cells")
    rng = np.random.default_rng(seed)
    idx = rng.choice(k, size=counts.size, replace=False).astype(np.uint64)
    order = np.argsort(idx, kind="stable")
    return SparseContingencyTable(schema, idx[order], counts[order])
