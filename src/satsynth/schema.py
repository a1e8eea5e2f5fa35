"""Categorical variable schemas and the cell-index lattice they define.

A schema is an ordered list of categorical variables.  The Cartesian
product of the category lists forms a lattice of K cells; each cell is
addressed either by a coordinate tuple (one category ordinal per
variable) or by its row-major flat index in ``[0, K)``.  Flat indices
are the canonical cell keys throughout the package: they are compact,
sortable, and make parallel per-cell random streams reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, integer

_U64_MAX = 2**64 - 1

Coords = tuple[int, ...]


@dataclass(frozen=True)
class CategoricalSchema:
    """Ordered categorical variables defining a multi-way cell lattice.

    Parameters
    ----------
    variables : sequence of (name, categories)
        Variable names with their ordered category labels.  Category
        order is significant: it fixes the ordinal coding and therefore
        the row-major flat indexing of cells.
    """

    variables: tuple[tuple[str, tuple[str, ...]], ...]
    _label_maps: tuple[dict[str, int], ...] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __init__(self, variables: Iterable[tuple[str, Sequence[str]]]):
        vars_norm = tuple((str(n), tuple(str(c) for c in cats)) for n, cats in variables)
        if not vars_norm:
            raise ValidationError("schema needs at least one variable")
        seen = set()
        for name, cats in vars_norm:
            if name in seen:
                raise ValidationError(f"duplicate variable name {name!r}")
            if "\r" in name or "\n" in name:
                # the CSV column header is one line; such a name cannot be read back
                raise ValidationError(f"variable name {name!r} contains a line break")
            seen.add(name)
            if not cats:
                raise ValidationError(f"variable {name!r} has no categories")
            if len(set(cats)) != len(cats):
                raise ValidationError(f"variable {name!r} has duplicate category labels")
        k = 1
        for _, cats in vars_norm:
            k *= len(cats)
            if k > _U64_MAX:
                raise ValidationError(
                    "total cell count exceeds the 64-bit limit "
                    f"(overflowed while multiplying category counts)"
                )
        object.__setattr__(self, "variables", vars_norm)
        object.__setattr__(
            self,
            "_label_maps",
            tuple({c: i for i, c in enumerate(cats)} for _, cats in vars_norm),
        )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    @property
    def shape(self) -> tuple[int, ...]:
        """Category count per variable."""
        return tuple(len(cats) for _, cats in self.variables)

    @property
    def num_cells(self) -> int:
        """K, the total number of cells in the lattice."""
        k = 1
        for s in self.shape:
            k *= s
        return k

    def variable_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown variable {name!r}") from None

    def ordinal(self, var: int | str, label: str) -> int:
        """Category ordinal of ``label`` within a variable."""
        i = self.variable_index(var) if isinstance(var, str) else integer(
            var, 0, len(self.variables) - 1, "variable index must be an integer in [0, number of variables)")
        try:
            return self._label_maps[i][label]
        except KeyError:
            name = self.variables[i][0]
            raise ValidationError(f"unknown category {label!r} for variable {name!r}") from None

    # -- flat <-> coordinates ------------------------------------------------

    def flat_of(self, coords: Sequence[int]) -> int:
        """Row-major flat index of a coordinate tuple."""
        shape = self.shape
        if len(coords) != len(shape):
            raise ValidationError(
                f"expected {len(shape)} coordinates, got {len(coords)}"
            )
        flat = 0
        for c, size in zip(coords, shape):
            flat = flat * size + integer(c, 0, size - 1, f"coordinate out of range [0, {size})")
        return flat

    def coords_of(self, flat: int) -> Coords:
        """Inverse of :meth:`flat_of`."""
        flat = integer(flat, 0, self.num_cells - 1, f"flat index out of range [0, {self.num_cells})")
        out = []
        for size in reversed(self.shape):
            out.append(flat % size)
            flat //= size
        return tuple(reversed(out))

    def coords_of_array(self, flat: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`coords_of`; returns an ``(n, p)`` int64 array."""
        rem = np.asarray(flat, dtype=np.uint64).copy()
        p = len(self.shape)
        out = np.empty((rem.size, p), dtype=np.int64)
        for j in range(p - 1, -1, -1):
            size = np.uint64(self.shape[j])
            out[:, j] = (rem % size).astype(np.int64)
            rem //= size
        return out

    def labels_of(self, coords: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.variables[i][1][c] for i, c in enumerate(coords))

    def ordinals_of(self, labels: Sequence[str]) -> Coords:
        if len(labels) != len(self.variables):
            raise ValidationError(
                f"expected {len(self.variables)} labels, got {len(labels)}"
            )
        return tuple(self.ordinal(i, lab) for i, lab in enumerate(labels))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"variables": [[n, list(cats)] for n, cats in self.variables]},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CategoricalSchema":
        try:
            data = json.loads(text)
            variables = data["variables"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(f"malformed schema JSON: {exc}") from exc
        return cls([(n, cats) for n, cats in variables])
