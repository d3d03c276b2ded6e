"""Dense multiway contingency tables and the marginal-sum function.

A table holds nonnegative counts over a grid I_1 x ... x I_l (row-major,
last axis fastest). Marginalizing onto a subset ``a`` of the axes sums out
everything else; doing this for every subset at a fixed anchor cell gives a
function on 2^L that is decreasing and supermodular, the object all bound
computations in this package rest on.

Counts are int64 by default so oracle comparisons are bit-exact; a real
(float64) mode exists for densities. All types are immutable after
construction and safe for concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

import numpy as np

from .errors import CountRangeError, RangeError
from .lattice import LatticeFunction
from .varset import VarSet, check_lattice_cap

# A cell is a full multi-index, 0-based per axis.
CellIndex = tuple[int, ...]

INTEGER = "integer"
REAL = "real"

# Integer tables whose grand total would pass this are refused.
INT64_MAX = 2**63 - 1
_TOO_WIDE = f"counts sum beyond the int64 limit {INT64_MAX}"
# Real tables whose grand total would overflow float64 are refused.
FLOAT64_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class ContingencyTable:
    """An l-way array of nonnegative counts with optional category labels."""

    cardinalities: tuple[int, ...]
    counts: np.ndarray
    labels: Optional[tuple[tuple[str, ...], ...]] = None
    kind: str = INTEGER

    def __post_init__(self) -> None:
        cards = tuple(int(c) for c in self.cardinalities)
        if any(c < 1 for c in cards):
            raise RangeError(f"cardinalities must be positive, got {cards}")
        object.__setattr__(self, "cardinalities", cards)
        if self.kind not in (INTEGER, REAL):
            raise RangeError(f"kind must be 'integer' or 'real', got {self.kind!r}")
        counts = np.asarray(self.counts)
        if self.kind == INTEGER:
            counts = _int64_counts(counts).reshape(cards)
        else:
            counts = _float64_counts(counts).reshape(cards)
        if np.any(counts < 0):
            raise RangeError("counts must be nonnegative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if self.labels is not None:
            labels = tuple(tuple(str(x) for x in axis) for axis in self.labels)
            if len(labels) != len(cards):
                raise RangeError("one label list per axis is required")
            for j, axis in enumerate(labels):
                if len(axis) != cards[j]:
                    raise RangeError(
                        f"axis {j + 1} has {cards[j]} categories but "
                        f"{len(axis)} labels"
                    )
            object.__setattr__(self, "labels", labels)

    @classmethod
    def from_flat(
        cls,
        cardinalities: Sequence[int],
        flat_counts: Sequence,
        labels=None,
        kind: str = INTEGER,
    ) -> "ContingencyTable":
        cards = tuple(int(c) for c in cardinalities)
        flat = np.asarray(flat_counts)
        if flat.size != prod(cards):
            raise RangeError(
                f"expected {prod(cards)} counts for shape {cards}, got {flat.size}"
            )
        return cls(cards, flat.reshape(cards) if cards else flat, labels, kind)

    @property
    def num_vars(self) -> int:
        return len(self.cardinalities)

    @property
    def num_cells(self) -> int:
        return prod(self.cardinalities)

    @property
    def flat(self) -> np.ndarray:
        return self.counts.reshape(-1)

    @property
    def total(self):
        return self.counts.sum().item()

    def value(self, cell: CellIndex):
        return self.counts[check_cell(self, cell)].item()

    def all_vars(self) -> VarSet:
        return VarSet.full(self.num_vars)

    def cell_from_names(self, names: Sequence[str]) -> CellIndex:
        """Translate per-axis category names into a 0-based cell index."""
        if self.labels is None:
            raise RangeError("table carries no category labels")
        return parse_cell(names, self.cardinalities, self.labels)


def parse_cell(parts: Sequence, cardinalities, labels=None) -> CellIndex:
    """A cell index from per-axis category names or 0-based indices (names
    win); coordinates are not range-checked here."""
    parts = [str(p).strip() for p in parts]
    if len(parts) != len(cardinalities):
        raise RangeError(
            f"cell {','.join(parts)!r} has {len(parts)} coordinates, "
            f"expected {len(cardinalities)}"
        )
    cell = []
    for j, part in enumerate(parts):
        if labels is not None and part in labels[j]:
            cell.append(labels[j].index(part))
            continue
        try:
            cell.append(int(part))
        except ValueError:
            raise RangeError(
                f"coordinate {part!r} is neither an index nor a known "
                f"category on axis {j + 1}"
            ) from None
    return tuple(cell)


def _int64_counts(counts: np.ndarray) -> np.ndarray:
    """Integer counts as int64, refusing fractions and any grand total beyond
    INT64_MAX; no marginal sum exceeds the total, so none can then wrap."""
    if counts.dtype == object:  # Python ints wider than any numpy dtype
        if counts.size and np.abs(counts.astype(np.float64)).max() >= 2**63:
            raise CountRangeError(_TOO_WIDE)
        counts = np.array(counts.tolist())
    if not np.issubdtype(counts.dtype, np.integer):
        rounded = np.rint(counts)
        if not (np.isfinite(counts).all() and np.array_equal(counts, rounded)):
            raise RangeError("integer table given non-integer counts")
        counts = rounded
    if counts.dtype != np.int64:
        if counts.size and np.abs(counts).max() >= 2**63:
            raise CountRangeError(_TOO_WIDE)
        counts = counts.astype(np.int64)
    # Only large counts can reach the limit; sum those exactly.
    if counts.size and counts.max() > INT64_MAX // counts.size:
        if sum(int(x) for x in counts.flat) > INT64_MAX:
            raise CountRangeError(_TOO_WIDE)
    return counts


def _float64_counts(counts: np.ndarray) -> np.ndarray:
    """Real counts as float64, refusing non-finite counts and any grand total
    beyond FLOAT64_MAX; no marginal sum exceeds the total, so none can then
    overflow."""
    counts = counts.astype(np.float64)
    if not np.all(np.isfinite(counts)):
        raise RangeError("counts must be finite")
    with np.errstate(over="ignore"):
        total = counts.sum()
    if not np.isfinite(total):
        raise CountRangeError(f"counts sum beyond the float64 limit {FLOAT64_MAX}")
    return counts


def check_cell(table, cell: CellIndex, owner: str = "table") -> CellIndex:
    """Validate a full cell index against the shape of a table or family."""
    cell = tuple(int(x) for x in cell)
    if len(cell) != table.num_vars:
        raise RangeError(
            f"cell {cell} has {len(cell)} coordinates, {owner} has {table.num_vars}"
        )
    for j, (x, c) in enumerate(zip(cell, table.cardinalities)):
        if not 0 <= x < c:
            raise RangeError(f"coordinate {x} out of range 0..{c - 1} on axis {j + 1}")
    return cell


@dataclass(frozen=True)
class MarginalTable:
    """A table over the axes in ``vars`` (ascending), summed over the rest."""

    vars: VarSet
    table: ContingencyTable

    def __post_init__(self) -> None:
        if self.table.num_vars != len(self.vars):
            raise RangeError(
                f"marginal over {self.vars} must have {len(self.vars)} axes, "
                f"got {self.table.num_vars}"
            )

    @property
    def total(self):
        return self.table.total

    def value(self, partial_cell: CellIndex):
        return self.table.value(partial_cell)


def marginalize(table: ContingencyTable, a: VarSet) -> MarginalTable:
    """Sum the table onto the axes in ``a``.

    ``a`` equal to all variables returns the table unchanged; the empty set
    yields the grand total as a 0-way table with a single entry.
    """
    if a.num_vars != table.num_vars:
        raise RangeError(
            f"subset over {a.num_vars} variables applied to a "
            f"{table.num_vars}-way table"
        )
    drop = tuple(j for j in range(table.num_vars) if j not in a.axes)
    counts = table.counts.sum(axis=drop) if drop else table.counts
    cards = tuple(table.cardinalities[j] for j in a.axes)
    labels = (
        tuple(table.labels[j] for j in a.axes) if table.labels is not None else None
    )
    return MarginalTable(a, ContingencyTable(cards, counts, labels, table.kind))


def project_cell(cell: CellIndex, a: VarSet) -> CellIndex:
    """Restrict a full multi-index to the coordinates in ``a``, ascending."""
    if len(cell) != a.num_vars:
        raise RangeError(
            f"cell {cell} has {len(cell)} coordinates, subset is over {a.num_vars}"
        )
    return tuple(cell[j] for j in a.axes)


def lift_marginal(values: np.ndarray, a: VarSet, cardinalities) -> np.ndarray:
    """Values over the axes of ``a`` (row-major) reshaped onto all l axes, a
    singleton axis for each variable outside ``a``: they broadcast on the grid."""
    return values.reshape(
        tuple(c if a.mask >> j & 1 else 1 for j, c in enumerate(cardinalities))
    )


def cell_margin_fn(table: ContingencyTable, anchor: CellIndex) -> LatticeFunction:
    """All 2^l marginal counts at one anchor cell, as a lattice function.

    F(a) is the marginal table over ``a`` evaluated at the anchor's projected
    coordinates, so F(empty) is the grand total and F(L) the anchor's own
    count. F is decreasing and supermodular on 2^L for every table and anchor.

    Computed by stacking (summed out, at the anchor) along each axis in turn,
    which leaves F on the (2,)*l grid, O(#cells + l 2^l) overall.
    """
    anchor = check_cell(table, anchor)
    l = table.num_vars
    check_lattice_cap(l)
    grid = table.counts
    for j, x0 in enumerate(anchor):
        grid = np.stack([grid.sum(axis=j), grid.take(x0, axis=j)], axis=j)
    # Axis j in ``a`` -> bit j; transpose so the C-order ravel matches masks.
    return LatticeFunction(l, grid.transpose(tuple(reversed(range(l)))).reshape(-1))
