"""Dense multiway contingency tables and the marginal-sum function.

A table holds nonnegative counts over a grid I_1 x ... x I_l (row-major,
last axis fastest). Marginalizing onto a subset ``a`` of the axes sums out
everything else; doing this for every subset at a fixed anchor cell gives a
function on 2^L that is decreasing and supermodular, the object all bound
computations in this package rest on.

Every such value of a table is one entry of its marginal cube (the data
cube of Gray et al., 1997): shape (c_1 + 1, ..., c_l + 1), index c_j on
axis j meaning "axis j summed out", so entry [x_a, c_rest] is n(a) at x. A
table builds it once, at its first anchored function, by one concatenation
of the axis sum per axis, and only while it has at most MARGIN_CUBE_CAP
entries; each anchored function is then one gather of 2^l entries. Larger
tables collapse every axis again per anchor, which costs less than the
cube they would build.

Counts are int64 by default so oracle comparisons are bit-exact; a real
(float64) mode exists for densities. All types are immutable after
construction and safe for concurrent readers; the cube, built on demand,
takes no part in equality, repr or pickling.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

import numpy as np

from .errors import CountRangeError, RangeError
from .lattice import LatticeFunction
from .varset import VarSet, check_lattice_cap, check_num_vars

# A cell is a full multi-index, 0-based per axis.
CellIndex = tuple[int, ...]

INTEGER = "integer"
REAL = "real"

# Integer tables whose grand total would pass this are refused.
INT64_MAX = 2**63 - 1
_TOO_WIDE = f"counts sum beyond the int64 limit {INT64_MAX}"
# Real tables whose grand total would overflow float64 are refused.
FLOAT64_MAX = float(np.finfo(np.float64).max)
# Tables whose marginal cube, prod(c_j + 1) entries, would pass this many
# (128 KB) build none. On a 2-core box (Python 3.11.7, numpy 2.4) the cold
# first anchored function of a 3^7 table (16,384 cube entries) took 0.28-0.37
# ms against 0.07-0.09 ms for one collapse of every axis, and each later
# anchor about 0.025 ms; a 10^6-cell table's cube took 31-46 ms against
# about 1 ms, which is why the cap is absolute, not relative to the table.
MARGIN_CUBE_CAP = 1 << 14


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """An l-way array of nonnegative counts with optional category labels.

    Two tables are equal when their cardinalities, kind, labels and counts
    are; the marginal cube takes no part. Tables are not hashable."""

    cardinalities: tuple[int, ...]
    counts: np.ndarray
    labels: Optional[tuple[tuple[str, ...], ...]] = None
    kind: str = INTEGER

    def __post_init__(self) -> None:
        cards = check_cardinalities(self.cardinalities)
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
        object.__setattr__(self, "labels", check_labels(self.labels, cards))

    @classmethod
    def from_flat(
        cls,
        cardinalities: Sequence[int],
        flat_counts: Sequence,
        labels=None,
        kind: str = INTEGER,
    ) -> "ContingencyTable":
        cards = check_cardinalities(cardinalities)
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
    def flat(self) -> np.ndarray:
        return self.counts.reshape(-1)

    @property
    def total(self):
        return self.counts.sum().item()

    def value(self, cell: CellIndex):
        return self.counts[check_cell(self, cell)].item()

    def cell_from_names(self, names: Sequence[str]) -> CellIndex:
        """Translate per-axis category names into a 0-based cell index."""
        if self.labels is None:
            raise RangeError("table carries no category labels")
        return parse_cell(names, self.cardinalities, self.labels)

    @functools.cached_property
    def _margin_cube(self) -> Optional[np.ndarray]:
        """The read-only marginal cube, index c_j on axis j standing for
        axis j summed out; None past MARGIN_CUBE_CAP entries. Summing each
        axis in turn adds every count in the order the per-anchor collapse
        of ``cell_margin_fn`` does, so real entries agree bit for bit."""
        if prod(c + 1 for c in self.cardinalities) > MARGIN_CUBE_CAP:
            return None
        cube = self.counts
        for j in range(self.num_vars):
            cube = np.concatenate([cube, cube.sum(axis=j, keepdims=True)], axis=j)
        cube.setflags(write=False)
        return cube

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.cardinalities, self.kind, self.labels) == (
            other.cardinalities, other.kind, other.labels
        ) and np.array_equal(self.counts, other.counts)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_margin_cube", None)
        return state


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


def check_cardinalities(cardinalities) -> tuple[int, ...]:
    """A shape as positive Python ints, coerced like a cell's coordinates
    (``operator.index``): numpy integers pass, 2.7 is refused, not truncated."""
    try:
        cards = tuple(map(operator.index, cardinalities))
    except TypeError:
        cards = None
    if cards is None or not all(c >= 1 for c in cards):
        raise RangeError(f"cardinalities must be positive integers, got {cardinalities!r}")
    return cards


def check_labels(labels, cardinalities) -> Optional[tuple[tuple[str, ...], ...]]:
    """Category labels as string tuples, from one list (or tuple) per axis
    holding one distinct name per category; None when there are none."""
    if labels is None:
        return None
    if not isinstance(labels, (list, tuple)) or len(labels) != len(cardinalities):
        raise RangeError("labels must hold one list of names per axis")
    names = []
    for j, (axis, c) in enumerate(zip(labels, cardinalities)):
        if not isinstance(axis, (list, tuple)) or len(axis) != c:
            raise RangeError(f"labels of axis {j + 1} must list its {c} categories")
        names.append(tuple(str(x) for x in axis))
        repeated = [x for x, k in Counter(names[-1]).items() if k > 1]
        if repeated:
            raise RangeError(f"labels of axis {j + 1} name the category {repeated[0]!r} twice")
    return tuple(names)


def _int64_counts(counts: np.ndarray) -> np.ndarray:
    """Integer counts as int64, refusing fractions and any grand total beyond
    INT64_MAX; no marginal sum exceeds the total, so none can then wrap."""
    if counts.dtype == object:  # Python ints wider than any numpy dtype
        if counts.size and max(abs(x) for x in counts.flat) >= 2**63:
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
    try:
        counts = counts.astype(np.float64)
    except OverflowError as err:  # Python ints past float64
        raise CountRangeError(f"counts beyond the float64 limit {FLOAT64_MAX}") from err
    if not np.all(np.isfinite(counts)):
        raise RangeError("counts must be finite")
    with np.errstate(over="ignore"):
        total = counts.sum()
    if not np.isfinite(total):
        raise CountRangeError(f"counts sum beyond the float64 limit {FLOAT64_MAX}")
    return counts


def cell_coordinates(cell) -> CellIndex:
    """A cell's coordinates as Python ints (``operator.index``, so 1.0 is
    refused), with no shape to check them against."""
    try:
        return tuple(map(operator.index, cell))
    except TypeError:
        raise RangeError(f"cell {cell!r} is not a sequence of integer coordinates") from None


def check_cell(table, cell: CellIndex, owner: str = "table") -> CellIndex:
    """Validate a full cell index against the shape of a table or family."""
    if type(cell) is tuple and len(cell) == table.num_vars:
        for x, c in zip(cell, table.cardinalities):
            if type(x) is not int or not 0 <= x < c:
                break
        else:  # in-range Python ints already: the common case, returned as is
            return cell
    cell = cell_coordinates(cell)
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
        check_num_vars(self.table.num_vars, len(self.vars), "table of a marginal")

    @property
    def total(self):
        return self.table.total

    def value(self, partial_cell: CellIndex):
        return self.table.value(partial_cell)


def marginalize(table: ContingencyTable, a: VarSet) -> MarginalTable:
    """Sum the table onto the axes in ``a``.

    ``a`` equal to all variables returns the table unchanged; the empty set
    yields the grand total as a 0-way table with a single entry. The counts
    are read-only sums of a validated table, so they keep its dtype, stay
    nonnegative and stay within its total: the result is not validated again.
    """
    check_num_vars(a.num_vars, table.num_vars)
    axes = a.axes
    drop = tuple(j for j in range(table.num_vars) if j not in axes)
    counts = np.asarray(table.counts.sum(axis=drop)) if drop else table.counts
    labels = tuple(table.labels[j] for j in axes) if table.labels is not None else None
    cards = tuple(table.cardinalities[j] for j in axes)
    return MarginalTable(a, _trusted_table(cards, counts, labels, table.kind))


def _trusted_table(cardinalities, counts, labels, kind) -> ContingencyTable:
    """A table from parts already in the form ``ContingencyTable`` validates
    them into, built without validating them again; the counts become
    read-only."""
    counts.setflags(write=False)
    table = object.__new__(ContingencyTable)
    table.__dict__.update(cardinalities=cardinalities, counts=counts, labels=labels, kind=kind)
    return table


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


@functools.lru_cache(maxsize=32)
def _cube_gather(cardinalities: tuple[int, ...]) -> np.ndarray:
    """The read-only matrix whose product with an anchor x, extended by a
    1, is the flat index into the marginal cube of each of x's 2^l marginal
    counts: row a holds axis j's cube stride where bit j of a is set, else
    0, and last the sum of stride times c_j (summed out) over the axes
    outside a. Built once per shape, for shapes with a cube only."""
    l = len(cardinalities)
    strides = np.array(
        [prod(c + 1 for c in cardinalities[j + 1 :]) for j in range(l)], dtype=np.intp
    )
    bits = np.arange(1 << l)[:, None] >> np.arange(l) & 1
    summed_out = (1 - bits) @ (strides * np.array(cardinalities, dtype=np.intp))
    gather = np.column_stack([bits * strides, summed_out])
    gather.setflags(write=False)
    return gather


def _trusted_fn(num_vars: int, values: np.ndarray) -> LatticeFunction:
    """A lattice function from 2^num_vars int64 or finite float64 values,
    the form ``LatticeFunction`` validates values into, built without
    validating them again; the values become read-only."""
    values.setflags(write=False)
    fn = object.__new__(LatticeFunction)
    fn.__dict__.update(num_vars=num_vars, values=values)
    return fn


def cell_margin_fn(table: ContingencyTable, anchor: CellIndex) -> LatticeFunction:
    """All 2^l marginal counts at one anchor cell, as a lattice function.

    F(a) is the marginal table over ``a`` evaluated at the anchor's projected
    coordinates, so F(empty) is the grand total and F(L) the anchor's own
    count. F is decreasing and supermodular on 2^L for every table and anchor.

    Read from the table's marginal cube by one gather, O(2^l) per anchor once
    the cube is built (O(prod(c_j + 1)), at the first anchor), through flat
    indices from one product with the shape's cached ``_cube_gather``.
    Tables past MARGIN_CUBE_CAP stack (summed out, at the anchor) along each
    axis in turn, which leaves F on the (2,)*l grid, O(#cells + l 2^l) per
    anchor. Either way the values are sums of a validated table, int64 or
    finite float64, so the function is built without validating them again.
    """
    anchor = check_cell(table, anchor)
    l = table.num_vars
    check_lattice_cap(l)
    cube = table._margin_cube
    if cube is not None:
        index = _cube_gather(table.cardinalities).dot(anchor + (1,))
        return _trusted_fn(l, cube.take(index))
    grid = table.counts
    for j, x0 in enumerate(anchor):
        grid = np.stack([grid.sum(axis=j), grid.take(x0, axis=j)], axis=j)
    # Axis j in ``a`` -> bit j; transpose so the C-order ravel matches masks.
    return _trusted_fn(l, grid.transpose(tuple(reversed(range(l)))).reshape(-1))
