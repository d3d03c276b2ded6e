"""Frechet-type cell bounds computed from a family of released marginals.

Every operation here takes a ``MarginalFamily`` -- the marginals an agency
actually released -- never the underlying table; the full table, when known,
is only used by callers to validate. Families are checked for mutual
consistency at construction and rejected with a witness otherwise.

Bound families implemented, each per target cell and with provenance:

- the classical two-margin bounds on a 2-way table,
- the 3-way bounds from 1-dimensional or 2-dimensional margins,
- the d-dimensional generalization using all d-subset margins, with the
  normalized (per-unit-total) restatement of its lower bound,
- the cover/separator decomposition bound min n(C_i) vs
  sum n(C_i) - sum n(S_j),
- lower bounds rearranged out of the Fan inequality for an arbitrary
  sequence of released subsets,
- a comparison showing the decomposition bound dominates the Fan route on
  three-set covers.

Every plan is one recipe (``_Recipe``) of rows, each one linear inequality
den x cell >= sum of c_a x n(a) over the cell's anchored margins:
``ddim:d``, ``decomp:`` and ``fan:`` hold one row, the literal Fan its own
and the separator row it is settled against, ``3way:two-dim`` three
pair-cover rows and ``best`` its ``ddim:d`` and covering-pair rows, each
named; ``simple`` and ``3way:one-dim`` are ``ddim:1`` renamed. The recipe
depends only on which marginals were released, holds no array and no
count, and families of one structure share it (``_planned``). The first
call for a family evaluates the plan for every cell at once and caches it
as read-only arrays (``bounds_grid`` returns its lower and upper): each
row not yet in the family's memo is summed term by term over the family's
grids, in the row's order, and kept there, so plans share rows. The per-cell
functions are views: they validate the cell, read the two bounds, and read
each term at the cell when it is looked up. A plan holds O(cells x rows)
values, which suits desk-scale tables (a binary 10-way table has 1,024
cells), not millions.

Divisions are exact: integer families report the ceiling of the rational
bound (a count is an integer, so rounding up is sound and tighter), by
integer ceiling division, and quote the rational in ``terms``. Integer
arrays are int64 while the greater of an inequality's positive and negative
coefficient sums, times the total, fits, Python ints beyond.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Iterator, Literal, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CountRangeError,
    InconsistentFamilyError,
    MissingMarginalError,
    RangeError,
    SearchSpaceError,
)
from .lattice import fan_terms, real_slack
from .table import (
    FLOAT64_MAX,
    INT64_MAX,
    INTEGER,
    CellIndex,
    ContingencyTable,
    MarginalTable,
    _trusted_table,
    check_cardinalities,
    check_cell,
    check_labels,
    lift_marginal,
    marginalize,
)
from .varset import VarSet, _index, _members, check_num_vars

# The bound kernels and the oracle build arrays over a family's whole cell
# grid, so a family past this many cells is refused before they run.
GRID_CAP = 2**24


class MarginalFamily:
    """A set of released marginal tables {n(a)} over known subsets a.

    The grand total is always implicitly available (derivable from any
    member). All members must agree exactly on common sub-marginals; this is
    validated eagerly so no bound is ever computed from crossed inputs.
    """

    def __init__(
        self,
        cardinalities: Sequence[int],
        marginals: Sequence[MarginalTable],
        labels=None,
    ):
        self.cardinalities = check_cardinalities(cardinalities)
        cells = prod(self.cardinalities)
        if cells > GRID_CAP:
            raise SearchSpaceError(f"grid of {cells} cells exceeds cap {GRID_CAP}")
        self.num_vars = len(self.cardinalities)
        self.labels = check_labels(labels, self.cardinalities)
        if not marginals:
            raise RangeError("a family needs at least one marginal")
        self.released: dict[int, MarginalTable] = {}
        kinds = set()
        for m in marginals:
            check_num_vars(m.vars.num_vars, self.num_vars, "released marginal")
            expect = tuple(self.cardinalities[j] for j in m.vars.axes)
            if m.table.cardinalities != expect:
                raise RangeError(
                    f"marginal over {m.vars} has shape {m.table.cardinalities}, "
                    f"expected {expect}"
                )
            if m.vars.mask in self.released:
                raise RangeError(f"marginal over {m.vars} released twice")
            self.released[m.vars.mask] = m
            kinds.add(m.table.kind)
        if len(kinds) > 1:
            raise RangeError("cannot mix integer and real marginals in one family")
        self.kind = kinds.pop()
        self._masks = tuple(sorted(self.released))  # the structure recipes are keyed by
        self._subsets = tuple(self.released[m].vars for m in self._masks)
        self._grids: dict[int, np.ndarray] = {}  # n(a) over the whole grid, by mask
        self._plans: dict[tuple, object] = {}  # bound plans, on first use
        self._rows: dict[tuple, tuple] = {}  # their evaluated rows, shared
        self._validate_consistency()

    @classmethod
    def from_table(
        cls, table: ContingencyTable, subsets: Sequence[VarSet]
    ) -> "MarginalFamily":
        """Release the given marginals of a known table."""
        return cls(
            table.cardinalities,
            [marginalize(table, a) for a in subsets],
            labels=table.labels,
        )

    def _validate_consistency(self) -> None:
        sums: dict[tuple[int, int], np.ndarray] = {}

        def summed(m: MarginalTable, common: int) -> np.ndarray:
            """n(common) as marginal m sums it out, once per (m, common)."""
            key = (m.vars.mask, common)
            if key not in sums:
                sums[key] = _sum_down(m, common)
            return sums[key]

        margs = [self.released[a.mask] for a in self._subsets]
        for ma, mb in itertools.combinations(margs, 2):
            common = ma.vars.mask & mb.vars.mask
            va, vb = summed(ma, common), summed(mb, common)
            if self.kind == INTEGER:
                # Both are int64 over the same axes: equal bytes, equal counts.
                agree = va.tobytes() == vb.tobytes()
            else:
                slack = real_slack(float(np.max(np.abs(va))))
                agree = np.allclose(va, vb, rtol=0, atol=slack)
            if not agree:
                a, b = ma.vars, mb.vars
                bad = np.unravel_index(int(np.argmax(va != vb)), va.shape)
                cell = tuple(int(x) for x in bad)
                vals = (va[bad].item(), vb[bad].item())
                raise InconsistentFamilyError(
                    witness=dict(subsets=(a, b), common=a & b, cell=cell, values=vals),
                    message=(
                        f"marginals over {a} and {b} disagree on {a & b} "
                        f"at cell {cell}: {vals[0]} vs {vals[1]}"
                    ),
                )

    def subsets(self) -> tuple[VarSet, ...]:
        """The released subsets, ascending by mask."""
        return self._subsets

    def is_derivable(self, a: VarSet) -> bool:
        """True when some released superset of ``a`` exists (or a is empty)."""
        check_num_vars(a.num_vars, self.num_vars)
        return _read(self.num_vars, self._masks, a.mask) is not None

    def marginal(self, a: VarSet) -> MarginalTable:
        """n(a), released directly or derived from the smallest released
        superset, summed anew on each call."""
        check_num_vars(a.num_vars, self.num_vars)
        if a.mask in self.released:
            return self.released[a.mask]
        src = self._source(a.mask)
        if src is None:
            raise MissingMarginalError([a])
        counts, labels = _sum_down(src, a.mask), src.table.labels
        if labels is not None:
            labels = tuple(labels[i] for i, j in enumerate(src.vars.axes) if a.mask >> j & 1)
        return MarginalTable(a, _trusted_table(counts.shape, counts, labels, src.table.kind))

    def grid(self, a: VarSet) -> np.ndarray:
        """n(a) at every cell of the full grid, read-only: the marginal
        reshaped with a singleton axis for each variable outside ``a`` and
        broadcast. Cached per subset."""
        self.require([a])
        return _grid(self, a.mask)

    def value(self, a: VarSet, cell: CellIndex):
        """The marginal count n(a) at the projection of a full cell index."""
        cell = self.check_cell(cell)
        return self.grid(a).item(cell)

    def _source(self, mask: int) -> Optional[MarginalTable]:
        """The smallest released marginal over a superset of ``mask``, which
        n(mask) is derived from; None when nothing released contains it."""
        read = _read(self.num_vars, self._masks, mask)
        return None if read is None else self.released[read[1]]

    @functools.cached_property
    def total(self):
        """The grand total, summed out of the marginal n(∅) is derived from."""
        return self._source(0).total

    def check_cell(self, cell: CellIndex) -> CellIndex:
        return check_cell(self, cell, "family")

    def require(self, subsets: Sequence[VarSet]) -> None:
        for a in subsets:
            check_num_vars(a.num_vars, self.num_vars)
        _require(self.num_vars, self._masks, [a.mask for a in subsets])


def _summed_out(source: int, mask: int) -> tuple[int, ...]:
    """The axes of the marginal over ``source`` that its counts sum out to
    give n(mask), ``mask`` inside ``source``: those of the variables outside
    ``mask``, numbered among the variables of ``source``."""
    out = source & ~mask
    return tuple(
        (source & (1 << j) - 1).bit_count() for j in range(out.bit_length()) if out >> j & 1
    )


def _sum_down(m: MarginalTable, mask: int) -> np.ndarray:
    """n(mask) summed out of the released marginal ``m``, whose variables
    hold those of ``mask``."""
    return np.asarray(m.table.counts.sum(axis=_summed_out(m.vars.mask, mask)))


@dataclass(frozen=True)
class BoundReport:
    """Per-cell lower/upper bounds with the formula and inputs that made them.

    ``terms`` is a read-only Mapping from term names to values at the cell;
    a report from a bound plan reads each value from the plan's whole-grid
    terms when it is looked up, so ``dict(report.terms)`` takes them all.
    A linear lower (``ddim``, ``decomp``, the Fan routes) reports
    ``inequality``, one {subset, coefficient, value = n(subset)} per term,
    ``denominator`` and ``lower_exact``, sum coefficient x value / denominator.
    Such a report keeps the whole plan alive (one ``best_bounds`` report from
    a binary 10-way family holds about 0.42 MB after the family is dropped);
    ``dict(report.terms)`` detaches the values from it.
    """

    cell: CellIndex
    lower: float
    upper: float
    formula: str
    subsets: tuple[VarSet, ...]
    terms: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise RangeError(f"negative lower bound {self.lower}")
        if self.lower > self.upper:
            raise RangeError(f"crossed bounds [{self.lower}, {self.upper}] from {self.formula}")

    @property
    def width(self):
        return self.upper - self.lower

    def contains(self, value) -> bool:
        return self.lower <= value <= self.upper


def _planned(recipe):
    """A bound plan in two parts. ``recipe(num_vars, released, *args)`` is a
    pure function of the family's structure, its variable count and released
    masks (ascending), so every family of one structure shares it (cached by
    ``_recipe``, a refusal included). The plan is the recipe's
    ``evaluate(fam)``, memoised on the family keyed by the builder's
    (hashable) arguments. The decorated builder takes the family in place of
    (num_vars, released)."""
    @functools.wraps(recipe)
    def cached(fam: MarginalFamily, *key):
        plan = fam._plans.get((recipe, key))
        if plan is None:
            made = _recipe(recipe, fam.num_vars, fam._masks, *key)
            plan = fam._plans[recipe, key] = made.evaluate(fam)
        return plan
    return cached


@functools.lru_cache(maxsize=256, typed=True)
def _recipe(build, num_vars: int, released: tuple[int, ...], *args):
    """``build``'s recipe for one structure, or the refusal it raised."""
    try:
        return build(num_vars, released, *args)
    except MissingMarginalError as err:
        return _Refusal(MissingMarginalError, (err.missing,))
    except RangeError as err:
        return _Refusal(type(err), err.args)


class _Refusal(NamedTuple):
    """A structure's refusal, raised anew for each family: one raised
    exception kept in the cache would keep the frames of its raise, and so
    a family, alive."""

    kind: type
    args: tuple

    def evaluate(self, fam: MarginalFamily):
        raise self.kind(*self.args)


def _require(num_vars: int, released: tuple[int, ...], masks) -> None:
    """MissingMarginalError listing the ``masks`` not derivable from the
    ``released`` ones, ascending, each once."""
    missing = sorted({m for m in masks if _read(num_vars, released, m) is None})
    if missing:
        raise MissingMarginalError([VarSet(m, num_vars) for m in missing])


@functools.lru_cache(maxsize=1024)
def _read(num_vars: int, released: tuple[int, ...], mask: int) -> Optional[tuple]:
    """How n(mask) is read, shared by every recipe of one structure: (its
    VarSet, its source, the axes of the source's counts summed out). The
    source is the released mask over the fewest variables, then the least,
    that holds ``mask``; None when none does."""
    source = None
    for m in released:  # ascending, so the first of the fewest variables is the least
        if mask & ~m == 0 and (source is None or m.bit_count() < source.bit_count()):
            source = m
    if source is None:
        return None
    return VarSet(mask, num_vars), source, _summed_out(source, mask)


def _grid(fam: MarginalFamily, mask: int) -> np.ndarray:
    """n(mask) at every cell, ``mask`` derivable (0 the total), as ``_read``
    reads it: the released counts, or their sum over the axes ``drop``,
    broadcast and cached read-only in ``fam._grids``."""
    g = fam._grids.get(mask)
    if g is None:
        a, source, drop = _read(fam.num_vars, fam._masks, mask)
        counts = fam.released[source].table.counts
        if drop:
            counts = np.asarray(counts.sum(axis=drop))
        g = np.empty(fam.cardinalities, counts.dtype)
        g[...] = lift_marginal(counts, a, fam.cardinalities)
        fam._grids[mask] = _frozen(g)
    return g


def _settle(fam: MarginalFamily, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A real family's lower, set to the upper where it crosses it by
    rounding alone, by at most ``real_slack(total)``; the report at a cell
    refuses a wider crossing. Integer bounds are exact."""
    if fam.kind == INTEGER:
        return lower
    gap = lower - upper
    rounding = (gap > 0) & (gap <= real_slack(fam.total))
    return _frozen(np.where(rounding, upper, lower)) if rounding.any() else lower


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only, like every array a plan holds."""
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=256)
def _dsubsets(l: int, d: int) -> tuple[VarSet, ...]:
    """All C(l, d) subsets of size d, in lexicographic order."""
    return tuple(
        VarSet.from_vars(c, l) for c in itertools.combinations(range(1, l + 1), d)
    )


def _rows(l: int, released, formula, subsets, rows, layout="one", upper=(), static=()):
    """The recipe over ``rows``, each (terms, den, name, upper, settle) by
    masks, 0 the total: (mask, coefficient) terms in order, zero ones
    dropped, each derivable (else it refuses); den None (no division), 0 (no
    cell bound: lower 0) or the denominator; the masks whose least margin is
    its upper, those not derivable dropped (none left: the total); the
    earlier row its lower is first settled against, or None. ``upper``:
    ``best``'s (name, mask) uppers."""
    built, keys, sizes = [], [], []
    for terms, den, name, up, settle in rows:
        terms = tuple((m, c) for m, c in terms if c)
        _require(l, released, [m for m, _ in terms])
        keys.append((terms, den, tuple(up), None if settle is None else keys[settle]))
        plus = sum(c for _, c in terms if c > 0)
        minus = sum(-c for _, c in terms if c < 0)
        sizes.append((plus + minus, max(plus, minus)))
        up = tuple(m for m in up if _read(l, released, m) is not None) or (0,)
        built.append((terms, den, name, up, settle))
    built, keys, sizes = tuple(built), tuple(keys), tuple(sizes)
    return _Recipe(formula, subsets, layout, built, keys, sizes, tuple(upper), static)


class _Recipe(NamedTuple):
    """A plan's recipe in Python ints: ``rows`` (``_rows``) by mask. Per
    row, ``keys`` keys its evaluation in the family's memo, and ``sizes``
    holds its sum of |c| and its width, the greater of its positive and
    negative sums. ``layout``: ``one`` reports the last row with ``static``
    terms, ``named`` the greatest lower settled against the least upper and
    each exact lower by name, ``best`` the rows and ``upper`` as candidates."""

    formula: str
    subsets: tuple[VarSet, ...]
    layout: str
    rows: tuple
    keys: tuple
    sizes: tuple
    upper: tuple
    static: tuple

    def evaluate(self, fam: MarginalFamily) -> "_Plan":
        rows = []  # each (lower, upper, lower_exact, inequality), shared through fam._rows
        for r, key in enumerate(self.keys):
            row = fam._rows.get(key)
            if row is None:
                row = fam._rows[key] = self._row(fam, r, rows)
            rows.append(row)
        if self.layout == "one":
            den, (lower, upper, exact, inequality) = self.rows[-1][1], rows[-1]
            terms = {"inequality": inequality, "denominator": den or 1, "lower_exact": exact}
            terms = {**({} if den == 0 else terms), **dict(self.static)}
            return _Plan(self.formula, self.subsets, lower, upper, terms)
        if self.layout == "named":
            upper = _frozen(_min([row[1] for row in rows]))
            lower = _frozen(_settle(fam, _max([row[0] for row in rows]), upper))
            terms = {row[2]: got[2] for row, got in zip(self.rows, rows)}
            return _Plan(self.formula, self.subsets, lower, upper, terms)
        # best. Candidates by name; on a tie the first in dict order wins.
        uppers = {name: _grid(fam, m) for name, m in self.upper}
        lowers = {"zero": _frozen(np.zeros_like(uppers["total"]))}
        lowers.update((row[2], got[0]) for row, got in zip(self.rows, rows))
        if "exact" in uppers:
            lowers["exact"] = uppers["exact"]
        upper = _frozen(_min(uppers.values()))
        # Settled one by one, so the winning candidate reads as the lower.
        lowers = {name: _settle(fam, v, upper) for name, v in lowers.items()}
        terms = {
            "lowers": lowers,
            "uppers": uppers,
            "lower_from": lambda cell: max(lowers, key=lambda name: lowers[name].item(cell)),
            "upper_from": lambda cell: min(uppers, key=lambda name: uppers[name].item(cell)),
        }
        lower = _frozen(_max(lowers.values()))
        return _Plan(self.formula, self.subsets, lower, upper, terms)

    def _row(self, fam: MarginalFamily, r: int, rows: list) -> tuple:
        """Row ``r`` at every cell, read-only: (lower, upper, lower_exact,
        inequality). Its lower is settled against its settle row's lower (in
        ``rows``, the rows before it), then against its own upper."""
        _, den, _, up, settle = self.rows[r]
        upper = _frozen(_min([_grid(fam, m) for m in up]))  # n is decreasing
        if den == 0:  # no cell bound
            return _frozen(np.zeros_like(upper)), upper, None, []
        lower, exact, inequality = self._sum(fam, r)
        if settle is not None:
            lower = _settle(fam, lower, rows[settle][0])
        return _frozen(_settle(fam, lower, upper)), upper, exact, inequality

    def _sum(self, fam: MarginalFamily, r: int) -> tuple:
        """(lower, lower_exact, inequality) of row ``r``: the one place a
        lower is summed, the positive terms less the sum of the negative
        ones, each in the row's order (so not a matrix product's float sum),
        divided and clamped at zero. Every margin is at most the total, so
        each sum stays within its coefficients' sum times the total, and so
        does their difference: grids stay int64 while the row's width times
        the total fits, Python ints beyond. A real row whose sum of |c| times
        the total passes float64 is refused. In an integer family the lower
        is the exact ceiling, and lower_exact the rational num / den."""
        terms, den = self.rows[r][:2]
        reach, width = self.sizes[r]
        total, integer = fam.total, fam.kind == INTEGER
        if not integer and reach * total > FLOAT64_MAX:
            raise CountRangeError(
                f"bound terms reach {reach} times the total {total}, "
                f"beyond the float64 limit {FLOAT64_MAX}"
            )
        wide = integer and width * total > INT64_MAX
        pos, neg, inequality = 0, 0, []
        for m, c in terms:
            if m == 0:
                v = total
            else:
                v = _grid(fam, m)
                if wide:
                    v = _frozen(v.astype(object))
            if c > 0:
                pos += v if c == 1 else c * v
            else:
                neg += v if c == -1 else -c * v
            text = _members(m, fam.num_vars)[2]
            inequality.append({"subset": text, "coefficient": c, "value": v})
        num = _frozen(pos - neg)
        if den is not None and integer:
            exact = lambda cell: Fraction(num.item(cell), den)  # noqa: E731
            return np.maximum(-(-num // den), 0), exact, inequality
        exact = num if den is None else _frozen(num / den)
        return np.where(exact <= 0, 0, exact), exact, inequality


def _min(grids):
    return functools.reduce(np.minimum, grids)


def _max(grids):
    return functools.reduce(np.maximum, grids)


def _at(terms, cell: CellIndex):
    """Read whole-grid terms at one cell: arrays give their entry, callables
    are called with the cell, lists and dicts are read item by item."""
    if isinstance(terms, np.ndarray):
        return terms.item(cell)
    if callable(terms):
        return terms(cell)
    if isinstance(terms, dict):
        return {k: _at(v, cell) for k, v in terms.items()}
    if isinstance(terms, list):
        return [_at(v, cell) for v in terms]
    return terms


class _Plan(NamedTuple):
    """One bound family evaluated for every cell at once, with its terms as
    whole-grid arrays; ``report`` is the per-cell view. Every array it holds
    is a family grid, or was made read-only where the evaluation made it."""

    formula: str
    subsets: tuple[VarSet, ...]
    lower: np.ndarray
    upper: np.ndarray
    terms: dict

    def report(self, cell: CellIndex) -> BoundReport:
        lower, upper = self.lower.item(cell), self.upper.item(cell)
        terms = _TermsAt(self.terms, cell)
        return BoundReport(cell, lower, upper, self.formula, self.subsets, terms)


class _TermsAt(Mapping):
    """A plan's whole-grid terms at one cell; an entry is read (``_at``) each
    time it is looked up, and the plan's arrays are read-only, so the view
    shows the same values for as long as it lives."""

    __slots__ = ("_terms", "_cell")

    def __init__(self, terms: dict, cell: CellIndex):
        self._terms, self._cell = terms, cell

    def __getitem__(self, key):
        return _at(self._terms[key], self._cell)

    def __iter__(self) -> Iterator[str]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):  # pickles as the plain dict it reads as
        return dict, (dict(self),)


def simple_frechet(fam: MarginalFamily, cell: CellIndex) -> BoundReport:
    """Two-margin bounds on a 2-way cell: min of the margins above,
    their sum minus the total (clamped at zero) below."""
    cell = fam.check_cell(cell)
    return _simple_plan(fam).report(cell)


@_planned
def _simple_plan(l: int, released) -> _Recipe:
    if l != 2:
        raise RangeError("simple_frechet applies to 2-way tables")
    return _ddim(2, released, 1)._replace(formula="simple")


def frechet_3way(
    fam: MarginalFamily, cell: CellIndex, basis: Literal["one-dim", "two-dim"]
) -> BoundReport:
    """3-way bounds from the three 1-way margins or the three 2-way margins."""
    cell = fam.check_cell(cell)
    return _3way_plan(fam, basis).report(cell)


@_planned
def _3way_plan(l: int, released, basis: str) -> _Recipe:
    if l != 3:
        raise RangeError("frechet_3way applies to 3-way tables")
    if basis == "one-dim":  # the d = 1 case of the d-dimensional bound
        return _ddim(3, released, 1)._replace(formula="3way:one-dim")
    if basis == "two-dim":  # the two-set covers of the decomposition bound
        pairs = _dsubsets(3, 2)
        _require(3, released, [a.mask for a in pairs])
        covers = itertools.combinations(pairs, 2)
        rows = [_cover_row(3, (a.mask, b.mask), f"{a}+{b}-{a & b}") for a, b in covers]
        return _rows(3, released, "3way:two-dim", pairs, rows, "named")
    raise RangeError(f"unknown basis {basis!r}")


def frechet_ddim(fam: MarginalFamily, cell: CellIndex, d: int) -> BoundReport:
    """Bounds on the full cell from all C(l, d) margins of dimension d.

    Upper: the minimum d-subset margin. Lower: the margin sum scaled by
    1/C(l-1, d-1), minus (C(l,d)/C(l-1,d-1) - 1) times the total, clamped at
    zero. Integer families report the exact ceiling and quote the exact
    rational in ``terms``.
    """
    cell = fam.check_cell(cell)
    return _ddim_plan(fam, _index(d, "d")).report(cell)


def _ddim(l: int, released, d: int) -> _Recipe:
    if not 1 <= d <= l:
        raise RangeError(f"d={d} out of range 1..{l}")
    return _rows(l, released, f"ddim:{d}", _dsubsets(l, d), [_ddim_row(l, d)])


def _ddim_row(l: int, d: int) -> tuple:
    """``ddim:d``'s row: den x cell >= the d-subset margins less C(l, d) - den totals."""
    subsets = _dsubsets(l, d)
    den = comb(l - 1, d - 1)
    terms = [(a.mask, 1) for a in subsets] + [(0, den - comb(l, d))]
    return terms, den, f"ddim:{d}", [a.mask for a in subsets], None


_ddim_plan = _planned(_ddim)


@dataclass(frozen=True)
class KwerelStats:
    """The d-dimensional lower bound restated per unit of the grand total."""

    s_d: Fraction
    p_full: Fraction
    d: int
    num_vars: int

    def __post_init__(self) -> None:
        if self.s_d < 0:
            raise RangeError("normalized margin sum cannot be negative")


def kwerel_form(fam: MarginalFamily, cell: CellIndex, d: int) -> KwerelStats:
    """Normalized restatement: S_d = margin sum / total, and the resulting
    lower bound S_d / C(l-1, d-1) - l/d + 1 on the cell's share of the total,
    the margin sum being that of the ``ddim`` inequality's positive terms.

    Multiplying the bound by the total recovers the unclamped d-dimensional
    lower bound exactly (rational identity, relying on C(l,d)/C(l-1,d-1)=l/d).
    """
    l, d = fam.num_vars, _index(d, "d")
    cell = fam.check_cell(cell)
    total = fam.total
    if total == 0:
        raise RangeError("normalized form undefined for a zero grand total")
    inequality = _at(_ddim_plan(fam, d).terms["inequality"], cell)
    margin_sum = sum(t["value"] for t in inequality if t["coefficient"] > 0)
    s_d = Fraction(margin_sum) / Fraction(total)
    p_full = s_d / comb(l - 1, d - 1) - Fraction(l, d) + 1
    return KwerelStats(s_d=s_d, p_full=p_full, d=d, num_vars=l)


@dataclass(frozen=True)
class Decomposition:
    """An ordered cover C_1..C_d of the variables with running-intersection
    separators S_j = (C_1 | ... | C_{j-1}) & C_j."""

    cover: tuple[VarSet, ...]

    def __post_init__(self) -> None:
        if not self.cover:
            raise RangeError("a decomposition needs at least one cover set")
        cover = tuple(self.cover)
        for c in cover[1:]:
            check_num_vars(c.num_vars, cover[0].num_vars, "cover set")
        union = functools.reduce(int.__or__, (c.mask for c in cover))
        if union != (1 << cover[0].num_vars) - 1:
            raise RangeError(f"cover {[str(c) for c in cover]} does not equal L")
        object.__setattr__(self, "cover", cover)

    @property
    def num_vars(self) -> int:
        return self.cover[0].num_vars

    @property
    def separators(self) -> tuple[VarSet, ...]:
        seps, seen = [], self.cover[0].mask
        for c in self.cover[1:]:
            seps.append(VarSet(seen & c.mask, self.num_vars))
            seen |= c.mask
        return tuple(seps)


def decomposition_bound(
    fam: MarginalFamily, decomp: Decomposition, cell: CellIndex
) -> BoundReport:
    """Cover/separator bounds: min over n(C_i) above, and
    sum n(C_i) - sum n(S_j) below, clamped at zero.

    Separator marginals are obtained by marginalizing the released n(C_j),
    since each S_j sits inside its C_j.
    """
    check_num_vars(decomp.num_vars, fam.num_vars, "decomposition")
    cell = fam.check_cell(cell)
    # Plans are keyed by masks: callers may build a fresh Decomposition per call.
    return _decomp_plan(fam, tuple(c.mask for c in decomp.cover)).report(cell)


def _decomp(l: int, released, masks: tuple[int, ...]) -> _Recipe:
    cover = tuple(VarSet(m, l) for m in masks)
    formula = "decomp:" + "|".join(str(c) for c in cover)
    row = _cover_row(l, masks, formula)
    _require(l, released, masks)  # the separators lie inside the cover
    return _rows(l, released, formula, cover, [row])


def _cover_row(l: int, masks: tuple[int, ...], name: str) -> tuple:
    """The row over the cover ``masks``: its margins less its separators'.
    A cover that misses a variable is refused."""
    decomp = Decomposition(tuple(VarSet(m, l) for m in masks))
    terms = [(c.mask, 1) for c in decomp.cover] + [(s.mask, -1) for s in decomp.separators]
    return terms, None, name, masks, None


_decomp_plan = _planned(_decomp)


def fan_lower_bound(
    fam: MarginalFamily, xs: Sequence[VarSet], p: int, cell: CellIndex
) -> BoundReport:
    """Rearrange the Fan inequality into a lower bound on the full cell.

    Writing F(a) for the released marginal value at the cell's projection,
    the inequality bounds the sum of F over p-wise meets of ``xs`` by the
    weighted right-hand terms. Every right-hand term whose join-of-meets
    equals the full set L is an occurrence of the unknown cell count; moving
    those terms to the left and dividing by their total weight gives

        cell >= (lhs - other rhs terms) / (weight of the L terms),

    clamped at zero (integer families report the ceiling). All moved terms
    are recorded in the report. When no right-hand term realizes L, no cell
    bound exists; the raw inequality is still returned (lower bound zero,
    terms flagged) rather than raising.

    Every p-wise meet and every non-L join-of-meets must be released or
    derivable; otherwise MissingMarginalError lists the gaps.

    Folding every full-set term into the unknown can make this bound
    strictly tighter than the cover/separator bound on the same inputs; see
    compare_fan_vs_decomposition for the value-for-value comparison.
    """
    cell = fam.check_cell(cell)
    for x in xs:
        check_num_vars(x.num_vars, fam.num_vars, "sequence element")
    return _fan_plan(fam, tuple(x.mask for x in xs), _index(p, "p")).report(cell)


@_planned
def _fan_plan(l: int, released, masks: tuple[int, ...], p: int) -> _Recipe:
    full = (1 << l) - 1
    lhs, rhs = fan_terms(masks, p)  # rhs: (k, coefficient, join of k-wise meets)
    moved = [(k, c) for k, c, m in rhs if m == full]  # occurrences of the cell
    terms = [(m, 1) for m in lhs] + [(m, -c) for _, c, m in rhs if m != full]
    static = (
        ("rhs_terms", tuple((k, c, str(VarSet(m, l))) for k, c, m in rhs)),
        ("moved_k", tuple(k for k, _ in moved)),
        ("has_cell_bound", bool(moved)),
    )
    xs = tuple(VarSet(m, l) for m in masks)
    formula = f"fan:p={p},q={len(masks)}"
    row = (terms, sum(c for _, c in moved), formula, masks, None)  # den 0: no cell bound
    return _rows(l, released, formula, xs, [row], static=static)


@dataclass(frozen=True)
class FanDecompositionComparison:
    """Side-by-side lowers for a 3-set cover: separator route vs Fan route.
    ``dominance_holds`` is the comparison's verdict: the separator lower plus
    ``_slack``, what the marginals' disagreement can carry
    (``_dominance_slack``, 0 in an integer family), is at least the Fan's.
    ``_slack`` is private: only ``compare_fan_vs_decomposition`` sets it."""

    cell: CellIndex
    decomposition: BoundReport
    fan: Optional[BoundReport]
    fan_missing: tuple[VarSet, ...] = ()
    _slack: float = field(default=0, repr=False)

    @property
    def dominance_holds(self) -> Optional[bool]:
        if self.fan is None:
            return None
        return self.decomposition.lower + self._slack >= self.fan.lower


def compare_fan_vs_decomposition(
    fam: MarginalFamily, decomp: Decomposition, cell: CellIndex
) -> FanDecompositionComparison:
    """Compute both lower bounds for a 3-set cover and check dominance.

    The Fan route with the cover as the sequence and p=1 has right-hand
    terms at the join and the meet of the two separators, which here are
    kept as looked-up marginal values:

        cell >= n(C1) + n(C2) + n(C3) - n(S2 | S3) - n(S2 & S3)

    versus the separator route's n(S2) + n(S3). Supermodularity of the
    anchored marginal function makes the separator route at least as tight
    whenever both sides are defined, so a violation past rounding raises (it
    would falsify the implementation, not the inequality); in a real family,
    past what its marginals' disagreement can carry (``_dominance_slack``).
    When the Fan side needs a marginal the family cannot provide -- for
    covers whose separators join to the full set, that is the secret cell
    itself -- the Fan side is reported undefined rather than erroring.

    Note the distinction from fan_lower_bound, which treats every full-set
    right-hand term as an occurrence of the unknown and folds it into the
    left side; that rearranged bound is not dominated by the separator
    route in general.
    """
    if len(decomp.cover) != 3:
        raise RangeError("comparison is defined for covers of exactly 3 sets")
    cell = fam.check_cell(cell)
    dec = decomposition_bound(fam, decomp, cell)
    s2, s3 = decomp.separators
    masks = tuple(a.mask for a in decomp.cover + (s2 | s3, s2 & s3))
    try:
        fan = _literal_fan_plan(fam, masks).report(cell)
    except MissingMarginalError as gap:
        return FanDecompositionComparison(cell, dec, fan=None, fan_missing=gap.missing)
    comparison = FanDecompositionComparison(cell, dec, fan, _slack=_dominance_slack(fam, s2, s3))
    if not comparison.dominance_holds:
        raise RangeError(
            f"separator bound {dec.lower} fell below the literal fan bound "
            f"{fan.lower} at cell {cell}; this falsifies the implementation"
        )
    return comparison


def _dominance_slack(fam: MarginalFamily, s2: VarSet, s3: VarSet):
    """How far a literal Fan lower may pass the separator lower over the
    separators s2 and s3 without falsifying anything: 0 in an integer family.

    The two lowers differ by n(s2) + n(s3) - n(s2 | s3) - n(s2 & s3), at most
    0 when all four are read from M, the source of n(s2 | s3). A read from
    another released marginal A sums as many entries of the marginal common
    to A and M as the product of the cardinalities in (A & M) minus the read
    subset, and the family's check lets each entry differ from M's by
    ``real_slack`` of at most the greatest released total. Settling the
    lowers moves their gap by at most one such slack, and one more covers
    the rounding of their sums."""
    if fam.kind == INTEGER:
        return 0
    join = fam._source((s2 | s3).mask).vars.mask
    entries = 2
    for a in (s2, s3, s2 & s3):
        source = fam._source(a.mask).vars.mask
        if source != join:
            summed = source & join & ~a.mask
            entries += prod(c for j, c in enumerate(fam.cardinalities) if summed >> j & 1)
    return entries * real_slack(max(m.total for m in fam.released.values()))


@_planned
def _literal_fan_plan(l: int, released, masks: tuple[int, ...]) -> _Recipe:
    """The Fan side of the comparison, the three cover sets' margins less
    their separators' join and meet (``masks``, in that order); its lower is
    settled against its first row's, the separator route's."""
    cover, formula = masks[:3], "fan-literal:d=3"
    separator = _cover_row(l, cover, formula)
    terms = [(m, 1) for m in cover] + [(masks[3], -1), (masks[4], -1)]
    rows = [separator, (terms, None, formula, cover, 0)]
    return _rows(l, released, formula, tuple(VarSet(m, l) for m in cover), rows)


def best_bounds(fam: MarginalFamily, cell: CellIndex) -> BoundReport:
    """Intersect every applicable formula for this family at one cell.

    Uppers come from each released marginal directly (the marginal-sum
    function is decreasing). Lowers come from the d-dimensional formula for
    every d whose subsets are all derivable, from the pair bound
    n(a) + n(b) - n(a & b) for every released pair covering L, and from the
    exact count when the full set itself is derivable. Adding a marginal to
    the family can only add candidates, so the best bound never loosens.
    """
    cell = fam.check_cell(cell)
    return _best_plan(fam).report(cell)


@_planned
def _best_plan(l: int, released) -> _Recipe:
    full = (1 << l) - 1
    subsets = tuple(VarSet(m, l) for m in released)
    rows = []  # the lower candidates: ddim:d, then the released pairs covering L
    for d in range(1, l + 1):  # every d-subset derivable: so are the smaller ones
        if any(_read(l, released, a.mask) is None for a in _dsubsets(l, d)):
            break
        rows.append(_ddim_row(l, d))
    for a, b in itertools.combinations(subsets, 2):
        if a.mask | b.mask == full:
            rows.append(_cover_row(l, (a.mask, b.mask), f"pair:{a}|{b}"))
    upper = [(f"n({a})", a.mask) for a in subsets] + [("total", 0)]
    if _read(l, released, full) is not None:
        upper.append(("exact", full))
    return _rows(l, released, "best", subsets, rows, "best", upper)


def _parse_int(text: str, what: str, method: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise RangeError(f"cannot parse {what} in {method!r}") from None


def _method_plan(fam: MarginalFamily, method: str) -> _Plan:
    """The plan for a method spelled as on the command line."""
    name, colon, arg = method.partition(":")
    if method == "simple":
        return _simple_plan(fam)
    if method == "best":
        return _best_plan(fam)
    if method == "3way":
        two = fam.num_vars == 3 and all(map(fam.is_derivable, _dsubsets(3, 2)))
        return _3way_plan(fam, "two-dim" if two else "one-dim")
    if colon and name == "3way":
        return _3way_plan(fam, arg)
    if colon and name == "ddim":
        return _ddim_plan(fam, _parse_int(arg, "dimension", method))
    if colon and name == "decomp":
        cover = [VarSet.parse(part, fam.num_vars) for part in arg.split("|")]
        return _decomp_plan(fam, tuple(c.mask for c in cover))
    if colon and name == "fan":
        xs_text, _, p_text = arg.rpartition(",")
        if not xs_text:
            raise RangeError(f"fan method needs '<xs>,<p>', got {method!r}")
        xs = [VarSet.parse(part, fam.num_vars).mask for part in xs_text.split("|")]
        return _fan_plan(fam, tuple(xs), _parse_int(p_text, "p", method))
    raise RangeError(f"unknown bounds method {method!r}")


def bounds_grid(fam: MarginalFamily, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (lower, upper) arrays over the whole cell grid; entry
    ``[cell]`` equals the per-cell function's bounds. ``method`` is spelled
    as in ``method_report``. Computed once per family and method."""
    plan = _method_plan(fam, method)
    return plan.lower, plan.upper


def method_report(fam: MarginalFamily, method: str, cell: CellIndex) -> BoundReport:
    """The report of the bound named by ``method``, spelled as on the command
    line: simple | 3way[:one-dim|:two-dim] | ddim:<d> | decomp:<cover> |
    fan:<xs>,<p> | best, with covers and sequences like {1,2}|{1,3}."""
    cell = fam.check_cell(cell)
    return _method_plan(fam, method).report(cell)


def validate_report_against_table(
    report: BoundReport, table: ContingencyTable
) -> bool:
    """True when the true cell entry lies inside the reported bounds."""
    return report.contains(table.value(report.cell))
