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

The classical bounds read those kernels: ``simple`` and ``3way:one-dim``
are the ``ddim:1`` arrays, and ``3way:two-dim`` and ``best``'s ``pair:``
lowers are the decomposition bound over two-set covers.

Each bound is a closed form in the marginals, so the first call for a family
evaluates it for every cell at once on ``MarginalFamily.grid`` arrays and
caches the result on the family as a plan of read-only arrays
(``bounds_grid`` returns its lower and upper). The per-cell functions are
views: they validate the cell, read the two bounds, and hand back terms as
a read-only mapping over the plan's whole-grid terms at that cell, each
entry read when it is looked up. A plan holds O(cells x candidates) values,
which suits desk-scale tables (a binary 10-way table has 1,024 cells), not
millions.

Divisions are exact: integer families report the ceiling of the rational
bound (a count is an integer, so rounding up is sound and tighter), by
integer ceiling division, and quote the rational in ``terms``. Integer
arrays are int64 while a bound's largest intermediate (at most C(l, d)
times the total for the d-dimensional bound) fits, Python ints beyond.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, prod
from typing import Iterator, Literal, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    CountRangeError,
    InconsistentFamilyError,
    MissingMarginalError,
    RangeError,
    SearchSpaceError,
)
from .lattice import REAL_RTOL, fan_terms
from .table import (
    FLOAT64_MAX,
    INT64_MAX,
    INTEGER,
    CellIndex,
    ContingencyTable,
    MarginalTable,
    check_cell,
    check_labels,
    lift_marginal,
    marginalize,
)
from .varset import VarSet

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
        self.cardinalities = tuple(int(c) for c in cardinalities)
        if any(c < 1 for c in self.cardinalities):
            raise RangeError(f"cardinalities must be positive, got {cardinalities}")
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
            if m.vars.num_vars != self.num_vars:
                raise RangeError(
                    f"marginal over {m.vars} does not match {self.num_vars} variables"
                )
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
        self._subsets = tuple(self.released[m].vars for m in sorted(self.released))
        self._cache: dict[int, MarginalTable] = dict(self.released)
        self._grids: dict[int, np.ndarray] = {}
        self._plans: dict[tuple, object] = {}  # bound plans, built on first use
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
                drop = tuple(i for i, j in enumerate(m.vars.axes) if not common >> j & 1)
                sums[key] = m.table.counts.sum(axis=drop)
            return sums[key]

        margs = [self.released[a.mask] for a in self._subsets]
        for ma, mb in itertools.combinations(margs, 2):
            common = ma.vars.mask & mb.vars.mask
            va, vb = summed(ma, common), summed(mb, common)
            if self.kind == INTEGER:
                # Both are int64 over the same axes: equal bytes, equal counts.
                agree = va.tobytes() == vb.tobytes()
            else:
                scale = max(1.0, float(np.max(np.abs(va))))
                agree = np.allclose(va, vb, rtol=0, atol=REAL_RTOL * scale)
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
        mask = a.mask
        return mask in self._cache or mask == 0 or any(mask & ~m == 0 for m in self.released)

    def marginal(self, a: VarSet) -> MarginalTable:
        """n(a), released directly or derived from the smallest released superset."""
        if a.num_vars != self.num_vars:
            raise RangeError("subset over a different variable count")
        if a.mask in self._cache:
            return self._cache[a.mask]
        src = self._source(a.mask)
        if src is None:
            raise MissingMarginalError([a])
        derived = marginalize(src.table, _relative(src.vars, a))
        result = MarginalTable(a, derived.table)
        self._cache[a.mask] = result
        return result

    def grid(self, a: VarSet) -> np.ndarray:
        """n(a) at every cell of the full grid, read-only: the marginal
        reshaped with a singleton axis for each variable outside ``a`` and
        broadcast. Cached per subset."""
        g = self._grids.get(a.mask)
        if g is None or a.num_vars != self.num_vars:  # marginal() refuses the latter
            counts = self.marginal(a).table.counts
            g = self._grids[a.mask] = np.empty(self.cardinalities, counts.dtype)
            g[...] = lift_marginal(counts, a, self.cardinalities)
            g.setflags(write=False)
        return g

    def value(self, a: VarSet, cell: CellIndex):
        """The marginal count n(a) at the projection of a full cell index."""
        cell = self.check_cell(cell)
        return self.grid(a).item(cell)

    def _source(self, mask: int) -> Optional[MarginalTable]:
        """The smallest released marginal over a superset of ``mask``, which
        n(mask) is derived from; None when nothing released contains it."""
        supersets = [m for m in self.released if mask & ~m == 0]
        if not supersets:
            return None
        return self.released[min(supersets, key=lambda m: (m.bit_count(), m))]

    @functools.cached_property
    def total(self):
        """The grand total, summed out of the marginal n(∅) is derived from."""
        src = self._source(0).table
        return marginalize(src, VarSet.empty(src.num_vars)).table.total

    def check_cell(self, cell: CellIndex) -> CellIndex:
        return check_cell(self, cell, "family")

    def require(self, subsets: Sequence[VarSet]) -> None:
        missing = [a for a in subsets if not self.is_derivable(a)]
        if missing:
            raise MissingMarginalError(sorted(set(missing), key=lambda a: a.mask))


def _relative(outer: VarSet, inner: VarSet) -> VarSet:
    """Re-index ``inner`` (a subset of ``outer``) over outer's own axes."""
    if not inner <= outer:
        raise RangeError(f"{inner} is not contained in {outer}")
    positions = {v: i + 1 for i, v in enumerate(outer.vars)}
    return VarSet.from_vars([positions[v] for v in inner.vars], len(outer))


@dataclass(frozen=True)
class BoundReport:
    """Per-cell lower/upper bounds with the formula and inputs that made them.

    ``terms`` is a read-only Mapping from term names to values at the cell;
    a report from a bound plan reads each value from the plan's whole-grid
    terms when it is looked up, so ``dict(report.terms)`` takes them all.
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


def _planned(build):
    """Memoise a whole-grid plan on its family, keyed by the builder's
    (hashable) arguments, so that later calls for any cell reuse it."""
    def cached(fam: MarginalFamily, *key):
        plan = fam._plans.get((build, key))
        if plan is None:
            plan = fam._plans[build, key] = _settled(fam, build(fam, *key))
        return plan
    return cached


def _settled(fam: MarginalFamily, plan: "_Plan") -> "_Plan":
    """The plan, with its lower settled against its upper (``_settle``)."""
    lower = _settle(fam, plan.lower, plan.upper)
    return plan if lower is plan.lower else replace(plan, lower=lower)


def _settle(fam: MarginalFamily, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A real family's lower, set to the upper where it crosses it by
    rounding alone, by at most REAL_RTOL * max(1, total); the report at a
    cell refuses a wider crossing. Integer bounds are exact."""
    if fam.kind == INTEGER:
        return lower
    gap = lower - upper
    rounding = (gap > 0) & (gap <= REAL_RTOL * max(1.0, fam.total))
    return np.where(rounding, upper, lower) if rounding.any() else lower


@functools.lru_cache(maxsize=256)
def _dsubsets(l: int, d: int) -> tuple[VarSet, ...]:
    """All C(l, d) subsets of size d, in lexicographic order."""
    return tuple(
        VarSet.from_vars(c, l) for c in itertools.combinations(range(1, l + 1), d)
    )


def _operands(fam: MarginalFamily, subsets: Sequence[VarSet], reach: int) -> list:
    """The grids of derivable ``subsets`` for a formula whose intermediates
    stay within ``reach`` times the total: int64 if that fits, else Python ints.
    A real family whose intermediates could overflow float64 is refused."""
    fam.require(subsets)
    grids = [fam.grid(a) for a in subsets]
    if fam.kind == INTEGER and reach * fam.total > INT64_MAX:
        grids = [g.astype(object) for g in grids]
    elif fam.kind != INTEGER and reach * fam.total > FLOAT64_MAX:
        raise CountRangeError(
            f"bound terms reach {reach} times the total {fam.total}, "
            f"beyond the float64 limit {FLOAT64_MAX}"
        )
    return grids


def _clamp(raw):  # a lower bound never reports below zero
    return np.where(raw <= 0, 0, raw)


def _ceil_div(num, den: int):  # exact ceiling of num / den, clamped at zero
    return np.maximum(-(-num // den), 0)


def _min(grids):
    return functools.reduce(np.minimum, grids)


def _fraction(num: np.ndarray, den: int):
    """Per cell, the exact rational num[cell] / den; ``num`` is made
    read-only, like every array a plan holds."""
    num.setflags(write=False)
    return lambda cell: Fraction(num.item(cell), den)


def _freeze(values) -> None:
    """Make every array among whole-grid terms read-only, in nested dicts
    and lists too."""
    for v in values:
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
        elif isinstance(v, (dict, list)):
            _freeze(v.values() if isinstance(v, dict) else v)


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


@dataclass(frozen=True)
class _Plan:
    """One bound family evaluated for every cell at once, with its terms as
    whole-grid arrays; ``report`` is the per-cell view."""

    formula: str
    subsets: tuple[VarSet, ...]
    lower: np.ndarray
    upper: np.ndarray
    terms: dict

    def __post_init__(self) -> None:
        _freeze([self.lower, self.upper, self.terms])

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
def _simple_plan(fam: MarginalFamily) -> _Plan:
    if fam.num_vars != 2:
        raise RangeError("simple_frechet applies to 2-way tables")
    ddim = _ddim_plan(fam, 1)  # the d = 1 case: n(row) + n(col) - total below
    row, col = map(fam.grid, ddim.subsets)
    terms = {"row": row, "col": col, "total": fam.total}
    return _Plan("simple", ddim.subsets, ddim.lower, ddim.upper, terms)


def frechet_3way(
    fam: MarginalFamily, cell: CellIndex, basis: Literal["one-dim", "two-dim"]
) -> BoundReport:
    """3-way bounds from the three 1-way margins or the three 2-way margins."""
    cell = fam.check_cell(cell)
    return _3way_plan(fam, basis).report(cell)


@_planned
def _3way_plan(fam: MarginalFamily, basis: str) -> _Plan:
    if fam.num_vars != 3:
        raise RangeError("frechet_3way applies to 3-way tables")
    if basis == "one-dim":  # the d = 1 case of the d-dimensional bound
        ddim = _ddim_plan(fam, 1)
        terms = {"margins": list(map(fam.grid, ddim.subsets)), "total": fam.total}
        return _Plan("3way:one-dim", ddim.subsets, ddim.lower, ddim.upper, terms)
    if basis == "two-dim":  # the two-set covers of the decomposition bound
        pairs = _dsubsets(3, 2)
        upper = _min(_operands(fam, pairs, 2))
        covers = {
            f"{a}+{b}-{a & b}": _decomp_plan(fam, (a.mask, b.mask))
            for a, b in itertools.combinations(pairs, 2)
        }
        lower = functools.reduce(np.maximum, [p.lower for p in covers.values()])
        terms = {key: p.terms["lower_exact"] for key, p in covers.items()}
        return _Plan("3way:two-dim", pairs, lower, upper, terms)
    raise RangeError(f"unknown basis {basis!r}")


def frechet_ddim(fam: MarginalFamily, cell: CellIndex, d: int) -> BoundReport:
    """Bounds on the full cell from all C(l, d) margins of dimension d.

    Upper: the minimum d-subset margin. Lower: the margin sum scaled by
    1/C(l-1, d-1), minus (C(l,d)/C(l-1,d-1) - 1) times the total, clamped at
    zero. Integer families report the exact ceiling and quote the exact
    rational in ``terms``.
    """
    cell = fam.check_cell(cell)
    return _ddim_plan(fam, d).report(cell)


@_planned
def _ddim_plan(fam: MarginalFamily, d: int) -> _Plan:
    l = fam.num_vars
    if not 1 <= d <= l:
        raise RangeError(f"d={d} out of range 1..{l}")
    subsets = _dsubsets(l, d)
    vals = _operands(fam, subsets, comb(l, d))
    total = fam.total
    denom = comb(l - 1, d - 1)
    margin_sum = sum(vals)
    terms = {"margin_sum": margin_sum, "total": total, "denominator": denom}
    if fam.kind == INTEGER:
        raw = margin_sum - (comb(l, d) - denom) * total  # denom times the bound
        lower = _ceil_div(raw, denom)
        terms["lower_exact"] = _fraction(raw, denom)
    else:
        raw = margin_sum / denom - (comb(l, d) / denom - 1) * total
        lower, terms["lower_exact"] = _clamp(raw), raw
    return _Plan(f"ddim:{d}", subsets, lower, _min(vals), terms)


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
    lower bound S_d / C(l-1, d-1) - l/d + 1 on the cell's share of the total.

    Multiplying the bound by the total recovers the unclamped d-dimensional
    lower bound exactly (rational identity, relying on C(l,d)/C(l-1,d-1)=l/d).
    """
    l = fam.num_vars
    cell = fam.check_cell(cell)
    total = fam.total
    if total == 0:
        raise RangeError("normalized form undefined for a zero grand total")
    margin_sum = _ddim_plan(fam, d).terms["margin_sum"].item(cell)
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
            cover[0]._check_same(c)
        union = functools.reduce(int.__or__, (c.mask for c in cover))
        if union != VarSet.full(cover[0].num_vars).mask:
            raise RangeError(f"cover {[str(c) for c in cover]} does not equal L")
        object.__setattr__(self, "cover", cover)

    @property
    def num_vars(self) -> int:
        return self.cover[0].num_vars

    @property
    def separators(self) -> tuple[VarSet, ...]:
        seps = []
        seen = self.cover[0]
        for c in self.cover[1:]:
            seps.append(seen & c)
            seen = seen | c
        return tuple(seps)


def decomposition_bound(
    fam: MarginalFamily, decomp: Decomposition, cell: CellIndex
) -> BoundReport:
    """Cover/separator bounds: min over n(C_i) above, and
    sum n(C_i) - sum n(S_j) below, clamped at zero.

    Separator marginals are obtained by marginalizing the released n(C_j),
    since each S_j sits inside its C_j.
    """
    if decomp.num_vars != fam.num_vars:
        raise RangeError("decomposition over a different variable count")
    cell = fam.check_cell(cell)
    # Plans are keyed by masks: callers may build a fresh Decomposition per call.
    return _decomp_plan(fam, tuple(c.mask for c in decomp.cover)).report(cell)


@_planned
def _decomp_plan(fam: MarginalFamily, masks: tuple[int, ...]) -> _Plan:
    decomp = Decomposition(tuple(VarSet(m, fam.num_vars) for m in masks))
    cover, seps = decomp.cover, decomp.separators
    fam.require(cover)  # the separators lie inside it
    k = len(cover)
    vals = _operands(fam, cover + seps, k + len(seps))
    cover_vals, sep_vals = vals[:k], vals[k:]
    raw = sum(cover_vals) - sum(sep_vals)
    terms = {
        "cover_values": cover_vals,
        "separator_values": sep_vals,
        "separators": tuple(str(s) for s in seps),
        "lower_exact": raw,
    }
    formula = "decomp:" + "|".join(str(c) for c in cover)
    return _Plan(formula, cover, _clamp(raw), _min(cover_vals), terms)


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
        if x.num_vars != fam.num_vars:
            raise RangeError("sequence element over a different variable count")
    return _fan_plan(fam, tuple(x.mask for x in xs), p).report(cell)


@_planned
def _fan_plan(fam: MarginalFamily, masks: tuple[int, ...], p: int) -> _Plan:
    l, q = fam.num_vars, len(masks)
    if not 1 <= p <= q:
        raise RangeError(f"p={p} out of range 1..{q}")
    full = VarSet.full(l)
    lhs_masks, rhs_masks = fan_terms(masks, p)
    lhs_subsets = [VarSet(m, l) for m in lhs_masks]
    rhs = [(k, c, VarSet(m, l)) for k, c, m in rhs_masks]  # k, coefficient, join
    moved = [(k, c) for k, c, sub in rhs if sub.mask == full.mask]
    kept = [(c, sub) for _, c, sub in rhs if sub.mask != full.mask]
    fam.require(lhs_subsets + [sub for _, sub in kept])

    # Each side sums at most C(q, p) total-bounded terms.
    reach = comb(q, p)
    lhs = sum(_operands(fam, lhs_subsets, reach))
    kept_vals = _operands(fam, [sub for _, sub in kept], reach)
    kept_value = sum(c * v for (c, _), v in zip(kept, kept_vals))
    weight = sum(c for _, c in moved)
    terms = {
        "lhs": lhs,
        "lhs_subsets": tuple(str(s) for s in lhs_subsets),
        "rhs_terms": tuple((k, c, str(sub)) for k, c, sub in rhs),
        "moved_k": tuple(k for k, _ in moved),
        "full_weight": weight,
        "has_cell_bound": bool(moved),
    }
    if not moved:
        lower = np.zeros_like(lhs)
    elif fam.kind == INTEGER:
        raw = lhs - kept_value  # weight times the bound
        lower = _ceil_div(raw, weight)
        terms["lower_exact"] = _fraction(raw, weight)
    else:
        raw = (lhs - kept_value) / weight
        lower, terms["lower_exact"] = _clamp(raw), raw

    # n decreasing makes any derivable sequence element a valid upper bound;
    # fall back to the total, always derivable and always valid.
    xs = tuple(VarSet(m, l) for m in masks)
    cand = [x for x in xs if fam.is_derivable(x)]
    upper = _min(_operands(fam, cand, 1)) if cand else np.full_like(lhs, fam.total)
    return _Plan(f"fan:p={p},q={q}", xs, lower, upper, terms)


@dataclass(frozen=True)
class FanDecompositionComparison:
    """Side-by-side lowers for a 3-set cover: separator route vs Fan route."""

    cell: CellIndex
    decomposition: BoundReport
    fan: Optional[BoundReport]
    fan_missing: tuple[VarSet, ...] = ()

    @property
    def dominance_holds(self) -> Optional[bool]:
        if self.fan is None:
            return None
        return self.decomposition.lower >= self.fan.lower


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
    whenever both sides are defined, so a violation raises (it would falsify
    the implementation, not the inequality). When the Fan side needs a
    marginal the family cannot provide -- for covers whose separators join
    to the full set, that is the secret cell itself -- the Fan side is
    reported undefined rather than erroring.

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
    needed = decomp.cover + (s2 | s3, s2 & s3)
    missing = tuple(a for a in needed if not fam.is_derivable(a))
    if missing:
        return FanDecompositionComparison(
            cell=cell, decomposition=dec, fan=None, fan_missing=missing
        )
    fan = _literal_fan_plan(fam, tuple(a.mask for a in needed)).report(cell)
    if dec.lower < fan.lower:
        raise RangeError(
            f"separator bound {dec.lower} fell below the literal fan bound "
            f"{fan.lower} at cell {cell}; this falsifies the implementation"
        )
    return FanDecompositionComparison(cell=cell, decomposition=dec, fan=fan)


@_planned
def _literal_fan_plan(fam: MarginalFamily, masks: tuple[int, ...]) -> _Plan:
    """The Fan side of the comparison from the masks of the three cover
    sets and of their separators' join and meet, all derivable."""
    *cover, join, meet = (VarSet(m, fam.num_vars) for m in masks)
    *cover_vals, join_val, meet_val = _operands(fam, (*cover, join, meet), 5)
    raw = sum(cover_vals) - join_val - meet_val
    terms = {"separator_join": str(join), "separator_meet": str(meet), "lower_exact": raw}
    return _Plan("fan-literal:d=3", tuple(cover), _clamp(raw), _min(cover_vals), terms)


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
def _best_plan(fam: MarginalFamily) -> _Plan:
    l = fam.num_vars
    full = VarSet.full(l)
    released = fam.subsets()
    # Candidates by name; on a tie the first in dict order wins.
    uppers = {f"n({a})": fam.grid(a) for a in released}
    uppers["total"] = np.full(fam.cardinalities, fam.total)
    lowers = {"zero": np.zeros_like(uppers["total"])}
    for d in range(1, l + 1):
        if all(fam.is_derivable(a) for a in _dsubsets(l, d)):
            lowers[f"ddim:{d}"] = _ddim_plan(fam, d).lower
    for a, b in itertools.combinations(released, 2):
        if (a | b).mask == full.mask:
            lowers[f"pair:{a}|{b}"] = _decomp_plan(fam, (a.mask, b.mask)).lower
    if fam.is_derivable(full):
        lowers["exact"] = uppers["exact"] = fam.grid(full)
    up = np.stack(list(uppers.values()))
    upper = up.min(axis=0)
    # Settled one by one, so the winning candidate reads as the lower.
    lowers = {name: _settle(fam, v, upper) for name, v in lowers.items()}
    low = np.stack(list(lowers.values()))
    terms = {
        "lowers": lowers,
        "uppers": uppers,
        "lower_from": _winner(list(lowers), low, np.argmax),
        "upper_from": _winner(list(uppers), up, np.argmin),
    }
    return _Plan("best", released, low.max(axis=0), upper, terms)


def _winner(names: list, stacked: np.ndarray, pick):
    """Per cell, the name of the candidate that ``pick`` (``np.argmax`` or
    ``np.argmin``) takes from the stacked candidates, made read-only: the
    first on a tie."""
    stacked.setflags(write=False)
    return lambda cell: names[int(pick(stacked[(slice(None), *cell)]))]


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
