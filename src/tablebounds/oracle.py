"""Exact brute-force certification of cell bounds at desk scale.

Enumerates every nonnegative integer table whose marginals match a released
family, by depth-first assignment of cells in row-major order. A partial
assignment is pruned as soon as any running marginal sum would overshoot its
target, and the last free cell of each fully-constrained marginal line is
forced rather than searched. Sharp per-cell bounds are the min/max over the
stream; a bound report is certified by checking it contains them.

Budgets are explicit and machine-readable: a result is sharp only when the
outcome is ``complete``; an exhausted budget yields valid-but-possibly-loose
bounds, flagged as such, never silently truncated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional

import numpy as np

from .bounds import BoundReport, MarginalFamily
from .errors import BudgetExhaustedError, CertificationError, RangeError
from .table import INTEGER, CellIndex, ContingencyTable, lift_marginal
from .varset import VarSet

COMPLETE = "complete"
EXHAUSTED = "exhausted"


@dataclass
class EnumerationBudget:
    """Node/table limits for one enumeration run, plus its outcome."""

    max_nodes: int = 10_000_000
    max_tables: int = 1_000_000
    nodes: int = 0
    tables: int = 0
    outcome: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.outcome == COMPLETE


@dataclass(frozen=True)
class SharpBounds:
    """Certified-extremal cell values over all tables matching the family."""

    cell: CellIndex
    min_count: int
    max_count: int
    tables_found: int
    outcome: str
    min_table: Optional[tuple[int, ...]] = None
    max_table: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.min_count > self.max_count:
            raise RangeError("sharp bounds crossed; enumeration is broken")

    @property
    def is_sharp(self) -> bool:
        return self.outcome == COMPLETE


def _build_constraints(fam: MarginalFamily):
    """Flatten the family into per-cell constraint-group memberships.

    Returns (targets, cell_groups, closing_groups): group g must sum to
    targets[g]; cell k belongs to cell_groups[k]; closing_groups[k] lists the
    groups whose last member cell (row-major) is k.
    """
    subsets = list(fam.subsets())
    if not any(a.mask == 0 for a in subsets):
        subsets.append(VarSet.empty(fam.num_vars))  # the grand total always prunes
    targets = [int(t) for a in subsets for t in fam.marginal(a).table.flat]
    return (targets, *_constraint_groups(fam.cardinalities, tuple(subsets)))


@functools.lru_cache(maxsize=256)
def _constraint_groups(cards: tuple[int, ...], subsets: tuple[VarSet, ...]):
    """(cell_groups, closing_groups) for marginals over ``subsets``: they depend
    on the shape alone, so families of one shape share them. Groups are
    numbered marginal by marginal, each in its marginal's row-major order."""
    columns, groups = [], 0
    for a in subsets:
        size = prod(cards[j] for j in a.axes)
        # A cell's group is its projection's row-major index within n(a).
        ids = np.empty(cards, dtype=np.int64)
        ids[...] = lift_marginal(np.arange(groups, groups + size), a, cards)
        columns.append(ids.reshape(-1))
        groups += size
    cell_groups = np.stack(columns, axis=1).tolist()
    last = {g: k for k, gs in enumerate(cell_groups) for g in gs}  # later k wins
    closing_groups: list[list[int]] = [[] for _ in cell_groups]
    for g in range(groups):
        closing_groups[last[g]].append(g)
    return tuple(map(tuple, cell_groups)), tuple(map(tuple, closing_groups))


def _iter_flat(fam: MarginalFamily, budget: EnumerationBudget) -> Iterator[list[int]]:
    """Yield each matching table as a shared flat buffer (copy to retain)."""
    if fam.kind != INTEGER:
        raise RangeError("enumeration requires an integer family")
    targets, cell_groups_l, closing_groups_l = _build_constraints(fam)
    n_cells = len(cell_groups_l)
    if n_cells == 0:
        budget.outcome = COMPLETE
        return
    cell_groups = [tuple(g) for g in cell_groups_l]
    closing_groups = [tuple(g) for g in closing_groups_l]
    residual = list(targets)
    buf = [0] * n_cells
    lo = [0] * n_cells
    hi = [0] * n_cells
    cur = [-1] * n_cells
    last = n_cells - 1
    nodes = budget.nodes
    tables = budget.tables
    max_nodes = budget.max_nodes
    max_tables = budget.max_tables

    def enter(k: int) -> None:
        grp = cell_groups[k]
        closing = closing_groups[k]
        if closing:
            v = residual[closing[0]]
            ok = v >= 0
            if ok:
                for g in closing:
                    if residual[g] != v:
                        ok = False
                        break
            if ok:
                for g in grp:
                    if residual[g] < v:
                        ok = False
                        break
            if ok:
                lo[k] = hi[k] = v
            else:
                lo[k], hi[k] = 0, -1
        else:
            lo[k] = 0
            m = residual[grp[0]]
            for g in grp:
                r = residual[g]
                if r < m:
                    m = r
            hi[k] = m
        cur[k] = lo[k] - 1

    try:
        enter(0)
        k = 0
        while k >= 0:
            v = cur[k]
            grp = cell_groups[k]
            if v >= lo[k]:
                for g in grp:
                    residual[g] += v
            v += 1
            cur[k] = v
            if v > hi[k]:
                k -= 1
                continue
            nodes += 1
            if nodes > max_nodes:
                budget.outcome = EXHAUSTED
                return
            for g in grp:
                residual[g] -= v
            buf[k] = v
            if k == last:
                tables += 1
                yield buf
                if tables >= max_tables:
                    budget.outcome = EXHAUSTED
                    return
            else:
                k += 1
                enter(k)
        budget.outcome = COMPLETE
    finally:
        budget.nodes = nodes
        budget.tables = tables


def enumerate_tables(
    fam: MarginalFamily, budget: Optional[EnumerationBudget] = None
) -> Iterator[ContingencyTable]:
    """Stream every nonnegative integer table matching the family exactly,
    in deterministic row-major DFS order. The budget object records node and
    table counts and the final outcome."""
    if budget is None:
        budget = EnumerationBudget()
    for flat in _iter_flat(fam, budget):
        yield ContingencyTable.from_flat(
            fam.cardinalities, list(flat), labels=fam.labels
        )


def count_tables(fam: MarginalFamily, budget: Optional[EnumerationBudget] = None) -> int:
    budget = budget if budget is not None else EnumerationBudget()
    return sum(1 for _ in _iter_flat(fam, budget))


def _no_table(budget: EnumerationBudget) -> None:
    if budget.outcome == COMPLETE:
        raise RangeError("family admits no integer table; no sharp bounds exist")
    raise BudgetExhaustedError(
        f"budget exhausted after {budget.nodes} nodes before any table was found"
    )


def sharp_bounds_all(
    fam: MarginalFamily, budget: Optional[EnumerationBudget] = None
) -> tuple[np.ndarray, np.ndarray, EnumerationBudget]:
    """Per-cell (min, max) arrays over the whole enumeration in one pass."""
    budget = budget if budget is not None else EnumerationBudget()
    mins: list[int] = []
    maxs: list[int] = []
    for flat in _iter_flat(fam, budget):
        if not mins:
            mins = list(flat)
            maxs = list(flat)
            continue
        for i, v in enumerate(flat):
            if v < mins[i]:
                mins[i] = v
            elif v > maxs[i]:
                maxs[i] = v
    if not mins:
        _no_table(budget)
    return (
        np.asarray(mins).reshape(fam.cardinalities),
        np.asarray(maxs).reshape(fam.cardinalities),
        budget,
    )


def sharp_bounds(
    fam: MarginalFamily,
    cell: CellIndex,
    budget: Optional[EnumerationBudget] = None,
    keep_tables: bool = False,
) -> SharpBounds:
    """Min/max of one cell over the enumeration; sharp when complete."""
    budget = budget if budget is not None else EnumerationBudget()
    cell = fam.check_cell(cell)
    flat_cell = int(np.ravel_multi_index(cell, fam.cardinalities)) if cell else 0
    lo, hi = None, None
    lo_tab, hi_tab = None, None
    for flat in _iter_flat(fam, budget):
        v = flat[flat_cell]
        if lo is None or v < lo:
            lo = v
            lo_tab = tuple(flat) if keep_tables else None
        if hi is None or v > hi:
            hi = v
            hi_tab = tuple(flat) if keep_tables else None
    if lo is None:
        _no_table(budget)
    return SharpBounds(
        cell=cell,
        min_count=int(lo),
        max_count=int(hi),
        tables_found=budget.tables,
        outcome=budget.outcome,
        min_table=lo_tab,
        max_table=hi_tab,
    )


@dataclass(frozen=True)
class Certification:
    """A formula bound checked against enumeration-sharp bounds."""

    report: BoundReport
    sharp: SharpBounds
    slack_lower: float
    slack_upper: float

    @property
    def ok(self) -> bool:
        return self.slack_lower >= 0 and self.slack_upper >= 0


def certify(
    report: BoundReport,
    fam: MarginalFamily,
    budget: Optional[EnumerationBudget] = None,
) -> Certification:
    """Check report.lower <= sharp.min and sharp.max <= report.upper.

    Requires a complete enumeration; raises BudgetExhaustedError otherwise.
    A violation raises CertificationError carrying the attaining table --
    that outcome falsifies an implementation, never the inequalities.
    """
    sharp = sharp_bounds(fam, report.cell, budget, keep_tables=True)
    if sharp.outcome != COMPLETE:
        raise BudgetExhaustedError(
            "certification requires a complete enumeration; raise the budget"
        )
    slack_lower = sharp.min_count - report.lower
    slack_upper = report.upper - sharp.max_count
    if slack_lower < 0:
        raise CertificationError(
            f"lower bound {report.lower} from {report.formula} excludes an "
            f"attainable count {sharp.min_count} at cell {report.cell}",
            table=sharp.min_table,
        )
    if slack_upper < 0:
        raise CertificationError(
            f"upper bound {report.upper} from {report.formula} excludes an "
            f"attainable count {sharp.max_count} at cell {report.cell}",
            table=sharp.max_table,
        )
    return Certification(
        report=report, sharp=sharp, slack_lower=slack_lower, slack_upper=slack_upper
    )
