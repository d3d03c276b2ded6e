"""Exact brute-force certification of cell bounds at desk scale.

Enumerates every nonnegative integer table whose marginals match a released
family, by depth-first assignment of cells in row-major order. A partial
assignment is pruned as soon as any running marginal sum would overshoot its
target, and the last free cell of each fully-constrained marginal line is
forced rather than searched. ``enumerate_tables`` and ``count_tables`` stream
every table. Sharp per-cell bounds are the min/max over all tables; they come
from the same search memoized on residual states (the residual margin sums
before a cell, on which the rest of the search depends alone), so each state
is expanded once and a revisit adds its stored table count. A bound report is
certified by checking it contains them.

Budgets are explicit and machine-readable. ``nodes`` counts the values tried
at expanded states (every value, for the streaming search) and ``tables`` the
matching tables found, cached subtrees included. A result is sharp only when
the outcome is ``complete``; an exhausted budget yields valid-but-possibly-
loose bounds made of attained values, flagged as such, never silently
truncated.
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
    """Node/table limits for one enumeration run, plus its outcome.

    A run stops, ``exhausted``, on its next node past ``max_nodes`` or once
    ``tables`` reaches ``max_tables``; the memoized search adds a cached
    subtree's tables at once, so it may stop past ``max_tables``."""

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
    if fam.kind != INTEGER:
        raise RangeError("enumeration requires an integer family")
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


def _cell_range(residual: list[int], grp: tuple[int, ...], closing: tuple[int, ...]):
    """(lo, hi) of the values a cell may take given the running residuals of
    its groups ``grp``. A cell that closes groups (is their last member) is
    forced to their common residual; lo > hi means no value fits. Shared by
    the streaming and the memoized search."""
    if closing:
        v = residual[closing[0]]
        if v < 0:
            return 0, -1
        for g in closing:
            if residual[g] != v:
                return 0, -1
        for g in grp:
            if residual[g] < v:
                return 0, -1
        return v, v
    m = residual[grp[0]]
    for g in grp:
        r = residual[g]
        if r < m:
            m = r
    return 0, m


def _iter_flat(fam: MarginalFamily, budget: EnumerationBudget) -> Iterator[list[int]]:
    """Yield each matching table as a shared flat buffer (copy to retain)."""
    targets, cell_groups, closing_groups = _build_constraints(fam)
    n_cells = len(cell_groups)
    if n_cells == 0:
        budget.outcome = COMPLETE
        return
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

    try:
        lo[0], hi[0] = _cell_range(residual, cell_groups[0], closing_groups[0])
        cur[0] = lo[0] - 1
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
                lo[k], hi[k] = _cell_range(residual, cell_groups[k], closing_groups[k])
                cur[k] = lo[k] - 1
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


def _extremes(fam: MarginalFamily, budget: EnumerationBudget, track: Optional[int] = None):
    """Per-cell extremes over every matching table, by memoized DFS.

    Returns (mins, maxs, min_table, max_table): lists of each flat cell's
    least and greatest value over the tables found (``mins[k] > maxs[k]`` when
    none was), and for the flat cell ``track`` the first tables in DFS order
    attaining them (None without ``track``).

    The search takes the row-major order, forcing and pruning of
    ``_iter_flat``, but expands each state -- the residual vector before cell
    k -- once. The vector is keyed as one mixed-radix integer: residual g lies
    in [0, targets[g]], so it is digit g with weight prod(targets[h] + 1 for
    h < g), and assigning v to cell k subtracts ``v * step[k]``. A revisited
    state adds the table count stored for it and skips its subtree: its first
    visit, earlier in DFS order, already showed every value its subtree holds.
    Cell k's extremes take value v when the search leaves v at k and the
    subtree below produced a table; when the budget runs out the current path
    is left the same way, so a partial range holds only attained values.
    """
    targets, cell_groups, closing_groups = _build_constraints(fam)
    n = len(cell_groups)
    mins, maxs = [max(targets) + 1] * n, [-1] * n
    weights, w = [], 1
    for t in targets:
        weights.append(w)
        w *= t + 1
    step = [sum(weights[g] for g in grp) for grp in cell_groups]
    # memo[k]: state code before cell k -> tables below it. Past the last
    # cell every residual is 0, and that state is one table.
    memo: list[dict[int, int]] = [{} for _ in range(n)]
    memo.append({0: 1})
    residual = list(targets)
    code = [0] * n
    code[0] = sum(t * w for t, w in zip(targets, weights))
    hi, cur, below = [0] * n, [0] * n, [0] * n
    nodes, tables = budget.nodes, budget.tables
    max_nodes, max_tables = budget.max_nodes, budget.max_tables
    outcome = COMPLETE
    min_at = max_at = None  # (path through cell track, state code after it)
    lo, hi[0] = _cell_range(residual, cell_groups[0], closing_groups[0])
    cur[0] = lo - 1
    k = 0
    while True:
        v = cur[k] + 1
        if v > hi[k]:  # state k is done: store it and leave cur[k - 1]
            count = below[k]
            memo[k][code[k]] = count
            if k == 0:
                break
            k -= 1
            v = cur[k]
            for g in cell_groups[k]:
                residual[g] += v
        else:
            nodes += 1
            if nodes > max_nodes:
                outcome = EXHAUSTED
                hi[: k + 1] = [-1] * (k + 1)  # unwind: every open state is done
                continue
            cur[k] = v
            child = code[k] - v * step[k]
            count = memo[k + 1].get(child)
            if count is None:
                for g in cell_groups[k]:
                    residual[g] -= v
                k += 1
                code[k] = child
                below[k] = 0
                lo, hi[k] = _cell_range(residual, cell_groups[k], closing_groups[k])
                cur[k] = lo - 1
                continue
            tables += count
            if tables >= max_tables:
                outcome = EXHAUSTED
                hi[: k + 1] = [-1] * (k + 1)
        if count:
            below[k] += count
            if v < mins[k]:
                mins[k] = v
                if k == track:
                    min_at = (cur[: k + 1], code[k] - v * step[k])
            if v > maxs[k]:
                maxs[k] = v
                if k == track:
                    max_at = (cur[: k + 1], code[k] - v * step[k])
    budget.nodes, budget.tables, budget.outcome = nodes, tables, outcome

    def first_table(path: list[int], state: int) -> tuple[int, ...]:
        """Extend ``path`` by the first table in DFS order below ``state``:
        at each cell the least value whose stored subtree holds a table."""
        rest = list(targets)
        for j, x in enumerate(path):
            for g in cell_groups[j]:
                rest[g] -= x
        for j in range(len(path), n):
            x, _ = _cell_range(rest, cell_groups[j], closing_groups[j])
            while not memo[j + 1].get(state - x * step[j]):
                x += 1
            state -= x * step[j]
            for g in cell_groups[j]:
                rest[g] -= x
            path.append(x)
        return tuple(path)

    return (
        mins,
        maxs,
        first_table(*min_at) if min_at else None,
        first_table(*max_at) if max_at else None,
    )


def sharp_bounds_all(
    fam: MarginalFamily, budget: Optional[EnumerationBudget] = None
) -> tuple[np.ndarray, np.ndarray, EnumerationBudget]:
    """Per-cell (min, max) arrays over the whole enumeration in one pass."""
    budget = budget if budget is not None else EnumerationBudget()
    mins, maxs, _, _ = _extremes(fam, budget)
    if mins[0] > maxs[0]:  # no table found: no cell has a value
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
    """Min/max of one cell over the enumeration; sharp when complete. With
    ``keep_tables``, the first tables in DFS order attaining each."""
    budget = budget if budget is not None else EnumerationBudget()
    cell = fam.check_cell(cell)
    flat_cell = int(np.ravel_multi_index(cell, fam.cardinalities)) if cell else 0
    mins, maxs, lo_tab, hi_tab = _extremes(
        fam, budget, flat_cell if keep_tables else None
    )
    if mins[flat_cell] > maxs[flat_cell]:
        _no_table(budget)
    return SharpBounds(
        cell=cell,
        min_count=mins[flat_cell],
        max_count=maxs[flat_cell],
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
