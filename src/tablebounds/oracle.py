"""Exact brute-force certification of cell bounds at desk scale.

Enumerates every nonnegative integer table whose marginals match a released
family, by depth-first assignment of cells in row-major order. A partial
assignment is pruned as soon as any running marginal sum would overshoot its
target, and the last free cell of each fully-constrained marginal line is
forced rather than searched. The search is memoized on residual states (the
residual margin sums before a cell, on which the rest of the search depends
alone): each state is expanded once and a revisit adds its stored table
count. Sharp per-cell bounds are the min/max over all tables, ``count_tables``
is the root's count, and ``enumerate_tables`` reads the tables back from the
memo once the search is over. A bound report is certified by checking it
contains the sharp bounds.

Two engines expand those states and give identical results, node counts
included. The memoized DFS costs about 1.1 us of interpreted Python per node
and keeps about 73 bytes per node in its memo. The layered engine expands one
cell's states at a time in a few numpy operations: it costs about 30-40 us
per cell however small the layer, keeps about 5 bytes per node (an edge's
value and child index) plus per-state offsets and counts, and while it
builds a layer up to about 250 bytes per edge of that layer (keys, sort
order, residuals widened to int64). Every search starts as the DFS;
past DFS_ALLOWANCE nodes, where the two break even, it restarts in the
layered engine. When the layered engine finds the caller's budget would be
reached, before it builds the layer that reaches it, the DFS runs under that
budget, so an exhausted result is the DFS's. Both count exactly past int64.
``enumerate_tables`` always runs the DFS, whose memo it reads.

Budgets are explicit and machine-readable; nodes are the only limit.
``nodes`` counts the values tried at expanded states and ``tables`` the
exact number of matching tables found, cached subtrees included. A result
is sharp only when the outcome is ``complete``; an
exhausted budget yields valid-but-possibly-loose bounds made of attained
values, flagged as such, never silently truncated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional

import numpy as np

from .bounds import BoundReport, MarginalFamily
from .errors import BudgetExhaustedError, CertificationError, RangeError
from .table import INTEGER, CellIndex, ContingencyTable, _trusted_table, lift_marginal
from .varset import VarSet

COMPLETE = "complete"
EXHAUSTED = "exhausted"
# Nodes the memoized DFS may take before the layered engine takes over: where
# the two engines' times cross on random 2-4 variable families (CHANGES.md).
DFS_ALLOWANCE = 1_000


@dataclass
class EnumerationBudget:
    """The node limit for one enumeration run, plus its counts and outcome.

    A run stops, ``exhausted``, on its next node past ``max_nodes``, at least
    1. ``tables`` is the exact number of matching tables found. A budget
    passed to several runs keeps running totals, so ``nodes`` and ``tables``
    are cumulative; each entry point reports its own run's table count."""

    max_nodes: int = 10_000_000
    nodes: int = 0
    tables: int = 0
    outcome: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise RangeError(f"max_nodes must be at least 1, got {self.max_nodes}")

    @property
    def complete(self) -> bool:
        return self.outcome == COMPLETE


@dataclass(frozen=True)
class SharpBounds:
    """Certified-extremal cell values over all tables matching the family;
    ``tables_found`` counts the tables this call's search found."""

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
    subsets = fam.subsets()
    targets = [t for a in subsets for t in fam.released[a.mask].table.flat.tolist()]
    if subsets[0].mask != 0:  # the grand total always prunes
        subsets += (VarSet.empty(fam.num_vars),)
        targets.append(fam.total)
    return (targets, *_constraint_groups(fam.cardinalities, subsets))


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
    forced to their common residual; lo > hi means no value fits."""
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


def enumerate_tables(
    fam: MarginalFamily, budget: Optional[EnumerationBudget] = None
) -> Iterator[ContingencyTable]:
    """Every nonnegative integer table matching the family exactly, in
    deterministic row-major DFS order. The budget object records node and
    table counts and the final outcome.

    The whole budgeted search runs before the first table is yielded, and its
    memo (about 73 bytes per node) is kept while the tables are read from it,
    lazily (``itertools.islice`` takes a prefix); an exhausted run yields the
    tables it found, a prefix of the full order."""
    budget = budget if budget is not None else EnumerationBudget()
    before = budget.tables
    walk = _dfs_extremes(*_build_constraints(fam), budget, None)[4]
    for flat in itertools.islice(walk(), budget.tables - before):
        counts = np.array(flat, dtype=np.int64).reshape(fam.cardinalities)
        yield _trusted_table(fam.cardinalities, counts, fam.labels, INTEGER)


def count_tables(fam: MarginalFamily, budget: Optional[EnumerationBudget] = None) -> int:
    """The exact number of matching tables this run found; the budget
    records the search's counts and outcome as in ``enumerate_tables``."""
    budget = budget if budget is not None else EnumerationBudget()
    before = budget.tables
    _extremes(fam, budget)
    return budget.tables - before


def _no_table(budget: EnumerationBudget) -> None:
    if budget.outcome == COMPLETE:
        raise RangeError("family admits no integer table; no sharp bounds exist")
    raise BudgetExhaustedError(
        f"budget exhausted after {budget.nodes} nodes before any table was found"
    )


def _extremes(fam: MarginalFamily, budget: EnumerationBudget, track: Optional[int] = None):
    """Per-cell extremes over every matching table.

    Returns (mins, maxs, min_table, max_table): lists of each flat cell's
    least and greatest value over the tables found (``mins[k] > maxs[k]`` when
    none was), and for the flat cell ``track`` the first tables in DFS order
    attaining them (None without ``track``).

    The memoized DFS runs first, under DFS_ALLOWANCE nodes. A search still
    open there is run again by the layered engine from the caller's counts,
    and when that finds the caller's budget would be reached, by the DFS
    under that budget, whose partial result is made of attained values and
    whose counts are exact.
    """
    cons = _build_constraints(fam)
    start = budget.nodes, budget.tables
    probe = min(budget.max_nodes, budget.nodes + DFS_ALLOWANCE)
    found = _dfs_extremes(*cons, budget, track, probe)[:4]
    if budget.nodes <= probe or probe == budget.max_nodes:
        return found
    budget.nodes, budget.tables = start
    return _layered_extremes(*cons, budget, track) or _dfs_extremes(*cons, budget, track)[:4]


def _dfs_extremes(targets, cell_groups, closing_groups, budget, track, max_nodes=None):
    """``_extremes`` by memoized DFS, stopping past ``max_nodes`` (by default
    the budget's own limit) and recording its counts and outcome in ``budget``;
    its result comes with a fifth item, ``walk``, the generator of the tables
    the search found.

    Cells take their values in row-major order, ascending, each in the
    ``_cell_range`` of the residuals before it, and each state -- the
    residual vector before cell k -- is expanded once. The vector is keyed as one mixed-radix integer: residual g lies
    in [0, targets[g]], so it is digit g with weight prod(targets[h] + 1 for
    h < g), and assigning v to cell k subtracts ``v * step[k]``. A revisited
    state adds the table count stored for it and skips its subtree: its first
    visit, earlier in DFS order, already showed every value its subtree holds.
    Cell k's extremes take value v when the search leaves v at k and the
    subtree below produced a table; when the budget runs out the current path
    is left the same way, so a partial range holds only attained values.

    ``walk`` follows the memo from the root, or from a path and the state
    after it, in the same order, taking only values whose stored subtree
    holds a table, so it never meets a dead end. Every table the search found
    comes before the point where its budget ran out, so the first
    ``budget.tables`` the walk yields are exactly those; an attaining table
    is the first the walk yields below the path that attained it.
    """
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
    if max_nodes is None:
        max_nodes = budget.max_nodes
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

    def walk(path=(), state=code[0]) -> Iterator[tuple[int, ...]]:
        """Yield, in DFS order, each table extending ``path`` below ``state``:
        at each cell only the values whose stored subtree holds a table."""
        rest = list(targets)
        for j, x in enumerate(path):
            for g in cell_groups[j]:
                rest[g] -= x
        top = j = len(path)
        if top == n:  # ``path`` is a whole table
            yield tuple(path)
            return
        val, hi, at = list(path) + [0] * (n - j), [0] * n, [0] * n
        at[j] = state
        lo, hi[j] = _cell_range(rest, cell_groups[j], closing_groups[j])
        val[j] = lo - 1
        while j >= top:
            x = val[j] + 1
            if x > hi[j]:  # leave cell j and the value of cell j - 1
                j -= 1
                if j >= top:
                    for g in cell_groups[j]:
                        rest[g] += val[j]
                continue
            val[j] = x
            child = at[j] - x * step[j]
            if not memo[j + 1].get(child):
                continue
            if j == n - 1:
                yield tuple(val)
                continue
            for g in cell_groups[j]:
                rest[g] -= x
            j += 1
            at[j] = child
            lo, hi[j] = _cell_range(rest, cell_groups[j], closing_groups[j])
            val[j] = lo - 1

    def first(at) -> Optional[tuple[int, ...]]:
        return next(walk(*at)) if at else None

    return mins, maxs, first(min_at), first(max_at), walk


@functools.lru_cache(maxsize=256)
def _layer_plan(cell_groups, closing_groups):
    """Per cell: its groups as an index array, and the groups open after it
    (touched by it or an earlier cell, closed by a later one). Like the
    groups, they depend on the shape alone."""
    plan, opened = [], set()
    for grp, closing in zip(cell_groups, closing_groups):
        opened.update(grp)
        opened.difference_update(closing)
        plan.append((np.array(grp, dtype=np.intp), sorted(opened)))
    return plan


def _key_layout(targets, groups, cell):
    """Mixed-radix key of a child of ``cell`` over its residuals in
    ``groups``: (weights, step) with one column per int64 word, so the key is
    ``residuals @ weights`` and assigning v to the cell subtracts
    ``v * step``. Residual g lies in [0, targets[g]], so it is one digit of
    radix targets[g] + 1; a word ends before its radix product would pass
    2**63, so no key wraps."""
    words, steps, size = [[]], [0], 1
    for g in groups:
        radix = targets[g] + 1
        if size * radix > 2**63:
            words.append([0] * len(words[-1]))
            steps.append(0)
            size = 1
        for column in words[:-1]:
            column.append(0)
        words[-1].append(size)
        if g in cell:
            steps[-1] += size
        size *= radix
    return np.array(words, dtype=np.int64).T, np.array(steps, dtype=np.int64)


def _dedup(keys: np.ndarray):
    """(first, inverse) of the distinct rows of ``keys``: ``first`` indexes
    one row of each, ``inverse`` maps every row to its distinct one."""
    m, words = keys.shape
    if m == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    columns = keys.T
    order = np.lexsort(columns) if words > 1 else np.argsort(columns[0])
    new = np.zeros(m, dtype=bool)
    new[0] = True
    for column in columns:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(m, dtype=np.int32 if m < 2**31 else np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _layered_extremes(targets, cell_groups, closing_groups, budget, track):
    """``_extremes`` breadth-first, one cell layer at a time in numpy; None,
    leaving ``budget`` alone, when the caller's budget would be reached.

    Layer k holds the distinct states before cell k that the DFS expands, as
    rows of residuals. The forward pass gives each state the ``[lo, hi]`` of
    ``_cell_range`` and one edge per value, and merges equal children by
    their residuals over the groups still open with a positive target,
    packed in mixed-radix words; so ``nodes`` is the DFS's. The backward pass
    counts tables per state, exactly, and takes a cell's extremes over the
    edges into states that hold a table.
    """
    n = len(cell_groups)
    nodes_left = budget.max_nodes - budget.nodes
    # Residuals fit the least signed dtype that holds every target + 1.
    small = next(
        (t for t in (np.int8, np.int16, np.int32) if max(targets) < np.iinfo(t).max), np.int64
    )
    R = np.array([targets], dtype=small)  # residuals of the states before cell k
    layers = []  # per cell: (start, width, value, inverse)
    nodes = 0
    for k, (grp, opened) in enumerate(_layer_plan(cell_groups, closing_groups)):
        closing = closing_groups[k]
        hi = R[:, grp].min(axis=1)
        if closing:
            # Forced to the closing groups' common residual, which every
            # group of the cell must still hold.
            lo = R[:, closing[0]]
            ok = hi == lo
            if len(closing) > 1:
                ok &= R[:, closing].max(axis=1) == lo
            width = ok.view(np.int8)
        else:
            top = int(hi.max(initial=-1))
            # One state past the budget, or a sum of widths that could wrap.
            if top >= nodes_left - nodes or len(R) * (top + 1) >= 2**63:
                return None
            lo, width = None, hi + 1
        edges = int(width.sum())
        nodes += edges
        if nodes > nodes_left:
            return None
        start = np.cumsum(width) - width
        parent = np.repeat(np.arange(len(R)), width)
        value = lo[parent] if closing else (np.arange(edges) - start[parent]).astype(small)
        keyed = [g for g in opened if targets[g] > 0]
        weights, step = _key_layout(targets, keyed, cell_groups[k])
        keys = (R[:, keyed].astype(np.int64) @ weights)[parent]
        keys -= value[:, None] * step
        first, inverse = _dedup(keys)
        R, taken = R[parent[first]], value[first]
        for g in grp:
            R[:, g] -= taken
        layers.append((start, width, value, inverse))

    # Backward: counts[k][s] = tables below state s of layer k. A state sums
    # at most max(targets) + 1 edges, so a layer whose counts all stay below
    # ``limit`` is summed in int64 by the layer above; past it, in Python ints.
    limit = (2**63 - 1) // (max(targets) + 1)
    counts = [None] * n + [np.ones(len(R), dtype=np.int64)]
    mins, maxs = [max(targets) + 1] * n, [-1] * n
    for k in reversed(range(n)):
        start, width, value, inverse = layers[k]
        below = counts[k + 1][inverse]
        live = value[below > 0]
        if live.size:
            mins[k], maxs[k] = int(live.min()), int(live.max())
        total = np.zeros(len(width), dtype=below.dtype)
        some = width > 0
        if below.size:
            total[some] = np.add.reduceat(below, start[some])
        counts[k] = total if total.max(initial=0) < limit else total.astype(object, copy=False)
    tables = int(counts[0][0])

    def first_table(v: int) -> tuple[int, ...]:
        """The first table in DFS order with value v at cell ``track``: at
        each cell the least value whose edge leads on to such a table."""
        _, _, value, inverse = layers[track]
        # reach[j]: the edges of layer j <= track on a path to such a table.
        reach = [(value == v) & (counts[track + 1][inverse] > 0)]
        for j in reversed(range(track)):
            _, width, _, _ = layers[j + 1]
            good = np.zeros(len(width), dtype=bool)
            good[np.repeat(np.arange(len(width)), width)[reach[0]]] = True
            reach.insert(0, good[layers[j][3]])
        path, s = [], 0
        for j, (start, width, value, inverse) in enumerate(layers):
            a, b = start[s], start[s] + width[s]
            ok = reach[j][a:b] if j <= track else counts[j + 1][inverse[a:b]] > 0
            e = a + int(np.argmax(ok))
            path.append(int(value[e]))
            s = inverse[e]
        return tuple(path)

    budget.nodes += nodes
    budget.tables += tables
    budget.outcome = COMPLETE
    if track is None or not tables:
        return mins, maxs, None, None
    return mins, maxs, first_table(mins[track]), first_table(maxs[track])


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
    before = budget.tables
    mins, maxs, lo_tab, hi_tab = _extremes(
        fam, budget, flat_cell if keep_tables else None
    )
    if mins[flat_cell] > maxs[flat_cell]:
        _no_table(budget)
    return SharpBounds(
        cell=cell,
        min_count=mins[flat_cell],
        max_count=maxs[flat_cell],
        tables_found=budget.tables - before,
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
