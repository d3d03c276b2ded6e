"""Exact brute-force certification of cell bounds at desk scale.

Enumerates every nonnegative integer table whose marginals match a released
family, by depth-first assignment of cells in row-major order. A partial
assignment is pruned as soon as any running marginal sum would overshoot its
target, and the last free cell of each fully-constrained marginal line is
forced rather than searched: to the residual of the lines it closes, which
the family's validation makes equal, and which fits exactly when it is the
least residual of the cell's lines (``_cell_range``). The search is memoized
on residual states (the residual margin sums before a cell, on which the
rest of the search depends alone), keyed by ``_state_code``: the residuals
of the lines open before the cell, in digit slots shared by lines never open
together. Each state is expanded once and a revisit adds its stored table
count. Sharp per-cell bounds are the min/max over all tables,
``count_tables`` is the root's count, and ``enumerate_tables`` reads the
tables back from the memo once the search is over. A bound report is
certified by checking it contains the sharp bounds.

Two engines expand those states and give identical extremes and counts,
node counts included. The memoized DFS costs about 0.5-1.4 us per node and
keeps about 73 bytes per node in its memo. The layered engine expands one
cell's states at a time in a few numpy operations, at a fixed 20-40 us or so
per cell plus about 0.02-0.06 us per node (``tools/oracle_costs.py``
measures both); it keeps at most about 5 bytes per node plus per-state
offsets and counts, and up to about 250 bytes per edge of the layer it
builds. Its residuals are state-major, one row per state and one column per
line, so a layer gathers its states' residuals as one row each, in one
``take``, and reads and updates only the columns of the cell's lines; a
line the cell closes is never read again and is left as it is. A cell that
opens a line merges nothing, as no two of its edges
reach one child; a free cell that opens none merges the states before it
by base and builds no edge; a forced one merges its edges by child. Each
search that keeps no table picks its engine before either runs, from
``_node_bound``, an upper bound on its node count that takes about 10 us: a
family bounded by DFS_NODES_PER_CELL nodes per cell runs the DFS, and any
other the layered engine. When the layered engine finds the caller's budget
would be reached, before it builds the layer that reaches it, the DFS runs
under that budget, so an exhausted result is the DFS's. Both count exactly
past int64. Every table the oracle returns is read back from the DFS memo:
those of ``enumerate_tables``, the attaining tables of
``sharp_bounds(keep_tables=True)`` and the table a failed ``certify``
raises with; those searches always run the DFS.

Budgets are explicit and machine-readable; nodes are the only limit.
``nodes`` counts the values tried at expanded states and ``tables`` the
exact number of matching tables found, cached subtrees included. A result
is sharp only when the outcome is ``complete``; an exhausted budget yields
valid-but-possibly-loose bounds made of attained values, flagged as such,
never silently truncated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional

import numpy as np

from .bounds import BoundReport, MarginalFamily
from .errors import BudgetExhaustedError, CertificationError, RangeError
from .table import INTEGER, CellIndex, ContingencyTable, _trusted_table, lift_marginal
from .varset import VarSet, _index

COMPLETE = "complete"
EXHAUSTED = "exhausted"
# Families whose ``_node_bound`` is at most this many nodes per cell run the
# memoized DFS, all others the layered engine. The summed time of the routed
# engines at this cut is within 1.5% of the least over all cuts:
# `python3 tools/oracle_costs.py` printed ``routed_time_at_cut_over_least``
# 1.0083-1.0146 on three runs (2 cores, Python 3.11.7, numpy 2.4). The sum
# stays within about 3% of its least from 100 to 400, so the least cut
# itself (``predictor_cut_per_cell``, 160-178 on those runs) moves with
# noise.
DFS_NODES_PER_CELL = 252


@dataclass
class EnumerationBudget:
    """The node limit for one enumeration run, plus its counts and outcome.

    A run stops, ``exhausted``, on its next node past ``max_nodes``, at least
    1. ``tables`` is the exact number of matching tables found. A budget
    passed to several runs keeps running totals, so ``nodes`` and ``tables``
    are cumulative, integers from 0; each entry point reports its own run's
    table count."""

    max_nodes: int = 10_000_000
    nodes: int = 0
    tables: int = 0
    outcome: Optional[str] = None

    def __post_init__(self) -> None:
        for name, least in (("max_nodes", 1), ("nodes", 0), ("tables", 0)):
            value = _index(getattr(self, name), name)
            if value < least:
                raise RangeError(f"{name} must be at least {least}, got {value}")
            setattr(self, name, value)

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

    Returns (targets, cell_groups, closing_groups, slots): group g must sum
    to targets[g]; cell k belongs to cell_groups[k]; closing_groups[k] lists
    the groups whose last member cell (row-major) is k; slots[s] lists the
    groups whose digit in ``_state_code`` is in slot s, each with its first
    cell.
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
    """(cell_groups, closing_groups, slots) for marginals over ``subsets``:
    they depend on the shape alone, so families of one shape share them.
    Groups are numbered marginal by marginal, each in row-major order. A
    group is open before cell k when an earlier cell belongs to it and k or
    a later one closes it. In the order of their first cells, groups take the
    lowest slot whose last group closed at an earlier cell (linear-scan
    allocation), so no two open groups share one. None is taken by a group
    one cell opens and closes, nor, for each marginal after the first, by the
    group the last cell closes: its residual is the total's, which the first
    marginal fixes, less its siblings'."""
    columns, groups = [], 0
    for a in subsets:
        size = prod(cards[j] for j in a.axes)
        # A cell's group is its projection's row-major index within n(a).
        ids = np.empty(cards, dtype=np.int64)
        ids[...] = lift_marginal(np.arange(groups, groups + size), a, cards)
        columns.append(ids.reshape(-1))
        groups += size
    cell_groups = np.stack(columns, axis=1).tolist()
    first = {g: k for k in reversed(range(len(cell_groups))) for g in cell_groups[k]}
    last = {g: k for k, gs in enumerate(cell_groups) for g in gs}  # later k wins
    closing_groups: list[list[int]] = [[] for _ in cell_groups]
    for g in range(groups):
        closing_groups[last[g]].append(g)
    slots: list[list[tuple[int, int]]] = []  # slots[s]: (group, first cell) in turn
    for g in sorted(range(groups), key=first.__getitem__):
        if first[g] < last[g] and g not in cell_groups[-1][1:]:
            s = next((s for s in slots if last[s[-1][0]] < first[g]), None)
            if s is None:
                slots.append(s := [])
            s.append((g, first[g]))
    return tuple(tuple(map(tuple, x)) for x in (cell_groups, closing_groups, slots))


def _cell_range(residual: list[int], grp: tuple[int, ...], closing: tuple[int, ...]):
    """(lo, hi) of the values a cell may take given the running residuals of
    its groups ``grp``, all nonnegative; lo > hi means no value fits. A cell
    that closes groups (is their last member) is forced to their residual,
    which fits when no group of the cell holds less. Closing groups hold
    equal residuals: when the cell closes lines of marginals a and b, it
    closes their common line of a & b too, whose other a- and b-lines are
    closed, so both residuals are that line's target, on which the family's
    validation makes a and b agree, less the cells assigned on it."""
    m = residual[grp[0]]
    for g in grp:
        r = residual[g]
        if r < m:
            m = r
    if closing:
        v = residual[closing[0]]
        return (v, v) if v == m else (0, -1)
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
    for _, flat in zip(range(budget.tables - before), walk()):  # islice fails past sys.maxsize
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

    A tracked search runs the memoized DFS, whose memo holds the tables. So
    does an untracked one whose ``_node_bound`` is at most DFS_NODES_PER_CELL
    nodes per cell; any other runs the layered engine, and when that finds
    the caller's budget would be reached, the DFS under that budget, whose
    partial result is made of attained values and whose counts are exact.
    """
    cons = _build_constraints(fam)
    cut = DFS_NODES_PER_CELL * len(cons[1])
    if track is None and _node_bound(*cons, cut) > cut:
        found = _layered_extremes(*cons, budget)
        if found is not None:
            return (*found, None, None)
    return _dfs_extremes(*cons, budget, track)[:4]


def _node_bound(targets, cell_groups, closing_groups, slots, limit=None):
    """An upper bound on the nodes of the whole search, or, once the bound
    passes ``limit``, a partial sum already past it.

    Edges out of cell k, one per node, number at most the states before it
    times one more than the least target of its groups, or times one at a
    forced cell. The states before cell k number at most the edges into it,
    and at most the product of target + 1 over the groups in ``slots`` open
    before it, whose residuals make up the state's code."""
    factor = [1] * len(targets)  # target + 1 of a group that holds a slot
    opening = [1] * len(cell_groups)  # their product over the groups cell k opens
    for slot in slots:
        for g, k in slot:
            factor[g] = targets[g] + 1
            opening[k] *= factor[g]
    nodes, states, codes = 0, 1, 1
    for grp, closing, opens in zip(cell_groups, closing_groups, opening):
        if closing:
            edges = states
            for g in closing:
                codes //= factor[g]
        else:
            edges = states * (1 + min([targets[g] for g in grp]))
        nodes += edges
        if limit is not None and nodes > limit:
            break
        codes *= opens
        states = min(edges, codes)
    return nodes


def _state_code(targets, cell_groups, slots):
    """(step, add, words) of the code of residual states: the sum over the
    groups open before a state's cell of residual times slot weight, 0 at the
    root and past the last cell. Cell k's v takes code c to ``c + add[k + 1]
    - v * step[k]``; ``add[k]`` holds target times weight of the groups cell
    k - 1 opens. A slot's radix is its groups' greatest target + 1; weights
    are mixed-radix over the slots in ``words`` words, word i a code's bits
    from 63 * i: a word ends before its radix product would pass 2**63."""
    weight, add, size, shift = [0] * len(targets), [0] * (len(cell_groups) + 1), 1, 0
    for slot in slots:
        radix = 1 + max([targets[g] for g, _ in slot])
        if size * radix > 2**63:
            size, shift = 1, shift + 63
        if radix > 1:  # an always-0 digit weighs 0
            for g, k in slot:  # cell k opens group g
                weight[g] = size << shift
                add[k + 1] += targets[g] * weight[g]
        size *= radix
    return [sum([weight[g] for g in grp]) for grp in cell_groups], add, shift // 63 + 1


def _dfs_extremes(targets, cell_groups, closing_groups, slots, budget, track):
    """``_extremes`` by memoized DFS, stopping past ``budget.max_nodes`` and
    recording its counts and outcome in ``budget``; its result comes with a
    fifth item, ``walk``, the generator of the tables the search found.

    Cells take their values in row-major order, ascending, each in the
    ``_cell_range`` of the residuals before it, and each state -- the
    residual vector before cell k -- is expanded once, keyed by its
    ``_state_code``, to which it adds ``add[k + 1]`` once, so each child's
    code is one multiply and subtract. A revisited state adds the table count
    stored for it and skips its subtree: its first visit, earlier in DFS
    order, already showed every value its subtree holds.
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
    step, add, _ = _state_code(targets, cell_groups, slots)
    # memo[k]: state code before cell k -> tables below it. Past the last
    # cell every residual is 0, and that state is one table.
    memo: list[dict[int, int]] = [{} for _ in range(n)] + [{0: 1}]
    residual = list(targets)
    code = [add[1]] * n  # code[k]: the code of the state before cell k, plus add[k + 1]
    hi, cur, below = [0] * n, [0] * n, [0] * n
    nodes, tables, outcome, max_nodes = budget.nodes, budget.tables, COMPLETE, budget.max_nodes
    min_at = max_at = None  # (path through cell track, state code after it)
    lo, hi[0] = _cell_range(residual, cell_groups[0], closing_groups[0])
    cur[0] = lo - 1
    k = 0
    while True:
        v = cur[k] + 1
        if v > hi[k]:  # state k is done: store it and leave cur[k - 1]
            count = below[k]
            memo[k][code[k] - add[k + 1]] = count
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
                code[k] = child + add[k + 1]
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

    def walk(path=(), state=0) -> Iterator[tuple[int, ...]]:
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
        at[j] = state + add[j + 1]
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
            at[j] = child + add[j + 1]
            lo, hi[j] = _cell_range(rest, cell_groups[j], closing_groups[j])
            val[j] = lo - 1

    def first(at) -> Optional[tuple[int, ...]]:
        return next(walk(*at)) if at else None

    return mins, maxs, first(min_at), first(max_at), walk


@functools.lru_cache(maxsize=256)
def _layer_plan(cell_groups, closing_groups, slots):
    """Per cell: its groups, its first closing group (None for a free cell),
    whether it opens a group of ``slots``, and its groups it does not close:
    no later cell reads the residual of a group the cell closes. They depend
    on the shape alone."""
    opening = {k for slot in slots for _, k in slot}
    return [(grp, closing[0] if closing else None, k in opening,
             tuple(g for g in grp if g not in closing))
            for k, (grp, closing) in enumerate(zip(cell_groups, closing_groups))]


def _dedup(keys: np.ndarray):
    """(first, inverse) of the distinct columns of ``keys``, one row per
    word: ``first`` indexes one column of each, in key order, and ``inverse``
    maps every column to its distinct one. The layered engine sorts the
    states' bases at a free cell that opens no line and the edges' children
    at a forced one; a cell that opens a line needs neither."""
    m = keys.shape[1]
    new = np.zeros(m, dtype=bool)  # new[i]: the i-th column in order starts a key
    if len(keys) == 1:
        order = keys[0].argsort()
        ordered = keys[0][order]
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    else:
        order = np.lexsort(keys)
        ordered = keys[:, order]
        np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=new[1:])
    inverse = np.empty(m, dtype=np.int32 if m < 2**31 else np.intp)
    inverse[order] = new.cumsum()
    new[:1] = True
    return order[new], inverse


def _layered_extremes(targets, cell_groups, closing_groups, slots, budget):
    """The (mins, maxs) of an untracked ``_extremes``, breadth-first, one
    cell layer at a time in numpy; None, leaving ``budget`` alone, when the
    caller's budget would be reached.

    Layer k holds the distinct states before cell k that the DFS expands, as
    rows of residuals, one column per group, with their ``_state_code``s, a
    column of int64 words each. The forward pass gives each state the
    ``[lo, hi]`` of ``_cell_range``, one node per value (a forced cell: one
    from each state that admits its value), so ``nodes`` is the DFS's, and
    finds the distinct children in one of three ways:

    - A cell that opens a group of ``slots`` merges nothing: the opened
      group's digit in a child is its target less the value, which fixes
      the value and then the parent. Its edges are its children, in order.
    - A free cell that opens nothing merges states, not edges. Every group
      of the cell is open, so a value subtracts from digits that hold at
      least ``hi`` and never borrows: state s has the children base(s) +
      j * step for j = 0 .. hi(s), where base(s) is its code less hi(s) *
      step, and j is the child's least residual over the cell's groups. Two
      states share a child exactly when their bases are equal, so
      ``_dedup`` runs over the states' bases, and each class of equal bases
      gets the children j = 0 .. its greatest hi, built without an edge.
    - A forced cell that opens nothing merges its edges by their children's
      codes: states that differ only in the residual of a group the cell
      closes leave one state.

    The backward pass counts tables per state, exactly, and takes a cell's
    extremes over the edges into states that hold a table. At a merged
    cell, state s's count is the sum of its class's first hi(s) + 1 child
    counts, one difference of a prefix sum over the layer, and its extremes
    come from its class's first live child and its last at or below hi(s).
    """
    n, top = len(cell_groups), max(targets)
    nodes_left = budget.max_nodes - budget.nodes
    # Residuals fit the least signed dtype that holds every target + 1.
    small = np.min_scalar_type(-2 - top) if top < 2**31 else np.int64
    R = np.array(targets, dtype=small)[None, :]  # R[s, g]: residual g of state s
    step, add, words = _state_code(targets, cell_groups, slots)
    codes = np.array([[c >> 63 * i & 2**63 - 1 for c in step + add] for i in range(words)])
    steps, adds = codes[:, :n], codes[:, n:]  # one int64 row per word
    code = np.zeros((words, 1), dtype=np.int64)  # code[:, s]: state s's code
    # Per cell, an edge layer's (value, inverse, start, parent): one edge per
    # entry of ``value``, whose child state is its entry of ``inverse`` (None:
    # the edges are the children, in order). A free cell's edges run per
    # state from ``start``; a forced cell's come one each from the states
    # ``parent``, out of ``start`` states. A merged layer's (hi, head): state
    # s's children run from head[s] to head[s] + hi[s], for the values hi[s]
    # down to 0.
    layers, nodes = [], 0
    plan = _layer_plan(cell_groups, closing_groups, slots)
    for k, (grp, closing, opens, still) in enumerate(plan):
        hi = R[:, grp[0]]
        for g in grp[1:]:
            hi = np.minimum(hi, R[:, g])
        if closing is not None:
            # Forced to the closing residual, which fits where it is the
            # least residual of the cell's groups (``_cell_range``).
            lo = R[:, closing]
            ok = hi == lo
            parent = ok.nonzero()[0]
            nodes += len(parent)
            if nodes > nodes_left:
                return None
            value = lo[parent]
            keys = code.take(parent, axis=1) - steps[:, k, None] * value
            edges = (value, None, len(ok), parent)
            if not opens:  # states that differ only in closing residuals meet
                first, inverse = _dedup(keys)
                edges = (value, inverse, len(ok), parent)
                keys, parent, value = keys.take(first, axis=1), parent[first], value[first]
            layers.append(edges)
        else:
            if len(R) * (top + 1) >= 2**63:  # the widths' sum could wrap
                return None
            nodes += int(hi.sum()) + len(hi)
            if nodes > nodes_left:
                return None
            if opens:
                width = hi + 1
            else:  # one class per base, as wide as its widest state
                first, inverse = _dedup(code - steps[:, k, None] * hi)
                width = np.zeros(len(first), dtype=small)
                np.maximum.at(width, inverse, hi)
                width += 1
            start = width.cumsum() - width
            parent = np.repeat(np.arange(len(width)), width)
            value = (np.arange(len(parent)) - start[parent]).astype(small)
            if opens:
                layers.append((value, None, start, None))
            else:  # child j of a class, from its first state: value hi - j
                layers.append((hi, start.take(inverse)))
                parent = first[parent]
                value = hi[parent] - value
            keys = code.take(parent, axis=1) - steps[:, k, None] * value
        code = keys
        if add[k + 1]:
            code += adds[:, k + 1, None]
        R = R.take(parent, axis=0)
        for g in still:
            R[:, g] -= value
    # Backward: counts[s] = tables below state s of the layer below. A state
    # sums at most top + 1 children, so a layer whose counts all stay below
    # ``limit`` is summed in int64 by the layer above; past it, in Python
    # ints. ``bound`` caps the counts so far, so most layers skip the check.
    limit, bound = (2**63 - 1) // (top + 1), 1
    counts = np.ones(len(R), dtype=np.int64)
    mins, maxs = [top + 1] * n, [-1] * n
    for k in reversed(range(n)):
        layer = layers.pop()
        if len(layer) == 2:  # merged: prefix sums over the children
            hi, head = layer
            last, m = head + hi, len(counts)
            # int64 counts are summed in uint64, which wraps, but exactly
            # modulo 2**64: each state's sum fits int64 (``limit``), so its
            # difference is exact.
            flat = counts if counts.dtype == object else counts.view(np.uint64)
            sums = np.zeros(m + 1, dtype=flat.dtype)
            np.cumsum(flat, out=sums[1:])
            total = (sums[last + 1] - sums[head]).astype(counts.dtype, copy=False)
            live, at = counts > 0, np.arange(m)
            below = np.maximum.accumulate(np.where(live, at, -1))[last]
            held = below >= head  # s has a live child: the last at or below hi(s)
            if held.any():
                above = np.minimum.accumulate(np.where(live, at, m)[::-1])[::-1][head]
                mins[k] = int((last - below)[held].min())
                maxs[k] = int((last - above)[held].max())
            bound *= top + 1
        else:
            value, inverse, start, parent = layer
            below = counts if inverse is None else counts.take(inverse)
            held = value[below > 0]
            if held.size:
                mins[k], maxs[k] = int(held.min()), int(held.max())
            if parent is None:  # every state has at least one edge
                total = np.add.reduceat(below, start)
                bound *= top + 1
            else:  # at most one edge per state
                total = np.zeros(start, dtype=below.dtype)
                total[parent] = below
        if bound >= limit and total.max(initial=0) >= limit:
            total = total.astype(object, copy=False)
        counts = total
    budget.nodes += nodes
    budget.tables += int(counts[0])
    budget.outcome = COMPLETE
    return mins, maxs


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
    ``keep_tables``, the first tables in DFS order attaining each, read from
    the memo of a DFS search, which such a call always runs."""
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
    The search keeps no tables, so a passing certification carries none. A
    violation raises CertificationError carrying the first attaining table
    in DFS order, from a tracked rerun under a fresh budget of the same
    ``max_nodes``; it completes, as both engines count the same nodes, and
    ``budget`` keeps the counts of the first search. That outcome falsifies
    an implementation, never the inequalities.
    """
    budget = budget if budget is not None else EnumerationBudget()
    sharp = sharp_bounds(fam, report.cell, budget)
    if sharp.outcome != COMPLETE:
        raise BudgetExhaustedError(
            "certification requires a complete enumeration; raise the budget"
        )
    slack_lower = sharp.min_count - report.lower
    slack_upper = report.upper - sharp.max_count
    if slack_lower < 0 or slack_upper < 0:
        found = sharp_bounds(
            fam, report.cell, EnumerationBudget(max_nodes=budget.max_nodes), keep_tables=True
        )
        side, bound, count, table = (
            ("lower", report.lower, sharp.min_count, found.min_table) if slack_lower < 0
            else ("upper", report.upper, sharp.max_count, found.max_table)
        )
        raise CertificationError(
            f"{side} bound {bound} from {report.formula} excludes an "
            f"attainable count {count} at cell {report.cell}",
            table=table,
        )
    return Certification(
        report=report, sharp=sharp, slack_lower=slack_lower, slack_upper=slack_upper
    )
