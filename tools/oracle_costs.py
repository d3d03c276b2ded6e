"""Measure the two oracle engines' costs and their break-even.

    python3 tools/oracle_costs.py

Draws seeded integer families of seven small shapes (cell counts from 0 to
a greatest count drawn per family from 1-6), runs the memoized DFS and the
layered engine of ``tablebounds.oracle`` on each to completion (best of 3),
and prints one JSON line: per shape, the DFS's microseconds per node, the
layered engine's fixed microseconds per cell, and their ratio, the
break-even: the nodes per cell the DFS searches in the time the layered
engine spends on a family apart from its edges. It also prints
``predictor_cut_per_cell``, the figure behind ``oracle.DFS_NODES_PER_CELL``:
the whole number of nodes per cell of ``oracle._node_bound`` at or below
which a family runs the DFS, and above which the layered engine, that
minimises the summed time of the engines the families are routed to (the
least such, on a tie), and ``routed_time_at_cut_over_least``, the summed
time at ``oracle.DFS_NODES_PER_CELL`` over that least sum. The sum is flat
over a wide range of cuts, so the cut itself moves from run to run while the
ratio shows what the constant costs.

The costs are least-squares fits in relative error: DFS time = fixed +
per node x nodes, and layered time = per cell x cells + per node x nodes
(also printed), with no coefficient below zero: a shape whose unconstrained
fit gives one is refitted with it fixed at 0, and its ``fit_clamped_at_zero``
is true. Families whose search passes MAX_NODES are skipped and counted.
Run from the root of a checkout; it imports tablebounds from ``src``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import statistics
import sys
from math import inf
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from tablebounds import ContingencyTable, EnumerationBudget, MarginalFamily, VarSet  # noqa: E402
from tablebounds import oracle  # noqa: E402

ONE_WAY = lambda l: [[j] for j in range(1, l + 1)]  # noqa: E731
PAIRS = lambda l: [list(p) for p in itertools.combinations(range(1, l + 1), 2)]  # noqa: E731
SHAPES = {
    "3x3 one-way": ((3, 3), ONE_WAY),
    "3x4 one-way": ((3, 4), ONE_WAY),
    "2x2x2 one-way": ((2, 2, 2), ONE_WAY),
    "2x2x2 pairs": ((2, 2, 2), PAIRS),
    "2x2x2x2 pairs": ((2, 2, 2, 2), PAIRS),
    "3x3x3 pairs": ((3, 3, 3), PAIRS),
    "2x3x3 chain": ((2, 3, 3), lambda l: [[1, 2], [2, 3]]),
}
MAX_COUNTS = range(1, 7)  # each family's greatest count is drawn from these
MAX_NODES = 200_000  # larger searches are skipped, so a run stays short


def best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def costs(cons):
    """(cells, nodes, DFS us, layered us, node bound) of one family, or None
    when its search passes MAX_NODES."""
    counted = EnumerationBudget(max_nodes=MAX_NODES)
    oracle._dfs_extremes(*cons, counted, None)
    if not counted.complete:
        return None
    dfs = best_of(lambda: oracle._dfs_extremes(*cons, EnumerationBudget(), None))
    layered = best_of(lambda: oracle._layered_extremes(*cons, EnumerationBudget()))
    return len(cons[1]), counted.nodes, 1e6 * dfs, 1e6 * layered, oracle._node_bound(*cons)


def fit(columns, times):
    """Least-squares coefficients of ``times`` on two ``columns`` in relative
    error (so small families weigh as much as large ones), none below 0, and
    whether one was fixed at 0: a negative coefficient is set to 0 and the
    other column refitted alone, which for two columns is the least-squares
    optimum under the sign constraint."""
    x = np.array(columns, dtype=float).T / np.array(times)[:, None]
    ones = np.ones(len(times))
    coef = np.linalg.lstsq(x, ones, rcond=None)[0]
    if (coef >= 0).all():
        return coef, False
    keep = int(np.argmax(coef))
    coef = np.zeros(2)
    coef[keep] = np.linalg.lstsq(x[:, [keep]], ones, rcond=None)[0][0]
    return coef, True


def summary(rows):
    cells, nodes, dfs, layered, _ = (list(c) for c in zip(*rows))
    (_, dfs_per_node), dfs_clamped = fit([[1] * len(rows), nodes], dfs)
    (per_cell, per_node), layered_clamped = fit([cells, nodes], layered)
    return {
        "families": len(rows),
        "dfs_us_per_node": round(dfs_per_node, 3),
        "layered_us_per_cell": round(per_cell, 1),
        "layered_us_per_node": round(per_node, 3),
        "break_even_nodes_per_cell": round(per_cell / dfs_per_node, 1) if dfs_per_node else inf,
        "fit_clamped_at_zero": dfs_clamped or layered_clamped,
    }


def predictor_cut(rows):
    """The least whole cut on the node bound per cell that minimises the
    summed time of the DFS on the families at or below it and the layered
    engine on the rest, and the summed time at oracle.DFS_NODES_PER_CELL
    over that least one."""
    # A family runs the DFS from the cut ceil(bound / cells) on, so the sum
    # changes only at those cuts.
    first = [-(-bound // cells) for cells, _, _, _, bound in rows]

    def routed(cut):
        return sum(row[2] if f <= cut else row[3] for f, row in zip(first, rows))

    best = min(sorted({0, *first}), key=routed)
    return best, routed(oracle.DFS_NODES_PER_CELL) / routed(best)


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    rng = np.random.default_rng(0)
    shapes, skipped, every = {}, 0, []
    for name, (cards, margins) in SHAPES.items():
        subsets = [VarSet.from_vars(v, len(cards)) for v in margins(len(cards))]
        rows = []
        for _ in range(40):  # families per shape
            counts = rng.integers(0, rng.choice(MAX_COUNTS) + 1, size=int(np.prod(cards)))
            fam = MarginalFamily.from_table(ContingencyTable.from_flat(cards, counts), subsets)
            row = costs(oracle._build_constraints(fam))
            if row is None:
                skipped += 1
            else:
                rows.append(row)
        if rows:
            shapes[name] = summary(rows)
            every += rows
    cut, at_constant = predictor_cut(every)
    print(json.dumps({
        "shapes": shapes,
        "break_even_nodes_per_cell": round(
            statistics.median(s["break_even_nodes_per_cell"] for s in shapes.values()), 1
        ),
        "predictor_cut_per_cell": cut,
        "routed_time_at_cut_over_least": round(at_constant, 4),
        "skipped": skipped,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
