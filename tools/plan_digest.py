"""Print one sha256 over every bound the library reports, to compare two trees.

    python3 tools/plan_digest.py

The families are the ``sweep``, ``deep`` and ``audit`` pools of
``bench/workloads.make_pool`` at seed 3, and families drawn from that seed:
integer, real, integer with a total near 2^62 (sums past int64, so
Python ints), and mostly-zero real families whose released marginals
disagree within the consistency slack, so that rounding crosses bounds that
meet. Last come the three real binary 3-way families of the settle-order
tests in ``tests/test_kernel.py``, whose marginals disagree by up to about 1
at totals near 1e9, so that the order in which a lower is settled against
other bounds shows in the values. For each family it hashes:

- every method spelling's ``bounds_grid`` arrays: values, dtype and
  read-only flag;
- every ``method_report`` and every per-cell view (``simple_frechet``,
  ``frechet_3way``, ``frechet_ddim``, ``kwerel_form``,
  ``decomposition_bound``, ``fan_lower_bound``, ``best_bounds``,
  ``compare_fan_vs_decomposition``) at every cell, or at a seeded sample of
  24 cells on larger families, with every term's value and type;
- on the settle-order families, ``compare_fan_vs_decomposition`` at every
  cell over every ordered three-set cover of the variables;
- every refusal: its class, message and ``missing``.

It prints the digest and what it covered. On a line of its own it then prints
a second digest, over every pair checker's result and witness:
``is_supermodular`` and ``is_submodular`` in both modes, the two MTP2 checks
in both modes, ``search_mtp2_relabeling`` in both criteria and
``is_log_supermodular``. Their inputs are the ``audit`` pool at seed 3 (its
tables, the marginal functions at its cells, and its tables' {1, 2}
marginals) and grids drawn from that seed: integer, real, and integer next
to the largest values whose sums or products int32 and int64 hold (the
relabeling search on those of at most two axes).

Two trees that report alike print the same digests; run it in each checkout
(it imports ``tablebounds`` from ``src`` and only reads ``bench/``). It takes
about 20 s on 2 cores, the pair digest about 1 s of it.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from tablebounds import (  # noqa: E402
    BoundReport,
    CheckResult,
    ContingencyTable,
    Decomposition,
    FanDecompositionComparison,
    KwerelStats,
    LatticeFunction,
    MarginalFamily,
    MarginalTable,
    Relabeling,
    TableBoundsError,
    VarSet,
    best_bounds,
    bounds_grid,
    cell_margin_fn,
    compare_fan_vs_decomposition,
    decomposition_bound,
    fan_lower_bound,
    frechet_3way,
    frechet_ddim,
    is_log_supermodular,
    is_mtp2_additive,
    is_mtp2_multiplicative,
    is_submodular,
    is_supermodular,
    kwerel_form,
    marginalize,
    search_mtp2_relabeling,
    simple_frechet,
)
from tablebounds.bounds import method_report  # noqa: E402
from workloads import make_pool  # noqa: E402

SEED = 3
CELL_SAMPLE = 24
RANDOM_FAMILIES = 40  # per kind


PLAIN = (int, float, bool, str, type(None))  # their reprs tell them apart


def typed(value):
    """A value with the type of every part, dicts in their order."""
    if type(value) in PLAIN:
        return value
    if isinstance(value, dict):
        return ("dict", [(k, typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [typed(v) for v in value])
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.flags.writeable, value.tolist())
    if isinstance(value, BoundReport):
        return ("report", typed(value.cell), typed(value.lower), typed(value.upper),
                value.formula, typed(value.subsets), typed(dict(value.terms)))
    if isinstance(value, FanDecompositionComparison):
        return ("comparison", typed(value.decomposition), typed(value.fan),
                typed(value.fan_missing), value.dominance_holds)
    if isinstance(value, KwerelStats):
        return ("kwerel", typed(value.s_d), typed(value.p_full), typed(value.d),
                typed(value.num_vars))
    if isinstance(value, VarSet):
        return ("VarSet", value.mask, value.num_vars)
    if isinstance(value, CheckResult):
        w = value.witness
        return ("check", value.ok, w and (w.kind, typed(w.a), typed(w.b), typed(w.lhs),
                                          typed(w.rhs)))
    if isinstance(value, Relabeling):
        return ("relabeling", typed(value.perms))
    if isinstance(value, Fraction):
        return ("Fraction", value.numerator, value.denominator)
    return (type(value).__name__, repr(value))


def outcome(fn):
    try:
        return typed(fn())
    except TableBoundsError as err:
        return ("refused", type(err).__name__, str(err), typed(getattr(err, "missing", None)))


def spelled(subsets):
    return "|".join(str(a) for a in subsets)


def singletons(l):
    return tuple(VarSet.from_vars([j], l) for j in range(1, l + 1))


def covers(fam):
    """Covers and sequences of subsets to spell methods and views with: the
    released subsets (their first three and four too), the singletons, the
    chain of neighbouring pairs, the full set, a two-set split of L, and
    {1}|{l}, which covers L only at l = 2."""
    l, released = fam.num_vars, fam.subsets()
    full = VarSet.full(l)
    chain = tuple(VarSet.from_vars([j, j + 1], l) for j in range(1, l))
    split = (VarSet.from_vars(range(1, l // 2 + 1), l) if l > 1 else full,
             VarSet.from_vars(range(l // 2 + 1, l + 1), l))
    found = [released, released[:3], released[:4], singletons(l)[:4], chain[:4], (full,),
             split, (VarSet.from_vars([1], l), VarSet.from_vars([l], l))]
    if l >= 3:  # three-set covers for the comparison
        found.append(singletons(l)[:2] + (VarSet.from_vars(range(3, l + 1), l),))
    return [tuple(c) for c in dict.fromkeys(found) if c]


def methods(fam):
    """Every method spelling to hash on this family, refusals included."""
    l = fam.num_vars
    out = ["simple", "best", "3way", "3way:one-dim", "3way:two-dim", "3way:bogus"]
    out += [f"ddim:{d}" for d in range(0, l + 2)]
    for cover in covers(fam):
        out.append(f"decomp:{spelled(cover)}")
        if len(cover) <= 4:
            out += [f"fan:{spelled(cover)},{p}" for p in range(1, len(cover) + 2)]
    return out


def views(fam, cell):
    """(per-cell function) for every per-cell entry point on this family."""
    l = fam.num_vars
    out = [lambda: simple_frechet(fam, cell), lambda: best_bounds(fam, cell)]
    out += [lambda b=b: frechet_3way(fam, cell, b) for b in ("one-dim", "two-dim")]
    for d in range(1, l + 1):
        out += [lambda d=d: frechet_ddim(fam, cell, d), lambda d=d: kwerel_form(fam, cell, d)]
    for cover in covers(fam):
        out.append(lambda c=cover: decomposition_bound(fam, Decomposition(c), cell))
        if len(cover) <= 4:
            out += [lambda c=cover, p=p: fan_lower_bound(fam, c, p, cell)
                    for p in range(1, len(cover) + 1)]
        if len(cover) == 3:
            out.append(lambda c=cover: compare_fan_vs_decomposition(fam, Decomposition(c), cell))
    return out


def three_covers(l):
    """Every ordered triple of nonempty subsets whose union is L."""
    full = (1 << l) - 1
    return [tuple(VarSet(m, l) for m in masks)
            for masks in itertools.product(range(1, full + 1), repeat=3)
            if masks[0] | masks[1] | masks[2] == full]


def family_items(fam, rng, every_three_cover=False):
    """The hashed items of one family, in a fixed order."""
    cells = list(itertools.product(*(range(c) for c in fam.cardinalities)))
    if len(cells) > CELL_SAMPLE:
        picks = sorted(rng.choice(len(cells), size=CELL_SAMPLE, replace=False))
        cells = [cells[int(k)] for k in picks]
    spellings = methods(fam)
    for method in spellings:
        yield method, outcome(lambda: bounds_grid(fam, method))
    for cell in cells:
        for method in spellings:
            yield method, outcome(lambda: method_report(fam, method, cell))
        for k, view in enumerate(views(fam, cell)):
            yield k, outcome(view)
        for cover in three_covers(fam.num_vars) if every_three_cover else ():
            yield spelled(cover), outcome(
                lambda: compare_fan_vs_decomposition(fam, Decomposition(cover), cell))


def pool_families():
    for workload in ("sweep", "deep", "audit"):
        for q in make_pool(workload, SEED, None):
            if workload == "sweep":
                table, subsets = q[1], q[2]
            elif workload == "deep":
                table, subsets = q
            else:  # audit releases every pair
                table, l = q[0], q[0].num_vars
                subsets = tuple(VarSet.from_vars(p, l)
                                for p in itertools.combinations(range(1, l + 1), 2))
            yield workload, MarginalFamily.from_table(table, subsets)


def random_subsets(rng, l):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        groups = [[j] for j in range(1, l + 1)]
    elif kind == 1:
        groups = [list(p) for p in itertools.combinations(range(1, l + 1), 2)]
    elif kind == 2:
        groups = [[j, j + 1] for j in range(1, l)] or [[1]]
    else:
        sizes = rng.integers(1, l + 1, size=int(rng.integers(1, 4)))
        groups = [sorted({int(v) for v in rng.integers(1, l + 1, size=int(k))}) for k in sizes]
    return tuple(dict.fromkeys(VarSet.from_vars(g, l) for g in groups))


def random_families():
    rng = np.random.default_rng([SEED, 27])
    for kind in ("integer", "real", "near-int64", "real-within-slack"):
        for _ in range(RANDOM_FAMILIES):
            l = int(rng.integers(2, 5))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
            counts = rng.integers(0, 6, size=int(np.prod(cards)))
            if kind == "real-within-slack":  # mostly zero: bounds meet, so rounding crosses
                counts *= rng.random(counts.size) < 0.3
            subsets = random_subsets(rng, l)
            if kind == "integer":
                table = ContingencyTable.from_flat(cards, [int(c) for c in counts])
            elif kind == "near-int64":
                scale = 2**62 // max(1, int(counts.sum()))
                table = ContingencyTable.from_flat(cards, [int(c) * scale for c in counts])
            else:
                table = ContingencyTable.from_flat(cards, counts / 7, kind="real")
            if kind != "real-within-slack":
                yield kind, MarginalFamily.from_table(table, subsets)
                continue
            margs = [marginalize(table, a) for a in subsets]
            for k, m in enumerate(margs[1:], 1):  # nudged well inside the slack
                nudge = rng.choice([0.0, 1.0], size=m.table.counts.size) * 1e-12
                moved = ContingencyTable.from_flat(
                    m.table.cardinalities, m.table.counts.ravel() + nudge, kind="real")
                margs[k] = MarginalTable(m.vars, moved)
            yield kind, MarginalFamily(cards, margs)


N = 1e9
# The released marginals of the settle-order tests' families, by subset.
SETTLE_FAMILIES = (
    {"1,2": [[N + 0.5, 0.5], [0.5, 0.0]], "1,3": [[N + 1.4, 0.5], [1.4, 0.0]],
     "2,3": [[N + 0.5, 0.5], [1.4, 0.0]]},
    {"1": [N, 0.0], "1,2": [[N + 0.9, 0.0], [0.0, 0.0]],
     "1,3": [[N + 0.9, 0.0], [0.0, 0.0]], "2,3": [[N, 0.0], [0.0, 0.0]]},
    {"1": [0.9, N], "1,2": [[0.0, 0.9], [N + 0.9, 0.0]],
     "1,3": [[0.9, 0.0], [N + 0.9, 0.0]], "2,3": [[N, 0.0], [0.9, 0.0]]},
)


def settle_families():
    for arrays in SETTLE_FAMILIES:
        margs = []
        for text, counts in arrays.items():
            counts = np.array(counts)
            table = ContingencyTable.from_flat(counts.shape, counts.ravel(), kind="real")
            margs.append(MarginalTable(VarSet.parse(text, 3), table))
        yield "settle", MarginalFamily((2, 2, 2), margs)


# The largest magnitudes whose sums (products) int32 and int64 hold, and
# one past each.
LIMITS = (2**30 - 1, 2**30, 46_340, 46_341, 2**62 - 1, 2**62, 3_037_000_499, 3_037_000_500)


def table_checks(table):
    """Both MTP2 checks in both modes on ``table``."""
    for check in (is_mtp2_additive, is_mtp2_multiplicative):
        for mode in ("exhaustive", "local"):
            yield check.__name__, mode, outcome(lambda: check(table, mode))


def lattice_checks(fn):
    """Both modular checks in both modes on ``fn``, and the log-supermodular
    check on fn shifted to be positive."""
    for check in (is_supermodular, is_submodular):
        for mode in ("exhaustive", "local"):
            yield check.__name__, mode, outcome(lambda: check(fn, mode))
    positive = np.asarray(fn.values, dtype=np.float64) - float(np.min(fn.values)) + 1.0
    yield "is_log_supermodular", outcome(lambda: is_log_supermodular(
        LatticeFunction(fn.num_vars, positive)))


def relabel_checks(table):
    for criterion in ("additive", "multiplicative"):
        yield criterion, outcome(lambda: search_mtp2_relabeling(table, criterion))


def pair_inputs():
    """(what, checks) for every pair-checker input, in a fixed order."""
    for k, (table, _, cells) in enumerate(make_pool("audit", SEED, None)):
        l = table.num_vars
        yield ("audit", k), table_checks(table)
        for cell in cells:
            yield ("audit", k, cell), lattice_checks(cell_margin_fn(table, cell))
        two = marginalize(table, VarSet.from_vars([1, 2], l)).table
        yield ("audit", k, "{1,2}"), relabel_checks(two)
    rng = np.random.default_rng([SEED, 28])
    for kind in ("integer", "real", *LIMITS):
        for _ in range(RANDOM_FAMILIES):
            l = int(rng.integers(0, 7))
            cards = tuple(int(c) for c in rng.integers(1, 5, size=int(rng.integers(1, 5))))
            if kind == "real":
                lattice_values = rng.random(1 << l) * 10
                counts = rng.random(prod(cards)) * 10
            else:
                top = 9 if kind == "integer" else kind
                low = 0 if kind == "integer" else max(0, kind - 3)
                lattice_values = rng.integers(low, top + 1, size=1 << l) * rng.choice(
                    [-1, 1], size=1 << l)
                counts = rng.integers(low, top + 1, size=prod(cards)) * (
                    rng.random(prod(cards)) < 0.8)
            yield (kind, l), lattice_checks(LatticeFunction(l, lattice_values))
            if kind == "real" or sum(int(c) for c in counts) < 2**63:
                table = ContingencyTable.from_flat(
                    cards, counts.tolist(), kind="real" if kind == "real" else "integer")
                yield (kind, cards), table_checks(table)
                if len(cards) <= 2:  # at most 4! 4! relabelings
                    yield (kind, cards, "relabel"), relabel_checks(table)


def pair_digest() -> str:
    digest, inputs, results = hashlib.sha256(), 0, 0
    for what, checks in pair_inputs():
        inputs += 1
        digest.update(repr(what).encode())
        for result in checks:
            results += 1
            digest.update(repr(result).encode())
    return f"pairs sha256 {digest.hexdigest()} over {inputs} inputs and {results} results"


def main() -> None:
    digest, families, items = hashlib.sha256(), 0, 0
    rng = np.random.default_rng([SEED, 0])
    every = itertools.chain(pool_families(), random_families(), settle_families())
    for source, fam in every:
        families += 1
        digest.update(repr((source, typed(fam.cardinalities), typed(fam.subsets()))).encode())
        for item in family_items(fam, rng, every_three_cover=source == "settle"):
            items += 1
            digest.update(repr(item).encode())
    print(f"sha256 {digest.hexdigest()} over {families} families and {items} items")
    print(pair_digest())


if __name__ == "__main__":
    main()
