"""Enumeration correctness, sharpness, budgets, and certification."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablebounds import (
    BudgetExhaustedError,
    CertificationError,
    ContingencyTable,
    EnumerationBudget,
    MarginalFamily,
    MarginalTable,
    RangeError,
    VarSet,
    best_bounds,
    certify,
    count_tables,
    enumerate_tables,
    marginalize,
    sharp_bounds,
    sharp_bounds_all,
    simple_frechet,
)
from tablebounds import oracle
from tablebounds.bounds import BoundReport
from tablebounds.datasets import lead_table


def two_way_family(rows, cols):
    return MarginalFamily(
        (len(rows), len(cols)),
        [
            MarginalTable(
                VarSet.from_vars([1], 2),
                ContingencyTable.from_flat((len(rows),), rows),
            ),
            MarginalTable(
                VarSet.from_vars([2], 2),
                ContingencyTable.from_flat((len(cols),), cols),
            ),
        ],
    )


def family_of(table, subsets):
    return MarginalFamily.from_table(
        table, [VarSet.from_vars(v, table.num_vars) for v in subsets]
    )


def random_table(rng, l, max_card=3, max_count=4):
    cards = tuple(int(c) for c in rng.integers(2, max_card + 1, size=l))
    return ContingencyTable.from_flat(
        cards, rng.integers(0, max_count + 1, size=int(np.prod(cards)))
    )


class TestEnumerate:
    def test_permutation_margins(self):
        fam = two_way_family([1, 1], [1, 1])
        tables = [t.flat.tolist() for t in enumerate_tables(fam)]
        assert tables == [[0, 1, 1, 0], [1, 0, 0, 1]]

    def test_two_by_two_asymmetric(self):
        fam = two_way_family([2, 1], [1, 2])
        budget = EnumerationBudget()
        assert count_tables(fam, budget) == 2
        assert budget.outcome == "complete"

    def test_lead_margins_contain_lead_table(self):
        fam = two_way_family([25, 5, 4], [8, 7, 19])
        budget = EnumerationBudget()
        seen = {tuple(t.flat.tolist()) for t in enumerate_tables(fam, budget)}
        assert budget.outcome == "complete"
        assert (7, 5, 13, 1, 1, 3, 0, 1, 3) in seen
        assert len(seen) == 309  # frozen regression count
        assert len(seen) == budget.tables

    def test_every_table_reproduces_margins(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            table = random_table(rng, int(rng.integers(2, 4)), max_count=2)
            subsets = [[j] for j in range(1, table.num_vars + 1)]
            fam = family_of(table, subsets)
            for found in itertools.islice(enumerate_tables(fam), 50):
                for v in subsets:
                    a = VarSet.from_vars(v, table.num_vars)
                    assert np.array_equal(
                        marginalize(found, a).table.counts,
                        fam.marginal(a).table.counts,
                    )

    def test_yielded_tables_equal_validated_ones(self):
        # The tables are built from the validated family without a second
        # check; they must be what the validating constructor makes.
        fam = family_of(lead_table(), [[1], [2]])
        for found in enumerate_tables(fam):
            want = ContingencyTable.from_flat(
                fam.cardinalities, found.flat.tolist(), labels=fam.labels
            )
            assert (found.cardinalities, found.labels, found.kind) == (
                want.cardinalities, fam.labels, want.kind
            )
            assert np.array_equal(found.counts, want.counts)
            assert found.counts.dtype == np.int64 and not found.counts.flags.writeable

    def test_deterministic_order(self):
        fam = two_way_family([3, 2], [2, 3])
        first = [t.flat.tolist() for t in enumerate_tables(fam)]
        second = [t.flat.tolist() for t in enumerate_tables(fam)]
        assert first == second
        assert first == sorted(first)  # row-major DFS emits ascending

    def test_count_invariant_under_axis_swap(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            table = random_table(rng, 2, max_count=3)
            fam = family_of(table, [[1], [2]])
            swapped = ContingencyTable(
                table.cardinalities[::-1], np.asarray(table.counts).T
            )
            fam_swapped = family_of(swapped, [[1], [2]])
            assert count_tables(fam) == count_tables(fam_swapped)

    def test_three_way_with_pair_constraints(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            table = random_table(rng, 3, max_card=2, max_count=3)
            fam = family_of(table, [[1, 2], [1, 3], [2, 3]])
            found = [tuple(t.flat.tolist()) for t in enumerate_tables(fam)]
            assert tuple(table.flat.tolist()) in found
            # cross-check: filter a brute-force grid by all three margins
            if table.total <= 4:
                brute = 0
                for flat in itertools.product(
                    range(table.total + 1), repeat=8
                ):
                    if sum(flat) != table.total:
                        continue
                    cand = ContingencyTable.from_flat((2, 2, 2), flat)
                    if all(
                        np.array_equal(
                            marginalize(cand, a).table.counts,
                            fam.marginal(a).table.counts,
                        )
                        for a in fam.subsets()
                    ):
                        brute += 1
                assert brute == len(found)

    def test_infeasible_parity_family(self):
        # Pairwise-consistent one-way margins with pair tables forcing
        # x = y, y = z, x != z: no integer table exists.
        eq = ContingencyTable.from_flat((2, 2), [1, 0, 0, 1])
        ne = ContingencyTable.from_flat((2, 2), [0, 1, 1, 0])
        fam = MarginalFamily(
            (2, 2, 2),
            [
                MarginalTable(VarSet.from_vars([1, 2], 3), eq),
                MarginalTable(VarSet.from_vars([2, 3], 3), eq),
                MarginalTable(VarSet.from_vars([1, 3], 3), ne),
            ],
        )
        assert count_tables(fam) == 0
        with pytest.raises(RangeError):
            sharp_bounds(fam, (0, 0, 0))

    def test_real_family_rejected(self):
        t = ContingencyTable.from_flat((2, 2), [0.5, 1.0, 1.0, 0.5], kind="real")
        fam = family_of(t, [[1], [2]])
        with pytest.raises(RangeError):
            count_tables(fam)


class TestSharpBounds:
    def test_two_by_two_cell(self):
        sb = sharp_bounds(two_way_family([2, 1], [1, 2]), (0, 0))
        assert (sb.min_count, sb.max_count) == (0, 1)
        assert sb.outcome == "complete" and sb.is_sharp
        assert sb.tables_found == 2

    def test_lead_cell_matches_simple_frechet(self):
        fam = two_way_family([25, 5, 4], [8, 7, 19])
        sb = sharp_bounds(fam, (0, 0))
        assert (sb.min_count, sb.max_count) == (0, 8)

    def test_full_release_pins_every_cell(self):
        table = random_table(np.random.default_rng(3), 2)
        fam = family_of(table, [[1, 2]])
        for cell in itertools.product(*(range(c) for c in table.cardinalities)):
            sb = sharp_bounds(fam, cell)
            assert sb.min_count == sb.max_count == table.value(cell)

    def test_all_cells_matches_per_cell(self):
        fam = two_way_family([3, 2, 1], [2, 2, 2])
        mins, maxs, budget = sharp_bounds_all(fam)
        assert budget.outcome == "complete"
        for cell in itertools.product(range(3), range(3)):
            sb = sharp_bounds(two_way_family([3, 2, 1], [2, 2, 2]), cell)
            assert mins[cell] == sb.min_count
            assert maxs[cell] == sb.max_count

    def test_attaining_tables_recorded(self):
        fam = two_way_family([2, 1], [1, 2])
        sb = sharp_bounds(fam, (0, 0), keep_tables=True)
        assert sb.min_table[0] == sb.min_count
        assert sb.max_table[0] == sb.max_count
        # At the last cell the attaining path is a whole table already.
        tables = flats(enumerate_tables(fam))
        sb = sharp_bounds(fam, (1, 1), keep_tables=True)
        assert sb.min_table == next(t for t in tables if t[-1] == sb.min_count)
        assert sb.max_table == next(t for t in tables if t[-1] == sb.max_count)


class TestBudget:
    def test_node_budget_flags_exhausted(self):
        fam = two_way_family([25, 5, 4], [8, 7, 19])
        budget = EnumerationBudget(max_nodes=200)
        sb = sharp_bounds(fam, (0, 0), budget)
        assert budget.outcome == "exhausted"
        assert not sb.is_sharp
        # partial extremes sit inside the true sharp range
        assert 0 <= sb.min_count and sb.max_count <= 8

    @pytest.mark.parametrize("field", ["max_nodes"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_limits_below_one_refused(self, field, value):
        with pytest.raises(RangeError, match=f"{field} must be at least 1, got {value}"):
            EnumerationBudget(**{field: value})

    def test_permutation_family_past_a_million_tables(self):
        # Its 10! tables are the permutation matrices; nodes alone bound the
        # search, so it completes.
        fam = two_way_family([1] * 10, [1] * 10)
        budget = EnumerationBudget()
        assert count_tables(fam, budget) == math.factorial(10)
        assert budget.outcome == "complete"
        sb = sharp_bounds(fam, (0, 0))
        assert (sb.min_count, sb.max_count, sb.outcome) == (0, 1, "complete")

    def test_count_past_int64_is_exact(self):
        # 30 rows of sum 4 over two columns of 60: the x^60 coefficient of
        # (1 + x + ... + x^4)^30, past 2^63, which the layered engine counts
        # in Python ints.
        poly = [1]
        for _ in range(30):
            poly = [
                sum(poly[i - j] for j in range(5) if 0 <= i - j < len(poly))
                for i in range(len(poly) + 4)
            ]
        assert poly[60] > 2**63
        budget = EnumerationBudget()
        assert count_tables(two_way_family([4] * 30, [60, 60]), budget) == poly[60]
        assert budget.outcome == "complete"

    def test_tiny_budget_raises_before_any_table(self):
        fam = two_way_family([25, 5, 4], [8, 7, 19])
        with pytest.raises(BudgetExhaustedError):
            sharp_bounds(fam, (0, 0), EnumerationBudget(max_nodes=1))


class TestCertify:
    def test_simple_frechet_zero_slack_on_lead(self):
        fam = two_way_family([25, 5, 4], [8, 7, 19])
        cert = certify(simple_frechet(fam, (0, 0)), fam)
        assert cert.ok
        assert (cert.slack_lower, cert.slack_upper) == (0, 0)

    def test_violating_report_hard_fails_with_table(self):
        fam = two_way_family([2, 1], [1, 2])
        bogus = BoundReport(
            cell=(0, 0), lower=1, upper=1, formula="bogus", subsets=()
        )
        with pytest.raises(CertificationError) as err:
            certify(bogus, fam)
        assert err.value.table is not None
        assert err.value.table[0] == 0  # the attaining table refutes the bound

    def test_exhausted_budget_refuses_certification(self):
        fam = two_way_family([25, 5, 4], [8, 7, 19])
        with pytest.raises(BudgetExhaustedError):
            certify(simple_frechet(fam, (0, 0)), fam, EnumerationBudget(max_nodes=50))

    def test_nonnegative_slack_random_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            table = random_table(rng, 2, max_count=3)
            fam = family_of(table, [[1], [2]])
            for cell in itertools.product(
                *(range(c) for c in table.cardinalities)
            ):
                cert = certify(simple_frechet(fam, cell), fam)
                assert cert.ok
                # 1-way margins on a 2-way table: classically zero slack
                assert (cert.slack_lower, cert.slack_upper) == (0, 0)


MARGINS = {
    "one-way": lambda l: [[j] for j in range(1, l + 1)],
    "pairs": lambda l: [list(p) for p in itertools.combinations(range(1, l + 1), 2)],
    "chain": lambda l: [[j, j + 1] for j in range(1, l)],
}


@st.composite
def small_families(draw):
    """Integer families on 2-4 variables of cardinality 2-3, released from a
    signed table: a few units, and maybe a hole -- one unit removed, one added
    at a neighbour along each axis. For three or more variables its pair
    margins stay counts yet may admit no table (as 2x2x2 with a lone hole
    does); margins with a negative entry fall back to the unsigned units.
    Totals stay small enough for ``reference`` to list every table."""
    l = draw(st.integers(2, 4))
    cards = tuple(draw(st.lists(st.integers(2, 3), min_size=l, max_size=l)))
    n = int(np.prod(cards))
    signed = np.zeros(cards, dtype=np.int64)
    for k in draw(st.lists(st.integers(0, n - 1), max_size=6 if n <= 12 else 4)):
        signed.flat[k] += 1
    if draw(st.booleans()):
        hole = [draw(st.integers(0, c - 1)) for c in cards]
        signed[tuple(hole)] -= 1
        for j, c in enumerate(cards):
            shift = draw(st.integers(1, c - 1))
            signed[tuple(hole[:j] + [(hole[j] + shift) % c] + hole[j + 1:])] += 1
    subsets = [VarSet.from_vars(v, l) for v in MARGINS[draw(st.sampled_from(sorted(MARGINS)))](l)]

    def margins_of(counts):
        return [
            counts.sum(axis=tuple(j for j in range(l) if j not in a.axes))
            for a in subsets
        ]

    sums = margins_of(signed)
    if any((m < 0).any() for m in sums):
        sums = margins_of(np.maximum(signed, 0))  # drop the removals
    return MarginalFamily(
        cards,
        [MarginalTable(a, ContingencyTable(m.shape, m)) for a, m in zip(subsets, sums)],
    )


def reference(fam):
    """The table list and per-flat-cell value sets, enumerated from the
    definition alone: in row-major order each cell ranges up to the least
    residual of the margin lines through it, and a line must be spent at its
    last cell."""
    cells = list(itertools.product(*(range(c) for c in fam.cardinalities)))
    residual, lines = {}, []
    for cell in cells:
        lines.append([])
        for a in fam.subsets():
            line = (a.mask, tuple(cell[j] for j in a.axes))
            residual[line] = int(fam.marginal(a).table.counts[line[1]])
            lines[-1].append(line)
    last = {line: i for i, through in enumerate(lines) for line in through}
    tables = []

    def extend(prefix):
        i = len(prefix)
        if i == len(cells):
            tables.append(tuple(prefix))
            return
        for v in range(min(residual[line] for line in lines[i]) + 1):
            if all(residual[line] == v for line in lines[i] if last[line] == i):
                for line in lines[i]:
                    residual[line] -= v
                extend(prefix + [v])
                for line in lines[i]:
                    residual[line] += v

    extend([])
    return tables, [{t[k] for t in tables} for k in range(len(cells))]


def reproduces_margins(fam, flat):
    found = ContingencyTable.from_flat(fam.cardinalities, list(flat))
    return all(
        np.array_equal(marginalize(found, a).table.counts, fam.marginal(a).table.counts)
        for a in fam.subsets()
    )


def flats(tables):
    return [tuple(t.flat.tolist()) for t in tables]


class TestEnumerateProperties:
    """``enumerate_tables`` and ``count_tables`` against the reference
    enumeration, complete and under drawn budgets."""

    @settings(max_examples=150, deadline=None)
    @given(small_families(), st.data())
    def test_enumeration_matches_reference(self, fam, data):
        tables, _ = reference(fam)
        budget, counted = EnumerationBudget(), EnumerationBudget()
        assert flats(enumerate_tables(fam, budget)) == tables
        assert (budget.tables, budget.outcome) == (len(tables), "complete")
        assert count_tables(fam, counted) == len(tables)
        assert (counted.nodes, counted.tables) == (budget.nodes, budget.tables)

        k = data.draw(st.integers(1, max(1, len(tables))), label="prefix")
        assert flats(itertools.islice(enumerate_tables(fam), k)) == tables[:k]

        max_nodes = data.draw(st.integers(1, max(1, budget.nodes)), label="max_nodes")
        partial = EnumerationBudget(max_nodes=max_nodes)
        found = flats(enumerate_tables(fam, partial))
        assert found == tables[: partial.tables]
        assert count_tables(fam, EnumerationBudget(max_nodes=max_nodes)) == len(found)


class TestEntryPoints:
    """One search behind every entry point, and per-call table counts."""

    def test_nodes_agree_on_lead_margins(self):
        fam = two_way_family([25, 5, 4], [8, 7, 19])
        counted, listed, extremes = (EnumerationBudget() for _ in range(3))
        assert count_tables(fam, counted) == 309
        assert len(list(enumerate_tables(fam, listed))) == 309
        sharp_bounds_all(fam, extremes)
        assert [b.nodes for b in (counted, listed, extremes)] == [978] * 3
        assert [b.tables for b in (counted, listed, extremes)] == [309] * 3

    def test_shared_budget_reports_each_call(self):
        fam = two_way_family([25, 5, 4], [8, 7, 19])
        budget = EnumerationBudget()
        found = [sharp_bounds(fam, (0, c), budget).tables_found for c in range(3)]
        assert found == [309] * 3
        assert count_tables(fam, budget) == 309
        assert len(list(enumerate_tables(fam, budget))) == 309
        assert (budget.tables, budget.nodes) == (5 * 309, 5 * 978)

    @pytest.mark.parametrize(
        "rows, cols, limits, found",
        [([25, 5, 4], [8, 7, 19], {"max_nodes": 500}, 113),
         ([8, 8, 8], [8, 8, 8], {"max_nodes": 1500}, 607)],
        ids=["lead-nodes-500", "eights-nodes-1500"],
    )
    def test_exhausted_enumeration_is_the_found_prefix(self, rows, cols, limits, found):
        # The memo holds states past where each run stopped, and the walk
        # would reach them; only the run's own tables come out.
        fam = two_way_family(rows, cols)
        budget = EnumerationBudget(**limits)
        tables = flats(enumerate_tables(fam, budget))
        assert (len(tables), budget.outcome) == (found, "exhausted")
        assert tables == flats(enumerate_tables(fam))[:found]


class TestMemoizedSearchProperties:
    """The memoized extremes search against the reference enumeration."""

    @settings(max_examples=150, deadline=None)
    @given(small_families(), st.data())
    def test_extremes_match_reference(self, fam, data):
        tables, values = reference(fam)
        cell_list = list(itertools.product(*(range(c) for c in fam.cardinalities)))
        if not tables:
            with pytest.raises(RangeError):
                sharp_bounds_all(fam)
            return
        mins, maxs, budget = sharp_bounds_all(fam)
        assert budget.outcome == "complete"
        assert budget.tables == len(tables)
        assert mins.reshape(-1).tolist() == [min(v) for v in values]
        assert maxs.reshape(-1).tolist() == [max(v) for v in values]

        k = data.draw(st.integers(0, len(cell_list) - 1), label="flat cell")
        sb = sharp_bounds(fam, cell_list[k], keep_tables=True)
        assert (sb.min_count, sb.max_count, sb.tables_found) == (
            min(values[k]), max(values[k]), len(tables)
        )
        assert sb.min_table == next(t for t in tables if t[k] == sb.min_count)
        assert sb.max_table == next(t for t in tables if t[k] == sb.max_count)
        assert reproduces_margins(fam, sb.min_table)
        assert reproduces_margins(fam, sb.max_table)

        for cell in cell_list:
            rep = best_bounds(fam, cell)
            assert rep.lower <= mins[cell] and maxs[cell] <= rep.upper, (cell, rep)

        max_nodes = data.draw(st.integers(1, budget.nodes), label="max_nodes")
        partial = EnumerationBudget(max_nodes=max_nodes)
        try:
            pmins, pmaxs, partial = sharp_bounds_all(fam, partial)
        except BudgetExhaustedError:
            assert partial.tables == 0  # only a run that found no table may refuse
            return
        assert partial.outcome == ("complete" if max_nodes == budget.nodes else "exhausted")
        assert (mins <= pmins).all() and (pmaxs <= maxs).all()
        for j, (lo, hi) in enumerate(zip(pmins.reshape(-1), pmaxs.reshape(-1))):
            assert lo in values[j] and hi in values[j]  # attained, not guessed


class TestLayeredEngine:
    """The breadth-first engine against the reference enumeration and the
    memoized DFS, which it must match node for node."""

    @settings(max_examples=150, deadline=None)
    @given(small_families(), st.data())
    def test_layered_matches_reference(self, fam, data):
        tables, values = reference(fam)
        cons = oracle._build_constraints(fam)
        k = data.draw(st.integers(0, len(cons[1]) - 1), label="flat cell")
        budget, dfs = EnumerationBudget(), EnumerationBudget()
        mins, maxs, lo_tab, hi_tab = oracle._layered_extremes(*cons, budget, k)
        oracle._dfs_extremes(*cons, dfs, k)
        assert budget.nodes == dfs.nodes
        assert (budget.tables, budget.outcome) == (len(tables), "complete")
        if not tables:
            assert all(lo > hi for lo, hi in zip(mins, maxs))
            assert lo_tab is None and hi_tab is None
            return
        assert mins == [min(v) for v in values]
        assert maxs == [max(v) for v in values]
        assert lo_tab == next(t for t in tables if t[k] == mins[k])
        assert hi_tab == next(t for t in tables if t[k] == maxs[k])

    def test_key_past_63_bits(self):
        # One unit in each of rows 0 and 1. In row 1 the open residuals (row
        # 1, the four columns, the total) take three words, and states that
        # differ only in columns 2 and 3 agree on the first word.
        wide, narrow = 2**30, 2**20
        cols = [wide, wide, narrow, narrow]
        rows = [1, 1, sum(cols) - 2]
        fam = MarginalFamily(
            (3, 4),
            [
                MarginalTable(VarSet.from_vars([1], 2), ContingencyTable.from_flat((3,), rows)),
                MarginalTable(VarSet.from_vars([2], 2), ContingencyTable.from_flat((4,), cols)),
            ],
        )
        targets, cell_groups, closing_groups = cons = oracle._build_constraints(fam)
        words = max(
            oracle._key_layout(targets, [g for g in opened if targets[g]], ())[0].shape[1]
            for _, opened in oracle._layer_plan(cell_groups, closing_groups)
        )
        assert words == 3
        budget = EnumerationBudget()
        mins, maxs, lo_tab, hi_tab = oracle._layered_extremes(*cons, budget, 10)
        assert mins == [0] * 8 + [c - 2 for c in cols]
        assert maxs == [1] * 8 + cols
        assert budget.tables == 16 and budget.outcome == "complete"
        assert lo_tab == (0, 0, 1, 0, 0, 0, 1, 0, wide, wide, narrow - 2, narrow)
        assert hi_tab == (0, 0, 0, 1, 0, 0, 0, 1, wide, wide, narrow, narrow - 2)
        dfs = EnumerationBudget()
        assert oracle._dfs_extremes(*cons, dfs, 10)[:4] == (mins, maxs, lo_tab, hi_tab)
        assert dfs.nodes == budget.nodes

    @pytest.mark.parametrize("rows", [[4] * 30, [12] * 20], ids=["30x2", "20x2"])
    def test_counts_past_int64_without_the_dfs(self, monkeypatch, rows):
        # Both count past 2^63, and the layered engine answers them with
        # their attaining tables: no DFS runs past the probe.
        fam = two_way_family(rows, [sum(rows) // 2] * 2)
        cons = oracle._build_constraints(fam)
        dfs = EnumerationBudget()
        want = oracle._dfs_extremes(*cons, dfs, 5)[:4]
        assert dfs.tables > 2**63
        limits, reference = [], oracle._dfs_extremes

        def counted(*args):
            limits.append(args[5:])  # the probe passes its node limit
            return reference(*args)

        monkeypatch.setattr(oracle, "_dfs_extremes", counted)
        budget = EnumerationBudget()
        assert oracle._extremes(fam, budget, 5) == want
        assert limits == [(oracle.DFS_ALLOWANCE,)]
        assert (budget.nodes, budget.tables, budget.outcome) == (dfs.nodes, dfs.tables, "complete")

    @pytest.mark.parametrize(
        "limits",
        [{}, {"max_nodes": 1500}, {"max_nodes": 2132}],
        ids=["complete", "nodes-1500", "nodes-2132"],
    )
    def test_above_allowance_equals_dfs(self, monkeypatch, limits):
        fam = two_way_family([8, 8, 8], [8, 8, 8])  # 2,133 nodes, 1,035 tables
        calls, layered = [], oracle._layered_extremes

        def counted(*args):
            calls.append(args)
            return layered(*args)

        monkeypatch.setattr(oracle, "_layered_extremes", counted)
        budget, dfs = EnumerationBudget(**limits), EnumerationBudget(**limits)
        got = oracle._extremes(fam, budget, 4)
        want = oracle._dfs_extremes(*oracle._build_constraints(fam), dfs, 4)[:4]
        assert len(calls) == 1  # the search passed the allowance
        assert got == want
        assert (budget.nodes, budget.tables) == (dfs.nodes, dfs.tables)
        assert budget.outcome == dfs.outcome
        assert budget.outcome == ("complete" if not limits else "exhausted")
