"""Enumeration correctness, sharpness, budgets, and certification."""

import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def parity_family():
    """Pairwise-consistent one-way margins with pair tables forcing x = y,
    y = z, x != z: no integer table exists."""
    eq = ContingencyTable.from_flat((2, 2), [1, 0, 0, 1])
    ne = ContingencyTable.from_flat((2, 2), [0, 1, 1, 0])
    return MarginalFamily(
        (2, 2, 2),
        [
            MarginalTable(VarSet.from_vars([1, 2], 3), eq),
            MarginalTable(VarSet.from_vars([2, 3], 3), eq),
            MarginalTable(VarSet.from_vars([1, 3], 3), ne),
        ],
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
        fam = parity_family()
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

    @pytest.mark.parametrize("value", ["5", None, 2.5, 5.0])
    def test_max_nodes_must_be_an_integer(self, value):
        with pytest.raises(RangeError, match="max_nodes must be an integer"):
            EnumerationBudget(max_nodes=value)

    @pytest.mark.parametrize("value", [True, np.int64(5), np.uint16(5)])
    def test_max_nodes_read_as_an_index(self, value):
        budget = EnumerationBudget(max_nodes=value)
        assert budget.max_nodes == int(value) and type(budget.max_nodes) is int

    @pytest.mark.parametrize("field", ["nodes", "tables"])
    def test_running_counts_read_as_nonnegative_integers(self, field):
        # A fractional count would be summed into the search's report, and a
        # negative one would let a search run past ``max_nodes``.
        for value in (1.5, "5", None):
            with pytest.raises(RangeError, match=f"{field} must be an integer"):
                EnumerationBudget(**{field: value})
        with pytest.raises(RangeError, match=f"{field} must be at least 0, got -100"):
            EnumerationBudget(max_nodes=10, **{field: -100})
        budget = EnumerationBudget(**{field: np.uint16(7)})
        assert getattr(budget, field) == 7 and type(getattr(budget, field)) is int
        fam = two_way_family([25, 5, 4], [8, 7, 19])
        sharp_bounds_all(fam, budget)
        assert (budget.nodes, budget.tables) == (978 + 7 * (field == "nodes"),
                                                 309 + 7 * (field == "tables"))

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
        # Past sys.maxsize tables, enumeration still yields them in order.
        first = next(enumerate_tables(two_way_family([4] * 30, [60, 60])))
        assert first.flat.tolist() == [0, 4] * 15 + [4, 0] * 15

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


def slot_weights(targets, slots):
    """Per group, the weight of its slot in the state code, from the layout
    alone: a slot's radix is the largest target + 1 of its groups, weights
    are mixed-radix over the slots in order, and a new 63-bit word starts
    before a word's radix product would pass 2**63. Slotless groups weigh 0."""
    weight, size, shift = [0] * len(targets), 1, 0
    for groups in slot_groups(slots):
        radix = 1 + max(targets[g] for g in groups)
        if size * radix > 2**63:
            size, shift = 1, shift + 63
        for g in groups:
            weight[g] = size << shift
        size *= radix
    return weight


def slot_groups(slots):
    """The groups of each slot, without their first cells."""
    return [[g for g, _ in slot] for slot in slots]


def word_count(cons):
    """The int64 words a state code of these constraints takes."""
    return oracle._state_code(cons[0], cons[1], cons[3])[2]


def assert_codes_match(cons, tables):
    """Along every prefix of ``tables``, the code the engines compute, from 0
    by ``code + add[k + 1] - v * step[k]``, is the slot-weighted sum of the
    residuals of the groups open before the prefix's next cell, and two
    states of one layer share a code exactly when they share residuals."""
    targets, cell_groups, _, slots = cons
    n = len(cell_groups)
    step, add, _ = oracle._state_code(targets, cell_groups, slots)
    weights = slot_weights(targets, slots)
    first, last = {}, {}
    for k, gs in enumerate(cell_groups):
        for g in gs:
            first.setdefault(g, k)
            last[g] = k
    by_code, by_residual = [{} for _ in range(n + 1)], [{} for _ in range(n + 1)]
    for table in tables:
        residual, code = list(targets), 0
        for k in range(n + 1):
            opened = [g for g in range(len(targets)) if first[g] < k <= last[g]]
            assert code == sum(residual[g] * weights[g] for g in opened)
            assert by_code[k].setdefault(code, tuple(residual)) == tuple(residual)
            assert by_residual[k].setdefault(tuple(residual), code) == code
            if k < n:
                code += add[k + 1] - table[k] * step[k]
                for g in cell_groups[k]:
                    residual[g] -= table[k]


@st.composite
def families_releasing_empty(draw):
    """``small_families`` with the grand total released too."""
    fam = draw(small_families())
    subsets = (VarSet.empty(fam.num_vars),) + fam.subsets()
    return MarginalFamily(fam.cardinalities, [fam.marginal(a) for a in subsets])


class TestStateCode:
    """One code of residual states serves both engines."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(small_families(), families_releasing_empty()))
    def test_codes_follow_residuals(self, fam):
        cons = oracle._build_constraints(fam)
        if fam.subsets()[0].mask == 0:  # the released total keeps a slot
            assert len(cons[1]) == 1 or slot_groups(cons[3])[0][0] == 0
        assert_codes_match(cons, reference(fam)[0])

    def test_slot_frees_after_its_group_closes(self):
        # Group 0 ({1,2} at cell 0) closes at cell 1, where group 5 opens:
        # both belong to cell 1, so group 5 takes a new slot, and group 1
        # takes slot 0 at cell 2. The groups closed by the last cell, 7, 11
        # and the total 12, take none.
        table = ContingencyTable.from_flat((2, 2, 2), [1, 0, 2, 1, 0, 1, 1, 2])
        pairs = [VarSet.from_vars(list(p), 3) for p in itertools.combinations(range(1, 4), 2)]
        fam = MarginalFamily.from_table(table, pairs)
        cons = oracle._build_constraints(fam)
        assert slot_groups(cons[3]) == [[0, 1, 2, 3], [4, 6], [8], [5], [9], [10]]
        assert_codes_match(cons, reference(fam)[0])
        TestLayeredEngine.assert_engines_agree(fam)

    def test_word_ends_before_passing_2_63(self):
        # Slots of radix 2**23 (the rows), then 2**20 + 1 twice (columns 0
        # and 1): their product passes 2**63 by about 2**44, so column 1
        # starts a second word, though all three fit 2**64.
        c0 = c1 = 2**20
        rows = [1, 1, 2**23 - 1]
        fam = two_way_family(rows, [c0, c1, sum(rows) - c0 - c1])
        cons = oracle._build_constraints(fam)
        assert slot_groups(cons[3]) == [[0, 1, 2], [3], [4]]
        assert 2**63 < 2**23 * (c0 + 1) * (c1 + 1) < 2**64
        assert word_count(cons) == 2
        assert_codes_match(cons, flats(enumerate_tables(fam)))
        assert TestLayeredEngine.assert_engines_agree(fam).tables == 9


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
        mins, maxs = oracle._layered_extremes(*cons, budget)
        lo_tab, hi_tab = oracle._dfs_extremes(*cons, dfs, k)[2:4]
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
        # One unit in each of rows 0 and 1. The rows share a slot, the total
        # and column 3 are implied, and the slots of rows and columns 0-2
        # need about 2**111: two words, so states that differ only in
        # columns 1 and 2 agree on the first word.
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
        targets, _, _, slots = cons = oracle._build_constraints(fam)
        assert slot_groups(slots) == [[0, 1, 2], [3], [4], [5]]
        assert word_count(cons) == 2
        weights = slot_weights(targets, slots)
        for word in range(2):  # no word's greatest code passes int64
            top = [max(targets[g] for g in gs) * weights[gs[0]] for gs in slot_groups(slots)]
            assert sum(c >> 63 * word & (2**63 - 1) for c in top) < 2**63
        assert_codes_match(cons, flats(enumerate_tables(fam)))
        assert self.assert_engines_agree(fam).tables == 16
        budget = EnumerationBudget()
        mins, maxs = oracle._layered_extremes(*cons, budget)
        assert mins == [0] * 8 + [c - 2 for c in cols]
        assert maxs == [1] * 8 + cols
        assert budget.tables == 16 and budget.outcome == "complete"
        lo_tab = (0, 0, 1, 0, 0, 0, 1, 0, wide, wide, narrow - 2, narrow)
        hi_tab = (0, 0, 0, 1, 0, 0, 0, 1, wide, wide, narrow, narrow - 2)
        dfs = EnumerationBudget()
        assert oracle._dfs_extremes(*cons, dfs, 10)[:4] == (mins, maxs, lo_tab, hi_tab)
        assert dfs.nodes == budget.nodes

    @staticmethod
    def assert_engines_agree(fam):
        """Both engines: equal extremes, nodes, tables and outcome; and the
        DFS, tracking each cell in turn, the same extremes, attained by the
        first enumerated tables that hold them."""
        cons = oracle._build_constraints(fam)
        budget, dfs = EnumerationBudget(), EnumerationBudget()
        mins, maxs = oracle._layered_extremes(*cons, budget)
        assert oracle._dfs_extremes(*cons, dfs, None)[:4] == (mins, maxs, None, None)
        assert (budget.nodes, budget.tables, budget.outcome) == (
            dfs.nodes, dfs.tables, dfs.outcome
        )
        tables = flats(enumerate_tables(fam))
        for k in range(len(cons[1])):
            tracked = EnumerationBudget()
            attaining = [next((t for t in tables if t[k] == v), None) for v in (mins[k], maxs[k])]
            assert oracle._dfs_extremes(*cons, tracked, k)[:4] == (mins, maxs, *attaining)
            assert (tracked.nodes, tracked.tables) == (dfs.nodes, dfs.tables)
        return budget

    def test_every_cell_but_one_forced(self):
        # With 1-way margins on 2x2, cell 0 is free and closes nothing; each
        # later cell closes its row or column.
        fam = two_way_family([5, 3], [4, 4])
        cons = oracle._build_constraints(fam)
        assert [bool(c) for c in cons[2]] == [False, True, True, True]
        assert self.assert_engines_agree(fam).tables == 4

    def test_zero_target_group(self):
        # Row 1 and column 2 sum to 0, so their residuals stay 0. Row 1
        # shares its slot with rows 0 and 2; in the second family column 0
        # has a slot of its own, of radix 1.
        fam = two_way_family([3, 0, 4], [2, 5, 0])
        cons = oracle._build_constraints(fam)
        assert cons[0].count(0) == 2
        assert_codes_match(cons, reference(fam)[0])
        assert self.assert_engines_agree(fam).tables == 3
        fam = two_way_family([3, 4], [0, 7])
        cons = oracle._build_constraints(fam)
        assert slot_groups(cons[3]) == [[0, 1], [2]] and cons[0][2] == 0
        assert_codes_match(cons, reference(fam)[0])
        assert self.assert_engines_agree(fam).tables == 1

    def test_one_cell_family(self):
        fam = MarginalFamily(
            (1,), [MarginalTable(VarSet.from_vars([1], 1), ContingencyTable.from_flat((1,), [7]))]
        )
        assert self.assert_engines_agree(fam).tables == 1
        assert oracle._build_constraints(fam)[3] == ()  # opened and closed at once
        assert oracle._extremes(fam, EnumerationBudget(), 0) == ([7], [7], (7,), (7,))

    def test_residual_vector_wider_than_a_word(self):
        # A mixed-radix code over all five residuals (two rows, two columns,
        # the total) reaches about 1.3e19, past int64; the state code has
        # two digits, the rows in turn and column 0, and fits one word.
        fam = two_way_family([5800, 5800], [5800, 5800])
        targets, _, _, slots = cons = oracle._build_constraints(fam)
        assert 2**63 < math.prod(t + 1 for t in targets) < 2**64
        assert slot_groups(slots) == [[0, 1], [2]]
        assert word_count(cons) == 1
        assert self.assert_engines_agree(fam).tables == 5801

    def test_one_marginal_family(self):
        # Only the total is implied; row 1 opens after row 0 closes and
        # takes its slot.
        fam = MarginalFamily(
            (2, 3), [MarginalTable(VarSet.from_vars([1], 2), ContingencyTable.from_flat((2,), [3, 2]))]
        )
        cons = oracle._build_constraints(fam)
        assert cons[3] == (((0, 0), (1, 3)),)  # (group, first cell)
        assert_codes_match(cons, reference(fam)[0])
        assert self.assert_engines_agree(fam).tables == 60

    def test_released_empty_set_keeps_a_slot(self):
        # The released total sorts first and keeps its slot; the rows and
        # the columns each drop the group the last cell closes.
        table = ContingencyTable.from_flat((2, 3), [1, 2, 0, 3, 1, 1])
        fam = MarginalFamily.from_table(
            table, [VarSet.empty(2), VarSet.from_vars([1], 2), VarSet.from_vars([2], 2)]
        )
        cons = oracle._build_constraints(fam)
        assert slot_groups(cons[3]) == [[0], [1], [3], [4]]
        assert_codes_match(cons, reference(fam)[0])
        assert self.assert_engines_agree(fam).tables == 7

    def test_no_state_left(self):
        # Every state dies at a forced cell; the layers after it are empty
        # and add no node, as the DFS stops there.
        assert self.assert_engines_agree(parity_family()).tables == 0

    @pytest.mark.parametrize("rows", [[4] * 30, [12] * 20], ids=["30x2", "20x2"])
    def test_counts_past_int64_without_the_dfs(self, monkeypatch, rows):
        # Both count past 2^63, and the layered engine answers them: their
        # node bounds pass DFS_NODES_PER_CELL per cell, so no DFS runs at
        # all. The DFS, tracking cell 5, attains the same extremes.
        fam = two_way_family(rows, [sum(rows) // 2] * 2)
        cons = oracle._build_constraints(fam)
        dfs = EnumerationBudget()
        mins, maxs, lo_tab, hi_tab = oracle._dfs_extremes(*cons, dfs, 5)[:4]
        assert dfs.tables > 2**63
        assert (lo_tab[5], hi_tab[5]) == (mins[5], maxs[5])
        assert reproduces_margins(fam, lo_tab) and reproduces_margins(fam, hi_tab)
        limits, reference = [], oracle._dfs_extremes

        def counted(*args):
            limits.append(args[6:])
            return reference(*args)

        monkeypatch.setattr(oracle, "_dfs_extremes", counted)
        budget = EnumerationBudget()
        assert oracle._extremes(fam, budget) == (mins, maxs, None, None)
        assert limits == []
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
        got = oracle._extremes(fam, budget)
        want = oracle._dfs_extremes(*oracle._build_constraints(fam), dfs, None)[:4]
        assert len(calls) == 1  # its node bound passes the cut
        assert got == want
        assert (budget.nodes, budget.tables) == (dfs.nodes, dfs.tables)
        assert budget.outcome == dfs.outcome
        assert budget.outcome == ("complete" if not limits else "exhausted")


MERGE_SHAPES = [
    ((3, 3), [[1], [2]]),
    ((3, 4), [[1], [2]]),
    ((2, 2, 2), [[1], [2], [3]]),
    ((3, 2, 3), [[1, 2], [2, 3]]),
    ((3, 3, 3), [[1, 2], [1, 3], [2, 3]]),
]


def merged_cells(cons):
    """The cells whose layer merges states by base: free, and the first
    cell of no group in ``slots``."""
    opening = {k for slot in cons[3] for _, k in slot}
    return [k for k, closing in enumerate(cons[2]) if not closing and k not in opening]


def layer_nodes(cons):
    """Nodes per cell, by a plain breadth-first search over the distinct
    residual vectors before each cell: each adds one node per value of its
    ``_cell_range``."""
    targets, cell_groups, closing_groups, _ = cons
    states, nodes = {tuple(targets)}, []
    for grp, closing in zip(cell_groups, closing_groups):
        children, count = set(), 0
        for residual in states:
            lo, hi = oracle._cell_range(residual, grp, closing)
            for v in range(lo, hi + 1):
                count += 1
                child = list(residual)
                for g in grp:
                    child[g] -= v
                children.add(tuple(child))
        states = children
        nodes.append(count)
    return nodes


@st.composite
def merge_families(draw):
    """Families of shapes with free cells that open no group of ``slots``,
    with cell counts up to 1-3."""
    cards, margins = draw(st.sampled_from(MERGE_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    top = draw(st.integers(1, 3), label="max count")
    counts = rng.integers(0, top + 1, size=math.prod(cards))
    subsets = [VarSet.from_vars(v, len(cards)) for v in margins]
    return MarginalFamily.from_table(ContingencyTable.from_flat(cards, counts), subsets)


class TestMergedLayers:
    """A free cell that opens no group of ``slots`` merges the states before
    it by base, and builds its children without an edge; a cell that opens
    one merges nothing. Either way the layered engine is the DFS's, node for
    node."""

    def test_every_shape_has_merged_cells(self):
        # A 2x3x3 chain has none: every cell there opens or closes a line.
        expected = {(3, 3): [4], (3, 4): [5, 6], (2, 2, 2): [1, 2], (3, 2, 3): [7, 10],
                    (3, 3, 3): [13]}
        for cards, margins in MERGE_SHAPES + [((2, 3, 3), [[1, 2], [2, 3]])]:
            table = ContingencyTable.from_flat(cards, [1] * math.prod(cards))
            cons = oracle._build_constraints(family_of(table, margins))
            assert merged_cells(cons) == expected.get(cards, []), cards

    @settings(max_examples=120, deadline=None)
    @given(merge_families())
    def test_layered_equals_dfs(self, fam):
        cons = oracle._build_constraints(fam)
        budget, dfs = EnumerationBudget(), EnumerationBudget()
        got = oracle._layered_extremes(*cons, budget)
        assert got == oracle._dfs_extremes(*cons, dfs, None)[:2]
        assert (budget.nodes, budget.tables, budget.outcome) == (
            dfs.nodes, dfs.tables, dfs.outcome
        )
        assert budget.nodes == sum(layer_nodes(cons))

    @pytest.mark.parametrize("spent", [0, 7], ids=["fresh", "shared"])
    def test_budget_runs_out_inside_a_merged_layer(self, spent):
        # Cell 4, (1, 1), is the only merged cell of a 3x3 one-way family.
        # The layered engine must return None, budget untouched, exactly
        # where the DFS exhausts: under any limit short of the whole search.
        # A limit from ``before`` (the nodes of cells 0-3) to ``through - 1``
        # runs out in the merged layer. ``_extremes`` then gives the DFS's
        # partial result.
        fam = two_way_family([5, 6, 4], [4, 5, 6])
        cons = oracle._build_constraints(fam)
        assert merged_cells(cons) == [4]
        per_cell = layer_nodes(cons)
        before, whole = sum(per_cell[:4]), sum(per_cell)
        through = before + per_cell[4]
        assert per_cell[4] > 1 and through < whole
        limits = (before - 1, before, before + 1, through - 1, through, whole - 1, whole)
        for limit in limits:
            budget = EnumerationBudget(max_nodes=spent + limit, nodes=spent)
            dfs = EnumerationBudget(max_nodes=spent + limit, nodes=spent)
            got = oracle._layered_extremes(*cons, budget)
            want = oracle._dfs_extremes(*cons, dfs, None)[:4]
            assert (got is None) == (dfs.outcome == "exhausted") == (limit < whole), limit
            if got is None:
                assert budget == EnumerationBudget(max_nodes=spent + limit, nodes=spent)
            else:
                assert got == want[:2]
                assert (budget.nodes, budget.tables) == (dfs.nodes, dfs.tables)
            routed = EnumerationBudget(max_nodes=spent + limit, nodes=spent)
            assert oracle._extremes(fam, routed) == want
            assert (routed.nodes, routed.tables, routed.outcome) == (
                dfs.nodes, dfs.tables, dfs.outcome
            )

    def test_count_past_int64_through_merged_prefix_sums(self):
        # 24x3 with 1-way margins: cells (1..22, 1) are merged. The whole
        # count passes 2^63, and the layer after cell (7, 1) holds int64
        # counts that sum to about 1.7 x 2^64, so its prefix sums wrap. A
        # row-by-row count of the (column 0, column 1) residuals gives the
        # number of tables independently.
        rows, cols = [4] * 24, [32, 32, 32]
        fam = two_way_family(rows, cols)
        cons = oracle._build_constraints(fam)
        assert merged_cells(cons) == list(range(4, 68, 3))
        ways = {(cols[0], cols[1]): 1}
        for r in rows:
            after = {}
            for (a, b), w in ways.items():
                for x in range(min(a, r) + 1):
                    for y in range(min(b, r - x) + 1):
                        after[a - x, b - y] = after.get((a - x, b - y), 0) + w
            ways = after
        expected = ways.get((0, 0), 0)
        assert expected > 2**63
        budget, dfs = EnumerationBudget(), EnumerationBudget()
        got = oracle._layered_extremes(*cons, budget)
        assert got == oracle._dfs_extremes(*cons, dfs, None)[:2]
        assert budget.tables == dfs.tables == expected
        assert budget.nodes == dfs.nodes

    def test_dedup_only_where_no_group_opens(self, monkeypatch):
        # ``_dedup`` runs at each cell that opens no group of ``slots``,
        # over bases or edges, and never at one that opens a group, whose
        # edges are its children.
        cells, dedup = [], oracle._dedup

        def recorded(keys):
            cells.append(sys._getframe(1).f_locals["k"])
            return dedup(keys)

        monkeypatch.setattr(oracle, "_dedup", recorded)
        pairs = [list(p) for p in itertools.combinations(range(1, 5), 2)]
        for cards, margins in MERGE_SHAPES + [((2, 2, 2, 2), pairs)]:
            counts = [1 + k % 2 for k in range(math.prod(cards))]
            table = ContingencyTable.from_flat(cards, counts)
            cons = oracle._build_constraints(family_of(table, margins))
            opening = {k for slot in cons[3] for _, k in slot}
            cells.clear()
            assert oracle._layered_extremes(*cons, EnumerationBudget()) is not None
            assert cells == [k for k in range(len(cons[1])) if k not in opening], cards


HAND_OFF_SHAPES = [
    ((3, 3), [[1], [2]]),
    ((2, 4), [[1], [2]]),
    ((2, 2, 2), [[1], [2], [3]]),
    ((2, 3, 2), [[1, 2], [2, 3]]),
]


@st.composite
def hand_off_families(draw):
    """Families of a few small shapes with cell counts up to 1-5, whose
    searches take from a few nodes to several times the DFS's allowance of
    DFS_NODES_PER_CELL nodes per cell."""
    cards, margins = draw(st.sampled_from(HAND_OFF_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    counts = rng.integers(0, draw(st.integers(1, 5), label="max count") + 1, size=math.prod(cards))
    subsets = [VarSet.from_vars(v, len(cards)) for v in margins]
    return MarginalFamily.from_table(ContingencyTable.from_flat(cards, counts), subsets)


class TestHandOff:
    """``_extremes`` hands an untracked search over from the DFS to the
    layered engine past DFS_NODES_PER_CELL nodes per cell; either way its
    result is the DFS's, node for node, under every budget, and so is a
    tracked search's."""

    @settings(max_examples=200, deadline=None)
    @given(hand_off_families(), st.data())
    def test_extremes_equal_dfs(self, fam, data):
        cons = oracle._build_constraints(fam)
        allowance = oracle.DFS_NODES_PER_CELL * len(cons[1])
        full = EnumerationBudget()
        oracle._dfs_extremes(*cons, full, None)
        max_nodes = data.draw(
            st.one_of(
                st.sampled_from([allowance - 1, allowance, allowance + 1, 10_000_000]),
                st.integers(1, 2 * full.nodes + 1),
            ),
            label="max_nodes",
        )
        k = data.draw(st.integers(0, len(cons[1]) - 1), label="flat cell")
        for track in (None, k):
            budget, dfs = EnumerationBudget(max_nodes), EnumerationBudget(max_nodes)
            got = oracle._extremes(fam, budget, track)
            assert got == oracle._dfs_extremes(*cons, dfs, track)[:4]
            assert (budget.nodes, budget.tables, budget.outcome) == (
                dfs.nodes, dfs.tables, dfs.outcome
            )

    def test_families_fall_on_both_sides(self):
        # The strategy's shapes and counts reach past the allowance and stay
        # under it, so the property above exercises both engines.
        sides = set()
        rng = np.random.default_rng(0)
        for cards, margins in HAND_OFF_SHAPES:
            subsets = [VarSet.from_vars(v, len(cards)) for v in margins]
            for top in (1, 5):
                counts = rng.integers(0, top + 1, size=math.prod(cards))
                fam = MarginalFamily.from_table(ContingencyTable.from_flat(cards, counts), subsets)
                budget = EnumerationBudget()
                oracle._dfs_extremes(*oracle._build_constraints(fam), budget, None)
                sides.add(budget.nodes > oracle.DFS_NODES_PER_CELL * math.prod(cards))
        assert sides == {False, True}


class TestEngineChoice:
    """``_extremes`` picks its engine before either runs, from
    ``_node_bound``, which is never below the DFS's node count."""

    @settings(max_examples=200, deadline=None)
    @given(hand_off_families())
    def test_bound_never_below_nodes(self, fam):
        cons = oracle._build_constraints(fam)
        budget = EnumerationBudget()
        oracle._dfs_extremes(*cons, budget, None)
        assert oracle._node_bound(*cons) >= budget.nodes
        cut = oracle.DFS_NODES_PER_CELL * len(cons[1])
        assert (oracle._node_bound(*cons, cut) > cut) == (oracle._node_bound(*cons) > cut)

    def test_families_fall_on_both_sides_of_the_cut(self):
        # So ``TestHandOff``'s property runs both engines.
        sides = set()
        rng = np.random.default_rng(0)
        for cards, margins in HAND_OFF_SHAPES:
            subsets = [VarSet.from_vars(v, len(cards)) for v in margins]
            for top in (1, 5):
                counts = rng.integers(0, top + 1, size=math.prod(cards))
                fam = MarginalFamily.from_table(ContingencyTable.from_flat(cards, counts), subsets)
                cons = oracle._build_constraints(fam)
                sides.add(oracle._node_bound(*cons) > oracle.DFS_NODES_PER_CELL * len(cons[1]))
        assert sides == {False, True}

    def test_forced_cells_and_slots_bound_the_states(self):
        # 2x2 with 1-way margins: cell 0 takes 0-3 (row 0's target is the
        # least); cells 1-3 are forced, one edge per state. The states
        # before cells 1 and 2 are at most cell 0's 4 edges, and those
        # before cell 3 at most the 3 residuals of row 1, the one group with
        # a slot open there.
        fam = two_way_family([3, 2], [4, 1])
        cons = oracle._build_constraints(fam)
        assert oracle._node_bound(*cons) == 4 + 4 + 4 + 3
        budget = EnumerationBudget()
        oracle._dfs_extremes(*cons, budget, None)
        assert budget.nodes <= 15

    @pytest.fixture
    def engines(self, monkeypatch):
        """Both engines, counted: each call's engine name and arguments."""
        calls = []
        for name in ("_dfs_extremes", "_layered_extremes"):
            def counted(*args, _name=name, _engine=getattr(oracle, name)):
                calls.append((_name, args))
                return _engine(*args)
            monkeypatch.setattr(oracle, name, counted)
        return calls

    def test_small_family_runs_the_dfs_alone(self, engines):
        fam = two_way_family([1, 1], [1, 1])
        cons = oracle._build_constraints(fam)
        assert oracle._node_bound(*cons) <= oracle.DFS_NODES_PER_CELL * len(cons[1])
        budget = EnumerationBudget(max_nodes=3)
        oracle._extremes(fam, budget)
        assert engines == [("_dfs_extremes", (*cons, budget, None))]

    @pytest.mark.parametrize("max_nodes", [10_000_000, 1500])
    def test_large_family_runs_the_layered_engine_first(self, engines, max_nodes):
        fam = two_way_family([8, 8, 8], [8, 8, 8])  # 2,133 nodes
        cons = oracle._build_constraints(fam)
        assert oracle._node_bound(*cons) > oracle.DFS_NODES_PER_CELL * len(cons[1])
        budget = EnumerationBudget(max_nodes)
        oracle._extremes(fam, budget)
        want = [("_layered_extremes", (*cons, budget))]
        if budget.outcome == "exhausted":  # the layered engine returned None
            want.append(("_dfs_extremes", (*cons, budget, None)))
        assert engines == want
        assert budget.outcome == ("complete" if max_nodes > 2133 else "exhausted")

    @pytest.mark.parametrize("max_nodes", [10_000_000, 1500])
    def test_tracked_search_runs_the_dfs_alone(self, engines, max_nodes):
        # The attaining tables are read from the DFS memo, so a tracked
        # search never runs the layered engine, past the cut too.
        fam = two_way_family([8, 8, 8], [8, 8, 8])
        cons = oracle._build_constraints(fam)
        budget = EnumerationBudget(max_nodes)
        oracle._extremes(fam, budget, 4)
        assert engines == [("_dfs_extremes", (*cons, budget, 4))]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cards, base, ones", [((2, 2, 2, 2), 3, 8), ((3, 3, 3), 1, 13)],
                             ids=["2x2x2x2", "3x3x3"])
    def test_near_uniform_pair_families_run_the_layered_engine(
        self, engines, cards, base, ones, seed
    ):
        # Every pair released from a table of ``base`` counts with ``ones``
        # cells one higher, placed by the seed: the layered engine's widest
        # layers, thousands of states over 25 or 28 groups. It gives the
        # DFS's extremes, nodes and tables.
        rng = np.random.default_rng(seed)
        counts = np.full(math.prod(cards), base)
        counts[rng.choice(counts.size, size=ones, replace=False)] += 1
        pairs = [list(p) for p in itertools.combinations(range(1, len(cards) + 1), 2)]
        fam = family_of(ContingencyTable.from_flat(cards, counts), pairs)
        cons = oracle._build_constraints(fam)
        budget, dfs = EnumerationBudget(), EnumerationBudget()
        got = oracle._extremes(fam, budget)
        assert engines == [("_layered_extremes", (*cons, budget))]
        assert oracle._dfs_extremes(*cons, dfs, None)[:4] == got
        assert (budget.nodes, budget.tables, budget.outcome) == (
            dfs.nodes, dfs.tables, "complete"
        )

    def test_passing_certify_runs_the_layered_engine_once(self, engines):
        fam = two_way_family([8, 8, 8], [8, 8, 8])
        budget = EnumerationBudget()
        cert = certify(simple_frechet(fam, (1, 1)), fam, budget)
        assert cert.ok and cert.sharp.min_table is None and cert.sharp.max_table is None
        assert [name for name, _ in engines] == ["_layered_extremes"]
        assert (budget.nodes, budget.tables, budget.outcome) == (2133, 1035, "complete")

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_violation_reruns_the_dfs_for_its_table(self, engines, side):
        # The first search finds the violation untracked; a tracked rerun
        # under a fresh budget of the caller's limit reads the table, and
        # the caller's budget keeps the first search's counts.
        fam = two_way_family([8, 8, 8], [8, 8, 8])
        cons = oracle._build_constraints(fam)
        lower, upper = (1, 8) if side == "lower" else (0, 7)
        bogus = BoundReport(cell=(1, 1), lower=lower, upper=upper, formula="bogus", subsets=())
        budget = EnumerationBudget(max_nodes=2133)
        with pytest.raises(CertificationError, match=f"{side} bound") as err:
            certify(bogus, fam, budget)
        assert [name for name, _ in engines] == ["_layered_extremes", "_dfs_extremes"]
        rerun = engines[1][1]
        assert rerun[:4] == cons and rerun[5] == 4
        assert rerun[4] is not budget and rerun[4].max_nodes == 2133
        mins, maxs, lo_tab, hi_tab = oracle._dfs_extremes(*cons, EnumerationBudget(), 4)[:4]
        assert err.value.table == (lo_tab if side == "lower" else hi_tab)
        assert err.value.table[4] == (mins[4] if side == "lower" else maxs[4])
        assert (budget.nodes, budget.tables, budget.outcome) == (2133, 1035, "complete")


@st.composite
def released_families(draw):
    """Families on 2-4 variables releasing a few subsets, nested ones and
    the empty set among them, as margins of an array with entries -1..2,
    kept when every margin is a count (some admit no table) and of the
    array's positive part otherwise."""
    l = draw(st.integers(2, 4))
    cards = tuple(draw(st.lists(st.integers(2, 3 if l < 4 else 2), min_size=l, max_size=l)))
    n = math.prod(cards)
    signed = np.array(draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))).reshape(cards)
    masks = draw(st.sets(st.integers(0, 2**l - 1), min_size=1, max_size=4))
    if draw(st.booleans()):  # every pair, which some counts admit no table for
        masks.update(1 << i | 1 << j for i, j in itertools.combinations(range(l), 2))
    if draw(st.booleans()):  # a release nested in another
        masks.add(max(masks) & draw(st.integers(0, 2**l - 1)))
    subsets = [VarSet(m, l) for m in sorted(masks)]

    def margins_of(counts):
        return [counts.sum(axis=tuple(j for j in range(l) if j not in a.axes)) for a in subsets]

    sums = margins_of(signed)
    if any((m < 0).any() for m in sums):
        sums = margins_of(np.maximum(signed, 0))
    return MarginalFamily(
        cards,
        [MarginalTable(a, ContingencyTable(m.shape, m)) for a, m in zip(subsets, sums)],
    )


class TestForcedCellRule:
    """``_cell_range`` forces a closing cell with one comparison, because
    the family's validation makes the residuals of the lines it closes
    equal; every call the DFS and the table walk make is checked against
    the full rule."""

    @settings(max_examples=300, deadline=None)
    @given(released_families())
    @example(parity_family())
    def test_closing_residuals_agree(self, fam):
        calls, cell_range = [], oracle._cell_range

        def checked(residual, grp, closing):
            got = cell_range(residual, grp, closing)
            least = min(residual[g] for g in grp)
            assert least >= 0
            if closing:
                v = residual[closing[0]]
                assert all(residual[g] == v for g in closing)
                assert got == ((v, v) if least >= v else (0, -1))
            else:
                assert got == (0, least)
            calls.append(bool(closing))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_cell_range", checked)
            try:
                sharp_bounds_all(fam, EnumerationBudget(max_nodes=20_000))
            except (RangeError, BudgetExhaustedError):
                pass  # no table, or too many nodes: the calls made are checked
            budget = EnumerationBudget(max_nodes=20_000)
            tables = list(itertools.islice(enumerate_tables(fam, budget), 20))
        assert any(calls)  # the last cell closes every line
        assert all(reproduces_margins(fam, t.flat.tolist()) for t in tables)


def test_engine_cost_fit_never_reports_a_negative_cost():
    # tools/oracle_costs.py once printed a negative per-node cost: a fit
    # coefficient below zero is fixed at 0, the other column refitted alone.
    path = Path(__file__).resolve().parents[1] / "tools" / "oracle_costs.py"
    spec = importlib.util.spec_from_file_location("oracle_costs", path)
    costs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(costs)
    cells, nodes, times = [8, 8, 8, 8], [10, 20, 30, 40], [100.0, 98.0, 97.0, 95.0]
    (per_cell, per_node), clamped = costs.fit([cells, nodes], times)
    x = np.array(cells) / np.array(times)
    assert clamped and per_node == 0
    assert per_cell == pytest.approx(x.sum() / (x @ x))  # one column, least squares
    (fixed, per_node), clamped = costs.fit([[1] * 4, nodes], [11.0, 21.0, 31.0, 41.0])
    assert not clamped and (fixed, per_node) == pytest.approx((1.0, 1.0))
