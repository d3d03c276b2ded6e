"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 9 asserts the
refutation of two reference claims about the lead table: the quoted
relabeling does not satisfy the additive pairwise condition, and no
relabeling does. Both results are checked against a scan written inside the
test. See the README section "Known divergences" and tests/test_positivity.py.
"""

import functools
import itertools
import time
from fractions import Fraction
from math import comb

import numpy as np

from tablebounds import (
    ContingencyTable,
    Decomposition,
    EnumerationBudget,
    ExpFamily,
    MarginalFamily,
    MarginalTable,
    Relabeling,
    VarSet,
    anchored_margin_observable,
    cell_margin_fn,
    certify,
    compare_fan_vs_decomposition,
    cumulative_fn,
    decomposition_bound,
    expfam_density,
    expfam_log_density,
    fan_evaluate,
    fan_lower_bound,
    fkg_covariance,
    frechet_3way,
    frechet_ddim,
    indicator_fn,
    is_decreasing,
    is_increasing,
    is_log_supermodular,
    is_mtp2_additive,
    is_supermodular,
    kwerel_form,
    marginalize,
    random_supermodular_fn,
    search_mtp2_relabeling,
    sharp_bounds_all,
    simple_frechet,
)
from tablebounds.datasets import lead_table
from tablebounds.lattice import LatticeFunction


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return run

    return wrap


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def all_cells(cards):
    return itertools.product(*(range(c) for c in cards))


def random_table(rng, l, max_card=3, max_count=5):
    cards = tuple(int(c) for c in rng.integers(2, max_card + 1, size=l))
    return ContingencyTable.from_flat(
        cards, rng.integers(0, max_count + 1, size=int(np.prod(cards)))
    )


def family_of(table, subsets):
    return MarginalFamily.from_table(
        table, [VarSet.from_vars(v, table.num_vars) for v in subsets]
    )


def first_pair_relabeling(table, multiplicative):
    """Lexicographically first per-axis relabeling of a 2-way table whose
    counts satisfy the pair condition at every pair of cells, or None.

    Independent of the library's checker: plain lists, nested loops over
    row and column permutations, and an explicit meet/join per pair."""
    counts = table.counts.tolist()
    rows, cols = len(counts), len(counts[0])
    cells = [(i, k) for i in range(rows) for k in range(cols)]

    def holds(x, y, lo, hi):
        return x * y <= lo * hi if multiplicative else x + y <= lo + hi

    for row_perm in itertools.permutations(range(rows)):
        for col_perm in itertools.permutations(range(cols)):
            n = [[0] * cols for _ in range(rows)]
            for i, k in cells:
                n[row_perm[i]][col_perm[k]] = counts[i][k]
            if all(
                holds(
                    n[a][b], n[c][d], n[min(a, c)][min(b, d)], n[max(a, c)][max(b, d)]
                )
                for (a, b), (c, d) in itertools.product(cells, repeat=2)
            ):
                return (row_perm, col_perm)
    return None


@criterion("C1 lead-study reproduction")
def test_c01_lead_study_reproduction():
    table = lead_table()
    start = time.perf_counter()
    rows = marginalize(table, VarSet.from_vars([1], 2)).table.flat
    cols = marginalize(table, VarSet.from_vars([2], 2)).table.flat
    total = marginalize(table, VarSet.empty(2)).table.total
    elapsed = time.perf_counter() - start
    assert rows.tolist() == [25, 5, 4]
    assert cols.tolist() == [8, 7, 19]
    assert total == 34
    assert elapsed < 1e-3, f"marginalization took {elapsed * 1e3:.3f} ms"


@criterion("C2 simple Frechet sharpness, exhaustive N<=15")
def test_c02_simple_frechet_exhaustive_sharpness():
    v1, v2 = VarSet.from_vars([1], 2), VarSet.from_vars([2], 2)
    start = time.perf_counter()
    families = 0
    for total in range(16):
        for n_rows in (1, 2, 3):
            row_options = [
                MarginalTable(v1, ContingencyTable.from_flat((n_rows,), r))
                for r in compositions(total, n_rows)
            ]
            for n_cols in (1, 2, 3):
                col_options = [
                    MarginalTable(v2, ContingencyTable.from_flat((n_cols,), c))
                    for c in compositions(total, n_cols)
                ]
                for m1 in row_options:
                    for m2 in col_options:
                        fam = MarginalFamily((n_rows, n_cols), [m1, m2])
                        mins, maxs, budget = sharp_bounds_all(fam)
                        assert budget.outcome == "complete"
                        families += 1
                        for cell in all_cells((n_rows, n_cols)):
                            rep = simple_frechet(fam, cell)
                            assert rep.lower == mins[cell], (cell, rep)
                            assert rep.upper == maxs[cell], (cell, rep)
    elapsed = time.perf_counter() - start
    assert families == 93992
    assert elapsed < 60, f"sweep took {elapsed:.1f} s"


@criterion("C3 anchored margin fn decreasing + supermodular")
def test_c03_margin_fn_property_suite():
    rng = np.random.default_rng(20260809)
    start = time.perf_counter()
    anchors_checked = 0
    for _ in range(1000):
        table = random_table(rng, int(rng.integers(1, 6)))
        for anchor in all_cells(table.cardinalities):
            fn = cell_margin_fn(table, anchor)
            assert is_decreasing(fn).ok, (table.counts, anchor)
            assert is_supermodular(fn, "exhaustive").ok, (table.counts, anchor)
            anchors_checked += 1
    elapsed = time.perf_counter() - start
    assert anchors_checked >= 1000
    assert elapsed < 120, f"suite took {elapsed:.1f} s"


@criterion("C4 indicator and cumulative constructions")
def test_c04_indicator_and_cumulative():
    for l in range(1, 6):
        for mask in range(1 << l):
            fn = indicator_fn(VarSet(mask, l))
            assert is_increasing(fn).ok
            assert is_supermodular(fn, "exhaustive").ok
    rng = np.random.default_rng(404)
    for _ in range(1000):
        l = int(rng.integers(1, 6))
        g = LatticeFunction(l, rng.integers(0, 8, size=1 << l))
        h = cumulative_fn(g)
        assert is_increasing(h).ok
        assert is_supermodular(h, "exhaustive").ok


@criterion("C5 Fan inequality suite")
def test_c05_fan_suite():
    rng = np.random.default_rng(505)
    for trial in range(1000):
        l = int(rng.integers(1, 6))
        if trial % 3 == 0:
            cards = tuple(int(c) for c in rng.integers(2, 4, size=min(l, 4)))
            table = ContingencyTable.from_flat(
                cards, rng.integers(0, 6, size=int(np.prod(cards)))
            )
            anchor = tuple(int(rng.integers(0, c)) for c in cards)
            fn = cell_margin_fn(table, anchor)
            l = table.num_vars
        else:
            fn = random_supermodular_fn(l, rng)
        q = int(rng.integers(1, 6))
        p = int(rng.integers(1, q + 1))
        xs = [VarSet(int(rng.integers(0, 1 << l)), l) for _ in range(q)]
        for form in ("primal", "dual"):
            ev = fan_evaluate(fn, xs, p, form)
            assert ev.lhs <= ev.rhs + ev.tolerance, (form, p, q, ev)
            if p == q:
                assert ev.lhs == ev.rhs, (form, p, q, ev)


@criterion("C6 reduction identities, exact rationals")
def test_c06_reduction_identities():
    rng = np.random.default_rng(606)
    # 3-way: d=1 bounds coincide with the one-dimensional basis
    for _ in range(100):
        table = random_table(rng, 3)
        fam = family_of(table, [[1], [2], [3]])
        for cell in all_cells(table.cardinalities):
            a = frechet_ddim(fam, cell, 1)
            b = frechet_3way(fam, cell, "one-dim")
            assert (a.lower, a.upper) == (b.lower, b.upper)
    # all-d-subset Fan rearrangement reproduces the d-dimensional bound
    for l in range(1, 6):
        for _ in range(10):
            table = random_table(rng, l, max_card=2)
            for d in range(1, l + 1):
                subsets = [
                    list(c) for c in itertools.combinations(range(1, l + 1), d)
                ]
                fam = family_of(table, subsets)
                xs = [VarSet.from_vars(v, l) for v in subsets]
                for cell in all_cells(table.cardinalities):
                    fan = fan_lower_bound(fam, xs, 1, cell)
                    ddim = frechet_ddim(fam, cell, d)
                    assert fan.terms["lower_exact"] == ddim.terms["lower_exact"]
                    assert fan.lower == ddim.lower
                    # the full-set collapse happens exactly up to the
                    # binomial threshold
                    assert fan.terms["moved_k"] == tuple(
                        k for k in range(1, len(xs) + 1) if k <= comb(l - 1, d - 1)
                    )
    # normalized form times the total recovers the unclamped lower bound
    for _ in range(100):
        l = int(rng.integers(2, 5))
        table = random_table(rng, l, max_card=2)
        if table.total == 0:
            continue
        d = int(rng.integers(1, l + 1))
        fam = family_of(
            table, [list(c) for c in itertools.combinations(range(1, l + 1), d)]
        )
        for cell in all_cells(table.cardinalities):
            stats = kwerel_form(fam, cell, d)
            ddim = frechet_ddim(fam, cell, d)
            assert isinstance(stats.p_full, Fraction)
            assert stats.p_full * table.total == ddim.terms["lower_exact"]


@criterion("C7 decomposition dominates literal Fan route")
def test_c07_dominance():
    cover = Decomposition(
        tuple(VarSet.from_vars(v, 3) for v in ([1, 2], [2, 3], [1, 3]))
    )
    rng = np.random.default_rng(707)
    checked = 0
    for _ in range(1000):
        table = random_table(rng, 3)
        fam = family_of(table, [[1, 2, 3]])
        for cell in all_cells(table.cardinalities):
            cmp = compare_fan_vs_decomposition(fam, cover, cell)
            assert cmp.fan is not None
            assert cmp.dominance_holds, (table.counts, cell)
            checked += 1
    assert checked >= 1000


@criterion("C8 oracle certification of every bound method")
def test_c08_validity_certification():
    rng = np.random.default_rng(808)
    budget_template = dict(max_nodes=2_000_000)
    certified = 0
    for trial in range(1000):
        kind = trial % 4
        if kind == 0:  # 2-way, one-way margins
            table = random_table(rng, 2, max_card=3, max_count=4)
            fam = family_of(table, [[1], [2]])
            reports = lambda cell: [simple_frechet(fam, cell)]
        elif kind == 1:  # 3-way, one-dim basis
            table = random_table(rng, 3, max_card=2, max_count=3)
            fam = family_of(table, [[1], [2], [3]])
            reports = lambda cell: [
                frechet_3way(fam, cell, "one-dim"),
                frechet_ddim(fam, cell, 1),
            ]
        elif kind == 2:  # 3-way, two-dim basis + decomposition + folded fan
            table = random_table(rng, 3, max_card=2, max_count=3)
            fam = family_of(table, [[1, 2], [1, 3], [2, 3]])
            dec = Decomposition(
                (VarSet.from_vars([1, 2], 3), VarSet.from_vars([2, 3], 3))
            )
            xs = [VarSet.from_vars([1, 2], 3), VarSet.from_vars([1, 3], 3)]
            reports = lambda cell: [
                frechet_3way(fam, cell, "two-dim"),
                frechet_ddim(fam, cell, 2),
                decomposition_bound(fam, dec, cell),
                fan_lower_bound(fam, xs, 1, cell),
            ]
        else:  # 4-way binary, all pair margins
            table = random_table(rng, 4, max_card=2, max_count=2)
            fam = family_of(
                table, [list(c) for c in itertools.combinations(range(1, 5), 2)]
            )
            reports = lambda cell: [frechet_ddim(fam, cell, 2)]
        cells = list(all_cells(table.cardinalities))
        cell = cells[int(rng.integers(0, len(cells)))]
        for report in reports(cell):
            cert = certify(report, fam, EnumerationBudget(**budget_template))
            assert cert.ok, (table.counts, report)
            assert cert.sharp.outcome == "complete"
            certified += 1
    assert certified >= 1000


@criterion("C9 MTP2 reproduction on the lead table")
def test_c09_mtp2_reproduction():
    lead = lead_table()
    res = is_mtp2_additive(lead)
    assert not res.ok
    witness = res.witness
    assert {witness.a, witness.b} == {(1, 0), (0, 2)}  # (2,1) and (1,3) 1-based
    assert (witness.lhs, witness.rhs) == (14, 10)

    # The reference states that recoding hygiene as (3,2,1) and exposure as
    # (2,1,3) makes the additive condition hold, and that some relabeling
    # satisfies it. Direct computation refutes both for these counts: the
    # recoded table violates 3 + 1 <= 0 + 3, and none of the 36 relabelings
    # passes. What is asserted below is the computed behavior.
    relabeled = Relabeling(((2, 1, 0), (1, 0, 2))).apply(lead)
    assert relabeled.counts.tolist() == [[1, 0, 3], [1, 1, 3], [5, 7, 13]]
    res = is_mtp2_additive(relabeled)
    assert not res.ok
    witness = res.witness
    assert {witness.a, witness.b} == {(0, 2), (1, 1)}
    assert (witness.lhs, witness.rhs) == (4, 3)

    start = time.perf_counter()
    found = search_mtp2_relabeling(lead, "additive")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert found is None
    assert first_pair_relabeling(lead, multiplicative=False) is None

    found = search_mtp2_relabeling(lead, "multiplicative")
    assert found is not None and found.is_identity
    assert found.perms == first_pair_relabeling(lead, multiplicative=True)


@criterion("C10 exponential family and FKG suite")
def test_c10_expfam_fkg():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        l = int(rng.integers(1, 5))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
        table = ContingencyTable.from_flat(
            cards, rng.integers(0, 6, size=int(np.prod(cards)))
        )
        anchors = tuple(
            tuple(int(rng.integers(0, c)) for c in cards)
            for _ in range(int(rng.integers(1, 3)))
        )
        theta = tuple(float(t) for t in rng.random(len(anchors)) * 2)
        if rng.random() < 0.5:
            fam = ExpFamily(
                anchors=anchors,
                theta=theta,
                alpha=VarSet(int(rng.integers(0, 1 << l)), l),
                theta2=tuple(float(t) for t in rng.random(len(anchors))),
            )
        else:
            fam = ExpFamily(anchors=anchors, theta=theta)
        mu = expfam_density(fam, table)
        assert abs(float(mu.values.sum()) - 1.0) <= 1e-12
        # Verified on the exact log-density (immune to float underflow of
        # the raw masses); where the masses stay positive the direct check
        # must agree.
        assert is_supermodular(expfam_log_density(fam, table), "local").ok
        if np.all(np.asarray(mu.values) > 0):
            assert is_log_supermodular(mu).ok
        alpha = VarSet(int(rng.integers(0, 1 << l)), l)
        beta = VarSet(int(rng.integers(0, 1 << l)), l)
        h1 = anchored_margin_observable(table, anchors[0], alpha)
        h2 = anchored_margin_observable(table, anchors[-1], beta)
        assert fkg_covariance(mu, h1, h2) >= -1e-12
