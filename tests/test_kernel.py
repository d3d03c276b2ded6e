"""The whole-grid bound kernel against its per-cell views and against plain
Python-integer references computed from the released marginals alone."""

import functools
import itertools
import json
import operator
import pickle
from fractions import Fraction
from math import ceil, comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablebounds import (
    ContingencyTable,
    Decomposition,
    MarginalFamily,
    MissingMarginalError,
    VarSet,
    best_bounds,
    bounds_grid,
    compare_fan_vs_decomposition,
    decomposition_bound,
    fan_lower_bound,
    frechet_3way,
    frechet_ddim,
    simple_frechet,
)
from tablebounds import bounds as tb_bounds
from tablebounds import lattice
from tablebounds.bounds import method_report
from tablebounds.cli import _report_doc
from tablebounds.io import family_from_doc
from tablebounds.table import MarginalTable

MARGINS = ("one-way", "pairs", "chain")


def groups_for(l, margins):
    if margins == "one-way":
        return [[j] for j in range(1, l + 1)]
    if margins == "pairs":
        return [list(p) for p in itertools.combinations(range(1, l + 1), 2)]
    return [[j, j + 1] for j in range(1, l)]


@st.composite
def families(draw, max_count=6, real=False):
    l = draw(st.integers(2, 4))
    cards = tuple(draw(st.lists(st.integers(2, 3), min_size=l, max_size=l)))
    n = int(np.prod(cards))
    counts = draw(st.lists(st.integers(0, max_count), min_size=n, max_size=n))
    margins = draw(st.sampled_from(MARGINS))
    if real:
        scale = draw(st.sampled_from([0.25, 0.1, 1 / 3]))
        table = ContingencyTable.from_flat(cards, np.array(counts) * scale, kind="real")
    else:
        table = ContingencyTable.from_flat(cards, counts)
    subsets = [VarSet.from_vars(g, l) for g in groups_for(l, margins)]
    return MarginalFamily.from_table(table, subsets)


def cells(fam):
    return list(itertools.product(*(range(c) for c in fam.cardinalities)))


def n_at(fam, a, cell):
    """n(a) at the cell's projection, summed in Python from a released
    marginal that contains ``a``."""
    for mask, marg in sorted(fam.released.items()):
        if a.mask & ~mask:
            continue
        axes = marg.vars.axes
        total = 0
        for sub in itertools.product(*(range(fam.cardinalities[j]) for j in axes)):
            if all(sub[i] == cell[j] for i, j in enumerate(axes) if j in a.axes):
                total += int(marg.table.counts[sub])
        return total
    return None  # not derivable


def vs(l, *groups):
    return tuple(VarSet.from_vars(g, l) for g in groups)


def methods(l):
    """(method string, per-cell function, reference) for every family."""
    full = VarSet.full(l)
    singles = vs(l, *[[j] for j in range(1, l + 1)])
    chain = vs(l, *[[j, j + 1] for j in range(1, l)])
    out = []
    for d in range(1, l + 1):
        view = lambda f, c, d=d: frechet_ddim(f, c, d)  # noqa: E731
        out.append((f"ddim:{d}", view, ref_ddim(d)))
    for cover in (singles, chain):
        text = "|".join(str(c) for c in cover)
        out.append(
            (
                f"decomp:{text}",
                lambda f, c, cover=cover: decomposition_bound(f, Decomposition(cover), c),
                ref_decomp(cover),
            )
        )
    for xs, p in ((singles, 1), (chain, 1), (chain, len(chain))):
        text = "|".join(str(x) for x in xs)
        out.append(
            (
                f"fan:{text},{p}",
                lambda f, c, xs=xs, p=p: fan_lower_bound(f, xs, p, c),
                ref_fan(xs, p, full),
            )
        )
    out.append(("best", best_bounds, ref_best))
    if l == 2:
        out.append(("simple", simple_frechet, ref_ddim(1)))
    if l == 3:
        out.append(
            ("3way:one-dim", lambda f, c: frechet_3way(f, c, "one-dim"), ref_ddim(1))
        )
        out.append(
            ("3way:two-dim", lambda f, c: frechet_3way(f, c, "two-dim"), ref_two_dim)
        )
    return out


def ref_ddim(d):
    def ref(fam, cell):
        l, total = fam.num_vars, fam.total
        subsets = vs(l, *itertools.combinations(range(1, l + 1), d))
        vals = [n_at(fam, a, cell) for a in subsets]
        if None in vals:
            return None
        den = comb(l - 1, d - 1)
        exact = Fraction(sum(vals), den) - (Fraction(comb(l, d), den) - 1) * total
        return max(0, ceil(exact)), min(vals)

    return ref


def ref_decomp(cover):
    def ref(fam, cell):
        cover_vals = [n_at(fam, c, cell) for c in cover]
        if None in cover_vals:
            return None
        seen, seps = cover[0], []
        for c in cover[1:]:
            seps.append(n_at(fam, seen & c, cell))
            seen = seen | c
        return max(0, sum(cover_vals) - sum(seps)), min(cover_vals)

    return ref


def ref_fan(xs, p, full):
    def ref(fam, cell):
        def meet(combo):
            m = full
            for x in combo:
                m = m & x
            return m

        lhs = [n_at(fam, meet(c), cell) for c in itertools.combinations(xs, p)]
        if None in lhs:
            return None
        kept, weight = 0, 0
        for k in range(p, len(xs) + 1):
            join = VarSet.empty(full.num_vars)
            for combo in itertools.combinations(xs, k):
                join = join | meet(combo)
            if join == full:  # an occurrence of the cell itself
                weight += comb(k - 1, p - 1)
                continue
            value = n_at(fam, join, cell)
            if value is None:
                return None
            kept += comb(k - 1, p - 1) * value
        lower = max(0, ceil(Fraction(sum(lhs) - kept, weight))) if weight else 0
        cand = [n_at(fam, x, cell) for x in xs]
        cand = [v for v in cand if v is not None]
        return lower, min(cand) if cand else fam.total

    return ref


def ref_two_dim(fam, cell):
    pairs = vs(3, [1, 2], [1, 3], [2, 3])
    vals = [n_at(fam, a, cell) for a in pairs]
    if None in vals:
        return None
    terms = [
        n_at(fam, a, cell) + n_at(fam, b, cell) - n_at(fam, a & b, cell)
        for a, b in itertools.combinations(pairs, 2)
    ]
    return max([0] + terms), min(vals)


def ref_best(fam, cell):
    l, full = fam.num_vars, VarSet.full(fam.num_vars)
    released = [VarSet(m, l) for m in sorted(fam.released)]
    uppers = [n_at(fam, a, cell) for a in released] + [fam.total]
    lowers = [0]
    for d in range(1, l + 1):
        bound = ref_ddim(d)(fam, cell)
        if bound is not None:
            lowers.append(bound[0])
    for a, b in itertools.combinations(released, 2):
        if a | b == full:
            pair = n_at(fam, a, cell) + n_at(fam, b, cell) - n_at(fam, a & b, cell)
            lowers.append(max(pair, 0))
    exact = n_at(fam, full, cell)
    if exact is not None:
        lowers.append(exact)
        uppers.append(exact)
    return max(lowers), min(uppers)


@settings(max_examples=60, deadline=None)
@given(families())
def test_grid_equals_views_and_python_reference(fam):
    for method, view, ref in methods(fam.num_vars):
        expected = {cell: ref(fam, cell) for cell in cells(fam)}
        if None in expected.values():
            with pytest.raises(MissingMarginalError):
                bounds_grid(fam, method)
            with pytest.raises(MissingMarginalError):
                view(fam, cells(fam)[0])
            continue
        lower, upper = bounds_grid(fam, method)
        assert lower.shape == upper.shape == fam.cardinalities
        for cell in cells(fam):
            rep = view(fam, cell)
            assert (rep.lower, rep.upper) == (lower[cell], upper[cell]), method
            assert type(rep.lower) is int and type(rep.upper) is int, method
            assert (rep.lower, rep.upper) == expected[cell], (method, cell)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2**59, 2**60 - 1), min_size=8, max_size=8))
def test_ddim_exact_beyond_int64_intermediates(counts):
    # Total between 2**62 and 2**63, so C(3, d) * total passes 2**63: the
    # kernel must take Python integers, not wrapping int64, and stay exact.
    table = ContingencyTable.from_flat((2, 2, 2), counts)
    assert 3 * table.total > 2**63
    for margins in ("one-way", "pairs"):
        fam = MarginalFamily.from_table(
            table, [VarSet.from_vars(g, 3) for g in groups_for(3, margins)]
        )
        d = 1 if margins == "one-way" else 2
        lower, upper = bounds_grid(fam, f"ddim:{d}")
        assert lower.dtype == object
        for cell in cells(fam):
            expect = ref_ddim(d)(fam, cell)
            rep = frechet_ddim(fam, cell, d)
            assert (rep.lower, rep.upper) == (lower[cell], upper[cell]) == expect
            subsets = vs(3, *itertools.combinations((1, 2, 3), d))
            margin_sum = sum(n_at(fam, a, cell) for a in subsets)
            den = comb(2, d - 1)
            exact = Fraction(margin_sum, den) - (Fraction(3, den) - 1) * table.total
            inequality = rep.terms["inequality"]
            assert sum(t["value"] for t in inequality if t["coefficient"] > 0) == margin_sum
            assert rep.terms["lower_exact"] == exact
            assert rep.lower <= table.value(cell) <= rep.upper
            best = best_bounds(fam, cell)
            assert (best.lower, best.upper) == ref_best(fam, cell)


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize(
    "total, dtype",
    [
        (INT64_MAX // 5, np.int64),
        (INT64_MAX // 5 + 1, np.int64),  # sum |c| = 5 times it passes int64
        (int(0.2000009 * INT64_MAX), np.int64),
        (INT64_MAX // 3, np.int64),
        (INT64_MAX // 3 + 1, object),  # sum of positive c = 3 times it passes
    ],
    ids=["below-5", "above-5", "0.2000009", "below-3", "above-3"],
)
def test_lower_stays_int64_while_each_sum_fits(total, dtype):
    # ddim:1 on three variables sums n(1) + n(2) + n(3) - 2 x total: the
    # positive terms reach 3 x total and the negative 2 x total, so the
    # lower stays int64 while 3 x total fits, however far 5 x total passes.
    # Nearly all the mass sits in one cell, so its lower is about the total.
    table = ContingencyTable.from_flat((2, 2, 2), [total - 7] + [1] * 7)
    fam = MarginalFamily.from_table(table, vs(3, [1], [2], [3]))
    lower, upper = bounds_grid(fam, "ddim:1")
    assert lower.dtype == dtype
    for cell in cells(fam):
        assert (lower[cell], upper[cell]) == ref_ddim(1)(fam, cell)
    assert lower[0, 0, 0] == total - 12


def test_one_wide_row_leaves_the_other_rows_int64():
    # Between INT64_MAX / 3 and INT64_MAX / 2 the ddim rows' sums (widths 3)
    # need Python ints and the pair rows' (widths 2) do not: best's lowers
    # keep each row's own dtype.
    total = INT64_MAX // 3 + 1
    table = ContingencyTable.from_flat((2, 2, 2), [total - 7] + [1] * 7)
    fam = MarginalFamily.from_table(table, vs(3, [1, 2], [1, 3], [2, 3]))
    lowers = tb_bounds._best_plan(fam).terms["lowers"]
    dtypes = {name: lower.dtype for name, lower in lowers.items()}
    assert dtypes == {
        "zero": np.int64, "ddim:1": object, "ddim:2": object,
        "pair:{1,2}|{1,3}": np.int64, "pair:{1,2}|{2,3}": np.int64,
        "pair:{1,3}|{2,3}": np.int64,
    }
    for cell in cells(fam):
        assert (best_bounds(fam, cell).lower, best_bounds(fam, cell).upper) == ref_best(fam, cell)
        assert lowers["ddim:2"][cell] == max(ref_ddim(2)(fam, cell)[0], 0)


def test_grid_is_read_only_and_cached():
    table = ContingencyTable.from_flat((2, 3), [1, 2, 3, 4, 5, 6])
    fam = MarginalFamily.from_table(table, vs(2, [1], [2]))
    lower, upper = bounds_grid(fam, "simple")
    assert not lower.flags.writeable and not upper.flags.writeable
    assert bounds_grid(fam, "simple")[0] is lower
    assert fam.grid(VarSet.from_vars([1], 2)).shape == (2, 3)


# ------------------------------------------------ reports as views of a plan


def eager_terms(terms, cell):
    """Whole-grid terms read at one cell all at once, the way reports held
    them before they became views: an array gives its entry, a callable is
    called with the cell, dicts and lists are read item by item."""
    if isinstance(terms, np.ndarray):
        value = terms[cell]
        return value.item() if isinstance(value, np.generic) else value
    if callable(terms):
        return terms(cell)
    if isinstance(terms, dict):
        return {k: eager_terms(v, cell) for k, v in terms.items()}
    if isinstance(terms, list):
        return [eager_terms(v, cell) for v in terms]
    return terms


def spellings(l):
    """(method string, per-cell function) for every spelling that applies."""
    out = [(method, view) for method, view, _ in methods(l)]
    if l == 3:
        out.append(("3way", lambda f, c: method_report(f, "3way", c)))
    return out


def first_winner(candidates, pick):
    """The first name, in dict order, whose value is ``pick`` of them all."""
    best = pick(candidates.values())
    return next(name for name, value in candidates.items() if value == best)


def assert_inequality_is_the_bound(fam, terms, cell):
    """Sum coefficient x value over ``inequality``, over ``denominator``, is
    ``lower_exact``: exactly in an integer family, whose values are the
    marginals at the cell, and within real_slack(total) in a real one."""
    inequality, den = terms["inequality"], terms["denominator"]
    num = sum(t["coefficient"] * t["value"] for t in inequality)
    if fam.kind == "real":
        assert abs(num / den - terms["lower_exact"]) <= lattice.real_slack(fam.total)
        return
    for t in inequality:
        assert t["value"] == n_at(fam, VarSet.parse(t["subset"], fam.num_vars), cell)
    assert Fraction(num, den) == terms["lower_exact"]


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(lambda real: families(real=real)))
# ddim:1's lower at (1, 1) is 0.20000000000000007, which crosses the exact
# upper 0.2 by rounding: its candidate must read as the settled lower.
@example(
    MarginalFamily.from_table(
        ContingencyTable.from_flat((2, 2), [0.0, 0.1, 0.1, 0.2], kind="real"),
        [VarSet.full(2)],
    )
)
def test_reports_match_an_eager_term_walk(fam):
    for method, view in spellings(fam.num_vars):
        try:
            plan = tb_bounds._method_plan(fam, method)
        except MissingMarginalError:
            continue
        for cell in cells(fam):
            want = eager_terms(plan.terms, cell)
            lower, upper = eager_terms([plan.lower, plan.upper], cell)
            for rep in (method_report(fam, method, cell), view(fam, cell)):
                assert rep.cell == cell
                assert (rep.lower, rep.upper) == (lower, upper), (method, cell)
                assert (type(rep.lower), type(rep.upper)) == (type(lower), type(upper))
                assert (rep.formula, rep.subsets) == (plan.formula, plan.subsets)
                assert dict(rep.terms) == want and rep.terms == want, (method, cell)
                assert list(rep.terms) == list(want) and len(rep.terms) == len(want)
                assert all(rep.terms[k] == want[k] for k in want)
                assert repr(rep.terms) == repr(want)
            if "inequality" in want:  # the lower is its inequality, divided out
                assert_inequality_is_the_bound(fam, want, cell)
            if method == "best":
                assert want["lowers"][want["lower_from"]] == lower
                assert want["uppers"][want["upper_from"]] == upper
                assert want["lower_from"] == first_winner(want["lowers"], max)
                assert want["upper_from"] == first_winner(want["uppers"], min)


def one_row_spellings(l):
    """Every spelling of a one-row plan on a family of all pairs: each
    ``ddim:d``, the chain and the two-pair covers for ``decomp:``, and the
    chain and the pairs as Fan sequences at every p."""
    pairs = [[a, b] for a, b in itertools.combinations(range(1, l + 1), 2)]
    chain = "|".join(str(VarSet.from_vars([j, j + 1], l)) for j in range(1, l))
    out = [f"ddim:{d}" for d in range(1, l + 1)] + [f"decomp:{chain}"]
    for a, b in itertools.combinations(pairs, 2):
        if len(set(a) | set(b)) == l:
            out.append(f"decomp:{VarSet.from_vars(a, l)}|{VarSet.from_vars(b, l)}")
    for xs in (chain, "|".join(str(VarSet.from_vars(p, l)) for p in pairs)):
        out += [f"fan:{xs},{p}" for p in range(1, xs.count("|") + 2)]
    return out


def ordered_sum(terms):
    """A report's inequality summed in plain Python: the positive terms in
    list order, less the negative terms in list order, each term its
    coefficient times its value; and the denominator."""
    positive = negative = 0
    for t in terms["inequality"]:
        if t["coefficient"] > 0:
            positive += t["coefficient"] * t["value"]
        else:
            negative += -t["coefficient"] * t["value"]
    return positive - negative, terms["denominator"]


def test_lower_exact_is_the_ordered_sum_of_its_inequality():
    # The summation rule of every one-row plan, on seeded families of all
    # pairs: a real family's lower_exact is the ordered float sum over its
    # inequality, divided by its denominator, bit for bit (a matrix product
    # sums in another order and moves the last bits); an integer family's is
    # that rational exactly.
    rng = np.random.default_rng(29)
    checked = 0
    for kind in ["real"] * 120 + ["integer"] * 30:
        l = int(rng.integers(2, 5))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
        size = int(np.prod(cards))
        if kind == "real":
            table = ContingencyTable.from_flat(cards, rng.random(size) * 10, kind="real")
        else:
            table = ContingencyTable.from_flat(cards, rng.integers(0, 9, size))
        pairs = [VarSet.from_vars(p, l) for p in itertools.combinations(range(1, l + 1), 2)]
        fam = MarginalFamily.from_table(table, pairs)
        reports = []
        for method in one_row_spellings(l):
            try:
                reports += [method_report(fam, method, cell) for cell in cells(fam)]
            except MissingMarginalError:
                continue
        if l >= 3:  # the literal Fan, where its separators' join is released
            cover = Decomposition((pairs[0], pairs[-1], pairs[1]))
            reports += [compare_fan_vs_decomposition(fam, cover, c).fan for c in cells(fam)]
        for rep in reports:
            if rep is None or "inequality" not in rep.terms:  # no cell bound
                continue
            num, den = ordered_sum(rep.terms)
            if kind == "real":
                assert (num / den).hex() == rep.terms["lower_exact"].hex(), rep.formula
            else:
                assert Fraction(num, den) == rep.terms["lower_exact"], rep.formula
            checked += 1
    assert checked > 10_000, checked


@pytest.mark.parametrize("scale", [1, 2**56], ids=["int64", "python-int"])
def test_plan_arrays_and_report_terms_are_read_only(scale):
    # At 2**56 the totals make the kernels copy their operands to Python
    # ints, so the terms hold lists of arrays the plan made itself.
    table = ContingencyTable.from_flat((2, 3, 2), [scale * k for k in range(12)])
    fam = MarginalFamily.from_table(table, vs(3, [1, 2], [2, 3]))
    for method in ("best", "ddim:1", "decomp:{1,2}|{2,3}", "fan:{1,2}|{2,3},1", "3way"):
        plan = tb_bounds._method_plan(fam, method)
        arrays = [plan.lower, plan.upper]
        stack = [plan.terms]
        while stack:
            item = stack.pop()
            if isinstance(item, np.ndarray):
                arrays.append(item)
            elif isinstance(item, (dict, list)):
                stack.extend(item.values() if isinstance(item, dict) else item)
        assert len(arrays) > 2, method
        for a in arrays:
            assert not a.flags.writeable, method
            with pytest.raises(ValueError):
                a[...] = 0
        rep = method_report(fam, method, (0, 0, 0))
        before = dict(rep.terms)
        with pytest.raises(TypeError):
            rep.terms["lower_exact"] = 0  # a Mapping, not a dict
        assert dict(rep.terms) == before
        assert pickle.loads(pickle.dumps(rep)) == rep


# Output of ``_report_doc`` for the README ``bounds`` commands, pinned from
# the eager reports, so the views print exactly what they printed.
LEAD_FAMILY = {
    "schema": 1,
    "cardinalities": [3, 3],
    "labels": [["Poor", "Medium", "Good"], ["Low", "Medium", "High"]],
    "marginals": [
        {"vars": [1], "counts": [25, 5, 4]},
        {"vars": [2], "counts": [8, 7, 19]},
    ],
}
PAIRS_FAMILY = {
    "schema": 1,
    "cardinalities": [2, 2, 2],
    "marginals": [
        {"vars": [1, 2], "counts": [4, 5, 14, 8]},
        {"vars": [1, 3], "counts": [7, 2, 7, 15]},
        {"vars": [2, 3], "counts": [8, 10, 6, 7]},
    ],
}
README_BOUNDS = [
    (LEAD_FAMILY, (0, 0), "simple",
     '{"schema": 1, "cell": [0, 0], "lower": 0, "upper": 8, "formula": "simple", '
     '"subsets": [[1], [2]], "terms": {"inequality": [{"subset": "{1}", '
     '"coefficient": 1, "value": 25}, {"subset": "{2}", "coefficient": 1, "value": 8}, '
     '{"subset": "{}", "coefficient": -1, "value": 34}], "denominator": 1, '
     '"lower_exact": -1}}'),
    (PAIRS_FAMILY, (0, 0, 0), "ddim:2",
     '{"schema": 1, "cell": [0, 0, 0], "lower": 0, "upper": 4, "formula": "ddim:2", '
     '"subsets": [[1, 2], [1, 3], [2, 3]], "terms": {"inequality": [{"subset": "{1,2}", '
     '"coefficient": 1, "value": 4}, {"subset": "{1,3}", "coefficient": 1, "value": 7}, '
     '{"subset": "{2,3}", "coefficient": 1, "value": 8}, {"subset": "{}", '
     '"coefficient": -1, "value": 31}], "denominator": 2, "lower_exact": -6}}'),
    (PAIRS_FAMILY, (0, 0, 0), "decomp:{1,2}|{1,3}",
     '{"schema": 1, "cell": [0, 0, 0], "lower": 2, "upper": 4, '
     '"formula": "decomp:{1,2}|{1,3}", "subsets": [[1, 2], [1, 3]], '
     '"terms": {"inequality": [{"subset": "{1,2}", "coefficient": 1, "value": 4}, '
     '{"subset": "{1,3}", "coefficient": 1, "value": 7}, {"subset": "{1}", '
     '"coefficient": -1, "value": 9}], "denominator": 1, "lower_exact": 2}}'),
    (PAIRS_FAMILY, (0, 0, 0), "fan:{1}|{2}|{3},1",
     '{"schema": 1, "cell": [0, 0, 0], "lower": 0, "upper": 9, '
     '"formula": "fan:p=1,q=3", "subsets": [[1], [2], [3]], "terms": {"inequality": '
     '[{"subset": "{1}", "coefficient": 1, "value": 9}, {"subset": "{2}", '
     '"coefficient": 1, "value": 18}, {"subset": "{3}", "coefficient": 1, "value": 14}, '
     '{"subset": "{}", "coefficient": -1, "value": 31}, {"subset": "{}", '
     '"coefficient": -1, "value": 31}], "denominator": 1, "lower_exact": -21, '
     '"rhs_terms": [[1, 1, "{1,2,3}"], [2, 1, "{}"], [3, 1, "{}"]], "moved_k": [1], '
     '"has_cell_bound": true}}'),
    (LEAD_FAMILY, (0, 0), "best",
     '{"schema": 1, "cell": [0, 0], "lower": 0, "upper": 8, "formula": "best", '
     '"subsets": [[1], [2]], "terms": {"lowers": {"zero": 0, "ddim:1": 0, '
     '"pair:{1}|{2}": 0}, "uppers": {"n({1})": 25, "n({2})": 8, "total": 34}, '
     '"lower_from": "zero", "upper_from": "n({2})"}}'),
    (PAIRS_FAMILY, (1, 0, 1), "best",
     '{"schema": 1, "cell": [1, 0, 1], "lower": 8, "upper": 10, "formula": "best", '
     '"subsets": [[1, 2], [1, 3], [2, 3]], "terms": {"lowers": {"zero": 0, '
     '"ddim:1": 0, "ddim:2": 4, "pair:{1,2}|{1,3}": 7, "pair:{1,2}|{2,3}": 6, '
     '"pair:{1,3}|{2,3}": 8}, "uppers": {"n({1,2})": 14, "n({1,3})": 15, '
     '"n({2,3})": 10, "total": 31}, "lower_from": "pair:{1,3}|{2,3}", '
     '"upper_from": "n({2,3})"}}'),
    (PAIRS_FAMILY, (0, 1, 0), "3way",
     '{"schema": 1, "cell": [0, 1, 0], "lower": 3, "upper": 5, '
     '"formula": "3way:two-dim", "subsets": [[1, 2], [1, 3], [2, 3]], '
     '"terms": {"{1,2}+{1,3}-{1}": 3, "{1,2}+{2,3}-{2}": -2, "{1,3}+{2,3}-{3}": -1}}'),
]


@pytest.mark.parametrize(
    "doc, cell, method, expected",
    README_BOUNDS,
    ids=[f"{method}@{cell}" for _, cell, method, _ in README_BOUNDS],
)
def test_report_doc_of_readme_commands(doc, cell, method, expected):
    fam = family_from_doc(doc)
    assert json.dumps(_report_doc(method_report(fam, method, cell))) == expected


# ----------------------------------- every inequality valid on every table
#
# A lower den x cell >= sum of c_a x n(a) is linear in the table, so it
# holds on every nonnegative table, integer or real, of every shape, iff it
# holds on each single-record table. A record that agrees with the cell on
# exactly the variables S adds [a <= S] to each n(a) and [S = L] to the
# cell, so the condition is sum_{a <= S} c_a <= den x [S = L] for every
# pattern S: one subset-sum transform of the coefficients, with no data.


def pattern_sums(inequality, l):
    """sum of c_a over a <= S, for every pattern S (a mask) of 2^L."""
    return lattice.subset_sum_transform(coefficients(inequality, l), l)


def coefficients(inequality, l):
    """The inequality's coefficients as a vector over the masks of 2^L."""
    coeffs = np.zeros(1 << l, dtype=np.int64)
    for t in inequality:
        coeffs[mask_of(t["subset"], l)] += t["coefficient"]
    return coeffs


@functools.lru_cache(maxsize=None)
def mask_of(text, l):
    return VarSet.parse(text, l).mask


def violations(terms, l):
    """The patterns S at which the reported inequality fails a record."""
    allowed = np.zeros(1 << l, dtype=np.int64)
    allowed[-1] = terms["denominator"]
    return np.flatnonzero(pattern_sums(terms["inequality"], l) > allowed).tolist()


def random_masks(rng, l, k, cover=False):
    """k nonempty subsets of L as masks; with ``cover``, the last one also
    takes whatever variables the others miss."""
    masks = [int(m) for m in rng.integers(1, 1 << l, size=k)]
    if cover:
        masks[-1] |= ((1 << l) - 1) & ~functools.reduce(operator.or_, masks)
    return masks


def spelled(masks, l):
    return "|".join(str(VarSet(m, l)) for m in masks)


def full_release(l):
    """A binary family with the full table released: every subset derivable."""
    table = ContingencyTable.from_flat((2,) * l, [1] * (1 << l))
    return MarginalFamily.from_table(table, [VarSet.full(l)])


@pytest.mark.parametrize("l", range(2, 9))
def test_every_inequality_holds_on_every_single_record_table(l):
    rng = np.random.default_rng(l)
    fam, cell = full_release(l), (0,) * l
    methods = [f"ddim:{d}" for d in range(1, l + 1)] + [
        f"decomp:{spelled(random_masks(rng, l, int(rng.integers(1, 5)), cover=True), l)}"
        for _ in range(20)
    ]
    fans = []
    while len(fans) < 20:
        masks = random_masks(rng, l, int(rng.integers(1, 5)))
        method = f"fan:{spelled(masks, l)},{int(rng.integers(1, len(masks) + 1))}"
        if method_report(fam, method, cell).terms["has_cell_bound"]:
            fans.append(method)
    reports = [method_report(fam, method, cell) for method in methods + fans]
    for _ in range(20):
        cover = tuple(VarSet(m, l) for m in random_masks(rng, l, 3, cover=True))
        reports.append(compare_fan_vs_decomposition(fam, Decomposition(cover), cell).fan)
    if l in (2, 3):
        reports.append(method_report(fam, "simple" if l == 2 else "3way:one-dim", cell))
    for rep in reports:
        assert violations(rep.terms, l) == [], rep.formula
    # Every row of every recipe built, those of best (on the full table and
    # on the (l-1)-subsets, whose pairs cover L) and of 3way:two-dim included.
    sides = MarginalFamily.from_table(
        ContingencyTable.from_flat((2,) * l, [1] * (1 << l)),
        [VarSet((1 << l) - 1 & ~(1 << j), l) for j in range(l)],
    )
    names = []
    if l == 3:
        method_report(fam, "3way:two-dim", cell)  # its rows, walked below
    for f in (fam, sides):
        best_bounds(f, cell)
        for build, key in f._plans:
            recipe = tb_bounds._recipe(build, l, f._masks, *key)
            if recipe.layout != "one":
                names += [name for _, _, name, _, _ in recipe.rows]
            for terms, den, name, _, _ in recipe.rows:
                inequality = [{"subset": str(VarSet(m, l)), "coefficient": c} for m, c in terms]
                terms = {"inequality": inequality, "denominator": den or 1}
                assert violations(terms, l) == [], (recipe.formula, name)
    assert {f"ddim:{d}" for d in range(1, l + 1)} <= set(names)
    assert any(name.startswith("pair:") for name in names)
    assert l != 3 or {"{1,2}+{1,3}-{1}", "{1,2}+{2,3}-{2}", "{1,3}+{2,3}-{3}"} <= set(names)


def test_a_forged_inequality_is_refused():
    # The simple lower with 2 n(row): at S = {1}, one record outside the cell
    # counts 2 - 1 = 1 > 0, so the forgery fails on a table with one record.
    terms = dict(method_report(full_release(2), "simple", (0, 0)).terms)
    assert violations(terms, 2) == []
    terms["inequality"] = [
        dict(t, coefficient=2) if t["subset"] == "{1}" else t for t in terms["inequality"]
    ]
    assert violations(terms, 2) == [0b01, 0b11]


@pytest.mark.parametrize("l", range(2, 6))
def test_separator_route_dominates_literal_fan_on_every_table(l):
    # decomp minus literal Fan transforms to >= 0 at every pattern, so the
    # separator lower is at least the literal Fan lower on every table: the
    # dominance compare_fan_vs_decomposition checks cell by cell.
    fam = full_release(l)
    for masks in itertools.product(range(1, 1 << l), repeat=3):
        if masks[0] | masks[1] | masks[2] != (1 << l) - 1:
            continue
        s2, s3 = Decomposition(tuple(VarSet(m, l) for m in masks)).separators
        separator = tb_bounds._decomp_plan(fam, masks)
        fan = tb_bounds._literal_fan_plan(fam, masks + ((s2 | s3).mask, (s2 & s3).mask))
        gap = coefficients(separator.terms["inequality"], l) - coefficients(
            fan.terms["inequality"], l
        )
        assert (lattice.subset_sum_transform(gap, l) >= 0).all(), masks
        fam._plans.clear()  # thousands of covers: keep the family small
        fam._rows.clear()


def released(arrays):
    """A real binary 3-way family from its released marginals, by text."""
    return MarginalFamily(
        (2, 2, 2),
        [
            MarginalTable(VarSet.parse(k, 3), ContingencyTable(v.shape, v, None, "real"))
            for k, v in arrays.items()
        ],
    )


# Families whose released marginals disagree inside the consistency slack
# (about 1 at these totals of 1e9), so that a lower crosses an upper by up to
# twice real_slack(total): each pins the order in which a lower is settled.
N = 1e9


def test_a_row_is_settled_against_its_own_upper_before_best_reads_it():
    # ddim:1 sums to N + 1.8, past its upper min n({i}) = N + 1 by 0.8, and
    # best's upper is N + 0.5: the row settled first reads N + 1, which best
    # settles to N + 0.5; unsettled, N + 1.8 would cross best's upper by 1.3.
    fam = released({
        "1,2": np.array([[N + 0.5, 0.5], [0.5, 0.0]]),
        "1,3": np.array([[N + 1.4, 0.5], [1.4, 0.0]]),
        "2,3": np.array([[N + 0.5, 0.5], [1.4, 0.0]]),
    })
    cell, slack = (0, 0, 0), lattice.real_slack(fam.total)
    ddim = method_report(fam, "ddim:1", cell)
    summed = ddim.terms["lower_exact"]
    assert 0 < summed - ddim.upper <= slack
    assert ddim.lower == ddim.upper
    best = best_bounds(fam, cell)
    assert 0 < ddim.upper - best.upper <= slack < summed - best.upper
    assert best.terms["lowers"]["ddim:1"] == best.lower == best.upper


def test_two_dim_reads_each_pair_row_settled():
    # With n({1}) released, each of n({1,2}) and n({1,3}) at the cell can
    # exceed the others on their common margins by 0.9: the row
    # {1,2}+{1,3}-{1} sums to N + 1.8, its own upper is N + 0.9, and the
    # plan's upper, n({2,3}), is N: settled first, it reads N.
    fam = released({
        "1": np.array([N, 0.0]),
        "1,2": np.array([[N + 0.9, 0.0], [0.0, 0.0]]),
        "1,3": np.array([[N + 0.9, 0.0], [0.0, 0.0]]),
        "2,3": np.array([[N, 0.0], [0.0, 0.0]]),
    })
    cell = (0, 0, 0)
    pair = method_report(fam, "decomp:{1,2}|{1,3}", cell)
    assert pair.lower == pair.upper < pair.terms["lower_exact"]
    rep = method_report(fam, "3way:two-dim", cell)
    assert rep.terms["{1,2}+{1,3}-{1}"] == pair.terms["lower_exact"]
    assert rep.upper < pair.upper
    assert pair.terms["lower_exact"] - rep.upper > lattice.real_slack(fam.total)
    assert rep.lower == rep.upper


def test_literal_fan_is_settled_against_the_separator_lower_then_its_upper():
    # Over {2}|{2,3}|{1,3} at (1, 0, 0) the literal Fan sums to N + 0.9 and
    # the separator route to N - 0.9, 1.8 apart; the shared upper is N.
    # Settled against the separator lower first, past the slack, it stays,
    # then meets its upper: N. The other order would read N - 0.9.
    fam = released({
        "1": np.array([0.9, N]),
        "1,2": np.array([[0.0, 0.9], [N + 0.9, 0.0]]),
        "1,3": np.array([[0.9, 0.0], [N + 0.9, 0.0]]),
        "2,3": np.array([[N, 0.0], [0.9, 0.0]]),
    })
    cell, slack = (1, 0, 0), lattice.real_slack(fam.total)
    cover = tuple(VarSet.parse(text, 3) for text in ("2", "2,3", "1,3"))
    s2, s3 = Decomposition(cover).separators
    masks = tuple(c.mask for c in cover) + ((s2 | s3).mask, (s2 & s3).mask)
    fan = tb_bounds._literal_fan_plan(fam, masks).report(cell)
    separator = decomposition_bound(fam, Decomposition(cover), cell)
    assert separator.upper == fan.upper
    assert fan.terms["lower_exact"] - separator.lower > slack
    assert 0 < fan.terms["lower_exact"] - fan.upper <= slack
    assert 0 < fan.upper - separator.lower <= slack
    assert fan.lower == fan.upper


def test_comparison_reports_a_gap_the_marginals_disagreement_carries():
    # The family above at (1, 0, 0): the separator lower N - 0.9 sits 0.9
    # under the literal Fan's settled N. The two differ by n({2}) + n({3})
    # - n({2,3}) - n(∅), at most 0 when all four are read from n({2,3});
    # here n({2}), n({3}) and n(∅) come from {1,2}, {1,3} and {1}, each off
    # by up to one consistency slack (about 1), so the gap falsifies
    # nothing and the comparison reports it, where it used to raise.
    fam = released({
        "1": np.array([0.9, N]),
        "1,2": np.array([[0.0, 0.9], [N + 0.9, 0.0]]),
        "1,3": np.array([[0.9, 0.0], [N + 0.9, 0.0]]),
        "2,3": np.array([[N, 0.0], [0.9, 0.0]]),
    })
    cover = Decomposition(tuple(VarSet.parse(text, 3) for text in ("2", "2,3", "1,3")))
    cmpr = compare_fan_vs_decomposition(fam, cover, (1, 0, 0))
    slack = lattice.real_slack(fam.total)
    assert 0 < cmpr.fan.lower - cmpr.decomposition.lower <= slack
    assert cmpr.dominance_holds is True
    s2, s3 = cover.separators
    # Three reads off n({2,3})'s source, one settle and one rounding.
    assert tb_bounds._dominance_slack(fam, s2, s3) == pytest.approx(5 * slack)
