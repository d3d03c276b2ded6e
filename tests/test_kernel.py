"""The whole-grid bound kernel against its per-cell views and against plain
Python-integer references computed from the released marginals alone."""

import itertools
import json
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
    decomposition_bound,
    fan_lower_bound,
    frechet_3way,
    frechet_ddim,
    simple_frechet,
)
from tablebounds import bounds as tb_bounds
from tablebounds.bounds import method_report
from tablebounds.cli import _report_doc
from tablebounds.io import family_from_doc

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
            assert rep.terms["margin_sum"] == margin_sum
            assert rep.terms["lower_exact"] == exact
            assert rep.lower <= table.value(cell) <= rep.upper
            best = best_bounds(fam, cell)
            assert (best.lower, best.upper) == ref_best(fam, cell)


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
            if method == "best":
                assert want["lowers"][want["lower_from"]] == lower
                assert want["uppers"][want["upper_from"]] == upper
                assert want["lower_from"] == first_winner(want["lowers"], max)
                assert want["upper_from"] == first_winner(want["uppers"], min)


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
     '"subsets": [[1], [2]], "terms": {"row": 25, "col": 8, "total": 34}}'),
    (PAIRS_FAMILY, (0, 0, 0), "ddim:2",
     '{"schema": 1, "cell": [0, 0, 0], "lower": 0, "upper": 4, "formula": "ddim:2", '
     '"subsets": [[1, 2], [1, 3], [2, 3]], "terms": {"margin_sum": 19, "total": 31, '
     '"denominator": 2, "lower_exact": -6}}'),
    (PAIRS_FAMILY, (0, 0, 0), "decomp:{1,2}|{1,3}",
     '{"schema": 1, "cell": [0, 0, 0], "lower": 2, "upper": 4, '
     '"formula": "decomp:{1,2}|{1,3}", "subsets": [[1, 2], [1, 3]], '
     '"terms": {"cover_values": [4, 7], "separator_values": [9], '
     '"separators": ["{1}"], "lower_exact": 2}}'),
    (PAIRS_FAMILY, (0, 0, 0), "fan:{1}|{2}|{3},1",
     '{"schema": 1, "cell": [0, 0, 0], "lower": 0, "upper": 9, '
     '"formula": "fan:p=1,q=3", "subsets": [[1], [2], [3]], "terms": {"lhs": 41, '
     '"lhs_subsets": ["{1}", "{2}", "{3}"], "rhs_terms": [[1, 1, "{1,2,3}"], '
     '[2, 1, "{}"], [3, 1, "{}"]], "moved_k": [1], "full_weight": 1, '
     '"has_cell_bound": true, "lower_exact": -21}}'),
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
