"""The whole-grid bound kernel against its per-cell views and against plain
Python-integer references computed from the released marginals alone."""

import itertools
from fractions import Fraction
from math import ceil, comb

import numpy as np
import pytest
from hypothesis import given, settings
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

MARGINS = ("one-way", "pairs", "chain")


def groups_for(l, margins):
    if margins == "one-way":
        return [[j] for j in range(1, l + 1)]
    if margins == "pairs":
        return [list(p) for p in itertools.combinations(range(1, l + 1), 2)]
    return [[j, j + 1] for j in range(1, l)]


@st.composite
def families(draw, max_count=6):
    l = draw(st.integers(2, 4))
    cards = tuple(draw(st.lists(st.integers(2, 3), min_size=l, max_size=l)))
    n = int(np.prod(cards))
    counts = draw(st.lists(st.integers(0, max_count), min_size=n, max_size=n))
    margins = draw(st.sampled_from(MARGINS))
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
