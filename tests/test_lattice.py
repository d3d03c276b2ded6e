"""Checkers, constructors, and the Fan evaluator on the subset lattice."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablebounds import (
    ContingencyTable,
    CountRangeError,
    LatticeFunction,
    RangeError,
    VarSet,
    cell_margin_fn,
    cumulative_fn,
    fan_evaluate,
    indicator_fn,
    is_decreasing,
    is_increasing,
    is_submodular,
    is_supermodular,
    meet_restriction,
    random_supermodular_fn,
    subset_sum_transform,
)
from tablebounds import lattice
from tablebounds.datasets import lead_table


def brute_supermodular(values, l, tol=0.0):
    """Independent O(4^l) reference used to validate both checker modes."""
    for a in range(1 << l):
        for b in range(1 << l):
            if values[a | b] + values[a & b] + tol < values[a] + values[b]:
                return False
    return True


def brute_decreasing(values, l, tol=0.0):
    for a in range(1 << l):
        for b in range(1 << l):
            if a & ~b == 0 and values[a] + tol < values[b]:
                return False
    return True


class TestMonotone:
    def test_lead_margin_fn_decreasing(self):
        assert is_decreasing(cell_margin_fn(lead_table(), (0, 0)))

    def test_constant_is_both(self):
        fn = LatticeFunction(3, np.full(8, 7.0))
        assert is_decreasing(fn)
        assert is_increasing(fn)

    def test_strictly_increasing_one_var(self):
        fn = LatticeFunction(1, np.array([0, 1]))
        res = is_decreasing(fn)
        assert not res.ok
        assert (res.witness.a, res.witness.b) == (VarSet(0, 1), VarSet(1, 1))
        assert (res.witness.lhs, res.witness.rhs) == (0, 1)

    def test_indicator_increasing(self):
        for l in range(1, 5):
            for mask in range(1 << l):
                assert is_increasing(indicator_fn(VarSet(mask, l)))

    def test_negation_flips_monotonicity(self):
        fn = indicator_fn(VarSet.from_vars([1], 3))
        neg = LatticeFunction(3, -np.asarray(fn.values))
        assert not is_increasing(neg).ok
        assert is_decreasing(neg)

    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        seen_false = 0
        for _ in range(300):
            l = int(rng.integers(1, 5))
            vals = rng.integers(0, 4, size=1 << l)
            fn = LatticeFunction(l, vals)
            expect = brute_decreasing(vals, l)
            assert is_decreasing(fn).ok == expect
            seen_false += not expect
        assert seen_false > 0


class TestSupermodular:
    def test_cell_margin_fn_always(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            l = int(rng.integers(1, 5))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
            table = ContingencyTable.from_flat(
                cards, rng.integers(0, 5, size=int(np.prod(cards)))
            )
            anchor = tuple(int(rng.integers(0, c)) for c in cards)
            assert is_supermodular(cell_margin_fn(table, anchor), "exhaustive")

    def test_modular_with_equality(self):
        weights = [2.0, 5.0, 1.0]
        vals = np.array(
            [sum(w for j, w in enumerate(weights) if m >> j & 1) for m in range(8)]
        )
        fn = LatticeFunction(3, vals)
        assert is_supermodular(fn, "exhaustive")
        assert is_submodular(fn, "exhaustive")

    def test_known_violation_witness(self):
        fn = LatticeFunction(2, np.array([0, 1, 1, 1]))
        for mode in ("exhaustive", "local"):
            res = is_supermodular(fn, mode)
            assert not res.ok
            w = res.witness
            assert (w.a, w.b) == (VarSet(1, 2), VarSet(2, 2))
            assert (w.lhs, w.rhs) == (1, 2)

    def test_mode_equivalence_sweep(self):
        # Exhaustive and local agree on 10^4 random functions with l <= 5.
        rng = np.random.default_rng(2)
        agree_false = 0
        for _ in range(10_000):
            l = int(rng.integers(1, 6))
            vals = rng.integers(0, 5, size=1 << l)
            fn = LatticeFunction(l, vals)
            a = is_supermodular(fn, "exhaustive").ok
            b = is_supermodular(fn, "local").ok
            assert a == b
            agree_false += not a
        assert agree_false > 0  # the sweep actually exercises both outcomes

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            l = int(rng.integers(1, 5))
            vals = rng.integers(0, 4, size=1 << l)
            fn = LatticeFunction(l, vals)
            assert is_supermodular(fn, "exhaustive").ok == brute_supermodular(vals, l)

    def test_negation_duality(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            fn = random_supermodular_fn(int(rng.integers(1, 5)), rng)
            assert is_supermodular(fn, "exhaustive")
            neg = LatticeFunction(fn.num_vars, -np.asarray(fn.values))
            assert is_submodular(neg, "exhaustive")

    def test_real_tolerance(self):
        vals = np.array([0.0, 1.0, 1.0, 2.0])
        jitter = vals - np.array([0, 0, 0, 1e-12])  # tiny dip below modularity
        assert is_supermodular(LatticeFunction(2, jitter), "exhaustive")

    def test_integer_exactness(self):
        vals = np.array([0, 1, 1, 1], dtype=np.int64)
        assert not is_supermodular(LatticeFunction(2, vals), "exhaustive").ok


class TestExactness:
    """Integer functions compare exactly: no int64 wrap, no float rounding."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("mode", ["local", "exhaustive"])
    def test_sums_beyond_the_dtype(self, mode, dtype):
        # F(a) + F(b) = 2**63 wraps to -2**63 in int64 (2**31 in int32).
        big = 2 ** (np.iinfo(dtype).bits - 2)
        fn = LatticeFunction(2, np.array([0, big, big, big], dtype=dtype))
        res = is_supermodular(fn, mode)
        assert not res.ok
        assert (res.witness.a, res.witness.b) == (VarSet(1, 2), VarSet(2, 2))
        assert (res.witness.lhs, res.witness.rhs) == (big, 2 * big)

    @pytest.mark.parametrize("mode", ["local", "exhaustive"])
    def test_violation_by_one_at_2_pow_60(self, mode):
        # float64 rounds 2**60 + 1 to 2**60, which hides the violation.
        fn = LatticeFunction(2, [2**60, 2**59 + 1, 2**59, 0])
        res = is_supermodular(fn, mode)
        assert not res.ok
        assert (res.witness.a, res.witness.b) == (VarSet(1, 2), VarSet(2, 2))
        assert (res.witness.lhs, res.witness.rhs) == (2**60, 2**60 + 1)

    @pytest.mark.parametrize("mode", ["local", "exhaustive"])
    @pytest.mark.parametrize(
        "values",
        [
            np.array([0, 1, 1, 1], dtype=np.uint64),
            np.array([-(2**63), 0, 0, 0], dtype=np.int64),
        ],
        ids=["uint64", "int64-min"],
    )
    def test_submodular_negation_does_not_wrap(self, mode, values):
        # F(3) + F(0) <= F(1) + F(2) holds; -F wraps in either dtype.
        assert is_submodular(LatticeFunction(2, values), mode).ok

    @pytest.mark.parametrize("mode", ["local", "exhaustive"])
    def test_submodular_witness_beyond_int64(self, mode):
        fn = LatticeFunction(2, np.array([0, 0, 0, 2**63], dtype=np.uint64))
        res = is_submodular(fn, mode)
        assert not res.ok
        assert (res.witness.a, res.witness.b) == (VarSet(1, 2), VarSet(2, 2))
        assert (res.witness.lhs, res.witness.rhs) == (2**63, 0)

    def test_monotone_step_of_one_at_2_pow_60(self):
        res = is_decreasing(LatticeFunction(1, [2**60, 2**60 + 1]))
        assert not res.ok
        assert (res.witness.a, res.witness.b) == (VarSet(0, 1), VarSet(1, 1))
        assert (res.witness.lhs, res.witness.rhs) == (2**60, 2**60 + 1)


def first_supermodular_violation(values, l):
    """The lexicographically first ordered pair (a, b) of all pairs with
    F(a|b) + F(a&b) < F(a) + F(b), or None; plain Python."""
    for a in range(1 << l):
        for b in range(1 << l):
            if values[a | b] + values[a & b] < values[a] + values[b]:
                return a, b
    return None


def first_monotone_violation(values, l, increasing):
    """The lexicographically first covering pair (a, a|{j}) that breaks the
    direction, or None; plain Python."""
    for a in range(1 << l):
        for b in sorted(a | 1 << j for j in range(l) if not a >> j & 1):
            if (values[b] < values[a]) if increasing else (values[a] < values[b]):
                return a, b
    return None


def block_starts(rows, width_at):
    """First rows of the blocks a blocked scan visits, row r being
    width_at(r) long."""
    starts = []

    def record(start, stop):
        starts.append(start)
        return np.zeros((stop - start, width_at(start)), dtype=bool), 0

    assert lattice._first_in_blocks(rows, width_at(0), record) is None
    return starts


def exhaustive_starts(size):
    """Block starts of the exhaustive supermodularity scan, whose row a
    holds the masks b > a."""
    return block_starts(size - 1, lambda a: size - 1 - a)


def planted_pair(l, m, i, j):
    """F(a) = 4 * 2^|a|, raised by 3 * 2^|m| at u = m|{i} and v = m|{j}: the
    pair's slack 4 * 2^|m| is the least of any pair through u or v, so
    {u, v} is the only violating pair."""
    values = [4 << bin(a).count("1") for a in range(1 << l)]
    u, v = m | 1 << i, m | 1 << j
    for a in (u, v):
        values[a] += 3 << bin(m).count("1")
    return values, min(u, v), max(u, v)


class TestReferenceWitnesses:
    """Every scan's witness is the first violation of a plain-Python scan."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda l: st.tuples(
                st.just(l),
                st.lists(st.integers(-4, 4), min_size=1 << l, max_size=1 << l),
            )
        ),
        st.sampled_from([1, 2**60]),
    )
    def test_exhaustive_and_monotone_match_reference(self, fn_values, scale):
        l, raw = fn_values
        values = [v * scale for v in raw]
        negated = [-v for v in values]
        fn = LatticeFunction(l, values)

        def got(res):
            return None if res.ok else (res.witness.a.mask, res.witness.b.mask)

        sup = is_supermodular(fn, "exhaustive")
        assert got(sup) == first_supermodular_violation(values, l)
        sub = is_submodular(fn, "exhaustive")
        assert got(sub) == first_supermodular_violation(negated, l)
        for res in (sup, sub):
            if not res.ok:
                a, b = res.witness.a.mask, res.witness.b.mask
                assert res.witness.lhs == values[a | b] + values[a & b]
                assert res.witness.rhs == values[a] + values[b]
        for check, increasing in ((is_increasing, True), (is_decreasing, False)):
            res = check(fn)
            assert got(res) == first_monotone_violation(values, l, increasing)
            if not res.ok:
                assert (res.witness.lhs, res.witness.rhs) == (
                    values[res.witness.a.mask], values[res.witness.b.mask]
                )

    @pytest.mark.parametrize(
        "where", ["later-block", "block-first-row", "block-last-row", "last-pair"]
    )
    def test_exhaustive_single_planted_violation(self, where):
        l = 10
        size = 1 << l
        if where == "last-pair":
            m, i, j = size - 4, 0, 1  # u, v = size - 3, size - 2
        else:
            starts = exhaustive_starts(size)
            row = {
                "later-block": starts[6] + 5,
                "block-first-row": starts[6],
                "block-last-row": starts[7] - 1,
            }[where]
            i = (row & -row).bit_length() - 1  # the lowest bit of the row
            j = next(k for k in range(i + 1, l) if not row >> k & 1)
            m = row & ~(1 << i)
        values, u, v = planted_pair(l, m, i, j)
        res = is_supermodular(LatticeFunction(l, values), "exhaustive")
        assert not res.ok
        assert (res.witness.a.mask, res.witness.b.mask) == (u, v)
        if where == "block-first-row":
            assert u in exhaustive_starts(size)

    @pytest.mark.parametrize(
        "where", ["later-block", "block-first-row", "block-last-row", "last-pair"]
    )
    def test_monotone_single_planted_violation(self, where):
        # F(a) = -2|a| drops by 2 per element; F lowered by 3 at a alone
        # breaks only the covering pairs (a, a|{j}).
        l = 12
        size = 1 << l
        starts = block_starts(size, lambda a: l)
        a = {
            "later-block": starts[3] + 7,
            "block-first-row": starts[3],
            "block-last-row": starts[4] - 1,
            "last-pair": size - 2,
        }[where]
        values = [-2 * bin(b).count("1") for b in range(size)]
        values[a] -= 3
        res = is_decreasing(LatticeFunction(l, values))
        lowest_missing = next(j for j in range(l) if not a >> j & 1)
        assert (res.witness.a.mask, res.witness.b.mask) == (a, a | 1 << lowest_missing)
        assert len(starts) > 4

    def test_local_past_the_index_cap(self):
        # 78 axis pairs times 2^13 cells pass LOCAL_PAIR_CAP: the shifted
        # views run instead of the cached index arrays.
        l = 13
        assert 78 << l > lattice.LOCAL_PAIR_CAP
        for m, i, j in ((0b1011001110000, 0, 2), ((1 << l) - 4, 0, 1), (0, 11, 12)):
            values, u, v = planted_pair(l, m, i, j)
            sup = is_supermodular(LatticeFunction(l, values), "local")
            sub = is_submodular(LatticeFunction(l, [-x for x in values]), "local")
            for res in (sup, sub):
                assert (res.witness.a.mask, res.witness.b.mask) == (u, v)

    def test_cached_local_pairs_are_read_only(self):
        pairs = lattice._local_pairs((2, 3, 2))
        assert not pairs.flags.writeable
        with pytest.raises(ValueError):
            pairs[0, 0] = 1
        assert lattice._local_pairs((2, 3, 2)) is pairs


class TestIndicator:
    def test_empty_base(self):
        fn = indicator_fn(VarSet.empty(3))
        assert np.array_equal(fn.values, np.ones(8, dtype=np.int64))

    def test_full_base(self):
        fn = indicator_fn(VarSet.full(3))
        expect = np.zeros(8, dtype=np.int64)
        expect[7] = 1
        assert np.array_equal(fn.values, expect)

    def test_two_var_single(self):
        fn = indicator_fn(VarSet.from_vars([1], 2))
        assert fn.values.tolist() == [0, 1, 0, 1]

    def test_increasing_and_supermodular_all_bases(self):
        for l in range(1, 6):
            for mask in range(1 << l):
                fn = indicator_fn(VarSet(mask, l))
                assert is_increasing(fn)
                assert is_supermodular(fn, "exhaustive")


class TestCumulative:
    def test_point_mass_gives_indicator(self):
        for l in range(1, 5):
            for mask in range(1 << l):
                g = np.zeros(1 << l, dtype=np.int64)
                g[mask] = 1
                out = cumulative_fn(LatticeFunction(l, g))
                assert np.array_equal(out.values, indicator_fn(VarSet(mask, l)).values)

    def test_all_ones_counts_subsets(self):
        out = cumulative_fn(LatticeFunction(2, np.ones(4, dtype=np.int64)))
        assert out.values.tolist() == [1, 2, 2, 4]
        for l in range(1, 6):
            out = cumulative_fn(LatticeFunction(l, np.ones(1 << l, dtype=np.int64)))
            for mask in range(1 << l):
                assert out.values[mask] == 2 ** bin(mask).count("1")

    def test_of_margin_fn_increasing_supermodular(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            l = int(rng.integers(1, 5))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
            table = ContingencyTable.from_flat(
                cards, rng.integers(0, 5, size=int(np.prod(cards)))
            )
            anchor = tuple(int(rng.integers(0, c)) for c in cards)
            out = cumulative_fn(cell_margin_fn(table, anchor))
            assert is_increasing(out)
            assert is_supermodular(out, "exhaustive")

    def test_rejects_negative(self):
        with pytest.raises(RangeError):
            cumulative_fn(LatticeFunction(1, np.array([1, -1])))

    def test_refuses_sums_past_int64(self):
        # At int64 these sums wrapped: H came out [2^62, -2^63, -2^63, -2^62].
        g = LatticeFunction(2, np.array([2**62, 2**62, 2**62, 0], dtype=np.int64))
        with pytest.raises(CountRangeError):
            cumulative_fn(g)
        with pytest.raises(CountRangeError):
            subset_sum_transform(np.array([2**62, -(2**62), 2**62, 0]), 2)
        edge = cumulative_fn(LatticeFunction(2, np.array([2**62, 2**62 - 1, 0, 0])))
        assert edge.values.tolist() == [2**62, 2**63 - 1, 2**62, 2**63 - 1]
        assert is_increasing(edge) and is_supermodular(edge, "exhaustive")

    def test_transform_matches_naive(self):
        rng = np.random.default_rng(6)
        for l in range(1, 6):
            vals = rng.integers(0, 9, size=1 << l)
            fast = subset_sum_transform(vals, l)
            for mask in range(1 << l):
                naive = sum(vals[s] for s in range(1 << l) if s & ~mask == 0)
                assert fast[mask] == naive


class TestMeetRestriction:
    def test_values(self):
        rng = np.random.default_rng(7)
        fn = random_supermodular_fn(3, rng)
        alpha = VarSet.from_vars([1, 3], 3)
        out = meet_restriction(fn, alpha)
        for mask in range(8):
            assert out.values[mask] == fn.values[mask & alpha.mask]

    def test_preserves_decreasing(self):
        table = lead_table()
        fn = cell_margin_fn(table, (0, 0))
        for mask in range(4):
            assert is_decreasing(meet_restriction(fn, VarSet(mask, 2)))


def naive_fan_sides(fn, xs, p, form):
    """Direct-from-definition evaluation, kept independent of fan_evaluate."""
    masks = [x.mask for x in xs]
    inner = (lambda a, b: a & b) if form == "primal" else (lambda a, b: a | b)
    outer = (lambda a, b: a | b) if form == "primal" else (lambda a, b: a & b)
    from functools import reduce
    from math import comb

    lhs = sum(
        fn.values[reduce(inner, combo)].item()
        for combo in itertools.combinations(masks, p)
    )
    rhs = 0
    for k in range(p, len(masks) + 1):
        meets = [reduce(inner, combo) for combo in itertools.combinations(masks, k)]
        rhs += comb(k - 1, p - 1) * fn.values[reduce(outer, meets)].item()
    return lhs, rhs


class TestFanEvaluate:
    def test_lead_example(self):
        fn = cell_margin_fn(lead_table(), (0, 0))
        xs = [VarSet.from_vars([1], 2), VarSet.from_vars([2], 2)]
        ev = fan_evaluate(fn, xs, p=1)
        assert ev.lhs == 25 + 8 == 33
        assert ev.rhs == 7 + 34 == 41
        assert ev.holds

    def test_p_equals_q_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            l = int(rng.integers(1, 5))
            fn = LatticeFunction(l, rng.integers(0, 9, size=1 << l))
            q = int(rng.integers(1, 6))
            xs = [VarSet(int(rng.integers(0, 1 << l)), l) for _ in range(q)]
            for form in ("primal", "dual"):
                ev = fan_evaluate(fn, xs, p=q, form=form)
                assert ev.lhs == ev.rhs

    def test_three_singletons_rhs_structure(self):
        # Expanding the k = 1, 2, 3 join-of-meets terms by hand: meets of two
        # or more distinct singletons are empty, so rhs = F(L) + 2 F(empty).
        rng = np.random.default_rng(9)
        for _ in range(20):
            table = ContingencyTable.from_flat(
                (2, 2, 2), rng.integers(0, 6, size=8)
            )
            fn = cell_margin_fn(table, (0, 0, 0))
            xs = [VarSet.from_vars([j], 3) for j in (1, 2, 3)]
            ev = fan_evaluate(fn, xs, p=1)
            assert ev.rhs == fn(VarSet.full(3)) + 2 * fn(VarSet.empty(3))
            assert [t.subset.mask for t in ev.rhs_terms] == [7, 0, 0]

    def test_supermodular_holds_both_forms(self):
        rng = np.random.default_rng(10)
        for trial in range(300):
            l = int(rng.integers(1, 5))
            if trial % 2:
                fn = random_supermodular_fn(l, rng)
            else:
                cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
                table = ContingencyTable.from_flat(
                    cards, rng.integers(0, 5, size=int(np.prod(cards)))
                )
                anchor = tuple(int(rng.integers(0, c)) for c in cards)
                fn = cell_margin_fn(table, anchor)
            q = int(rng.integers(1, 6))
            p = int(rng.integers(1, q + 1))
            xs = [VarSet(int(rng.integers(0, 1 << l)), l) for _ in range(q)]
            for form in ("primal", "dual"):
                ev = fan_evaluate(fn, xs, p, form)
                assert ev.holds, (form, p, q, xs, ev.lhs, ev.rhs)
                naive = naive_fan_sides(fn, xs, p, form)
                assert (ev.lhs, ev.rhs) == naive

    def test_guards(self):
        fn = LatticeFunction(1, np.array([0, 1]))
        x = VarSet.full(1)
        with pytest.raises(RangeError):
            fan_evaluate(fn, [x], p=0)
        with pytest.raises(RangeError):
            fan_evaluate(fn, [x], p=2)
        with pytest.raises(RangeError):
            fan_evaluate(fn, [x] * 21, p=1)
        with pytest.raises(RangeError):
            fan_evaluate(fn, [], p=1)
