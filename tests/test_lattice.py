"""Checkers, constructors, and the Fan evaluator on the subset lattice."""

import itertools

import numpy as np
import pytest

from tablebounds import (
    ContingencyTable,
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

    def test_monotone_step_of_one_at_2_pow_60(self):
        res = is_decreasing(LatticeFunction(1, [2**60, 2**60 + 1]))
        assert not res.ok
        assert (res.witness.a, res.witness.b) == (VarSet(0, 1), VarSet(1, 1))
        assert (res.witness.lhs, res.witness.rhs) == (2**60, 2**60 + 1)


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
