"""Checkers, constructors, and the Fan evaluator on the subset lattice."""

import itertools
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablebounds import (
    CheckResult,
    ContingencyTable,
    CountRangeError,
    LatticeCapError,
    LatticeFunction,
    RangeError,
    VarSet,
    Witness,
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


class TestEquality:
    def test_by_value(self):
        assert LatticeFunction(1, [1, 2]) == LatticeFunction(1, [1, 2])
        assert LatticeFunction(1, [1, 2]) == LatticeFunction(1, np.array([1, 2], dtype=np.int32))
        assert LatticeFunction(1, [1, 2]) != LatticeFunction(1, [1, 3])
        assert LatticeFunction(1, [1, 2]) != LatticeFunction(1, [1.0, 2.0])
        assert LatticeFunction(1, [0.5, 2.0]) == LatticeFunction(1, [0.5, 2.0])
        assert LatticeFunction(2, [1, 1, 1, 1]) != LatticeFunction(1, [1, 1])
        assert LatticeFunction(0, [3]) != 3 and not LatticeFunction(0, [3]) == [3]
        with pytest.raises(TypeError, match="unhashable"):
            hash(LatticeFunction(1, [1, 2]))

    def test_anchored_margin_functions(self):
        assert cell_margin_fn(lead_table(), (1, 2)) == cell_margin_fn(lead_table(), (1, 2))
        assert cell_margin_fn(lead_table(), (1, 2)) != cell_margin_fn(lead_table(), (0, 2))


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

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_monotone_step_of_one_at_int64_max(self, dtype):
        # Integers compare as they are, with slack 0: values at 2^63 - 1 keep
        # their dtype, and a rise of one to the top of int64 is caught.
        top = 2**63 - 1
        values = np.array([top - 1, top - 1, top, top - 2], dtype=dtype)
        for check, want in ((is_decreasing, (0b00, 0b10, top - 1, top)),
                            (is_increasing, (0b01, 0b11, top - 1, top - 2))):
            res = check(LatticeFunction(2, values))
            assert not res.ok
            w = res.witness
            assert (w.a.mask, w.b.mask, w.lhs, w.rhs) == want
            assert type(w.lhs) is int and type(w.rhs) is int
        assert is_decreasing(LatticeFunction(2, np.array([top, top - 1, top - 1, top - 1], dtype))).ok

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint32, np.uint64]
    )
    def test_every_check_across_integer_dtypes(self, dtype):
        # Values near the ends of the dtype, whose two-term sums and products
        # pass it, against the same values as Python ints: the limits read
        # once per dtype must be that dtype's.
        info = np.iinfo(dtype)
        rng = np.random.default_rng(int(info.bits) + int(info.min < 0))
        top, shape, l = int(info.max), (3, 2, 2), 3
        convex = [top - (1 << 4) + (1 << sum(c)) for c in np.ndindex(*shape)]
        draws = [rng.integers(info.min, top, size=12, dtype=dtype, endpoint=True).tolist()
                 for _ in range(6)]
        # Near the top, sums pass the dtype; past its square root, products.
        for low, high in ((top // 2 - 3, top), (isqrt(top) + 1, top // 2)):
            draws += [rng.integers(low, high, size=12, dtype=dtype, endpoint=True).tolist()
                      for _ in range(6)]
        verdicts = set()
        for values in [convex] + draws:
            grid = np.array(values, dtype=dtype).reshape(shape)
            for mode in ("local", "exhaustive"):
                for multiplicative in (False, True):
                    got = lattice.pair_violation(grid, mode, multiplicative)
                    assert got == python_first_pair(values, shape, mode, multiplicative)
                    verdicts.add(got is None)
            f = values[: 1 << l]
            fn = LatticeFunction(l, np.array(f, dtype=dtype))
            for mode in ("local", "exhaustive"):
                for check, g in ((is_supermodular, f), (is_submodular, [-v for v in f])):
                    pair = python_first_pair(g, (2,) * l, mode, False)
                    assert check(fn, mode) == supermodular_result(f, l, pair)
            for check, increasing in ((is_decreasing, False), (is_increasing, True)):
                pair = first_monotone_violation(f, l, increasing)
                expected = CheckResult(True) if pair is None else CheckResult(False, Witness(
                    "monotone-violation", VarSet(pair[0], l), VarSet(pair[1], l),
                    f[pair[0]], f[pair[1]]))
                res = check(fn)
                assert res == expected
                assert res.ok or type(res.witness.lhs) is type(res.witness.rhs) is int
        assert verdicts == {True, False}


def python_first_pair(values, shape, mode, multiplicative):
    """The first flat pair (x, y), in the order the mode scans, of a grid of
    Python ints with x + y > meet + join (products: x * y > meet * join);
    None when there is none. Plain Python."""
    cells = list(itertools.product(*map(range, shape)))
    flat = {c: k for k, c in enumerate(cells)}
    if mode == "exhaustive":
        pairs = itertools.combinations(cells, 2)
    else:  # one step up on each of two axes p < q from a common corner
        step = lambda c, j: c[:j] + (c[j] + 1,) + c[j + 1 :]  # noqa: E731
        pairs = sorted(
            ((step(lo, q), step(lo, p))
             for p, q in itertools.combinations(range(len(shape)), 2)
             for lo in cells if lo[p] + 1 < shape[p] and lo[q] + 1 < shape[q]),
            key=lambda xy: (flat[xy[0]], flat[xy[1]]),
        )
    for x, y in pairs:
        vx, vy, vlo, vhi = (values[flat[c]] for c in
                            (x, y, tuple(map(min, x, y)), tuple(map(max, x, y))))
        if (vx * vy > vlo * vhi) if multiplicative else (vx + vy > vlo + vhi):
            return flat[x], flat[y]
    return None


def supermodular_result(f, l, pair):
    """The CheckResult of a supermodularity scan that stopped at ``pair``."""
    if pair is None:
        return CheckResult(True)
    a, b = pair
    return CheckResult(False, Witness("supermodular-violation", VarSet(a, l), VarSet(b, l),
                                      f[a | b] + f[a & b], f[a] + f[b]))


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


def block_starts(shape):
    """First rows of the row blocks of the all-pairs scan of a grid: its
    flat indices, w at a time."""
    return list(range(0, prod(shape), lattice._pair_blocks(shape)[0]))


def exhaustive_starts(size):
    """Block starts of the exhaustive supermodularity scan of 2^L, the grid
    (2,)*l of ``size`` cells."""
    return block_starts((2,) * (size.bit_length() - 1))


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
        "where, l",
        [pytest.param(w, l, id=w if l == 12 else f"{w}-blocked")
         for l in (12, 15)
         for w in ("later-block", "block-first-row", "block-last-row", "last-pair")],
    )
    def test_monotone_single_planted_violation(self, where, l):
        # F(a) = -2|a| drops by 2 per element; F lowered by 3 at a alone
        # breaks only the covering pairs (a, a|{j}). At l = 12 one gather
        # through the cached one-axis local pairs finds it; at l = 15, past
        # LOCAL_PAIR_CAP, the shifted views per axis do. The rows are placed
        # at the row-block boundaries of the all-pairs scan of (2,)*l. Lifted
        # by 2^62, the values compare as Python ints; mirrored, F(a) = 2|a|
        # raised by 3 at a breaks the increasing check at the same pairs.
        assert (l << l > lattice.LOCAL_PAIR_CAP) == (l == 15)
        size = 1 << l
        starts = block_starts((2,) * l)
        a = {
            "later-block": starts[3] + 7,
            "block-first-row": starts[3],
            "block-last-row": starts[4] - 1,
            "last-pair": size - 2,
        }[where]
        lowest_missing = next(j for j in range(l) if not a >> j & 1)
        for lift, sign in ((0, -1), (2**62, -1), (2**62, 1)):
            values = [lift + sign * 2 * bin(b).count("1") for b in range(size)]
            values[a] += sign * 3
            fn = LatticeFunction(l, values)
            assert (lattice._exact(fn.values)[0].dtype == object) == (lift > 0)
            res = is_increasing(fn) if sign > 0 else is_decreasing(fn)
            pair = (res.witness.a.mask, res.witness.b.mask)
            assert pair == (a, a | 1 << lowest_missing)
            if lift:
                assert pair == first_monotone_violation(values, l, sign > 0)
                assert (res.witness.lhs, res.witness.rhs) == (values[pair[0]], values[pair[1]])
        assert len(starts) > 4

    @pytest.mark.parametrize("cap", ["cached", "blocked"])
    def test_monotone_paths_match_reference(self, cap, monkeypatch):
        # A cap of 0 sends every l >= 1 to the shifted views per axis.
        if cap == "blocked":
            monkeypatch.setattr(lattice, "LOCAL_PAIR_CAP", 0)
        rng = np.random.default_rng(41)
        for _ in range(300):
            l = int(rng.integers(0, 8))
            # Covering pairs drop by 3 plus noise in 0..4: a few break.
            values = [-3 * bin(a).count("1") + int(rng.integers(0, 5)) for a in range(1 << l)]
            for vals in (values, [v / 7 for v in values]):
                for check, increasing, f in ((is_decreasing, False, vals),
                                             (is_increasing, True, [-v for v in vals])):
                    res = check(LatticeFunction(l, f))
                    got = None if res.ok else (res.witness.a.mask, res.witness.b.mask)
                    assert got == first_monotone_violation(f, l, increasing)

    def test_cached_covers_are_read_only(self):
        # The one-axis local pairs of (2,)*3 are the covering pairs
        # (a, a | 2^j), j not in a, in (a, j) order.
        covers = lattice._local_pairs((2,) * 3, 1)
        assert not covers.flags.writeable
        expected = [(a, a | 1 << j) for a in range(8) for j in range(3) if not a >> j & 1]
        assert list(zip(*covers.tolist())) == expected
        assert lattice._local_pairs((2,) * 3, 1) is covers

    def test_local_past_the_index_cap(self):
        # 78 axis pairs times 2^13 cells pass LOCAL_PAIR_CAP: the shifted
        # views run instead of the cached index arrays. Lifted by 2^62, the
        # values' sums pass int64 and compare as Python ints.
        l = 13
        assert 78 << l > lattice.LOCAL_PAIR_CAP
        for m, i, j in ((0b1011001110000, 0, 2), ((1 << l) - 4, 0, 1), (0, 11, 12)):
            planted, u, v = planted_pair(l, m, i, j)
            for values in (planted, [2**62 + x for x in planted]):
                sup = is_supermodular(LatticeFunction(l, values), "local")
                sub = is_submodular(LatticeFunction(l, [-x for x in values]), "local")
                for res in (sup, sub):
                    assert (res.witness.a.mask, res.witness.b.mask) == (u, v)
                assert sup.witness.lhs == values[u | v] + values[u & v]
                assert sup.witness.rhs == values[u] + values[v]

    def test_cached_local_pairs_are_read_only(self):
        pairs = lattice._local_pairs((2, 3, 2), 2)
        assert not pairs.flags.writeable
        with pytest.raises(ValueError):
            pairs[0, 0] = 1
        assert lattice._local_pairs((2, 3, 2), 2) is pairs


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

    def test_random_fn_checks_the_cap_before_drawing(self, monkeypatch):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} used past the lattice cap")

        monkeypatch.setattr("tablebounds.varset.LATTICE_CAP", 2)
        with pytest.raises(LatticeCapError):
            random_supermodular_fn(3, NoDraws())
        with pytest.raises(LatticeCapError):
            random_supermodular_fn(3, NoDraws(), integer=False)
        assert random_supermodular_fn(2, np.random.default_rng(0)).num_vars == 2

    def test_transform_counts_booleans(self):
        # Booleans used to be OR-ed: every subset "sum" came out True.
        out = subset_sum_transform(np.array([True] * 4), 2)
        assert out.dtype == np.int64 and out.tolist() == [1, 2, 2, 4]
        flags = np.array([True, False, True, True, False, True, False, True])
        assert subset_sum_transform(flags, 3).tolist() == subset_sum_transform(
            flags.astype(np.int64), 3).tolist()

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


def naive_fan_masks(masks, p, form):
    """Direct-from-definition lattice elements, kept independent of fan_terms:
    the p-subset inners, and per k the k-subset inners' outer combination."""
    inner = (lambda a, b: a & b) if form == "primal" else (lambda a, b: a | b)
    outer = (lambda a, b: a | b) if form == "primal" else (lambda a, b: a & b)
    from functools import reduce
    from math import comb

    lhs = [reduce(inner, combo) for combo in itertools.combinations(masks, p)]
    rhs = []
    for k in range(p, len(masks) + 1):
        meets = [reduce(inner, combo) for combo in itertools.combinations(masks, k)]
        rhs.append((k, comb(k - 1, p - 1), reduce(outer, meets)))
    return lhs, rhs


def naive_fan_sides(fn, xs, p, form):
    """Both sides of the Fan inequality from ``naive_fan_masks``."""
    lhs, rhs = naive_fan_masks([x.mask for x in xs], p, form)
    value = [fn.values[m].item() for m in range(fn.values.size)]
    return sum(value[m] for m in lhs), sum(c * value[m] for _, c, m in rhs)


MASKS = st.integers(0, 63)
FAN_SEQUENCES = st.one_of(
    st.lists(MASKS, min_size=1, max_size=9),
    # Few distinct masks, so most of them repeat.
    st.lists(MASKS, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=9)
    ),
    st.lists(st.just(0), min_size=1, max_size=9),
)


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

    @settings(max_examples=400, deadline=None)
    @given(FAN_SEQUENCES, st.data(), st.sampled_from(["primal", "dual"]))
    def test_counted_terms_match_enumeration(self, masks, data, form):
        p = data.draw(st.integers(1, len(masks)))
        assert lattice.fan_terms(masks, p, form) == naive_fan_masks(masks, p, form)

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
        with pytest.raises(RangeError, match="unknown form"):
            fan_evaluate(fn, [x], p=1, form="primial")

    def test_p_read_as_an_index(self):
        fn = cell_margin_fn(lead_table(), (0, 0))
        xs = [VarSet.from_vars([1], 2), VarSet.from_vars([2], 2)]
        for p in (1.0, 2.5, "1", None):
            with pytest.raises(RangeError, match="p must be an integer"):
                fan_evaluate(fn, xs, p)
            with pytest.raises(RangeError, match="p must be an integer"):
                lattice.fan_terms([1, 2], p)
        for p in (True, np.int64(1), np.uint8(1)):
            ev = fan_evaluate(fn, xs, p)
            assert ev == fan_evaluate(fn, xs, 1) and type(ev.p) is int
            assert lattice.fan_terms([1, 2], p) == lattice.fan_terms([1, 2], 1)
