"""Total-positivity checks, relabeling search, exponential families, FKG."""

import itertools
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablebounds import (
    ContingencyTable,
    ExpFamily,
    LatticeFunction,
    NonpositiveValueError,
    RangeError,
    Relabeling,
    SearchSpaceError,
    UnnormalizedError,
    VarSet,
    anchored_margin_observable,
    expfam_density,
    fkg_covariance,
    is_decreasing,
    is_log_supermodular,
    is_mtp2_additive,
    is_mtp2_multiplicative,
    is_submodular,
    is_supermodular,
    search_mtp2_relabeling,
)
from tablebounds import lattice, positivity
from tablebounds.datasets import lead_table


def brute_mtp2(table, multiplicative):
    """Independent pairwise scan used to validate the production checkers."""
    cards = table.cardinalities
    cells = list(itertools.product(*(range(c) for c in cards)))
    for x, y in itertools.combinations(cells, 2):
        lo = tuple(min(a, b) for a, b in zip(x, y))
        hi = tuple(max(a, b) for a, b in zip(x, y))
        if multiplicative:
            if table.value(x) * table.value(y) > table.value(lo) * table.value(hi):
                return False
        else:
            if table.value(x) + table.value(y) > table.value(lo) + table.value(hi):
                return False
    return True


def brute_search(table, criterion):
    """Try every relabeling in lexicographic order; first passing one."""
    mult = criterion == "multiplicative"
    for perms in itertools.product(
        *(itertools.permutations(range(c)) for c in table.cardinalities)
    ):
        if brute_mtp2(Relabeling(perms).apply(table), mult):
            return perms
    return None


class TestAdditive:
    def test_lead_identity_fails_with_printed_witness(self):
        res = is_mtp2_additive(lead_table())
        assert not res.ok
        w = res.witness
        assert {w.a, w.b} == {(0, 2), (1, 0)}  # cells (1,3) and (2,1), 1-based
        assert (w.lhs, w.rhs) == (14, 10)

    def test_published_relabeling_still_fails(self):
        # Frozen from direct computation: recoding hygiene to (3,2,1) and
        # exposure to (2,1,3) leaves one violated pair, 3 + 1 > 0 + 3.
        relabeled = Relabeling(((2, 1, 0), (1, 0, 2))).apply(lead_table())
        assert relabeled.counts.tolist() == [[1, 0, 3], [1, 1, 3], [5, 7, 13]]
        res = is_mtp2_additive(relabeled)
        assert not res.ok
        assert (res.witness.lhs, res.witness.rhs) == (4, 3)

    def test_one_way_vacuous(self):
        assert is_mtp2_additive(ContingencyTable.from_flat((4,), [3, 1, 4, 1]))

    def test_local_mode_agrees_additive(self):
        # For the additive condition the adjacent-pair check is equivalent.
        rng = np.random.default_rng(0)
        disagreements = 0
        falses = 0
        for _ in range(300):
            l = int(rng.integers(1, 4))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
            t = ContingencyTable.from_flat(
                cards, rng.integers(0, 5, size=int(np.prod(cards)))
            )
            full = is_mtp2_additive(t, "exhaustive").ok
            local = is_mtp2_additive(t, "local").ok
            disagreements += full != local
            falses += not full
        assert disagreements == 0
        assert falses > 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            l = int(rng.integers(1, 4))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
            t = ContingencyTable.from_flat(
                cards, rng.integers(0, 5, size=int(np.prod(cards)))
            )
            assert is_mtp2_additive(t).ok == brute_mtp2(t, False)


class TestMultiplicative:
    def test_rank_one_product_equality(self):
        t = ContingencyTable.from_flat((2, 3), np.outer([2, 3], [1, 4, 2]).ravel())
        assert is_mtp2_multiplicative(t)

    def test_lead_identity_passes(self):
        # Frozen from an exhaustive pair scan: the product condition holds
        # on the lead table as labeled, unlike the additive condition.
        assert is_mtp2_multiplicative(lead_table())

    def test_middle_zero_breaks_product_form(self):
        t = ContingencyTable.from_flat((2, 2), [1, 1, 1, 0])
        res = is_mtp2_multiplicative(t)
        assert not res.ok
        assert (res.witness.lhs, res.witness.rhs) == (1, 0)

    @pytest.mark.parametrize("mode", ["exhaustive", "local"])
    def test_products_beyond_int64_compared_exactly(self, mode):
        # 2**32 * 2**32 wraps to 0 in int64; the violation is 2**64 > 1.
        t = ContingencyTable.from_flat((2, 2), [1, 2**32, 2**32, 1])
        res = is_mtp2_multiplicative(t, mode)
        assert not res.ok
        assert (res.witness.a, res.witness.b) == ((0, 1), (1, 0))
        assert (res.witness.lhs, res.witness.rhs) == (2**64, 1)

    @pytest.mark.parametrize("mode", ["exhaustive", "local"])
    def test_real_counts_beyond_float64_products(self, mode):
        # 1e200 * 1e200 overflows float64, and so did a slack of 1e-9 * 1e400.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad = ContingencyTable((2, 2), [[1, 1e200], [1e200, 1]], kind="real")
            res = is_mtp2_multiplicative(bad, mode)
            assert not res.ok
            assert (res.witness.a, res.witness.b) == ((0, 1), (1, 0))
            good = ContingencyTable((2, 2), [[1e200, 1], [1, 1e200]], kind="real")
            assert is_mtp2_multiplicative(good, mode).ok

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            l = int(rng.integers(1, 4))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
            t = ContingencyTable.from_flat(
                cards, rng.integers(0, 4, size=int(np.prod(cards)))
            )
            assert is_mtp2_multiplicative(t).ok == brute_mtp2(t, True)

    def test_criteria_genuinely_differ(self):
        # Catalogued instances showing the two conditions are distinct.
        add_only = ContingencyTable.from_flat((2, 2), [3, 2, 2, 1])
        assert is_mtp2_additive(add_only)
        assert not is_mtp2_multiplicative(add_only).ok
        lead = lead_table()  # product form holds, additive does not
        assert not is_mtp2_additive(lead).ok
        assert is_mtp2_multiplicative(lead)


def local_pairs(cards):
    """Every local pair as flat indices (x, y, lo, hi): x = lo + e_q and
    y = lo + e_p for axes p < q, hi = lo + e_p + e_q."""
    cells = list(itertools.product(*(range(c) for c in cards)))
    flat = {cell: i for i, cell in enumerate(cells)}
    for lo in cells:
        for p, q in itertools.combinations(range(len(cards)), 2):
            x, y, hi = list(lo), list(lo), list(lo)
            x[q] += 1
            y[p] += 1
            hi[p] += 1
            hi[q] += 1
            if hi[p] < cards[p] and hi[q] < cards[q]:
                yield flat[tuple(x)], flat[tuple(y)], flat[lo], flat[tuple(hi)]


def first_local_violation(values, cards, combine):
    """The lexicographically first local pair (x, y) with
    combine(x, y) > combine(lo, hi), or None; plain Python."""
    bad = [
        (x, y)
        for x, y, lo, hi in local_pairs(cards)
        if combine(values[x], values[y]) > combine(values[lo], values[hi])
    ]
    return min(bad, default=None)


def first_violation(values, cards, combine):
    """The lexicographically first pair (x, y), x < y in flat order, of all
    cell pairs with combine(x, y) > combine(meet, join), or None; plain
    Python."""
    cells = list(itertools.product(*(range(c) for c in cards)))
    flat = {cell: i for i, cell in enumerate(cells)}
    for (i, x), (j, y) in itertools.combinations(enumerate(cells), 2):
        lo = flat[tuple(map(min, x, y))]
        hi = flat[tuple(map(max, x, y))]
        if combine(values[i], values[j]) > combine(values[lo], values[hi]):
            return i, j
    return None


def block_starts(n):
    """First rows x of the row blocks the exhaustive scan of the binary grid
    of n cells visits: its flat indices, w at a time."""
    return list(range(0, n, lattice._pair_blocks((2,) * (n.bit_length() - 1))[0]))


class TestWitnessRule:
    """Local witnesses are the lexicographically first violating local pair."""

    @pytest.mark.parametrize("mode", ["lcoal", "Local", "all", ""])
    @pytest.mark.parametrize(
        "check, arg",
        [
            (is_supermodular, LatticeFunction(2, np.array([0, 1, 1, 2]))),
            (is_submodular, LatticeFunction(2, np.array([0, 1, 1, 2]))),
            (is_mtp2_additive, lead_table()),
            (is_mtp2_multiplicative, lead_table()),
        ],
    )
    def test_unknown_mode_refused(self, check, arg, mode):
        with pytest.raises(RangeError, match="unknown pair-check mode"):
            check(arg, mode)

    @pytest.mark.parametrize("check", [is_mtp2_additive, is_mtp2_multiplicative])
    def test_local_witness_is_exhaustive_witness(self, check):
        t = ContingencyTable.from_flat((2, 2, 2), [0, 5, 1, 0, 1, 0, 0, 0])
        local, full = check(t, "local"), check(t, "exhaustive")
        assert (local.witness.a, local.witness.b) == ((0, 0, 1), (0, 1, 0))
        assert local.witness == full.witness

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).flatmap(
            lambda cards: st.tuples(
                st.just(tuple(cards)),
                st.lists(
                    st.integers(0, 4), min_size=int(np.prod(cards)),
                    max_size=int(np.prod(cards)),
                ),
            )
        ),
        st.lists(st.integers(-4, 4), min_size=16, max_size=16),
        st.integers(0, 4),
        st.sampled_from([1, 2**60]),
    )
    def test_local_witnesses_match_reference(self, grid, fn_values, l, scale):
        cards, counts = grid
        t = ContingencyTable.from_flat(cards, counts)
        flat = {cell: i for i, cell in enumerate(itertools.product(*map(range, cards)))}
        for check, combine in (
            (is_mtp2_additive, operator.add),
            (is_mtp2_multiplicative, operator.mul),
        ):
            res = check(t, "local")
            expected = first_local_violation(counts, cards, combine)
            got = None if res.ok else (flat[res.witness.a], flat[res.witness.b])
            assert got == expected
            if expected is not None:
                x, y = (counts[i] for i in expected)
                assert res.witness.lhs == combine(x, y)
        # On 2^L the flat index of the (2,)*l grid is the mask.
        values = [v * scale for v in fn_values[: 1 << l]]
        res = is_supermodular(LatticeFunction(l, values), "local")
        expected = first_local_violation(values, (2,) * l, operator.add)
        got = None if res.ok else (res.witness.a.mask, res.witness.b.mask)
        assert got == expected


    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).flatmap(
            lambda cards: st.tuples(
                st.just(tuple(cards)),
                st.lists(
                    st.integers(0, 4), min_size=int(np.prod(cards)),
                    max_size=int(np.prod(cards)),
                ),
            )
        ),
        st.sampled_from([1, 2**30]),
    )
    def test_exhaustive_witnesses_match_reference(self, grid, scale):
        # At 2**30 the products pass int64 and compare as Python ints.
        cards, raw = grid
        counts = [v * scale for v in raw]
        t = ContingencyTable.from_flat(cards, counts)
        flat = {cell: i for i, cell in enumerate(itertools.product(*map(range, cards)))}
        for check, combine in (
            (is_mtp2_additive, operator.add),
            (is_mtp2_multiplicative, operator.mul),
        ):
            res = check(t, "exhaustive")
            got = None if res.ok else (flat[res.witness.a], flat[res.witness.b])
            assert got == first_violation(counts, cards, combine)
            if got is not None:
                assert res.witness.lhs == combine(*(counts[i] for i in got))

    @pytest.mark.parametrize(
        "where", ["later-block", "block-first-row", "block-last-row", "last-pair"]
    )
    @pytest.mark.parametrize(
        "check", [is_mtp2_additive, is_mtp2_multiplicative], ids=["add", "mult"]
    )
    def test_single_planted_violation_past_one_block(self, check, where):
        # Binary 10-way grid: flat index bit k is the coordinate of axis 9 - k,
        # so meet and join are & and |. Additive: 4 * 2^|x| plus 3 * 2^|m| at
        # u = m|{i} and v = m|{j}; multiplicative: 2^C(|x|,2), doubled at u
        # and v. Either way {u, v} is the only violating pair.
        l, n = 10, 1 << 10
        if where == "last-pair":
            m, i = n - 4, 0  # u, v = n - 3, n - 2
        else:
            starts = block_starts(n)
            row = {
                "later-block": starts[6] + 5,
                "block-first-row": starts[6],
                "block-last-row": starts[7] - 1,
            }[where]
            i = (row & -row).bit_length() - 1  # the lowest bit of the row
            m = row & ~(1 << i)
        j = next(k for k in range(i + 1, l) if not m >> k & 1)
        u, v = m | 1 << i, m | 1 << j
        size = [bin(x).count("1") for x in range(n)]
        if check is is_mtp2_additive:
            counts = [4 << s for s in size]
            for x in (u, v):
                counts[x] += 3 << size[m]
        else:
            counts = [1 << s * (s - 1) // 2 for s in size]
            for x in (u, v):
                counts[x] *= 2
        res = check(ContingencyTable.from_flat((2,) * l, counts), "exhaustive")
        cells = [tuple(int(b) for b in format(x, "010b")) for x in (u, v)]
        assert (res.witness.a, res.witness.b) == tuple(cells)
        if where == "block-first-row":
            assert u in block_starts(n)
        assert res.witness.lhs > res.witness.rhs

    @pytest.mark.parametrize("cards", [(2,) * 8, (3, 3, 3, 3), (5, 4, 4, 3), (70, 2)])
    def test_meet_tables_give_the_meet(self, cards):
        # On a binary, a cubic and two mixed grids, one with an axis of 70
        # categories, the high prefixes' summed per-axis minima times w plus
        # the low suffixes' meet table are the meet's flat index, and the
        # join is read the same way; every table is read-only.
        cells = np.indices(cards).reshape(len(cards), -1)
        lows = np.minimum(cells[:, :, None], cells[:, None, :])
        highs = np.maximum(cells[:, :, None], cells[:, None, :])
        w, meet, join, high = lattice._pair_blocks(cards)
        block, low = np.divmod(np.arange(cells.shape[1]), w)
        coords = np.indices([len(m) for m in high]).reshape(len(high), -1)
        high_meet = sum(m[c][:, c] for m, c in zip(high, coords))[block][:, block]
        high_join = block[:, None] + block[None, :] - high_meet
        got = high_meet * w + meet[low[:, None], low[None, :]]
        assert np.array_equal(got, np.ravel_multi_index(tuple(lows), cards))
        got = high_join * w + join[low[:, None], low[None, :]]
        assert np.array_equal(got, np.ravel_multi_index(tuple(highs), cards))
        assert not any(a.flags.writeable for a in (meet, join, *high))

class TestRelabelingSearch:
    def test_lead_additive_has_no_relabeling(self):
        # Frozen from the full 36-candidate scan: no recoding of the lead
        # table satisfies the additive condition.
        assert search_mtp2_relabeling(lead_table(), "additive") is None

    def test_lead_multiplicative_identity(self):
        found = search_mtp2_relabeling(lead_table(), "multiplicative")
        assert found is not None and found.is_identity

    def test_already_passing_returns_identity(self):
        t = ContingencyTable.from_flat((2, 2), [4, 2, 2, 3])
        assert is_mtp2_additive(t)
        found = search_mtp2_relabeling(t, "additive")
        assert found is not None and found.is_identity

    def test_anti_diagonal_relabels_to_diagonal(self):
        # A column swap turns the anti-diagonal permutation table into a
        # diagonal one, which satisfies both conditions.
        t = ContingencyTable.from_flat((2, 2), [0, 1, 1, 0])
        found = search_mtp2_relabeling(t, "additive")
        assert found is not None
        assert found.perms == ((0, 1), (1, 0))
        assert is_mtp2_additive(found.apply(t))

    def test_soundness_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            cards = (2, int(rng.integers(2, 4)))
            t = ContingencyTable.from_flat(
                cards, rng.integers(0, 4, size=int(np.prod(cards)))
            )
            for criterion, checker in (
                ("additive", is_mtp2_additive),
                ("multiplicative", is_mtp2_multiplicative),
            ):
                found = search_mtp2_relabeling(t, criterion)
                if found is not None:
                    assert checker(found.apply(t)).ok

    @pytest.mark.parametrize("cards", [(2, 2), (2, 3)])
    def test_completeness_exhaustive_cross_validation(self, cards):
        # Every table with entries <= 3: the search agrees with trying all
        # relabelings, and returns the lexicographically smallest passing one.
        n_cells = int(np.prod(cards))
        for flat in itertools.product(range(4), repeat=n_cells):
            t = ContingencyTable.from_flat(cards, flat)
            found = search_mtp2_relabeling(t, "additive")
            expected = brute_search(t, "additive")
            if expected is None:
                assert found is None, flat
            else:
                assert found is not None and found.perms == expected, flat

    def test_search_cap(self):
        t = ContingencyTable.from_flat((6, 6, 6), [0] * 216)
        with pytest.raises(SearchSpaceError):
            search_mtp2_relabeling(t)

    def test_relabeling_validation(self):
        with pytest.raises(RangeError):
            Relabeling(((0, 0),))
        with pytest.raises(RangeError):
            Relabeling(((0, 1),)).apply(lead_table())

    def test_relabeling_moves_labels_with_counts(self):
        relabeled = Relabeling(((2, 1, 0), (1, 0, 2))).apply(lead_table())
        assert relabeled.labels[0] == ("Good", "Medium", "Poor")
        assert relabeled.labels[1] == ("Medium", "Low", "High")
        # the (Poor, Low) count rides along to its new position
        assert relabeled.value((2, 1)) == 7


class TestExpFamily:
    def test_zero_parameters_give_uniform(self):
        mu = expfam_density(ExpFamily(anchors=((0, 0),), theta=(0.0,)), lead_table())
        assert np.allclose(mu.values, 0.25)

    def test_normalizes_within_1e12(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            l = int(rng.integers(1, 5))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
            t = ContingencyTable.from_flat(
                cards, rng.integers(0, 6, size=int(np.prod(cards)))
            )
            anchor = tuple(int(rng.integers(0, c)) for c in cards)
            theta = (float(rng.random() * 3),)
            mu = expfam_density(ExpFamily(anchors=(anchor,), theta=theta), t)
            assert abs(float(mu.values.sum()) - 1.0) <= 1e-12

    def test_large_theta_stable(self):
        mu = expfam_density(ExpFamily(anchors=((0, 0),), theta=(50.0,)), lead_table())
        assert abs(float(mu.values.sum()) - 1.0) <= 1e-12

    def test_log_density_exact_under_extreme_parameters(self):
        from tablebounds import expfam_log_density, is_supermodular

        lead = lead_table()
        fam = ExpFamily(anchors=((0, 0),), theta=(100.0,))
        log_mu = expfam_log_density(fam, lead)
        # raw masses underflow for the low subsets, the log values do not
        mu = expfam_density(fam, lead)
        assert np.any(np.asarray(mu.values) == 0)
        assert np.all(np.isfinite(log_mu.values))
        assert is_supermodular(log_mu, "local")
        # agreement with log of the mass wherever the mass survived
        alive = np.asarray(mu.values) > 0
        assert np.allclose(
            np.log(np.asarray(mu.values)[alive]),
            np.asarray(log_mu.values)[alive],
            atol=1e-9,
        )

    def test_single_anchor_log_supermodular(self):
        mu = expfam_density(ExpFamily(anchors=((0, 0),), theta=(0.7,)), lead_table())
        assert is_log_supermodular(mu)

    def test_interaction_with_full_alpha_reduces(self):
        lead = lead_table()
        with_int = expfam_density(
            ExpFamily(
                anchors=((0, 0),),
                theta=(0.2,),
                alpha=VarSet.full(2),
                theta2=(0.1,),
            ),
            lead,
        )
        plain = expfam_density(ExpFamily(anchors=((0, 0),), theta=(0.3,)), lead)
        assert np.allclose(with_int.values, plain.values)

    def test_interaction_model_log_supermodular(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cards = (2, 2, 2)
            t = ContingencyTable.from_flat(cards, rng.integers(0, 5, size=8))
            anchors = tuple(
                tuple(int(rng.integers(0, c)) for c in cards) for _ in range(2)
            )
            fam = ExpFamily(
                anchors=anchors,
                theta=tuple(float(x) for x in rng.random(2)),
                alpha=VarSet(int(rng.integers(0, 8)), 3),
                theta2=tuple(float(x) for x in rng.random(2)),
            )
            assert is_log_supermodular(expfam_density(fam, t))

    def test_non_integral_anchor_refused(self):
        # Truncated, (0.7, 0.2) would read as the anchor (0, 0).
        with pytest.raises(RangeError, match="integer coordinates"):
            expfam_density(ExpFamily(anchors=[(0.7, 0.2)], theta=(1.0,)), lead_table())
        numpy_anchor = ExpFamily(anchors=[(np.int64(1), np.int64(2))], theta=(1.0,))
        plain = ExpFamily(anchors=[(1, 2)], theta=(1.0,))
        assert np.array_equal(
            expfam_density(numpy_anchor, lead_table()).values,
            expfam_density(plain, lead_table()).values,
        )

    def test_anchor_not_a_cell_refused(self):
        # Under the one cell rule at construction, before any table is seen.
        with pytest.raises(RangeError, match="cell 5 is not a sequence of integer coordinates"):
            ExpFamily(anchors=[5], theta=[1.0])

    def test_negative_theta_rejected(self):
        with pytest.raises(RangeError):
            ExpFamily(anchors=((0, 0),), theta=(-0.1,))
        with pytest.raises(RangeError):
            ExpFamily(anchors=((0, 0),), theta=(0.1, 0.2))


class TestLogSupermodular:
    def test_uniform_equality(self):
        assert is_log_supermodular(LatticeFunction(2, np.full(4, 0.25)))

    def test_exp_of_negated_supermodular_fails(self):
        # mu proportional to exp(-F) for F strictly supermodular at a pair.
        f = np.array([0.0, 0.0, 0.0, 1.0])
        mu = np.exp(-f)
        mu /= mu.sum()
        res = is_log_supermodular(LatticeFunction(2, mu))
        assert not res.ok
        assert (res.witness.a, res.witness.b) == (VarSet(1, 2), VarSet(2, 2))

    def test_zero_rejected_distinctly(self):
        with pytest.raises(NonpositiveValueError):
            is_log_supermodular(LatticeFunction(1, np.array([0.5, 0.0])))


class TestFkg:
    def test_constant_observable_zero(self):
        mu = expfam_density(ExpFamily(anchors=((0, 0),), theta=(0.4,)), lead_table())
        const = LatticeFunction(2, np.full(4, 3.0))
        h = anchored_margin_observable(lead_table(), (0, 0), VarSet.from_vars([2], 2))
        assert abs(fkg_covariance(mu, const, h)) <= 1e-12

    def test_variance_nonnegative(self):
        mu = expfam_density(ExpFamily(anchors=((0, 0),), theta=(0.4,)), lead_table())
        h = anchored_margin_observable(lead_table(), (0, 0), VarSet.from_vars([1], 2))
        assert fkg_covariance(mu, h, h) >= 0

    def test_observables_are_decreasing(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            l = int(rng.integers(1, 5))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
            t = ContingencyTable.from_flat(
                cards, rng.integers(0, 5, size=int(np.prod(cards)))
            )
            anchor = tuple(int(rng.integers(0, c)) for c in cards)
            alpha = VarSet(int(rng.integers(0, 1 << l)), l)
            assert is_decreasing(anchored_margin_observable(t, anchor, alpha))

    def test_nonnegative_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            l = int(rng.integers(1, 5))
            cards = tuple(int(c) for c in rng.integers(2, 4, size=l))
            t = ContingencyTable.from_flat(
                cards, rng.integers(0, 6, size=int(np.prod(cards)))
            )
            anchor = tuple(int(rng.integers(0, c)) for c in cards)
            mu = expfam_density(
                ExpFamily(anchors=(anchor,), theta=(float(rng.random() * 2),)), t
            )
            alpha = VarSet(int(rng.integers(0, 1 << l)), l)
            beta = VarSet(int(rng.integers(0, 1 << l)), l)
            h1 = anchored_margin_observable(t, anchor, alpha)
            h2 = anchored_margin_observable(t, anchor, beta)
            assert fkg_covariance(mu, h1, h2) >= -1e-12

    def test_unnormalized_rejected(self):
        h = LatticeFunction(1, np.array([1.0, 2.0]))
        with pytest.raises(UnnormalizedError):
            fkg_covariance(LatticeFunction(1, np.array([0.7, 0.7])), h, h)

    def test_log_supermodularity_equals_definition(self):
        # log-supermodularity of mu and supermodularity of log mu are the
        # same statement; spot-check via the product-form inequality.
        rng = np.random.default_rng(8)
        for _ in range(100):
            l = int(rng.integers(1, 4))
            mu = rng.random(1 << l) + 0.05
            mu /= mu.sum()
            fn = LatticeFunction(l, mu)
            direct = all(
                mu[a | b] * mu[a & b] >= mu[a] * mu[b] * (1 - 1e-9)
                for a in range(1 << l)
                for b in range(1 << l)
            )
            assert is_log_supermodular(fn).ok == direct
