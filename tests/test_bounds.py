"""Bound formulas: golden values, reduction identities, validity, dominance."""

import dataclasses
import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from tablebounds import (
    ContingencyTable,
    Decomposition,
    InconsistentFamilyError,
    MarginalFamily,
    MarginalTable,
    MissingMarginalError,
    RangeError,
    VarSet,
    best_bounds,
    compare_fan_vs_decomposition,
    decomposition_bound,
    fan_lower_bound,
    frechet_3way,
    frechet_ddim,
    kwerel_form,
    marginalize,
    simple_frechet,
    validate_report_against_table,
)
from tablebounds import bounds, lattice
from tablebounds.bounds import (
    _3way_plan,
    _best_plan,
    _decomp_plan,
    bounds_grid,
    method_report,
)
from tablebounds.datasets import lead_table


def family_of(table, subsets):
    return MarginalFamily.from_table(
        table, [VarSet.from_vars(v, table.num_vars) for v in subsets]
    )


def random_table(rng, l, max_card=3, max_count=5):
    cards = tuple(int(c) for c in rng.integers(2, max_card + 1, size=l))
    return ContingencyTable.from_flat(
        cards, rng.integers(0, max_count + 1, size=int(np.prod(cards)))
    )


def all_cells(table):
    return itertools.product(*(range(c) for c in table.cardinalities))


@pytest.fixture
def lead_family():
    return family_of(lead_table(), [[1], [2]])


class TestMarginalFamily:
    def test_consistent_family_accepted(self, lead_family):
        assert lead_family.total == 34
        assert lead_family.value(VarSet.from_vars([1], 2), (0, 0)) == 25

    @pytest.mark.parametrize(
        "labels", [[["a", "b", "c"]], [["a", "b", "c"], ["d", "e"]]], ids=["axes", "names"]
    )
    def test_labels_checked_per_axis(self, labels):
        # Tables enumerated from a family carry its labels unchecked.
        margs = [marginalize(lead_table(), VarSet.from_vars([j], 2)) for j in (1, 2)]
        with pytest.raises(RangeError):
            MarginalFamily((3, 3), margs, labels=labels)

    def test_inconsistent_rejected_with_witness(self):
        m1 = MarginalTable(
            VarSet.from_vars([1], 2), ContingencyTable.from_flat((2,), [3, 1])
        )
        m2 = MarginalTable(
            VarSet.from_vars([2], 2), ContingencyTable.from_flat((2,), [1, 1])
        )
        with pytest.raises(InconsistentFamilyError) as err:
            MarginalFamily((2, 2), [m1, m2])
        assert err.value.witness["values"] == (4, 2)

    def test_overlapping_disagreement_rejected(self):
        t = ContingencyTable.from_flat((2, 2, 2), list(range(8)))
        good = family_of(t, [[1, 2], [2, 3]])
        assert good.total == t.total
        tweaked = np.array(t.counts)
        tweaked[0, 0, 0] += 1
        m_a = MarginalTable(
            VarSet.from_vars([1, 2], 3),
            ContingencyTable(
                (2, 2), np.asarray(t.counts).sum(axis=2)
            ),
        )
        m_b = MarginalTable(
            VarSet.from_vars([2, 3], 3),
            ContingencyTable((2, 2), tweaked.sum(axis=0)),
        )
        with pytest.raises(InconsistentFamilyError):
            MarginalFamily((2, 2, 2), [m_a, m_b])

    def test_first_disagreeing_pair_reported(self):
        # Three tables with one total; five of the ten pairs of released
        # marginals disagree. Pairs are checked in order of their masks, and
        # the first to disagree is ({2}, {2,3}), after {2} was summed over
        # {2} for an earlier pair.
        a, b, c = (
            ContingencyTable.from_flat((2, 3, 2), counts)
            for counts in (
                [1, 2, 0, 3, 1, 1, 2, 0, 4, 1, 0, 3],
                [2, 1, 1, 3, 0, 1, 2, 1, 3, 1, 1, 2],
                [0, 2, 1, 2, 1, 2, 3, 0, 2, 1, 1, 3],
            )
        )
        sources = [(a, [1, 2]), (a, [3]), (b, [1, 3]), (c, [2, 3]), (a, [2])]
        margs = [marginalize(t, VarSet.from_vars(v, 3)) for t, v in sources]
        with pytest.raises(InconsistentFamilyError) as err:
            MarginalFamily((2, 3, 2), margs)
        assert str(err.value) == (
            "marginals over {2} and {2,3} disagree on {2} at cell (1,): 8 vs 6"
        )
        assert err.value.witness == dict(
            subsets=(VarSet.from_vars([2], 3), VarSet.from_vars([2, 3], 3)),
            common=VarSet.from_vars([2], 3),
            cell=(1,),
            values=(8, 6),
        )

    def test_derivation_from_released_superset(self):
        t = random_table(np.random.default_rng(0), 3)
        fam = family_of(t, [[1, 2]])
        derived = fam.marginal(VarSet.from_vars([1], 3))
        assert np.array_equal(
            derived.table.counts,
            marginalize(t, VarSet.from_vars([1], 3)).table.counts,
        )
        assert not fam.is_derivable(VarSet.from_vars([3], 3))

    def test_missing_marginal_listed(self):
        t = random_table(np.random.default_rng(1), 2)
        fam = family_of(t, [[1]])
        with pytest.raises(MissingMarginalError) as err:
            simple_frechet(fam, (0, 0))
        assert VarSet.from_vars([2], 2) in err.value.missing


class TestSimpleFrechet:
    def test_lead_poor_low(self, lead_family):
        rep = simple_frechet(lead_family, (0, 0))
        assert (rep.lower, rep.upper) == (0, 8)
        assert rep.contains(lead_table().value((0, 0)))

    def test_lead_good_low(self, lead_family):
        rep = simple_frechet(lead_family, (2, 0))
        assert (rep.lower, rep.upper) == (0, 4)
        assert rep.contains(0)

    def test_zero_margin_pins_cells(self):
        table = ContingencyTable.from_flat((2, 2), [3, 0, 4, 0])
        fam = family_of(table, [[1], [2]])
        for i in range(2):
            rep = simple_frechet(fam, (i, 1))
            assert rep.lower == rep.upper == 0

    def test_tight_lower(self):
        table = ContingencyTable.from_flat((2, 2), [5, 0, 0, 1])
        fam = family_of(table, [[1], [2]])
        rep = simple_frechet(fam, (0, 0))
        assert rep.lower == 5 + 5 - 6
        assert rep.upper == 5

    def test_wrong_arity(self):
        t = random_table(np.random.default_rng(2), 3)
        with pytest.raises(RangeError):
            simple_frechet(family_of(t, [[1], [2], [3]]), (0, 0, 0))


class TestFrechet3Way:
    def test_uniform_one_dim(self):
        fam = family_of(
            ContingencyTable.from_flat((2, 2, 2), [1] * 8), [[1], [2], [3]]
        )
        rep = frechet_3way(fam, (0, 0, 0), "one-dim")
        assert (rep.lower, rep.upper) == (0, 4)

    def test_uniform_two_dim(self):
        fam = family_of(
            ContingencyTable.from_flat((2, 2, 2), [1] * 8), [[1, 2], [1, 3], [2, 3]]
        )
        rep = frechet_3way(fam, (0, 0, 0), "two-dim")
        assert (rep.lower, rep.upper) == (0, 2)

    def test_validity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            table = random_table(rng, 3)
            fam1 = family_of(table, [[1], [2], [3]])
            fam2 = family_of(table, [[1, 2], [1, 3], [2, 3]])
            for cell in all_cells(table):
                for rep in (
                    frechet_3way(fam1, cell, "one-dim"),
                    frechet_3way(fam2, cell, "two-dim"),
                ):
                    assert validate_report_against_table(rep, table)

    def test_two_dim_needs_pairs(self):
        table = random_table(np.random.default_rng(4), 3)
        fam = family_of(table, [[1], [2], [3]])
        with pytest.raises(MissingMarginalError):
            frechet_3way(fam, (0, 0, 0), "two-dim")


class TestFrechetDdim:
    def test_d1_matches_3way_one_dim(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            table = random_table(rng, 3)
            fam = family_of(table, [[1], [2], [3]])
            for cell in all_cells(table):
                a = frechet_ddim(fam, cell, 1)
                b = frechet_3way(fam, cell, "one-dim")
                assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_uniform_d2_exact_arithmetic(self):
        fam = family_of(
            ContingencyTable.from_flat((2, 2, 2), [1] * 8), [[1, 2], [1, 3], [2, 3]]
        )
        rep = frechet_ddim(fam, (0, 0, 0), 2)
        assert rep.terms["lower_exact"] == Fraction(6, 2) - Fraction(1, 2) * 8
        assert (rep.lower, rep.upper) == (0, 2)

    def test_d_equals_l_is_exact(self):
        rng = np.random.default_rng(6)
        table = random_table(rng, 3)
        fam = family_of(table, [[1, 2, 3]])
        for cell in all_cells(table):
            rep = frechet_ddim(fam, cell, 3)
            assert rep.lower == rep.upper == table.value(cell)

    def test_ceiling_tightens_without_losing_truth(self):
        # Fractional positive case by hand: mass 3 at (0,0,0), 1 at (0,0,1),
        # 1 at (1,1,1): pair margins at (0,0,0) sum to 4+3+3 = 10, total 5,
        # so the exact lower bound is 10/2 - 5/2 = 5/2 and the ceiling is 3,
        # still below the true count 3.
        counts = np.zeros((2, 2, 2), dtype=np.int64)
        counts[0, 0, 0] = 3
        counts[0, 0, 1] = 1
        counts[1, 1, 1] = 1
        table = ContingencyTable((2, 2, 2), counts)
        fam = family_of(table, [[1, 2], [1, 3], [2, 3]])
        rep = frechet_ddim(fam, (0, 0, 0), 2)
        assert rep.terms["lower_exact"] == Fraction(5, 2)
        assert rep.lower == 3
        assert table.value((0, 0, 0)) == 3

    def test_ceiling_validity_random(self):
        # Concentrated tables make fractional exact bounds common; the
        # ceiling must stay at or below the true count everywhere.
        rng = np.random.default_rng(7)
        fractional_seen = 0
        for _ in range(200):
            counts = rng.integers(0, 2, size=8)
            counts[0] += int(rng.integers(2, 7))
            table = ContingencyTable.from_flat((2, 2, 2), counts)
            fam = family_of(table, [[1, 2], [1, 3], [2, 3]])
            for cell in all_cells(table):
                rep = frechet_ddim(fam, cell, 2)
                exact = max(rep.terms["lower_exact"], 0)
                assert rep.lower >= exact
                assert rep.lower - 1 < exact
                assert rep.lower <= table.value(cell) <= rep.upper
                fractional_seen += exact != int(exact)
        assert fractional_seen > 0

    def test_d_out_of_range(self):
        fam = family_of(random_table(np.random.default_rng(8), 2), [[1], [2]])
        with pytest.raises(RangeError):
            frechet_ddim(fam, (0, 0), 3)

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warmed"])
    def test_d_read_as_an_index(self, warm):
        # A plan is keyed by d, so d must be an int before the key: a float
        # is refused and True is 1, on a fresh family and one holding ddim:1.
        fam = family_of(lead_table(), [[1], [2]])
        if warm:
            frechet_ddim(fam, (0, 0), 1)
        for d in (1.0, 2.0, "1"):
            with pytest.raises(RangeError, match="d must be an integer"):
                frechet_ddim(fam, (0, 0), d)
            with pytest.raises(RangeError, match="d must be an integer"):
                kwerel_form(fam, (0, 0), d)
        for d in (True, np.int64(1), np.uint8(1)):
            assert frechet_ddim(fam, (0, 0), d) == frechet_ddim(fam, (0, 0), 1)
            assert frechet_ddim(fam, (0, 0), d).formula == "ddim:1"
            assert kwerel_form(fam, (0, 0), d) == kwerel_form(fam, (0, 0), 1)
            assert type(kwerel_form(fam, (0, 0), d).d) is int


class TestKwerel:
    def test_binomial_ratio_identity(self):
        for l in range(1, 13):
            for d in range(1, l + 1):
                assert Fraction(comb(l, d), comb(l - 1, d - 1)) == Fraction(l, d)

    def test_uniform_example(self):
        fam = family_of(
            ContingencyTable.from_flat((2, 2, 2), [1] * 8), [[1, 2], [1, 3], [2, 3]]
        )
        stats = kwerel_form(fam, (0, 0, 0), 2)
        assert stats.s_d == Fraction(6, 8)
        assert stats.p_full == Fraction(6, 8) / 2 - Fraction(3, 2) + 1
        assert stats.p_full == Fraction(-1, 8)

    def test_matches_ddim_preclamp_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            l = int(rng.integers(2, 5))
            table = random_table(rng, l, max_card=2)
            if table.total == 0:
                continue
            d = int(rng.integers(1, l + 1))
            fam = family_of(
                table, [list(c) for c in itertools.combinations(range(1, l + 1), d)]
            )
            for cell in all_cells(table):
                stats = kwerel_form(fam, cell, d)
                rep = frechet_ddim(fam, cell, d)
                assert stats.p_full * table.total == rep.terms["lower_exact"]

    def test_zero_total_rejected(self):
        fam = family_of(ContingencyTable.from_flat((2, 2), [0] * 4), [[1], [2]])
        with pytest.raises(RangeError):
            kwerel_form(fam, (0, 0), 1)


class TestDecomposition:
    def test_separators(self):
        cover = Decomposition(
            tuple(VarSet.from_vars(v, 3) for v in ([1, 2], [2, 3], [1, 3]))
        )
        assert [s.vars for s in cover.separators] == [(2,), (1, 3)]

    def test_cover_must_hit_everything(self):
        with pytest.raises(RangeError):
            Decomposition((VarSet.from_vars([1, 2], 3),))

    def test_pairwise_matches_two_dim_term(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            table = random_table(rng, 3)
            fam = family_of(table, [[1, 2], [1, 3]])
            dec = Decomposition(
                (VarSet.from_vars([1, 2], 3), VarSet.from_vars([1, 3], 3))
            )
            for cell in all_cells(table):
                rep = decomposition_bound(fam, dec, cell)
                n12 = fam.value(VarSet.from_vars([1, 2], 3), cell)
                n13 = fam.value(VarSet.from_vars([1, 3], 3), cell)
                n1 = fam.value(VarSet.from_vars([1], 3), cell)
                assert rep.lower == max(n12 + n13 - n1, 0)
                assert rep.upper == min(n12, n13)
                assert rep.lower <= table.value(cell) <= rep.upper

    def test_uniform_cover(self):
        fam = family_of(
            ContingencyTable.from_flat((2, 2, 2), [1] * 8), [[1, 2], [1, 3]]
        )
        dec = Decomposition((VarSet.from_vars([1, 2], 3), VarSet.from_vars([1, 3], 3)))
        rep = decomposition_bound(fam, dec, (0, 0, 0))
        assert (rep.lower, rep.upper) == (0, 2)

    def test_validity_random_covers(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            table = random_table(rng, 3)
            fam = family_of(table, [[1, 2], [2, 3], [1, 3]])
            covers = [
                ([1, 2], [2, 3]),
                ([1, 2], [1, 3]),
                ([1, 2], [2, 3], [1, 3]),
                ([1, 3], [2, 3]),
            ]
            cover = covers[int(rng.integers(0, len(covers)))]
            dec = Decomposition(tuple(VarSet.from_vars(v, 3) for v in cover))
            for cell in all_cells(table):
                rep = decomposition_bound(fam, dec, cell)
                assert rep.lower <= table.value(cell) <= rep.upper


# Fan methods past FAN_SEQUENCE_CAP: 21 sets, and 26 sets at p = 13, whose
# C(26, 13) = 10,400,600 left-hand terms the sequence cap refuses too.
FAN_PAST_CAPS = ["fan:" + "|".join(["{1}", "{2}"] * 10 + ["{1}"]) + ",1",
                 "fan:" + "|".join(["{1}", "{2}"] * 13) + ",13"]


class TestFanLowerBound:
    @pytest.mark.parametrize("method", FAN_PAST_CAPS)
    def test_method_past_the_caps_refused(self, lead_family, method):
        with pytest.raises(RangeError, match="exceeds cap"):
            method_report(lead_family, method, (0, 0))

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warmed"])
    def test_p_read_as_an_index(self, warm):
        # A plan is keyed by p, so p must be an int before the key: a float
        # is refused on a fresh family and on one holding the p = 1 plan,
        # and True and numpy integers are read as 1.
        fam = family_of(lead_table(), [[1], [2]])
        xs = [VarSet.from_vars([1], 2), VarSet.from_vars([2], 2)]
        if warm:
            fan_lower_bound(fam, xs, 1, (0, 0))
        for p in (1.0, 2.5, "1", None):
            with pytest.raises(RangeError, match="p must be an integer"):
                fan_lower_bound(fam, xs, p, (0, 0))
        for p in (True, np.int64(1), np.uint8(1)):
            assert fan_lower_bound(fam, xs, p, (0, 0)).formula == "fan:p=1,q=2"
            assert fan_lower_bound(fam, xs, p, (0, 0)) == fan_lower_bound(fam, xs, 1, (0, 0))

    def test_shares_the_fan_guards(self, lead_family):
        one = VarSet.from_vars([1], 2)
        for xs, p in (([], 1), ([one], 0), ([one], 2), ([one] * 21, 1)):
            with pytest.raises(RangeError) as bound:
                fan_lower_bound(lead_family, xs, p, (0, 0))
            with pytest.raises(RangeError) as direct:
                lattice.fan_terms([x.mask for x in xs], p)
            assert str(bound.value) == str(direct.value)

    def test_singletons_match_one_dim(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            table = random_table(rng, 3)
            fam = family_of(table, [[1], [2], [3]])
            xs = [VarSet.from_vars([j], 3) for j in (1, 2, 3)]
            for cell in all_cells(table):
                fan = fan_lower_bound(fam, xs, 1, cell)
                ref = frechet_3way(fam, cell, "one-dim")
                assert fan.lower == ref.lower

    def test_two_pair_sequence(self):
        rng = np.random.default_rng(13)
        table = random_table(rng, 3)
        fam = family_of(table, [[1, 2], [1, 3]])
        xs = [VarSet.from_vars([1, 2], 3), VarSet.from_vars([1, 3], 3)]
        for cell in all_cells(table):
            fan = fan_lower_bound(fam, xs, 1, cell)
            n12 = fam.value(xs[0], cell)
            n13 = fam.value(xs[1], cell)
            n1 = fam.value(VarSet.from_vars([1], 3), cell)
            assert fan.terms["lower_exact"] == n12 + n13 - n1
            assert fan.terms["moved_k"] == (1,)

    def test_all_d_subsets_match_ddim(self):
        rng = np.random.default_rng(14)
        for l in range(1, 6):
            table = random_table(rng, l, max_card=2)
            for d in range(1, l + 1):
                subsets = [
                    list(c) for c in itertools.combinations(range(1, l + 1), d)
                ]
                fam = family_of(table, subsets)
                xs = [VarSet.from_vars(v, l) for v in subsets]
                for cell in all_cells(table):
                    fan = fan_lower_bound(fam, xs, 1, cell)
                    ref = frechet_ddim(fam, cell, d)
                    assert fan.terms["lower_exact"] == ref.terms["lower_exact"]
                    assert fan.lower == ref.lower
                    # the L-collapse threshold realized combinatorially
                    expect_moved = tuple(
                        k
                        for k in range(1, len(xs) + 1)
                        if k <= comb(l - 1, d - 1)
                    )
                    assert fan.terms["moved_k"] == expect_moved

    def test_no_full_join_reports_raw_inequality(self):
        table = random_table(np.random.default_rng(15), 3)
        fam = family_of(table, [[1, 2]])
        fan = fan_lower_bound(fam, [VarSet.from_vars([1, 2], 3)], 1, (0, 0, 0))
        assert fan.terms["has_cell_bound"] is False
        assert fan.lower == 0

    def test_missing_marginal(self):
        table = random_table(np.random.default_rng(16), 3)
        fam = family_of(table, [[1, 2], [1, 3]])
        xs = [VarSet.from_vars([1, 2], 3), VarSet.from_vars([2, 3], 3)]
        with pytest.raises(MissingMarginalError):
            fan_lower_bound(fam, xs, 1, (0, 0, 0))

    def test_validity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            table = random_table(rng, 3)
            fam = family_of(table, [[1, 2], [2, 3], [1, 3]])
            xs_pool = [[1, 2], [2, 3], [1, 3], [1], [2], [3]]
            q = int(rng.integers(2, 5))
            xs = [
                VarSet.from_vars(xs_pool[int(rng.integers(0, len(xs_pool)))], 3)
                for _ in range(q)
            ]
            p = int(rng.integers(1, q + 1))
            for cell in all_cells(table):
                fan = fan_lower_bound(fam, xs, p, cell)
                assert fan.lower <= table.value(cell) <= fan.upper


class TestCompareFanVsDecomposition:
    COVER = ([1, 2], [2, 3], [1, 3])

    def test_dominance_random(self):
        # The separators of this cover join to the full set, so the literal
        # Fan side needs the full table to be derivable.
        rng = np.random.default_rng(18)
        for _ in range(200):
            table = random_table(rng, 3)
            fam = family_of(table, [[1, 2, 3]])
            dec = Decomposition(tuple(VarSet.from_vars(v, 3) for v in self.COVER))
            for cell in all_cells(table):
                cmpr = compare_fan_vs_decomposition(fam, dec, cell)
                assert cmpr.dominance_holds
                truth = table.value(cell)
                assert cmpr.fan.lower <= truth
                assert cmpr.decomposition.lower <= truth

    def test_dominance_generic_cover_from_pairs(self):
        # A cover whose separators do not join to everything keeps the Fan
        # side derivable from pair marginals alone.
        rng = np.random.default_rng(23)
        cover = ([1, 2], [2, 3], [3])
        for _ in range(200):
            table = random_table(rng, 3)
            fam = family_of(table, [[1, 2], [2, 3]])
            dec = Decomposition(tuple(VarSet.from_vars(v, 3) for v in cover))
            for cell in all_cells(table):
                cmpr = compare_fan_vs_decomposition(fam, dec, cell)
                assert cmpr.fan is not None
                assert cmpr.dominance_holds

    def test_equality_on_degenerate_product_tables(self):
        # Axis 3 carries all mass on one level, so the separator join/meet
        # terms have zero supermodularity slack and the two bounds coincide.
        rng = np.random.default_rng(19)
        cover = ([1, 2], [2, 3], [3])
        for _ in range(30):
            r = rng.integers(1, 5, size=2)
            c = rng.integers(1, 5, size=2)
            counts = np.zeros((2, 2, 2), dtype=np.int64)
            counts[:, :, 0] = np.outer(r, c)
            table = ContingencyTable((2, 2, 2), counts)
            fam = family_of(table, list(cover))
            dec = Decomposition(tuple(VarSet.from_vars(v, 3) for v in cover))
            for i in range(2):
                for j in range(2):
                    cell = (i, j, 0)
                    cmpr = compare_fan_vs_decomposition(fam, dec, cell)
                    assert cmpr.fan is not None
                    assert cmpr.decomposition.lower == cmpr.fan.lower

    def test_uniform_both_clamp(self):
        fam = family_of(ContingencyTable.from_flat((2, 2, 2), [1] * 8), [[1, 2, 3]])
        dec = Decomposition(tuple(VarSet.from_vars(v, 3) for v in self.COVER))
        cmpr = compare_fan_vs_decomposition(fam, dec, (0, 0, 0))
        assert cmpr.decomposition.lower == 0
        assert cmpr.fan.lower == 0

    def test_undefined_fan_reported(self):
        # With only the pair marginals released, the separator join equals
        # the full set and the literal Fan side cannot be evaluated.
        table = random_table(np.random.default_rng(20), 3)
        fam = family_of(table, list(self.COVER))
        dec = Decomposition(tuple(VarSet.from_vars(v, 3) for v in self.COVER))
        cmpr = compare_fan_vs_decomposition(fam, dec, (0, 0, 0))
        assert cmpr.fan is None
        assert VarSet.full(3) in cmpr.fan_missing
        assert cmpr.dominance_holds is None

    def test_folded_fan_bound_can_beat_separators(self):
        # Regression: folding both full-set Fan terms into the unknown can
        # give a strictly tighter (still valid) bound than the separator
        # route, so the dominance claim only applies to the literal form.
        counts = np.array(
            [[[5, 4], [0, 0], [1, 0]], [[0, 5], [0, 5], [1, 5]]], dtype=np.int64
        )
        table = ContingencyTable((2, 3, 2), counts)
        fam = family_of(table, list(self.COVER))
        dec = Decomposition(tuple(VarSet.from_vars(v, 3) for v in self.COVER))
        cell = (1, 0, 1)
        folded = fan_lower_bound(fam, list(dec.cover), 1, cell)
        separator = decomposition_bound(fam, dec, cell)
        assert separator.lower == 0
        assert folded.terms["lower_exact"] == Fraction(3, 2)
        assert folded.lower == 2
        assert folded.lower <= table.value(cell)  # still a valid bound


    # A real table where S2 = S3 = {1}: the separators' join and meet are
    # the separators themselves, so both routes sum the same terms in the
    # same order and agree to the bit.
    ROUNDING_COUNTS = [
        0.07870969415548011, 0.019161625902013524, 0.080236416113453,
        0.019132392605720028, 0.008155261736351272, 0.08552269742870702,
        0.08612834961776684, 0.08765370964165806,
    ]

    def rounding_case(self, counts, kind):
        table = ContingencyTable.from_flat((2, 2, 2), counts, kind=kind)
        cover = tuple(VarSet.from_vars(v, 3) for v in ([1], [1, 2], [1, 3]))
        return family_of(table, [[1, 2], [1, 3]]), Decomposition(cover)

    # A real binary 4-way table under the chain {1,2}|{2,3}|{3,4}, with no
    # mass where variables 2 and 3 both differ from the anchor (0, 0, 0, 0):
    # there n(∅) + n({2,3}) = n({2}) + n({3}), so the two routes are equal
    # in exact arithmetic, and the Fan lower came out one rounding step
    # above. Found by drawing uniform counts from default_rng(7), zeroing
    # those cells: draw 714 is the one crossing in 3,000 draws.
    CHAIN_ROUNDING_COUNTS = [
        0.9611097490600038, 0.40002066268208425, 0.05162546129548462,
        0.0120742173452415, 0.3294139487973129, 0.2616681439965963, 0.0, 0.0,
        0.36742490845358544, 0.26003076139296744, 0.06776717031684643,
        0.12358789403448078, 0.7424391566865957, 0.056755563866848546, 0.0, 0.0,
    ]

    def test_rounding_is_not_a_dominance_failure(self):
        table = ContingencyTable.from_flat((2,) * 4, self.CHAIN_ROUNDING_COUNTS, kind="real")
        chain = [[1, 2], [2, 3], [3, 4]]
        fam = family_of(table, chain)
        dec = Decomposition(tuple(VarSet.from_vars(v, 4) for v in chain))
        cmpr = compare_fan_vs_decomposition(fam, dec, (0, 0, 0, 0))
        assert cmpr.dominance_holds
        assert cmpr.fan.lower == cmpr.decomposition.lower
        assert cmpr.fan.terms["lower_exact"] > cmpr.decomposition.lower

    @pytest.mark.parametrize(
        "kind, counts, drop",
        [("real", ROUNDING_COUNTS, 1e-6), ("integer", [3, 1, 4, 1, 5, 9, 2, 6], 1)],
    )
    def test_wider_gap_still_raises(self, monkeypatch, kind, counts, drop):
        fam, dec = self.rounding_case(counts, kind)
        honest = bounds.decomposition_bound

        def lowered(*args):
            rep = honest(*args)
            return dataclasses.replace(rep, lower=rep.lower - drop)

        monkeypatch.setattr(bounds, "decomposition_bound", lowered)
        with pytest.raises(RangeError, match="falsifies"):
            compare_fan_vs_decomposition(fam, dec, (0, 0, 0))


class TestBestBounds:
    def test_never_looser_when_marginal_added(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            table = random_table(rng, 3)
            base = [[1], [2]]
            extra = [[3], [1, 2], [1, 3], [2, 3]][int(rng.integers(0, 4))]
            fam_small = family_of(table, base)
            fam_big = family_of(table, base + [extra])
            for cell in all_cells(table):
                small = best_bounds(fam_small, cell)
                big = best_bounds(fam_big, cell)
                assert big.lower >= small.lower
                assert big.upper <= small.upper
                assert big.lower <= table.value(cell) <= big.upper

    def test_exact_when_full_released(self):
        table = random_table(np.random.default_rng(22), 2)
        fam = family_of(table, [[1, 2]])
        for cell in all_cells(table):
            rep = best_bounds(fam, cell)
            assert rep.lower == rep.upper == table.value(cell)


class TestSharedKernels:
    """The classical bounds are special cases of the general ones: their
    arrays are the general plans' own, not a second evaluation."""

    def test_simple_is_ddim_1(self, lead_family):
        simple, ddim = bounds_grid(lead_family, "simple"), bounds_grid(lead_family, "ddim:1")
        assert simple[0] is ddim[0] and simple[1] is ddim[1]

    def test_3way_one_dim_is_ddim_1(self):
        fam = family_of(random_table(np.random.default_rng(23), 3), [[1], [2], [3]])
        one, ddim = bounds_grid(fam, "3way:one-dim"), bounds_grid(fam, "ddim:1")
        assert one[0] is ddim[0] and one[1] is ddim[1]

    def test_pair_lowers_are_decomposition_lowers(self):
        fam = family_of(random_table(np.random.default_rng(24), 3), [[1, 2], [1, 3], [2, 3]])
        lowers, two = _best_plan(fam).terms["lowers"], _3way_plan(fam, "two-dim")
        for a, b in itertools.combinations(fam.subsets(), 2):
            decomp = _decomp_plan(fam, (a.mask, b.mask))
            assert lowers[f"pair:{a}|{b}"] is decomp.lower
            assert two.terms[f"{a}+{b}-{a & b}"] is decomp.terms["lower_exact"]

    @pytest.mark.parametrize("best_first", [True, False])
    def test_best_ddim_lowers_are_ddim_lowers(self, best_first):
        fam = family_of(random_table(np.random.default_rng(25), 3), [[1, 2], [1, 3], [2, 3]])
        if best_first:
            _best_plan(fam)
        grids = {d: bounds_grid(fam, f"ddim:{d}")[0] for d in (1, 2)}
        lowers = _best_plan(fam).terms["lowers"]
        for d, grid in grids.items():
            assert lowers[f"ddim:{d}"] is grid

    def test_a_family_has_one_total_grid(self, lead_family):
        # best's total upper is n(∅), read like every other margin.
        total = _best_plan(lead_family).terms["uppers"]["total"]
        assert total is lead_family.grid(VarSet.empty(2))
        assert set(lead_family._grids) == {0, 1, 2}


class TestExactLowerTypes:
    """``lower_exact`` per kernel and kind: an integer family's divided
    lowers quote a Fraction, also over a denominator of 1, its undivided
    ones the integer itself; a real family's are floats."""

    PAIRS = ([1, 2], [1, 3])
    METHODS = {
        "ddim:1": 1,  # denominators: C(2, 0)
        "ddim:2": 2,  # C(2, 1)
        "fan:{1,2}|{1,3},1": 1,  # full-set weights
        "fan:{1,2}|{1,3}|{2,3},1": 2,
        "decomp:{1,2}|{1,3}": None,
    }

    @pytest.mark.parametrize("kind", ["integer", "real"])
    def test_type_per_kernel(self, kind):
        counts = [3, 1, 4, 1, 5, 9, 2, 6]
        if kind == "real":
            counts = [c / 4 for c in counts]
        table = ContingencyTable.from_flat((2, 2, 2), counts, kind=kind)
        fam = family_of(table, list(self.PAIRS) + [[2, 3]])
        for method, den in self.METHODS.items():
            terms = method_report(fam, method, (0, 0, 0)).terms
            if den is not None:
                assert terms.get("denominator", terms.get("full_weight")) == den
            want = (int if den is None else Fraction) if kind == "integer" else float
            for cell in all_cells(table):
                exact = method_report(fam, method, cell).terms["lower_exact"]
                assert type(exact) is want, (method, cell)
        cover = Decomposition(tuple(VarSet.from_vars(v, 3) for v in ([1], *self.PAIRS)))
        for cell in all_cells(table):
            fan = compare_fan_vs_decomposition(fam, cover, cell).fan
            assert type(fan.terms["lower_exact"]) is (int if kind == "integer" else float)


class TestBoundReport:
    def test_crossed_bounds_rejected(self):
        from tablebounds.bounds import BoundReport

        with pytest.raises(RangeError):
            BoundReport(cell=(0,), lower=3, upper=2, formula="x", subsets=())
        with pytest.raises(RangeError):
            BoundReport(cell=(0,), lower=-1, upper=2, formula="x", subsets=())
