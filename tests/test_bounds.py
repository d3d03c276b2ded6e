"""Bound formulas: golden values, reduction identities, validity, dominance."""

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
from tablebounds.bounds import _3way_plan, _best_plan, _decomp_plan, bounds_grid
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


class TestFanLowerBound:
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


class TestBoundReport:
    def test_crossed_bounds_rejected(self):
        from tablebounds.bounds import BoundReport

        with pytest.raises(RangeError):
            BoundReport(cell=(0,), lower=3, upper=2, formula="x", subsets=())
        with pytest.raises(RangeError):
            BoundReport(cell=(0,), lower=-1, upper=2, formula="x", subsets=())
