"""Tables, marginalization, projection, and the anchored marginal function."""

import dataclasses
import itertools
import pickle
from math import prod

import numpy as np
import pytest

import tablebounds.table as table_module

from tablebounds import (
    ContingencyTable,
    CountRangeError,
    Decomposition,
    ExpFamily,
    LatticeCapError,
    LatticeFunction,
    MarginalFamily,
    MarginalTable,
    RangeError,
    SchemaError,
    VarSet,
    anchored_margin_observable,
    best_bounds,
    cell_margin_fn,
    decomposition_bound,
    expfam_log_density,
    fan_evaluate,
    fan_lower_bound,
    fkg_covariance,
    is_decreasing,
    is_supermodular,
    marginalize,
    meet_restriction,
    project_cell,
)
from tablebounds.datasets import lead_table
from tablebounds.io import family_from_doc, table_from_doc
from tablebounds.table import INT64_MAX, MARGIN_CUBE_CAP


@pytest.fixture
def lead():
    return lead_table()


def _relative(outer, inner):
    """Re-index ``inner`` (a subset of ``outer``) over outer's own axes."""
    positions = {v: i + 1 for i, v in enumerate(outer.vars)}
    return VarSet.from_vars([positions[v] for v in inner.vars], len(outer))


def random_table(rng, max_vars=4, max_card=3, max_count=5):
    l = int(rng.integers(1, max_vars + 1))
    cards = tuple(int(c) for c in rng.integers(2, max_card + 1, size=l))
    flat = rng.integers(0, max_count + 1, size=int(np.prod(cards)))
    return ContingencyTable.from_flat(cards, flat)


class TestVarSet:
    def test_roundtrip_and_order(self):
        a = VarSet.from_vars([1, 3], 3)
        assert a.vars == (1, 3)
        assert a.axes == (0, 2)
        assert len(a) == 2
        assert 1 in a and 2 not in a
        assert str(a) == "{1,3}"

    def test_lattice_ops(self):
        a = VarSet.from_vars([1, 2], 3)
        b = VarSet.from_vars([2, 3], 3)
        assert (a | b) == VarSet.full(3)
        assert (a & b) == VarSet.from_vars([2], 3)
        assert (a - b) == VarSet.from_vars([1], 3)
        assert a.complement() == VarSet.from_vars([3], 3)
        assert VarSet.empty(3) <= a <= VarSet.full(3)
        assert not a <= b

    def test_validation(self):
        with pytest.raises(RangeError):
            VarSet.from_vars([4], 3)
        with pytest.raises(RangeError):
            VarSet(mask=8, num_vars=3)
        with pytest.raises(RangeError):
            VarSet.from_vars([1], 2) | VarSet.from_vars([1], 3)

    @pytest.mark.parametrize("read", [
        lambda: VarSet.from_vars([1, 2, 1], 3),
        lambda: VarSet.from_vars(iter([2, 2]), 3),
        lambda: VarSet.parse("{1,1}", 2),
    ], ids=["list", "iterator", "parsed"])
    def test_repeated_variable_refused(self, read):
        with pytest.raises(RangeError, match="variable . listed twice"):
            read()

    def test_variables_are_integers(self):
        # Coerced as cell coordinates are: 1.0 is refused, not read as 1,
        # and a numpy integer leaves a Python int mask.
        with pytest.raises(RangeError, match="variable 1.0 is not an integer"):
            VarSet.from_vars([1.0], 2)
        with pytest.raises(RangeError, match="is not an integer"):
            VarSet.from_vars(["1"], 2)
        a = VarSet.from_vars([np.int64(1), np.int8(2)], 2)
        assert type(a.mask) is int and a == VarSet.full(2)
        b = VarSet(np.int64(5), np.int8(3))
        assert (type(b.mask), type(b.num_vars)) == (int, int)
        assert b == VarSet(5, 3) and hash(b) == hash(VarSet(5, 3)) and str(b) == "{1,3}"

    @pytest.mark.parametrize("build", [
        lambda: VarSet(1.0, 2),
        lambda: VarSet(1, 2.0),
        lambda: VarSet("1", 2),
        lambda: VarSet.from_vars(5, 2),
        lambda: ExpFamily(anchors=5, theta=[1.0]),
    ], ids=["float-mask", "float-num-vars", "text-mask", "number-as-variables",
            "number-as-anchors"])
    def test_non_integer_parts_refused(self, build):
        # Each once constructed and failed later, or raised a TypeError.
        with pytest.raises(RangeError):
            build()


def _lead_family():
    return MarginalFamily.from_table(
        lead_table(), [VarSet.from_vars([1], 2), VarSet.from_vars([2], 2)]
    )


# Each entry is handed one subset, sequence or function over three variables
# where the lead table's two are in play.
_THREE = VarSet.from_vars([1], 3)
_FN2, _FN3 = LatticeFunction(2, np.full(4, 0.25)), LatticeFunction(3, np.full(8, 0.125))


@pytest.mark.parametrize("call", [
    lambda: VarSet.full(2) | _THREE,
    lambda: VarSet.full(2) & _THREE,
    lambda: VarSet.full(2) - _THREE,
    lambda: VarSet.full(2) <= _THREE,
    lambda: VarSet.full(2) < _THREE,
    lambda: marginalize(lead_table(), _THREE),
    lambda: MarginalFamily((3, 3), [MarginalTable(_THREE, ContingencyTable.from_flat((3,), [1, 2, 3]))]),
    lambda: _lead_family().marginal(_THREE),
    lambda: _lead_family().grid(_THREE),
    lambda: _lead_family().value(_THREE, (0, 0)),
    lambda: _lead_family().is_derivable(_THREE),
    lambda: _lead_family().require([_THREE]),
    lambda: Decomposition((VarSet.full(2), _THREE)),
    lambda: decomposition_bound(_lead_family(), Decomposition((VarSet.full(3),)), (0, 0)),
    lambda: fan_lower_bound(_lead_family(), [VarSet.full(2), _THREE], 1, (0, 0)),
    lambda: _FN2.value(_THREE),
    lambda: _FN2(_THREE),
    lambda: meet_restriction(_FN2, _THREE),
    lambda: fan_evaluate(_FN2, [VarSet.full(2), _THREE], 1),
    lambda: expfam_log_density(
        ExpFamily(anchors=((0, 0),), theta=(1.0,), alpha=_THREE, theta2=(1.0,)), lead_table()
    ),
    lambda: fkg_covariance(_FN2, _FN3, _FN2),
    lambda: fkg_covariance(_FN2, _FN2, _FN3),
    lambda: anchored_margin_observable(lead_table(), (0, 0), _THREE),
], ids=["or", "and", "sub", "le", "lt", "marginalize", "family",
        "marginal", "grid", "value", "is-derivable", "require", "decomposition", "decomposition-bound",
        "fan-lower-bound", "fn-value", "fn-call", "meet-restriction", "fan-evaluate",
        "expfam-interaction", "fkg-h1", "fkg-h2", "observable"])
def test_wrong_variable_count_refused(call):
    with pytest.raises(RangeError, match="over 3 variables, expected 2"):
        call()


class TestContingencyTable:
    def test_lead_golden(self, lead):
        assert lead.cardinalities == (3, 3)
        assert lead.total == 34
        assert lead.value((0, 0)) == 7
        assert lead.cell_from_names(["Good", "High"]) == (2, 2)

    def test_invariants_enforced(self):
        with pytest.raises(RangeError):
            ContingencyTable.from_flat((2, 2), [1, 2, 3])  # wrong length
        with pytest.raises(RangeError):
            ContingencyTable.from_flat((2,), [1, -1])  # negative
        with pytest.raises(RangeError):
            ContingencyTable.from_flat((2,), [1, 2], labels=[["a"]])
        with pytest.raises(RangeError):
            ContingencyTable.from_flat((2,), [1.5, 2.5])  # non-integer counts

    def test_repeated_category_name_refused(self):
        # parse_cell reads a name as its first index, so a second category
        # of the same name could never be named.
        with pytest.raises(RangeError, match="name the category 'a' twice"):
            ContingencyTable.from_flat((2, 2), [1, 2, 3, 4], labels=[["a", "a"], ["x", "y"]])
        # Names are compared as the strings they are stored as.
        with pytest.raises(RangeError, match="name the category '1' twice"):
            ContingencyTable.from_flat((2, 2), [1, 2, 3, 4], labels=[["a", "b"], [1, "1"]])
        marginals = [marginalize(lead_table(), VarSet.from_vars([1], 2))]
        with pytest.raises(RangeError, match="axis 2 name the category 'y' twice"):
            MarginalFamily((3, 3), marginals, labels=[["a", "b", "c"], ["x", "y", "y"]])

    def test_non_integral_cell_refused(self, lead):
        # Truncated, 0.9 and 0.2 would read as the cell (0, 0).
        with pytest.raises(RangeError, match="integer coordinates"):
            lead.value((0.9, 0.2))
        fam = MarginalFamily.from_table(lead, [VarSet.from_vars([1], 2), VarSet.from_vars([2], 2)])
        with pytest.raises(RangeError, match="integer coordinates"):
            best_bounds(fam, (0.7, 0))
        assert lead.value((np.int64(1), np.int64(2))) == lead.value((1, 2)) == 3
        rep = best_bounds(fam, (np.int64(0), 0))
        assert rep.cell == (0, 0) and type(rep.cell[0]) is int

    def test_non_integral_cardinality_refused(self, lead):
        # Truncated, these read as a 2x2 table and a (2, 3) family.
        with pytest.raises(RangeError, match="cardinalities must be positive integers"):
            ContingencyTable((2.7, 2), [[1, 2], [3, 4]])
        with pytest.raises(RangeError, match="cardinalities must be positive integers"):
            ContingencyTable.from_flat((2, 2.0), [1, 2, 3, 4])
        marginals = [marginalize(lead, VarSet.from_vars([1], 2))]
        with pytest.raises(RangeError, match="cardinalities must be positive integers"):
            MarginalFamily((2.9, 3.5), marginals)
        table = ContingencyTable(np.array([2, 2]), [[1, 2], [3, 4]])
        assert table.cardinalities == (2, 2) and type(table.cardinalities[0]) is int
        fam = MarginalFamily((np.int64(3), np.int32(3)), marginals)
        assert fam.cardinalities == (3, 3) and type(fam.cardinalities[1]) is int

    def test_real_kind(self):
        t = ContingencyTable.from_flat((2,), [0.5, 1.25], kind="real")
        assert t.total == 1.75

    def test_counts_frozen(self, lead):
        with pytest.raises(ValueError):
            lead.counts[0, 0] = 99

    def test_equality_by_value(self, lead):
        assert lead_table() == lead_table() and not lead_table() != lead_table()
        counts = lead.counts.copy()
        counts[2, 1] += 1
        assert ContingencyTable(lead.cardinalities, counts, lead.labels) != lead
        relabelled = (lead.labels[0], ("a", "b", "c"))
        assert ContingencyTable(lead.cardinalities, lead.counts, relabelled) != lead
        assert ContingencyTable(lead.cardinalities, lead.counts) != lead
        # The same numbers as real counts: another kind, so another table.
        real = ContingencyTable(lead.cardinalities, lead.counts, lead.labels, kind="real")
        assert real != lead and lead != real
        assert real == ContingencyTable(lead.cardinalities, lead.counts * 1.0, lead.labels, "real")
        flat = lead.flat
        assert ContingencyTable.from_flat((9,), flat) != ContingencyTable.from_flat((3, 3), flat)
        assert lead != 34 and lead != "lead"
        with pytest.raises(TypeError, match="unhashable"):
            hash(lead)

    def test_equality_ignores_the_marginal_cube(self, lead):
        other = lead_table()
        cell_margin_fn(lead, (0, 0))
        assert lead._margin_cube is not None and "_margin_cube" not in other.__dict__
        assert lead == other and other == lead

    def test_marginal_tables_compare_by_value(self, lead):
        a = VarSet.from_vars([1], 2)
        assert marginalize(lead, a) == marginalize(lead_table(), a)
        assert marginalize(lead, a) != marginalize(lead, VarSet.from_vars([2], 2))


class TestMarginalize:
    def test_lead_rows(self, lead):
        assert marginalize(lead, VarSet.from_vars([1], 2)).table.flat.tolist() == [
            25,
            5,
            4,
        ]

    def test_lead_cols(self, lead):
        assert marginalize(lead, VarSet.from_vars([2], 2)).table.flat.tolist() == [
            8,
            7,
            19,
        ]

    def test_lead_total(self, lead):
        m = marginalize(lead, VarSet.empty(2))
        assert m.table.num_vars == 0
        assert m.table.total == 34

    def test_full_subset_is_identity(self, lead):
        m = marginalize(lead, VarSet.full(2))
        assert np.array_equal(m.table.counts, lead.counts)
        assert m.table.labels == lead.labels

    def test_out_of_range_subset(self, lead):
        with pytest.raises(RangeError):
            marginalize(lead, VarSet.from_vars([1], 3))

    def test_composition_exhaustive(self):
        # marginalize(marginalize(n, b), a) == marginalize(n, a) for a <= b
        rng = np.random.default_rng(42)
        for _ in range(25):
            table = random_table(rng)
            l = table.num_vars
            for b_mask in range(1 << l):
                b = VarSet(b_mask, l)
                outer = marginalize(table, b)
                for a_mask in range(1 << l):
                    if a_mask & ~b_mask:
                        continue
                    a = VarSet(a_mask, l)
                    via_b = marginalize(outer.table, _relative(b, a))
                    direct = marginalize(table, a)
                    assert np.array_equal(via_b.table.counts, direct.table.counts)

    @pytest.mark.parametrize("kind", ["integer", "real"])
    def test_derived_counts_equal_the_validated_constructor(self, kind):
        # marginalize does not validate the sums again; the constructor,
        # which validates in full, must give the same read-only counts.
        rng = np.random.default_rng(8)
        for _ in range(25):
            base = random_table(rng)
            cards, l = base.cardinalities, base.num_vars
            labels = [[f"x{j}{i}" for i in range(c)] for j, c in enumerate(cards)]
            counts = base.counts / 4 if kind == "real" else base.counts * 2**52
            table = ContingencyTable(cards, counts, labels, kind)
            for mask in range(1 << l):
                a = VarSet(mask, l)
                derived = marginalize(table, a).table
                drop = tuple(j for j in range(l) if j not in a.axes)
                full = ContingencyTable(
                    tuple(cards[j] for j in a.axes),
                    table.counts.sum(axis=drop),
                    [labels[j] for j in a.axes],
                    kind,
                )
                assert derived.counts.dtype == (np.int64 if kind == "integer" else np.float64)
                assert derived.counts.dtype == full.counts.dtype
                assert derived.counts.shape == full.counts.shape
                assert derived.counts.tobytes() == full.counts.tobytes()
                assert (derived.cardinalities, derived.labels, derived.kind) == (
                    full.cardinalities, full.labels, full.kind
                )
                assert derived.total == full.total
                assert not derived.counts.flags.writeable
                with pytest.raises(ValueError):
                    derived.counts[...] = 0

    def test_totals_conserved(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            table = random_table(rng)
            for mask in range(1 << table.num_vars):
                m = marginalize(table, VarSet(mask, table.num_vars))
                assert m.table.total == table.total


class TestExternalTablesValidated:
    """Tables from outside keep the full validation, through the
    constructor, ``from_flat`` and the document readers, with the same
    errors; only marginalize's own sums skip it."""

    REFUSED = [
        ([1, -1], "integer", RangeError, SchemaError, "counts must be nonnegative"),
        ([1.5, 2], "integer", RangeError, SchemaError, "non-integer counts"),
        ([2**62, 2**62], "integer", CountRangeError, CountRangeError,
         "counts sum beyond the int64 limit 9223372036854775807"),
        ([1e308, 1e308], "real", CountRangeError, CountRangeError,
         "counts sum beyond the float64 limit"),
    ]

    @pytest.mark.parametrize(
        "counts, kind, error, doc_error, message",
        REFUSED,
        ids=["negative", "fractional", "too-wide", "too-wide-real"],
    )
    def test_refused_with_todays_errors(self, counts, kind, error, doc_error, message):
        with pytest.raises(error, match=message):
            ContingencyTable((2,), np.array(counts), kind=kind)
        with pytest.raises(error, match=message):
            ContingencyTable.from_flat((2,), counts, kind=kind)
        doc = {"schema": 1, "kind": kind, "cardinalities": [2]}
        with pytest.raises(doc_error, match=f"^table: .*{message}"):
            table_from_doc({**doc, "counts": counts})
        marginals = [{"vars": [1], "counts": counts}]
        with pytest.raises(doc_error, match=f"^family.marginals\\[0\\]: .*{message}"):
            family_from_doc({**doc, "marginals": marginals})


class TestProjectCell:
    def test_examples(self):
        assert project_cell((0, 2), VarSet.from_vars([2], 2)) == (2,)
        assert project_cell((1, 0, 2), VarSet.from_vars([1, 3], 3)) == (1, 2)
        assert project_cell((1, 0, 2), VarSet.empty(3)) == ()
        assert project_cell((1, 0, 2), VarSet.full(3)) == (1, 0, 2)

    def test_length_mismatch(self):
        with pytest.raises(RangeError):
            project_cell((1, 0), VarSet.full(3))


class TestCellMarginFn:
    def test_lead_anchor(self, lead):
        fn = cell_margin_fn(lead, (0, 0))
        assert fn(VarSet.full(2)) == 7
        assert fn(VarSet.from_vars([1], 2)) == 25
        assert fn(VarSet.from_vars([2], 2)) == 8
        assert fn(VarSet.empty(2)) == 34

    def test_one_way(self):
        t = ContingencyTable.from_flat((2,), [3, 4])
        fn = cell_margin_fn(t, (0,))
        assert fn(VarSet.full(1)) == 3
        assert fn(VarSet.empty(1)) == 7

    def test_uniform_symmetry(self):
        t = ContingencyTable.from_flat((2, 2, 2), [1] * 8)
        for anchor in itertools.product(range(2), repeat=3):
            fn = cell_margin_fn(t, anchor)
            for mask in range(8):
                assert fn.values[mask] == 2 ** (3 - bin(mask).count("1"))

    def test_matches_marginalize_per_subset(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            table = random_table(rng)
            l = table.num_vars
            anchor = tuple(int(rng.integers(0, c)) for c in table.cardinalities)
            fn = cell_margin_fn(table, anchor)
            for mask in range(1 << l):
                a = VarSet(mask, l)
                expected = marginalize(table, a).value(project_cell(anchor, a))
                assert fn.values[mask] == expected

    def test_decreasing_and_supermodular(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            table = random_table(rng)
            anchor = tuple(int(rng.integers(0, c)) for c in table.cardinalities)
            fn = cell_margin_fn(table, anchor)
            assert is_decreasing(fn)
            assert is_supermodular(fn, "exhaustive")

    def test_lattice_cap(self):
        import tablebounds.varset as vs

        old = vs.LATTICE_CAP
        vs.LATTICE_CAP = 2
        try:
            t = ContingencyTable.from_flat((2, 2, 2), [1] * 8)
            with pytest.raises(LatticeCapError):
                cell_margin_fn(t, (0, 0, 0))
        finally:
            vs.LATTICE_CAP = old

    def test_bad_anchor(self, lead):
        with pytest.raises(RangeError):
            cell_margin_fn(lead, (3, 0))


def stacked_margin_fn(table, anchor):
    """The anchored function of a fresh copy of ``table`` that builds no
    marginal cube, so every axis is collapsed at the anchor."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "MARGIN_CUBE_CAP", 0)
        copy = ContingencyTable(table.cardinalities, table.counts, table.labels, table.kind)
        fn = cell_margin_fn(copy, anchor)
    assert copy._margin_cube is None
    return fn


def assert_bit_equal(fn, ref):
    assert fn.values.dtype == ref.values.dtype
    assert fn.values.tobytes() == ref.values.tobytes()


def random_anchor(rng, table):
    return tuple(int(rng.integers(0, c)) for c in table.cardinalities)


class TestMarginCube:
    """Anchored functions read from the marginal cube equal, bit for bit, the
    collapse of every axis at the anchor."""

    def test_random_shapes(self):
        rng = np.random.default_rng(23)
        shapes = [(), (1,), (5,), (1, 1, 1), (3, 1, 2), (1, 4, 1, 2)]
        shapes += [tuple(int(c) for c in rng.integers(1, 5, size=rng.integers(0, 7)))
                   for _ in range(60)]
        for cards in shapes:
            table = ContingencyTable.from_flat(cards, rng.integers(0, 50, size=prod(cards)))
            for anchor in itertools.islice(itertools.product(*map(range, cards)), 12):
                assert_bit_equal(cell_margin_fn(table, anchor), stacked_margin_fn(table, anchor))
            assert table._margin_cube.shape == tuple(c + 1 for c in cards)

    def test_real_tables_bit_equal(self):
        rng = np.random.default_rng(29)
        for _ in range(400):
            cards = tuple(int(c) for c in rng.integers(1, 12, size=rng.integers(0, 5)))
            if prod(c + 1 for c in cards) > MARGIN_CUBE_CAP:
                continue
            scale = 10.0 ** int(rng.integers(-6, 20))
            table = ContingencyTable.from_flat(cards, rng.random(prod(cards)) * scale, kind="real")
            anchor = random_anchor(rng, table)
            assert_bit_equal(cell_margin_fn(table, anchor), stacked_margin_fn(table, anchor))

    def test_total_near_int64_max(self):
        counts = [2**61, 2**61 - 3, 2**61, 2**61, 0, 1, 0, 1]
        table = ContingencyTable.from_flat((2, 2, 2), counts)
        assert table.total == INT64_MAX
        for anchor in itertools.product(range(2), repeat=3):
            fn = cell_margin_fn(table, anchor)
            assert_bit_equal(fn, stacked_margin_fn(table, anchor))
            assert fn.values[0] == INT64_MAX
            for mask in range(8):
                a = VarSet(mask, 3)
                assert fn.values[mask] == sum(
                    int(counts[k]) for k, cell in enumerate(itertools.product(range(2), repeat=3))
                    if project_cell(cell, a) == project_cell(anchor, a)
                )

    @pytest.mark.parametrize("cards, built", [((3,) * 7, True), ((3,) * 6 + (4,), False)])
    def test_at_and_past_the_cap(self, cards, built):
        entries = prod(c + 1 for c in cards)
        assert entries == MARGIN_CUBE_CAP if built else entries > MARGIN_CUBE_CAP
        rng = np.random.default_rng(31)
        table = ContingencyTable.from_flat(cards, rng.integers(0, 9, size=prod(cards)))
        for _ in range(3):
            anchor = random_anchor(rng, table)
            assert_bit_equal(cell_margin_fn(table, anchor), stacked_margin_fn(table, anchor))
        assert (table._margin_cube is not None) == built

    @pytest.mark.parametrize("kind", ["integer", "real"])
    @pytest.mark.parametrize(
        "cards",
        [(), (1,), (3, 2), (3, 4, 2, 2, 2), (3,) * 7, (3,) * 6 + (4,), (2,) * 10],
    )
    def test_equal_to_validated_functions(self, cards, kind):
        # Built without validation, on both sides of MARGIN_CUBE_CAP, an
        # anchored function equals the validating constructor's on its values.
        rng = np.random.default_rng(43)
        counts = rng.integers(0, 9, size=prod(cards))
        table = ContingencyTable.from_flat(cards, counts * (1.5 if kind == "real" else 1), kind=kind)
        for _ in range(3):
            fn = cell_margin_fn(table, random_anchor(rng, table))
            assert type(fn) is LatticeFunction and type(fn.num_vars) is int
            assert fn.num_vars == len(cards)
            assert fn.values.shape == (1 << len(cards),)
            assert fn.values.dtype == (np.int64 if kind == "integer" else np.float64)
            assert not fn.values.flags.writeable
            validated = LatticeFunction(fn.num_vars, np.array(fn.values))
            assert fn == validated
            assert_bit_equal(fn, validated)
            assert fn.integer_valued == (kind == "integer")
            assert repr(fn) == repr(validated)
        built = prod(c + 1 for c in cards) <= MARGIN_CUBE_CAP
        assert (table._margin_cube is not None) == built

    def test_built_once_read_only_and_not_state(self, lead):
        cell_margin_fn(lead, (0, 0))
        cube = lead._margin_cube
        assert cube is not None and not cube.flags.writeable
        cell_margin_fn(lead, (1, 2))
        assert lead._margin_cube is cube
        assert cube[3, 3] == lead.total and cube[0, 3] == 25 and cube[3, 0] == 8
        assert "_margin_cube" not in {f.name for f in dataclasses.fields(lead)}
        assert "cube" not in repr(lead)
        copy = pickle.loads(pickle.dumps(lead))
        assert "_margin_cube" not in copy.__dict__
        assert_bit_equal(cell_margin_fn(copy, (1, 2)), cell_margin_fn(lead, (1, 2)))
        # One-cell tables compare by value: a built cube takes no part.
        one, other = (ContingencyTable.from_flat((1,), [4]) for _ in range(2))
        cell_margin_fn(one, (0,))
        assert one._margin_cube is not None and "_margin_cube" not in other.__dict__
        assert one == other

    def test_marginalized_tables(self):
        rng = np.random.default_rng(37)
        table = ContingencyTable.from_flat((3, 2, 4), rng.integers(0, 9, size=24))
        for mask in range(8):
            marg = marginalize(table, VarSet(mask, 3)).table
            anchor = random_anchor(rng, marg)
            assert_bit_equal(cell_margin_fn(marg, anchor), stacked_margin_fn(marg, anchor))
            assert not marg._margin_cube.flags.writeable


class TestInt64Limit:
    """Counts whose grand total cannot fit in int64 are refused, naming the
    limit, before any sum can wrap."""

    def test_flat_total_beyond_int64_rejected(self):
        # int64 would have wrapped this total to -2**63.
        with pytest.raises(CountRangeError, match=str(2**63 - 1)):
            ContingencyTable.from_flat((2,), [2**62, 2**62])

    def test_total_at_limit_accepted(self):
        table = ContingencyTable.from_flat((2,), [2**62, 2**62 - 1])
        assert table.total == 2**63 - 1

    def test_family_of_2pow61_cells_names_limit(self):
        # Used to fail with a misleading "counts must be nonnegative".
        with pytest.raises(CountRangeError, match="int64 limit"):
            MarginalFamily.from_table(
                ContingencyTable.from_flat((2, 2), [2**61] * 4),
                [VarSet.from_vars([1], 2), VarSet.from_vars([2], 2)],
            )
        # A released marginal whose own total passes the limit is refused too.
        with pytest.raises(CountRangeError, match="int64 limit"):
            MarginalTable(
                VarSet.from_vars([1], 2), ContingencyTable.from_flat((2,), [2**62] * 2)
            )

    @pytest.mark.parametrize("count", [2**63, 2**64, 2**70, 2.0**63])
    def test_single_count_beyond_int64_rejected(self, count):
        with pytest.raises(CountRangeError):
            ContingencyTable.from_flat((2,), [count, 1])
