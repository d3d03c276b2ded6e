"""Bound plans from structure recipes: a recipe is worked out once per
(variable count, released masks) and shared by every family of that
structure, whatever its cardinalities, counts and kind; it holds no array
and no count, and its refusals are raised anew, alike, for each family."""

import gc
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest

from tablebounds import (
    ContingencyTable,
    Decomposition,
    MarginalFamily,
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
    simple_frechet,
)
from tablebounds import bounds as tb_bounds
from tablebounds.bounds import method_report

PAIRS = ([1, 2], [1, 3], [2, 3])
ONE_WAY = ([1], [2], [3])
# Every spelling on a 3-way family, those that refuse on pairs or on one-way
# margins included.
METHODS = (
    "simple", "best", "3way", "3way:one-dim", "3way:two-dim", "3way:bogus",
    "ddim:0", "ddim:1", "ddim:2", "ddim:3", "ddim:4",
    "decomp:{1,2}|{2,3}", "decomp:{1,2}|{1,3}|{2,3}", "decomp:{1}|{2}|{3}",
    "decomp:{1,2,3}", "decomp:{1}|{3}",
    "fan:{1,2}|{1,3}|{2,3},1", "fan:{1,2}|{1,3}|{2,3},2", "fan:{1,2}|{1,3}|{2,3},3",
    "fan:{1,2}|{2,3},1", "fan:{1}|{2}|{3},1", "fan:{1,2}|{1,2,3},1",
)


def vs(*groups):
    return tuple(VarSet.from_vars(g, 3) for g in groups)


def views(cell):
    """(name, per-cell function of a family) for every per-cell entry point."""
    out = [
        ("simple_frechet", lambda f: simple_frechet(f, cell)),
        ("best_bounds", lambda f: best_bounds(f, cell)),
        ("decomposition_bound",
         lambda f: decomposition_bound(f, Decomposition(vs(*PAIRS[:2])), cell)),
        ("fan_lower_bound", lambda f: fan_lower_bound(f, vs(*PAIRS), 1, cell)),
    ]
    for basis in ("one-dim", "two-dim"):
        out.append((basis, lambda f, b=basis: frechet_3way(f, cell, b)))
    for d in (1, 2, 3):
        out.append((f"ddim {d}", lambda f, d=d: frechet_ddim(f, cell, d)))
        out.append((f"kwerel {d}", lambda f, d=d: kwerel_form(f, cell, d)))
    for cover in (PAIRS, ONE_WAY, ([1, 2], [2, 3], [1, 3])):
        compare = lambda f, c=cover: compare_fan_vs_decomposition(  # noqa: E731
            f, Decomposition(vs(*c)), cell
        )
        out.append((f"compare {cover}", compare))
    return out


def typed(value):
    """A value with the type of every part, so that 1, 1.0 and Fraction(1)
    and int64 or object arrays tell apart; dicts keep their order."""
    if isinstance(value, dict):
        return ("dict", [(k, typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [typed(v) for v in value])
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.tolist())
    if isinstance(value, tb_bounds.BoundReport):
        return ("report", typed(value.cell), typed(value.lower), typed(value.upper),
                value.formula, typed(value.subsets), typed(dict(value.terms)))
    if isinstance(value, tb_bounds.FanDecompositionComparison):
        return ("comparison", typed(value.decomposition), typed(value.fan),
                typed(value.fan_missing), value.dominance_holds)
    if isinstance(value, tb_bounds.KwerelStats):
        return ("kwerel", typed(value.s_d), typed(value.p_full), value.d)
    if isinstance(value, VarSet):
        return ("VarSet", value.mask, value.num_vars)
    if callable(value):  # read at a cell by the reports
        return ("callable",)
    return (type(value).__name__, repr(value))


def outcome(fn):
    try:
        return typed(fn())
    except (RangeError, MissingMarginalError) as err:
        return ("refused", type(err).__name__, str(err), typed(getattr(err, "missing", None)))


def everything(fam):
    """Every spelling's plan arrays and report, and every view, at every cell."""
    out = []
    cells = list(itertools.product(*(range(c) for c in fam.cardinalities)))
    for method in METHODS:
        plan = lambda: tb_bounds._method_plan(fam, method)  # noqa: E731
        out.append(outcome(lambda: (plan().lower, plan().upper, plan().terms)))
        out += [outcome(lambda: method_report(fam, method, cell)) for cell in cells]
    for cell in cells:
        out += [(name, outcome(lambda: view(fam))) for name, view in views(cell)]
    return out


def table(cards, seed, kind):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 5, int(np.prod(cards)))
    if kind == "real":
        return ContingencyTable.from_flat(cards, counts / 3, kind="real")
    # A total near 2^62: the sums of every plan with two or more terms on a
    # side could pass int64, so they are summed in Python ints.
    scale = 2**62 // max(1, int(counts.sum())) if kind == "python-int" else 1
    return ContingencyTable.from_flat(cards, [int(c) * scale for c in counts])


KINDS = ("int64", "real", "python-int")
SHAPES = ((2, 2, 2), (3, 2, 2), (2, 3, 2))


def tables():
    """(kind, table) of one structure's families: they differ in
    cardinalities, counts and kind."""
    return [
        (kind, table(cards, seed, kind))
        for seed, (cards, kind) in enumerate(itertools.product(SHAPES, KINDS))
    ]


def one_structure(groups):
    return [MarginalFamily.from_table(t, vs(*groups)) for _, t in tables()]


def clear_recipes():
    tb_bounds._recipe.cache_clear()
    tb_bounds._read.cache_clear()


@pytest.mark.parametrize("groups", [PAIRS, ONE_WAY], ids=["pairs", "one-way"])
def test_shared_recipes_give_the_build_from_scratch(groups):
    clear_recipes()
    shared = [everything(fam) for fam in one_structure(groups)]  # recipes reused
    assert tb_bounds._recipe.cache_info().hits > 0
    for (_, t), got in zip(tables(), shared):
        clear_recipes()
        assert everything(MarginalFamily.from_table(t, vs(*groups))) == got


@pytest.mark.parametrize(
    "groups, method, kind, missing",
    [
        (ONE_WAY, "ddim:2", MissingMarginalError, [[1, 2], [1, 3], [2, 3]]),
        (ONE_WAY, "3way:two-dim", MissingMarginalError, [[1, 2], [1, 3], [2, 3]]),
        (PAIRS, "decomp:{1,2,3}", MissingMarginalError, [[1, 2, 3]]),
        (PAIRS, "ddim:0", RangeError, None),
        (PAIRS, "simple", RangeError, None),
        (PAIRS, "decomp:{1}|{3}", RangeError, None),
        (PAIRS, "fan:{1,2},4", RangeError, None),
    ],
)
def test_a_refused_recipe_refuses_alike_on_every_family(groups, method, kind, missing):
    clear_recipes()
    errors = []
    for fam in one_structure(groups):
        with pytest.raises(kind) as caught:
            method_report(fam, method, (0, 0, 0))
        errors.append(caught.value)
    first = errors[0]
    assert len({id(e) for e in errors}) == len(errors)  # raised anew each time
    for err in errors:
        assert type(err) is kind and str(err) == str(first)
        if missing is not None:
            assert err.missing == vs(*missing)
    assert tb_bounds._recipe.cache_info().hits >= len(errors) - 1


def walk(value, seen):
    """Every object reachable from a recipe through tuples, lists and dicts."""
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from walk(v, seen)


def test_cached_recipes_hold_no_array_and_no_family():
    clear_recipes()
    fams = one_structure(PAIRS) + one_structure(ONE_WAY)
    for fam in fams:
        everything(fam)
    keys = {(fam.num_vars, fam._masks, build, key) for fam in fams for build, key in fam._plans}
    ddim = tb_bounds._ddim_plan.__wrapped__  # and the refusals, which no family keeps
    keys |= {(3, fam._masks, ddim, (d,)) for fam in fams for d in (0, 2, 3, 4)}
    hits = tb_bounds._recipe.cache_info().hits
    recipes = [tb_bounds._recipe(build, l, masks, *key) for l, masks, build, key in keys]
    assert tb_bounds._recipe.cache_info().hits == hits + len(keys)  # all cached
    kinds = set()
    for recipe in recipes:
        kinds.add(type(recipe).__name__)
        for part in walk(recipe, set()):
            assert not isinstance(part, (np.ndarray, np.generic, MarginalFamily)), type(recipe)
            assert not callable(part) or isinstance(part, type), type(recipe)
    assert kinds == {"_Recipe", "_Refusal"}
    # Released data does not outlive its family through the caches.
    probe = weakref.ref(fams[-1].released[1].table.counts)
    del fams, fam, recipes
    gc.collect()
    assert probe() is None


def test_recipe_caches_are_bounded():
    for cache in (tb_bounds._recipe, tb_bounds._read):
        assert isinstance(cache.cache_info().maxsize, int)


def test_exact_lowers_keep_their_types_across_kinds():
    # One recipe, three kinds: the lower_exact and the inequality's values
    # of an integer family read from int64 or from object arrays of Python
    # ints, a real family's from float64.
    clear_recipes()
    dtypes = {"int64": np.int64, "python-int": object, "real": np.float64}
    for kind, t in tables()[:3]:
        fam = MarginalFamily.from_table(t, vs(*PAIRS))
        terms = method_report(fam, "ddim:2", (0, 0, 0)).terms
        assert type(terms["lower_exact"]) is (float if kind == "real" else Fraction)
        for entry in terms["inequality"]:
            assert type(entry["value"]) is (float if kind == "real" else int)
        plan = tb_bounds._ddim_plan(fam, 2)
        assert plan.terms["inequality"][0]["value"].dtype == dtypes[kind]


def test_require_lists_what_a_recipe_refuses():
    fam = one_structure(ONE_WAY)[0]
    fam.require(vs([1], [], [2]))
    with pytest.raises(MissingMarginalError) as caught:
        fam.require(vs([2, 3], [1, 2], [2, 3], [3]))
    assert caught.value.missing == vs([1, 2], [2, 3])
    with pytest.raises(MissingMarginalError) as recipe:
        method_report(fam, "decomp:{2,3}|{1,2}", (0, 0, 0))
    assert (str(recipe.value), recipe.value.missing) == (str(caught.value), caught.value.missing)
