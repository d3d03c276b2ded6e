"""The all-pairs kernel (``lattice._first_violation``) against the plain-Python
references: seeded random grids of every kind of shape, planted violations
at the places its block geometry makes special, and the edges of the
narrowest exact integer dtype."""

import itertools
import operator
from math import comb, prod

import numpy as np
import pytest

from tablebounds import (
    ContingencyTable,
    LatticeFunction,
    is_mtp2_additive,
    is_mtp2_multiplicative,
    is_submodular,
    is_supermodular,
)
from tablebounds import lattice
from test_lattice import first_supermodular_violation
from test_positivity import first_violation

SHAPES = [(2,) * l for l in range(12)] + [
    (3, 4, 2), (3, 3, 2, 2), (4, 3, 5), (2, 3, 2, 3, 2), (3, 4) + (2,) * 6,
    (1,), (1, 3, 1, 2), (1, 1, 4), (70,), (70, 2), (2, 70),
]
FULL_SCAN_CELLS = 256  # the references scan every pair of a passing grid


def shape_id(shape):
    return "x".join(map(str, shape)) or "0-d"


def level(shape):
    """Each cell's coordinate sum, flat."""
    return np.indices(shape).reshape(len(shape), prod(shape)).sum(axis=0)


def scans(shape, values):
    """Every exhaustive pair checker's flat witness pair (None when it
    passes): the MTP2 checks on a table of ``values`` and, on binary
    shapes, the supermodular and submodular checks of 2^L."""
    got = {}
    kind = "real" if np.asarray(values).dtype.kind == "f" else "integer"
    if all(c == 2 for c in shape):  # 2^L, the 0-d grid included
        fn = LatticeFunction(len(shape), np.asarray(values))
        for name, check in (("sup", is_supermodular), ("sub", is_submodular)):
            res = check(fn, "exhaustive")
            got[name] = None if res.ok else (res.witness.a.mask, res.witness.b.mask)
    total = sum(int(v) for v in values) if kind == "integer" else 0
    if total < 2**63:
        table = ContingencyTable.from_flat(shape, list(values), kind=kind)
        for name, check in (("add", is_mtp2_additive), ("mul", is_mtp2_multiplicative)):
            res = check(table, "exhaustive")
            got[name] = None if res.ok else tuple(
                int(np.ravel_multi_index(c, shape)) for c in (res.witness.a, res.witness.b)
            )
    return got


def references(shape, values, names):
    """The plain-Python first violation of each scan in ``names``."""
    values = [v.item() if hasattr(v, "item") else v for v in values]
    l = len(shape)
    ref = {
        "sup": lambda: first_supermodular_violation(values, l),
        "sub": lambda: first_supermodular_violation([-v for v in values], l),
        "add": lambda: first_violation(values, shape, operator.add),
        "mul": lambda: first_violation(values, shape, operator.mul),
    }
    return {name: ref[name]() for name in names}


def draws(shape, rng):
    """(kind, values, reference values) per draw: noise, which breaks
    early; a strictly supermodular grid, poked at one cell or not; the poked
    grid lifted near 2^63, so sums compare as Python ints (in 2^L; its table
    is refused), or to a total near 2^62, so products do; and as reals with
    noise far inside the slack, referred to the values without it."""
    n = prod(shape)
    s = level(shape)
    base = s * (s - 1)  # slack 2 d_x d_y on an incomparable pair
    poked = base.copy()
    poked[int(rng.integers(n))] += 3
    out = [("noise", rng.integers(0, 5, size=n))]
    if n <= FULL_SCAN_CELLS:
        out += [("supermodular", base), ("poked", poked)]
        out.append(("object-sums", poked * ((2**63 - 1) // int(poked.max()))))
        out.append(("object-products", poked * (2**62 // int(poked.sum()))))
        real = poked.astype(float) * 1000.0
        noisy = real + rng.random(n) * 1e-12 * real.max()
        out.append(("real", noisy, real))
    return [(k, v, r[0] if r else v) for k, v, *r in out]


@pytest.mark.parametrize("pair_block", ["default", "one-block-steps"])
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_random_grids_match_reference(shape, pair_block, monkeypatch):
    # One-block steps make every row block take one step per block of
    # columns, so the steps past a hit are scanned on every shape.
    if pair_block == "one-block-steps":
        monkeypatch.setattr(lattice, "PAIR_BLOCK", 1)
    rng = np.random.default_rng([11, prod(shape), len(shape)])
    for kind, values, plain in draws(shape, rng):
        got = scans(shape, values)
        expected = references(shape, plain, got)
        assert got == expected, (kind, values.tolist())


def geometry(shape):
    """(w, column blocks per step) of the scan."""
    w = lattice._pair_blocks(shape)[0]
    return w, max(1, lattice.PAIR_BLOCK // (w * w))


def local_pairs(shape):
    """Every incomparable pair one step apart on two axes, as flat (x, y),
    x < y: those whose only violation a planted grid can make."""
    for m in itertools.product(*map(range, shape)):
        for p, q in itertools.combinations(range(len(shape)), 2):
            if m[p] + 1 < shape[p] and m[q] + 1 < shape[q]:
                u, v = list(m), list(m)
                u[p] += 1
                v[q] += 1
                yield tuple(sorted(int(np.ravel_multi_index(c, shape)) for c in (u, v)))


def planted(shape, pairs, multiplicative):
    """A grid whose only violating pairs are ``pairs``: S(S - 1) (products:
    2^C(S, 2)) at coordinate sum S, with slack 2 d_x d_y (products: a
    factor 2^(d_x d_y)) on an incomparable pair whose cells sit d_x and
    d_y above its meet, raised by 2 (doubled) at both cells of each pair."""
    s = level(shape)
    if multiplicative:
        values = [1 << comb(int(t), 2) for t in s]
    else:
        values = [int(t) * (int(t) - 1) for t in s]
    for pair in pairs:
        for cell in pair:
            values[cell] = 2 * values[cell] if multiplicative else values[cell] + 2
    return values


def pick(shape, where):
    """The pairs to plant so that the first violation sits ``where`` in
    the block geometry: the first of them, or the second of two."""
    w, step = geometry(shape)
    pairs = list(local_pairs(shape))

    def first(test):
        return next(p for p in pairs if p[0] >= w and test(*divmod(p[0], w), *divmod(p[1], w)))

    if where == "row-block-first-row":
        return [first(lambda a, i, b, j: i == 0 and b > a)]
    if where == "chunk-last-column":
        return [first(lambda a, i, b, j: j == w - 1 and (b - a) % step == step - 1)]
    if where == "diagonal-block":
        return [first(lambda a, i, b, j: a == b)]
    # A later row of a block breaks in its first step, an earlier one only
    # in a later step: the later step is scanned too, and wins.
    late = first(lambda a, i, b, j: b - a >= step and i < w - 1)
    a, i = divmod(late[0], w)
    early = next(
        p for p in pairs
        if divmod(p[0], w)[0] == a and divmod(p[0], w)[1] > i and p[1] // w - a < step
        and not set(p) & set(late)
    )
    return [early, late]


@pytest.mark.parametrize(
    "where", ["row-block-first-row", "chunk-last-column", "diagonal-block", "later-step-wins"]
)
@pytest.mark.parametrize("multiplicative", [False, True], ids=["add", "mul"])
@pytest.mark.parametrize("shape", [(2,) * 10, (3, 4) + (2,) * 6], ids=shape_id)
def test_planted_violation_found_where_the_blocks_put_it(shape, multiplicative, where):
    pairs = pick(shape, where)
    expected = min(pairs) if where != "later-step-wins" else pairs[1]
    values = planted(shape, pairs, multiplicative)
    name = "mul" if multiplicative else "add"
    # On 2^L the additive condition's reference is the faster lattice one.
    ref = "sup" if name == "add" and set(shape) == {2} else name
    assert references(shape, values, [ref]) == {ref: expected}
    got = scans(shape, np.array(values, dtype=np.int64))
    assert got[name] == expected
    if ref == "sup":  # the same pair in 2^L, negated too
        assert got["sup"] == expected
        negated = LatticeFunction(10, np.array([-v for v in values]))
        res = is_submodular(negated, "exhaustive")
        assert (res.witness.a.mask, res.witness.b.mask) == expected


@pytest.mark.parametrize(
    "big, multiplicative, dtype",
    [
        (2**30 - 1, False, np.int32), (2**30, False, np.int64),
        (46_340, True, np.int32), (46_341, True, np.int64),
        (2**62 - 1, False, np.int64), (2**62, False, object),
        (3_037_000_499, True, np.int64), (3_037_000_500, True, object),
    ],
)
def test_narrowest_exact_dtype(big, multiplicative, dtype):
    # [[0, big], [big, 0]] breaks both conditions at cells 1 and 2 by a sum
    # (product) one past the narrower dtype's limit when big is one past the
    # limit the narrower dtype holds: a wrapped sum would hide it.
    grid = np.array([[0, big], [big, 0]], dtype=np.int64)
    flat = grid.reshape(-1)
    for values, negate in ((flat, False), (-flat, False), (-flat, True)):
        assert lattice._exact(values, multiplicative, negate)[0].dtype == dtype
    for mode in ("exhaustive", "local"):
        assert lattice.pair_violation(grid, mode, multiplicative) == (1, 2)
        assert lattice.pair_violation(-grid, mode, multiplicative, negate=True) == (1, 2)
        assert (lattice.pair_violation(-grid, mode, multiplicative) is None) != multiplicative
    if not multiplicative:  # the public checks, negation included
        assert not is_supermodular(LatticeFunction(2, [0, big, big, 0]), "exhaustive").ok
        res = is_submodular(LatticeFunction(2, [0, -big, -big, 0]), "exhaustive")
        assert (res.witness.a.mask, res.witness.b.mask, res.witness.lhs) == (1, 2, 0)


@pytest.mark.parametrize("l", [13, 14, 16, 18, 24])
def test_slabs_stay_within_their_cap(l):
    # Past 2^14 cells the low suffix shrinks so that the two slabs of w
    # values per cell stay within _SLAB_CELLS; on 2^24 it is empty.
    w = lattice._pair_blocks((2,) * l)[0]
    assert w == min(lattice._LOW_CELLS, max(1, lattice._SLAB_CELLS >> l))
    if l == 18:  # an early violation costs no full-size slabs' worth of time
        values = np.random.default_rng(18).integers(0, 5, size=1 << l)
        res = is_supermodular(LatticeFunction(l, values), "exhaustive")
        expected = first_supermodular_violation(values.tolist(), l)
        assert (res.witness.a.mask, res.witness.b.mask) == expected
