"""Real-valued functions on the subset lattice 2^L and their structure checks.

A ``LatticeFunction`` stores one value per subset of {1, ..., l}, indexed by
bitmask. The checkers decide monotonicity and supermodularity

    F(a | b) + F(a & b) >= F(a) + F(b)

and return an explicit witness pair on failure: the lexicographically first
violating pair by mask. Constructors cover the indicator of an up-set,
cumulative (subset-sum) functions via the fast zeta transform, and the
two-sided Ky Fan inequality evaluator for sequences of lattice elements.

2^L is the grid (2,)*l with flat index equal to the mask, and supermodularity
there is the additive MTP2 condition on a table's cell grid: supermodularity
and both MTP2 checks run one pair kernel, ``_first_violation``, in both modes,
under one comparison rule (``_exact``). Integer values are compared exactly,
in Python integers once a sum could pass their dtype; real values with an
absolute tolerance of 1e-9 scaled by max(1, max|F|).

Every scan is a gather-and-compare over whole arrays, and ``argmax`` picks
the lexicographically first violation. The local mode gathers through the
flat (x, y, lo, hi) of every local pair, built once per grid shape and cached
read-only (``_local_pairs``). The monotone and all-pairs scans compare a
block of rows with all their partners at a time (``_first_in_blocks``):
blocks start small and grow to about PAIR_BLOCK pairs, so a scan that fails
early costs little more than one row and a long one keeps its temporaries
small. All-pairs meets and joins are the bitwise AND and OR of flat indices
on grids of binary axes, 2^L among them, and come from per-shape lookup
tables (``_meet_groups``) on any other grid.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations
from math import comb, isqrt, prod
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import CountRangeError, RangeError
from .varset import VarSet, check_lattice_cap

REAL_RTOL = 1e-9

# Blocked scans hold about this many pairs per temporary array. On a 2-core
# box (Python 3.11.7, numpy 2.4), blocks of 2^14 made the l=10 exhaustive
# scans about twice as slow as 2^13.
PAIR_BLOCK = 1 << 13
# Grids whose local pairs could pass this count (C(l, 2) times the cells
# bounds them) skip the cached index arrays, 32 bytes per pair, and compare
# shifted views one axis pair at a time.
LOCAL_PAIR_CAP = 1 << 18
# Cells per axis group of the all-pairs scan's meet tables, which hold
# MEET_GROUP^2 entries each.
MEET_GROUP = 64

# Guards for fan_evaluate: explicit failure beats silent combinatorial blowup.
FAN_SEQUENCE_CAP = 20
FAN_CHOOSE_CAP = 10**6


@dataclass(frozen=True)
class LatticeFunction:
    """A total function 2^L -> R, dense over all 2**num_vars bitmasks."""

    num_vars: int
    values: np.ndarray

    def __post_init__(self) -> None:
        check_lattice_cap(self.num_vars)
        vals = np.asarray(self.values)
        if vals.shape != (1 << self.num_vars,):
            raise RangeError(
                f"expected {1 << self.num_vars} values for {self.num_vars} "
                f"variables, got shape {vals.shape}"
            )
        if not np.issubdtype(vals.dtype, np.integer):
            vals = np.asarray(vals, dtype=np.float64)
            if not np.all(np.isfinite(vals)):
                raise RangeError("lattice function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def integer_valued(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)

    def value(self, a: VarSet):
        if a.num_vars != self.num_vars:
            raise RangeError("subset is over a different variable count")
        return self.values[a.mask].item()

    def __call__(self, a: VarSet):
        return self.value(a)

    def tolerance(self) -> float:
        """Comparison slack: the integer 0 for integers, scaled 1e-9 for reals."""
        if self.integer_valued:
            return 0
        scale = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        return REAL_RTOL * max(1.0, scale)


@dataclass(frozen=True)
class Witness:
    """A concrete violation of a checked inequality.

    ``a`` and ``b`` are the two lattice elements (or table cells, for the
    total-positivity checks) exhibiting the failure; re-evaluating the checked
    inequality on them reproduces ``lhs`` and ``rhs`` exactly. The violated
    comparison per kind:

    - ``monotone-violation``: lhs = F at the smaller argument of the failing
      ordered pair, rhs = F at the larger; the required direction failed.
    - ``supermodular-violation``: lhs = F(a|b) + F(a&b) < rhs = F(a) + F(b).
    - ``mtp2-violation``: lhs = combination at (a, b), rhs at (a^b, avb).
    """

    kind: str
    a: object
    b: object
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.ok


def _exact(values: np.ndarray, multiplicative: bool = False, negate: bool = False):
    """(values, slack) under the one comparison rule of every pair checker.

    Integer values keep the integer slack 0 and become Python ints when a
    two-term sum (``multiplicative``: product) could pass their dtype. Real
    values are divided by max(1, max|v|) and get slack REAL_RTOL: the
    absolute 1e-9 max(1, max|v|) (products: max(1, max|v|^2)) rescaled, so
    it and the compared terms stay finite. ``negate`` returns -values, which
    integers take in int64 while its two-term sums fit, else in Python ints.
    """
    values = np.asarray(values)
    if np.issubdtype(values.dtype, np.integer):
        big = max(-int(values.min()), int(values.max()))
        if negate:
            wide = np.int64 if big <= np.iinfo(np.int64).max // 2 else object
            return -values.astype(wide), 0
        limit = int(np.iinfo(values.dtype).max)
        if big > (isqrt(limit) if multiplicative else limit // 2):
            values = values.astype(object)
        return values, 0
    scaled = values / max(1.0, float(np.abs(values).max()))
    return (-scaled if negate else scaled), REAL_RTOL


@functools.lru_cache(maxsize=32)
def _local_pairs(shape: tuple[int, ...]) -> np.ndarray:
    """The flat indices of every local pair of a grid, as the rows
    (x, y, lo, hi) of one read-only array, columns sorted by (x, y):
    x = lo + e_q, y = lo + e_p for axes p < q, hi = lo + e_p + e_q."""
    cells = np.arange(prod(shape)).reshape(shape)
    strides = [prod(shape[k + 1 :]) for k in range(len(shape))]
    quads = [np.empty((4, 0), dtype=np.intp)]
    for p, q in combinations(range(len(shape)), 2):
        index = [slice(None)] * len(shape)
        index[p] = slice(0, shape[p] - 1)
        index[q] = slice(0, shape[q] - 1)
        lo = cells[tuple(index)].reshape(-1)
        sp, sq = strides[p], strides[q]
        quads.append(np.stack([lo + sq, lo + sp, lo, lo + sp + sq]))
    pairs = np.concatenate(quads, axis=1)
    pairs = np.ascontiguousarray(pairs[:, np.lexsort((pairs[1], pairs[0]))])
    pairs.setflags(write=False)
    return pairs


@functools.lru_cache(maxsize=32)
def _meet_groups(cards: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """Lookup tables for the meet of two cells, per group of adjacent axes
    with at most MEET_GROUP cells. A group's digit d(x) is the index of
    cell x's coordinates on its axes; ``table[d(x) * size + d(y)]`` is the
    flat offset of the meet's coordinates there (stride times the smaller
    coordinate, summed over the group's axes). Per group the read-only
    arrays are (d * size, d, table); the meet's flat index is the sum of the
    groups' lookups."""
    groups: list[list[int]] = []
    for k in reversed(range(len(cards))):
        if groups and prod(cards[j] for j in groups[-1]) * cards[k] <= MEET_GROUP:
            groups[-1].insert(0, k)
        else:
            groups.append([k])
    out = []
    for axes in groups:
        sub = [cards[k] for k in axes]
        size, stride = prod(sub), prod(cards[axes[-1] + 1 :])
        digit = np.arange(prod(cards)) // stride % size
        coords = np.indices(sub).reshape(len(sub), size)
        inner = [prod(sub[j + 1 :]) for j in range(len(sub))]
        lows = np.minimum(coords[:, :, None], coords[:, None, :])
        table = stride * np.tensordot(inner, lows, axes=1).reshape(-1)
        arrays = (digit * size, digit, table)
        for a in arrays:
            a.setflags(write=False)
        out.append(arrays)
    return tuple(out)


def _violates(x, y, lo, hi, multiplicative: bool, tol):
    """The pair condition: x + y > lo + hi + tol, or x * y > lo * hi + tol."""
    return x * y > lo * hi + tol if multiplicative else x + y > lo + hi + tol


def _first_local_violation(
    grid: np.ndarray, multiplicative: bool, tol
) -> Optional[tuple[int, int]]:
    """``_first_violation`` over the local pairs x = lo + e_q, y = lo + e_p
    (axes p < q), hi = lo + e_p + e_q: one gather through ``_local_pairs``,
    or four shifted views per axis pair on grids past LOCAL_PAIR_CAP."""
    if comb(grid.ndim, 2) * grid.size <= LOCAL_PAIR_CAP:
        pairs = _local_pairs(grid.shape)
        bad = _violates(*grid.reshape(-1)[pairs], multiplicative, tol)
        if not bad.any():
            return None
        k = int(np.argmax(bad))
        return int(pairs[0, k]), int(pairs[1, k])
    best = None
    for p, q in combinations(range(grid.ndim), 2):

        def shifted(dp, dq):
            index = [slice(None)] * grid.ndim
            index[p] = slice(dp, grid.shape[p] - 1 + dp)
            index[q] = slice(dq, grid.shape[q] - 1 + dq)
            return grid[tuple(index)]

        views = shifted(0, 1), shifted(1, 0), shifted(0, 0), shifted(1, 1)
        bad = _violates(*views, multiplicative, tol)
        if bad.any():
            at = np.unravel_index(int(np.argmax(bad)), bad.shape)
            x_at, y_at = list(at), list(at)
            x_at[q] += 1
            y_at[p] += 1
            pair = tuple(int(np.ravel_multi_index(c, grid.shape)) for c in (x_at, y_at))
            if best is None or pair < best:
                best = pair
    return best


def _first_in_blocks(rows: int, width: int, bad_rows) -> Optional[tuple[int, int]]:
    """The row-major first True of a boolean comparison built a block of
    rows at a time: ``bad_rows(start, stop)`` gives rows start..stop-1 and
    the column number of its first column; the first row is ``width`` long.
    The first block holds about PAIR_BLOCK/16 pairs and each later one four
    times as many, up to PAIR_BLOCK, in whole rows (at least one). Returns
    (row, column), or None.

    The exhaustive scans check a condition that is symmetric in the pair and
    holds on the diagonal, so each block meets only the columns past its
    first row. A row's columns up to itself then hold its own pair, which
    never violates, or the pair of an earlier row of the block: the first
    row with a violation is the first row of any violating pair, and its
    first violating column lies past it."""
    start, budget = 0, PAIR_BLOCK >> 4
    while start < rows:
        stop = min(rows, start + max(1, budget // max(1, width)))
        bad, first_col = bad_rows(start, stop)
        hit = bad.any(axis=1)
        if hit.any():
            row = int(np.argmax(hit))
            return start + row, first_col + int(np.argmax(bad[row]))
        start, width, budget = stop, bad.shape[1], min(4 * budget, PAIR_BLOCK)
    return None


def _first_violation(grid, multiplicative: bool, tol, local: bool) -> Optional[tuple[int, int]]:
    """The lexicographically first flat pair (x, y), x < y, of a grid that
    violates the pair condition (``_violates``), lo and hi the pair's
    componentwise meet and join; None when there is none. ``local`` scans
    local pairs only (``_first_local_violation``).

    Otherwise rows x meet, a block at a time, every y past the block's first
    row (``_first_in_blocks``); comparable pairs hold with equality. On grids
    of binary axes (2^L among them) strides are powers of two, so meet and
    join are the AND and OR of flat indices; elsewhere the meet comes from
    ``_meet_groups`` and the join is x + y - meet."""
    if local:
        return _first_local_violation(grid, multiplicative, tol)
    flat, n = grid.reshape(-1), grid.size
    cells = np.arange(n)
    binary = all(c <= 2 for c in grid.shape)
    groups = () if binary else _meet_groups(grid.shape)

    def bad_rows(start, stop):
        rows, cols = cells[start:stop, None], cells[start + 1 :]
        if binary:
            meet, join = rows & cols, rows | cols
        else:
            meet = sum(t[s[start:stop, None] + d[start + 1 :]] for s, d, t in groups)
            join = rows + cols - meet
        x, y = flat[start:stop, None], flat[start + 1 :]
        return _violates(x, y, flat.take(meet), flat.take(join), multiplicative, tol), start + 1

    return _first_in_blocks(n - 1, n - 1, bad_rows)


def _monotone_check(fn: LatticeFunction, increasing: bool) -> CheckResult:
    """Check all covering pairs (a, a|{j}); equivalent to all pairs by
    transitivity. Row a compares with a | 2^j for every j; where bit j is in
    a that is a itself, which never violates, so no pair needs masking."""
    vals, tol = _exact(fn.values)
    masks = np.arange(vals.size)
    bits = 1 << np.arange(fn.num_vars)

    def bad_rows(start, stop):
        below = vals[start:stop, None]
        above = vals.take(masks[start:stop, None] | bits)
        return (above + tol < below if increasing else below + tol < above), 0

    pair = _first_in_blocks(vals.size, fn.num_vars, bad_rows)
    if pair is None:
        return CheckResult(True)
    a, b = pair[0], pair[0] | 1 << pair[1]
    witness = Witness(
        kind="monotone-violation",
        a=VarSet(a, fn.num_vars),
        b=VarSet(b, fn.num_vars),
        lhs=fn.values[a].item(),
        rhs=fn.values[b].item(),
    )
    return CheckResult(False, witness)


def is_decreasing(fn: LatticeFunction) -> CheckResult:
    """True iff F(a) >= F(b) whenever a is a subset of b."""
    return _monotone_check(fn, increasing=False)


def is_increasing(fn: LatticeFunction) -> CheckResult:
    """True iff F(a) <= F(b) whenever a is a subset of b."""
    return _monotone_check(fn, increasing=True)


def _supermodular_witness(fn: LatticeFunction, a: int, b: int) -> Witness:
    value = fn.values.item
    return Witness(
        kind="supermodular-violation",
        a=VarSet(a, fn.num_vars),
        b=VarSet(b, fn.num_vars),
        lhs=value(a | b) + value(a & b),
        rhs=value(a) + value(b),
    )


def _supermodular_check(fn: LatticeFunction, mode: str, negate: bool) -> CheckResult:
    """The first pair (a, b), a < b, with G(a|b) + G(a&b) < G(a) + G(b), where
    G is F (``negate``: -F, taken without wrapping), in the mode's pairs."""
    if mode not in ("local", "exhaustive"):
        raise RangeError(f"unknown supermodularity mode {mode!r}")
    vals, tol = _exact(fn.values, negate=negate)
    pair = _first_violation(vals.reshape((2,) * fn.num_vars), False, tol, mode == "local")
    if pair is None:
        return CheckResult(True)
    return CheckResult(False, _supermodular_witness(fn, *pair))


def is_supermodular(
    fn: LatticeFunction, mode: Literal["local", "exhaustive"] = "local"
) -> CheckResult:
    """Check F(a|b) + F(a&b) >= F(a) + F(b).

    ``local`` checks F(a|{i,j}) + F(a) >= F(a|{i}) + F(a|{j}) for all a and
    i != j outside a, which is equivalent on 2^L and costs O(l^2 2^l).
    ``exhaustive`` scans all pairs a < b (the inequality is symmetric and
    holds at a = b) and serves as the oracle mode. The witness, when present,
    is the lexicographically first violating pair the mode scans; ``local``
    gives (a|{i}, a|{j}) with bit i below bit j.
    """
    return _supermodular_check(fn, mode, negate=False)


def is_submodular(
    fn: LatticeFunction, mode: Literal["local", "exhaustive"] = "local"
) -> CheckResult:
    """Dual check, F(a|b) + F(a&b) <= F(a) + F(b); equivalent to -F supermodular."""
    return _supermodular_check(fn, mode, negate=True)


def indicator_fn(s: VarSet) -> LatticeFunction:
    """The indicator of the up-set of s: F(a) = 1 if s is a subset of a, else 0."""
    check_lattice_cap(s.num_vars)
    masks = np.arange(1 << s.num_vars)
    return LatticeFunction(s.num_vars, ((masks & s.mask) == s.mask).astype(np.int64))


def subset_sum_transform(values: np.ndarray, num_vars: int) -> np.ndarray:
    """Fast zeta transform: out[a] = sum of values[s] over s subset of a, O(l 2^l).

    Integer values sum in int64; they are refused when the sum of their
    absolute values, which bounds every partial sum, passes int64."""
    out = np.array(values, copy=True)
    if out.shape != (1 << num_vars,):
        raise RangeError("value array length must be 2**num_vars")
    if np.issubdtype(out.dtype, np.integer):
        limit = int(np.iinfo(np.int64).max)
        big = max(-int(out.min()), int(out.max())) > limit // out.size
        if big and sum(abs(int(v)) for v in out.flat) > limit:
            raise CountRangeError(f"subset sums could pass the int64 limit {limit}")
        out = out.astype(np.int64)
    masks = np.arange(1 << num_vars)
    for j in range(num_vars):
        bit = 1 << j
        upper = masks[(masks & bit) != 0]
        out[upper] += out[upper ^ bit]
    return out


def cumulative_fn(g: LatticeFunction) -> LatticeFunction:
    """H(a) = sum of G(s) over s subset of a, for nonnegative G.

    Nonnegativity is what makes the result increasing and supermodular, so it
    is enforced rather than assumed, as is that H fits int64.
    """
    if np.any(np.asarray(g.values) < 0):
        bad = int(np.argmax(np.asarray(g.values) < 0))
        raise RangeError(
            f"cumulative_fn requires nonnegative input; G({VarSet(bad, g.num_vars)}) < 0"
        )
    return LatticeFunction(g.num_vars, subset_sum_transform(g.values, g.num_vars))


def meet_restriction(fn: LatticeFunction, alpha: VarSet) -> LatticeFunction:
    """G(a) = F(a & alpha). Decreasing/increasing F stays so; useful for FKG."""
    if alpha.num_vars != fn.num_vars:
        raise RangeError("restriction set is over a different variable count")
    masks = np.arange(1 << fn.num_vars)
    return LatticeFunction(fn.num_vars, np.asarray(fn.values)[masks & alpha.mask])


def random_supermodular_fn(
    num_vars: int, rng: np.random.Generator, integer: bool = True, scale: int = 10
) -> LatticeFunction:
    """A guaranteed increasing + supermodular function.

    Draws i.i.d. nonnegative mass per subset and returns its cumulative
    function; no rejection sampling needed.
    """
    size = 1 << num_vars
    if integer:
        g = rng.integers(0, scale, size=size, dtype=np.int64)
    else:
        g = rng.random(size) * scale
    return cumulative_fn(LatticeFunction(num_vars, g))


@dataclass(frozen=True)
class FanTerm:
    """One k-term of the Fan right-hand side: coefficient * F(subset)."""

    k: int
    coefficient: int
    subset: VarSet
    value: float
    term: float


@dataclass(frozen=True)
class FanEvaluation:
    form: str
    p: int
    lhs: float
    rhs: float
    rhs_terms: tuple[FanTerm, ...]
    tolerance: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + self.tolerance


def fan_terms(
    masks: Sequence[int], p: int, inner=operator.and_, outer=operator.or_
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The Fan inequality's lattice elements for a sequence of masks: the
    inner combination (meet) of each p-subset, summed on the left, and per
    k = p..q the right side's (k, C(k-1, p-1), outer of all k-subset inners)."""

    def inners(k):
        return [functools.reduce(inner, c) for c in combinations(masks, k)]

    rhs = [
        (k, comb(k - 1, p - 1), functools.reduce(outer, inners(k)))
        for k in range(p, len(masks) + 1)
    ]
    return inners(p), rhs


def fan_evaluate(
    fn: LatticeFunction,
    xs: Sequence[VarSet],
    p: int,
    form: Literal["primal", "dual"] = "primal",
) -> FanEvaluation:
    """Evaluate both sides of the Fan inequality for a sequence x_1..x_q.

    Primal form: sum of F over meets of all p-subsets of xs on the left;
    on the right, for each k = p..q, C(k-1, p-1) times F of the join of the
    meets of all k-subsets. The dual form swaps meet and join. For
    supermodular F the left side never exceeds the right; for p == q the two
    sides coincide identically.

    Returns both sides plus the per-k right-hand terms for inspection.
    Refuses q beyond FAN_SEQUENCE_CAP or C(q, p) beyond FAN_CHOOSE_CAP.
    """
    q = len(xs)
    if q == 0:
        raise RangeError("fan_evaluate needs at least one lattice element")
    if not 1 <= p <= q:
        raise RangeError(f"p={p} out of range 1..{q}")
    if q > FAN_SEQUENCE_CAP:
        raise RangeError(f"sequence length {q} exceeds cap {FAN_SEQUENCE_CAP}")
    if comb(q, p) > FAN_CHOOSE_CAP:
        raise RangeError(f"C({q},{p}) exceeds cap {FAN_CHOOSE_CAP}")
    for x in xs:
        if x.num_vars != fn.num_vars:
            raise RangeError("sequence element over a different variable count")
    if form == "primal":
        inner, outer = operator.and_, operator.or_
    elif form == "dual":
        inner, outer = operator.or_, operator.and_
    else:
        raise RangeError(f"unknown form {form!r}")

    vals = fn.values
    lhs_masks, rhs_masks = fan_terms([x.mask for x in xs], p, inner, outer)
    lhs = sum(vals[m].item() for m in lhs_masks)
    terms = tuple(
        FanTerm(k, c, VarSet(m, fn.num_vars), vals[m].item(), c * vals[m].item())
        for k, c, m in rhs_masks
    )
    rhs = sum(t.term for t in terms)
    return FanEvaluation(
        form=form,
        p=p,
        lhs=lhs,
        rhs=rhs,
        rhs_terms=terms,
        tolerance=fn.tolerance(),
    )
