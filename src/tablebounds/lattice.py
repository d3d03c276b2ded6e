"""Real-valued functions on the subset lattice 2^L and their structure checks.

A ``LatticeFunction`` stores one value per subset of {1, ..., l}, indexed by
bitmask. The checkers decide monotonicity and supermodularity

    F(a | b) + F(a & b) >= F(a) + F(b)

and return an explicit witness pair on failure: the lexicographically first
violating pair by mask. Constructors cover the indicator of an up-set,
cumulative (subset-sum) functions via the fast zeta transform, and the
two-sided Ky Fan inequality evaluator for sequences of lattice elements.

2^L is the grid (2,)*l with flat index equal to the mask, and supermodularity
there is the additive MTP2 condition on a table's cell grid: it and both MTP2
checks share one front end, ``pair_violation`` (mode check, pair kernel
``_first_violation``, comparison rule ``_exact``). Integer values compare
exactly, in Python integers once a sum could pass their dtype; real values
with an absolute tolerance of 1e-9 scaled by max(1, max|F|).

Every scan is a gather-and-compare over whole arrays, and ``argmax`` picks
the lexicographically first violation. The local scans, of supermodularity,
the MTP2 checks and monotonicity, share one kernel (``_first_local_violation``)
over the local pairs on k axes: two for the pair condition, one for the
covering pairs (a, a | 2^j) of the monotone check. It gathers through their
flat indices, built once per grid shape and k and cached read-only
(``_local_pairs``), while they fit LOCAL_PAIR_CAP, and compares shifted views
per set of axes past it. The all-pairs scans, on every grid shape, compare
aligned blocks of rows and columns: the axes split into a high prefix and a
low suffix of w cells (``_pair_blocks``), a block being the w cells that share
a high prefix. The meet of two cells is the meet of their high prefixes
times w plus the meet of their low suffixes, read from a cached w x w table;
the join is x + y minus the meet; and a meet's flat index is the sum over
axes of the smaller of the two coordinates times the axis stride. Once per
scan the values at every block's low meets and joins are gathered into two
slabs, so a block of rows reads its right-hand sides by whole-slab gathers.
Integer values compare in the narrowest of int32, int64 and Python ints
that holds their sums (or products) exactly.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, isqrt, prod
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import CountRangeError, RangeError
from .varset import VarSet, _index, check_lattice_cap, check_num_vars

REAL_RTOL = 1e-9

# The all-pairs scan compares a block of w rows, w the cells of its low axes,
# with about PAIR_BLOCK pairs of columns per step. w is at most _LOW_CELLS, and
# its two slabs of w values per cell stay within _SLAB_CELLS (or w is 1). On a
# 2-core box (Python 3.11.7, numpy 2.4) the l = 10 scans took about 1.45 ms
# at these values, 1.55-1.8 ms at 2^13 or 2^15 pairs, and 1.8-2.2 ms at w = 32.
PAIR_BLOCK = 1 << 14
_LOW_CELLS = 64
_SLAB_CELLS = 1 << 20
# Local scans on k axes whose pairs could pass this count (C(l, k) times the
# cells bounds them) skip the cached index arrays, 16 k bytes per pair, and
# compare shifted views one set of axes at a time: the pair condition past
# it, and the monotone check (k = 1) on 2^L for l >= 15.
LOCAL_PAIR_CAP = 1 << 18

# Guard of fan_terms: explicit failure beats silent combinatorial blowup. It
# also caps C(q, p), the left side's terms, at C(20, 10) = 184,756.
FAN_SEQUENCE_CAP = 20


def real_slack(scale: float) -> float:
    """The absolute slack of a real comparison between values of magnitude up
    to ``scale``: REAL_RTOL times max(1, scale)."""
    return REAL_RTOL * max(1.0, scale)


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """A total function 2^L -> R, dense over all 2**num_vars bitmasks.

    Two functions are equal when their num_vars, kind (integer or real) and
    values are. They are not hashable."""

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
        if vals.dtype.kind not in "iu":  # bool, real and the rest: float64
            vals = np.asarray(vals, dtype=np.float64)
            if not np.all(np.isfinite(vals)):
                raise RangeError("lattice function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def integer_valued(self) -> bool:
        return self.values.dtype.kind in "iu"

    def value(self, a: VarSet):
        check_num_vars(a.num_vars, self.num_vars)
        return self.values[a.mask].item()

    def __call__(self, a: VarSet):
        return self.value(a)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.num_vars, self.integer_valued) == (
            other.num_vars, other.integer_valued
        ) and np.array_equal(self.values, other.values)

    def tolerance(self) -> float:
        """Comparison slack: the integer 0 for integers, real_slack(max|F|) for reals."""
        if self.integer_valued:
            return 0
        return real_slack(float(np.max(np.abs(self.values))))


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


@functools.lru_cache(maxsize=None)
def _int_limits(dtype: np.dtype) -> tuple[int, int]:
    """The largest magnitudes whose two-term sums and whose products an
    integer dtype holds: (max // 2, isqrt(max)), read once per dtype."""
    top = int(np.iinfo(dtype).max)
    return top // 2, isqrt(top)


def _exact(values: np.ndarray, multiplicative: bool = False, negate: bool = False):
    """(values, slack) under the one comparison rule of every pair checker.

    Integer values (dtype kind "i" or "u", so not bool) keep the integer
    slack 0 and take the narrowest of int32, int64 and Python ints that holds
    every two-term sum (``multiplicative``: product), by ``_int_limits``.
    Real values are divided by max(1, max|v|) and get slack REAL_RTOL: the
    absolute 1e-9 max(1, max|v|) (products: max(1, max|v|^2)) rescaled, so it
    and the compared terms stay finite. ``negate`` returns -values, in the
    same dtype.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        big = max(-int(values.min()), int(values.max()))
        for dtype in (np.int32, np.int64, object):
            if dtype is object or big <= _int_limits(np.dtype(dtype))[multiplicative]:
                values = values.astype(dtype, copy=False)
                return (-values if negate else values), 0
    scaled = values / max(1.0, float(np.abs(values).max()))
    return (-scaled if negate else scaled), REAL_RTOL


def _shifted(grid: np.ndarray, axes: tuple[int, ...]):
    """The views of ``grid`` over its local pairs on one axis p or two axes
    p < q, lo running over the cells below the top of every axis in
    ``axes``: (lo, hi = lo + e_p) on one axis, (x = lo + e_q, y = lo + e_p,
    lo, hi = lo + e_p + e_q) on two."""
    def view(*steps):
        index = [slice(None)] * grid.ndim
        for axis, d in zip(axes, steps):
            index[axis] = slice(d, grid.shape[axis] - 1 + d)
        return grid[tuple(index)]
    if len(axes) == 1:
        return view(0), view(1)
    return view(0, 1), view(1, 0), view(0, 0), view(1, 1)


@functools.lru_cache(maxsize=32)
def _local_pairs(shape: tuple[int, ...], k: int) -> np.ndarray:
    """The flat indices of every local pair of a grid on k axes (1 or 2),
    as the rows of one read-only array, (lo, hi) or (x, y, lo, hi), columns
    sorted by their first two rows: the ``_shifted`` views of the grid's
    flat indices."""
    cells = np.arange(prod(shape)).reshape(shape)
    rows = [np.empty((2 * k, 0), dtype=np.intp)]
    for axes in combinations(range(len(shape)), k):
        rows.append(np.stack([v.reshape(-1) for v in _shifted(cells, axes)]))
    pairs = np.concatenate(rows, axis=1)
    pairs = np.ascontiguousarray(pairs[:, np.lexsort((pairs[1], pairs[0]))])
    pairs.setflags(write=False)
    return pairs


def _axis_meets(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Per axis of ``shape``, the table of min(i, j) times the axis's
    stride: the meet of two cells has the flat index sum over the axes of
    each table at their two coordinates."""
    tables = []
    for k, c in enumerate(shape):
        offsets = np.arange(c) * prod(shape[k + 1 :])
        tables.append(np.minimum.outer(offsets, offsets))
    return tables


@functools.lru_cache(maxsize=32)
def _pair_blocks(shape: tuple[int, ...]) -> tuple[int, np.ndarray, np.ndarray, tuple]:
    """The block geometry of the all-pairs scan, arrays read-only: (w, meet,
    join, high). The low suffix of the axes is the longest with w cells, w at
    most _LOW_CELLS and w times the grid's cells at most _SLAB_CELLS (the
    empty suffix, w = 1, always qualifies); a flat index is then the high
    prefix's times w plus the low suffix's. ``meet`` and ``join`` are the
    w x w flat-index tables of the low suffix, and ``high`` the
    ``_axis_meets`` of the high prefix."""
    cap = min(_LOW_CELLS, _SLAB_CELLS // prod(shape))
    split, w = len(shape), 1
    while split and w * shape[split - 1] <= cap:
        split -= 1
        w *= shape[split]
    low = _axis_meets(shape[split:])
    meet = functools.reduce(np.add.outer, low, np.intp(0))  # axes (x1, y1, x2, y2, ...)
    meet = meet.transpose(*range(0, 2 * len(low), 2), *range(1, 2 * len(low), 2)).reshape(w, w)
    cells = np.arange(w)
    join = cells[:, None] + cells - meet
    high = tuple(_axis_meets(shape[:split]))
    for table in (meet, join, *high):
        table.setflags(write=False)
    return w, meet, join, high


def _violates(x, y, lo, hi, multiplicative: bool, tol):
    """The pair condition: x + y > lo + hi + tol, or x * y > lo * hi + tol;
    a zero ``tol`` is not added."""
    left, right = (x * y, lo * hi) if multiplicative else (x + y, lo + hi)
    return left > right + tol if tol else left > right


def _first_local_violation(
    grid: np.ndarray, k: int, violates, *args
) -> Optional[tuple[int, int]]:
    """The flat indices of the first two views of the local pair on k axes
    (1 or 2, see ``_shifted``) that comes first by them among those where
    ``violates(*views, *args)`` holds; None when there is none. One gather
    through ``_local_pairs`` while C(ndim, k) times the cells fit
    LOCAL_PAIR_CAP; past it the ``_shifted`` views per set of axes, whose
    witness is read from the same views of the flat indices."""
    if comb(grid.ndim, k) * grid.size <= LOCAL_PAIR_CAP:
        pairs = _local_pairs(grid.shape, k)
        bad = violates(*grid.reshape(-1)[pairs], *args)
        if not bad.any():
            return None
        i = int(np.argmax(bad))
        return int(pairs[0, i]), int(pairs[1, i])
    best = cells = None
    for axes in combinations(range(grid.ndim), k):
        bad = violates(*_shifted(grid, axes), *args)
        if bad.any():
            i = int(np.argmax(bad))
            if cells is None:  # the flat indices, built at the first violation
                cells = np.arange(grid.size).reshape(grid.shape)
            first, second = _shifted(cells, axes)[:2]
            pair = int(first.flat[i]), int(second.flat[i])
            if best is None or pair < best:
                best = pair
    return best


def _first_violation(grid, multiplicative: bool, tol, local: bool) -> Optional[tuple[int, int]]:
    """The lexicographically first flat pair (x, y), x < y, of a grid that
    violates the pair condition (``_violates``), lo and hi the pair's
    componentwise meet and join; None when there is none. ``local`` scans
    local pairs only (``_first_local_violation``).

    Otherwise each block of w rows (``_pair_blocks``) meets its own block
    and every later one, about PAIR_BLOCK pairs per step; comparable pairs
    hold with equality. Its right-hand sides are w x w slabs of ``below``
    and ``above``, the values at every block's low meets and joins, taken at
    the blocks of the high meets and joins. The condition is symmetric in
    the pair and holds on the diagonal, so a row's columns up to its own in
    its block hold its own pair or that of an earlier row: the first row of
    a block with a violation is the first row of any violating pair, and its
    first violating column lies past it. Every step of a block is scanned,
    over the rows before the first hit so far, so that row's first
    violating column is found."""
    if local:
        return _first_local_violation(grid, 2, _violates, multiplicative, tol)
    w, meet, join, high = _pair_blocks(grid.shape)
    values = grid.reshape(-1, w)
    below, above = values[:, meet], values[:, join]
    blocks, step = len(values), max(1, PAIR_BLOCK // (w * w))
    for a, coords in enumerate(product(*(range(len(m)) for m in high))):
        # The high meets of block a with every block, kept from block a on.
        lo = functools.reduce(np.add.outer, [m[i] for m, i in zip(high, coords)], np.intp(0))
        lo = lo.reshape(-1)[a:]
        hi = np.arange(2 * a, a + blocks) - lo  # a + b - lo
        x, rows, first = values[a, :, None], w, None
        for b in range(a, blocks, step):
            s = slice(b - a, b - a + step)
            bad = _violates(
                x[:rows], values[b : b + step, None], below[lo[s], :rows],
                above[hi[s], :rows], multiplicative, tol,
            )
            if bad.any():
                rows = int(np.argmax(bad.any(axis=(0, 2))))
                first = rows, b * w + int(np.argmax(bad[:, rows]))
                if not rows:
                    break
        if first is not None:
            return a * w + first[0], first[1]
    return None


def pair_violation(
    grid, mode: str, multiplicative: bool = False, negate: bool = False
) -> Optional[tuple[int, int]]:
    """Every pair checker's front end: ``_first_violation`` on ``grid``
    (``negate``: -grid) under ``_exact``, in ``mode``, "local" or
    "exhaustive"; any other mode raises RangeError."""
    if mode not in ("local", "exhaustive"):
        raise RangeError(f"unknown pair-check mode {mode!r}")
    # Flat, so that the negation of a 0-d grid stays an array.
    values, tol = _exact(grid.reshape(-1), multiplicative, negate)
    return _first_violation(values.reshape(grid.shape), multiplicative, tol, mode == "local")


def _out_of_order(lo, hi, tol, increasing: bool):
    """The monotone condition on a covering pair lo < hi: hi + tol < lo when
    F must increase, else lo + tol < hi; a zero ``tol`` is not added."""
    if tol:
        return hi + tol < lo if increasing else lo + tol < hi
    return hi < lo if increasing else lo < hi


def _monotone_check(fn: LatticeFunction, increasing: bool) -> CheckResult:
    """Check all covering pairs (a, a|{j}); equivalent to all pairs by
    transitivity. They are the local pairs on one axis of the grid (2,)*l
    (``_first_local_violation`` with k = 1), so the witness is the first
    violation in (a, j) order. Integer values compare as they are, with
    slack 0: adding 0 to one value cannot pass its dtype, so only real values
    take ``_exact``'s scaled rule."""
    vals, tol = (fn.values, 0) if fn.integer_valued else _exact(fn.values)
    grid = vals.reshape((2,) * fn.num_vars)
    pair = _first_local_violation(grid, 1, _out_of_order, tol, increasing)
    if pair is None:
        return CheckResult(True)
    a, b = pair
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
    pair = pair_violation(fn.values.reshape((2,) * fn.num_vars), mode, negate=negate)
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

    Integer and boolean values sum in int64; they are refused when the sum of
    their absolute values, which bounds every partial sum, passes int64."""
    out = np.array(values, copy=True)
    if out.shape != (1 << num_vars,):
        raise RangeError("value array length must be 2**num_vars")
    if out.dtype == np.bool_:  # counted as 0 and 1, not OR-ed
        out = out.astype(np.int64)
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
    check_num_vars(alpha.num_vars, fn.num_vars, "restriction set")
    masks = np.arange(1 << fn.num_vars)
    return LatticeFunction(fn.num_vars, np.asarray(fn.values)[masks & alpha.mask])


def random_supermodular_fn(
    num_vars: int, rng: np.random.Generator, integer: bool = True, scale: int = 10
) -> LatticeFunction:
    """A guaranteed increasing + supermodular function.

    Draws i.i.d. nonnegative mass per subset and returns its cumulative
    function; no rejection sampling needed.
    """
    check_lattice_cap(num_vars)  # before the 2**l draws
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
    masks: Sequence[int], p: int, form: Literal["primal", "dual"] = "primal"
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The Fan inequality's lattice elements for masks x_1..x_q, under every
    Fan guard: the inner combination (primal: meet, dual: join) of each
    p-subset, summed on the left, and per k = p..q the right side's (k,
    C(k-1, p-1), outer of all k-subset inners), counted, not enumerated: a
    variable lies in the join of the k-wise meets iff at least k masks hold
    it, and in the meet of the k-wise joins iff at least q - k + 1 do."""
    q = len(masks)
    if q == 0:
        raise RangeError("the Fan inequality needs at least one lattice element")
    p = _index(p, "p")
    if not 1 <= p <= q:
        raise RangeError(f"p={p} out of range 1..{q}")
    if q > FAN_SEQUENCE_CAP:
        raise RangeError(f"sequence length {q} exceeds cap {FAN_SEQUENCE_CAP}")
    if form not in ("primal", "dual"):
        raise RangeError(f"unknown form {form!r}")
    primal = form == "primal"
    held = [sum(m >> j & 1 for m in masks) for j in range(max(masks).bit_length())]

    def outer(k):
        least = k if primal else q - k + 1
        return sum(1 << j for j, count in enumerate(held) if count >= least)

    inner = operator.and_ if primal else operator.or_
    lhs = [functools.reduce(inner, c) for c in combinations(masks, p)]
    return lhs, [(k, comb(k - 1, p - 1), outer(k)) for k in range(p, q + 1)]


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
    ``fan_terms`` refuses q beyond FAN_SEQUENCE_CAP.
    """
    for x in xs:
        check_num_vars(x.num_vars, fn.num_vars, "sequence element")
    vals, p = fn.values, _index(p, "p")
    lhs_masks, rhs_masks = fan_terms([x.mask for x in xs], p, form)
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
