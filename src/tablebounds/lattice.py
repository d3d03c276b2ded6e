"""Real-valued functions on the subset lattice 2^L and their structure checks.

A ``LatticeFunction`` stores one value per subset of {1, ..., l}, indexed by
bitmask. The checkers decide monotonicity and supermodularity

    F(a | b) + F(a & b) >= F(a) + F(b)

and return an explicit witness pair on failure: the lexicographically first
violating pair by mask. Constructors cover the indicator of an up-set,
cumulative (subset-sum) functions via the fast zeta transform, and the
two-sided Ky Fan inequality evaluator for sequences of lattice elements.

2^L is the grid (2,)*l with flat index equal to the mask, and supermodularity
there is the additive MTP2 condition on a table's cell grid: both checks run
the one local kernel ``_first_local_violation`` under the one comparison rule
``_exact``. Integer values are compared exactly, in Python integers once a sum
could pass their dtype; real values with an absolute tolerance of 1e-9 scaled by
max(1, max|F|).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations
from math import comb, isqrt
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import RangeError
from .varset import VarSet, check_lattice_cap

REAL_RTOL = 1e-9

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


def _first_local_violation(
    grid: np.ndarray, multiplicative: bool, tol
) -> Optional[tuple[int, int]]:
    """The lexicographically first flat pair (x, y) of a grid's local pairs
    x = lo + e_q, y = lo + e_p (axes p < q) with x + y > lo + hi + tol
    (``multiplicative``: x * y > lo * hi + tol), hi = lo + e_p + e_q; None
    when there is none. Each axis pair compares four shifted views."""
    best = None
    for p, q in combinations(range(grid.ndim), 2):

        def shifted(dp, dq):
            index = [slice(None)] * grid.ndim
            index[p] = slice(dp, grid.shape[p] - 1 + dp)
            index[q] = slice(dq, grid.shape[q] - 1 + dq)
            return grid[tuple(index)]

        lo, x, y, hi = shifted(0, 0), shifted(0, 1), shifted(1, 0), shifted(1, 1)
        bad = x * y > lo * hi + tol if multiplicative else x + y > lo + hi + tol
        if bad.any():
            at = np.unravel_index(int(np.argmax(bad)), bad.shape)
            x_at, y_at = list(at), list(at)
            x_at[q] += 1
            y_at[p] += 1
            pair = tuple(int(np.ravel_multi_index(c, grid.shape)) for c in (x_at, y_at))
            if best is None or pair < best:
                best = pair
    return best


def _monotone_check(fn: LatticeFunction, increasing: bool) -> CheckResult:
    """Check all covering pairs (a, a|{i}); equivalent to all pairs by transitivity."""
    vals, tol = _exact(fn.values)
    size = 1 << fn.num_vars
    best: Optional[tuple[int, int]] = None
    masks = np.arange(size)
    for j in range(fn.num_vars):
        bit = 1 << j
        low = masks[(masks & bit) == 0]
        below, above = vals[low], vals[low | bit]
        bad = (below + tol < above) if not increasing else (above + tol < below)
        if bad.any():
            a = int(low[np.argmax(bad)])
            cand = (a, a | bit)
            if best is None or cand < best:
                best = cand
    if best is None:
        return CheckResult(True)
    a, b = best
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
    """Scan for the first pair (a, b) with G(a|b) + G(a&b) < G(a) + G(b),
    where G is F (``negate``: -F, taken without wrapping)."""
    vals, tol = _exact(fn.values, negate=negate)
    if mode == "exhaustive":
        masks = np.arange(1 << fn.num_vars)
        for a in masks.tolist():
            bad = vals[masks | a] + vals[masks & a] + tol < vals[a] + vals
            if bad.any():
                return CheckResult(False, _supermodular_witness(fn, a, int(np.argmax(bad))))
        return CheckResult(True)
    if mode != "local":
        raise RangeError(f"unknown supermodularity mode {mode!r}")
    pair = _first_local_violation(vals.reshape((2,) * fn.num_vars), False, tol)
    if pair is None:
        return CheckResult(True)
    return CheckResult(False, _supermodular_witness(fn, *pair))


def is_supermodular(
    fn: LatticeFunction, mode: Literal["local", "exhaustive"] = "local"
) -> CheckResult:
    """Check F(a|b) + F(a&b) >= F(a) + F(b).

    ``local`` checks F(a|{i,j}) + F(a) >= F(a|{i}) + F(a|{j}) for all a and
    i != j outside a, which is equivalent on 2^L and costs O(l^2 2^l).
    ``exhaustive`` scans all 4^l ordered pairs and serves as the oracle mode.
    The witness, when present, is the lexicographically first violating pair
    the mode scans; ``local`` gives (a|{i}, a|{j}) with bit i below bit j.
    """
    return _supermodular_check(fn, mode, negate=False)


def is_submodular(
    fn: LatticeFunction, mode: Literal["local", "exhaustive"] = "local"
) -> CheckResult:
    """Dual check, F(a|b) + F(a&b) <= F(a) + F(b); equivalent to -F supermodular."""
    return _supermodular_check(fn, mode, negate=True)


def indicator_fn(s: VarSet, num_vars: int | None = None) -> LatticeFunction:
    """The indicator of the up-set of s: F(a) = 1 if s is a subset of a, else 0."""
    if num_vars is None:
        num_vars = s.num_vars
    if s.num_vars != num_vars:
        raise RangeError("indicator base set is over a different variable count")
    check_lattice_cap(num_vars)
    masks = np.arange(1 << num_vars)
    return LatticeFunction(num_vars, ((masks & s.mask) == s.mask).astype(np.int64))


def subset_sum_transform(values: np.ndarray, num_vars: int) -> np.ndarray:
    """Fast zeta transform: out[a] = sum of values[s] over s subset of a, O(l 2^l)."""
    out = np.array(values, copy=True)
    if out.shape != (1 << num_vars,):
        raise RangeError("value array length must be 2**num_vars")
    masks = np.arange(1 << num_vars)
    for j in range(num_vars):
        bit = 1 << j
        upper = masks[(masks & bit) != 0]
        out[upper] += out[upper ^ bit]
    return out


def cumulative_fn(g: LatticeFunction) -> LatticeFunction:
    """H(a) = sum of G(s) over s subset of a, for nonnegative G.

    Nonnegativity is what makes the result increasing and supermodular, so it
    is enforced rather than assumed.
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
