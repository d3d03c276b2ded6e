"""Total-positivity checks, relabeling search, lattice exponential families, FKG.

Two distinct pairwise conditions on a table, over componentwise min/max of
cell indices, are implemented side by side and never conflated:

- additive:        n_x + n_y <= n_{x^y} + n_{xvy}
- multiplicative:  n_x * n_y <= n_{x^y} * n_{xvy}   (the MTP2 product form)

Both checks return the lexicographically first violating pair as witness,
among all pairs or, in ``local`` mode, among local pairs; both modes run the
pair kernel of supermodularity on 2^L (``lattice._first_violation``).
Comparisons are exact for integer counts, past int64 too.

Both depend on how categories are ordered, so a brute-force search over
per-axis relabelings is provided (quotiented by global reversal, which
preserves either condition).

On the subset lattice, nonnegative combinations of anchored marginal counts
in the exponent give log-supermodular probability distributions; expectations
and FKG covariances are computed by exact summation over all 2^l subsets.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import factorial, isfinite, prod
from typing import Literal, Optional

import numpy as np

from .errors import (
    NonpositiveValueError,
    RangeError,
    SearchSpaceError,
    UnnormalizedError,
)
from .lattice import (
    CheckResult,
    LatticeFunction,
    Witness,
    _exact,
    _first_violation,
    is_supermodular,
    meet_restriction,
)
from .table import (
    CellIndex,
    ContingencyTable,
    cell_margin_fn,
    check_cell,
)
from .varset import VarSet, check_lattice_cap

RELABEL_SEARCH_CAP = 10**6
NORMALIZATION_ATOL = 1e-9
DENSITY_SUM_ATOL = 1e-12


def _pair_scan(table: ContingencyTable, multiplicative: bool, local: bool) -> CheckResult:
    counts, tol = _exact(table.counts, multiplicative)
    pair = _first_violation(counts, multiplicative, tol, local)
    if pair is None:
        return CheckResult(True)
    # The witness reads exact Python numbers, whatever the scan compared.
    x, y = (tuple(int(i) for i in np.unravel_index(f, table.cardinalities)) for f in pair)
    lo, hi = tuple(map(min, x, y)), tuple(map(max, x, y))
    vx, vy, vlo, vhi = (table.counts[c].item() for c in (x, y, lo, hi))
    combine = operator.mul if multiplicative else operator.add
    witness = Witness("mtp2-violation", x, y, combine(vx, vy), combine(vlo, vhi))
    return CheckResult(False, witness)


def is_mtp2_additive(
    table: ContingencyTable, mode: Literal["exhaustive", "local"] = "exhaustive"
) -> CheckResult:
    """Check n_x + n_y <= n at the componentwise min plus n at the max,
    over all cell pairs (axes ordered by index) or, in ``local`` mode, over
    cells one step apart on exactly two axes, which decide it: the condition
    is supermodularity on the cell grid. The witness is the lexicographically
    first violating pair (x, y) the mode scans, x before y in flat order."""
    return _pair_scan(table, multiplicative=False, local=(mode == "local"))


def is_mtp2_multiplicative(
    table: ContingencyTable, mode: Literal["exhaustive", "local"] = "exhaustive"
) -> CheckResult:
    """The product form n_x * n_y <= n_{x^y} * n_{xvy}; zeros handled exactly.
    Witnesses follow the rule of ``is_mtp2_additive``.

    With zeros present the local mode can miss global violations, which is
    why exhaustive is the default."""
    return _pair_scan(table, multiplicative=True, local=(mode == "local"))


@dataclass(frozen=True)
class Relabeling:
    """Per-axis permutations sending old category index to new position."""

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for j, perm in enumerate(self.perms):
            if sorted(perm) != list(range(len(perm))):
                raise RangeError(f"axis {j + 1} relabeling {perm} is not a bijection")

    @property
    def is_identity(self) -> bool:
        return all(perm == tuple(range(len(perm))) for perm in self.perms)

    def apply(self, table: ContingencyTable) -> ContingencyTable:
        if tuple(len(p) for p in self.perms) != table.cardinalities:
            raise RangeError("relabeling shape does not match the table")
        new = np.empty_like(table.counts)
        new[np.ix_(*self.perms)] = table.counts
        labels = None
        if table.labels is not None:
            labels = tuple(
                tuple(axis[i] for i in np.argsort(perm))
                for axis, perm in zip(table.labels, self.perms)
            )
        return ContingencyTable(table.cardinalities, new, labels, table.kind)


def _reversed_assignment(perms: tuple[tuple[int, ...], ...], cards) -> tuple:
    return tuple(
        tuple(c - 1 - v for v in perm) for perm, c in zip(perms, cards)
    )


def search_mtp2_relabeling(
    table: ContingencyTable,
    criterion: Literal["additive", "multiplicative"] = "additive",
) -> Optional[Relabeling]:
    """Brute-force the lexicographically smallest relabeling passing the
    criterion, or None when none exists.

    Reversing every axis simultaneously preserves both conditions, so the
    scan visits one representative per reversal orbit; the representative
    found first is still the global lexicographic minimum of the passing set.
    Refuses when the product of axis factorials exceeds RELABEL_SEARCH_CAP.
    """
    if criterion == "additive":
        check = is_mtp2_additive
    elif criterion == "multiplicative":
        check = is_mtp2_multiplicative
    else:
        raise RangeError(f"unknown criterion {criterion!r}")
    cards = table.cardinalities
    space = prod(factorial(c) for c in cards)
    if space > RELABEL_SEARCH_CAP:
        raise SearchSpaceError(
            f"relabeling space {space} exceeds cap {RELABEL_SEARCH_CAP}"
        )
    for perms in itertools.product(
        *(itertools.permutations(range(c)) for c in cards)
    ):
        if _reversed_assignment(perms, cards) < perms:
            continue  # orbit representative already visited
        candidate = Relabeling(perms)
        if check(candidate.apply(table)).ok:
            return candidate
    return None


@dataclass
class ExpFamily:
    """A lattice exponential family driven by anchored marginal counts.

    Each parameter multiplies the scalar marginal count at one fixed anchor
    cell, so the exponent is a nonnegative combination of decreasing,
    supermodular functions; the optional interaction adds the same anchored
    counts evaluated on a & alpha. ``log_norm`` is filled in when a density
    is materialized against a table.
    """

    anchors: tuple[CellIndex, ...]
    theta: tuple[float, ...]
    alpha: Optional[VarSet] = None
    theta2: Optional[tuple[float, ...]] = None
    log_norm: Optional[float] = None

    def __post_init__(self) -> None:
        self.anchors = tuple(tuple(int(x) for x in a) for a in self.anchors)
        if (self.alpha is None) != (self.theta2 is None):
            raise RangeError("interaction needs both alpha and theta2")
        for name in ("theta", "theta2") if self.theta2 is not None else ("theta",):
            params = tuple(float(t) for t in getattr(self, name))
            if len(params) != len(self.anchors):
                raise RangeError(
                    f"{len(self.anchors)} anchors need {len(self.anchors)} "
                    f"{name} parameters, got {len(params)}"
                )
            if not all(t >= 0 and isfinite(t) for t in params):
                raise RangeError(f"{name} parameters must be finite and nonnegative")
            setattr(self, name, params)


def _expfam_exponent(fam: ExpFamily, table: ContingencyTable) -> np.ndarray:
    l = table.num_vars
    check_lattice_cap(l)
    if fam.alpha is not None and fam.alpha.num_vars != l:
        raise RangeError("interaction set over a different variable count")
    for anchor in fam.anchors:
        check_cell(table, anchor)
    size = 1 << l
    exponent = np.zeros(size, dtype=np.float64)
    masks = np.arange(size)
    with np.errstate(over="ignore"):  # nonnegative terms: an overflow is inf
        for k, anchor in enumerate(fam.anchors):
            fk = np.asarray(cell_margin_fn(table, anchor).values, dtype=np.float64)
            if fam.theta[k]:
                exponent += fam.theta[k] * fk
            if fam.theta2 is not None and fam.theta2[k]:
                exponent += fam.theta2[k] * fk[masks & fam.alpha.mask]
    if not np.isfinite(exponent).all():
        raise RangeError("the exponent overflows float64; lower the parameters")
    return exponent


def expfam_log_density(fam: ExpFamily, table: ContingencyTable) -> LatticeFunction:
    """log mu on 2^L: the parameter-weighted anchored counts minus the
    log-normalizer. Exact at any parameter scale, where the density itself
    can underflow to zero in float64; supermodularity of this function is
    log-supermodularity of the density."""
    exponent = _expfam_exponent(fam, table)
    shift = exponent.max()
    log_norm = float(shift + np.log(np.exp(exponent - shift).sum()))
    fam.log_norm = log_norm
    return LatticeFunction(table.num_vars, exponent - log_norm)


def expfam_density(fam: ExpFamily, table: ContingencyTable) -> LatticeFunction:
    """The probability mass exp(sum theta_k F_k(a) [+ interaction] - c) on 2^L,
    where F_k are the anchored marginal-count functions of the table.

    c is computed by a max-shifted log-sum-exp over all subsets, so the
    result sums to one within 1e-12 even for large parameters. The density is
    log-supermodular for any nonnegative parameters; for parameter scales
    where low-probability subsets underflow float64, check that property via
    expfam_log_density instead of the raw masses.
    """
    return _density(expfam_log_density(fam, table))


def _density(log_mu: LatticeFunction) -> LatticeFunction:
    """exp of a log density, checked to sum to one."""
    mu = np.exp(np.asarray(log_mu.values))
    total = mu.sum()
    if abs(total - 1.0) > DENSITY_SUM_ATOL:
        raise UnnormalizedError(
            f"density summed to {total!r}, off by more than {DENSITY_SUM_ATOL}"
        )
    return LatticeFunction(log_mu.num_vars, mu)


def is_log_supermodular(mu: LatticeFunction) -> CheckResult:
    """mu(a|b) mu(a&b) >= mu(a) mu(b) for strictly positive mu, checked as
    supermodularity of log mu. The witness carries log values."""
    values = np.asarray(mu.values, dtype=np.float64)
    if np.any(values <= 0):
        bad = int(np.argmax(values <= 0))
        raise NonpositiveValueError(
            f"mu({VarSet(bad, mu.num_vars)}) = {values[bad]} is not strictly positive"
        )
    return is_supermodular(LatticeFunction(mu.num_vars, np.log(values)), "local")


def fkg_covariance(
    mu: LatticeFunction, h1: LatticeFunction, h2: LatticeFunction
) -> float:
    """Cov(h1, h2) under mu by exact summation over all subsets.

    mu must sum to one. For log-supermodular mu and h1, h2 monotone in the
    same direction the result is nonnegative up to roundoff."""
    if not (mu.num_vars == h1.num_vars == h2.num_vars):
        raise RangeError("mu, h1, h2 must share one variable count")
    weights = np.asarray(mu.values, dtype=np.float64)
    total = weights.sum()
    if abs(total - 1.0) > NORMALIZATION_ATOL:
        raise UnnormalizedError(f"mu sums to {total!r}, expected 1")
    a = np.asarray(h1.values, dtype=np.float64)
    b = np.asarray(h2.values, dtype=np.float64)
    # Centered two-pass form: cancellation stays at the covariance's own
    # scale instead of the raw-moment scale.
    mean_a = float((weights * a).sum())
    mean_b = float((weights * b).sum())
    return float((weights * (a - mean_a) * (b - mean_b)).sum())


def anchored_margin_observable(
    table: ContingencyTable, anchor: CellIndex, alpha: VarSet
) -> LatticeFunction:
    """h(a) = marginal count over a & alpha at the anchor: a decreasing
    observable, the standard input to fkg_covariance."""
    return meet_restriction(cell_margin_fn(table, anchor), alpha)
