"""Total-positivity checks, relabeling search, lattice exponential families, FKG.

Two distinct pairwise conditions on a table, over componentwise min/max of
cell indices, are implemented side by side and never conflated:

- additive:        n_x + n_y <= n_{x^y} + n_{xvy}
- multiplicative:  n_x * n_y <= n_{x^y} * n_{xvy}   (the MTP2 product form)

Both depend on how categories are ordered, so a brute-force search over
per-axis relabelings is provided (quotiented by global reversal, which
preserves either condition).

On the subset lattice, nonnegative combinations of anchored marginal counts
in the exponent give log-supermodular probability distributions; expectations
and FKG covariances are computed by exact summation over all 2^l subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, prod
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
    is_supermodular,
    meet_restriction,
)
from .table import (
    INT64_MAX,
    INTEGER,
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
    counts = table.flat
    cards = table.cardinalities
    n_cells = counts.size
    coords = np.stack(
        np.unravel_index(np.arange(n_cells), cards), axis=1
    ) if table.num_vars else np.zeros((n_cells, 0), dtype=np.int64)
    values = counts.tolist()  # exact Python numbers for single pairs
    tol = 0
    if table.kind != INTEGER:
        scale = float(np.max(np.abs(counts))) if n_cells else 0.0
        tol = 1e-9 * max(1.0, scale * scale if multiplicative else scale)
    elif multiplicative and n_cells and int(counts.max()) ** 2 > INT64_MAX:
        counts = counts.astype(object)  # products would wrap in int64

    def violation(x_flat: int, y_flat: int) -> Optional[Witness]:
        x, y = coords[x_flat], coords[y_flat]
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        lo_flat = int(np.ravel_multi_index(tuple(lo), cards)) if cards else 0
        hi_flat = int(np.ravel_multi_index(tuple(hi), cards)) if cards else 0
        if multiplicative:
            lhs = values[x_flat] * values[y_flat]
            rhs = values[lo_flat] * values[hi_flat]
        else:
            lhs = values[x_flat] + values[y_flat]
            rhs = values[lo_flat] + values[hi_flat]
        if lhs > rhs + tol:
            return Witness(
                kind="mtp2-violation",
                a=tuple(int(v) for v in x),
                b=tuple(int(v) for v in y),
                lhs=lhs,
                rhs=rhs,
            )
        return None

    if local:
        # Pairs one step apart in exactly two coordinates.
        for x_flat in range(n_cells):
            x = coords[x_flat]
            for i, j in itertools.combinations(range(table.num_vars), 2):
                if x[i] + 1 >= cards[i] or x[j] < 1:
                    continue
                y = x.copy()
                y[i] += 1
                y[j] -= 1
                w = violation(x_flat, int(np.ravel_multi_index(tuple(y), cards)))
                if w is not None:
                    return CheckResult(False, w)
        return CheckResult(True)

    for x_flat in range(n_cells):
        x = coords[x_flat]
        rest = coords[x_flat + 1 :]
        if rest.size == 0:
            continue
        # Comparable pairs satisfy the condition with equality; no need to skip.
        lo = np.minimum(x, rest)
        hi = np.maximum(x, rest)
        lo_flat = np.ravel_multi_index(tuple(lo.T), cards) if cards else np.zeros(1, int)
        hi_flat = np.ravel_multi_index(tuple(hi.T), cards) if cards else np.zeros(1, int)
        if multiplicative:
            lhs = counts[x_flat] * counts[x_flat + 1 :]
            rhs = counts[lo_flat] * counts[hi_flat]
        else:
            lhs = counts[x_flat] + counts[x_flat + 1 :]
            rhs = counts[lo_flat] + counts[hi_flat]
        bad = lhs > rhs + tol
        if bad.any():
            return CheckResult(False, violation(x_flat, x_flat + 1 + int(np.argmax(bad))))
    return CheckResult(True)


def is_mtp2_additive(
    table: ContingencyTable, mode: Literal["exhaustive", "local"] = "exhaustive"
) -> CheckResult:
    """Check n_x + n_y <= n at the componentwise min plus n at the max,
    over all cell pairs (axes ordered by index). The witness is the first
    violating pair in flat lexicographic order."""
    return _pair_scan(table, multiplicative=False, local=(mode == "local"))


def is_mtp2_multiplicative(
    table: ContingencyTable, mode: Literal["exhaustive", "local"] = "exhaustive"
) -> CheckResult:
    """The product form n_x * n_y <= n_{x^y} * n_{xvy}; zeros handled exactly.

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
        it = np.nditer(table.counts, flags=["multi_index"])
        for value in it:
            target = tuple(
                self.perms[j][i] for j, i in enumerate(it.multi_index)
            )
            new[target] = value
        labels = None
        if table.labels is not None:
            labels = []
            for j, axis in enumerate(table.labels):
                out = [""] * len(axis)
                for i, name in enumerate(axis):
                    out[self.perms[j][i]] = name
                labels.append(tuple(out))
            labels = tuple(labels)
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
        self.theta = tuple(float(t) for t in self.theta)
        if len(self.theta) != len(self.anchors):
            raise RangeError(
                f"{len(self.anchors)} anchors need {len(self.anchors)} "
                f"parameters, got {len(self.theta)}"
            )
        if any(t < 0 for t in self.theta):
            raise RangeError("parameters must be nonnegative")
        if (self.alpha is None) != (self.theta2 is None):
            raise RangeError("interaction needs both alpha and theta2")
        if self.theta2 is not None:
            self.theta2 = tuple(float(t) for t in self.theta2)
            if len(self.theta2) != len(self.anchors):
                raise RangeError("interaction parameters must match the anchors")
            if any(t < 0 for t in self.theta2):
                raise RangeError("interaction parameters must be nonnegative")


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
    for k, anchor in enumerate(fam.anchors):
        fk = np.asarray(cell_margin_fn(table, anchor).values, dtype=np.float64)
        if fam.theta[k]:
            exponent += fam.theta[k] * fk
        if fam.theta2 is not None and fam.theta2[k]:
            exponent += fam.theta2[k] * fk[masks & fam.alpha.mask]
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
    log_mu = expfam_log_density(fam, table)
    mu = np.exp(np.asarray(log_mu.values))
    total = mu.sum()
    if abs(total - 1.0) > DENSITY_SUM_ATOL:
        raise UnnormalizedError(
            f"density summed to {total!r}, off by more than {DENSITY_SUM_ATOL}"
        )
    return LatticeFunction(table.num_vars, mu)


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
