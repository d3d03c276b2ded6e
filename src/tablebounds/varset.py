"""Subsets of the variable index set {1, ..., l}, the elements of the lattice 2^L.

A ``VarSet`` is a bitmask tied to a fixed number of variables. Bit ``j-1``
stands for variable ``j`` (variables are 1-based in all user-facing text,
0-based as array axes). Union, intersection and the subset order are the
lattice join, meet and partial order.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import LatticeCapError, RangeError

# Functions that materialize all 2**l subset values refuse beyond this cap.
# Embedders can raise it consciously by assigning tablebounds.varset.LATTICE_CAP;
# the package's own tablebounds.LATTICE_CAP is a copy, and assigning it does nothing.
LATTICE_CAP = 24


def check_lattice_cap(num_vars: int) -> None:
    if num_vars > LATTICE_CAP:
        raise LatticeCapError(
            f"{num_vars} variables exceed the lattice cap of {LATTICE_CAP}"
        )


def _index(value, name: str) -> int:
    """An integer argument as an int (``operator.index``: 1.0 refused, True 1)."""
    try:
        return operator.index(value)
    except TypeError:
        raise RangeError(f"{name} must be an integer, got {value!r}") from None


def check_num_vars(got: int, expected: int, what: str = "subset") -> None:
    """Refuse ``what``, an input over ``got`` variables, where ``expected``
    are in play: read over the wrong l, it would name other lattice elements."""
    if got != expected:
        raise RangeError(f"{what} is over {got} variables, expected {expected}")


@dataclass(frozen=True)
class VarSet:
    """An element of 2^L for L = {1, ..., num_vars}, stored as a bitmask."""

    mask: int
    num_vars: int

    def __post_init__(self) -> None:
        try:  # Python ints (``operator.index``): 1.0 is refused, not read as 1
            mask, num_vars = operator.index(self.mask), operator.index(self.num_vars)
        except TypeError:
            raise RangeError(f"VarSet({self.mask!r}, {self.num_vars!r}) needs integers") from None
        if num_vars < 0:
            raise RangeError(f"num_vars must be >= 0, got {num_vars}")
        if not 0 <= mask < (1 << num_vars):
            raise RangeError(f"mask {mask:#x} has bits above variable {num_vars}")
        if mask is not self.mask or num_vars is not self.num_vars:  # numpy ints, bools
            object.__setattr__(self, "mask", mask)
            object.__setattr__(self, "num_vars", num_vars)

    @classmethod
    def from_vars(cls, variables: Iterable[int], num_vars: int) -> "VarSet":
        """Build from distinct 1-based variable indices, each an integer
        (``operator.index``, as cell coordinates)."""
        try:
            variables = iter(variables)
        except TypeError:
            raise RangeError(f"variables {variables!r} are not a list") from None
        mask = 0
        for v in variables:
            try:
                v = operator.index(v)
            except TypeError:
                raise RangeError(f"variable {v!r} is not an integer") from None
            if not 1 <= v <= num_vars:
                raise RangeError(
                    f"variable {v} out of range 1..{num_vars}"
                )
            if mask >> (v - 1) & 1:
                raise RangeError(f"variable {v} listed twice")
            mask |= 1 << (v - 1)
        return cls(mask, num_vars)

    @classmethod
    def parse(cls, text: str, num_vars: int) -> "VarSet":
        """Read 1-based variables written "1,3" or "{1,3}"; blank is empty."""
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1].strip()
        try:
            indices = [int(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise RangeError(f"cannot parse variable list {text!r}") from None
        return cls.from_vars(indices, num_vars)

    @classmethod
    def empty(cls, num_vars: int) -> "VarSet":
        return cls(0, num_vars)

    @classmethod
    def full(cls, num_vars: int) -> "VarSet":
        return cls((1 << num_vars) - 1, num_vars)

    @property
    def vars(self) -> tuple[int, ...]:
        """Member variables, 1-based, ascending."""
        return _members(self.mask, self.num_vars)[1]

    @property
    def axes(self) -> tuple[int, ...]:
        """Member variables as 0-based array axes, ascending."""
        return _members(self.mask, self.num_vars)[0]

    def __or__(self, other: "VarSet") -> "VarSet":
        check_num_vars(other.num_vars, self.num_vars)
        return VarSet(self.mask | other.mask, self.num_vars)

    def __and__(self, other: "VarSet") -> "VarSet":
        check_num_vars(other.num_vars, self.num_vars)
        return VarSet(self.mask & other.mask, self.num_vars)

    def __sub__(self, other: "VarSet") -> "VarSet":
        check_num_vars(other.num_vars, self.num_vars)
        return VarSet(self.mask & ~other.mask, self.num_vars)

    def complement(self) -> "VarSet":
        return VarSet(~self.mask & ((1 << self.num_vars) - 1), self.num_vars)

    def __le__(self, other: "VarSet") -> bool:
        check_num_vars(other.num_vars, self.num_vars)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "VarSet") -> bool:
        return self <= other and self.mask != other.mask

    def __contains__(self, variable: int) -> bool:
        return 1 <= variable <= self.num_vars and self.mask >> (variable - 1) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.vars)

    def __str__(self) -> str:
        return _members(self.mask, self.num_vars)[2]


@functools.lru_cache(maxsize=4096)
def _members(mask: int, num_vars: int) -> tuple[tuple[int, ...], tuple[int, ...], str]:
    """(axes, vars, text) of a subset, shared by every VarSet equal to it."""
    axes = tuple(j for j in range(num_vars) if mask >> j & 1)
    return axes, tuple(j + 1 for j in axes), "{" + ",".join(str(j + 1) for j in axes) + "}"
