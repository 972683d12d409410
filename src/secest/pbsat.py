"""Decision procedure for conjunctions of cardinality constraints.

Formulas are conjunctions of AtMost/AtLeast bounds over Boolean
variables (1-based indices, matching sensor numbering).  The solver
enumerates candidate sets of true variables in its preference order:
by size, from zero up to the most any solution can have, and within one
size in lexicographic order of the true indices.  The first candidate
every constraint admits is returned, so the assignment has the fewest
possible true variables and, among those, the lexicographically smallest
set of true indices.  That preference makes the guided subset search
hypothesize as few attacked sensors as possible, and deterministically
so.  The search's formulas bound the true count by k, so a solve visits
at most sum_{j<=k} C(p, j) candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import ConfigError

__all__ = [
    "AT_MOST",
    "AT_LEAST",
    "PBConstraint",
    "PBFormula",
    "at_most",
    "at_least",
    "solve",
]

AT_MOST = "atmost"
AT_LEAST = "atleast"


@dataclass(frozen=True)
class PBConstraint:
    """sum_{i in vars} b_i  {<=,>=}  bound.  ``mask`` has bit i-1 set for
    each variable i."""

    vars: tuple[int, ...]
    sense: str
    bound: int
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vs = tuple(sorted(set(int(i) for i in self.vars)))
        object.__setattr__(self, "vars", vs)
        if not vs:
            raise ConfigError("constraint needs at least one variable")
        if vs[0] < 1:
            raise ConfigError("variable indices are 1-based")
        if self.sense not in (AT_MOST, AT_LEAST):
            raise ConfigError(f"unknown sense {self.sense!r}")
        if self.bound < 0:
            raise ConfigError("bound must be nonnegative")
        object.__setattr__(self, "mask", sum(1 << (i - 1) for i in vs))

    def admits(self, trues: int) -> bool:
        """Whether the assignment whose true variables are the set bits of
        ``trues`` (bit i-1 for variable i) satisfies this constraint."""
        total = (trues & self.mask).bit_count()
        return total <= self.bound if self.sense == AT_MOST else total >= self.bound


def at_most(vars, bound: int) -> PBConstraint:
    return PBConstraint(tuple(vars), AT_MOST, bound)


def at_least(vars, bound: int) -> PBConstraint:
    return PBConstraint(tuple(vars), AT_LEAST, bound)


@dataclass(frozen=True)
class PBFormula:
    """Immutable conjunction of cardinality constraints."""

    num_vars: int
    constraints: tuple[PBConstraint, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ConfigError("num_vars must be positive")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if c.vars[-1] > self.num_vars:
                raise ConfigError(
                    f"constraint over {c.vars} exceeds num_vars={self.num_vars}"
                )

    def with_constraints(self, cs) -> "PBFormula":
        return PBFormula(self.num_vars, self.constraints + tuple(cs))


def _true_count_cap(formula: PBFormula) -> int:
    """Upper bound on the number of true variables in any solution."""
    cap = formula.num_vars
    for c in formula.constraints:
        if c.sense == AT_MOST:
            cap = min(cap, c.bound + formula.num_vars - len(c.vars))
    return cap


def solve(formula: PBFormula) -> tuple[bool, ...] | None:
    """Satisfying assignment with minimal true count (ties: smallest true
    index set, compared lexicographically), or None when unsatisfiable."""
    bits = [1 << i for i in range(formula.num_vars)]
    for target in range(_true_count_cap(formula) + 1):
        # combinations of the ascending bits yields the true-index sets of
        # one size in lexicographic order
        for chosen in combinations(bits, target):
            trues = sum(chosen)
            if all(c.admits(trues) for c in formula.constraints):
                return tuple(bool(trues & bit) for bit in bits)
    return None
