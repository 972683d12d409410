"""Decision procedure for conjunctions of cardinality constraints.

Formulas are conjunctions of AtMost/AtLeast bounds over Boolean
variables (1-based indices, matching sensor numbering).  The solver
performs depth-first search with iterative deepening on the number of
true variables, pruning each branch against running per-constraint
bounds.  The returned assignment therefore has the fewest possible true
variables; among those, the set of true indices is lexicographically
smallest.  That preference makes the guided subset search hypothesize
as few attacked sensors as possible, and deterministically so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = [
    "AT_MOST",
    "AT_LEAST",
    "PBConstraint",
    "PBFormula",
    "Assignment",
    "at_most",
    "at_least",
    "solve",
    "evaluate",
]

AT_MOST = "atmost"
AT_LEAST = "atleast"

Assignment = tuple[bool, ...]


@dataclass(frozen=True)
class PBConstraint:
    """sum_{i in vars} b_i  {<=,>=}  bound."""

    vars: tuple[int, ...]
    sense: str
    bound: int

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

    def satisfied_by(self, assignment: Assignment) -> bool:
        total = sum(1 for i in self.vars if assignment[i - 1])
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


def evaluate(formula: PBFormula, assignment: Assignment) -> bool:
    if len(assignment) != formula.num_vars:
        raise ConfigError("assignment length does not match num_vars")
    return all(c.satisfied_by(assignment) for c in formula.constraints)


def _true_count_cap(formula: PBFormula) -> int:
    """Upper bound on the number of true variables in any solution."""
    cap = formula.num_vars
    for c in formula.constraints:
        if c.sense == AT_MOST:
            cap = min(cap, c.bound + formula.num_vars - len(c.vars))
    return cap


def solve(formula: PBFormula) -> Assignment | None:
    """Satisfying assignment with minimal true count (ties: smallest true
    index set, compared lexicographically), or None when unsatisfiable."""
    p = formula.num_vars
    constraints = formula.constraints

    # Per-constraint suffix counts: how many constraint vars have index >= i.
    member = [set(c.vars) for c in constraints]
    suffix: list[list[int]] = []
    for vs in member:
        counts = [0] * (p + 2)
        for i in range(p, 0, -1):
            counts[i] = counts[i + 1] + (1 if i in vs else 0)
        suffix.append(counts)

    values = [False] * p

    def dfs(i: int, trues: int, sums: list[int], target: int) -> bool:
        if trues > target or trues + (p - i + 1) < target:
            return False
        for ci, c in enumerate(constraints):
            have = sums[ci]
            remaining = suffix[ci][i]
            if c.sense == AT_MOST:
                if have > c.bound:
                    return False
            else:
                # Trues still required in this constraint cannot exceed the
                # remaining constraint vars nor the remaining global budget.
                need = c.bound - have
                if need > remaining or need > target - trues:
                    return False
        if i > p:
            return trues == target
        # True branch first: within a fixed true count this yields
        # combinations in lexicographic order of their index sets.
        for value in (True, False):
            values[i - 1] = value
            if value:
                new_sums = [
                    sums[ci] + (1 if i in member[ci] else 0)
                    for ci in range(len(constraints))
                ]
                if dfs(i + 1, trues + 1, new_sums, target):
                    return True
            else:
                if dfs(i + 1, trues, sums, target):
                    return True
        return False

    for target in range(_true_count_cap(formula) + 1):
        if dfs(1, 0, [0] * len(constraints), target):
            return tuple(values)
    return None

