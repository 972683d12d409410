from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secest import ConfigError
from secest.pbsat import (
    AT_LEAST,
    AT_MOST,
    PBConstraint,
    PBFormula,
    at_least,
    at_most,
    solve,
)


def evaluate(formula, bits):
    """Whether the assignment ``bits`` (bits[i] for variable i + 1)
    satisfies every constraint, counting each one's true variables."""
    for c in formula.constraints:
        total = sum(bits[i - 1] for i in c.vars)
        if not (total <= c.bound if c.sense == AT_MOST else total >= c.bound):
            return False
    return True


def brute_force(formula):
    """Preferred satisfying assignment by exhaustive enumeration: fewest
    trues, then lexicographically smallest set of true indices."""
    best = None
    for bits in product([False, True], repeat=formula.num_vars):
        if evaluate(formula, bits):
            key = (sum(bits), tuple(i + 1 for i, b in enumerate(bits) if b))
            if best is None or key < best[0]:
                best = (key, bits)
    return None if best is None else best[1]


def count_solutions(formula):
    return sum(
        evaluate(formula, bits)
        for bits in product([False, True], repeat=formula.num_vars)
    )


def test_all_false_satisfies_at_most():
    f = PBFormula(3, (at_most((1, 2, 3), 1),))
    assert solve(f) == (False, False, False)


def test_tie_break_prefers_lowest_true_index():
    f = PBFormula(3, (at_most((1, 2, 3), 1), at_least((1, 2), 1)))
    # satisfying set is {100, 010}; the preferred one is 100
    assert solve(f) == (True, False, False)


def test_contradiction_unsat():
    f = PBFormula(2, (at_most((1, 2), 0), at_least((1, 2), 1)))
    assert solve(f) is None


def test_append_singleton_halves_solution_space():
    f = PBFormula(3)
    assert count_solutions(f) == 8
    assert count_solutions(f.with_constraints([at_least((3,), 1)])) == 4


def test_append_full_support_removes_only_all_false():
    f = PBFormula(3).with_constraints([at_least((1, 2, 3), 1)])
    assert count_solutions(f) == 7
    assert not evaluate(f, (False, False, False))


def test_duplicate_constraint_idempotent():
    c = at_least((1, 3), 1)
    f = PBFormula(3, (c,))
    assert count_solutions(f) == count_solutions(f.with_constraints([c]))


def test_monotone_pruning():
    f = PBFormula(4, (at_most((1, 2, 3, 4), 2),))
    before = count_solutions(f)
    after = count_solutions(f.with_constraints([at_least((2, 4), 1)]))
    assert after <= before


def test_soundness_of_returned_assignment():
    f = PBFormula(
        5,
        (
            at_most((1, 2, 3, 4, 5), 2),
            at_least((2, 3), 1),
            at_least((4, 5), 1),
        ),
    )
    got = solve(f)
    assert got is not None and evaluate(f, got)
    assert got == brute_force(f)


def test_validation():
    with pytest.raises(ConfigError):
        PBConstraint((), AT_MOST, 1)
    with pytest.raises(ConfigError):
        PBConstraint((0,), AT_MOST, 1)
    with pytest.raises(ConfigError):
        PBConstraint((1,), "xor", 1)
    with pytest.raises(ConfigError):
        PBFormula(2, (at_most((1, 2, 3), 1),))


@st.composite
def formulas(draw):
    p = draw(st.integers(1, 10))
    n_cons = draw(st.integers(1, 5))
    cons = []
    for _ in range(n_cons):
        size = draw(st.integers(1, p))
        vs = draw(
            st.lists(st.integers(1, p), min_size=size, max_size=size, unique=True)
        )
        sense = draw(st.sampled_from([AT_MOST, AT_LEAST]))
        bound = draw(st.integers(0, len(vs)))
        cons.append(PBConstraint(tuple(vs), sense, bound))
    return PBFormula(p, tuple(cons))


@given(formulas())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_matches_brute_force(formula):
    assert solve(formula) == brute_force(formula)


def test_replayed_search_chain_matches_numpy_oracle():
    # the formulas a guided search solves at p=14, k=4: at_most(1..p, k),
    # then per failed hypothesis an at_least certificate on the hypothesis
    # and on shrunken subsets that still hold an attacked sensor
    p, k = 14, 4
    attacked = {3, 7, 10, 13}
    rng = np.random.default_rng(14)
    patterns = (np.arange(2**p)[:, None] >> np.arange(p)) & 1  # row r: the bits of r
    # preference order: fewest trues, then smallest true-index tuple
    order = np.array(
        sorted(range(2**p), key=lambda r: (bin(r).count("1"), [i for i in range(p) if r >> i & 1]))
    )
    sat = np.ones(2**p, dtype=bool)
    formula = PBFormula(p)
    new = [at_most(range(1, p + 1), k)]
    solves = 0
    while new:
        formula = formula.with_constraints(new)
        for c in new:
            total = patterns[:, [v - 1 for v in c.vars]].sum(axis=1)
            sat &= (total <= c.bound) if c.sense == AT_MOST else (total >= c.bound)
        assert sat.any()  # the attacked set satisfies every certificate
        want = tuple(bool(b) for b in patterns[order[np.argmax(sat[order])]])
        got = solve(formula)
        assert got == want
        solves += 1
        hypothesis = [i for i in range(1, p + 1) if not got[i - 1]]
        new = []
        if attacked & set(hypothesis):
            new.append(at_least(hypothesis, 1))
            shrunk = list(hypothesis)
            for sensor in rng.permutation(hypothesis)[: p - 2 * k + 1]:
                shrunk.remove(sensor)
                if len(shrunk) <= k or not attacked & set(shrunk):
                    break
                new.append(at_least(shrunk, 1))
    assert {i + 1 for i in range(p) if got[i]} == attacked
    assert solves >= 20
