import numpy as np
import pytest

from distlap import SLACK
from distlap.verdict import flags, verdict

# Values one ulp-scale step from bound -/+ SLACK, where the claim's written
# expression and its algebraic rearrangement round to different answers:
# 0.99999999 >= 1.0 - SLACK, yet 1.0 - 0.99999999 > SLACK as well.
BELOW, ABOVE = (0.99999999, 1.0), (10.00000001, 10.0)


def test_boundary_cases_split_the_rearranged_forms():
    obs, bound = BELOW
    assert (obs >= bound - SLACK) != (not bound - obs > SLACK)
    obs, bound = ABOVE
    assert (obs <= bound + SLACK) != (not obs - bound > SLACK)


def test_verdict_at_least():
    # holds is obs >= bound - SLACK, strict is obs - bound > SLACK
    v = verdict("X", BELOW[0], ">=", BELOW[1])
    assert (v.holds, v.strict, v.equality) == (True, False, True)
    assert (v.theorem_id, v.observed, v.bound_value) == ("X", *BELOW)


def test_verdict_at_most():
    # holds is obs <= bound + SLACK, strict is bound - obs > SLACK
    v = verdict("X", ABOVE[0], "<=", ABOVE[1])
    assert (v.holds, v.strict, v.equality) == (True, False, True)


def test_verdict_greater():
    # holds equals strict, obs - bound > SLACK, not obs > bound + SLACK
    v = verdict("X", ABOVE[0], ">", ABOVE[1])
    assert (v.holds, v.strict) == (True, True)
    assert not ABOVE[0] > ABOVE[1] + SLACK


def test_verdict_less():
    # holds equals strict, bound - obs > SLACK, not obs < bound - SLACK
    v = verdict("X", BELOW[0], "<", BELOW[1])
    assert (v.holds, v.strict) == (True, True)
    assert not BELOW[0] < BELOW[1] - SLACK


def test_verdict_equal():
    # holds is |obs - bound| <= SLACK, never strict; only equality reads tol
    assert flags(1.0 + SLACK / 2, "==", 1.0, 0.0) == (True, False, False)
    assert flags(1.0, "==", 1.5, 0.5) == (False, False, True)
    holds, strict, equality = flags(np.array([0.0, SLACK / 2, 1e-7]), "==", 0.0, 1e-7)
    assert holds.tolist() == [True, True, False]
    assert strict.tolist() == [False] * 3 and equality.tolist() == [True] * 3


def test_verdict_equality_tolerance_and_witness():
    v = verdict("X", 1.0, "<=", 1.5, witness={"k": 1})
    assert not v.equality and v.strict and v.holds and v.witness == {"k": 1}
    # equality is |observed - bound| <= tol, at the tolerance given
    assert flags(1.0, "<=", 1.5, 0.5) == (True, True, True)
    assert not flags(1.0, "<=", 1.5, 0.25)[2]
    assert verdict("X", 1.0, "<=", 1.5).witness == {}
    with pytest.raises(ValueError):
        verdict("X", 1.0, "!=", 1.0)
