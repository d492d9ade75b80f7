"""Structured result of evaluating one bound on one graph."""
from __future__ import annotations

from dataclasses import dataclass, field

EQUALITY_TOL = 1e-7  # |observed - bound| below this counts as equality
SLACK = 1e-8         # numeric slack granted to every inequality


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one theorem's bound on one graph.

    When the theorem's hypotheses fail, ``applicable`` is False and the three
    boolean verdict flags are vacuously True by convention; consumers must
    filter on ``applicable`` before drawing conclusions.
    """

    theorem_id: str
    bound_value: float
    observed: float
    holds: bool
    strict: bool
    equality: bool
    applicable: bool = True
    witness: dict = field(default_factory=dict)


def verdict(theorem_id: str, observed: float, rel: str, bound: float,
            tol: float = EQUALITY_TOL, witness: dict | None = None) -> BoundVerdict:
    """The verdict of the claim ``observed rel bound``, rel one of >=, <=, >
    and <. strict means observed clears bound by more than SLACK on the
    claimed side; >= and <= hold within SLACK of bound, > and < hold only
    when strict. equality means |observed - bound| <= tol."""
    if rel in (">=", ">"):
        strict = observed - bound > SLACK
        holds = observed >= bound - SLACK if rel == ">=" else strict
    elif rel in ("<=", "<"):
        strict = bound - observed > SLACK
        holds = observed <= bound + SLACK if rel == "<=" else strict
    else:
        raise ValueError(f"unknown relation {rel!r}")
    return BoundVerdict(theorem_id, bound, observed, holds=holds, strict=strict,
                        equality=abs(observed - bound) <= tol,
                        witness=witness or {})


def not_applicable(theorem_id: str, bound_value: float = 0.0,
                   observed: float = 0.0, witness: dict | None = None) -> BoundVerdict:
    return BoundVerdict(theorem_id, bound_value, observed,
                        holds=True, strict=True, equality=True,
                        applicable=False, witness=witness or {})
