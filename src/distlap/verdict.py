"""Structured result of evaluating one bound on one graph, or on every
graph of an order group at once."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParams

EQUALITY_TOL = 1e-7  # |observed - bound| below this counts as equality
SLACK = 1e-8         # numeric slack of every holds and strict flag


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


def flags(observed, rel: str, bound, tol: float = EQUALITY_TOL) -> tuple:
    """(holds, strict, equality) of the claim ``observed rel bound``, rel one
    of >=, <=, >, < and ==, for floats and numpy arrays alike. strict means
    observed clears bound by more than SLACK on the claimed side; >= and <=
    hold within SLACK of bound, > and < hold only when strict, and == holds
    within SLACK of bound and is never strict. equality means
    |observed - bound| <= tol, the only flag that tol reaches; tol must be a
    finite number >= 0, else InvalidParams."""
    if not 0 <= tol < np.inf:
        raise InvalidParams(f"tolerance must be a finite number >= 0, got {tol}")
    if rel in (">=", ">"):
        strict = observed - bound > SLACK
        holds = observed >= bound - SLACK if rel == ">=" else strict
    elif rel in ("<=", "<"):
        strict = bound - observed > SLACK
        holds = observed <= bound + SLACK if rel == "<=" else strict
    elif rel == "==":
        holds = abs(observed - bound) <= SLACK
        strict = holds & False
    else:
        raise ValueError(f"unknown relation {rel!r}")
    return holds, strict, abs(observed - bound) <= tol


def verdict(theorem_id: str, observed: float, rel: str, bound: float,
            witness: dict | None = None) -> BoundVerdict:
    """The verdict of the claim ``observed rel bound``; see flags."""
    holds, strict, equality = flags(observed, rel, bound)
    return BoundVerdict(theorem_id, bound, observed, holds=holds, strict=strict,
                        equality=equality, witness=witness or {})


@dataclass(frozen=True)
class Verdicts:
    """One bound on every graph of an order group: bound, observed and the
    four flags as arrays in the group's row order. witness(row) builds one
    row's witness dict, so only the rows that are reported pay for it."""

    theorem_id: str
    bound: np.ndarray
    observed: np.ndarray
    holds: np.ndarray
    strict: np.ndarray
    equality: np.ndarray
    applicable: np.ndarray
    witness: Callable[[int], dict]

    def verdict(self, row: int) -> BoundVerdict:
        """Row's BoundVerdict, holding only Python floats and bools."""
        flags4 = (self.holds, self.strict, self.equality, self.applicable)
        return BoundVerdict(self.theorem_id, float(self.bound[row]),
                            float(self.observed[row]),
                            *(bool(f[row]) for f in flags4), self.witness(row))


def verdicts(theorem_id: str, observed, triple, bound, witness,
             applicable=True, inapplicable=None, hide=False) -> Verdicts:
    """Verdicts of rows with these observed values, triple of (holds,
    strict, equality) flags and bounds. The rows outside applicable follow
    not_applicable: bound 0.0, every flag True, observed 0.0 when hide, and
    the witness inapplicable(row) when that is given."""
    na = ~np.asarray(applicable) | np.zeros(np.shape(observed), dtype=bool)
    pick = witness if inapplicable is None else (
        lambda r: inapplicable(r) if na[r] else witness(r))
    return Verdicts(theorem_id, np.where(na, 0.0, bound),
                    np.where(na & hide, 0.0, observed),
                    *(f | na for f in triple), ~na, pick)


def not_applicable(theorem_id: str, bound_value: float = 0.0,
                   observed: float = 0.0, witness: dict | None = None) -> BoundVerdict:
    return BoundVerdict(theorem_id, bound_value, observed,
                        holds=True, strict=True, equality=True,
                        applicable=False, witness=witness or {})
