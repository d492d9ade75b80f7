"""Exception types shared across the package."""


class DistlapError(Exception):
    """Base class for all errors raised by this package."""


class DisconnectedGraph(DistlapError):
    """A connected graph was required but the input is disconnected."""


class MalformedGraph6(DistlapError):
    """Input bytes/string do not form a valid graph6 record."""


class UnsupportedOrder(DistlapError):
    """Graph order outside the supported range for the operation."""


class InvalidPartition(DistlapError):
    """Vertex partition does not cover the index set exactly once."""


class DimensionMismatch(DistlapError):
    """Matrix or vector dimensions are inconsistent."""


class NoConvergence(DistlapError):
    """Iterative eigensolver failed to converge within its sweep budget."""


class InvalidParams(DistlapError):
    """Numeric parameters violate the preconditions of a construction."""


class UnsupportedQuantity(DistlapError):
    """No closed form is available for the requested family/quantity pair."""


class InvalidGraft(DistlapError):
    """Graft specification violates its invariants (anchors, arm lengths, order cap)."""


class NoSuchEdge(DistlapError):
    """Edge not present in the graph."""


class UnknownTheorem(DistlapError):
    """Theorem id not in the registry."""


class CorpusError(DistlapError):
    """Corpus stream is unreadable or malformed."""
