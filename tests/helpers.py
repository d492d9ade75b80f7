"""Graph builders shared by the tests."""
from distlap import FamilySpec, build, from_edges


def fam(kind, *params):
    return build(FamilySpec(kind, params))


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
