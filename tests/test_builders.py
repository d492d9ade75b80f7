"""The labelled graphs of every builder that hangs pendant paths: the
clique-path, kite, T-shape, T*, U4 and U3 families and both graft kinds."""
import hashlib

from distlap import (KIND_TWINS, KIND_VERTEX, GraftSpec, apply_graft, build,
                     enumerate_connected, family_spec, to_graph6)

# sha256 of the newline-joined graph6 of labelled_graphs(), from the
# builders that each carried their own path loop; labels are part of it,
# so a path hung off the wrong vertex changes it
LABELLED_SHA256 = "acc98d88a284e004570076b76e6dd3469b84085319bc943f23a3e5a2c37eec6d"


def _twins(g, u, v):
    return g.has_edge(u, v) and (g.adj[u] & ~(1 << v)) == (g.adj[v] & ~(1 << u))


def labelled_graphs():
    for n in range(2, 10):
        for omega in range(2, n + 1):
            yield build(family_spec("KiteClique", n, omega))
    for n in range(3, 11):
        yield build(family_spec("Kite3", n))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                yield build(family_spec("TShape", a, b, c))
    for n in range(6, 11):
        yield build(family_spec("TStar", n))
    for kind in ("U4", "U3"):
        for n1 in range(2, 8):
            for n2 in range(2, n1 + 1):
                yield build(family_spec(kind, n1, n2))
    for base in enumerate_connected(4):
        for k, l in ((1, 0), (2, 2), (4, 3)):
            for a in range(4):
                yield apply_graft(GraftSpec(base, KIND_VERTEX, (a,), k, l))
            for u in range(4):
                for v in range(u + 1, 4):
                    if _twins(base, u, v):
                        yield apply_graft(GraftSpec(base, KIND_TWINS, (u, v), k, l))


def test_labelled_builders_pinned():
    text = "\n".join(to_graph6(g) for g in labelled_graphs())
    assert len(text.splitlines()) == 251
    assert hashlib.sha256(text.encode()).hexdigest() == LABELLED_SHA256
