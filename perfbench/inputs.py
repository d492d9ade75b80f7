"""Seeded inputs for the benchmark workloads.

Everything here is plain Python with its own graph6 encoder, so the program
under test receives only generated text and never helps build its inputs.
The same seed always gives the same inputs.
"""
from __future__ import annotations

import random

# stream_bounds: connected graphs of mixed order and density
STREAM_SIZE = 1000
STREAM_ORDERS = (8, 24)
STREAM_DENSITIES = (0.0, 0.05, 0.15, 0.3, 0.6)

# family_sweep: fixed family orders plus seeded graft cases
SWEEP_MAX_ORDER = 64
GRAFT_CASES_PER_KIND = 32
GRAFT_BASE_ORDERS = (2, 10)


def random_connected(rng: random.Random, n: int, density: float) -> set:
    """Edges (i, j), i < j, of a random spanning tree on n vertices plus each
    other pair independently with probability density."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        edges.add((min(a, b), max(a, b)))
    for j in range(n):
        for i in range(j):
            if (i, j) not in edges and rng.random() < density:
                edges.add((i, j))
    return edges


def graph6(n: int, edges) -> str:
    """Short-form graph6 (n <= 62): upper triangle column by column, six bits
    per printable byte."""
    if not 1 <= n <= 62:
        raise ValueError(f"short-form graph6 needs 1 <= n <= 62, got {n}")
    bits = [1 if (i, j) in edges else 0 for j in range(n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + n) + body


def stream_graphs(seed: int, size: int = STREAM_SIZE) -> list[str]:
    """The stream_bounds corpus: size connected graphs as graph6 lines."""
    rng = random.Random(f"stream:{seed}")
    out = []
    for _ in range(size):
        n = rng.randint(*STREAM_ORDERS)
        out.append(graph6(n, random_connected(rng, n, rng.choice(STREAM_DENSITIES))))
    return out


def _graft_case(rng: random.Random, kind: str, max_order: int) -> dict:
    b = rng.randint(*GRAFT_BASE_ORDERS)
    edges = random_connected(rng, b, rng.choice(STREAM_DENSITIES))
    if kind == "vertex":
        anchors = [rng.randrange(b)]
    else:
        # add a closed twin t of u: t is adjacent to u and to every neighbour of u
        u, t = rng.randrange(b), b
        nbrs = {j for e in edges if u in e for j in e if j != u}
        edges |= {(min(w, t), max(w, t)) for w in nbrs | {u}}
        anchors = [u, t]
        b += 1
    total = rng.randint(b + 4, max_order)
    l = rng.randint(2, (total - b) // 2)
    return {"base": graph6(b, edges), "kind": kind, "anchors": anchors,
            "k": total - b - l, "l": l}


def sweep_cases(seed: int, max_order: int = SWEEP_MAX_ORDER,
                grafts_per_kind: int = GRAFT_CASES_PER_KIND) -> dict:
    """The family_sweep input: kite/T* orders 7..max_order, every valid
    Lemma 7.4 arm pair (n1 >= n2 >= 2, 7 <= n1 + n2 + 2 <= max_order), and
    seeded graft cases of both kinds whose grafted order reaches max_order."""
    rng = random.Random(f"sweep:{seed}")
    return {
        "kite_tstar": list(range(7, max_order + 1)),
        "lemma74": [[n1, n2] for n2 in range(2, max_order // 2)
                    for n1 in range(max(n2, 5 - n2), max_order - 1 - n2)],
        "grafts": [_graft_case(rng, kind, max_order)
                   for kind in ("vertex", "twins")
                   for _ in range(grafts_per_kind)],
    }
