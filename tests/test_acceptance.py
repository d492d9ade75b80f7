"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with -s to see the lines. Two criteria carry documented deviations that
the asserts pin exactly rather than hide: the bundled radius table has a
transposed digit at one cell (criterion 1 reports FAIL), and two boundary
cells of stated formulas are corrected with the true values (criteria 2, 3,
8 notes). The analysis lives in the README.
"""
import math
import random
import time

import numpy as np

from distlap import (
    GraftSpec,
    KIND_TWINS,
    KIND_VERTEX,
    SCAN_IDS,
    InvalidGraft,
    apply_graft,
    build,
    canonical_form,
    check_graft_monotone_L,
    check_graft_monotone_Q,
    closed_form,
    dist_laplacian,
    dist_signless_laplacian,
    dl_charpoly_multipartite,
    eigenvalues,
    eigenvalues_jacobi,
    eigenvalues_stacked,
    enumerate_connected,
    family_spec,
    fixture31_determinant,
    fixture61_determinant,
    from_graph6,
    is_isomorphic,
    proof_fixture_theorem31,
    proof_fixture_theorem61,
    scan_reports,
    star_q_extremes,
    table1_regression,
)
from distlap.verify import TABLE1_KITE, TABLE1_TSTAR


def fam(kind, *params):
    return build(family_spec(kind, *params))


def _line(num, ok, phrase):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {phrase}")


def test_criterion_1_table1():
    t0 = time.perf_counter()
    r = table1_regression()
    elapsed = time.perf_counter() - t0
    rows = {n: (kite, tstar, ok) for n, kite, tstar, ok in r.rows}
    assert sorted(rows) == list(range(7, 14))
    for n in range(7, 14):
        kite, tstar, ok = rows[n]
        assert abs(kite - TABLE1_KITE[n]) <= 5e-4
        assert kite > tstar
        if n != 12:
            assert abs(tstar - TABLE1_TSTAR[n]) <= 5e-4 and ok
    # the one unreproducible cell: the reference T* value at n = 12 reads
    # 92.9528 while the recomputed radius is 92.9582 (same digits, two
    # transposed); both eigensolver routes agree on the recomputed value
    got = rows[12][1]
    assert not rows[12][2]
    assert abs(got - 92.9582) <= 5e-4
    assert abs(got - TABLE1_TSTAR[12]) > 5e-3
    jac = eigenvalues_jacobi(dist_signless_laplacian(fam("TStar", 12)))[0]
    assert abs(jac - got) < 1e-8
    assert elapsed < 1.0
    _line(1, False,
          f"13 of 14 table cells within 5e-4 and kite > T* on every row in "
          f"{elapsed:.3f}s, but the reference T* cell at n=12 (92.9528) is a "
          f"transposed-digit misprint of the recomputed {got:.4f} "
          f"(both eigensolvers agree)")


def test_criterion_2_closed_form_spectra():
    for n in range(3, 14):
        spec = eigenvalues(dist_laplacian(fam("Complete", n)))
        want = [float(n)] * (n - 1) + [0.0]
        assert max(abs(a - b) for a, b in zip(spec, want)) <= 1e-8
        spec = eigenvalues(dist_laplacian(fam("CompleteMinusMatching", n, 1)))
        want = [n + 2.0] + [float(n)] * (n - 2) + [0.0]
        assert max(abs(a - b) for a, b in zip(spec, want)) <= 1e-8

    rng = random.Random(4242)
    for _ in range(50):
        k = rng.randint(2, 6)
        n = rng.randint(k, 12)
        cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
        parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        got = eigenvalues(dist_laplacian(fam("CompleteMultipartite", *parts)))
        want = [float(r) for r, m in dl_charpoly_multipartite(parts) for _ in range(m)]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8, parts

    boundary = 0
    for n in range(2, 13):
        for omega in range(2, n + 1):
            radius = eigenvalues(dist_laplacian(fam("Turan", n, omega)))[0]
            cf = closed_form(family_spec("Turan", n, omega), "DLRadius")
            if omega < n:
                assert abs(radius - (n + math.ceil(n / omega))) <= 1e-8
            else:
                # the ceiling formula reads n+1 here but T_{n,n} is K_n with
                # radius n; the true value is asserted instead
                assert abs(radius - n) <= 1e-8
                boundary += 1
            assert abs(cf - radius) <= 1e-8
    assert boundary == 11
    _line(2, True,
          "complete and minus-edge spectra (n=3..13), 50 random multipartite "
          "char-polys, and the Turan radius n+ceil(n/omega) all within 1e-8; "
          "at the 11 omega=n cells the formula overshoots K_n and the true "
          "radius n is verified instead")


def test_criterion_3_star_families():
    for n in range(4, 41):
        root = closed_form(family_spec("StarPlus", n), "QRadius")
        direct = eigenvalues(dist_signless_laplacian(fam("StarPlus", n)))[0]
        assert abs(root - direct) <= 1e-7, n
    for n in range(3, 41):
        plus, minus = star_q_extremes(n)
        spec = eigenvalues(dist_signless_laplacian(fam("Star", n)))
        assert abs(spec[0] - plus) <= 1e-7, n
        if n >= 4:
            assert abs(spec[-1] - minus) <= 1e-7, n
        else:
            # boundary: at n = 3 the minus root 1.4384 sits above the middle
            # eigenvalue 2n-5 = 1, which is the actual smallest
            assert abs(spec[-1] - 1.0) <= 1e-7
            assert abs(sorted(spec)[1] - minus) <= 1e-7
        assert abs(spec[-1]
                   - closed_form(family_spec("Star", n), "QMinEig")) <= 1e-7
    _line(3, True,
          "star-plus-edge cubic root matches the eigensolve for n=4..40 and "
          "the star plus/minus roots match radius/smallest for n=3..40, "
          "except n=3 where the minus root is second-smallest (smallest is "
          "2n-5 = 1, pinned exactly)")


def test_criterion_4_exhaustive_scan():
    t0 = time.perf_counter()
    total = 0
    for tid in SCAN_IDS:
        for n in range(1, 8):
            r = next(scan_reports([tid], n))
            assert not r.violations, (tid, n, r.violations[:1])
            total += r.graphs_checked
    elapsed = time.perf_counter() - t0
    assert total == len(SCAN_IDS) * 996
    assert elapsed < 300.0
    _line(4, True,
          f"{len(SCAN_IDS)} checks x 996 connected graphs (n <= 7): zero "
          f"violations in {elapsed:.1f}s")


def test_criterion_5_witness_censuses():
    r = next(scan_reports(["T3.2"], 6))
    got = {canonical_form(from_graph6(w)) for w in r.equality_witnesses}
    want = {canonical_form(fam("Complete", 6))} | {
        canonical_form(fam("CompleteMinusMatching", 6, k)) for k in (1, 2, 3)}
    assert got == want and len(r.equality_witnesses) == 4
    for n in (6, 7):
        r = next(scan_reports(["T7.1"], n))
        got = {canonical_form(from_graph6(w)) for w in r.equality_witnesses}
        assert got == {canonical_form(fam("Kite3", n))}, n
        assert len(r.equality_witnesses) == 1
    for n in (5, 6, 7):
        r = next(scan_reports(["T6.2"], n))
        got = {canonical_form(from_graph6(w)) for w in r.equality_witnesses}
        assert got == {canonical_form(fam("Star", n))}, n
        assert len(r.equality_witnesses) == 1
    _line(5, True,
          "T3.2 witnesses at n=6 are exactly K6 - kK2 (k=0..3); the T7.1 "
          "witness at n=6,7 is exactly the kite; the T6.2 witness at n=5..7 "
          "is exactly the star")


def test_criterion_6_proof_fixtures():
    cases = 0
    for n in range(3, 13):
        for a in range(1, n - 1):
            for dprime in (None, n - 1, n, n + 2, 2 * n - 3, 2 * n - 2):
                r = proof_fixture_theorem31(n, a, dprime=dprime)
                d = 2 * n - a - 2 if dprime is None else dprime
                want = fixture31_determinant(n, a, dprime=dprime)
                got = float(np.linalg.det((d + 2.0) * np.eye(3) - r))
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (n, a, dprime)
                cases += 1
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            if n1 + n2 + 2 > 12:
                continue
            r = proof_fixture_theorem61(n1, n2)
            n = n1 + n2 + 2
            want = fixture61_determinant(n1, n2)
            got = float(np.linalg.det((2.0 * n + 2.0) * np.eye(4) - r))
            assert abs(got - want) <= 1e-6 * abs(want), (n1, n2)
            cases += 1
    _line(6, True,
          f"3x3 and 4x4 quotient determinant identities match numeric "
          f"determinants in all {cases} parameter choices with n <= 12 "
          f"(1e-6 relative)")


def test_criterion_7_eigensolver_cross_validation():
    rng = random.Random(701)
    worst = 0.0
    by_order = {}
    for _ in range(200):
        n = rng.randint(1, 12)
        a = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                a[i, j] = a[j, i] = rng.uniform(-10.0, 10.0)
        v1 = eigenvalues(a)
        v2 = eigenvalues_jacobi(a)
        by_order.setdefault(n, []).append((a, v1, v2))
        worst = max(worst, max(abs(x - y) for x, y in zip(v1, v2)))
        tr = float(np.trace(a))
        fro2 = float(np.sum(a * a))
        for vals in (v1, v2):
            assert abs(sum(vals) - tr) <= 1e-8
            assert abs(sum(v * v for v in vals) - fro2) <= 1e-8 * max(1.0, fro2)
    assert worst <= 1e-8
    # the stacked solver of the scan path, one stack per order
    for sample in by_order.values():
        rows = eigenvalues_stacked(np.stack([a for a, _, _ in sample]))
        for row, (_, v1, v2) in zip(rows.tolist(), sample):
            assert tuple(row) == v1
            assert max(abs(x - y) for x, y in zip(row, v2)) <= 1e-8
    _line(7, True,
          f"QL and Jacobi agree within {worst:.1e} elementwise on 200 random "
          f"symmetric matrices (n <= 12), stacked QL rows equal the per-matrix "
          f"ones exactly; trace and Frobenius identities within 1e-8")


def test_criterion_8_graft_monotonicity():
    bases = [g for n in range(1, 5) for g in enumerate_connected(n)]
    checked = 0
    ties = 0

    def tie_is_isomorphic(spec):
        a = apply_graft(spec)
        b = apply_graft(GraftSpec(spec.base, spec.kind, spec.anchors,
                                  spec.k + 1, spec.l - 1))
        return is_isomorphic(a, b)

    for base in bases:
        combos = [(k, l) for l in range(2, 9) for k in range(l, 9)
                  if base.n + k + l <= 9]
        specs = [GraftSpec(base, KIND_VERTEX, (v,), k, l)
                 for v in range(base.n) for k, l in combos]
        for u, v in base.edges():
            specs.extend(GraftSpec(base, KIND_TWINS, (u, v), k, l)
                         for k, l in combos)
        for spec in specs:
            try:
                vl = check_graft_monotone_L(spec)
                vq = check_graft_monotone_Q(spec)
            except InvalidGraft:
                continue  # adjacent pair that is not a twin pair
            checked += 1
            if vl.applicable:
                assert vl.holds, spec
                if spec.l == 2 and not (spec.kind == KIND_VERTEX and base.n < 2):
                    assert vl.strict, spec
                elif spec.l == 2:
                    # one-vertex base: the comparison pairs a path with
                    # itself, an exact tie
                    assert not vl.strict
                    assert abs(vl.observed - vl.bound_value) <= 1e-8
                    assert tie_is_isomorphic(spec)
                    ties += 1
            else:
                # two-vertex twins base, excluded by the order hypothesis;
                # the pair is isomorphic and ties exactly
                assert abs(vl.observed - vl.bound_value) <= 1e-8
                assert tie_is_isomorphic(spec)
                ties += 1
            if vq.applicable:
                assert vq.holds and vq.strict, spec
            else:
                assert abs(vq.observed - vq.bound_value) <= 1e-8
    assert checked > 100 and ties > 0
    _line(8, True,
          f"{checked} graft comparisons on connected bases of order <= 4 "
          f"(grafted order <= 9): L radius non-decreasing and strict at l=2, "
          f"Q radius strictly increasing; the only ties are the {ties} "
          f"degenerate one-vertex/two-vertex bases whose compared grafts are "
          f"isomorphic paths")
