import math
import random

from distlap import (
    CHECKS,
    EQUALITY_TOL,
    FORMULAS,
    InvalidParams,
    THEOREM_IDS,
    bound_gap_theorem62,
    bound_L1_clique_lower,
    bound_L1_clique_upper,
    bound_L1_lemma31,
    bound_L1_theorem31,
    bound_L1_theorem32,
    bound_L1_theorem41,
    bound_L1_theorem42,
    bound_Q1_diameter,
    bound_Q1_unicyclic,
    bound_Qn_corollary61,
    bound_Qn_theorem63,
    bound_Qn_theorem64,
    check_lemma41,
    check_lemma42,
    clique_number,
    dist_laplacian,
    eigenvalues,
    from_edges,
    is_complete,
    is_isomorphic,
    is_kite,
    is_star,
    is_turan,
    order_groups,
)
from distlap.bounds import is_clique_path
from distlap.graphs import stack_graphs

from helpers import fam
from test_graphs import class_stack


def test_registry():
    assert THEOREM_IDS == ("L3.1", "T3.1", "T3.2", "T4.1", "T4.2", "T5.1",
                           "T5.2", "T6.1", "T6.2", "T6.3", "C6.1", "T6.4",
                           "T7.1")
    for tid in THEOREM_IDS:
        assert tid in CHECKS and CHECKS[tid](fam("Path", 4)).theorem_id == tid


def test_clique_number():
    assert clique_number(fam("Complete", 5)) == 5
    assert clique_number(fam("Cycle", 5)) == 2
    assert clique_number(fam("Kite3", 7)) == 3
    assert clique_number(fam("Path", 1)) == 1
    assert clique_number(fam("Turan", 9, 4)) == 4


def test_recognizers():
    assert is_complete(fam("Complete", 4)) and not is_complete(fam("Cycle", 4))
    # K_n - kK_2 is recognised by T3.2, which reports k (P_4, not of that
    # form, is classified "AboveNPlus2" in test_theorem32_verdicts)
    assert bound_L1_theorem32(fam("Complete", 6)).witness["matching_k"] == 0
    assert bound_L1_theorem32(fam("CompleteMinusMatching", 6, 2)).witness["matching_k"] == 2
    assert is_star(fam("Star", 5)) and not is_star(fam("Path", 4))
    # P_2 + C_3 has n - 1 edges and path-like degrees but is disconnected
    p2_c3 = from_edges(5, [(0, 1), (2, 3), (3, 4), (4, 2)])
    assert not is_clique_path(p2_c3, 2)
    assert is_turan(fam("Turan", 6, 3), 3)
    assert not is_turan(fam("Path", 4), 2)
    assert is_clique_path(fam("Kite3", 6), 3)
    assert not is_clique_path(fam("Cycle", 4), 2)
    assert is_kite(fam("Kite3", 8)) and not is_kite(fam("Cycle", 6))


def test_recognizers_match_isomorphism_to_the_members():
    # every graph class with n <= 7, disconnected ones included, and every
    # omega from 0 to n + 1: each recognizer holds exactly on the graphs
    # isomorphic to its family member, where that member exists (K_1 is
    # both T(1, 1) and K_1^0, which the builders refuse)
    def member(kind, *params):
        try:
            return fam(kind, *params)
        except InvalidParams:
            return None

    def isomorphic(g, h):
        return h is not None and is_isomorphic(g, h)

    for n in range(1, 8):
        members = {(kind, omega): member(kind, n, omega) for omega in range(n + 2)
                   for kind in ("Turan", "KiteClique")}
        star, kite = member("Star", n), member("Kite3", n)
        for g in stack_graphs(class_stack(n)):
            assert is_star(g) == isomorphic(g, star), g
            assert is_kite(g) == isomorphic(g, kite), g
            for omega in range(n + 2):
                k1 = omega == n == 1
                assert is_turan(g, omega) == (
                    k1 or isomorphic(g, members["Turan", omega])), (g, omega)
                assert is_clique_path(g, omega) == (
                    k1 or isomorphic(g, members["KiteClique", omega])), (g, omega)
    # relabelled members beyond the enumerated orders: each is recognised at
    # its own omega only, and is none of the other classes (K_n aside)
    rng = random.Random(23)

    def relabelled(h):
        perm = rng.sample(range(h.n), h.n)
        return from_edges(h.n, [(perm[i], perm[j]) for i, j in h.edges()])

    for n in range(8, 15):
        for omega in range(2, n + 1):
            turan = relabelled(fam("Turan", n, omega))
            path = relabelled(fam("KiteClique", n, omega))
            assert not is_star(turan) and not is_star(path)
            assert not is_kite(turan) and is_kite(path) == (omega == 3)
            for w in range(n + 2):
                assert is_turan(turan, w) == is_clique_path(path, w) == (w == omega)
                assert is_turan(path, w) == is_clique_path(turan, w) == (w == omega == n)


def test_lemma31_examples():
    v = bound_L1_lemma31(fam("Star", 5))
    assert abs(v.bound_value - 8.75) < 1e-12
    assert abs(v.observed - 9.0) < 1e-7
    assert v.holds and not v.equality
    v = bound_L1_lemma31(fam("Complete", 4))
    assert v.bound_value == 4.0 and v.equality and not v.strict
    v = bound_L1_lemma31(fam("Path", 4))
    assert v.bound_value == 8.0 and abs(v.observed - 9.2361) < 5e-5
    assert bound_L1_lemma31(fam("Path", 1)).applicable is False


def test_theorem31_examples():
    v = bound_L1_theorem31(fam("Complete", 4))
    assert not v.applicable and v.holds  # vacuous flags
    v = bound_L1_theorem31(fam("Path", 4))
    assert v.applicable and v.bound_value == 8.0
    assert v.holds and v.strict  # diam 3 forces the strict form
    v = bound_L1_theorem31(fam("Cycle", 4))
    assert v.applicable and v.witness["diam"] == 2 and v.holds


def test_theorem31_strict_only_at_diameter_3():
    # a dl radius of exactly D1 + 2 fails the strict form (P4, diameter 3)
    # and attains the bound (K1,3, diameter 2); no corpus graph comes that
    # close, so each case is a one-row group whose radius is set to D1 + 2
    for g, bound, holds in ((fam("Path", 4), 8.0, False), (fam("Star", 4), 7.0, True)):
        group = order_groups([g])[0]
        group.dl[0, 0] = bound
        v = FORMULAS["T3.1"](group, EQUALITY_TOL).verdict(0)
        assert (v.bound_value, v.observed) == (bound, bound)
        assert v.holds is holds and v.equality


def test_theorem32_inconsistent_details():
    # no graph's radius disagrees with its structure, so each case is a
    # one-row group whose radius is set off the value its structure forces
    cases = ((fam("Path", 4), 6.0, "dl radius 6.0 at or below 6 without matching structure"),
             (fam("Complete", 4), 5.0, "complete graph with dl radius 5.0 != 4"),
             (fam("CompleteMinusMatching", 4, 1), 7.0,
              "matching-complement graph with dl radius 7.0 != 6"))
    for g, radius, detail in cases:
        group = order_groups([g])[0]
        group.dl[0, 0] = radius
        v = FORMULAS["T3.2"](group, EQUALITY_TOL).verdict(0)
        assert not v.holds and v.observed == radius
        assert v.witness == {"classification": "inconsistent", "detail": detail}


def test_theorem32_verdicts():
    v = bound_L1_theorem32(fam("CompleteMinusMatching", 6, 2))
    assert v.bound_value == 8.0 and v.equality and not v.strict
    assert v.witness["classification"] == "EqualsNPlus2_Matching"
    assert v.witness["matching_k"] == 2
    v = bound_L1_theorem32(fam("Complete", 5))
    assert v.applicable and v.bound_value == 5.0 and v.equality
    assert v.witness["classification"] == "EqualsN_Kn"
    v = bound_L1_theorem32(fam("Path", 4))
    assert v.strict and not v.equality
    assert v.witness["classification"] == "AboveNPlus2"
    # K_2 is the least order classified; K_1 (P_1) is not applicable
    v = bound_L1_theorem32(fam("Complete", 2))
    assert v.applicable and v.witness["classification"] == "EqualsN_Kn"
    assert bound_L1_theorem32(fam("Path", 1)).applicable is False


def test_theorem41_examples():
    v = bound_L1_theorem41(fam("Complete", 5))
    assert v.bound_value == 5.0 and v.equality
    assert v.witness["structural_mismatch"] is False
    v = bound_L1_theorem41(fam("CompleteMinusMatching", 5, 1))
    assert v.bound_value == 7.0 and v.equality
    # spectral equality without completeness is reported, not hidden
    assert v.witness["structural_mismatch"] is True
    v = bound_L1_theorem41(fam("Path", 4))
    assert v.bound_value == 12.0 and v.strict
    assert bound_L1_theorem41(fam("Complete", 3)).applicable is False


def test_theorem42_examples():
    v = bound_L1_theorem42(fam("Complete", 3))
    assert abs(v.bound_value - (2.0 + math.sqrt(2.0))) < 1e-12
    assert v.holds and v.strict
    v = bound_L1_theorem42(fam("Path", 3))
    assert abs(v.bound_value - (3.0 + math.sqrt(14.0 / 3.0))) < 1e-12
    v = bound_L1_theorem42(fam("Cycle", 4))
    assert v.holds and v.strict
    assert bound_L1_theorem42(fam("Complete", 2)).applicable is False


def test_clique_lower_examples():
    v = bound_L1_clique_lower(fam("Turan", 6, 3))
    assert v.bound_value == 8.0 and v.equality
    assert v.witness["is_turan"] is True
    assert bound_L1_clique_lower(fam("Complete", 5)).applicable is False
    v = bound_L1_clique_lower(fam("Kite3", 6))
    assert v.bound_value == 8.0 and v.holds and v.strict
    assert abs(v.observed - 18.7130) < 5e-4
    assert v.witness["is_turan"] is False


def test_clique_upper_examples():
    v = bound_L1_clique_upper(fam("KiteClique", 5, 3))
    assert v.equality and v.witness["is_clique_path"] is True
    v = bound_L1_clique_upper(fam("Cycle", 5))
    p5_radius = eigenvalues(dist_laplacian(fam("Path", 5)))[0]
    assert abs(v.bound_value - p5_radius) < 1e-9
    assert abs(v.bound_value - 14.701562) < 5e-6
    assert v.holds and v.strict and not v.equality


def test_q1_diameter_examples():
    v = bound_Q1_diameter(fam("Cycle", 7))
    assert v.bound_value == 16.0 and abs(v.observed - 24.0) < 1e-9
    assert v.holds and v.witness["bound_d_n2_half"] is None
    v = bound_Q1_diameter(fam("Path", 5))
    assert v.bound_value == 14.0 and v.witness["bound_d_n2_half"] == 14.0
    assert v.holds
    assert bound_Q1_diameter(fam("Complete", 4)).applicable is False
    assert bound_Q1_diameter(fam("Cycle", 5)).applicable is False


def test_gap_theorem62_examples():
    v = bound_gap_theorem62(fam("Star", 5))
    want = (-1.0 + math.sqrt(97.0)) / 2.0
    assert abs(v.bound_value - want) < 1e-12
    assert abs(v.observed - want) < 1e-7
    assert v.equality and v.witness["is_star"] is True
    v = bound_gap_theorem62(fam("Complete", 5))
    assert abs(v.observed - 3.0) < 1e-9 and v.holds and v.strict
    assert bound_gap_theorem62(fam("Path", 5)).applicable is False  # diam 4
    assert bound_gap_theorem62(fam("Complete", 3)).applicable is False  # n < 4


def test_qn_bounds_examples():
    v = bound_Qn_theorem63(fam("Complete", 4))
    assert v.bound_value == 2.0 and abs(v.observed - 2.0) < 1e-9 and v.equality
    star = fam("Star", 5)
    t63, c61, t64 = (bound_Qn_theorem63(star), bound_Qn_corollary61(star),
                     bound_Qn_theorem64(star))
    assert c61.applicable is False  # unique minimum-transmission vertex
    assert c61.witness["min_trans_multiplicity"] == 1
    minus = (17.0 - math.sqrt(97.0)) / 2.0
    assert abs(t63.observed - minus) < 1e-7 and t63.holds
    assert t64.bound_value == 4.0 and t64.holds and t64.strict
    v = bound_Qn_corollary61(fam("Cycle", 6))
    assert v.applicable and v.bound_value == 8.0
    assert abs(v.observed - 5.0) < 1e-9 and v.holds and v.strict
    assert v.witness["min_trans_multiplicity"] == 6
    assert bound_Qn_theorem63(fam("Path", 1)).applicable is False
    assert bound_Qn_theorem64(fam("Path", 1)).applicable is False
    v = bound_Qn_theorem64(fam("Complete", 2))
    assert v.bound_value == 1.0 and abs(v.observed) < 1e-9 and v.holds


def test_unicyclic_examples():
    v = bound_Q1_unicyclic(fam("Kite3", 7))
    assert abs(v.bound_value - 31.1081) < 5e-4
    assert v.equality and v.witness["is_kite"] is True
    assert bound_Q1_unicyclic(fam("TStar", 7)).applicable is False  # a tree
    v = bound_Q1_unicyclic(fam("Cycle", 7))
    assert abs(v.observed - 24.0) < 1e-9 and v.holds and v.strict
    assert bound_Q1_unicyclic(fam("Cycle", 5)).applicable is False  # n < 6


def test_lemma41_lemma42():
    v = check_lemma41(fam("Cycle", 5))
    assert v.applicable and v.holds
    assert check_lemma41(fam("Complete", 2)).applicable is False
    v = check_lemma42(fam("Complete", 5))
    assert v.equality and v.witness["is_Kn_or_Kn_minus_e"] is True
    v = check_lemma42(fam("Cycle", 5))
    assert v.holds and v.strict
    assert check_lemma42(fam("Complete", 3)).applicable is False


def test_theorem31_dominates_lemma31(corpus):
    # with D1 <= 2(n-1) the flat +2 bound is at least the proportional one
    for n in (5, 6):
        for g in corpus[n]:
            v31 = bound_L1_theorem31(g)
            if not v31.applicable:
                continue
            d1 = v31.witness["D1"]
            if d1 <= 2 * (n - 1):
                assert v31.bound_value >= bound_L1_lemma31(g).bound_value - 1e-12
