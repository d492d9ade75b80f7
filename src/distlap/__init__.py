"""Distance Laplacian and distance signless Laplacian spectra of connected
graphs: construction, closed forms, spectral bounds, and exhaustive
verification over small-order corpora."""

from .errors import (CorpusError, DisconnectedGraph, DistlapError,
                     DimensionMismatch, InconsistentClassification,
                     InvalidGraft, InvalidParams, InvalidPartition,
                     MalformedGraph6, NoConvergence, NoRootInBracket,
                     NoSuchEdge, UnknownTheorem, UnsupportedOrder,
                     UnsupportedQuantity)
from .graphs import (CONNECTED_COUNTS, ENUM_LIMIT, MAX_ORDER, DistanceData,
                     Graph, canonical_form, complement, distance_data,
                     enumerate_connected, from_edges, from_graph6,
                     graph6_corpus, is_connected, is_isomorphic, to_graph6)
from .linalg import (Spectrum, as_sym_matrix, eigenvalues, eigenvalues_jacobi,
                     eigenvalues_stacked, largest_root)
from .verdict import EQUALITY_TOL, SLACK, BoundVerdict, Verdicts, not_applicable
from .spectra import (OrderGroup, StackedProfiles, adjacency_matrix,
                      algebraic_connectivity, check_interlacing,
                      check_quotient_bound, dist_laplacian,
                      dist_signless_laplacian, distance_matrix, laplacian,
                      quotient_matrix, radii, validate_partition)
from .families import (KINDS, QUANTITIES, FamilySpec, build, closed_form,
                       dl_charpoly_multipartite, family_spec, parse_family,
                       star_q_extremes, turan_parts)
from .bounds import (CHECKS, FORMULAS, THEOREM_IDS, bound_gap_theorem62,
                     bound_L1_clique_lower, bound_L1_clique_upper,
                     bound_L1_lemma31, bound_L1_theorem31, bound_L1_theorem32,
                     bound_L1_theorem41, bound_L1_theorem42,
                     bound_Q1_diameter, bound_Q1_unicyclic,
                     bound_Qn_corollary61, bound_Qn_theorem63,
                     bound_Qn_theorem64, check_lemma23, check_lemma24,
                     check_lemma41, check_lemma42, classify_L1_theorem32,
                     clique_number, is_complete, is_kite, is_star, is_turan)
from .transforms import (KIND_TWINS, KIND_VERTEX, GraftSpec, apply_graft,
                         check_graft_monotone_L, check_graft_monotone_Q,
                         delete_edge)
from .verify import (SCAN_IDS, ScanReport, check_lemma74, compare_kite_tstar,
                     emit_report, fixture31_determinant, fixture61_determinant,
                     proof_fixture_theorem31, proof_fixture_theorem61, scan,
                     scan_many, table1_regression)

__version__ = "0.1.0"
