"""Disjoint-path linkages in cubes and cubical polytopes.

Library layout:
  cube        bit-level d-cube primitives (faces, projections, free pairs)
  graphs      bitmask graphs, BFS, vertex-capacity flow
  complexes   polytopal complexes, charts, star machinery
  generators  instance corpus (cube boundaries, glued chains, stars)
  oracle      complete linkage search, Menger paths, verification campaigns
  symmetry    hyperoctahedral canonicalization for campaign reduction
  linker      constructive routing procedures with oracle cross-checks
  cli         campaign driver
"""

__version__ = "0.1.0"

from .complexes import (ComplexError, FaceHandle, FacetChart,  # noqa: E402
                        NotCubicalError, PolytopalComplex, antistar,
                        injection_into_antistar, is_strongly_connected,
                        link, load_complex, other_facet_with_ridge, star,
                        technical_lemma_check, vertex_star)
from .cube import (CubeFace, OppositeFacetPair, free_pair,  # noqa: E402
                   project)
from .generators import (InstanceSpec, build_complex,  # noqa: E402
                         build_star, cube_boundary, glued_cubes,
                         star_instance)
from .graphs import Graph, bits, mask_of  # noqa: E402
from .linker import (ConfigDFContext, ConfigDFRefusal,  # noqa: E402
                     ProofStepError, StarProblem, detect_config_dF,
                     link_in_polytope, link_in_star, strong_link_even)
from .oracle import (Linkage, LinkageProblem,  # noqa: E402
                     SearchBudgetExceeded, enumerate_separators,
                     k23_witness, menger_paths, solve_linkage,
                     verify_k_linked, verify_strongly_linked)

__all__ = [
    "CubeFace", "OppositeFacetPair", "free_pair", "project",
    "Graph", "bits", "mask_of",
    "ComplexError", "NotCubicalError", "FaceHandle", "FacetChart",
    "PolytopalComplex", "load_complex", "star", "antistar", "link",
    "vertex_star", "other_facet_with_ridge", "injection_into_antistar",
    "is_strongly_connected", "technical_lemma_check",
    "InstanceSpec", "build_complex", "build_star", "cube_boundary",
    "glued_cubes", "star_instance",
    "SearchBudgetExceeded", "LinkageProblem", "Linkage", "solve_linkage",
    "menger_paths", "verify_k_linked", "verify_strongly_linked",
    "enumerate_separators", "k23_witness",
    "ProofStepError", "ConfigDFContext", "ConfigDFRefusal", "StarProblem",
    "detect_config_dF", "link_in_star", "link_in_polytope",
    "strong_link_even",
]
