"""Reflexive symmetric zigzags and minimal surfaces of least total curvature.

The library finds symmetric polygonal arcs whose two complementary plane
domains are conformally equivalent by a vertex-preserving map, then turns
each solution into Weierstrass data and a triangulated minimal surface
with one higher-order Enneper-type end.
"""

from .errors import (
    DegenerateCrossRatio,
    DegenerateSide,
    DomainError,
    EpsTooLarge,
    FitFailure,
    NoConvergence,
    NotReflexive,
    PeriodMismatch,
    QuadratureFailure,
    ZigzagError,
)
from .geometry import (
    VertexChain,
    ZigzagParams,
    add_handle,
    build_vertices,
    canonicalize,
    stratum_distance,
)
from .scmap import (
    ExponentPattern,
    Prevertices,
    coalescence_log_fit,
    forward_map,
    make_coalescing_family,
    ne_pattern,
    periods,
    side_length,
    solve_parameter_problem,
    solve_parameter_problems,
    sw_pattern,
)
from .elliptic import (
    EllipticData,
    carlson_rf,
    cross_ratio_lambda,
    elliptic_periods,
    extremal_length_quad,
    extremal_lengths,
)
from .height import (
    SolutionRecord,
    continuation_solve,
    height,
    height_parts,
    minimize,
)
from .weierstrass import (
    PeriodReport,
    SurfaceMesh,
    SymmetryGenerator,
    WeierstrassData,
    build_weierstrass,
    curvature_summary,
    evaluate_surface,
    generate_mesh,
    lattice_ratio,
    verify_periods,
)

__version__ = "0.1.0"

__all__ = [
    "ZigzagError", "DegenerateSide", "EpsTooLarge",
    "QuadratureFailure", "NoConvergence", "FitFailure", "DegenerateCrossRatio",
    "DomainError", "NotReflexive", "PeriodMismatch",
    "ZigzagParams", "VertexChain", "build_vertices", "canonicalize",
    "stratum_distance", "add_handle",
    "ExponentPattern", "Prevertices", "ne_pattern",
    "sw_pattern", "side_length", "solve_parameter_problem", "solve_parameter_problems",
    "forward_map",
    "periods", "coalescence_log_fit", "make_coalescing_family",
    "EllipticData", "carlson_rf", "cross_ratio_lambda", "elliptic_periods",
    "extremal_length_quad", "extremal_lengths",
    "SolutionRecord", "height", "height_parts",
    "minimize", "continuation_solve",
    "WeierstrassData", "SurfaceMesh", "SymmetryGenerator", "PeriodReport",
    "build_weierstrass", "verify_periods", "curvature_summary",
    "evaluate_surface", "generate_mesh", "lattice_ratio",
    "__version__",
]
