"""Quasihyperbolic distances, geodesics, and boundary diagnostics.

The quasihyperbolic metric weights euclidean arc length by the reciprocal
boundary distance 1/delta. This package discretizes bounded planar domains
into boundary-refined grid graphs, computes distances and geodesics in the
quasihyperbolic and inner euclidean metrics, and layers diagnostics on top:
visibility and geodesic-loop probes, Gromov hyperbolicity estimators, John,
growth, and quasihyperbolic boundary condition checks, Gehring-Hayman and
ball-separation ratios, and closed-form hyperbolic comparisons on the disk.
"""
from .analysis import (DeltaEstimate, ProbeReport, estimate_delta_four_point,
                       estimate_delta_thin_triangles, gromov_product,
                       gromov_product_boundary_probe, loop_probe,
                       visibility_and_gromov_probes, visibility_probe)
from .conditions import (BallSeparationReport, ConeArcStats, GhReport,
                         GrowthFunction, GrowthReport, IntegralReport,
                         JohnReport, QhbcFit, ball_separation_check,
                         cone_arc_constant, gehring_hayman_ratio, growth_check,
                         integral_condition, john_center_probe,
                         parse_growth_function, qhbc_fit)
from .domains import (Anchor, Domain, compile_domain, domain_to_json,
                      make_foot_fingers, parse_domain)
from .errors import (AnchorError, ConstraintError, DisconnectedDomainError,
                     DomainError, FunctionError, GeometryError,
                     InternalInvariantError, ParseError, QhgeoError,
                     ResolutionError, SampleError, UnreachableError)
from .geometry import Point2, as_point
from .grid import (Basepoint, GridGraph, GridParams, build_grid, dist_field,
                   inner_distance, qh_distance, qh_geodesic)
from .hyperbolic import (MINUS_FOUR, MINUS_ONE, BhReport, CompareReport,
                         HypNormalization, bh_quasigeodesic_check,
                         compare_metrics_disk, disk_automorphism, hyp_density,
                         hyp_distance_disk, hyp_geodesic_disk,
                         hyp_polyline_length, path_csv_with_hyp)
from .paths import CSV_HEADER, PathPolyline, qh_length
from .suites import SUITE_NAMES, load_suite_params, run_suite

__version__ = "0.1.0"

__all__ = [
    "Anchor", "AnchorError", "BallSeparationReport", "Basepoint", "BhReport",
    "CSV_HEADER", "CompareReport", "ConeArcStats", "ConstraintError",
    "DeltaEstimate", "DisconnectedDomainError", "Domain", "DomainError",
    "FunctionError", "GeometryError", "GhReport", "GridGraph", "GridParams",
    "GrowthFunction", "GrowthReport", "HypNormalization",
    "IntegralReport", "InternalInvariantError", "JohnReport", "MINUS_FOUR",
    "MINUS_ONE", "ParseError", "PathPolyline", "Point2", "ProbeReport",
    "QhbcFit", "QhgeoError", "ResolutionError", "SUITE_NAMES", "SampleError",
    "UnreachableError", "as_point", "ball_separation_check",
    "bh_quasigeodesic_check", "build_grid", "compare_metrics_disk",
    "compile_domain", "cone_arc_constant", "disk_automorphism", "dist_field",
    "domain_to_json", "estimate_delta_four_point",
    "estimate_delta_thin_triangles",
    "gehring_hayman_ratio", "gromov_product", "gromov_product_boundary_probe",
    "growth_check", "hyp_density", "hyp_distance_disk", "hyp_geodesic_disk",
    "hyp_polyline_length", "inner_distance", "integral_condition",
    "john_center_probe", "load_suite_params", "loop_probe",
    "make_foot_fingers", "parse_domain",
    "parse_growth_function", "path_csv_with_hyp", "qh_distance", "qh_geodesic",
    "qh_length", "qhbc_fit", "run_suite", "visibility_and_gromov_probes",
    "visibility_probe",
]
