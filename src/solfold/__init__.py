"""Solvable and nilpotent group foliations of products of half planes,
their leaf geometry, and the projective limit sets of hyperbolic toral
groups."""

from .geometry import (BasePoint, MetricKind, MetricSpec, MixedPoint,
                       ProductPoint, TangentVector4, UpperHalfPoint,
                       christoffel, cross_r4, geodesic_residual,
                       hyperbolic_distance, hyperbolic_distance_scaled,
                       metric_inner, metric_norm, mixed_distance,
                       product_distance)
from .heisenberg import (HeisElement, UNIT_CUBE,
                         factored_proper_discontinuity_check, heis_act,
                         heis_commutator, heis_from_symplectic,
                         heis_leaf_jacobian, heis_leaf_separation,
                         heis_leaf_separation_numeric, heis_matrix, heis_mul,
                         heis_normal_field, heis_normal_flow,
                         heis_pullback_metric, heis_rectify,
                         heis_rectify_inverse,
                         heis_reduce_mod_integer_lattice, heis_word_ball,
                         symplectic_mul)
from .kleinian import (GeneralPositionResult, LatticeIsoResult,
                       LimitKernelResult, LimitLine, MembershipResult,
                       ProjectiveLine, ProjectivePoint, PseudoProjectiveMap,
                       ToralGroupSpec, classify_limit_line,
                       fundamental_domain_reduce, general_position_max,
                       intersecting_elements, kulkarni_membership,
                       lattice_iso_test, line_through, lines_concurrent,
                       lines_intersection,
                       proper_discontinuity_count, projective_act,
                       pseudo_limit_kernels, reference_limit_lines,
                       sol_lattice_embed, toral_act, toral_compose,
                       toral_element, word_ball)
from .quotient import (CheckRow, QuotientReport, StructuralNote,
                       heis_quotient_check, sol_quotient_check,
                       structural_notes)
from .sol import (STANDARD, SeparationResult, ShapeOperatorResult, SolElement,
                  SolParams, Z0, flow_equivariance_defect, flow_speed,
                  leaf_embed, leaf_embed_inverse, leaf_jacobian, leaf_metric,
                  leaf_normal, leaf_separation, leaf_separation_numeric,
                  normal_covariant_derivative, normal_flow,
                  normal_flow_velocity, phi, phi_inverse, rectify,
                  rectify_inverse, rectify_isometric,
                  rectify_isometric_inverse, rectify_jacobian, shape_operator,
                  sol_act, sol_matrix_rep, sol_mul, sol_mul_params,
                  sol_product_isometry, sol_product_isometry_between,
                  sol_product_isometry_compose)

__version__ = "0.1.0"
