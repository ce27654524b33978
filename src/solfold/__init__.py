"""Solvable and nilpotent group foliations of products of half planes,
their leaf geometry, and the projective limit sets of hyperbolic toral
groups."""

from .geometry import (MetricSpec, MixedPoint, ProductPoint, UpperHalfPoint,
                       christoffel, geodesic_residual, hyperbolic_distance,
                       hyperbolic_distance_scaled, metric_inner, metric_norm,
                       mixed_distance, product_distance)
from .heisenberg import (HeisElement, UNIT_CUBE,
                         factored_proper_discontinuity_check, heis_act,
                         heis_commutator, heis_leaf_jacobian,
                         heis_leaf_separation_numeric, heis_matrix, heis_mul,
                         heis_pullback_metric, heis_rectify,
                         heis_rectify_inverse,
                         heis_reduce_mod_integer_lattice, heis_word_ball)
from .kleinian import (GeneralPositionResult, LatticeIsoResult,
                       LimitKernelResult, LimitLine, MembershipResult,
                       ProjectiveLine, ProjectivePoint, ToralGroupSpec,
                       classify_limit_line, fundamental_domain_reduce,
                       general_position_max, intersecting_elements,
                       kulkarni_membership, lattice_iso_test,
                       limit_general_position, pseudo_limit_kernels,
                       sol_lattice_embed, toral_act, toral_compose,
                       toral_element, word_ball)
from .quotient import CheckRow, heis_quotient_check, sol_quotient_check
from .sol import (STANDARD, SeparationResult, ShapeOperatorResult, SolElement,
                  SolParams, Z0, flow_equivariance_defect, flow_speed,
                  leaf_embed, leaf_metric, leaf_separation,
                  leaf_separation_numeric, normal_covariant_derivative,
                  normal_flow, phi, rectify, rectify_inverse,
                  rectify_isometric, rectify_isometric_inverse,
                  shape_operator, sol_act, sol_mul)

__version__ = "0.1.0"
