"""Numerical verification lab for curvature-pinched rotationally symmetric
manifolds with density."""

from .errors import (ConstructionError, DomainError, IntegrationError,
                     PinchlabError, SearchError)
from .profiles import (ManifoldWithDensity, RadialProfile, SegmentSpec,
                       build_model, check_c2, doubling_point, load_manifold,
                       manifold_from_dict, manifold_to_dict, save_manifold,
                       solve_smoothing_band)
from .curvature import (CurvatureSample, curvature_sample, curvature_table,
                        dump_csv, sec_plane, x_field_norm)
from .geodesics import (GeodesicPath, distance, farthest_from_pole,
                        inj_at_pole, shoot)
from .variation import (IndexResult, TestField, berger_test_field,
                        geodesic_index, jacobi_conjugate_points,
                        line_integral, loop_index_check,
                        second_variation)
from .verify import (INFEASIBLE, CriticalityCertificate, GapReport,
                     PinchReport, critical_radius, criticality_certificate,
                     diameter_gap, klingenberg_delta_search, verify_pinch,
                     verify_quadratic_growth)

__version__ = "0.1.0"
