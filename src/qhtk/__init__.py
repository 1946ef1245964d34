"""Quasihyperbolic metric toolkit: distances, geodesics, balls, induced norms."""

from .geometry import (
    AxisPointFamily,
    BallPrimitive,
    BoxPrimitive,
    DomainSpec,
    DomainViolationError,
    EUCLIDEAN,
    HalfSpace,
    InvalidInputError,
    NormSpec,
    Polygon,
    Polyline,
    QHError,
    RemovedPoint,
    RemovedSegment,
    Slab,
    StarlikeBody,
    half_plane,
    l2_section,
    prolongation_polygon,
    punctured_space,
    starlike3d,
    strip,
    symmetric_box,
    unit_ball,
)
from .metric import (
    EvaluationError,
    halfplane_distance_oracle,
    punctured_distance_oracle,
    qh_lower_bound,
    qh_path_length,
)
from .solver import (
    DEFAULT_SOLVER,
    GeodesicResult,
    NoPathError,
    RefinementConfig,
    SolverConfig,
    SolverStalledError,
    geodesic_multiplicity,
    grid_init,
    qh_distance,
    refine_path,
    refine_paths,
)

__version__ = "0.1.0"
