"""Differential geometry of plane curves, with singularities, in smooth
strictly convex normed planes: Birkhoff orthogonality, curvature pairs,
curve synthesis from curvature, cusp/zigzag classification, and derived
curves (parallels, evolutes, involutes, pedals)."""

from .analysis import (
    ProjectiveCurvatureMap,
    LegendreCurve,
    SingularityReport,
    circular_curvature,
    contact_implies_curvature_match,
    contact_order,
    curvature_pair,
    legendre_from_curve,
    make_legendre,
    maslov_index,
    projective_curvature_map,
    singularity_report,
    transfer_legendre,
)
from .curves import NormalField, ParamCurve, extend_normal, induced_normal
from .derived import PedalResult, evolute, involute, parallel, pedal
from .plane import (
    NormSpec,
    NormedPlane,
    build_plane,
    symplectic,
)
from .synthesis import SynthesisSpec, apply_linear_map, synthesize

__version__ = "0.1.0"
