"""Matrix-data models for configurations of points on twisted line bundles.

The package represents finite length-c subschemes through small complex
matrices subject to intertwining, nondegeneracy and co-stability conditions,
and exposes the chart structure, gauge actions, canonical representatives
and supporting cycles as plain numpy computations.
"""

from .errors import (
    ADHMKitError,
    DomainError,
    IndeterminateError,
    InvalidPointError,
    ParseError,
    ShapeError,
)
from .geometry import (
    SupportMultiset,
    TotPoint,
    YTildePoint,
    base_support,
    chart_support,
    p1_to_tot,
    pencil_form,
    spectrum_vs_pencil_check,
    tot_point,
    um_membership,
    ytilde_point,
    ytilde_to_p1,
)
from .hirz import (
    ChartCoords,
    HirzADHM,
    act_gl2,
    canonicalize,
    chart_coords,
    chart_set,
    from_chart,
    hirz_adhm,
    jacobian_nullity,
    orbit_equal,
    plane_part,
    reconstruct_C,
    syst_rank,
    to_chart,
    transition_omega,
    validate_hirz,
    validate_p1,
    validate_p2,
    validate_p3,
    validate_p3_direct,
)
from .linalg import (
    DEFAULT_TOL,
    BinaryForm,
    ProjPoint,
    ToleranceConfig,
    binary_form,
    binary_form_roots,
    proj_distance,
    proj_point,
)
from .plane import (
    PlaneADHM,
    act_gl,
    canonical_form,
    from_points,
    joint_spectrum,
    orbit_equal_plane,
    plane_adhm,
    transition_plane,
    validate_plane,
)
from .report import Check, ValidationReport, merge
from .serialize import decode, dumps, encode, load_path, loads
from .sigma import AnglePair, SigmaMatrix, angle_pair, sigma_matrix

__version__ = "0.1.0"

# served from adhmkit.propsuite on first access, so that importing the
# package (and every CLI command but property-run) does not load the suite
_PROPSUITE = ("GenConfig", "gen_hirz_valid", "gen_plane_valid", "run_suite")


def __getattr__(name):
    if name in _PROPSUITE:
        from . import propsuite

        return getattr(propsuite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ADHMKitError",
    "AnglePair",
    "BinaryForm",
    "Check",
    "ChartCoords",
    "DEFAULT_TOL",
    "DomainError",
    "GenConfig",
    "HirzADHM",
    "IndeterminateError",
    "InvalidPointError",
    "ParseError",
    "PlaneADHM",
    "ProjPoint",
    "ShapeError",
    "SigmaMatrix",
    "SupportMultiset",
    "ToleranceConfig",
    "TotPoint",
    "ValidationReport",
    "YTildePoint",
    "act_gl",
    "act_gl2",
    "angle_pair",
    "base_support",
    "binary_form",
    "binary_form_roots",
    "canonical_form",
    "canonicalize",
    "chart_coords",
    "chart_set",
    "chart_support",
    "decode",
    "dumps",
    "encode",
    "from_chart",
    "from_points",
    "gen_hirz_valid",
    "gen_plane_valid",
    "hirz_adhm",
    "jacobian_nullity",
    "joint_spectrum",
    "load_path",
    "loads",
    "merge",
    "orbit_equal",
    "orbit_equal_plane",
    "p1_to_tot",
    "pencil_form",
    "plane_adhm",
    "plane_part",
    "proj_distance",
    "proj_point",
    "reconstruct_C",
    "run_suite",
    "sigma_matrix",
    "spectrum_vs_pencil_check",
    "syst_rank",
    "to_chart",
    "tot_point",
    "transition_omega",
    "transition_plane",
    "um_membership",
    "validate_hirz",
    "validate_p1",
    "validate_p2",
    "validate_p3",
    "validate_p3_direct",
    "validate_plane",
    "ytilde_point",
    "ytilde_to_p1",
]
