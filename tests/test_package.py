"""The package namespace: each module's ``__all__`` is exactly what adhmkit re-exports."""

import adhmkit
from adhmkit import errors, geometry, hirz, linalg, plane, propsuite, report, serialize, sigma

NAMES = [
    "ADHMKitError", "AnglePair", "BinaryForm", "ChartCoords", "Check", "DEFAULT_TOL",
    "DomainError", "GenConfig", "HirzADHM", "IndeterminateError", "InvalidPointError",
    "ParseError", "PlaneADHM", "ProjPoint", "ShapeError", "SigmaMatrix", "SupportMultiset",
    "ToleranceConfig", "TotPoint", "ValidationReport", "YTildePoint", "act_gl", "act_gl2",
    "angle_pair", "base_support", "binary_form", "binary_form_roots", "canonical_form",
    "canonicalize", "chart_coords", "chart_set", "chart_support", "decode", "dumps", "encode",
    "from_chart", "from_points", "gen_hirz_valid", "gen_plane_valid", "hirz_adhm",
    "jacobian_nullity", "joint_spectrum", "load_path", "loads", "merge", "orbit_equal",
    "orbit_equal_plane", "p1_to_tot", "pencil_form", "plane_adhm", "plane_part",
    "proj_distance", "proj_point", "reconstruct_C", "run_suite", "sigma_matrix",
    "spectrum_vs_pencil_check", "syst_rank", "to_chart", "tot_point", "transition_omega",
    "transition_plane", "um_membership", "validate_hirz", "validate_p1", "validate_p2",
    "validate_p3", "validate_p3_direct", "validate_plane", "ytilde_point", "ytilde_to_p1",
]
MODULES = (errors, geometry, hirz, linalg, plane, report, serialize, sigma)
SUITE_NAMES = ("GenConfig", "gen_hirz_valid", "gen_plane_valid", "run_suite")


def test_package_reexports_each_module_all_once(python):
    assert len(NAMES) == 71
    assert adhmkit.__all__ == NAMES
    for module in (*MODULES, propsuite):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
    owners = [(name, module) for module in MODULES for name in module.__all__]
    owners += [(name, propsuite) for name in SUITE_NAMES]
    assert sorted(name for name, _ in owners) == NAMES  # each name in one module only
    for name, module in owners:
        assert getattr(adhmkit, name) is getattr(module, name), name

    assert python("-c", "import adhmkit, sys; sys.exit('adhmkit.propsuite' in sys.modules)")[0] == 0
