"""The package namespace: ``warpcmc.__all__`` is assembled from the modules."""

import warpcmc
from warpcmc import cmc, flow, identities, warping

# names the package has exported since before __all__ was assembled from
# the modules; each must stay importable from the package
STABLE_NAMES = """
    __version__ WarpcmcError ParameterError DomainError HypothesisError
    NotApplicableError WarpingFunction ConditionReport ExtremumRecord TOL_CONDITION
    sphere_volume euclidean_warping spherical_warping hyperbolic_warping
    tabulated_warping check_conditions chebyshev_radii potential_and_field
    ricci_eigenvalues monotonicity_quantity scalar_curvature ricci_gap_margin
    static_tensor scan_monotonicity_extrema potential_monotone_radius OmegaProfile
    OmegaBackedWarping MODEL_FAMILIES admissibility make_model
    omega_to_warping load_omega_table
    omega_condition_margins SphericalHarmonicEngine AxisymEngine get_engine
    COEFFICIENT_FLOOR GeometryReport GraphSurface full_sphere_grid axisym_grid
    slice_surface perturb_slice IdentityReport minkowski_check
    minkowski_weighted_check hk_check FLOW_JACOBIAN_CUT FlowState FlowTrace
    FlowExhausted FloorReport MonotonicityAudit init_flow step run_flow
    monotonicity_audit radial_alignment area_floor_check CmcResult RigidityVerdict
    find_cmc umbilicity_verdict
""".split()


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(warpcmc.__all__) == len(set(warpcmc.__all__))
    for name in warpcmc.__all__:
        assert hasattr(warpcmc, name), name


def test_all_keeps_every_stable_name():
    assert set(STABLE_NAMES) <= set(warpcmc.__all__)


def test_verdict_tolerances_keep_their_values():
    """Each verdict tolerance is a module constant, no longer a parameter."""
    assert warping.TOL_CONDITION == 1e-9
    assert identities.TOL_MINKOWSKI == 1e-8
    assert identities.TOL_HEINTZE_KARCHER == 1e-6
    assert flow.TOL_RICCATI == 1e-5
    assert flow.TOL_FLOOR == 1e-6
    assert cmc.DEFICIT_TOL == 1e-5
    assert cmc.GAP_TOL == 1e-9
