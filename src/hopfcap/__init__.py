"""Energy/volume functionals of unit vector fields on caps of S^3.

Numerically certifies that a Hopf field minimizes both functionals among
unit fields that agree with it on the cap boundary, and that the boundary
hypothesis is essential (small-cap counterexample).
"""

from .calculus import (
    FieldJet,
    JetBatch,
    adapted_frame,
    ambient_jacobian,
    covariant_derivative,
    field_jet,
    jet_batch,
    wedge_norm_sq,
)
from .checks import (
    CheckReport,
    SweepResult,
    VerifyConfig,
    check_boundary_identity,
    check_change_of_variables,
    check_energy_bound,
    check_hopf_constants,
    check_sigma1_integral,
    check_small_cap_counterexample,
    check_volume_bound,
    run_all,
    sweep_family,
    sweep_reports,
)
from .displace import (
    DisplacementMap,
    fit_volume_polynomial,
    image_volume,
    image_volume_from_jets,
    jacobian_det_analytic,
    jacobian_det_numeric,
    shifted_unit_field,
)
from .fields import BumpProfile, UnitField, hopf_field, hopf_frame, perturbed_field, small_cap_field
from .functionals import (
    FunctionalReport,
    energy,
    energy_and_volume,
    energy_from_jets,
    energy_lower_bound_gap,
    volume,
    volume_from_jets,
)
from .geometry import (
    CapDomain,
    SpherePoint,
    TangentVector,
    cap_volume,
    contains,
    exp_map,
    parallel_transport,
    quat_mul,
)
from .quadrature import QuadratureRule, build_gauss_rule, build_mc_rule, integrate

__version__ = "0.1.0"
