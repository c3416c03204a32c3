"""Energy/volume functionals of unit vector fields on caps of S^3.

Numerically certifies that a Hopf field minimizes both functionals among
unit fields that agree with it on the cap boundary, and that the boundary
hypothesis is essential (small-cap counterexample).
"""

from .calculus import JetBatch, JetSums, jet_batch, jet_sums
from .checks import (
    CheckReport,
    SweepResult,
    VerifyConfig,
    check_hopf_constants,
    check_small_cap_counterexample,
    run_all,
    sweep_family,
    sweep_reports,
)
from .displace import (
    DisplacementMap,
    image_volume,
    jacobian_det_analytic,
    jacobian_det_numeric,
)
from .fields import BumpProfile, UnitField, hopf_field, hopf_frame, perturbed_field, small_cap_field
from .functionals import (
    FunctionalReport,
    energy,
    energy_and_volume,
    hopf_energy,
    hopf_volume,
    volume,
)
from .geometry import CapDomain, SpherePoint, cap_volume, quat_mul
from .quadrature import QuadratureRule, build_gauss_rule, build_mc_rule, integrate

__version__ = "0.1.0"
