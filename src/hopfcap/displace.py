"""The translated-point map x -> x + t v(x) and its Jacobian determinant.

For a unit tangent field v the map carries S^3 onto the sphere of radius
sqrt(1 + t^2) and, for small t, is a diffeomorphism.  Its determinant is
sqrt(1 + t^2) (1 + sigma1 t + sigma2 t^2); this module computes it both from
that closed form, read off the jet, and as one numeric 4x4 determinant, and
integrates it to the image volume of the rule's domain.

The numeric route puts the unit normal n = (x + t v) / sqrt(1 + t^2) of the
image sphere above the differential dphi(e) = e + t Dv[e] along the frame
(x i, x j, x k).  Each dphi(e) is tangent to the image sphere, so the
determinant is the signed volume of dphi in that tangent space, oriented
by n.  The rows x, x i, x j, x k are the images of 1, i, j, k under
multiplication by the unit quaternion x, which is orthogonal, so their
determinant is +-1; it is +1 at x = 1 and continuous on the connected S^3,
so it is +1 at every point.  The frame therefore needs no orientation fix,
and the determinant is positive exactly where the map is a local
diffeomorphism.  The jet differentiates along (i x, j x, k x) instead, so
the two routes share the field's dual evaluation but neither directions
nor algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import JetSums, _value_and_derivative, determinant_row, jet_batch, jet_sums
from .fields import UnitField
from .geometry import QUAT_I, QUAT_J, QUAT_K, CapDomain, quat_mul
from .quadrature import QuadratureRule

T_MAX = 0.5
DET_FLOOR = 1e-6


@dataclass(frozen=True)
class DisplacementMap:
    """Map x -> x + t v(x) for a unit field v and offset 0 <= t <= T_MAX."""

    field: UnitField
    t: float

    def __post_init__(self):
        if not (0.0 <= self.t <= T_MAX):
            raise ValueError(f"offset t must lie in [0, {T_MAX}], got {self.t}")

    def image_radius(self) -> float:
        return math.sqrt(1.0 + self.t * self.t)


def jacobian_det_analytic(dm: DisplacementMap, points):
    """sqrt(1 + t^2) (1 + sigma1 t + sigma2 t^2) at each point."""
    jets = jet_batch(dm.field, points)
    det = np.empty_like(jets.sigma1)
    determinant_row(jets.sigma1, jets.sigma2, dm.t, det)
    return det


def jacobian_det_numeric(dm: DisplacementMap, points):
    """det[n; dphi(x i); dphi(x j); dphi(x k)] at each point; <= 0 flags a folded map."""
    x = np.asarray(points, dtype=float)
    frame = np.stack([quat_mul(x, q) for q in (QUAT_I, QUAT_J, QUAT_K)])  # (3, ..., 4)
    v, dv = _value_and_derivative(dm.field, x, frame)
    dphi = frame + dm.t * dv
    normal = (x + dm.t * v) / dm.image_radius()
    return np.linalg.det(np.stack([normal, *dphi], axis=-2))


def image_volume(dm: DisplacementMap, cap: CapDomain, rule: QuadratureRule) -> tuple[float, float]:
    """Volume of the image of the cap, by change of variables.

    Integrates the analytic determinant over the cap after verifying the
    determinant polynomial stays above ``DET_FLOOR`` at every node.  ``cap``
    must be the rule's domain.
    """
    rule.require_domain(cap)
    return image_volume_from_sums(dm.t, jet_sums(dm.field, rule, (dm.t,), None))


def image_volume_from_sums(t: float, sums: JetSums) -> tuple[float, float]:
    """Image volume at offset t, read off a jet reduced over the rule with that offset."""
    low, node = sums.polynomial_min[t]
    if low <= DET_FLOOR:
        raise ValueError(
            f"determinant factor {low:.3e} at node {node} is below the floor "
            f"{DET_FLOOR}; t={t} is outside the diffeomorphism window"
        )
    return sums.determinant[t]
