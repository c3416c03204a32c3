"""The translated-point map x -> x + t v(x) and its Jacobian determinant.

For a unit tangent field v the map carries S^3 onto the sphere of radius
sqrt(1 + t^2) and, for small t, is a diffeomorphism.  Its determinant in
adapted frames is sqrt(1 + t^2) (1 + sigma1 t + sigma2 t^2); this module
computes it both from that closed form and from a numeric 3x3 frame matrix,
both with AD derivatives, and integrates it to the image volume of the
rule's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import JetBatch, adapted_frame_batch, directional_derivative, jet_batch
from .fields import UnitField
from .geometry import CapDomain
from .quadrature import QuadratureRule, integrate

T_MAX = 0.5
DET_FLOOR = 1e-6


@dataclass(frozen=True)
class DisplacementMap:
    """Map x -> x + t v(x) for a unit field v and offset 0 < t <= T_MAX."""

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
    t = dm.t
    return math.sqrt(1.0 + t * t) * (1.0 + jets.sigma1 * t + jets.sigma2 * t * t)


def frame_matrix(dm: DisplacementMap, points: np.ndarray) -> np.ndarray:
    """(..., 3, 3) matrix of the differential in frames {e1,e2,v} -> {e1,e2,u}."""
    x = np.asarray(points, dtype=float)
    v = dm.field(x)
    e1, e2 = adapted_frame_batch(x, v)
    u = (v - dm.t * x) / dm.image_radius()
    frame = np.stack([e1, e2, v])                    # (3, N, 4) domain frame
    image_frame = np.stack([e1, e2, u], axis=-2)     # (N, 3, 4) image frame rows
    deriv = directional_derivative(dm.field, x, frame)
    # d(phi)(e_a) = e_a + t Dv[e_a] in ambient coordinates.
    dphi = np.moveaxis(frame + dm.t * deriv, 0, -2)
    return np.einsum("...ai,...bi->...ab", dphi, image_frame)


def jacobian_det_numeric(dm: DisplacementMap, points):
    """Determinant of the numeric frame matrix; <= 0 flags a folded map."""
    return np.linalg.det(frame_matrix(dm, points))


def image_volume(dm: DisplacementMap, cap: CapDomain, rule: QuadratureRule) -> tuple[float, float]:
    """Volume of the image of the cap, by change of variables.

    Integrates the analytic determinant over the cap after verifying the
    determinant polynomial stays above ``DET_FLOOR`` at every node.  ``cap``
    must be the rule's domain.
    """
    rule.require_domain(cap)
    jets = jet_batch(dm.field, rule.nodes)
    return image_volume_from_jets(dm.t, jets, rule)


def image_volume_from_jets(t: float, jets: JetBatch, rule: QuadratureRule) -> tuple[float, float]:
    """Image volume at offset t, reduced from a jet evaluated at the rule's nodes."""
    poly = 1.0 + jets.sigma1 * t + jets.sigma2 * t * t
    if np.min(poly) <= DET_FLOOR:
        i = int(np.argmin(poly))
        raise ValueError(
            f"determinant factor {poly[i]:.3e} at node {i} is below the floor "
            f"{DET_FLOOR}; t={t} is outside the diffeomorphism window"
        )
    det = math.sqrt(1.0 + t * t) * poly
    return integrate(rule, lambda _nodes: det)
