"""The translated-point map x -> x + t v(x) and its Jacobian determinant.

For a unit tangent field v the map carries S^3 onto the sphere of radius
sqrt(1 + t^2) and, for small t, is a diffeomorphism.  Its determinant in
adapted frames is sqrt(1 + t^2) (1 + sigma1 t + sigma2 t^2); this module
computes it both from that closed form and from a numeric 3x3 frame matrix,
and integrates it to the image volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual as du
from .calculus import FD_STEP, JetBatch, adapted_frame_batch, ambient_jacobian, jet_batch
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

    def __call__(self, x):
        """Ambient image point(s); norm sqrt(1 + t^2) for on-sphere input."""
        xs = du.normalize(x)
        return xs + self.t * self.field(xs)

    def image_radius(self) -> float:
        return math.sqrt(1.0 + self.t * self.t)


def shifted_unit_field(dm: DisplacementMap):
    """Unit field tangent to the image sphere at the image point.

    u(x) = (v(x) - t x) / sqrt(1 + t^2); satisfies <u, x + t v(x)> = 0.
    """
    s = math.sqrt(1.0 + dm.t * dm.t)

    def evaluate(x):
        xs = du.normalize(x)
        return (dm.field(xs) - dm.t * xs) / s

    return evaluate


def jacobian_det_analytic(dm: DisplacementMap, points, jets: JetBatch | None = None, mode: str = "ad"):
    """sqrt(1 + t^2) (1 + sigma1 t + sigma2 t^2) at each point."""
    if jets is None:
        jets = jet_batch(dm.field, np.atleast_2d(points), mode=mode)
    t = dm.t
    out = math.sqrt(1.0 + t * t) * (1.0 + jets.sigma1 * t + jets.sigma2 * t * t)
    if np.asarray(points).ndim == 1:
        return float(out[0])
    return out


def frame_matrix(dm: DisplacementMap, points: np.ndarray, mode: str = "ad", step: float = FD_STEP) -> np.ndarray:
    """(N, 3, 3) matrix of the differential in frames {e1,e2,v} -> {e1,e2,u}."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    v = du.value(dm.field(x))
    e1, e2 = adapted_frame_batch(x, v)
    u = (v - dm.t * x) / dm.image_radius()
    jac = ambient_jacobian(dm.field, x, mode=mode, step=step)
    frame = np.stack([e1, e2, v], axis=-2)           # domain frame rows
    image_frame = np.stack([e1, e2, u], axis=-2)     # image frame rows
    # d(phi)(e_a) = e_a + t Dv[e_a] in ambient coordinates.
    dphi = frame + dm.t * np.einsum("...ij,...aj->...ai", jac, frame)
    return np.einsum("...ai,...bi->...ab", dphi, image_frame)


def jacobian_det_numeric(dm: DisplacementMap, points, mode: str = "ad", step: float = FD_STEP):
    """Determinant of the numeric frame matrix; <= 0 flags a folded map."""
    m = frame_matrix(dm, points, mode=mode, step=step)
    det = np.linalg.det(m)
    if np.asarray(points).ndim == 1:
        return float(det[0])
    return det


def image_volume(
    dm: DisplacementMap,
    cap: CapDomain,
    rule: QuadratureRule,
    mode: str = "ad",
    det_floor: float = DET_FLOOR,
) -> tuple[float, float]:
    """Volume of the image of the cap, by change of variables.

    Integrates the analytic determinant over the cap after verifying the
    determinant polynomial stays above ``det_floor`` at every node.
    """
    jets = jet_batch(dm.field, rule.nodes, mode=mode)
    return image_volume_from_jets(dm.t, jets, rule, det_floor)


def image_volume_from_jets(
    t: float, jets: JetBatch, rule: QuadratureRule, det_floor: float = DET_FLOOR
) -> tuple[float, float]:
    """Image volume at offset t, reduced from a jet evaluated at the rule's nodes."""
    poly = 1.0 + jets.sigma1 * t + jets.sigma2 * t * t
    if np.min(poly) <= det_floor:
        i = int(np.argmin(poly))
        raise ValueError(
            f"determinant factor {poly[i]:.3e} at node {i} is below the floor "
            f"{det_floor}; t={t} is outside the diffeomorphism window"
        )
    det = math.sqrt(1.0 + t * t) * poly
    return integrate(rule, lambda _nodes: det)


def fit_volume_polynomial(
    field: UnitField,
    rule: QuadratureRule,
    t_grid,
    mode: str = "ad",
) -> np.ndarray:
    """Least-squares (c0, c1, c2) with image_volume(t)/sqrt(1+t^2) = c0 + c1 t + c2 t^2.

    Recovers (vol(K), integral of sigma1, integral of sigma2) from the
    fitted coefficients.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    jets = jet_batch(field, rule.nodes, mode=mode)
    reduced = []
    for t in t_grid:
        vol, _ = image_volume_from_jets(float(t), jets, rule)
        reduced.append(vol / math.sqrt(1.0 + t * t))
    vand = np.vander(t_grid, 3, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vand, np.asarray(reduced), rcond=None)
    return coeffs
