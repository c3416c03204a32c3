"""Differentiation of unit fields and per-point invariants.

The covariant derivative on S^3 is obtained from ambient directional
derivatives of the 0-homogeneous field extension by tangential projection
(the immersion relation for S^3 in R^4).  ``jet_batch`` differentiates the
field along the left-invariant tangent basis (i x, j x, k x) and reads
sigma1, sigma2, the energy density and the volume integrand off the 3x3
matrix of those derivatives; all four are symmetric functions of grad v,
so no frame adapted to v is needed.  The adapted frame {e1, e2, v} is kept
for the independent numeric determinant in ``displace.frame_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual as du
from .fields import UnitField
from .geometry import QUAT_I, QUAT_J, QUAT_K, SpherePoint, TangentVector, left_mult_matrix

FD_STEP = 1e-5

_FRAME_MATS = [left_mult_matrix(a) for a in (QUAT_I, QUAT_J, QUAT_K)]


def directional_derivative(field: UnitField, points, directions, mode: str = "ad"):
    """Ambient derivative Dv[Y] of the field extension along Y.

    In "ad" mode the field must return dual numbers; a field that cannot is
    rejected rather than silently differentiated by finite differences, so
    the AD and FD routes stay independent oracles.
    """
    x = np.asarray(points, dtype=float)
    y = np.asarray(directions, dtype=float)
    if mode == "ad":
        out = field(du.Dual(x, y))
        if not isinstance(out, du.Dual):
            raise TypeError(
                f"field {getattr(field, 'label', '?')!r} does not propagate dual "
                'numbers; differentiate it with mode="fd"'
            )
        return out.eps
    if mode == "fd":
        return (du.value(field(x + FD_STEP * y)) - du.value(field(x - FD_STEP * y))) / (2.0 * FD_STEP)
    raise ValueError(f"unknown differentiation mode {mode!r}")


def covariant_derivative(
    field: UnitField, point: SpherePoint, direction: TangentVector, mode: str = "ad"
) -> TangentVector:
    """Tangential part of the ambient derivative: grad_Y v on the sphere."""
    if not np.allclose(direction.base.x, point.x, atol=1e-12):
        raise ValueError("direction must be tangent at the evaluation point")
    d = directional_derivative(field, point.x, direction.w, mode=mode)
    return TangentVector(point, d - np.dot(d, point.x) * point.x)


def adapted_frame_batch(points: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (e1, e2) completing {e1, e2, v} at each point.

    e1 is seeded from whichever of the quaternion frame vectors (i x, j x,
    k x) is least aligned with v (ties by index order), then projected and
    normalized; e2 is the 4D cross completion with det(x, e1, e2, v) = +1.
    """
    x = np.asarray(points, dtype=float)
    cands = np.stack([x @ m.T for m in _FRAME_MATS], axis=-2)  # (..., 3, 4)
    align = np.abs(np.sum(cands * v[..., None, :], axis=-1))
    pick = np.argmin(align, axis=-1)
    seed = np.take_along_axis(cands, pick[..., None, None], axis=-2)[..., 0, :]
    e1 = seed - np.sum(seed * v, axis=-1, keepdims=True) * v
    e1 = e1 - np.sum(e1 * x, axis=-1, keepdims=True) * x
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = _cross4(x, e1, v)
    e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)
    det = np.linalg.det(np.stack([x, e1, e2, v], axis=-2))
    e2 = e2 * np.sign(det)[..., None]
    return e1, e2


def _cross4(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vector orthogonal to a, b, c in R^4 (sign fixed by the caller)."""
    m = np.stack([a, b, c], axis=-2)  # (..., 3, 4)
    comps = []
    for i in range(4):
        cols = [j for j in range(4) if j != i]
        comps.append((-1.0) ** i * np.linalg.det(m[..., cols]))
    return np.stack(comps, axis=-1)


@dataclass(frozen=True)
class JetBatch:
    """Per-point derivative data for a batch of points (leading axis N)."""

    grad: np.ndarray            # (N, 3, 3): <grad_{e_a} v, e_b> for e = (i x, j x, k x)
    sigma1: np.ndarray          # (N,)
    sigma2: np.ndarray          # (N,)
    energy_density: np.ndarray  # (N,)
    volume_integrand: np.ndarray  # (N,)


def jet_batch(
    field: UnitField,
    points: np.ndarray,
    mode: str = "ad",
    frame_rotation: np.ndarray | None = None,
) -> JetBatch:
    """Assemble all per-point invariants at each row of ``points``.

    With B[a, b] = <grad_{e_a} v, e_b> in the orthonormal tangent basis e,
    G = B B^T the Gram matrix of the derivatives, and C the cofactor matrix
    of B (row a is the cross product of rows a+1 and a+2, cyclically):

    * sigma1 = tr B and sigma2 = e2(B) = ((tr B)^2 - tr B^2) / 2 = tr C.
      The image of grad v lies in v-perp, so these equal the trace and
      determinant of the 2x2 block h on v-perp.
    * energy density = tr G = |B|_F^2.
    * volume integrand = sqrt(det(I + G)) = sqrt(1 + tr G + e2(G)), with
      e2(G) = |C|_F^2 by Cauchy-Binet (the sum of |grad_a v ^ grad_b v|^2);
      the cubic term det G vanishes because B has rank <= 2 (Gluck-Ziller).

    The cofactor forms avoid the cancellation of the trace forms where
    |grad v| is large.  ``frame_rotation`` optionally rotates the first two
    basis vectors (i x, j x) by the given angles; all scalar invariants
    must be unchanged under this.
    """
    x = np.asarray(points, dtype=float)
    basis = np.stack([x @ m.T for m in _FRAME_MATS])  # (3, N, 4): i x, j x, k x
    if frame_rotation is not None:
        th = np.asarray(frame_rotation, dtype=float)[..., None]
        basis[0], basis[1] = (
            np.cos(th) * basis[0] + np.sin(th) * basis[1],
            -np.sin(th) * basis[0] + np.cos(th) * basis[1],
        )
    deriv = directional_derivative(field, np.broadcast_to(x, basis.shape), basis, mode=mode)
    grad = np.moveaxis(deriv, 0, -2) @ np.moveaxis(basis, 0, -1)
    cof = np.cross(grad[..., [1, 2, 0], :], grad[..., [2, 0, 1], :])

    sigma1 = np.trace(grad, axis1=-2, axis2=-1)
    sigma2 = np.trace(cof, axis1=-2, axis2=-1)
    energy_density = np.sum(grad * grad, axis=(-2, -1))
    volume_integrand = np.sqrt(1.0 + energy_density + np.sum(cof * cof, axis=(-2, -1)))

    return JetBatch(
        grad=grad,
        sigma1=sigma1,
        sigma2=sigma2,
        energy_density=energy_density,
        volume_integrand=volume_integrand,
    )
