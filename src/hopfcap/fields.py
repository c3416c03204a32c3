"""Unit vector field families on S^3.

Three built-in families:

* ``hopf_field`` -- great-circle flow x -> a x for a unit imaginary axis a.
* ``perturbed_field`` -- a Hopf field rotated inside a cap by a radial bump
  angle toward the orthogonal frame fields; agrees with the Hopf field on
  the cap boundary and outside the cap.
* ``small_cap_field`` -- radial parallel extension of a single tangent
  vector from the cap center; has small covariant derivative on small caps
  and ignores the boundary condition.

Every evaluator accepts points as (..., 4) arrays (or ``Dual`` jets) and is
0-homogeneous: the input is normalized before use, so ambient directional
derivatives are well-defined off the sphere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, Union

import numpy as np

from . import dual as du
from .geometry import CapDomain, left_mult_matrix, quat_mul, tangent_basis


@dataclass(frozen=True)
class UnitField:
    """Closed-form unit tangent field v: S^3 -> T S^3.

    ``evaluator`` maps (..., 4) arrays (plain or Dual) to same-shaped
    tangent vectors.  ``hopf_boundary`` records where the field is known to
    coincide with a Hopf field: "everywhere", a CapDomain (on and outside
    its boundary), or None.
    """

    label: str
    evaluator: Callable
    params: dict = dc_field(default_factory=dict)
    hopf_boundary: Union[str, CapDomain, None] = None

    def __call__(self, x):
        return self.evaluator(x)


def _check_axis(axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (4,):
        raise ValueError("axis must be a 4-vector quaternion")
    if abs(axis[0]) > 1e-12:
        raise ValueError("axis must be purely imaginary")
    if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
        raise ValueError("axis must be a unit quaternion")
    return axis


def hopf_field(axis=(0.0, 1.0, 0.0, 0.0)) -> UnitField:
    """Great-circle flow v(x) = axis * x for a unit imaginary quaternion axis."""
    axis = _check_axis(axis)
    mat = left_mult_matrix(axis)

    def evaluate(x):
        return du.apply_linear(mat, du.normalize(x))

    return UnitField(
        label="hopf",
        evaluator=evaluate,
        params={"axis": tuple(axis)},
        hopf_boundary="everywhere",
    )


def _complete_axis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit imaginary quaternions completing axis to an orthonormal triple."""
    candidates = np.eye(4)[1:]
    align = np.abs(candidates @ axis)
    b = candidates[int(np.argmin(align))]
    b = b - np.dot(b, axis) * axis
    b /= np.linalg.norm(b)
    c = quat_mul(axis, b)  # product of orthogonal imaginary units
    return b, c


def hopf_frame(axis=(0.0, 1.0, 0.0, 0.0)) -> tuple[UnitField, UnitField, UnitField]:
    """Global orthonormal tangent frame (H, E1, E2) of left translations."""
    axis = _check_axis(axis)
    b, c = _complete_axis(axis)
    h = hopf_field(axis)
    e1 = UnitField("hopf-frame-e1", hopf_field(b).evaluator, {"axis": tuple(b)})
    e2 = UnitField("hopf-frame-e2", hopf_field(c).evaluator, {"axis": tuple(c)})
    return h, e1, e2


@dataclass(frozen=True)
class BumpProfile:
    """Radial rotation-angle profile A * (1 - (d/r)^2)^m, zero outside the cap.

    The profile and its first derivative vanish at the cap boundary for
    m >= 2, so the perturbed field matches the Hopf field to first order
    there.
    """

    amplitude: float
    exponent: int = 3

    def __post_init__(self):
        if self.exponent < 2:
            raise ValueError("bump exponent must be >= 2 for a C^1 boundary match")


def perturbed_field(
    cap: CapDomain,
    bump: BumpProfile,
    twist: str | None = None,
    axis=(0.0, 1.0, 0.0, 0.0),
) -> UnitField:
    """Hopf field rotated by a compactly supported bump inside ``cap``.

    v = cos(f) H + sin(f) (cos(g) E1 + sin(g) E2) with f the bump profile of
    the geodesic distance to the cap center.  ``twist`` selects g: None/"none"
    for g = 0, "angular" for the azimuth around the cap axis.
    """
    if abs(bump.amplitude) >= np.pi:
        warnings.warn(
            f"bump amplitude {bump.amplitude} >= pi: field may reverse against "
            "the Hopf field inside the cap",
            stacklevel=2,
        )
    h, e1, e2 = hopf_frame(axis)
    center = cap.center.x
    r = cap.radius
    amp, m = bump.amplitude, bump.exponent
    b1, b2, _ = tangent_basis(cap.center)

    if twist is None or twist == "none":
        twist_fn = None
        twist_name = "none"
    elif twist == "angular":
        def twist_fn(xs):
            return du.arctan2(du.vdot(xs, b2), du.vdot(xs, b1))

        twist_name = "angular"
    else:
        raise ValueError(f"unknown twist {twist!r}")

    def evaluate(x):
        # h/e1/e2 normalize internally; keeping x raw here makes the A = 0
        # case reproduce the Hopf field bit-for-bit.
        xs = du.normalize(x)
        d = du.arccos(du.vdot(xs, center))
        f = du.relu(1.0 - (d / r) ** 2) ** m * amp
        fb = f[..., None]
        if twist_fn is None:
            tilt = e1(x)
        else:
            g = twist_fn(xs)[..., None]
            tilt = du.cos(g) * e1(x) + du.sin(g) * e2(x)
        return du.cos(fb) * h(x) + du.sin(fb) * tilt

    return UnitField(
        label="perturbed",
        evaluator=evaluate,
        params={
            "axis": tuple(np.asarray(axis, dtype=float)),
            "amplitude": amp,
            "exponent": m,
            "twist": twist_name,
            "cap_center": tuple(center),
            "cap_radius": r,
        },
        hopf_boundary=cap,
    )


def small_cap_field(cap: CapDomain) -> UnitField:
    """Radial parallel extension of u0 = i p from the cap center p.

    u0 is the first ``tangent_basis`` vector at p.  Along each geodesic
    leaving the center, the value is the parallel transport of u0; in
    closed form

        v(x) = u0 - <u0, x> p - <u0, x> / (1 + <x, p>) (x - <x, p> p)

    which is smooth away from the antipode of the center.  Meaningful on
    small caps (documented default radius 0.1) where the covariant
    derivative stays small.
    """
    p = cap.center.x
    u = tangent_basis(cap.center)[0]

    def evaluate(x):
        xs = du.normalize(x)
        su = du.vdot(xs, u)[..., None]
        sp = du.vdot(xs, p)[..., None]
        return (u - su * p) - (su / (1.0 + sp)) * (xs - sp * p)

    return UnitField(
        label="small-cap",
        evaluator=evaluate,
        params={
            "cap_center": tuple(p),
            "cap_radius": cap.radius,
            "u0": tuple(u),
        },
        hopf_boundary=None,
    )
