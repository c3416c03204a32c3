"""Unit vector field families on S^3.

Three built-in families:

* ``hopf_field`` -- great-circle flow x -> a x for a unit imaginary axis a.
* ``perturbed_field`` -- a Hopf field rotated inside a cap by a radial bump
  angle toward the orthogonal frame fields; agrees with the Hopf field on
  the cap boundary and outside the cap.
* ``small_cap_field`` -- radial parallel extension of a single tangent
  vector from the cap center; has small covariant derivative on small caps
  and ignores the boundary condition.

Every evaluator takes points component-major, as a (4, n) array or a
``Dual`` with value (4, n), and returns tangent vectors in the same layout;
constant vectors enter as (4, 1) columns.  Calling a ``UnitField`` on plain
points takes and returns (..., 4) arrays instead.  Every evaluator is
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

    ``evaluator`` maps component-major (4, n) points (plain or Dual) to
    tangent vectors of the same layout.  ``hopf_boundary`` records where the
    field is known to coincide with a Hopf field: "everywhere", a CapDomain
    (on and outside its boundary), or None.
    """

    label: str
    evaluator: Callable
    params: dict = dc_field(default_factory=dict)
    hopf_boundary: Union[str, CapDomain, None] = None

    def __call__(self, x):
        """The field at a component-major ``Dual``, or at plain points of
        shape (..., 4), returned in that shape."""
        if isinstance(x, du.Dual):
            return self.evaluator(x)
        x = np.asarray(x, dtype=float)
        v = self.evaluator(np.ascontiguousarray(x.reshape(-1, 4).T))
        return np.ascontiguousarray(np.asarray(v).T).reshape(x.shape)


def _check_axis(axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (4,):
        raise ValueError("axis must be a 4-vector quaternion")
    if not np.all(np.isfinite(axis)):
        raise ValueError(f"axis must have finite components, got {axis}")
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


def hopf_frame(axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-multiplication matrices of the orthonormal tangent frame (H, E1, E2)."""
    axis = _check_axis(axis)
    b, c = _complete_axis(axis)
    return left_mult_matrix(axis), left_mult_matrix(b), left_mult_matrix(c)


BUMP_EXPONENT = 3  # default m of the bump profile, also of the sweep family
# Largest |A| of a bump profile.  A rotation angle beyond a few pi adds
# nothing to the family, and a huge one overflows the jet's invariants.
AMPLITUDE_MAX = 4.0 * np.pi


@dataclass(frozen=True)
class BumpProfile:
    """Radial rotation-angle profile A * (1 - (d/r)^2)^m, zero outside the cap.

    The profile and its first derivative vanish at the cap boundary for
    m >= 2, so the perturbed field matches the Hopf field to first order
    there.
    """

    amplitude: float
    exponent: int = BUMP_EXPONENT

    def __post_init__(self):
        # Written so that a NaN amplitude fails the bound too.
        if not abs(self.amplitude) <= AMPLITUDE_MAX:
            raise ValueError(
                f"bump amplitude must be finite with |A| <= 4 pi = {AMPLITUDE_MAX}, got {self.amplitude}"
            )
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
    twist = "none" if twist is None else twist
    if twist not in ("none", "angular"):
        raise ValueError(f"unknown twist {twist!r}")
    h, e1, e2 = hopf_frame(axis)
    center = cap.center.x[:, None]
    r = cap.radius
    amp, m = bump.amplitude, bump.exponent
    b1, b2 = (b[:, None] for b in tangent_basis(cap.center)[:2])

    def evaluate(x):
        # The frame is applied to the same normalized point as hopf_field,
        # so the A = 0 case reproduces the Hopf field bit-for-bit.
        xs = du.normalize(x)
        d = du.arccos(du.vdot(xs, center))
        f = du.relu(1.0 - (d / r) ** 2) ** m * amp
        tilt = du.apply_linear(e1, xs)
        if twist == "angular":
            sg, cg = du.sincos(du.arctan2(du.vdot(xs, b2), du.vdot(xs, b1)))
            tilt = cg * tilt + sg * du.apply_linear(e2, xs)
        sf, cf = du.sincos(f)
        return cf * du.apply_linear(h, xs) + sf * tilt

    return UnitField(
        label="perturbed",
        evaluator=evaluate,
        params={
            "axis": tuple(np.asarray(axis, dtype=float)),
            "amplitude": amp,
            "exponent": m,
            "twist": twist,
            "cap_center": tuple(cap.center.x),
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
    small caps, where the covariant derivative stays small: its mean square
    grows like 0.2 r^2.
    """
    u0 = tangent_basis(cap.center)[0]
    p, u = cap.center.x[:, None], u0[:, None]

    def evaluate(x):
        xs = du.normalize(x)
        su = du.vdot(xs, u)
        sp = du.vdot(xs, p)
        return (u - su * p) - (su / (1.0 + sp)) * (xs - sp * p)

    return UnitField(
        label="small-cap",
        evaluator=evaluate,
        params={
            "cap_center": tuple(cap.center.x),
            "cap_radius": cap.radius,
            "u0": tuple(u0),
        },
        hopf_boundary=None,
    )
