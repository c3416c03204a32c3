"""Unit vector field families on S^3.

Three built-in families:

* ``hopf_field`` -- great-circle flow x -> a x for a unit imaginary axis a.
* ``perturbed_field`` -- a Hopf field rotated inside a cap by a radial bump
  angle toward the orthogonal frame fields; agrees with the Hopf field on
  the cap boundary and outside the cap.
* ``small_cap_field`` -- radial parallel extension of a single tangent
  vector from the cap center; has small covariant derivative on small caps
  and ignores the boundary condition.

S^3 is the group of unit quaternions, and the Hopf field and its frame
(E1, E2) are left-invariant: x -> a x, b x, c x.  So every unit tangent
field is v = u x, with u = v conj(x) a unit imaginary quaternion, the
field's frame components.  Every evaluator takes a ``Dual`` of
component-major points, value (4, n) with derivatives (d, 4, n), and
returns u as a ``Dual`` of (3, n) rows, the i, j and k parts; constant
vectors enter as (3, 1) columns, or as (1, 4) rows in a dot product, and
constant maps through ``dual.apply_linear``.  Every evaluator reads unit
points and forms no |x|: the perturbed field reads cos rho = <c, x> and
runs the chain of its bump angle on that one scalar (``dual.compose``).
On a Gauss rule over a cap centred at a quaternion basis unit
(+-1, +-i, +-j, +-k; the default cap's centre is 1), the rule's
directions have an exact zero in the centre's component, so cos rho has
the same bits at every node of a rho-slab, and a block runs the chain
(arccos, bump power, sincos, frame map) once per slab it crosses and
spreads the result.  Other centres, Monte Carlo samples and displaced
points run it once per distinct value too, which there is nearly every
node.

0-homogeneity has one home, ``UnitField.__call__``: it forms
x^ = x / |x|, evaluates u at x^ and gives the tangent vector v = u x^, the
sum of u's components times i x^, j x^ and k x^, on a ``Dual`` in its
layout or on plain (..., 4) points in their shape.  So v is defined, and
0-homogeneous, off the sphere: the central differences, the ambient
derivative and the numeric determinant read v.  The AD jet reads u
(``UnitField.components``) at the rule's unit nodes along tangent
directions, where d|x| = 0, and never forms v: in this frame its matrix is
du + [u]x.

The evaluators run once per jet block, and their temporaries are most of
the block's memory.  The input Dual is the caller's (the jet's nodes, as a
``dual.Seed`` whose basis directions are never formed) and is only read.
Each intermediate is deleted after its last read, and the derivative of u
is a fresh buffer, into which the jet writes B (``UnitField``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import dual as du
from .geometry import FRAME_ROWS, QUAT_I, QUAT_J, QUAT_K, QUAT_ONE, CapDomain, quat_mul, tangent_basis


@dataclass(frozen=True)
class UnitField:
    """Closed-form unit tangent field v = u x: S^3 -> T S^3.

    ``evaluator`` maps a Dual of component-major unit (4, n) points to the
    frame components u = v conj(x), a Dual of (3, n) rows.  It only reads
    its input: the AD jet's is a ``dual.Seed``, whose directions the
    evaluator reads through ``dual.apply_linear`` (any other read of its
    ``eps`` forms them) and counts with ``directions``.  The derivative
    part of u is the caller's to overwrite: a buffer the evaluator made on
    this call, sharing no memory with its input or with an array it keeps
    between calls.  The AD jet writes B into it when it is (3, 3, n), and
    allocates B for a constant column (3, 3, 1).  ``params``
    names the family's parameters, which reports quote.  ``hopf_boundary``
    records where the field is known to coincide with a Hopf field:
    "everywhere", a CapDomain (on and outside its boundary), or None.
    """

    label: str
    evaluator: Callable
    params: dict
    hopf_boundary: Union[str, CapDomain, None]

    def components(self, x):
        """The frame components u at a component-major ``Dual`` of unit points, (3, n)."""
        u = self.evaluator(x)
        if not isinstance(u, du.Dual):
            raise TypeError(f"field {self.label!r} does not return dual numbers")
        return u

    def __call__(self, x):
        """The field v = u x^ at a component-major ``Dual``, or at plain
        points of shape (..., 4), returned in that shape."""
        plain = not isinstance(x, du.Dual)
        if plain:
            shape, x = np.shape(x), du.plain(du.component_major(x, 0))
        # u is read at x^, so v is 0-homogeneous in x; then
        # v = u x^ = sum_c u_c (q_c x^) over the imaginary units q = i, j, k.
        xs = du.normalize(x)
        u = self.components(xs)
        v = None
        for c, unit_map in enumerate(FRAME_ROWS.reshape(3, 4, 4)):
            term = du.apply_linear(unit_map, xs)
            term *= du.Dual(u.val[c : c + 1], u.eps[:, c : c + 1])
            if v is None:
                v = term
            else:
                v += term
            del term
        return du.point_major(v.val, shape) if plain else v


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


# The default axis of hopf_field and perturbed_field: the unit i.
HOPF_AXIS = (0.0, 1.0, 0.0, 0.0)


def hopf_field(axis=HOPF_AXIS) -> UnitField:
    """Great-circle flow v(x) = axis * x for a unit imaginary quaternion axis.

    Its frame components are the constant axis, a (3, 1) column with zero
    derivatives.
    """
    axis = _check_axis(axis)
    column = axis[1:, None]

    def evaluate(x):
        return du.Dual(column, np.zeros((x.directions, 3, 1)))

    return UnitField(
        label="hopf",
        evaluator=evaluate,
        params={"axis": tuple(axis)},
        hopf_boundary="everywhere",
    )


def hopf_frame(axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orthonormal imaginary units (a, b, c = a b) of the frame (H, E1, E2) = (a x, b x, c x).

    b is the imaginary basis unit least aligned with a, made orthogonal to
    it; c, a product of orthogonal imaginary units, is one too.
    """
    a = _check_axis(axis)
    candidates = np.eye(4)[1:]
    b = candidates[int(np.argmin(np.abs(candidates @ a)))]
    b = b - np.dot(b, a) * a
    b /= np.linalg.norm(b)
    return a, b, quat_mul(a, b)


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
    axis=HOPF_AXIS,
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
    # Columns a, b, c: u = cos f a + sin f (cos g b + sin g c) is this
    # rotation applied to the angles' unit vector.
    frame = np.stack(hopf_frame(axis), axis=1)[1:]
    center = cap.center.x[None, :]
    r = cap.radius
    amp, m = bump.amplitude, bump.exponent
    b1, b2 = (b[None, :] for b in tangent_basis(cap.center)[:2])

    def angle(q):
        """The bump angle f at q = cos rho."""
        return du.relu(1.0 - (du.arccos(q) / r) ** 2) ** m * amp

    def untwisted(q):
        """u = cos f a + sin f b at q = cos rho."""
        return du.apply_linear(frame[:, :2], du.stack(du.sincos(angle(q))[::-1]))

    def evaluate(x):
        # x is unit, so cos rho = <center, x>, and f, and u without a twist,
        # are functions of that one scalar: their chain runs on one direction
        # (``dual.compose``).  The azimuth is read off a ratio.  Each factor
        # goes after its last read.
        q = du.apply_linear(center, x)
        if twist == "none":
            return du.compose(q, untwisted)
        sf, cf = du.sincos(du.compose(q, angle))
        del q
        sg, cg = du.sincos(du.arctan2(du.apply_linear(b2, x), du.apply_linear(b1, x)))
        cg *= sf
        sg *= sf
        del sf
        return du.apply_linear(frame, du.stack([cf, cg, sg]))

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
    closed form, with su = <u0, x>, sp = <x, p> and k = su / (1 + sp),

        v(x) = u0 - su p - k (x - sp p)

    which is smooth away from the antipode of the center.  Its frame
    components are u = v conj(x): x conj(x) = 1 is real, and
    su - k sp = k, so u = Im(u0 conj(x)) - k Im(p conj(x)), two constant
    3x4 maps of x.  Meaningful on small caps, where the covariant
    derivative stays small: its mean square grows like 0.2 r^2.
    """
    u0 = tangent_basis(cap.center)[0]
    p = cap.center.x

    def conj_map(w):
        """The 3x4 matrix of x -> Im(w conj(x))."""
        conj = (QUAT_ONE, -QUAT_I, -QUAT_J, -QUAT_K)
        return np.stack([quat_mul(w, e)[1:] for e in conj], axis=1)

    along, across = conj_map(u0), conj_map(p)

    def evaluate(x):
        k = du.apply_linear(u0[None, :], x) / (1.0 + du.apply_linear(p[None, :], x))
        u = du.apply_linear(along, x)
        turn = du.apply_linear(across, x)
        turn *= k
        del k
        u -= turn
        return u

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
