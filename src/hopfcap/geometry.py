"""Quaternionic model of the unit 3-sphere.

Points of S^3 are unit 4-vectors read as quaternions (w, i, j, k).  This
module provides the quaternion algebra, geodesic-ball (cap) domains and
their volume, the tangent basis (i x, j x, k x) and uniform random points.

Every seeded sample in the package comes from ``seeded_uniforms``, which
reads 53-bit uniforms off the standard library's Mersenne Twister
(``random.Random``), a module the interpreter has loaded at startup, so
drawing a sample loads no generator module of numpy.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from dataclasses import dataclass

import numpy as np

DRIFT_GUARD = 1e-9
# Below this radius 2r - sin 2r is summed from its Taylor series: the
# closed form's relative error grows like 1e-16 / r^2 (about 1e-10 at the
# cut-off), and the series' first omitted term is below 1e-21 of its sum.
SERIES_RADIUS = 1e-3
# The most 64-bit words one draw can hold: Random.randbytes(m) is
# getrandbits(8 m), whose bit count is a C int on CPython 3.11.
MAX_WORDS = (2**31 - 1) // 64

QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])
QUAT_I = np.array([0.0, 1.0, 0.0, 0.0])
QUAT_J = np.array([0.0, 0.0, 1.0, 0.0])
QUAT_K = np.array([0.0, 0.0, 0.0, 1.0])


def quat_mul(p, q):
    """Hamilton product of quaternions, broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def left_mult_matrix(a):
    """4x4 matrix of x -> a * x (Hamilton product by a fixed quaternion)."""
    a0, a1, a2, a3 = np.asarray(a, dtype=float)
    return np.array(
        [
            [a0, -a1, -a2, -a3],
            [a1, a0, -a3, a2],
            [a2, a3, a0, -a1],
            [a3, -a2, a1, a0],
        ]
    )


# (12, 4): x -> (i x, j x, k x), the tangent basis of ``tangent_basis`` at
# every point, as one constant map.
FRAME_ROWS = np.concatenate([left_mult_matrix(q) for q in (QUAT_I, QUAT_J, QUAT_K)])


@dataclass(frozen=True)
class SpherePoint:
    """Unit 4-vector on S^3, renormalized on construction.

    Two points are equal when their coordinates are exactly equal, and equal
    points hash alike (0.0 and -0.0 too), so a point or a cap can key a dict.
    """

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (4,):
            raise ValueError(f"SpherePoint needs a 4-vector, got shape {x.shape}")
        n = float(np.linalg.norm(x))
        # Written so that a NaN norm fails the guard too.
        if not abs(n - 1.0) <= DRIFT_GUARD:
            raise ValueError(f"point {x} has norm {n}, which drifts from 1 by more than {DRIFT_GUARD}")
        object.__setattr__(self, "x", x / n)

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            return NotImplemented
        return bool(np.array_equal(self.x, other.x))

    def __hash__(self):
        return hash(tuple(self.x.tolist()))


@dataclass(frozen=True)
class CapDomain:
    """Geodesic ball in S^3: all points within ``radius`` of ``center``.

    radius = pi denotes the full sphere minus the antipode of the center.
    A radius below about 1.7e-103 is rejected: its volume is not a normal
    float, and every integral over the cap is a multiple of that volume.
    """

    center: SpherePoint
    radius: float

    def __post_init__(self):
        if not (0.0 < self.radius <= math.pi):
            raise ValueError(f"cap radius must lie in (0, pi], got {self.radius}")
        volume = cap_volume(self)
        if volume < sys.float_info.min:
            raise ValueError(
                f"cap radius {self.radius} is too small: its volume {volume} is below "
                f"the smallest normal float {sys.float_info.min}"
            )


def cap_volume(cap: CapDomain) -> float:
    """3-volume of a geodesic ball: 4 pi * integral of sin^2 from 0 to r.

    That is pi (2r - sin 2r), written 2 pi r - pi sin 2r.  Below
    ``SERIES_RADIUS`` the two terms cancel (relative error 2.7e-6 at
    r = 1e-5, 0.0 returned at 1e-8), so there it is pi ``radial_mass(r)``,
    a Taylor series.
    """
    r = cap.radius
    if r < SERIES_RADIUS:
        return math.pi * float(radial_mass(r))
    return 2.0 * math.pi * r - math.pi * math.sin(2.0 * r)


def radial_mass(r) -> np.ndarray:
    """2r - sin 2r = 4 * integral of sin^2 from 0 to r, elementwise, for r >= 0.

    The closed form, with its bits, at r >= ``SERIES_RADIUS``; below it
    (2r)^3/3! - (2r)^5/5! + (2r)^7/7!.  The result has r's shape.
    """
    r = np.asarray(r, dtype=float)
    x2 = 4.0 * r * r
    series = 2.0 * r * x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
    return np.where(r < SERIES_RADIUS, series, 2.0 * r - np.sin(2.0 * r))


def tangent_basis(p: SpherePoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal tangent basis (i p, j p, k p) at p."""
    return quat_mul(QUAT_I, p.x), quat_mul(QUAT_J, p.x), quat_mul(QUAT_K, p.x)


def seeded_uniforms(k: int, n: int, seed: int) -> np.ndarray:
    """(k, n) uniforms on [0, 1), 53 random bits each, fixed by ``seed`` >= 0.

    The bits are the little-endian bytes of ``random.Random(seed)``; each
    value keeps the top 53 bits of one 64-bit word, times 2**-53.
    """
    seed = operator.index(seed)
    # random.Random seeds with |seed|, so -1 would silently draw seed 1's sample.
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if k * n > MAX_WORDS:
        raise ValueError(
            f"{k} rows of {n} uniforms exceed one draw's {MAX_WORDS} values: at most {MAX_WORDS // k} per row"
        )
    words = np.frombuffer(random.Random(seed).randbytes(8 * k * n), dtype="<u8")
    return (words >> np.uint64(11)).reshape(k, n) * 2.0**-53


def random_sphere_points(n: int, seed: int) -> np.ndarray:
    """(n, 4) array of uniform points on S^3, from ``seeded_uniforms``.

    Hopf coordinates (sqrt(u) e^{2 pi i a}, sqrt(1 - u) e^{2 pi i b}) with
    u, a, b uniform on [0, 1) are exactly uniform on S^3.
    """
    u, a, b = seeded_uniforms(3, n, seed)
    r1, r2 = np.sqrt(u), np.sqrt(1.0 - u)
    a, b = 2.0 * math.pi * a, 2.0 * math.pi * b
    return np.stack([r1 * np.cos(a), r1 * np.sin(a), r2 * np.cos(b), r2 * np.sin(b)], axis=-1)
