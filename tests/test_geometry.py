import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfcap import CapDomain, SpherePoint, cap_volume, quat_mul
from hopfcap.geometry import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    SERIES_RADIUS,
    left_mult_matrix,
    radial_mass,
    random_sphere_points,
    seeded_uniforms,
)

quat = st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=4, max_size=4).map(
    np.array
)


class TestQuaternions:
    def test_ij_is_k(self):
        assert np.allclose(quat_mul(QUAT_I, QUAT_J), QUAT_K)

    def test_identity(self):
        q = np.array([0.3, -0.2, 0.8, 0.1])
        assert np.allclose(quat_mul(QUAT_ONE, q), q)

    def test_ii_is_minus_one(self):
        assert np.allclose(quat_mul(QUAT_I, QUAT_I), -QUAT_ONE)

    @given(quat, quat, quat)
    @settings(max_examples=200)
    def test_associative(self, p, q, r):
        assert np.allclose(quat_mul(quat_mul(p, q), r), quat_mul(p, quat_mul(q, r)), atol=1e-9)

    @given(quat, quat)
    @settings(max_examples=200)
    def test_norm_multiplicative(self, p, q):
        lhs = np.linalg.norm(quat_mul(p, q))
        rhs = np.linalg.norm(p) * np.linalg.norm(q)
        assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    def test_left_mult_matrix_agrees(self):
        a = np.array([0.1, 0.5, -0.3, 0.7])
        q = np.array([0.9, -0.2, 0.4, 0.3])
        assert np.allclose(left_mult_matrix(a) @ q, quat_mul(a, q))


class TestSpherePoint:
    def test_renormalizes(self):
        p = SpherePoint(np.array([1.0 + 5e-10, 0.0, 0.0, 0.0]))
        assert abs(np.linalg.norm(p.x) - 1.0) < 1e-12

    def test_drift_guard(self):
        for first in (1.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="drifts from 1"):
                SpherePoint(np.array([first, 0.0, 0.0, 0.0]))


class TestCapVolume:
    def test_full_sphere(self):
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), math.pi)
        assert cap_volume(cap) == pytest.approx(2 * math.pi**2, abs=1e-12)

    def test_half_sphere(self):
        # Oracle: closed-form integral of 4 pi sin^2 from 0 to pi/2.
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), math.pi / 2)
        assert cap_volume(cap) == pytest.approx(math.pi**2, abs=1e-12)

    def test_small_cap(self):
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 0.1)
        assert cap_volume(cap) == pytest.approx(0.0041804205985938, abs=1e-15)

    def test_monotone(self):
        c = SpherePoint(np.array([1.0, 0, 0, 0]))
        radii = np.linspace(0.05, math.pi, 40)
        vols = [cap_volume(CapDomain(c, float(r))) for r in radii]
        assert np.all(np.diff(vols) > 0)

    def test_matches_monte_carlo(self):
        # Fraction of uniform S^3 samples inside the cap, within 3 sigma.
        c = SpherePoint(np.array([1.0, 0, 0, 0]))
        cap = CapDomain(c, 1.2)
        pts = random_sphere_points(1_000_000, seed=5)
        frac = np.mean(np.arccos(np.clip(pts @ c.x, -1, 1)) <= cap.radius)
        total = 2 * math.pi**2
        sigma = math.sqrt(frac * (1 - frac) / len(pts)) * total
        assert abs(frac * total - cap_volume(cap)) < 3 * sigma

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 3.2)

    def test_radius_with_a_subnormal_volume_rejected(self):
        # (4 pi / 3) r^3 falls below the smallest normal float at r = 1.74e-103.
        north = SpherePoint(np.array([1.0, 0, 0, 0]))
        assert cap_volume(CapDomain(north, 1.75e-103)) >= sys.float_info.min
        for radius in (1.74e-103, 1e-104, 1e-200, 5e-324):
            with pytest.raises(ValueError, match=f"cap radius {radius} is too small"):
                CapDomain(north, radius)

    @pytest.mark.parametrize("radius", [np.nextafter(SERIES_RADIUS, 0.0), 1e-4, 1e-5, 1e-6, 1e-8, 1e-12])
    def test_tiny_cap_keeps_its_precision(self, radius):
        # pi (2r - sin 2r) = (4 pi / 3) r^3 (1 - r^2 / 5 + 2 r^4 / 105 - ...).  The two
        # terms cancel on a tiny cap: written out, the relative error was 2.7e-6
        # at r = 1e-5 and the volume 0.0 at r = 1e-8.
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), float(radius))
        series = 4.0 * math.pi / 3.0 * radius**3 * (1.0 - radius**2 / 5.0 + 2.0 * radius**4 / 105.0)
        assert cap_volume(cap) == pytest.approx(series, rel=1e-14)

    def test_closed_form_bits_from_the_series_radius_up(self):
        # Every radius from the cut-off up keeps the closed form's bits, so no
        # report on such a cap changes; across the cut-off the volume is continuous.
        c = SpherePoint(np.array([1.0, 0, 0, 0]))
        r = np.linspace(SERIES_RADIUS, math.pi, 10_001)
        assert radial_mass(r).tobytes() == (2.0 * r - np.sin(2.0 * r)).tobytes()
        for radius in r[::1000]:
            assert cap_volume(CapDomain(c, radius)) == 2.0 * math.pi * radius - math.pi * math.sin(2.0 * radius)
        below, at = (cap_volume(CapDomain(c, x)) for x in (np.nextafter(SERIES_RADIUS, 0.0), SERIES_RADIUS))
        assert at == pytest.approx(below, rel=1e-9)


class TestCapEquality:
    def cap(self, center=(1.0, 0, 0, 0), radius=1.0):
        return CapDomain(SpherePoint(np.array(center)), radius)

    def test_equal_cap_compares_equal(self):
        assert self.cap() == self.cap()

    def test_other_radius_or_center_compares_unequal(self):
        assert self.cap() != self.cap(radius=0.5)
        assert self.cap() != self.cap(center=(0.0, 1.0, 0, 0))
        assert self.cap() != self.cap(center=(1.0, 1e-15, 0, 0))

    def test_equal_caps_key_one_dict_entry(self):
        # -0.0 equals 0.0, so a center with a negative zero is the same key.
        keyed = {self.cap(): "a", self.cap(): "b", self.cap(center=(1.0, -0.0, 0, 0)): "c"}
        assert keyed == {self.cap(): "c"}
        assert hash(self.cap()) == hash(self.cap(center=(1.0, -0.0, 0, 0)))
        assert len({self.cap(), self.cap(radius=0.5)}) == 2


class TestSeededSamples:
    def test_uniforms_are_the_top_53_bits_of_the_stdlib_words(self):
        # Oracle: the generator's 64-bit words drawn one at a time.
        r = random.Random(5)
        words = [r.getrandbits(64) for _ in range(2 * 7)]
        expected = np.array([(x >> 11) * 2.0**-53 for x in words]).reshape(2, 7)
        assert np.array_equal(seeded_uniforms(2, 7, 5), expected)

    def test_uniforms_lie_in_the_unit_interval(self):
        u = seeded_uniforms(3, 100_000, 2)
        assert u.shape == (3, 100_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        # Mean 1/2 and standard deviation 1/sqrt(12) per value.
        assert np.all(np.abs(u.mean(axis=1) - 0.5) < 3 / math.sqrt(12 * u.shape[1]))

    def test_same_seed_same_bytes(self):
        assert random_sphere_points(1000, 7).tobytes() == random_sphere_points(1000, 7).tobytes()
        assert random_sphere_points(1000, 0).tobytes() != random_sphere_points(1000, 1).tobytes()

    def test_points_are_unit_and_isotropic(self):
        pts = random_sphere_points(200_000, 3)
        assert pts.shape == (200_000, 4)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-15
        # Each E[x_i^2] is 1/4 on S^3; sigma is the standard error of the mean.
        sq = pts**2
        sigma = sq.std(axis=0) / math.sqrt(len(pts))
        assert np.all(np.abs(sq.mean(axis=0) - 0.25) < 3 * sigma)

    def test_negative_seed_rejected(self):
        # random.Random would draw seed 1's sample for seed -1.
        with pytest.raises(ValueError, match="non-negative integer, got -1"):
            seeded_uniforms(1, 4, -1)
        with pytest.raises(ValueError, match="non-negative integer, got -1"):
            random_sphere_points(4, -1)

    def test_too_many_values_for_one_draw(self):
        # Random.randbytes(m) draws getrandbits(8 m), whose bit count is a C
        # int on CPython 3.11: 3 x 11 184 811 words is the first count past
        # it, and the check comes before anything is drawn.
        with pytest.raises(ValueError, match="at most 11184810 per row"):
            seeded_uniforms(3, 11_184_811, 0)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            random_sphere_points(4, 1.5)
