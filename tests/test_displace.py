import math

import numpy as np
import pytest

from hopfcap import (
    BumpProfile,
    CapDomain,
    DisplacementMap,
    SpherePoint,
    build_gauss_rule,
    cap_volume,
    hopf_field,
    image_volume,
    jacobian_det_analytic,
    jacobian_det_numeric,
    perturbed_field,
)
from hopfcap.displace import frame_matrix
from hopfcap.geometry import random_sphere_points


@pytest.fixture(scope="module")
def cap():
    return CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 1.0)


@pytest.fixture(scope="module")
def smooth_fields(cap):
    return [hopf_field(), perturbed_field(cap, BumpProfile(0.5, 3))]


class TestDisplacementMap:
    def test_hopf_at_one(self):
        dm = DisplacementMap(hopf_field(), 0.5)
        out = dm(np.array([1.0, 0, 0, 0]))
        assert np.allclose(out, [1.0, 0.5, 0, 0])

    def test_image_radius(self, smooth_fields):
        pts = random_sphere_points(500, 30)
        for f in smooth_fields:
            for t in (0.0, 0.1, 0.3):
                dm = DisplacementMap(f, t)
                radii = np.linalg.norm(dm(pts), axis=-1)
                assert np.max(np.abs(radii - math.sqrt(1 + t * t))) < 1e-12

    def test_rejects_out_of_range_offset(self):
        for t in (-0.1, 0.6):
            with pytest.raises(ValueError):
                DisplacementMap(hopf_field(), t)


class TestShiftedUnitField:
    """u = (v - t x) / sqrt(1 + t^2), the third image-frame vector of frame_matrix."""

    def test_differential_along_field_direction(self, smooth_fields):
        # <dphi(v), u> = sqrt(1 + t^2); <dphi(e_i), u> = 0.
        pts = random_sphere_points(500, 32)
        for f in smooth_fields:
            for t in (0.1, 0.3):
                dm = DisplacementMap(f, t)
                m = frame_matrix(dm, pts)
                assert np.max(np.abs(m[:, 2, 2] - math.sqrt(1 + t * t))) < 1e-10
                assert np.max(np.abs(m[:, 0, 2])) < 1e-8
                assert np.max(np.abs(m[:, 1, 2])) < 1e-8


class TestJacobianDeterminant:
    def test_analytic_hopf_closed_form(self):
        pts = random_sphere_points(200, 33)
        for t in (0.0, 0.15, 0.3):
            dm = DisplacementMap(hopf_field(), t)
            det = jacobian_det_analytic(dm, pts)
            assert np.max(np.abs(det - (1 + t * t) ** 1.5)) < 1e-9

    def test_zero_offset_is_identity(self, smooth_fields):
        pts = random_sphere_points(100, 34)
        for f in smooth_fields:
            dm = DisplacementMap(f, 0.0)
            assert np.max(np.abs(jacobian_det_analytic(dm, pts) - 1.0)) < 1e-12
            assert np.max(np.abs(jacobian_det_numeric(dm, pts) - 1.0)) < 1e-9

    def test_numeric_hopf_value(self):
        dm = DisplacementMap(hopf_field(), 0.2)
        p = random_sphere_points(1, 35)[0]
        assert jacobian_det_numeric(dm, p) == pytest.approx(1.04**1.5, abs=1e-6)

    def test_analytic_matches_numeric(self, cap):
        # 1000 random (field, point, t) triples with t <= 0.3.
        rng = np.random.default_rng(36)
        fields = [
            hopf_field(),
            perturbed_field(cap, BumpProfile(0.5, 3)),
            perturbed_field(cap, BumpProfile(1.2, 2), twist="angular"),
        ]
        pts = random_sphere_points(1000, 37)
        ts = rng.uniform(0.0, 0.3, 10)
        worst = 0.0
        for t in ts:
            f = fields[rng.integers(len(fields))]
            dm = DisplacementMap(f, float(t))
            a = jacobian_det_analytic(dm, pts[:100])
            n = jacobian_det_numeric(dm, pts[:100])
            worst = max(worst, np.max(np.abs(a - n) / np.abs(n)))
        assert worst < 1e-6

    def test_positive_for_smooth_fields_at_small_t(self, smooth_fields):
        pts = random_sphere_points(2000, 38)
        for f in smooth_fields:
            dm = DisplacementMap(f, 0.3)
            assert np.min(jacobian_det_analytic(dm, pts)) > 0


class TestImageVolume:
    def test_hopf_full_sphere(self):
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), math.pi)
        rule = build_gauss_rule(cap, 32, 16, 32)
        for t in (0.1, 0.3):
            dm = DisplacementMap(hopf_field(), t)
            val, _ = image_volume(dm, cap, rule)
            assert val == pytest.approx(2 * math.pi**2 * (1 + t * t) ** 1.5, rel=1e-10)

    def test_zero_offset_gives_cap_volume(self, cap):
        rule = build_gauss_rule(cap, 32, 16, 32)
        dm = DisplacementMap(hopf_field(), 0.0)
        val, _ = image_volume(dm, cap, rule)
        assert val == pytest.approx(cap_volume(cap), rel=1e-12)

    def test_perturbed_matches_hopf_image(self, cap):
        # Boundary agreement forces equal image volumes.
        rule = build_gauss_rule(cap, 64, 32, 64)
        f = perturbed_field(cap, BumpProfile(0.5, 3))
        for t in (0.1, 0.2, 0.3):
            dm = DisplacementMap(f, t)
            val, _ = image_volume(dm, cap, rule)
            target = cap_volume(cap) * (1 + t * t) ** 1.5
            assert val == pytest.approx(target, rel=1e-5)

    def test_det_floor_rejection(self, cap):
        # An angular-twist field folds near the twist axis for any t > 0.
        rule = build_gauss_rule(cap, 32, 16, 32)
        f = perturbed_field(cap, BumpProfile(1.2, 2), twist="angular")
        dm = DisplacementMap(f, 0.1)
        with pytest.raises(ValueError, match="diffeomorphism window"):
            image_volume(dm, cap, rule)
