import math

import numpy as np
import pytest

from hopfcap import (
    BumpProfile,
    CapDomain,
    SpherePoint,
    UnitField,
    build_gauss_rule,
    cap_volume,
    energy,
    energy_from_jets,
    hopf_field,
    integrate,
    jet_batch,
    perturbed_field,
    small_cap_field,
    volume,
)
from hopfcap import dual as du
from hopfcap.geometry import left_mult_matrix, quat_conj, quat_mul


@pytest.fixture(scope="module")
def cap():
    return CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 1.0)


@pytest.fixture(scope="module")
def rule(cap):
    return build_gauss_rule(cap, 64, 32, 64)


class TestEnergy:
    def test_hopf_on_cap(self, cap, rule):
        rep = energy(hopf_field(), cap, rule)
        assert rep.value == pytest.approx(2.5 * cap_volume(cap), rel=1e-12)
        assert rep.base_term == pytest.approx(1.5 * cap_volume(cap))
        assert rep.derivative_term == pytest.approx(2.0 * cap_volume(cap), rel=1e-12)

    def test_hopf_on_full_sphere(self):
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), math.pi)
        rule = build_gauss_rule(cap, 32, 16, 32)
        assert energy(hopf_field(), cap, rule).value == pytest.approx(5 * math.pi**2, rel=1e-10)

    def test_decomposition_invariant(self, cap, rule):
        for f in [hopf_field(), perturbed_field(cap, BumpProfile(0.7, 2))]:
            rep = energy(f, cap, rule)
            assert rep.value == rep.base_term + 0.5 * rep.derivative_term

    def test_zero_amplitude_equals_hopf(self, cap, rule):
        a = energy(perturbed_field(cap, BumpProfile(0.0, 3)), cap, rule)
        b = energy(hopf_field(), cap, rule)
        assert a.value == b.value

    def test_base_term_floor(self, cap, rule):
        # Density is nonnegative, so 1.5 vol(K) is an unconditional floor.
        for f in [
            hopf_field(),
            perturbed_field(cap, BumpProfile(1.2, 2), twist="angular"),
            small_cap_field(CapDomain(cap.center, 0.1)),
        ]:
            assert energy(f, cap, rule).value >= 1.5 * cap_volume(cap)

    def test_frozen_surplus_regression(self, cap, rule):
        # Frozen after first computation: A=0.5, m=3, r=1, orders (64,32,64).
        rep = energy(perturbed_field(cap, BumpProfile(0.5, 3)), cap, rule)
        surplus = rep.value - 2.5 * cap_volume(cap)
        assert surplus == pytest.approx(0.431347103879121, rel=1e-9)

    def test_family_monotone_in_amplitude(self, cap, rule):
        vals = [
            energy(perturbed_field(cap, BumpProfile(a, 3)), cap, rule).value
            for a in (0.0, 0.5, 1.0)
        ]
        assert vals[0] < vals[1] < vals[2]


class TestVolume:
    def test_hopf_on_cap(self, cap, rule):
        rep = volume(hopf_field(), cap, rule)
        assert rep.value == pytest.approx(2.0 * cap_volume(cap), rel=1e-12)

    def test_constant_section_floor(self, cap, rule):
        # Integrand is >= 1 pointwise, so vol(K) is an unconditional floor.
        for f in [
            perturbed_field(cap, BumpProfile(1.2, 2), twist="angular"),
            small_cap_field(CapDomain(cap.center, 0.1)),
        ]:
            assert volume(f, cap, rule).value >= cap_volume(cap)

    def test_frozen_surplus_regression(self, cap, rule):
        rep = volume(perturbed_field(cap, BumpProfile(0.5, 3)), cap, rule)
        surplus = rep.value - 2.0 * cap_volume(cap)
        assert surplus == pytest.approx(0.284973369204387, rel=1e-9)

    def test_surplus_grows_with_amplitude(self, cap, rule):
        s = [
            volume(perturbed_field(cap, BumpProfile(a, 3)), cap, rule).value
            for a in (0.5, 1.2)
        ]
        assert s[1] > s[0] > 2.0 * cap_volume(cap)


def sigma2_energy_gap(field, cap, rule):
    """E(v) minus its determinant-based lower bound 1.5 vol(K) + integral of sigma2.

    Nonnegative because |h|^2 >= 2 det h pointwise; zero exactly when h is
    antisymmetric and the field-direction derivative vanishes (Hopf fields).
    """
    jets = jet_batch(field, rule.nodes)
    s2, _ = integrate(rule, lambda _n: jets.sigma2)
    return energy_from_jets(jets, cap, rule).value - (1.5 * cap_volume(cap) + s2)


class TestEnergyLowerBoundGap:
    def test_hopf_gap_vanishes(self, cap, rule):
        assert abs(sigma2_energy_gap(hopf_field(), cap, rule)) < 1e-10

    def test_gap_nonnegative_for_builtins(self, cap, rule):
        fields = [
            hopf_field(),
            perturbed_field(cap, BumpProfile(0.5, 3)),
            perturbed_field(cap, BumpProfile(1.2, 2), twist="angular"),
            small_cap_field(CapDomain(cap.center, 0.1)),
        ]
        for f in fields:
            assert sigma2_energy_gap(f, cap, rule) >= -1e-8

    def test_twisted_gap_strictly_positive(self, cap, rule):
        f = perturbed_field(cap, BumpProfile(1.2, 2), twist="angular")
        assert sigma2_energy_gap(f, cap, rule) > 1e-3


def _left_translate(field: UnitField, q) -> UnitField:
    """Push a field forward through the isometry x -> q x of the 3-sphere."""
    mat = left_mult_matrix(np.asarray(q, dtype=float))
    inv = mat.T  # orthogonal: left multiplication by the conjugate

    def evaluate(x):
        return du.apply_linear(mat, field(du.apply_linear(inv, x)))

    return UnitField("translated-" + field.label, evaluate)


class TestIsometryInvariance:
    @pytest.mark.parametrize("amplitude,exponent", [(0.5, 3), (1.2, 2)])
    def test_energy_and_volume_invariant(self, cap, rule, amplitude, exponent):
        q = np.array([0.4, -0.6, 0.5, 0.48989794855663559])
        q /= np.linalg.norm(q)
        f = perturbed_field(cap, BumpProfile(amplitude, exponent))
        moved_cap = CapDomain(SpherePoint(quat_mul(q, cap.center.x)), cap.radius)
        moved_rule = build_gauss_rule(moved_cap, 64, 32, 64)
        g = _left_translate(f, q)
        e0, e1 = energy(f, cap, rule), energy(g, moved_cap, moved_rule)
        v0, v1 = volume(f, cap, rule), volume(g, moved_cap, moved_rule)
        assert e1.value == pytest.approx(e0.value, rel=1e-9)
        assert v1.value == pytest.approx(v0.value, rel=1e-9)

    def test_conjugated_hopf_axis(self, cap, rule):
        # Pushing a Hopf field through left translation by q yields the
        # Hopf field of the conjugated axis at translated points.
        q = np.array([0.5, 0.5, -0.5, 0.5])
        h = hopf_field()
        g = _left_translate(h, q)
        pts = np.random.default_rng(40).standard_normal((100, 4))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        # q (i (conj(q) x)) = (q i conj(q)) x by associativity.
        axis2 = quat_mul(q, quat_mul(np.array([0.0, 1, 0, 0]), quat_conj(q)))
        assert np.max(np.abs(g(pts) - hopf_field(axis2)(pts))) < 1e-12
