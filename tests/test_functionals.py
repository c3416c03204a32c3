import math

import numpy as np
import pytest

from hopfcap import (
    BumpProfile,
    CapDomain,
    DisplacementMap,
    SpherePoint,
    UnitField,
    build_gauss_rule,
    cap_volume,
    energy,
    energy_and_volume,
    hopf_field,
    image_volume,
    jet_sums,
    perturbed_field,
    small_cap_field,
    sweep_family,
    volume,
)
from hopfcap import dual as du
from hopfcap.geometry import QUAT_I, QUAT_J, QUAT_K, QUAT_ONE, left_mult_matrix, quat_mul


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
        assert rep.derivative_term == pytest.approx(2.0 * cap_volume(cap), rel=1e-12)

    def test_hopf_on_full_sphere(self):
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), math.pi)
        rule = build_gauss_rule(cap, 32, 16, 32)
        assert energy(hopf_field(), cap, rule).value == pytest.approx(5 * math.pi**2, rel=1e-10)

    def test_decomposition_invariant(self, cap, rule):
        for f in [hopf_field(), perturbed_field(cap, BumpProfile(0.7, 2))]:
            rep = energy(f, cap, rule)
            assert rep.value == 1.5 * cap_volume(cap) + 0.5 * rep.derivative_term

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
    s2, _ = jet_sums(field, rule, (), None).sigma2
    return energy_and_volume(field, rule)[0].value - (1.5 * cap_volume(cap) + s2)


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
    """Push a field forward through the isometry x -> q x of the 3-sphere.

    v'(x) = q v(conj(q) x) = (q u conj(q)) x with u the field's frame
    components at conj(q) x, so u' is u turned by the rotation
    u -> q u conj(q) of the imaginary quaternions, a 3x3 matrix.
    """
    q = np.asarray(q, dtype=float)
    inv = left_mult_matrix(q).T  # orthogonal: left multiplication by the conjugate
    conj = q * [1.0, -1.0, -1.0, -1.0]
    turn = np.stack([quat_mul(quat_mul(q, e), conj)[1:] for e in (QUAT_I, QUAT_J, QUAT_K)], axis=1)

    def evaluate(x):
        return du.apply_linear(turn, field.evaluator(du.apply_linear(inv, x)))

    return UnitField("translated-" + field.label, evaluate, {}, None)


def _arccos_values(monkeypatch):
    """A list that collects the number of values each ``du.arccos`` call sees."""
    seen = []
    monkeypatch.setattr(du, "arccos", lambda q, chain=du.arccos: seen.append(q.val.size) or chain(q))
    return seen


def _slab_bound(rule):
    """The most values the bump chain sees over a Gauss rule centred at a
    basis unit: one per rho-slab, plus one per slab a block boundary splits."""
    return rule.orders[0] + len(list(rule.blocks())) - 1


def _seeded_unit(seed):
    g = np.random.default_rng(seed).standard_normal(4)
    return g / np.linalg.norm(g)


def _jet_integrals(field, rule):
    """The four jet sums and the t = 0.2 determinant's integral."""
    s = jet_sums(field, rule, (0.2,), None)
    return [s.sigma1[0], s.sigma2[0], s.energy_density[0], s.volume_integrand[0], s.determinant[0.2][0]]


class TestIsometryInvariance:
    """Integrals keep their values, to rounding, when field and cap move by
    an isometry of the 3-sphere.

    The cap centred at 1 has one value of cos rho per rho-slab, so its side
    runs the bump chain once per slab (``dual.compose``'s run path); a cap
    moved to a generic centre has rounding noise along each slab, so its
    side runs the chain per node, and its dot product with the centre is the
    dense ``_linear`` sum.  The counts of the values ``du.arccos`` sees hold
    each side to its path.
    """

    @pytest.mark.parametrize("amplitude,exponent", [(0.5, 3), (1.2, 2)])
    def test_energy_and_volume_invariant(self, cap, rule, monkeypatch, amplitude, exponent):
        # Left translation x -> q x, through a wrapper field on the moved
        # cap; energy and volume agree to 1e-14 relative (at most 4.6e-16 seen).
        q = np.array([0.4, -0.6, 0.5, 0.48989794855663559])
        q /= np.linalg.norm(q)
        f = perturbed_field(cap, BumpProfile(amplitude, exponent))
        moved_cap = CapDomain(SpherePoint(quat_mul(q, cap.center.x)), cap.radius)
        moved_rule = build_gauss_rule(moved_cap, 64, 32, 64)
        g = _left_translate(f, q)
        seen = _arccos_values(monkeypatch)
        e0 = energy(f, cap, rule)
        assert sum(seen) <= _slab_bound(rule)
        seen.clear()
        e1 = energy(g, moved_cap, moved_rule)
        assert sum(seen) == moved_rule.size
        v0, v1 = volume(f, cap, rule), volume(g, moved_cap, moved_rule)
        assert e1.value == pytest.approx(e0.value, rel=1e-14)
        assert v1.value == pytest.approx(v0.value, rel=1e-14)

    @pytest.mark.parametrize("seed", [51, 52])
    @pytest.mark.parametrize("axis", [QUAT_I, (0.0, 0.48, 0.6, 0.64)], ids=["i", "off_basis"])
    def test_right_translation_is_the_field_on_the_moved_cap(self, monkeypatch, axis, seed):
        # x -> x g keeps the left-invariant frame: the field moved with its
        # cap from centre 1 to g is ``perturbed_field`` on the cap at g, with
        # no wrapper.  sigma1 integrates to rounding-sized values, so it is
        # held to an absolute 1e-16 (at most 2.8e-17 seen); the others agree
        # to 1e-14 relative (at most 3.7e-16 seen).
        g = _seeded_unit(seed)
        bump = BumpProfile(0.8, 3)
        seen = _arccos_values(monkeypatch)
        sides = []
        for center in (QUAT_ONE, g):
            cap = CapDomain(SpherePoint(center), 0.9)
            rule = build_gauss_rule(cap, 48, 24, 48)
            seen.clear()
            sides.append((_jet_integrals(perturbed_field(cap, bump, axis=axis), rule), sum(seen), rule))
        (centred, centred_values, centred_rule), (moved, moved_values, moved_rule) = sides
        assert centred_values <= _slab_bound(centred_rule)
        assert moved_values == moved_rule.size
        for want, got in zip(centred, moved):
            assert got == pytest.approx(want, rel=1e-14, abs=1e-16)

    @pytest.mark.parametrize("seed", [51, 52])
    def test_right_translation_of_the_small_cap_field(self, seed):
        # The small-cap field at r = 0.3, built on the cap at 1 and on the
        # cap at g: its centre and tangent vector u0 = i p move together.
        # Every integral is below 0.12, and they agree to 1e-17 absolute
        # (at most 4.4e-19 seen).
        sides = []
        for center in (QUAT_ONE, _seeded_unit(seed)):
            cap = CapDomain(SpherePoint(center), 0.3)
            sides.append(_jet_integrals(small_cap_field(cap), build_gauss_rule(cap, 48, 24, 48)))
        for want, got in zip(*sides):
            assert got == pytest.approx(want, rel=0.0, abs=1e-17)

    def test_conjugated_hopf_axis(self, cap, rule):
        # Pushing a Hopf field through left translation by q yields the
        # Hopf field of the conjugated axis at translated points.
        q = np.array([0.5, 0.5, -0.5, 0.5])
        h = hopf_field()
        g = _left_translate(h, q)
        pts = np.random.default_rng(40).standard_normal((100, 4))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        # q (i (conj(q) x)) = (q i conj(q)) x by associativity.
        axis2 = quat_mul(q, quat_mul(np.array([0.0, 1, 0, 0]), q * [1, -1, -1, -1]))
        assert np.max(np.abs(g(pts) - hopf_field(axis2)(pts))) < 1e-12


# Each entry point that takes a cap beside its rule, called on (cap, rule).
CAP_ENTRY_POINTS = {
    "energy": lambda cap, rule: energy(hopf_field(), cap, rule),
    "volume": lambda cap, rule: volume(hopf_field(), cap, rule),
    "image_volume": lambda cap, rule: image_volume(DisplacementMap(hopf_field(), 0.1), cap, rule),
    "sweep_family": lambda cap, rule: sweep_family(cap, (0.0, 0.5), rule),
}


class TestCapIsRuleDomain:
    """An integral over the rule is over its domain: any other cap is an error."""

    @pytest.fixture(scope="class")
    def unit_rule(self):
        return build_gauss_rule(CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 1.0), 16, 8, 16)

    @pytest.mark.parametrize("entry", CAP_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "center,radius", [((1.0, 0, 0, 0), 0.5), ((0.0, 1.0, 0, 0), 1.0)], ids=["radius", "center"]
    )
    def test_other_cap_rejected(self, unit_rule, entry, center, radius):
        other = CapDomain(SpherePoint(np.array(center)), radius)
        with pytest.raises(ValueError, match="not the rule's domain"):
            CAP_ENTRY_POINTS[entry](other, unit_rule)

    @pytest.mark.parametrize("entry", CAP_ENTRY_POINTS)
    def test_equal_cap_accepted(self, unit_rule, entry):
        equal = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 1.0)
        assert equal is not unit_rule.domain
        CAP_ENTRY_POINTS[entry](equal, unit_rule)
