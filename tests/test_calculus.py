import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hopfcap import (
    BumpProfile,
    CapDomain,
    DisplacementMap,
    SpherePoint,
    UnitField,
    hopf_field,
    jacobian_det_numeric,
    jet_batch,
    perturbed_field,
    small_cap_field,
)
from hopfcap import dual as du
from hopfcap.calculus import UNIT_TOL, _ad_jet, _value_and_derivative, directional_derivative, jet_sums
from hopfcap.geometry import QUAT_I, QUAT_J, QUAT_K, left_mult_matrix, quat_mul, random_sphere_points
from hopfcap.quadrature import build_gauss_rule


SRC = Path(__file__).resolve().parents[1] / "src"
INVARIANTS = ("sigma1", "sigma2", "energy_density", "volume_integrand")


def random_tangents(pts, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(pts.shape)
    y -= np.sum(y * pts, axis=-1, keepdims=True) * pts
    return y


@pytest.fixture(scope="module")
def cap():
    return CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 1.0)


@pytest.fixture(scope="module")
def builtin_fields(cap):
    return [
        hopf_field(),
        perturbed_field(cap, BumpProfile(0.5, 3)),
        perturbed_field(cap, BumpProfile(1.2, 2), twist="angular"),
        small_cap_field(CapDomain(cap.center, 0.15)),
    ]


class TestAmbientJacobian:
    """The ambient Jacobian Dv, applied to directions by directional_derivative."""

    def test_hopf_is_left_multiplication(self):
        # Oracle: the hand-written product matrix, applied to tangent
        # directions (radial ones differ by homogeneity).
        h = hopf_field()
        pts = random_sphere_points(100, 1)
        y = random_tangents(pts, 2)
        lhs = directional_derivative(h, pts, y)
        rhs = y @ left_mult_matrix(QUAT_I).T
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_ad_vs_fd(self, cap):
        # Smooth fields: central differences of plain evaluations at
        # h = 1e-5 agree with the AD derivative to 1e-8.
        pts = random_sphere_points(200, 3)
        y = random_tangents(pts, 20)
        h = 1e-5
        for f in [hopf_field(), perturbed_field(cap, BumpProfile(0.5, 3))]:
            d_ad = directional_derivative(f, pts, y)
            d_fd = (f(pts + h * y) - f(pts - h * y)) / (2.0 * h)
            assert np.max(np.abs(d_ad - d_fd)) < 1e-8

    def test_fallback_warns_for_ad_incompatible_field(self):
        # A field that drops the dual part is rejected in both modes and on
        # plain points: AD and FD evaluate the same dual operations, and
        # neither falls back to a plain evaluation.
        h = hopf_field()
        f = UnitField("opaque", lambda x: h.evaluator(x).val, {}, None)
        pts = random_sphere_points(10, 4)
        for mode in ("ad", "fd"):
            with pytest.raises(TypeError, match="'opaque' does not return dual numbers"):
                jet_batch(f, pts, mode=mode)
        with pytest.raises(TypeError, match="'opaque' does not return dual numbers"):
            f(pts)

    @pytest.mark.parametrize("mode", ["ad", "fd"])
    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 2.0, math.nan], ids=["drift", "double", "nan"])
    def test_point_off_the_sphere_rejected_by_name(self, monkeypatch, mode, scale):
        # The evaluators read unit points, so the jet takes no other: the
        # first point off S^3 by more than UNIT_TOL is named, here in the
        # second block of 7.
        monkeypatch.setattr("hopfcap.calculus.JET_BLOCK", 7)
        pts = random_sphere_points(20, 38)
        assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) <= UNIT_TOL
        jet_batch(hopf_field(), pts, mode=mode)
        pts[[9, 15]] *= scale
        with pytest.raises(ValueError, match=r"^point 9, \[.*\], is off the unit sphere: norm "):
            jet_batch(hopf_field(), pts, mode=mode)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown differentiation mode 'symbolic'"):
            jet_batch(hopf_field(), np.array([[1.0, 0, 0, 0]]), mode="symbolic")

    def test_small_cap_radial_column_at_center(self):
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 0.1)
        f = small_cap_field(cap)
        # Radial (geodesic) derivatives vanish at the center in every
        # tangent direction.
        y = random_tangents(cap.center.x[None, :], 5)
        d = directional_derivative(f, cap.center.x[None, :], y)
        proj = d - np.sum(d * cap.center.x, axis=-1, keepdims=True) * cap.center.x
        assert np.max(np.abs(proj)) < 1e-12


class TestCovariantDerivative:
    def test_hopf_along_j_at_one(self):
        p = np.array([1.0, 0, 0, 0])
        d = directional_derivative(hopf_field(), p, np.array([0.0, 0, 1.0, 0]))
        out = d - np.dot(d, p) * p
        assert np.allclose(out, [0, 0, 0, 1], atol=1e-14)  # ij = k

    def test_hopf_self_derivative_vanishes(self):
        # Hopf fibers are geodesics: grad_v v = 0.
        h = hopf_field()
        pts = random_sphere_points(1000, 6)
        d = directional_derivative(h, pts, h(pts))
        nab = d - np.sum(d * pts, axis=-1, keepdims=True) * pts
        assert np.max(np.linalg.norm(nab, axis=-1)) < 1e-9

    def test_orthogonal_to_field(self, builtin_fields):
        pts = random_sphere_points(500, 7)
        for f in builtin_fields:
            v = f(pts)
            y = random_tangents(pts, 8)
            d = directional_derivative(f, pts, y)
            nab = d - np.sum(d * pts, axis=-1, keepdims=True) * pts
            assert np.max(np.abs(np.sum(nab * v, axis=-1))) < 1e-9

    def test_gauss_equation_consistency(self, builtin_fields):
        # d v(Y) = grad_Y v - <v, Y> x, both sides computed independently.
        pts = random_sphere_points(1000, 9)
        y = random_tangents(pts, 10)
        for f in builtin_fields:
            v = f(pts)
            d = directional_derivative(f, pts, y)
            nab = d - np.sum(d * pts, axis=-1, keepdims=True) * pts
            gauss = nab - np.sum(v * y, axis=-1, keepdims=True) * pts
            assert np.max(np.linalg.norm(gauss - d, axis=-1)) < 1e-9


def gram_schmidt_frame(pts, v):
    """Orthonormal (e1, e2) completing {e1, e2, v} in the tangent space at pts.

    Gram-Schmidt against v on the two of (i x, j x, k x) least aligned with
    v.  The third is the most aligned, so its coefficient in v is at least
    1/sqrt(3) and neither step degenerates.  No orientation is fixed: the
    sign of e2 changes no invariant.
    """
    cands = np.stack([pts @ left_mult_matrix(q).T for q in (QUAT_I, QUAT_J, QUAT_K)], axis=1)
    order = np.argsort(np.abs(np.einsum("nci,ni->nc", cands, v)), axis=1)
    frame = [v]
    for k in range(2):
        e = np.take_along_axis(cands, order[:, k, None, None], axis=1)[:, 0]
        for f in frame:
            e = e - np.sum(e * f, axis=-1, keepdims=True) * f
        frame.append(e / np.linalg.norm(e, axis=-1, keepdims=True))
    return frame[1], frame[2]


def frame_based_invariants(field, pts):
    """The four invariants by an adapted-frame route, as an oracle for jet_batch.

    Derivatives along the frame {e1, e2, v}, projected to the tangent space;
    the 2x2 block h on v-perp, the acceleration grad_v v and the sum of the
    squared wedge norms of the derivative pairs.
    """
    v = np.asarray(field(pts))
    e1, e2 = gram_schmidt_frame(pts, v)
    frame = np.stack([e1, e2, v])  # (3, N, 4)
    d = directional_derivative(field, pts, frame)
    nabla = d - np.sum(d * pts, axis=-1, keepdims=True) * pts
    h = np.einsum("ani,bni->nab", nabla[:2], frame[:2])
    accel = np.einsum("ni,bni->nb", nabla[2], frame[:2])
    sq = np.sum(nabla * nabla, axis=-1)  # (3, N)
    pair_sum = sum(
        sq[a] * sq[b] - np.sum(nabla[a] * nabla[b], axis=-1) ** 2
        for a, b in ((0, 1), (0, 2), (1, 2))
    )
    return {
        "sigma1": h[:, 0, 0] + h[:, 1, 1],
        "sigma2": h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0],
        "energy_density": np.sum(h * h, axis=(1, 2)) + np.sum(accel * accel, axis=-1),
        "volume_integrand": np.sqrt(1.0 + np.sum(sq, axis=0) + pair_sum),
    }


class TestFieldJet:
    def test_hopf_jet(self):
        jets = jet_batch(hopf_field(), np.array([[0.5, 0.5, 0.5, 0.5]]))
        assert jets.sigma1[0] == pytest.approx(0.0, abs=1e-12)
        assert jets.sigma2[0] == pytest.approx(1.0, abs=1e-12)
        assert jets.energy_density[0] == pytest.approx(2.0, abs=1e-12)
        assert jets.volume_integrand[0] == pytest.approx(2.0, abs=1e-12)

    def test_hopf_h_matrix_antisymmetric(self):
        # A Hopf field is Killing: B[a, b] = <grad_{e_a} v, e_b> in the basis
        # e = (i x, j x, k x) is skew, and sigma2 = 1.
        h = hopf_field()
        pts = random_sphere_points(500, 14)
        basis = np.stack([pts @ left_mult_matrix(q).T for q in (QUAT_I, QUAT_J, QUAT_K)])
        grad = np.einsum("ani,bni->nab", directional_derivative(h, pts, basis), basis)
        sym = grad + np.swapaxes(grad, -1, -2)
        assert np.max(np.linalg.norm(sym, axis=(-2, -1))) < 1e-12
        assert np.max(np.abs(jet_batch(h, pts).sigma2 - 1.0)) < 1e-12

    def test_matches_frame_based_invariants(self, builtin_fields):
        pts = random_sphere_points(2000, 22)
        for f in builtin_fields:
            jets = jet_batch(f, pts)
            for attr, want in frame_based_invariants(f, pts).items():
                got = getattr(jets, attr)
                assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-10

    def test_kernel_builds_no_frame(self, cap, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("jet_batch took a determinant")

        monkeypatch.setattr(np.linalg, "det", refuse)
        jets = jet_batch(perturbed_field(cap, BumpProfile(0.5, 3)), random_sphere_points(50, 23))
        for attr in INVARIANTS:
            assert getattr(jets, attr).shape == (50,)

    def test_zero_amplitude_matches_hopf(self, cap):
        pts = random_sphere_points(300, 15)
        j0 = jet_batch(perturbed_field(cap, BumpProfile(0.0, 3)), pts)
        jh = jet_batch(hopf_field(), pts)
        assert np.allclose(j0.sigma1, jh.sigma1, atol=1e-13)
        assert np.allclose(j0.sigma2, jh.sigma2, atol=1e-13)
        assert np.allclose(j0.energy_density, jh.energy_density, atol=1e-13)
        assert np.allclose(j0.volume_integrand, jh.volume_integrand, atol=1e-13)

    @pytest.mark.parametrize("mode", ["ad", "fd"])
    def test_frame_rotation_invariance(self, builtin_fields, mode):
        # Both routes form B in the fixed basis and the block turns it, so
        # the rotated invariants differ from the fixed ones by the rounding
        # of R B R^T alone (at most 1.8e-15 relative seen), FD's included.
        pts = random_sphere_points(1000, 16)
        rng = np.random.default_rng(17)
        theta = rng.uniform(0, 2 * np.pi, len(pts))
        for f in builtin_fields:
            base = jet_batch(f, pts, mode=mode)
            rot = jet_batch(f, pts, mode=mode, frame_rotation=theta)
            for attr in INVARIANTS:
                want = getattr(base, attr)
                dev = np.abs(getattr(rot, attr) - want) / np.maximum(1.0, np.abs(want))
                assert np.max(dev) <= 1e-13, (f.label, attr)

    @pytest.mark.parametrize("shape", [(1,), (15,), (10, 1), ()], ids=["one", "longer", "column", "scalar"])
    def test_frame_rotation_needs_one_angle_per_point(self, cap, shape):
        # Angles of any shape but (N,) are refused before the first block,
        # not broadcast over the points or failed on inside numpy.
        f = perturbed_field(cap, BumpProfile(0.5, 3))
        with pytest.raises(ValueError, match=r"frame_rotation has shape .*, not \(10,\)"):
            jet_batch(f, random_sphere_points(10, 36), frame_rotation=np.full(shape, 0.3))

    def test_pointwise_inequalities(self, builtin_fields):
        pts = random_sphere_points(10_000, 18)
        for f in builtin_fields:
            jets = jet_batch(f, pts)
            s2 = jets.sigma2
            # radical >= 1 + sigma2 only on the sigma2 >= -1 branch
            ok = s2 >= -1.0
            assert np.min(jets.volume_integrand[ok] - (1.0 + s2[ok])) > -1e-10
            assert np.min(jets.energy_density - 2.0 * s2) > -1e-10

    def test_fd_mode_close_to_ad(self, cap):
        pts = random_sphere_points(200, 19)
        f = perturbed_field(cap, BumpProfile(0.5, 3))
        j_ad = jet_batch(f, pts, mode="ad")
        j_fd = jet_batch(f, pts, mode="fd")
        assert np.max(np.abs(j_ad.sigma2 - j_fd.sigma2)) < 1e-6


def recording(field):
    """The field, and the (val, eps) shapes of every Dual it is handed."""
    shapes = []

    def evaluate(x):
        if isinstance(x, du.Dual):
            shapes.append((x.val.shape, x.eps.shape))
        return field.evaluator(x)

    return UnitField("recording", evaluate, field.params, field.hopf_boundary), shapes


def test_value_and_derivative_has_the_plain_value(builtin_fields):
    # The numeric determinant's normal reads the value of the dual
    # evaluation: the bits of a plain evaluation, and of no extra call.
    pts = random_sphere_points(50, 28)
    frame = np.stack([quat_mul(pts, q) for q in (QUAT_I, QUAT_J, QUAT_K)])
    for f in builtin_fields:
        value, _ = _value_and_derivative(f, pts, frame)
        assert np.array_equal(value, f(pts)), f.label


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["no_axis", "one_axis", "two_axes"])
@pytest.mark.parametrize("shape", [(50, 4), (5, 10, 4)], ids=["flat", "grid"])
def test_directional_derivative_shapes(builtin_fields, lead, shape):
    # Directions dirs + points.shape enter the Dual on one axis and come
    # back in the caller's shape; each has the bits of a call that carries
    # it alone, on one direction axis of length 1.
    pts = random_sphere_points(50, 34).reshape(shape)
    y = np.random.default_rng(35).standard_normal(lead + shape)
    for f in builtin_fields:
        out = directional_derivative(f, pts, y)
        assert out.shape == lead + shape, f.label
        for i in np.ndindex(lead):
            alone = directional_derivative(f, pts, y[i][None])
            assert out[i].tobytes() == alone[0].tobytes(), (f.label, i)


@pytest.mark.parametrize(
    "differentiate",
    [
        lambda f, pts: jet_batch(f, pts),
        lambda f, pts: jacobian_det_numeric(DisplacementMap(f, 0.2), pts),
    ],
    ids=["jet_batch", "jacobian_det_numeric"],
)
def test_one_dual_evaluation_carries_three_directions(cap, differentiate):
    # The value is seeded once, as (4, N); the three directions ride on eps.
    # The numeric determinant's normal reads the value of that evaluation,
    # so each route evaluates the field exactly once.
    field = perturbed_field(cap, BumpProfile(0.5, 3))
    f, shapes = recording(field)
    pts = random_sphere_points(50, 24)
    differentiate(f, pts)
    assert shapes == [((4, 50), (3, 4, 50))]
    # The recording field is the field, on plain points too.
    assert np.array_equal(f(pts), field(pts))


@pytest.mark.parametrize("mode", ["ad", "fd"])
@pytest.mark.parametrize("rotate", [False, True], ids=["plain", "rotated"])
def test_block_boundaries_are_invisible(builtin_fields, cap, monkeypatch, mode, rotate):
    # 50 points in blocks of 7: every node's invariants are bit-identical to
    # the one-block result, and rotation angles travel with their block.
    # 50 = 7 * 7 + 1 leaves a one-node block, and axes off the quaternion
    # units make the frame no signed permutation.
    fields = builtin_fields + [
        hopf_field((0.0, 0.6, 0.8, 0.0)),
        perturbed_field(cap, BumpProfile(0.5, 3), axis=(0.0, 0.48, 0.6, 0.64)),
    ]
    pts = random_sphere_points(50, 25)
    theta = np.random.default_rng(26).uniform(0.0, 2 * np.pi, len(pts)) if rotate else None
    whole = [jet_batch(f, pts, mode=mode, frame_rotation=theta) for f in fields]
    monkeypatch.setattr("hopfcap.calculus.JET_BLOCK", 7)
    for f, one in zip(fields, whole):
        blocked = jet_batch(f, pts, mode=mode, frame_rotation=theta)
        for attr in INVARIANTS:
            assert np.array_equal(getattr(blocked, attr), getattr(one, attr)), (f.label, attr)


def test_field_sees_one_block_at_a_time(cap, monkeypatch):
    # The working set is bounded: 50 nodes in blocks of 7 are seven duals
    # of 7 nodes and one of 1, never one of 50.
    monkeypatch.setattr("hopfcap.calculus.JET_BLOCK", 7)
    f, shapes = recording(perturbed_field(cap, BumpProfile(0.5, 3)))
    jet_batch(f, random_sphere_points(50, 27))
    assert shapes == [((4, 7), (3, 4, 7))] * 7 + [((4, 1), (3, 4, 1))]


def jet_fields(cap):
    """The default and an off-basis axis, the angular twist, the Hopf and the small-cap field."""
    return [
        perturbed_field(cap, BumpProfile(0.5, 3)),
        perturbed_field(cap, BumpProfile(0.5, 3), axis=(0.0, 0.48, 0.6, 0.64)),
        perturbed_field(cap, BumpProfile(1.2, 2), twist="angular"),
        hopf_field(),
        small_cap_field(CapDomain(cap.center, 0.3)),
    ]


def test_every_dual_has_one_shape(cap, monkeypatch):
    # The shape contract of ``dual``: every Dual formed on the package's
    # routes has a (k, n) value and a (d, k, n) derivative, one axis of
    # directions, whatever shape of points or directions the caller hands in.
    formed = []
    init = du.Dual.__init__

    def recorded(self, val, eps):
        init(self, val, eps)
        formed.append((self.val.ndim, self.eps.ndim))

    monkeypatch.setattr(du.Dual, "__init__", recorded)
    rule = build_gauss_rule(cap, 16, 8, 16)
    pts = random_sphere_points(40, 31)
    theta = np.random.default_rng(32).uniform(0.0, 2 * np.pi, len(pts))
    rng = np.random.default_rng(33)
    for f in jet_fields(cap):
        jet_sums(f, rule, (0.1, 0.2), 7)
        for mode in ("ad", "fd"):
            # A rotation turns B after the route, so it forms no Dual.
            counts = []
            for rotation in (None, theta):
                before = len(formed)
                jet_batch(f, pts, mode=mode, frame_rotation=rotation)
                counts.append(len(formed) - before)
            assert counts[0] == counts[1], (f.label, mode)
        for lead in ((), (3,), (2, 3)):
            directional_derivative(f, pts, rng.standard_normal(lead + pts.shape))
        jacobian_det_numeric(DisplacementMap(f, 0.2), pts)
        f(pts)
    assert set(formed) == {(2, 3)}


def jet_point_sets(cap):
    """Random points and Gauss nodes, whose coordinates include exact +-0."""
    return [random_sphere_points(2000, 29), build_gauss_rule(cap, 16, 8, 16).nodes]


def projected_jet_matrix(field, pts, theta):
    """B[a, b] = <Dv[e_a], e_b> (N, 3, 3) by the ambient route.

    AD of the field's value v through ``directional_derivative`` along the
    basis e = (i x, j x, k x), its first two turned by the angles ``theta``
    (or not, for None), projected on e: the jet's route before it read B
    off the frame components.
    """
    basis = np.stack([quat_mul(q, pts) for q in (QUAT_I, QUAT_J, QUAT_K)])
    if theta is not None:
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        basis[0], basis[1] = cos * basis[0] + sin * basis[1], -sin * basis[0] + cos * basis[1]
    return np.einsum("ani,bni->nab", directional_derivative(field, pts, basis), basis)


def matrix_invariants(b):
    """sigma1, sigma2, energy density and volume integrand of (N, 3, 3) matrices.

    Row a of the cofactor matrix is the cross product of rows a+1 and a+2.
    """
    cof = np.cross(np.roll(b, -1, axis=1), np.roll(b, -2, axis=1))
    energy = np.sum(b * b, axis=(1, 2))
    return {
        "sigma1": np.trace(b, axis1=1, axis2=2),
        "sigma2": np.trace(cof, axis1=1, axis2=2),
        "energy_density": energy,
        "volume_integrand": np.sqrt(1.0 + energy + np.sum(cof * cof, axis=(1, 2))),
    }


@pytest.mark.parametrize("rotate", [False, True], ids=["plain", "rotated"])
def test_frame_jet_matches_the_projected_ambient_jet(cap, rotate):
    # The jet reads B = du + [u]x off the frame components u; the oracle
    # projects the AD derivative of v = u x^ on the basis, so the two share
    # the field's evaluation and no algebra after it.  Per node:
    # * the invariants agree to 1e-13 max(1, |value|), with or without
    #   turned frames (the oracle projects on the turned basis, the jet
    #   turns B);
    # * B u = 0 in the fixed basis (B has rank <= 2 and u is v's direction
    #   in the basis) to 1e-13 max(1, |B|).
    # Two singular spots need the scale of B.  The angular twist at Gauss
    # nodes 3.3e-4 from its axis has |B| = 2.8e3 and sigma2 = 2.6e3, the
    # difference of products near 8e6, so its invariants are held to
    # 1e-13 max(1, |value|, |B|^2) (sigma2 agrees to 2.7e-13 relative
    # there).  The small-cap field near its center's antipode has
    # |B| = 17.5 and B u = 3.5e-13, as the projected route's B v^ does.
    rng = np.random.default_rng(30)
    for pts in jet_point_sets(cap):
        theta = rng.uniform(0.0, 2 * np.pi, len(pts)) if rotate else None
        x = np.ascontiguousarray(pts.T)
        for f in jet_fields(cap):
            u, b = _ad_jet(f, x)
            size = np.sqrt(np.sum(b * b, axis=(0, 1)))
            singular = f.params.get("twist") == "angular"
            jets = jet_batch(f, pts, frame_rotation=theta)
            for attr, want in matrix_invariants(projected_jet_matrix(f, pts, theta)).items():
                scale = np.maximum(1.0, np.abs(want))
                if singular:
                    scale = np.maximum(scale, size**2)
                assert np.max(np.abs(getattr(jets, attr) - want) / scale) <= 1e-13, (f.label, attr)
            residual = np.abs(np.einsum("abn,bn->an", b, u.val))
            assert np.max(residual / np.maximum(1.0, size)) <= 1e-13, f.label


def _assert_jet_bits_survive(cap, use_dense_forms):
    """Every invariant bit of five jets is the same before and after
    ``use_dense_forms()`` swaps dense forms in for the lean ones.

    The fields are ``jet_fields`` and the points ``jet_point_sets``: the
    Gauss nodes' exact +-0 coordinates give lean and dense sums zeros of
    other signs.
    """
    fields = jet_fields(cap)
    point_sets = jet_point_sets(cap)
    lean = [jet_batch(f, pts) for pts in point_sets for f in fields]
    use_dense_forms()
    dense = [jet_batch(f, pts) for pts in point_sets for f in fields]
    for f, one, other in zip(fields * len(point_sets), lean, dense):
        for attr in INVARIANTS:
            assert getattr(other, attr).tobytes() == getattr(one, attr).tobytes(), (f.label, attr)


def test_jet_bits_match_the_dense_linear_kernel(cap, monkeypatch, dense_linear):
    _assert_jet_bits_survive(cap, lambda: monkeypatch.setattr(du, "_linear", dense_linear))


def test_jet_bits_match_the_dense_dual_forms(cap, monkeypatch, dense_forms):
    # The specialised self product in normalize, Dual / Dual and sincos
    # change no bit of any invariant.
    def use_dense_forms():
        monkeypatch.setattr(du, "normalize", lambda x: x / du.sqrt(dense_forms.vdot(x, x)))
        monkeypatch.setattr(du.Dual, "__truediv__", dense_forms.truediv)
        monkeypatch.setattr(du, "sincos", dense_forms.sincos)

    _assert_jet_bits_survive(cap, use_dense_forms)


def test_jet_bits_match_the_out_of_place_dual_forms(cap, monkeypatch):
    # The fields' in-place products, sums and differences change no bit of
    # any invariant.  o * s is the out-of-place c * v, factor first.
    def use_out_of_place():
        monkeypatch.setattr(du.Dual, "__imul__", lambda s, o: o * s)
        monkeypatch.setattr(du.Dual, "__iadd__", lambda s, o: s + o)
        monkeypatch.setattr(du.Dual, "__isub__", lambda s, o: s - o)

    _assert_jet_bits_survive(cap, use_out_of_place)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_jet_products_stay_on_the_calling_thread():
    # With two BLAS threads allowed, a jet over 40 blocks must not wake
    # the second one: the jet makes no BLAS call, so no worker thread runs.
    # The idle pool is stopped first, as the CLI stops it, so a threaded
    # call inside the jet would start a new worker whose spin shows here.
    # CPU of the other threads is the process's CPU time minus this thread's.
    child = (
        "import time\n"
        "import numpy as np\n"
        "from hopfcap import BumpProfile, CapDomain, SpherePoint, jet_batch, perturbed_field\n"
        "from hopfcap.calculus import JET_BLOCK\n"
        "from hopfcap.cli import _stop_idle_blas_pool\n"
        "from hopfcap.geometry import random_sphere_points\n"
        "cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 1.0)\n"
        "f = perturbed_field(cap, BumpProfile(0.5, 3), axis=(0.0, 0.48, 0.6, 0.64))\n"
        "pts = random_sphere_points(40 * JET_BLOCK, 28)\n"
        "_stop_idle_blas_pool()\n"
        "process0, own0 = time.process_time(), time.thread_time()\n"
        "jet_batch(f, pts)\n"
        "own = time.thread_time() - own0\n"
        "print(own, time.process_time() - process0 - own)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    own, other = map(float, proc.stdout.split())
    assert other <= 0.1 * own, (own, other)
