import numpy as np
import pytest

from hopfcap import (
    BumpProfile,
    CapDomain,
    SpherePoint,
    TangentVector,
    UnitField,
    covariant_derivative,
    hopf_field,
    jet_batch,
    perturbed_field,
    small_cap_field,
)
from hopfcap.calculus import adapted_frame_batch, directional_derivative
from hopfcap.geometry import QUAT_I, left_mult_matrix, random_sphere_points


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
        # Smooth fields: central differences at h = 1e-5 agree to 1e-8.
        pts = random_sphere_points(200, 3)
        y = random_tangents(pts, 20)
        for f in [hopf_field(), perturbed_field(cap, BumpProfile(0.5, 3))]:
            d_ad = directional_derivative(f, pts, y, mode="ad")
            d_fd = directional_derivative(f, pts, y, mode="fd")
            assert np.max(np.abs(d_ad - d_fd)) < 1e-8

    def test_fallback_warns_for_ad_incompatible_field(self):
        # A field that drops the dual part is rejected in AD mode, not
        # silently differentiated by finite differences.
        h = hopf_field()

        def value_only(x):
            import hopfcap.dual as du

            return h(du.value(x))

        f = UnitField("opaque", value_only)
        pts = random_sphere_points(10, 4)
        y = random_tangents(pts, 21)
        with pytest.raises(TypeError, match='mode="fd"'):
            directional_derivative(f, pts, y, mode="ad")
        d = directional_derivative(f, pts, y, mode="fd")
        assert np.max(np.abs(d - directional_derivative(h, pts, y, mode="fd"))) < 1e-12

    def test_unknown_mode(self):
        x = np.array([1.0, 0, 0, 0])
        with pytest.raises(ValueError):
            directional_derivative(hopf_field(), x, np.array([0.0, 1, 0, 0]), mode="symbolic")

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
        p = SpherePoint(np.array([1.0, 0, 0, 0]))
        y = TangentVector(p, np.array([0.0, 0, 1.0, 0]))
        out = covariant_derivative(hopf_field(), p, y)
        assert np.allclose(out.w, [0, 0, 0, 1], atol=1e-14)  # ij = k

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

    def test_rejects_non_tangent(self):
        p = SpherePoint(np.array([1.0, 0, 0, 0]))
        q = SpherePoint(np.array([0.0, 1.0, 0, 0]))
        y = TangentVector(q, np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            covariant_derivative(hopf_field(), p, y)

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


class TestAdaptedFrame:
    def test_orthonormal_gram(self):
        pts = random_sphere_points(500, 11)
        v = hopf_field()(pts)
        e1, e2 = adapted_frame_batch(pts, v)
        basis = np.stack([e1, e2, v], axis=-2)
        gram = np.einsum("nai,nbi->nab", basis, basis)
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert np.max(np.abs(np.einsum("nai,ni->na", basis, pts))) < 1e-12

    def test_orientation_positive(self):
        pts = random_sphere_points(500, 12)
        v = hopf_field()(pts)
        e1, e2 = adapted_frame_batch(pts, v)
        dets = np.linalg.det(np.stack([pts, e1, e2, v], axis=-2))
        assert np.max(np.abs(dets - 1.0)) < 1e-10

    def test_continuity_along_short_path(self):
        # Step-to-step frame jump stays small while the seed choice is stable.
        h = hopf_field()
        p = np.array([1.0, 0, 0, 0])
        w = np.array([0.0, 0, 1.0, 0])
        s = np.linspace(0, 0.2, 401)[:, None]
        path = np.cos(s) * p + np.sin(s) * w
        e1, e2 = adapted_frame_batch(path, h(path))
        assert np.max(np.linalg.norm(np.diff(e1, axis=0), axis=-1)) < 1e-3
        assert np.max(np.linalg.norm(np.diff(e2, axis=0), axis=-1)) < 1e-3


def frame_based_invariants(field, pts):
    """The four invariants by the adapted-frame route, as an oracle for jet_batch.

    Derivatives along the frame {e1, e2, v}, projected to the tangent space;
    the 2x2 block h on v-perp, the acceleration grad_v v and the sum of the
    squared wedge norms of the derivative pairs.
    """
    v = np.asarray(field(pts))
    e1, e2 = adapted_frame_batch(pts, v)
    frame = np.stack([e1, e2, v])  # (3, N, 4)
    d = directional_derivative(field, np.broadcast_to(pts, frame.shape), frame)
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
        # A Hopf field is Killing: grad v is skew, and sigma2 = 1.
        jets = jet_batch(hopf_field(), random_sphere_points(500, 14))
        sym = jets.grad + np.swapaxes(jets.grad, -1, -2)
        assert np.max(np.linalg.norm(sym, axis=(-2, -1))) < 1e-12
        assert np.max(np.abs(jets.sigma2 - 1.0)) < 1e-12

    def test_matches_frame_based_invariants(self, builtin_fields):
        pts = random_sphere_points(2000, 22)
        for f in builtin_fields:
            jets = jet_batch(f, pts)
            for attr, want in frame_based_invariants(f, pts).items():
                got = getattr(jets, attr)
                assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-10

    def test_kernel_builds_no_frame(self, cap, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("jet_batch built an adapted frame")

        monkeypatch.setattr("hopfcap.calculus.adapted_frame_batch", refuse)
        monkeypatch.setattr("hopfcap.calculus._cross4", refuse)
        monkeypatch.setattr(np.linalg, "det", refuse)
        jets = jet_batch(perturbed_field(cap, BumpProfile(0.5, 3)), random_sphere_points(50, 23))
        assert jets.grad.shape == (50, 3, 3)

    def test_zero_amplitude_matches_hopf(self, cap):
        pts = random_sphere_points(300, 15)
        j0 = jet_batch(perturbed_field(cap, BumpProfile(0.0, 3)), pts)
        jh = jet_batch(hopf_field(), pts)
        assert np.allclose(j0.sigma1, jh.sigma1, atol=1e-13)
        assert np.allclose(j0.sigma2, jh.sigma2, atol=1e-13)
        assert np.allclose(j0.energy_density, jh.energy_density, atol=1e-13)
        assert np.allclose(j0.volume_integrand, jh.volume_integrand, atol=1e-13)

    def test_frame_rotation_invariance(self, builtin_fields):
        pts = random_sphere_points(1000, 16)
        rng = np.random.default_rng(17)
        theta = rng.uniform(0, 2 * np.pi, len(pts))
        for f in builtin_fields:
            base = jet_batch(f, pts)
            rot = jet_batch(f, pts, frame_rotation=theta)
            for attr in ("sigma1", "sigma2", "energy_density", "volume_integrand"):
                assert np.max(np.abs(getattr(base, attr) - getattr(rot, attr))) < 1e-10

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
