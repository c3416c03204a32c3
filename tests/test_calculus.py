import os
import resource
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
    jet_batch,
    perturbed_field,
    small_cap_field,
)
from hopfcap import dual as du
from hopfcap.calculus import adapted_frame_batch, directional_derivative
from hopfcap.displace import frame_matrix
from hopfcap.geometry import QUAT_I, QUAT_J, QUAT_K, left_mult_matrix, random_sphere_points
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

            return h.evaluator(du.value(x))

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
            raise AssertionError("jet_batch built an adapted frame")

        monkeypatch.setattr("hopfcap.calculus.adapted_frame_batch", refuse)
        monkeypatch.setattr("hopfcap.calculus._cross4", refuse)
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

    def test_frame_rotation_invariance(self, builtin_fields):
        pts = random_sphere_points(1000, 16)
        rng = np.random.default_rng(17)
        theta = rng.uniform(0, 2 * np.pi, len(pts))
        for f in builtin_fields:
            base = jet_batch(f, pts)
            rot = jet_batch(f, pts, frame_rotation=theta)
            for attr in INVARIANTS:
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


def recording(field):
    """The field, and the (val, eps) shapes of every Dual it is handed."""
    shapes = []

    def evaluate(x):
        if isinstance(x, du.Dual):
            shapes.append((x.val.shape, x.eps.shape))
        return field(x)

    return UnitField("recording", evaluate), shapes


@pytest.mark.parametrize(
    "differentiate",
    [
        lambda f, pts: jet_batch(f, pts),
        lambda f, pts: frame_matrix(DisplacementMap(f, 0.2), pts),
    ],
    ids=["jet_batch", "frame_matrix"],
)
def test_one_dual_evaluation_carries_three_directions(cap, differentiate):
    # The value is seeded once, as (4, N); the three directions ride on eps.
    f, shapes = recording(perturbed_field(cap, BumpProfile(0.5, 3)))
    differentiate(f, random_sphere_points(50, 24))
    assert shapes == [((4, 50), (3, 4, 50))]


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


def _assert_jet_bits_survive(cap, use_dense_forms):
    """Every invariant bit of five jets is the same before and after
    ``use_dense_forms()`` swaps dense forms in for the lean ones.

    The fields cover the default and an off-basis axis, the angular twist,
    the Hopf and the small-cap field; the points are random and Gauss
    nodes, whose exact +-0 coordinates give lean and dense sums zeros of
    other signs.
    """
    fields = [
        perturbed_field(cap, BumpProfile(0.5, 3)),
        perturbed_field(cap, BumpProfile(0.5, 3), axis=(0.0, 0.48, 0.6, 0.64)),
        perturbed_field(cap, BumpProfile(1.2, 2), twist="angular"),
        hopf_field(),
        small_cap_field(CapDomain(cap.center, 0.3)),
    ]
    point_sets = [random_sphere_points(2000, 29), build_gauss_rule(cap, 16, 8, 16).nodes]
    lean = [jet_batch(f, pts) for pts in point_sets for f in fields]
    use_dense_forms()
    dense = [jet_batch(f, pts) for pts in point_sets for f in fields]
    for f, one, other in zip(fields * len(point_sets), lean, dense):
        for attr in INVARIANTS:
            assert getattr(other, attr).tobytes() == getattr(one, attr).tobytes(), (f.label, attr)


def test_jet_bits_match_the_dense_linear_kernel(cap, monkeypatch, dense_linear):
    _assert_jet_bits_survive(cap, lambda: monkeypatch.setattr(du, "_linear", dense_linear))


def test_jet_bits_match_the_dense_dual_forms(cap, monkeypatch, dense_forms):
    # The specialised vdot (of a Dual with itself and with a constant
    # column), Dual / Dual and sincos change no bit of any invariant.
    def use_dense_forms():
        monkeypatch.setattr(du, "vdot", dense_forms.vdot)
        monkeypatch.setattr(du.Dual, "__truediv__", dense_forms.truediv)
        monkeypatch.setattr(du, "sincos", dense_forms.sincos)

    _assert_jet_bits_survive(cap, use_dense_forms)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or not hasattr(resource, "RUSAGE_THREAD"),
    reason="needs two CPUs and per-thread rusage",
)
def test_jet_products_stay_on_the_calling_thread():
    # With two BLAS threads allowed, a jet over 40 blocks must not wake
    # the second one: the jet makes no BLAS call, so no worker thread runs.
    # CPU of the other threads is RUSAGE_SELF minus RUSAGE_THREAD, read after
    # a pause in which the BLAS workers end the busy wait they start with.
    child = (
        "import resource, time\n"
        "import numpy as np\n"
        "from hopfcap import BumpProfile, CapDomain, SpherePoint, jet_batch, perturbed_field\n"
        "from hopfcap.calculus import JET_BLOCK\n"
        "from hopfcap.geometry import random_sphere_points\n"
        "cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 1.0)\n"
        "f = perturbed_field(cap, BumpProfile(0.5, 3), axis=(0.0, 0.48, 0.6, 0.64))\n"
        "pts = random_sphere_points(40 * JET_BLOCK, 28)\n"
        "def cpu(who):\n"
        "    r = resource.getrusage(who)\n"
        "    return r.ru_utime + r.ru_stime\n"
        "time.sleep(0.5)\n"
        "self0, own0 = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_THREAD)\n"
        "jet_batch(f, pts)\n"
        "own = cpu(resource.RUSAGE_THREAD) - own0\n"
        "print(own, cpu(resource.RUSAGE_SELF) - self0 - own)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    own, other = map(float, proc.stdout.split())
    assert other <= 0.1 * own, (own, other)
