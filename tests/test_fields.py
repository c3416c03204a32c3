import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import qmc

from hopfcap import (
    BumpProfile,
    CapDomain,
    SpherePoint,
    UnitField,
    build_gauss_rule,
    hopf_field,
    hopf_frame,
    perturbed_field,
    small_cap_field,
)
from hopfcap import dual as du
from hopfcap.calculus import directional_derivative, jet_batch
from hopfcap.geometry import FRAME_ROWS, QUAT_I, quat_mul, random_sphere_points, tangent_basis
from hopfcap.quadrature import JET_BLOCK


def sobol_sphere_points(n, seed=0):
    sampler = qmc.Sobol(d=4, scramble=True, seed=seed)
    from scipy.stats import norm

    u = sampler.random(n)
    x = norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def assert_unit_tangent(field, pts, tol=1e-10):
    v = field(pts)
    assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0)) < tol
    assert np.max(np.abs(np.sum(v * pts, axis=-1))) < tol


@pytest.fixture(scope="module")
def cap():
    return CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 1.0)


class TestHopfField:
    def test_axis_i_at_one(self):
        h = hopf_field()
        assert np.allclose(h(np.array([1.0, 0, 0, 0])), [0, 1, 0, 0])

    def test_coordinate_formula(self):
        h = hopf_field()
        pts = random_sphere_points(50, 2)
        expected = np.stack([-pts[:, 1], pts[:, 0], -pts[:, 3], pts[:, 2]], axis=-1)
        assert np.allclose(h(pts), expected)

    def test_tangency_at_random_points(self):
        assert_unit_tangent(hopf_field(), random_sphere_points(1000, 3), tol=1e-12)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            hopf_field((1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            hopf_field((0.0, 2.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            hopf_field((0.0, math.nan, 0.0, 0.0))

    def test_sigma_constants(self):
        jets = jet_batch(hopf_field(), random_sphere_points(500, 4))
        assert np.max(np.abs(jets.sigma1)) < 1e-12
        assert np.max(np.abs(jets.sigma2 - 1.0)) < 1e-12


def frame_vectors(pts, axis=(0.0, 1.0, 0.0, 0.0)):
    """(H, E1, E2) = (a x, b x, c x) at unit points (N, 4), from the frame's units."""
    return [quat_mul(q, pts) for q in hopf_frame(axis)]


class TestHopfFrame:
    def test_pairwise_orthonormal(self):
        pts = random_sphere_points(1000, 5)
        vals = frame_vectors(pts)
        for i in range(3):
            assert np.max(np.abs(np.linalg.norm(vals[i], axis=-1) - 1.0)) < 1e-12
            for j in range(i + 1, 3):
                assert np.max(np.abs(np.sum(vals[i] * vals[j], axis=-1))) < 1e-12

    def test_gram_determinant(self):
        # Oracle: 4x4 determinant of {x, H, E1, E2} at sampled points.
        pts = random_sphere_points(200, 6)
        mats = np.stack([pts, *frame_vectors(pts)], axis=-2)
        dets = np.linalg.det(mats)
        assert np.max(np.abs(np.abs(dets) - 1.0)) < 1e-12

    def test_general_axis(self):
        axis = np.array([0.0, 1.0, 2.0, -1.0])
        axis /= np.linalg.norm(axis)
        pts = random_sphere_points(200, 7)
        a, b, c = hopf_frame(axis)
        for q in (a, b, c):
            assert_unit_tangent(lambda p, q=q: quat_mul(q, p), pts, tol=1e-12)
        # The units are orthonormal imaginary quaternions with c = a b, and H
        # is the Hopf field of the axis itself.
        units = np.stack([a, b, c])
        assert np.max(np.abs(units[:, 0])) < 1e-15
        assert np.max(np.abs(units @ units.T - np.eye(3))) < 1e-15
        assert np.max(np.abs(quat_mul(a, b) - c)) < 1e-15
        assert np.max(np.abs(quat_mul(a, pts) - hopf_field(axis)(pts))) < 1e-15


class TestPerturbedField:
    def test_zero_amplitude_is_hopf(self, cap):
        f = perturbed_field(cap, BumpProfile(0.0, 3))
        pts = random_sphere_points(500, 8)
        assert np.array_equal(f(pts), hopf_field()(pts))

    def test_unit_everywhere(self, cap):
        f = perturbed_field(cap, BumpProfile(0.9, 2), twist="angular")
        assert_unit_tangent(f, random_sphere_points(10_000, 9))

    def test_hopf_on_boundary_and_outside(self, cap):
        f = perturbed_field(cap, BumpProfile(0.7, 3))
        h = hopf_field()
        r = cap.radius
        rng = np.random.default_rng(10)
        # points on the boundary sphere and well outside the cap
        for rho in (r, r + 0.3, math.pi - 0.2):
            dirs = rng.standard_normal((200, 3))
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
            b = np.stack(tangent_basis(cap.center), axis=0)
            pts = math.cos(rho) * cap.center.x + math.sin(rho) * (dirs @ b)
            assert np.max(np.linalg.norm(f(pts) - h(pts), axis=-1)) < 1e-10

    def test_lipschitz_in_amplitude(self, cap):
        pts = random_sphere_points(2000, 11)
        a1, a2 = 0.4, 0.65
        f1 = perturbed_field(cap, BumpProfile(a1, 3))
        f2 = perturbed_field(cap, BumpProfile(a2, 3))
        dist = np.max(np.linalg.norm(f1(pts) - f2(pts), axis=-1))
        assert dist <= abs(a1 - a2) + 1e-12

    def test_large_amplitude_flagged(self, cap):
        with pytest.warns(UserWarning):
            perturbed_field(cap, BumpProfile(3.5, 3))

    def test_twisted_normalizes_once(self, cap, monkeypatch):
        # The frame components read unit points and form no |x|; the value
        # u x^ normalizes the point once, and so does the small-cap field's,
        # which normalized it twice when its components read x / |x| too.
        calls = []
        for op in ("norm", "normalize"):
            monkeypatch.setattr(du, op, lambda x, op=op, run=getattr(du, op): calls.append(op) or run(x))
        pts = random_sphere_points(20, 25)
        for f in (
            perturbed_field(cap, BumpProfile(0.9, 2), twist="angular"),
            small_cap_field(CapDomain(cap.center, 0.3)),
        ):
            f.components(du.plain(np.ascontiguousarray(pts.T)))
            assert calls == [], f.label
            f(pts)
            assert calls == ["normalize", "norm"], f.label
            calls.clear()

    def test_unknown_twist_rejected(self, cap):
        with pytest.raises(ValueError, match="unknown twist"):
            perturbed_field(cap, BumpProfile(0.5, 3), twist="radial")

    def test_exponent_guard(self):
        with pytest.raises(ValueError):
            BumpProfile(0.5, 1)
        for amplitude in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                BumpProfile(amplitude, 3)


class TestSmallCapField:
    def test_center_value(self):
        # f(p) = u0 = i p, the first tangent_basis vector at the center.
        cap = CapDomain(SpherePoint(np.array([0.5, 0.5, -0.5, 0.5])), 0.1)
        f = small_cap_field(cap)
        assert np.allclose(f(cap.center.x), quat_mul(QUAT_I, cap.center.x), atol=1e-14)

    def test_unit_tangent_on_cap(self):
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 0.2)
        rng = np.random.default_rng(12)
        dirs = rng.standard_normal((5000, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        rho = rng.uniform(0, cap.radius, 5000)
        b = np.stack(tangent_basis(cap.center), axis=0)
        pts = np.cos(rho)[:, None] * cap.center.x + np.sin(rho)[:, None] * (dirs @ b)
        assert_unit_tangent(small_cap_field(cap), pts)

    def test_radial_derivative_vanishes(self):
        # Parallel along radial geodesics: covariant derivative in the
        # radial direction is zero everywhere on the cap.
        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 0.15)
        f = small_cap_field(cap)
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            b = np.stack(tangent_basis(cap.center), axis=0)
            w = d @ b
            rho = rng.uniform(0.01, cap.radius)
            x = math.cos(rho) * cap.center.x + math.sin(rho) * w
            radial = -math.sin(rho) * cap.center.x + math.cos(rho) * w
            d = directional_derivative(f, x, radial)
            out = d - np.dot(d, x) * x  # tangential projection
            assert np.linalg.norm(out) < 1e-10

    def test_mean_gradient_regression(self):
        # Frozen regression: mean |grad v|^2 on K(r=0.1), orders (32,16,32).
        from hopfcap import build_gauss_rule, cap_volume, energy

        cap = CapDomain(SpherePoint(np.array([1.0, 0, 0, 0])), 0.1)
        rule = build_gauss_rule(cap, 32, 16, 32)
        rep = energy(small_cap_field(cap), cap, rule)
        mean = rep.derivative_term / cap_volume(cap)
        assert mean == pytest.approx(0.0020016198652356, rel=1e-8)
        assert mean < 0.1


@pytest.mark.parametrize("name", ["hopf", "perturbed", "twisted", "small-cap"])
def test_plain_values_are_the_bits_of_a_differentiated_evaluation(cap, name):
    # A plain evaluation runs the same dual operations as AD, with no
    # directions, so the value does not depend on being differentiated.
    f = {
        "hopf": hopf_field(),
        "perturbed": perturbed_field(cap, BumpProfile(0.5, 3)),
        "twisted": perturbed_field(cap, BumpProfile(1.2, 2), twist="angular"),
        "small-cap": small_cap_field(CapDomain(cap.center, 0.3)),
    }[name]
    pts = random_sphere_points(5000, 31)
    x = np.ascontiguousarray(pts.T)
    y = np.random.default_rng(32).standard_normal((3,) + x.shape)
    ad = f(du.Dual(x, y)).val
    assert f(pts).tobytes() == np.ascontiguousarray(ad.T).tobytes()


@pytest.mark.parametrize("name", ["hopf", "perturbed", "twisted", "small-cap"])
def test_components_are_the_value_times_the_conjugate_point(cap, name):
    # u = v conj(x): a unit imaginary quaternion whose product with x is
    # the field's value; the Hopf field's is its axis.
    f = BUILTIN[name](cap)
    pts = random_sphere_points(2000, 34)
    u = f.components(du.plain(np.ascontiguousarray(pts.T))).val
    u = np.broadcast_to(u, (3, len(pts))).T
    w = quat_mul(f(pts), pts * [1.0, -1.0, -1.0, -1.0])
    assert np.max(np.abs(w[:, 0])) < 1e-12
    assert np.max(np.abs(w[:, 1:] - u)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)) < 1e-12
    if name == "hopf":
        assert np.array_equal(u, np.broadcast_to(QUAT_I[1:], u.shape))


def test_all_fields_unit_tangent_on_sobol_samples(cap):
    pts = sobol_sphere_points(2**17, seed=21)  # power of 2 keeps Sobol balanced
    fields = [
        hopf_field(),
        perturbed_field(cap, BumpProfile(0.5, 3)),
        perturbed_field(cap, BumpProfile(1.2, 2), twist="angular"),
    ]
    for f in fields:
        assert_unit_tangent(f, pts)
    # Small-cap field checked on its own cap only.
    sc_cap = CapDomain(cap.center, 0.1)
    inside = pts[np.arccos(np.clip(pts @ cap.center.x, -1, 1)) < sc_cap.radius]
    if len(inside):
        assert_unit_tangent(small_cap_field(sc_cap), inside)


BUILTIN = {
    "hopf": lambda cap: hopf_field(),
    "perturbed": lambda cap: perturbed_field(cap, BumpProfile(0.5, 3)),
    "twisted": lambda cap: perturbed_field(cap, BumpProfile(0.5, 3), twist="angular"),
    "small-cap": lambda cap: small_cap_field(CapDomain(cap.center, 0.3)),
}


@pytest.mark.parametrize("name", list(BUILTIN))
def test_value_is_0_homogeneous(cap, name):
    # The value reads the frame components at x^ = x / |x|, its one
    # normalization, and scaling by a power of two is exact: |2 x| = 2 |x|
    # and 2 x / (2 |x|) = x / |x| to the bit.
    f = BUILTIN[name](cap)
    pts = random_sphere_points(2000, 36)
    assert f(2.0 * pts).tobytes() == f(pts).tobytes()


@pytest.mark.parametrize("name", list(BUILTIN))
def test_radial_derivative_vanishes(cap, name):
    # 0-homogeneity of v = u(x^) x^: the derivative along x itself is the
    # roundoff of d x^[x] = 0, on the unit cap (the small-cap field is
    # singular at its centre's antipode).
    f = BUILTIN[name](cap)
    pts = random_sphere_points(5000, 37)
    pts = pts[pts @ cap.center.x > math.cos(cap.radius)]
    assert np.max(np.abs(directional_derivative(f, pts, pts))) <= 1e-15


@pytest.mark.parametrize("name", list(BUILTIN))
def test_evaluation_writes_no_input_array(cap, name, monkeypatch):
    # The fields write products and sums into buffers they formed
    # themselves, never into the point Dual they were given: its value
    # and directions, the jet's basis, keep every byte through AD, FD and
    # plain evaluation.
    field = BUILTIN[name](cap)
    seen = []

    def checked(x):
        before = x.val.tobytes(), x.eps.tobytes()
        v = field.evaluator(x)
        seen.append((x.val.tobytes(), x.eps.tobytes()) == before)
        return v

    guarded = UnitField(field.label, checked, field.params, field.hopf_boundary)
    pts = random_sphere_points(3 * 7 + 2, 33)
    jet_batch(guarded, pts)
    jet_batch(guarded, pts, mode="fd")
    monkeypatch.setattr("hopfcap.calculus.JET_BLOCK", 7)
    jet_batch(guarded, pts)
    x = np.ascontiguousarray(pts.T)
    basis = du.apply_linear(FRAME_ROWS, x).reshape(3, 4, -1)
    before = x.tobytes(), basis.tobytes()
    field(du.Dual(x, basis))
    field(du.plain(x))
    assert seen == [True] * 7 and (x.tobytes(), basis.tobytes()) == before


@pytest.mark.parametrize(
    "name, points, rows",
    [("perturbed", "random", 20), ("twisted", "random", 40), ("small-cap", "random", 32), ("perturbed", "slabs", 20)],
    ids=["untwisted", "angular", "small-cap", "untwisted-slabs"],
)
def test_one_block_evaluation_frees_each_intermediate(cap, name, points, rows):
    # One JET_BLOCK-node evaluation of the frame components along the jet's
    # three directions, under tracemalloc.  No 4-vector of the field is
    # formed, no |x|, the untwisted chain on <c, x> carries one direction,
    # and each intermediate is deleted after its last read: the peaks are
    # 19, 39 and 31 rows of JET_BLOCK float64.  The first block of a Gauss
    # rule over the cap centred at 1 crosses 11 rho-slabs, on each of which
    # <c, x> has one value: the chain runs on 11 values and its rows are
    # spread over the block, and the peak is 19 rows too.
    f = BUILTIN[name](cap)
    if points == "slabs":
        x = build_gauss_rule(cap, 40, 20, 40).block(0, JET_BLOCK)[0]
    else:
        x = np.ascontiguousarray(random_sphere_points(JET_BLOCK, 3).T)
    point = du.Dual(x, du.apply_linear(FRAME_ROWS, x).reshape(3, 4, -1))
    tracemalloc.start()
    try:
        f.components(point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * 8 * JET_BLOCK
