import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hopfcap import (
    CapDomain,
    SpherePoint,
    build_gauss_rule,
    build_mc_rule,
    cap_volume,
    integrate,
)
from hopfcap.geometry import radial_mass, seeded_uniforms, tangent_basis
from hopfcap.quadrature import JET_BLOCK, _gauss_legendre, _radial_inverse_cdf


@pytest.fixture(scope="module")
def north():
    return SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("n", [4, 7, 64, 128])
def test_gauss_legendre_integrates_polynomials_exactly(n):
    x, w = _gauss_legendre(n)
    assert np.all(np.diff(x) > 0)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x**k) - exact) < 1e-14, k


@pytest.mark.parametrize("n", [4, 7, 64, 128])
def test_gauss_legendre_matches_leggauss(n):
    # Relative to the largest weight: leggauss's eigenvalue solve leaves
    # its smallest weights about 1e-11 off in relative terms at n = 128.
    x, w = _gauss_legendre(n)
    xl, wl = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xl)) < 1e-11
    assert np.max(np.abs(w - wl)) < 1e-11 * np.max(wl)


class TestGaussRule:
    @pytest.mark.parametrize("radius", [0.3, 0.7, 1.0, 1.3, math.pi / 2, math.pi])
    def test_weight_sum_is_cap_volume(self, north, radius):
        rule = build_gauss_rule(CapDomain(north, radius), 32, 16, 32)
        assert np.sum(rule.weights) == pytest.approx(cap_volume(rule.domain), rel=1e-12)

    def test_nodes_inside_cap(self, north):
        cap = CapDomain(north, 0.9)
        rule = build_gauss_rule(cap, 24, 12, 24)
        dist = np.arccos(np.clip(rule.nodes @ north.x, -1, 1))
        assert np.all(dist < cap.radius)
        assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=-1) - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "radius,expected",
        [
            # Oracle: scipy.integrate.quad of 4 pi cos(rho) sin^2(rho)
            # over (0, r), frozen.
            (0.7, 1.11991881861387),
            (1.3, 3.74733435430631),
        ],
    )
    def test_height_integral_oracle(self, north, radius, expected):
        rule = build_gauss_rule(CapDomain(north, radius), 48, 24, 48)
        val, err = integrate(rule, lambda x: x @ north.x)
        assert val == pytest.approx(expected, rel=1e-12)
        assert abs(val - expected) <= max(err, 1e-10)

    def test_against_live_radial_quad(self, north):
        # Re-derive the oracle at an uncached radius with adaptive quadrature.
        radius = 0.95

        def density(rho):
            return 4.0 * math.pi * math.cos(2.3 * rho) * math.sin(rho) ** 2

        ref, ref_err = quad(density, 0.0, radius)
        rule = build_gauss_rule(CapDomain(north, radius), 48, 24, 48)
        val, _ = integrate(
            rule, lambda x: np.cos(2.3 * np.arccos(np.clip(x @ north.x, -1, 1)))
        )
        assert val == pytest.approx(ref, abs=10 * ref_err + 1e-11)

    def test_doubling_convergence(self, north):
        cap = CapDomain(north, 1.0)

        def f(x):
            return np.exp(x[:, 1]) * np.cos(x[:, 2] + 0.3 * x[:, 3])

        lo, _ = integrate(build_gauss_rule(cap, 16, 8, 16), f)
        hi, _ = integrate(build_gauss_rule(cap, 32, 16, 32), f)
        assert abs(lo - hi) / abs(hi) < 1e-8

    def test_rejects_tiny_orders(self, north):
        with pytest.raises(ValueError):
            build_gauss_rule(CapDomain(north, 1.0), 3, 16, 16)
        # Orders >= 4 whose weights still miss the cap volume are bad input too.
        for orders in ((8, 4, 8), (12, 6, 12)):
            with pytest.raises(ValueError, match=r"too low.*raise the orders"):
                build_gauss_rule(CapDomain(north, 1.0), *orders)

    @pytest.mark.parametrize("radius", [1e-8, 1e-5, 0.01, 0.05, 1.0])
    def test_low_theta_order_rejected_on_every_cap(self, north, radius):
        # The theta weights miss 2 by 7.9e-6 at n_theta = 4, whatever the
        # radius; an absolute test of the weight sum let this through on
        # caps below r ~ 0.05.
        for orders in ((4, 4, 4), (8, 4, 8)):
            with pytest.raises(ValueError, match=r"too low.*raise the orders"):
                build_gauss_rule(CapDomain(north, radius), *orders)

    @pytest.mark.parametrize("radius", [1e-8, 1e-5, 1e-3, 1.0001e-3, 1.0028e-3, 0.01, 1.0, math.pi])
    def test_sufficient_orders_accepted_on_every_cap(self, north, radius):
        # cap_volume's closed form is 1.0e-10 (r = 1e-3) and 1.8e-10
        # (r = 1.0028e-3) off, relative: a guard must not read that as an
        # order too low.
        for orders in ((16, 8, 16), (32, 16, 32), (64, 32, 64)):
            build_gauss_rule(CapDomain(north, radius), *orders)

    def test_nodes_follow_polar_formula(self):
        # Node (i, j, k) of the flattened (rho, theta, phi) grid sits at
        # cos(rho_i) c + sin(rho_i) (sin t_j cos p_k b1 + sin t_j sin p_k b2 + cos t_j b3),
        # here at a center with no symmetry and unequal orders.
        c = np.array([0.3, -0.5, 0.7, 0.2])
        cap = CapDomain(SpherePoint(c / np.linalg.norm(c)), 0.3)
        n_rho, n_theta, n_phi = 7, 9, 5
        rule = build_gauss_rule(cap, n_rho, n_theta, n_phi)
        rho = 0.5 * cap.radius * (np.polynomial.legendre.leggauss(n_rho)[0] + 1.0)
        theta = 0.5 * math.pi * (np.polynomial.legendre.leggauss(n_theta)[0] + 1.0)
        b1, b2, b3 = tangent_basis(cap.center)
        assert rule.nodes.shape == (n_rho * n_theta * n_phi, 4)
        for i, j, k in [(0, 0, 0), (6, 8, 4), (3, 1, 2), (2, 7, 3), (5, 4, 1)]:
            p = 2.0 * math.pi * k / n_phi
            want = math.cos(rho[i]) * cap.center.x + math.sin(rho[i]) * (
                math.sin(theta[j]) * (math.cos(p) * b1 + math.sin(p) * b2) + math.cos(theta[j]) * b3
            )
            got = rule.nodes[(i * n_theta + j) * n_phi + k]
            assert np.max(np.abs(got - want)) < 1e-14

    def test_deterministic(self, north):
        cap = CapDomain(north, 0.8)
        r1 = build_gauss_rule(cap, 16, 8, 16)
        r2 = build_gauss_rule(cap, 16, 8, 16)
        assert np.array_equal(r1.nodes, r2.nodes)
        assert np.array_equal(r1.weights, r2.weights)


_OFF_CENTRE = np.array([0.32163376045133846, -0.5360562674188974, 0.7504787743864564, 0.214422506967559])


@pytest.mark.parametrize(
    "rule",
    [
        lambda north: build_gauss_rule(CapDomain(north, 1.0), 32, 16, 32),
        lambda north: build_mc_rule(CapDomain(north, 1.0), 20_000, 0),
        lambda north: build_gauss_rule(CapDomain(SpherePoint(_OFF_CENTRE), 0.7), 33, 17, 29),
        lambda north: build_mc_rule(CapDomain(SpherePoint(_OFF_CENTRE), 0.7), 20_000, 1),
        lambda north: build_mc_rule(CapDomain(north, 1e-9), 20_000, 2),
    ],
    ids=["unit_cap_gauss", "unit_cap_mc", "off_centre_gauss", "off_centre_mc", "r1e-9_mc"],
)
def test_nodes_are_unit_to_a_few_ulps(north, rule):
    # The jet reads the nodes as points of S^3 and differentiates no |x|
    # (``calculus.UNIT_TOL`` is its guard), so each node is unit to
    # rounding: ||x| - 1| at most 2 ulps of 1 (these rules read at most 1,
    # a 64,32,64 rule on the whole sphere 1.5).
    rule = rule(north)
    drift = np.abs(np.sqrt(np.sum(rule.nodes**2, axis=-1)) - 1.0)
    assert np.max(drift) <= 2 * np.finfo(float).eps


class TestMonteCarloRule:
    def test_weight_sum(self, north):
        rule = build_mc_rule(CapDomain(north, 1.1), 5000, seed=3)
        assert np.sum(rule.weights) == pytest.approx(cap_volume(rule.domain), rel=1e-12)

    def test_matches_gauss_within_three_sigma(self, north):
        cap = CapDomain(north, 1.0)
        gauss = build_gauss_rule(cap, 32, 16, 32)
        mc = build_mc_rule(cap, 50_000, seed=7)

        def f(x):
            return (x @ north.x) ** 2 + 0.5 * x[:, 1]

        ref, _ = integrate(gauss, f)
        val, err = integrate(mc, f)
        assert abs(val - ref) < 3 * err

    def test_two_seeds_disagree_but_both_close(self, north):
        cap = CapDomain(north, 0.9)
        gauss = build_gauss_rule(cap, 32, 16, 32)
        ref, _ = integrate(gauss, lambda x: x @ north.x)
        vals = []
        for seed in (11, 12):
            mc = build_mc_rule(cap, 30_000, seed=seed)
            val, err = integrate(mc, lambda x: x @ north.x)
            assert abs(val - ref) < 4 * err
            vals.append(val)
        assert vals[0] != vals[1]

    def test_radial_marginal(self, north):
        # Inverse-CDF sampling: empirical CDF of geodesic radius matches
        # the sin^2 law at a few quantiles.
        cap = CapDomain(north, 1.2)
        rule = build_mc_rule(cap, 100_000, seed=9)
        rho = np.arccos(np.clip(rule.nodes @ north.x, -1, 1))
        norm = 2 * cap.radius - math.sin(2 * cap.radius)
        for q in (0.3, 0.6, 0.9):
            r_q = np.quantile(rho, q)
            cdf = (2 * r_q - math.sin(2 * r_q)) / norm
            assert cdf == pytest.approx(q, abs=0.01)

    @pytest.mark.parametrize("radius", [1e-9, 1e-6, 0.1, 1.0, 2.0, math.pi])
    def test_radial_quantiles_solve_the_cdf(self, north, radius):
        # The Newton step on the interpolated quantile uses the CDF's slope
        # 4 sin^2(rho) / (2r - sin 2r); with half that slope the residual
        # stays near 2e-9.  On a tiny cap 2r - sin 2r is its series: written
        # out, it was 0 at radius 1e-9 and every quantile NaN.
        u = np.random.default_rng(13).random(100_000)
        rho = _radial_inverse_cdf(CapDomain(north, radius), u)
        assert np.all((rho >= 0.0) & (rho <= radius))
        assert np.max(np.abs(radial_mass(rho) / radial_mass(radius) - u)) <= 1e-12

    @pytest.mark.parametrize("radius", [1e-9, 1e-6])
    def test_tiny_cap_nodes_are_finite_and_inside(self, radius):
        c = np.array([0.3, -0.5, 0.7, 0.2])
        cap = CapDomain(SpherePoint(c / np.linalg.norm(c)), radius)
        rule = build_mc_rule(cap, 5000, seed=6)
        assert np.all(np.isfinite(rule.nodes))
        # The chord |x - c| = 2 sin(rho / 2) <= rho, up to the roundoff of c.
        assert np.max(np.linalg.norm(rule.nodes - cap.center.x, axis=1)) <= radius + 1e-15

    def test_rejects_small_sample(self, north):
        with pytest.raises(ValueError):
            build_mc_rule(CapDomain(north, 1.0), 500, seed=0)

    def test_rejects_negative_seed(self, north):
        with pytest.raises(ValueError, match="non-negative"):
            build_mc_rule(CapDomain(north, 1.0), 5000, seed=-1)

    def test_directions_are_unit_and_centred(self):
        # Node k is cos(rho) c + sin(rho) d in the tangent basis (b1, b2, b3)
        # at c, with rho the quantile of the first of its three uniforms.
        center = SpherePoint(np.array([0.5, -0.5, 0.5, 0.5]))
        cap = CapDomain(center, 1.3)
        n = 100_000
        rule = build_mc_rule(cap, n, seed=4)
        rho = _radial_inverse_cdf(cap, seeded_uniforms(3, n, 4)[0])
        d = (rule.nodes @ np.stack(tangent_basis(center)).T) / np.sin(rho)[:, None]
        assert np.allclose(rule.nodes @ center.x, np.cos(rho), rtol=0.0, atol=1e-15)
        assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) <= 1e-14
        # Uniform on S^2: each component has mean 0 and variance 1/3.
        assert np.all(np.abs(d.mean(axis=0)) < 3 / math.sqrt(3 * n))
        assert np.allclose((d**2).mean(axis=0), 1 / 3, atol=3e-3)


class TestIntegrate:
    def test_nonfinite_abort_reports_node(self, north):
        rule = build_gauss_rule(CapDomain(north, 1.0), 16, 8, 16)

        def bad(x):
            out = np.ones(len(x))
            out[5] = np.nan
            return out

        with pytest.raises(ValueError, match="node 5"):
            integrate(rule, bad)

    def test_shape_guard(self, north):
        rule = build_gauss_rule(CapDomain(north, 1.0), 16, 8, 16)
        with pytest.raises(ValueError):
            integrate(rule, lambda x: x)  # (N, 4), not (N,)

    def test_constant_integrand(self, north):
        cap = CapDomain(north, 0.6)
        rule = build_gauss_rule(cap, 16, 8, 16)
        val, err = integrate(rule, lambda x: np.full(len(x), 3.0))
        assert val == pytest.approx(3.0 * cap_volume(cap), rel=1e-12)
        assert err < 1e-10

    def test_holds_one_node_length_temporary(self, north):
        # The sums are made one JET_BLOCK block at a time, so the peak stays
        # under w f plus N bytes: no float64 temporary is as long as the rule.
        # The bits are those of numpy's block sums combined by math.fsum.
        rule = build_gauss_rule(CapDomain(north, 1.0), 64, 32, 64)
        fx = np.cos(3.0 * rule.nodes[:, 1]) - 0.2
        tracemalloc.start()
        try:
            value, err = integrate(rule, lambda _x: fx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * rule.size
        wfx = rule.weights * fx
        blocks = [slice(s, s + JET_BLOCK) for s in range(0, rule.size, JET_BLOCK)]
        assert value == math.fsum(np.sum(wfx[b]) for b in blocks)
        assert err == np.finfo(float).eps * math.fsum(np.sum(np.abs(wfx[b])) for b in blocks)
