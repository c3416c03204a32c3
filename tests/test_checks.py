import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfcap import (
    BumpProfile,
    CapDomain,
    CheckReport,
    SpherePoint,
    VerifyConfig,
    build_gauss_rule,
    UnitField,
    cap_volume,
    check_hopf_constants,
    check_small_cap_counterexample,
    energy,
    hopf_field,
    perturbed_field,
    run_all,
    small_cap_field,
    sweep_family,
    sweep_reports,
)
from hopfcap import checks
from hopfcap.checks import (
    GAUSS_ORDERS,
    ORACLE_NODES,
    SMALL_CAP_SCALING_RADII,
    SWEEP_AMPLITUDES,
    TOL_SWEEP_LOC,
    _brent_min,
    _field_reports,
    _oracle_stride,
    _singular,
    sweep_grid,
)
from hopfcap.cli import main

NORTH = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))


def verify_config(cap, field, orders, t_grid=None):
    """The field's configuration at seed 0; ``t_grid`` None gives the field's own offsets."""
    return VerifyConfig(field, build_gauss_rule(cap, *orders), 0, t_grid)


def field_rows(field, cap, orders=(48, 24, 48), t_grid=()):
    """The field's reports (run_all without the Hopf-constant rows), by name."""
    config = verify_config(cap, field, orders, t_grid=t_grid)
    return {r.name: r for r in _field_reports(config)}


@pytest.fixture(scope="module")
def cap():
    return CapDomain(NORTH, 1.0)


FIELD_KINDS = ("hopf", "perturbed", "angular", "small-cap")


def field_of_kind(kind):
    """A field of the kind and the domain its rows are read over."""
    unit, small = CapDomain(NORTH, 1.0), CapDomain(NORTH, 0.3)
    return {
        "hopf": (hopf_field(), unit),
        "perturbed": (perturbed_field(unit, BumpProfile(0.5, 3)), unit),
        "angular": (perturbed_field(unit, BumpProfile(0.5, 3), twist="angular"), unit),
        "small-cap": (small_cap_field(small), small),
    }[kind]


class TestHopfConstants:
    def test_ad_mode(self):
        reports = check_hopf_constants(n_points=20_000, seed=0, mode="ad")
        assert all(r.passed for r in reports)
        assert {r.name for r in reports} == {"hopf_sigma1_zero", "hopf_sigma2_one"}
        assert all(r.tolerance == 1e-9 for r in reports)

    def test_fd_mode_degrades_gracefully(self):
        reports = check_hopf_constants(n_points=5_000, seed=0, mode="fd")
        assert all(r.passed for r in reports)
        assert all(r.tolerance == 1e-6 for r in reports)
        assert all(r.context["mode"] == "fd" for r in reports)

    def test_fd_mode_fails_at_machine_tolerance(self):
        # FD is an oracle separate from AD: its error is far above round-off.
        reports = check_hopf_constants(n_points=5_000, seed=0, mode="fd")
        assert max(r.lhs for r in reports) > 1e-12


class TestBoundaryIdentity:
    def test_hopf(self, cap):
        rep = field_rows(hopf_field(), cap)["boundary_sigma2_integral"]
        assert rep.passed and rep.rel_err < 1e-10

    @pytest.mark.parametrize(
        "amplitude,exponent,radius,twist",
        [
            (0.5, 3, 1.0, None),
            (1.2, 2, 1.5, "angular"),
        ],
    )
    def test_perturbed(self, amplitude, exponent, radius, twist):
        cap = CapDomain(NORTH, radius)
        f = perturbed_field(cap, BumpProfile(amplitude, exponent), twist=twist)
        rows = field_rows(f, cap)
        assert rows["boundary_sigma2_integral"].passed, rows
        assert rows["boundary_sigma1_integral"].passed, rows

    def test_incompatible_field_raises(self, cap):
        # Rejected when the configuration is built, before any jet.
        f = UnitField("opaque", small_cap_field(CapDomain(NORTH, 0.1)).evaluator, {}, None)
        with pytest.raises(ValueError, match="not known to match"):
            verify_config(cap, f, (16, 8, 16))

    def test_smaller_target_cap_raises(self, cap):
        f = perturbed_field(cap, BumpProfile(0.5, 3))
        with pytest.raises(ValueError, match="not known to match"):
            verify_config(CapDomain(NORTH, 0.5), f, (16, 8, 16))

    def test_nearby_bump_cap_raises(self):
        # The bump's cap must be the rule's cap: a centre 3e-6 away (within
        # a 1e-5 relative tolerance) is another cap.
        center = np.full(4, 0.5)
        tangent = np.array([-0.5, 0.5, -0.5, 0.5])  # i times the centre
        nearby = SpherePoint(math.cos(3e-6) * center + math.sin(3e-6) * tangent)
        f = perturbed_field(CapDomain(nearby, 1.2), BumpProfile(0.5, 3))
        with pytest.raises(ValueError, match="not known to match"):
            verify_config(CapDomain(SpherePoint(center), 1.2), f, (16, 8, 16))


class TestBounds:
    def test_equality_at_hopf(self, cap):
        rows = field_rows(hopf_field(), cap)
        e, v = rows["energy_bound"], rows["volume_bound"]
        assert e.passed and v.passed
        assert e.rhs == 2.5 * cap_volume(cap) and v.rhs == 2.0 * cap_volume(cap)
        assert e.lhs == pytest.approx(e.rhs, rel=1e-10)
        assert v.lhs == pytest.approx(v.rhs, rel=1e-10)

    def test_surplus_ordering(self, cap):
        surpluses = []
        for a in (0.5, 1.2):
            rows = field_rows(perturbed_field(cap, BumpProfile(a, 3)), cap)
            e, v = rows["energy_bound"], rows["volume_bound"]
            assert e.passed and v.passed
            surpluses.append((e.lhs - e.rhs, v.lhs - v.rhs))
        assert surpluses[1][0] > surpluses[0][0] > 0
        assert surpluses[1][1] > surpluses[0][1] > 0


class TestChangeOfVariables:
    def test_hopf_passes(self, cap):
        rows = field_rows(hopf_field(), cap, t_grid=(0.1, 0.2, 0.3))
        reports = [r for name, r in rows.items() if name.startswith("image_volume")]
        assert [r.name for r in reports] == ["image_volume_t0.1", "image_volume_t0.2", "image_volume_t0.3"]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("t_grid", [(0.1, 0.1), (0.1, 0.1000001), (0.0, -0.0)])
    def test_offsets_sharing_a_row_name_rejected(self, cap, t_grid):
        # Report rows are keyed by name; t = 0.1000001 prints as t0.1, and
        # -0 is 0.
        with pytest.raises(ValueError, match="same name"):
            verify_config(cap, hopf_field(), (16, 8, 16), t_grid=t_grid)

    def test_offset_out_of_range_rejected_by_its_map(self, cap):
        with pytest.raises(ValueError, match=r"offset t must lie in \[0, 0.5\], got 0.6"):
            verify_config(cap, hopf_field(), (16, 8, 16), t_grid=(0.1, 0.6))

    def test_twisted_field_reports_rejection(self, cap):
        # run_all gives twisted fields no image-volume rows (they fold for
        # every t > 0), so a large untwisted bump folds the map instead.
        f = perturbed_field(cap, BumpProfile(3.0, 3))
        rep = field_rows(f, cap, t_grid=(0.5,))["image_volume_t0.5"]
        assert not rep.passed
        assert "det_floor_rejection" in rep.context
        # The rejected value has no number: it serializes as null.
        d = rep.to_dict()
        assert d["lhs"] is None and d["abs_err"] is None and d["rel_err"] is None


@pytest.fixture(scope="module")
def coarse_rule(cap):
    return build_gauss_rule(cap, 24, 12, 24)


class TestOracleSubsample:
    def test_default_rule_visits_every_phi_index(self, cap):
        # Nodes run over phi fastest; 131 072 / 4 096 = 32 would visit only
        # phi = 0 and pi at 64 phi nodes.
        n_rho, n_theta, n_phi = GAUSS_ORDERS
        n = n_rho * n_theta * n_phi
        k = _oracle_stride(n)
        sample = np.arange(0, n, k)
        assert len(sample) <= ORACLE_NODES
        assert set(sample % n_phi) == set(range(n_phi))
        assert set(sample // n_phi % n_theta) == set(range(n_theta))

    @pytest.mark.parametrize("n", [1, 100, 4096, 4097, 20_000, 442_368])
    def test_stride_keeps_about_the_oracle_node_count(self, n):
        k = _oracle_stride(n)
        assert len(range(0, n, k)) <= ORACLE_NODES
        assert k == 1 or len(range(0, n, k)) > ORACLE_NODES // 2
        assert math.gcd(k, n) == 1


class TestSweep:
    def test_grid_must_include_zero(self, cap, coarse_rule):
        with pytest.raises(ValueError):
            sweep_family(cap, (0.25, 0.5), coarse_rule)

    def test_negative_zero_counts_as_zero(self):
        grid = sweep_grid((0.5, -0.0))
        assert list(grid) == [0.0, 0.5]
        assert math.copysign(1.0, grid[0]) == 1.0

    @pytest.mark.parametrize("grid", [(0.0, 0.0, 0.5), (-0.0, 0.0, 0.5), (0.0, 0.5, 0.5)])
    def test_repeated_amplitude_rejected(self, cap, coarse_rule, grid):
        # A repeat can make a zero-width refinement bracket, so the search
        # would return the repeated amplitude without a step and the
        # location check would pass unexamined.
        with pytest.raises(ValueError, match="repeats"):
            sweep_family(cap, grid, coarse_rule)

    def test_argmin_at_zero_and_refinement(self, cap, coarse_rule):
        result = sweep_family(cap, (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0), coarse_rule)
        zero = int(np.argmin(np.abs(result.amplitudes)))
        assert result.argmin_energy == zero
        assert result.argmin_volume == zero
        assert abs(result.refined_energy_min) <= 0.02
        assert abs(result.refined_volume_min) <= 0.02
        reports = sweep_reports(result)
        assert all(r.passed for r in reports)

    def test_even_in_amplitude(self, cap, coarse_rule):
        result = sweep_family(cap, (-0.5, 0.0, 0.5), coarse_rule)
        assert result.energies[0] == pytest.approx(result.energies[2], rel=1e-9)
        assert result.volumes[0] == pytest.approx(result.volumes[2], rel=1e-9)

    def test_monotone_on_positive_branch(self, cap, coarse_rule):
        result = sweep_family(cap, (0.0, 0.5, 1.0), coarse_rule)
        assert result.energies[1] < result.energies[2]
        assert result.volumes[1] < result.volumes[2]


# Closed-form unimodal shapes of d = a - c, each with whether it is smooth.
# The cubic is asymmetric and unimodal while |d| < 2/3.
UNIMODAL = {
    "square": (lambda d: d * d, True),
    "quartic": (lambda d: d**4, True),
    "abs": (abs, False),
    "cosh": (lambda d: math.cosh(8.0 * d), True),
    "cubic": (lambda d: d * d + d**3, True),
}
# The default grid's bracket around its argmin 0.
BRACKET = (-0.25, 0.0, 0.25)
# Golden section on [-0.25, 0.25] shrinks the width 0.5 by 0.618 per
# evaluation until it is at most TOL_SWEEP_LOC = 0.02: 2 + 7 evaluations.
GOLDEN_EVALUATIONS = 9


def refine(shape, grid):
    """``_brent_min`` of ``shape`` seeded on ``grid``, and the points it evaluated."""
    evaluated = []

    def f(a):
        evaluated.append(a)
        return shape(a)

    found = _brent_min(f, np.asarray(grid), [shape(a) for a in grid], TOL_SWEEP_LOC)
    return found, evaluated


class TestBrentMin:
    @given(st.sampled_from(sorted(UNIMODAL)), st.floats(BRACKET[0], BRACKET[-1]))
    @settings(max_examples=300, deadline=None)
    def test_unimodal_minimum_within_half_the_tolerance(self, name, c):
        shape, smooth = UNIMODAL[name]
        found, evaluated = refine(lambda a: shape(a - c), BRACKET)
        assert abs(found - c) <= TOL_SWEEP_LOC / 2
        assert found in evaluated or found in BRACKET  # a point, not a midpoint
        assert all(BRACKET[0] <= a <= BRACKET[-1] for a in evaluated)
        assert len(set(evaluated) | set(BRACKET)) == len(evaluated) + len(BRACKET)  # none twice
        if smooth:
            assert len(evaluated) <= GOLDEN_EVALUATIONS

    @pytest.mark.parametrize("noise", [1e-17, -1e-17])
    def test_even_function_returns_the_grid_zero(self, noise):
        # Roundoff tilts an even function one way or the other.  The best
        # evaluated point is the grid's 0 either way, where a bracket's
        # midpoint would take the tilt's sign.
        found, evaluated = refine(lambda a: a * a + math.copysign(noise, a), SWEEP_AMPLITUDES)
        assert found == 0.0 and math.copysign(1.0, found) == 1.0
        assert sorted(evaluated) == [-TOL_SWEEP_LOC / 4, TOL_SWEEP_LOC / 4]

    def test_constant_function_terminates(self):
        found, evaluated = refine(lambda a: 1.0, BRACKET)
        assert BRACKET[0] <= found <= BRACKET[-1]
        assert len(evaluated) <= GOLDEN_EVALUATIONS

    @pytest.mark.parametrize(
        "grid, shape",
        [
            ((0.0, 0.5, 1.0), lambda a: a * a),
            ((0.0, 0.5, 1.0), lambda a: a),
            ((0.0, 0.5, 1.0), lambda a: (a + 0.1) ** 2),
            ((-1.0, -0.5, 0.0), lambda a: a * a),
        ],
        ids=["square", "linear", "minimizer-beyond-the-grid", "upper-edge"],
    )
    def test_edge_argmin_terminates_near_the_edge(self, grid, shape):
        found, evaluated = refine(shape, grid)
        # The edge 0 has no known interior neighbour: the search starts at the
        # golden point of its bracket, nearer to the edge.
        golden = (3.0 - math.sqrt(5.0)) / 2.0
        assert evaluated[0] == pytest.approx(math.copysign(0.5 * golden, sum(grid)), abs=1e-15)
        assert abs(found) <= TOL_SWEEP_LOC / 2
        assert all(min(grid) <= a <= max(grid) for a in evaluated)


class TestSmallCapCounterexample:
    def test_all_reports_pass(self):
        reports = check_small_cap_counterexample(radius=0.1, scaling_radii=SMALL_CAP_SCALING_RADII)
        names = [r.name for r in reports]
        assert names == [
            "small_cap_energy_below_hopf",
            "small_cap_volume_below_hopf",
            "small_cap_mean_gradient_sq",
            "small_cap_gradient_scaling",
        ]
        assert all(r.passed for r in reports), reports
        assert reports[-1].context["radii"] == list(SMALL_CAP_SCALING_RADII)

    def test_strictly_beats_hopf(self):
        reports = {r.name: r for r in check_small_cap_counterexample(radius=0.1, scaling_radii=SMALL_CAP_SCALING_RADII)}
        e = reports["small_cap_energy_below_hopf"]
        v = reports["small_cap_volume_below_hopf"]
        # lhs is the Hopf value, rhs the small-cap field value: strict win.
        assert e.lhs > e.rhs
        assert v.lhs > v.rhs

    def test_main_radius_built_once(self, monkeypatch):
        # The main radius 0.1 is also a scaling radius: one rule and one jet
        # serve both, and the reused mean has the bits of a fresh one.
        built = []

        def counting(cap, *orders):
            built.append(cap.radius)
            return build_gauss_rule(cap, *orders)

        monkeypatch.setattr("hopfcap.checks.build_gauss_rule", counting)
        reports = check_small_cap_counterexample(radius=0.1, scaling_radii=(0.05, 0.1, 0.2))
        assert built == [0.1, 0.05, 0.2]
        cap = CapDomain(NORTH, 0.1)
        fresh = energy(small_cap_field(cap), cap, build_gauss_rule(cap, 32, 16, 32))
        assert reports[-1].context["means"][1] == fresh.derivative_term / cap_volume(cap)

    def test_quadratic_scaling_slope(self):
        rep = {r.name: r for r in check_small_cap_counterexample(radius=0.1, scaling_radii=SMALL_CAP_SCALING_RADII)}[
            "small_cap_gradient_scaling"
        ]
        assert rep.lhs == pytest.approx(2.0, abs=0.2)


class TestRunAll:
    def test_default_matrix_all_pass(self, cap):
        for field in (hopf_field(), perturbed_field(cap, BumpProfile(0.5, 3))):
            reports = run_all(verify_config(cap, field, (48, 24, 48)))
            assert reports and all(r.passed for r in reports)

    def test_twisted_field_skips_image_volume(self, cap):
        field = perturbed_field(cap, BumpProfile(1.2, 2), twist="angular")
        config = verify_config(cap, field, (32, 16, 32))
        reports = run_all(config)
        assert all(r.passed for r in reports)
        assert not any(r.name.startswith("image_volume") for r in reports)
        # Central differences straddle the twist axis's singular azimuth.
        assert "ad_fd_jet_agreement" not in {r.name for r in reports}

    def test_small_cap_field_routes_to_counterexample(self, cap):
        config = verify_config(cap, small_cap_field(CapDomain(NORTH, 0.1)), (32, 16, 32))
        names = {r.name for r in run_all(config)}
        assert "small_cap_energy_below_hopf" in names
        assert "boundary_sigma2_integral" not in names

    @pytest.mark.parametrize("kind", ["hopf", "perturbed", "small-cap"])
    def test_untwisted_fields_have_the_ad_fd_row(self, kind):
        field, domain = field_of_kind(kind)
        reports = {r.name: r for r in _field_reports(verify_config(domain, field, (32, 16, 32), t_grid=()))}
        rep = reports["ad_fd_jet_agreement"]
        assert rep.passed and rep.lhs <= 1e-8
        assert rep.policy == "abs" and rep.tolerance == 1e-6
        assert rep.context["field"] == kind
        assert "mode" not in rep.context
        assert rep.context["nodes"] <= ORACLE_NODES

    def test_reports_serialize(self, cap):
        config = verify_config(cap, hopf_field(), (16, 8, 16), t_grid=(0.1,))
        for r in run_all(config):
            d = r.to_dict()
            assert isinstance(r, CheckReport)
            assert set(d) == {
                "name", "lhs", "rhs", "abs_err", "rel_err",
                "tolerance", "passed", "policy", "context",
            }

    def test_zero_targets_have_no_relative_error(self, cap):
        config = verify_config(cap, perturbed_field(cap, BumpProfile(0.5, 3)), (16, 8, 16), t_grid=(0.1,))
        reports = {r.name: r for r in check_hopf_constants(n_points=5_000, seed=0, mode="ad") + _field_reports(config)}
        for name in ("hopf_sigma1_zero", "hopf_sigma2_one", "boundary_sigma1_integral"):
            r = reports[name]
            assert r.rhs == 0.0 and r.policy == "abs"
            assert r.rel_err is None and r.to_dict()["rel_err"] is None
            assert r.passed and r.abs_err == abs(r.lhs)
        for r in reports.values():
            if r.rhs != 0.0:
                assert r.rel_err == pytest.approx(r.abs_err / abs(r.rhs))


class TestVerifyConfigRows:
    """VerifyConfig decides which rows a run holds; _field_reports reads them off."""

    @pytest.mark.parametrize("kind", FIELD_KINDS)
    def test_offsets_resolve_by_field(self, kind):
        field, domain = field_of_kind(kind)
        config = verify_config(domain, field, (16, 8, 16))
        assert config.t_grid == ((0.05, 0.10, 0.15, 0.20, 0.25, 0.30) if kind in ("hopf", "perturbed") else ())
        assert config.stride == (None if kind == "angular" else _oracle_stride(config.rule.size))
        assert config.counterexample == (kind == "small-cap")

    def test_a_run_tests_its_field_once(self, monkeypatch, tmp_path):
        # The configuration decides the rows; the run reads its decisions.
        calls = []

        def counting(field):
            calls.append(field.label)
            return _singular(field)

        monkeypatch.setattr(checks, "_singular", counting)
        args = ["verify", "--field", "perturbed", "--orders", "16,8,16", "--output", str(tmp_path / "v.json")]
        assert main(args) == 0
        assert calls == ["perturbed"]

    @pytest.mark.parametrize("kind", ["angular", "small-cap"])
    def test_offsets_for_a_field_without_image_volume_rows_rejected(self, kind):
        field, domain = field_of_kind(kind)
        twist = "angular" if kind == "angular" else "none"
        with pytest.raises(ValueError, match=f"field '{field.label}' with twist '{twist}' has no image-volume rows"):
            verify_config(domain, field, (16, 8, 16), t_grid=(0.1,))
        assert verify_config(domain, field, (16, 8, 16), t_grid=()).t_grid == ()

    @pytest.mark.parametrize("kind", FIELD_KINDS)
    def test_row_names_in_order(self, kind):
        field, domain = field_of_kind(kind)
        boundary = ["boundary_sigma2_integral", "boundary_sigma1_integral", "energy_bound", "volume_bound"]
        images = [f"image_volume_t{t}" for t in ("0.05", "0.1", "0.15", "0.2", "0.25", "0.3")]
        expected = {
            "hopf": boundary + ["ad_fd_jet_agreement"] + images,
            "perturbed": boundary + ["ad_fd_jet_agreement"] + images,
            "angular": boundary,
            "small-cap": [
                "small_cap_energy_below_hopf",
                "small_cap_volume_below_hopf",
                "small_cap_mean_gradient_sq",
                "small_cap_gradient_scaling",
                "ad_fd_jet_agreement",
            ],
        }[kind]
        assert [r.name for r in _field_reports(verify_config(domain, field, (16, 8, 16)))] == expected
