import numpy as np
import pytest

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
    hopf_field,
    perturbed_field,
    run_all,
    small_cap_field,
    sweep_family,
    sweep_reports,
)

NORTH = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))


def field_rows(field, cap, orders=(48, 24, 48), t_grid=()):
    """run_all's reports for one field, by name, without the Hopf-constant rows."""
    config = VerifyConfig(cap=cap, fields=[field], orders=orders, t_grid=t_grid, hopf_points=2_000)
    return {r.name: r for r in run_all(config)[2:]}


@pytest.fixture(scope="module")
def cap():
    return CapDomain(NORTH, 1.0)


class TestHopfConstants:
    def test_ad_mode(self):
        reports = check_hopf_constants(n_points=20_000, mode="ad")
        assert all(r.passed for r in reports)
        assert {r.name for r in reports} == {"hopf_sigma1_zero", "hopf_sigma2_one"}
        assert all(r.tolerance == 1e-9 for r in reports)

    def test_fd_mode_degrades_gracefully(self):
        reports = check_hopf_constants(n_points=5_000, mode="fd")
        assert all(r.passed for r in reports)
        assert all(r.tolerance == 1e-6 for r in reports)
        assert all(r.context["mode"] == "fd" for r in reports)

    def test_fd_mode_fails_at_machine_tolerance(self):
        reports = check_hopf_constants(n_points=5_000, mode="fd", tolerance=1e-12)
        assert not all(r.passed for r in reports)


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
        f = UnitField("opaque", small_cap_field(CapDomain(NORTH, 0.1)).evaluator)
        with pytest.raises(ValueError, match="not known to match"):
            VerifyConfig(cap=cap, fields=[f])

    def test_smaller_target_cap_raises(self, cap):
        f = perturbed_field(cap, BumpProfile(0.5, 3))
        with pytest.raises(ValueError, match="not known to match"):
            VerifyConfig(cap=CapDomain(NORTH, 0.5), fields=[f])


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


class TestSweep:
    def test_grid_must_include_zero(self, cap, coarse_rule):
        with pytest.raises(ValueError):
            sweep_family(cap, (0.25, 0.5), coarse_rule)

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
        result = sweep_family(cap, (-0.5, 0.0, 0.5), coarse_rule, refine=False)
        assert result.energies[0] == pytest.approx(result.energies[2], rel=1e-9)
        assert result.volumes[0] == pytest.approx(result.volumes[2], rel=1e-9)

    def test_monotone_on_positive_branch(self, cap, coarse_rule):
        result = sweep_family(cap, (0.0, 0.5, 1.0), coarse_rule, refine=False)
        assert result.energies[1] < result.energies[2]
        assert result.volumes[1] < result.volumes[2]


class TestSmallCapCounterexample:
    def test_all_reports_pass(self):
        reports = check_small_cap_counterexample()
        names = [r.name for r in reports]
        assert names == [
            "small_cap_energy_below_hopf",
            "small_cap_volume_below_hopf",
            "small_cap_mean_gradient_sq",
            "small_cap_gradient_scaling",
        ]
        assert all(r.passed for r in reports), reports

    def test_strictly_beats_hopf(self):
        reports = {r.name: r for r in check_small_cap_counterexample()}
        e = reports["small_cap_energy_below_hopf"]
        v = reports["small_cap_volume_below_hopf"]
        # lhs is the Hopf value, rhs the small-cap field value: strict win.
        assert e.lhs > e.rhs
        assert v.lhs > v.rhs

    def test_quadratic_scaling_slope(self):
        rep = {r.name: r for r in check_small_cap_counterexample()}[
            "small_cap_gradient_scaling"
        ]
        assert rep.lhs == pytest.approx(2.0, abs=0.2)


class TestRunAll:
    def test_empty_field_matrix(self, cap):
        assert run_all(VerifyConfig(cap=cap, fields=[])) == []

    def test_default_matrix_all_pass(self, cap):
        config = VerifyConfig(
            cap=cap,
            fields=[hopf_field(), perturbed_field(cap, BumpProfile(0.5, 3))],
            orders=(48, 24, 48),
        )
        reports = run_all(config)
        assert reports and all(r.passed for r in reports)

    def test_twisted_field_skips_image_volume(self, cap):
        config = VerifyConfig(
            cap=cap,
            fields=[perturbed_field(cap, BumpProfile(1.2, 2), twist="angular")],
            orders=(32, 16, 32),
        )
        reports = run_all(config)
        assert all(r.passed for r in reports)
        assert not any(r.name.startswith("image_volume") for r in reports)

    def test_small_cap_field_routes_to_counterexample(self, cap):
        config = VerifyConfig(
            cap=cap, fields=[small_cap_field(CapDomain(NORTH, 0.1))], orders=(32, 16, 32)
        )
        names = {r.name for r in run_all(config)}
        assert "small_cap_energy_below_hopf" in names
        assert "boundary_sigma2_integral" not in names

    def test_tightened_tolerance_fails(self, cap):
        config = VerifyConfig(
            cap=cap,
            fields=[hopf_field()],
            orders=(16, 8, 16),
            t_grid=(0.1,),
            mode="fd",
            sigma_tolerance=1e-12,
            hopf_points=5_000,
        )
        reports = run_all(config)
        assert any(not r.passed for r in reports)

    def test_reports_serialize(self, cap):
        config = VerifyConfig(cap=cap, fields=[hopf_field()], orders=(16, 8, 16), t_grid=(0.1,))
        for r in run_all(config):
            d = r.to_dict()
            assert isinstance(r, CheckReport)
            assert set(d) == {
                "name", "lhs", "rhs", "abs_err", "rel_err",
                "tolerance", "passed", "policy", "context",
            }

    def test_zero_targets_have_no_relative_error(self, cap):
        config = VerifyConfig(
            cap=cap,
            fields=[perturbed_field(cap, BumpProfile(0.5, 3))],
            orders=(16, 8, 16),
            t_grid=(0.1,),
            hopf_points=5_000,
        )
        reports = {r.name: r for r in run_all(config)}
        for name in ("hopf_sigma1_zero", "hopf_sigma2_one", "boundary_sigma1_integral"):
            r = reports[name]
            assert r.rhs == 0.0 and r.policy == "abs"
            assert r.rel_err is None and r.to_dict()["rel_err"] is None
            assert r.passed and r.abs_err == abs(r.lhs)
        for r in reports.values():
            if r.rhs != 0.0:
                assert r.rel_err == pytest.approx(r.abs_err / abs(r.rhs))
