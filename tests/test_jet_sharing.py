"""One jet per (field, rule, mode): checks and functionals reduce a shared batch.

The ``jet_calls`` fixture wraps ``jet_batch`` in every hopfcap module that
imported it, so each evaluation the package makes is recorded with its field.
"""

import sys

import numpy as np
import pytest

from hopfcap import (
    BumpProfile,
    CapDomain,
    DisplacementMap,
    SpherePoint,
    VerifyConfig,
    build_gauss_rule,
    cap_volume,
    check_hopf_constants,
    energy,
    hopf_field,
    image_volume,
    integrate,
    jet_batch,
    perturbed_field,
    run_all,
    sweep_family,
    volume,
)
from hopfcap.cli import main

CAP = CapDomain(SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])), 1.0)
ORDERS = (16, 8, 16)
HOPF_POINTS = 2_000


@pytest.fixture
def jet_calls(monkeypatch):
    calls = []

    def counting(field, points, *args, **kwargs):
        calls.append(field)
        return jet_batch(field, points, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hopfcap") and getattr(module, "jet_batch", None) is jet_batch:
            monkeypatch.setattr(module, "jet_batch", counting)
    return calls


def perturbed(amplitude=0.5):
    return perturbed_field(CAP, BumpProfile(amplitude, 3))


class TestJetCounts:
    def test_run_all_one_jet_per_field(self, jet_calls):
        field = perturbed()
        reports = run_all(VerifyConfig(CAP, [field], orders=ORDERS, hopf_points=HOPF_POINTS))
        assert len(reports) == 12
        # The Hopf-constants points, then the field at the rule's nodes.
        assert [f.label for f in jet_calls] == ["hopf", "perturbed"]
        assert jet_calls[1] is field

    def test_run_all_two_fields(self, jet_calls):
        fields = [hopf_field(), perturbed()]
        run_all(VerifyConfig(CAP, fields, orders=ORDERS, hopf_points=HOPF_POINTS))
        assert jet_calls[1:] == fields

    def test_sweep_one_jet_per_distinct_amplitude(self, jet_calls):
        grid = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
        rule = build_gauss_rule(CAP, *ORDERS)
        sweep_family(CAP, grid, rule)
        amps = [f.params["amplitude"] for f in jet_calls]
        assert len(amps) == len(set(amps))
        assert set(grid) < set(amps)  # the golden-section steps add amplitudes

    def test_functionals_command_one_jet(self, jet_calls, tmp_path):
        out = tmp_path / "f.json"
        args = ["functionals", "--field", "perturbed", "--orders", "16,8,16"]
        assert main([*args, "--output", str(out)]) == 0
        assert len(jet_calls) == 1

    def test_verify_command_two_jets(self, jet_calls, tmp_path):
        out = tmp_path / "v.json"
        args = ["verify", "--field", "perturbed", "--orders", "16,8,16"]
        assert main([*args, "--output", str(out)]) == 0
        assert len(jet_calls) == 2


@pytest.mark.parametrize("field", [hopf_field(), perturbed()], ids=["hopf", "perturbed"])
def test_run_all_equals_standalone_checks(field):
    """run_all's rows against the entry points that build their own jet from the field."""
    config = VerifyConfig(CAP, [field], orders=ORDERS, hopf_points=HOPF_POINTS)
    rule = config.build_rule()
    vol_k = cap_volume(CAP)
    integral_tol, bound_tol = config.integral_tolerance, config.bound_tolerance

    def integral(attr):
        jets = jet_batch(field, rule.nodes, mode=config.mode)
        return integrate(rule, lambda _n: getattr(jets, attr))[0]

    expected = [
        ("boundary_sigma2_integral", integral("sigma2"), vol_k, integral_tol, "rel"),
        ("boundary_sigma1_integral", integral("sigma1"), 0.0, integral_tol * vol_k, "abs"),
        ("energy_bound", energy(field, CAP, rule).value, 2.5 * vol_k, bound_tol * vol_k, "lower-bound"),
        ("volume_bound", volume(field, CAP, rule).value, 2.0 * vol_k, bound_tol * vol_k, "lower-bound"),
    ]
    expected += [
        (
            f"image_volume_t{t:g}",
            image_volume(DisplacementMap(field, t), CAP, rule)[0],
            vol_k * (1.0 + t * t) ** 1.5,
            integral_tol,
            "rel",
        )
        for t in config.t_grid
    ]
    reports = run_all(config)
    hopf = check_hopf_constants(n_points=HOPF_POINTS, seed=config.seed, mode=config.mode)
    assert [r.to_dict() for r in reports[:2]] == [r.to_dict() for r in hopf]
    assert [(r.name, r.lhs, r.rhs, r.tolerance, r.policy) for r in reports[2:]] == expected
    assert all(r.passed for r in reports)
