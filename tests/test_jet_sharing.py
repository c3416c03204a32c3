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
    SpherePoint,
    VerifyConfig,
    build_gauss_rule,
    check_boundary_identity,
    check_change_of_variables,
    check_energy_bound,
    check_hopf_constants,
    check_sigma1_integral,
    check_volume_bound,
    energy_lower_bound_gap,
    hopf_field,
    jet_batch,
    perturbed_field,
    run_all,
    sweep_family,
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

    def test_energy_lower_bound_gap_one_jet(self, jet_calls):
        energy_lower_bound_gap(perturbed(), CAP, build_gauss_rule(CAP, *ORDERS))
        assert len(jet_calls) == 1


@pytest.mark.parametrize("field", [hopf_field(), perturbed()], ids=["hopf", "perturbed"])
def test_run_all_equals_standalone_checks(field):
    config = VerifyConfig(CAP, [field], orders=ORDERS, hopf_points=HOPF_POINTS)
    rule = config.build_rule()

    def fresh():
        return jet_batch(field, rule.nodes, mode=config.mode)

    expected = check_hopf_constants(n_points=HOPF_POINTS, seed=config.seed, mode=config.mode)
    expected += [
        check_boundary_identity(field, CAP, rule, fresh()),
        check_sigma1_integral(field, CAP, rule, fresh()),
        check_energy_bound(field, CAP, rule, fresh()),
        check_volume_bound(field, CAP, rule, fresh()),
    ]
    expected += check_change_of_variables(field, CAP, rule, fresh(), config.t_grid)
    assert [r.to_dict() for r in run_all(config)] == [r.to_dict() for r in expected]
