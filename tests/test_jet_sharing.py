"""One jet per (field, rule, mode): checks and functionals reduce one streamed jet.

The ``jet_calls`` fixture wraps ``jet_batch`` and the streaming driver
``jet_sums`` in every hopfcap module that imported them, so each evaluation
the package makes is recorded with its field, node count and
differentiation mode (``jet_sums`` is AD over every node of its rule).  The
one FD jet of a report is the AD-against-FD oracle's, on a subsample of the
rule's nodes.
"""

import sys
from types import SimpleNamespace

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
    jet_sums,
    perturbed_field,
    run_all,
    sweep_family,
    volume,
)
from hopfcap import checks
from hopfcap.cli import main

CAP = CapDomain(SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])), 1.0)
ORDERS = (16, 8, 16)


@pytest.fixture
def jet_calls(monkeypatch):
    calls = []

    def counting_batch(field, points, mode="ad", **kwargs):
        calls.append(SimpleNamespace(field=field, nodes=len(points), mode=mode))
        return jet_batch(field, points, mode, **kwargs)

    def counting_sums(field, rule, offsets, stride):
        calls.append(SimpleNamespace(field=field, nodes=rule.size, mode="ad"))
        return jet_sums(field, rule, offsets, stride)

    counters = {"jet_batch": (jet_batch, counting_batch), "jet_sums": (jet_sums, counting_sums)}
    for name, module in list(sys.modules.items()):
        if name.startswith("hopfcap"):
            for attr, (original, counting) in counters.items():
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def perturbed(amplitude=0.5):
    return perturbed_field(CAP, BumpProfile(amplitude, 3))


class TestJetCounts:
    def test_run_all_one_jet_per_field(self, jet_calls):
        field = perturbed()
        config = VerifyConfig(field, build_gauss_rule(CAP, *ORDERS), 0, None)
        reports = run_all(config)
        assert len(reports) == 13
        # The Hopf-constants points, the field at the rule's nodes, then the
        # field in FD mode at the oracle's subsample (here every node).
        assert [(c.field.label, c.mode) for c in jet_calls] == [
            ("hopf", "ad"), ("perturbed", "ad"), ("perturbed", "fd"),
        ]
        assert jet_calls[1].field is field and jet_calls[2].field is field
        assert jet_calls[1].nodes == jet_calls[2].nodes == config.rule.size

    def test_sweep_one_jet_per_distinct_amplitude(self, jet_calls):
        grid = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
        rule = build_gauss_rule(CAP, *ORDERS)
        sweep_family(CAP, grid, rule)
        amps = [c.field.params["amplitude"] for c in jet_calls]
        assert len(amps) == len(set(amps))
        assert set(grid) < set(amps)  # the refinement steps add amplitudes
        # Both searches start from the grid's argmin 0 and its neighbours
        # +-0.25, and the even family's parabola sends them to the same two
        # steps, 0 +- TOL_SWEEP_LOC / 4: 7 grid jets and 2 more.
        assert len(amps) == 9

    def test_functionals_command_one_jet(self, jet_calls, tmp_path):
        out = tmp_path / "f.json"
        args = ["functionals", "--field", "perturbed", "--orders", "16,8,16"]
        assert main([*args, "--output", str(out)]) == 0
        assert len(jet_calls) == 1

    def test_verify_command_two_jets(self, jet_calls, tmp_path):
        # One jet per (field, rule, mode): two AD jets (the Hopf points and
        # the field) and the oracle's FD jet on a subsample of the nodes.
        out = tmp_path / "v.json"
        args = ["verify", "--field", "perturbed", "--orders", "32,16,32"]
        assert main([*args, "--output", str(out)]) == 0
        assert [(c.field.label, c.mode) for c in jet_calls] == [
            ("hopf", "ad"), ("perturbed", "ad"), ("perturbed", "fd"),
        ]
        assert jet_calls[1].nodes == 32 * 16 * 32
        assert jet_calls[2].nodes < jet_calls[1].nodes


@pytest.mark.parametrize("field", [hopf_field(), perturbed()], ids=["hopf", "perturbed"])
def test_run_all_equals_standalone_checks(field):
    """run_all's rows against the entry points that build their own jet from the field."""
    rule = build_gauss_rule(CAP, *ORDERS)
    config = VerifyConfig(field, rule, 0, None)
    vol_k = cap_volume(CAP)
    integral_tol, bound_tol = checks.TOL_INTEGRAL_REL, checks.TOL_BOUND_REL

    def integral(attr):
        jets = jet_batch(field, rule.nodes)
        return integrate(rule, lambda _n: getattr(jets, attr))[0]

    def ad_fd_deviation():
        # The rule has fewer nodes than the oracle's sample: it takes them all.
        assert rule.size <= checks.ORACLE_NODES
        ad, fd = jet_batch(field, rule.nodes), jet_batch(field, rule.nodes, mode="fd")
        return max(
            np.max(np.abs(getattr(ad, a) - getattr(fd, a)) / np.maximum(1.0, np.abs(getattr(ad, a))))
            for a in ("sigma1", "sigma2", "energy_density", "volume_integrand")
        )

    expected = [
        ("boundary_sigma2_integral", integral("sigma2"), vol_k, integral_tol, "rel"),
        ("boundary_sigma1_integral", integral("sigma1"), 0.0, integral_tol * vol_k, "abs"),
        ("energy_bound", energy(field, CAP, rule).value, 2.5 * vol_k, bound_tol * vol_k, "lower-bound"),
        ("volume_bound", volume(field, CAP, rule).value, 2.0 * vol_k, bound_tol * vol_k, "lower-bound"),
        ("ad_fd_jet_agreement", ad_fd_deviation(), 0.0, checks.TOL_SIGMA["fd"], "abs"),
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
    hopf = check_hopf_constants(checks.ORACLE_NODES, config.seed, "ad")
    assert [r.to_dict() for r in reports[:2]] == [r.to_dict() for r in hopf]
    assert [(r.name, r.lhs, r.rhs, r.tolerance, r.policy) for r in reports[2:]] == expected
    assert all(r.passed for r in reports)
