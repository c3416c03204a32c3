"""A certificate that can fail: faults injected into ``dual``'s derivative rules.

Each fault changes only a derivative (the ``eps`` part) of one dual
operation, so the AD jet goes wrong while every plain value keeps its bits.
The checks reduced from the AD jet alone can pass such a jet; the
``ad_fd_jet_agreement`` row compares it with central differences of plain
values, which the fault cannot reach, and fails.
"""

import numpy as np
import pytest

from hopfcap import BumpProfile, VerifyConfig, build_gauss_rule, perturbed_field, run_all
from hopfcap import dual as du


def sine_derivative_sign_flipped(x):
    s, c = np.sin(x.val), np.cos(x.val)
    return du.Dual(s, -c * x.eps), du.Dual(c, -s * x.eps)


def arccos_derivative_scaled(x):
    v = np.clip(x.val, -1.0, 1.0)
    denom = np.sqrt(np.maximum(1.0 - v * v, du._DENOM_FLOOR))
    return du.Dual(np.arccos(v), -0.9 * x.eps / denom)


def pow_derivative_exponent_n(self, n):
    return du.Dual(self.val**n, n * self.val**n * self.eps)


FAULTS = {
    "sincos_sine_sign": ("sincos", sine_derivative_sign_flipped),
    "arccos_times_0.9": ("arccos", arccos_derivative_scaled),
    "pow_n_v_to_the_n": ("Dual.__pow__", pow_derivative_exponent_n),
}


def certificate(unit_cap_rule):
    cap = unit_cap_rule.domain
    config = VerifyConfig(perturbed_field(cap, BumpProfile(0.5, 3)), unit_cap_rule)
    return {r.name: r for r in run_all(config)}


def test_no_fault_passes_every_row(unit_cap_rule):
    reports = certificate(unit_cap_rule)
    assert [name for name, r in reports.items() if not r.passed] == []
    assert reports["ad_fd_jet_agreement"].lhs <= 1e-8


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_the_ad_fd_row(fault, unit_cap_rule, monkeypatch):
    name, replacement = FAULTS[fault]
    if name == "Dual.__pow__":
        monkeypatch.setattr(du.Dual, "__pow__", replacement)
    else:
        monkeypatch.setattr(du, name, replacement)
    row = certificate(unit_cap_rule)["ad_fd_jet_agreement"]
    assert not row.passed
    assert row.lhs > 1e-2
