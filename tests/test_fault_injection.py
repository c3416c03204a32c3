"""A certificate that can fail: faults injected into the jet and its reductions.

The ``dual`` faults change only a derivative (the ``eps`` part) of one dual
operation, so the AD jet goes wrong while every plain value keeps its bits.
The checks reduced from the AD jet alone can pass such a jet; the
``ad_fd_jet_agreement`` row compares it with central differences of plain
values, which the fault cannot reach, and fails.  Each is injected through
a field whose frame components run the faulted operation: the perturbed
field, or the small-cap field for the in-place product, which the
perturbed field does not form.

The cross-term fault flips the sign of [u]x in the AD jet's
B = du + [u]x, which the FD jet does not form, so the same row fails.  The
other jet-level faults change an invariant after ``_jet_block`` forms it,
or the reduction of the image volume, so the AD and FD jets share them.
Each is caught by a named row, or is a strict ``xfail`` naming the ROADMAP
row meant to catch it: when that row lands the test passes and the mark
must go.
"""

import dataclasses

import numpy as np
import pytest

from hopfcap import (
    BumpProfile,
    CapDomain,
    SpherePoint,
    VerifyConfig,
    build_gauss_rule,
    perturbed_field,
    run_all,
    small_cap_field,
)
from hopfcap import calculus
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


def in_place_product_without_cross_term(self, other):
    # eps * other.val alone: the term val * other.eps is dropped.
    self.eps *= other.val
    self.val *= other.val
    return self


# fault -> (dual operation, replacement, field whose certificate runs it)
FAULTS = {
    "sincos_sine_sign": ("sincos", sine_derivative_sign_flipped, "perturbed"),
    "arccos_times_0.9": ("arccos", arccos_derivative_scaled, "perturbed"),
    "pow_n_v_to_the_n": ("Dual.__pow__", pow_derivative_exponent_n, "perturbed"),
    "imul_drops_cross_term": ("Dual.__imul__", in_place_product_without_cross_term, "small-cap"),
}

# The small-cap field on a cap where its own rows pass.
SMALL_CAP = CapDomain(SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])), 0.3)


@pytest.fixture(scope="module")
def configs(unit_cap_rule):
    """Field name -> the verify configuration of that field on its cap."""
    cap = unit_cap_rule.domain
    return {
        "perturbed": VerifyConfig(perturbed_field(cap, BumpProfile(0.5, 3)), unit_cap_rule, 0, None),
        "small-cap": VerifyConfig(small_cap_field(SMALL_CAP), build_gauss_rule(SMALL_CAP, 32, 16, 32), 0, None),
    }


def certificate(config):
    return {r.name: r for r in run_all(config)}


def _assert_every_row_passes(config):
    reports = certificate(config)
    assert [name for name, r in reports.items() if not r.passed] == []
    assert reports["ad_fd_jet_agreement"].lhs <= 1e-8


def test_no_fault_passes_every_row(configs):
    _assert_every_row_passes(configs["perturbed"])


def test_no_fault_passes_every_small_cap_row(configs):
    # The in-place product's fault is injected here, so this oracle row
    # must pass without it.
    _assert_every_row_passes(configs["small-cap"])


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_the_ad_fd_row(fault, configs, monkeypatch):
    name, replacement, field = FAULTS[fault]
    if name.startswith("Dual."):
        monkeypatch.setattr(du.Dual, name.removeprefix("Dual."), replacement)
    else:
        monkeypatch.setattr(du, name, replacement)
    row = certificate(configs[field])["ad_fd_jet_agreement"]
    assert not row.passed
    assert row.lhs > 1e-2


def _jet_block_then(edit):
    """``calculus._jet_block`` followed by ``edit`` of its (4, n) rows:
    sigma1, sigma2, energy density, volume integrand."""
    jet_block = calculus._jet_block

    def faulty(field, x, mode, frame_rotation, out):
        jet_block(field, x, mode, frame_rotation, out)
        edit(out)

    return faulty


def energy_density_is_2_sigma2(out):
    np.multiply(out[1], 2.0, out=out[2])


def volume_integrand_without_cofactors(out):
    np.sqrt(1.0 + out[2], out=out[3])


def sigma1_sign_flipped(out):
    np.negative(out[0], out=out[0])


def image_volume_with_minus_sigma1(field, rule, offsets, stride):
    """``jet_sums`` whose determinants read 1 - sigma1 t + sigma2 t^2.

    That is the polynomial at -t, with the same bits, so the sums at the
    negated offsets are filed under the offsets asked for.
    """
    sums = calculus.jet_sums(field, rule, [-t for t in offsets], stride)
    return dataclasses.replace(
        sums,
        determinant={-t: v for t, v in sums.determinant.items()},
        polynomial_min={-t: v for t, v in sums.polynomial_min.items()},
    )


def _uncaught(row):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"no row catches it yet; {row} is meant to")


# B = du - [u]x: each entry of the cross term with its sign flipped.
CROSS_TERM_SIGN_FLIPPED = tuple((a, b, c, -sign) for a, b, c, sign in calculus._CROSS)


JET_FAULTS = [
    pytest.param(
        "hopfcap.calculus._CROSS", CROSS_TERM_SIGN_FLIPPED, "ad_fd_jet_agreement", id="cross_term_sign_flipped",
    ),
    pytest.param(
        "hopfcap.calculus._jet_block", _jet_block_then(energy_density_is_2_sigma2), None,
        marks=_uncaught("ROADMAP item 2's energy_surplus_radial"), id="energy_density_2_sigma2",
    ),
    pytest.param(
        "hopfcap.calculus._jet_block", _jet_block_then(volume_integrand_without_cofactors), "volume_bound",
        id="volume_without_cofactors",
    ),
    pytest.param(
        "hopfcap.calculus._jet_block", _jet_block_then(sigma1_sign_flipped), None,
        marks=_uncaught("ROADMAP item 2's jacobian_det_routes"), id="sigma1_sign_flipped",
    ),
    pytest.param(
        "hopfcap.checks.jet_sums", image_volume_with_minus_sigma1, None,
        marks=_uncaught("ROADMAP item 3's independent image volume"), id="image_volume_minus_sigma1",
    ),
]


@pytest.mark.parametrize("target, replacement, row", JET_FAULTS)
def test_jet_fault_fails_a_row(target, replacement, row, configs, monkeypatch):
    monkeypatch.setattr(target, replacement)
    failing = [name for name, r in certificate(configs["perturbed"]).items() if not r.passed]
    if row is None:
        assert failing
    else:
        assert row in failing
