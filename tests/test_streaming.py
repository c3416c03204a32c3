"""The jet streamed over the rule: blocks of nodes built from the rule's
factors, and every reduction made inside the block.

The oracles are the whole arrays: the tensor-grid formula for a Gauss
rule's nodes and weights, and ``integrate`` over ``jet_batch`` rows at
``rule.nodes``.  Both sides combine the same block sums, so they agree bit
for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hopfcap import (
    BumpProfile,
    CapDomain,
    QuadratureRule,
    SpherePoint,
    UnitField,
    VerifyConfig,
    build_gauss_rule,
    build_mc_rule,
    energy_and_volume,
    hopf_field,
    integrate,
    jet_batch,
    jet_sums,
    perturbed_field,
    run_all,
    small_cap_field,
    sweep_family,
)
from hopfcap import dual as du
from hopfcap.checks import _oracle_stride
from hopfcap.geometry import tangent_basis
from hopfcap.quadrature import JET_BLOCK, _gauss_legendre

INVARIANTS = ("sigma1", "sigma2", "energy_density", "volume_integrand")
UNIT_CAP = CapDomain(SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])), 1.0)
_C = np.array([0.3, -0.5, 0.7, 0.2])
OFF_CAP = CapDomain(SpherePoint(_C / np.linalg.norm(_C)), 0.7)


def whole_gauss_arrays(cap, n_rho, n_theta, n_phi):
    """The (N, 4) nodes and (N,) weights of a Gauss rule, formed as whole tensor-grid arrays."""
    xr, wr = _gauss_legendre(n_rho)
    rho = 0.5 * cap.radius * (xr + 1.0)
    wrho = 0.5 * cap.radius * wr * np.sin(rho) ** 2
    xt, wt = _gauss_legendre(n_theta)
    theta = 0.5 * math.pi * (xt + 1.0)
    wtheta = 0.5 * math.pi * wt * np.sin(theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = np.full(n_phi, 2.0 * math.pi / n_phi)
    weights = (wrho[:, None, None] * wtheta[None, :, None] * wphi[None, None, :]).ravel()
    b1, b2, b3 = tangent_basis(cap.center)
    st = np.sin(theta)[:, None, None]
    direction = st * np.cos(phi)[:, None] * b1 + st * np.sin(phi)[:, None] * b2 + np.cos(theta)[:, None, None] * b3
    nodes = np.sin(rho)[:, None, None, None] * direction
    nodes += np.cos(rho)[:, None, None, None] * cap.center.x
    return nodes.reshape(-1, 4), weights


class TestRuleBlocks:
    @pytest.mark.parametrize(
        "cap,orders", [(UNIT_CAP, (96, 48, 96)), (OFF_CAP, (33, 17, 29))], ids=["unit-96", "off-centre-33"]
    )
    def test_blocks_are_the_whole_arrays(self, cap, orders):
        rule = build_gauss_rule(cap, *orders)
        nodes, weights = whole_gauss_arrays(cap, *orders)
        bounds = list(rule.blocks())
        assert bounds[0][0] == 0 and bounds[-1][1] == rule.size == len(weights)
        if orders == (33, 17, 29):
            # A partial last block, and blocks that start inside a rho-slab.
            assert rule.size % JET_BLOCK and any(start % (17 * 29) for start, _ in bounds)
        for start, stop in bounds:
            x, w = rule.block(start, stop)
            assert x.shape == (4, stop - start) and x.flags.c_contiguous
            assert x.tobytes() == np.ascontiguousarray(nodes[start:stop].T).tobytes()
            assert w.tobytes() == weights[start:stop].tobytes()
        # An arbitrary span, cutting slabs at both ends.
        x, w = rule.block(1000, 7001)
        assert x.tobytes() == np.ascontiguousarray(nodes[1000:7001].T).tobytes()
        assert w.tobytes() == weights[1000:7001].tobytes()
        assert rule.nodes.tobytes() == nodes.tobytes() and rule.weights.tobytes() == weights.tobytes()

    def test_whole_arrays_are_built_once(self):
        rule = build_gauss_rule(UNIT_CAP, 16, 8, 16)
        assert rule.nodes is rule.nodes and rule.weights is rule.weights

    def test_monte_carlo_blocks_slice_its_arrays(self):
        rule = build_mc_rule(OFF_CAP, 20_000, seed=4)
        assert [b for b in rule.blocks()] == [(0, 8192), (8192, 16384), (16384, 20_000)]
        for start, stop in rule.blocks():
            x, w = rule.block(start, stop)
            assert x.tobytes() == np.ascontiguousarray(rule.nodes[start:stop].T).tobytes()
            assert w.tobytes() == rule.weights[start:stop].tobytes()


@pytest.mark.parametrize(
    "rule",
    [build_gauss_rule(OFF_CAP, 33, 17, 29), build_mc_rule(OFF_CAP, 20_000, seed=5)],
    ids=["gauss", "montecarlo"],
)
def test_streamed_sums_are_integrate_over_jet_rows(rule):
    # N > JET_BLOCK, so the sums combine several blocks.
    assert rule.size > JET_BLOCK
    field = perturbed_field(OFF_CAP, BumpProfile(1.2, 3))
    offsets = (0.1, 0.3)
    stride = _oracle_stride(rule.size)
    sums = jet_sums(field, rule, offsets, stride)
    jets = jet_batch(field, rule.nodes)
    for name in INVARIANTS:
        assert getattr(sums, name) == integrate(rule, lambda _n: getattr(jets, name)), name
    for t in offsets:
        poly = 1.0 + jets.sigma1 * t + jets.sigma2 * t * t
        assert sums.polynomial_min[t] == (np.min(poly), int(np.argmin(poly)))
        assert sums.determinant[t] == integrate(rule, lambda _n: math.sqrt(1.0 + t * t) * poly)
    assert sums.sample_nodes.tobytes() == rule.nodes[::stride].tobytes()
    for name in INVARIANTS:
        assert getattr(sums.sample, name).tobytes() == getattr(jets, name)[::stride].tobytes()
    e, v = energy_and_volume(field, rule)
    assert e.derivative_term == sums.energy_density[0] and v.value == sums.volume_integrand[0]


@pytest.mark.parametrize(
    "offsets, stride, rows",
    [((), None, 29), ((0.05, 0.1, 0.2, 0.3, 0.4, 0.5), True, 37)],
    ids=["invariants", "six_offsets_and_stride"],
)
def test_jet_sums_peak_is_one_block(offsets, stride, rows):
    # 32 000 nodes are four blocks, the last partial, under tracemalloc.
    # The peak is one block's: its nodes, weights and rows and the field's
    # frame components (the seed's directions are not formed, B is written
    # over du and each cofactor is folded as it is formed), not a per-node
    # array: 28.1 and 35.9 rows of JET_BLOCK float64.
    rule = build_gauss_rule(UNIT_CAP, 40, 20, 40)
    assert rule.size > 3 * JET_BLOCK
    field = perturbed_field(UNIT_CAP, BumpProfile(0.5, 3))
    stride = _oracle_stride(rule.size) if stride else None
    tracemalloc.start()
    try:
        jet_sums(field, rule, offsets, stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * 8 * JET_BLOCK


@pytest.mark.parametrize("name", ["hopf", "perturbed", "twisted", "small-cap"])
def test_jet_sums_forms_no_norm(name, unit_cap_rule, monkeypatch):
    # The rule's nodes are unit and the evaluators read them as they are:
    # no block of the jet forms |x| or x / |x|.
    field = {
        "hopf": hopf_field(),
        "perturbed": perturbed_field(UNIT_CAP, BumpProfile(0.5, 3)),
        "twisted": perturbed_field(UNIT_CAP, BumpProfile(0.5, 3), twist="angular"),
        "small-cap": small_cap_field(CapDomain(UNIT_CAP.center, 0.3)),
    }[name]
    assert len(list(unit_cap_rule.blocks())) == 2
    calls = []
    for op in ("norm", "normalize"):
        monkeypatch.setattr(du, op, lambda x, op=op, run=getattr(du, op): calls.append(op) or run(x))
    jet_sums(field, unit_cap_rule, (0.1,), _oracle_stride(unit_cap_rule.size))
    assert calls == []


def test_bump_chain_runs_once_per_rho_slab(monkeypatch):
    # On a Gauss rule over a cap centred at 1, cos rho = <c, x> has one
    # value on each rho-slab, so the untwisted field's chain (through
    # arccos) sees one value per slab, plus one for each slab that a block
    # boundary splits: at most n_rho + blocks - 1 values, not one per node.
    rule = build_gauss_rule(UNIT_CAP, 32, 16, 32)
    blocks = len(list(rule.blocks()))
    assert blocks == 2
    seen = []
    monkeypatch.setattr(du, "arccos", lambda q, run=du.arccos: seen.append(q.val.size) or run(q))
    jet_sums(perturbed_field(UNIT_CAP, BumpProfile(0.5, 3)), rule, (0.1,), _oracle_stride(rule.size))
    assert len(seen) == blocks and sum(seen) <= 32 + blocks - 1


def test_non_finite_value_names_its_node_in_a_later_block():
    rule = build_gauss_rule(OFF_CAP, 33, 17, 29)
    node = JET_BLOCK + 4321
    bad = rule.nodes[node][:, None]
    hopf = hopf_field()

    def evaluate(x):
        v = hopf.evaluator(x)
        hit = np.all(x.val == bad, axis=0)
        return du.Dual(v.val, np.where(hit, np.nan, v.eps))

    poisoned = UnitField("poisoned", evaluate, {}, None)
    with pytest.raises(ValueError, match=rf"non-finite integrand value nan at node {node}: "):
        energy_and_volume(poisoned, rule)


def _forbidden(name):
    def read(_rule):
        raise AssertionError(f"rule.{name} built the whole array")

    return property(read)


def test_no_workload_builds_the_whole_arrays(monkeypatch):
    monkeypatch.setattr(QuadratureRule, "nodes", _forbidden("nodes"))
    monkeypatch.setattr(QuadratureRule, "weights", _forbidden("weights"))
    rule = build_gauss_rule(UNIT_CAP, 32, 16, 32)
    energy_and_volume(perturbed_field(UNIT_CAP, BumpProfile(0.5, 3)), rule)
    sweep_family(UNIT_CAP, (-0.5, 0.0, 0.5), rule)
    small = CapDomain(UNIT_CAP.center, 0.3)
    configs = [
        VerifyConfig(hopf_field(), rule, 0, None),
        VerifyConfig(perturbed_field(UNIT_CAP, BumpProfile(0.5, 3)), rule, 0, None),
        VerifyConfig(small_cap_field(small), build_gauss_rule(small, 32, 16, 32), 0, None),
    ]
    for config in configs:
        reports = run_all(config)
        assert all(r.passed for r in reports), config.field.label
