"""Energy and volume functionals of unit fields over a cap (n = 3).

Energy: E(v) = (3/2) vol(K) + (1/2) * integral of |grad v|^2.
Volume: integral of sqrt(1 + sum |grad_{e_a} v|^2 + pairwise wedge terms),
the image-volume of the section in the unit tangent bundle.  For a Hopf
field both densities are constant: E(H) = (5/2) vol(K), vol(H) = 2 vol(K).

Each functional is a reduction over a ``JetBatch`` at the rule's nodes
(``energy_from_jets``, ``volume_from_jets``); ``energy`` and ``volume`` are
entry points that build that batch from a field first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import JetBatch, jet_batch
from .fields import UnitField
from .geometry import CapDomain, cap_volume
from .quadrature import QuadratureRule, integrate


@dataclass(frozen=True)
class FunctionalReport:
    """Value of a functional with its additive decomposition and rule info."""

    name: str
    value: float
    base_term: float
    derivative_term: float
    error_estimate: float
    rule_kind: str
    rule_orders: tuple


def energy(field: UnitField, cap: CapDomain, rule: QuadratureRule, mode: str = "ad") -> FunctionalReport:
    """E(v) = 1.5 vol(K) + 0.5 * integral of the energy density."""
    return energy_from_jets(jet_batch(field, rule.nodes, mode=mode), cap, rule)


def energy_from_jets(jets: JetBatch, cap: CapDomain, rule: QuadratureRule) -> FunctionalReport:
    """The energy reduced from a jet already evaluated at the rule's nodes."""
    deriv, err = integrate(rule, lambda _nodes: jets.energy_density)
    base = 1.5 * cap_volume(cap)
    return FunctionalReport(
        name="energy",
        value=base + 0.5 * deriv,
        base_term=base,
        derivative_term=deriv,
        error_estimate=0.5 * err,
        rule_kind=rule.kind,
        rule_orders=rule.orders,
    )


def volume(field: UnitField, cap: CapDomain, rule: QuadratureRule, mode: str = "ad") -> FunctionalReport:
    """Integral of the radical volume integrand over the cap."""
    return volume_from_jets(jet_batch(field, rule.nodes, mode=mode), cap, rule)


def volume_from_jets(jets: JetBatch, cap: CapDomain, rule: QuadratureRule) -> FunctionalReport:
    """The volume reduced from a jet already evaluated at the rule's nodes."""
    value, err = integrate(rule, lambda _nodes: jets.volume_integrand)
    base = cap_volume(cap)
    return FunctionalReport(
        name="volume",
        value=value,
        base_term=base,
        derivative_term=value - base,
        error_estimate=err,
        rule_kind=rule.kind,
        rule_orders=rule.orders,
    )


def energy_and_volume(
    field: UnitField, cap: CapDomain, rule: QuadratureRule, mode: str = "ad"
) -> tuple[FunctionalReport, FunctionalReport]:
    """Both functionals, reduced from one jet at the rule's nodes."""
    jets = jet_batch(field, rule.nodes, mode=mode)
    return energy_from_jets(jets, cap, rule), volume_from_jets(jets, cap, rule)


def energy_lower_bound_gap(field: UnitField, cap: CapDomain, rule: QuadratureRule, mode: str = "ad") -> float:
    """E(v) minus its determinant-based lower bound 1.5 vol(K) + integral of sigma2.

    Nonnegative up to quadrature error for any unit field; zero exactly when
    the h matrix is antisymmetric and the field-direction derivative vanishes,
    as for Hopf fields.
    """
    jets = jet_batch(field, rule.nodes, mode=mode)
    e = energy_from_jets(jets, cap, rule).value
    s2, _ = integrate(rule, lambda _nodes: jets.sigma2)
    return e - (1.5 * cap_volume(cap) + s2)
