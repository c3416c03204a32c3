"""Energy and volume functionals of unit fields over a cap (n = 3).

Energy: E(v) = (3/2) vol(K) + (1/2) * integral of |grad v|^2.
Volume: integral of sqrt(1 + sum |grad_{e_a} v|^2 + pairwise wedge terms),
the image-volume of the section in the unit tangent bundle.  For a Hopf
field both densities are constant: E(H) = (5/2) vol(K), vol(H) = 2 vol(K).

Each functional is a reduction over a ``JetBatch`` at the rule's nodes
(``energy_from_jets``, ``volume_from_jets``) and integrates over the rule's
domain, the one cap K.  ``energy`` and ``volume`` are entry points that
build that batch from a field first; they take the cap as well and raise
``ValueError`` unless it is the rule's domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import JetBatch, jet_batch
from .fields import UnitField
from .geometry import CapDomain, cap_volume
from .quadrature import QuadratureRule, integrate


@dataclass(frozen=True)
class FunctionalReport:
    """Value of a functional with its field-dependent term."""

    value: float
    derivative_term: float


def hopf_energy(cap: CapDomain) -> float:
    """E(H) = (5/2) vol(K), the energy of every Hopf field on the cap."""
    return 2.5 * cap_volume(cap)


def hopf_volume(cap: CapDomain) -> float:
    """vol(H) = 2 vol(K), the volume of every Hopf field on the cap."""
    return 2.0 * cap_volume(cap)


def energy(field: UnitField, cap: CapDomain, rule: QuadratureRule) -> FunctionalReport:
    """E(v) = 1.5 vol(K) + 0.5 * integral of the energy density; ``cap`` must be the rule's domain."""
    rule.require_domain(cap)
    return energy_from_jets(jet_batch(field, rule.nodes), rule)


def energy_from_jets(jets: JetBatch, rule: QuadratureRule) -> FunctionalReport:
    """The energy reduced from a jet already evaluated at the rule's nodes."""
    deriv, _ = integrate(rule, lambda _nodes: jets.energy_density)
    return FunctionalReport(value=1.5 * cap_volume(rule.domain) + 0.5 * deriv, derivative_term=deriv)


def volume(field: UnitField, cap: CapDomain, rule: QuadratureRule) -> FunctionalReport:
    """Integral of the radical volume integrand over the cap; ``cap`` must be the rule's domain."""
    rule.require_domain(cap)
    return volume_from_jets(jet_batch(field, rule.nodes), rule)


def volume_from_jets(jets: JetBatch, rule: QuadratureRule) -> FunctionalReport:
    """The volume reduced from a jet already evaluated at the rule's nodes."""
    value, _ = integrate(rule, lambda _nodes: jets.volume_integrand)
    return FunctionalReport(value=value, derivative_term=value - cap_volume(rule.domain))


def energy_and_volume(field: UnitField, rule: QuadratureRule) -> tuple[FunctionalReport, FunctionalReport]:
    """Both functionals, reduced from one jet at the rule's nodes."""
    jets = jet_batch(field, rule.nodes)
    return energy_from_jets(jets, rule), volume_from_jets(jets, rule)
