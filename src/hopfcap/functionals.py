"""Energy and volume functionals of unit fields over a cap (n = 3).

Energy: E(v) = (3/2) vol(K) + (1/2) * integral of |grad v|^2.
Volume: integral of sqrt(1 + sum |grad_{e_a} v|^2 + pairwise wedge terms),
the image-volume of the section in the unit tangent bundle.  For a Hopf
field both densities are constant: E(H) = (5/2) vol(K), vol(H) = 2 vol(K).

Both functionals are reductions of one ``JetSums``, the field's jet
streamed over the rule's nodes, and integrate over the rule's domain, the
one cap K.  ``energy`` and ``volume`` are entry points that take the cap as
well and raise ``ValueError`` unless it is the rule's domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import JetSums, jet_sums
from .fields import UnitField
from .geometry import CapDomain, cap_volume
from .quadrature import QuadratureRule


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
    return energy_and_volume(field, rule)[0]


def volume(field: UnitField, cap: CapDomain, rule: QuadratureRule) -> FunctionalReport:
    """Integral of the radical volume integrand over the cap; ``cap`` must be the rule's domain."""
    rule.require_domain(cap)
    return energy_and_volume(field, rule)[1]


def energy_and_volume(field: UnitField, rule: QuadratureRule) -> tuple[FunctionalReport, FunctionalReport]:
    """Both functionals, reduced from one jet streamed over the rule's nodes."""
    return energy_and_volume_from_sums(jet_sums(field, rule, (), None), rule)


def energy_and_volume_from_sums(
    sums: JetSums, rule: QuadratureRule
) -> tuple[FunctionalReport, FunctionalReport]:
    """Both functionals, read off a jet already reduced over the rule."""
    vol_k = cap_volume(rule.domain)
    deriv, _ = sums.energy_density
    value, _ = sums.volume_integrand
    return (
        FunctionalReport(value=1.5 * vol_k + 0.5 * deriv, derivative_term=deriv),
        FunctionalReport(value=value, derivative_term=value - vol_k),
    )
