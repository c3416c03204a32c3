"""Integration over geodesic caps of S^3.

Geodesic polar coordinates about the cap center,

    x(rho, theta, phi) = cos(rho) c + sin(rho) (sin t cos p b1 + sin t sin p b2 + cos t b3),

carry the volume element sin^2(rho) sin(theta) drho dtheta dphi.  The
deterministic rule is Gauss-Legendre in rho and theta and periodic
trapezoid in phi; its Legendre nodes come from Newton's method on the
three-term recurrence, with no LAPACK call.  The stochastic rule draws
uniform samples on the cap via the inverse CDF of the radial density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CapDomain, cap_volume, tangent_basis

WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for one cap."""

    nodes: np.ndarray    # (N, 4) points on S^3, strictly inside the cap
    weights: np.ndarray  # (N,) volume-measure weights
    domain: CapDomain
    kind: str            # "gauss" | "montecarlo"
    orders: tuple        # (n_rho, n_theta, n_phi) or (n_samples,)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def require_domain(self, cap: CapDomain) -> None:
        """Raise ``ValueError`` unless ``cap`` is the cap this rule integrates over."""
        if cap != self.domain:
            raise ValueError(
                f"cap (center {cap.center.x}, radius {cap.radius}) is not the rule's domain "
                f"(center {self.domain.center.x}, radius {self.domain.radius})"
            )


def _polar_nodes(cap: CapDomain, rho, theta, phi):
    """Ambient points on the (rho, theta, phi) tensor grid, flattened in that order.

    The direction is formed once on the (theta, phi) grid; only the (N, 4)
    result is as long as the rule.
    """
    b1, b2, b3 = tangent_basis(cap.center)
    st = np.sin(theta)[:, None, None]
    direction = (
        st * np.cos(phi)[:, None] * b1
        + st * np.sin(phi)[:, None] * b2
        + np.cos(theta)[:, None, None] * b3
    )
    nodes = np.sin(rho)[:, None, None, None] * direction
    nodes += np.cos(rho)[:, None, None, None] * cap.center.x
    return nodes.reshape(-1, 4)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1] in ascending order, and their weights.

    Newton's method on P_n from the three-term recurrence, started from
    cos(pi (k - 1/4) / (n + 1/2)); the weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    k = np.arange(n, 0, -1)
    x = np.cos(math.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    _, dp = _legendre(n, x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
    return p, n * (x * p - prev) / (x * x - 1.0)


def build_gauss_rule(cap: CapDomain, n_rho: int, n_theta: int, n_phi: int) -> QuadratureRule:
    """Tensor-product rule: Gauss-Legendre in rho, theta; trapezoid in phi."""
    if min(n_rho, n_theta, n_phi) < 4:
        raise ValueError("quadrature orders must be >= 4")
    xr, wr = _gauss_legendre(n_rho)
    rho = 0.5 * cap.radius * (xr + 1.0)
    wrho = 0.5 * cap.radius * wr * np.sin(rho) ** 2
    xt, wt = _gauss_legendre(n_theta)
    theta = 0.5 * math.pi * (xt + 1.0)
    wtheta = 0.5 * math.pi * wt * np.sin(theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = np.full(n_phi, 2.0 * math.pi / n_phi)

    # Fixed flattening order (rho, theta, phi) for reproducible reductions.
    weights = (wrho[:, None, None] * wtheta[None, :, None] * wphi[None, None, :]).ravel()
    nodes = _polar_nodes(cap, rho, theta, phi)

    total = float(np.sum(weights))
    vol = cap_volume(cap)
    if abs(total - vol) > WEIGHT_SUM_TOL * max(1.0, vol):
        raise ValueError(
            f"Gauss orders ({n_rho}, {n_theta}, {n_phi}) are too low: the weight sum {total} "
            f"misses the cap volume {vol}; raise the orders"
        )
    return QuadratureRule(
        nodes=nodes,
        weights=weights,
        domain=cap,
        kind="gauss",
        orders=(n_rho, n_theta, n_phi),
    )


def _radial_inverse_cdf(cap: CapDomain, u: np.ndarray) -> np.ndarray:
    """Quantiles of the density proportional to sin^2 on (0, radius)."""
    total = 2.0 * cap.radius - math.sin(2.0 * cap.radius)
    grid = np.linspace(0.0, cap.radius, 20001)
    rho = np.interp(u, (2.0 * grid - np.sin(2.0 * grid)) / total, grid)
    # One Newton polish step on CDF(rho) = (2 rho - sin 2 rho) / total, whose
    # slope is 4 sin^2 rho / total; the density vanishes at 0, guard the slope.
    pdf = 4.0 * np.sin(rho) ** 2 / total
    resid = (2.0 * rho - np.sin(2.0 * rho)) / total - u
    safe = pdf > 1e-12
    rho = np.where(safe, rho - resid / np.where(safe, pdf, 1.0), rho)
    return np.clip(rho, 0.0, cap.radius)


def build_mc_rule(cap: CapDomain, n_samples: int, seed: int) -> QuadratureRule:
    """Uniform Monte Carlo samples on the cap with equal weights vol/n."""
    if n_samples < 1000:
        raise ValueError("Monte Carlo rule needs at least 1000 samples")
    rng = np.random.default_rng(seed)
    rho = _radial_inverse_cdf(cap, rng.random(n_samples))
    direction = rng.standard_normal((n_samples, 3))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    b = np.stack(tangent_basis(cap.center), axis=0)  # (3, 4)
    nodes = np.cos(rho)[:, None] * cap.center.x + np.sin(rho)[:, None] * (direction @ b)
    vol = cap_volume(cap)
    weights = np.full(n_samples, vol / n_samples)
    return QuadratureRule(
        nodes=nodes,
        weights=weights,
        domain=cap,
        kind="montecarlo",
        orders=(n_samples,),
    )


def integrate(rule: QuadratureRule, f) -> tuple[float, float]:
    """Weighted sum of f over the rule nodes, plus an error estimate.

    ``f`` maps an (N, 4) array of points to (N,) scalars.  The reduction is
    numpy's fixed-order pairwise sum, bit-reproducible for a given rule.
    Gauss rules report the roundoff term eps * sum |w f|; Monte Carlo rules
    report the standard error of the sample mean.
    """
    fx = np.asarray(f(rule.nodes), dtype=float)
    if fx.shape != (rule.size,):
        raise ValueError(f"integrand returned shape {fx.shape}, expected ({rule.size},)")
    finite = np.isfinite(fx)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"non-finite integrand value {fx[i]} at node {i}: {rule.nodes[i]}")
    wfx = rule.weights * fx
    value = float(np.sum(wfx))
    if rule.kind == "montecarlo":
        vol = cap_volume(rule.domain)
        err = float(vol * np.std(fx) / math.sqrt(rule.size))
    else:
        # |w f| overwrites w f, read only by the sum above: one N-length temporary.
        err = float(np.finfo(float).eps * np.sum(np.abs(wfx, out=wfx)))
    return value, err
