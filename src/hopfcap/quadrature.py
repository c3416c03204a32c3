"""Integration over geodesic caps of S^3.

Geodesic polar coordinates about the cap center,

    x(rho, theta, phi) = cos(rho) c + sin(rho) (sin t cos p b1 + sin t sin p b2 + cos t b3),

carry the volume element sin^2(rho) sin(theta) drho dtheta dphi.  The
deterministic rule is Gauss-Legendre in rho and theta and periodic
trapezoid in phi; its Legendre nodes come from Newton's method on the
three-term recurrence, with no LAPACK call.  The stochastic rule draws
uniform samples on the cap via the inverse CDF of the radial density.

A rule is read one block of ``JET_BLOCK`` consecutive nodes at a time,
and ``QuadratureRule.block`` is the one code that forms nodes and weights:
a Gauss rule keeps only the 1-D factors of its tensor grid and writes each
block from the rho-slabs it crosses, a Monte Carlo rule slices its stored
arrays.  Both rules form their nodes with one elementwise polar map,
``_combine``, so no node depends on the BLAS kernel.  ``nodes`` and
``weights`` are the block of all nodes, built on first read and kept.
Every sum over a rule is made block by block and combined in one place,
``WeightedSum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import CapDomain, cap_volume, radial_mass, seeded_uniforms, tangent_basis

WEIGHT_SUM_TOL = 1e-10
# Nodes per block of a walk over a rule.  The jet evaluates, and every
# reduction sums, one block at a time, so the block bounds the dual
# temporaries: the largest is the (3, 4, n) float64 tangent, 96 * JET_BLOCK
# bytes = 768 KiB, and cli.main's allocator thresholds follow from it.
JET_BLOCK = 8192


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for one cap, built one block at a time.

    ``factors`` is what the rule's blocks are built from.  A Gauss rule
    keeps only its 1-D factors: (3, n_rho) rows sin(rho), cos(rho) and
    w_rho; the (4, n_theta n_phi) table of directions
    sin t cos p b1 + sin t sin p b2 + cos t b3, flattened in (theta, phi)
    order; and (2, n_theta n_phi) rows w_theta and w_phi on that table.
    Node (i, a) of the (rho, direction) grid is
    cos(rho_i) c + sin(rho_i) direction_a, with weight
    (w_rho_i w_theta_a) w_phi_a.  A Monte Carlo rule keeps its nodes,
    component-major (4, N), and its (N,) weights.
    """

    domain: CapDomain
    kind: str            # "gauss" | "montecarlo"
    orders: tuple        # (n_rho, n_theta, n_phi) or (n_samples,)
    factors: tuple

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def require_domain(self, cap: CapDomain) -> None:
        """Raise ``ValueError`` unless ``cap`` is the cap this rule integrates over."""
        if cap != self.domain:
            raise ValueError(
                f"cap (center {cap.center.x}, radius {cap.radius}) is not the rule's domain "
                f"(center {self.domain.center.x}, radius {self.domain.radius})"
            )

    def blocks(self):
        """(start, stop) of each consecutive block of ``JET_BLOCK`` nodes."""
        for start in range(0, self.size, JET_BLOCK):
            yield start, min(start + JET_BLOCK, self.size)

    def block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Component-major nodes (4, n) and weights (n,) of nodes start..stop-1.

        A Monte Carlo block is a slice of the rule's arrays.  A Gauss block
        is written in one walk over its runs of nodes, each the rest of one
        rho-slab or consecutive whole slabs, nodes and weights together.
        """
        if self.kind == "montecarlo":
            nodes, weights = self.factors
            return np.ascontiguousarray(nodes[:, start:stop]), weights[start:stop]
        radial, table, angular = self.factors
        n_dir, center = table.shape[1], self.domain.center.x[:, None, None]
        nodes, weights = np.empty((4, stop - start)), np.empty(stop - start)
        pos = start
        while pos < stop:
            i, a = divmod(pos, n_dir)
            n = min(n_dir - a, stop - pos)
            slabs = 1 if a else max(1, (stop - pos) // n_dir)
            rho, run, out = slice(i, i + slabs), slice(a, a + n), slice(pos - start, pos - start + slabs * n)
            # Views of the block: (4, slabs, directions) and (slabs, directions).
            x, w = nodes[:, out].reshape(4, slabs, n), weights[out].reshape(slabs, n)
            _combine([(table[:, None, run], radial[0, rho, None]), (center, radial[1, rho, None])], x)
            np.multiply(radial[2, rho, None], angular[0, run], out=w)
            w *= angular[1, run]
            pos += slabs * n
        return nodes, weights

    @cached_property
    def _whole(self) -> tuple[np.ndarray, np.ndarray]:
        return self.block(0, self.size)

    @cached_property
    def nodes(self) -> np.ndarray:
        """(N, 4) points on S^3, strictly inside the cap; built on first read, with ``weights``."""
        return self._whole[0].T

    @property
    def weights(self) -> np.ndarray:
        """(N,) volume-measure weights; built on first read, with ``nodes``."""
        return self._whole[1]


def _combine(terms, out: np.ndarray | None) -> np.ndarray:
    """The sum of a * v over the (a, v) pairs of ``terms``, elementwise and in
    order, into ``out`` (a new array when None).  The polar map
    cos(rho) c + sin(rho) (d1 b1 + d2 b2 + d3 b3) is two such sums: the (4, M)
    table of directions, then sin(rho) times a table column plus cos(rho) c.
    """
    (a, v), *rest = terms
    out = np.multiply(a, v, out=out)
    for a, v in rest:
        out += a * v
    return out


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

    # The weight sum is the product of the 1-D sums; each is held to its
    # exact integral, relative, so the guard reads alike on every cap: the
    # theta weights sum to 2 and the rho weights to radial_mass(r) / 4 (the
    # phi weights sum to 2 pi at every order).  radial_mass's closed form is
    # off by up to 1.2 ulp of 2r, 1.6e-10 of its value just above
    # SERIES_RADIUS, where every rho order is exact to rounding; the rho test
    # allows one ulp of 2r beside its relative tolerance for that.
    theta_sum = math.fsum(wtheta)
    rho_sum = math.fsum(wrho)
    rho_exact = float(radial_mass(cap.radius)) / 4.0
    if (
        abs(theta_sum - 2.0) > 2.0 * WEIGHT_SUM_TOL
        or abs(rho_sum - rho_exact) > WEIGHT_SUM_TOL * rho_exact + math.ulp(2.0 * cap.radius)
    ):
        raise ValueError(
            f"Gauss orders ({n_rho}, {n_theta}, {n_phi}) are too low: the theta weights sum to "
            f"{theta_sum} against 2 and the rho weights to {rho_sum} against {rho_exact}; "
            "raise the orders"
        )
    st = np.sin(theta)[:, None]
    directions = (st * np.cos(phi), st * np.sin(phi), np.repeat(np.cos(theta), n_phi))
    basis = np.stack(tangent_basis(cap.center))[:, :, None]  # (3, 4, 1): b1, b2, b3 as columns
    # Fixed flattening order (rho, theta, phi) for reproducible reductions.
    return QuadratureRule(
        domain=cap,
        kind="gauss",
        orders=(n_rho, n_theta, n_phi),
        factors=(
            np.stack([np.sin(rho), np.cos(rho), wrho]),
            _combine(zip((d.ravel() for d in directions), basis), None),
            np.stack([np.repeat(wtheta, n_phi), np.tile(wphi, n_theta)]),
        ),
    )


def _radial_inverse_cdf(cap: CapDomain, u: np.ndarray) -> np.ndarray:
    """Quantiles of the density proportional to sin^2 on (0, radius)."""
    total = float(radial_mass(cap.radius))
    grid = np.linspace(0.0, cap.radius, 20001)
    rho = np.interp(u, radial_mass(grid) / total, grid)
    # One Newton polish step on CDF(rho) = (2 rho - sin 2 rho) / total, whose
    # slope is 4 sin^2 rho / total; the density vanishes at 0, guard the slope.
    pdf = 4.0 * np.sin(rho) ** 2 / total
    resid = radial_mass(rho) / total - u
    safe = pdf > 1e-12
    rho = np.where(safe, rho - resid / np.where(safe, pdf, 1.0), rho)
    return np.clip(rho, 0.0, cap.radius)


def build_mc_rule(cap: CapDomain, n_samples: int, seed: int) -> QuadratureRule:
    """Uniform Monte Carlo samples on the cap with equal weights vol/n.

    Three ``seeded_uniforms`` per sample: u gives the radius as a quantile
    of the radial density, and v, w the direction on S^2, z = 2 v - 1 and
    azimuth 2 pi w (Archimedes: z is uniform on [-1, 1]).
    """
    if n_samples < 1000:
        raise ValueError("Monte Carlo rule needs at least 1000 samples")
    u, v, w = seeded_uniforms(3, n_samples, seed)
    rho = _radial_inverse_cdf(cap, u)
    z = 2.0 * v - 1.0
    phi = 2.0 * math.pi * w
    s = np.sqrt(1.0 - z * z)
    basis = np.stack(tangent_basis(cap.center))[:, :, None]
    table = _combine(zip((s * np.cos(phi), s * np.sin(phi), z), basis), None)
    nodes = _combine([(table, np.sin(rho)), (cap.center.x[:, None], np.cos(rho))], table)
    weights = np.full(n_samples, cap_volume(cap) / n_samples)
    return QuadratureRule(domain=cap, kind="montecarlo", orders=(n_samples,), factors=(nodes, weights))


class WeightedSum:
    """Sums of w f over a rule for rows of values f, added one block at a time.

    Each block adds numpy's fixed-order pairwise sum of each row's terms,
    and ``result`` combines each row's block sums once, correctly rounded by
    ``math.fsum``.  A sum's bits therefore depend only on the per-node values
    and the block bounds, so ``integrate`` and the streamed jet sums of
    ``calculus.jet_sums`` agree bit for bit.  Each sum comes with an error
    estimate: Gauss rules the roundoff eps * sum |w f|, Monte Carlo rules the
    standard error of the sample mean, from sums of f shifted by its mean
    over the first block.
    """

    def __init__(self, rule: QuadratureRule):
        self._rule = rule
        self._blocks = []
        self._shift = None

    def add(self, weights: np.ndarray, values: np.ndarray) -> None:
        """Add one block: ``values`` (k, n) holds the block's k rows, ``weights`` (n,)."""
        wf = values * weights
        total = np.sum(wf, axis=1)
        if self._rule.kind == "montecarlo":
            if self._shift is None:
                self._shift = np.mean(values, axis=1, keepdims=True)
            d = values - self._shift
            self._blocks.append((total, np.sum(d, axis=1), np.sum(d * d, axis=1)))
        else:
            # |w f| overwrites w f, read only by the sum above.
            self._blocks.append((total, np.sum(np.abs(wf, out=wf), axis=1)))

    def result(self) -> list[tuple[float, float]]:
        """Each row's sum and its error estimate, as ``integrate`` returns them."""
        # For each statistic, one correctly rounded sum per row over the blocks.
        stats = [[math.fsum(row) for row in np.transpose(blocks)] for blocks in zip(*self._blocks)]
        if self._rule.kind == "montecarlo":
            n = self._rule.size
            vol = cap_volume(self._rule.domain)
            out = []
            for total, shifted, squares in zip(*stats):
                mean = shifted / n
                var = max(squares / n - mean * mean, 0.0)
                out.append((total, vol * math.sqrt(var) / math.sqrt(n)))
            return out
        eps = float(np.finfo(float).eps)
        return [(total, eps * abs_total) for total, abs_total in zip(*stats)]


def require_finite(values: np.ndarray, start: int, points: np.ndarray) -> None:
    """Raise ``ValueError`` at the first node of a block with a non-finite value.

    ``values`` holds rows (k, n) over the block's nodes, which are nodes
    start..start+n-1 of the rule, and ``points`` their (4, n) coordinates.
    """
    finite = np.isfinite(values)
    if finite.all():
        return
    i = int(np.argmin(finite.all(axis=0)))
    bad = values[:, i][~finite[:, i]][0]
    raise ValueError(f"non-finite integrand value {bad} at node {start + i}: {points[:, i]}")


def integrate(rule: QuadratureRule, f) -> tuple[float, float]:
    """Weighted sum of f over the rule nodes, plus an error estimate.

    ``f`` maps an (N, 4) array of points to (N,) scalars.  The values are
    summed block by block and combined by ``WeightedSum``, bit-reproducible
    for a given rule.  Gauss rules report the roundoff term eps * sum |w f|;
    Monte Carlo rules report the standard error of the sample mean.
    """
    fx = np.asarray(f(rule.nodes), dtype=float)
    if fx.shape != (rule.size,):
        raise ValueError(f"integrand returned shape {fx.shape}, expected ({rule.size},)")
    points = rule.nodes.T
    total = WeightedSum(rule)
    for start, stop in rule.blocks():
        values = fx[None, start:stop]
        require_finite(values, start, points[:, start:stop])
        total.add(rule.weights[start:stop], values)
    return total.result()[0]
