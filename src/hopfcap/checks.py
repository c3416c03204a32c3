"""Named, tolerance-bearing checks for the minimality statements.

Each check compares two independently computed quantities and returns a
``CheckReport``; ``run_all`` executes the full matrix for a configured
field and cap and is the engine behind the CLI ``verify`` command.  A
field's boundary checks are rows (name, lhs, target, tolerance, policy)
reduced from its one ``JetBatch`` at the rule's nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .calculus import jet_batch
from .displace import DET_FLOOR, T_MAX, image_volume_from_jets
from .fields import BumpProfile, UnitField, hopf_field, perturbed_field, small_cap_field
from .functionals import (
    energy,
    energy_and_volume,
    energy_from_jets,
    hopf_energy,
    hopf_volume,
    volume_from_jets,
)
from .geometry import CapDomain, SpherePoint, cap_volume, random_sphere_points
from .quadrature import QuadratureRule, build_gauss_rule, build_mc_rule, integrate

# Default tolerances, keyed by differentiation mode where they differ.
TOL_SIGMA = {"ad": 1e-9, "fd": 1e-6}
TOL_INTEGRAL_REL = 1e-5
TOL_BOUND_REL = 1e-6
TOL_SWEEP_LOC = 0.02
# Small-cap counterexample: mean |grad v|^2 limit and log-log slope tolerance.
SMALL_CAP_MEAN_DENSITY_LIMIT = 0.1
SMALL_CAP_SLOPE_TOL = 0.2

# Default run parameters; the CLI reads its flag defaults from here.
GAUSS_ORDERS = (64, 32, 64)
MC_SAMPLES = 20_000
T_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
SWEEP_AMPLITUDES = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class CheckReport:
    """One named identity or inequality with its outcome.

    policy "abs": pass iff abs_err <= tolerance;
    policy "rel": pass iff rel_err <= tolerance;
    policy "lower-bound": pass iff lhs >= rhs - tolerance (abs_err is the
    shortfall, clamped at zero).
    A value that could not be computed is None (JSON null), with None errors
    and a failed check; the context says why.  A relative error has no
    meaning against a zero target: rel_err is None when rhs is 0, and a
    "rel" check against a zero target fails.
    """

    name: str
    lhs: float | None
    rhs: float
    abs_err: float | None
    rel_err: float | None
    tolerance: float
    passed: bool
    policy: str
    context: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "policy": self.policy,
            "context": self.context,
        }


def _report(name, lhs, rhs, tolerance, policy, context=None) -> CheckReport:
    rhs = float(rhs)
    abs_err = rel_err = None
    if lhs is not None:
        lhs = float(lhs)
        abs_err = max(0.0, rhs - lhs) if policy == "lower-bound" else abs(lhs - rhs)
        if rhs != 0.0:
            rel_err = abs_err / abs(rhs)
    err = rel_err if policy == "rel" else abs_err
    passed = err is not None and err <= tolerance
    return CheckReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        tolerance=float(tolerance),
        passed=bool(passed),
        policy=policy,
        context=dict(context or {}),
    )


def check_hopf_constants(
    n_points: int = 100_000,
    seed: int = 0,
    mode: str = "ad",
    tolerance: float | None = None,
) -> list[CheckReport]:
    """max |sigma1| and max |sigma2 - 1| for a Hopf field at random points."""
    tol = TOL_SIGMA[mode] if tolerance is None else tolerance
    pts = random_sphere_points(n_points, seed=seed)
    jets = jet_batch(hopf_field(), pts, mode=mode)
    ctx = {"n_points": n_points, "seed": seed, "mode": mode}
    return [
        _report("hopf_sigma1_zero", np.max(np.abs(jets.sigma1)), 0.0, tol, "abs", ctx),
        _report("hopf_sigma2_one", np.max(np.abs(jets.sigma2 - 1.0)), 0.0, tol, "abs", ctx),
    ]


def _require_hopf_boundary(field: UnitField, cap: CapDomain) -> None:
    hb = field.hopf_boundary
    if hb == "everywhere":
        return
    if isinstance(hb, CapDomain):
        if (
            np.allclose(hb.center.x, cap.center.x, atol=1e-12)
            and hb.radius <= cap.radius + 1e-12
        ):
            return
    raise ValueError(
        f"field {field.label!r} is not known to match a Hopf field on the "
        "boundary of the requested cap"
    )


def _field_context(field: UnitField, cap: CapDomain, rule: QuadratureRule, mode: str) -> dict:
    return {
        "field": field.label,
        "params": {k: v for k, v in field.params.items() if not isinstance(v, tuple)},
        "cap_radius": cap.radius,
        "rule": rule.kind,
        "orders": list(rule.orders),
        "mode": mode,
    }


@dataclass(frozen=True)
class SweepResult:
    """Energies and volumes of the bump family over an amplitude grid."""

    amplitudes: np.ndarray
    energies: np.ndarray
    volumes: np.ndarray
    argmin_energy: int
    argmin_volume: int
    refined_energy_min: float
    refined_volume_min: float


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Location of the minimum of a unimodal f on [lo, hi], within tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def sweep_family(
    cap: CapDomain,
    amplitudes,
    rule: QuadratureRule,
    exponent: int = 3,
    twist=None,
    mode: str = "ad",
    refine: bool = True,
    refine_tol: float = TOL_SWEEP_LOC,
) -> SweepResult:
    """Evaluate both functionals over the bump-amplitude grid; refine the minimum."""
    amps = np.asarray(sorted(float(a) for a in amplitudes))
    if not np.any(np.isclose(amps, 0.0)):
        raise ValueError("amplitude grid must include 0")

    # Both golden-section searches revisit amplitudes, and each step reads
    # one of the two functionals: evaluate each amplitude once.
    seen = {}

    def functionals_at(a: float) -> tuple[float, float]:
        if a not in seen:
            f = perturbed_field(cap, BumpProfile(a, exponent), twist=twist)
            e, v = energy_and_volume(f, cap, rule, mode=mode)
            seen[a] = (e.value, v.value)
        return seen[a]

    pairs = [functionals_at(a) for a in amps]
    energies = np.array([p[0] for p in pairs])
    volumes = np.array([p[1] for p in pairs])
    i_e = int(np.argmin(energies))
    i_v = int(np.argmin(volumes))

    refined_e = refined_v = 0.0
    if refine:
        def bracket(i):
            lo = amps[max(i - 1, 0)]
            hi = amps[min(i + 1, len(amps) - 1)]
            return float(lo), float(hi)

        refined_e = _golden_section(lambda a: functionals_at(a)[0], *bracket(i_e), refine_tol)
        refined_v = _golden_section(lambda a: functionals_at(a)[1], *bracket(i_v), refine_tol)

    return SweepResult(
        amplitudes=amps,
        energies=energies,
        volumes=volumes,
        argmin_energy=i_e,
        argmin_volume=i_v,
        refined_energy_min=refined_e,
        refined_volume_min=refined_v,
    )


def sweep_reports(result: SweepResult, refine_tol: float = TOL_SWEEP_LOC) -> list[CheckReport]:
    """Minimality reports derived from a sweep: argmin at 0, refined near 0."""
    zero = int(np.argmin(np.abs(result.amplitudes)))
    ctx = {"amplitudes": [float(a) for a in result.amplitudes]}
    return [
        _report("sweep_energy_argmin_zero", result.argmin_energy, zero, 0.0, "abs", ctx),
        _report("sweep_volume_argmin_zero", result.argmin_volume, zero, 0.0, "abs", ctx),
        _report("sweep_energy_min_location", abs(result.refined_energy_min), 0.0, refine_tol, "abs", ctx),
        _report("sweep_volume_min_location", abs(result.refined_volume_min), 0.0, refine_tol, "abs", ctx),
    ]


def check_small_cap_counterexample(
    radius: float = 0.1,
    scaling_radii=(0.05, 0.1, 0.2),
    center=None,
    orders=(32, 16, 32),
    mode: str = "ad",
) -> list[CheckReport]:
    """Unconstrained small-cap field beats the Hopf field on both functionals.

    Also fits mean |grad v|^2 = C r^2 over the scaling radii and checks the
    log-log slope is 2 within ``SMALL_CAP_SLOPE_TOL``.
    """
    center = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])) if center is None else center
    cap = CapDomain(center, radius)
    rule = build_gauss_rule(cap, *orders)
    e, v = energy_and_volume(small_cap_field(cap), cap, rule, mode=mode)
    vol_k = cap_volume(cap)
    ctx = {"cap_radius": radius, "orders": list(orders), "mode": mode}
    reports = [
        _report("small_cap_energy_below_hopf", hopf_energy(cap), e.value, 0.0, "lower-bound", ctx),
        _report("small_cap_volume_below_hopf", hopf_volume(cap), v.value, 0.0, "lower-bound", ctx),
        _report(
            "small_cap_mean_gradient_sq",
            e.derivative_term / vol_k,
            0.0,
            SMALL_CAP_MEAN_DENSITY_LIMIT,
            "abs",
            ctx,
        ),
    ]

    means = []
    for r in scaling_radii:
        cap_r = CapDomain(center, float(r))
        rule_r = build_gauss_rule(cap_r, *orders)
        e_r = energy(small_cap_field(cap_r), cap_r, rule_r, mode=mode)
        means.append(e_r.derivative_term / cap_volume(cap_r))
    slope = float(np.polyfit(np.log(np.asarray(scaling_radii)), np.log(np.asarray(means)), 1)[0])
    scale_ctx = dict(ctx, radii=list(scaling_radii), means=[float(m) for m in means])
    reports.append(
        _report("small_cap_gradient_scaling", slope, 2.0, SMALL_CAP_SLOPE_TOL, "abs", scale_ctx)
    )
    return reports


@dataclass
class VerifyConfig:
    """Everything run_all needs; built by the CLI or directly in tests."""

    cap: CapDomain
    fields: list  # of UnitField
    orders: tuple = GAUSS_ORDERS
    rule_kind: str = "gauss"
    mc_samples: int = MC_SAMPLES
    seed: int = 0
    t_grid: tuple = T_GRID
    mode: str = "ad"
    hopf_points: int = 100_000
    sigma_tolerance: float | None = None
    integral_tolerance: float = TOL_INTEGRAL_REL
    bound_tolerance: float = TOL_BOUND_REL
    det_floor: float = DET_FLOOR

    def __post_init__(self):
        # Checked here so a bad configuration fails before any jet is built.
        if len(self.orders) != 3:
            raise ValueError(
                f"Gauss orders need 3 entries n_rho,n_theta,n_phi, got {len(self.orders)}"
            )
        if not all(0.0 <= t <= T_MAX for t in self.t_grid):
            raise ValueError(f"offsets t must lie in [0, {T_MAX}], got {list(self.t_grid)}")
        for field in self.fields:
            if field.label != "small-cap":
                _require_hopf_boundary(field, self.cap)
            elif self.rule_kind != "gauss":
                raise ValueError("the small-cap counterexample integrates with Gauss rules only")

    def build_rule(self) -> QuadratureRule:
        if self.rule_kind == "gauss":
            return build_gauss_rule(self.cap, *self.orders)
        if self.rule_kind == "montecarlo":
            return build_mc_rule(self.cap, self.mc_samples, seed=self.seed)
        raise ValueError(f"unknown rule kind {self.rule_kind!r}")


def run_all(config: VerifyConfig) -> list[CheckReport]:
    """Execute every applicable check for each configured field."""
    if not config.fields:
        return []
    rule = config.build_rule()
    reports = check_hopf_constants(
        n_points=config.hopf_points,
        seed=config.seed,
        mode=config.mode,
        tolerance=config.sigma_tolerance,
    )
    for field in config.fields:
        reports.extend(_field_reports(field, config, rule))
    return reports


def _field_reports(field: UnitField, config: VerifyConfig, rule: QuadratureRule) -> list[CheckReport]:
    """The checks of one field, each a row reduced from its one jet at the rule's nodes.

    The jet is local, so only one field's batch is alive at a time.
    """
    cap = config.cap
    if field.label == "small-cap":
        return check_small_cap_counterexample(
            radius=cap.radius, center=cap.center, orders=config.orders, mode=config.mode
        )
    jets = jet_batch(field, rule.nodes, mode=config.mode)
    vol_k = cap_volume(cap)
    ctx = _field_context(field, cap, rule, config.mode)
    s2, _ = integrate(rule, lambda _n: jets.sigma2)
    s1, _ = integrate(rule, lambda _n: jets.sigma1)
    rows = [
        # int sigma2 = vol(K) and int sigma1 = 0: the t^2 and t^1 coefficients.
        ("boundary_sigma2_integral", s2, vol_k, config.integral_tolerance, "rel"),
        ("boundary_sigma1_integral", s1, 0.0, config.integral_tolerance * vol_k, "abs"),
        # E(v) >= E(H) and vol(v) >= vol(H).
        ("energy_bound", energy_from_jets(jets, cap, rule).value, hopf_energy(cap),
         config.bound_tolerance * vol_k, "lower-bound"),
        ("volume_bound", volume_from_jets(jets, cap, rule).value, hopf_volume(cap),
         config.bound_tolerance * vol_k, "lower-bound"),
    ]
    reports = [_report(*row, ctx) for row in rows]
    # Twisted fields have sigma2 unbounded below near the twist axis, so
    # no positive offset keeps the displacement a diffeomorphism; the
    # image-volume identity does not apply to them.
    if field.params.get("twist", "none") != "none":
        return reports
    # Image volume equals vol(K) (1 + t^2)^(3/2) for each offset t.
    for t in config.t_grid:
        t_ctx = dict(ctx, t=float(t))
        try:
            val, _ = image_volume_from_jets(float(t), jets, rule, config.det_floor)
        except ValueError as exc:
            # Determinant dipped below the floor: t is outside the
            # diffeomorphism window for this field; report, don't crash.
            t_ctx["det_floor_rejection"] = str(exc)
            val = None
        target = vol_k * (1.0 + t * t) ** 1.5
        reports.append(_report(f"image_volume_t{t:g}", val, target, config.integral_tolerance, "rel", t_ctx))
    return reports
