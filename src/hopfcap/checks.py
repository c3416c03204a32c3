"""Named, tolerance-bearing checks for the minimality statements.

Each check compares two independently computed quantities and returns a
``CheckReport``; ``run_all`` executes the full matrix for a configured
field and cap and is the engine behind the CLI ``verify`` command.  A
field's boundary checks are rows (name, lhs, target, tolerance, policy)
read off its one ``JetSums``, the jet streamed over the rule's nodes; one
more row checks the AD jet against central differences on the every-k-th
nodes that stream keeps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .calculus import JetSums, jet_batch, jet_sums
from .displace import DisplacementMap, image_volume_from_sums
from .fields import BUMP_EXPONENT, BumpProfile, UnitField, hopf_field, perturbed_field, small_cap_field
from .functionals import energy, energy_and_volume, energy_and_volume_from_sums, hopf_energy, hopf_volume
from .geometry import QUAT_ONE, CapDomain, SpherePoint, cap_volume, random_sphere_points
from .quadrature import QuadratureRule, build_gauss_rule

# Default tolerances, keyed by differentiation mode where they differ.
TOL_SIGMA = {"ad": 1e-9, "fd": 1e-6}
TOL_INTEGRAL_REL = 1e-5
TOL_BOUND_REL = 1e-6
# The sweep's refinement returns an amplitude within TOL_SWEEP_LOC / 2 of
# the minimizer, and its location check passes when |A| <= TOL_SWEEP_LOC:
# the search's width and the check's tolerance are one value.
TOL_SWEEP_LOC = 0.02
# Small-cap counterexample: mean |grad v|^2 limit, log-log slope tolerance,
# the cap radii the slope is fitted over and the Gauss orders of
# check_small_cap_counterexample.
SMALL_CAP_MEAN_DENSITY_LIMIT = 0.1
SMALL_CAP_SLOPE_TOL = 0.2
SMALL_CAP_SCALING_RADII = (0.05, 0.1, 0.2)
SMALL_CAP_ORDERS = (32, 16, 32)
# Nodes of the AD-against-FD jet oracle, and the Hopf-constant sample.
ORACLE_NODES = 4096

# Default run parameters; the CLI reads its flag defaults from here.
GAUSS_ORDERS = (64, 32, 64)
AMPLITUDE = 0.5  # of the perturbed field in verify and functionals
MC_SAMPLES = 20_000
T_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
IMAGE_VOLUME_ROW = "image_volume_t{:g}"  # report row name at offset t
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
    context: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name, lhs, rhs, tolerance, policy, context) -> CheckReport:
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
        context=dict(context),
    )


def check_hopf_constants(n_points: int, seed: int, mode: str) -> list[CheckReport]:
    """max |sigma1| and max |sigma2 - 1| for a Hopf field at random points.

    The points are ``random_sphere_points(n_points, seed)``, drawn from the
    standard library's seeded Mersenne Twister.
    """
    tol = TOL_SIGMA[mode]
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
    if isinstance(hb, CapDomain) and hb.center == cap.center and hb.radius <= cap.radius:
        return
    raise ValueError(
        f"field {field.label!r} is not known to match a Hopf field on the "
        "boundary of the requested cap"
    )


def _field_context(field: UnitField, rule: QuadratureRule) -> dict:
    return {
        "field": field.label,
        "params": {k: v for k, v in field.params.items() if not isinstance(v, tuple)},
        "cap_radius": rule.domain.radius,
        "rule": rule.kind,
        "orders": list(rule.orders),
    }


def _oracle_stride(n_nodes: int) -> int:
    """The step k of the every-k-th node subsample: about ``ORACLE_NODES`` nodes.

    k is the least step at or above n_nodes / ORACLE_NODES that shares no
    factor with n_nodes.  A Gauss rule's nodes run over phi fastest, so a
    step sharing a factor with n_phi would visit only some phi indices (at
    64,32,64 a step of 32 visits only phi = 0 and pi); a step coprime to N
    visits every phi index once it takes n_phi nodes.
    """
    k = -(-n_nodes // ORACLE_NODES)
    while math.gcd(k, n_nodes) != 1:
        k += 1
    return k


def _ad_fd_report(field: UnitField, rule: QuadratureRule, sums: JetSums, stride: int) -> CheckReport:
    """The field's AD jet against a central-difference jet on every k-th node.

    ``sums`` was streamed with this stride and kept the AD jet and the nodes
    of the subsample.  The deviation is the max over the subsample and the
    four invariants of |AD - FD| / max(1, |AD|).  Central differences read
    only plain field values, which no derivative rule of ``dual`` touches, so
    a wrong rule there shows here.
    """
    fd = jet_batch(field, sums.sample_nodes, mode="fd")
    deviation = 0.0
    for name, fd_values in vars(fd).items():
        ad = getattr(sums.sample, name)
        deviation = max(deviation, float(np.max(np.abs(ad - fd_values) / np.maximum(1.0, np.abs(ad)))))
    ctx = dict(_field_context(field, rule), stride=stride, nodes=len(fd.sigma1))
    return _report("ad_fd_jet_agreement", deviation, 0.0, TOL_SIGMA["fd"], "abs", ctx)


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


def _brent_min(f, grid, values, tol: float) -> float:
    """Location of the minimum of a unimodal f, refined from its values on a grid.

    Brent's method (Brent, "Algorithms for Minimization without
    Derivatives", 1973, ch. 5): parabolic steps through the best three
    points, with a golden-section step whenever a parabola is not trusted.
    The search starts from what the grid already knows: the bracket is the
    grid argmin's neighbours, and the first parabola runs through the argmin
    and those neighbours.  An argmin at a grid edge has no known interior
    point, so the search starts with the golden point of its bracket nearer
    to it.  It stops once the minimizer's bracket [a, b] has
    max(x - a, b - x) <= tol / 2, so the returned x, the best evaluated
    point, is within tol / 2 of the minimizer.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    step_min = tol / 4.0  # the shortest step
    i = int(np.argmin(values))
    lo, hi = max(i - 1, 0), min(i + 1, len(grid) - 1)
    a, b = float(grid[lo]), float(grid[hi])
    # x is the best point, w the next best and v the third; the bracket's
    # width stands in for the two steps before the first.  An edge argmin
    # is both x and w, so the first parabola is degenerate and the first
    # step is golden: to the golden point of [a, b] nearer to the argmin.
    (fx, x), (fw, w), (fv, v) = sorted((float(values[j]), float(grid[j])) for j in (lo, i, hi))
    step = before_last = b - a
    while max(x - a, b - x) > 2.0 * step_min:
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(before_last) > step_min:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # Trust the parabola's vertex only inside (a, b) and only if the
            # step is shorter than half the step before last.
            parabolic = q * (a - x) < p < q * (b - x) and abs(p) < abs(0.5 * q * before_last)
        if parabolic:
            before_last, step = step, p / q
            if x + step - a < 2.0 * step_min or b - (x + step) < 2.0 * step_min:
                step = step_min if mid > x else -step_min
        else:
            before_last = (a if x >= mid else b) - x
            step = golden * before_last
        u = x + (step if abs(step) >= step_min else math.copysign(step_min, step))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def sweep_grid(amplitudes) -> np.ndarray:
    """The sorted grid of distinct bump amplitudes (-0.0 is 0.0) of a sweep; exactly 0, the Hopf field, is one."""
    amps = np.asarray(sorted(float(a) + 0.0 for a in amplitudes))
    for a in amps:
        BumpProfile(a)
    if not np.any(amps == 0.0):
        raise ValueError("amplitude grid must include 0")
    if np.any(np.diff(amps) == 0.0):
        raise ValueError(f"amplitude grid repeats a value: {amps.tolist()}")
    return amps


def sweep_family(
    cap: CapDomain,
    amplitudes,
    rule: QuadratureRule,
    exponent: int = BUMP_EXPONENT,
    twist=None,
) -> SweepResult:
    """Evaluate both functionals over the bump-amplitude grid; refine each minimum.

    Each functional's minimum is refined by ``_brent_min`` from the grid's
    own bracket and values, to within ``TOL_SWEEP_LOC / 2``.  ``cap``
    carries the bump and must be the rule's domain.
    """
    rule.require_domain(cap)
    amps = sweep_grid(amplitudes)

    # Both searches start from grid amplitudes and may step to the same
    # amplitudes, and each step reads one of the two functionals: evaluate
    # each amplitude once.
    seen = {}

    def functionals_at(a: float) -> tuple[float, float]:
        if a not in seen:
            f = perturbed_field(cap, BumpProfile(a, exponent), twist=twist)
            e, v = energy_and_volume(f, rule)
            seen[a] = (e.value, v.value)
        return seen[a]

    pairs = [functionals_at(a) for a in amps]
    energies = np.array([p[0] for p in pairs])
    volumes = np.array([p[1] for p in pairs])
    i_e = int(np.argmin(energies))
    i_v = int(np.argmin(volumes))

    refined_e = _brent_min(lambda a: functionals_at(a)[0], amps, energies, TOL_SWEEP_LOC)
    refined_v = _brent_min(lambda a: functionals_at(a)[1], amps, volumes, TOL_SWEEP_LOC)

    return SweepResult(
        amplitudes=amps,
        energies=energies,
        volumes=volumes,
        argmin_energy=i_e,
        argmin_volume=i_v,
        refined_energy_min=refined_e,
        refined_volume_min=refined_v,
    )


def sweep_reports(result: SweepResult) -> list[CheckReport]:
    """Minimality reports derived from a sweep: argmin at 0, refined near 0."""
    zero = int(np.argmin(np.abs(result.amplitudes)))
    ctx = {"amplitudes": [float(a) for a in result.amplitudes]}
    return [
        _report("sweep_energy_argmin_zero", result.argmin_energy, zero, 0.0, "abs", ctx),
        _report("sweep_volume_argmin_zero", result.argmin_volume, zero, 0.0, "abs", ctx),
        _report("sweep_energy_min_location", abs(result.refined_energy_min), 0.0, TOL_SWEEP_LOC, "abs", ctx),
        _report("sweep_volume_min_location", abs(result.refined_volume_min), 0.0, TOL_SWEEP_LOC, "abs", ctx),
    ]


def check_small_cap_counterexample(radius: float, scaling_radii) -> list[CheckReport]:
    """Unconstrained small-cap field beats the Hopf field on both functionals.

    The cap is centred at the north pole and integrated at ``SMALL_CAP_ORDERS``.
    Also fits mean |grad v|^2 = C r^2 over the scaling radii (``verify``
    reads ``SMALL_CAP_SCALING_RADII``) and checks the log-log slope is 2
    within ``SMALL_CAP_SLOPE_TOL``.
    """
    cap = CapDomain(SpherePoint(QUAT_ONE), radius)
    rule = build_gauss_rule(cap, *SMALL_CAP_ORDERS)
    return _small_cap_reports(jet_sums(small_cap_field(cap), rule, (), None), rule, scaling_radii)


def _small_cap_reports(sums: JetSums, rule: QuadratureRule, scaling_radii) -> list[CheckReport]:
    """The counterexample's rows, the main cap's read off its jet streamed over the rule.

    The last row fits mean |grad v|^2 = C r^2 over caps of the scaling radii,
    each with its own rule of the same orders unless it is the main cap's.
    """
    cap = rule.domain
    e, v = energy_and_volume_from_sums(sums, rule)
    mean = e.derivative_term / cap_volume(cap)
    ctx = {"cap_radius": cap.radius, "orders": list(rule.orders)}
    reports = [
        _report("small_cap_energy_below_hopf", hopf_energy(cap), e.value, 0.0, "lower-bound", ctx),
        _report("small_cap_volume_below_hopf", hopf_volume(cap), v.value, 0.0, "lower-bound", ctx),
        _report(
            "small_cap_mean_gradient_sq",
            mean,
            0.0,
            SMALL_CAP_MEAN_DENSITY_LIMIT,
            "abs",
            ctx,
        ),
    ]

    means = []
    for r in scaling_radii:
        if r == cap.radius:
            means.append(mean)
            continue
        cap_r = CapDomain(cap.center, float(r))
        rule_r = build_gauss_rule(cap_r, *rule.orders)
        e_r = energy(small_cap_field(cap_r), cap_r, rule_r)
        means.append(e_r.derivative_term / cap_volume(cap_r))
    # The least-squares slope in closed form: np.polyfit's LAPACK solve
    # rounds differently under different BLAS kernels.
    log_r = np.log(np.asarray(scaling_radii))
    log_m = np.log(np.asarray(means))
    dr = log_r - np.mean(log_r)
    slope = float(np.sum(dr * (log_m - np.mean(log_m))) / np.sum(dr * dr))
    scale_ctx = dict(ctx, radii=list(scaling_radii), means=[float(m) for m in means])
    reports.append(
        _report("small_cap_gradient_scaling", slope, 2.0, SMALL_CAP_SLOPE_TOL, "abs", scale_ctx)
    )
    return reports


def _singular(field: UnitField) -> bool:
    """Whether the field's jet is singular inside the cap: the angular twist.

    Twisted fields have sigma2 unbounded below near the twist axis, so no
    positive offset keeps the displacement a diffeomorphism; the
    image-volume identity does not apply to them.  Their azimuth is
    singular on that axis, where central differences read 1e3 and more off
    the AD jet, so they have no AD-against-FD row either.
    """
    return field.params.get("twist") == "angular"


@dataclass
class VerifyConfig:
    """Everything run_all needs: one field, a built rule whose domain is the cap, and the seed.

    ``t_grid`` holds the offsets of the image-volume rows.  The small-cap
    field and a ``_singular`` field have no such rows: None gives them no
    offsets, and offsets given for them raise ``ValueError``.  None gives
    any other field ``T_GRID``.

    Building the configuration resolves the rest of the run from the field,
    into two plain attributes: ``counterexample``, true for the small-cap
    field, whose counterexample rows stand in for the sigma and bound rows,
    and ``stride``, the step of the AD-against-FD oracle's subsample, None
    for a ``_singular`` field, which has no oracle row.
    """

    field: UnitField
    rule: QuadratureRule
    seed: int
    t_grid: tuple | None

    def __post_init__(self):
        self.counterexample = self.field.label == "small-cap"
        singular = _singular(self.field)
        self.stride = None if singular else _oracle_stride(self.rule.size)
        # Checked here so a bad configuration fails before any jet is built;
        # each offset is checked by its map (-0.0 is 0.0).
        if self.counterexample or singular:
            if self.t_grid:
                twist = self.field.params.get("twist", "none")
                raise ValueError(
                    f"field {self.field.label!r} with twist {twist!r} has no image-volume rows, "
                    f"so offsets {list(self.t_grid)} are not read"
                )
            self.t_grid = ()
        elif self.t_grid is None:
            self.t_grid = T_GRID
        self.t_grid = tuple(DisplacementMap(self.field, float(t) + 0.0).t for t in self.t_grid)
        names = [IMAGE_VOLUME_ROW.format(t) for t in self.t_grid]
        if len(set(names)) < len(names):
            raise ValueError(f"offsets {list(self.t_grid)} give report rows of the same name: {names}")
        if not self.counterexample:
            _require_hopf_boundary(self.field, self.rule.domain)
        elif self.rule.kind != "gauss":
            raise ValueError("the small-cap counterexample integrates with Gauss rules only")


def run_all(config: VerifyConfig) -> list[CheckReport]:
    """Execute every applicable check for the configured field."""
    return check_hopf_constants(ORACLE_NODES, config.seed, "ad") + _field_reports(config)


def _field_reports(config: VerifyConfig) -> list[CheckReport]:
    """The checks of the field, each a row read off its one jet streamed over the rule.

    The field's own rows, then the AD-against-FD oracle if the configuration
    has a stride, then one image-volume row per offset of the configuration.
    """
    field, rule = config.field, config.rule
    sums = jet_sums(field, rule, config.t_grid, config.stride)
    cap = rule.domain
    vol_k = cap_volume(cap)
    ctx = _field_context(field, rule)
    if config.counterexample:
        reports = _small_cap_reports(sums, rule, SMALL_CAP_SCALING_RADII)
    else:
        e, v = energy_and_volume_from_sums(sums, rule)
        rows = [
            # int sigma2 = vol(K) and int sigma1 = 0: the t^2 and t^1 coefficients.
            ("boundary_sigma2_integral", sums.sigma2[0], vol_k, TOL_INTEGRAL_REL, "rel"),
            ("boundary_sigma1_integral", sums.sigma1[0], 0.0, TOL_INTEGRAL_REL * vol_k, "abs"),
            # E(v) >= E(H) and vol(v) >= vol(H).
            ("energy_bound", e.value, hopf_energy(cap), TOL_BOUND_REL * vol_k, "lower-bound"),
            ("volume_bound", v.value, hopf_volume(cap), TOL_BOUND_REL * vol_k, "lower-bound"),
        ]
        reports = [_report(*row, ctx) for row in rows]
    if config.stride is not None:
        reports.append(_ad_fd_report(field, rule, sums, config.stride))
    # Image volume equals vol(K) (1 + t^2)^(3/2) for each offset t.
    for t in config.t_grid:
        t_ctx = dict(ctx, t=float(t))
        try:
            val, _ = image_volume_from_sums(t, sums)
        except ValueError as exc:
            # Determinant dipped below the floor: t is outside the
            # diffeomorphism window for this field; report, don't crash.
            t_ctx["det_floor_rejection"] = str(exc)
            val = None
        target = vol_k * (1.0 + t * t) ** 1.5
        reports.append(_report(IMAGE_VOLUME_ROW.format(t), val, target, TOL_INTEGRAL_REL, "rel", t_ctx))
    return reports
