"""Command-line entry point.

Subcommands:

* ``verify``      -- run the check matrix for a field/cap, write a JSON report.
* ``functionals`` -- print energy/volume of the field next to the Hopf values.
* ``sweep``       -- amplitude sweep of the bump family, CSV output; its
  minimality checks (argmin at 0, refined minimum near 0) set the exit code.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad flags.
Flags are validated before any field is evaluated.  JSON reports are strict
(a value a check could not compute is null) and byte-identical for identical
configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .checks import (
    GAUSS_ORDERS,
    MC_SAMPLES,
    SWEEP_AMPLITUDES,
    T_GRID,
    TOL_BOUND_REL,
    TOL_INTEGRAL_REL,
    VerifyConfig,
    run_all,
    sweep_family,
    sweep_reports,
)
from .displace import DET_FLOOR
from .fields import BumpProfile, UnitField, hopf_field, perturbed_field, small_cap_field
from .functionals import energy_and_volume
from .geometry import CapDomain, SpherePoint, cap_volume

OUTPUT_DIR_ENV = "HOPFCAP_OUTPUT_DIR"
# The report formats each command writes; the first is its default.
FORMATS = {"verify": ("json",), "functionals": ("json", "csv"), "sweep": ("csv",)}


@dataclass
class RunConfig:
    """Parsed command-line configuration."""

    command: str
    cap_center: tuple
    cap_radius: float
    field: str
    amplitude: float
    exponent: int
    twist: str
    axis: tuple
    orders: tuple
    rule: str
    samples: int
    seed: int
    t_grid: tuple
    mode: str
    sigma_tol: float | None
    integral_tol: float
    bound_tol: float
    det_floor: float
    output: str | None
    fmt: str
    amplitudes: tuple


def _csv_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _csv_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hopfcap")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--cap-center", type=_csv_floats, default=(1.0, 0.0, 0.0, 0.0))
        p.add_argument("--cap-radius", type=float, default=1.0)
        p.add_argument("--field", choices=["hopf", "perturbed", "small-cap"], default="hopf")
        p.add_argument("--amplitude", type=float, default=0.5)
        p.add_argument("--exponent", type=int, default=3)
        p.add_argument("--twist", choices=["none", "angular"], default="none")
        p.add_argument("--axis", type=_csv_floats, default=(0.0, 1.0, 0.0, 0.0))
        p.add_argument("--orders", type=_csv_ints, default=GAUSS_ORDERS)
        p.add_argument("--rule", choices=["gauss", "montecarlo"], default="gauss")
        p.add_argument("--samples", type=int, default=MC_SAMPLES)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--t-grid", type=_csv_floats, default=T_GRID)
        p.add_argument("--mode", choices=["ad", "fd"], default="ad")
        p.add_argument("--sigma-tol", type=float, default=None)
        p.add_argument("--integral-tol", type=float, default=TOL_INTEGRAL_REL)
        p.add_argument("--bound-tol", type=float, default=TOL_BOUND_REL)
        p.add_argument("--det-floor", type=float, default=DET_FLOOR)
        p.add_argument("--output", default=None)
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)

    add_common(sub.add_parser("verify", help="run the full check matrix"))
    add_common(sub.add_parser("functionals", help="report energy/volume of the field"))
    p_sweep = sub.add_parser("sweep", help="amplitude sweep of the bump family")
    add_common(p_sweep)
    p_sweep.add_argument("--amplitudes", type=_csv_floats, default=SWEEP_AMPLITUDES)
    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        cap_center=args.cap_center,
        cap_radius=args.cap_radius,
        field=args.field,
        amplitude=args.amplitude,
        exponent=args.exponent,
        twist=args.twist,
        axis=args.axis,
        orders=args.orders,
        rule=args.rule,
        samples=args.samples,
        seed=args.seed,
        t_grid=args.t_grid,
        mode=args.mode,
        sigma_tol=args.sigma_tol,
        integral_tol=args.integral_tol,
        bound_tol=args.bound_tol,
        det_floor=args.det_floor,
        output=args.output,
        fmt=args.fmt or FORMATS[args.command][0],
        amplitudes=getattr(args, "amplitudes", SWEEP_AMPLITUDES),
    )


def _validate(config: RunConfig) -> CapDomain:
    """Reject bad flags before any heavy work starts; returns the cap."""
    if not (0.0 < config.cap_radius <= math.pi):
        raise ValueError(f"cap radius must lie in (0, pi], got {config.cap_radius}")
    if len(config.cap_center) != 4:
        raise ValueError("cap center needs 4 components")
    if config.fmt not in FORMATS[config.command]:
        raise ValueError(
            f"{config.command} writes {' or '.join(FORMATS[config.command])}, not {config.fmt}"
        )
    return CapDomain(SpherePoint(np.asarray(config.cap_center)), config.cap_radius)


def _make_field(config: RunConfig, cap: CapDomain) -> UnitField:
    if config.field == "hopf":
        return hopf_field(config.axis)
    if config.field == "perturbed":
        return perturbed_field(
            cap,
            BumpProfile(config.amplitude, config.exponent),
            twist=config.twist,
            axis=config.axis,
        )
    if config.field == "small-cap":
        return small_cap_field(cap)
    raise ValueError(f"unknown field {config.field!r}")


def _resolve_output(config: RunConfig, default_name: str) -> str | None:
    """Report path, or None for stdout; its directory must already exist."""
    path = config.output
    if path is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV)
        if not out_dir:
            return None
        path = os.path.join(out_dir, default_name)
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} does not exist")
    return path


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def cmd_verify(config: RunConfig) -> int:
    cap = _validate(config)
    path = _resolve_output(config, "verify.json")
    field = _make_field(config, cap)
    vconf = VerifyConfig(
        cap=cap,
        fields=[field],
        orders=config.orders,
        rule_kind=config.rule,
        mc_samples=config.samples,
        seed=config.seed,
        t_grid=config.t_grid,
        mode=config.mode,
        sigma_tolerance=config.sigma_tol,
        integral_tolerance=config.integral_tol,
        bound_tolerance=config.bound_tol,
        det_floor=config.det_floor,
    )
    reports = run_all(vconf)
    text = json.dumps(
        [r.to_dict() for r in reports], indent=2, sort_keys=True, allow_nan=False
    ) + "\n"
    _emit(text, path)
    return 0 if all(r.passed for r in reports) else 1


def cmd_functionals(config: RunConfig) -> int:
    cap = _validate(config)
    path = _resolve_output(config, f"functionals.{config.fmt}")
    field = _make_field(config, cap)
    vconf = VerifyConfig(cap=cap, fields=[], orders=config.orders, rule_kind=config.rule,
                         mc_samples=config.samples, seed=config.seed)
    rule = vconf.build_rule()
    e, v = energy_and_volume(field, cap, rule, mode=config.mode)
    vol_k = cap_volume(cap)
    rows = {
        "field": field.label,
        "energy": e.value,
        "volume": v.value,
        "hopf_energy": 2.5 * vol_k,
        "hopf_volume": 2.0 * vol_k,
        "energy_surplus": e.value - 2.5 * vol_k,
        "volume_surplus": v.value - 2.0 * vol_k,
    }
    if config.fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(rows))
        writer.writerow([rows[k] for k in rows])
        text = buf.getvalue()
    _emit(text, path)
    return 0


def cmd_sweep(config: RunConfig) -> int:
    cap = _validate(config)
    path = _resolve_output(config, "sweep.csv")
    vconf = VerifyConfig(cap=cap, fields=[], orders=config.orders, rule_kind=config.rule,
                         mc_samples=config.samples, seed=config.seed)
    rule = vconf.build_rule()
    result = sweep_family(
        cap,
        config.amplitudes,
        rule,
        exponent=config.exponent,
        twist=config.twist if config.twist != "none" else None,
        mode=config.mode,
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["amplitude", "energy", "volume"])
    for a, e, v in zip(result.amplitudes, result.energies, result.volumes):
        writer.writerow([a, e, v])
    buf.write(
        f"# argmin_energy={result.amplitudes[result.argmin_energy]} "
        f"argmin_volume={result.amplitudes[result.argmin_volume]} "
        f"refined_energy_min={result.refined_energy_min} "
        f"refined_volume_min={result.refined_volume_min}\n"
    )
    _emit(buf.getvalue(), path)
    return 0 if all(r.passed for r in sweep_reports(result)) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = _config_from_args(args)
    handlers = {"verify": cmd_verify, "functionals": cmd_functionals, "sweep": cmd_sweep}
    try:
        return handlers[config.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
