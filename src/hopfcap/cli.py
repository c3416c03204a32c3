"""Command-line entry point.

Subcommands:

* ``verify``      -- run the check matrix for a field/cap, write a JSON report.
* ``functionals`` -- print energy/volume of the field next to the Hopf values.
* ``sweep``       -- amplitude sweep of the bump family, CSV output; its
  minimality checks (argmin at 0, refined minimum near 0) set the exit code.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad flags.
Each command accepts only the flags it reads, and flags are validated
before any field is evaluated.  JSON reports are strict (a value a check
could not compute is null) and byte-identical for identical configuration
and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

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
from .functionals import energy_and_volume, hopf_energy, hopf_volume
from .geometry import CapDomain, SpherePoint

OUTPUT_DIR_ENV = "HOPFCAP_OUTPUT_DIR"
# The report formats each command writes; the first is its default.
FORMATS = {"verify": ("json",), "functionals": ("json", "csv"), "sweep": ("csv",)}


def _csv_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _csv_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hopfcap")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "verify": "run the full check matrix",
        "functionals": "report energy/volume of the field",
        "sweep": "amplitude sweep of the bump family",
    }
    # Each command registers only the flags it reads and argparse rejects the
    # rest; no abbreviations, so sweep's --amplitude is not --amplitudes.
    commands = {
        name: sub.add_parser(name, help=text, allow_abbrev=False) for name, text in helps.items()
    }
    for name, p in commands.items():
        p.add_argument("--cap-center", type=_csv_floats, default=(1.0, 0.0, 0.0, 0.0))
        p.add_argument("--cap-radius", type=float, default=1.0)
        p.add_argument("--exponent", type=int, default=3)
        p.add_argument("--twist", choices=["none", "angular"], default="none")
        p.add_argument("--orders", type=_csv_ints, default=GAUSS_ORDERS)
        p.add_argument("--rule", choices=["gauss", "montecarlo"], default="gauss")
        p.add_argument("--samples", type=int, default=MC_SAMPLES)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=["ad", "fd"], default="ad")
        p.add_argument("--output", default=None)
        p.add_argument("--format", dest="fmt", choices=FORMATS[name], default=FORMATS[name][0])
    for p in (commands["verify"], commands["functionals"]):
        p.add_argument("--field", choices=["hopf", "perturbed", "small-cap"], default="hopf")
        p.add_argument("--amplitude", type=float, default=0.5)
        p.add_argument("--axis", type=_csv_floats, default=(0.0, 1.0, 0.0, 0.0))
    p = commands["verify"]
    p.add_argument("--t-grid", type=_csv_floats, default=T_GRID)
    p.add_argument("--sigma-tol", type=float, default=None)
    p.add_argument("--integral-tol", type=float, default=TOL_INTEGRAL_REL)
    p.add_argument("--bound-tol", type=float, default=TOL_BOUND_REL)
    p.add_argument("--det-floor", type=float, default=DET_FLOOR)
    commands["sweep"].add_argument("--amplitudes", type=_csv_floats, default=SWEEP_AMPLITUDES)
    return parser


def _validate(args: argparse.Namespace) -> CapDomain:
    """Reject bad flags before any heavy work starts; returns the cap."""
    if not (0.0 < args.cap_radius <= math.pi):
        raise ValueError(f"cap radius must lie in (0, pi], got {args.cap_radius}")
    if len(args.cap_center) != 4:
        raise ValueError("cap center needs 4 components")
    return CapDomain(SpherePoint(np.asarray(args.cap_center)), args.cap_radius)


def _make_field(args: argparse.Namespace, cap: CapDomain) -> UnitField:
    if args.field == "hopf":
        return hopf_field(args.axis)
    if args.field == "perturbed":
        return perturbed_field(
            cap,
            BumpProfile(args.amplitude, args.exponent),
            twist=args.twist,
            axis=args.axis,
        )
    if args.field == "small-cap":
        return small_cap_field(cap)
    raise ValueError(f"unknown field {args.field!r}")


def _resolve_output(args: argparse.Namespace, default_name: str) -> str | None:
    """Report path, or None for stdout; its directory must already exist."""
    path = args.output
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


def cmd_verify(args: argparse.Namespace) -> int:
    cap = _validate(args)
    path = _resolve_output(args, "verify.json")
    field = _make_field(args, cap)
    vconf = VerifyConfig(
        cap=cap,
        fields=[field],
        orders=args.orders,
        rule_kind=args.rule,
        mc_samples=args.samples,
        seed=args.seed,
        t_grid=args.t_grid,
        mode=args.mode,
        sigma_tolerance=args.sigma_tol,
        integral_tolerance=args.integral_tol,
        bound_tolerance=args.bound_tol,
        det_floor=args.det_floor,
    )
    reports = run_all(vconf)
    text = json.dumps(
        [r.to_dict() for r in reports], indent=2, sort_keys=True, allow_nan=False
    ) + "\n"
    _emit(text, path)
    return 0 if all(r.passed for r in reports) else 1


def cmd_functionals(args: argparse.Namespace) -> int:
    cap = _validate(args)
    path = _resolve_output(args, f"functionals.{args.fmt}")
    field = _make_field(args, cap)
    vconf = VerifyConfig(cap=cap, fields=[], orders=args.orders, rule_kind=args.rule,
                         mc_samples=args.samples, seed=args.seed)
    rule = vconf.build_rule()
    e, v = energy_and_volume(field, cap, rule, mode=args.mode)
    rows = {
        "field": field.label,
        "energy": e.value,
        "volume": v.value,
        "hopf_energy": hopf_energy(cap),
        "hopf_volume": hopf_volume(cap),
        "energy_surplus": e.value - hopf_energy(cap),
        "volume_surplus": v.value - hopf_volume(cap),
    }
    if args.fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(rows))
        writer.writerow([rows[k] for k in rows])
        text = buf.getvalue()
    _emit(text, path)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cap = _validate(args)
    path = _resolve_output(args, "sweep.csv")
    vconf = VerifyConfig(cap=cap, fields=[], orders=args.orders, rule_kind=args.rule,
                         mc_samples=args.samples, seed=args.seed)
    rule = vconf.build_rule()
    result = sweep_family(
        cap,
        args.amplitudes,
        rule,
        exponent=args.exponent,
        twist=args.twist if args.twist != "none" else None,
        mode=args.mode,
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
    handlers = {"verify": cmd_verify, "functionals": cmd_functionals, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
