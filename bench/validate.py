"""Checks on one workload run's CLI output.

Energies and volumes are compared, by check name or amplitude, with values
recorded from the initial implementation (``reference.json``) within
``REL_TOL``; keys a report gains later are ignored.  ``problems`` returns the
reasons a run fails, empty when it passes.
"""

import csv
import io
import json
import os

# Relative tolerance on energies and volumes.  The recorded values are exact
# for the code they came from; this leaves room for a kernel or summation
# order that differs in the last digits.
REL_TOL = 1e-9
SWEEP_LOCATION_TOL = 0.02
VERIFY_CHECKS = (
    "hopf_sigma1_zero",
    "hopf_sigma2_one",
    "boundary_sigma2_integral",
    "boundary_sigma1_integral",
    "energy_bound",
    "volume_bound",
    "image_volume_t0.05",
    "image_volume_t0.1",
    "image_volume_t0.15",
    "image_volume_t0.2",
    "image_volume_t0.25",
    "image_volume_t0.3",
)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in JSON report")

    return json.loads(text, parse_constant=reject)


def _compare(label, got, want) -> list:
    if not isinstance(got, (int, float)) or abs(got - want) > REL_TOL * abs(want):
        return [f"{label} = {got!r}, recorded {want!r} (rel tol {REL_TOL:g})"]
    return []


def _verify(output) -> list:
    reports = {r["name"]: r for r in _strict_json(output)}
    found = []
    for name in VERIFY_CHECKS:
        if name not in reports:
            found.append(f"check {name} missing")
        elif reports[name]["passed"] is not True:
            found.append(f"check {name} failed")
    for name, want in REFERENCE["verify-perturbed"].items():
        if name in reports:
            found += _compare(f"{name} lhs", reports[name]["lhs"], want)
    return found


def _sweep(output) -> list:
    rows = list(csv.reader(io.StringIO(output)))
    table = [r for r in rows if r and not r[0].startswith("#")]
    if not table or table[0][:3] != ["amplitude", "energy", "volume"]:
        return ["sweep CSV header missing"]
    values = {float(r[0]): (float(r[1]), float(r[2])) for r in table[1:]}
    found = []
    for i, functional in enumerate(("energy", "volume")):
        for amp, want in REFERENCE["sweep-bump"][functional].items():
            if float(amp) not in values:
                found.append(f"sweep row A={amp} missing")
            else:
                found += _compare(f"{functional}(A={amp})", values[float(amp)][i], want)
    summary = {}
    for r in rows:
        if r and r[0].startswith("#"):
            summary.update(tok.split("=", 1) for tok in " ".join(r).lstrip("# ").split() if "=" in tok)
    for functional in ("energy", "volume"):
        argmin = summary.get(f"argmin_{functional}")
        refined = summary.get(f"refined_{functional}_min")
        if argmin is None or float(argmin) != 0.0:
            found.append(f"{functional} argmin at A={argmin}, expected 0")
        if refined is None or not abs(float(refined)) <= SWEEP_LOCATION_TOL:
            found.append(f"refined {functional} minimum at A={refined}, expected |A| <= {SWEEP_LOCATION_TOL}")
    return found


def _functionals(output) -> list:
    report = _strict_json(output)
    found = []
    for key, want in REFERENCE["functionals-large"].items():
        found += _compare(key, report.get(key), want)
    return found


CHECKERS = {"verify-perturbed": _verify, "sweep-bump": _sweep, "functionals-large": _functionals}


def problems(workload: str, rc: int, output: str) -> list:
    found = [] if rc == 0 else [f"exit code {rc}"]
    try:
        found += CHECKERS[workload](output)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        found.append(f"unreadable output: {exc!r}")
    return found
