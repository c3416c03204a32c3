"""Command-line entry point.

Subcommands:

* ``verify``      -- run the check matrix for a field/cap; JSON report.
* ``functionals`` -- energy/volume of the field next to the Hopf values,
  as JSON or CSV.
* ``sweep``       -- amplitude sweep of the bump family, CSV output; its
  minimality checks (argmin at 0, refined minimum near 0) set the exit code.

Each command runs in two phases: it validates its flags and builds its
inputs (cap, field, rule, configuration), then computes its report text
and exit code.  ``main`` checks ``--output`` before the first phase and
writes the report after the second: to the ``--output`` file, or to
standard output when the flag is unset.  No environment variable is read.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad input
(a ``ValueError`` in the first phase), 3 any other error, such as a
``ValueError`` during the computation (its traceback goes to stderr).
Each command accepts only the flags it reads, and a field or rule flag
that the chosen ``--field`` or ``--rule`` would not read exits 2.
Tolerances, the determinant floor and the Hopf sample count are fixed by
the library.  JSON reports are strict (a value a check could not compute
is null) and byte-identical for identical configuration and seed.

``main`` owns the process, so before it parses arguments it sets two
process policies.  The C allocator keeps freed memory mapped: the streamed
jet allocates and frees the same block temporaries once per ``JET_BLOCK``
nodes, and under glibc's default policy that memory goes back to the kernel
after each block and is faulted in again, zeroed, for the next.  The idle
OpenBLAS thread pool is stopped: no command makes a BLAS call large enough
to use it, yet a pool worker busy-waits for about 2^28 clock ticks after it was started or last
used, and when the imports end inside that window the rest of the spin
burns CPU during the command.  A library must not change its importer's
allocator or BLAS pool, so both live here and not in the package.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import io
import json
import os
import sys
import traceback
from collections.abc import Callable

import numpy as np

from .checks import (
    AMPLITUDE,
    GAUSS_ORDERS,
    MC_SAMPLES,
    SWEEP_AMPLITUDES,
    VerifyConfig,
    run_all,
    sweep_family,
    sweep_grid,
    sweep_reports,
)
from .fields import BumpProfile, UnitField, hopf_field, perturbed_field, small_cap_field
from .functionals import energy_and_volume, hopf_energy, hopf_volume
from .geometry import QUAT_ONE, CapDomain, SpherePoint
from .quadrature import JET_BLOCK, QuadratureRule, build_gauss_rule, build_mc_rule

# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _c_library() -> ctypes.CDLL:
    """The C library the process is linked against."""
    return ctypes.CDLL(None)


def _keep_freed_memory() -> None:
    """Make the C allocator keep the jet's freed block memory for the next block.

    glibc maps an allocation above its mmap threshold afresh and returns the
    free top of its heap to the kernel above its trim threshold.  Each block
    of the streamed jet allocates and frees its nodes, weights and reduced
    rows beside the dual temporaries.  The mmap threshold is set above the
    largest of these, the (3, 4, JET_BLOCK) float64 tangent, and the trim
    threshold well above one block's peak heap (about 7 to 9 MB).  Without
    ``mallopt`` the C library keeps its own policy.
    """
    mallopt = getattr(_c_library(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    tangent_bytes = 3 * 4 * 8 * JET_BLOCK
    mallopt(_M_MMAP_THRESHOLD, 4 * tangent_bytes)
    mallopt(_M_TRIM_THRESHOLD, 64 * tangent_bytes)


def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS object numpy loaded from its wheel's ``numpy.libs``, if any."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "*openblas*.so*"))
    return ctypes.CDLL(paths[0]) if paths else None


def _stop_idle_blas_pool() -> None:
    """Stop OpenBLAS's worker threads, so none spins while a command runs.

    An OpenBLAS worker busy-waits for 2^28 time-stamp-counter ticks (about
    125 ms at 2.1 GHz) after the library loads or a threaded call ends,
    before it sleeps.  ``blas_thread_shutdown_`` is the function OpenBLAS
    registers as its own ``pthread_atfork`` prepare handler: it joins the
    workers, and the next threaded call starts them again with the same
    thread count.  Without the object or the symbol the pool is left as is.
    """
    shutdown = getattr(_openblas(), "blas_thread_shutdown_", None)
    if shutdown is None:
        return
    shutdown.argtypes = ()
    shutdown.restype = ctypes.c_int
    shutdown()


def _csv(convert: Callable, form: str) -> Callable[[str], tuple]:
    """An argparse type for comma-separated values, each read by ``convert``.

    argparse names a type function that raises ValueError in its message
    ("invalid parse value"), so a bad item raises ArgumentTypeError naming
    the form expected instead.
    """

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None

    return parse


_csv_floats = _csv(float, "comma-separated numbers")
_csv_ints = _csv(int, "comma-separated integers")


def _seed(text: str) -> int:
    """A --seed value; random.Random would read a negative seed as its absolute value."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {seed}")
    return seed


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
    for p in commands.values():
        p.add_argument("--cap-center", type=_csv_floats, default=tuple(QUAT_ONE))
        p.add_argument("--cap-radius", type=float, default=1.0)
        # Flags that only some fields or rules read default to None, so that
        # _make_field and _make_rule can tell a flag that was set from one that
        # was not; unset ones take the library defaults.
        p.add_argument("--exponent", type=int, default=None)
        p.add_argument("--twist", choices=["none", "angular"], default=None)
        p.add_argument("--orders", type=_csv_ints, default=None)
        p.add_argument("--rule", choices=["gauss", "montecarlo"], default="gauss")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--output", default=None)
    for p in (commands["verify"], commands["functionals"]):
        p.add_argument("--field", choices=["hopf", "perturbed", "small-cap"], default="hopf")
        p.add_argument("--amplitude", type=float, default=None)
        p.add_argument("--axis", type=_csv_floats, default=None)
    commands["verify"].add_argument("--t-grid", type=_csv_floats, default=None)
    commands["functionals"].add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    commands["sweep"].add_argument("--amplitudes", type=_csv_floats, default=SWEEP_AMPLITUDES)
    return parser


def _make_cap(args: argparse.Namespace) -> CapDomain:
    """The cap; SpherePoint and CapDomain reject a bad center or radius."""
    return CapDomain(SpherePoint(np.asarray(args.cap_center)), args.cap_radius)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags that were set, as keyword arguments."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _reject(flags: dict, reader: str) -> None:
    if flags:
        names = ", ".join("--" + n.replace("_", "-") for n in flags)
        raise ValueError(f"{names} not read by {reader}")


def _make_field(args: argparse.Namespace, cap: CapDomain) -> UnitField:
    """The field --field names; a flag that field would not read is rejected."""
    if args.field != "perturbed":
        _reject(_given(args, "amplitude", "exponent", "twist"), f"--field {args.field}")
    if args.field == "hopf":
        return hopf_field(**_given(args, "axis"))
    if args.field == "perturbed":
        amplitude = AMPLITUDE if args.amplitude is None else args.amplitude
        bump = BumpProfile(amplitude, **_given(args, "exponent"))
        return perturbed_field(cap, bump, **_given(args, "twist", "axis"))
    _reject(_given(args, "axis"), "--field small-cap")
    return small_cap_field(cap)


def _make_rule(args: argparse.Namespace, cap: CapDomain) -> QuadratureRule:
    """The rule --rule names; --samples and --orders are each read by one rule only."""
    if args.rule == "montecarlo":
        _reject(_given(args, "orders"), "--rule montecarlo")
        return build_mc_rule(cap, MC_SAMPLES if args.samples is None else args.samples, seed=args.seed)
    _reject(_given(args, "samples"), "--rule gauss")
    orders = GAUSS_ORDERS if args.orders is None else args.orders
    if len(orders) != 3:
        raise ValueError(f"Gauss orders need 3 entries n_rho,n_theta,n_phi, got {len(orders)}")
    return build_gauss_rule(cap, *orders)


def _check_output(path: str | None) -> None:
    """Reject an ``--output`` that is not a file name in a directory that
    exists, or that the OS will not open for writing.

    The probe opens the file for appending, which keeps an existing file's
    bytes, and removes the file again if the probe created it.
    """
    if path is None:
        return
    if not path or os.path.isdir(path):
        raise ValueError(f"output path {path!r} is not a file name")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} does not exist")
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ValueError(f"output path {path!r} cannot be written: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _json_text(data) -> str:
    """Strict JSON: sorted keys, no NaN or infinity, one closing newline."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(rows) -> str:
    """CSV rows, each ended by a bare newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def cmd_verify(args: argparse.Namespace) -> Callable[[], tuple[str, int]]:
    cap = _make_cap(args)
    vconf = VerifyConfig(
        field=_make_field(args, cap),
        rule=_make_rule(args, cap),
        seed=args.seed,
        t_grid=args.t_grid,
    )

    def compute() -> tuple[str, int]:
        reports = run_all(vconf)
        return _json_text([r.to_dict() for r in reports]), 0 if all(r.passed for r in reports) else 1

    return compute


def cmd_functionals(args: argparse.Namespace) -> Callable[[], tuple[str, int]]:
    cap = _make_cap(args)
    field = _make_field(args, cap)
    rule = _make_rule(args, cap)

    def compute() -> tuple[str, int]:
        e, v = energy_and_volume(field, rule)
        rows = {
            "field": field.label,
            "energy": e.value,
            "volume": v.value,
            "hopf_energy": hopf_energy(cap),
            "hopf_volume": hopf_volume(cap),
            "energy_surplus": e.value - hopf_energy(cap),
            "volume_surplus": v.value - hopf_volume(cap),
        }
        text = _json_text(rows) if args.fmt == "json" else _csv_text([list(rows), list(rows.values())])
        return text, 0

    return compute


def cmd_sweep(args: argparse.Namespace) -> Callable[[], tuple[str, int]]:
    cap = _make_cap(args)
    amplitudes = sweep_grid(args.amplitudes)
    # The family's bump profile, built here so a bad --exponent is input.
    BumpProfile(0.0, **_given(args, "exponent"))
    rule = _make_rule(args, cap)

    def compute() -> tuple[str, int]:
        result = sweep_family(cap, amplitudes, rule, **_given(args, "exponent", "twist"))
        rows = zip(result.amplitudes, result.energies, result.volumes)
        text = _csv_text([["amplitude", "energy", "volume"], *rows]) + (
            f"# argmin_energy={result.amplitudes[result.argmin_energy]} "
            f"argmin_volume={result.amplitudes[result.argmin_volume]} "
            f"refined_energy_min={result.refined_energy_min} "
            f"refined_volume_min={result.refined_volume_min}\n"
        )
        return text, 0 if all(r.passed for r in sweep_reports(result)) else 1

    return compute


def main(argv=None) -> int:
    _stop_idle_blas_pool()
    _keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"verify": cmd_verify, "functionals": cmd_functionals, "sweep": cmd_sweep}
    try:
        try:
            _check_output(args.output)
            compute = handlers[args.command](args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text, code = compute()
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        return code
    except Exception:
        # A crash must not read as a failed check (exit 1) or as bad input.
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
