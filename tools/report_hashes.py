"""Hash the reports of a fixed set of hopfcap commands, one line each.

    python3 tools/report_hashes.py [--src DIR]

Each command runs as ``python -m hopfcap.cli ARGS`` in a child process
with ``PYTHONPATH`` set to DIR (default ``./src``), ``OPENBLAS_NUM_THREADS=1``
and the checkout that holds DIR as its working directory.  A line reads
``sha16 exit=N ARGS``: the first 16 hex digits of the SHA-256 of the
child's standard output and error, combined as ``2>&1`` would, followed by
``exit=N`` and a newline.  That is the digest of

    { PYTHONPATH=src python -m hopfcap.cli ARGS 2>&1; echo "exit=$?"; } | sha256sum

so the lines compare with hashes taken that way.  Two checkouts give the
same lines exactly when every report keeps its bytes; run it on both on
one host and compare the output.  Uses the standard library only.
"""

import argparse
import hashlib
import os
import subprocess
import sys

# An off-centre cap: no quaternion basis unit, so its Gauss slabs carry
# distinct values of cos rho.  Its centre and the tangent basis b1, b2 that
# the angular twist reads each have four non-zero components, so the
# twisted commands' bits follow the order of the jet's seeded sums.
OFF_CENTRE = "--cap-center=0.32163376045133846,-0.5360562674188974,0.7504787743864564,0.214422506967559"

COMMANDS = (
    "verify --orders 32,16,32",
    "verify --field hopf --rule montecarlo",
    "verify --field perturbed --orders 32,16,32",
    "verify --field perturbed --rule montecarlo",
    "verify --field perturbed --twist angular --orders 32,16,32",
    "verify --field perturbed --twist angular --rule montecarlo",
    "verify --field small-cap --cap-radius 0.3 --orders 32,16,32",
    "verify --field small-cap --cap-radius 0.3 --rule montecarlo",
    "verify --field perturbed",
    "verify --field perturbed --amplitude 0.5 --orders 24,12,24 --t-grid 0.1,0.2",
    "functionals --field perturbed --orders 32,16,32 --format json",
    "functionals --field perturbed --orders 32,16,32 --format csv",
    "functionals --field small-cap --cap-radius 0.3 --format csv",
    "sweep --orders 32,16,32",
    "sweep --twist angular --orders 24,12,24",
    "sweep --rule montecarlo --samples 20000 --seed 2",
    "functionals --field perturbed --orders 96,48,96",
    f"verify --field perturbed {OFF_CENTRE} --orders 24,12,24 --axis 0,0.48,0.6,0.64",
    f"verify --field small-cap {OFF_CENTRE} --cap-radius 0.3",
    f"verify --field perturbed --twist angular {OFF_CENTRE} --orders 24,12,24",
    f"functionals --field perturbed --twist angular {OFF_CENTRE} --orders 32,16,32",
)


def report_hash(args: str, src: str) -> tuple[str, int]:
    """The 16-digit hash of one command's combined output and exit line, and its exit code."""
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcap.cli", *args.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=os.path.dirname(src),
    )
    digest = hashlib.sha256(proc.stdout + f"exit={proc.returncode}\n".encode())
    return digest.hexdigest()[:16], proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="the hopfcap source directory to import (default ./src)")
    src = os.path.abspath(parser.parse_args(argv).src)
    for args in COMMANDS:
        digest, code = report_hash(args, src)
        print(f"{digest} exit={code} {args}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
