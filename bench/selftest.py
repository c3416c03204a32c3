"""Self-test of the tracing harness against the initial implementation.

    python3 bench/selftest.py [WORKLOAD ...]

Traces each workload (all by default) twice with seed 0 and asserts that
the outputs pass their checks, that every count repeats exactly, that the
traced metrics are the ``per_layer`` list of ``BENCHMARK.json``, and that the
counts equal those of the initial implementation below.  They are the
baseline that count claims are stated against: after a change that shares
jets, this self-test reports the new counts as differences from it.
"""

import json
import os
import sys

from run import ROOT, OUT_DIR, Bench
from workloads import WORKLOADS

SEED_COUNTS = {
    "verify-perturbed": {"calculus.jet_calls": 11, "calculus.jet_nodes": 1_410_720},
    "sweep-bump": {
        "calculus.jet_calls": 50,
        "functionals.energy_calls": 25,
        "functionals.volume_calls": 25,
    },
    "functionals-large": {"calculus.jet_calls": 2},
}


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]} - {"trace.overhead_s"}
    os.makedirs(OUT_DIR, exist_ok=True)
    errors = []
    for workload in argv or list(WORKLOADS):
        bench = Bench(workload, seed=0)
        runs = [bench.run(traced=True) for _ in range(2)]
        errors += [f"{workload}: {p}" for r in runs for p in r["problems"]]
        if any("layers" not in r for r in runs):
            continue
        first, second = (r["layers"] for r in runs)
        if set(first) != declared:
            errors.append(f"{workload}: traced metrics differ from BENCHMARK.json: {sorted(set(first) ^ declared)}")
        for name, (value, unit) in first.items():
            if unit == "count" and second[name][0] != value:
                errors.append(f"{workload}: {name} = {value} then {second[name][0]}")
        for name, want in SEED_COUNTS[workload].items():
            if first[name][0] != want:
                errors.append(f"{workload}: {name} = {first[name][0]}, seed value {want}")
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
