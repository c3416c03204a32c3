"""hopfcap benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hopfcap is imported from its
``src/``.  Every run is a fresh process calling ``hopfcap.cli.main`` on the
workload's arguments (``workloads.py``) with ``--seed N``, so each run's
peak memory is its own.  OpenBLAS is pinned to ``BLAS_THREADS`` threads
(at most nproc).  Each run's output is checked (``validate.py``) and must be
byte-identical to the invocation's first run.

--trace 0: repeat the untraced run while another run fits in S seconds, at
    least ``MIN_RUNS`` times; before each of the first ``MIN_RUNS`` runs, time
    ``SETUP_REPS_PER_RUN`` fresh set-ups (after one warm-up), so the set-up
    samples spread over the invocation.  Reports the medians of ``wall_s``,
    ``cpu_s``, ``peak_mem_mb`` and ``setup_s``, and ``pass_frac`` (runs
    passing every check / runs attempted).
--trace 1: run pairs of one untraced and one traced run, in alternating
    order, while another pair fits in S seconds (at least one pair).  Reports
    the per-layer metrics of ``tracer.layer_metrics`` (low medians over the
    traced runs, so counts stay whole) and ``trace.overhead_s``; the spans of
    each traced run go to ``.bench_out/``.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A per-invocation record with the environment and every
run goes to ``.bench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from validate import problems  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = min(2, os.cpu_count() or 1)
MIN_RUNS = 4
SETUP_REPS_PER_RUN = 2
DEADLINE_S = 170.0


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS))
        self.runs = []
        self.first_output = None

    def _child(self, *args):
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise subprocess.TimeoutExpired(CHILD, 0)
        return subprocess.run(
            [sys.executable, CHILD, *args], capture_output=True, text=True,
            timeout=remaining, env=self.env, cwd=ROOT,
        )

    def setup_s(self, reps: int) -> list:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            proc = self._child("setup", self.workload)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")
            times.append(elapsed)
        return times

    def run(self, traced: bool) -> dict:
        k = len(self.runs) + 1
        tag = f"{self.workload}-seed{self.seed}-run{k}"
        args = ["run", self.workload, str(self.seed)]
        if traced:
            args += [os.path.join(OUT_DIR, f"spans-{tag}.jsonl"), tag]
        try:
            proc = self._child(*args)
            record = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            proc, record = None, {"problems": [f"run did not complete: {exc!r}"]}
        if record is None:
            record = {"problems": [f"benchmark child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
        else:
            record.setdefault("problems", [])
        if "output" in record:
            record["problems"] += problems(self.workload, record["rc"], record["output"])
            if self.first_output is None:
                self.first_output = record["output"]
            elif record["output"] != self.first_output:
                record["problems"].append("output differs from the first run's")
            del record["output"]
        record["traced"] = traced
        self.runs.append(record)
        timing = "no timing"
        if "wall_s" in record:
            timing = f"wall {record['wall_s']:.3f} s, cpu {record['cpu_s']:.3f} s, peak {record['peak_mem_mb']:.1f} MB"
        status = "FAIL: " + "; ".join(record["problems"]) if record["problems"] else "ok"
        print(f"run {k} ({'traced' if traced else 'untraced'}): {timing}: {status}", flush=True)
        return record

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r["problems"])


def _median(runs, key):
    return statistics.median(r[key] for r in runs if key in r)


def measure(bench: Bench, seconds: int) -> dict:
    bench.setup_s(1)  # fills the bytecode and page caches
    setup, used = [], 0.0
    while True:
        if len(bench.runs) < MIN_RUNS:
            setup += bench.setup_s(SETUP_REPS_PER_RUN)
        t0 = bench.elapsed()
        if "wall_s" not in bench.run(traced=False):
            break
        used += bench.elapsed() - t0
        n = len(bench.runs)
        if n >= MIN_RUNS and used + used / n > seconds:
            break
    ok = [r for r in bench.runs if "wall_s" in r] or [{"wall_s": 0.0, "cpu_s": 0.0, "peak_mem_mb": 0.0}]
    print(f"wall_s, cpu_s, peak_mem_mb: medians of {len(ok)} runs; setup_s: median of {len(setup)} set-ups")
    return {
        "wall_s": (_median(ok, "wall_s"), "s"),
        "cpu_s": (_median(ok, "cpu_s"), "s"),
        "peak_mem_mb": (_median(ok, "peak_mem_mb"), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "pass_frac": ((len(bench.runs) - bench.failed) / len(bench.runs), "fraction"),
    }


def trace(bench: Bench, seconds: int) -> dict:
    pair_s = 0.0
    while not bench.runs or bench.elapsed() + pair_s <= seconds:
        t0 = bench.elapsed()
        # Alternate which run of a pair goes first, so drift cancels.
        if len(bench.runs) % 4 == 0:
            plain, traced = bench.run(traced=False), bench.run(traced=True)
        else:
            traced, plain = bench.run(traced=True), bench.run(traced=False)
        if "layers" not in traced or "wall_s" not in plain:
            break
        pair_s = bench.elapsed() - t0
    traced = [r for r in bench.runs if "layers" in r]
    plain = [r for r in bench.runs if not r["traced"] and "wall_s" in r]
    if not traced or not plain:
        return {}
    metrics = {
        name: (statistics.median_low(r["layers"][name][0] for r in traced), unit)
        for name, (_, unit) in traced[0]["layers"].items()
    }
    metrics["trace.overhead_s"] = (_median(traced, "wall_s") - _median(plain, "wall_s"), "s")
    print(f"per-layer metrics: medians of {len(traced)} traced runs; overhead against {len(plain)} untraced runs")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfcap", "cli.py")):
        print(f"error: no hopfcap source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    bench = Bench(args.workload, args.seed)
    metrics = (trace if args.trace else measure)(bench, args.seconds)
    env = next((r["env"] for r in bench.runs if "env" in r), None)
    print("env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted = len(bench.runs)
    print(f"fail_frac = {bench.failed}/{attempted} = {bench.failed / attempted:.6g}")

    result = {
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, blas_threads_pinned=BLAS_THREADS, env=env, runs=bench.runs)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
