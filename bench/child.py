"""One benchmark step in a fresh process; ``run.py`` starts it.

    python3 bench/child.py setup WORKLOAD
        import hopfcap.cli and build the workload's quadrature rule (timed by
        the parent from process start to exit: that is ``setup_s``).
    python3 bench/child.py run WORKLOAD SEED [SPANS_PATH RUN_ID]
        call ``hopfcap.cli.main`` once on the workload; with SPANS_PATH, trace
        it and write its spans there.  Prints one JSON line: exit code, wall
        and CPU seconds of the call, the process's peak RSS, the CLI output,
        the environment and, when traced, the per-layer metrics.

hopfcap is imported from ``src/`` of the checkout that holds this file.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def _import_cli():
    import hopfcap.cli

    if not os.path.abspath(hopfcap.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hopfcap imported from {hopfcap.cli.__file__}, not from {SRC}")
    return hopfcap.cli


def _blas_threads():
    """OpenBLAS's own thread count, read back from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup(workload: str) -> None:
    from workloads import WORKLOADS

    _import_cli()
    import numpy as np

    from hopfcap.geometry import CapDomain, SpherePoint
    from hopfcap.quadrature import build_gauss_rule

    build_gauss_rule(CapDomain(SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])), 1.0), *WORKLOADS[workload][1])


def run(workload: str, seed: int, spans_path=None, run_id=None) -> dict:
    import contextlib
    import io
    import resource
    import time

    from workloads import cli_args

    cli = _import_cli()
    tracer = None
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0, c0 = time.perf_counter(), time.process_time()
        rc = cli.main(cli_args(workload, seed))
        t1, c1 = time.perf_counter(), time.process_time()
    record = {
        "rc": rc,
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "output": out.getvalue(),
        "env": environment(),
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        record["layers"] = tracing.layer_metrics(tracer.spans)
        record["spans"] = len(tracer.spans)
    return record


def main(argv) -> int:
    import json

    if argv[:1] == ["setup"] and len(argv) == 2:
        setup(argv[1])
        return 0
    if argv[:1] == ["run"] and len(argv) in (3, 5):
        print(json.dumps(run(argv[1], int(argv[2]), *argv[3:])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
