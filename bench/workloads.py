"""The benchmark's workloads: CLI arguments and the quadrature rule each builds.

Why each workload exists, and which metrics a change should move on it, is
recorded in ``bench/PREDICTIONS.md``.
"""

# name -> (hopfcap CLI arguments without --seed, Gauss orders of its rule)
WORKLOADS = {
    # The certificate users run: 12 checks at the default 64x32x64 rule,
    # 100 000 Hopf points and 6 displacement offsets.
    "verify-perturbed": (
        ["verify", "--field", "perturbed", "--amplitude", "0.5"],
        (64, 32, 64),
    ),
    # Many small evaluations of distinct fields: 7 amplitudes plus golden
    # refinement on a 16 384-node rule; no displacement work.
    "sweep-bump": (
        ["sweep", "--orders", "32,16,32"],
        (32, 16, 32),
    ),
    # One large working set (442 368 nodes): the jet kernel and its memory
    # dominate; checks and displacement are bypassed.
    "functionals-large": (
        ["functionals", "--field", "perturbed", "--orders", "96,48,96"],
        (96, 48, 96),
    ),
}


def cli_args(workload: str, seed: int) -> list:
    return WORKLOADS[workload][0] + ["--seed", str(seed)]
