"""hgtnet benchmark.

    python3 perfbench/run.py --workload paper-train|tiny-fit|paper-eval \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; hgtnet is imported from its ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics
of a separate traced run.  The lines before it say the same in words.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper-train", "tiny-fit", "paper-eval")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hgtnet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hgtnet").is_dir():
        print(f"perfbench: no hgtnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one process, at most one thread per usable core, BLAS included; must
    # be set before numpy loads its BLAS
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness
    import workloads

    import_s = time.perf_counter() - _START
    workload = workloads.WORKLOADS[args.workload]()
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"config {json.dumps(workload.config(), default=str)}")
    print(f"machine {json.dumps(harness.machine_facts())}")
    result = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  str(ROOT), import_s=import_s)
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
