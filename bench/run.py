"""femupdate benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload rsm-h12 --seed 0 --seconds 55 --trace 0

Run from anywhere inside a source checkout. This entry point fixes the
workload's BLAS thread count in the environment (see workloads.py)
before numpy, and with it BLAS, is loaded, then hands over to
harness.py, which builds, times, gates and reports the run.
"""

from __future__ import annotations

import argparse
import os
import sys

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; at least one update call always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(workloads.blas_thread_env(workloads.WORKLOADS[args.workload]))

    import harness  # loads numpy, so only after the thread count is set

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
