"""Benchmark entry point: run one workload of `it2rrap solve` and print
its result as the last line of standard output.

    python3 perfbench/run.py --workload sp-pso-front --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  It starts ``worker.py`` in a fresh
interpreter with numpy's thread pools pinned to one thread, so that the
worker can time a cold set-up from its own start, and waits for it.  The
workloads and metrics are described in ``perfbench/README.md``.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
# leaves room under the 180 s a run may take
TIMEOUT_S = 170.0
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True)
    args = parser.parse_args()
    # a terminated launcher stops its worker too (see the except below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ, **{name: "1" for name in ONE_THREAD})
    start = time.perf_counter()
    worker = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", args.workload,
         "--seed", args.seed, "--seconds", args.seconds,
         "--trace", args.trace, "--t0", repr(start)],
        env=env)
    try:
        return worker.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print(f"error: the run took longer than {TIMEOUT_S:g} s",
              file=sys.stderr)
        return 1
    except BaseException:
        worker.kill()
        worker.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
