"""zenojc benchmark: seeded `zeno` workloads, closed loop, one client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/`. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics. See README.md.
"""

import os
import signal

if __name__ == "__main__":
    # One BLAS thread: on a shared 2-core host two threads made the same
    # command's time spread several-fold. Set before numpy is first
    # imported; child processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import harness

    # SIGTERM unwinds the stack, so the child process is stopped and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, harness.terminate)
    try:
        raise SystemExit(harness.main())
    except harness.Terminated:
        raise SystemExit(128 + signal.SIGTERM) from None
