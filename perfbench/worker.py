"""One repetition of a workload in a fresh process.

Run by ``run.py``; prints one JSON object on its last stdout line. Exits 3
when an operation's output fails a check, so no number is reported for it.

    python3 perfbench/worker.py --workload train-mle-sql --seed 1 \
        --budget 10 --trace 0 --workdir .bench_build/perfbench
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, GuardCounter  # noqa: E402

EXIT_CHECK_FAILED = 3

# the thread-count query of numpy's bundled OpenBLAS, and of a system one
_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> int | None:
    """The thread count the OpenBLAS loaded into this process runs with, as
    the library itself reports it; None when no OpenBLAS is loaded."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                return int(query())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds the timed phase should last at least")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True,
                    help="directory for the checkpoint round-trip and span files")
    args = ap.parse_args(argv)

    guards = GuardCounter()
    train_log = logging.getLogger("treecomment.training")
    train_log.addHandler(guards)
    train_log.propagate = False

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = workload.run(args.seed, args.budget, args.workdir, tracer)
    except CheckFailed as exc:
        print(f"{args.workload}: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    finally:
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()

    result["guard_hits"] = guards.hits
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["traced"] = bool(args.trace)
    result["blas_threads"] = blas_threads()
    if tracer is not None:
        result["trace"] = tracer.summary(wall_s)
        path = Path(args.workdir) / f"spans-{args.workload}-{args.seed}-{os.getpid()}.json"
        path.write_text(json.dumps(tracer.to_json()))
        result["spans_file"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
