"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload train-mle-sql --seed 1 --seconds 25 --trace 0

Run from the root of a treecomment checkout; the program is imported from
``src/``. Each repetition runs in a fresh worker process (``worker.py``),
because within one process the first repetition runs faster than later
ones. Workers run one after another until the timed phases add up to
``--seconds`` as closely as whole workers can and the workload's minimum
number of workers has run. A training worker runs one pass of fixed
length; a generate worker sends requests for its share of ``--seconds``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` workers alternate between untraced and traced, the traced ones
time every call into the library's layers (see ``tracer.py``), and the last
line holds the per-layer metrics. Earlier lines record the environment and
the workload's input shape. Any failed output check, or any difference
between the outputs of two workers, ends the run with exit code 1 and no
metrics line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("train-mle-sql", "train-mixed-sql", "generate-wide-lambda")

# one BLAS thread, because the workloads are single-threaded closed loops;
# a fixed hash seed, so that set and dict layouts do not vary between runs
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "examples_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "dev_bleu4": "1",
    "loss_end": "nats",
}


class RunFailed(Exception):
    pass


def environment(workers: list[dict]) -> dict:
    """Versions and machine, with the BLAS thread count a worker measured."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    measured = workers[0]["blas_threads"]
    if measured is None:
        env["blas_threads_requested"] = int(WORKER_ENV["OPENBLAS_NUM_THREADS"])
    else:
        env["blas_threads"] = measured
    return env


def spawn(workload: str, seed: int, budget: float, traced: bool, workdir: Path,
          deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--budget", repr(budget), "--trace", str(int(traced)),
           "--workdir", str(workdir)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before the minimum number of workers ran")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                              env={**os.environ, **WORKER_ENV})
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> list[dict]:
    deadline = time.monotonic() + DEADLINE_S
    min_workers = 2 if trace else workload.min_workers
    workers: list[dict] = []
    spent = 0.0
    # stop at the worker count whose timed phases add up closest to --seconds
    while (len(workers) < min_workers or spent + spent / len(workers) / 2 < seconds
           or (trace and len(workers) % 2)):
        remaining = max(min_workers - len(workers), 1)
        budget = max(seconds - spent, 0.0) / remaining
        traced = trace and len(workers) % 2 == 1
        w = spawn(workload.name, seed, budget, traced, workdir, deadline)
        workers.append(w)
        spent += w["timed_s"]
    for w in workers:
        t = w.get("trace")
        # spans nest, so self times are non-negative and add up to at most
        # the worker's wall time; the rest is the uncovered share
        if t and (t["min_self_s"] < -1e-6 or t["self_total_s"] > t["wall_s"] + 1e-6):
            raise RunFailed("span self times do not fit in the worker's wall time")
    first = workers[0]
    for w in workers[1:]:
        if w["digest"] != first["digest"]:
            raise RunFailed("two workers on one seed produced different outputs"
                            + (" (traced vs untraced)" if w["traced"] != first["traced"] else ""))
    return workers


def end_to_end(workers: list[dict]) -> dict[str, float]:
    latencies = [x for w in workers for x in w["latencies_ms"]]
    return {
        "setup_s": statistics.median(x for w in workers for x in w["setup_s"]),
        "examples_per_s": sum(w["examples"] for w in workers)
                          / sum(w["timed_s"] for w in workers),
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "dev_bleu4": workers[0]["dev_bleu4"],
        "loss_end": workers[0]["loss_end"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one treecomment benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "treecomment" / "__init__.py").is_file():
        print("perfbench: run from the root of a treecomment checkout "
              "(src/treecomment not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from tracer import LAYER_METRICS, layer_metrics
    from workloads import WORKLOADS

    workdir = root / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workers = run_workers(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), workdir)
    except RunFailed as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    untraced = [w for w in workers if not w["traced"]]
    traced = [w for w in workers if w["traced"]]
    e2e = end_to_end(untraced)
    if args.trace:
        values = layer_metrics(traced)
        rate = sum(w["examples"] for w in traced) / sum(w["timed_s"] for w in traced)
        values["trace.overhead_ratio"] = rate / e2e["examples_per_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"environment": environment(workers)}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "input_shape": workers[0]["shape"],
                      "workers": len(workers), "traced_workers": len(traced),
                      "latency_samples": sum(len(w["latencies_ms"]) for w in untraced),
                      # below 1 when the host took the CPU away during the timed phase
                      "cpu_share": sum(w["timed_cpu_s"] for w in untraced)
                                   / sum(w["timed_s"] for w in untraced),
                      "spans_files": [w["spans_file"] for w in traced]}))
    attempted = sum(w["ops"] for w in workers)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
