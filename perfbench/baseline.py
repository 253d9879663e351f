"""Run every workload on several seeds and record the baseline.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

Each run is one ``run.py`` invocation (so one fresh set of worker
processes) with its own seed; seeds are 1 to ``--runs``. For every
end-to-end metric the script reports the median and the quartiles of the
runs, and the spread: the distance between the quartiles as a share of the
median, which must stay within the metric's bound in ``BENCHMARK.json``.
With ``--trace`` it runs the traced variant and records the per-layer
metrics the same way. The output also records the environment and the git
commit the numbers belong to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[-1], lines[0]["environment"], elapsed


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)
    if args.runs < 4:
        ap.error("--runs must be >= 4 for quartiles")

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    report: dict = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace,
                    "seeds": list(range(1, args.runs + 1)),
                    "git_commit": git_commit(), "cpu_model": cpu_model(), "workloads": {}}
    ok = True
    for workload in args.workloads:
        samples: dict[str, list[float]] = {}
        durations = []
        for seed in report["seeds"]:
            result, env, elapsed = run_once(workload, seed, args.seconds, args.trace)
            report["environment"] = env
            durations.append(elapsed)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s", file=sys.stderr, flush=True)
        summary = {name: summarize(values) for name, values in samples.items()}
        report["workloads"][workload] = {"run_wall_s": summarize(durations),
                                         "metrics": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] <= bound / 3 else \
                    "within bound" if s["spread"] <= bound else "OVER BOUND"
                ok = ok and s["spread"] <= bound
            print(f"{workload:22s} {name:45s} median {s['median']:12.5g} "
                  f"spread {s['spread']:7.2%}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
