"""Pair a base revision with the working tree on one benchmark workload.

    python3 tools/pair.py --base HEAD~1 --workload train-mixed-sql --pairs 10 \
        --seconds 25 --label lockstep

Run from the root of a treecomment checkout. The base revision is exported
with ``git archive`` into ``.bench_build/pair/<commit>/``; the change is the
working tree as it stands. Pair k runs ``perfbench/run.py`` on seed k on
both sides, each side with its own copy of the harness, one after the
other; odd seeds run the base first and even seeds the change first, so a
host that slows down over time does not favour one side. After every pair
``BENCH_<label>.json`` is rewritten with each pair's metrics and
change/base ratios and, per end-to-end metric of ``BENCHMARK.json``, the
number of pairs in which the change is better and the medians and
quartiles of the ratios and of both sides. Only local git is needed.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def export(rev: str) -> tuple[str, Path]:
    """The commit ``rev`` names and a directory holding its files."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    target = ROOT / ".bench_build" / "pair" / commit
    if not (target / "perfbench" / "run.py").is_file():
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        target.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(target, filter="data")
    return commit, target


def run_side(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the environment of one ``run.py`` run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds)],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    metrics = {name: m["value"] for name, m in lines[-1]["metrics"].items()}
    return metrics, lines[0]["environment"]


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric named in ``better`` ("higher" or "lower"): the pairs in
    which the change is strictly better (``wins``), and the median and
    quartiles of the change/base ratios (None where the base read 0) and
    of each side's values."""
    out = {}
    for name, direction in better.items():
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        ratios = [p["ratio"][name] for p in pairs if p["ratio"][name] is not None]
        wins = sum((c > b) if direction == "higher" else (c < b) for b, c in zip(base, change))
        out[name] = {"better": direction, "wins": wins, "pairs": len(pairs),
                     "ratio": spread(ratios) if ratios else None,
                     "base": spread(base), "change": spread(change)}
    return out


def ratio(change: float, base: float) -> float | None:
    return change / base if base else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    base_commit, base_root = export(args.base)
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "environment": None, "pairs": [], "summary": {},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    for seed in range(1, args.pairs + 1):
        sides = [("base", base_root), ("change", ROOT)]
        if seed % 2 == 0:
            sides.reverse()
        pair: dict = {"seed": seed, "first": sides[0][0]}
        try:
            for side, root in sides:
                pair[side], record["environment"] = run_side(root, args.workload, seed,
                                                             args.seconds)
        except RuntimeError as exc:
            print(f"pair: {exc}", file=sys.stderr)
            return 1
        pair["ratio"] = {name: ratio(pair["change"][name], pair["base"][name])
                         for name in better}
        record["pairs"].append(pair)
        record["summary"] = summarize(record["pairs"], better)
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"seed {seed}: examples_per_s x{pair['ratio']['examples_per_s']}",
              file=sys.stderr)
    for name, s in record["summary"].items():
        median = None if s["ratio"] is None else s["ratio"]["median"]
        print(f"{name}: ratio median {median}, change better in {s['wins']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
