"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench -q

The tests marked ``slow`` run every workload twice through ``run.py``
(about five minutes on 2 CPUs); deselect them with ``-m 'not slow'``.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lambdagen import MAX_ARITY, generate_wide_lambda  # noqa: E402
from treecomment import training  # noqa: E402
from treecomment.parsers import parse_lambda  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

# metrics that are counts of work, not timings: two runs of one seed must
# report them exactly
EXACT = ("encoder.encode.calls_per_example", "decoder.step.calls_per_example",
         "metrics.bleu4.calls_per_trajectory", "autodiff.tape_nodes_per_example",
         "params.tensors", "params.values", "training.guard_hits",
         "decoder.copy_rate", "decoder.output_len_mean")


def invoke(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return proc, lines


# --- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} \
        == tracer_mod.LAYER_METRICS


# --- inputs ------------------------------------------------------------------------

def test_wide_lambda_generator_is_seeded_and_wide():
    a = generate_wide_lambda(40, seed=3, stream=1)
    assert a == generate_wide_lambda(40, seed=3, stream=1)
    assert a != generate_wide_lambda(40, seed=4, stream=1)
    assert a != generate_wide_lambda(40, seed=3, stream=2)
    trees = [parse_lambda(code) for code, _ in a]
    assert all(8 <= len(t.node(3).children) <= MAX_ARITY for t in trees)
    assert 30 <= sum(len(t) for t in trees) / len(trees) <= 40
    widest = parse_lambda(generate_wide_lambda(1, seed=0, min_arity=MAX_ARITY)[0][0])
    assert widest.max_child_count() == MAX_ARITY
    # every conjunct is a predicate, so the widest tree covers every
    # (slot, k) forget-gate pair a narrower request can use
    assert {widest.node(c).type for c in widest.node(3).children} == {"pred"}


def test_training_inputs_depend_only_on_the_seed():
    w = workloads.WORKLOADS["train-mle-sql"]
    train_a, dev_a = w.inputs(7)
    train_b, dev_b = w.inputs(7)
    assert train_a == train_b and dev_a == dev_b
    assert len(train_a) % w.config.batch_size == 0
    assert w.inputs(8)[0] != train_a


# --- checks and failure handling ---------------------------------------------------

def test_worker_exits_nonzero_on_a_failed_check(monkeypatch, capsys):
    def nan_train(train_ex, dev_ex, cfg, log_writer=None, initial_params=None):
        for step in range(1, cfg.total_steps + 1):
            log_writer({"step": step, "mu": 1.0, "loss_mle": float("nan"),
                        "loss_hrl": None, "reward_mean": None, "dev_bleu4": 0.5,
                        "dev_rouge2": None, "dev_rougeL": None})
        return SimpleNamespace(aborted=False)

    monkeypatch.setattr(training, "train", nan_train)
    code = worker.main(["--workload", "train-mle-sql", "--seed", "1", "--budget", "0",
                        "--trace", "0", "--workdir", str(ROOT / ".bench_build")])
    out, err = capsys.readouterr()
    assert code == worker.EXIT_CHECK_FAILED
    assert out == "" and "loss_mle is nan" in err


def test_run_prints_no_metrics_when_a_worker_fails(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise run.RunFailed("worker exited with code 3")

    monkeypatch.setattr(run, "spawn", failing)
    code = run.main(["--workload", "train-mle-sql", "--seed", "1", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and "code 3" in err


def test_run_length_is_the_worker_count_closest_to_seconds(monkeypatch):
    def fixed_pass(workload, seed, budget, traced, workdir, deadline):
        return {"timed_s": 8.0, "digest": "d", "traced": traced}

    monkeypatch.setattr(run, "spawn", fixed_pass)
    one = SimpleNamespace(name="train-mle-sql", min_workers=1)
    assert len(run.run_workers(one, 1, 24.0, False, ROOT)) == 3
    assert len(run.run_workers(one, 1, 27.0, False, ROOT)) == 3
    assert len(run.run_workers(one, 1, 29.0, False, ROOT)) == 4
    three = SimpleNamespace(name="train-mle-sql", min_workers=3)
    assert len(run.run_workers(three, 1, 1.0, False, ROOT)) == 3
    # traced runs alternate untraced and traced workers, so end on a pair
    assert len(run.run_workers(three, 1, 24.0, True, ROOT)) == 4


def test_blas_thread_count_is_read_from_the_library():
    proc = subprocess.run([sys.executable, "-c", "import numpy, worker; "
                           "numpy.ones(2) @ numpy.ones(2); print(worker.blas_threads())"],
                          cwd=HERE, capture_output=True, text=True, timeout=120,
                          env={**os.environ, **run.WORKER_ENV})
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "None":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert int(proc.stdout) == int(run.WORKER_ENV["OPENBLAS_NUM_THREADS"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = invoke("train-mle-sql", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0 and lines == []


# --- tracing -------------------------------------------------------------------------

def test_self_times_and_uncovered_time_add_up_to_the_wall_time():
    t = tracer_mod.Tracer()
    with t.span("outer"):
        with t.span("a"):
            with t.span("a.inner"):
                sum(range(10000))
        with t.span("b"):
            sum(range(10000))
    summary = t.summary(wall_s=1.0)
    outer = t.spans[0][tracer_mod.END] - t.spans[0][tracer_mod.START]
    assert math.isclose(summary["self_total_s"], outer, rel_tol=1e-9)
    assert summary["min_self_s"] >= 0.0
    assert summary["layers"]["a|setup"][2] == 1


def test_tracer_restores_every_patched_function():
    from treecomment.autodiff import Tensor
    from treecomment.decoder import TreeDecoder
    before = (training.train, training.adam_step, Tensor.backward, TreeDecoder.step)
    t = tracer_mod.Tracer()
    t.install()
    assert training.train is not before[0]
    t.uninstall()
    assert (training.train, training.adam_step, Tensor.backward, TreeDecoder.step) == before


# --- whole runs ----------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_runs_repeat_counts_exactly(workload):
    runs = []
    for _ in range(2):
        proc, lines = invoke(workload, 11, 1, 1)
        assert proc.returncode == 0, proc.stderr
        info, result = lines[-2], lines[-1]
        # run.py compares the traced worker's outputs with the untraced one's
        # and fails the run when they differ
        assert info["traced_workers"] >= 1 and info["workers"] > info["traced_workers"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
        runs.append(result["metrics"])
    for name in EXACT:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    if workload == "generate-wide-lambda":
        assert runs[0]["autodiff.tape_nodes_per_example"]["value"] == 0
        assert runs[0]["encoder.encode.calls_per_example"]["value"] == 1
    else:
        assert runs[0]["autodiff.tape_nodes_per_example"]["value"] > 0
        assert runs[0]["params.adam_step.self_ms_per_step"]["value"] > 0
    assert 0 <= runs[0]["trace.uncovered_share"]["value"] < 0.05


@pytest.mark.slow
def test_untraced_run_prints_every_end_to_end_metric():
    proc, lines = invoke("generate-wide-lambda", 5, 1, 0)
    assert proc.returncode == 0, proc.stderr
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
