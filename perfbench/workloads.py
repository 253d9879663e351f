"""The benchmark's workloads: seeded inputs, set-up, the timed closed loop,
and the checks on every operation's output.

Every workload is a closed loop in one process and one Python thread: the
client sends the next operation when the last one returns. An operation is
one optimizer step in the training workloads and one request in the
generate workload. Inputs come only from the seed; the library receives
the generated inputs and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import statistics
import time
from dataclasses import dataclass

from lambdagen import MAX_ARITY, generate_wide_lambda
from tracer import maybe_span
from treecomment import corpus, metrics, params, parsers, training
from treecomment.corpus import Example, Vocab, examples_from_pairs, tokenize_comment
from treecomment.training import TrainConfig

DEV_SIZE = 200              # held-out examples, evaluated once, at the final step
WARMUP_SEED = 0             # seed of the generate workload's warm-up corpus
WARMUP_SIZE = 32            # warm-up corpus size; one query has the widest arity
POOL_REQUESTS = 48          # requests the generate client cycles through
REQUEST_SIZE = 4            # code strings per request
LOSS_END_INPUTS = 32        # request inputs the served model's loss_end is taken over


class CheckFailed(Exception):
    """An operation's output failed the benchmark's correctness check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class GuardCounter(logging.Handler):
    """Counts the loss guard's unreachable-unit warnings from outside."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.hits = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("unreachable target unit"):
            self.hits += 1


def digest(obj) -> str:
    """Hash of a JSON value; floats go through repr, so equal digests mean
    bit-identical numbers."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def input_shape(examples, target_vocab: Vocab) -> dict:
    """What the workload feeds the library; printed so that drift shows.
    ``oov_share`` is the share of comment tokens outside the target
    vocabulary, which only copying can produce."""
    trees = [ex.tree for ex in examples]
    tokens = [tok for ex in examples for tok in ex.comment]
    return {
        "trees": len(trees),
        "mean_nodes": sum(len(t) for t in trees) / len(trees),
        "max_arity": max(t.max_child_count() for t in trees),
        "mean_comment_len": len(tokens) / len(trees),
        "oov_share": sum(tok not in target_vocab for tok in tokens) / len(tokens),
    }


# --- training workloads ---------------------------------------------------------

@dataclass(frozen=True)
class TrainWorkload:
    """``train()`` on the 50%-OOV wikisql synthetic corpus.

    A pass is one set-up and one ``train()`` of ``total_steps`` steps. The
    train split holds exactly ``total_steps`` batches, so no step is short
    and each example is seen once. The held-out dev split is evaluated once,
    at the final step. The learning rate is twenty times the library
    default so that one short pass already learns: the quality guards
    ``dev_bleu4`` and ``loss_end`` then sit well above zero and well below
    their ceilings.
    """
    name: str
    config: TrainConfig
    min_workers: int = 2

    def inputs(self, seed: int):
        train_size = self.config.total_steps * self.config.batch_size
        pairs = corpus.generate_synthetic(train_size + DEV_SIZE, seed=seed,
                                          grammar="wikisql", oov_fraction=0.5)
        examples = examples_from_pairs(pairs, "sql")
        return examples[:train_size], examples[train_size:]

    def setup(self, seed: int):
        """Corpus generation, vocabularies, lint and ``build_model``: what a
        trainer pays before the first step. ``train()`` repeats the last
        three itself, inside the timed phase."""
        cfg = self.config
        train_ex, dev_ex = self.inputs(seed)
        source_vocab = corpus.build_vocab(
            (corpus.source_token_stream(ex.tree) for ex in train_ex), cfg.min_freq_source)
        target_vocab = corpus.build_vocab((ex.comment for ex in train_ex), cfg.min_freq_target)
        corpus.lint_examples(train_ex, target_vocab)
        training.build_model(cfg, "wikisql", source_vocab, target_vocab)
        return train_ex, dev_ex, target_vocab

    def run(self, seed: int, budget_s: float, workdir: str, tracer=None) -> dict:
        """One pass. A pass has a fixed length, so ``budget_s`` is not used:
        ``run.py`` fills a run's ``--seconds`` with passes in fresh workers."""
        t0 = time.perf_counter()
        with maybe_span(tracer, "bench.setup"):
            train_ex, dev_ex, target_vocab = self.setup(seed)
        setup_s = [time.perf_counter() - t0]

        cfg = self.config
        rows: list[dict] = []
        stamps: list[float] = []

        def log_writer(row: dict) -> None:
            stamps.append(time.perf_counter())
            rows.append(dict(row))
            if tracer is not None:
                tracer.op = row["step"] + 1

        if tracer is not None:
            tracer.op = 1
        t0, c0 = time.perf_counter(), time.process_time()
        result = training.train(train_ex, dev_ex, cfg, log_writer=log_writer)
        timed_s = time.perf_counter() - t0
        timed_cpu_s = time.process_time() - c0

        steps = cfg.total_steps
        check(not result.aborted, "training aborted on a non-finite loss")
        check([r["step"] for r in rows] == list(range(1, steps + 1)),
              f"expected one log row per step 1..{steps}, got {len(rows)} rows")
        for r in rows:
            for key in ("loss_mle", "loss_hrl", "reward_mean"):
                check(r[key] is None or math.isfinite(r[key]),
                      f"step {r['step']}: {key} is {r[key]}")
            check(r["loss_mle"] is not None or r["loss_hrl"] is not None,
                  f"step {r['step']}: no loss logged")
        check(rows[-1]["dev_bleu4"] is not None, "final log row has no dev_bleu4")
        # both schedules give the likelihood term a positive weight at every step
        losses = [r["loss_mle"] for r in rows]
        check(None not in losses, "a step logged no likelihood loss")

        # step 1 also pays train()'s own vocabularies, lint and model build,
        # and the last step also pays the dev evaluation
        latencies = [(b - a) * 1000.0 for a, b in zip(stamps[:-2], stamps[1:-1])]
        return {
            "setup_s": setup_s,
            "timed_s": timed_s,
            "timed_cpu_s": timed_cpu_s,
            "ops": steps,
            "train_steps": steps,
            "examples": steps * cfg.batch_size,
            "latencies_ms": latencies,
            "dev_bleu4": rows[-1]["dev_bleu4"],
            # the first quarter of a pass mostly reflects the initialisation
            "loss_end": statistics.fmean(losses[steps // 4:]),
            "digest": digest(rows),
            "shape": input_shape(train_ex, target_vocab),
            "params_tensors": len(result.store),
            "params_values": result.store.total_values(),
        }


# --- generate workload ------------------------------------------------------------

@dataclass(frozen=True)
class GenerateWorkload:
    """Greedy comment generation for wide lambda-calculus queries.

    Set-up trains briefly on the benchmark's own generator (one query of the
    widest arity plus narrower ones, so every (type, slot) pair a request
    can use has trained weights), then round-trips the parameters through
    ``save_checkpoint`` and ``load_checkpoint`` into a fresh ``build_model``,
    as ``treecomment generate`` does. A request is ``REQUEST_SIZE`` code
    strings: each is parsed, the batch is decoded with
    ``greedy_candidates``, and each output is scored with sentence BLEU-4.
    The client cycles through a fixed pool of requests, so ``dev_bleu4``
    covers the same inputs on every worker. After the timed phase,
    ``loss_end`` is the served model's mean teacher-forced loss on the
    references of the first ``LOSS_END_INPUTS`` request inputs.
    """
    name: str
    config: TrainConfig
    min_workers: int = 3

    def inputs(self, seed: int):
        # the warm-up corpus does not depend on the seed: every run serves
        # requests from the same model, as a deployed model would, and the
        # seed varies only the requests
        warmup = (generate_wide_lambda(1, WARMUP_SEED, stream=1, min_arity=MAX_ARITY)
                  + generate_wide_lambda(WARMUP_SIZE - 1, WARMUP_SEED, stream=2))
        pool = generate_wide_lambda(POOL_REQUESTS * REQUEST_SIZE, seed, stream=3)
        requests = [[(code, tuple(tokenize_comment(comment)))
                     for code, comment in pool[i:i + REQUEST_SIZE]]
                    for i in range(0, len(pool), REQUEST_SIZE)]
        return examples_from_pairs(warmup, "lambda"), requests

    def setup(self, seed: int, workdir: str):
        """Corpus generation, warm-up ``train()`` (which builds the
        vocabularies and the model) and the checkpoint round-trip into a
        fresh ``build_model``."""
        cfg = self.config
        warmup, requests = self.inputs(seed)
        trained = training.train(warmup, [], cfg)
        check(not trained.aborted, "warm-up training aborted on a non-finite loss")
        path = os.path.join(workdir, f"checkpoint-{os.getpid()}.bin")
        try:
            params.save_checkpoint(trained.store, path)
            arrays = params.load_checkpoint(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        store, encoder, decoder = training.build_model(
            cfg, "atis", trained.source_vocab, trained.target_vocab)
        store.load_snapshot(arrays)
        snapshot = trained.store.snapshot()
        check(sorted(arrays) == sorted(snapshot)
              and all(arrays[k].tobytes() == snapshot[k].tobytes() for k in snapshot),
              "checkpoint round-trip changed the parameters")
        losses = [r["loss_mle"] for r in trained.history]
        check(all(math.isfinite(x) for x in losses), "warm-up loss is not finite")
        return store, encoder, decoder, requests, trained.target_vocab, losses

    def run(self, seed: int, budget_s: float, workdir: str, tracer=None) -> dict:
        """Set up once, then send the pool of requests, over and over, until
        ``budget_s`` has passed at the end of a cycle."""
        t0 = time.perf_counter()
        with maybe_span(tracer, "bench.setup"):
            store, encoder, decoder, requests, target_vocab, losses = \
                self.setup(seed, workdir)
        setup_s = [time.perf_counter() - t0]
        n_params = len(store)
        max_len = decoder.config.max_len

        outputs: list[list[list[str]] | None] = [None] * len(requests)
        latencies: list[float] = []
        done = 0
        t_start, c_start = time.perf_counter(), time.process_time()
        # whole cycles only, so per-request averages do not depend on speed
        while (done == 0 or done % len(requests)
               or time.perf_counter() - t_start < budget_s):
            i = done % len(requests)
            if tracer is not None:
                tracer.op = done
            t0 = time.perf_counter()
            with maybe_span(tracer, "bench.request"):
                batch = [Example(tree=parsers.parse_lambda(code), comment=ref)
                         for code, ref in requests[i]]
                cands = training.greedy_candidates(batch, encoder, decoder)
                scores = [metrics.bleu4(c, ex.comment).value for c, ex in zip(cands, batch)]
            latencies.append((time.perf_counter() - t0) * 1000.0)
            done += 1

            check(len(cands) == len(batch), f"request {i}: {len(cands)} outputs "
                  f"for {len(batch)} inputs")
            for c in cands:
                check(isinstance(c, list) and all(isinstance(t, str) for t in c),
                      f"request {i}: output is not a token list")
                check(len(c) <= max_len, f"request {i}: output of {len(c)} tokens "
                      f"exceeds max_len {max_len}")
            check(all(0.0 <= s <= 1.0 for s in scores), f"request {i}: score out of [0, 1]")
            if outputs[i] is None:
                outputs[i] = cands
            else:
                check(outputs[i] == cands, f"request {i}: output changed on repeat")
        timed_s = time.perf_counter() - t_start
        timed_cpu_s = time.process_time() - c_start

        if tracer is not None:
            tracer.op = -2
        flat = [c for req in outputs for c in req]
        refs = [list(ref) for req in requests for _, ref in req]
        with maybe_span(tracer, "bench.report"):
            dev_bleu4 = metrics.corpus_eval(flat, refs)["bleu4"]
            served = [Example(tree=parsers.parse_lambda(code), comment=ref)
                      for req in requests for code, ref in req]
            # the served model's teacher-forced loss on the requests' references
            served_losses = [float(training.mle_loss(ex, encoder, decoder).data)
                             for ex in served[:LOSS_END_INPUTS]]
            shape = input_shape(served, target_vocab)
        check(all(math.isfinite(x) for x in served_losses), "served loss is not finite")
        check(len(store) == n_params, "decoding created parameters the warm-up "
              "training never trained")
        return {
            "setup_s": setup_s,
            "timed_s": timed_s,
            "timed_cpu_s": timed_cpu_s,
            "ops": done,
            "train_steps": 0,
            "examples": done * REQUEST_SIZE,
            "latencies_ms": latencies,
            "dev_bleu4": dev_bleu4,
            "loss_end": statistics.fmean(served_losses),
            "digest": digest([flat, losses, served_losses]),
            "shape": shape,
            "params_tensors": len(store),
            "params_values": store.total_values(),
        }


WORKLOADS = {
    "train-mle-sql": TrainWorkload(
        name="train-mle-sql",
        config=TrainConfig(hidden_size=32, batch_size=32, total_steps=32,
                           learning_rate=0.02, mle_only=True, max_decode_len=16,
                           eval_every=10**9, seed=5)),
    "train-mixed-sql": TrainWorkload(
        name="train-mixed-sql",
        config=TrainConfig(hidden_size=32, batch_size=16, total_steps=40,
                           learning_rate=0.02, mle_only=False, max_decode_len=16,
                           eval_every=10**9, seed=6)),
    "generate-wide-lambda": GenerateWorkload(
        name="generate-wide-lambda",
        config=TrainConfig(hidden_size=32, batch_size=8, total_steps=16,
                           learning_rate=0.025, mle_only=True, max_decode_len=32,
                           min_freq_source=1, min_freq_target=2,
                           eval_every=10**9, seed=7)),
}
