"""Outside-in tracing: spans around calls into treecomment's public functions.

The tracer patches each function at the name its caller looks it up by (a
module attribute, or a method on its class), records one span per call and
restores every patch on ``uninstall``. Spans stay in memory; the worker
writes them out when its run ends. Nothing inside ``treecomment`` changes,
so traced and untraced runs compute the same values.

A span is ``[name, start, end, parent, op, eval, work]``: ``parent`` indexes
the enclosing span (-1 at top level), ``op`` is the operation id the
workload set when the span opened (-1 during set-up), ``eval`` marks spans
under the dev evaluation inside ``train()``, and ``work`` is a per-call count
some wrappers record (tree nodes for ``encode``, tape nodes for
``backward``).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, OP, EVAL, WORK = range(7)

# calls ``train()`` makes to evaluate on the dev set; they and everything
# below them are evaluation, not training work
EVAL_ROOTS = frozenset({"training.greedy_candidates", "metrics.corpus_eval",
                        "training.mean_sentence_reward"})

# decoding loops that choose their actions (teacher forcing and replay do not)
_CHOOSERS = ("decoder.decode_greedy", "decoder.decode_sample")


def _tape_size(loss) -> int:
    """Distinct tensors reachable from ``loss`` through ``_parents``."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.copies = 0           # copy actions chosen by greedy or sampled decoding
        self.decoded_tokens = 0
        self.decodes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._in_train = 0

    # --- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        in_eval = (parent >= 0 and self.spans[parent][EVAL]) or \
            (self._in_train > 0 and name in EVAL_ROOTS)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, in_eval, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    # --- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, work=None, on_return=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper. ``work`` maps
        the call's arguments to a count stored on the span; ``on_return``
        sees each result."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if work is not None:
                tracer.spans[idx][WORK] = work(*args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        self._patch(owner, attr, wrapper)

    def _decoded(self, tokens) -> None:
        self.decodes += 1
        self.decoded_tokens += len(tokens)

    def install(self) -> None:
        from treecomment import corpus, metrics, params, parsers, training
        from treecomment.autodiff import Tensor
        from treecomment.decoder import TreeDecoder
        from treecomment.encoder import TreeEncoder

        tracer = self
        self.wrap(TreeEncoder, "encode", "encoder.encode",
                  work=lambda enc, tree, *a, **k: len(tree))
        self.wrap(TreeDecoder, "step", "decoder.step")
        self.wrap(TreeDecoder, "score_trajectory", "decoder.score_trajectory")
        self.wrap(TreeDecoder, "decode_greedy", "decoder.decode_greedy",
                  on_return=self._decoded)
        self.wrap(TreeDecoder, "decode_sample", "decoder.decode_sample",
                  on_return=lambda trajectory: self._decoded(trajectory.tokens))

        # greedy and sampled decoding pass each action's copied node (or
        # None) to the decay update, the only place a copy is visible
        advance = TreeDecoder._advance_decay

        @functools.wraps(advance)
        def advance_decay(dec, state, copied_node):
            if copied_node is not None and tracer.parent_name() in _CHOOSERS:
                tracer.copies += 1
            return advance(dec, state, copied_node)

        self._patch(TreeDecoder, "_advance_decay", advance_decay)

        backward = Tensor.backward

        @functools.wraps(backward)
        def traced_backward(loss):
            # the walk is tracing overhead, so it gets a span of its own and
            # stays out of the backward pass's self time
            walk = tracer.open("trace.tape_walk")
            tracer.spans[walk][WORK] = _tape_size(loss)
            tracer.close(walk)
            idx = tracer.open("autodiff.backward")
            try:
                return backward(loss)
            finally:
                tracer.close(idx)

        self._patch(Tensor, "backward", traced_backward)

        train = training.train

        @functools.wraps(train)
        def traced_train(*args, **kwargs):
            idx = tracer.open("training.train")
            tracer._in_train += 1
            try:
                return train(*args, **kwargs)
            finally:
                tracer._in_train -= 1
                tracer.close(idx)

        self._patch(training, "train", traced_train)

        for attr in ("mle_loss", "hrl_loss", "segment_target", "shaped_rewards",
                     "greedy_candidates", "mean_sentence_reward", "build_model"):
            self.wrap(training, attr, f"training.{attr}")
        # ``training`` imported these by name; ``corpus`` callers look them up
        # on the module
        self.wrap(training, "adam_step", "params.adam_step")
        for attr in ("build_vocab", "lint_examples"):
            self.wrap(training, attr, f"corpus.{attr}")
            self.wrap(corpus, attr, f"corpus.{attr}")
        for attr in ("bleu4", "corpus_eval"):
            self.wrap(metrics, attr, f"metrics.{attr}")
        for attr in ("save_checkpoint", "load_checkpoint"):
            self.wrap(params, attr, f"params.{attr}")
        self.wrap(parsers, "parse_lambda", "parsers.parse_lambda")
        self.wrap(corpus, "parse_lambda", "parsers.parse_lambda")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- analysis -------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Sums over this worker's spans, to be pooled across workers.

        ``layers`` maps ``name|phase`` to [self, duration, calls, work]. The
        phase is ``setup`` (op -1), ``report`` (op -2, after the timed
        phase), ``eval`` (the dev evaluation inside ``train()``) or ``timed``.
        """
        durations = [s[END] - s[START] for s in self.spans]
        selfs = list(durations)
        for s, d in zip(self.spans, durations):
            if s[PARENT] >= 0:
                selfs[s[PARENT]] -= d
        layers: dict[str, list] = {}
        actions = reward_bleu4 = 0
        for s, own, d in zip(self.spans, selfs, durations):
            phase = ("setup" if s[OP] == -1 else "report" if s[OP] == -2
                     else "eval" if s[EVAL] else "timed")
            acc = layers.setdefault(f"{s[NAME]}|{phase}", [0.0, 0.0, 0, 0])
            acc[0] += own
            acc[1] += d
            acc[2] += 1
            acc[3] += s[WORK]
            parent = self.spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            if s[NAME] == "decoder.step" and parent in _CHOOSERS:
                actions += 1
            if s[NAME] == "metrics.bleu4" and parent == "training.shaped_rewards":
                reward_bleu4 += 1
        return {
            "layers": layers,
            "wall_s": wall_s,
            "self_total_s": sum(selfs),
            "min_self_s": min(selfs, default=0.0),
            "copies": self.copies,
            "actions": actions,
            "decodes": self.decodes,
            "decoded_tokens": self.decoded_tokens,
            "reward_bleu4_calls": reward_bleu4,
        }

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "op", "eval", "work"],
                "spans": self.spans}


# per-layer metric -> (unit, better); BENCHMARK.json lists the same table
LAYER_METRICS = {
    "encoder.encode.self_ms_per_example": ("ms", "lower"),
    "encoder.encode.us_per_node": ("us", "lower"),
    "encoder.encode.calls_per_example": ("count", "lower"),
    "decoder.step.self_ms_per_example": ("ms", "lower"),
    "decoder.step.calls_per_example": ("count", "lower"),
    "decoder.decode_greedy.self_ms_per_example": ("ms", "lower"),
    "decoder.decode_sample.self_ms_per_example": ("ms", "lower"),
    "decoder.score_trajectory.self_ms_per_example": ("ms", "lower"),
    "decoder.copy_rate": ("1", "higher"),
    "decoder.output_len_mean": ("tokens", "lower"),
    "training.mle_loss.self_ms_per_example": ("ms", "lower"),
    "training.hrl_loss.self_ms_per_example": ("ms", "lower"),
    "training.segment_target.self_ms_per_example": ("ms", "lower"),
    "training.shaped_rewards.self_ms_per_example": ("ms", "lower"),
    "training.dev_eval_ms": ("ms", "lower"),
    "training.loop.self_ms_per_step": ("ms", "lower"),
    "training.guard_hits": ("count", "lower"),
    "metrics.bleu4.calls_per_trajectory": ("count", "lower"),
    "metrics.bleu4.self_ms_per_example": ("ms", "lower"),
    "metrics.corpus_eval_ms": ("ms", "lower"),
    "autodiff.backward.self_ms_per_step": ("ms", "lower"),
    "autodiff.tape_nodes_per_example": ("count", "lower"),
    "params.adam_step.self_ms_per_step": ("ms", "lower"),
    "params.tensors": ("count", "lower"),
    "params.values": ("count", "lower"),
    "params.save_checkpoint_ms": ("ms", "lower"),
    "params.load_checkpoint_ms": ("ms", "lower"),
    "parsers.parse_lambda.self_ms_per_example": ("ms", "lower"),
    "corpus.build_vocab_ms": ("ms", "lower"),
    "corpus.lint_examples_ms": ("ms", "lower"),
    "trace.uncovered_share": ("1", "lower"),
    "trace.overhead_ratio": ("1", "higher"),
}


def maybe_span(tracer: Tracer | None, name: str):
    """A span when tracing, otherwise a context that does nothing."""
    return nullcontext() if tracer is None else tracer.span(name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workers: list[dict]) -> dict[str, float]:
    """Per-layer metrics pooled over traced workers.

    Each worker dict carries its ``trace`` summary plus ``examples`` (training
    examples consumed or inputs decoded), ``train_steps`` (optimizer steps in
    the timed phase), ``setup_s`` (one entry per set-up) and the counts the
    workload reports. Times are ms; a layer the workload never calls reads 0.
    """
    layers: dict[str, list] = {}
    totals = dict.fromkeys(("wall_s", "self_total_s", "copies", "actions", "decodes",
                            "decoded_tokens", "reward_bleu4_calls"), 0.0)
    for w in workers:
        for key, acc in w["trace"]["layers"].items():
            mine = layers.setdefault(key, [0.0, 0.0, 0, 0])
            for i, v in enumerate(acc):
                mine[i] += v
        for key in totals:
            totals[key] += w["trace"][key]
    examples = sum(w["examples"] for w in workers)
    steps = sum(w["train_steps"] for w in workers)
    passes = len(workers)
    setups = sum(len(w["setup_s"]) for w in workers)

    def get(name: str, phase: str = "timed", field: int = 0) -> float:
        return layers.get(f"{name}|{phase}", [0.0, 0.0, 0, 0])[field]

    def self_ms(name: str) -> float:
        return 1000.0 * get(name)

    def all_phases(name: str, field: int) -> float:
        return sum(get(name, phase, field) for phase in ("setup", "timed", "eval", "report"))

    # no eval root calls another, so their durations add up to the evaluation
    eval_ms = 1000.0 * sum(get(name, "eval", 1) for name in EVAL_ROOTS)
    return {
        "encoder.encode.self_ms_per_example": _ratio(self_ms("encoder.encode"), examples),
        "encoder.encode.us_per_node": _ratio(1e6 * get("encoder.encode", field=1),
                                             get("encoder.encode", field=3)),
        "encoder.encode.calls_per_example": _ratio(get("encoder.encode", field=2), examples),
        "decoder.step.self_ms_per_example": _ratio(self_ms("decoder.step"), examples),
        "decoder.step.calls_per_example": _ratio(get("decoder.step", field=2), examples),
        "decoder.decode_greedy.self_ms_per_example":
            _ratio(self_ms("decoder.decode_greedy"), examples),
        "decoder.decode_sample.self_ms_per_example":
            _ratio(self_ms("decoder.decode_sample"), examples),
        "decoder.score_trajectory.self_ms_per_example":
            _ratio(self_ms("decoder.score_trajectory"), examples),
        "decoder.copy_rate": _ratio(totals["copies"], totals["actions"]),
        "decoder.output_len_mean": _ratio(totals["decoded_tokens"], totals["decodes"]),
        "training.mle_loss.self_ms_per_example": _ratio(self_ms("training.mle_loss"), examples),
        "training.hrl_loss.self_ms_per_example": _ratio(self_ms("training.hrl_loss"), examples),
        "training.segment_target.self_ms_per_example":
            _ratio(self_ms("training.segment_target"), examples),
        "training.shaped_rewards.self_ms_per_example":
            _ratio(self_ms("training.shaped_rewards"), examples),
        "training.dev_eval_ms": _ratio(eval_ms, passes),
        "training.loop.self_ms_per_step": _ratio(self_ms("training.train"), steps),
        "training.guard_hits": _ratio(sum(w["guard_hits"] for w in workers), passes),
        "metrics.bleu4.calls_per_trajectory":
            _ratio(totals["reward_bleu4_calls"], get("decoder.decode_sample", field=2)),
        "metrics.bleu4.self_ms_per_example": _ratio(self_ms("metrics.bleu4"), examples),
        "metrics.corpus_eval_ms":
            _ratio(1000.0 * all_phases("metrics.corpus_eval", 1), passes),
        "autodiff.backward.self_ms_per_step": _ratio(self_ms("autodiff.backward"), steps),
        "autodiff.tape_nodes_per_example":
            _ratio(get("trace.tape_walk", field=3), examples),
        "params.adam_step.self_ms_per_step": _ratio(self_ms("params.adam_step"), steps),
        "params.tensors": _ratio(sum(w["params_tensors"] for w in workers), passes),
        "params.values": _ratio(sum(w["params_values"] for w in workers), passes),
        "params.save_checkpoint_ms":
            _ratio(1000.0 * get("params.save_checkpoint", "setup", 1), setups),
        "params.load_checkpoint_ms":
            _ratio(1000.0 * get("params.load_checkpoint", "setup", 1), setups),
        "parsers.parse_lambda.self_ms_per_example":
            _ratio(self_ms("parsers.parse_lambda"), examples),
        "corpus.build_vocab_ms": _ratio(1000.0 * get("corpus.build_vocab", "setup", 1), setups),
        "corpus.lint_examples_ms":
            _ratio(1000.0 * get("corpus.lint_examples", "setup", 1), setups),
        "trace.uncovered_share":
            _ratio(totals["wall_s"] - totals["self_total_s"], totals["wall_s"]),
    }
