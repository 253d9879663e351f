"""Training objectives and loop: teacher-forced likelihood, sampled policy
gradients with shaped rewards, and the linear mix between them.

The likelihood marginalizes the copy/generate choice at every target
position: a position's probability is the generate-branch probability of the
token plus the copy-branch probability summed over every copyable node whose
full surface matches the aligned span (a matched multi-token span is consumed
by one step). The policy-gradient surrogate is plain REINFORCE over sampled
trajectories with per-step reward-to-go and an exponential-moving-average
baseline. A step encodes its batch with one encoder op, samples its
examples in lockstep (without recording, ``EVAL_BATCH`` rows at a time)
where it weighs the surrogate, and then scores every likelihood target and
every sample, each a known sequence of fed tokens and decay rows, in one
``TreeDecoder.teacher_forced`` pass with one backward. Each example's loss
sums its own rows, so the log keeps per-example means. One example is a
batch of one.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Tensor
from .corpus import (BOS, EOS, Example, Vocab, batch_iter, build_vocab, finishing_units,
                     follows, lint_examples, node_surface, source_token_stream, unit_spans)
from .decoder import (OP_COPY, OP_GEN, DecoderConfig, KnownSequence, StepOutput, Trajectory,
                      TreeDecoder)
from .encoder import EncoderConfig, EncoderOutput, Forest, TreeEncoder
from .params import AdamState, ParamStore, adam_step, clip_global_norm
from .trees import TokenTypeTree, get_grammar

log = logging.getLogger(__name__)

# loss contribution for a target unit no action can produce; finite so the
# batch still trains, large enough to surface in any loss curve
GUARD_LOGP = math.log(1e-300)

# a step in which more than this share of the likelihood's target units took
# the guard aborts training: the model has collapsed onto assigning them
# nothing. A corpus the lint passes never guards; the 50%-OOV corpora under a
# generate-only model guard at most about 15% of a batch's units.
GUARD_ABORT_SHARE = 0.5

REWARD_METRICS = ("bleu4", "rougeL")

# trees per encoder op when evaluating: enough to amortize the op, few
# enough that memory does not grow with the number of inputs
EVAL_BATCH = 32


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 32
    hidden_size: int = 64
    total_steps: int = 300
    decay_factor: float = 0.5
    reward_metric: str = "bleu4"
    min_freq_source: int = 4
    min_freq_target: int = 4
    seed: int = 0
    no_type_assoc: bool = False
    no_mask: bool = False
    no_decay: bool = False
    mle_only: bool = False
    generate_only: bool = False
    grad_clip: float | None = None
    baseline_decay: float = 0.9
    max_decode_len: int = 30
    eval_every: int = 25
    tie_forget_slots: bool = False

    def validate(self) -> None:
        for key, (ok, message) in _FIELD_CHECKS.items():
            if not ok(getattr(self, key)):
                raise ValueError(f"{key} {message}")


# the values a field accepts: (test, what the message says otherwise)
_FIELD_CHECKS = {
    "learning_rate": (lambda v: v > 0, "must be positive"),
    "total_steps": (lambda v: v >= 1, "must be >= 1"),
    "decay_factor": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "reward_metric": (lambda v: v in REWARD_METRICS, f"must be one of {REWARD_METRICS}"),
    "batch_size": (lambda v: v >= 1, "must be >= 1"),
    "hidden_size": (lambda v: v >= 1, "must be >= 1"),
    "max_decode_len": (lambda v: v >= 1, "must be >= 1"),
    "eval_every": (lambda v: v >= 1, "must be >= 1"),
    "baseline_decay": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "grad_clip": (lambda v: v is None or v > 0, "must be none or positive"),
    "min_freq_source": (lambda v: v >= 1, "must be >= 1"),
    "min_freq_target": (lambda v: v >= 1, "must be >= 1"),
    "seed": (lambda v: v >= 0, "must be >= 0"),
}

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}

# each field's annotation, which names how its text parses
_KINDS = {f.name: f.type for f in dataclass_fields(TrainConfig)}


def config_to_text(cfg: TrainConfig) -> str:
    lines = []
    for f in dataclass_fields(TrainConfig):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name}={'none' if v is None else v}")
    return "\n".join(lines) + "\n"


def config_value(key: str, text: str):
    """The value of config field ``key`` written as ``text``, checked as
    ``TrainConfig.validate`` checks it; a ValueError names the key."""
    kind = _KINDS.get(key)
    if kind is None:
        raise ValueError(f"unknown key {key!r}")
    if kind == "float | None" and text.lower() in ("none", ""):
        return None
    if kind == "bool":
        if text.lower() not in _BOOL_WORDS:
            raise ValueError(f"{key}: bad boolean {text!r}")
        value = _BOOL_WORDS[text.lower()]
    else:
        parse = {"int": int, "str": str}.get(kind, float)
        try:
            value = parse(text)
        except ValueError:
            raise ValueError(f"{key}: expected {'an int' if parse is int else 'a number'}, "
                             f"got {text!r}") from None
    ok, message = _FIELD_CHECKS.get(key, (lambda v: True, ""))
    if not ok(value):
        raise ValueError(f"{key} {message}, got {text!r}")
    return value


def config_from_text(text: str) -> TrainConfig:
    """Parse line-oriented key=value config; unknown keys are rejected, and
    an error names the line and the key."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        try:
            values[key.strip()] = config_value(key.strip(), val.strip())
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    cfg = TrainConfig(**values)
    cfg.validate()
    return cfg


# --- reward shaping ---------------------------------------------------------

def quantize_reward(x: float) -> float:
    """Snap a [0, 1] score onto the 2**-32 grid.

    Prefix scores on this grid subtract and sum exactly in float64, so
    per-step rewards telescope bitwise to the final score. The perturbation
    is below 2.4e-10, irrelevant for learning.
    """
    return math.ldexp(round(math.ldexp(x, 32)), -32)


@dataclass(frozen=True)
class Reward:
    """A sentence-level reward. Calling it scores a candidate against a
    reference; ``prefixes`` scores every non-empty prefix of a candidate in
    one pass, each bitwise equal to the call on that prefix."""
    score: Callable[[Sequence[str], Sequence[str]], float]
    prefixes: Callable[[Sequence[str], Sequence[str]], list[float]]

    def __call__(self, candidate: Sequence[str], reference: Sequence[str]) -> float:
        return self.score(candidate, reference)


def reward_function(name: str) -> Reward:
    if name == "bleu4":
        return Reward(lambda cand, ref: metrics.bleu4(cand, ref, smoothing="add-one").value,
                      lambda cand, ref: metrics.bleu4_prefixes(cand, ref, smoothing="add-one"))
    if name == "rougeL":
        return Reward(lambda cand, ref: metrics.rougeL(cand, ref).value, metrics.rougeL_prefixes)
    raise ValueError(f"unknown reward metric {name!r}")


def shaped_rewards(tokens: Sequence[str], reference: Sequence[str],
                   metric: Reward) -> np.ndarray:
    """Per-token reward increments: r_m = R(prefix_m) - R(prefix_{m-1}).

    R(empty) is 0, so the increments sum exactly to the final score.
    """
    rewards = np.zeros(len(tokens))
    prev = 0.0
    for m, score in enumerate(metric.prefixes(tokens, reference)):
        score = quantize_reward(score)
        rewards[m] = score - prev
        prev = score
    return rewards


# --- teacher-forced likelihood ----------------------------------------------

@dataclass
class TargetUnit:
    tokens: tuple[str, ...]
    node_ids: tuple[int, ...]      # copyable nodes whose surface is exactly `tokens`
    vocab_id: int | None           # generate-branch id when a single kept token
    is_eos: bool = False


def segment_target(comment: Sequence[str], tree: TokenTypeTree,
                   decoder: TreeDecoder) -> list[TargetUnit]:
    """Align a comment against the tree, longest unit first, without
    stranding the rest of the comment.

    A unit is a copyable node surface or a single token. At each position
    the longest unit after which the end of the comment is still reachable
    (the corpus lint's dynamic program, ``corpus.finishing_units``) becomes
    the next unit; where the end is unreachable, the longest matching
    surface is taken, or else a single token. All nodes matching the chosen
    span contribute to its copy likelihood. Single tokens keep both branches
    when possible.
    """
    keep = decoder.copy_keep_mask(tree)
    surfaces = [(n.id, node_surface(n.tokens)) for n in tree.nodes if keep[n.id]]
    vocab = decoder.vocab
    comment = tuple(comment)
    spans = unit_spans(comment, (s for _, s in surfaces), vocab)
    finishing = finishing_units(comment, spans)
    units: list[TargetUnit] = []
    i = prev = 0
    while i < len(comment):
        fits = [n for n in finishing[i] if follows(comment, i, n, prev)]
        span = max(fits or spans[i], default=1)
        matched = [nid for nid, s in surfaces if len(s) == span and comment[i:i + span] == s]
        if span >= 2:
            units.append(TargetUnit(tokens=comment[i:i + span], node_ids=tuple(matched),
                                    vocab_id=None))
        else:
            token = comment[i]
            units.append(TargetUnit(tokens=(token,), node_ids=tuple(matched),
                                    vocab_id=vocab.token_to_id.get(token)))
        i, prev = i + span, span
    units.append(TargetUnit(tokens=(), node_ids=(), vocab_id=EOS, is_eos=True))
    return units


def _teacher_inputs(units: Sequence[TargetUnit], num_nodes: int,
                    decoder: TreeDecoder) -> tuple[list[int], np.ndarray]:
    """The token id fed at each step (BOS first) and the (steps, nodes)
    decay matrix each step sees, for the aligned units of one target."""
    fed = units[:-1]  # the final EOS unit feeds nothing
    prev_ids = [BOS] + [decoder._prev_id(unit.tokens[-1]) for unit in fed]
    # teacher forcing marks every node matching a forced copy span;
    # single-token units are operation-ambiguous and leave decay alone
    resets = [unit.node_ids if len(unit.tokens) >= 2 else () for unit in fed]
    return prev_ids, decoder.decay_rows(resets, num_nodes)


def _unit_probabilities(units: Sequence[TargetUnit], rows: np.ndarray,
                        out: StepOutput) -> Tensor:
    """Operation-marginalized probability of each aligned unit, unit k read
    off row ``rows[k]`` of the teacher-forced outputs; one entry per output
    row, exactly 0 where no action produces the unit and off its rows."""
    gen = [k for k, u in enumerate(units) if u.vocab_id is not None]
    p_gen = ad.pick(out.gen_probs, rows[gen], [units[k].vocab_id for k in gen])
    if out.op_probs is None:  # generate-only
        return p_gen
    copy_ok = np.zeros(len(p_gen.data), dtype=bool) if out.copy_probs is None \
        else out.copy_probs.data.any(axis=1)
    ok_rows = np.flatnonzero(copy_ok)
    # the generate branch weighs p(generate) where copying is feasible, and
    # exactly 1 where the operation is forced
    w_gen = ad.pick(out.op_probs, ok_rows, np.full(len(ok_rows), OP_GEN))
    if not copy_ok.all():
        w_gen = ad.add(w_gen, Tensor((~copy_ok).astype(np.float64)))
    p = ad.mul(w_gen, p_gen)
    copies = [(r, nid) for r, u in zip(rows, units) if copy_ok[r] for nid in u.node_ids]
    if copies:
        copy_rows = sorted({r for r, _ in copies})
        w_copy = ad.pick(out.op_probs, copy_rows, np.full(len(copy_rows), OP_COPY))
        p_copy = ad.pick(out.copy_probs, [r for r, _ in copies], [n for _, n in copies])
        p = ad.add(p, ad.mul(w_copy, p_copy))
    return p


def _objective(examples: Example | Sequence[Example], encoder: TreeEncoder,
               decoder: TreeDecoder, forest: Forest | None, mu: float,
               rng: np.random.Generator | None = None, metric: Reward | None = None,
               baseline_value: float = 0.0) -> tuple[Tensor, dict]:
    """The sum over ``examples`` (example i's tree is tree i of ``forest``,
    made here when None) of mu times the likelihood loss plus 1 - mu times
    the REINFORCE surrogate, with ``parts`` as ``mixed_loss`` reports them.
    Where mu < 1, the examples are first sampled from ``rng`` in lockstep,
    one ``TreeDecoder.decode_sample_batch`` chunk of ``EVAL_BATCH`` at a
    time; a lone example draws what ``decode_sample`` draws."""
    examples = [examples] if isinstance(examples, Example) else examples
    if not examples:
        raise ValueError("empty batch: no examples to score")
    if forest is None:
        forest = encoder.encode_forest([ex.tree for ex in examples])
    parts: dict = {"mu": mu, "loss_mle": None, "loss_hrl": None, "reward": None,
                   "units": None, "guards": None, "copy_rate": None}
    sequences, units, trajectories = [], [], []
    if mu < 1.0:
        with ad.no_grad():
            encoded = [(forest.output(i), ex.tree) for i, ex in enumerate(examples)]
        for start in range(0, len(encoded), EVAL_BATCH):
            trajectories += decoder.decode_sample_batch(encoded[start:start + EVAL_BATCH], rng)
    if mu > 0.0:
        for i, ex in enumerate(examples):
            units.append(segment_target(ex.comment, ex.tree, decoder))
            sequences.append(KnownSequence(i, *_teacher_inputs(units[-1], len(ex.tree),
                                                               decoder)))
    sequences += [decoder.replay(forest, i, traj) for i, traj in enumerate(trajectories)]
    out = decoder.teacher_forced(forest, sequences)
    flat = [u for example_units in units for u in example_units]
    rows, terms = out.steps, []
    if units:
        owner = np.repeat(np.arange(len(units)), [len(u) for u in units])
        unit_rows = rows[:len(flat)]
        probs = _unit_probabilities(flat, unit_rows, out)
        scored = ~(probs.data[unit_rows] <= 0.0)  # a NaN stays in, so the loss shows it
        for unit in itertools.compress(flat, ~scored):
            log.warning("unreachable target unit %r (no action assigns it "
                        "probability); guarding the loss", unit.tokens)
        logp = ad.log(ad.take(probs, unit_rows[scored]))
        guards = np.bincount(owner[~scored], minlength=len(units))
        parts.update(units=len(flat), guards=int(guards.sum()), loss_mle=(
            -(np.bincount(owner[scored], logp.data, len(units)) + guards * GUARD_LOGP)).tolist())
        likelihood = ad.mul(ad.sumall(logp), -1.0)
        if guards.any():
            likelihood = ad.add(likelihood, Tensor(np.asarray(-guards.sum() * GUARD_LOGP)))
        terms.append(likelihood if mu == 1.0 else ad.mul(likelihood, mu))
    if trajectories:
        owner = np.repeat(np.arange(len(trajectories)), [len(t.steps) for t in trajectories])
        per_step = [step_rewards(traj, ex.comment, metric)
                    for traj, ex in zip(trajectories, examples)]
        # the REINFORCE multiplier: reward-to-go minus the baseline
        advantage = np.concatenate([np.cumsum(r[::-1])[::-1] for r in per_step]) \
            - baseline_value
        logp = ad.add(*decoder.step_logprobs(out, rows[len(flat):],
                                             [s for traj in trajectories for s in traj.steps]))
        copies = sum(s.action == OP_COPY for traj in trajectories for s in traj.steps)
        parts.update(reward=[float(r.sum()) for r in per_step], loss_hrl=np.bincount(
            owner, logp.data * -advantage, len(trajectories)).tolist(),
            copy_rate=copies / len(owner))
        surrogate = ad.dot(logp, Tensor(-advantage))
        terms.append(surrogate if mu == 0.0 else ad.mul(surrogate, 1.0 - mu))
    return (terms[0] if len(terms) == 1 else ad.add(*terms)), parts


def mle_loss(examples: Example | Sequence[Example], encoder: TreeEncoder,
             decoder: TreeDecoder, forest: Forest | None = None,
             parts: dict | None = None) -> Tensor:
    """Negative log-likelihood of each comment (plus its end-of-sequence
    stop) under teacher forcing with marginalized operation selection,
    summed over a batch of examples; one example is a batch of one. Every
    target is scored in one teacher-forced pass.

    ``forest`` is the batch's encoding when the caller already has it.
    ``parts``, when given, receives the per-example losses (``loss_mle``),
    the number of target ``units`` and of ``guards``, the units no action
    can produce, which took the loss guard."""
    loss, got = _objective(examples, encoder, decoder, forest, 1.0)
    if parts is not None:
        parts.update(got)
    return loss


# --- policy gradient ----------------------------------------------------------

@dataclass
class Baseline:
    """Exponential moving average of trajectory rewards."""
    decay: float = 0.9
    value: float = 0.0

    def update(self, mean_reward: float) -> None:
        self.value = self.decay * self.value + (1.0 - self.decay) * mean_reward


def step_rewards(trajectory: Trajectory, reference: Sequence[str],
                 metric: Reward) -> np.ndarray:
    """Group token-level shaped rewards by decoding step (a copy step earns
    the increment of its whole span; the EOS step earns 0)."""
    token_r = shaped_rewards(trajectory.tokens, reference, metric)
    out = np.zeros(len(trajectory.steps))
    pos = 0
    for i, s in enumerate(trajectory.steps):
        out[i] = token_r[pos:pos + len(s.tokens)].sum()
        pos += len(s.tokens)
    return out


def hrl_loss(example: Example, encoder: TreeEncoder, decoder: TreeDecoder,
             rng: np.random.Generator, metric: Reward,
             baseline_value: float = 0.0,
             forest: Forest | None = None) -> tuple[Tensor, float]:
    """REINFORCE surrogate for one sampled trajectory.

    Returns (surrogate, total_reward); the surrogate's gradient is the
    score-function estimate of the negative expected-reward gradient, with
    per-step reward-to-go minus the baseline as the multiplier. The sample
    is drawn without recording and scored in one teacher-forced pass.
    ``forest`` is the example's encoding when the caller already has it.
    """
    surrogate, parts = _objective(example, encoder, decoder, forest, 0.0, rng, metric,
                                  baseline_value)
    return surrogate, parts["reward"][0]


# --- mixed objective -----------------------------------------------------------

def mle_weight(step: int, total_steps: int, mle_only: bool = False) -> float:
    """Linear anneal from pure likelihood (1.0) to pure reward (0.0)."""
    if mle_only:
        return 1.0
    if step > total_steps:
        log.warning("training step %d beyond schedule end %d; weight clamped to 0",
                    step, total_steps)
        return 0.0
    if step < 0:
        return 1.0
    return 1.0 - step / total_steps


def mixed_loss(examples: Example | Sequence[Example], encoder: TreeEncoder,
               decoder: TreeDecoder, step: int, cfg: TrainConfig,
               rng: np.random.Generator, baseline: Baseline,
               forest: Forest | None = None) -> tuple[Tensor, dict]:
    """The step's mix of likelihood and REINFORCE surrogate, averaged over a
    batch of examples; one example is a batch of one. Where the surrogate
    has weight, the examples are sampled first, in lockstep (see
    ``_objective``), then the likelihood targets and the samples are scored
    in one teacher-forced pass. ``forest`` is the batch's encoding when the
    caller already has it. ``parts`` reports each objective's per-example
    values; with the likelihood, its target ``units`` and loss ``guards``
    (see ``mle_loss``); and with the samples, the share of their steps that
    copied (``copy_rate``). An absent objective reads None."""
    mu = mle_weight(step, cfg.total_steps, cfg.mle_only)
    batch = [examples] if isinstance(examples, Example) else examples
    if mu == 1.0:  # through ``mle_loss``, so a profile of the step names it
        parts = {}
        loss = mle_loss(batch, encoder, decoder, forest, parts)
    else:
        loss, parts = _objective(batch, encoder, decoder, forest, mu, rng,
                                 reward_function(cfg.reward_metric), baseline.value)
    return ad.mul(loss, 1.0 / len(batch)), parts


# --- evaluation helpers ---------------------------------------------------------

def encoded_chunks(examples: Sequence[Example], encoder: TreeEncoder
                   ) -> Iterator[list[tuple[Example, EncoderOutput]]]:
    """The examples in chunks of ``EVAL_BATCH``, each example with its
    encoding, made without recording, one encoder op per chunk."""
    for start in range(0, len(examples), EVAL_BATCH):
        chunk = examples[start:start + EVAL_BATCH]
        with ad.no_grad():
            encoded = encoder.encode_batch([ex.tree for ex in chunk])
        yield list(zip(chunk, encoded))


def greedy_candidates(examples: Sequence[Example], encoder: TreeEncoder,
                      decoder: TreeDecoder) -> list[list[str]]:
    """Greedy output per example, each chunk decoded in lockstep."""
    return [tokens for chunk in encoded_chunks(examples, encoder)
            for tokens in decoder.decode_greedy_batch([(enc, ex.tree) for ex, enc in chunk])]


def token_accuracy(examples: Sequence[Example], candidates: Sequence[Sequence[str]]) -> float:
    """Positional token matches over total reference length."""
    match = total = 0
    for ex, cand in zip(examples, candidates):
        total += len(ex.comment)
        match += sum(1 for a, b in zip(cand, ex.comment) if a == b)
    return match / total if total else 0.0


def mean_sentence_reward(examples: Sequence[Example], candidates: Sequence[Sequence[str]],
                         metric: Callable) -> float:
    scores = [quantize_reward(metric(c, ex.comment))
              for ex, c in zip(examples, candidates)]
    return float(np.mean(scores)) if scores else 0.0


# --- training loop ---------------------------------------------------------------

@dataclass
class TrainResult:
    store: ParamStore
    encoder: TreeEncoder
    decoder: TreeDecoder
    source_vocab: Vocab
    target_vocab: Vocab
    history: list[dict] = field(default_factory=list)
    best_params: dict | None = None
    best_score: float = float("-inf")
    abort_reason: str | None = None  # why training stopped early, if it did

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def build_model(cfg: TrainConfig, grammar_name: str, source_vocab: Vocab,
                target_vocab: Vocab) -> tuple[ParamStore, TreeEncoder, TreeDecoder]:
    grammar = get_grammar(grammar_name)
    store = ParamStore(cfg.seed)
    encoder = TreeEncoder(store, grammar, source_vocab,
                          EncoderConfig(hidden_size=cfg.hidden_size,
                                        untyped=cfg.no_type_assoc,
                                        tie_forget_slots=cfg.tie_forget_slots))
    decoder = TreeDecoder(store, grammar, target_vocab,
                          DecoderConfig(hidden_size=cfg.hidden_size,
                                        decay_factor=cfg.decay_factor,
                                        use_mask=not cfg.no_mask,
                                        use_decay=not cfg.no_decay,
                                        generate_only=cfg.generate_only,
                                        max_len=cfg.max_decode_len))
    return store, encoder, decoder


def train(train_examples: Sequence[Example], dev_examples: Sequence[Example],
          cfg: TrainConfig, log_writer=None,
          initial_params: dict | None = None) -> TrainResult:
    """Run the full objective schedule; deterministic under a fixed seed.

    Evaluates greedily on the dev set every ``eval_every`` steps, retains the
    best-dev parameter snapshot, and aborts, restoring the parameters of the
    last evaluation (or the initial ones), when a step's loss is non-finite
    or when more than ``GUARD_ABORT_SHARE`` of the step's likelihood units
    took the loss guard: the model then assigns those targets nothing, and a
    guarded unit has no gradient to recover with.
    """
    cfg.validate()
    if not train_examples:
        raise ValueError("train: empty corpus")
    grammar_name = train_examples[0].tree.grammar
    if any(ex.tree.grammar != grammar_name for ex in train_examples):
        raise ValueError("train: mixed grammars in one corpus")
    source_vocab = build_vocab((source_token_stream(ex.tree) for ex in train_examples),
                               cfg.min_freq_source)
    target_vocab = build_vocab((ex.comment for ex in train_examples),
                               cfg.min_freq_target)
    problems = lint_examples(train_examples, target_vocab, use_mask=not cfg.no_mask,
                             generate_only=cfg.generate_only)
    for p in problems[:5]:
        log.warning("corpus lint: example %d position %d: %s",
                    p.example_index, p.position, p.message)
    store, encoder, decoder = build_model(cfg, grammar_name, source_vocab, target_vocab)
    if initial_params is not None:
        store.load_snapshot(initial_params)
    adam = AdamState()
    baseline = Baseline(decay=cfg.baseline_decay)
    rng = np.random.default_rng([cfg.seed, 0x5EED])
    metric = reward_function(cfg.reward_metric)
    result = TrainResult(store=store, encoder=encoder, decoder=decoder,
                         source_vocab=source_vocab, target_vocab=target_vocab)
    last_good = store.snapshot()

    def evaluate() -> dict:
        if not dev_examples:
            return {}
        cands = greedy_candidates(dev_examples, encoder, decoder)
        refs = [list(ex.comment) for ex in dev_examples]
        scores = metrics.corpus_eval(cands, refs)
        scores["reward_mean"] = mean_sentence_reward(dev_examples, cands, metric)
        return scores

    step = 0
    epoch = 0
    while step < cfg.total_steps:
        for batch in batch_iter(train_examples, cfg.batch_size, epoch, cfg.seed):
            if step >= cfg.total_steps:
                break
            # one encoder op and one teacher-forced pass for the whole batch
            forest = encoder.encode_forest([ex.tree for ex in batch.examples])
            batch_loss, parts = mixed_loss(batch.examples, encoder, decoder, step, cfg, rng,
                                           baseline, forest)
            mle_vals, hrl_vals, rewards = (parts[key] or [] for key in
                                           ("loss_mle", "loss_hrl", "reward"))
            if not np.isfinite(batch_loss.data):
                result.abort_reason = "non-finite loss"
            elif parts["units"] and parts["guards"] > GUARD_ABORT_SHARE * parts["units"]:
                result.abort_reason = (f"{parts['guards']} of {parts['units']} likelihood "
                                       f"units took the loss guard")
            if result.aborted:
                log.error("%s at step %d; aborting with last good parameters",
                          result.abort_reason, step)
                store.load_snapshot(last_good)
                break
            batch_loss.backward()
            if cfg.grad_clip is not None:
                clip_global_norm(store, cfg.grad_clip)
            adam_step(store, adam, lr=cfg.learning_rate)
            if rewards:
                baseline.update(float(np.mean(rewards)))
            step += 1
            row = {
                "step": step,
                "mu": mle_weight(step - 1, cfg.total_steps, cfg.mle_only),
                "loss_mle": float(np.mean(mle_vals)) if mle_vals else None,
                "loss_hrl": float(np.mean(hrl_vals)) if hrl_vals else None,
                "reward_mean": float(np.mean(rewards)) if rewards else None,
                "guard_hits": parts["guards"],
                "copy_rate": parts["copy_rate"],
                "dev_bleu4": None, "dev_rouge2": None, "dev_rougeL": None,
            }
            if step % cfg.eval_every == 0 or step == cfg.total_steps:
                scores = evaluate()
                if scores:
                    row["dev_bleu4"] = scores["bleu4"]
                    row["dev_rouge2"] = scores["rouge2"]
                    row["dev_rougeL"] = scores["rougeL"]
                    tracked = scores["bleu4"] if cfg.reward_metric == "bleu4" \
                        else scores["rougeL"]
                    if tracked >= result.best_score:
                        result.best_score = tracked
                        result.best_params = store.snapshot()
                last_good = store.snapshot()
            result.history.append(row)
            if log_writer is not None:
                log_writer(row)
        if result.aborted:
            break
        epoch += 1
    if result.best_params is None:
        result.best_params = store.snapshot()
    return result
