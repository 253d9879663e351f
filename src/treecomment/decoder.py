"""Two-stage decoder: choose copy-vs-generate, then choose the word or node.

Each step runs an LSTM cell over the previously emitted token, attends over
all encoder node states, and produces three distributions: a 2-way operation
choice, a target-vocabulary distribution, and a distribution over tree nodes
for copying. Copying is restricted to grammar-available node types via a
keep-mask realized as exact zero probabilities (never NaN arithmetic), and a
per-node geometric decay discourages re-copying a node just emitted.

A copy emits the node's entire (lower-cased) token sequence as one action;
the last emitted token feeds the next recurrence step. When no node is
copyable at all, the operation is forced to "generate" with probability one.

Attention and the three heads are written once for a hidden state of shape
(d,) or a (T, d) matrix of them (``heads``). ``step`` feeds them one hidden
state and serves the sampling, greedy and replay loops. Under teacher forcing
every input of every step is known up front, so ``teacher_forced`` runs the
LSTM over all T positions as one op and the heads once over the T rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BOS, EOS, Vocab, copyable_nodes, node_surface
from .encoder import EncoderOutput
from .params import ParamStore
from .trees import Grammar, TokenTypeTree

OP_COPY, OP_GEN = 0, 1


@dataclass
class DecoderConfig:
    hidden_size: int
    decay_factor: float = 0.5   # per-step decay multiplier, in (0, 1)
    use_mask: bool = True       # restrict copying to grammar-available types
    use_decay: bool = True      # apply the copy-decay penalty
    generate_only: bool = False # disable the copy branch entirely
    max_len: int = 30

    def __post_init__(self):
        if not 0.0 < self.decay_factor < 1.0:
            raise ValueError(f"decay_factor must lie in (0, 1), got {self.decay_factor}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


@dataclass
class DecoderState:
    step: int
    hidden: Tensor
    cell: Tensor
    decay: np.ndarray            # one value per tree node, each in [0, 1]
    emitted: list[str] = field(default_factory=list)


@dataclass
class StepOutput:
    """Head outputs for one step, or one row per position under teacher
    forcing (``TreeDecoder.teacher_forced``)."""
    attn_weights: Tensor         # simplex over nodes
    attn_vector: Tensor
    op_probs: Tensor | None      # [copy, generate]; None in generate-only mode
    gen_probs: Tensor
    copy_probs: Tensor | None    # None when copying is infeasible at every row;
                                 # an infeasible row is all zero


@dataclass
class TrajectoryStep:
    action: int                  # OP_COPY or OP_GEN
    choice: int                  # node id (copy) or vocab id (generate)
    tokens: tuple[str, ...]      # surface emitted this step (empty for EOS)
    logp_op: float
    logp_word: float


@dataclass
class Trajectory:
    steps: list[TrajectoryStep]
    tokens: list[str]
    # (log p(op), log p(word)) per step, traced unless sampled under no_grad()
    scored: list[tuple[Tensor, Tensor]] = field(default_factory=list)

    def logprob(self) -> float:
        return sum(s.logp_op + s.logp_word for s in self.steps)


def decay_update(decay: np.ndarray, copied_node: int | None, factor: float) -> np.ndarray:
    """Scale every node's decay by ``factor``; the node copied this step (if
    any) is then reset to 1. Never-copied nodes stay at 0 forever."""
    if not 0.0 < factor < 1.0:
        raise ValueError(f"decay factor must lie in (0, 1), got {factor}")
    out = decay * factor
    if copied_node is not None:
        out[copied_node] = 1.0
    return out


class TreeDecoder:
    def __init__(self, store: ParamStore, grammar: Grammar,
                 target_vocab: Vocab, config: DecoderConfig):
        self.store = store
        self.grammar = grammar
        self.vocab = target_vocab
        self.config = config
        self._cache: dict[str, Tensor] = {}

    # parameter accessors -----------------------------------------------------

    def _param(self, name: str, shape) -> Tensor:
        t = self._cache.get(name)
        if t is None:
            t = self.store.get(name, shape)
            self._cache[name] = t
        return t

    def embedding(self) -> Tensor:
        return self._param("dec.embed", (len(self.vocab), self.config.hidden_size))

    def _lstm_w(self, kind: str, gate: str) -> Tensor:
        d = self.config.hidden_size
        shape = (d,) if kind == "b" else (d, d)
        return self._param(f"dec.lstm.{kind}[{gate}]", shape)

    def _attn_w(self) -> Tensor:
        d = self.config.hidden_size
        return self._param("dec.attn.Wq", (d, 2 * d))

    def _op_w(self) -> Tensor:
        return self._param("dec.op.Ws", (2, self.config.hidden_size))

    def _gen_w(self) -> Tensor:
        return self._param("dec.gen.Wg", (len(self.vocab), self.config.hidden_size))

    # step operations ----------------------------------------------------------

    def initial_state(self, encoder_output: EncoderOutput,
                      tree: TokenTypeTree) -> DecoderState:
        d = self.config.hidden_size
        return DecoderState(step=1, hidden=encoder_output.root_hidden,
                            cell=Tensor(np.zeros(d)), decay=np.zeros(len(tree)))

    def _lstm(self, hidden: Tensor, cell: Tensor, prev_token_ids: list[int]) -> Tensor:
        """The LSTM over the embeddings of ``prev_token_ids`` from (hidden,
        cell): rows ``[h_1 .. h_T; c_T]``."""
        x = ad.rows(self.embedding(), prev_token_ids)
        weights = [self._lstm_w(kind, gate) for gate in "ifou" for kind in "WUb"]
        return ad.lstm(x, hidden, cell, weights)

    def recurrence(self, hidden: Tensor, cell: Tensor, prev_token_id: int) -> tuple[Tensor, Tensor]:
        """One LSTM cell over the embedding of the previously emitted token."""
        state = self._lstm(hidden, cell, [prev_token_id])
        return ad.row(state, 0), ad.row(state, 1)

    def attend(self, hidden: Tensor, node_matrix: Tensor) -> tuple[Tensor, Tensor]:
        """Dot-product attention over node states; returns (weights, vector),
        one row each per row of ``hidden``."""
        weights = ad.softmax(ad.linear(hidden, node_matrix))
        pooled = ad.matmul(weights, node_matrix)
        vector = ad.tanh(ad.linear(ad.concat([pooled, hidden]), self._attn_w()))
        return weights, vector

    def operation_distribution(self, attn_vector: Tensor) -> Tensor:
        return ad.softmax(ad.linear(attn_vector, self._op_w()))

    def generation_distribution(self, attn_vector: Tensor) -> Tensor:
        return ad.softmax(ad.linear(attn_vector, self._gen_w()))

    def copy_keep_mask(self, tree: TokenTypeTree) -> np.ndarray:
        """True where a node may be copied (``corpus.copyable_nodes`` under
        this decoder's grammar and flags). The mask realizes the additive
        minus-infinity filter: excluded nodes end with probability exactly
        zero."""
        keep = np.zeros(len(tree), dtype=bool)
        keep[[n.id for n in copyable_nodes(tree, self.grammar, self.config.use_mask,
                                           self.config.generate_only)]] = True
        return keep

    def copy_distribution(self, attn_vector: Tensor, node_matrix: Tensor,
                          keep: np.ndarray, decay: np.ndarray) -> Tensor | None:
        """Masked softmax of node scores, damped by (1 - decay), renormalized.

        ``decay`` has one row per row of ``attn_vector``. The damped rows are
        renormalized so training sees a true distribution (argmax decoding
        is unaffected by the rescaling); a row every node of which is masked
        or fully decayed is all zero. Returns None when that holds for every
        row; callers must then force the generate branch.
        """
        if not keep.any():
            return None
        base = ad.softmax(ad.linear(attn_vector, node_matrix), keep=keep)
        if not self.config.use_decay or not decay.any():
            return base
        damped, dead = ad.damp(base, decay)
        return None if dead.all() else damped

    def heads(self, hidden: Tensor, node_matrix: Tensor, keep: np.ndarray,
              decay: np.ndarray) -> StepOutput:
        """Attention and the three distributions for a hidden state (d,) and
        its decay (nodes,), or for a (T, d) matrix of them and a (T, nodes)
        decay matrix."""
        weights, vector = self.attend(hidden, node_matrix)
        gen_probs = self.generation_distribution(vector)
        if self.config.generate_only:
            op_probs, copy_probs = None, None
        else:
            op_probs = self.operation_distribution(vector)
            copy_probs = self.copy_distribution(vector, node_matrix, keep, decay)
        return StepOutput(attn_weights=weights, attn_vector=vector, op_probs=op_probs,
                          gen_probs=gen_probs, copy_probs=copy_probs)

    def step(self, state: DecoderState, node_matrix: Tensor,
             keep: np.ndarray, prev_token_id: int) -> tuple[DecoderState, StepOutput]:
        hidden, cell = self.recurrence(state.hidden, state.cell, prev_token_id)
        new_state = DecoderState(step=state.step + 1, hidden=hidden, cell=cell,
                                 decay=state.decay, emitted=state.emitted)
        return new_state, self.heads(hidden, node_matrix, keep, state.decay)

    def teacher_forced(self, encoder_output: EncoderOutput, tree: TokenTypeTree,
                       prev_token_ids: list[int], decay: np.ndarray) -> StepOutput:
        """Every step of a known target at once.

        Step t (from 0) is fed ``prev_token_ids[t]`` (BOS first) and sees the
        decay row ``decay[t]``; each output has one row per step, equal to
        what ``step`` returns from the same inputs up to summation order.
        """
        start = self.initial_state(encoder_output, tree)
        states = self._lstm(start.hidden, start.cell, prev_token_ids)
        hidden = ad.rows(states, range(len(prev_token_ids)))
        return self.heads(hidden, encoder_output.hidden, self.copy_keep_mask(tree),
                          decay)

    # decoding loops -----------------------------------------------------------

    def _advance_decay(self, state: DecoderState, copied_node: int | None) -> None:
        if self.config.use_decay and not self.config.generate_only:
            state.decay = decay_update(state.decay, copied_node, self.config.decay_factor)

    def _max_len(self, max_len: int | None) -> int:
        if max_len is None:
            return self.config.max_len
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        return max_len

    def _prev_id(self, token: str | None) -> int:
        return BOS if token is None else self.vocab.id_of(token)

    def decode_greedy(self, encoder_output: EncoderOutput, tree: TokenTypeTree,
                      max_len: int | None = None, trace: list | None = None) -> list[str]:
        """Argmax at both stages; stops at EOS or after ``max_len`` steps."""
        max_len = self._max_len(max_len)
        with ad.no_grad():
            node_matrix = encoder_output.hidden
            keep = self.copy_keep_mask(tree)
            state = self.initial_state(encoder_output, tree)
            prev: str | None = None
            out: list[str] = []
            for _ in range(max_len):
                state, step_out = self.step(state, node_matrix, keep, self._prev_id(prev))
                copy_ok = step_out.copy_probs is not None
                if self.config.generate_only or not copy_ok:
                    op = OP_GEN
                else:
                    op = int(np.argmax(step_out.op_probs.data))
                copied = None
                if op == OP_COPY:
                    copied = int(np.argmax(step_out.copy_probs.data))
                    emitted = list(node_surface(tree.node(copied).tokens))
                    word = None
                else:
                    word = int(np.argmax(step_out.gen_probs.data))
                    emitted = [] if word == EOS else [self.vocab.token_of(word)]
                if trace is not None:
                    trace.append(_trace_entry(state.step - 1, step_out, op, copied,
                                              word, emitted, state.decay))
                if op == OP_GEN and word == EOS:
                    break
                out.extend(emitted)
                prev = emitted[-1]
                self._advance_decay(state, copied)
            return out

    def decode_sample(self, encoder_output: EncoderOutput, tree: TokenTypeTree,
                      rng: np.random.Generator, max_len: int | None = None) -> Trajectory:
        """Gumbel-Max categorical sampling at both stages.

        Per-step log-probabilities of the sampled operation and word are
        recorded; their sum is the log of the trajectory's joint probability.
        ``Trajectory.scored`` holds them as (log p(op), log p(word)) tensors,
        traced unless the caller is inside ``no_grad()`` and equal bitwise to
        what ``score_trajectory`` would rebuild, so a policy gradient needs no
        replay.
        """
        max_len = self._max_len(max_len)
        steps: list[TrajectoryStep] = []
        tokens: list[str] = []
        scored: list[tuple[Tensor, Tensor]] = []
        node_matrix = encoder_output.hidden
        keep = self.copy_keep_mask(tree)
        state = self.initial_state(encoder_output, tree)
        prev: str | None = None
        for _ in range(max_len):
            state, step_out = self.step(state, node_matrix, keep, self._prev_id(prev))
            copy_ok = step_out.copy_probs is not None
            if self.config.generate_only or not copy_ok:
                op = OP_GEN
                logp_op = Tensor(np.asarray(0.0))
            else:
                op = _gumbel_pick(step_out.op_probs.data, rng)
                logp_op = ad.log(ad.at(step_out.op_probs, op))
            copied = None
            if op == OP_COPY:
                copied = _gumbel_pick(step_out.copy_probs.data, rng)
                logp_word = ad.log(ad.at(step_out.copy_probs, copied))
                emitted = node_surface(tree.node(copied).tokens)
                choice = copied
            else:
                choice = _gumbel_pick(step_out.gen_probs.data, rng)
                logp_word = ad.log(ad.at(step_out.gen_probs, choice))
                emitted = () if choice == EOS else (self.vocab.token_of(choice),)
            steps.append(TrajectoryStep(action=op, choice=choice, tokens=emitted,
                                        logp_op=float(logp_op.data),
                                        logp_word=float(logp_word.data)))
            scored.append((logp_op, logp_word))
            if op == OP_GEN and choice == EOS:
                break
            tokens.extend(emitted)
            prev = emitted[-1]
            self._advance_decay(state, copied)
        return Trajectory(steps=steps, tokens=tokens, scored=scored)

    def score_trajectory(self, encoder_output: EncoderOutput, tree: TokenTypeTree,
                         trajectory: Trajectory) -> list[tuple[Tensor, Tensor]]:
        """Recompute each recorded step teacher-forced on the sampled prefix,
        returning traced (log p(op), log p(word)) pairs for the policy
        gradient. Matches the sampled log-probabilities bitwise."""
        node_matrix = encoder_output.hidden
        keep = self.copy_keep_mask(tree)
        state = self.initial_state(encoder_output, tree)
        prev: str | None = None
        scored: list[tuple[Tensor, Tensor]] = []
        for rec in trajectory.steps:
            state, step_out = self.step(state, node_matrix, keep, self._prev_id(prev))
            copy_ok = step_out.copy_probs is not None
            if self.config.generate_only or not copy_ok:
                logp_op = Tensor(np.asarray(0.0))
            else:
                logp_op = ad.log(ad.at(step_out.op_probs, rec.action))
            if rec.action == OP_COPY:
                logp_word = ad.log(ad.at(step_out.copy_probs, rec.choice))
            else:
                logp_word = ad.log(ad.at(step_out.gen_probs, rec.choice))
            scored.append((logp_op, logp_word))
            if rec.action == OP_GEN and rec.choice == EOS:
                break
            prev = rec.tokens[-1]
            self._advance_decay(state, rec.choice if rec.action == OP_COPY else None)
        return scored


def _gumbel_pick(probs: np.ndarray, rng: np.random.Generator) -> int:
    # argmax over log p + Gumbel noise == one categorical draw; exact zeros
    # become -inf and can never win
    with np.errstate(divide="ignore"):
        logits = np.log(probs)
    return int(np.argmax(logits + rng.gumbel(size=probs.shape)))


def _trace_entry(step: int, out: StepOutput, op: int, copied: int | None,
                 word: int | None, emitted: list[str], decay: np.ndarray) -> dict:
    return {
        "step": step,
        "attention": [round(float(a), 6) for a in out.attn_weights.data],
        "op_probs": None if out.op_probs is None
                    else [float(p) for p in out.op_probs.data],
        "action": "copy" if op == OP_COPY else "generate",
        "node": copied,
        "word": word,
        "emitted": list(emitted),
        "decay": [round(float(x), 6) for x in decay],
    }
