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
(d,) or a (T, d) matrix of them (``heads``). Decoding chooses each step's
input from the last step's output, so it runs ``step`` in one loop,
``_rollout``, which records nothing and serves greedy and sampled decoding
through an argmax or a Gumbel-Max chooser. The loop decodes a chunk of
trees in lockstep: each ``step`` runs one LSTM cell over the (rows, d)
states of the trees still decoding and the heads once over those rows. The
rows share the chunk's concatenated node matrix; per-row masks keep each
row's attention and copying to its own tree's nodes, and each row has its
own decay row and makes its own choices. A row stops at EOS or after
``max_len`` steps and leaves the live rows. ``decode_greedy_batch`` decodes
a chunk this way; ``decode_greedy`` and ``decode_sample`` are chunks of one
tree through the same step, which owns every node and so attends without a
mask. The masked softmax normalizes a row the same way under a shared or a
per-row mask, so a lone tree's floats equal single-tree decoding bit for
bit. Wherever every input of every step is known up front,
``teacher_forced`` runs the LSTM over all T positions as one op and the
heads once over the T rows. It scores a target for the likelihood, and
``score_trajectory`` reads the traced log-probabilities of a sampled
trajectory off it for the policy gradient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

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
    """The state of one tree's decoding, or of a chunk of trees decoded in
    lockstep: then every field has one row per tree, and ``decay`` spans
    the columns of the chunk's node matrix."""
    hidden: Tensor               # (d,), or (rows, d)
    cell: Tensor
    decay: np.ndarray            # one value per node, each in [0, 1]


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


def decay_update(decay: np.ndarray, copied_node, factor: float) -> np.ndarray:
    """Scale every node's decay by ``factor``; the node copied this step (if
    any) is then reset to 1. Never-copied nodes stay at 0 forever.

    ``copied_node`` indexes ``decay``: a node of a vector, or (rows, nodes)
    index arrays for a matrix with one row per tree; None when nothing was
    copied."""
    if not 0.0 < factor < 1.0:
        raise ValueError(f"decay factor must lie in (0, 1), got {factor}")
    out = decay * factor
    if copied_node is not None:
        out[copied_node] = 1.0
    return out


class TreeDecoder:
    def __init__(self, store: ParamStore, grammar: Grammar,
                 target_vocab: Vocab, config: DecoderConfig):
        self.grammar = grammar
        self.vocab = target_vocab
        self.config = config
        # every weight, created in the order a decoding step reads them; the
        # twelve LSTM gates are bound once as views of three stacked arrays
        d, v = config.hidden_size, len(target_vocab)
        self.embed = store.get("dec.embed", (v, d))
        self.lstm_weights = ad.bind_lstm_gates(
            store.get(f"dec.lstm.{kind}[{gate}]", (d,) if kind == "b" else (d, d))
            for gate in "ifou" for kind in "WUb")
        self.attn_w = store.get("dec.attn.Wq", (d, 2 * d))
        self.gen_w = store.get("dec.gen.Wg", (v, d))
        self.op_w = None if config.generate_only else store.get("dec.op.Ws", (2, d))

    # step operations ----------------------------------------------------------

    def initial_state(self, encoder_output: EncoderOutput,
                      tree: TokenTypeTree) -> DecoderState:
        d = self.config.hidden_size
        return DecoderState(hidden=encoder_output.root_hidden,
                            cell=Tensor(np.zeros(d)), decay=np.zeros(len(tree)))

    def _lstm(self, hidden: Tensor, cell: Tensor, prev_token_ids: list[int]) -> Tensor:
        """The LSTM over the embeddings of ``prev_token_ids`` from (hidden,
        cell): rows ``[h_1 .. h_T; c_T]``."""
        x = ad.rows(self.embed, prev_token_ids)
        return ad.lstm(x, hidden, cell, self.lstm_weights)

    def recurrence(self, hidden: Tensor, cell: Tensor,
                   prev_token_id: int | Sequence[int]) -> tuple[Tensor, Tensor]:
        """One LSTM cell over the embedding of the previously emitted token.
        For (rows, d) states and one token id per row, one cell per row,
        recording nothing (``autodiff.lstm_rows``)."""
        if hidden.data.ndim == 2:
            return ad.lstm_rows(ad.rows(self.embed, prev_token_id), hidden, cell,
                                self.lstm_weights)
        state = self._lstm(hidden, cell, [prev_token_id])
        return ad.row(state, 0), ad.row(state, 1)

    def attend(self, hidden: Tensor, node_matrix: Tensor,
               own: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Dot-product attention over node states; returns (weights, vector),
        one row each per row of ``hidden``. ``own``, when given, holds one
        mask row per row of ``hidden``: the nodes that row attends over."""
        weights = ad.softmax(ad.linear(hidden, node_matrix), keep=own)
        pooled = ad.matmul(weights, node_matrix)
        vector = ad.tanh(ad.linear(ad.concat([pooled, hidden]), self.attn_w))
        return weights, vector

    def operation_distribution(self, attn_vector: Tensor) -> Tensor:
        return ad.softmax(ad.linear(attn_vector, self.op_w))

    def generation_distribution(self, attn_vector: Tensor) -> Tensor:
        return ad.softmax(ad.linear(attn_vector, self.gen_w))

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

        ``decay`` has one row per row of ``attn_vector``, and ``keep`` is
        one mask shared by every row or one mask row per row. The damped rows
        are renormalized so training sees a true distribution (argmax
        decoding is unaffected by the rescaling); a row every node of which
        is masked or fully decayed is all zero, and callers must force the
        generate branch there. Returns None when nothing is kept, or when
        every row is fully decayed.
        """
        if not keep.any():
            return None
        base = ad.softmax(ad.linear(attn_vector, node_matrix), keep=keep)
        if not self.config.use_decay or not decay.any():
            return base
        damped, dead = ad.damp(base, decay)
        return None if dead.all() else damped

    def heads(self, hidden: Tensor, node_matrix: Tensor, keep: np.ndarray,
              decay: np.ndarray, own: np.ndarray | None = None) -> StepOutput:
        """Attention and the three distributions for a hidden state (d,) and
        its decay (nodes,), or for a (T, d) matrix of them and a (T, nodes)
        decay matrix. Rows of different trees share the columns of one node
        matrix through per-row masks: ``own`` says which nodes each row
        attends over, and ``keep`` which it may copy."""
        weights, vector = self.attend(hidden, node_matrix, own)
        gen_probs = self.generation_distribution(vector)
        if self.config.generate_only:
            op_probs, copy_probs = None, None
        else:
            op_probs = self.operation_distribution(vector)
            copy_probs = self.copy_distribution(vector, node_matrix, keep, decay)
        return StepOutput(attn_weights=weights, attn_vector=vector, op_probs=op_probs,
                          gen_probs=gen_probs, copy_probs=copy_probs)

    def step(self, state: DecoderState, node_matrix: Tensor, keep: np.ndarray,
             prev_token_id: int | Sequence[int],
             own: np.ndarray | None = None) -> tuple[DecoderState, StepOutput]:
        """One decoding step of one tree, or of every row of a lockstep state
        (then one token id per row, and ``keep`` and ``own`` as ``heads``
        takes them; recording nothing)."""
        hidden, cell = self.recurrence(state.hidden, state.cell, prev_token_id)
        new_state = DecoderState(hidden=hidden, cell=cell, decay=state.decay)
        return new_state, self.heads(hidden, node_matrix, keep, state.decay, own)

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

    def decay_rows(self, resets: Sequence[Sequence[int]], num_nodes: int) -> np.ndarray:
        """The (len(resets) + 1, nodes) decay matrix the steps of a known
        sequence see: row 0 is zero, and row t + 1 is row t after step t
        copied the nodes ``resets[t]``, by the rule of ``decay_update``.
        All zero when this decoder applies no decay."""
        decay = np.zeros((len(resets) + 1, num_nodes))
        if self.config.use_decay and not self.config.generate_only:
            for t, nodes in enumerate(resets):
                decay[t + 1] = decay_update(decay[t], list(nodes), self.config.decay_factor)
        return decay

    def score_trajectory(self, encoder_output: EncoderOutput, tree: TokenTypeTree,
                         trajectory: Trajectory) -> tuple[Tensor, Tensor]:
        """Traced (log p(op), log p(word)) of every step of a decoded
        trajectory, as two (T,) vectors from one ``teacher_forced`` pass.

        The pass is fed BOS, then the last token of each step but the final
        one, and sees the decay decoding saw: each copy resets its node and
        a generate step only decays. log p(op) is exactly 0 on a step whose
        operation was forced. Each entry equals the step's recorded
        log-probability up to summation order.
        """
        steps = trajectory.steps
        prev_ids = [BOS] + [self._prev_id(s.tokens[-1]) for s in steps[:-1]]
        decay = self.decay_rows([[s.choice] if s.action == OP_COPY else []
                                 for s in steps[:-1]], len(tree))
        out = self.teacher_forced(encoder_output, tree, prev_ids, decay)
        action = np.array([s.action for s in steps])
        choice = np.array([s.choice for s in steps])
        gen = np.flatnonzero(action == OP_GEN)
        p_word = ad.pick(out.gen_probs, gen, choice[gen])
        if out.copy_probs is None:  # generate-only, or nothing copyable
            return Tensor(np.zeros(len(steps))), ad.log(p_word)
        copy = np.flatnonzero(action == OP_COPY)
        p_word = ad.add(p_word, ad.pick(out.copy_probs, copy, choice[copy]))
        chose = np.flatnonzero(out.copy_probs.data.any(axis=1))
        return ad.pick(ad.log(out.op_probs), chose, action[chose]), ad.log(p_word)

    # decoding -------------------------------------------------------------------

    def _advance_decay(self, state: DecoderState, copied) -> None:
        """Advance the decay after a step; ``copied`` indexes the copied
        nodes as ``decay_update`` takes them, or is None."""
        if self.config.use_decay and not self.config.generate_only:
            state.decay = decay_update(state.decay, copied, self.config.decay_factor)

    def _max_len(self, max_len: int | None) -> int:
        if max_len is None:
            return self.config.max_len
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        return max_len

    def _prev_id(self, token: str | None) -> int:
        return BOS if token is None else self.vocab.id_of(token)

    def _choose(self, out: StepOutput, r: int, feasible: bool,
                choose: Callable[[np.ndarray], int], tree: TokenTypeTree,
                offset: int) -> tuple[TrajectoryStep, int]:
        """Row ``r``'s action at a step whose node columns for ``tree`` start
        at ``offset``: the operation where copying is ``feasible`` (else
        generate, with log-probability 0), then the node or word. Returns
        the record and the chosen column."""
        if feasible:
            op = choose(out.op_probs.data[r])
            logp_op = float(np.log(out.op_probs.data[r, op]))
        else:
            op, logp_op = OP_GEN, 0.0
        probs = (out.copy_probs if op == OP_COPY else out.gen_probs).data[r]
        column = choose(probs)
        if op == OP_COPY:
            choice = column - offset
            emitted = node_surface(tree.node(choice).tokens)
        else:
            choice = column
            emitted = () if choice == EOS else (self.vocab.token_of(choice),)
        return TrajectoryStep(action=op, choice=choice, tokens=emitted, logp_op=logp_op,
                              logp_word=float(np.log(probs[column]))), column

    def _rollout(self, encoded: Sequence[tuple[EncoderOutput, TokenTypeTree]],
                 choose: Callable[[np.ndarray], int], max_len: int | None,
                 traces: Sequence[list] | None = None) -> list[Trajectory]:
        """Decode every (encoder output, tree) pair in lockstep, recording no
        op. Row i of each step is tree i's: it attends over and copies from
        its own block of the chunk's concatenated node matrix, and keeps its
        own decay row. ``choose`` picks each row's operation from its
        probabilities where copying is feasible, then the node or word. A
        row stops at EOS or after ``max_len`` steps and leaves the live
        rows. ``traces``, when given, collects one entry per step and tree.
        """
        max_len = self._max_len(max_len)
        if not encoded:
            return []
        trees = [tree for _, tree in encoded]
        offsets = [0, *itertools.accumulate(len(tree) for tree in trees)]
        own = np.zeros((len(trees), offsets[-1]), dtype=bool)
        keep = np.zeros_like(own)
        for i, tree in enumerate(trees):
            own[i, offsets[i]:offsets[i + 1]] = True
            keep[i, offsets[i]:offsets[i + 1]] = self.copy_keep_mask(tree)
        if len(trees) == 1:
            own = None  # a lone tree owns every column: attention needs no mask
        results = [Trajectory(steps=[], tokens=[]) for _ in trees]
        live = list(range(len(trees)))  # the tree of each state row
        prev = [BOS] * len(trees)
        with ad.no_grad():
            node_matrix = Tensor(np.vstack([enc.hidden.data for enc, _ in encoded]))
            state = DecoderState(
                hidden=Tensor(np.stack([enc.root_hidden.data for enc, _ in encoded])),
                cell=Tensor(np.zeros((len(trees), self.config.hidden_size))),
                decay=np.zeros(keep.shape))
            for t in range(1, max_len + 1):
                state, out = self.step(state, node_matrix, keep, prev, own)
                feasible = np.zeros(len(live), dtype=bool) if out.copy_probs is None \
                    else out.copy_probs.data.any(axis=1)
                going, prev, copied_rows, copied_nodes = [], [], [], []
                for r, i in enumerate(live):
                    rec, column = self._choose(out, r, feasible[r], choose, trees[i],
                                               offsets[i])
                    results[i].steps.append(rec)
                    if traces is not None:
                        block = slice(offsets[i], offsets[i + 1])
                        traces[i].append(_trace_entry(
                            t, out.attn_weights.data[r, block],
                            None if out.op_probs is None else out.op_probs.data[r],
                            rec, state.decay[r, block]))
                    if rec.action == OP_GEN and rec.choice == EOS:
                        continue
                    results[i].tokens.extend(rec.tokens)
                    prev.append(self._prev_id(rec.tokens[-1]))
                    if rec.action == OP_COPY:
                        copied_rows.append(len(going))
                        copied_nodes.append(column)
                    going.append(r)
                if not going:
                    break
                if len(going) < len(live):
                    live = [live[r] for r in going]
                    keep, own = keep[going], own[going]
                    state.hidden = Tensor(state.hidden.data[going])
                    state.cell = Tensor(state.cell.data[going])
                    state.decay = state.decay[going]
                self._advance_decay(state, (copied_rows, copied_nodes) if copied_rows else None)
        return results

    def decode_greedy(self, encoder_output: EncoderOutput, tree: TokenTypeTree,
                      max_len: int | None = None, trace: list | None = None) -> list[str]:
        """Argmax at both stages; stops at EOS or after ``max_len`` steps."""
        return self.decode_greedy_batch([(encoder_output, tree)], max_len,
                                        None if trace is None else [trace])[0]

    def decode_greedy_batch(self, encoded: Sequence[tuple[EncoderOutput, TokenTypeTree]],
                            max_len: int | None = None,
                            traces: Sequence[list] | None = None) -> list[list[str]]:
        """``decode_greedy`` of every (encoder output, tree) pair, decoded in
        lockstep; ``traces``, when given, holds one list per pair. Each
        output is the single-tree output up to summation order: a near-tie
        in an argmax may break the other way."""
        return [t.tokens for t in self._rollout(encoded, _argmax, max_len, traces)]

    def decode_sample(self, encoder_output: EncoderOutput, tree: TokenTypeTree,
                      rng: np.random.Generator, max_len: int | None = None) -> Trajectory:
        """Gumbel-Max categorical sampling at both stages, the operation drawn
        before the node or word, recording no op.

        Each step keeps the log-probabilities of its sampled operation and
        word as floats; their sum is the log of the trajectory's joint
        probability. ``score_trajectory`` gives them traced.
        """
        return self._rollout([(encoder_output, tree)],
                             lambda probs: _gumbel_pick(probs, rng), max_len)[0]


def _argmax(probs: np.ndarray) -> int:
    return int(probs.argmax())


def _gumbel_pick(probs: np.ndarray, rng: np.random.Generator) -> int:
    # argmax over log p + Gumbel noise == one categorical draw; exact zeros
    # become -inf and can never win
    with np.errstate(divide="ignore"):
        logits = np.log(probs)
    return int(np.argmax(logits + rng.gumbel(size=probs.shape)))


def _trace_entry(step: int, attention: np.ndarray, op_probs: np.ndarray | None,
                 rec: TrajectoryStep, decay: np.ndarray) -> dict:
    """One tree's step, over its own nodes."""
    copied = rec.action == OP_COPY
    return {
        "step": step,
        "attention": [round(float(a), 6) for a in attention],
        "op_probs": None if op_probs is None else [float(p) for p in op_probs],
        "action": "copy" if copied else "generate",
        "node": rec.choice if copied else None,
        "word": None if copied else rec.choice,
        "emitted": list(rec.tokens),
        "decay": [round(float(x), 6) for x in decay],
    }
