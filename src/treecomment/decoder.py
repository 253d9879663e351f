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

The decoder has one state shape: a (rows, d) matrix, one row per tree
being decoded or per teacher-forced position, and one node layout
(``_blocks``): the node states of the trees it reads off a ``Forest``, one
block per tree, padded to the widest tree, with tree-local columns.
Attention and the three heads are written once (``heads``) for them; a
block serves an equal run of rows (``autodiff.block_matmul``), and a mask
hides its padding. Decoding chooses each step's input from the last step's
output, so it runs ``step`` in one unrecorded loop, ``_rollout``, for
greedy and sampled decoding. The loop decodes a forest's trees in
lockstep: one LSTM cell over the states of the trees still decoding and
the heads once over those rows, each with its own block, decay row and
choices. A row stops at EOS or after ``max_len`` steps. A chooser picks
every live row's operation and word or node from a step's outputs: greedy
decoding takes each row's argmax in turn, and sampling draws Gumbel-Max
noise from one generator, one matrix per stage over the rows that reach
it, in this order: the operations of the rows where copying is feasible,
then the words of the rows that generate, then the nodes of the rows that
copy, over the widest tree's columns (masked zeros become -inf and never
win). ``decode_greedy`` and ``decode_sample`` decode a one-tree forest,
whose block is unpadded: it attends without a mask and draws what a lone
tree always drew. Wherever every input is known up front,
``teacher_forced`` scores many sequences (``KnownSequence``: a likelihood
target or a sampled trajectory) in one traced pass: one LSTM op runs them
side by side, padded to the longest, and the heads run once over all their
rows, each sequence's steps over its tree's block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BOS, EOS, PAD, Vocab, copyable_nodes, node_surface
from .encoder import EncoderOutput, Forest
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
    """The state of trees decoded in lockstep: every field has one row per
    tree, and ``decay`` row i is over tree i's nodes, in its own columns,
    padded to the widest tree."""
    hidden: Tensor               # (rows, d)
    cell: Tensor                 # (rows, d)
    decay: np.ndarray            # (rows, nodes), each value in [0, 1]


@dataclass
class StepOutput:
    """Head outputs, one row per state row: per tree at a lockstep step, or
    per position under teacher forcing (``TreeDecoder.teacher_forced``)."""
    attn_weights: Tensor         # simplex over nodes
    attn_vector: Tensor
    op_probs: Tensor | None      # [copy, generate]; None in generate-only mode
    gen_probs: Tensor
    copy_probs: Tensor | None    # None when copying is infeasible at every row;
                                 # an infeasible row is all zero
    steps: np.ndarray | None = None  # teacher forcing: the row of every step of
                                     # every sequence, in turn


@dataclass
class KnownSequence:
    """A decoder input sequence known before its first step, over tree
    ``tree`` of a forest: step t is fed ``prev_ids[t]`` (BOS first) and sees
    the decay row ``decay[t]`` over the tree's nodes."""
    tree: int
    prev_ids: list[int]
    decay: np.ndarray            # (steps, nodes)


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

    def attend(self, hidden: Tensor, nodes: Tensor,
               own: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Dot-product attention over node states ``nodes``, one matrix or a
        stack of blocks (``autodiff.block_matmul``); returns (weights,
        vector), one row each per row of ``hidden``. ``own``, when given,
        holds one mask row per row: the nodes that row attends over."""
        weights = ad.softmax(ad.block_matmul(hidden, nodes, transpose=True), keep=own)
        pooled = ad.block_matmul(weights, nodes)
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

    def copy_distribution(self, attn_vector: Tensor, nodes: Tensor,
                          keep: np.ndarray, decay: np.ndarray) -> Tensor | None:
        """Masked softmax of node scores, damped by (1 - decay), renormalized.

        ``nodes`` is as ``attend`` takes it; ``keep`` and ``decay`` have one
        row per row of ``attn_vector``. The damped rows are renormalized so
        training sees a true distribution (argmax decoding is unaffected by
        the rescaling); a row every node of which is masked or fully decayed
        is all zero, and callers must force the generate branch there.
        Returns None when nothing is kept, or when every row is fully
        decayed.
        """
        if not keep.any():
            return None
        base = ad.softmax(ad.block_matmul(attn_vector, nodes, transpose=True), keep=keep)
        if not self.config.use_decay or not decay.any():
            return base
        damped, dead = ad.damp(base, decay)
        return None if dead.all() else damped

    def heads(self, hidden: Tensor, nodes: Tensor, keep: np.ndarray,
              decay: np.ndarray, own: np.ndarray | None = None) -> StepOutput:
        """Attention and the three distributions for a (rows, d) matrix of
        hidden states and a (rows, nodes) decay matrix, over ``nodes`` as
        ``attend`` takes them. ``own`` says which nodes each row attends
        over, and ``keep`` which it may copy, one row each per row."""
        weights, vector = self.attend(hidden, nodes, own)
        gen_probs = self.generation_distribution(vector)
        if self.config.generate_only:
            op_probs, copy_probs = None, None
        else:
            op_probs = self.operation_distribution(vector)
            copy_probs = self.copy_distribution(vector, nodes, keep, decay)
        return StepOutput(attn_weights=weights, attn_vector=vector, op_probs=op_probs,
                          gen_probs=gen_probs, copy_probs=copy_probs)

    def step(self, state: DecoderState, nodes: Tensor, keep: np.ndarray,
             prev_token_id: Sequence[int],
             own: np.ndarray | None = None) -> tuple[DecoderState, StepOutput]:
        """One decoding step of every row of a lockstep state, recording
        nothing: one LSTM cell per row over the embedding of its previously
        emitted token (``autodiff.lstm_rows``), then the heads, with ``keep``
        and ``own`` as ``heads`` takes them."""
        hidden, cell = ad.lstm_rows(ad.rows(self.embed, prev_token_id), state.hidden,
                                    state.cell, self.lstm_weights)
        return (DecoderState(hidden=hidden, cell=cell, decay=state.decay),
                self.heads(hidden, nodes, keep, state.decay, own))

    def _blocks(self, forest: Forest, trees: Sequence[int]
                ) -> tuple[Tensor, Tensor, np.ndarray | None, np.ndarray]:
        """The node states of trees ``trees`` of ``forest`` as a stack of
        blocks, one per entry, padded to the widest tree and with tree-local
        columns; their root states, one row each; and per block the columns
        it owns (None when no block is padded) and those it may copy."""
        picked = [forest.trees[t] for t in trees]
        sizes = np.array([len(tree) for tree in picked])
        base = np.array([forest.offsets[t] for t in trees])
        columns = np.arange(sizes.max())
        own = columns < sizes[:, None]
        # a padded column reads its block's first node, which no row attends to
        nodes = ad.rows(forest.states, base[:, None] + np.where(own, columns, 0))
        roots = ad.rows(forest.states, base + [tree.root for tree in picked])
        keep = np.zeros(own.shape, dtype=bool)
        for g, tree in enumerate(picked):
            keep[g, :len(tree)] = self.copy_keep_mask(tree)
        return nodes, roots, None if own.all() else own, keep

    def teacher_forced(self, forest: Forest, sequences: Sequence[KnownSequence]) -> StepOutput:
        """Every step of many known sequences in one pass: step t of sequence
        g is row ``g * T + t`` of each output (listed in ``steps``), T the
        longest sequence's length, over node blocks as ``_blocks`` gives
        them. Padding is computed but must not be read. Each row equals
        what ``step`` returns from the same inputs up to summation order."""
        if not sequences:
            raise ValueError("teacher_forced: empty batch, no sequences to score")
        nodes, roots, own, keep = self._blocks(forest, [s.tree for s in sequences])
        lengths = np.array([len(s.prev_ids) for s in sequences])
        count, width = len(sequences), lengths.max()
        fed = np.full((width, count), PAD)
        decay = np.zeros((count, width, keep.shape[1]))
        for g, s in enumerate(sequences):
            fed[:lengths[g], g] = s.prev_ids
            decay[g, :lengths[g], :len(forest.trees[s.tree])] = s.decay
        states = ad.lstm(ad.rows(self.embed, fed.ravel()), roots,
                         Tensor(np.zeros((count, self.config.hidden_size))), self.lstm_weights)
        # the LSTM's rows run step by step; the heads' sequence by sequence
        hidden = ad.rows(states, (np.arange(width) * count + np.arange(count)[:, None]).ravel())
        out = self.heads(hidden, nodes, np.repeat(keep, width, axis=0),
                         decay.reshape(-1, keep.shape[1]),
                         None if own is None else np.repeat(own, width, axis=0))
        out.steps = np.flatnonzero(np.arange(width) < lengths[:, None])
        return out

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

    def replay(self, forest: Forest, tree: int, trajectory: Trajectory) -> KnownSequence:
        """The known sequence that rescores a trajectory decoded from tree
        ``tree`` of ``forest``: fed BOS, then the last token of each step
        but the final one, and seeing the decay decoding saw, where each
        copy resets its node and a generate step only decays."""
        steps = trajectory.steps
        return KnownSequence(
            tree=tree, prev_ids=[BOS] + [self._prev_id(s.tokens[-1]) for s in steps[:-1]],
            decay=self.decay_rows([[s.choice] if s.action == OP_COPY else []
                                   for s in steps[:-1]], len(forest.trees[tree])))

    def step_logprobs(self, out: StepOutput, rows: np.ndarray,
                      steps: Sequence[TrajectoryStep]) -> tuple[Tensor, Tensor]:
        """Traced (log p(op), log p(word)) of each recorded step, step k read
        off row ``rows[k]`` of teacher-forced outputs; log p(op) is exactly
        0 on a step whose operation was forced."""
        action = np.array([s.action for s in steps])
        choice = np.array([s.choice for s in steps])
        gen = action == OP_GEN
        p_word = ad.pick(out.gen_probs, rows[gen], choice[gen])
        if out.copy_probs is None:  # generate-only, or nothing copyable
            return Tensor(np.zeros(len(steps))), ad.log(ad.take(p_word, rows))
        p_word = ad.add(p_word, ad.pick(out.copy_probs, rows[~gen], choice[~gen]))
        chose = np.flatnonzero(out.copy_probs.data[rows].any(axis=1))
        logp_op = ad.pick(ad.log(ad.rows(out.op_probs, rows)), chose, action[chose])
        return logp_op, ad.log(ad.take(p_word, rows))

    def score_trajectory(self, forest: Forest,
                         trajectories: Sequence[Trajectory]) -> tuple[Tensor, Tensor]:
        """Traced (log p(op), log p(word)) of every step of trajectories,
        trajectory i decoded from tree i of ``forest``, in turn, from one
        ``teacher_forced`` pass; each equals the recorded float up to
        summation order."""
        sequences = [self.replay(forest, i, traj) for i, traj in enumerate(trajectories)]
        out = self.teacher_forced(forest, sequences)
        return self.step_logprobs(out, out.steps, [s for t in trajectories for s in t.steps])

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

    def _rollout(self, forest: Forest, choose: Chooser, max_len: int | None,
                 traces: Sequence[list] | None = None) -> list[Trajectory]:
        """Decode every tree of ``forest`` in lockstep, recording no op. Row
        i of each step is tree i's: it attends over and copies from its own
        node block (``_blocks``) and keeps its own decay row, both in the
        tree's columns. ``choose`` picks each live row's operation (where
        copying is feasible; else generate, with log-probability 0), then
        its node or word. A row stops at EOS or after ``max_len`` steps and
        leaves the live rows. ``traces``, when given, collects one entry per
        step and tree.
        """
        max_len = self._max_len(max_len)
        trees = forest.trees
        if not trees:
            return []
        results = [Trajectory(steps=[], tokens=[]) for _ in trees]
        live = list(range(len(trees)))  # the tree of each state row
        prev = [BOS] * len(trees)
        with ad.no_grad():
            nodes, roots, own, keep = self._blocks(forest, live)
            state = DecoderState(hidden=roots, cell=Tensor(np.zeros(roots.shape)),
                                 decay=np.zeros(keep.shape))
            for t in range(1, max_len + 1):
                state, out = self.step(state, nodes, keep, prev, own)
                feasible = np.zeros(len(live), dtype=bool) if out.copy_probs is None \
                    else out.copy_probs.data.any(axis=1)
                going, prev, copied_rows, copied_nodes = [], [], [], []
                for r, (i, (op, choice, logp_op, logp_word)) in enumerate(
                        zip(live, choose(out, feasible))):
                    if op == OP_COPY:
                        emitted = node_surface(trees[i].node(choice).tokens)
                    else:
                        emitted = () if choice == EOS else (self.vocab.token_of(choice),)
                    rec = TrajectoryStep(action=op, choice=choice, tokens=emitted,
                                         logp_op=logp_op, logp_word=logp_word)
                    results[i].steps.append(rec)
                    if traces is not None:
                        traces[i].append(_trace_entry(t, out, r, rec,
                                                      state.decay[r, :len(trees[i])]))
                    if op == OP_GEN and choice == EOS:
                        continue
                    results[i].tokens.extend(emitted)
                    prev.append(self._prev_id(emitted[-1]))
                    if op == OP_COPY:
                        copied_rows.append(len(going))
                        copied_nodes.append(choice)
                    going.append(r)
                if not going:
                    break
                if len(going) < len(live):
                    live = [live[r] for r in going]
                    nodes, keep = Tensor(nodes.data[going]), keep[going]
                    own = None if own is None else own[going]
                    state.hidden = Tensor(state.hidden.data[going])
                    state.cell = Tensor(state.cell.data[going])
                    state.decay = state.decay[going]
                self._advance_decay(state, (copied_rows, copied_nodes) if copied_rows else None)
        return results

    def decode_greedy(self, encoder_output: EncoderOutput, tree: TokenTypeTree,
                      max_len: int | None = None, trace: list | None = None) -> list[str]:
        """Argmax at both stages; stops at EOS or after ``max_len`` steps."""
        return self.decode_greedy_batch(_lone_forest(encoder_output, tree), max_len,
                                        None if trace is None else [trace])[0]

    def decode_greedy_batch(self, forest: Forest, max_len: int | None = None,
                            traces: Sequence[list] | None = None) -> list[list[str]]:
        """``decode_greedy`` of every tree of ``forest``, decoded in lockstep;
        ``traces``, when given, holds one list per tree. Each output is the
        single-tree output up to summation order: a near-tie in an argmax
        may break the other way."""
        return [t.tokens for t in self._rollout(forest, _greedy, max_len, traces)]

    def decode_sample(self, encoder_output: EncoderOutput, tree: TokenTypeTree,
                      rng: np.random.Generator, max_len: int | None = None) -> Trajectory:
        """Gumbel-Max categorical sampling at both stages, the operation drawn
        before the node or word, recording no op.

        Each step keeps the log-probabilities of its sampled operation and
        word as floats; their sum is the log of the trajectory's joint
        probability. ``score_trajectory`` gives them traced.
        """
        return self.decode_sample_batch(_lone_forest(encoder_output, tree), rng, max_len)[0]

    def decode_sample_batch(self, forest: Forest, rng: np.random.Generator,
                            max_len: int | None = None) -> list[Trajectory]:
        """``decode_sample`` of every tree of ``forest``, sampled in lockstep
        from the one generator ``rng``: at each step one Gumbel matrix per
        stage over the rows that reach it (see the module docstring). A
        tree alone draws exactly what ``decode_sample`` draws; among others,
        each row's draws depend on the other rows'."""
        return self._rollout(forest, _sampler(rng), max_len)


def _lone_forest(out: EncoderOutput, tree: TokenTypeTree) -> Forest:
    """The one-tree forest of ``tree``'s encoder output ``out``."""
    return Forest([tree], Tensor(np.vstack([out.hidden.data, out.cell.data])), [0, len(tree)])


# a step's choices: from its outputs and the rows where copying is feasible,
# each live row's (operation, node column or word, log p(op), log p(word))
Chooser = Callable[[StepOutput, np.ndarray], Iterable[tuple[int, int, float, float]]]


def _greedy(out: StepOutput, feasible: np.ndarray) -> list[tuple[int, int, float, float]]:
    """The argmax at both stages, row by row."""
    chosen = []
    for r, can_copy in enumerate(feasible):
        if can_copy:
            op = int(out.op_probs.data[r].argmax())
            logp_op = float(np.log(out.op_probs.data[r, op]))
        else:
            op, logp_op = OP_GEN, 0.0
        probs = (out.copy_probs if op == OP_COPY else out.gen_probs).data[r]
        column = int(probs.argmax())
        chosen.append((op, column, logp_op, float(np.log(probs[column]))))
    return chosen


def _sampler(rng: np.random.Generator) -> Chooser:
    """The Gumbel-Max chooser: one draw per stage over the rows that reach
    it, the operations of the rows where copying is feasible first, then
    the words of the generating rows, then the nodes of the copying rows,
    over every column of the node blocks (the widest tree's)."""
    def choose(out: StepOutput, feasible: np.ndarray) -> Iterable[tuple[int, int, float, float]]:
        rows = np.arange(len(feasible))
        op = np.full(len(rows), OP_GEN)
        logp_op = np.zeros(len(rows))
        if feasible.any():
            can_copy = rows[feasible]
            probs = out.op_probs.data[can_copy]
            op[can_copy] = _gumbel_pick(probs, rng)
            logp_op[can_copy] = np.log(probs[np.arange(len(can_copy)), op[can_copy]])
        column = np.zeros(len(rows), dtype=int)
        p_word = np.zeros(len(rows))
        for kind, dist in ((OP_GEN, out.gen_probs), (OP_COPY, out.copy_probs)):
            these = rows[op == kind]
            if len(these):
                probs = dist.data[these]
                column[these] = _gumbel_pick(probs, rng)
                p_word[these] = probs[np.arange(len(these)), column[these]]
        return zip(op.tolist(), column.tolist(), logp_op.tolist(), np.log(p_word).tolist())
    return choose


def _gumbel_pick(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of ``probs`` (the last axis): the argmax
    of log p plus Gumbel noise; exact zeros become -inf and never win."""
    with np.errstate(divide="ignore"):
        logits = np.log(probs)
    return np.argmax(logits + rng.gumbel(size=probs.shape), axis=-1)


def _trace_entry(step: int, out: StepOutput, row: int, rec: TrajectoryStep,
                 decay: np.ndarray) -> dict:
    """Row ``row``'s step, over its tree's nodes: the columns of ``decay``."""
    copied = rec.action == OP_COPY
    return {
        "step": step,
        "attention": [round(float(a), 6) for a in out.attn_weights.data[row, :len(decay)]],
        "op_probs": None if out.op_probs is None else [float(p) for p in out.op_probs.data[row]],
        "action": "copy" if copied else "generate",
        "node": rec.choice if copied else None,
        "word": None if copied else rec.choice,
        "emitted": list(rec.tokens),
        "decay": [round(float(x), 6) for x in decay],
    }
