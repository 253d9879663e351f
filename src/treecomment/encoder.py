"""N-ary Tree-LSTM encoder whose gate parameters are selected by node type.

Every gate weight is looked up by the grammar type of the node (input,
output, update gates) or of the child being forgotten (forget gates), and
recurrent weights are additionally keyed by child slot. Collapsing all type
keys to a single shared set (``untyped=True``) recovers a plain N-ary
Tree-LSTM, which is the reference behaviour tests compare against.

Absent children are treated as zero-state padding: their recurrent terms and
forget contributions vanish identically, so the corresponding products are
simply skipped rather than materialized.

``encode_forest`` encodes the trees of a batch together: one
``autodiff.embedding_means`` op gives every node's input and one
``autodiff.tree_lstm`` op every node's state, by a plan that keys each
gate's weights by integer codes of (gate, type) and (gate, k, slot, child
type). Codes name the tensor a lookup resolves to, so an untyped tree and a
type-changed variant get the same plan and run identical ops. A code
resolves through a table on the encoder, so the store sees each tensor
once per encoder, and parameters keep their per-gate names. The decoder's
teacher-forced pass reads a batch's node and root states off the forest in
one op each; ``encode_batch`` gives each tree's states as views of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_difference_check
from .corpus import UNK, Vocab
from .params import ParamStore
from .trees import Grammar, TokenTypeTree


@dataclass
class EncoderConfig:
    hidden_size: int
    untyped: bool = False          # collapse all type indices to one shared set
    tie_forget_slots: bool = False # share forget-gate recurrent weights across gates


@dataclass
class EncoderOutput:
    hidden: Tensor       # (nodes, d); row i is node i's hidden state
    cell: Tensor         # (nodes, d), likewise
    root_hidden: Tensor  # (d,)


@dataclass
class Forest:
    """Trees encoded by one op: ``states`` is the (2N, d) matrix ``[H; C]``
    of ``autodiff.tree_lstm``, and node v of tree t is row ``offsets[t] + v``
    of H (its cell is N rows further down)."""
    trees: list[TokenTypeTree]
    states: Tensor
    offsets: list[int]

    def output(self, t: int) -> EncoderOutput:
        """Tree t's states, as views of the forest's rows."""
        base, n, size = self.offsets[t], self.offsets[-1], len(self.trees[t])
        return EncoderOutput(hidden=ad.rows(self.states, slice(base, base + size)),
                             cell=ad.rows(self.states, slice(n + base, n + base + size)),
                             root_hidden=ad.row(self.states, base + self.trees[t].root))


GATES = "iouf"  # input, output, update, forget


def param_name(gate: str, kind: str, node_type: str, slot: int = 0, k: int = 0) -> str:
    """Store name of an encoder weight: ``W`` and ``b`` are keyed by type,
    ``U`` also by child slot and, for the untied forget weights, by the
    child ``k`` whose cell the gate forgets."""
    if kind != "U":
        return f"enc.{gate}.{kind}[type={node_type}]"
    return f"enc.{gate}.U[slot={slot}]{f'[k={k}]' if k else ''}[type={node_type}]"


class TreeEncoder:
    """Bottom-up encoder over token-type trees.

    The source embedding ``enc.embed`` is created with the encoder; a gate
    weight is created in the shared store when a tree first needs it, under
    names like ``enc.i.W[type=stmt]`` / ``enc.f.U[slot=1][k=2][type=string]``
    so checkpoints stay diffable.
    """

    def __init__(self, store: ParamStore, grammar: Grammar,
                 source_vocab: Vocab, config: EncoderConfig):
        self.store = store
        self.grammar = grammar
        self.vocab = source_vocab
        self.config = config
        self.embed = store.get("enc.embed", (len(source_vocab), config.hidden_size))
        # gate weights by the codes of ``_plan``: (W, b) pairs and U tensors
        self._affine: dict[int, tuple[Tensor, Tensor]] = {}
        self._recurrent: dict[int, Tensor] = {}

    def embed_nodes(self, token_lists) -> Tensor:
        """Mean source embedding of each node's tokens, one row per entry of
        ``token_lists``; a node without tokens gets a zero row."""
        get = self.vocab.token_to_id.get
        ids = [get(t.lower(), UNK) for tokens in token_lists for t in tokens]
        return ad.embedding_means(self.embed, ids, [len(t) for t in token_lists])

    def _check(self, tree: TokenTypeTree) -> None:
        grammar = self.grammar
        for node in reversed(tree.nodes):
            if node.type not in grammar.types:
                raise KeyError(f"node {node.id}: no parameters for type {node.type!r} "
                               f"in grammar {grammar.name!r}")
            if len(node.children) > grammar.max_arity:
                raise ValueError(f"node {node.id}: {len(node.children)} children exceeds "
                                 f"grammar arity {grammar.max_arity}")

    def encode(self, tree: TokenTypeTree) -> EncoderOutput:
        return self.encode_batch([tree])[0]

    def encode_batch(self, trees: Sequence[TokenTypeTree]) -> list[EncoderOutput]:
        """Encode every tree of ``trees`` with one traced ``tree_lstm`` op;
        each output reads its tree's rows of the forest as views."""
        forest = self.encode_forest(trees)
        return [forest.output(t) for t in range(len(forest.trees))]

    def encode_forest(self, trees: Sequence[TokenTypeTree]) -> Forest:
        """Every tree of ``trees`` encoded by one traced ``tree_lstm`` op,
        tree t's nodes at rows ``offset_t + id`` of the forest."""
        trees = list(trees)
        for tree in trees:
            self._check(tree)
        if not trees:
            return Forest(trees=[], states=Tensor(np.zeros((0, self.config.hidden_size))),
                          offsets=[0])
        offsets = np.cumsum([0] + [len(tree) for tree in trees]).tolist()
        plan, affine, recurrent = self._plan(trees, offsets)
        phi = self.embed_nodes([node.tokens for tree in trees for node in tree.nodes])
        return Forest(trees=trees, states=ad.tree_lstm(phi, affine, recurrent, plan),
                      offsets=offsets)

    def _plan(self, trees, offsets):
        """The forest's ``TreePlan`` and its (W, b) pairs and U weights.

        The plan keys each gate by an integer code of (gate, type) and each
        recurrent weight by one of (gate, k, slot, child type). A code
        resolves through the encoder's tables; only a code the encoder has
        not met yet goes to the store."""
        kid_lists = [[base + c for c in node.children]
                     for tree, base in zip(trees, offsets) for node in tree.nodes]
        n = len(kid_lists)
        arity = np.fromiter(map(len, kid_lists), dtype=np.intp, count=n)
        width = int(arity.max())
        children = np.full((n, width), -1, dtype=np.intp)
        children[np.arange(width) < arity[:, None]] = [c for kids in kid_lists for c in kids]
        # a typed model keys W and b by the node's type (forget gates: the
        # child's) and U by the child's; an untyped one by a single type
        names = ["any"] if self.config.untyped else sorted(self.grammar.types)
        index = {name: i for i, name in enumerate(names)}
        types = np.zeros(n, dtype=np.intp) if self.config.untyped else np.array(
            [index[node.type] for tree in trees for node in tree.nodes], dtype=np.intp)
        count = len(names)
        child_types = types[np.maximum(children, 0)]
        gate = np.arange(3)
        affine = np.concatenate([gate * count + types[:, None], 3 * count + child_types],
                                axis=1)
        # U code: ((gate * (A + 1) + k) * A + slot) * count + child type, for
        # the grammar's arity A, so a code names one tensor in every batch
        slots = self.grammar.max_arity
        k = np.zeros(width, dtype=np.intp) if self.config.tie_forget_slots \
            else np.arange(1, width + 1)
        gate_k = np.concatenate([gate * (slots + 1), 3 * (slots + 1) + k])
        recurrent = (gate_k[:, None] * slots + np.arange(width)) * count \
            + child_types[:, None, :]
        plan = ad.TreePlan(children, affine, recurrent)
        pairs = [self._affine.get(code) or self._new_pair(code, names)
                 for code in plan.affine_keys]
        us = [self._recurrent.get(code) or self._new_u(code, names)
              for code in plan.recurrent_keys]
        return plan, pairs, us

    # a code met for the first time goes to the store, which creates its
    # weight when new, and is remembered

    def _new_pair(self, code: int, names: list[str]) -> tuple[Tensor, Tensor]:
        g, t = divmod(code, len(names))
        d = self.config.hidden_size
        pair = self._affine[code] = (
            self.store.get(param_name(GATES[g], "W", names[t]), (d, d)),
            self.store.get(param_name(GATES[g], "b", names[t]), (d,)))
        return pair

    def _new_u(self, code: int, names: list[str]) -> Tensor:
        slots, d = self.grammar.max_arity, self.config.hidden_size
        rest, t = divmod(code, len(names))
        rest, slot = divmod(rest, slots)
        g, k = divmod(rest, slots + 1)
        u = self._recurrent[code] = self.store.get(
            param_name(GATES[g], "U", names[t], slot + 1, k), (d, d))
        return u


def encoder_gradient_check(encoder: TreeEncoder, trees: Sequence[TokenTypeTree],
                           epsilon: float = 1e-5, order: int = 2,
                           rng: np.random.Generator | None = None) -> float:
    """Finite-difference check of the encoder backward pass over one batch.

    Probe loss is the sum of the root hidden states of ``trees``, encoded
    together; every encoder tensor the batch uses is checked, so a weight
    two trees share sums its gradient across them.
    """
    encoder.encode_batch(trees)  # materialize every parameter the batch touches
    subset = {name: t for name, t in encoder.store.items() if name.startswith("enc.")}

    def loss():
        return ad.sumall(ad.concat([out.root_hidden for out in encoder.encode_batch(trees)]))

    return finite_difference_check(loss, subset, epsilon=epsilon, order=order,
                                   max_coords_per_param=4, rng=rng)
