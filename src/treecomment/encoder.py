"""N-ary Tree-LSTM encoder whose gate parameters are selected by node type.

Every gate weight is looked up by the grammar type of the node (input,
output, update gates) or of the child being forgotten (forget gates), and
recurrent weights are additionally keyed by child slot. Collapsing all type
keys to a single shared set (``untyped=True``) recovers a plain N-ary
Tree-LSTM, which is the reference behaviour tests compare against.

Absent children are treated as zero-state padding: their recurrent terms and
forget contributions vanish identically, so the corresponding products are
simply skipped rather than materialized.

Each node is one traced ``autodiff.tree_lstm_node`` op over the node's typed
W/b tensors and its per-(slot, type) and per-(slot, k, type) U tensors, read
back with two ``autodiff.row`` ops; parameters keep their per-gate names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_difference_check
from .corpus import Vocab
from .params import ParamStore
from .trees import Grammar, TokenTypeTree


@dataclass
class EncoderConfig:
    hidden_size: int
    untyped: bool = False          # collapse all type indices to one shared set
    tie_forget_slots: bool = False # share forget-gate recurrent weights across gates


@dataclass
class EncoderOutput:
    hidden: tuple[Tensor, ...]  # per node, aligned with tree ids
    cell: tuple[Tensor, ...]
    root_hidden: Tensor


class TreeEncoder:
    """Bottom-up encoder over token-type trees.

    Parameters are created lazily in the shared store under names like
    ``enc.i.W[type=stmt]`` / ``enc.f.U[slot=1][k=2][type=string]`` so
    checkpoints stay diffable.
    """

    def __init__(self, store: ParamStore, grammar: Grammar,
                 source_vocab: Vocab, config: EncoderConfig):
        self.store = store
        self.grammar = grammar
        self.vocab = source_vocab
        self.config = config
        self._cache: dict[tuple, Tensor] = {}

    def _type_key(self, node_type: str) -> str:
        return "any" if self.config.untyped else node_type

    def _w(self, gate: str, node_type: str) -> Tensor:
        key = ("W", gate, self._type_key(node_type))
        t = self._cache.get(key)
        if t is None:
            d = self.config.hidden_size
            t = self.store.get(f"enc.{gate}.W[type={key[2]}]", (d, d))
            self._cache[key] = t
        return t

    def _b(self, gate: str, node_type: str) -> Tensor:
        key = ("b", gate, self._type_key(node_type))
        t = self._cache.get(key)
        if t is None:
            d = self.config.hidden_size
            t = self.store.get(f"enc.{gate}.b[type={key[2]}]", (d,))
            self._cache[key] = t
        return t

    def _u(self, gate: str, slot: int, child_type: str) -> Tensor:
        key = ("U", gate, slot, self._type_key(child_type))
        t = self._cache.get(key)
        if t is None:
            d = self.config.hidden_size
            t = self.store.get(f"enc.{gate}.U[slot={slot}][type={key[3]}]", (d, d))
            self._cache[key] = t
        return t

    def _u_forget(self, slot: int, child_type: str, k: int) -> Tensor:
        k_key = 0 if self.config.tie_forget_slots else k
        key = ("Uf", slot, k_key, self._type_key(child_type))
        t = self._cache.get(key)
        if t is None:
            d = self.config.hidden_size
            suffix = "" if self.config.tie_forget_slots else f"[k={k}]"
            t = self.store.get(
                f"enc.f.U[slot={slot}]{suffix}[type={key[3]}]", (d, d))
            self._cache[key] = t
        return t

    def embedding(self) -> Tensor:
        t = self._cache.get(("embed",))
        if t is None:
            t = self.store.get("enc.embed", (len(self.vocab), self.config.hidden_size))
            self._cache[("embed",)] = t
        return t

    def embed_tokens(self, tokens) -> Tensor:
        """Mean of the source embeddings of the node's tokens; empty -> zeros."""
        ids = [self.vocab.id_of(t.lower()) for t in tokens]
        return ad.embedding_mean(self.embedding(), ids)

    def encode(self, tree: TokenTypeTree) -> EncoderOutput:
        grammar = self.grammar
        hidden: list[Tensor | None] = [None] * len(tree)
        cell: list[Tensor | None] = [None] * len(tree)
        # ids are topological (parents first), so reverse order is bottom-up
        for node in reversed(tree.nodes):
            if node.type not in grammar.types:
                raise KeyError(f"node {node.id}: no parameters for type {node.type!r} "
                               f"in grammar {grammar.name!r}")
            if len(node.children) > grammar.max_arity:
                raise ValueError(f"node {node.id}: {len(node.children)} children exceeds "
                                 f"grammar arity {grammar.max_arity}")
            phi = self.embed_tokens(node.tokens)
            kids = [(slot, tree.node(c)) for slot, c in enumerate(node.children, start=1)]
            gate_params = [(self._w(gate, node.type), self._b(gate, node.type),
                            [self._u(gate, slot, child.type) for slot, child in kids])
                           for gate in ("i", "o", "u")]
            forget_params = [(self._w("f", child_k.type), self._b("f", child_k.type),
                              [self._u_forget(slot, child.type, k) for slot, child in kids])
                             for k, child_k in kids]
            state = ad.tree_lstm_node(phi, [hidden[child.id] for _, child in kids],
                                      [cell[child.id] for _, child in kids],
                                      gate_params, forget_params)
            hidden[node.id] = ad.row(state, 0)
            cell[node.id] = ad.row(state, 1)
        return EncoderOutput(hidden=tuple(hidden), cell=tuple(cell),
                             root_hidden=hidden[tree.root])


def trained_types(names) -> set[str]:
    """Node types named by typed encoder weights ``enc.<gate>.W[type=...]``
    among parameter ``names``; an untyped model's ``any`` names none."""
    types = {name[name.index("[type=") + 6:-1] for name in names
             if name.startswith("enc.") and ".W[type=" in name}
    types.discard("any")
    return types


def hidden_matrix(output: EncoderOutput) -> Tensor:
    """All node hidden states stacked into a (nodes x hidden) matrix."""
    return ad.stack_rows(output.hidden)


def encoder_gradient_check(encoder: TreeEncoder, tree: TokenTypeTree,
                           epsilon: float = 1e-5, order: int = 2,
                           rng: np.random.Generator | None = None) -> float:
    """Finite-difference check of the encoder backward pass.

    Probe loss is the sum of the root hidden state; the checked subset always
    includes the embedding table and one W, U, b per gate (when the tree
    exercises them).
    """
    encoder.encode(tree)  # materialize every parameter this tree touches
    subset: dict[str, Tensor] = {"enc.embed": encoder.embedding()}
    for gate in ("i", "o", "u", "f"):
        for kind in ("W", "U", "b"):
            for name, tensor in encoder.store.items():
                if name.startswith(f"enc.{gate}.{kind}"):
                    subset[name] = tensor
                    break

    def loss():
        return ad.sumall(encoder.encode(tree).root_hidden)

    return finite_difference_check(loss, subset, epsilon=epsilon, order=order, rng=rng)
