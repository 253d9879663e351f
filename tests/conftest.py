"""Shared builders for randomized model tests."""

import numpy as np

from treecomment import autodiff as ad
from treecomment.autodiff import Tensor
from treecomment.corpus import BOS, Vocab, build_vocab
from treecomment.decoder import OP_COPY, DecoderConfig, DecoderState, TreeDecoder, decay_update
from treecomment.encoder import EncoderConfig, TreeEncoder
from treecomment.params import ParamStore
from treecomment.trees import Node, TokenTypeTree, get_grammar

WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


def random_tree(rng: np.random.Generator, grammar_name: str = "wikisql",
                max_depth: int = 3, max_children: int = 3,
                tokenless_ok: bool = True) -> TokenTypeTree:
    grammar = get_grammar(grammar_name)
    types = sorted(grammar.types)
    nodes: list = []

    def build(depth: int) -> int:
        nid = len(nodes)
        nodes.append(None)
        if depth >= max_depth or len(nodes) > 8:
            n_children = 0
        else:
            n_children = int(rng.integers(0, min(max_children, grammar.max_arity) + 1))
        kids = tuple(build(depth + 1) for _ in range(n_children))
        node_type = types[int(rng.integers(len(types)))]
        low = 0 if tokenless_ok else 1
        tokens = tuple(WORDS[int(rng.integers(len(WORDS)))]
                       for _ in range(int(rng.integers(low, 3))))
        nodes[nid] = Node(nid, node_type, tokens, kids)
        return nid

    build(1)
    return TokenTypeTree(nodes=tuple(nodes), grammar=grammar_name)


def word_vocab(extra=()) -> Vocab:
    return build_vocab([list(WORDS) + list(extra)], min_freq=1)


def reference_tree_lstm(tree, store, vocab, hidden_size):
    """Type-blind N-ary Tree-LSTM computed with raw numpy, reading the same
    shared parameter tensors the untyped encoder creates. Independent of the
    library's autodiff path."""
    def p(name):
        return store[name].data

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    h: dict = {}
    c: dict = {}
    for node in reversed(tree.nodes):
        ids = [vocab.id_of(t.lower()) for t in node.tokens]
        phi = p("enc.embed")[ids].mean(axis=0) if ids else np.zeros(hidden_size)
        kids = list(enumerate(node.children, start=1))

        def act(gate):
            total = p(f"enc.{gate}.W[type=any]") @ phi + p(f"enc.{gate}.b[type=any]")
            for slot, cid in kids:
                total = total + p(f"enc.{gate}.U[slot={slot}][type=any]") @ h[cid]
            return total

        i = sigmoid(act("i"))
        o = sigmoid(act("o"))
        u = np.tanh(act("u"))
        cell = i * u
        for k, cid_k in kids:
            total = p("enc.f.W[type=any]") @ phi + p("enc.f.b[type=any]")
            for slot, cid in kids:
                total = total + p(f"enc.f.U[slot={slot}][k={k}][type=any]") @ h[cid]
            cell = cell + sigmoid(total) * c[cid_k]
        h[node.id] = o * np.tanh(cell)
        c[node.id] = cell
    return h[tree.root]


def make_model(seed: int = 0, hidden_size: int = 6, grammar_name: str = "wikisql",
               untyped: bool = False, use_mask: bool = True, use_decay: bool = True,
               generate_only: bool = False, decay_factor: float = 0.5,
               target_extra=()):
    store = ParamStore(seed=seed)
    grammar = get_grammar(grammar_name)
    src_vocab = word_vocab()
    tgt_vocab = word_vocab(target_extra)
    encoder = TreeEncoder(store, grammar, src_vocab,
                          EncoderConfig(hidden_size=hidden_size, untyped=untyped))
    decoder = TreeDecoder(store, grammar, tgt_vocab,
                          DecoderConfig(hidden_size=hidden_size,
                                        decay_factor=decay_factor,
                                        use_mask=use_mask, use_decay=use_decay,
                                        generate_only=generate_only))
    return store, encoder, decoder


class StepOracle:
    """A reference decoder for one tree, a traced step at a time: a one-step
    ``autodiff.lstm`` from (1, d) states over the fed token's embedding,
    then ``decoder.heads`` on that row against the tree's own node matrix.
    It shares none of ``teacher_forced``'s padding, node blocks or
    step-major rows. ``decay`` is the (1, nodes) row the next step sees."""

    def __init__(self, decoder, encoder_output, tree):
        self.decoder = decoder
        self.nodes = encoder_output.hidden
        self.keep = decoder.copy_keep_mask(tree)[None]
        self.hidden = ad.stack_rows([encoder_output.root_hidden])
        self.cell = Tensor(np.zeros((1, decoder.config.hidden_size)))
        self.decay = np.zeros((1, len(tree)))

    def step(self, prev_id: int):
        """The head outputs of the next step, fed ``prev_id``: one row each."""
        dec = self.decoder
        states = ad.lstm(ad.rows(dec.embed, [prev_id]), self.hidden, self.cell,
                         dec.lstm_weights)
        self.hidden, self.cell = ad.rows(states, [0]), ad.rows(states, [1])
        return dec.heads(self.hidden, self.nodes, self.keep, self.decay)

    def advance(self, copied):
        """Decay as decoding does after a step that copied node ``copied``,
        or nothing (None)."""
        config = self.decoder.config
        if config.use_decay and not config.generate_only:
            self.decay = decay_update(self.decay, None if copied is None else (0, copied),
                                      config.decay_factor)


def replay_trajectory(decoder, enc, tree, traj):
    """Traced (log p(op), log p(word)) of each step of a decoded trajectory,
    each of shape (1,), fed and decayed one oracle step at a time as
    decoding does: the reference for ``score_trajectory``. log p(op) is an
    untraced 0 on a step whose operation was forced."""
    oracle = StepOracle(decoder, enc, tree)
    prev = BOS
    pairs = []
    for rec in traj.steps:
        out = oracle.step(prev)
        op = Tensor(np.zeros(1)) if out.copy_probs is None \
            else ad.log(ad.pick(out.op_probs, [0], [rec.action]))
        probs = out.copy_probs if rec.action == OP_COPY else out.gen_probs
        pairs.append((op, ad.log(ad.pick(probs, [0], [rec.choice]))))
        if rec.tokens:
            prev = decoder.vocab.id_of(rec.tokens[-1])
        oracle.advance(rec.choice if rec.action == OP_COPY else None)
    return pairs


def lockstep_state(decoder, enc, tree, decay=None) -> DecoderState:
    """The one-row lockstep state a lone tree's decoding starts from, with
    the decay row ``decay`` (nodes,) if given."""
    return DecoderState(hidden=Tensor(enc.root_hidden.data[None]),
                        cell=Tensor(np.zeros((1, decoder.config.hidden_size))),
                        decay=np.zeros((1, len(tree))) if decay is None else decay[None])
