"""Finite-difference verification suite shared by the CLI and the tests.

Each check builds a small deterministic probe loss, runs the analytic
backward pass, and compares against central differences. The reported value
is the max relative error over sampled coordinates.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_difference_check
from .corpus import Example, build_vocab, source_token_stream, tokenize_comment
from .decoder import KnownSequence, TreeDecoder
from .encoder import TreeEncoder, encoder_gradient_check
from .parsers import parse_sql
from .training import TrainConfig, build_model, mle_loss

TOLERANCE = 1e-4

GOLDEN_SQL = "SELECT MAX(Capacity) FROM table WHERE Stadium = 'Otkrytie Arena'"
GOLDEN_COMMENT = "What is the maximum capacity of the Otkrytie Arena stadium ?"
# batched with the golden tree in the encoder check: one level shallower,
# and sharing its root type
SHALLOW_SQL = "SELECT Stadium FROM table"


def primitives_check(seed: int = 0) -> float:
    """A composition of the gathers and heads training runs
    (``embedding_means``, ``rows``, a softmax with one mask row per row,
    ``pick``, ``take``, ``dot``) and of the ops the tests build their
    reference compositions from (vector ``matmul``, ``sigmoid``, ``row``,
    ``stack_rows``)."""
    rng = np.random.default_rng(seed)
    params = {
        "w1": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
        "w2": Tensor(rng.normal(size=(4, 4)), requires_grad=True),
        "b": Tensor(rng.normal(size=4), requires_grad=True),
        "table": Tensor(rng.normal(size=(5, 3)), requires_grad=True),
        "v": Tensor(rng.normal(size=4), requires_grad=True),
    }
    keep = np.array([[True, True, False, True], [False, True, True, True]])

    def loss():
        means = ad.embedding_means(params["table"], [0, 2, 2, 4, 1], [3, 2])
        h1 = ad.tanh(ad.add(ad.matmul(params["w1"], ad.row(means, 0)), params["b"]))
        h2 = ad.sigmoid(ad.matmul(params["w2"], h1))
        scores = ad.stack_rows([ad.mul(h2, params["v"]),
                                ad.matmul(params["w1"], ad.row(means, 1))])
        probs = ad.softmax(scores, keep=keep)
        # kept entries only: rows 1, 0 and 1 of probs, one or two entries each
        picked = ad.pick(ad.rows(probs, [1, 0, 1]), [0, 0, 1, 2], [1, 3, 0, 2])
        joined = ad.concat([ad.log(picked), ad.take(h1, [0, 3])])
        return ad.add(ad.dot(joined, joined), ad.sumall(ad.mul(h2, -0.5)))

    return finite_difference_check(loss, params, max_coords_per_param=6,
                                   rng=np.random.default_rng(seed + 1))


def _toy_model(seed: int = 0, hidden_size: int = 10):
    tree = parse_sql(GOLDEN_SQL)
    comment = tuple(tokenize_comment(GOLDEN_COMMENT))
    example = Example(tree=tree, comment=comment)
    src_vocab = build_vocab([source_token_stream(tree)], min_freq=1)
    tgt_vocab = build_vocab([comment], min_freq=1)
    cfg = TrainConfig(hidden_size=hidden_size, seed=seed, min_freq_source=1,
                      min_freq_target=1)
    _, encoder, decoder = build_model(cfg, "wikisql", src_vocab, tgt_vocab)
    return example, encoder, decoder


def encoder_check(seed: int = 0) -> float:
    example, encoder, _ = _toy_model(seed)
    trees = [example.tree, parse_sql(SHALLOW_SQL)]
    return encoder_gradient_check(encoder, trees, epsilon=1e-3, order=4,
                                  rng=np.random.default_rng(seed + 2))


# deep graphs attenuate some gradient coordinates below the plain central
# difference's cancellation noise; the five-point stencil at a wider step
# keeps both truncation and roundoff under the acceptance tolerance
_STENCIL = {"epsilon": 1e-3, "order": 4}


def decoder_step_check(seed: int = 0) -> float:
    """One decoder step, scored by the teacher-forced pass training runs,
    through attention, both word branches and the renormalized copy
    distribution (with a non-trivial decay row)."""
    example, encoder, decoder = _toy_model(seed)
    tree = example.tree
    copyable = int(np.flatnonzero(decoder.copy_keep_mask(tree))[0])
    decay = np.zeros((1, len(tree)))
    decay[0, copyable] = 0.4  # exercise the (1 - decay) path

    def loss():
        return decoder_probe_loss(encoder, decoder, tree, copyable, decay)

    loss()  # materialize the encoder's gate weights before selecting the subset
    subset = dict(encoder.store.items())
    return finite_difference_check(loss, subset, max_coords_per_param=4,
                                   rng=np.random.default_rng(seed + 3), **_STENCIL)


def decoder_probe_loss(encoder: TreeEncoder, decoder: TreeDecoder, tree, copyable: int,
                       decay: np.ndarray) -> Tensor:
    """log p(copy) + log p(word 4) + log p(copy node ``copyable``) of a
    one-step sequence fed id 1 that sees the decay row ``decay``."""
    out = decoder.teacher_forced(encoder.encode_forest([tree]),
                                 [KnownSequence(tree=0, prev_ids=[1], decay=decay)])
    picked = [ad.pick(out.op_probs, [0], [0]), ad.pick(out.gen_probs, [0], [4]),
              ad.pick(out.copy_probs, [0], [copyable])]
    return ad.sumall(ad.log(ad.concat(picked)))


def mle_loss_check(seed: int = 0) -> float:
    example, encoder, decoder = _toy_model(seed, hidden_size=8)

    def loss():
        return mle_loss(example, encoder, decoder)

    loss()  # materialize the parameter set
    subset = dict(encoder.store.items())
    return finite_difference_check(loss, subset, max_coords_per_param=3,
                                   rng=np.random.default_rng(seed + 4), **_STENCIL)


def gradient_suite(seed: int = 0) -> dict[str, float]:
    return {
        "primitives": primitives_check(seed),
        "encoder": encoder_check(seed),
        "decoder_step": decoder_step_check(seed),
        "mle_loss": mle_loss_check(seed),
    }
