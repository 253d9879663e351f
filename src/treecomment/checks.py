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
from .decoder import TreeDecoder
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
    """A three-layer composition touching every traced primitive."""
    rng = np.random.default_rng(seed)
    params = {
        "w1": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
        "w2": Tensor(rng.normal(size=(4, 4)), requires_grad=True),
        "b": Tensor(rng.normal(size=4), requires_grad=True),
        "table": Tensor(rng.normal(size=(5, 3)), requires_grad=True),
        "v": Tensor(rng.normal(size=4), requires_grad=True),
    }
    keep = np.array([True, True, False, True])

    def loss():
        x = ad.embedding_mean(params["table"], [0, 2, 2])
        h1 = ad.tanh(ad.add(ad.matmul(params["w1"], x), params["b"]))
        h2 = ad.sigmoid(ad.matmul(params["w2"], h1))
        probs = ad.softmax(ad.mul(h2, params["v"]), keep=keep)
        picked = ad.take(probs, [0, 3])
        joined = ad.concat([picked, h1])
        scored = ad.dot(joined, joined)
        ratio = ad.div(h2, ad.sumall(ad.mul(h1, h1)))
        return ad.add(ad.add(scored, ad.sumall(ad.log(ad.take(probs, [1])))),
                      ad.sumall(ratio))

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
    """One decoder step through attention, both word branches and the
    renormalized copy distribution (with a non-trivial decay vector)."""
    example, encoder, decoder = _toy_model(seed)
    tree = example.tree
    keep = decoder.copy_keep_mask(tree)
    decay = np.zeros(len(tree))
    decay[int(np.flatnonzero(keep)[0])] = 0.4  # exercise the (1 - decay) path
    encoder.encode(tree)  # materialize parameters before selecting the subset

    def loss():
        return decoder_probe_loss(encoder, decoder, tree, keep, decay)

    subset = dict(encoder.store.items())
    return finite_difference_check(loss, subset, max_coords_per_param=4,
                                   rng=np.random.default_rng(seed + 3), **_STENCIL)


def decoder_probe_loss(encoder: TreeEncoder, decoder: TreeDecoder, tree, keep,
                       decay) -> Tensor:
    enc = encoder.encode(tree)
    state = decoder.initial_state(enc, tree)
    state.decay = decay
    state, out = decoder.step(state, enc.hidden, keep, prev_token_id=1)
    unmasked = int(np.flatnonzero(keep)[0])
    probe = ad.add(ad.log(ad.at(out.op_probs, 0)),
                   ad.log(ad.at(out.gen_probs, 4)))
    return ad.add(probe, ad.log(ad.at(out.copy_probs, unmasked)))


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
