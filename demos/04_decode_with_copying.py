#!/usr/bin/env python3
# The two-stage decoder: pick copy-vs-generate, then pick the node or word.
# Grammar masking zeroes illegal copies exactly; copy decay discourages
# emitting the same node twice in a row.

import numpy as np

from treecomment.corpus import BOS, build_vocab
from treecomment.decoder import DecoderConfig, KnownSequence, TreeDecoder, decay_update
from treecomment.encoder import EncoderConfig, TreeEncoder
from treecomment.params import ParamStore
from treecomment.parsers import parse_sql
from treecomment.trees import get_grammar

grammar = get_grammar("wikisql")
src_vocab = build_vocab([["select", "capacity", "stadium"]], min_freq=1)
tgt_vocab = build_vocab([["what", "is", "the", "of", "?"]], min_freq=1)

store = ParamStore(seed=1)
encoder = TreeEncoder(store, grammar, src_vocab, EncoderConfig(hidden_size=12))
decoder = TreeDecoder(store, grammar, tgt_vocab,
                      DecoderConfig(hidden_size=12, decay_factor=0.5))

tree = parse_sql("SELECT Capacity FROM table WHERE Stadium = 'Otkrytie Arena'")
enc = encoder.encode(tree)
keep = decoder.copy_keep_mask(tree)

print("copyable nodes (grammar-available types with tokens):")
for n in tree.nodes:
    tag = "copyable" if keep[n.id] else "masked"
    print(f"  node {n.id} {n.type:<12} {str(list(n.tokens)):<24} {tag}")

# the first step, scored as training scores it: a teacher-forced pass over a
# one-step sequence fed BOS, with nothing decayed yet; every output has one
# row per step
first = KnownSequence(tree=0, prev_ids=[BOS], decay=np.zeros((1, len(tree))))
out = decoder.teacher_forced(encoder.encode_forest([tree]), [first])
copy_probs = out.copy_probs.data[0]
print("\noperation distribution [copy, generate]:", np.round(out.op_probs.data[0], 3))
print("copy distribution:", np.round(copy_probs, 3))
print("masked probabilities are exactly zero:", bool(np.all(copy_probs[~keep] == 0.0)))

# after copying a node its decay jumps to 1 and then halves every step,
# scaling its future copy probability by (1 - decay)
copied = int(np.argmax(copy_probs))
decay = decay_update(first.decay[0], copied, 0.5)
print(f"\ndecay after copying node {copied}:", decay)
for _ in range(2):
    decay = decay_update(decay, None, 0.5)
    print("next step decay:", decay)

# greedy decoding with untrained weights is noise, but the trace shows the
# machinery: per-step attention, operation choice, and the decay snapshot
trace = []
tokens = decoder.decode_greedy(enc, tree, max_len=4, trace=trace)
print("\nuntrained greedy output:", tokens)
for entry in trace:
    print(f"  step {entry['step']}: action={entry['action']} emitted={entry['emitted']}")

# sampled decoding records nothing on the tape but keeps each draw's
# log-probability; for a policy gradient, score_trajectory recomputes them
# as traced vectors in one teacher-forced pass
traj = decoder.decode_sample(enc, tree, np.random.default_rng(0))
print("\nsampled tokens:", traj.tokens)
print("trajectory log-probability:",
      round(sum(s.logp_op + s.logp_word for s in traj.steps), 4))
logp_op, logp_word = decoder.score_trajectory(encoder.encode_forest([tree]), [traj])
print("rescored in one pass:", round(float(logp_op.data.sum() + logp_word.data.sum()), 4))
