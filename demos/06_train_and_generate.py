#!/usr/bin/env python3
# End to end at desk scale: synthesize a corpus whose literals are often
# out-of-vocabulary, train with the likelihood objective, then decode unseen
# queries. Copying is what makes the fresh literals reproducible.
#
# Runs in a few seconds on one core.

from treecomment import metrics
from treecomment.corpus import examples_from_pairs, generate_synthetic
from treecomment.training import TrainConfig, greedy_candidates, token_accuracy, train

train_ex = examples_from_pairs(generate_synthetic(60, seed=11, oov_fraction=0.5), "sql")
dev_ex = examples_from_pairs(generate_synthetic(12, seed=99, oov_fraction=0.5), "sql")

cfg = TrainConfig(hidden_size=32, total_steps=200, batch_size=32, seed=0,
                  mle_only=True, min_freq_source=1, min_freq_target=4,
                  eval_every=50, max_decode_len=18)
result = train(train_ex, dev_ex, cfg)

print("loss curve (every 25 steps):")
for row in result.history[::25]:
    print(f"  step {row['step']:>3}  nll {row['loss_mle']:.2f}")

cands = greedy_candidates(dev_ex, result.encoder, result.decoder)
refs = [list(ex.comment) for ex in dev_ex]
print("\ndev scores:", {k: round(v * 100, 1)
                        for k, v in metrics.corpus_eval(cands, refs).items()})
print("dev token accuracy:", round(token_accuracy(dev_ex, cands), 3))

print("\nsample generations (literals like 'susuwo qivewo' were never in "
      "the target vocabulary; they arrive via copy):")
for ex, cand in list(zip(dev_ex, cands))[:4]:
    print("  ref:", " ".join(ex.comment))
    print("  hyp:", " ".join(cand))
