import gc
import logging
import math

import numpy as np
import pytest
from conftest import WORDS, make_model, random_tree, word_vocab
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_decoder import replay_trajectory

from treecomment import autodiff as ad
from treecomment import metrics
from treecomment.corpus import (EOS, Example, build_vocab, examples_from_pairs,
                                generate_synthetic, lint_examples, node_surface,
                                source_token_stream)
from treecomment.decoder import OP_COPY, OP_GEN, DecoderConfig, TreeDecoder
from treecomment.encoder import EncoderConfig, TreeEncoder
from treecomment.params import AdamState, ParamStore, adam_step
from treecomment.parsers import parse_sql
from treecomment.trees import Node, TokenTypeTree, get_grammar
from treecomment.training import (Baseline, GUARD_LOGP, TrainConfig, build_model,
                                  config_from_text, config_to_text, greedy_candidates,
                                  hrl_loss, mle_loss, mle_weight, mixed_loss, quantize_reward,
                                  reward_function, segment_target, shaped_rewards,
                                  step_rewards, train)

BLEU = reward_function("bleu4")


class TestSegmentation:
    def tree(self):
        return parse_sql("SELECT col FROM t WHERE a = 'Otkrytie Arena'")

    def test_longest_span_consumes_whole_literal(self):
        _, _, decoder = make_model(target_extra=("is",))
        units = segment_target(("col", "is", "otkrytie", "arena"), self.tree(), decoder)
        spans = [u.tokens for u in units]
        assert ("otkrytie", "arena") in spans
        assert units[-1].is_eos

    def test_single_token_keeps_both_branches(self):
        _, _, decoder = make_model(target_extra=("col",))
        units = segment_target(("col",), self.tree(), decoder)
        unit = units[0]
        assert unit.vocab_id == decoder.vocab.id_of("col")
        assert len(unit.node_ids) == 1

    def test_oov_without_match_has_no_action(self):
        _, _, decoder = make_model()
        units = segment_target(("unreachable",), self.tree(), decoder)
        assert units[0].vocab_id is None and units[0].node_ids == ()

    def test_generate_only_never_produces_spans(self):
        _, _, decoder = make_model(generate_only=True)
        units = segment_target(("otkrytie", "arena"), self.tree(), decoder)
        assert all(len(u.tokens) <= 1 for u in units)


class GuardLog(logging.Handler):
    """Collects the loss guard's warnings from the training logger."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.units = []

    def emit(self, record):
        if record.getMessage().startswith("unreachable target unit"):
            self.units.append(record.args[0])


def guarded_units(example, target_words, seed=70, **flags):
    """Units ``mle_loss`` guards for ``example`` under a model whose target
    vocabulary is ``target_words`` and whose decoder takes the ``flags``
    (default: none); also returns the loss."""
    grammar = get_grammar(example.tree.grammar)
    store = ParamStore(seed=seed)
    encoder = TreeEncoder(store, grammar, word_vocab(), EncoderConfig(hidden_size=6))
    decoder = TreeDecoder(store, grammar, build_vocab([list(target_words)], min_freq=1),
                          DecoderConfig(hidden_size=6, **flags))
    guards = GuardLog()
    logger = logging.getLogger("treecomment.training")
    logger.addHandler(guards)
    try:
        loss = mle_loss(example, encoder, decoder)
    finally:
        logger.removeHandler(guards)
    return guards.units, float(loss.data), decoder


def literal_tree(*literals):
    """A ``stmt`` over copyable nodes: (type, tokens) per child."""
    kids = tuple(Node(k, node_type, tokens, ()) for k, (node_type, tokens)
                 in enumerate(literals, start=1))
    return TokenTypeTree(nodes=(Node(0, "stmt", (), tuple(range(1, len(kids) + 1))),
                                *kids), grammar="wikisql")


class TestLintAgreesWithLoss:
    def test_overlapping_spans_take_the_reachable_split(self):
        # greedy longest match takes (a b) and strands c, which is neither in
        # the vocabulary nor a surface; the lint splits a | b c
        tree = literal_tree(("column_name", ("a", "b")), ("string", ("b", "c")))
        ex = Example(tree=tree, comment=("a", "b", "c"))
        assert lint_examples([ex], build_vocab([["a"]], min_freq=1)) == []
        guards, loss, decoder = guarded_units(ex, ["a"])
        assert guards == []
        assert loss < -GUARD_LOGP / 2
        units = segment_target(ex.comment, tree, decoder)
        assert [u.tokens for u in units] == [("a",), ("b", "c"), ()]

    def test_back_to_back_copy_of_one_span_splits_into_tokens(self):
        # copying (a b) fully decays its node, so the repeat must be spelt
        # out from the vocabulary
        tree = literal_tree(("string", ("a", "b")))
        ex = Example(tree=tree, comment=("a", "b", "a", "b"))
        guards, _, decoder = guarded_units(ex, ["a", "b"])
        assert guards == []
        units = segment_target(ex.comment, tree, decoder)
        assert [u.tokens for u in units] == [("a", "b"), ("a",), ("b",), ()]

    def test_greedy_segmentation_kept_where_it_reaches_the_end(self):
        _, _, decoder = make_model(target_extra=("col", "is"))
        tree = parse_sql("SELECT col FROM t WHERE a = 'Otkrytie Arena'")
        units = segment_target(("col", "is", "otkrytie", "arena", "col"), tree, decoder)
        assert [u.tokens for u in units] == [("col",), ("is",), ("otkrytie", "arena"),
                                             ("col",), ()]

    def test_generate_only_lint_reports_every_guarded_example(self):
        # a generate-only model copies nothing, so an out-of-vocabulary
        # literal is unreachable; the lint must say so for that model
        examples = examples_from_pairs(
            generate_synthetic(400, seed=1, grammar="wikisql", oov_fraction=0.5), "sql")
        cfg = TrainConfig(generate_only=True, hidden_size=16)
        target_vocab = build_vocab((ex.comment for ex in examples), cfg.min_freq_target)
        source_vocab = build_vocab((source_token_stream(ex.tree) for ex in examples),
                                   cfg.min_freq_source)
        _, encoder, decoder = build_model(cfg, "wikisql", source_vocab, target_vocab)
        guarded = set()
        logger = logging.getLogger("treecomment.training")
        for i, ex in enumerate(examples):
            guards = GuardLog()
            logger.addHandler(guards)
            try:
                with ad.no_grad():
                    mle_loss(ex, encoder, decoder)
            finally:
                logger.removeHandler(guards)
            if guards.units:
                guarded.add(i)
        assert lint_examples(examples, target_vocab) == []  # the copying model's view
        problems = lint_examples(examples, target_vocab, generate_only=True)
        assert len(guarded) > 100
        assert {p.example_index for p in problems} == guarded

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           picks=st.lists(st.integers(0, 13), min_size=1, max_size=6),
           target_words=st.sets(st.sampled_from(WORDS)),
           flags=st.sampled_from([{}, {"use_mask": False}, {"generate_only": True}]))
    def test_lint_passed_comment_takes_no_guard(self, seed, picks, target_words, flags):
        # comments are spliced from node surfaces (masked ones too) and
        # single words, one of them never in the vocabulary; the model takes
        # the default flags, no grammar mask, or no copying at all
        tree = random_tree(np.random.default_rng(seed))
        surfaces = [node_surface(n.tokens) for n in tree.nodes if n.tokens]
        words = (*WORDS, "omega")
        comment = []
        for k in picks:
            if k % 2 == 0 and surfaces:
                comment.extend(surfaces[k // 2 % len(surfaces)])
            else:
                comment.append(words[k % len(words)])
        ex = Example(tree=tree, comment=tuple(comment))
        assume(not lint_examples([ex], build_vocab([list(target_words)], min_freq=1),
                                 **flags))
        guards, loss, _ = guarded_units(ex, target_words, **flags)
        assert guards == []
        assert np.isfinite(loss)


class TestMleLoss:
    def test_vocab_only_token_composes_gen_branch(self):
        _, encoder, decoder = make_model(seed=40, target_extra=("hello",))
        tree = self_tree = parse_sql("SELECT col FROM t WHERE a = 'v'")
        ex = Example(tree=tree, comment=("hello",))
        loss = mle_loss(ex, encoder, decoder)
        # hand composition: -(log p1 + log p_eos)
        enc = encoder.encode(tree)
        mat = enc.hidden
        keep = decoder.copy_keep_mask(tree)
        state = decoder.initial_state(enc, tree)
        state, out = decoder.step(state, mat, keep, 1)
        hello = decoder.vocab.id_of("hello")
        p1 = out.op_probs.data[OP_GEN] * out.gen_probs.data[hello]
        state.decay = state.decay * decoder.config.decay_factor
        state, out2 = decoder.step(state, mat, keep, hello)
        p2 = out2.op_probs.data[OP_GEN] * out2.gen_probs.data[EOS]
        want = -(math.log(p1) + math.log(p2))
        assert abs(float(loss.data) - want) < 1e-12

    def test_oov_span_uses_copy_branch_and_stays_finite(self):
        _, encoder, decoder = make_model(seed=41)
        tree = parse_sql("SELECT col FROM t WHERE a = 'Rare Pair'")
        ex = Example(tree=tree, comment=("rare", "pair"))
        loss = mle_loss(ex, encoder, decoder)
        assert np.isfinite(loss.data)
        assert float(loss.data) < -2 * GUARD_LOGP  # not the guarded path

    def test_unreachable_unit_takes_guarded_loss(self):
        _, encoder, decoder = make_model(seed=42)
        tree = parse_sql("SELECT col FROM t WHERE a = 'v'")
        ex = Example(tree=tree, comment=("unreachable",))
        loss = mle_loss(ex, encoder, decoder)
        assert np.isfinite(loss.data)
        assert float(loss.data) > -GUARD_LOGP / 2  # dominated by the guard term

    def test_generate_only_model_guards_oov(self):
        _, encoder, decoder = make_model(seed=43, generate_only=True)
        tree = parse_sql("SELECT col FROM t WHERE a = 'Rare Pair'")
        ex = Example(tree=tree, comment=("rare", "pair"))
        loss = mle_loss(ex, encoder, decoder)
        assert float(loss.data) > -GUARD_LOGP  # both tokens unreachable

    def test_three_step_hand_composed_sum(self):
        # "col" is both a kept vocabulary token and a copyable node surface,
        # so its step marginalizes over the two operations
        _, encoder, decoder = make_model(seed=44, target_extra=("x", "y", "col"))
        tree = parse_sql("SELECT col FROM t WHERE a = 'v'")
        ex = Example(tree=tree, comment=("x", "y", "col"))
        loss = mle_loss(ex, encoder, decoder)

        enc = encoder.encode(tree)
        mat = enc.hidden
        keep = decoder.copy_keep_mask(tree)
        state = decoder.initial_state(enc, tree)
        expected = 0.0
        prev = 1  # BOS
        col_nodes = [n.id for n in tree.nodes
                     if keep[n.id] and tuple(t.lower() for t in n.tokens) == ("col",)]
        for token in ("x", "y", "col", None):
            state, out = decoder.step(state, mat, keep, prev)
            if token is None:
                p = out.op_probs.data[OP_GEN] * out.gen_probs.data[EOS]
            else:
                tid = decoder.vocab.id_of(token)
                p = out.op_probs.data[OP_GEN] * out.gen_probs.data[tid]
                if token == "col":
                    p += out.op_probs.data[OP_COPY] * \
                        out.copy_probs.data[col_nodes].sum()
                prev = tid
            expected -= math.log(p)
            state.decay = state.decay * decoder.config.decay_factor
        assert abs(float(loss.data) - expected) < 1e-12

    def test_finite_difference_on_mle(self):
        from treecomment.autodiff import finite_difference_check
        _, encoder, decoder = make_model(seed=45, hidden_size=5,
                                         target_extra=("col",))
        tree = parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        ex = Example(tree=tree, comment=("col", "two", "words"))

        def loss():
            return mle_loss(ex, encoder, decoder)

        loss()
        err = finite_difference_check(loss, dict(encoder.store.items()),
                                      epsilon=1e-3, order=4,
                                      max_coords_per_param=3)
        assert err < 1e-4


class TestShapedRewards:
    def test_telescoping_bitwise(self):
        rng = np.random.default_rng(0)
        vocab = list("abcdef")
        for _ in range(200):
            cand = [vocab[int(rng.integers(6))] for _ in range(int(rng.integers(1, 10)))]
            ref = [vocab[int(rng.integers(6))] for _ in range(int(rng.integers(1, 10)))]
            rewards = shaped_rewards(cand, ref, BLEU)
            assert math.fsum(rewards) == quantize_reward(BLEU(cand, ref))
            assert float(rewards.sum()) == quantize_reward(BLEU(cand, ref))

    def test_identical_sequences_sum_to_one(self):
        tokens = "show me the flights".split()
        assert float(shaped_rewards(tokens, tokens, BLEU).sum()) == 1.0

    def test_per_step_values_match_prefix_oracle(self):
        cand, ref = ["a", "b"], ["a", "c"]
        rewards = shaped_rewards(cand, ref, BLEU)
        s1 = quantize_reward(metrics.bleu4(["a"], ref, smoothing="add-one").value)
        s2 = quantize_reward(metrics.bleu4(["a", "b"], ref, smoothing="add-one").value)
        assert rewards[0] == s1
        assert rewards[1] == s2 - s1

    def test_step_grouping_preserves_totals(self):
        _, encoder, decoder = make_model(seed=50)
        tree = parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        enc = encoder.encode(tree)
        ref = ("col", "two", "words")
        for seed in range(10):
            traj = decoder.decode_sample(enc, tree, np.random.default_rng(seed))
            per_step = step_rewards(traj, ref, BLEU)
            assert float(per_step.sum()) == quantize_reward(BLEU(traj.tokens, ref))


class TestHrlLoss:
    def test_zero_advantage_gives_zero_gradients(self):
        store, encoder, decoder = make_model(seed=51, generate_only=True)
        tree = parse_sql("SELECT col FROM t")
        ex = Example(tree=tree, comment=("impossible",))  # reward always 0
        store.zero_grads()
        surrogate, reward = hrl_loss(ex, encoder, decoder,
                                     np.random.default_rng(0), BLEU,
                                     baseline_value=0.0)
        assert reward == 0.0
        surrogate.backward()
        for _, p in store.items():
            assert np.array_equal(p.grad, np.zeros_like(p.data))

    def test_positive_advantage_raises_trajectory_logprob(self):
        # single-step trajectory: the surrogate is -R * logp, so one descent
        # step must strictly raise the re-scored log-probability
        store, encoder, decoder = make_model(seed=52, target_extra=("good",))
        decoder.config.max_len = 1
        tree = parse_sql("SELECT col FROM t WHERE a = 'v'")
        ex = Example(tree=tree, comment=("good", "col"))
        sample_seed = next(
            s for s in range(50)
            if hrl_loss(ex, encoder, decoder, np.random.default_rng(s), BLEU)[1] > 0)
        enc = encoder.encode(tree)
        traj = decoder.decode_sample(enc, tree, np.random.default_rng(sample_seed))
        before = sum(float(v.data.sum()) for v in decoder.score_trajectory(enc, tree, traj))
        store.zero_grads()
        surrogate, reward = hrl_loss(ex, encoder, decoder,
                                     np.random.default_rng(sample_seed), BLEU,
                                     baseline_value=0.0)
        assert reward > 0.0
        surrogate.backward()
        adam_step(store, AdamState(), lr=1e-3)
        enc2 = encoder.encode(tree)
        after = sum(float(v.data.sum()) for v in decoder.score_trajectory(enc2, tree, traj))
        assert after > before

    def test_surrogate_equals_step_replay(self):
        # hrl_loss scores its sample in one teacher-forced pass; the surrogate
        # and its gradients must equal the same composition over a step-by-step
        # replay of the sample up to summation order
        store, encoder, decoder = make_model(seed=55, target_extra=("col", "two"))
        tree = parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        ex = Example(tree=tree, comment=("col", "two", "words"))
        copied = False
        for seed in range(8):
            store.zero_grads()
            surrogate, reward = hrl_loss(ex, encoder, decoder,
                                         np.random.default_rng(seed), BLEU, 0.1)
            surrogate.backward()
            scored = {name: p.grad.copy() for name, p in store.items()}

            store.zero_grads()
            enc = encoder.encode(tree)
            traj = decoder.decode_sample(enc, tree, np.random.default_rng(seed))
            per_step = step_rewards(traj, ex.comment, BLEU)
            advantage = np.cumsum(per_step[::-1])[::-1] - 0.1
            replayed = None
            for (lo, lw), adv in zip(replay_trajectory(decoder, enc, tree, traj), advantage):
                term = ad.mul(ad.add(lo, lw), -float(adv))
                replayed = term if replayed is None else ad.add(replayed, term)
            assert abs(float(replayed.data) - float(surrogate.data)) <= 1e-12
            assert reward == float(per_step.sum())
            replayed.backward()
            for name, p in store.items():
                assert np.allclose(scored[name], p.grad, rtol=0.0, atol=1e-12), name
            copied |= any(s.action == OP_COPY for s in traj.steps)
        assert copied

    def test_baseline_update_is_ema(self):
        b = Baseline(decay=0.9)
        b.update(1.0)
        assert abs(b.value - 0.1) < 1e-15
        b.update(1.0)
        assert abs(b.value - 0.19) < 1e-15


class TestHrlTape:
    @pytest.mark.parametrize("flags, ops", [({}, 23), ({"generate_only": True}, 15)],
                             ids=["default", "generate_only"])
    def test_records_a_constant_number_of_ops(self, flags, ops, monkeypatch):
        # the teacher-forced pass 15 (LSTM 3, attention 6, heads 2 each, copy
        # scores and masked softmax 2), its log-probabilities 6 and the
        # surrogate 2, whatever the sample's length; damping adds 1 once a
        # copy has decayed a node. Generate-only: LSTM, attention, the
        # generate head, one pick, one log and the surrogate's 2.
        _, encoder, decoder = make_model(seed=56, target_extra=("col",), **flags)
        tree = parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        ex = Example(tree=tree, comment=("col", "two", "words"))
        traced = []
        result = ad._result

        def counting(*args, **kwargs):
            out = result(*args, **kwargs)
            traced.append(out._backward is not None)
            return out

        monkeypatch.setattr(ad, "_result", counting)
        lengths = set()
        for seed in range(20):
            enc = encoder.encode(tree)
            traj = decoder.decode_sample(enc, tree, np.random.default_rng(seed))
            lengths.add(len(traj.steps))
            damped = any(s.action == OP_COPY for s in traj.steps[:-1])
            traced.clear()
            hrl_loss(ex, encoder, decoder, np.random.default_rng(seed), BLEU, encoded=enc)
            assert sum(traced) == ops + damped
        assert len(lengths) >= 3


class TestMixedLoss:
    def test_weight_schedule_endpoints(self):
        assert mle_weight(0, 100) == 1.0
        assert mle_weight(100, 100) == 0.0
        assert mle_weight(50, 100) == 0.5
        assert mle_weight(150, 100) == 0.0  # clamped
        assert mle_weight(50, 100, mle_only=True) == 1.0

    def test_half_schedule_is_arithmetic_mean(self):
        _, encoder, decoder = make_model(seed=53, target_extra=("col",))
        tree = parse_sql("SELECT col FROM t WHERE a = 'v'")
        ex = Example(tree=tree, comment=("col",))
        cfg = TrainConfig(total_steps=100, hidden_size=6, seed=53,
                          min_freq_source=1, min_freq_target=1)
        baseline = Baseline()
        loss, parts = mixed_loss(ex, encoder, decoder, 50, cfg,
                                 np.random.default_rng(1), baseline)
        # rebuild the two components with the same sampling stream
        mle_part = mle_loss(ex, encoder, decoder)
        hrl_part, _ = hrl_loss(ex, encoder, decoder, np.random.default_rng(1),
                               reward_function("bleu4"), baseline.value)
        want = 0.5 * float(mle_part.data) + 0.5 * float(hrl_part.data)
        assert abs(float(loss.data) - want) < 1e-12

    def test_pure_endpoints_skip_other_component(self):
        _, encoder, decoder = make_model(seed=54, target_extra=("col",))
        tree = parse_sql("SELECT col FROM t WHERE a = 'v'")
        ex = Example(tree=tree, comment=("col",))
        cfg = TrainConfig(total_steps=10, hidden_size=6, seed=54,
                          min_freq_source=1, min_freq_target=1)
        _, parts0 = mixed_loss(ex, encoder, decoder, 0, cfg,
                               np.random.default_rng(0), Baseline())
        assert parts0["mu"] == 1.0 and parts0["loss_hrl"] is None
        _, parts1 = mixed_loss(ex, encoder, decoder, 10, cfg,
                               np.random.default_rng(0), Baseline())
        assert parts1["mu"] == 0.0 and parts1["loss_mle"] is None


class TestTapeIsAcyclic:
    """A dropped graph is freed by reference counting alone: with the cycle
    collector off, building a graph and dropping it leaves nothing for a
    later collection to find."""

    @pytest.mark.parametrize("build", [
        lambda ex, enc, dec: mle_loss(ex, enc, dec),
        lambda ex, enc, dec: hrl_loss(ex, enc, dec, np.random.default_rng(0),
                                      reward_function("bleu4"), 0.0),
        lambda ex, enc, dec: greedy_candidates([ex], enc, dec),
        lambda ex, enc, dec: mixed_loss(
            ex, enc, dec, 5, TrainConfig(total_steps=10, hidden_size=6, seed=40),
            np.random.default_rng(0), Baseline()),
    ], ids=["mle_loss", "hrl_loss", "greedy_candidates", "mixed_loss"])
    def test_dropped_graph_leaves_no_cycles(self, build):
        _, encoder, decoder = make_model(seed=40, target_extra=("hello",))
        ex = Example(tree=parse_sql("SELECT col FROM t WHERE a = 'v'"),
                     comment=("hello", "v"))
        build(ex, encoder, decoder)  # creates the parameters the graph reads
        gc.collect()
        gc.disable()
        try:
            build(ex, encoder, decoder)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestConfig:
    def test_roundtrip(self):
        cfg = TrainConfig(hidden_size=48, grad_clip=2.5, mle_only=True, seed=9)
        again = config_from_text(config_to_text(cfg))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            config_from_text("not_a_field=3\n")

    def test_grad_clip_none(self):
        cfg = config_from_text("grad_clip=none\n")
        assert cfg.grad_clip is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(decay_factor=1.5).validate()
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(reward_metric="meteor").validate()

    def test_comments_and_blanks_tolerated(self):
        cfg = config_from_text("# a comment\n\nseed=5\nhidden_size=16\n")
        assert cfg.seed == 5 and cfg.hidden_size == 16


DECODER_WEIGHTS = ["dec.embed", *(f"dec.lstm.{kind}[{gate}]" for gate in "ifou" for kind in "WUb"),
                   "dec.attn.Wq", "dec.gen.Wg", "dec.op.Ws"]


class TestModelBuiltOnce:
    """``build_model`` creates the embeddings and every decoder weight, and
    binds the decoder's LSTM gates as views of three stacked arrays; nothing
    after it creates a decoder weight or unbinds a gate."""

    @staticmethod
    def model(generate_only=False, seed=4):
        examples = examples_from_pairs(generate_synthetic(8, seed=seed), "sql")
        cfg = TrainConfig(hidden_size=6, seed=seed, min_freq_source=1, min_freq_target=1,
                          generate_only=generate_only, max_decode_len=8)
        source_vocab = build_vocab((source_token_stream(ex.tree) for ex in examples), 1)
        target_vocab = build_vocab((ex.comment for ex in examples), 1)
        return (examples, cfg, source_vocab, target_vocab,
                build_model(cfg, "wikisql", source_vocab, target_vocab))

    @staticmethod
    def assert_bound(store, stacks):
        for k, name in enumerate(DECODER_WEIGHTS[1:13]):
            assert store[name].data.base is stacks[k % 3], name
            assert np.shares_memory(store[name].data, stacks[k % 3]), name

    @pytest.mark.parametrize("generate_only", [False, True])
    def test_build_creates_every_weight_once(self, generate_only):
        *_, (store, _, decoder) = self.model(generate_only)
        want = ["enc.embed"] + DECODER_WEIGHTS[:15 if generate_only else 16]
        assert store.names() == want
        assert len(store) == (16 if generate_only else 17)
        assert [t.name for t in decoder.lstm_weights] == DECODER_WEIGHTS[1:13]

    @pytest.mark.parametrize("generate_only", [False, True])
    def test_decoding_creates_no_weight(self, generate_only):
        examples, *_, (store, encoder, decoder) = self.model(generate_only)
        tree = examples[0].tree
        enc = encoder.encode(tree)  # creates the encoder gate weights it needs
        built = store.names()
        decoder.decode_greedy(enc, tree)
        decoder.decode_sample(enc, tree, np.random.default_rng(0))
        decoder.teacher_forced(enc, tree, [1, 4, 5], np.zeros((3, len(tree))))
        assert store.names() == built

    def test_gates_stay_bound_through_adam_and_load_snapshot(self):
        examples, cfg, source_vocab, target_vocab, (store, encoder, decoder) = self.model()
        stacks = [decoder.lstm_weights[kind].data.base for kind in range(3)]
        self.assert_bound(store, stacks)
        mle_loss(examples[0], encoder, decoder)  # create the encoder weights first
        store.zero_grads()
        mle_loss(examples[0], encoder, decoder).backward()
        before = store["dec.lstm.U[f]"].data.copy()
        adam_step(store, AdamState(), lr=0.01)
        assert not np.array_equal(store["dec.lstm.U[f]"].data, before)
        self.assert_bound(store, stacks)

        snapshot = train(examples, [], TrainConfig(
            hidden_size=6, seed=9, total_steps=2, batch_size=4, mle_only=True,
            min_freq_source=1, min_freq_target=1, max_decode_len=8)).store.snapshot()
        store.load_snapshot(snapshot)
        self.assert_bound(store, stacks)
        for name, data in snapshot.items():
            assert np.array_equal(store[name].data, data), name
        fresh, fresh_encoder, fresh_decoder = build_model(cfg, "wikisql", source_vocab,
                                                          target_vocab)
        fresh.load_snapshot(snapshot)
        for ex in examples:
            assert decoder.decode_greedy(encoder.encode(ex.tree), ex.tree) == \
                fresh_decoder.decode_greedy(fresh_encoder.encode(ex.tree), ex.tree)


class TestTrainLoop:
    def corpus(self, n=8, seed=0):
        return examples_from_pairs(generate_synthetic(n, seed=seed), "sql")

    def test_short_run_is_bitwise_reproducible(self):
        examples = self.corpus()
        cfg = TrainConfig(hidden_size=8, total_steps=4, batch_size=4, seed=7,
                          min_freq_source=1, min_freq_target=1, eval_every=2,
                          max_decode_len=14)
        a = train(examples, examples[:2], cfg)
        b = train(examples, examples[:2], cfg)
        assert len(a.history) == len(b.history) == 4
        for ra, rb in zip(a.history, b.history):
            assert ra == rb
        for name in a.store.names():
            assert np.array_equal(a.store[name].data, b.store[name].data)

    def test_loss_decreases_over_epochs(self):
        examples = self.corpus(12, seed=3)
        cfg = TrainConfig(hidden_size=12, total_steps=30, batch_size=12, seed=1,
                          mle_only=True, min_freq_source=1, min_freq_target=1,
                          eval_every=30, max_decode_len=14)
        result = train(examples, [], cfg)
        first = result.history[0]["loss_mle"]
        last = result.history[-1]["loss_mle"]
        assert last < first

    def test_non_finite_initial_params_abort_and_restore(self):
        examples = self.corpus(4, seed=5)
        cfg = TrainConfig(hidden_size=6, total_steps=3, batch_size=4, seed=2,
                          mle_only=True, min_freq_source=1, min_freq_target=1)
        probe = train(examples, [], cfg)
        poisoned = probe.store.snapshot()
        poisoned["enc.embed"][...] = np.nan
        result = train(examples, [], cfg, initial_params=poisoned)
        assert result.aborted
        assert result.history == []

    def test_mixed_schedule_runs_and_logs_rewards(self):
        examples = self.corpus(6, seed=6)
        cfg = TrainConfig(hidden_size=8, total_steps=4, batch_size=6, seed=3,
                          min_freq_source=1, min_freq_target=1, eval_every=4,
                          max_decode_len=10)
        result = train(examples, examples[:2], cfg)
        assert any(r["reward_mean"] is not None for r in result.history[1:])
        assert result.history[-1]["dev_bleu4"] is not None
        assert result.best_params is not None
