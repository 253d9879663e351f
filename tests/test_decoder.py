import numpy as np
import pytest
from conftest import StepOracle, lockstep_state, make_model, random_tree, replay_trajectory

from treecomment import autodiff as ad
from treecomment import checks
from treecomment.autodiff import Tensor
from treecomment.corpus import BOS, EOS
from treecomment.decoder import (OP_COPY, OP_GEN, DecoderConfig, DecoderState, KnownSequence,
                                 decay_update)
from treecomment.parsers import parse_sql
from treecomment.trees import Node, TokenTypeTree


def run_step(encoder, decoder, tree, decay=None, prev=1):
    """One lockstep step of a lone tree from its start, with the decay row
    ``decay`` (nodes,) if given; every output has one row."""
    enc = encoder.encode(tree)
    with ad.no_grad():
        return decoder.step(lockstep_state(decoder, enc, tree, decay), enc.hidden,
                            decoder.copy_keep_mask(tree)[None], [prev])


def recurrence(decoder, h0, c0, prev):
    """The (h, c) rows one lockstep step reaches from the rows ``h0`` and
    ``c0``, fed ``prev``."""
    state = DecoderState(hidden=Tensor(h0[None]), cell=Tensor(c0[None]), decay=np.zeros((1, 1)))
    with ad.no_grad():
        state, _ = decoder.step(state, Tensor(np.zeros((1, len(h0)))), np.ones((1, 1), bool),
                                [prev])
    return state.hidden.data[0], state.cell.data[0]


class TestRecurrence:
    def test_zero_weights_zero_hidden(self):
        store, encoder, decoder = make_model()
        for name, p in store.items():
            if name.startswith("dec.lstm") or name == "dec.embed":
                p.data[...] = 0.0
        h, c = recurrence(decoder, np.zeros(6), np.zeros(6), 1)
        assert np.array_equal(h, np.zeros(6))
        assert np.array_equal(c, np.zeros(6))

    def test_deterministic(self):
        _, encoder, decoder = make_model(seed=3)
        h0, c0 = np.linspace(-1, 1, 6), np.zeros(6)
        a = recurrence(decoder, h0, c0, 4)[0]
        b = recurrence(decoder, h0, c0, 4)[0]
        assert np.array_equal(a, b)

    def test_matches_hand_rolled_lstm_cell(self):
        store, _, decoder = make_model(seed=5)
        h0 = np.linspace(-0.5, 0.5, 6)
        x_id = 5
        h, c = recurrence(decoder, h0, np.zeros(6), x_id)
        x = store["dec.embed"].data[x_id]

        def gate(g):
            return store[f"dec.lstm.W[{g}]"].data @ x + \
                store[f"dec.lstm.U[{g}]"].data @ h0 + store[f"dec.lstm.b[{g}]"].data

        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        cell = sig(gate("f")) * 0.0 + sig(gate("i")) * np.tanh(gate("u"))
        want_h = sig(gate("o")) * np.tanh(cell)
        assert np.max(np.abs(c - cell)) < 1e-12
        assert np.max(np.abs(h - want_h)) < 1e-12


class TestAttention:
    def test_single_node_gets_full_weight(self):
        _, encoder, decoder = make_model()
        tree = TokenTypeTree(nodes=(Node(0, "string", ("alpha",), ()),),
                             grammar="wikisql")
        _, out = run_step(encoder, decoder, tree)
        assert out.attn_weights.data.tolist() == [[1.0]]

    def test_identical_states_uniform_weights(self):
        _, _, decoder = make_model(seed=2)
        mat = Tensor(np.tile(np.linspace(-0.2, 0.4, 6), (4, 1)))
        weights, _ = decoder.attend(Tensor(np.full((1, 6), 0.3)), mat)
        assert np.allclose(weights.data, 0.25, atol=1e-12)

    def test_zero_projection_gives_zero_vector(self):
        store, _, decoder = make_model(seed=2)
        decoder.attn_w.data[...] = 0.0
        mat = Tensor(np.stack([np.ones(6), np.zeros(6)]))
        _, vector = decoder.attend(Tensor(np.ones((1, 6))), mat)
        assert np.array_equal(vector.data, np.zeros((1, 6)))


class TestOperationAndGeneration:
    def test_zero_head_is_uniform(self):
        _, _, decoder = make_model(seed=4)
        decoder.op_w.data[...] = 0.0
        probs = decoder.operation_distribution(Tensor(np.ones((1, 6))))
        assert np.allclose(probs.data, [[0.5, 0.5]], atol=1e-15)

    def test_dominant_logit_wins(self):
        _, _, decoder = make_model(seed=4)
        w = decoder.op_w
        w.data[...] = 0.0
        w.data[OP_COPY, :] = 10.0
        probs = decoder.operation_distribution(Tensor(np.ones((1, 6)) / 6))
        assert probs.data[0, OP_COPY] > 0.9999

    def test_distributions_normalize(self):
        rng = np.random.default_rng(8)
        _, encoder, decoder = make_model(seed=8)
        for _ in range(20):
            tree = random_tree(rng)
            _, out = run_step(encoder, decoder, tree)
            assert out.op_probs.shape == (1, 2)
            assert abs(out.op_probs.data.sum() - 1.0) < 1e-9
            assert abs(out.gen_probs.data.sum() - 1.0) < 1e-9
            assert np.all(out.gen_probs.data >= 0.0)


class TestMaskAndCopy:
    def test_golden_tree_mask(self):
        _, encoder, decoder = make_model()
        tree = parse_sql("SELECT MAX(Capacity) FROM table WHERE Stadium = 'Otkrytie Arena'")
        keep = decoder.copy_keep_mask(tree)
        kept_types = {tree.node(i).type for i in np.flatnonzero(keep)}
        assert kept_types == {"column_name", "string"}
        masked_types = {tree.node(i).type for i in np.flatnonzero(~keep)}
        assert "cmp_op" in masked_types and "agg_op" in masked_types

    def test_mask_off_keeps_token_bearing_nodes(self):
        _, _, decoder = make_model(use_mask=False)
        tree = parse_sql("SELECT col FROM t WHERE a = 'v'")
        keep = decoder.copy_keep_mask(tree)
        for n in tree.nodes:
            assert keep[n.id] == bool(n.tokens)

    def test_masked_probability_exactly_zero(self):
        rng = np.random.default_rng(9)
        _, encoder, decoder = make_model(seed=9)
        for _ in range(20):
            tree = random_tree(rng)
            keep = decoder.copy_keep_mask(tree)
            if not keep.any():
                continue
            _, out = run_step(encoder, decoder, tree)
            assert out.copy_probs is not None
            assert np.all(out.copy_probs.data[0, ~keep] == 0.0)
            assert abs(out.copy_probs.data.sum() - 1.0) < 1e-9

    def test_fully_decayed_node_probability_exactly_zero(self):
        _, encoder, decoder = make_model(seed=10)
        tree = parse_sql("SELECT col FROM t WHERE a = 'u v'")
        keep = decoder.copy_keep_mask(tree)
        target = int(np.flatnonzero(keep)[0])
        decay = np.zeros(len(tree))
        decay[target] = 1.0
        _, out = run_step(encoder, decoder, tree, decay=decay)
        assert out.copy_probs.data[0, target] == 0.0
        assert abs(out.copy_probs.data.sum() - 1.0) < 1e-9

    def test_one_hot_when_single_unmasked(self):
        _, encoder, decoder = make_model(seed=11)
        tree = parse_sql("SELECT col FROM t")  # only the column is copyable
        _, out = run_step(encoder, decoder, tree)
        keep = decoder.copy_keep_mask(tree)
        assert keep.sum() == 1
        assert out.copy_probs.data[0, int(np.flatnonzero(keep)[0])] == 1.0

    def test_renormalized_damping_hand_case(self):
        # uniform base scores, decay [0.5, 0, 0] -> [0.2, 0.4, 0.4]
        _, _, decoder = make_model(seed=12)
        mat = Tensor(np.zeros((3, 6)))
        keep = np.array([[True, True, True]])
        probs = decoder.copy_distribution(Tensor(np.zeros((1, 6))), mat, keep,
                                          np.array([[0.5, 0.0, 0.0]]))
        assert np.allclose(probs.data, [[0.2, 0.4, 0.4]], atol=1e-12)

    def test_infeasible_when_all_masked(self):
        _, _, decoder = make_model(seed=12)
        assert decoder.copy_distribution(Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 6))),
                                         np.array([[False]]), np.zeros((1, 1))) is None

    def test_infeasible_when_fully_decayed(self):
        _, _, decoder = make_model(seed=12)
        mat = Tensor(np.stack([np.zeros(6), np.ones(6)]))
        keep = np.array([[True, True]])
        assert decoder.copy_distribution(Tensor(np.zeros((1, 6))), mat, keep,
                                         np.ones((1, 2))) is None

    def test_no_mask_no_decay_equals_plain_softmax(self):
        _, encoder, decoder = make_model(use_mask=False, use_decay=False, seed=13)
        tree = parse_sql("SELECT col FROM t WHERE a = 'v'")
        _, out = run_step(encoder, decoder, tree)
        scores = encoder.encode(tree).hidden.data @ out.attn_vector.data[0]
        keep = decoder.copy_keep_mask(tree)
        # token-less nodes can never be copied even unmasked
        z = np.exp(scores[keep] - scores[keep].max())
        want = np.zeros(len(tree.nodes))
        want[keep] = z / z.sum()
        assert np.allclose(out.copy_probs.data[0], want, atol=1e-12)


class TestDecay:
    def test_copy_then_halving(self):
        decay = np.zeros(3)
        decay = decay_update(decay, 1, 0.5)
        assert decay.tolist() == [0.0, 1.0, 0.0]
        decay = decay_update(decay, None, 0.5)
        assert decay.tolist() == [0.0, 0.5, 0.0]
        decay = decay_update(decay, None, 0.5)
        assert decay.tolist() == [0.0, 0.25, 0.0]

    def test_never_copied_stays_zero(self):
        decay = np.zeros(4)
        for _ in range(10):
            decay = decay_update(decay, None, 0.9)
        assert np.array_equal(decay, np.zeros(4))

    def test_two_nodes_copied_in_sequence(self):
        decay = np.zeros(2)
        decay = decay_update(decay, 0, 0.5)   # step 1 copies node 0
        decay = decay_update(decay, 1, 0.5)   # step 2 copies node 1
        decay = decay_update(decay, None, 0.5)  # step 3
        assert decay.tolist() == [0.25, 0.5]

    @pytest.mark.parametrize("flags", [{}, {"use_decay": False}, {"generate_only": True}],
                             ids=["decay", "no_decay", "generate_only"])
    def test_rows_equal_chained_updates(self, flags):
        _, _, decoder = make_model(decay_factor=0.3, **flags)
        resets = [[2], [], [0, 3], [], [], [1], [1]]
        rows = decoder.decay_rows(resets, 4)
        assert rows.shape == (len(resets) + 1, 4)
        decay = np.zeros(4)
        assert rows[0].tobytes() == decay.tobytes()
        for t, nodes in enumerate(resets):
            if flags:
                assert not rows[t + 1].any()
                continue
            decay = decay_update(decay, nodes[0] if nodes else None, 0.3)
            decay[nodes] = 1.0
            assert rows[t + 1].tobytes() == decay.tobytes()

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            decay_update(np.zeros(1), None, 1.0)
        with pytest.raises(ValueError):
            DecoderConfig(hidden_size=4, decay_factor=0.0)


class TestGreedy:
    def test_emitted_tokens_come_from_action_space(self):
        rng = np.random.default_rng(21)
        _, encoder, decoder = make_model(seed=21)
        for _ in range(10):
            tree = random_tree(rng)
            enc = encoder.encode(tree)
            tokens = decoder.decode_greedy(enc, tree, max_len=8)
            keep = decoder.copy_keep_mask(tree)
            allowed = set(decoder.vocab.id_to_token)
            for i in np.flatnonzero(keep):
                allowed.update(t.lower() for t in tree.node(i).tokens)
            assert all(t in allowed for t in tokens)

    def test_deterministic(self):
        _, encoder, decoder = make_model(seed=22)
        tree = random_tree(np.random.default_rng(1))
        enc = encoder.encode(tree)
        assert decoder.decode_greedy(enc, tree) == decoder.decode_greedy(enc, tree)

    def test_forced_eos_gives_empty_output(self):
        store, encoder, decoder = make_model(seed=23)
        tree = random_tree(np.random.default_rng(2))
        enc = encoder.encode(tree)
        decoder.decode_greedy(enc, tree, max_len=2)  # materialize params
        wg = decoder.gen_w
        wg.data[...] = 0.0
        wg.data[EOS, :] = 50.0
        ws = decoder.op_w
        ws.data[...] = 0.0
        ws.data[OP_GEN, :] = 50.0  # generation operation dominates
        assert decoder.decode_greedy(enc, tree) == []

    def test_trace_records_every_step(self):
        _, encoder, decoder = make_model(seed=24)
        tree = random_tree(np.random.default_rng(3))
        enc = encoder.encode(tree)
        trace = []
        tokens = decoder.decode_greedy(enc, tree, max_len=5, trace=trace)
        assert 1 <= len(trace) <= 5
        for entry in trace:
            assert set(entry) >= {"step", "attention", "op_probs", "action",
                                  "emitted", "decay"}

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_max_len_below_one_rejected(self, max_len):
        _, encoder, decoder = make_model(seed=26)
        tree = random_tree(np.random.default_rng(5))
        enc = encoder.encode(tree)
        with pytest.raises(ValueError, match="max_len"):
            decoder.decode_greedy(enc, tree, max_len=max_len)
        with pytest.raises(ValueError, match="max_len"):
            decoder.decode_sample(enc, tree, np.random.default_rng(0), max_len=max_len)
        with pytest.raises(ValueError, match="max_len"):
            DecoderConfig(hidden_size=4, max_len=max_len)

    def test_generate_only_never_copies(self):
        _, encoder, decoder = make_model(seed=25, generate_only=True)
        tree = random_tree(np.random.default_rng(4))
        enc = encoder.encode(tree)
        trace = []
        decoder.decode_greedy(enc, tree, max_len=6, trace=trace)
        assert all(e["action"] == "generate" for e in trace)


class TestSampling:
    def test_seeded_determinism(self):
        _, encoder, decoder = make_model(seed=30)
        tree = random_tree(np.random.default_rng(5))
        enc = encoder.encode(tree)
        a = decoder.decode_sample(enc, tree, np.random.default_rng(77))
        b = decoder.decode_sample(enc, tree, np.random.default_rng(77))
        assert a.tokens == b.tokens
        assert [(s.action, s.choice) for s in a.steps] == \
            [(s.action, s.choice) for s in b.steps]

    def test_gumbel_matches_two_way_frequencies(self):
        from treecomment.decoder import _gumbel_pick
        rng = np.random.default_rng(123)
        probs = np.array([0.7, 0.3])
        n = 100_000
        hits = sum(_gumbel_pick(probs, rng) == 0 for _ in range(n))
        assert abs(hits / n - 0.7) < 0.01

    def test_gumbel_never_picks_zero_probability(self):
        from treecomment.decoder import _gumbel_pick
        rng = np.random.default_rng(9)
        probs = np.array([0.0, 1e-9, 1.0 - 1e-9])
        assert all(_gumbel_pick(probs, rng) != 0 for _ in range(2000))

    def test_logprob_sum_equals_rescored_joint(self):
        rng = np.random.default_rng(6)
        _, encoder, decoder = make_model(seed=31)
        for trial in range(10):
            tree = random_tree(rng)
            enc = encoder.encode(tree)
            traj = decoder.decode_sample(enc, tree, np.random.default_rng(trial))
            lo, lw = decoder.score_trajectory(encoder.encode_forest([tree]), [traj])
            total = float(lo.data.sum() + lw.data.sum())
            assert abs(total - sum(s.logp_op + s.logp_word for s in traj.steps)) < 1e-9

    def test_rescoring_is_bitwise_consistent_per_step(self):
        _, encoder, decoder = make_model(seed=32)
        tree = random_tree(np.random.default_rng(7))
        enc = encoder.encode(tree)
        traj = decoder.decode_sample(enc, tree, np.random.default_rng(0))
        lo, lw = decoder.score_trajectory(encoder.encode_forest([tree]), [traj])
        assert lo.shape == lw.shape == (len(traj.steps),)
        for rec, op, word in zip(traj.steps, lo.data, lw.data):
            assert abs(rec.logp_op - op) <= 1e-12
            assert abs(rec.logp_word - word) <= 1e-12

    def test_records_no_op_outside_no_grad(self, monkeypatch):
        _, encoder, decoder = make_model(seed=34)
        tree = parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        enc = encoder.encode(tree)
        made = []
        result = ad._result
        monkeypatch.setattr(ad, "_result", lambda *a, **k: made.append(result(*a, **k)) or made[-1])
        for seed in range(5):
            decoder.decode_sample(enc, tree, np.random.default_rng(seed))
        assert made and all(t._backward is None and not t.requires_grad for t in made)

    def test_copy_steps_emit_full_surfaces(self):
        _, encoder, decoder = make_model(seed=33)
        tree = parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        enc = encoder.encode(tree)
        for seed in range(30):
            traj = decoder.decode_sample(enc, tree, np.random.default_rng(seed))
            for s in traj.steps:
                if s.action == OP_COPY:
                    node = tree.node(s.choice)
                    assert s.tokens == tuple(t.lower() for t in node.tokens)


class TestStepTape:
    def test_pass_records_seventeen_ops_plus_one_for_damping(self, monkeypatch):
        # reads of the node blocks, the roots and the embeddings 3, the LSTM
        # and its rows 2, attention 6, two heads 2 each, copy scores and
        # masked softmax 2, and damping 1 when a node decays, however many
        # steps the sequence has
        _, encoder, decoder = make_model(seed=27)
        tree = parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        forest = encoder.encode_forest([tree])
        keep = decoder.copy_keep_mask(tree)
        calls = []
        result = ad._result
        monkeypatch.setattr(ad, "_result", lambda *a, **k: calls.append(1) or result(*a, **k))
        for steps in (1, 4):
            for decay, ops in ((np.zeros(len(tree)), 17), (np.where(keep, 0.5, 0.0), 18)):
                calls.clear()
                decoder.teacher_forced(forest, [KnownSequence(0, [BOS] * steps,
                                                              np.tile(decay, (steps, 1)))])
                assert len(calls) == ops


class TestGradientProbe:
    def test_decoder_probe_checks_every_parameter(self, monkeypatch):
        # the encoder makes its gate weights on its first encode, so the
        # probe must run once before it picks the tensors to perturb
        checked = {}

        def record(loss, params, **kwargs):
            checked.update(params)
            return 0.0

        monkeypatch.setattr(checks, "finite_difference_check", record)
        checks.decoder_step_check(seed=0)
        _, encoder, decoder = checks._toy_model(0)
        example_tree = parse_sql(checks.GOLDEN_SQL)
        decoder.teacher_forced(encoder.encode_forest([example_tree]),
                               [KnownSequence(0, [1], np.zeros((1, len(example_tree))))])
        names = {name for name, _ in encoder.store.items()}
        assert any(name.startswith("enc.f.U") for name in names)
        assert set(checked) == names


class TestTeacherForced:
    """``teacher_forced`` runs the heads once over all positions; row t must
    equal the oracle's step t from the same fed token and decay row, and the
    gradients through both must agree."""

    @staticmethod
    def trees(rng):
        yield parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        # nothing copyable under the grammar mask; with the mask off the
        # comparison operator is
        yield TokenTypeTree(nodes=(Node(0, "stmt", (), (1,)), Node(1, "cmp_op", ("=",), ())),
                            grammar="wikisql")
        for _ in range(6):
            yield random_tree(rng)

    @staticmethod
    def inputs(rng, decoder, tree):
        steps = int(rng.integers(1, 6))
        prev_ids = [BOS] + [int(i) for i in rng.integers(len(decoder.vocab), size=steps - 1)]
        decay = rng.choice([0.0, 0.0, 0.25, 0.5], size=(steps, len(tree)))
        decay[0] = 0.0
        decay[steps // 2] = 1.0  # every node fully decayed: copying infeasible
        return prev_ids, decay

    @pytest.mark.parametrize("flags", [{}, {"generate_only": True}, {"use_mask": False},
                                       {"use_decay": False}, {"untyped": True}],
                             ids=["default", "generate_only", "no_mask", "no_decay",
                                  "untyped"])
    def test_rows_equal_steps(self, flags):
        rng = np.random.default_rng(61)
        store, encoder, decoder = make_model(seed=61, **flags)
        seen = {"infeasible": 0, "feasible": 0}
        for tree in self.trees(rng):
            prev_ids, decay = self.inputs(rng, decoder, tree)
            weights = {name: rng.normal(size=(len(prev_ids), n))
                       for name, n in (("attn_weights", len(tree)), ("attn_vector", 6),
                                       ("op_probs", 2), ("gen_probs", len(decoder.vocab)),
                                       ("copy_probs", len(tree)))}

            store.zero_grads()
            forced = decoder.teacher_forced(encoder.encode_forest([tree]),
                                            [KnownSequence(0, prev_ids, decay)])
            self.probe([(name, getattr(forced, name), w) for name, w in weights.items()
                        if getattr(forced, name) is not None]).backward()
            forced_grads = {name: p.grad.copy() for name, p in store.items()}

            store.zero_grads()
            oracle = StepOracle(decoder, encoder.encode(tree), tree)
            terms = []
            for t, prev in enumerate(prev_ids):
                oracle.decay = decay[t:t + 1]
                out = oracle.step(prev)
                for name, w in weights.items():
                    got, want = getattr(forced, name), getattr(out, name)
                    if name == "copy_probs" and got is not None and want is None:
                        # an infeasible row of the forced output is all zero
                        assert np.array_equal(got.data[t], np.zeros(len(tree)))
                        seen["infeasible"] += 1
                        continue
                    if want is None:
                        assert got is None, name
                        continue
                    assert np.allclose(got.data[t], want.data[0], rtol=0.0, atol=1e-12), name
                    seen["feasible"] += name == "copy_probs"
                    terms.append((name, want, w[t:t + 1]))
            self.probe(terms).backward()
            for name, p in store.items():
                assert np.allclose(forced_grads[name], p.grad, rtol=0.0, atol=1e-12), name
        if not (flags.get("generate_only") or flags.get("use_decay") is False):
            assert seen["infeasible"] and seen["feasible"]

    @staticmethod
    def probe(terms):
        total = None
        for _, tensor, w in terms:
            term = ad.sumall(ad.mul(tensor, Tensor(w)))
            total = term if total is None else ad.add(total, term)
        return total


class TestScoreTrajectory:
    """``score_trajectory`` scores a decoded trajectory in one teacher-forced
    pass; it must equal the oracle's step-by-step replay in value and in
    parameter gradients, and the replay must reproduce the floats decoding
    recorded."""

    @staticmethod
    def trees(rng):
        yield parse_sql("SELECT col FROM t WHERE a = 'Two Words'")  # a two-token copy
        yield parse_sql("SELECT col FROM t")  # one copyable node: a copy decays it fully
        # nothing copyable under the grammar mask; with the mask off one node is
        yield TokenTypeTree(nodes=(Node(0, "stmt", (), (1,)), Node(1, "cmp_op", ("=",), ())),
                            grammar="wikisql")
        for _ in range(3):
            yield random_tree(rng)

    @pytest.mark.parametrize("flags", [{}, {"generate_only": True}, {"use_mask": False},
                                       {"use_decay": False}, {"untyped": True}],
                             ids=["default", "generate_only", "no_mask", "no_decay",
                                  "untyped"])
    def test_equals_step_replay(self, flags):
        rng = np.random.default_rng(71)
        store, encoder, decoder = make_model(seed=71, **flags)
        seen = dict.fromkeys(("long_copy", "short_copy", "forced", "chosen", "eos",
                              "truncated"), 0)
        for tree in self.trees(rng):
            for seed in range(12):
                max_len = int(rng.integers(1, 7))
                traj = decoder.decode_sample(encoder.encode(tree), tree,
                                             np.random.default_rng(seed), max_len=max_len)
                steps = traj.steps
                w_op, w_word = rng.normal(size=(2, len(steps)))

                store.zero_grads()
                lo, lw = decoder.score_trajectory(encoder.encode_forest([tree]), [traj])
                ad.add(ad.dot(lo, Tensor(w_op)), ad.dot(lw, Tensor(w_word))).backward()
                scored_grads = {name: p.grad.copy() for name, p in store.items()}

                store.zero_grads()
                pairs = replay_trajectory(decoder, encoder.encode(tree), tree, traj)
                total = None
                for (op, word), a, b in zip(pairs, w_op, w_word):
                    term = ad.add(ad.mul(op, float(a)), ad.mul(word, float(b)))
                    total = term if total is None else ad.add(total, term)
                ad.sumall(total).backward()
                for name, p in store.items():
                    assert np.allclose(scored_grads[name], p.grad, rtol=0.0, atol=1e-12), name

                for t, (rec, (op, word)) in enumerate(zip(steps, pairs)):
                    assert (rec.logp_op, rec.logp_word) == (op.data[0], word.data[0])
                    assert abs(lo.data[t] - op.data[0]) <= 1e-12
                    assert abs(lw.data[t] - word.data[0]) <= 1e-12
                    forced = not op.requires_grad
                    if forced:
                        assert lo.data[t] == 0.0
                    seen["forced"] += forced
                    seen["chosen"] += not forced
                    if rec.action == OP_COPY:
                        seen["long_copy" if len(rec.tokens) > 1 else "short_copy"] += 1
                if steps[-1].action == OP_GEN and steps[-1].choice == EOS:
                    seen["eos"] += 1
                else:
                    assert len(steps) == max_len
                    seen["truncated"] += 1
        expected = {"forced", "eos", "truncated"}
        if not flags.get("generate_only"):
            expected |= {"long_copy", "short_copy", "chosen"}
        assert all(seen[key] for key in expected), seen


FIELDS = ("attn_weights", "attn_vector", "op_probs", "gen_probs", "copy_probs")
FLAGS = [{}, {"generate_only": True}, {"use_mask": False}, {"use_decay": False},
         {"untyped": True}]
FLAG_IDS = ["default", "generate_only", "no_mask", "no_decay", "untyped"]


def assert_close(got, want, rtol=1e-12):
    """Equal up to summation order: within ``rtol`` of the larger entry."""
    scale = max(np.abs(want).max(initial=0.0), np.abs(got).max(initial=0.0), 1e-300)
    assert np.abs(got - want).max(initial=0.0) <= rtol * scale


class TestBatchedPass:
    """One ``teacher_forced`` pass over many sequences, each attending over
    its own padded node block, gives each sequence's rows of a pass over it
    alone, and ``score_trajectory`` of a batch each trajectory's scores."""

    @staticmethod
    def trees(rng):
        return [parse_sql("SELECT col FROM t WHERE a = 'Two Words'"),
                # nothing copyable under the grammar mask
                TokenTypeTree(nodes=(Node(0, "stmt", (), (1,)), Node(1, "cmp_op", ("=",), ())),
                              grammar="wikisql"),
                *(random_tree(rng) for _ in range(4))]

    @pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
    def test_rows_equal_each_sequence_alone(self, flags):
        rng = np.random.default_rng(81)
        _, encoder, decoder = make_model(seed=81, **flags)
        trees = self.trees(rng)
        sequences = []
        for i in [*range(len(trees)), 0, 3]:  # two trees carry two sequences
            prev_ids, decay = TestTeacherForced.inputs(rng, decoder, trees[i])
            sequences.append(KnownSequence(i, prev_ids, decay))
        batch = decoder.teacher_forced(encoder.encode_forest(trees), sequences)
        width = max(len(s.prev_ids) for s in sequences)
        for g, seq in enumerate(sequences):
            n, steps = len(trees[seq.tree]), len(seq.prev_ids)
            alone = decoder.teacher_forced(encoder.encode_forest([trees[seq.tree]]),
                                           [KnownSequence(0, seq.prev_ids, seq.decay)])
            rows = slice(g * width, g * width + steps)
            for name in FIELDS:
                got, want = getattr(batch, name), getattr(alone, name)
                if want is None:
                    assert got is None or not got.data[rows].any(), name
                    continue
                got = got.data[rows]
                if name in ("attn_weights", "copy_probs"):  # padded columns hold 0
                    assert not got[:, n:].any(), name
                    got = got[:, :n]
                assert_close(got, want.data)

    @pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
    def test_scores_equal_each_trajectory_alone(self, flags):
        rng = np.random.default_rng(82)
        store, encoder, decoder = make_model(seed=82, **flags)
        trees = self.trees(rng)
        trajectories = [decoder.decode_sample(encoder.encode(tree), tree,
                                              np.random.default_rng(k), max_len=int(k % 5) + 1)
                        for k, tree in enumerate(trees)]
        # one ends at max_len
        assert any((t.steps[-1].action, t.steps[-1].choice) != (OP_GEN, EOS) for t in trajectories)
        weights = [rng.normal(size=(2, len(t.steps))) for t in trajectories]

        store.zero_grads()
        lo, lw = decoder.score_trajectory(encoder.encode_forest(trees), trajectories)
        w_op, w_word = np.concatenate(weights, axis=1)
        ad.add(ad.dot(lo, Tensor(w_op)), ad.dot(lw, Tensor(w_word))).backward()
        batch_grads = {name: p.grad.copy() for name, p in store.items()}

        store.zero_grads()
        start = 0
        for tree, traj, (a, b) in zip(trees, trajectories, weights):
            one_op, one_word = decoder.score_trajectory(encoder.encode_forest([tree]), [traj])
            steps = slice(start, start + len(traj.steps))
            assert_close(lo.data[steps], one_op.data)
            assert_close(lw.data[steps], one_word.data)
            ad.add(ad.dot(one_op, Tensor(a)), ad.dot(one_word, Tensor(b))).backward()
            start += len(traj.steps)
        assert start == len(lo.data)
        for name, p in store.items():
            assert_close(batch_grads[name], p.grad, rtol=1e-10)


class TestLockstep:
    """``decode_greedy_batch`` decodes a chunk of trees in lockstep over one
    node matrix; each row must decode as its tree does alone."""

    FLAGS = [{}, {"generate_only": True}, {"use_mask": False}, {"use_decay": False},
             {"untyped": True}]
    IDS = ["default", "generate_only", "no_mask", "no_decay", "untyped"]

    @staticmethod
    def chunk(rng):
        nothing = TokenTypeTree(nodes=(Node(0, "stmt", (), (1,)), Node(1, "cmp_op", ("=",), ())),
                                grammar="wikisql")  # nothing copyable under the mask
        return [parse_sql("SELECT col FROM t WHERE a = 'Two Words'"), nothing] + \
            [random_tree(rng) for _ in range(10)]

    @staticmethod
    def model(flags):
        _, encoder, decoder = make_model(seed=0, **flags)
        # a random end-of-sequence row, so rows end at different steps
        decoder.gen_w.data[EOS] = 2.0 * np.random.default_rng(50).normal(
            size=decoder.gen_w.data.shape[1])
        return encoder, decoder

    @pytest.mark.parametrize("flags", FLAGS, ids=IDS)
    def test_chunk_equals_single_trees(self, flags):
        encoder, decoder = self.model(flags)
        trees = self.chunk(np.random.default_rng(0))
        encoded = list(zip(encoder.encode_batch(trees), trees))
        traces = [[] for _ in trees]
        outputs = decoder.decode_greedy_batch(encoded, max_len=8, traces=traces)
        ends = set()
        for (enc, tree), tokens, trace in zip(encoded, outputs, traces):
            alone = []
            assert tokens == decoder.decode_greedy(enc, tree, max_len=8, trace=alone)
            assert len(trace) == len(alone)
            for got, want in zip(trace, alone):
                assert {k: got[k] for k in ("step", "action", "node", "word", "emitted")} \
                    == {k: want[k] for k in ("step", "action", "node", "word", "emitted")}
                for key in ("attention", "decay", "op_probs"):
                    if want[key] is None:
                        assert got[key] is None
                    else:
                        assert len(got[key]) == len(want[key]) == \
                            (2 if key == "op_probs" else len(tree))
                        assert np.allclose(got[key], want[key], rtol=0.0, atol=1e-12), key
            last = trace[-1]
            ends.add(last["step"] if last["word"] == EOS and last["action"] == "generate"
                     else "max_len")
        assert "max_len" in ends and len(ends) >= 3  # two EOS steps, and truncation
        copies = sum(e["action"] == "copy" for trace in traces for e in trace)
        assert (copies == 0) == bool(flags.get("generate_only"))
        # the tree with nothing copyable generates at every step
        assert all(e["action"] == "generate" for e in traces[1]) or flags.get("use_mask") is False

    def test_one_tree_reproduces_single_steps_exactly(self):
        # a chunk of one tree gives the oracle's floats bit for bit
        encoder, decoder = self.model({})
        for tree in self.chunk(np.random.default_rng(1)):
            enc = encoder.encode(tree)
            trace = []
            decoder.decode_greedy(enc, tree, max_len=8, trace=trace)
            oracle = StepOracle(decoder, enc, tree)
            prev = BOS
            for entry in trace:
                with ad.no_grad():
                    out = oracle.step(prev)
                assert entry["op_probs"] == [float(p) for p in out.op_probs.data[0]]
                assert entry["decay"] == [round(float(x), 6) for x in oracle.decay[0]]
                if entry["emitted"]:
                    prev = decoder.vocab.id_of(entry["emitted"][-1])
                oracle.advance(entry["node"])

    def test_empty_chunk_and_max_len(self):
        encoder, decoder = self.model({})
        assert decoder.decode_greedy_batch([]) == []
        tree = parse_sql("SELECT col FROM t")
        with pytest.raises(ValueError, match="max_len"):
            decoder.decode_greedy_batch([(encoder.encode(tree), tree)], max_len=0)


def reference_sample(decoder, enc, tree, rng, max_len):
    """A lone tree sampled as it always has been, one oracle step at a
    time: where copying is feasible the operation draws ``rng.gumbel`` over
    its 2 entries, then the word or node draws it over its distribution.
    Each step is (action, choice, log p(op), log p(word))."""
    oracle = StepOracle(decoder, enc, tree)
    prev, steps = BOS, []

    def draw(probs):
        with np.errstate(divide="ignore"):
            return int(np.argmax(np.log(probs) + rng.gumbel(size=probs.shape)))

    with ad.no_grad():
        for _ in range(max_len):
            out = oracle.step(prev)
            if out.copy_probs is not None and out.copy_probs.data[0].any():
                op = draw(out.op_probs.data[0])
                logp_op = float(np.log(out.op_probs.data[0, op]))
            else:
                op, logp_op = OP_GEN, 0.0
            probs = (out.copy_probs if op == OP_COPY else out.gen_probs).data[0]
            choice = draw(probs)
            steps.append((op, choice, logp_op, float(np.log(probs[choice]))))
            if op == OP_GEN and choice == EOS:
                break
            tokens = tree.node(choice).tokens if op == OP_COPY \
                else (decoder.vocab.token_of(choice),)
            prev = decoder.vocab.id_of(tokens[-1].lower())
            oracle.advance(choice if op == OP_COPY else None)
    return steps


def hex_steps(trajectory):
    return [(s.action, s.choice, s.tokens, s.logp_op.hex(), s.logp_word.hex())
            for s in trajectory.steps]


class TestLockstepSampling:
    """``decode_sample_batch`` samples a chunk of trees in lockstep from one
    generator, one Gumbel draw per stage over the rows that reach it. A
    chunk of one tree draws exactly what a lone tree always drew; in a
    larger chunk each row is still a draw from its own tree's
    distributions, and records what ``score_trajectory`` scores."""

    @staticmethod
    def chunk():
        nothing = TokenTypeTree(nodes=(Node(0, "stmt", (), (1,)), Node(1, "cmp_op", ("=",), ())),
                                grammar="wikisql")  # nothing copyable under the mask
        return [parse_sql("SELECT col FROM t WHERE a = 'Two Words'"), nothing,
                random_tree(np.random.default_rng(3))]

    @pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
    def test_one_pair_equals_decode_sample_and_the_lone_tree_draws(self, flags):
        encoder, decoder = TestLockstep.model(flags)
        trees = self.chunk() + TestLockstep.chunk(np.random.default_rng(2))[2:]
        for k, tree in enumerate(trees):
            enc = encoder.encode(tree)
            max_len = k % 6 + 1
            batch = decoder.decode_sample_batch([(enc, tree)], np.random.default_rng(k), max_len)
            alone = decoder.decode_sample(enc, tree, np.random.default_rng(k), max_len)
            assert len(batch) == 1 and hex_steps(batch[0]) == hex_steps(alone)
            assert batch[0].tokens == alone.tokens
            want = reference_sample(decoder, enc, tree, np.random.default_rng(k), max_len)
            assert [(s.action, s.choice, s.logp_op.hex(), s.logp_word.hex())
                    for s in alone.steps] == \
                [(op, choice, lo.hex(), lw.hex()) for op, choice, lo, lw in want]

    @pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
    def test_chunk_records_what_score_trajectory_scores(self, flags):
        encoder, decoder = TestLockstep.model(flags)
        trees = self.chunk()
        encoded = list(zip(encoder.encode_batch(trees), trees))
        forest = encoder.encode_forest(trees)
        rng = np.random.default_rng(60)
        seen = {"staggered": 0, "truncated": 0, "copies": 0}
        for _ in range(12):
            trajectories = decoder.decode_sample_batch(encoded, rng, max_len=5)
            lo, lw = decoder.score_trajectory(forest, trajectories)
            steps = [s for t in trajectories for s in t.steps]
            assert len(lo.data) == len(steps)
            assert np.abs(lo.data - [s.logp_op for s in steps]).max() <= 1e-12
            assert np.abs(lw.data - [s.logp_word for s in steps]).max() <= 1e-12
            ends = {len(t.steps) for t in trajectories
                    if (t.steps[-1].action, t.steps[-1].choice) == (OP_GEN, EOS)}
            seen["staggered"] += len(ends) >= 2
            seen["truncated"] += any(len(t.steps) == 5 and t.steps[-1].choice != EOS
                                     for t in trajectories)
            seen["copies"] += sum(s.action == OP_COPY for s in steps)
            if flags.get("use_mask", True):  # the second tree can never copy
                assert all(s.action == OP_GEN and s.logp_op == 0.0
                           for s in trajectories[1].steps)
        assert seen["staggered"] and seen["truncated"], seen
        assert (seen["copies"] == 0) == bool(flags.get("generate_only")), seen

    @pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
    def test_draws_one_matrix_per_stage(self, flags):
        # per step: the operations of the rows that may copy, then the words
        # of the generating rows, then the nodes of the copying rows over
        # every column of the chunk
        encoder, decoder = TestLockstep.model(flags)
        trees = self.chunk()
        encoded = list(zip(encoder.encode_batch(trees), trees))
        shapes, rng = [], np.random.default_rng(64)

        class Recording:
            def gumbel(self, size):
                shapes.append(size)
                return rng.gumbel(size=size)

        mixed = 0  # steps where some rows generate and others copy
        for _ in range(10):
            shapes.clear()
            trajectories = decoder.decode_sample_batch(encoded, Recording(), max_len=5)
            want = []
            for t in range(5):
                steps = [traj.steps[t] for traj in trajectories if len(traj.steps) > t]
                chose = sum(s.logp_op != 0.0 for s in steps)
                gen = sum(s.action == OP_GEN for s in steps)
                want += [(chose, 2)] if chose else []
                want += [(gen, len(decoder.vocab))] if gen else []
                want += [(len(steps) - gen, sum(map(len, trees)))] if gen < len(steps) else []
                mixed += 0 < gen < len(steps)
            assert shapes == want
        assert (mixed == 0) == bool(flags.get("generate_only"))

    @pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
    def test_first_step_frequencies_match_each_lone_tree(self, flags):
        encoder, decoder = TestLockstep.model(flags)
        trees = self.chunk()
        encoded = list(zip(encoder.encode_batch(trees), trees))
        draws = 3000
        counts = [{} for _ in trees]
        rng = np.random.default_rng(61)
        for _ in range(draws):
            for count, trajectory in zip(counts, decoder.decode_sample_batch(encoded, rng, 1)):
                step = trajectory.steps[0]
                count[step.action, step.choice] = count.get((step.action, step.choice), 0) + 1
        for (enc, tree), count in zip(encoded, counts):
            with ad.no_grad():
                out = StepOracle(decoder, enc, tree).step(BOS)
            gen = out.gen_probs.data[0]
            if out.copy_probs is None or not out.copy_probs.data[0].any():
                p_op, copy = {OP_GEN: 1.0}, np.zeros(len(tree))
            else:
                p_op = dict(enumerate(out.op_probs.data[0]))
                copy = out.copy_probs.data[0]
            outcomes = {(OP_GEN, w): p_op[OP_GEN] * p for w, p in enumerate(gen)}
            outcomes.update({(OP_COPY, n): p_op.get(OP_COPY, 0.0) * p
                             for n, p in enumerate(copy)})
            assert set(count) <= {key for key, p in outcomes.items() if p > 0.0}
            # the operation, then each word and node
            ops = {op: sum(p for (o, _), p in outcomes.items() if o == op) for op in p_op}
            freqs = [(sum(c for (o, _), c in count.items() if o == op), p)
                     for op, p in ops.items()]
            freqs += [(count.get(key, 0), p) for key, p in outcomes.items()]
            for hits, p in freqs:
                se = np.sqrt(p * (1.0 - p) / draws)
                assert abs(hits / draws - p) <= 4.0 * se + 1e-12, (hits, p)

    def test_training_batch_samples_one_rollout_per_chunk(self, monkeypatch):
        from treecomment.corpus import Example
        from treecomment.training import EVAL_BATCH, _objective, reward_function
        encoder, decoder = TestLockstep.model({})
        rng = np.random.default_rng(62)
        examples = [Example(tree=random_tree(rng), comment=("alpha",))
                    for _ in range(EVAL_BATCH + 1)]
        chunks, rollout = [], decoder._rollout

        def counted(encoded, *args, **kwargs):
            chunks.append(rollout(encoded, *args, **kwargs))
            return chunks[-1]

        monkeypatch.setattr(decoder, "_rollout", counted)
        _, parts = _objective(examples, encoder, decoder, None, 0.5, np.random.default_rng(63),
                              reward_function("bleu4"))
        assert [len(chunk) for chunk in chunks] == [EVAL_BATCH, 1]
        # the chunks draw from one generator, in turn
        monkeypatch.undo()
        forest = encoder.encode_forest([ex.tree for ex in examples])
        encoded = [(forest.output(i), ex.tree) for i, ex in enumerate(examples)]
        rng = np.random.default_rng(63)
        want = decoder.decode_sample_batch(encoded[:-1], rng) + \
            decoder.decode_sample_batch(encoded[-1:], rng)
        assert [hex_steps(t) for chunk in chunks for t in chunk] == [hex_steps(t) for t in want]
        steps = [s for t in want for s in t.steps]
        assert parts["copy_rate"] == sum(s.action == OP_COPY for s in steps) / len(steps)

    def test_empty_inputs(self):
        encoder, decoder = TestLockstep.model({})
        tree = parse_sql("SELECT col FROM t")
        assert decoder.decode_sample_batch([], np.random.default_rng(0)) == []
        forest = encoder.encode_forest([tree])
        for call in (lambda: decoder.score_trajectory(forest, []),
                     lambda: decoder.teacher_forced(forest, [])):
            with pytest.raises(ValueError, match="empty batch"):
                call()
