import numpy as np
import pytest
from conftest import make_model, random_tree

from treecomment import autodiff as ad
from treecomment.autodiff import Tensor
from treecomment.corpus import BOS, EOS
from treecomment.decoder import OP_COPY, OP_GEN, DecoderConfig, decay_update
from treecomment.parsers import parse_sql
from treecomment.trees import Node, TokenTypeTree


def encoded(encoder, tree):
    out = encoder.encode(tree)
    return out, out.hidden


def replay_trajectory(decoder, enc, tree, traj):
    """Traced (log p(op), log p(word)) of each step of a decoded trajectory,
    fed and decayed one ``step`` at a time as decoding does: the reference
    for ``score_trajectory``."""
    keep = decoder.copy_keep_mask(tree)
    state = decoder.initial_state(enc, tree)
    prev = BOS
    pairs = []
    for rec in traj.steps:
        state, out = decoder.step(state, enc.hidden, keep, prev)
        op = Tensor(np.asarray(0.0)) if out.copy_probs is None \
            else ad.log(ad.at(out.op_probs, rec.action))
        probs = out.copy_probs if rec.action == OP_COPY else out.gen_probs
        pairs.append((op, ad.log(ad.at(probs, rec.choice))))
        if rec.tokens:
            prev = decoder.vocab.id_of(rec.tokens[-1])
        decoder._advance_decay(state, rec.choice if rec.action == OP_COPY else None)
    return pairs


def run_step(encoder, decoder, tree, decay=None, prev=1):
    enc, mat = encoded(encoder, tree)
    keep = decoder.copy_keep_mask(tree)
    state = decoder.initial_state(enc, tree)
    if decay is not None:
        state.decay = decay
    return decoder.step(state, mat, keep, prev)


class TestRecurrence:
    def test_zero_weights_zero_hidden(self):
        store, encoder, decoder = make_model()
        tree = random_tree(np.random.default_rng(0))
        run_step(encoder, decoder, tree)  # materialize
        for name, p in store.items():
            if name.startswith("dec.lstm") or name == "dec.embed":
                p.data[...] = 0.0
        h, c = decoder.recurrence(Tensor(np.zeros(6)), Tensor(np.zeros(6)), 1)
        assert np.array_equal(h.data, np.zeros(6))
        assert np.array_equal(c.data, np.zeros(6))

    def test_deterministic(self):
        _, encoder, decoder = make_model(seed=3)
        h0, c0 = Tensor(np.linspace(-1, 1, 6)), Tensor(np.zeros(6))
        a = decoder.recurrence(h0, c0, 4)[0].data
        b = decoder.recurrence(h0, c0, 4)[0].data
        assert np.array_equal(a, b)

    def test_matches_hand_rolled_lstm_cell(self):
        store, _, decoder = make_model(seed=5)
        h0 = np.linspace(-0.5, 0.5, 6)
        x_id = 5
        h, c = decoder.recurrence(Tensor(h0), Tensor(np.zeros(6)), x_id)
        x = store["dec.embed"].data[x_id]

        def gate(g):
            return store[f"dec.lstm.W[{g}]"].data @ x + \
                store[f"dec.lstm.U[{g}]"].data @ h0 + store[f"dec.lstm.b[{g}]"].data

        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        cell = sig(gate("f")) * 0.0 + sig(gate("i")) * np.tanh(gate("u"))
        want_h = sig(gate("o")) * np.tanh(cell)
        assert np.max(np.abs(c.data - cell)) < 1e-12
        assert np.max(np.abs(h.data - want_h)) < 1e-12


class TestAttention:
    def test_single_node_gets_full_weight(self):
        _, encoder, decoder = make_model()
        tree = TokenTypeTree(nodes=(Node(0, "string", ("alpha",), ()),),
                             grammar="wikisql")
        _, out = run_step(encoder, decoder, tree)
        assert out.attn_weights.data.tolist() == [1.0]

    def test_identical_states_uniform_weights(self):
        _, _, decoder = make_model(seed=2)
        row = np.linspace(-0.2, 0.4, 6)
        mat = ad.stack_rows([Tensor(row) for _ in range(4)])
        weights, _ = decoder.attend(Tensor(np.ones(6) * 0.3), mat)
        assert np.allclose(weights.data, 0.25, atol=1e-12)

    def test_zero_projection_gives_zero_vector(self):
        store, _, decoder = make_model(seed=2)
        decoder.attn_w.data[...] = 0.0
        mat = ad.stack_rows([Tensor(np.ones(6)), Tensor(np.zeros(6))])
        _, vector = decoder.attend(Tensor(np.ones(6)), mat)
        assert np.array_equal(vector.data, np.zeros(6))


class TestOperationAndGeneration:
    def test_zero_head_is_uniform(self):
        _, _, decoder = make_model(seed=4)
        decoder.op_w.data[...] = 0.0
        probs = decoder.operation_distribution(Tensor(np.ones(6)))
        assert np.allclose(probs.data, [0.5, 0.5], atol=1e-15)

    def test_dominant_logit_wins(self):
        _, _, decoder = make_model(seed=4)
        w = decoder.op_w
        w.data[...] = 0.0
        w.data[OP_COPY, :] = 10.0
        probs = decoder.operation_distribution(Tensor(np.ones(6) / 6))
        assert probs.data[OP_COPY] > 0.9999

    def test_distributions_normalize(self):
        rng = np.random.default_rng(8)
        _, encoder, decoder = make_model(seed=8)
        for _ in range(20):
            tree = random_tree(rng)
            _, out = run_step(encoder, decoder, tree)
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
            assert np.all(out.copy_probs.data[~keep] == 0.0)
            assert abs(out.copy_probs.data.sum() - 1.0) < 1e-9

    def test_fully_decayed_node_probability_exactly_zero(self):
        _, encoder, decoder = make_model(seed=10)
        tree = parse_sql("SELECT col FROM t WHERE a = 'u v'")
        keep = decoder.copy_keep_mask(tree)
        target = int(np.flatnonzero(keep)[0])
        decay = np.zeros(len(tree))
        decay[target] = 1.0
        _, out = run_step(encoder, decoder, tree, decay=decay)
        assert out.copy_probs.data[target] == 0.0
        assert abs(out.copy_probs.data.sum() - 1.0) < 1e-9

    def test_one_hot_when_single_unmasked(self):
        _, encoder, decoder = make_model(seed=11)
        tree = parse_sql("SELECT col FROM t")  # only the column is copyable
        _, out = run_step(encoder, decoder, tree)
        keep = decoder.copy_keep_mask(tree)
        assert keep.sum() == 1
        assert out.copy_probs.data[int(np.flatnonzero(keep)[0])] == 1.0

    def test_renormalized_damping_hand_case(self):
        # uniform base scores, decay [0.5, 0, 0] -> [0.2, 0.4, 0.4]
        _, _, decoder = make_model(seed=12)
        mat = ad.stack_rows([Tensor(np.zeros(6)) for _ in range(3)])
        keep = np.array([True, True, True])
        probs = decoder.copy_distribution(Tensor(np.zeros(6)), mat, keep,
                                          np.array([0.5, 0.0, 0.0]))
        assert np.allclose(probs.data, [0.2, 0.4, 0.4], atol=1e-12)

    def test_infeasible_when_all_masked(self):
        _, _, decoder = make_model(seed=12)
        mat = ad.stack_rows([Tensor(np.zeros(6))])
        assert decoder.copy_distribution(Tensor(np.zeros(6)), mat,
                                         np.array([False]), np.zeros(1)) is None

    def test_infeasible_when_fully_decayed(self):
        _, _, decoder = make_model(seed=12)
        mat = ad.stack_rows([Tensor(np.zeros(6)), Tensor(np.ones(6))])
        keep = np.array([True, True])
        assert decoder.copy_distribution(Tensor(np.zeros(6)), mat, keep,
                                         np.ones(2)) is None

    def test_no_mask_no_decay_equals_plain_softmax(self):
        _, encoder, decoder = make_model(use_mask=False, use_decay=False, seed=13)
        tree = parse_sql("SELECT col FROM t WHERE a = 'v'")
        enc, mat = encoded(encoder, tree)
        state = decoder.initial_state(enc, tree)
        _, out = decoder.step(state, mat, decoder.copy_keep_mask(tree), 1)
        scores = mat.data @ out.attn_vector.data
        keep = decoder.copy_keep_mask(tree)
        # token-less nodes can never be copied even unmasked
        z = np.exp(scores[keep] - scores[keep].max())
        want = np.zeros(len(tree.nodes))
        want[keep] = z / z.sum()
        assert np.allclose(out.copy_probs.data, want, atol=1e-12)


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
            lo, lw = decoder.score_trajectory(enc, tree, traj)
            total = float(lo.data.sum() + lw.data.sum())
            assert abs(total - traj.logprob()) < 1e-9

    def test_rescoring_is_bitwise_consistent_per_step(self):
        _, encoder, decoder = make_model(seed=32)
        tree = random_tree(np.random.default_rng(7))
        enc = encoder.encode(tree)
        traj = decoder.decode_sample(enc, tree, np.random.default_rng(0))
        lo, lw = decoder.score_trajectory(enc, tree, traj)
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
    def test_step_records_sixteen_ops_plus_one_for_damping(self, monkeypatch):
        # LSTM 4 (rows, lstm, two row reads), attention 6, two heads 2 each,
        # copy scores and masked softmax 2, and damping 1 when a node decays
        _, encoder, decoder = make_model(seed=27)
        tree = parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        enc, mat = encoded(encoder, tree)
        keep = decoder.copy_keep_mask(tree)
        calls = []
        result = ad._result
        monkeypatch.setattr(ad, "_result", lambda *a, **k: calls.append(1) or result(*a, **k))
        for decay, ops in ((np.zeros(len(tree)), 16), (np.where(keep, 0.5, 0.0), 17)):
            state = decoder.initial_state(enc, tree)
            state.decay = decay
            calls.clear()
            decoder.step(state, mat, keep, 1)
            assert len(calls) == ops


class TestTeacherForced:
    """``teacher_forced`` runs the heads once over all positions; row t must
    equal what ``step`` returns at step t from the same fed token and decay
    row, and the gradients through both must agree."""

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
            enc = encoder.encode(tree)
            forced = decoder.teacher_forced(enc, tree, prev_ids, decay)
            self.probe([(name, getattr(forced, name), w) for name, w in weights.items()
                        if getattr(forced, name) is not None]).backward()
            forced_grads = {name: p.grad.copy() for name, p in store.items()}

            store.zero_grads()
            enc = encoder.encode(tree)
            mat = enc.hidden
            keep = decoder.copy_keep_mask(tree)
            state = decoder.initial_state(enc, tree)
            terms = []
            for t, prev in enumerate(prev_ids):
                state.decay = decay[t]
                state, out = decoder.step(state, mat, keep, prev)
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
                    assert np.allclose(got.data[t], want.data, rtol=0.0, atol=1e-12), name
                    seen["feasible"] += name == "copy_probs"
                    terms.append((name, want, w[t]))
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
    pass; it must equal the step-by-step replay in value and in parameter
    gradients, and the replay must reproduce the floats decoding recorded."""

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
                lo, lw = decoder.score_trajectory(encoder.encode(tree), tree, traj)
                ad.add(ad.dot(lo, Tensor(w_op)), ad.dot(lw, Tensor(w_word))).backward()
                scored_grads = {name: p.grad.copy() for name, p in store.items()}

                store.zero_grads()
                pairs = replay_trajectory(decoder, encoder.encode(tree), tree, traj)
                total = None
                for (op, word), a, b in zip(pairs, w_op, w_word):
                    term = ad.add(ad.mul(op, float(a)), ad.mul(word, float(b)))
                    total = term if total is None else ad.add(total, term)
                total.backward()
                for name, p in store.items():
                    assert np.allclose(scored_grads[name], p.grad, rtol=0.0, atol=1e-12), name

                for t, (rec, (op, word)) in enumerate(zip(steps, pairs)):
                    assert (rec.logp_op, rec.logp_word) == (float(op.data), float(word.data))
                    assert abs(lo.data[t] - op.data) <= 1e-12
                    assert abs(lw.data[t] - word.data) <= 1e-12
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
