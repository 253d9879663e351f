"""Acceptance suite: eleven criteria, one test each, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expensive experiment is seeded and deterministic; tolerances are
asserted exactly as stated, never loosened at runtime.
"""

import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import StepOracle, lockstep_state, make_model, random_tree, reference_tree_lstm
from test_metrics import oracle_bleu, oracle_lcs_by_enumeration, random_pair

from treecomment import autodiff as ad
from treecomment import checks, cli, metrics
from treecomment.autodiff import Tensor
from treecomment.corpus import (EOS, build_vocab, examples_from_pairs,
                                generate_synthetic, save_corpus_jsonl)
from treecomment.decoder import (OP_COPY, OP_GEN, DecoderConfig, Trajectory,
                                 TrajectoryStep, TreeDecoder)
from treecomment.encoder import EncoderConfig, TreeEncoder
from treecomment.params import ParamStore
from treecomment.parsers import parse_lambda, parse_sql
from treecomment.trees import Node, TokenTypeTree, get_grammar, tree_to_json
from treecomment.training import (TrainConfig, greedy_candidates, mean_sentence_reward,
                                  quantize_reward, reward_function, shaped_rewards,
                                  step_rewards, token_accuracy, train)

DATA = Path(__file__).parent / "data"


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


# --- shared expensive runs ---------------------------------------------------

@pytest.fixture(scope="module")
def oov_corpus():
    train_ex = examples_from_pairs(
        generate_synthetic(200, seed=21, oov_fraction=0.5), "sql")
    dev_ex = examples_from_pairs(
        generate_synthetic(50, seed=22, oov_fraction=0.5), "sql")
    return train_ex, dev_ex


@pytest.fixture(scope="module")
def full_oov_model(oov_corpus):
    train_ex, dev_ex = oov_corpus
    cfg = TrainConfig(hidden_size=32, total_steps=300, batch_size=32, seed=5,
                      mle_only=True, eval_every=150, max_decode_len=16)
    return train(train_ex, dev_ex, cfg)


def dev_scores(result, dev_ex):
    cands = greedy_candidates(dev_ex, result.encoder, result.decoder)
    refs = [list(ex.comment) for ex in dev_ex]
    return metrics.corpus_eval(cands, refs), cands


# --- criterion 1 -------------------------------------------------------------

def test_c01_gradient_suite():
    start = time.perf_counter()
    errors = checks.gradient_suite(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    report("criterion 1 (gradient suite)",
           worst < 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s "
           + " ".join(f"{k}={v:.1e}" for k, v in errors.items()))


# --- criterion 2 -------------------------------------------------------------

def test_c02_distribution_invariants():
    rng = np.random.default_rng(2024)
    feasible = decayed_checked = 0
    for i in range(1000):
        store, encoder, decoder = make_model(seed=i, hidden_size=4)
        tree = random_tree(rng, max_depth=2, tokenless_ok=False)
        with ad.no_grad():
            enc = encoder.encode(tree)
            keep = decoder.copy_keep_mask(tree)
            decay = rng.uniform(0.0, 1.0, size=len(tree))
            if rng.random() < 0.5:
                decay[int(rng.integers(len(tree)))] = 1.0
            # one row of the lockstep step decoding runs
            state, out = decoder.step(lockstep_state(decoder, enc, tree, decay), enc.hidden,
                                      keep[None], [int(rng.integers(4))])
        assert out.attn_weights.shape == (1, len(tree))
        assert abs(out.attn_weights.data.sum() - 1.0) < 1e-9
        assert np.all(out.attn_weights.data >= 0.0)
        assert abs(out.op_probs.data.sum() - 1.0) < 1e-9
        assert abs(out.gen_probs.data.sum() - 1.0) < 1e-9
        if out.copy_probs is not None:
            p = out.copy_probs.data[0]
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p >= 0.0)
            assert np.all(p[~keep] == 0.0), "masked node got copy probability"
            fully = decay >= 1.0
            assert np.all(p[fully] == 0.0), "fully decayed node got probability"
            feasible += 1
            decayed_checked += int(fully.any())
    report("criterion 2 (distribution invariants)",
           feasible >= 300 and decayed_checked >= 100,
           f"1000 instances, {feasible} feasible copy distributions, "
           f"{decayed_checked} with a fully decayed node")


# --- criterion 3 -------------------------------------------------------------

def test_c03_type_sensitivity():
    rng = np.random.default_rng(7)
    grammar = get_grammar("wikisql")
    types = sorted(grammar.types)
    differing = 0
    for i in range(100):
        store, encoder, _ = make_model(seed=1000 + i, hidden_size=6)
        tree = random_tree(rng, max_depth=2, tokenless_ok=False)
        target = int(rng.integers(len(tree)))
        old = tree.node(target).type
        new = types[(types.index(old) + 1 + int(rng.integers(len(types) - 1)))
                    % len(types)]
        assert new != old
        nodes = list(tree.nodes)
        nodes[target] = Node(target, new, nodes[target].tokens,
                             nodes[target].children)
        variant = TokenTypeTree(nodes=tuple(nodes), grammar=tree.grammar)
        with ad.no_grad():
            a = encoder.encode(tree).root_hidden.data
            b = encoder.encode(variant).root_hidden.data
        if np.linalg.norm(a - b) > 1e-8:
            differing += 1

        # ablation: collapse the type index; the change must become invisible
        store_u, encoder_u, _ = make_model(seed=1000 + i, hidden_size=6,
                                           untyped=True)
        with ad.no_grad():
            ua = encoder_u.encode(tree).root_hidden.data
            ub = encoder_u.encode(variant).root_hidden.data
        assert np.array_equal(ua, ub), "untyped encoder distinguishes types"
        ref = reference_tree_lstm(tree, store_u, encoder_u.vocab, 6)
        assert np.max(np.abs(ua - ref)) < 1e-12, "reference Tree-LSTM mismatch"
    report("criterion 3 (type sensitivity)", differing == 100,
           f"{differing}/100 type-differing pairs changed the root state; "
           "untyped ablation bitwise-identical and within 1e-12 of the "
           "type-blind reference")


# --- criterion 4 -------------------------------------------------------------

def _toy_policy():
    tree = TokenTypeTree(nodes=(Node(0, "string", ("blue",), ()),),
                         grammar="wikisql")
    store = ParamStore(seed=0)
    grammar = get_grammar("wikisql")
    src_vocab = build_vocab([["blue"]], min_freq=1)
    tgt_vocab = build_vocab([["blue", "red"]], min_freq=1)
    encoder = TreeEncoder(store, grammar, src_vocab, EncoderConfig(hidden_size=3))
    decoder = TreeDecoder(store, grammar, tgt_vocab,
                          DecoderConfig(hidden_size=3, decay_factor=0.5, max_len=2))
    return tree, store, encoder, decoder, tgt_vocab


def _enumerate_toy_trajectories(tgt_vocab):
    """Every trajectory the 2-step sampler can produce: each step picks the
    copy of the single node (until fully decayed) or any vocabulary word;
    generating EOS terminates."""
    vocab_size = len(tgt_vocab)
    out = []

    def extend(steps, tokens, node_decayed):
        if len(steps) == 2:
            out.append(Trajectory(steps=list(steps), tokens=list(tokens)))
            return
        if not node_decayed:
            step = TrajectoryStep(OP_COPY, 0, ("blue",), 0.0, 0.0)
            extend(steps + [step], tokens + ["blue"], True)
        for w in range(vocab_size):
            emitted = () if w == EOS else (tgt_vocab.token_of(w),)
            step = TrajectoryStep(OP_GEN, w, emitted, 0.0, 0.0)
            if w == EOS:
                out.append(Trajectory(steps=steps + [step], tokens=list(tokens)))
            else:
                extend(steps + [step], tokens + list(emitted), node_decayed)

    extend([], [], False)
    return out


def _trajectory_probability(encoder, decoder, tree, traj):
    """The traced probability of a trajectory, a (1,) tensor: the product of
    its steps' probabilities, each read off the oracle's step."""
    oracle = StepOracle(decoder, encoder.encode(tree), tree)
    prev = None
    prob = None
    for rec in traj.steps:
        out = oracle.step(decoder._prev_id(prev))
        word = out.copy_probs if rec.action == OP_COPY else out.gen_probs
        factor = ad.pick(word, [0], [rec.choice])
        if out.copy_probs is not None:
            factor = ad.mul(ad.pick(out.op_probs, [0], [rec.action]), factor)
        prob = factor if prob is None else ad.mul(prob, factor)
        if rec.action == OP_GEN and rec.choice == EOS:
            break
        prev = rec.tokens[-1]
        oracle.advance(rec.choice if rec.action == OP_COPY else None)
    return prob


def test_c04_policy_gradient_unbiasedness():
    start = time.perf_counter()
    tree, store, encoder, decoder, tgt_vocab = _toy_policy()
    reference = ("blue", "red")
    metric = reward_function("bleu4")
    enc = encoder.encode(tree)  # materialize parameters

    # exact gradient of E[R] by exhaustive enumeration
    trajectories = _enumerate_toy_trajectories(tgt_vocab)
    store.zero_grads()
    objective = None
    mass = 0.0
    for traj in trajectories:
        prob = _trajectory_probability(encoder, decoder, tree, traj)
        mass += prob.data[0]
        reward = float(step_rewards(traj, reference, metric).sum())
        term = ad.mul(prob, reward)
        objective = term if objective is None else ad.add(objective, term)
    assert abs(mass - 1.0) < 1e-9, "enumeration does not cover the policy"
    ad.sumall(objective).backward()
    exact = {name: p.grad.copy() for name, p in store.items()}
    store.zero_grads()

    # Monte-Carlo surrogate gradient over 1e5 seeded trajectories, grouped by
    # distinct trajectory (statistically identical to per-sample averaging;
    # the fixed seed keeps the 3-standard-error band deterministic)
    n_samples = 100_000
    rng = np.random.default_rng(0)
    counts: Counter = Counter()
    representative = {}
    with ad.no_grad():
        for _ in range(n_samples):
            traj = decoder.decode_sample(enc, tree, rng)
            sig = tuple((s.action, s.choice) for s in traj.steps)
            counts[sig] += 1
            representative.setdefault(sig, traj)

    mean_g = {name: np.zeros_like(p.data) for name, p in store.items()}
    mean_g2 = {name: np.zeros_like(p.data) for name, p in store.items()}
    for sig, count in counts.items():
        traj = representative[sig]
        per_step = step_rewards(traj, reference, metric)
        to_go = np.cumsum(per_step[::-1])[::-1]
        lo, lw = decoder.score_trajectory(encoder.encode_forest([tree]), [traj])
        store.zero_grads()
        surrogate = ad.dot(ad.add(lo, lw), Tensor(-to_go))
        surrogate.backward()
        weight = count / n_samples
        for name, p in store.items():
            mean_g[name] += weight * p.grad
            mean_g2[name] += weight * p.grad * p.grad

    coords = outside = 0
    worst_ratio = 0.0
    for name in exact:
        mean = mean_g[name]
        variance = np.maximum(mean_g2[name] - mean ** 2, 0.0)
        band = 3.0 * np.sqrt(variance / n_samples) + 1e-12
        diff = np.abs(mean + exact[name])  # E[surrogate grad] == -grad E[R]
        coords += diff.size
        outside += int((diff > band).sum())
        worst_ratio = max(worst_ratio, float((diff / band).max()))
    elapsed = time.perf_counter() - start
    report("criterion 4 (policy-gradient correctness)",
           outside == 0 and elapsed < 120.0,
           f"{coords} coordinates, 0 required outside 3 SE (got {outside}), "
           f"worst |diff|/band {worst_ratio:.2f}, {elapsed:.0f}s")


# --- criterion 5 -------------------------------------------------------------

def test_c05_reward_shaping_telescopes_bitwise():
    rng = np.random.default_rng(55)
    vocab = list("abcdefg")
    metrics_fns = [reward_function("bleu4"), reward_function("rougeL")]
    checked = 0
    for i in range(1000):
        n_cand = int(rng.integers(1, 12))
        n_ref = int(rng.integers(1, 12))
        cand = [vocab[int(rng.integers(len(vocab)))] for _ in range(n_cand)]
        ref = [vocab[int(rng.integers(len(vocab)))] for _ in range(n_ref)]
        metric = metrics_fns[i % 2]
        rewards = shaped_rewards(cand, ref, metric)
        final = quantize_reward(metric(cand, ref))
        assert float(rewards.sum()) == final
        assert math.fsum(rewards) == final
        checked += 1
    report("criterion 5 (reward-shaping telescoping)", checked == 1000,
           "1000 random trajectory/reference pairs, bitwise equality")


# --- criterion 6 -------------------------------------------------------------

def test_c06_overfit_mini_corpus():
    start = time.perf_counter()
    examples = examples_from_pairs(
        generate_synthetic(30, seed=11, oov_fraction=0.5), "sql")
    cfg = TrainConfig(hidden_size=32, total_steps=300, batch_size=32, seed=3,
                      mle_only=True, min_freq_source=1, min_freq_target=1,
                      eval_every=100, max_decode_len=20)
    result = train(examples, examples, cfg)
    cands = greedy_candidates(examples, result.encoder, result.decoder)
    accuracy = token_accuracy(examples, cands)
    refs = [list(ex.comment) for ex in examples]
    bleu = metrics.corpus_eval(cands, refs)["bleu4"]
    elapsed = time.perf_counter() - start
    report("criterion 6 (overfit run)",
           accuracy >= 0.95 and bleu >= 0.90 and elapsed < 300.0,
           f"token accuracy {accuracy:.3f} (>=0.95), corpus BLEU-4 {bleu:.3f} "
           f"(>=0.90), {elapsed:.0f}s (<300s), 300 steps")


# --- criteria 7 and 8 --------------------------------------------------------

def test_c07_copy_necessity(oov_corpus, full_oov_model):
    train_ex, dev_ex = oov_corpus
    full_scores, _ = dev_scores(full_oov_model, dev_ex)
    cfg = TrainConfig(hidden_size=32, total_steps=300, batch_size=32, seed=5,
                      mle_only=True, eval_every=150, max_decode_len=16,
                      generate_only=True)
    generate_only = train(train_ex, dev_ex, cfg)
    gen_scores, _ = dev_scores(generate_only, dev_ex)
    gap = full_scores["bleu4"] - gen_scores["bleu4"]
    report("criterion 7 (copy necessity under OOV)", gap >= 0.10,
           f"dev BLEU-4 full {full_scores['bleu4']:.3f} vs generate-only "
           f"{gen_scores['bleu4']:.3f}; gap {gap * 100:.1f} points (>=10)")


def test_c08_hrl_non_regression(oov_corpus, full_oov_model):
    train_ex, dev_ex = oov_corpus
    bleu = reward_function("bleu4")
    cands_before = greedy_candidates(dev_ex, full_oov_model.encoder,
                                     full_oov_model.decoder)
    before = mean_sentence_reward(dev_ex, cands_before, bleu)
    cfg = TrainConfig(hidden_size=32, total_steps=500, batch_size=16, seed=6,
                      eval_every=250, max_decode_len=16)
    mixed = train(train_ex, dev_ex, cfg,
                  initial_params=full_oov_model.store.snapshot())
    cands_after = greedy_candidates(dev_ex, mixed.encoder, mixed.decoder)
    after = mean_sentence_reward(dev_ex, cands_after, bleu)
    report("criterion 8 (mixed-objective non-regression)",
           after >= before - 0.01,
           f"dev mean sentence reward {before:.3f} -> {after:.3f} "
           f"(tolerance 0.01, schedule length 500)")


# --- criterion 9 -------------------------------------------------------------

def oracle_rouge2_f1(cand, ref):
    def bigrams(tokens):
        return [tuple(tokens[i:i + 2]) for i in range(len(tokens) - 1)]

    rb = bigrams(ref)
    if not rb:
        return 0.0
    cb = bigrams(cand)
    match = sum(min(cb.count(g), rb.count(g)) for g in set(cb))
    recall = match / len(rb)
    precision = match / len(cb) if cb else 0.0
    return 0.0 if precision + recall == 0 else \
        2 * precision * recall / (precision + recall)


def test_c09_metric_oracles():
    rng = np.random.default_rng(99)
    for _ in range(500):
        cand, ref = random_pair(rng)
        got_bleu = metrics.bleu4(cand, ref, smoothing="add-one").value
        assert abs(got_bleu - oracle_bleu(cand, ref, True)) < 1e-12
        got_r2 = metrics.rouge2(cand, ref).value
        assert abs(got_r2 - oracle_rouge2_f1(cand, ref)) < 1e-12
        short_cand, short_ref = cand[:6], ref[:6]
        got_lcs = metrics.rougeL(short_cand, short_ref).components["lcs"]
        assert got_lcs == oracle_lcs_by_enumeration(short_cand, short_ref)
    for tokens in (["a"], ["x", "y", "z", "w"], list("abcdefgh")):
        assert metrics.bleu4(tokens, tokens).value == 1.0
        assert metrics.rougeL(tokens, tokens).value == 1.0
        if len(tokens) >= 2:
            assert metrics.rouge2(tokens, tokens).value == 1.0
    report("criterion 9 (metric oracles)", True,
           "500 random pairs within 1e-12 of brute-force oracles; "
           "identical pairs exactly 1.0")


# --- criterion 10 ------------------------------------------------------------

def test_c10_parser_goldens_and_registry():
    golden_sql = json.loads((DATA / "golden_sql_tree.json").read_text())
    parsed_sql = json.loads(tree_to_json(parse_sql(
        "SELECT MAX(Capacity) FROM table WHERE Stadium = 'Otkrytie Arena'")))
    assert parsed_sql == golden_sql, "SQL golden tree mismatch"

    golden_lambda = json.loads((DATA / "golden_lambda_tree.json").read_text())
    parsed_lambda = json.loads(tree_to_json(parse_lambda(
        "( lambda $0 e ( and ( flight $0 ) ( from $0 ap0 ) ( to $0 ci0 ) ) )")))
    assert parsed_lambda == golden_lambda, "lambda golden tree mismatch"

    wikisql = get_grammar("wikisql")
    atis = get_grammar("atis")
    registry_ok = (
        len(wikisql.types) == 6 and len(wikisql.available_types) == 2
        and wikisql.available_types == {"column_name", "string"}
        and len(atis.types) == 7 and len(atis.available_types) == 5
        and atis.available_types == {"var", "ent", "num", "var_type", "pred"}
    )
    report("criterion 10 (parser goldens and registry)", registry_ok,
           "golden trees reproduced; registry 6/2 (wikisql) and 7/5 (atis)")


# --- criterion 11 ------------------------------------------------------------

def test_c11_cli_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(generate_synthetic(10, seed=31), corpus, "sql")
    args = ["--corpus", str(corpus), "--dev", str(corpus),
            "--set", "hidden_size=8", "--set", "total_steps=6",
            "--set", "batch_size=5", "--set", "min_freq_source=1",
            "--set", "min_freq_target=1", "--set", "eval_every=3",
            "--set", "max_decode_len=10", "--set", "seed=12"]
    runs = []
    for name in ("run_a", "run_b"):
        run_dir = tmp_path / name
        code = cli.main(["train", *args, "--run-dir", str(run_dir)])
        assert code == 0
        runs.append(run_dir)
    capsys.readouterr()
    same_ckpt = (runs[0] / "checkpoint.bin").read_bytes() == \
        (runs[1] / "checkpoint.bin").read_bytes()
    same_final = (runs[0] / "checkpoint.final.bin").read_bytes() == \
        (runs[1] / "checkpoint.final.bin").read_bytes()
    same_log = (runs[0] / "log.csv").read_bytes() == \
        (runs[1] / "log.csv").read_bytes()
    report("criterion 11 (run determinism)",
           same_ckpt and same_final and same_log,
           "repeated manifest: checkpoints and CSV logs bit-identical "
           "(mixed objective, sampled trajectories included)")
