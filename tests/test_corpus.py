import pytest

from treecomment.corpus import (BOS, EOS, PAD, RESERVED, UNK, Example, batch_iter,
                                build_vocab, copyable_nodes, examples_from_pairs,
                                generate_synthetic, lint_examples, load_corpus_jsonl,
                                save_corpus_jsonl, save_trees_jsonl,
                                node_surface, source_token_stream, tokenize_comment)
from treecomment.parsers import parse_sql
from treecomment.trees import get_grammar


class TestTokenizer:
    def test_golden_sql_comment(self):
        tokens = tokenize_comment(
            "What is the maximum capacity of the Otkrytie Arena stadium ?")
        assert tokens[-2:] == ["stadium", "?"]
        assert "otkrytie" in tokens and "arena" in tokens

    def test_quoted_spans_stay_single_tokens(self):
        tokens = tokenize_comment("remove key 'c' from dictionary 'd'")
        assert "'c'" in tokens and "'d'" in tokens

    def test_attached_punctuation_detached(self):
        assert tokenize_comment("count rows, please!") == \
            ["count", "rows", ",", "please", "!"]

    def test_whitespace_only_rejected(self):
        with pytest.raises(ValueError):
            tokenize_comment("   ")

    def test_lowercases(self):
        assert tokenize_comment("SELECT Things") == ["select", "things"]


class TestVocab:
    def test_reserved_ids(self):
        vocab = build_vocab([], min_freq=1)
        assert [vocab.token_of(i) for i in (PAD, BOS, EOS, UNK)] == list(RESERVED)
        assert len(vocab) == 4

    def test_threshold_of_four_drops_triples(self):
        vocab = build_vocab([["rare"] * 3 + ["common"] * 4], min_freq=4)
        assert "common" in vocab
        assert "rare" not in vocab
        assert vocab.id_of("rare") == UNK

    def test_min_freq_one_keeps_everything(self):
        vocab = build_vocab([["a", "b"], ["c"]], min_freq=1)
        assert all(t in vocab for t in "abc")

    def test_stable_frequency_then_lexicographic_order(self):
        stream = ["a"] * 5 + ["c"] * 2 + ["b"] * 2
        vocab = build_vocab([stream], min_freq=2)
        assert vocab.id_to_token[4:] == ["a", "b", "c"]
        rebuilt = build_vocab([stream[::-1]], min_freq=2)
        assert rebuilt.id_to_token == vocab.id_to_token

    def test_roundtrip_ids(self):
        vocab = build_vocab([["x", "y", "z"]], min_freq=1)
        for i in range(len(vocab)):
            assert vocab.id_of(vocab.token_of(i)) == i

    def test_save_load(self, tmp_path):
        vocab = build_vocab([["x", "y", "x"]], min_freq=1)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        # line number = id - 4
        assert path.read_text().splitlines()[0] == vocab.token_of(4)
        loaded = type(vocab).load(path, min_freq=1)
        assert loaded.id_to_token == vocab.id_to_token

    def test_min_freq_zero_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], min_freq=0)

    def test_reserved_tokens_never_remapped(self):
        vocab = build_vocab([["<unk>", "<unk>", "<pad>", "word"]], min_freq=1)
        assert vocab.id_to_token.count("<unk>") == 1
        assert vocab.id_of("<unk>") == UNK
        assert vocab.id_of("<pad>") == PAD
        assert "word" in vocab


class TestBatching:
    def examples(self, n):
        pairs = generate_synthetic(n, seed=1)
        return examples_from_pairs(pairs, "sql")

    def test_batch_sizes(self):
        sizes = [len(b.examples) for b in batch_iter(self.examples(10), 4, 0, 0)]
        assert sizes == [4, 4, 2]

    def test_same_seed_epoch_identical(self):
        ex = self.examples(10)
        a = [b.examples for b in batch_iter(ex, 3, epoch=2, seed=9)]
        b = [b.examples for b in batch_iter(ex, 3, epoch=2, seed=9)]
        assert a == b

    def test_every_example_once_per_epoch(self):
        ex = self.examples(10)
        seen = [e for b in batch_iter(ex, 3, 0, 0) for e in b.examples]
        assert sorted(id(e) for e in seen) == sorted(id(e) for e in ex)

    def test_epochs_shuffle_differently(self):
        # on 100-example corpora, epochs reorder for at least 99% of seeds
        ex = self.examples(100)
        differing = 0
        for seed in range(100):
            orders = []
            for epoch in (0, 1):
                orders.append(tuple(id(e) for b in batch_iter(ex, 128, epoch, seed)
                                    for e in b.examples))
            differing += orders[0] != orders[1]
        assert differing >= 99

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            list(batch_iter([], 4, 0, 0))


class TestSynthetic:
    def test_deterministic(self):
        assert generate_synthetic(50, seed=7) == generate_synthetic(50, seed=7)

    def test_all_parseable(self):
        pairs = generate_synthetic(100, seed=3)
        assert len(pairs) == 100
        examples = examples_from_pairs(pairs, "sql")
        assert all(len(ex.tree) >= 2 for ex in examples)

    def test_lambda_corpus_parseable(self):
        pairs = generate_synthetic(40, seed=3, grammar="atis")
        examples = examples_from_pairs(pairs, "lambda")
        assert all(ex.tree.grammar == "atis" for ex in examples)

    def test_oov_fraction_honored(self):
        pairs = generate_synthetic(1000, seed=13, oov_fraction=0.5)
        examples = examples_from_pairs(pairs, "sql")
        vocab = build_vocab((ex.comment for ex in examples), min_freq=4)
        with_oov = sum(1 for ex in examples
                       if any(tok not in vocab for tok in ex.comment))
        assert abs(with_oov / 1000 - 0.5) <= 0.05

    def test_unknown_grammar_rejected(self):
        with pytest.raises(ValueError, match="templates"):
            generate_synthetic(5, seed=0, grammar="prolog")

    def test_oov_comments_remain_reachable_via_copy(self):
        pairs = generate_synthetic(200, seed=5, oov_fraction=0.5)
        examples = examples_from_pairs(pairs, "sql")
        vocab = build_vocab((ex.comment for ex in examples), min_freq=4)
        assert lint_examples(examples, vocab) == []


class TestLinter:
    def test_unreachable_token_reported(self):
        tree = parse_sql("SELECT col FROM t WHERE a = 'findable'")
        ex = Example(tree=tree, comment=("totally", "unreachable"))
        vocab = build_vocab([["findable"]], min_freq=1)
        problems = lint_examples([ex], vocab)
        assert len(problems) == 1
        assert problems[0].example_index == 0
        assert "unreachable" in problems[0].message or "totally" in problems[0].message

    def test_copy_span_makes_oov_reachable(self):
        tree = parse_sql("SELECT col FROM t WHERE a = 'Rare Words'")
        ex = Example(tree=tree, comment=("col", "is", "rare", "words"))
        vocab = build_vocab([["col", "is"]], min_freq=1)
        assert lint_examples([ex], vocab) == []

    def test_back_to_back_copy_of_one_span_reported(self):
        # copying 'two words' fully decays its node, so the second copy is
        # impossible and neither token is in the vocabulary
        tree = parse_sql("SELECT col FROM t WHERE a = 'Two Words'")
        ex = Example(tree=tree, comment=("two", "words", "two", "words"))
        problems = lint_examples([ex], build_vocab([["col"]], min_freq=1))
        assert [p.position for p in problems] == [2]
        assert "copy decay" in problems[0].message
        vocab = build_vocab([["two", "words"]], min_freq=1)
        assert lint_examples([ex], vocab) == []

    def test_masked_types_not_copyable(self):
        tree = parse_sql("SELECT col FROM t WHERE a = 'v'")

        def surfaces(**flags):
            return {node_surface(n.tokens)
                    for n in copyable_nodes(tree, get_grammar("wikisql"), **flags)}

        # cmp_op "=" and the stmt SELECT token are grammar-masked
        assert surfaces() == {("col",), ("a",), ("v",)}
        assert surfaces(use_mask=False) == surfaces() | {("=",), ("select",)}
        assert surfaces(generate_only=True) == set()


class TestCorpusFiles:
    def test_jsonl_roundtrip_code_form(self, tmp_path):
        pairs = generate_synthetic(8, seed=2)
        path = tmp_path / "corpus.jsonl"
        save_corpus_jsonl(pairs, path, "sql")
        examples = load_corpus_jsonl(path)
        assert len(examples) == 8
        assert examples == examples_from_pairs(pairs, "sql")

    def test_jsonl_roundtrip_tree_form(self, tmp_path):
        examples = examples_from_pairs(generate_synthetic(5, seed=2), "sql")
        path = tmp_path / "trees.jsonl"
        save_trees_jsonl(examples, path)
        again = load_corpus_jsonl(path)
        assert again == examples

    def test_unknown_lang_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"code": "SELECT a FROM t", "lang": "cobol", "comment": "x"}\n')
        with pytest.raises(ValueError, match="lang"):
            load_corpus_jsonl(path)

    @pytest.mark.parametrize("line, message", [
        ("5", "expected a JSON object"),
        ("null", "expected a JSON object"),
        ('["comment", "code"]', "expected a JSON object"),
        ('{"comment": 5, "code": "SELECT a FROM t", "lang": "sql"}', "'comment' must be a string"),
        ('{"comment": "x", "code": 7, "lang": "sql"}', "'code' must be a string"),
        ('{"comment": "x", "code": "SELECT a FROM t", "lang": ["sql"]}',
         "'lang' must be a string"),
    ], ids=["number", "null", "array", "comment", "code", "lang"])
    def test_malformed_line_names_line_and_field(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"code": "SELECT a FROM t", "lang": "sql", "comment": "x"}\n'
                        + line + "\n")
        with pytest.raises(ValueError, match=f"bad.jsonl:2: {message}"):
            load_corpus_jsonl(path)

    def test_source_stream_lowercases(self):
        tree = parse_sql("SELECT Col FROM t WHERE K = 'Va Lue'")
        stream = source_token_stream(tree)
        assert "col" in stream and "va" in stream and "lue" in stream
        assert all(t == t.lower() for t in stream)
