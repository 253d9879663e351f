import json
import shutil
import struct

import pytest

from treecomment import cli
from treecomment.corpus import generate_synthetic, save_corpus_jsonl


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(generate_synthetic(8, seed=1), path, "sql")
    return path


def train_args(corpus, run_dir, extra=()):
    return ["train", "--corpus", str(corpus), "--dev", str(corpus),
            "--run-dir", str(run_dir),
            "--set", "hidden_size=8", "--set", "total_steps=4",
            "--set", "batch_size=4", "--set", "mle_only=true",
            "--set", "min_freq_source=1", "--set", "min_freq_target=1",
            "--set", "eval_every=2", "--set", "max_decode_len=12",
            *extra]


class TestUsage:
    def test_no_command_prints_usage(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_command_exits_one(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1

    def test_missing_required_flag_exits_one(self, capsys):
        code, _, _ = run(["synth", "--n", "5"], capsys)
        assert code == 1

    @pytest.mark.parametrize("override", ["foo", "=1"])
    def test_malformed_override_exits_one(self, tmp_path, corpus_path, override, capsys):
        run_dir = tmp_path / "run"
        code, _, err = run(train_args(corpus_path, run_dir, ["--set", override]), capsys)
        assert code == 1
        assert f"expected KEY=VALUE, got {override!r}" in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("override, message", [
        ("foo=1", "unknown key 'foo'"),
        ("hidden_size=abc", "hidden_size: expected an int, got 'abc'"),
        ("mle_only=maybe", "mle_only: bad boolean 'maybe'"),
        ("learning_rate=-1", "learning_rate must be positive, got '-1'"),
        ("eval_every=0", "eval_every must be >= 1, got '0'"),
        ("grad_clip=-1", "grad_clip must be none or positive, got '-1'"),
        ("grad_clip=nan", "grad_clip must be none or positive, got 'nan'"),
        ("min_freq_source=0", "min_freq_source must be >= 1, got '0'"),
        ("min_freq_target=0", "min_freq_target must be >= 1, got '0'"),
        ("seed=-1", "seed must be >= 0, got '-1'"),
    ])
    def test_bad_override_exits_one_naming_the_key(self, tmp_path, corpus_path, override,
                                                   message, capsys):
        run_dir = tmp_path / "run"
        code, out, err = run(train_args(corpus_path, run_dir, ["--set", override]), capsys)
        assert (code, out) == (1, "")
        assert message in err and "config line" not in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("line, message", [
        ("hidden_size=abc", "config line 2: hidden_size: expected an int, got 'abc'"),
        ("decay_factor=1.5", "config line 2: decay_factor must lie in (0, 1), got '1.5'"),
        ("foo=1", "config line 2: unknown key 'foo'"),
        ("grad_clip=-1", "config line 2: grad_clip must be none or positive, got '-1'"),
    ])
    def test_bad_config_file_value_exits_two_naming_line_and_key(
            self, tmp_path, corpus_path, line, message, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"seed=3\n{line}\n")
        run_dir = tmp_path / "run"
        code, out, err = run(train_args(corpus_path, run_dir, ["--config", str(config)]),
                             capsys)
        assert (code, out) == (2, "")
        assert message in err


    @pytest.mark.parametrize("argv, name", [
        (["synth", "--n", "5", "--seed", "-1", "--out", "c.jsonl"], "--seed"),
        (["gradcheck", "--seed", "-1"], "--seed"),
        (["preprocess", "--corpus", "c.jsonl", "--out-dir", "prep", "--min-freq-source", "0"],
         "--min-freq-source"),
        (["preprocess", "--corpus", "c.jsonl", "--out-dir", "prep", "--min-freq-target", "-2"],
         "--min-freq-target"),
    ], ids=["synth-seed", "gradcheck-seed", "preprocess-min-freq-source",
            "preprocess-min-freq-target"])
    def test_out_of_range_flag_exits_one_naming_the_flag(self, tmp_path, monkeypatch, argv,
                                                         name, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert f"argument {name}" in err
        assert not any(tmp_path.iterdir())


class TestSynthAndPreprocess:
    def test_synth_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        code, _, err = run(["synth", "--n", "5", "--seed", "3", "--out", str(out)],
                           capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert all({"code", "lang", "comment"} <= set(json.loads(l)) for l in lines)

    @pytest.mark.parametrize("flags, name", [
        (["--n", "-3"], "--n"), (["--n", "0"], "--n"),
        (["--n", "5", "--oov-fraction", "3"], "--oov-fraction"),
        (["--n", "5", "--oov-fraction", "nan"], "--oov-fraction"),
        (["--n", "5", "--oov-fraction", "-1"], "--oov-fraction"),
    ], ids=["n-negative", "n-zero", "fraction-3", "fraction-nan", "fraction-negative"])
    def test_synth_bad_flag_value_exits_one_naming_the_flag(self, tmp_path, flags, name,
                                                           capsys):
        out = tmp_path / "c.jsonl"
        code, stdout, err = run(["synth", *flags, "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert f"argument {name}" in err
        assert not out.exists()

    @pytest.mark.parametrize("fraction", [3.0, float("nan"), -1.0, -1e-9, 1.0 + 1e-9])
    def test_generate_synthetic_rejects_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="oov_fraction"):
            generate_synthetic(5, seed=0, oov_fraction=fraction)

    def test_preprocess_emits_trees_and_vocabs(self, tmp_path, corpus_path, capsys):
        out_dir = tmp_path / "prep"
        code, _, err = run(["preprocess", "--corpus", str(corpus_path),
                            "--out-dir", str(out_dir),
                            "--min-freq-source", "1", "--min-freq-target", "1"],
                           capsys)
        assert code == 0
        assert (out_dir / "trees.jsonl").exists()
        assert (out_dir / "vocab.src.txt").exists()
        assert (out_dir / "vocab.tgt.txt").exists()

    def test_preprocess_bad_lang_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"code": "SELECT a FROM t", "lang": "ada", "comment": "x"}\n')
        code, _, err = run(["preprocess", "--corpus", str(bad),
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "lang" in err


class TestStats:
    def test_hand_counted_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "three.jsonl"
        rows = [
            {"code": "SELECT MAX(Capacity) FROM t WHERE Stadium = 'Otkrytie Arena'",
             "lang": "sql", "comment": "x"},
            {"code": "SELECT col FROM t", "lang": "sql", "comment": "x"},
            {"code": "SELECT a FROM t WHERE b = 'c' AND d = 'e'",
             "lang": "sql", "comment": "x"},
        ]
        fixture.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code, out, _ = run(["stats", str(fixture)], capsys)
        assert code == 0
        # trees: 7, 2 and 10 nodes; depths 3, 2, 3; max children 3
        data_line = out.splitlines()[1]
        fields = data_line.split()
        assert fields[0] == "three.jsonl"
        assert fields[1] == "3"          # tree count
        assert fields[2] == "6" and fields[3] == "2"  # grammar type counts
        assert fields[4] == "3"          # max depth
        assert fields[5] == "6.33"       # (7 + 2 + 10) / 3
        assert fields[6] == "3"          # max children


class TestTrainGenerateEvaluate:
    def test_pipeline_and_determinism(self, tmp_path, corpus_path, capsys):
        run_a = tmp_path / "run_a"
        run_b = tmp_path / "run_b"
        code, out, err = run(train_args(corpus_path, run_a), capsys)
        assert code == 0, err
        for name in ("manifest.json", "config.cfg", "log.csv",
                     "checkpoint.bin", "checkpoint.final.bin",
                     "vocab.src.txt", "vocab.tgt.txt"):
            assert (run_a / name).exists(), name
        manifest = json.loads((run_a / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["finished_at"] is not None
        assert (manifest["status"], manifest["exit_code"]) == ("ok", 0)
        assert manifest["grammar"] == "wikisql"
        assert str(corpus_path) in manifest["input_digests"]

        code, _, _ = run(train_args(corpus_path, run_b), capsys)
        assert code == 0
        assert (run_a / "checkpoint.bin").read_bytes() == \
            (run_b / "checkpoint.bin").read_bytes()
        assert (run_a / "log.csv").read_bytes() == (run_b / "log.csv").read_bytes()

    def test_log_reports_guards_and_copy_rate_and_repeats(self, tmp_path, corpus_path,
                                                          capsys):
        runs = [tmp_path / "run_a", tmp_path / "run_b"]
        for run_dir in runs:
            code, _, err = run(train_args(corpus_path, run_dir, ["--set", "mle_only=false"]),
                               capsys)
            assert code == 0, err
        log = (runs[0] / "log.csv").read_bytes()
        assert log == (runs[1] / "log.csv").read_bytes()
        header, *rows = [line.split(",") for line in log.decode().splitlines()]
        assert tuple(header) == cli.CSV_COLUMNS
        field = {name: [row[header.index(name)] for row in rows]
                 for name in ("mu", "guard_hits", "copy_rate")}
        assert all(hits.isdigit() for hits in field["guard_hits"])
        # the first step weighs only the likelihood, so it samples nothing
        assert float(field["mu"][0]) == 1.0 and field["copy_rate"][0] == ""
        assert all(0.0 <= float(rate) <= 1.0 for rate in field["copy_rate"][1:])

    def test_aborted_run_exits_three_and_says_so(self, tmp_path, corpus_path, capsys,
                                                 monkeypatch):
        real_train = cli.train

        def diverging(train_examples, dev_examples, cfg, **kwargs):
            # NaN embeddings make the first loss non-finite
            poisoned = real_train(train_examples, [], cfg).store.snapshot()
            poisoned["enc.embed"][...] = float("nan")
            return real_train(train_examples, dev_examples, cfg, initial_params=poisoned,
                              **kwargs)

        monkeypatch.setattr(cli, "train", diverging)
        run_dir = tmp_path / "run"
        code, _, err = run(train_args(corpus_path, run_dir), capsys)
        assert code == 3, err
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["finished_at"] is not None
        assert (manifest["status"], manifest["exit_code"]) == ("aborted", 3)

    def test_failed_run_stamps_error_in_manifest(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        run_dir = tmp_path / "run"
        code, _, err = run(train_args(corpus, run_dir), capsys)
        assert code == 2
        assert "empty corpus" in err
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["finished_at"] is not None
        assert (manifest["status"], manifest["exit_code"]) == ("error", 2)

    def test_collapsed_run_exits_three_and_says_so(self, tmp_path, capsys):
        # after one step at learning rate 1e300 every gate saturates: most
        # target units get probability exactly 0 and take the finite loss
        # guard, so the loss never turns non-finite
        corpus = tmp_path / "corpus32.jsonl"
        save_corpus_jsonl(generate_synthetic(32, seed=1), corpus, "sql")
        run_dir = tmp_path / "run"
        code, _, err = run(train_args(corpus, run_dir, ["--set", "batch_size=8",
                                                        "--set", "learning_rate=1e300"]),
                           capsys)
        assert code == 3, err
        assert "likelihood units took the loss guard" in err
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"]) == ("aborted", 3)
        # the first, healthy step is logged; the collapsed one is not
        assert len((run_dir / "log.csv").read_text().splitlines()) == 2

    def test_generate_and_trace(self, tmp_path, corpus_path, capsys):
        run_dir = tmp_path / "run"
        assert run(train_args(corpus_path, run_dir), capsys)[0] == 0
        trace_path = tmp_path / "trace.jsonl"
        code, out, err = run(["generate", "--run-dir", str(run_dir),
                              "--input", str(corpus_path),
                              "--trace", str(trace_path)], capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 8
        entries = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert all({"step", "attention", "action", "decay"} <= set(e)
                   for e in entries)

    def test_generate_raw_code_lines(self, tmp_path, corpus_path, capsys):
        run_dir = tmp_path / "run"
        assert run(train_args(corpus_path, run_dir), capsys)[0] == 0
        src = tmp_path / "code.txt"
        src.write_text("SELECT Capacity FROM t WHERE Stadium = 'North Park'\n")
        code, out, _ = run(["generate", "--run-dir", str(run_dir),
                            "--input", str(src), "--lang", "sql"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1

    @pytest.mark.parametrize("max_len", ["0", "-1"])
    def test_generate_rejects_max_len_below_one_before_loading(self, tmp_path, max_len,
                                                               capsys):
        # the run directory does not exist: loading it would exit 2
        code, out, err = run(["generate", "--run-dir", str(tmp_path / "missing"),
                              "--input", str(tmp_path / "missing.jsonl"),
                              "--max-len", max_len], capsys)
        assert code == 1
        assert out == ""
        assert "--max-len" in err

    def test_generate_refuses_untrained_grammar(self, tmp_path, corpus_path, capsys):
        # a wikisql run has no weights for lambda-calculus node types; serving
        # freshly initialized ones would print words from untrained weights
        run_dir = tmp_path / "run"
        assert run(train_args(corpus_path, run_dir), capsys)[0] == 0
        src = tmp_path / "code.txt"
        src.write_text("(lambda $0 e (and (flight $0) (from $0 boston:ci)))\n")
        code, out, err = run(["generate", "--run-dir", str(run_dir),
                              "--input", str(src), "--lang", "lambda"], capsys)
        assert code == 2
        assert out == ""
        assert "trained on grammar 'wikisql'" in err and "'atis'" in err

    def test_untyped_run_refuses_another_grammar(self, tmp_path, corpus_path, capsys):
        # an untyped encoder's weights name no node type, so only the
        # grammar recorded in the manifest tells the runs apart
        run_dir = tmp_path / "run"
        assert run(train_args(corpus_path, run_dir, ["--set", "no_type_assoc=true"]),
                   capsys)[0] == 0
        assert json.loads((run_dir / "manifest.json").read_text())["grammar"] == "wikisql"
        src = tmp_path / "code.txt"
        src.write_text("(lambda $0 e (and (flight $0) (from $0 boston:ci)))\n")
        code, out, err = run(["generate", "--run-dir", str(run_dir),
                              "--input", str(src), "--lang", "lambda"], capsys)
        assert code == 2
        assert out == ""
        assert "trained on grammar 'wikisql'" in err

    def test_generate_refuses_manifest_without_grammar(self, tmp_path, corpus_path, capsys):
        run_dir = tmp_path / "run"
        assert run(train_args(corpus_path, run_dir), capsys)[0] == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        del manifest["grammar"]
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run(["generate", "--run-dir", str(run_dir),
                              "--input", str(corpus_path)], capsys)
        assert code == 2
        assert out == ""
        assert "records no grammar" in err

    def test_manifest_records_the_digest_of_every_file_generate_reads(
            self, tmp_path, corpus_path, capsys):
        run_dir = tmp_path / "run"
        assert run(train_args(corpus_path, run_dir), capsys)[0] == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert sorted(manifest["output_digests"]) == sorted(cli.RUN_FILES)
        for name, digest in manifest["output_digests"].items():
            assert digest == cli._sha256(run_dir / name), name
        for name in ("log.csv", "checkpoint.bin"):
            assert b"output_digests" not in (run_dir / name).read_bytes()

    @staticmethod
    def reverse_target_vocab(run_dir, other):
        vocab = run_dir / "vocab.tgt.txt"
        vocab.write_text("\n".join(vocab.read_text().splitlines()[::-1]) + "\n")

    @staticmethod
    def swap_checkpoint(run_dir, other):
        # a run of another seed: the same shapes, other values
        shutil.copy(other / "checkpoint.bin", run_dir / "checkpoint.bin")

    @staticmethod
    def edit_config(run_dir, other):
        config = run_dir / "config.cfg"
        config.write_text(config.read_text().replace("max_decode_len=12", "max_decode_len=3"))

    @pytest.mark.parametrize("tamper", ["reverse_target_vocab", "swap_checkpoint",
                                        "edit_config"])
    def test_generate_refuses_a_file_its_run_did_not_write(self, tamper, tmp_path,
                                                          corpus_path, capsys):
        run_dir, other = tmp_path / "run", tmp_path / "other"
        assert run(train_args(corpus_path, run_dir), capsys)[0] == 0
        assert run(train_args(corpus_path, other, ["--set", "seed=5"]), capsys)[0] == 0
        generate = ["generate", "--run-dir", str(run_dir), "--input", str(corpus_path)]
        assert run(generate, capsys)[0] == 0
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        getattr(self, tamper)(run_dir, other)
        changed = [p.name for p in run_dir.iterdir() if p.read_bytes() != before[p.name]]
        assert len(changed) == 1
        code, out, err = run(generate, capsys)
        assert (code, out) == (2, "")
        assert f"{changed[0]} is not the file its run wrote" in err

    def test_generate_refuses_manifest_without_digests(self, tmp_path, corpus_path, capsys):
        run_dir = tmp_path / "run"
        assert run(train_args(corpus_path, run_dir), capsys)[0] == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        del manifest["output_digests"]
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run(["generate", "--run-dir", str(run_dir),
                              "--input", str(corpus_path)], capsys)
        assert (code, out) == (2, "")
        assert "records no digests" in err

    def test_generate_serves_unseen_in_grammar_combinations(self, tmp_path, corpus_path,
                                                            capsys):
        # synthetic SQL has one WHERE condition; a second one needs encoder
        # slot weights the run never created, which keep their initial values
        # and are named on stderr
        run_dir = tmp_path / "run"
        assert run(train_args(corpus_path, run_dir), capsys)[0] == 0
        src = tmp_path / "code.txt"
        src.write_text("SELECT a FROM t WHERE b = 'c' AND d = 'e'\n")
        code, out, err = run(["generate", "--run-dir", str(run_dir),
                              "--input", str(src), "--lang", "sql"], capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 1
        [line] = [l for l in err.splitlines() if "kept their initial values" in l]
        assert "enc.i.U[slot=3][type=cond_expr]" in line and "dec." not in line

    def test_evaluate_report_format(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("a b c d\nx y\n")
        ref.write_text("a b c d\nx z\n")
        code, out, _ = run(["evaluate", "--candidates", str(cand),
                            "--references", str(ref)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["BLEU-4", "ROUGE-2", "ROUGE-L"]
        values = lines[1].split()
        assert all("." in v and len(v.split(".")[1]) == 1 for v in values)

    def test_evaluate_identical_pairs_score_100(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        cand.write_text("a b c d\n")
        code, out, _ = run(["evaluate", "--candidates", str(cand),
                            "--references", str(cand)], capsys)
        assert out.splitlines()[1].split() == ["100.0", "100.0", "100.0"]

    def test_evaluate_length_mismatch_exits_two(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("a\nb\n")
        ref.write_text("a\n")
        code, _, err = run(["evaluate", "--candidates", str(cand),
                            "--references", str(ref)], capsys)
        assert code == 2


def _set_u32(raw: bytes, offset: int, value: int) -> bytes:
    return raw[:offset] + struct.pack("<I", value) + raw[offset + 4:]


def _first_rank_offset(raw: bytes) -> int:
    # header (u32 version, u64 count), then u32 name length and the name
    (name_len,) = struct.unpack_from("<I", raw, 12)
    return 16 + name_len


CORRUPTIONS = {
    "cut-in-header": lambda raw: raw[:6],
    "cut-in-name-length": lambda raw: raw[:14],
    "cut-in-name": lambda raw: raw[:20],
    "cut-in-values": lambda raw: raw[:-3],
    "trailing-bytes": lambda raw: raw + b"\0\0",
    "implausible-rank": lambda raw: _set_u32(raw, _first_rank_offset(raw), 1000),
    "implausible-dimension": lambda raw: _set_u32(raw, _first_rank_offset(raw) + 4, 2 ** 31),
}


class TestCorruptCheckpoint:
    @pytest.fixture(scope="class")
    def trained_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        corpus = root / "corpus.jsonl"
        save_corpus_jsonl(generate_synthetic(8, seed=1), corpus, "sql")
        assert cli.main(train_args(corpus, root / "run")) == 0
        return corpus, root / "run"

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_generate_exits_two(self, corruption, trained_run, tmp_path, capsys):
        corpus, source = trained_run
        run_dir = tmp_path / "run"
        shutil.copytree(source, run_dir)
        checkpoint = run_dir / "checkpoint.bin"
        checkpoint.write_bytes(CORRUPTIONS[corruption](checkpoint.read_bytes()))
        # vouch for the corrupt file, so the checkpoint reader must refuse it
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["output_digests"]["checkpoint.bin"] = cli._sha256(checkpoint)
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run(["generate", "--run-dir", str(run_dir),
                              "--input", str(corpus)], capsys)
        assert code == 2, err
        assert out == "" and "checkpoint" in err and "is not the file" not in err


class TestGradcheckCommand:
    def test_exit_zero_and_reports(self, capsys):
        code, out, _ = run(["gradcheck", "--seed", "0"], capsys)
        assert code == 0
        assert "primitives" in out and "mle_loss" in out
        assert "OK" in out


GOLD_CODE = "SELECT MAX(Capacity) FROM table WHERE Stadium = 'Otkrytie Arena'"
GOLD_COMMENT = "What is the maximum capacity of the Otkrytie Arena stadium ?"


class TestOverfitThenGenerate:
    def test_golden_fixture_comment_reproduced(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        pairs = generate_synthetic(16, seed=41) + [(GOLD_CODE, GOLD_COMMENT)]
        save_corpus_jsonl(pairs, corpus, "sql")
        run_dir = tmp_path / "run"
        code, _, err = run(["train", "--corpus", str(corpus),
                            "--run-dir", str(run_dir),
                            "--set", "hidden_size=32", "--set", "total_steps=300",
                            "--set", "batch_size=32", "--set", "mle_only=true",
                            "--set", "min_freq_source=1",
                            "--set", "min_freq_target=1",
                            "--set", "eval_every=150", "--set", "seed=2",
                            "--set", "max_decode_len=20"], capsys)
        assert code == 0, err
        fixture = tmp_path / "golden.jsonl"
        save_corpus_jsonl([(GOLD_CODE, GOLD_COMMENT)], fixture, "sql")
        code, out, err = run(["generate", "--run-dir", str(run_dir),
                              "--input", str(fixture),
                              "--checkpoint", "final"], capsys)
        assert code == 0, err
        assert out.splitlines() == [
            "what is the maximum capacity of the otkrytie arena stadium ?"]
