"""Command-line pipeline: synth, preprocess, stats, train, generate,
evaluate, gradcheck.

Data travels through files (JSONL corpora, tree documents, vocab text files,
binary checkpoints, CSV logs); logs go to stderr and results to stdout. A
training run directory carries a manifest (command, config snapshot, seed,
input digests) sufficient to re-execute the run bit-identically, and the
digests of the files it wrote, which ``generate`` checks.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, checks, metrics
from .corpus import (Example, Vocab, build_vocab, generate_synthetic, lint_examples,
                     load_corpus_jsonl, save_corpus_jsonl, save_trees_jsonl,
                     source_token_stream, tokenize_comment)
from .params import load_checkpoint, save_checkpoint
from .parsers import parse_lambda, parse_sql
from .trees import get_grammar, tree_stats
from .training import (TrainConfig, build_model, config_from_text, config_to_text,
                       config_value, encoded_chunks, greedy_candidates, train)

MANIFEST_VERSION = 1

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

# the failures a subcommand reports as bad data (exit 2); parse and tree
# errors are value errors
DATA_ERRORS = (ValueError, KeyError, OSError)

# the files ``generate`` reads, digested into the manifest when ``train`` ends
RUN_FILES = ("config.cfg", "vocab.src.txt", "vocab.tgt.txt", "checkpoint.bin",
             "checkpoint.final.bin")

CSV_COLUMNS = ("step", "mu", "loss_mle", "loss_hrl", "reward_mean", "guard_hits",
               "copy_rate", "dev_bleu4", "dev_rouge2", "dev_rougeL")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _natural_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}")
    return value


def _override(text: str) -> tuple[str, object]:
    """A ``--set KEY=VALUE`` as the key and its parsed value, checked as a
    config file's line is, so a bad key or value is a usage error."""
    key, sep, value = text.partition("=")
    if not (key and sep):
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key = key.strip()
    try:
        return key, config_value(key, value.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run_dir: Path, command: str, config_text: str, seed: int,
                   grammar: str | None, inputs: list[Path]) -> Path:
    manifest = {
        "format_version": MANIFEST_VERSION,
        "command": command,
        "config": config_text,
        "seed": seed,
        "grammar": grammar,
        "version": f"treecomment-{__version__}",
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "finished_at": None,
        "status": None,
        "exit_code": None,
    }
    path = run_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def finish_manifest(path: Path, exit_code: int, outputs: list[Path] = ()) -> None:
    """Stamp the end time and the outcome: status ``ok`` for exit code 0,
    ``aborted`` for a numeric abort, ``error`` for any other. The sha256 of
    each file of ``outputs`` goes under ``output_digests``, by file name."""
    manifest = json.loads(path.read_text())
    manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    manifest["status"] = {EXIT_OK: "ok", EXIT_NUMERIC: "aborted"}.get(exit_code, "error")
    manifest["exit_code"] = exit_code
    if outputs:
        manifest["output_digests"] = {p.name: _sha256(p) for p in outputs}
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def check_outputs(manifest_path: Path, paths: list[Path]) -> None:
    """Raise a ValueError naming the first of ``paths`` whose sha256 is not
    the one the manifest recorded when its run ended."""
    recorded = json.loads(manifest_path.read_text()).get("output_digests")
    if recorded is None:
        raise ValueError(f"{manifest_path} records no digests of the run's files; retrain "
                         f"the run to generate from it")
    for path in paths:
        if recorded.get(path.name) != _sha256(path):
            raise ValueError(f"{path} is not the file its run wrote: its sha256 differs")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def cmd_synth(args) -> int:
    pairs = generate_synthetic(args.n, args.seed, args.grammar, args.oov_fraction)
    lang = "sql" if args.grammar == "wikisql" else "lambda"
    save_corpus_jsonl(pairs, args.out, lang)
    print(f"wrote {len(pairs)} examples to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_preprocess(args) -> int:
    examples = load_corpus_jsonl(args.corpus)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    src_vocab = build_vocab((source_token_stream(ex.tree) for ex in examples),
                            args.min_freq_source)
    tgt_vocab = build_vocab((ex.comment for ex in examples), args.min_freq_target)
    save_trees_jsonl(examples, out_dir / "trees.jsonl")
    src_vocab.save(out_dir / "vocab.src.txt")
    tgt_vocab.save(out_dir / "vocab.tgt.txt")
    for p in lint_examples(examples, tgt_vocab):
        print(f"lint: example {p.example_index} position {p.position}: {p.message}",
              file=sys.stderr)
    print(f"wrote {len(examples)} trees and vocabularies "
          f"({len(src_vocab)} source / {len(tgt_vocab)} target ids) to {out_dir}",
          file=sys.stderr)
    return EXIT_OK


def cmd_stats(args) -> int:
    rows = []
    for path in args.trees:
        examples = load_corpus_jsonl(path)
        stats = tree_stats([ex.tree for ex in examples])
        grammars = {ex.tree.grammar for ex in examples}
        type_num = avail_num = "-"
        if len(grammars) == 1:
            try:
                g = get_grammar(next(iter(grammars)))
                type_num, avail_num = str(len(g.types)), str(len(g.available_types))
            except KeyError:
                pass
        rows.append(tuple(f"{v:.2f}" if isinstance(v, float) else str(v)
                          for v in (Path(path).name, stats.tree_count, type_num,
                                    avail_num, stats.max_depth,
                                    stats.avg_node_count, stats.max_child_count)))
    header = ("split", "trees", "types", "avail_types",
              "max_depth", "avg_nodes", "max_children")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return EXIT_OK


def _load_train_config(args) -> TrainConfig:
    if args.config:
        cfg = config_from_text(Path(args.config).read_text())
    else:
        cfg = TrainConfig()
    return dataclasses.replace(cfg, **dict(args.set or []))


def cmd_train(args) -> int:
    cfg = _load_train_config(args)
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = [Path(args.corpus)] + ([Path(args.dev)] if args.dev else []) \
        + ([Path(args.config)] if args.config else [])
    train_examples = load_corpus_jsonl(args.corpus)
    dev_examples = load_corpus_jsonl(args.dev) if args.dev else []
    config_text = config_to_text(cfg)
    (run_dir / "config.cfg").write_text(config_text)
    grammar = train_examples[0].tree.grammar if train_examples else None
    manifest_path = write_manifest(run_dir, "train", config_text, cfg.seed, grammar, inputs)

    log_path = run_dir / "log.csv"
    try:
        with open(log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)

            def log_row(row: dict) -> None:
                writer.writerow([_fmt(row.get(c)) for c in CSV_COLUMNS])

            result = train(train_examples, dev_examples, cfg, log_writer=log_row)
    except DATA_ERRORS:
        finish_manifest(manifest_path, EXIT_DATA)
        raise

    result.source_vocab.save(run_dir / "vocab.src.txt")
    result.target_vocab.save(run_dir / "vocab.tgt.txt")
    save_checkpoint(result.store, run_dir / "checkpoint.final.bin")
    result.store.load_snapshot(result.best_params)
    save_checkpoint(result.store, run_dir / "checkpoint.bin")
    finish_manifest(manifest_path, EXIT_NUMERIC if result.aborted else EXIT_OK,
                    [run_dir / name for name in RUN_FILES])
    if result.aborted:
        print(f"training aborted: {result.abort_reason}; last good parameters kept",
              file=sys.stderr)
        return EXIT_NUMERIC
    last = result.history[-1] if result.history else {}
    print(f"run {run_dir}: {len(result.history)} steps, "
          f"dev BLEU-4 {_fmt(last.get('dev_bleu4')) or 'n/a'}")
    return EXIT_OK


def _read_text(path: str) -> str:
    # "-" names stdin, so subcommands compose in pipelines
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _read_generate_inputs(args) -> list[Example]:
    text = _read_text(args.input)
    if args.lang:
        parse = parse_sql if args.lang == "sql" else parse_lambda
        return [Example(tree=parse(line), comment=("-",))
                for line in text.splitlines() if line.strip()]
    if args.input == "-":
        raise ValueError("JSONL on stdin needs --lang or a file path")
    return load_corpus_jsonl(args.input)


def cmd_generate(args) -> int:
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    checkpoint = run_dir / ("checkpoint.final.bin" if args.checkpoint == "final"
                            else "checkpoint.bin")
    # serve only the files the run wrote: an edited or swapped one would
    # give other words without any error
    check_outputs(manifest_path, [run_dir / name for name in RUN_FILES[:3]] + [checkpoint])
    cfg = config_from_text((run_dir / "config.cfg").read_text())
    src_vocab = Vocab.load(run_dir / "vocab.src.txt", cfg.min_freq_source)
    tgt_vocab = Vocab.load(run_dir / "vocab.tgt.txt", cfg.min_freq_target)
    examples = _read_generate_inputs(args)
    if not examples:
        print("no inputs to generate from", file=sys.stderr)
        return EXIT_DATA
    # a model serves only the grammar it was trained on: refuse any other
    # before output instead of serving untrained weights
    trained = json.loads(manifest_path.read_text()).get("grammar")
    if trained is None:
        print(f"{manifest_path} records no grammar; retrain the run to generate from it",
              file=sys.stderr)
        return EXIT_DATA
    given = sorted({ex.tree.grammar for ex in examples})
    if given != [trained]:
        print(f"{run_dir} was trained on grammar {trained!r} but the input has grammar "
              f"{', '.join(map(repr, given))}; generate with the grammar of the run",
              file=sys.stderr)
        return EXIT_DATA
    params = load_checkpoint(checkpoint)
    store, encoder, decoder = build_model(cfg, trained, src_vocab, tgt_vocab)
    store.load_snapshot(params)
    trace_fh = open(args.trace, "w") if args.trace else None
    try:
        start = 0
        for chunk in encoded_chunks(examples, encoder):
            traces = [[] for _ in chunk] if trace_fh else None
            outputs = decoder.decode_greedy_batch([(enc, ex.tree) for ex, enc in chunk],
                                                  max_len=args.max_len, traces=traces)
            print("\n".join(" ".join(tokens) for tokens in outputs))
            for i, trace in enumerate(traces or (), start=start):
                for entry in trace:
                    entry["example"] = i
                    trace_fh.write(json.dumps(entry) + "\n")
            start += len(chunk)
    finally:
        if trace_fh:
            trace_fh.close()
    untrained = [name for name in store.names() if name not in params]
    if untrained:
        print(f"{checkpoint} lacks {len(untrained)} weights these inputs needed; they "
              f"kept their initial values: {', '.join(untrained)}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    candidates = [line.split() for line in _read_text(args.candidates).splitlines()
                  if line.strip() or args.keep_empty]
    references = [line.split() for line in _read_text(args.references).splitlines()
                  if line.strip()]
    scores = metrics.corpus_eval(candidates, references)
    print("BLEU-4  ROUGE-2  ROUGE-L")
    print(f"{scores['bleu4'] * 100:.1f}    {scores['rouge2'] * 100:.1f}     "
          f"{scores['rougeL'] * 100:.1f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    errors = checks.gradient_suite(args.seed)
    worst = 0.0
    for name, err in errors.items():
        print(f"{name:14s} max relative error {err:.3e}")
        worst = max(worst, err)
    if worst >= checks.TOLERANCE:
        print(f"FAIL: {worst:.3e} exceeds tolerance {checks.TOLERANCE:.0e}",
              file=sys.stderr)
        return EXIT_NUMERIC
    print(f"OK: all checks below {checks.TOLERANCE:.0e}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="treecomment",
                     description="code-to-comment generation over token-type trees")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="emit a synthetic corpus")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=_natural_int, default=0)
    p.add_argument("--grammar", choices=("wikisql", "atis"), default="wikisql")
    p.add_argument("--oov-fraction", type=_fraction, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="corpus JSONL -> trees + vocabularies")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-freq-source", type=_positive_int, default=4)
    p.add_argument("--min-freq-target", type=_positive_int, default=4)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("stats", help="tree statistics per split")
    p.add_argument("trees", nargs="+")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model into a run directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dev")
    p.add_argument("--config")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--set", action="append", type=_override, metavar="KEY=VALUE",
                   help="override a config field (flags win)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode comments for code inputs")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--lang", choices=("sql", "lambda"),
                   help="treat input as raw code lines in this language")
    p.add_argument("--checkpoint", choices=("best", "final"), default="best")
    p.add_argument("--trace", help="write per-step decoding traces (JSONL)")
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score candidates against references")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--keep-empty", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p.add_argument("--seed", type=_natural_int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
