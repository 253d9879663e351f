"""Corpus tooling: comment tokenization, vocabularies, batching, synthesis.

The synthetic generator exists so training experiments are reproducible on a
desk: template-rendered comment/code pairs whose value literals are drawn
either from a small recurring pool (frequent, ends up in-vocabulary) or from
an open pool of fresh names (rare, forced out-of-vocabulary) at a
configurable rate, which exercises the copy path.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .parsers import parse_lambda, parse_sql
from .trees import Grammar, Node, TokenTypeTree, get_grammar, tree_from_json, tree_to_json

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")

_PUNCT = ".,!?;:\"()"
_QUOTED_OR_WORD = re.compile(r"'[^']*'|\S+")


def tokenize_comment(text: str) -> list[str]:
    """Lower-case whitespace tokenization with punctuation detached.

    Single-quoted spans survive as one token including the quotes, so copied
    literals keep a well-defined alignment.
    """
    if not text.strip():
        raise ValueError("tokenize_comment: empty text")
    out: list[str] = []
    for chunk in _QUOTED_OR_WORD.findall(text.lower()):
        if len(chunk) >= 2 and chunk.startswith("'") and chunk.endswith("'"):
            out.append(chunk)
            continue
        head: list[str] = []
        while chunk and chunk[0] in _PUNCT:
            head.append(chunk[0])
            chunk = chunk[1:]
        tail: list[str] = []
        while chunk and chunk[-1] in _PUNCT:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(head)
        if chunk:
            out.append(chunk)
        out.extend(reversed(tail))
    return out


@dataclass
class Vocab:
    token_to_id: dict[str, int]
    id_to_token: list[str]
    min_freq: int

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def token_of(self, idx: int) -> str:
        return self.id_to_token[idx]

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def __len__(self) -> int:
        return len(self.id_to_token)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.id_to_token[len(RESERVED):]:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path, min_freq: int = 1) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            kept = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls._from_kept(kept, min_freq)

    @classmethod
    def _from_kept(cls, kept: list[str], min_freq: int) -> "Vocab":
        id_to_token = list(RESERVED) + kept
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")
        return cls(token_to_id=token_to_id, id_to_token=id_to_token, min_freq=min_freq)


def build_vocab(token_streams: Iterable[Sequence[str]], min_freq: int) -> Vocab:
    """Keep tokens with corpus frequency >= min_freq, ordered by frequency
    then lexicographically so ids are stable across rebuilds."""
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts: Counter[str] = Counter()
    for stream in token_streams:
        counts.update(stream)
    for reserved in RESERVED:
        counts.pop(reserved, None)
    kept = sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))
    return Vocab._from_kept(kept, min_freq)


def node_surface(tokens: Sequence[str]) -> tuple[str, ...]:
    """The decoder-side view of a node's token sequence (lower-cased)."""
    return tuple(t.lower() for t in tokens)


def source_token_stream(tree: TokenTypeTree) -> list[str]:
    out: list[str] = []
    for n in tree.nodes:
        out.extend(t.lower() for t in n.tokens)
    return out


@dataclass(frozen=True)
class Example:
    tree: TokenTypeTree
    comment: tuple[str, ...]

    def __post_init__(self):
        if not self.comment:
            raise ValueError("example has an empty comment")


@dataclass(frozen=True)
class Batch:
    examples: tuple[Example, ...]


def batch_iter(examples: Sequence[Example], batch_size: int,
               epoch: int, seed: int) -> Iterator[Batch]:
    """Deterministic epoch-wise shuffle keyed by (seed, epoch); every example
    appears exactly once per epoch, last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not examples:
        raise ValueError("batch_iter: empty corpus")
    order = np.random.default_rng([seed, epoch]).permutation(len(examples))
    for start in range(0, len(examples), batch_size):
        chunk = tuple(examples[i] for i in order[start:start + batch_size])
        yield Batch(examples=chunk)


# --- synthetic corpus -------------------------------------------------------

_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "na",
              "pe", "qi", "ro", "su", "ta", "ve", "wo", "xu", "ya", "zo")

_COLUMNS = ("Capacity", "Population", "Score", "Attendance",
            "Budget", "Height", "Area", "Length")
_COND_COLUMNS = ("Stadium", "City", "Team", "Season",
                 "Player", "Country", "Region", "Coach")
_COMMON_VALUES = ("North Park", "Red Arena", "Green Field", "Old Town",
                  "New Bay", "Blue Lake", "Silver Dome", "East Gate")

_SQL_TEMPLATES = {
    "MAX": "what is the maximum {col} when the {cond} is {val} ?",
    "MIN": "what is the minimum {col} when the {cond} is {val} ?",
    "SUM": "what is the total {col} when the {cond} is {val} ?",
    "AVG": "what is the average {col} when the {cond} is {val} ?",
    "COUNT": "how many rows have a {cond} of {val} ?",
    "": "what is the {col} when the {cond} is {val} ?",
}

_CITIES = ("denver", "boston", "dallas", "atlanta", "oakland", "memphis")


def _pick(rng: np.random.Generator, pool: Sequence[str]) -> str:
    return pool[int(rng.integers(len(pool)))]


def _fresh_name(rng: np.random.Generator, used: set[str], words: int = 2) -> str:
    # three syllables per word keeps accidental cross-name collisions far
    # below any vocabulary threshold
    while True:
        parts = []
        for _ in range(words):
            word = "".join(_pick(rng, _SYLLABLES) for _ in range(3))
            parts.append(word.capitalize())
        name = " ".join(parts)
        if name not in used:
            used.add(name)
            return name


def generate_synthetic(n: int, seed: int, grammar: str = "wikisql",
                       oov_fraction: float = 0.5) -> list[tuple[str, str]]:
    """Produce ``n`` (code, comment) pairs for the requested grammar.

    Comments are deterministic renderings of the code semantics; value
    literals come from the open name pool with probability ``oov_fraction``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= oov_fraction <= 1.0:  # NaN fails too
        raise ValueError(f"oov_fraction must lie in [0, 1], got {oov_fraction}")
    if grammar not in ("wikisql", "atis"):
        raise ValueError(f"no synthetic templates for grammar {grammar!r}")
    rng = np.random.default_rng([seed, 0xC0DE])
    used: set[str] = set()
    pairs: list[tuple[str, str]] = []
    for _ in range(n):
        if grammar == "wikisql":
            agg = _pick(rng, list(_SQL_TEMPLATES))
            col = _pick(rng, _COLUMNS)
            cond = _pick(rng, _COND_COLUMNS)
            if rng.random() < oov_fraction:
                val = _fresh_name(rng, used)
            else:
                val = _pick(rng, _COMMON_VALUES)
            select = f"{agg}({col})" if agg else col
            code = f"SELECT {select} FROM table WHERE {cond} = '{val}'"
            comment = _SQL_TEMPLATES[agg].format(
                col=col.lower(), cond=cond.lower(), val=val.lower())
        else:
            src = _pick(rng, _CITIES)
            if rng.random() < oov_fraction:
                dst = _fresh_name(rng, used, words=1).lower()
            else:
                dst = _pick(rng, _CITIES)
            code = (f"( lambda $0 e ( and ( flight $0 ) "
                    f"( from $0 {src} ) ( to $0 {dst} ) ) )")
            comment = f"show me the flights from {src} to {dst}"
        pairs.append((code, comment))
    return pairs


def examples_from_pairs(pairs: Iterable[tuple[str, str]], lang: str) -> list[Example]:
    parse = parse_sql if lang == "sql" else parse_lambda
    return [Example(tree=parse(code), comment=tuple(tokenize_comment(comment)))
            for code, comment in pairs]


# --- reachability lint ------------------------------------------------------

@dataclass
class LintProblem:
    example_index: int
    position: int
    message: str


def copyable_nodes(tree: TokenTypeTree, grammar: Grammar | None, use_mask: bool = True,
                   generate_only: bool = False) -> list[Node]:
    """The nodes the decoder may copy: those with tokens (there is something
    to emit) whose type ``grammar`` makes available, unless masking is off
    or no grammar is known; in generate-only mode, none."""
    if generate_only:
        return []
    available = grammar.available_types if use_mask and grammar is not None else None
    return [n for n in tree.nodes if n.tokens and (available is None or n.type in available)]


def unit_spans(comment: Sequence[str], surfaces: Iterable[tuple[str, ...]],
               vocab: Vocab) -> list[set[int]]:
    """Per position of ``comment``, the lengths of the units the decoder can
    emit there: 1 for a token of ``vocab``, and the length of each of the
    copyable ``surfaces`` that matches there."""
    comment = tuple(comment)
    by_first: dict[str, set[tuple[str, ...]]] = {}
    for s in surfaces:
        by_first.setdefault(s[0], set()).add(s)
    known = vocab.token_to_id
    spans = []
    for i, token in enumerate(comment):
        here = {len(s) for s in by_first[token] if comment[i:i + len(s)] == s} \
            if token in by_first else set()
        if token in known:
            here.add(1)
        spans.append(here)
    return spans


def follows(comment: Sequence[str], i: int, n: int, prev: int) -> bool:
    """Whether a unit of length ``n`` can be emitted at position ``i`` right
    after a unit of length ``prev``. A multi-token unit is always a copy, and
    copying it fully decays every node with that surface, so the same span
    cannot be copied again at the next step."""
    return n != prev or n < 2 or comment[i - n:i] != comment[i:i + n]


def finishing_units(comment: Sequence[str], spans: list[set[int]]) -> list[set[int]]:
    """Per position, the lengths in ``spans`` after which the rest of
    ``comment`` can still be emitted (see ``follows``): the reachability
    lint's dynamic program, run from the end. The list has one entry past
    the end."""
    m = len(comment)
    # past the end sits the empty remainder, which follows any unit
    good: list[set[int]] = [set() for _ in range(m)] + [{0}]
    for i in range(m - 1, -1, -1):
        for n in spans[i]:
            for after in good[i + n]:
                if follows(comment, i + n, after, n):
                    good[i].add(n)
                    break
    return good


def lint_examples(examples: Sequence[Example], target_vocab: Vocab, *, use_mask: bool = True,
                  generate_only: bool = False) -> list[LintProblem]:
    """Check each comment is reachable from the decoder's action space:
    segmentable into in-vocabulary tokens and full surfaces of the nodes
    ``copyable_nodes`` allows under the decoder's flags, no multi-token span
    copied twice in a row (copy decay forbids it)."""
    problems: list[LintProblem] = []
    for idx, ex in enumerate(examples):
        comment = ex.comment
        tree = ex.tree
        try:
            grammar = get_grammar(tree.grammar) if tree.grammar else None
        except KeyError:
            grammar = None
        surfaces = [node_surface(n.tokens)
                    for n in copyable_nodes(tree, grammar, use_mask, generate_only)]
        spans = unit_spans(comment, surfaces, target_vocab)
        if finishing_units(comment, spans)[0]:
            continue
        # report the furthest position a walk from the start reaches, by
        # (position, length of the unit before it)
        reach: list[set[int]] = [set() for _ in range(len(comment) + 1)]
        reach[0].add(0)
        for i, here in enumerate(spans):
            for n in here:
                if any(follows(comment, i, n, prev) for prev in reach[i]):
                    reach[i + n].add(n)
        stuck = max(i for i, before in enumerate(reach) if before)
        if spans[stuck]:
            message = (f"the span starting with token {comment[stuck]!r} repeats the "
                       f"copy just made, which copy decay forbids")
        else:
            message = (f"token {comment[stuck]!r} is out-of-vocabulary and no "
                       f"copyable node span covers it")
        problems.append(LintProblem(example_index=idx, position=stuck, message=message))
    return problems


# --- corpus files -----------------------------------------------------------

def save_corpus_jsonl(pairs: Iterable[tuple[str, str]], path, lang: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for code, comment in pairs:
            fh.write(json.dumps({"code": code, "lang": lang, "comment": comment},
                                ensure_ascii=False) + "\n")


def load_corpus_jsonl(path) -> list[Example]:
    """Read one example per line: either raw code plus language, or a
    pre-parsed tree document of any grammar. A line that is not a JSON
    object, or whose ``comment``, ``code`` or ``lang`` is not a string,
    raises ``ValueError`` naming the line and the field."""
    out: list[Example] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got {line[:40]}")
            if "comment" not in obj:
                raise ValueError(f"{path}:{lineno}: missing 'comment'")
            for key in ("comment", "code", "lang"):
                if key in obj and not isinstance(obj[key], str):
                    raise ValueError(f"{path}:{lineno}: {key!r} must be a string, "
                                     f"got {json.dumps(obj[key])[:40]}")
            comment = tuple(tokenize_comment(obj["comment"]))
            if "tree" in obj:
                tree_doc = obj["tree"]
                tree = tree_from_json(tree_doc if isinstance(tree_doc, str)
                                      else json.dumps(tree_doc))
            elif "code" in obj:
                lang = obj.get("lang")
                if lang == "sql":
                    tree = parse_sql(obj["code"])
                elif lang == "lambda":
                    tree = parse_lambda(obj["code"])
                else:
                    raise ValueError(f"{path}:{lineno}: unknown lang {lang!r}")
            else:
                raise ValueError(f"{path}:{lineno}: need 'code' or 'tree'")
            out.append(Example(tree=tree, comment=comment))
    return out


def save_trees_jsonl(examples: Sequence[Example], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"tree": json.loads(tree_to_json(ex.tree)),
                                 "comment": " ".join(ex.comment)},
                                ensure_ascii=False) + "\n")
