"""Seeded generator of wide lambda-calculus queries and their comments.

Each query is one ``lambda`` over a wide ``and`` conjunction of predicate
applications, in the style of ATIS logical forms. The conjuncts follow a
fixed predicate order and the comment names them in that order, so a short
warm-up training run already produces partly correct comments. Half of the
entity literals come from an open pool of fresh names, which are out of
vocabulary and reach the output only by copying.

Every conjunct is an application headed by a predicate, so the children of
the ``and`` node all have type ``pred``. A corpus that contains one query of
the widest arity therefore exercises every (slot, k, type) forget-gate
parameter that any narrower query can use.
"""

from __future__ import annotations

import numpy as np

MAX_ARITY = 14
OOV_FRACTION = 0.5      # chance that an open-kind entity is a fresh name

# (predicate head, argument kind, comment phrase before the argument);
# an argument kind of None makes a unary predicate whose phrase stands alone
PREDICATES = (
    ("flight", None, "flights"),
    ("nonstop", None, "nonstop"),
    ("round_trip", None, "round trip"),
    ("from", "city", "from"),
    ("to", "city", "to"),
    ("stop", "city", "stopping in"),
    ("day", "day", "on"),
    ("airline", "airline", "with airline"),
    ("class_type", "class", "in class"),
    ("meal", "meal", "serving"),
    ("aircraft", "aircraft", "on aircraft"),
    ("departure_time", "num", "leaving at"),
    ("arrival_time", "num", "arriving at"),
    ("fare", "num", "costing"),
    ("flight_number", "num", "number"),
    ("during", "period", "during the"),
)

_POOLS = {
    "city": ("denver", "boston", "dallas", "atlanta", "oakland", "memphis",
             "phoenix", "seattle"),
    "day": ("monday", "tuesday", "wednesday", "thursday", "friday"),
    "airline": ("ua", "aa", "dl", "co", "us"),
    "class": ("first", "coach", "business"),
    "meal": ("breakfast", "lunch", "dinner", "snack"),
    "aircraft": ("b737", "b757", "dc10", "md80"),
    "period": ("morning", "afternoon", "evening"),
}

# entity kinds whose literal may be drawn from the open pool of fresh names
_OPEN_KINDS = ("city", "airline", "aircraft")

_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "na",
              "pe", "qi", "ro", "su", "ta", "ve", "wo", "xu", "ya", "zo")


def _fresh_name(rng: np.random.Generator, used: set[str]) -> str:
    while True:
        name = "".join(_SYLLABLES[int(i)] for i in rng.integers(len(_SYLLABLES), size=3))
        if name not in used:
            used.add(name)
            return name


def _argument(kind: str, rng: np.random.Generator, used: set[str]) -> str:
    if kind == "num":
        return str(int(rng.integers(1, 24)) * 100)
    if kind in _OPEN_KINDS and rng.random() < OOV_FRACTION:
        return _fresh_name(rng, used)
    pool = _POOLS[kind]
    return pool[int(rng.integers(len(pool)))]


def generate_wide_lambda(n: int, seed: int, stream: int = 0,
                         min_arity: int = 8) -> list[tuple[str, str]]:
    """``n`` (code, comment) pairs whose ``and`` arity is uniform in
    [min_arity, MAX_ARITY]. ``stream`` separates independent draws under one
    seed; the same arguments give the same pairs."""
    rng = np.random.default_rng([seed, stream, 0x1A4B])
    used: set[str] = set()
    pairs = []
    for _ in range(n):
        arity = int(rng.integers(min_arity, MAX_ARITY + 1))
        chosen = sorted(rng.choice(len(PREDICATES), size=arity, replace=False))
        conjuncts, words = [], []
        for idx in chosen:
            head, kind, phrase = PREDICATES[idx]
            if kind is None:
                conjuncts.append(f"( {head} $0 )")
                words.append(phrase)
            else:
                arg = _argument(kind, rng, used)
                conjuncts.append(f"( {head} $0 {arg} )")
                words.append(f"{phrase} {arg}")
        code = f"( lambda $0 e ( and {' '.join(conjuncts)} ) )"
        pairs.append((code, "show " + " ".join(words)))
    return pairs
