"""Named parameter collections, Xavier initialization, Adam, checkpoints.

Parameters are created on first lookup and seeded per name, so the set of
materialized tensors (which depends on which grammar types a corpus actually
exercises) never affects the values any individual tensor starts from.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterator

import numpy as np

from .autodiff import Tensor

CHECKPOINT_VERSION = 1
# parameters are vectors and matrices; a rank far above that is a corrupt file
MAX_RANK = 8


def xavier_init(shape, rng: np.random.Generator) -> Tensor:
    """Uniform(-b, b) with b = sqrt(6 / (fan_in + fan_out)).

    fan_in is the trailing dimension, fan_out the leading one; vectors use
    fan_out = 1.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ValueError("xavier_init: shape must have at least one dimension")
    if any(s <= 0 for s in shape):
        raise ValueError(f"xavier_init: non-positive dimension in {shape}")
    fan_in = shape[-1]
    fan_out = shape[0] if len(shape) > 1 else 1
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _name_rng(seed: int, name: str) -> np.random.Generator:
    # Stable across runs and platforms (unlike the salted builtin hash).
    digest = hashlib.sha256(f"{seed}|{name}".encode()).digest()
    return np.random.default_rng(np.frombuffer(digest, dtype=np.uint64))


class ParamStore:
    """Mapping of hierarchical names to trainable tensors.

    Every trainable tensor is created exactly once; gradients are kept
    as always-allocated arrays so the optimizer can treat "no gradient" as
    a caller error rather than a silent zero.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._entries: dict[str, Tensor] = {}

    def get(self, name: str, shape) -> Tensor:
        """Return the named tensor, Xavier-initialized from its name if absent."""
        t = self._entries.get(name)
        if t is not None:
            if t.shape != tuple(shape):
                raise ValueError(f"parameter {name!r}: shape {t.shape} != requested {tuple(shape)}")
            return t
        t = xavier_init(shape, _name_rng(self.seed, name))
        t.name = name
        t.zero_grad()
        self._entries[name] = t
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def names(self) -> list[str]:
        return list(self._entries)

    def zero_grads(self) -> None:
        for t in self._entries.values():
            t.zero_grad()

    def total_values(self) -> int:
        return sum(t.size for t in self._entries.values())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._entries.items()}

    def load_snapshot(self, arrays: dict[str, np.ndarray]) -> None:
        for name, data in arrays.items():
            if name in self._entries:
                t = self._entries[name]
                if t.shape != data.shape:
                    raise ValueError(f"parameter {name!r}: checkpoint shape {data.shape} != {t.shape}")
                t.data[...] = data  # in place: bound views stay bound
            else:
                t = Tensor(data.copy(), requires_grad=True, name=name)
                t.zero_grad()
                self._entries[name] = t


class AdamState:
    """First/second moment slots plus the shared step counter."""

    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def clip_global_norm(store: ParamStore, max_norm: float) -> float:
    # fsum rounds once, so the norm does not depend on the store's order
    norm = math.sqrt(math.fsum(float((p.grad * p.grad).sum())
                               for _, p in store.items() if p.grad is not None))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for _, p in store.items():
            if p.grad is not None:
                p.grad *= scale
    return norm


def adam_step(store: ParamStore, state: AdamState, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update over every parameter in the store.

    Gradients must be populated (arrays, possibly zero) for all entries and
    are zeroed after the update.
    """
    for name, p in store.items():
        if p.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient")
    state.t += 1
    t = state.t
    for name, p in store.items():
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        g = p.grad
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad = np.zeros_like(p.data)


def save_checkpoint(store: ParamStore, path) -> None:
    """Binary dump: header (version, count) then per-parameter records.

    Record layout: u32 name length, name bytes, u32 rank, u32 dims,
    row-major little-endian float64 values. Round-trips bit-exactly.
    """
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(store)))
        for name, p in store.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read back what ``save_checkpoint`` wrote.

    Any other file raises ``ValueError``: an unknown version, a field cut
    short, a rank above ``MAX_RANK``, dimensions whose values run past the end
    of the file, or bytes left over after the last record.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def take(n: int, field: str) -> bytes:
        nonlocal pos
        left = len(buf) - pos
        if n > left:
            raise ValueError(f"checkpoint {path}: {field} at byte {pos} needs "
                             f"{n} bytes, only {left} left")
        pos += n
        return buf[pos - n:pos]

    version, count = struct.unpack("<IQ", take(12, "header"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = take(name_len, "name").decode("utf-8")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        if rank > MAX_RANK:
            raise ValueError(f"checkpoint {path}: {name!r} has implausible rank {rank}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dimensions of {name!r}"))
        raw = take(8 * math.prod(dims), f"values of {name!r} (dimensions {dims})")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).astype(np.float64)
    if pos != len(buf):
        raise ValueError(f"checkpoint {path}: {len(buf) - pos} bytes after the last record")
    return arrays
