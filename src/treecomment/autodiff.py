"""Dense float64 tensors with tape-based reverse-mode differentiation.

The graph is dynamic and rebuilt per example (tree shapes vary). A traced
operation records three things on its output: the input tensors
(``_parents``), a module-level backward function (``_backward``) and at most
one small context value the forward result does not already hold
(``_ctx``: a scalar factor, an index array, a divisor, or the gate values
and index plan of a fused cell). ``backward()`` on a scalar calls
``_backward(node, node.grad, node._parents)`` for every traced ancestor in
reverse topological order, then clears the three slots so a tape is never
replayed twice. The walk pushes only traced tensors; leaves just receive
gradients. Graphs are never shared between threads.

Most of the cost of a tape is Python bookkeeping per op, not arithmetic, so
the recurrent cells are fused and batched. ``tree_lstm`` runs an N-ary
Tree-LSTM over every node of a forest as one op, by the index plan of a
``TreePlan``: level by level over node height, one matrix product per
weight (for the input weights, one per weight for the whole forest), and a
hand-written backward that runs the levels top-down and forms each weight
gradient as one matrix product over all the rows that used the weight. It
knows no grammar: the plan names weights by integer keys. ``lstm`` runs T
decoder steps as one op over gate weights bound once as views of stacked
arrays (``bind_lstm_gates``): the input products of all four gates are one
matrix product over the T rows, each step adds one stacked recurrent
product, and the backward is hand-written BPTT whose weight gradients are
again one matrix product over all steps. Both return a matrix of states
(``[H; C]`` for a forest, ``[h_1 .. h_T; c_T]`` for the LSTM) that ``row``
and ``rows`` read; ``embedding_means`` gives the token-mean inputs of all
of a forest's nodes at once.

The ops the decoder heads need work on a single vector or on a matrix with
one row per position: ``linear`` (``x @ W.T``), ``softmax`` and ``concat``
over the last axis, ``matmul`` with a vector on the left, the copy damping
``damp``, and the gathers ``rows`` and ``pick``. So one head computes a
single decoding step or every teacher-forced position at once.

No operation creates a function object, and a tensor refers only to its
inputs, never to itself or to anything downstream. A graph is therefore
acyclic as a set of Python objects, and reference counting frees it as soon
as its last tensor is dropped, whether or not ``backward()`` ran; the cycle
collector has nothing to find.

Only the handful of operations the tree encoder / decoder actually need are
provided; there is no broadcasting beyond scalar multiples and a leading row
axis, and no GPU path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform to the requested operation."""


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A numpy float64 array plus an optional gradient slot.

    ``requires_grad`` marks leaves (parameters); intermediate results are
    traced whenever any input is traced and recording is enabled.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_ctx", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._ctx = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g)  # copy: g may be a shared or sliced buffer
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate ``grad`` on every traced ancestor of this scalar.

        The traversal consumes the graph: parent links, backward functions
        and contexts are dropped afterwards so a tape is never replayed twice.
        """
        if self.data.shape != ():
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        # iterative depth-first post-order; ``expanded`` runs parallel to
        # ``stack`` and marks entries whose parents were already pushed
        topo: list[Tensor] = []
        seen: set[Tensor] = set()  # tensors hash by identity
        stack: list[Tensor] = [self]
        expanded: list[bool] = [False]
        # Leaves (no ``_backward``) are never pushed: they only receive
        # gradients, so their place in the order does not matter.
        while stack:
            node = stack.pop()
            if expanded.pop():
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append(node)
            expanded.append(True)
            for parent in node._parents:
                if parent._backward is not None and parent not in seen:
                    stack.append(parent)
                    expanded.append(False)
        self._accumulate(np.ones((), dtype=np.float64))
        for node in reversed(topo):
            fn = node._backward
            if fn is not None:
                fn(node, node.grad, node._parents)
                node._parents = ()
                node._backward = None
                node._ctx = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def _result(data: np.ndarray, inputs: tuple[Tensor, ...], backward, ctx=None) -> Tensor:
    """Wrap ``data``; record ``inputs``, ``backward`` and ``ctx`` when traced.

    Traced outputs get requires_grad=True, so one flag covers leaves and
    intermediates alike.
    """
    out = Tensor(data)
    if _GRAD_ENABLED:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                out._parents = inputs
                out._backward = backward
                out._ctx = ctx
                break
    return out


# Backward functions: ``fn(out, g, parents)`` adds each input's share of the
# output gradient ``g`` into that input. They read the forward result from
# ``out.data`` and any other saved value from ``out._ctx``.

def _add_bw(out, g, parents):
    a, b = parents
    a._accumulate(g)
    b._accumulate(g)


def _sub_bw(out, g, parents):
    a, b = parents
    a._accumulate(g)
    b._accumulate(-g)


def _mul_scalar_bw(out, g, parents):
    parents[0]._accumulate(out._ctx * g)


def _mul_bw(out, g, parents):
    a, b = parents
    a._accumulate(b.data * g)
    b._accumulate(a.data * g)


def _div_bw(out, g, parents):
    a, s = parents
    denom = out._ctx
    a._accumulate(g / denom)
    s._accumulate(np.asarray(-(g * a.data).sum() / denom ** 2))


def _matvec_bw(out, g, parents):
    a, b = parents
    a._accumulate(g[:, None] * b.data)  # np.outer without its wrapper
    b._accumulate(a.data.T @ g)


def _matmat_bw(out, g, parents):
    a, b = parents
    a._accumulate(g @ b.data.T)
    b._accumulate(a.data.T @ g)


def _vecmat_bw(out, g, parents):
    a, b = parents
    a._accumulate(b.data @ g)
    b._accumulate(a.data[:, None] * g)


def _linear_bw(out, g, parents):
    x, w = parents
    x._accumulate(g @ w.data)
    w._accumulate(g.T @ x.data if g.ndim == 2 else g[:, None] * x.data)


def _dot_bw(out, g, parents):
    a, b = parents
    a._accumulate(g * b.data)
    b._accumulate(g * a.data)


def _transpose_bw(out, g, parents):
    parents[0]._accumulate(g.T)


def _concat_bw(out, g, parents):
    lo = 0
    for p in parents:
        hi = lo + p.data.shape[-1]
        p._accumulate(g[..., lo:hi])
        lo = hi


def _stack_rows_bw(out, g, parents):
    for i, r in enumerate(parents):
        r._accumulate(g[i])


def _sigmoid_bw(out, g, parents):
    y = out.data
    parents[0]._accumulate(g * y * (1.0 - y))


def _tanh_bw(out, g, parents):
    y = out.data
    parents[0]._accumulate(g * (1.0 - y * y))


def _softmax_bw(out, g, parents):
    # per row, dx_i = y_i * (g_i - <g, y>); masked entries have y_i = 0 and
    # stay zero
    y = out.data
    parents[0]._accumulate(y * (g - (g * y).sum(axis=-1, keepdims=True)))


def _log_bw(out, g, parents):
    x = parents[0]
    x._accumulate(g / x.data)


def _sumall_bw(out, g, parents):
    x = parents[0]
    x._accumulate(np.full_like(x.data, float(g)))


def _at_bw(out, g, parents):
    x = parents[0]
    full = np.zeros_like(x.data)
    full[out._ctx] = float(g)
    x._accumulate(full)


def _take_bw(out, g, parents):
    x = parents[0]
    full = np.zeros_like(x.data)
    np.add.at(full, out._ctx, g)
    x._accumulate(full)


def _embedding_mean_bw(out, g, parents):
    table = parents[0]
    idx = out._ctx
    full = np.zeros_like(table.data)
    np.add.at(full, idx, g * (1.0 / len(idx)))
    table._accumulate(full)


def _row_bw(out, g, parents):
    m = parents[0]
    if m.grad is None:
        m.grad = np.zeros_like(m.data)
    m.grad[out._ctx] += g


def _rows_bw(out, g, parents):
    m = parents[0]
    if m.grad is None:
        m.grad = np.zeros_like(m.data)
    if isinstance(out._ctx, slice):
        m.grad[out._ctx] += g
    else:
        np.add.at(m.grad, out._ctx, g)


def _pick_bw(out, g, parents):
    m = parents[0]
    r, c = out._ctx
    if m.grad is None:
        m.grad = np.zeros_like(m.data)
    np.add.at(m.grad, (r, c), g[r])


def _damp_bw(out, g, parents):
    # a renormalized row y = d / sum(d) with d = p * keep: the gradient of d
    # is (g - <g, y>) / sum(d); passed-through rows take g, dead rows nothing
    keep, total, live, active = out._ctx
    y = out.data
    gd = (g - (g * y).sum(axis=-1, keepdims=True)) / total
    parents[0]._accumulate(np.where(live, gd * keep, np.where(active, 0.0, g)))


def _lstm_bw(out, g, parents):
    x, h0, c0 = parents[0], parents[1], parents[2]
    gates, cells, tc = out._ctx
    w, u = parents[3].data.base, parents[4].data.base  # the bound stacks
    steps, d = tc.shape
    i, f, o, cand = (gates[:, k * d:(k + 1) * d] for k in range(4))
    # pre-activation gradient per unit of dc (input, forget, update gates)
    # and of dh (output gate), for every step at once
    i_dc = cand * i * (1.0 - i)
    f_dc = cells[:-1] * f * (1.0 - f)
    u_dc = i * (1.0 - cand * cand)
    o_dh = tc * o * (1.0 - o)
    c_dh = o * (1.0 - tc * tc)
    das = np.empty_like(gates)
    dh = np.zeros(d)
    dc = g[steps].copy()
    for t in range(steps - 1, -1, -1):
        gh = g[t] + dh
        dc = dc + c_dh[t] * gh
        da = das[t]
        np.multiply(dc, i_dc[t], out=da[:d])
        np.multiply(dc, f_dc[t], out=da[d:2 * d])
        np.multiply(gh, o_dh[t], out=da[2 * d:3 * d])
        np.multiply(dc, u_dc[t], out=da[3 * d:])
        dh = da @ u
        dc = f[t] * dc
    x._accumulate(das @ w)
    h0._accumulate(dh)
    c0._accumulate(dc)
    # the recurrent input of step t is h_{t-1}: h0, then the outputs but the last
    h_prev = np.vstack((h0.data, out.data[:steps - 1]))
    dw, du, db = das.T @ x.data, das.T @ h_prev, das.sum(axis=0)
    # parents[3:] is (W, U, b) per gate
    for k in range(4):
        gate_rows = slice(k * d, (k + 1) * d)
        parents[3 + 3 * k]._accumulate(dw[gate_rows])
        parents[4 + 3 * k]._accumulate(du[gate_rows])
        parents[5 + 3 * k]._accumulate(db[gate_rows])


def _tree_lstm_bw(out, g, parents):
    plan, gates = out._ctx
    phi = parents[0]
    affine = parents[1:1 + 2 * len(plan.affine)]
    recurrent = parents[1 + len(affine):]
    n = plan.nodes
    hs, cs = out.data[:n], out.data[n:]
    gh, gc = g[:n].copy(), g[n:].copy()
    das = np.empty_like(gates)
    # top-down: a level's gradients are complete once every level above ran
    for nodes, r0, r1, kids, groups in reversed(plan.levels):
        m = len(nodes)
        gate, da = gates[r0:r1], das[r0:r1]
        i, o, u = gate[:m], gate[m:2 * m], gate[2 * m:3 * m]
        tc = np.tanh(cs[nodes])
        dh = gh[nodes]
        dc = gc[nodes] + o * dh * (1.0 - tc * tc)
        da[:m] = u * dc * i * (1.0 - i)
        da[m:2 * m] = tc * dh * o * (1.0 - o)
        da[2 * m:3 * m] = i * dc * (1.0 - u * u)
        lo = 3 * m
        for kid in kids:
            hi = lo + len(kid)
            f, dck = gate[lo:hi], dc[:len(kid)]
            da[lo:hi] = cs[kid] * dck * f * (1.0 - f)
            gc[kid] += f * dck
            lo = hi
        for w, rows, src in groups:
            np.add.at(gh, src, das[rows] @ recurrent[w].data)
    # each weight's gradient is one product over every row that used it
    dphi = np.zeros_like(phi.data)
    for k, (rows, xs) in enumerate(plan.affine):
        w, b = affine[2 * k], affine[2 * k + 1]
        da = das[rows]
        w._accumulate(da.T @ phi.data[xs])
        b._accumulate(da.sum(axis=0))
        np.add.at(dphi, xs, da @ w.data)
    for u, (rows, src) in zip(recurrent, plan.recurrent):
        u._accumulate(das[rows].T @ hs[src])
    phi._accumulate(dphi)


def _embedding_means_bw(out, g, parents):
    table = parents[0]
    ids, counts = out._ctx
    owners = np.repeat(np.arange(counts.size), counts)
    full = np.zeros_like(table.data)
    np.add.at(full, ids, g[owners] * (1.0 / counts[owners])[:, None])
    table._accumulate(full)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return _result(a.data + b.data, (a, b), _add_bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}")
    return _result(a.data - b.data, (a, b), _sub_bw)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; ``b`` may be a same-shape Tensor or a python float."""
    if not isinstance(b, Tensor):
        k = float(b)
        return _result(a.data * k, (a,), _mul_scalar_bw, k)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    return _result(a.data * b.data, (a, b), _mul_bw)


def div(a: Tensor, s: Tensor) -> Tensor:
    """Divide ``a`` by a scalar tensor ``s`` (shape ())."""
    if s.shape != ():
        raise ShapeError(f"div: divisor must be scalar, got {s.shape}")
    denom = float(s.data)
    return _result(a.data / denom, (a, s), _div_bw, denom)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (m,n)@(n,p) -> (m,p), (m,n)@(n,) -> (m,) or, with a
    vector on the left, (n,)@(n,p) -> (p,)."""
    if a.data.ndim == 1 and b.data.ndim == 2:
        backward = _vecmat_bw
    elif a.data.ndim != 2:
        raise ShapeError(f"matmul: left operand must be 1-D or 2-D, got {a.shape}")
    elif b.data.ndim == 1:
        backward = _matvec_bw
    elif b.data.ndim == 2:
        backward = _matmat_bw
    else:
        raise ShapeError(f"matmul: unsupported right operand shape {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    return _result(a.data @ b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w.T`` for a vector (k,) -> (m,) or one per row, (T,k) -> (T,m),
    with ``w`` of shape (m, k). A vector gives ``w @ x`` exactly."""
    if w.data.ndim != 2 or x.data.ndim not in (1, 2) or x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"linear: {x.shape} against weights {w.shape}")
    data = w.data @ x.data if x.data.ndim == 1 else x.data @ w.data.T
    return _result(data, (x, w), _linear_bw)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeError(f"dot: {a.shape} vs {b.shape}")
    return _result(np.asarray(a.data @ b.data), (a, b), _dot_bw)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: need 2-D, got {a.shape}")
    return _result(a.data.T.copy(), (a,), _transpose_bw)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join vectors, or matrices with equal row counts, along the last axis."""
    parts = tuple(parts)
    if len({p.data.shape[:-1] for p in parts}) != 1 or parts[0].data.ndim not in (1, 2):
        raise ShapeError("concat: needs 1-D tensors, or 2-D ones with equal row counts")
    return _result(np.concatenate([p.data for p in parts], axis=-1), parts, _concat_bw)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors into a matrix, one per row."""
    rows = tuple(rows)
    if not rows or any(r.data.ndim != 1 for r in rows):
        raise ShapeError("stack_rows: needs one or more 1-D tensors")
    if len({r.size for r in rows}) != 1:
        raise ShapeError("stack_rows: rows differ in length")
    return _result(np.stack([r.data for r in rows]), rows, _stack_rows_bw)


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def sigmoid(x: Tensor) -> Tensor:
    return _result(_sigmoid(x.data), (x,), _sigmoid_bw)


def tanh(x: Tensor) -> Tensor:
    return _result(np.tanh(x.data), (x,), _tanh_bw)


def softmax(x: Tensor, keep: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis of a vector or of each row of a matrix.

    ``keep`` is an optional boolean mask over the last axis, shared by every
    row: entries where it is False get probability exactly 0.0 and receive no
    gradient. This realizes additive minus-infinity masking without
    NaN-producing arithmetic.
    """
    if x.data.ndim not in (1, 2) or x.data.shape[-1] == 0:
        raise ShapeError(f"softmax: need a non-empty last axis on 1-D or 2-D input, "
                         f"got {x.shape}")
    if keep is None:
        kept = x.data
        z = np.exp(kept - kept.max(axis=-1, keepdims=True))
        y = z / z.sum(axis=-1, keepdims=True)
    else:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != x.shape[-1:]:
            raise ShapeError(f"softmax: mask shape {keep.shape} vs {x.shape}")
        if not keep.any():
            raise ShapeError("softmax: mask removes every entry")
        y = np.zeros_like(x.data)
        kept = x.data[..., keep]
        z = np.exp(kept - kept.max(axis=-1, keepdims=True))
        y[..., keep] = z / z.sum(axis=-1, keepdims=True)
    return _result(y, (x,), _softmax_bw)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        raise ValueError("log: input has non-positive entries")
    return _result(np.log(x.data), (x,), _log_bw)


def sumall(x: Tensor) -> Tensor:
    return _result(np.asarray(x.data.sum()), (x,), _sumall_bw)


def at(x: Tensor, i: int) -> Tensor:
    """Scalar view of one entry of a 1-D tensor."""
    if x.data.ndim != 1:
        raise ShapeError(f"at: need 1-D, got {x.shape}")
    return _result(np.asarray(x.data[i]), (x,), _at_bw, i)


def take(x: Tensor, indices: Iterable[int]) -> Tensor:
    idx = np.asarray(list(indices), dtype=np.intp)
    if x.data.ndim != 1:
        raise ShapeError(f"take: need 1-D, got {x.shape}")
    return _result(x.data[idx], (x,), _take_bw, idx)


def embedding_mean(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Arithmetic mean of the embedding rows for ``ids``; empty -> zero vector."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_mean: table must be 2-D, got {table.shape}")
    if len(ids) == 0:
        return Tensor(np.zeros(table.shape[1]))
    idx = np.asarray(ids, dtype=np.intp)
    return _result(table.data[idx].mean(axis=0), (table,), _embedding_mean_bw, idx)


def embedding_means(table: Tensor, ids: Sequence[int], counts: Sequence[int]) -> Tensor:
    """One mean embedding per row: row r averages the rows of ``table`` named
    by the next ``counts[r]`` entries of ``ids``, and is zero when
    ``counts[r]`` is 0. Returns a (len(counts), columns) matrix."""
    idx = _ids(ids)
    counts = _ids(counts)
    if table.data.ndim != 2 or idx.ndim != 1 or counts.ndim != 1 \
            or (counts < 0).any() or counts.sum() != idx.size:
        raise ShapeError(f"embedding_means: table {table.shape}, {idx.size} ids and counts "
                         f"summing to {counts.sum()}")
    data = np.zeros((counts.size, table.data.shape[1]))
    filled = np.flatnonzero(counts)
    if filled.size:
        starts = (np.cumsum(counts) - counts)[filled]
        sums = np.add.reduceat(table.data[idx], starts, axis=0)
        sums /= counts[filled, None]
        data[filled] = sums
    return _result(data, (table,), _embedding_means_bw, (idx, counts))


def row(m: Tensor, i: int) -> Tensor:
    """Row ``i`` of a 2-D tensor; it shares the matrix's memory."""
    if m.data.ndim != 2:
        raise ShapeError(f"row: need 2-D, got {m.shape}")
    return _result(m.data[i], (m,), _row_bw, i)


def rows(m: Tensor, ids: Sequence[int] | slice) -> Tensor:
    """Rows ``ids`` of a 2-D tensor, in order and with repeats allowed: a
    (len(ids), columns) matrix. A slice of rows shares the matrix's memory."""
    if isinstance(ids, slice):
        if m.data.ndim != 2:
            raise ShapeError(f"rows: need a 2-D tensor, got {m.shape}")
        return _result(m.data[ids], (m,), _rows_bw, ids)
    idx = np.asarray(ids, dtype=np.intp)
    if m.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"rows: need a 2-D tensor and 1-D ids, got {m.shape}, {idx.shape}")
    return _result(m.data[idx], (m,), _rows_bw, idx)


def pick(m: Tensor, row_ids: Sequence[int], col_ids: Sequence[int]) -> Tensor:
    """Per-row sums of chosen entries of a matrix: entry r of the result sums
    ``m[row_ids[k], col_ids[k]]`` over every k with ``row_ids[k] == r``, and
    is 0 where nothing is chosen. The result has one entry per row of ``m``."""
    r = np.asarray(row_ids, dtype=np.intp)
    c = np.asarray(col_ids, dtype=np.intp)
    if m.data.ndim != 2 or r.ndim != 1 or r.shape != c.shape:
        raise ShapeError(f"pick: need a 2-D tensor and equal 1-D index lists, got "
                         f"{m.shape}, {r.shape}, {c.shape}")
    data = np.zeros(m.data.shape[0])
    np.add.at(data, r, m.data[r, c])
    return _result(data, (m,), _pick_bw, (r, c))


def damp(probs: Tensor, decay: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Copy damping of a distribution (a vector) or of one per row (a matrix).

    A row whose ``decay`` is not all zero is scaled by ``1 - decay`` and
    renormalized; a row whose decay is all zero passes through untouched. A
    row whose damped mass is zero cannot be renormalized: it comes out all
    zero, takes no gradient, and is reported in ``dead`` (shape ``()`` for a
    vector, one flag per row for a matrix). Returns ``(damped, dead)``.
    """
    decay = np.asarray(decay, dtype=np.float64)
    if decay.shape != probs.shape or decay.ndim not in (1, 2):
        raise ShapeError(f"damp: decay {decay.shape} vs probabilities {probs.shape}")
    keep = 1.0 - decay
    damped = probs.data * keep
    total = damped.sum(axis=-1, keepdims=True)
    active = decay.any(axis=-1, keepdims=True)
    live = active & (total > 0.0)
    total = np.where(live, total, 1.0)
    data = np.where(active, damped, probs.data)
    np.divide(data, total, out=data, where=live)
    dead = (active & ~live)[..., 0]
    return _result(data, (probs,), _damp_bw, (keep, total, live, active)), dead


def bind_lstm_gates(weights: Iterable[Tensor]) -> tuple[Tensor, ...]:
    """Bind the twelve gate tensors ``lstm`` takes: (W, U, b) for the input,
    forget, output and update gates, in that order. Each kind is copied
    into one array stacked gate over gate, and every tensor's ``data``
    becomes its gate's rows of that array, so values do not change.

    ``lstm`` then multiplies by the stacks without rebuilding them. A write
    into a tensor's data in place reaches its stack; rebinding ``data``
    unbinds the tensor, and ``lstm`` rejects it. Returns the tensors.
    """
    weights = tuple(weights)
    if len(weights) != 12:
        raise ShapeError(f"lstm: needs 12 weight tensors, got {len(weights)}")
    for kind in range(3):
        gates = weights[kind::3]
        if len({t.shape for t in gates}) != 1:
            raise ShapeError(f"lstm: gate shapes {[t.shape for t in gates]} differ")
        stack = np.concatenate([t.data for t in gates])
        rows = len(stack) // 4
        for k, t in enumerate(gates):
            t.data = stack[k * rows:(k + 1) * rows]
    return weights


def lstm(x: Tensor, h0: Tensor, c0: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """T LSTM steps over the rows of ``x`` (T, n) from the states ``h0`` and
    ``c0`` (d,), as one traced op; returns the (T + 1, d) matrix
    ``[h_1 .. h_T; c_T]``, which for one step is ``[h; c]``.

    ``weights`` is the twelve tensors of ``bind_lstm_gates``. A gate's
    pre-activation at step t is ``W @ x_t + b + U @ h_{t-1}``;
    ``c_t = f * c_{t-1} + i * u`` and ``h_t = o * tanh(c_t)``. The input
    products of all steps are one matrix product with the stacked W, and
    each step adds one product with the stacked U.
    """
    weights = tuple(weights)
    if len(weights) != 12:
        raise ShapeError(f"lstm: needs 12 weight tensors, got {len(weights)}")
    if x.data.ndim != 2 or x.data.shape[0] == 0 or h0.data.ndim != 1 \
            or c0.data.shape != h0.data.shape:
        raise ShapeError(f"lstm: inputs {x.shape} must be a non-empty 2-D matrix and "
                         f"hidden {h0.shape} and cell {c0.shape} equal 1-D shapes")
    steps, d = x.data.shape[0], h0.data.size
    stacks = w, u, b = weights[0].data.base, weights[1].data.base, weights[2].data.base
    for k, t in enumerate(weights):
        if stacks[k % 3] is None or t.data.base is not stacks[k % 3]:
            raise ShapeError("lstm: gate weights are not bound by bind_lstm_gates")
    pre = x.data @ w.T + b
    gates = np.empty((steps, 4 * d))
    cells = np.empty((steps + 1, d))
    tc = np.empty((steps, d))
    data = np.empty((steps + 1, d))
    cells[0] = c0.data
    h = h0.data
    for t in range(steps):
        a = pre[t] + u @ h
        gate = gates[t]
        gate[:3 * d] = _sigmoid(a[:3 * d])
        gate[3 * d:] = np.tanh(a[3 * d:])
        cells[t + 1] = gate[d:2 * d] * cells[t] + gate[:d] * gate[3 * d:]
        tc[t] = np.tanh(cells[t + 1])
        h = data[t] = gate[2 * d:3 * d] * tc[t]
    data[steps] = cells[steps]
    return _result(data, (x, h0, c0) + weights, _lstm_bw, (gates, cells, tc))


def _ids(values) -> np.ndarray:
    return np.asarray(values, dtype=np.intp)


def _runs(*keys: np.ndarray) -> list[int]:
    """Start offsets of the runs of equal rows in the sorted ``keys``
    columns, with the total length last."""
    size = keys[0].size
    change = np.zeros(size, dtype=bool)
    change[:1] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(change).tolist() + [size]


class TreePlan:
    """Index plan of ``tree_lstm`` over a forest of N nodes.

    ``children`` (N, K) lists each node's children in slot order, padded
    with -1; each child comes after its parent and has one parent, so
    concatenated trees whose ids list parents first qualify. A node has 3 +
    n gates for n children: input, output and update, then one per child
    that forgets its cell. ``affine`` (N, 3 + K) keys each gate's (W, b)
    pair, and ``recurrent`` (N, 3 + K, K) each gate's U for each child
    slot; entries past a node's gates or children are ignored. Keys are
    non-negative integers; ``affine_keys`` and ``recurrent_keys`` list the
    distinct ones in increasing order, and ``tree_lstm`` takes one (W, b)
    pair and one U per key, in that order.

    Nodes are grouped into levels by height (leaves are 0), widest first
    within a level. A level's pre-activation rows are the input, output and
    update gates of its nodes, then forget block k for the nodes with at
    least k children, which are a prefix of the level. A group is the rows
    that read one weight (in one level and slot, for U), with the node each
    reads from.
    """

    __slots__ = ("nodes", "rows", "affine_keys", "recurrent_keys", "affine", "recurrent",
                 "levels")

    def __init__(self, children, affine, recurrent):
        children, affine, recurrent = _ids(children), _ids(affine), _ids(recurrent)
        if children.ndim != 2:
            raise ShapeError(f"TreePlan: children must be (nodes, slots), got {children.shape}")
        n, width = children.shape
        if affine.shape != (n, 3 + width) or recurrent.shape != (n, 3 + width, width):
            raise ShapeError(f"TreePlan: keys {affine.shape} and {recurrent.shape} for "
                             f"{n} nodes of up to {width} children")
        has = children >= 0
        arity = has.sum(axis=1)
        slots = np.arange(width)
        parent = np.repeat(np.arange(n), arity)
        kids = children[has]
        if (has != (slots < arity[:, None])).any() or (kids <= parent).any() \
                or (kids >= n).any() or np.bincount(kids, minlength=n).max(initial=0) > 1:
            raise ShapeError("TreePlan: children must fill the first slots, come after "
                             "their parent and have one parent each")
        height = np.zeros(n, dtype=np.intp)
        safe = np.where(has, children, 0)
        while True:  # one pass per level
            up = np.where(has, height[safe] + 1, 0).max(axis=1, initial=0)
            if np.array_equal(up, height):
                break
            height = up
        order = np.lexsort((-arity, height))
        levels = int(height.max(initial=-1)) + 1
        starts = np.searchsorted(height[order], np.arange(levels + 1))
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(n) - starts[height[order]]
        # sizes[l, b]: the rows of block b of level l; forget block k holds
        # the nodes with more than k children
        count = np.bincount(height * (width + 1) + arity,
                            minlength=levels * (width + 1)).reshape(levels, width + 1)
        wide = count[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:]
        sizes = np.concatenate([np.repeat(np.diff(starts)[:, None], 3, axis=1), wide], axis=1)
        block_start = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
        row_of = block_start[height] + pos[:, None]
        gates = np.arange(3 + width) < (3 + arity)[:, None]

        v, b = np.nonzero(gates)
        keys, rows = affine[v, b], row_of[v, b]
        by = np.lexsort((rows, v, keys))
        keys, rows, v = keys[by], rows[by], v[by]
        runs = _runs(keys)
        self.affine_keys = keys[runs[:-1]].tolist()
        self.affine = [(rows[lo:hi], v[lo:hi]) for lo, hi in zip(runs[:-1], runs[1:])]

        v, b, j = np.nonzero(gates[:, :, None] & (slots < arity[:, None])[:, None, :])
        keys, rows, src, level = recurrent[v, b, j], row_of[v, b], children[v, j], height[v]
        by = np.lexsort((rows, src, keys, j, level))
        keys, rows, src, j, level = keys[by], rows[by], src[by], j[by], level[by]
        by = np.argsort(keys, kind="stable")
        runs = _runs(keys[by])
        self.recurrent_keys = keys[by[runs[:-1]]].tolist()
        self.recurrent = [(rows[by[lo:hi]], src[by[lo:hi]]) for lo, hi in zip(runs[:-1], runs[1:])]
        index = np.searchsorted(self.recurrent_keys, keys)
        runs = _runs(level, j, keys)
        groups = [[] for _ in range(levels)]
        for lo, hi in zip(runs[:-1], runs[1:]):
            groups[level[lo]].append((index[lo], rows[lo:hi], src[lo:hi]))

        self.nodes, self.rows = n, int(sizes.sum())
        self.levels = []
        for lev in range(levels):
            nodes = order[starts[lev]:starts[lev + 1]]
            kids = [children[nodes[:size], k] for k, size in enumerate(wide[lev]) if size]
            r0 = int(block_start[lev, 0])
            self.levels.append((nodes, r0, r0 + int(sizes[lev].sum()), kids, groups[lev]))


def tree_lstm(phi: Tensor, affine: Sequence[tuple[Tensor, Tensor]], recurrent: Sequence[Tensor],
              plan: TreePlan) -> Tensor:
    """An N-ary Tree-LSTM over every node of a forest as one traced op;
    returns the (2N, d) matrix ``[H; C]`` of hidden states and cells, row v
    of each for node v.

    ``phi`` (N, d) holds the node inputs, ``affine`` one (W, b) pair per key
    of ``plan.affine_keys`` and ``recurrent`` one U per key of
    ``plan.recurrent_keys`` (see ``TreePlan``). A gate's pre-activation is
    ``W @ phi_v + b + U_1 @ h_1 + ... + U_n @ h_n`` over v's children in
    slot order; ``c = i * u + sum_k f_k * c_k`` and ``h = o * tanh(c)``; a
    leaf has no recurrent terms. Every ``W @ phi + b`` is one matrix product
    per (W, b) pair for the whole forest; the recurrent terms are one
    product per U and level, bottom-up. The backward runs the levels
    top-down and forms each weight gradient as one product over all rows
    that used the weight.
    """
    affine, recurrent = tuple(affine), tuple(recurrent)
    if phi.data.ndim != 2 or phi.data.shape[0] != plan.nodes \
            or len(affine) != len(plan.affine_keys) \
            or len(recurrent) != len(plan.recurrent_keys):
        raise ShapeError(f"tree_lstm: inputs {phi.shape}, {len(affine)} affine and "
                         f"{len(recurrent)} recurrent weights for a plan of {plan.nodes} "
                         f"nodes and {len(plan.affine_keys)} + {len(plan.recurrent_keys)} keys")
    n, d = phi.data.shape
    # pre-activations, which each level overwrites with its gate values
    gates = np.empty((plan.rows, d))
    for (w, b), (rows, xs) in zip(affine, plan.affine):
        product = phi.data[xs] @ w.data.T
        product += b.data
        gates[rows] = product
    data = np.zeros((2 * n, d))
    hs, cs = data[:n], data[n:]
    for nodes, r0, r1, kids, groups in plan.levels:
        m = len(nodes)
        for u, rows, src in groups:  # slots outermost, as the sum runs
            gates[rows] += hs[src] @ recurrent[u].data.T
        gate = gates[r0:r1]
        gate[:2 * m] = _sigmoid(gate[:2 * m])
        gate[2 * m:3 * m] = np.tanh(gate[2 * m:3 * m])
        gate[3 * m:] = _sigmoid(gate[3 * m:])
        cell = gate[:m] * gate[2 * m:3 * m]
        lo = 3 * m
        for kid in kids:
            hi = lo + len(kid)
            cell[:len(kid)] += gate[lo:hi] * cs[kid]
            lo = hi
        cs[nodes] = cell
        hs[nodes] = gate[m:2 * m] * np.tanh(cell)
    inputs = (phi,) + tuple(t for pair in affine for t in pair) + recurrent
    return _result(data, inputs, _tree_lstm_bw, (plan, gates))


def finite_difference_check(loss_fn, params, epsilon: float = 1e-5,
                            max_coords_per_param: int = 6,
                            rng: np.random.Generator | None = None,
                            order: int = 2) -> float:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``params`` is any mapping-like object with ``items()`` yielding
    (name, Tensor) pairs; ``loss_fn`` takes no arguments, rebuilds its graph
    from the current parameter values, and must be deterministic (two
    evaluations are compared bitwise before differencing).

    ``order`` selects the stencil: 2 is the classic central difference; 4 is
    the five-point stencil, whose O(eps^4) truncation lets a larger epsilon
    tame subtraction noise on deep graphs with tiny gradient coordinates.

    Returns max over sampled coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    rng = rng or np.random.default_rng(0)
    entries = list(params.items())
    for _, p in entries:
        p.grad = np.zeros_like(p.data)
    first = loss_fn()
    second = loss_fn()
    if not np.array_equal(first.data, second.data):
        raise ValueError("loss function is not deterministic")
    first.backward()
    analytic = {name: p.grad.copy() for name, p in entries}

    def probe(flat, c, offset):
        flat[c] += offset
        value = float(loss_fn().data)
        return value

    worst = 0.0
    for name, p in entries:
        flat = p.data.reshape(-1)
        n = flat.size
        coords = range(n) if n <= max_coords_per_param else \
            sorted(rng.choice(n, size=max_coords_per_param, replace=False).tolist())
        for c in coords:
            orig = flat[c]
            if order == 2:
                up = probe(flat, c, epsilon)
                flat[c] = orig
                down = probe(flat, c, -epsilon)
                numeric = (up - down) / (2.0 * epsilon)
            else:
                samples = {}
                for k in (-2, -1, 1, 2):
                    flat[c] = orig
                    samples[k] = probe(flat, c, k * epsilon)
                numeric = (samples[-2] - 8.0 * samples[-1]
                           + 8.0 * samples[1] - samples[2]) / (12.0 * epsilon)
            flat[c] = orig
            a = float(analytic[name].reshape(-1)[c])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    for _, p in entries:
        p.grad = np.zeros_like(p.data)
    return worst
