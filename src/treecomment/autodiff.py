"""Dense float64 tensors with tape-based reverse-mode differentiation.

The graph is dynamic and rebuilt per example (tree shapes vary). A traced
operation records three things on its output: the input tensors
(``_parents``), a module-level backward function (``_backward``) and at most
one small context value the forward result does not already hold
(``_ctx``: a scalar factor, an index array, a divisor, or the gate values
and index plan of a fused cell). ``backward()`` on a scalar calls
``_backward(node, node.grad, node._parents)`` for every traced ancestor in
reverse topological order, then clears the three slots and the node's
gradient, so a tape is never replayed twice and only leaves keep their
gradients. The walk pushes only traced tensors; leaves just receive
gradients. Graphs are never shared between threads.

Most of the cost of a tape is Python bookkeeping per op, not arithmetic, so
the recurrent cells are fused and batched. ``tree_lstm`` runs an N-ary
Tree-LSTM over every node of a forest as one op, by the index plan of a
``TreePlan``: one matrix product per input weight for the whole forest,
then level by level over node height one ``np.matmul`` per bucket of
equal-size groups of recurrent terms, and a hand-written backward that runs
the levels top-down by the same buckets and forms each weight gradient as
one matrix product over all the rows that used the weight. It knows no
grammar: the plan names weights by integer keys. ``lstm`` runs T
decoder steps of B sequences side by side as one op over gate weights bound
once as views of stacked arrays (``bind_lstm_gates``): the input products
of all four gates are one matrix product over the T * B rows, each step
adds one stacked recurrent product over the (B, d) states, and the backward
is hand-written BPTT whose weight gradients are again one matrix product
over all steps. Both return a matrix of states (``[H; C]`` for a forest,
``[h_1 .. h_T; c_T]`` for the LSTM) that ``row`` and ``rows`` read;
``embedding_means`` gives the token-mean inputs of all of a forest's nodes
at once. ``lstm_rows`` runs one step of the same gate arithmetic
(``_lstm_cell``) for B independent rows, recording nothing: the step of
lockstep decoding.

The ops the decoder heads need work on a matrix with one row per position:
``linear`` (``x @ W.T``), ``softmax`` and ``concat`` over the last axis, the
copy damping ``damp``, and the gathers ``rows`` and ``pick``. So one head
computes every teacher-forced position, or one step of many trees at once;
a mask has one row per row. Every product is a ``block_matmul``: equal runs
of rows, each against its own block of a stack, as one ``np.matmul``, or
every row against one matrix. ``matmul``, ``sigmoid`` and ``stack_rows``
have no caller in the library: the tests build their reference
compositions of the fused cells from them, and the gradient suite checks
them.

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

import bisect
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
        """Populate ``grad`` on every leaf this scalar traces back to.

        The traversal consumes the graph: parent links, backward functions
        and contexts are dropped afterwards so a tape is never replayed twice,
        and so is each traced tensor's gradient once its op has passed it on,
        which bounds the gradients alive at once to the walk's frontier.
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
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


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


def _mul_scalar_bw(out, g, parents):
    parents[0]._accumulate(out._ctx * g)


def _mul_bw(out, g, parents):
    a, b = parents
    a._accumulate(b.data * g)
    b._accumulate(a.data * g)


def _block_matmul_bw(out, g, parents):
    x, m = parents
    blocks = m.data.reshape((-1,) + m.data.shape[-2:])
    gs = g.reshape(len(blocks), -1, g.shape[-1])
    runs = x.data.reshape(len(blocks), -1, x.data.shape[-1])
    if out._ctx:  # y = x m.T: dx = g m, dm = g.T x
        dx, dm = np.matmul(gs, blocks), np.matmul(gs.transpose(0, 2, 1), runs)
    else:         # y = x m: dx = g m.T, dm = x.T g
        dx, dm = np.matmul(gs, blocks.transpose(0, 2, 1)), np.matmul(runs.transpose(0, 2, 1), gs)
    x._accumulate(dx.reshape(x.data.shape))
    m._accumulate(dm.reshape(m.data.shape))


def _dot_bw(out, g, parents):
    a, b = parents
    a._accumulate(g * b.data)
    b._accumulate(g * a.data)


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


def _take_bw(out, g, parents):
    x = parents[0]
    full = np.zeros_like(x.data)
    np.add.at(full, out._ctx, g)
    x._accumulate(full)


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
    steps, batch, d = tc.shape
    g = g.reshape(steps + 1, batch, d)
    i, f, o, cand = (gates[..., k * d:(k + 1) * d] for k in range(4))
    # the pre-activation gradient per unit of dc (input, forget, update
    # gates) and of dh (output gate), for every step at once, written over
    # the gate values, which nothing reads again: the tape is consumed
    c_dh = o * (1.0 - tc * tc)
    forget = f.copy()
    u_dc = i * (1.0 - cand * cand)
    np.multiply(cand * i, 1.0 - i, out=i)
    cand[...] = u_dc
    np.multiply(cells[:-1] * f, 1.0 - f, out=f)
    np.multiply(tc * o, 1.0 - o, out=o)
    das = gates
    dh = np.zeros((batch, d))
    dc = g[steps].copy()
    for t in range(steps - 1, -1, -1):
        gh = g[t] + dh
        dc = dc + c_dh[t] * gh
        da = das[t]
        da[:, :d] *= dc
        da[:, d:2 * d] *= dc
        da[:, 2 * d:3 * d] *= gh
        da[:, 3 * d:] *= dc
        dh = da @ u
        dc = forget[t] * dc
    das = das.reshape(steps * batch, 4 * d)
    x._accumulate(das @ w)
    h0._accumulate(dh)
    c0._accumulate(dc)
    # the recurrent input of step t is h_{t-1}: h0, then the outputs but the last
    h_prev = np.vstack((h0.data, out.data[:(steps - 1) * batch]))
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
    affine = parents[1:1 + 2 * len(plan.affine_keys)]
    recurrent = parents[1 + len(affine):]
    n = plan.nodes
    hs, cs = out.data[:n], out.data[n:]
    gh, gc = g[:n].copy(), g[n:].copy()
    das = np.empty_like(gates)
    # top-down: a level's gradients are complete once every level above ran
    for nodes, r0, r1, forget, rows, src, _, buckets in reversed(plan.levels):
        m = len(nodes)
        gate, da = gates[r0:r1], das[r0:r1]
        i, o, u = gate[:m], gate[m:2 * m], gate[2 * m:3 * m]
        tc = np.tanh(cs[nodes])
        dh = gh[nodes]
        dc = gc[nodes] + o * dh * (1.0 - tc * tc)
        da[:m] = u * dc * i * (1.0 - i)
        da[m:2 * m] = tc * dh * o * (1.0 - o)
        da[2 * m:3 * m] = i * dc * (1.0 - u * u)
        kids, at, _ = forget
        f, dck = gate[3 * m:], dc[at]
        da[3 * m:] = cs[kids] * dck * f * (1.0 - f)
        gc[kids] += f * dck
        if len(rows):
            _add_rows(gh, src, _terms(das, recurrent, len(rows), buckets, True))
    # each weight's gradient is one product over every row that used it
    dphi = np.zeros_like(phi.data)
    rows, xs, bounds = plan.affine
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        w, b = affine[2 * k], affine[2 * k + 1]
        da, x = das[rows[lo:hi]], xs[lo:hi]
        w._accumulate(da.T @ phi.data[x])
        b._accumulate(da.sum(axis=0))
        _add_rows(dphi, x, da @ w.data)
    d = hs.shape[1]
    for r, rows, src, keys in plan.grads:
        da = das[rows].reshape(len(keys), r, d).transpose(0, 2, 1)
        for k, du in zip(keys, np.matmul(da, hs[src].reshape(len(keys), r, d))):
            recurrent[k]._accumulate(du)
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


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; ``b`` may be a same-shape Tensor or a python float."""
    if not isinstance(b, Tensor):
        k = float(b)
        return _result(a.data * k, (a,), _mul_scalar_bw, k)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    return _result(a.data * b.data, (a, b), _mul_bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (m,n)@(n,p) -> (m,p), (m,n)@(n,) -> (m,) or, with a
    vector on the left, (n,)@(n,p) -> (p,), as a ``block_matmul``."""
    if a.data.ndim == 2 and b.data.ndim == 1:
        return block_matmul(b, a, transpose=True)
    return block_matmul(a, b)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w.T`` for each row of ``x``, (T, k) -> (T, m), with ``w`` of
    shape (m, k): a ``block_matmul`` with one block."""
    if w.data.ndim != 2:
        raise ShapeError(f"linear: {x.shape} against weights {w.shape}")
    return block_matmul(x, w, transpose=True)


def block_matmul(x: Tensor, m: Tensor, transpose: bool = False) -> Tensor:
    """Products of the rows of ``x`` with a stack of G blocks ``m`` (G, n, k),
    as one ``np.matmul`` over the stack: the rows split into G equal runs,
    and run g is multiplied by block g, ``x_g @ m_g.T`` with ``transpose``
    and ``x_g @ m_g`` without. A 2-D ``m`` is one block for every row, and
    a vector ``x`` is one row; one block is the plain 2-D product, whose
    floats a stack of one gives too. The result keeps ``x``'s rows."""
    xd, md = x.data, m.data
    inner = md.shape[-1 if transpose else -2]
    if md.ndim not in (2, 3) or xd.ndim not in (1, 2) or xd.shape[-1] != inner \
            or (md.ndim == 3 and (xd.ndim != 2 or len(xd) % len(md))):
        raise ShapeError(f"block_matmul: {x.shape} against blocks {m.shape}")
    if md.ndim == 2:
        data = xd @ (md.T if transpose else md)
    else:
        runs = xd.reshape(len(md), -1, inner)
        data = np.matmul(runs, md.transpose(0, 2, 1) if transpose else md).reshape(len(xd), -1)
    return _result(data, (x, m), _block_matmul_bw, transpose)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeError(f"dot: {a.shape} vs {b.shape}")
    return _result(np.asarray(a.data @ b.data), (a, b), _dot_bw)


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
    """Softmax of each row of a matrix; one distribution is a one-row matrix.

    ``keep`` is an optional boolean mask of the input's shape. Entries where
    it is False get probability exactly 0.0 and receive no gradient, which
    realizes additive minus-infinity masking without NaN-producing
    arithmetic. The normalizer sums the whole row, masked zeros included, so
    an all-True mask gives the unmasked floats. A row that keeps nothing
    comes out all zero.
    """
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise ShapeError(f"softmax: need a 2-D input with columns, got {x.shape}")
    if keep is None:
        z = np.exp(x.data - x.data.max(axis=1, keepdims=True))
        return _result(z / z.sum(axis=1, keepdims=True), (x,), _softmax_bw)
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != x.shape:
        raise ShapeError(f"softmax: mask shape {keep.shape} vs {x.shape}")
    m = np.where(keep, x.data, -np.inf).max(axis=1, keepdims=True)
    z = np.exp(np.where(keep, x.data - m, -np.inf))  # a row that keeps nothing: 0
    total = z.sum(axis=1, keepdims=True)
    return _result(np.divide(z, total, out=z, where=total > 0.0), (x,), _softmax_bw)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        raise ValueError("log: input has non-positive entries")
    return _result(np.log(x.data), (x,), _log_bw)


def sumall(x: Tensor) -> Tensor:
    return _result(np.asarray(x.data.sum()), (x,), _sumall_bw)


def take(x: Tensor, indices: Iterable[int]) -> Tensor:
    idx = np.asarray(list(indices), dtype=np.intp)
    if x.data.ndim != 1:
        raise ShapeError(f"take: need 1-D, got {x.shape}")
    return _result(x.data[idx], (x,), _take_bw, idx)


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


def rows(m: Tensor, ids) -> Tensor:
    """Rows ``ids`` of a 2-D tensor, in order and with repeats allowed: a
    (len(ids), columns) matrix, or for an array of ids one row per id, of
    shape ``ids.shape + (columns,)``. A slice of rows shares the matrix's
    memory."""
    if isinstance(ids, slice):
        if m.data.ndim != 2:
            raise ShapeError(f"rows: need a 2-D tensor, got {m.shape}")
        return _result(m.data[ids], (m,), _rows_bw, ids)
    idx = np.asarray(ids, dtype=np.intp)
    if m.data.ndim != 2 or idx.ndim == 0:
        raise ShapeError(f"rows: need a 2-D tensor and an array of ids, got {m.shape}, "
                         f"{idx.shape}")
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
    """Copy damping of a matrix of distributions, one per row.

    A row whose ``decay`` is not all zero is scaled by ``1 - decay`` and
    renormalized; a row whose decay is all zero passes through untouched. A
    row whose damped mass is zero cannot be renormalized: it comes out all
    zero, takes no gradient, and is flagged in ``dead``, one flag per row.
    Returns ``(damped, dead)``.
    """
    decay = np.asarray(decay, dtype=np.float64)
    if decay.shape != probs.shape or decay.ndim != 2:
        raise ShapeError(f"damp: decay {decay.shape} vs probabilities {probs.shape}")
    keep = 1.0 - decay
    damped = probs.data * keep
    total = damped.sum(axis=-1, keepdims=True)
    active = decay.any(axis=-1, keepdims=True)
    live = active & (total > 0.0)
    total = np.where(live, total, 1.0)
    data = np.where(active, damped, probs.data)
    np.divide(data, total, out=data, where=live)
    dead = (active & ~live)[:, 0]
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


def _gate_stacks(weights: Sequence[Tensor]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked W, U and b arrays of twelve gate tensors bound by
    ``bind_lstm_gates``."""
    if len(weights) != 12:
        raise ShapeError(f"lstm: needs 12 weight tensors, got {len(weights)}")
    stacks = weights[0].data.base, weights[1].data.base, weights[2].data.base
    for k, t in enumerate(weights):
        if stacks[k % 3] is None or t.data.base is not stacks[k % 3]:
            raise ShapeError("lstm: gate weights are not bound by bind_lstm_gates")
    return stacks


def _lstm_cell(a: np.ndarray, c: np.ndarray, gates: np.ndarray, cell: np.ndarray,
               tc: np.ndarray) -> np.ndarray:
    """The gate arithmetic of one LSTM step, row by row for a matrix of
    states: from the pre-activations ``a`` (..., 4d) of the input,
    forget, output and update gates and the previous cell ``c`` (..., d),
    write the gate values into ``gates``, ``c_t`` into ``cell`` and
    ``tanh(c_t)`` into ``tc``, and return ``h_t``."""
    d = c.shape[-1]
    gates[..., :3 * d] = _sigmoid(a[..., :3 * d])
    gates[..., 3 * d:] = np.tanh(a[..., 3 * d:])
    np.add(gates[..., d:2 * d] * c, gates[..., :d] * gates[..., 3 * d:], out=cell)
    np.tanh(cell, out=tc)
    return gates[..., 2 * d:3 * d] * tc


def lstm(x: Tensor, h0: Tensor, c0: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """T LSTM steps of B sequences as one traced op, from the states ``h0``
    and ``c0`` (B, d) over the inputs ``x`` (T * B, n), row ``t * B + b``
    for sequence b at step t. Returns the ((T + 1) * B, d) matrix
    ``[h_1 .. h_T; c_T]`` in that row order; for one step, ``[h; c]``.

    ``weights`` is the twelve tensors of ``bind_lstm_gates``. A gate's
    pre-activation at step t is ``W @ x_t + b + U @ h_{t-1}``;
    ``c_t = f * c_{t-1} + i * u`` and ``h_t = o * tanh(c_t)``. The input
    products of all steps are one matrix product with the stacked W, and
    each step adds one product of the (B, d) states with the stacked U. A
    step past a shorter sequence's end runs on whatever it is fed; when
    nothing reads it, the gradient it sends back is exactly zero.
    """
    weights = tuple(weights)
    w, u, b = _gate_stacks(weights)
    if x.data.ndim != 2 or h0.data.ndim != 2 or c0.data.shape != h0.data.shape:
        raise ShapeError(f"lstm: inputs {x.shape}, hidden {h0.shape} and cell {c0.shape} "
                         f"must be matrices, the states of equal shape")
    batch, d = h0.data.shape
    steps = x.data.shape[0] // batch
    if steps == 0 or steps * batch != x.data.shape[0]:
        raise ShapeError(f"lstm: {x.data.shape[0]} input rows for {batch} sequences")
    pre = (x.data @ w.T + b).reshape(steps, batch, 4 * d)
    gates = np.empty((steps, batch, 4 * d))
    cells = np.empty((steps + 1, batch, d))
    tc = np.empty((steps, batch, d))
    data = np.empty((steps + 1, batch, d))
    cells[0] = c0.data
    h = h0.data
    for t in range(steps):
        h = data[t] = _lstm_cell(pre[t] + h @ u.T, cells[t], gates[t], cells[t + 1], tc[t])
    data[steps] = cells[steps]
    return _result(data.reshape(-1, d), (x, h0, c0) + weights, _lstm_bw, (gates, cells, tc))


def lstm_rows(x: Tensor, h: Tensor, c: Tensor,
              weights: Sequence[Tensor]) -> tuple[Tensor, Tensor]:
    """One LSTM step for each of B independent rows: inputs ``x`` (B, n) and
    states ``h`` and ``c`` (B, d), by the gate arithmetic of ``lstm``;
    returns the next ``(h, c)``, each (B, d).

    For one row the floats equal those of a one-step ``lstm``. The op has no
    backward, so it records nothing, and it refuses to run where a gradient
    would be recorded: call it inside ``no_grad()``.
    """
    weights = tuple(weights)
    w, u, b = _gate_stacks(weights)
    if _GRAD_ENABLED and any(t.requires_grad for t in (x, h, c) + weights):
        raise RuntimeError("lstm_rows records no gradient; call it inside no_grad()")
    if x.data.ndim != 2 or h.data.ndim != 2 or c.data.shape != h.data.shape \
            or x.data.shape[0] != h.data.shape[0]:
        raise ShapeError(f"lstm_rows: inputs {x.shape}, hidden {h.shape} and cell "
                         f"{c.shape} must be matrices with one row per state")
    gates = np.empty((h.data.shape[0], 4 * h.data.shape[1]))
    cell, tc = np.empty_like(c.data), np.empty_like(c.data)
    hidden = _lstm_cell(x.data @ w.T + b + h.data @ u.T, c.data, gates, cell, tc)
    return Tensor(hidden), Tensor(cell)


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
    reads from. The plan holds flat index arrays, not groups:

    - ``affine``: ``(rows, xs, bounds)``, the rows of each (W, b) key and
      the node each reads, key after key; key k owns
      ``bounds[k]:bounds[k + 1]``.
    - ``levels``: per level ``(nodes, r0, r1, forget, rows, src, slots,
      buckets)``. ``nodes`` are the level's nodes, ``r0:r1`` its rows and
      ``forget`` its forget rows: ``(kids, at, blocks)``, the child each
      forgets, the place of its node in the level, and where each block k
      starts, with the total last. ``rows``
      and ``src`` list its recurrent terms slot by slot, by U key within a
      slot: the gate row a term adds to and the child it reads; slot j
      owns ``slots[j]:slots[j + 1]``. Within one slot a row reads one U.
    - A bucket is every group of a level with the same number of rows, r:
      ``(r, pos, src, rows, keys)``, where ``pos`` are the places of its
      terms in the level's order, r per group, ``src`` and ``rows`` their
      children and gate rows, and ``keys`` the U of each group.
    - ``grads``: the U gradients in buckets of keys used by the same number
      of rows, R: ``(R, rows, src, keys)``, each key's rows in level, slot
      and child order.
    """

    __slots__ = ("nodes", "rows", "affine_keys", "recurrent_keys", "affine", "levels",
                 "grads")

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

        v, b = np.nonzero(gates)  # in row order per node
        keys, rows = affine[v, b], row_of[v, b]
        by = np.argsort(keys, kind="stable")
        keys = keys[by]
        runs = _runs(keys)
        self.affine_keys = keys[runs[:-1]].tolist()
        self.affine = (rows[by], v[by], runs)

        # one term per (gate, slot) of a node with a child in the slot; node
        # v has (3 + a) gates times a slots, listed row-major
        terms = (3 + arity) * arity
        v = np.repeat(np.arange(n), terms)
        b, j = np.divmod(np.arange(v.size) - np.repeat(np.cumsum(terms) - terms, terms),
                         np.maximum(arity[v], 1))
        unique, key = np.unique(recurrent[v, b, j], return_inverse=True)
        self.recurrent_keys = unique.tolist()
        # the order the levels run them: level, slot, key, child, row; a
        # group is a run of one (level, slot, key). The sort is stable, so a
        # node's gates stay in row order
        group = (height[v] * width + j) * len(unique) + key
        by = np.argsort(group * n + children[v, j], kind="stable")
        v, b, j, key, group = v[by], b[by], j[by], key[by], group[by]
        rows, src, level = row_of[v, b], children[v, j], height[v]
        runs = _runs(group)
        size = np.repeat(np.diff(runs), np.diff(runs))
        # buckets: the groups of a level with one size, in group order
        bucket = level * (len(size) + 1) + size
        by = np.argsort(bucket, kind="stable")
        first = np.searchsorted(level, np.arange(levels + 1))
        buckets = _runs(bucket[by])
        place = by - first[level[by]]
        level_rows, level_src, level_keys = rows[by], src[by], key[by]

        slot_runs = _runs(level, j)
        # forget rows: each node's k-th child, by level, block k and place
        k = np.arange(kids.size) - np.repeat(np.cumsum(arity) - arity, arity)
        kept = np.argsort((height[parent] * width + k) * n + pos[parent], kind="stable")
        forget_kids, forget_at = kids[kept], pos[parent[kept]]
        forget_first = np.searchsorted(height[parent[kept]], np.arange(levels + 1)).tolist()
        blocks = [[0] + ends[:count] for ends, count in
                  zip(np.cumsum(wide, axis=1).tolist(), (wide > 0).sum(axis=1).tolist())]
        self.nodes, self.rows = n, int(sizes.sum())
        self.levels = []
        at = 0
        for lev in range(levels):
            nodes = order[starts[lev]:starts[lev + 1]]
            e0, e1 = first[lev], first[lev + 1]
            level_buckets = []
            while at + 1 < len(buckets) and buckets[at] < e1:
                lo, hi = buckets[at], buckets[at + 1]
                r = int(size[by[lo]])
                level_buckets.append((r, place[lo:hi], level_src[lo:hi], level_rows[lo:hi],
                                      level_keys[lo:hi:r].tolist()))
                at += 1
            bounds = slot_runs[bisect.bisect_left(slot_runs, e0):
                               bisect.bisect_right(slot_runs, e1)]
            self.levels.append((
                nodes, int(block_start[lev, 0]), int(block_start[lev, 0] + sizes[lev].sum()),
                (forget_kids[forget_first[lev]:forget_first[lev + 1]],
                 forget_at[forget_first[lev]:forget_first[lev + 1]], blocks[lev]),
                rows[e0:e1], src[e0:e1], [x - e0 for x in bounds] or [0], level_buckets))

        # the gradient of U is one product over its rows, in the order above
        total = np.bincount(key, minlength=len(unique))[key]
        by = np.argsort(total * len(unique) + key, kind="stable")
        runs = _runs(total[by])
        self.grads = [(int(total[by[lo]]), rows[by[lo:hi]], src[by[lo:hi]],
                       key[by[lo:hi:total[by[lo]]]].tolist())
                      for lo, hi in zip(runs[:-1], runs[1:])]


def _stack(weights: Sequence[Tensor], keys: Sequence[int]) -> np.ndarray:
    """The ``data`` of ``weights[k]`` for each k of ``keys``, stacked."""
    return np.concatenate([weights[k].data for k in keys]).reshape(
        len(keys), *weights[keys[0]].shape)


def _add_rows(target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``target[index[i]] += values[i]`` for each i in turn, repeated
    indices included: ``np.add.at`` over the flattened rows, which applies
    its indices in order and runs faster than over rows."""
    d = target.shape[1]
    np.add.at(target.reshape(-1), (index[:, None] * d + np.arange(d)).ravel(),
              values.reshape(-1))


def _terms(hs: np.ndarray, weights: Sequence[Tensor], count: int, buckets,
           backward: bool) -> np.ndarray:
    """A level's recurrent terms, in the level's order: ``h @ U.T`` of each
    term's child, or for the backward ``da @ U`` of each term's gate row
    (``hs`` then holds the gate gradients). One ``np.matmul`` per bucket:
    over a stack of equal-shape slices, it gives the floats of each
    slice's own product."""
    d = hs.shape[1]
    terms = np.empty((count, d))
    for r, pos, src, rows, keys in buckets:
        us = _stack(weights, keys)
        x = hs[rows if backward else src].reshape(len(keys), r, d)
        terms[pos] = np.matmul(x, us if backward else us.transpose(0, 2, 1)).reshape(-1, d)
    return terms


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
    per (W, b) pair for the whole forest. Level by level, bottom-up, the
    recurrent terms are one ``np.matmul`` per bucket of the plan, over the
    bucket's U weights stacked for the call; they are added into the gate
    rows slot by slot, so each gate sums its terms in slot order. The
    backward runs the levels top-down by the same buckets and forms each
    U gradient as one product over all rows that used the weight, stacked
    over keys used by as many rows. Each product gives the floats of a
    product per group, so the results do not depend on the buckets.
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
    rows, xs, bounds = plan.affine
    for (w, b), lo, hi in zip(affine, bounds, bounds[1:]):
        product = phi.data[xs[lo:hi]] @ w.data.T
        product += b.data
        gates[rows[lo:hi]] = product
    data = np.zeros((2 * n, d))
    hs, cs = data[:n], data[n:]
    for nodes, r0, r1, forget, rows, src, slots, buckets in plan.levels:
        m = len(nodes)
        terms = _terms(hs, recurrent, len(rows), buckets, False)
        for lo, hi in zip(slots, slots[1:]):
            gates[rows[lo:hi]] += terms[lo:hi]
        gate = gates[r0:r1]
        gate[:2 * m] = _sigmoid(gate[:2 * m])
        gate[2 * m:3 * m] = np.tanh(gate[2 * m:3 * m])
        gate[3 * m:] = _sigmoid(gate[3 * m:])
        cell = gate[:m] * gate[2 * m:3 * m]
        kids, _, blocks = forget
        kept = gate[3 * m:] * cs[kids]
        for lo, hi in zip(blocks, blocks[1:]):
            cell[:hi - lo] += kept[lo:hi]
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
