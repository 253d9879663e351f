import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecomment import autodiff as ad
from treecomment.autodiff import ShapeError, Tensor, finite_difference_check


def leaf(data):
    return Tensor(np.asarray(data, dtype=float), requires_grad=True)


class TestPrimitivesForward:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_matmul_hand_case(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert out.data.tolist() == [[3.0], [7.0]]

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))

    def test_softmax_empty_errors(self):
        with pytest.raises(ShapeError):
            ad.softmax(Tensor(np.zeros((1, 0))))

    def test_softmax_needs_rows(self):
        # one distribution is a one-row matrix
        with pytest.raises(ShapeError):
            ad.softmax(Tensor([1.0, 2.0]))

    def test_masked_softmax_exact_zeros(self):
        out = ad.softmax(Tensor([[5.0, 1.0, 3.0]]), keep=np.array([[True, False, True]]))
        assert out.data[0, 1] == 0.0
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_per_row_masked_softmax(self):
        x = np.random.default_rng(4).normal(size=(3, 12))
        keep = np.ones((3, 12), dtype=bool)
        keep[0, [1, 4, 5, 9]] = False
        keep[1] = False
        out = ad.softmax(Tensor(x), keep=keep).data
        # each row is the masked softmax of that row alone
        for r in (0, 2):
            alone = ad.softmax(Tensor(x[r:r + 1]), keep=keep[r:r + 1]).data
            assert np.array_equal(out[r], alone[0])
            assert np.array_equal(out[r] == 0.0, ~keep[r])
        assert not out[1].any()  # a row that keeps nothing is all zero
        with pytest.raises(ShapeError):  # a mask has the input's shape
            ad.softmax(Tensor(x), keep=keep[:2])
        with pytest.raises(ShapeError):
            ad.softmax(Tensor(x), keep=keep[0])

    def test_masked_softmax_row_is_layout_free(self):
        # a masked one-row matrix's floats are those of the same row of a
        # taller matrix, whether every row carries its mask or its own
        rng = np.random.default_rng(8)
        for width in range(1, 41):
            for _ in range(20):
                x = rng.normal(scale=3.0, size=(3, width))
                keep = rng.random((3, width)) < 0.6
                keep[1, rng.integers(width)] = True
                vector = ad.softmax(Tensor(x[1:2]), keep=keep[1:2]).data[0]
                shared = ad.softmax(Tensor(x), keep=np.tile(keep[1], (3, 1))).data[1]
                per_row = ad.softmax(Tensor(x), keep=keep).data[1]
                assert np.array_equal(shared, vector), width
                assert np.array_equal(per_row, vector), width

    def test_lstm_rows_equals_one_step_lstm_per_row(self):
        p = op_params()
        weights = lstm_weights(p)
        rng = np.random.default_rng(5)
        x, h, c = (Tensor(rng.normal(size=(3, 4))) for _ in range(3))
        with ad.no_grad():
            hs, cs = ad.lstm_rows(x, h, c, weights)
            for r in range(3):
                state = ad.lstm(Tensor(x.data[r:r + 1]), Tensor(h.data[r:r + 1]),
                                Tensor(c.data[r:r + 1]), weights).data
                assert np.allclose(hs.data[r], state[0], rtol=0.0, atol=1e-15)
                assert np.allclose(cs.data[r], state[1], rtol=0.0, atol=1e-15)
                # one row is the one-step op's floats exactly
                h1, c1 = ad.lstm_rows(Tensor(x.data[r:r + 1]), Tensor(h.data[r:r + 1]),
                                      Tensor(c.data[r:r + 1]), weights)
                assert np.array_equal(h1.data[0], state[0])
                assert np.array_equal(c1.data[0], state[1])
        with pytest.raises(RuntimeError, match="no_grad"):
            ad.lstm_rows(x, h, c, weights)  # the weights require gradients

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ad.log(Tensor([1.0, 0.0]))

    def test_embedding_mean_empty_is_zero(self):
        table = leaf(np.ones((4, 3)))
        out = ad.embedding_means(table, [], [0])
        assert out.data.tolist() == [[0.0, 0.0, 0.0]]
        ad.sumall(out).backward()
        assert not table.grad.any()

    def test_concat_and_take(self):
        out = ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        assert out.data.tolist() == [1.0, 2.0, 3.0]
        assert ad.take(out, [2, 0]).data.tolist() == [3.0, 1.0]

    def test_lstm_cell_equals_gate_composition(self):
        # one step of the LSTM op; it stacks the gate products, so its
        # forward agrees with the per-gate composition to rounding
        def composed(p):
            return lstm_composition(p, [p["x"]])

        assert_fused_equals_composition(
            lambda p: ad.lstm(ad.stack_rows([p["x"]]), *start_states(p), lstm_weights(p)),
            composed, forward_atol=1e-14)

    def test_lstm_steps_equal_chained_gate_compositions(self):
        def composed(p):
            inputs = [ad.row(p["m"], j) for j in (2, 0, 1)]
            return lstm_composition(p, inputs)

        def fused(p):
            out = ad.lstm(ad.rows(p["m"], [2, 0, 1]), *start_states(p), lstm_weights(p))
            # [h_3; c_3], the state the composition ends in
            return ad.rows(out, [2, 3])

        assert_fused_equals_composition(fused, composed, forward_atol=1e-14)

    def test_bound_gates_are_views_of_one_stack_per_kind(self):
        rng = np.random.default_rng(3)
        weights = [leaf(rng.normal(size=(4,) if k % 3 == 2 else (4, 4))) for k in range(12)]
        values = [t.data.copy() for t in weights]
        ad.bind_lstm_gates(weights)
        for k, t in enumerate(weights):
            stack = weights[k % 3].data.base
            assert stack.shape[0] == 16
            assert np.array_equal(stack[(k // 3) * 4:(k // 3 + 1) * 4], values[k])
            assert np.array_equal(t.data, values[k]) and t.data.base is stack

    @pytest.mark.parametrize("shared", [False, True])
    def test_tree_lstm_node_equals_gate_composition(self, shared):
        # the root of a forest whose levels mix arities, against the per-gate
        # composition of primitives; the op's products run over several rows
        # at once, so its forward agrees to rounding
        children = FORESTS["mixed"]
        root = [0, len(children)]  # rows h_0 and c_0 of [H; C]
        assert_fused_equals_composition(
            lambda p: ad.rows(forest(p, children, shared), root),
            lambda p: forest_composition(p, children, shared), forward_atol=1e-14)

    def test_fused_cells_reject_bad_arity(self):
        p = op_params()
        with pytest.raises(ShapeError):
            ad.lstm(p["m"], p["y"], p["pos"], lstm_weights(p)[:11])
        with pytest.raises(ShapeError):  # inputs must be one row per step
            ad.lstm(p["x"], *start_states(p), lstm_weights(p))
        with pytest.raises(ShapeError):  # states must be one row per sequence
            ad.lstm(p["m"], p["y"], p["pos"], lstm_weights(p))
        with pytest.raises(ShapeError):  # gate weights not bound as stacked views
            ad.lstm(p["m"], p["y"], p["pos"], [leaf(t.data.copy()) for t in lstm_weights(p)])
        with pytest.raises(ShapeError):  # gates of one kind differ in shape
            ad.bind_lstm_gates(lstm_weights(p)[:11] + [p["w"]])
        keys = np.zeros((2, 4), dtype=int), np.zeros((2, 4, 1), dtype=int)
        with pytest.raises(ShapeError):  # one child but no forget gate keys
            ad.TreePlan([[1], [-1]], keys[0][:, :3], keys[1][:, :3])
        with pytest.raises(ShapeError):  # a child listed before its parent
            ad.TreePlan([[-1], [0]], *keys)
        with pytest.raises(ShapeError):  # a gap before the last child
            ad.TreePlan([[-1, 1], [-1, -1]], np.zeros((2, 5), int), np.zeros((2, 5, 2), int))
        plan = ad.TreePlan([[1], [-1]], *keys)
        with pytest.raises(ShapeError):  # one (W, b) pair per affine key
            ad.tree_lstm(ad.rows(p["phi"], [0, 1]), [], [p["sq0"]], plan)


class TestBackward:
    def test_linear_case_grad_equals_input(self):
        x = np.array([1.5, -2.0, 0.25])
        w = leaf([0.1, 0.2, 0.3])
        loss = ad.sumall(ad.mul(w, Tensor(x)))
        loss.backward()
        assert np.array_equal(w.grad, x)

    def test_tanh_prime_at_zero_is_one(self):
        w = leaf(np.zeros(5))
        ad.sumall(ad.tanh(w)).backward()
        assert np.array_equal(w.grad, np.ones(5))

    def test_non_scalar_backward_errors(self):
        w = leaf([1.0, 2.0])
        with pytest.raises(ShapeError):
            ad.mul(w, 2.0).backward()

    def test_three_layer_composition_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        params = {
            "w1": leaf(rng.normal(size=(4, 3))),
            "w2": leaf(rng.normal(size=(2, 4))),
            "b": leaf(rng.normal(size=2)),
        }
        x = Tensor(rng.normal(size=3))

        def loss():
            h1 = ad.tanh(ad.matmul(params["w1"], x))
            h2 = ad.sigmoid(ad.add(ad.matmul(params["w2"], h1), params["b"]))
            return ad.sumall(ad.mul(h2, h2))

        err = finite_difference_check(loss, params, epsilon=1e-5,
                                      max_coords_per_param=12)
        assert err < 1e-4

    def test_backward_bitwise_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 3))
        grads = []
        for _ in range(2):
            w = leaf(data.copy())
            loss = ad.sumall(ad.tanh(ad.matmul(w, ad.sigmoid(w))))
            loss.backward()
            grads.append(w.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_graph_consumed_after_backward(self):
        params = op_params()
        losses = [op_loss(params) for op_loss in (*OP_LOSSES.values(),
                                                  *FUSED_LOSSES.values())]
        loss = losses[0]
        for term in losses[1:]:
            loss = ad.add(loss, term)
        nodes = tape(loss)
        recorded = {n._backward for n in nodes} - {None}
        assert recorded == {getattr(ad, name) for name in dir(ad) if name.endswith("_bw")}
        assert any(n._ctx is not None for n in nodes)
        loss.backward()
        for n in nodes:
            assert n._parents == () and n._backward is None and n._ctx is None

    def test_diamond_dependency_accumulates(self):
        # y = w*w + w: dy/dw = 2w + 1
        w = leaf([3.0])
        loss = ad.sumall(ad.add(ad.mul(w, w), w))
        loss.backward()
        assert w.grad.tolist() == [7.0]


def tape(loss):
    """Every tensor reachable from ``loss`` through parent links."""
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def op_params():
    rng = np.random.default_rng(3)
    params = {
        "x": leaf(rng.normal(size=4)),
        "y": leaf(rng.normal(size=4)),
        "pos": leaf(rng.uniform(0.5, 2.0, size=4)),
        "m": leaf(rng.normal(size=(3, 4))),
        "n": leaf(rng.normal(size=(4, 2))),
        "table": leaf(rng.normal(size=(5, 3))),
    }
    # weights for the fused cells: eight square matrices and four biases
    for i in range(8):
        params[f"sq{i}"] = leaf(0.5 * rng.normal(size=(4, 4)))
    for i in range(4):
        params[f"vec{i}"] = leaf(0.5 * rng.normal(size=4))
    # for the row-batched ops: a (2, 4) weight and a positive (3, 4) matrix
    params["w"] = leaf(rng.normal(size=(2, 4)))
    params["pm"] = leaf(rng.uniform(0.5, 2.0, size=(3, 4)))
    # node inputs of the Tree-LSTM forests, one row per node
    params["phi"] = leaf(rng.normal(size=(7, 4)))
    # a stack of two node blocks for ``block_matmul``
    params["blocks"] = leaf(rng.normal(size=(2, 3, 4)))
    # the LSTM reads its gate weights as views of stacked arrays
    ad.bind_lstm_gates(lstm_weights(params))
    return params


# decay rows for ``damp``: renormalized, passed through, and dead (every
# entry fully decayed)
DAMP_ROWS = np.array([[0.5, 0.0, 1.0, 0.25], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])


def assert_fused_equals_composition(fused_fn, composed_fn, forward_atol=0.0):
    """A fused cell's [h; c] equals the per-gate composition of primitives
    (bitwise unless ``forward_atol`` allows rounding), and its gradients
    match within 1e-12 (summation order only)."""
    fused_params, composed_params = op_params(), op_params()
    fused = fused_fn(fused_params)
    hidden, cell = composed_fn(composed_params)
    for got, want in ((ad.row(fused, 0), hidden), (ad.row(fused, 1), cell)):
        if forward_atol:
            assert np.allclose(got.data, want.data, rtol=0.0, atol=forward_atol)
        else:
            assert np.array_equal(got.data, want.data)
    weighted(fused).backward()
    weighted(ad.stack_rows([hidden, cell])).backward()
    for name, p in fused_params.items():
        q = composed_params[name]
        if p.grad is None or q.grad is None:
            assert p.grad is None and q.grad is None, name
        else:
            assert np.allclose(p.grad, q.grad, rtol=0.0, atol=1e-12), name


def lstm_composition(p, inputs):
    """The LSTM as per-gate primitives, one step per input vector from the
    states (y, pos); returns the last (h, c)."""
    w = lstm_weights(p)
    h, c = p["y"], p["pos"]
    for x in inputs:
        act = [ad.add(ad.add(ad.matmul(w[k], x), ad.matmul(w[k + 1], h)), w[k + 2])
               for k in range(0, 12, 3)]
        i, f, o = (ad.sigmoid(a) for a in act[:3])
        c = ad.add(ad.mul(f, c), ad.mul(i, ad.tanh(act[3])))
        h = ad.mul(o, ad.tanh(c))
    return h, c


def start_states(p):
    """The one-row start states (y, pos) of ``lstm_composition``."""
    return ad.stack_rows([p["y"]]), ad.stack_rows([p["pos"]])


def lstm_weights(p):
    """(W, U, b) for the gates i, f, o, u."""
    return [p[f"sq{2 * g}"] if kind == "W" else p[f"sq{2 * g + 1}"] if kind == "U"
            else p[f"vec{g}"] for g in range(4) for kind in "WUb"]


# forests for the Tree-LSTM op: the children of each node, parents first;
# each has seven nodes, so every row of phi is an input
FORESTS = {
    "leaves": [[]] * 7,
    "arity3": [[1, 2, 3], [], [], [], [], [], []],
    # heights 2, 1 and 0; level 1 mixes arities 2 and 1
    "mixed": [[1, 4, 6], [2, 3], [], [], [5], [], []],
    # three trees of 3, 1 and 3 nodes, the last a chain
    "three_trees": [[1, 2], [], [], [], [5], [6], []],
}


def forest_maps(p, children, shared=False):
    """(W, b, U list) per gate of each node. Node v has "type" v % 2, which
    picks its input, output and update weights and, as a child, its slot's
    recurrent weights and the forget weights of its parent. ``shared`` lays
    the weights out as an untyped encoder with tied forget slots does: one
    type, and every forget gate of a node reads one W, one b and, per slot,
    one U. Weights also repeat across gates (indices wrap around)."""
    def sq(i):
        return p[f"sq{i % 8}"]

    def typ(v):
        return 0 if shared else v % 2

    maps = []
    for v, kids in enumerate(children):
        gates = [(sq(2 * g + typ(v)), p[f"vec{g + typ(v)}"],
                  [sq(2 * g + 1 + j + typ(c)) for j, c in enumerate(kids)]) for g in range(3)]
        gates += [(sq(6 + typ(ck)), p[f"vec{3 - typ(ck)}"],
                   [sq(7 + j + typ(c) + (0 if shared else 3 * k)) for j, c in enumerate(kids)])
                  for k, ck in enumerate(kids)]
        maps.append(gates)
    return maps


def forest(p, children, shared=False):
    """The Tree-LSTM op over ``children``, node v's input being row v of
    phi; the plan keys a weight by its place among the parameters."""
    width = max(map(len, children))
    padded = [list(kids) + [-1] * (width - len(kids)) for kids in children]
    tensors = [p[name] for name in sorted(p)]
    code = {id(t): i for i, t in enumerate(tensors)}
    affine = np.zeros((len(children), 3 + width), dtype=int)
    recurrent = np.zeros((len(children), 3 + width, width), dtype=int)
    for v, gates in enumerate(forest_maps(p, children, shared)):
        for b, (w, bias, us) in enumerate(gates):
            affine[v, b] = code[id(w)] * len(tensors) + code[id(bias)]
            recurrent[v, b, :len(us)] = [code[id(u)] for u in us]
    plan = ad.TreePlan(padded, affine, recurrent)
    pairs = [divmod(c, len(tensors)) for c in plan.affine_keys]
    return ad.tree_lstm(ad.rows(p["phi"], range(len(children))),
                        [(tensors[w], tensors[b]) for w, b in pairs],
                        [tensors[c] for c in plan.recurrent_keys], plan)


def forest_composition(p, children, shared=False):
    """The same forest's root (h, c) as per-gate primitives, node by node."""
    maps = forest_maps(p, children, shared)
    h, c = {}, {}
    for v in reversed(range(len(children))):
        phi = ad.row(p["phi"], v)

        def act(w, b, us):
            total = ad.add(ad.matmul(w, phi), b)
            for u, kid in zip(us, children[v]):
                total = ad.add(total, ad.matmul(u, h[kid]))
            return total

        cell = ad.mul(ad.sigmoid(act(*maps[v][0])), ad.tanh(act(*maps[v][2])))
        for k, kid in enumerate(children[v]):
            cell = ad.add(cell, ad.mul(ad.sigmoid(act(*maps[v][3 + k])), c[kid]))
        c[v] = cell
        h[v] = ad.mul(ad.sigmoid(act(*maps[v][1])), ad.tanh(cell))
    return h[0], c[0]


def weighted(t):
    """A scalar that weights every entry of ``tanh(t)`` differently, so a
    gradient routed to the wrong entry changes the result."""
    weights = np.linspace(0.5, 1.5, t.size).reshape(t.shape)
    return ad.sumall(ad.mul(ad.tanh(t), Tensor(weights)))


# one probe loss per traced operation (both forms of mul and matmul)
OP_LOSSES = {
    "add": lambda p: weighted(ad.add(p["x"], p["y"])),
    "mul": lambda p: weighted(ad.mul(p["x"], p["y"])),
    "mul_scalar": lambda p: weighted(ad.mul(p["x"], -1.7)),
    "matmul_vector": lambda p: weighted(ad.matmul(p["m"], p["x"])),
    "matmul_matrix": lambda p: weighted(ad.matmul(p["m"], p["n"])),
    "dot": lambda p: weighted(ad.dot(p["x"], p["y"])),
    "concat": lambda p: weighted(ad.concat([p["x"], p["y"], p["x"]])),
    "stack_rows": lambda p: weighted(ad.stack_rows([p["x"], p["y"], p["x"]])),
    "sigmoid": lambda p: weighted(ad.sigmoid(p["x"])),
    "tanh": lambda p: weighted(ad.tanh(p["x"])),
    # one distribution is a one-row matrix
    "softmax": lambda p: weighted(ad.softmax(ad.stack_rows([p["x"]]))),
    "softmax_masked": lambda p: weighted(
        ad.softmax(ad.stack_rows([p["x"]]), keep=np.array([[True, False, True, True]]))),
    "log": lambda p: weighted(ad.log(p["pos"])),
    "sumall": lambda p: weighted(ad.sumall(p["m"])),
    "take_repeated": lambda p: weighted(ad.take(p["x"], [2, 0, 2, 2])),
    "embedding_means": lambda p: weighted(
        ad.embedding_means(p["table"], [4, 1, 4, 2, 4], [2, 0, 3])),
    "row": lambda p: weighted(ad.row(p["m"], 1)),
    "rows_repeated": lambda p: weighted(ad.rows(p["table"], [4, 1, 4])),
    "rows_slice": lambda p: weighted(ad.rows(p["table"], slice(1, 4))),
    "rows_blocks": lambda p: weighted(ad.rows(p["table"], [[4, 1], [4, 0], [2, 4]])),
    "block_matmul_vector": lambda p: weighted(ad.block_matmul(p["x"], p["pm"], True)),
    "block_matmul_one_block": lambda p: weighted(ad.block_matmul(p["m"], p["pm"], True)),
    "block_matmul_one_block_pool": lambda p: weighted(ad.block_matmul(p["pm"], p["n"])),
    "block_matmul_blocks": lambda p: weighted(ad.block_matmul(p["sq0"], p["blocks"], True)),
    "block_matmul_blocks_pool": lambda p: weighted(
        ad.block_matmul(ad.rows(p["table"], [0, 4, 2, 1]), p["blocks"])),
    "linear_vector": lambda p: weighted(ad.linear(p["x"], p["w"])),
    "linear_matrix": lambda p: weighted(ad.linear(p["m"], p["w"])),
    "matmul_vector_left": lambda p: weighted(ad.matmul(p["x"], p["n"])),
    "concat_rows": lambda p: weighted(ad.concat([p["m"], ad.rows(p["table"], [0, 1, 2]),
                                                 p["m"]])),
    "softmax_rows": lambda p: weighted(ad.softmax(p["m"])),
    "softmax_rows_masked": lambda p: weighted(
        ad.softmax(p["m"], keep=np.tile([True, False, True, True], (3, 1)))),
    "softmax_rows_masked_per_row": lambda p: weighted(
        ad.softmax(p["m"], keep=np.array([[True, False, True, True],
                                          [False, False, False, False],
                                          [False, True, True, False]]))),
    "pick": lambda p: weighted(ad.pick(p["m"], [0, 2, 2, 0], [1, 3, 0, 1])),
    # one distribution is a one-row matrix
    "damp_vector": lambda p: weighted(ad.damp(ad.stack_rows([p["pos"]]), DAMP_ROWS[:1])[0]),
    "damp_rows": lambda p: weighted(ad.damp(p["pm"], DAMP_ROWS)[0]),
}

# one probe loss per fused cell layout
FUSED_LOSSES = {
    "lstm_cell": lambda p: weighted(ad.lstm(ad.stack_rows([p["x"]]), *start_states(p),
                                            lstm_weights(p))),
    "lstm_steps": lambda p: weighted(ad.lstm(ad.rows(p["m"], [2, 0, 2, 1]), *start_states(p),
                                             lstm_weights(p))),
    "lstm_batch": lambda p: weighted(ad.lstm(ad.rows(p["m"], [2, 0, 1, 1, 0, 2]),
                                             ad.stack_rows([p["y"], p["x"]]),
                                             ad.stack_rows([p["pos"], p["y"]]),
                                             lstm_weights(p))),
    "tree_lstm_node_leaf": lambda p: weighted(forest(p, FORESTS["leaves"])),
    "tree_lstm_node_arity3": lambda p: weighted(forest(p, FORESTS["arity3"])),
    "tree_lstm_node_shared": lambda p: weighted(forest(p, FORESTS["arity3"], shared=True)),
    "tree_lstm_mixed": lambda p: weighted(forest(p, FORESTS["mixed"])),
    "tree_lstm_mixed_shared": lambda p: weighted(forest(p, FORESTS["mixed"], shared=True)),
    "tree_lstm_three_trees": lambda p: weighted(forest(p, FORESTS["three_trees"])),
}


def used_params(params, loss):
    return {name: params[name] for name in sorted(params)
            if any(t is params[name] for t in tape(loss))}


@pytest.mark.parametrize("op", sorted(OP_LOSSES))
def test_each_operation_matches_finite_differences(op):
    params = op_params()
    used = used_params(params, OP_LOSSES[op](params))
    assert used
    err = finite_difference_check(lambda: OP_LOSSES[op](params), used,
                                  epsilon=1e-6, max_coords_per_param=12)
    assert err < 1e-6, f"{op}: {err}"


@pytest.mark.parametrize("op", sorted(FUSED_LOSSES))
def test_each_fused_cell_matches_finite_differences(op):
    # a fused cell is a deep graph with many inputs; as in the gradient
    # suite, the five-point stencil at a wider step keeps roundoff on its
    # small gradient coordinates below the tolerance. The LSTM's probes
    # perturb its gate weights through their bound views.
    params = op_params()
    used = used_params(params, FUSED_LOSSES[op](params))
    assert len(used) >= 4
    err = finite_difference_check(lambda: FUSED_LOSSES[op](params), used,
                                  epsilon=1e-3, order=4, max_coords_per_param=16)
    assert err < 1e-6, f"{op}: {err}"


# sequences of every length from 1 to STEPS, run side by side by ``lstm``,
# and the (step, sequence) of each row a loss reads, in the op's row order
LENGTHS = (3, 1, 4, 2)
STEPS, BATCH = max(LENGTHS), len(LENGTHS)
REAL = [(t, b) for t in range(STEPS) for b, n in enumerate(LENGTHS) if t < n]


class TestBatchedLstm:
    """``lstm`` runs B sequences of lengths 1 to T side by side over T steps;
    a step past a sequence's end is padding that nothing reads."""

    @classmethod
    def params(cls):
        """Gate weights, one input row per (step, sequence), padding
        included, and the B start states."""
        p = op_params()
        rng = np.random.default_rng(9)
        p["inputs"] = leaf(rng.normal(size=(STEPS * BATCH, 4)))
        p["h0"] = leaf(rng.normal(size=(BATCH, 4)))
        p["c0"] = leaf(rng.normal(size=(BATCH, 4)))
        return p

    def batched(self, p):
        out = ad.lstm(p["inputs"], p["h0"], p["c0"], lstm_weights(p))
        return ad.rows(out, [t * BATCH + b for t, b in REAL])

    def alone(self, p):
        """Each sequence through its own one-sequence op, rows as ``batched``."""
        outs = [ad.lstm(ad.rows(p["inputs"], [t * BATCH + b for t in range(n)]),
                        ad.rows(p["h0"], [b]), ad.rows(p["c0"], [b]), lstm_weights(p))
                for b, n in enumerate(LENGTHS)]
        return ad.stack_rows([ad.row(outs[b], t) for t, b in REAL])

    def test_matches_finite_differences(self):
        p = self.params()
        used = used_params(p, weighted(self.batched(p)))
        assert {"inputs", "h0", "c0", "sq0", "sq1", "vec0"} <= set(used)
        err = finite_difference_check(lambda: weighted(self.batched(p)), used,
                                      epsilon=1e-3, order=4, max_coords_per_param=16)
        assert err < 1e-6, err

    def test_equals_each_sequence_alone_and_pads_take_no_gradient(self):
        batched, alone = self.params(), self.params()
        out, want = self.batched(batched), self.alone(alone)
        assert np.allclose(out.data, want.data, rtol=0.0, atol=1e-14)
        weighted(out).backward()
        weighted(want).backward()
        padded = np.ones(STEPS * BATCH, dtype=bool)
        padded[[t * BATCH + b for t, b in REAL]] = False
        # a padded step's input takes exactly zero gradient
        assert padded.sum() == 6
        assert np.array_equal(batched["inputs"].grad[padded], np.zeros((6, 4)))
        for name, t in batched.items():
            if t.grad is not None:
                assert np.allclose(t.grad, alone[name].grad, rtol=1e-10, atol=1e-15), name


class TestBlockMatmul:
    """``block_matmul`` multiplies equal runs of rows by their own blocks."""

    def test_one_block_is_the_two_dimensional_product_bit_for_bit(self):
        # lockstep decoding attends over one block: its floats must be those
        # of ``x @ nodes.T`` and ``weights @ nodes``, the products of the
        # 2-D form, and a stack of one block must give them too
        rng = np.random.default_rng(12)
        for _ in range(2000):
            rows, nodes = (int(k) for k in rng.integers(1, 80, size=2))
            d = int(rng.choice([4, 8, 16, 32, 64]))
            x, m = rng.normal(size=(rows, d)), rng.normal(size=(nodes, d))
            w = rng.random((rows, nodes))
            for block in (m, m[None]):
                assert np.array_equal(ad.block_matmul(Tensor(x), Tensor(block), True).data,
                                      x @ m.T)
                assert np.array_equal(ad.block_matmul(Tensor(w), Tensor(block)).data, w @ m)

    def test_blocks_equal_per_block_products(self):
        rng = np.random.default_rng(13)
        x, m = rng.normal(size=(6, 4)), rng.normal(size=(3, 5, 4))
        out = ad.block_matmul(Tensor(x), Tensor(m), True).data
        for g in range(3):
            assert np.array_equal(out[2 * g:2 * g + 2], x[2 * g:2 * g + 2] @ m[g].T)
        w = rng.random((6, 5))
        out = ad.block_matmul(Tensor(w), Tensor(m)).data
        for g in range(3):
            assert np.array_equal(out[2 * g:2 * g + 2], w[2 * g:2 * g + 2] @ m[g])
        with pytest.raises(ShapeError):  # 7 rows do not split into 3 runs
            ad.block_matmul(Tensor(rng.normal(size=(7, 4))), Tensor(m), True)
        with pytest.raises(ShapeError):  # inner sizes differ
            ad.block_matmul(Tensor(w), Tensor(m), True)

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("transpose", [True, False])
    def test_matches_finite_differences(self, blocks, transpose):
        rng = np.random.default_rng(14)
        m = leaf(rng.normal(size=(blocks, 5, 4)) if blocks > 1 else rng.normal(size=(5, 4)))
        x = leaf(rng.normal(size=(2 * blocks, 4 if transpose else 5)))

        def loss():
            return weighted(ad.block_matmul(x, m, transpose))

        assert finite_difference_check(loss, {"x": x, "m": m}, epsilon=1e-6,
                                       max_coords_per_param=30) < 1e-6


class TestPrimitiveJacobians:
    """Finite differences over random shapes and seeds for every primitive."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_compositions(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(5):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            w = leaf(rng.normal(size=(m, n)))
            v = leaf(rng.normal(size=n))
            kind = (seed * 5 + trial) % 5

            def loss():
                h = ad.matmul(w, v)
                if kind == 0:
                    return ad.sumall(ad.sigmoid(h))
                if kind == 1:
                    return ad.sumall(ad.mul(ad.tanh(h), h))
                if kind == 2:
                    return ad.sumall(ad.pick(ad.softmax(ad.stack_rows([h])), [0], [0]))
                if kind == 3:
                    return ad.dot(ad.concat([h, v]), ad.concat([h, v]))
                return ad.sumall(ad.log(ad.sigmoid(h)))

            err = finite_difference_check(loss, {"w": w, "v": v},
                                          epsilon=1e-5, max_coords_per_param=4,
                                          rng=rng)
            assert err < 1e-4, f"seed {seed} trial {trial} kind {kind}: {err}"

    def test_stack_rows_and_pooling(self):
        rng = np.random.default_rng(11)
        rows = [leaf(rng.normal(size=3)) for _ in range(4)]
        q = leaf(rng.normal(size=3))

        def loss():
            mat = ad.stack_rows(rows)
            scores = ad.matmul(mat, q)
            pooled = ad.matmul(ad.softmax(ad.stack_rows([scores])), mat)
            return ad.sumall(ad.tanh(pooled))

        params = {f"r{i}": r for i, r in enumerate(rows)}
        params["q"] = q
        assert finite_difference_check(loss, params, epsilon=1e-5) < 1e-4

    def test_embedding_mean_duplicate_ids(self):
        table = leaf(np.arange(12, dtype=float).reshape(4, 3))

        def loss():
            return ad.sumall(ad.embedding_means(table, [1, 1, 2], [3]))

        assert finite_difference_check(loss, {"t": table}, epsilon=1e-5) < 1e-4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-40, max_value=40), min_size=1, max_size=8))
def test_softmax_is_distribution(values):
    out = ad.softmax(Tensor([values]))
    assert np.all(out.data >= 0.0)
    assert abs(out.data.sum() - 1.0) < 1e-9


def test_no_grad_disables_tracing():
    w = leaf([1.0, 2.0])
    with ad.no_grad():
        out = ad.sumall(ad.mul(w, w))
    assert not out.requires_grad and out._backward is None


def test_finite_difference_rejects_nondeterministic_loss():
    w = leaf([1.0])
    state = {"calls": 0}

    def loss():
        state["calls"] += 1
        return ad.sumall(ad.mul(w, float(state["calls"])))

    with pytest.raises(ValueError, match="deterministic"):
        finite_difference_check(loss, {"w": w})


def test_finite_difference_quadratic_is_exact():
    w = leaf([0.3, -1.2, 2.0])

    def loss():
        return ad.mul(ad.sumall(ad.mul(w, w)), 0.5)

    assert finite_difference_check(loss, {"w": w}, epsilon=1e-6) < 1e-6


# ops no library module calls, kept because the tests build their reference
# compositions from them (the LSTM and Tree-LSTM gate compositions, one
# sequence of the batched LSTM alone, the decoder step oracle's start
# state); the gradient suite's primitives probe checks each
TEST_REFERENCE_OPS = {"matmul", "sigmoid", "stack_rows"}


def test_every_public_op_has_a_caller():
    """Each public function or class of ``autodiff.py`` but its exception
    type is called by name from another library module, the gradient suite
    (``checks.py``) aside, or is a test reference op, which ``checks.py``
    probes and nothing else calls."""
    import ast
    from pathlib import Path

    package = Path(ad.__file__).parent
    public = {node.name for node in ast.parse((package / "autodiff.py").read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")} - {"ShapeError"}

    def used(path):
        """Names a module takes from ``autodiff``: ``ad.name`` or imported."""
        tree = ast.parse(path.read_text())
        aliases, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                names |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                names.add(node.attr)
        return names

    library = set().union(*(used(path) for path in package.glob("*.py")
                            if path.name not in ("autodiff.py", "checks.py")))
    assert TEST_REFERENCE_OPS <= public
    assert not TEST_REFERENCE_OPS & library, "a test reference op has a library caller"
    assert TEST_REFERENCE_OPS <= used(package / "checks.py")
    assert public - library - TEST_REFERENCE_OPS == set()
