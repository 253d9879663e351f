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
        out = ad.softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_matmul_hand_case(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert out.data.tolist() == [[3.0], [7.0]]

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))

    def test_softmax_empty_errors(self):
        with pytest.raises(ShapeError):
            ad.softmax(Tensor(np.zeros(0)))

    def test_masked_softmax_exact_zeros(self):
        out = ad.softmax(Tensor([5.0, 1.0, 3.0]), keep=np.array([True, False, True]))
        assert out.data[1] == 0.0
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_masked_softmax_all_masked_errors(self):
        with pytest.raises(ShapeError):
            ad.softmax(Tensor([1.0, 2.0]), keep=np.array([False, False]))

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ad.log(Tensor([1.0, 0.0]))

    def test_embedding_mean_empty_is_zero(self):
        table = leaf(np.ones((4, 3)))
        out = ad.embedding_mean(table, [])
        assert out.data.tolist() == [0.0, 0.0, 0.0]
        assert not out.requires_grad

    def test_concat_and_take(self):
        out = ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        assert out.data.tolist() == [1.0, 2.0, 3.0]
        assert ad.take(out, [2, 0]).data.tolist() == [3.0, 1.0]


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
        losses = [op_loss(params) for op_loss in OP_LOSSES.values()]
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

    def test_div_by_scalar_gradients(self):
        a = leaf([1.0, 2.0, 5.0])

        def loss():
            return ad.sumall(ad.log(ad.div(a, ad.sumall(a))))

        err = finite_difference_check(loss, {"a": a}, epsilon=1e-6,
                                      max_coords_per_param=3)
        assert err < 1e-4


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
    return {
        "x": leaf(rng.normal(size=4)),
        "y": leaf(rng.normal(size=4)),
        "pos": leaf(rng.uniform(0.5, 2.0, size=4)),
        "m": leaf(rng.normal(size=(3, 4))),
        "n": leaf(rng.normal(size=(4, 2))),
        "table": leaf(rng.normal(size=(5, 3))),
    }


def weighted(t):
    """A scalar that weights every entry of ``tanh(t)`` differently, so a
    gradient routed to the wrong entry changes the result."""
    weights = np.linspace(0.5, 1.5, t.size).reshape(t.shape)
    return ad.sumall(ad.mul(ad.tanh(t), Tensor(weights)))


# one probe loss per traced operation (both forms of mul and matmul)
OP_LOSSES = {
    "add": lambda p: weighted(ad.add(p["x"], p["y"])),
    "sub": lambda p: weighted(ad.sub(p["x"], p["y"])),
    "mul": lambda p: weighted(ad.mul(p["x"], p["y"])),
    "mul_scalar": lambda p: weighted(ad.mul(p["x"], -1.7)),
    "div": lambda p: weighted(ad.div(p["x"], ad.sumall(p["pos"]))),
    "matmul_vector": lambda p: weighted(ad.matmul(p["m"], p["x"])),
    "matmul_matrix": lambda p: weighted(ad.matmul(p["m"], p["n"])),
    "dot": lambda p: weighted(ad.dot(p["x"], p["y"])),
    "transpose": lambda p: weighted(ad.transpose(p["m"])),
    "concat": lambda p: weighted(ad.concat([p["x"], p["y"], p["x"]])),
    "stack_rows": lambda p: weighted(ad.stack_rows([p["x"], p["y"], p["x"]])),
    "sigmoid": lambda p: weighted(ad.sigmoid(p["x"])),
    "tanh": lambda p: weighted(ad.tanh(p["x"])),
    "softmax": lambda p: weighted(ad.softmax(p["x"])),
    "softmax_masked": lambda p: weighted(
        ad.softmax(p["x"], keep=np.array([True, False, True, True]))),
    "log": lambda p: weighted(ad.log(p["pos"])),
    "sumall": lambda p: weighted(ad.sumall(p["m"])),
    "at": lambda p: weighted(ad.at(p["x"], 2)),
    "take_repeated": lambda p: weighted(ad.take(p["x"], [2, 0, 2, 2])),
    "embedding_mean": lambda p: weighted(ad.embedding_mean(p["table"], [4, 1, 4])),
}


@pytest.mark.parametrize("op", sorted(OP_LOSSES))
def test_each_operation_matches_finite_differences(op):
    params = op_params()
    used = {name: params[name] for name in sorted(params)
            if any(t is params[name] for t in tape(OP_LOSSES[op](params)))}
    assert used
    err = finite_difference_check(lambda: OP_LOSSES[op](params), used,
                                  epsilon=1e-6, max_coords_per_param=12)
    assert err < 1e-6, f"{op}: {err}"


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
                    return ad.sumall(ad.take(ad.softmax(h), [0]))
                if kind == 3:
                    return ad.dot(ad.concat([h, v]), ad.concat([h, v]))
                return ad.sumall(ad.log(ad.sigmoid(h)))

            err = finite_difference_check(loss, {"w": w, "v": v},
                                          epsilon=1e-5, max_coords_per_param=4,
                                          rng=rng)
            assert err < 1e-4, f"seed {seed} trial {trial} kind {kind}: {err}"

    def test_stack_rows_and_transpose(self):
        rng = np.random.default_rng(11)
        rows = [leaf(rng.normal(size=3)) for _ in range(4)]
        q = leaf(rng.normal(size=3))

        def loss():
            mat = ad.stack_rows(rows)
            scores = ad.matmul(mat, q)
            pooled = ad.matmul(ad.transpose(mat), ad.softmax(scores))
            return ad.sumall(ad.tanh(pooled))

        params = {f"r{i}": r for i, r in enumerate(rows)}
        params["q"] = q
        assert finite_difference_check(loss, params, epsilon=1e-5) < 1e-4

    def test_embedding_mean_duplicate_ids(self):
        table = leaf(np.arange(12, dtype=float).reshape(4, 3))

        def loss():
            return ad.sumall(ad.embedding_mean(table, [1, 1, 2]))

        assert finite_difference_check(loss, {"t": table}, epsilon=1e-5) < 1e-4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-40, max_value=40), min_size=1, max_size=8))
def test_softmax_is_distribution(values):
    out = ad.softmax(Tensor(values))
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
