import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecomment import autodiff as ad
from treecomment.params import (AdamState, ParamStore, adam_step, clip_global_norm,
                                load_checkpoint, save_checkpoint, xavier_init)


class TestXavier:
    def test_3x3_bound_is_one(self):
        t = xavier_init((3, 3), np.random.default_rng(0))
        assert np.all(np.abs(t.data) <= 1.0)

    def test_same_seed_same_tensor(self):
        a = xavier_init((5, 7), np.random.default_rng(123))
        b = xavier_init((5, 7), np.random.default_rng(123))
        assert np.array_equal(a.data, b.data)

    def test_sample_mean_within_three_sigma(self):
        # uniform(-b, b) has variance b^2/3; the mean of n draws has
        # std b / sqrt(3 n)
        draws = 10_000
        bound = math.sqrt(6.0 / (2 + 4))
        rng = np.random.default_rng(99)
        values = np.concatenate([xavier_init((2, 4), rng).data.ravel()
                                 for _ in range(draws // 8)])
        sigma_mean = bound / math.sqrt(3.0 * values.size)
        assert abs(values.mean()) < 3.0 * sigma_mean

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            xavier_init((), np.random.default_rng(0))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           seed=st.integers(0, 10_000))
    def test_bound_never_exceeded(self, rows, cols, seed):
        t = xavier_init((rows, cols), np.random.default_rng(seed))
        assert np.all(np.abs(t.data) <= math.sqrt(6.0 / (rows + cols)))

    def test_vector_fan_out_is_one(self):
        t = xavier_init((50,), np.random.default_rng(1))
        assert np.all(np.abs(t.data) <= math.sqrt(6.0 / 51))


class TestParamStore:
    def test_lazy_creation_is_order_independent(self):
        a = ParamStore(seed=5)
        a.get("x", (3, 3))
        a.get("y", (2,))
        b = ParamStore(seed=5)
        b.get("y", (2,))
        b.get("x", (3, 3))
        assert np.array_equal(a["x"].data, b["x"].data)
        assert np.array_equal(a["y"].data, b["y"].data)

    def test_get_shape_conflict_rejected(self):
        store = ParamStore()
        store.get("w", (2, 2))
        with pytest.raises(ValueError):
            store.get("w", (3, 2))

    def test_snapshot_roundtrip(self):
        store = ParamStore(seed=1)
        store.get("a", (4,))
        snap = store.snapshot()
        store["a"].data += 1.0
        store.load_snapshot(snap)
        assert np.array_equal(store["a"].data, snap["a"])

    def test_load_snapshot_copies_in_place(self):
        store = ParamStore(seed=1)
        view = store.get("a", (4,)).data
        store.load_snapshot({"a": np.arange(4.0)})
        assert store["a"].data is view and view.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_load_snapshot_rejects_shape_mismatch(self):
        store = ParamStore(seed=1)
        before = store.get("a", (2, 2)).data.copy()
        with pytest.raises(ValueError, match="'a'"):
            store.load_snapshot({"a": np.zeros((3, 2))})
        assert np.array_equal(store["a"].data, before)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        store = ParamStore(seed=0)
        p = store.get("w", (3,))
        before = p.data.copy()
        adam_step(store, AdamState())
        assert np.array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        store = ParamStore(seed=0)
        p = store.get("w", (4,))
        before = p.data.copy()
        p.grad = np.array([1.0, -2.0, 10.0, 0.5])
        adam_step(store, AdamState(), lr=0.001)
        delta = np.abs(p.data - before)
        assert np.all(np.abs(delta - 0.001) < 1e-6)

    def test_two_steps_match_hand_rolled_oracle(self):
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        theta = 0.5
        m = v = 0.0
        expected = theta
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            expected -= lr * m_hat / (math.sqrt(v_hat) + eps)

        store = ParamStore()
        p = store.get("w", (1,))
        p.data[...] = 0.5
        state = AdamState()
        for _ in range(2):
            p.grad = np.array([1.0])
            adam_step(store, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
        assert abs(p.data[0] - expected) < 1e-12

    def test_missing_grad_names_the_parameter(self):
        store = ParamStore()
        store.get("enc.w", (2,))
        store["enc.w"].grad = None
        with pytest.raises(ValueError, match="enc.w"):
            adam_step(store, AdamState())

    def test_grads_zeroed_after_step(self):
        store = ParamStore(seed=0)
        p = store.get("w", (2,))
        p.grad = np.ones(2)
        adam_step(store, AdamState())
        assert np.array_equal(p.grad, np.zeros(2))

    def test_step_counter_increments_once(self):
        store = ParamStore(seed=0)
        store.get("w", (2,))
        state = AdamState()
        adam_step(store, state)
        adam_step(store, state)
        assert state.t == 2


class TestClip:
    def test_norm_does_not_depend_on_store_order(self):
        # squares 1e16, 1, 1: summed one by one, the order decides whether
        # the small terms survive rounding
        grads = {"a": [1e8], "b": [1.0], "c": [1.0]}
        norms = []
        for order in ("abc", "bca"):
            store = ParamStore()
            for name in order:
                store.get(name, (1,)).grad = np.array(grads[name])
            norms.append(clip_global_norm(store, 10.0))
        assert norms[0] == norms[1] == math.sqrt(1e16 + 2.0)

    @pytest.mark.parametrize("max_norm", [0.0, -1.0, float("nan")])
    def test_rejects_a_bound_that_is_not_positive(self, max_norm):
        # a negative bound would flip every gradient, and NaN would clip nothing
        store = ParamStore()
        store.get("a", (1,)).grad = np.array([3.0])
        with pytest.raises(ValueError, match="max_norm"):
            clip_global_norm(store, max_norm)
        assert store["a"].grad.tolist() == [3.0]


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        store = ParamStore(seed=3)
        store.get("enc.i.W[type=stmt]", (4, 4))
        store.get("dec.embed", (7, 4))
        store.get("bias", (4,))
        path = tmp_path / "model.bin"
        save_checkpoint(store, path)
        arrays = load_checkpoint(path)
        assert set(arrays) == set(store.names())
        for name, data in arrays.items():
            assert np.array_equal(data, store[name].data)
        # saving the loaded copy reproduces identical bytes
        second = ParamStore()
        second.load_snapshot(arrays)
        path2 = tmp_path / "model2.bin"
        save_checkpoint(second, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x63\x00\x00\x00" + b"\x00" * 8)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_gradients_survive_backward_into_store(self):
        store = ParamStore(seed=0)
        w = store.get("w", (3,))
        loss = ad.sumall(ad.mul(w, w))
        loss.backward()
        assert np.allclose(w.grad, 2 * w.data)
