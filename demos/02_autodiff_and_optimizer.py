#!/usr/bin/env python3
# The numeric substrate: float64 tensors, reverse-mode gradients, a
# finite-difference cross-check, Xavier init and the Adam optimizer.

import numpy as np

from treecomment import autodiff as ad
from treecomment.autodiff import Tensor, finite_difference_check
from treecomment.params import AdamState, ParamStore, adam_step, xavier_init

# build a tiny traced computation and differentiate it
w = Tensor(np.array([0.1, -0.4, 0.7]), requires_grad=True)
x = Tensor(np.array([2.0, 1.0, -1.0]))
loss = ad.sumall(ad.tanh(ad.mul(w, x)))
loss.backward()
print("loss:", float(loss.data))
print("dL/dw:", w.grad)                       # == x * (1 - tanh(w*x)^2)
print("check:", x.data * (1 - np.tanh(w.data * x.data) ** 2))

# analytic gradients agree with central finite differences
params = {"w": w}
err = finite_difference_check(lambda: ad.sumall(ad.tanh(ad.mul(w, x))), params)
print(f"finite-difference max relative error: {err:.2e}")

# Xavier init draws uniformly from [-b, b], b = sqrt(6 / (fan_in + fan_out))
t = xavier_init((64, 64), np.random.default_rng(0))
print("xavier bound for 64x64:", np.sqrt(6 / 128), "max |value|:",
      np.abs(t.data).max())

# Adam on a quadratic bowl: minimize ||w - target||^2
store = ParamStore(seed=0)
p = store.get("w", (4,))
target = np.array([1.0, -2.0, 0.5, 3.0])
state = AdamState()
for step in range(2000):
    diff = ad.add(p, Tensor(-target))
    ad.sumall(ad.mul(diff, diff)).backward()
    adam_step(store, state, lr=0.01)
print("after 2000 Adam steps:", np.round(p.data, 4), "target:", target)
