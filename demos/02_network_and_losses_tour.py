#!/usr/bin/env python3
# The shallow network and the three loss components.  Shows the forward
# pass, the per-cell probability tensor, decoding, each loss at notable
# reference points, and a spot check of the analytic gradients.

import math

import numpy as np

from neurosudoku.engine import generate_solved, mask_puzzle
from neurosudoku.losses import (
    ablation_config,
    combined_loss,
    combined_loss_grad,
    constraints_loss_grad,
    expert_loss_grad,
    standard_loss_grad,
)
from neurosudoku.network import (
    backward,
    decode_prediction,
    encode_input,
    forward,
    init_params,
)

solution = generate_solved(0)
inst = mask_puzzle(solution, 0.3, 0)

# 81 inputs in [0,1] -> dense(64, relu) -> dense(729) -> 9x9x9 softmax.
params = init_params(1)
x = encode_input(inst.puzzle)
tensor, cache = forward(params, x)
print("prediction tensor:", tensor.shape, "per-cell sums ~1:",
      float(np.abs(tensor.sum(axis=2) - 1).max()) < 1e-6)
print("decoded grid row 0:", decode_prediction(tensor)[0].tolist())

# Reference points for each loss component.
uniform = np.full((9, 9, 9), 1 / 9)
truth = np.zeros((9, 9, 9))
for i in range(9):
    for j in range(9):
        truth[i, j, solution[i, j] - 1] = 1.0

print("\nstandard loss:  uniform =", round(standard_loss_grad(uniform, solution)[0], 6),
      "(= ln 9 =", round(math.log(9), 6), "), truth =",
      standard_loss_grad(truth, solution)[0])
print("expert loss:    uniform =", expert_loss_grad(uniform)[0],
      "(degenerate: every unit expectation already sums to 45)")
print("constraints:    truth, solution-consistent =",
      constraints_loss_grad(truth, inst.puzzle, "solution-consistent")[0])
print("constraints:    uniform, fixed-target, no empties =",
      constraints_loss_grad(uniform, solution, "fixed-target")[0],
      "(27 units x 9 digits x 1^2)")

# The combined loss is the weighted sum of whichever components the
# ablation enables; the breakdown measures all three whatever their weights.
for label in ("standard-only", "standard+expert", "standard+constraints",
              "all-combined"):
    b = combined_loss(tensor, inst, ablation_config(label))
    print(f"{label:22s} combined={b.combined:8.4f} "
          f"(std={b.standard:.4f} cons={b.constraints:.4f} exp={b.expert:.4f})")

# Analytic gradients flow tensor -> softmax -> dense layers; spot-check one
# coordinate against a central difference.
config = ablation_config("all-combined")
_, d_tensor = combined_loss_grad(tensor, inst, config)
grads = backward(params, cache, d_tensor)

eps = 1e-5
orig = params.b2[100]
params.b2[100] = orig + eps
up = combined_loss(forward(params, x)[0], inst, config).combined
params.b2[100] = orig - eps
down = combined_loss(forward(params, x)[0], inst, config).combined
params.b2[100] = orig
fd = (up - down) / (2 * eps)
print(f"\ngradient spot check b2[100]: analytic={grads.b2[100]:.8f} "
      f"finite-difference={fd:.8f}")
