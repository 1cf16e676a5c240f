import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_hot_tensor
from neurosudoku.engine import generate_solved, mask_puzzle
from neurosudoku.losses import (
    ABLATIONS,
    LossConfig,
    MODE_FIXED_TARGET,
    MODE_SOLUTION_CONSISTENT,
    ablation_config,
    combined_loss,
    combined_loss_grad,
    constraints_loss,
    constraints_loss_grad,
    expert_loss,
    expert_loss_grad,
    standard_loss,
    standard_loss_grad,
)

from oracles import constraints_loss_slow, expert_loss_slow, standard_loss_slow


def random_tensor(rng):
    """A random valid prediction tensor (positive, rows sum to 1)."""
    raw = rng.uniform(0.05, 1.0, size=(9, 9, 9))
    return raw / raw.sum(axis=2, keepdims=True)


class TestStandardLoss:
    def test_one_hot_truth_is_zero(self, solved_grid):
        assert standard_loss(one_hot_tensor(solved_grid), solved_grid) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_ln9(self, solved_grid, uniform_tensor):
        assert standard_loss(uniform_tensor, solved_grid) == pytest.approx(math.log(9), abs=1e-9)

    def test_half_probability_is_ln2(self, solved_grid):
        tensor = np.full((9, 9, 9), 0.5 / 8)
        for i in range(9):
            for j in range(9):
                tensor[i, j, solved_grid[i, j] - 1] = 0.5
        assert standard_loss(tensor, solved_grid) == pytest.approx(math.log(2), abs=1e-9)

    def test_zero_probability_is_clamped(self, solved_grid):
        tensor = one_hot_tensor(solved_grid)
        wrong = np.roll(tensor, 1, axis=2)  # true digit now has probability 0
        loss = standard_loss(wrong, solved_grid)
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_matches_slow_oracle(self, solved_grid):
        rng = np.random.default_rng(0)
        for _ in range(10):
            tensor = random_tensor(rng)
            assert standard_loss(tensor, solved_grid) == pytest.approx(
                standard_loss_slow(tensor, solved_grid), abs=1e-12
            )


class TestConstraintsLoss:
    def test_fully_given_fixed_target_is_243(self, solved_grid, uniform_tensor):
        assert constraints_loss(uniform_tensor, solved_grid, MODE_FIXED_TARGET) == 243.0

    def test_one_hot_truth_scores_zero_solution_consistent(self, instance_03):
        tensor = one_hot_tensor(instance_03.solution)
        loss = constraints_loss(tensor, instance_03.puzzle, MODE_SOLUTION_CONSISTENT)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_one_hot_truth_nonzero_under_fixed_target(self, instance_03):
        # a digit already given in a unit makes that unit's target unreachable
        tensor = one_hot_tensor(instance_03.solution)
        loss = constraints_loss(tensor, instance_03.puzzle, MODE_FIXED_TARGET)
        assert loss > 1.0

    def test_uniform_three_empties_in_one_row_analytic(self, solved_grid):
        # Exactly 3 empties, all in row 0 (and so in box 0, one per column
        # 0..2).  Under the uniform prediction each unit-digit term is
        # (target - empties_in_unit/9)^2:
        #   row 0 / box 0: 3 digits at (1 - 3/9)^2, 6 digits at (3/9)^2 -> 2
        #   columns 0..2: 1 digit at (1 - 1/9)^2, 8 digits at (1/9)^2 -> 8/9
        #   all other units: no empties, targets all 0 -> 0
        mask = np.zeros((9, 9), dtype=bool)
        mask[0, :3] = True
        givens = np.where(mask, 0, solved_grid)
        uniform = np.full((9, 9, 9), 1 / 9)
        total = constraints_loss(uniform, givens, MODE_SOLUTION_CONSISTENT)
        expected = 2.0 + 3 * (8 / 9) + 2.0
        assert total == pytest.approx(expected, abs=1e-9)
        assert total == pytest.approx(
            constraints_loss_slow(uniform, mask, givens, MODE_SOLUTION_CONSISTENT),
            abs=1e-9,
        )

    def test_matches_slow_oracle_both_modes(self, instance_03):
        rng = np.random.default_rng(1)
        for mode in (MODE_FIXED_TARGET, MODE_SOLUTION_CONSISTENT):
            for _ in range(20):
                tensor = random_tensor(rng)
                fast = constraints_loss(tensor, instance_03.puzzle, mode)
                slow = constraints_loss_slow(tensor, instance_03.mask, instance_03.puzzle, mode)
                assert fast == pytest.approx(slow, abs=1e-9)

    def test_nonnegative(self, instance_03):
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert constraints_loss(random_tensor(rng), instance_03.puzzle) >= 0


class TestExpertLoss:
    def test_one_hot_truth_is_zero(self, solved_grid):
        assert expert_loss(one_hot_tensor(solved_grid)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_zero(self, solved_grid, uniform_tensor):
        # every cell expectation is 5, every unit sum 45: the expert loss
        # alone cannot distinguish the uniform prediction from the truth
        assert expert_loss(uniform_tensor) == pytest.approx(0.0, abs=1e-9)

    def test_single_cell_shift_costs_three(self, solved_grid):
        tensor = one_hot_tensor(solved_grid)
        d = int(solved_grid[0, 0])
        shifted_to = d + 1 if d < 9 else d - 1
        tensor[0, 0, d - 1] = 0.0
        tensor[0, 0, shifted_to - 1] = 1.0
        assert expert_loss(tensor) == pytest.approx(3.0, abs=1e-9)

    def test_matches_slow_oracle(self, solved_grid):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tensor = random_tensor(rng)
            assert expert_loss(tensor) == pytest.approx(
                expert_loss_slow(tensor, solved_grid), abs=1e-9
            )


class TestCombinedLoss:
    def test_standard_only_equals_standard(self, instance_03):
        rng = np.random.default_rng(4)
        tensor = random_tensor(rng)
        config = ablation_config("standard-only")
        breakdown = combined_loss(tensor, instance_03, config)
        assert breakdown.combined == pytest.approx(
            standard_loss(tensor, instance_03.solution), abs=1e-12
        )
        # the validation loss measures the unweighted components too
        assert breakdown.constraints == constraints_loss(tensor, instance_03.puzzle)
        assert breakdown.expert == expert_loss(tensor) > 0.0
        # the training step skips them
        trained, _ = combined_loss_grad(tensor, instance_03, config)
        assert (trained.constraints, trained.expert) == (0.0, 0.0)
        assert trained.combined == breakdown.combined

    def test_one_hot_truth_all_components_vanish(self, instance_03):
        tensor = one_hot_tensor(instance_03.solution)
        breakdown = combined_loss(tensor, instance_03, ablation_config("all-combined"))
        assert breakdown.combined == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_decomposition(self, instance_03, uniform_tensor):
        breakdown = combined_loss(uniform_tensor, instance_03, ablation_config("all-combined"))
        oracle_constraints = constraints_loss_slow(
            uniform_tensor, instance_03.mask, instance_03.puzzle, MODE_SOLUTION_CONSISTENT
        )
        assert breakdown.standard == pytest.approx(math.log(9), abs=1e-9)
        assert breakdown.constraints == pytest.approx(oracle_constraints, abs=1e-9)
        assert breakdown.expert == pytest.approx(0.0, abs=1e-9)
        assert breakdown.combined == pytest.approx(
            math.log(9) + oracle_constraints, abs=1e-9
        )

    def test_breakdown_respects_weighted_sum(self, instance_03):
        rng = np.random.default_rng(5)
        tensor = random_tensor(rng)
        config = LossConfig(0.7, 2.5, 0.3)
        b = combined_loss(tensor, instance_03, config)
        assert b.combined == pytest.approx(
            0.7 * b.standard + 2.5 * b.constraints + 0.3 * b.expert, abs=1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(
        alpha=st.floats(0.0, 3.0),
        beta=st.floats(0.0, 3.0),
        gamma=st.floats(0.01, 3.0),
    )
    def test_linear_in_weights(self, instance_03_module, tensor_module, alpha, beta, gamma):
        inst = instance_03_module
        config = LossConfig(alpha, beta, gamma)
        b = combined_loss(tensor_module, inst, config)
        base = combined_loss(tensor_module, inst, LossConfig(1, 1, 1))
        assert b.combined == pytest.approx(
            alpha * base.standard + beta * base.constraints + gamma * base.expert,
            rel=1e-9, abs=1e-9,
        )


@pytest.fixture(scope="module")
def instance_03_module():
    return mask_puzzle(generate_solved(0), 0.3, 0)


@pytest.fixture(scope="module")
def tensor_module():
    return random_tensor(np.random.default_rng(17))


class TestAblationConfig:
    @pytest.mark.parametrize("label,expected", [
        ("standard-only", (1.0, 0.0, 0.0)),
        ("standard+expert", (1.0, 0.0, 1.0)),
        ("standard+constraints", (1.0, 1.0, 0.0)),
        ("all-combined", (1.0, 1.0, 1.0)),
    ])
    def test_weight_mapping(self, label, expected):
        config = ablation_config(label)
        assert (config.alpha, config.beta, config.gamma) == expected
        assert config.ablation == label

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown ablation"):
            ablation_config("kitchen-sink")

    def test_default_constraint_mode(self):
        assert ablation_config("all-combined").constraint_mode == MODE_SOLUTION_CONSISTENT

    def test_all_labels_enumerable(self):
        assert len(ABLATIONS) == 4

    @pytest.mark.parametrize("weights,label", [
        ((1, 0, 1), "standard+expert"),
        ((1.0, 1.0, 1.0), "all-combined"),
        ((0.5, 0, 1), "custom"),
        ((2, 2, 2), "custom"),
        ((0, 1, 0), "custom"),
    ])
    def test_label_derived_from_weights(self, weights, label):
        assert LossConfig(*weights).ablation == label


class TestLossConfigValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(-0.1, 0, 0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(0, 0, 0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="constraint mode"):
            LossConfig(1, 0, 0, constraint_mode="mystery")


class TestTensorGradients:
    """Gradients with respect to tensor entries, checked against central
    differences directly on the tensor (parameter-level checks live in
    test_network and the acceptance suite)."""

    @staticmethod
    def tensor_fd(fn, tensor, eps=1e-7):
        grad = np.zeros_like(tensor)
        flat_t = tensor.reshape(-1)
        flat_g = grad.reshape(-1)
        rng = np.random.default_rng(0)
        idx = rng.choice(flat_t.size, 60, replace=False)
        for i in idx:
            orig = flat_t[i]
            flat_t[i] = orig + eps
            fp = fn(tensor)
            flat_t[i] = orig - eps
            fm = fn(tensor)
            flat_t[i] = orig
            flat_g[i] = (fp - fm) / (2 * eps)
        return grad, idx

    def test_standard_grad(self, instance_03):
        tensor = random_tensor(np.random.default_rng(6))
        _, grad = standard_loss_grad(tensor, instance_03.solution)
        fd, idx = self.tensor_fd(lambda t: standard_loss(t, instance_03.solution), tensor)
        flat_a, flat_fd = grad.reshape(-1), fd.reshape(-1)
        for i in idx:
            assert flat_a[i] == pytest.approx(flat_fd[i], rel=1e-4, abs=1e-6)

    def test_constraints_grad_both_modes(self, instance_03):
        for mode in (MODE_FIXED_TARGET, MODE_SOLUTION_CONSISTENT):
            tensor = random_tensor(np.random.default_rng(7))
            _, grad = constraints_loss_grad(tensor, instance_03.puzzle, mode)
            fd, idx = self.tensor_fd(
                lambda t: constraints_loss(t, instance_03.puzzle, mode),
                tensor,
            )
            flat_a, flat_fd = grad.reshape(-1), fd.reshape(-1)
            for i in idx:
                assert flat_a[i] == pytest.approx(flat_fd[i], rel=1e-4, abs=1e-6)

    def test_expert_grad(self, instance_03):
        tensor = random_tensor(np.random.default_rng(8))
        _, grad = expert_loss_grad(tensor)
        fd, idx = self.tensor_fd(expert_loss, tensor)
        flat_a, flat_fd = grad.reshape(-1), fd.reshape(-1)
        for i in idx:
            assert flat_a[i] == pytest.approx(flat_fd[i], rel=1e-4, abs=1e-6)

    def test_combined_grad_is_weighted_sum_of_parts(self, instance_03):
        tensor = random_tensor(np.random.default_rng(9))
        config = LossConfig(0.5, 1.5, 2.0)
        _, d_combined = combined_loss_grad(tensor, instance_03, config)
        _, d_std = standard_loss_grad(tensor, instance_03.solution)
        _, d_cons = constraints_loss_grad(tensor, instance_03.puzzle, config.constraint_mode)
        _, d_exp = expert_loss_grad(tensor)
        assert np.allclose(d_combined, 0.5 * d_std + 1.5 * d_cons + 2.0 * d_exp, atol=1e-12)
