import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurosudoku.engine import generate_solved, mask_puzzle
from neurosudoku.losses import ablation_config, combined_loss, combined_loss_grad
from neurosudoku.network import (
    AdamState,
    CheckpointError,
    HIDDEN_UNITS,
    ModelParams,
    N_LOGITS,
    N_PARAMS,
    NumericOverflowError,
    PARAM_FIELDS,
    _softmax_cells,
    adam_step,
    backward,
    decode_prediction,
    encode_input,
    forward,
    init_params,
    load_params,
    save_params,
    zeros_params,
)

from oracles import adam_scalar_reference, adam_step_slow

SEED_RULE = "model.json: seed must be a non-negative integer, got"

class TestEncodeInput:
    def test_all_zero_grid(self):
        assert (encode_input(np.zeros((9, 9), dtype=int)) == 0).all()

    def test_nine_maps_to_one(self):
        g = np.zeros((9, 9), dtype=int)
        g[0, 0] = 9
        x = encode_input(g)
        assert x[0] == 1.0
        assert (x[1:] == 0).all()

    def test_last_cell_scaling(self):
        g = np.zeros((9, 9), dtype=int)
        g[8, 8] = 3
        assert encode_input(g)[80] == pytest.approx(3 / 9)

    def test_range(self, solved_grid):
        x = encode_input(solved_grid)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert x.shape == (81,)


class TestModelParams:
    def test_fields_are_views_of_one_buffer(self):
        p = init_params(0)
        assert p.data.shape == (N_PARAMS,)
        assert np.concatenate([getattr(p, f).reshape(-1) for f in PARAM_FIELDS]).tolist() \
            == p.data.tolist()
        p.b2.reshape(81, 9)[0, 0] = 7.0
        assert p.data[N_PARAMS - N_LOGITS] == 7.0

    def test_field_assignment_writes_into_buffer(self):
        p = zeros_params()
        view = p.W1
        p.W1 = np.ones((HIDDEN_UNITS, 81))
        assert (view == 1.0).all()
        assert p.data[:HIDDEN_UNITS * 81].sum() == HIDDEN_UNITS * 81
        with pytest.raises(ValueError):
            p.b1 = np.ones(3)

    @pytest.mark.parametrize("data", [np.zeros(N_PARAMS - 1), np.zeros(N_PARAMS, np.float32)],
                             ids=["short", "float32"])
    def test_bad_buffer_rejected(self, data):
        with pytest.raises(ValueError, match="parameter buffer must be float64"):
            ModelParams(data)

    @pytest.mark.parametrize("duplicate", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copy_views_write_into_its_own_buffer(self, duplicate):
        p = init_params(0)
        q = duplicate(p)
        assert q.data.tobytes() == p.data.tobytes()
        before = p.data.copy()
        for k, f in enumerate(PARAM_FIELDS):
            getattr(q, f)[...] = k + 1.0
        expected = np.concatenate([np.full(getattr(p, f).size, k + 1.0)
                                   for k, f in enumerate(PARAM_FIELDS)])
        assert q.data.tolist() == expected.tolist()
        assert p.data.tobytes() == before.tobytes()


class TestInitParams:
    def test_biases_zero(self):
        for seed in (0, 1, 99):
            p = init_params(seed)
            assert (p.b1 == 0).all()
            assert (p.b2 == 0).all()

    def test_deterministic(self):
        a, b = init_params(42), init_params(42)
        for f in PARAM_FIELDS:
            assert (getattr(a, f) == getattr(b, f)).all()

    def test_weight_bounds(self):
        p = init_params(7)
        assert np.abs(p.W1).max() <= math.sqrt(6 / (81 + 64))
        assert np.abs(p.W2).max() <= math.sqrt(6 / (64 + 729))

    def test_shapes(self):
        p = init_params(0)
        assert p.W1.shape == (HIDDEN_UNITS, 81)
        assert p.W2.shape == (N_LOGITS, HIDDEN_UNITS)

    def test_distinct_seeds_differ(self):
        assert not (init_params(0).W1 == init_params(1).W1).all()


class TestForward:
    def test_zero_params_give_uniform(self):
        tensor, _ = forward(zeros_params(), np.zeros(81))
        assert np.allclose(tensor, 1 / 9)

    def test_probabilities_normalized(self, solved_grid):
        tensor, _ = forward(init_params(3), encode_input(solved_grid))
        assert (tensor >= 0).all()
        sums = tensor.sum(axis=2)
        assert np.abs(sums - 1.0).max() < 1e-6

    def test_bias_saturation_drives_digit_one(self):
        p = zeros_params()
        p.b2 = p.b2.copy()
        p.b2.reshape(81, 9)[:, 0] = 50.0
        tensor, _ = forward(p, np.zeros(81))
        assert tensor[:, :, 0].min() > 0.999999

    def test_overflow_reported_with_layer(self):
        p = init_params(0)
        p.W1 = p.W1 * 1e200  # finite pre-activations near 1e200
        p.W2 = p.W2 * 1e200
        with pytest.raises(NumericOverflowError, match="output layer"):
            forward(p, np.ones(81))
        p.W1 = p.W1 * 1e108
        with pytest.raises(NumericOverflowError, match="hidden layer"):
            forward(p, np.ones(81))

    def test_cache_holds_intermediates(self, solved_grid):
        x = encode_input(solved_grid)
        _, cache = forward(init_params(1), x)
        assert (cache.x == x).all()
        assert cache.hidden.shape == (HIDDEN_UNITS,)
        assert (cache.hidden >= 0).all()

    def test_deterministic(self, solved_grid):
        x = encode_input(solved_grid)
        p = init_params(5)
        t1, _ = forward(p, x)
        t2, _ = forward(p, x)
        assert (t1 == t2).all()


class TestSoftmaxCells:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), log_scale=st.integers(-3, 307))
    def test_bit_equal_to_the_row_max_form(self, seed, log_scale):
        rng = np.random.default_rng(seed)
        # seven levels, so cells tie at their maximum, and noise on some entries
        logits = rng.integers(-3, 4, N_LOGITS) * 10.0 ** log_scale
        logits += rng.normal(0, 1, N_LOGITS) * (rng.random(N_LOGITS) < 0.3)
        z = logits.reshape(81, 9)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        assert _softmax_cells(logits).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()


class TestDecodePrediction:
    def test_uniform_ties_break_to_one(self, uniform_tensor):
        assert (decode_prediction(uniform_tensor) == 1).all()

    def test_one_hot_recovers_grid(self, solved_grid):
        from conftest import one_hot_tensor

        assert (decode_prediction(one_hot_tensor(solved_grid)) == solved_grid).all()

    def test_explicit_distribution(self):
        tensor = np.full((9, 9, 9), 1 / 9)
        tensor[0, 0] = np.array([0.1, 0.7, 0.2, 0, 0, 0, 0, 0, 0])
        assert decode_prediction(tensor)[0, 0] == 2

    @settings(max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_argmax_invariant_to_per_cell_logit_shift(self, seed):
        rng = np.random.default_rng(seed)
        p = init_params(seed % 7)
        x = rng.uniform(0, 1, 81)
        _, cache = forward(p, x)
        logits = p.W2 @ cache.hidden + p.b2
        shifted = logits.reshape(81, 9) + rng.uniform(-5, 5, (81, 1))
        z = shifted - shifted.max(axis=1, keepdims=True)
        e = np.exp(z)
        shifted_tensor = (e / e.sum(axis=1, keepdims=True)).reshape(9, 9, 9)
        base_tensor, _ = forward(p, x)
        assert (decode_prediction(base_tensor) == decode_prediction(shifted_tensor)).all()


def _random_params(seed, scale=1.0):
    return ModelParams(np.random.default_rng(seed).normal(0, scale, N_PARAMS))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = init_params(0)
        before = p.data.copy()
        state = AdamState(lr=0.001)
        assert adam_step(p, zeros_params(), state) is None
        assert state.timestep == 1
        assert (p.data == before).all()

    def test_first_step_moves_against_gradient_sign_at_most_lr(self):
        p = zeros_params()
        g = zeros_params()
        rng = np.random.default_rng(0)
        for f in PARAM_FIELDS:
            getattr(g, f)[...] = rng.normal(0, 1, getattr(g, f).shape)
        lr = 0.001
        before = p.data.copy()
        adam_step(p, g, AdamState(lr=lr))
        delta = p.data - before
        assert np.abs(delta).max() <= lr + 1e-12
        moved = np.abs(g.data) > 1e-12
        assert (np.sign(delta[moved]) == -np.sign(g.data[moved])).all()

    def test_matches_scalar_recurrence_on_quadratic(self):
        # minimize 0.5 * theta^2 from theta=1; embed the scalar in b1[0]
        steps = 25
        expected = adam_scalar_reference(lambda t: t, 1.0, steps)
        p = zeros_params()
        p.b1[0] = 1.0
        state = AdamState(lr=0.001)
        g = zeros_params()
        for _ in range(steps):
            g.b1[0] = p.b1[0]
            adam_step(p, g, state)
        assert p.b1[0] == pytest.approx(expected, abs=1e-12)
        assert abs(p.b1[0]) < 1.0  # loss shrank

    def test_two_steps_shrink_quadratic(self):
        # gradient of 0.5 * theta^2 is theta itself
        expected = adam_scalar_reference(lambda t: t, 1.0, 2)
        p = zeros_params()
        p.b1[0] = 1.0
        state = AdamState(lr=0.001)
        g = zeros_params()
        for _ in range(2):
            g.b1[0] = p.b1[0]
            adam_step(p, g, state)
        assert p.b1[0] == pytest.approx(expected, abs=1e-15)
        assert 0.5 * p.b1[0] ** 2 < 0.5  # quadratic loss shrank from 0.5

    def test_updates_params_and_state_in_place_and_leaves_grads(self):
        p, g, state = init_params(0), init_params(1), AdamState(lr=0.001)
        buffers = (p.data, state.m, state.v, state.scratch)
        p_before, g_before = p.data.copy(), g.data.copy()
        expected = adam_step_slow(p_before, g_before, state.m.copy(), state.v.copy(), 0, state.lr)
        assert adam_step(p, g, state) is None
        assert (g.data == g_before).all()
        assert state.timestep == 1
        # the same buffers, now holding the updated values
        assert all(a is b for a, b in zip(buffers, (p.data, state.m, state.v, state.scratch)))
        assert not (p.data == p_before).all()
        np.testing.assert_allclose(p.data, expected[0], rtol=1e-12,
                                   atol=1e-12 * np.abs(expected[0]).max())
        assert (state.m == expected[1]).all() and (state.v == expected[2]).all()

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-8.0, 2.0),
        lr=st.floats(1e-5, 1e-1),
        density=st.floats(0.0, 1.0),
        steps=st.integers(1, 6),
    )
    def test_agrees_with_pure_formula_over_k_steps(self, seed, log_scale, lr, density, steps):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        p, state = _random_params(seed), AdamState(lr=lr)
        ref_p, ref_m, ref_v, ref_t = p.data.copy(), np.zeros(N_PARAMS), np.zeros(N_PARAMS), 0
        g = zeros_params()
        for _ in range(steps):
            g.data[...] = rng.normal(0, scale, N_PARAMS) * (rng.random(N_PARAMS) < density)
            adam_step(p, g, state)
            ref_p, ref_m, ref_v, ref_t = adam_step_slow(ref_p, g.data, ref_m, ref_v, ref_t, lr)
        assert state.timestep == ref_t == steps
        # the moments keep the formula's operation order: equal bit for bit
        assert state.m.tobytes() == ref_m.tobytes()
        assert state.v.tobytes() == ref_v.tobytes()
        np.testing.assert_allclose(p.data, ref_p, rtol=1e-9, atol=1e-9 * np.abs(ref_p).max())

    @settings(max_examples=30)
    @given(index=st.integers(0, N_PARAMS - 1),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_gradient_writes_nothing(self, index, bad):
        p, state = init_params(0), AdamState(lr=0.001)
        adam_step(p, _random_params(1, 1e-2), state)  # nonzero moments
        before = (p.data.copy(), state.m.copy(), state.v.copy())
        g = _random_params(2, 1e-2)
        g.data[index] = bad
        with pytest.raises(NumericOverflowError):
            adam_step(p, g, state)
        assert state.timestep == 1
        for a, b in zip(before, (p.data, state.m, state.v)):
            assert a.tobytes() == b.tobytes()

    def test_non_finite_gradient_rejected(self):
        g = zeros_params()
        g.W1[0, 0] = np.nan
        with pytest.raises(NumericOverflowError):
            adam_step(init_params(0), g, AdamState(lr=0.001))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        p = init_params(9)
        path = tmp_path / "model.json"
        save_params(p, path, seed=9)
        loaded, seed = load_params(path)
        assert seed == 9
        for f in PARAM_FIELDS:
            assert (getattr(loaded, f) == getattr(p, f)).all()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(CheckpointError, match="format"):
            load_params(path)

    def test_wrong_version_rejected(self, tmp_path):
        p = init_params(0)
        path = tmp_path / "model.json"
        save_params(p, path)
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            load_params(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(CheckpointError, match="JSON"):
            load_params(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda payload: [payload], "JSON list"),
        (lambda payload: {k: v for k, v in payload.items() if k != "W1"}, "no field W1"),
        (lambda payload: {**payload, "b1": ["x"] * 64}, "not a numeric array"),
        (lambda payload: {**payload, "b2": [float("nan")] * 729}, "non-finite"),
        (lambda payload: {**payload, "b1": [10**400] * 64}, "b1 is not a numeric array"),
        # JSON reads 1e400 as infinity
        (lambda payload: {**payload, "seed": float("inf")}, f"{SEED_RULE} inf"),
        (lambda payload: {**payload, "seed": 1.5}, f"{SEED_RULE} 1.5"),
        (lambda payload: {**payload, "seed": True}, f"{SEED_RULE} True"),
        (lambda payload: {**payload, "seed": "3"}, f"{SEED_RULE} '3'"),
        (lambda payload: {**payload, "seed": -1}, f"{SEED_RULE} -1"),
        # numpy would read each of these as a number
        (lambda payload: {**payload, "b1": ["0.5"] * 64}, 'b1 holds non-number "0.5"'),
        (lambda payload: {**payload, "W1": [["1"] * 81] * 64}, 'W1 holds non-number "1"'),
        (lambda payload: {**payload, "b1": [True] * 64}, "b1 holds non-number true"),
        (lambda payload: {**payload, "b2": payload["b2"][:-1] + [True]},
         "b2 holds non-number true"),
        (lambda payload: {**payload, "version": True}, "version true, expected 1"),
        (lambda payload: {**payload, "version": 1.0}, "version 1.0, expected 1"),
    ], ids=["json-list", "missing-field", "non-numeric", "nan-weights", "integer-too-large",
            "seed-infinite", "seed-1.5", "seed-true", "seed-string", "seed-negative",
            "weights-strings",
            "weight-rows-strings", "weights-booleans", "one-boolean-weight", "version-true",
            "version-float"])
    def test_malformed_payload_raises_checkpoint_error(self, tmp_path, edit, match):
        import json

        path = tmp_path / "model.json"
        save_params(init_params(0), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(CheckpointError, match=match):
            load_params(path)

    def test_bad_shape_rejected(self, tmp_path):
        p = init_params(0)
        path = tmp_path / "model.json"
        save_params(p, path)
        import json

        payload = json.loads(path.read_text())
        payload["b1"] = [0.0, 1.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="shape"):
            load_params(path)


class TestBackwardQuick:
    """Fast sampled finite-difference check; the acceptance suite sweeps
    every parameter entry."""

    def test_combined_loss_gradient_on_sampled_coordinates(self):
        inst = mask_puzzle(generate_solved(2), 0.3, 2)
        config = ablation_config("all-combined")
        params = init_params(3)
        x = encode_input(inst.puzzle)

        tensor, cache = forward(params, x)
        _, d_tensor = combined_loss_grad(tensor, inst, config)
        grads = backward(params, cache, d_tensor)

        def loss_of(p):
            t, _ = forward(p, x)
            return combined_loss(t, inst, config).combined

        eps = 1e-5
        rng = np.random.default_rng(0)
        for f in PARAM_FIELDS:
            arr = getattr(params, f)
            flat = arr.reshape(-1)
            analytic = getattr(grads, f).reshape(-1)
            idx = rng.choice(flat.size, size=min(25, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss_of(params)
                flat[i] = orig - eps
                lm = loss_of(params)
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(analytic[i] - fd) <= 1e-4 * max(1.0, abs(analytic[i]), abs(fd))

    @pytest.mark.parametrize("seed", range(4))
    def test_w2_gradient_equals_the_outer_product(self, seed):
        inst = mask_puzzle(generate_solved(seed), 0.6, seed)
        params = init_params(seed)
        tensor, cache = forward(params, encode_input(inst.puzzle))
        _, d_tensor = combined_loss_grad(tensor, inst, ablation_config("all-combined"))
        grads = backward(params, cache, d_tensor)
        # relu zeros and empty cells: products of either sign of zero
        assert (cache.hidden == 0).any() and (cache.x == 0).any()
        # == counts -0 and +0 as equal; the b2 and b1 gradients are the
        # logits' and the pre-activations' gradients
        assert (grads.W2 == np.outer(grads.b2, cache.hidden)).all()
        assert (grads.W1 == np.outer(grads.b1, cache.x)).all()

    def test_out_buffer_is_filled_and_returned(self):
        inst = mask_puzzle(generate_solved(2), 0.3, 2)
        params = init_params(3)
        tensor, cache = forward(params, encode_input(inst.puzzle))
        _, d_tensor = combined_loss_grad(tensor, inst, ablation_config("all-combined"))
        buf = ModelParams(np.full(N_PARAMS, np.nan))  # every entry must be overwritten
        assert backward(params, cache, d_tensor, out=buf) is buf
        assert buf.data.tobytes() == backward(params, cache, d_tensor).data.tobytes()
