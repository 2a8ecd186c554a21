import numpy as np
import pytest

from reviewnet import oracles
from reviewnet.errors import ShapeError
from reviewnet.layers import LSTMCell, LSTMState, TinyConvEncoder, uniform_param
from reviewnet.tensor import (Tensor, backward, conv2d, embedding_lookup, linear, max_pool2, mul,
                              relu, sum_all)


def make_cell(rng, input_dim=3, hidden_dim=4):
    gates = 4 * hidden_dim
    return LSTMCell(*(uniform_param(rng, shape)
                      for shape in ((gates, input_dim), (gates, hidden_dim), (gates,))))


def test_lstm_all_zero_parameters_give_zero_state(rng):
    cell = make_cell(rng)
    for t in (cell.w_input, cell.w_hidden, cell.bias):
        t.data[...] = 0.0
    state = cell.step(LSTMState.zeros(4), Tensor([1.0, -2.0, 3.0]))
    assert np.array_equal(state.h.data, np.zeros(4))
    assert np.array_equal(state.c.data, np.zeros(4))


def test_lstm_saturated_gates_carry_cell_state(rng):
    cell = make_cell(rng)
    hd = cell.hidden_dim
    cell.bias.data[0:hd] = -1000.0     # input gate shut
    cell.bias.data[hd:2 * hd] = 1000.0  # forget gate wide open
    c0 = rng.normal(size=hd)
    state = LSTMState(Tensor(rng.normal(size=hd)), Tensor(c0))
    out = cell.step(state, Tensor(rng.normal(size=3)))
    assert np.max(np.abs(out.c.data - c0)) <= 1e-6


def test_lstm_matches_gate_equation_oracle(rng):
    cell = make_cell(rng, input_dim=5, hidden_dim=6)
    h0, c0 = rng.normal(size=6), rng.normal(size=6)
    x = rng.normal(size=5)
    got = cell.step(LSTMState(Tensor(h0), Tensor(c0)), Tensor(x))
    want_h, want_c = oracles.lstm_step_direct(
        cell.w_input.data, cell.w_hidden.data, cell.bias.data, h0, c0, x)
    assert np.max(np.abs(got.h.data - want_h)) <= 1e-12
    assert np.max(np.abs(got.c.data - want_c)) <= 1e-12


def test_lstm_hidden_state_is_bounded(rng):
    cell = make_cell(rng, input_dim=4, hidden_dim=5)
    state = LSTMState.zeros(5)
    for _ in range(20):
        state = cell.step(state, Tensor(rng.normal(size=4) * 5))
        assert np.all(np.abs(state.h.data) < 1.0)


def test_lstm_width_mismatch(rng):
    cell = make_cell(rng)
    with pytest.raises(ShapeError):
        cell.step(LSTMState.zeros(4), Tensor(np.zeros(5)))


def test_lstm_gradients_match_finite_differences(rng):
    cell = make_cell(rng, input_dim=3, hidden_dim=3)
    x_data = rng.normal(size=3)

    def build():
        state = LSTMState.zeros(3)
        for _ in range(3):  # a short unroll exercises the recurrent path
            state = cell.step(state, Tensor(x_data))
        return sum_all(state.h)

    params = [cell.w_input, cell.w_hidden, cell.bias]
    for p in params:
        p.zero_grad()
    backward(build())
    for p in params:
        numeric = oracles.finite_diff_slopes(lambda: float(build().data), p.data)[0]
        assert oracles.max_rel_error(p.grad, numeric) <= 1e-4


def test_dense_without_bias_is_pure_matmul(rng):
    weight = uniform_param(rng, (3, 4))
    x = rng.normal(size=4)
    assert np.max(np.abs(linear(Tensor(x), weight).data - weight.data @ x)) <= 1e-12


def test_embedding_rows_not_looked_up_stay_zero_grad(rng):
    table = uniform_param(rng, (6, 3))
    loss = sum_all(embedding_lookup(table, 2))
    backward(loss)
    grads = table.grad
    assert np.all(grads[[0, 1, 3, 4, 5]] == 0.0)
    assert np.all(grads[2] == 1.0)


def test_encoder_zero_image_zero_biases_gives_zero_features(rng):
    enc = TinyConvEncoder(16, rng=rng)
    enc.conv1_bias.data[...] = 0.0
    enc.conv2_bias.data[...] = 0.0
    enc.fc_bias.data[...] = 0.0
    out = enc(Tensor(np.zeros((3, 32, 32))))
    assert np.array_equal(out.data, np.zeros(16))


@pytest.mark.parametrize("width", [8, 64])
def test_encoder_output_width_is_input_independent(rng, width):
    enc = TinyConvEncoder(width, rng=rng)
    for _ in range(3):
        out = enc(Tensor(rng.random((3, 32, 32))))
        assert out.data.shape == (width,)


def test_encoder_rejects_wrong_shape(rng):
    enc = TinyConvEncoder(8, rng=rng)
    for shape in ((3, 16, 16), (2, 3, 16, 16), (2, 2, 3, 32, 32), (32, 32)):
        with pytest.raises(ShapeError):
            enc(Tensor(np.zeros(shape)))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_encoder_stages_batched_match_per_image_loop(rng, n):
    enc = TinyConvEncoder(16, rng=rng)
    images = rng.random((n,) + TinyConvEncoder.IMAGE_SHAPE)
    stages = [(enc.conv1_kernels, enc.conv1_bias), (enc.conv2_kernels, enc.conv2_bias)]

    def stage(x, kernels, bias, seed_rows):
        kernels.zero_grad()
        bias.zero_grad()
        out = max_pool2(relu(conv2d(x, kernels, bias)))
        backward(sum_all(mul(out, Tensor(seed_rows))))
        return out.data, kernels.grad.copy(), bias.grad.copy()

    x = images
    for kernels, bias in stages:
        # a valid 3x3 correlation, then 2x2 pooling
        side = (x.shape[-1] - 2) // 2
        seed_rows = rng.normal(size=(n, kernels.data.shape[0], side, side))
        got = stage(Tensor(x), kernels, bias, seed_rows)
        # one image at a time, each image's gradients added in batch order
        outs, want_k, want_b = [], np.zeros_like(kernels.data), np.zeros_like(bias.data)
        for b in range(n):
            out, grad_k, grad_b = stage(Tensor(x[b:b + 1]), kernels, bias, seed_rows[b:b + 1])
            outs.append(out)
            want_k += grad_k
            want_b += grad_b
        assert np.array_equal(got[0], np.concatenate(outs))
        assert np.array_equal(got[1], want_k)
        assert np.array_equal(got[2], want_b)
        x = got[0]
    rows = enc(Tensor(images)).data
    assert rows.shape == (n, 16)
    for image, row in zip(images, rows):
        assert np.max(np.abs(row - enc(Tensor(image)).data)) <= 1e-12


def test_encoder_conv_weight_gradient_matches_finite_differences(rng):
    enc = TinyConvEncoder(4, rng=rng)
    image = rng.random((3, 32, 32))

    def build():
        return sum_all(enc(Tensor(image)))

    enc.conv1_kernels.zero_grad()
    backward(build())
    analytic = enc.conv1_kernels.grad
    value = float(build().data)
    # spot-check a handful of kernel coordinates; full differencing is slow
    for flat in rng.choice(enc.conv1_kernels.data.size, size=6, replace=False):
        idx = np.unravel_index(int(flat), enc.conv1_kernels.data.shape)
        numeric = oracles.finite_diff_slopes_at(lambda: float(build().data),
                                                enc.conv1_kernels.data, idx, value)[0]
        assert oracles.max_rel_error(analytic[idx], numeric) <= 1e-4
