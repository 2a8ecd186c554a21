import itertools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from reviewnet import oracles, tensor
from reviewnet.errors import ConfigError, ContractError, ShapeError
from reviewnet.tensor import (Tensor, add, backward, concat, conv2d, dropout,
                              embedding_lookup, linear, linear_cross_entropy, lstm_sequence,
                              matmul, max_pool2, mul, relu, reshape, scale, stable_sigmoid,
                              sum_all, topo_order)


def grad_of(loss, *params):
    for p in params:
        p.zero_grad()
    backward(loss)
    return [p.grad.copy() for p in params]


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_projector():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    m = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(p, m).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_matches_nested_loop_oracle(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - oracles.naive_matmul(a, b))) <= 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    x = np.arange(18.0).reshape(1, 2, 3, 3)
    kernels = np.zeros((2, 2, 1, 1))
    kernels[0, 0, 0, 0] = 1.0
    kernels[1, 1, 0, 0] = 1.0
    out = conv2d(Tensor(x), Tensor(kernels), Tensor(np.zeros(2))).data
    assert np.array_equal(out, x)


def test_conv2d_summation_kernel():
    out = conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 2, 2))),
                 Tensor([0.5])).data
    assert out.shape == (1, 1, 2, 2)
    assert np.all(out == 4.5)


CONV_SHAPES = [((8, 15, 15), (16, 8, 3, 3)), ((3, 7, 6), (4, 3, 3, 2)), ((2, 5, 9), (3, 2, 1, 4))]


def test_conv2d_matches_nested_loop_oracle(rng):
    for (x_shape, k_shape), n in itertools.product(CONV_SHAPES, (1, 3)):
        x = rng.normal(size=(n,) + x_shape)
        k, b = rng.normal(size=k_shape), rng.normal(size=k_shape[0])
        got = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        for image, out in zip(x, got):
            want = oracles.naive_conv2d(image, k) + b[:, None, None]
            assert np.max(np.abs(out - want)) <= 1e-12


def test_conv2d_input_grad_matches_per_position_reference(rng):
    for (x_shape, k_shape), n in itertools.product(CONV_SHAPES, (1, 3)):
        xd, kd = rng.normal(size=(n,) + x_shape), rng.normal(size=k_shape)
        x, k, b = (Tensor(a, requires_grad=True) for a in (xd, kd, rng.normal(size=k_shape[0])))
        _, _, kh, kw = kd.shape
        hp, wp = xd.shape[2] - kh + 1, xd.shape[3] - kw + 1
        g = rng.normal(size=(n, kd.shape[0], hp, wp))
        backward(sum_all(mul(conv2d(x, k, b), Tensor(g))))
        # image by image, every output position scatters its kernel-weighted
        # gradient back over its window
        want_k = np.zeros_like(kd)
        for image, g_image, got_x in zip(xd, g, x.grad):
            want_x = np.zeros_like(image)
            for i in range(hp):
                for j in range(wp):
                    want_x[:, i:i + kh, j:j + kw] += np.tensordot(g_image[:, i, j], kd,
                                                                  axes=(0, 0))
            assert np.max(np.abs(got_x - want_x)) <= 1e-12 * np.max(np.abs(want_x))
            for u in range(kh):
                for v in range(kw):
                    want_k[:, :, u, v] += np.tensordot(g_image, image[:, u:u + hp, v:v + wp],
                                                       axes=([1, 2], [1, 2]))
        for got, want in ((k.grad, want_k), (b.grad, g.sum(axis=(0, 2, 3)))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))),
               Tensor(np.zeros(1)))
    with pytest.raises(ShapeError, match="bias"):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 2, 2))),
               Tensor(np.zeros(2)))
    # one image is a batch of one, never a bare [c,h,w]
    with pytest.raises(ShapeError, match=r"\[B,c,h,w\]"):
        conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 2, 2))), Tensor(np.zeros(3)))


# Bitwise references: the einsum correlation and the argmax pooling that the
# im2col GEMMs and the gathered window planes must reproduce to the last bit,
# so that trained weights, checkpoints and reports keep their bytes.


def _einsum_correlate(x, kernels):
    windows = sliding_window_view(x, kernels.shape[2:], axis=(2, 3))
    return np.einsum("fckl,bchwkl->bfhw", kernels, windows, optimize=True), windows


def _einsum_conv2d(xd, kd, bd, g):
    """Output, then input, kernel and bias gradients for output gradient ``g``."""
    _, _, kh, kw = kd.shape
    out, windows = _einsum_correlate(xd, kd)
    out = out + bd[:, None, None]
    g_out = np.zeros_like(out)  # the layout the tape gives the output's gradient
    g_out += g
    grad_k = np.einsum("bfhw,bchwkl->bfckl", g_out, windows, optimize=True).sum(axis=0)
    grad_b = g_out.sum(axis=(2, 3)).sum(axis=0)
    padded = np.pad(g_out, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    grad_x = np.zeros_like(xd)
    grad_x += _einsum_correlate(padded, kd.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])[0]
    return out, grad_x, grad_k, grad_b


def _argmax_max_pool2(xd, g):
    """Output and input gradient for output gradient ``g``."""
    n, c, h, w = xd.shape
    h2, w2 = h // 2, w // 2
    blocks = (xd[:, :, :2 * h2, :2 * w2].reshape(n, c, h2, 2, w2, 2)
              .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4))
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
    gx = np.zeros_like(xd)
    bs, cs, hs, ws = np.indices((n, c, h2, w2))
    gx[bs, cs, 2 * hs + idx // 2, 2 * ws + idx % 2] += g
    grad_x = np.zeros_like(xd)
    grad_x += gx
    return out, grad_x


ENCODER_STAGES = [((3, 32, 32), (8, 3, 3, 3)), ((8, 15, 15), (16, 8, 3, 3))]


@pytest.mark.parametrize("x_shape, k_shape", [
    ((n,) + x, k) for x, k in ENCODER_STAGES for n in (1, 3, 8, 32)
] + [((2, 5, 9, 9), (4, 5, 3, 3)), ((3, 4, 7, 7), (6, 4, 2, 2)), ((2, 3, 6, 5), (4, 3, 2, 1))])
def test_conv2d_is_bit_identical_to_einsum_reference(x_shape, k_shape):
    rng = np.random.default_rng(sum(x_shape) * 100 + sum(k_shape))
    x, k, b = (Tensor(rng.normal(size=s), requires_grad=True)
               for s in (x_shape, k_shape, k_shape[:1]))
    out = conv2d(x, k, b)
    g = rng.normal(size=out.shape)
    backward(sum_all(mul(out, Tensor(g))))
    want = _einsum_conv2d(x.data, k.data, b.data, g)
    assert out.data.strides == want[0].strides  # the layout the bias gradient sums in
    for got, ref in zip((out.data, x.grad, k.grad, b.grad), want):
        assert got.tobytes() == ref.tobytes()


def _pool_inputs(rng, shape):
    ties = np.round(rng.normal(size=shape)) * (rng.random(shape) < 0.5)  # zeros and repeats
    ties[0, 0, :2, :2] = 0.0
    ties[0, 0, 0, :2] = -0.0  # a window of signed zeros: the first cell wins
    nans = rng.normal(size=shape)
    nans[rng.random(shape) < 0.2] = np.nan
    nans[0, 0, :2, :2] = [[0.0, np.nan], [5.0, np.nan]]  # a NaN after the first cell
    return {"normal": rng.normal(size=shape), "ties": ties, "nan": nans}


@pytest.mark.parametrize("shape", [(1, 8, 30, 30), (8, 8, 30, 30), (3, 16, 13, 13),
                                   (2, 3, 5, 7)])
def test_max_pool2_is_bit_identical_to_argmax_reference(shape):
    rng = np.random.default_rng(sum(shape))
    for name, xd in _pool_inputs(rng, shape).items():
        # C-ordered, and in the transposed layout of a conv2d output
        for layout in (xd, np.ascontiguousarray(xd.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)):
            x = Tensor(layout, requires_grad=True)
            out = max_pool2(x)
            g = rng.normal(size=out.shape)
            backward(sum_all(mul(out, Tensor(g))))
            want_out, want_grad = _argmax_max_pool2(layout, g)
            assert out.data.tobytes() == want_out.tobytes(), name
            assert x.grad.tobytes() == want_grad.tobytes(), name


def test_window_indices_are_cached_per_geometry(rng):
    kernels = [Tensor(rng.normal(size=k), requires_grad=True) for _, k in ENCODER_STAGES]
    biases = [Tensor(rng.normal(size=k[:1]), requires_grad=True) for _, k in ENCODER_STAGES]
    tensor._window_index.cache_clear()
    tensor._pool_index.cache_clear()
    for n in range(1, 10):
        y = Tensor(rng.random((n,) + ENCODER_STAGES[0][0]))
        for k, b in zip(kernels, biases):
            y = max_pool2(relu(conv2d(y, k, b)))
        backward(sum_all(y))
    # the two forward correlations and the second stage's input gradient; the
    # images take no gradient
    windows, pools = tensor._window_index.cache_info(), tensor._pool_index.cache_info()
    assert (windows.currsize, windows.misses) == (3, 3)
    assert (pools.currsize, pools.misses) == (2, 2)
    cached = [tensor._window_index(3, 32, 32, 3, 3), tensor._window_index(8, 15, 15, 3, 3),
              tensor._window_index(16, 17, 17, 3, 3), tensor._pool_index(8, 30, 30),
              tensor._pool_index(16, 13, 13)]
    assert tensor._window_index.cache_info().misses == 3  # all of them were cached
    assert sum(index.nbytes for index in cached) < 2 ** 20
    # the layout np.take uses without copying the index
    assert all(index.dtype == np.intp and index.flags.c_contiguous and index.flags.writeable
               for index in cached)


# ---------------------------------------------------------------------------
# unary maps


def test_unary_trivials():
    assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert stable_sigmoid(np.array([0.0])) == pytest.approx([0.5])


def test_sigmoid_saturation_no_overflow():
    with np.errstate(over="raise"):
        out = stable_sigmoid(np.array([-1000.0, 1000.0]))
    assert out[0] == 0.0 and out[1] == 1.0


# Bitwise references: the two-branch sigmoid and the cell with one sigmoid
# call per gate that ``stable_sigmoid`` and ``tensor.lstm_cell`` replaced,
# which they must reproduce to the last bit so that trained weights and
# decoded log probabilities keep their bytes.


def _two_branch_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _three_call_lstm_cell(gates, c):
    hd = c.shape[-1]
    i = _two_branch_sigmoid(gates[..., :hd])
    f = _two_branch_sigmoid(gates[..., hd:2 * hd])
    g = np.tanh(gates[..., 2 * hd:3 * hd])
    o = _two_branch_sigmoid(gates[..., 3 * hd:])
    c = f * c + i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, g, o, tc)


_F64 = np.finfo(np.float64)
EDGE_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 800.0,
                        -800.0, _F64.smallest_subnormal, -_F64.smallest_subnormal, 1e-310,
                        -1e-310, _F64.tiny, -_F64.tiny, _F64.max, -_F64.max])


def _cell_inputs(rng, rows, hd):
    """Random [rows, 4H] gates and [rows, H] cells, then the same with edge
    values scattered over both."""
    gates = rng.normal(scale=4.0, size=(rows, 4 * hd))
    c = rng.normal(size=(rows, hd))
    yield gates, c
    gates, c = gates.copy(), c.copy()
    for a in (gates, c):
        flat = a.reshape(-1)
        flat[rng.integers(flat.size, size=max(1, flat.size // 3))] = rng.choice(
            EDGE_VALUES, size=max(1, flat.size // 3))
    yield gates, c


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("width", [1, 7, 32, 512])
def test_sigmoid_and_cell_are_bit_identical_to_per_gate_references(width):
    rng = np.random.default_rng(width)
    for rows in (1, 3, 20):
        z = rng.normal(scale=10.0, size=(rows, width))
        assert _bits(stable_sigmoid(z)) == _bits(_two_branch_sigmoid(z))
        for gates, c in _cell_inputs(rng, rows, width):
            with np.errstate(invalid="ignore", over="ignore"):
                h, c_new, acts = tensor.lstm_cell(gates, c)
                want_h, want_c, want_acts = _three_call_lstm_cell(gates, c)
            assert _bits(h, c_new, *acts) == _bits(want_h, want_c, *want_acts)
    for edges in (EDGE_VALUES, EDGE_VALUES[:, None]):
        assert _bits(stable_sigmoid(edges)) == _bits(_two_branch_sigmoid(edges))


# ---------------------------------------------------------------------------
# cross entropy


def logit_loss(logits, target):
    """``linear_cross_entropy`` of one row whose logits are ``logits``: a zero
    input and weight, and the logits as the bias."""
    logits = np.asarray(logits, dtype=np.float64)
    return linear_cross_entropy(Tensor(np.zeros((1, 1))), Tensor(np.zeros((logits.size, 1))),
                                Tensor(logits), np.array([target]), np.ones(1, dtype=bool))


def test_cross_entropy_uniform_logits():
    assert logit_loss([0.0, 0.0], 0).item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_cross_entropy_saturated_no_overflow():
    assert logit_loss([1000.0, -1000.0], 0).item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_matches_log_sum_exp_oracle(rng):
    logits = rng.normal(size=7) * 3
    got = logit_loss(logits, 4).item()
    assert abs(got - oracles.cross_entropy_direct(logits, 4)) <= 1e-10


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        logit_loss([0.0, 0.0], 2)
    with pytest.raises(IndexError):
        logit_loss([0.0, 0.0], -1)


@pytest.mark.parametrize("vocab", [5, 923])
def test_linear_cross_entropy_matches_linear_then_cross_entropy(vocab):
    rng = np.random.default_rng(vocab)
    h_data, w_data, b_data = (rng.normal(size=s) for s in [(4, 6, 8), (vocab, 8), vocab])
    target = rng.integers(0, vocab, size=(4, 6))
    # ragged rows scored from step 1; the third row has no scored step
    mask = (np.arange(6) >= 1) & (np.arange(6) < np.array([6, 3, 0, 2])[:, None])
    h, w, b = (Tensor(a, requires_grad=True) for a in (h_data, w_data, b_data))
    fused = linear_cross_entropy(h, w, b, target, mask)
    got = [fused.item(), *grad_of(fused, h, w, b)]

    rows = h_data.reshape(-1, 8)
    logits = rows @ w_data.T + b_data
    loss = sum(oracles.cross_entropy_direct(z, t)
               for z, t, m in zip(logits, target.ravel(), mask.ravel()) if m)
    # closed form: softmax - onehot on the scored rows, zero on the others
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    d = (probs - np.eye(vocab)[target.ravel()]) * mask.reshape(-1, 1)
    for have, want in zip(got, [loss, (d @ w_data).reshape(h_data.shape), d.T @ rows,
                                d.sum(axis=0)]):
        assert np.max(np.abs(np.asarray(have) - want)) <= 1e-12


def test_linear_cross_entropy_shape_contracts():
    h, w, b = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 4))), Tensor(np.zeros(5))
    target, mask = np.zeros((2, 3), dtype=int), np.ones((2, 3), dtype=bool)
    with pytest.raises(ShapeError):
        linear_cross_entropy(h, w, b, target, mask[:, :2])
    with pytest.raises(ShapeError):
        linear_cross_entropy(h, w, Tensor(np.zeros(4)), target, mask)
    with pytest.raises(IndexError):
        linear_cross_entropy(h, w, b, target + 5, mask)


# ---------------------------------------------------------------------------
# lstm_sequence


@pytest.mark.parametrize("reads_cells", [True, False])
def test_lstm_sequence_padded_steps_move_no_valid_state_or_gradient(rng, reads_cells):
    # every row runs all T steps; no step reads a later one, so whatever fills
    # the steps past a row's length leaves the states before it, and the
    # gradients of a loss that reads only those states, the same to the bit
    n, steps, width, hd = 3, 5, 4, 3
    valid = np.arange(steps) < np.array([5, 2, 1])[:, None]
    x_valid = rng.normal(size=(n, steps, width))
    state = [rng.normal(size=s) for s in [(n, hd), (n, hd), (4 * hd, width), (4 * hd, hd),
                                          4 * hd]]
    r_h, r_c = (rng.normal(size=(n, steps, hd)) * valid[..., None] for _ in range(2))

    def run(fill):
        x = Tensor(np.where(valid[..., None], x_valid, fill), requires_grad=True)
        h0, c0, w_input, w_hidden, bias = (Tensor(a, requires_grad=True) for a in state)
        h, c = lstm_sequence(x, h0, c0, w_input, w_hidden, bias)
        loss = sum_all(mul(h, Tensor(r_h)))
        if reads_cells:
            loss = add(loss, sum_all(mul(c, Tensor(r_c))))
        grads = grad_of(loss, w_input, w_hidden, bias, h0, c0, x)
        return [h.data[valid], c.data[valid], *grads[:-1], grads[-1][valid]]

    zeros = run(np.zeros((n, steps, width)))
    noise = run(rng.normal(scale=1e3, size=(n, steps, width)))
    for a, b in zip(zeros, noise):
        assert a.tobytes() == b.tobytes()


def _buffered_lstm_sequence(x, h0, c0, w_input, w_hidden, bias):
    """The step loop ``lstm_sequence`` replaced: every step's activations are
    copied into one [5, B, T, H] buffer, which the BPTT reads back."""
    xd, wi, wh, b = x.data, w_input.data, w_hidden.data, bias.data
    n, steps, width = xd.shape
    hd = wh.shape[1]
    h_init, c_init = h0.data, c0.data
    xw = (xd.reshape(n * steps, width) @ wi.T).reshape(n, steps, 4 * hd) + b
    hs = np.empty((n, steps, hd))
    cs = np.empty((n, steps, hd))
    acts = np.empty((5, n, steps, hd))
    h, c = h_init, c_init
    for t in range(steps):
        h, c, step_acts = _three_call_lstm_cell(xw[:, t] + h @ wh.T, c)
        hs[:, t], cs[:, t] = h, c
        for k, a in enumerate(step_acts):
            acts[k, :, t] = a
    c_seen = []

    def grad_fn(gh):
        gc = c_seen[-1] if c_seen else None
        dgates = np.empty((n, steps, 4 * hd))
        dh = np.zeros((n, hd))
        dc = np.zeros((n, hd))
        for t in range(steps - 1, -1, -1):
            i, f, g, o, tc = acts[:, :, t]
            dh = dh + gh[:, t]
            if gc is not None:
                dc = dc + gc[:, t]
            dc = dc + dh * o * (1.0 - tc * tc)
            c_prev = cs[:, t - 1] if t else c_init
            dg = dgates[:, t]
            dg[:, :hd] = dc * g * i * (1.0 - i)
            dg[:, hd:2 * hd] = dc * c_prev * f * (1.0 - f)
            dg[:, 2 * hd:3 * hd] = dc * i * (1.0 - g * g)
            dg[:, 3 * hd:] = dh * tc * o * (1.0 - o)
            dc = dc * f
            dh = dg @ wh
        rows = dgates.reshape(n * steps, 4 * hd)
        w_input.grad += rows.T @ xd.reshape(n * steps, width)
        h_prev = np.concatenate([h_init[:, None], hs[:, :-1]], axis=1)
        w_hidden.grad += rows.T @ h_prev.reshape(n * steps, hd)
        bias.grad += rows.sum(axis=0)
        x.grad += (rows @ wi).reshape(n, steps, width)
        h0.grad += dh
        c0.grad += dc

    h_out = tensor._track(hs, (x, h0, c0, w_input, w_hidden, bias), grad_fn)
    return h_out, tensor._track(cs, (h_out,), c_seen.append)


@pytest.mark.parametrize("shape", [(1, 1, 3, 1), (3, 5, 4, 7), (8, 12, 32, 32), (2, 3, 16, 512)])
@pytest.mark.parametrize("reads_cells", [True, False])
def test_lstm_sequence_is_bit_identical_to_buffered_step_loop(shape, reads_cells):
    n, steps, width, hd = shape
    rng = np.random.default_rng(sum(shape) + reads_cells)
    arrays = [rng.normal(size=s) for s in [(n, steps, width), (n, hd), (n, hd),
                                           (4 * hd, width), (4 * hd, hd), 4 * hd]]
    r_h, r_c = rng.normal(size=(2, n, steps, hd))
    results = []
    for op in (lstm_sequence, _buffered_lstm_sequence):
        params = [Tensor(a, requires_grad=True) for a in arrays]
        h, c = op(*params)
        loss = sum_all(mul(h, Tensor(r_h)))
        if reads_cells:
            loss = add(loss, sum_all(mul(c, Tensor(r_c))))
        results.append(_bits(h.data, c.data, *grad_of(loss, *params)))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# backward contracts


def test_backward_sum_gives_ones():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(sum_all(w))
    assert np.array_equal(w.grad, [1.0, 1.0, 1.0])


def test_backward_unrelated_parameter_keeps_zero_grad():
    w = Tensor([1.0, 2.0], requires_grad=True)
    other = Tensor([5.0], requires_grad=True)
    backward(sum_all(mul(w, w)))
    assert np.array_equal(other.grad, [0.0])


def test_backward_rejects_non_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        backward(add(w, w))


def test_backward_is_bit_deterministic(rng):
    data = rng.normal(size=6)

    def run():
        w = Tensor(data.reshape(1, -1), requires_grad=True)
        loss = linear_cross_entropy(mul(w, w), Tensor(np.eye(6)), Tensor(np.zeros(6)),
                                    np.array([2]), np.ones(1, dtype=bool))
        backward(loss)
        return w.grad.tobytes()

    assert run() == run()


def test_topo_order_parents_precede_and_unique(rng):
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    shared = matmul(a, b)
    loss = sum_all(add(mul(shared, shared), shared))
    order = topo_order(loss)
    positions = {id(node): i for i, node in enumerate(order)}
    assert len(positions) == len(order)  # visited once
    for node in order:
        for parent in node._parents:
            assert positions[id(parent)] < positions[id(node)]


# ---------------------------------------------------------------------------
# gradient checks: every primitive, many seeds


def _random_graph_cases(seed):
    """Composite graphs mixing primitives, avoiding relu/pool kink points."""
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=5), requires_grad=True)
    tab = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    r3 = rng.normal(size=3)
    r4 = rng.normal(size=(2, 5))
    mask = rng.random(4) < 0.6
    zeros3, eye5, zeros5 = Tensor(np.zeros(3)), Tensor(np.eye(5)), Tensor(np.zeros(5))
    scored = np.ones(2, dtype=bool)

    def build():
        h = scale(matmul(w1, v), 0.5)
        h = dropout(h, 0.6, mask=mask)
        z = linear(h, w2)
        e = embedding_lookup(tab, 2)
        mixed = concat([mul(z, Tensor(r3)), mul(h, h), e])
        rows = reshape(mixed, (2, 5))
        # the logits of z, then of rows through an identity layer
        loss_z = linear_cross_entropy(reshape(h, (1, -1)), w2, zeros3, np.array([1]),
                                      scored[:1])
        loss_rows = linear_cross_entropy(rows, eye5, zeros5, np.array([4, 0]), scored)
        return add(loss_z, add(loss_rows, sum_all(mul(rows, Tensor(r4)))))

    return [w1, w2, v, tab], build


@pytest.mark.parametrize("seed", range(50))
def test_composite_graph_matches_finite_differences(seed):
    params, build = _random_graph_cases(seed)
    for p in params:
        p.zero_grad()
    backward(build())
    for p in params:
        numeric = oracles.finite_diff_slopes(lambda: float(build().data), p.data)[0]
        assert oracles.max_rel_error(p.grad, numeric) <= 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_conv_pool_flatten_grad_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    r = rng.normal(size=12)

    def build():
        fmap = conv2d(x, k, b)
        return sum_all(mul(reshape(max_pool2(fmap), (-1,)), Tensor(r)))

    for p in (x, k, b):
        p.zero_grad()
    backward(build())
    for p in (x, k, b):
        numeric = oracles.finite_diff_slopes(lambda: float(build().data), p.data)[0]
        assert oracles.max_rel_error(p.grad, numeric) <= 1e-4


def test_scale_gradient():
    w = Tensor([2.0, -1.0], requires_grad=True)
    backward(sum_all(scale(w, 3.5)))
    assert np.array_equal(w.grad, [3.5, 3.5])


# ---------------------------------------------------------------------------
# embedding specifics


def test_embedding_returns_exact_row(rng):
    table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    assert np.array_equal(embedding_lookup(table, 3).data, table.data[3])


def test_embedding_double_lookup_doubles_gradient(rng):
    table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    loss = sum_all(add(embedding_lookup(table, 2), embedding_lookup(table, 2)))
    backward(loss)
    assert np.array_equal(table.grad[2], [2.0] * 4)
    assert np.all(table.grad[[0, 1, 3, 4]] == 0.0)


def test_embedding_matches_one_hot_matmul_oracle(rng):
    table = rng.normal(size=(6, 3))
    one_hot = np.zeros((1, 6))
    one_hot[0, 4] = 1.0
    want = oracles.naive_matmul(one_hot, table)[0]
    got = embedding_lookup(Tensor(table), 4).data
    assert np.max(np.abs(got - want)) <= 1e-12


def test_embedding_out_of_range():
    with pytest.raises(IndexError, match="token id 7"):
        embedding_lookup(Tensor(np.zeros((5, 2))), 7)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_expected_value_statistics():
    rng = np.random.default_rng(99)
    x = Tensor(np.ones(100))
    total = 0.0
    n_masks = 10_000
    for _ in range(n_masks):
        total += float(dropout(x, 0.7, mask=rng.random(100) < 0.7).data.sum())
    mean = total / (n_masks * 100)
    assert abs(mean - 1.0) <= 0.01


def test_dropout_keep_outside_zero_to_one_is_a_config_error():
    with pytest.raises(ConfigError):
        dropout(Tensor([1.0]), 0.0, mask=np.array([True]))


def test_dropout_without_a_mask_is_a_type_error():
    with pytest.raises(TypeError):
        dropout(Tensor([1.0]), 0.5)


def test_dropout_explicit_mask_rescales():
    x = Tensor([2.0, 4.0, 6.0, 8.0])
    out = dropout(x, 0.5, mask=np.array([True, False, True, False]))
    assert np.array_equal(out.data, [4.0, 0.0, 12.0, 0.0])


# ---------------------------------------------------------------------------
# small shape contracts


def test_concat_and_slice_roundtrip(rng):
    a, b = rng.normal(size=4), rng.normal(size=3)
    joined = concat([Tensor(a), Tensor(b)])
    assert np.array_equal(joined.data, np.concatenate([a, b]))
    assert np.array_equal(joined.data[4:7], b)


def test_max_pool_drops_odd_edge(rng):
    x = rng.normal(size=(1, 1, 5, 5))
    out = max_pool2(Tensor(x)).data
    assert out.shape == (1, 1, 2, 2)
    assert out[0, 0, 0, 0] == x[0, 0, :2, :2].max()
    with pytest.raises(ShapeError, match=r"\[B,c,h,w\]"):
        max_pool2(Tensor(x[0]))
