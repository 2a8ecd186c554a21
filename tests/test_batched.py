"""The batched loss against the per-instance reference it replaced.

The reference builds each instance's loss step by step on the tape, with the
LSTM cell composed gate by gate from slice, sigmoid and tanh nodes, each
head's loss a one-row cross-entropy node on its logits, and dropout masks
drawn where each connection is used. The batched loss pads the captions and
runs one ``lstm_sequence`` per stacked cell.
"""

import numpy as np
import pytest

from conftest import TINY, tiny_model
from reviewnet.dataset import END_ID, MAX_CAPTION_LEN, START_ID
from reviewnet.model import ModelConfig, ReviewerModel, Variant
from reviewnet.tensor import (Tensor, _track, add, backward, dropout, matmul, mul, scale,
                              stable_sigmoid)
from reviewnet.trainer import Instance, TrainConfig, batch_loss

# ---------------------------------------------------------------------------
# the per-instance reference


def _slice(x, start, stop):
    def grad_fn(g):
        if x.requires_grad:
            x.grad[start:stop] += g

    return _track(x.data[start:stop].copy(), (x,), grad_fn)


def _sigmoid(x):
    s = stable_sigmoid(x.data)

    def grad_fn(g):
        if x.requires_grad:
            x.grad += g * s * (1.0 - s)

    return _track(s, (x,), grad_fn)


def _tanh(x):
    t = np.tanh(x.data)

    def grad_fn(g):
        if x.requires_grad:
            x.grad += g * (1.0 - t * t)

    return _track(t, (x,), grad_fn)


def _cross_entropy(logits, target):
    """-log softmax(logits)[target] of one logit vector, through log-sum-exp."""
    z = logits.data - logits.data.max()
    e = np.exp(z)
    se = e.sum()
    probs = e / se

    def grad_fn(g):
        if logits.requires_grad:
            d = probs.copy()
            d[target] -= 1.0
            logits.grad += float(g) * d

    return _track(np.asarray(np.log(se) - z[target]), (logits,), grad_fn)


def _cell_step(cell, h, c, x):
    hd = cell.hidden_dim
    gates = add(add(matmul(cell.w_input, x), matmul(cell.w_hidden, h)), cell.bias)
    i = _sigmoid(_slice(gates, 0, hd))
    f = _sigmoid(_slice(gates, hd, 2 * hd))
    g = _tanh(_slice(gates, 2 * hd, 3 * hd))
    o = _sigmoid(_slice(gates, 3 * hd, 4 * hd))
    c = add(mul(f, c), mul(i, g))
    return mul(o, _tanh(c)), c


def _dropout(x, keep, rng):
    return dropout(x, keep, mask=rng.random(x.data.shape) < keep)


def _run_cells(model, state, x, keep, rng):
    if keep < 1.0:
        x = _dropout(x, keep, rng)
    new_state = []
    for k, (cell, (h, c)) in enumerate(zip(model.cells, state)):
        h, c = _cell_step(cell, h, c, x)
        new_state.append((h, c))
        x = h
        if keep < 1.0 and k + 1 < len(model.cells):
            x = _dropout(x, keep, rng)
    return new_state


def _reference_language(model, rep_gen, caption, keep, rng):
    x_img = model.gen_adapter(rep_gen) if model.gen_adapter is not None else rep_gen
    zeros = Tensor(np.zeros(model.config.hidden_dim))
    state = _run_cells(model, [(zeros, zeros)] * len(model.cells), x_img, keep, rng)
    loss = None
    for inp, target in zip([START_ID] + caption, caption + [END_ID]):
        state = _run_cells(model, state, model.embedding(inp), keep, rng)
        h = state[-1][0]
        if keep < 1.0:
            h = _dropout(h, keep, rng)
        term = _cross_entropy(model.out_proj(h), target)
        loss = term if loss is None else add(loss, term)
    return loss


def reference_loss(model, batch, config, rng):
    """Mean over the batch of each instance's loss, built one instance at a time."""
    keep = config.dropout_keep if rng is not None else 1.0
    total = None
    for inst in batch:
        rep_cls, rep_gen = model.representation(model.image_representation(inst.inputs))
        aes = lang = None
        if model.variant.has_classifier:
            aes = _cross_entropy(model.classifier(rep_cls), inst.label)
        if model.variant.has_generator:
            lang = _reference_language(model, rep_gen, list(inst.caption), keep, rng)
        if model.variant.multi_task:
            loss = add(scale(aes, config.alpha), scale(lang, config.beta))
        else:
            loss = aes if aes is not None else lang
        total = loss if total is None else add(total, loss)
    return scale(total, 1.0 / len(batch))


# ---------------------------------------------------------------------------
# equivalence


def _model(variant, layers):
    if Variant(variant) is Variant.MT_BASELINE:
        return ReviewerModel(variant, ModelConfig(vocab_size=10, lstm_layers=layers, **TINY),
                             seed=3)
    return tiny_model(variant, seed=3, lstm_layers=layers)


def _ragged_batch(variant, rng):
    """Four instances whose captions run from one token to the length cap."""
    lengths = (1, MAX_CAPTION_LEN, 7, 2)
    batch = []
    for k, n in enumerate(lengths):
        inputs = (rng.random((3, 32, 32)) if Variant(variant) is Variant.MT_BASELINE
                  else rng.normal(size=8))
        batch.append(Instance(f"img{k}", inputs, k % 2, tuple(rng.integers(3, 10, size=n))))
    return batch


def _loss_and_grads(model, build):
    model.zero_grad()
    loss = build()
    backward(loss)
    return loss.item(), {name: p.grad.copy() for name, p in model.params.items()}


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("variant", [v.value for v in Variant])
@pytest.mark.parametrize("dropout_on", [False, True])
def test_batched_loss_matches_per_instance_reference(variant, layers, dropout_on):
    model = _model(variant, layers)
    batch = _ragged_batch(variant, np.random.default_rng(11))
    config = TrainConfig(dropout_keep=0.7, alpha=0.6, beta=1.3)

    def rng():
        return np.random.default_rng(5) if dropout_on else None

    rng_ref, rng_new = rng(), rng()
    want, want_grads = _loss_and_grads(model, lambda: reference_loss(model, batch, config,
                                                                     rng_ref))
    got, got_grads = _loss_and_grads(model, lambda: batch_loss(model, batch, config, rng_new))
    assert abs(got - want) <= 1e-12
    for name in want_grads:
        assert np.max(np.abs(got_grads[name] - want_grads[name])) <= 1e-12, name
    if dropout_on:
        # the same draws, so the generator is left in the same state
        assert rng_new.random() == rng_ref.random()
