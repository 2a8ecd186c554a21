import numpy as np
import pytest

from conftest import tiny_model
from reviewnet.dataset import build_vocab, synth_dataset, tokenize
from reviewnet.errors import ConfigError, NumericError
from reviewnet.tensor import Tensor, backward, mul, sum_all, topo_order
from reviewnet.trainer import (TrainConfig, batch_loss, make_instances, sgd_step, train,
                               tune_alpha_beta, write_metrics_csv)


def synth_with_vocab(seed=31, n_images=8, **kw):
    ds = synth_dataset(seed, n_images, **kw)
    corpus = [tokenize(c) for ex in ds.split("train") for c in ex.comments]
    ds.vocab = build_vocab(corpus, min_count=4)
    return ds


def fresh_model(variant="model1", ds=None, seed=0, **overrides):
    vocab_size = len(ds.vocab) if ds is not None and ds.vocab is not None else 10
    feature_dim = ds.feature_dim if ds is not None else 8
    return tiny_model(variant, seed=seed, vocab_size=vocab_size,
                      feature_dim=feature_dim, **overrides)


def test_update_rule_closed_form():
    # w=1, loss=w^2: one step at lr 0.1 lands exactly on 0.8
    w = Tensor(np.array([1.0]), requires_grad=True)
    loss = sum_all(mul(w, w))
    backward(loss)
    w.data -= 0.1 * w.grad
    assert w.data[0] == pytest.approx(0.8, abs=1e-15)


def test_zero_gradient_leaves_parameters_unchanged(rng):
    ds = synth_with_vocab()
    model = fresh_model("model1", ds)
    before = {k: v.copy() for k, v in model.param_state().items()}
    config = TrainConfig(dropout_keep=1.0, alpha=0.0, beta=0.0, epochs=1)
    batch = make_instances(ds.split("train"), ds.vocab, 30)[:4]
    sgd_step(model, batch, config, rng=None)
    after = model.param_state()
    for name in before:
        assert np.array_equal(before[name], after[name])


def test_sgd_step_is_bit_reproducible():
    def run():
        ds = synth_with_vocab()
        model = fresh_model("model2", ds, seed=3)
        config = TrainConfig(dropout_keep=0.7, epochs=1, seed=5)
        batch = make_instances(ds.split("train"), ds.vocab, 30)[:8]
        sgd_step(model, batch, config, rng=np.random.default_rng(5))
        return {k: v.tobytes() for k, v in model.param_state().items()}

    first, second = run(), run()
    assert first == second


def test_sgd_step_aborts_on_non_finite_loss():
    ds = synth_with_vocab()
    model = fresh_model("model1", ds)
    model.params["embedding.table"].data[...] = np.nan
    batch = make_instances(ds.split("train"), ds.vocab, 30)[:2]
    with pytest.raises(NumericError, match="img"):
        sgd_step(model, batch, TrainConfig(epochs=1), rng=None)


def test_make_instances_expands_each_comment(rng):
    ds = synth_with_vocab(n_images=4)
    instances = make_instances(ds.examples, ds.vocab, 30)
    assert len(instances) == 4 * 6
    lengths = {len(inst.caption) for inst in instances}
    assert all(0 < n <= 30 for n in lengths)


def test_make_instances_caps_caption_length():
    ds = synth_with_vocab(n_images=4)
    instances = make_instances(ds.examples, ds.vocab, 3)
    assert all(len(inst.caption) == 3 for inst in instances)


def test_train_epochs_zero_returns_initial_model():
    ds = synth_with_vocab(n_images=10)
    model = fresh_model("model1", ds, seed=1)
    before = model.param_state()
    result = train(model, ds, TrainConfig(epochs=0, seed=0))
    assert result.log == []
    after = model.param_state()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_train_requires_populated_splits():
    ds = synth_with_vocab(n_images=4)  # per-class count 2 never yields a valid split
    model = fresh_model("model1", ds)
    with pytest.raises(ConfigError, match="valid split"):
        train(model, ds, TrainConfig(epochs=1))


def test_train_same_seed_gives_identical_logs():
    def run():
        ds = synth_with_vocab(n_images=10)
        model = fresh_model("model2", ds, seed=2)
        result = train(model, ds, TrainConfig(epochs=3, batch_size=4, seed=9))
        return [(r.epoch, r.train_loss, r.valid_loss, r.valid_accuracy) for r in result.log]

    first, second = run(), run()
    assert first == second
    assert all(np.isfinite(row[1]) and np.isfinite(row[2]) for row in first)


def test_train_smoothed_loss_is_non_increasing_over_first_steps():
    ds = synth_with_vocab(n_images=10)
    model = fresh_model("model1", ds, seed=4)
    config = TrainConfig(epochs=1, batch_size=8, dropout_keep=1.0, seed=3)
    instances = make_instances(ds.split("train"), ds.vocab, 30)
    batches = [instances[i:i + 8] for i in range(0, len(instances), 8)]
    losses = [sgd_step(model, batches[i % len(batches)], config, rng=None)
              for i in range(50)]
    smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
    assert np.all(np.diff(smoothed) <= 1e-9)


def test_frozen_feature_inputs_are_bit_identical_after_training():
    ds = synth_with_vocab(n_images=10)
    snapshots = [ex.inputs.copy() for ex in ds.examples]
    model = fresh_model("model2", ds, seed=5)
    train(model, ds, TrainConfig(epochs=2, batch_size=4, seed=1))
    for before, ex in zip(snapshots, ds.examples):
        assert before.tobytes() == ex.inputs.tobytes()


def test_best_checkpoint_restored_and_reproduces_valid_loss():
    ds = synth_with_vocab(n_images=10)
    model = fresh_model("model1", ds, seed=6)
    config = TrainConfig(epochs=4, batch_size=4, seed=2)
    result = train(model, ds, config)
    best_row = min(result.log, key=lambda r: r.valid_loss)
    assert result.best_epoch == best_row.epoch
    from reviewnet.trainer import _mean_valid_loss

    instances = make_instances(ds.split("valid"), ds.vocab, 30)
    again = _mean_valid_loss(model, instances, config)
    assert again == result.best_valid_loss  # restored weights, identical to the bit


@pytest.mark.parametrize("valid_losses, best_epoch", [
    ([3.0, 2.0, 1.0], 3),  # the last epoch is the best
    ([3.0, 1.0, 2.0], 2),  # an earlier one is
    ([float("nan")] * 3, 0),  # none is: the initial state comes back
])
def test_best_state_is_a_separate_snapshot_of_the_best_epoch(monkeypatch, valid_losses,
                                                              best_epoch):
    ds = synth_with_vocab(n_images=10)
    model = fresh_model("model1", ds, seed=7)
    states = [model.param_state()]  # the state after each epoch, the initial one first
    scripted = iter(valid_losses)

    def scripted_valid_loss(m, instances, config):
        states.append(m.param_state())
        return next(scripted)

    monkeypatch.setattr("reviewnet.trainer._mean_valid_loss", scripted_valid_loss)
    result = train(model, ds, TrainConfig(epochs=3, batch_size=4, seed=2))
    assert result.best_epoch == best_epoch
    for name, p in model.params.items():
        assert not np.shares_memory(result.best_state[name], p.data)
        assert np.array_equal(p.data, result.best_state[name])
        assert np.array_equal(p.data, states[best_epoch][name])


def test_metrics_csv_layout(tmp_path):
    ds = synth_with_vocab(n_images=10)
    model = fresh_model("v2l", ds, seed=1)
    result = train(model, ds, TrainConfig(epochs=2, batch_size=4, seed=0))
    path = tmp_path / "log.csv"
    write_metrics_csv(result.log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,valid_loss,valid_accuracy"
    assert len(lines) == 3
    assert lines[1].endswith(",")  # no accuracy column for a caption-only model


def test_tune_singleton_grid_returns_that_pair():
    ds = synth_with_vocab(n_images=10)
    config = TrainConfig(epochs=1, batch_size=4, seed=0)
    pair = tune_alpha_beta(lambda: fresh_model("model1", ds, seed=3), ds, [(0.5, 2.0)], config)
    assert pair == (0.5, 2.0)


def test_tune_ties_go_to_the_earlier_grid_point():
    # untrained, every point's model is the same seeded one, so all score alike
    ds = synth_with_vocab(n_images=10)
    config = TrainConfig(epochs=0, batch_size=4, seed=0)
    for grid in ([(2.0, 0.5), (0.5, 2.0)], [(0.5, 2.0), (2.0, 0.5)]):
        assert tune_alpha_beta(lambda: fresh_model("model1", ds, seed=3), ds, grid,
                               config) == grid[0]


def test_tune_empty_grid_rejected():
    ds = synth_with_vocab(n_images=10)
    with pytest.raises(ConfigError):
        tune_alpha_beta(lambda: fresh_model("model1", ds), ds, [], TrainConfig(epochs=1))


def test_tune_selection_is_never_dominated():
    ds = synth_with_vocab(n_images=10)
    config = TrainConfig(epochs=1, batch_size=4, seed=0)
    grid = [(a, b) for a in (0.25, 1.0) for b in (0.25, 1.0)]

    def factory():
        return fresh_model("model2", ds, seed=8)

    chosen = tune_alpha_beta(factory, ds, grid, config)
    assert chosen in grid

    # exhaustive re-evaluation: no grid point beats the returned pair
    from dataclasses import replace

    from reviewnet.trainer import _valid_accuracy, _valid_bleu1

    def evaluate(pair):
        model = factory()
        train(model, ds, replace(config, alpha=pair[0], beta=pair[1]))
        acc = _valid_accuracy(model, ds.split("valid"))
        bleu1 = _valid_bleu1(model, ds.split("valid"), ds.vocab, 30)
        return (acc, bleu1)

    chosen_key = evaluate(chosen)
    for pair in grid:
        assert evaluate(pair) <= chosen_key


def _plant_nan_gradient(monkeypatch):
    """Make every backward pass in the trainer leave a NaN in one parameter's gradient."""
    from reviewnet import trainer as trainer_module

    real_backward = trainer_module.backward

    def backward_with_nan(loss):
        real_backward(loss)
        leaf = next(node for node in topo_order(loss) if not node._parents)
        leaf.grad.flat[0] = np.nan

    monkeypatch.setattr(trainer_module, "backward", backward_with_nan)


def test_sgd_step_rejects_non_finite_gradient_before_updating(monkeypatch):
    ds = synth_with_vocab()
    model = fresh_model("model2", ds, seed=3)
    _plant_nan_gradient(monkeypatch)
    before = {name: p.data.tobytes() for name, p in model.params.items()}
    batch = make_instances(ds.split("train"), ds.vocab, 30)[:4]
    for clip_norm in (None, 1.0):
        with pytest.raises(NumericError, match=r"non-finite gradient.*img"):
            sgd_step(model, batch, TrainConfig(epochs=1, clip_norm=clip_norm), rng=None)
        assert {name: p.data.tobytes() for name, p in model.params.items()} == before


def test_sgd_step_rejects_overflowing_clip_norm():
    ds = synth_with_vocab()
    model = fresh_model("model1", ds, seed=3)
    before = {name: p.data.tobytes() for name, p in model.params.items()}
    batch = make_instances(ds.split("train"), ds.vocab, 30)[:2]
    # the loss and every gradient stay finite, but squared gradients of ~1e200 overflow
    config = TrainConfig(epochs=1, clip_norm=1.0, alpha=1e200)
    with pytest.raises(NumericError, match=r"gradient norm inf.*img"):
        sgd_step(model, batch, config, rng=None)
    assert {name: p.data.tobytes() for name, p in model.params.items()} == before


def test_train_cli_exits_4_on_non_finite_gradient(monkeypatch, tmp_path):
    from reviewnet.cli import main

    data = tmp_path / "data"
    assert main(["synth-data", "--seed", "3", "--n-images", "10", "--out", str(data)]) == 0
    assert main(["build-vocab", "--data", str(data)]) == 0
    _plant_nan_gradient(monkeypatch)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(data), "--variant", "model1", "--epochs", "1",
                 "--out", str(ckpt), "--embed-dim", "8", "--hidden-dim", "8",
                 "--batch-size", "4"]) == 4
    assert not ckpt.exists()


def test_clipped_step_equals_step_on_gradient_scaled_to_clip_norm():
    ds = synth_with_vocab()
    batch = make_instances(ds.split("train"), ds.vocab, 30)[:4]
    config = TrainConfig(epochs=1, dropout_keep=1.0, clip_norm=0.05)

    clipped = fresh_model("model2", ds, seed=3)
    sgd_step(clipped, batch, config, rng=None)

    reference = fresh_model("model2", ds, seed=3)
    reference.zero_grad()
    backward(batch_loss(reference, batch, config, None))
    grads = {name: p.grad.copy() for name, p in reference.params.items()}
    norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    assert norm > config.clip_norm  # the clip is active
    for name, p in reference.params.items():
        want = p.data - config.learning_rate * grads[name] * (config.clip_norm / norm)
        assert np.max(np.abs(clipped.params[name].data - want)) <= 1e-15
