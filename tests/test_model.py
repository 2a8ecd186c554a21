import math
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import (oracle_decoder, randomize_params, save_with_oversized_dims, tiny_model,
                      two_layer_model)
from reviewnet import oracles
from reviewnet.dataset import END_ID, START_ID
from reviewnet.errors import ConfigError, ContractError, DataError, ShapeError
from reviewnet.inference import beam_search, predict_class, score_caption
from reviewnet.model import (CHECKPOINT_MAGIC, MAX_LSTM_LAYERS, MAX_PARAMETERS, ModelConfig,
                             ReviewerModel, Variant, _param_shapes, _resolve_config,
                             load_checkpoint, save_checkpoint)
from reviewnet.tensor import Tensor, backward, topo_order


# ---------------------------------------------------------------------------
# representation


def test_identity_shared_layer_passes_nonnegative_features_through(rng):
    model = tiny_model("model1")
    model.shared.weight.data[...] = np.eye(8)
    v = np.abs(rng.normal(size=8))
    rep_cls, rep_gen = model.representation(model.image_representation(v))
    assert np.max(np.abs(rep_cls.data - v)) <= 1e-12
    assert rep_cls is rep_gen


def test_default_widths_match_architecture_contract():
    m1 = ReviewerModel(Variant.MODEL_I, ModelConfig(vocab_size=10, feature_dim=32), seed=0)
    rep_cls, rep_gen = m1.representation(m1.image_representation(np.zeros(32)))
    assert rep_cls.data.shape == (512,) and rep_gen.data.shape == (512,)

    m2 = ReviewerModel(Variant.MODEL_II, ModelConfig(vocab_size=10, feature_dim=32), seed=0)
    rep_cls, rep_gen = m2.representation(m2.image_representation(np.zeros(32)))
    assert rep_cls.data.shape == (512,) and rep_gen.data.shape == (512,)
    assert m2.config.shared_dim == 256 and m2.config.specific_dim == 256


def test_model2_representation_is_specific_then_shared_concat(rng):
    model = tiny_model("model2")
    v = rng.normal(size=8)
    vt = model.image_representation(v)
    rep_cls, rep_gen = model.representation(vt)
    shared = np.maximum(model.shared.weight.data @ v, 0.0)
    cls_specific = np.maximum(model.cls_specific.weight.data @ v, 0.0)
    gen_specific = np.maximum(model.gen_specific.weight.data @ v, 0.0)
    assert np.max(np.abs(rep_cls.data - np.concatenate([cls_specific, shared]))) <= 1e-12
    assert np.max(np.abs(rep_gen.data - np.concatenate([gen_specific, shared]))) <= 1e-12


def test_representation_matches_relu_matmul_oracle(rng):
    model = tiny_model("model1")
    v = rng.normal(size=8)
    rep = model.representation(model.image_representation(v))[0].data
    want = np.maximum(oracles.naive_matmul(model.shared.weight.data, v.reshape(-1, 1))[:, 0], 0.0)
    assert np.max(np.abs(rep - want)) <= 1e-12


def test_passthrough_variants_leave_features_untouched(rng):
    v = rng.normal(size=8)
    for name in ("iac", "v2l"):
        model = tiny_model(name)
        rep_cls, rep_gen = model.representation(model.image_representation(v))
        assert np.array_equal(rep_cls.data, v) and np.array_equal(rep_gen.data, v)


def test_representation_width_mismatch(rng):
    model = tiny_model("model1")
    with pytest.raises(ShapeError):
        model.representation(Tensor(rng.normal(size=5)))


def test_model2_zeroed_specific_layers_decide_from_shared_only(rng):
    model = tiny_model("model2", seed=5)
    model.cls_specific.weight.data[...] = 0.0
    model.gen_specific.weight.data[...] = 0.0
    v = rng.normal(size=8)
    rep_cls, rep_gen = model.representation(model.image_representation(v))
    assert np.all(rep_cls.data[:4] == 0.0) and np.all(rep_gen.data[:4] == 0.0)
    shared = np.maximum(model.shared.weight.data @ v, 0.0)
    manual = np.concatenate([np.zeros(4), shared])
    logits_full = model.classifier(rep_cls).data
    logits_manual = model.classifier(Tensor(manual)).data
    assert np.array_equal(logits_full, logits_manual)


# ---------------------------------------------------------------------------
# losses


def test_aesthetics_loss_uniform_classifier(rng):
    model = tiny_model("iac")
    model.classifier.weight.data[...] = 0.0
    model.classifier.bias.data[...] = 0.0
    out = model.forward([rng.normal(size=8)], [1])
    assert out.aesthetics.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_aesthetics_loss_saturates_towards_zero(rng):
    model = tiny_model("iac")
    model.classifier.weight.data[...] = 0.0
    model.classifier.bias.data[...] = [0.0, 50.0]
    assert model.forward([rng.normal(size=8)], [1]).aesthetics.item() < 1e-3


def test_language_loss_uniform_projection_is_length_times_log_vocab(rng):
    model = tiny_model("v2l", vocab_size=12)
    model.out_proj.weight.data[...] = 0.0
    model.out_proj.bias.data[...] = 0.0
    caption = [4, 5, 6, 7]
    loss = model.forward([rng.normal(size=8)], captions=[caption]).language.item()
    assert loss == pytest.approx((len(caption) + 1) * np.log(12.0), abs=1e-9)


def _step_log_probs(model, features, caption):
    """Next-token log-probabilities [len(caption) + 1, V] of the decoder fed
    the image, START and then each caption token."""
    dec = model.decoder(features)
    state, rows = dec.initial_state, []
    for token in caption:
        rows.append(dec.log_probs(state)[0])
        state = dec.advance(state, [0], [token])
    rows.append(dec.log_probs(state)[0])
    return np.array(rows)


def test_language_loss_single_token_decomposition(rng):
    model = tiny_model("v2l", seed=3)
    features = rng.normal(size=8)
    out = model.forward([features], captions=[[5]])
    step_log_probs = _step_log_probs(model, features, [5])
    assert len(step_log_probs) == 2  # predicts w_1 then END

    want = -(step_log_probs[0, 5] + step_log_probs[1, END_ID])
    assert out.language.item() == pytest.approx(want, abs=1e-12)


def test_language_loss_is_negative_log_of_step_probability_product(rng):
    model = tiny_model("v2l", vocab_size=5, seed=9)
    randomize_params(model, rng)
    features = rng.normal(size=8)
    caption = [4, 0, 4]
    loss = model.forward([features], captions=[caption]).language.item()

    dec, x_img = oracle_decoder(model, features)
    state = dec.advance(dec.initial_state(), x_img)
    state = dec.advance(state, dec.embedding[START_ID])
    log_product = 0.0
    for token in caption + [END_ID]:
        log_product += float(dec.log_probs(state)[token])
        state = dec.advance(state, dec.embedding[token])
    assert np.exp(-loss) == pytest.approx(np.exp(log_product), abs=1e-10)


def test_language_loss_rejects_empty_caption(rng):
    model = tiny_model("v2l")
    with pytest.raises(ContractError):
        model.forward([rng.normal(size=8)], captions=[[]])


def test_step_logit_count_is_caption_length_plus_one(rng):
    model = tiny_model("model1")
    features = rng.normal(size=8)
    caption = [4, 5, 6]
    out = model.forward([features], [0], [caption])
    step_log_probs = _step_log_probs(model, features, caption)
    assert len(step_log_probs) == 4
    # the loss has exactly one term per step: each caption token, then END
    want = -step_log_probs[np.arange(4), caption + [END_ID]].sum()
    assert out.language.item() == pytest.approx(want, abs=1e-12)


def test_training_graph_holds_no_token_logit_block(rng):
    # each head's output layer and loss are one node, so no [B, T, V] token
    # logit (or gradient) block and no [B, 2] class logit block is kept on the tape
    model = tiny_model("model1", vocab_size=50)
    captions = [[4, 5, 6, 7], [8], [9, 10, 11]]
    batch = 3, max(map(len, captions)) + 2, 50
    out = model.forward([rng.normal(size=8) for _ in captions], [0, 1, 0], captions)
    params = {id(p) for p in model.params.values()}
    shapes = [node.data.shape for node in topo_order(out.loss) if id(node) not in params]
    assert batch not in shapes
    assert (batch[0] * batch[1], batch[2]) not in shapes
    assert (batch[0], 2) not in shapes


def test_joint_loss_reduces_to_single_tasks(rng):
    model = tiny_model("model2", seed=2)
    features = rng.normal(size=8)
    caption = [4, 5]

    def joint(alpha, beta):
        return model.forward([features], [1], [caption], alpha=alpha, beta=beta).loss.item()

    out = model.forward([features], [1], [caption])
    aes, lang = out.aesthetics.item(), out.language.item()
    assert joint(1.0, 0.0) == pytest.approx(aes, abs=1e-12)
    assert joint(0.0, 1.0) == pytest.approx(lang, abs=1e-12)
    assert joint(2.0, 3.0) == pytest.approx(2 * aes + 3 * lang, abs=1e-10)


def test_batch_loss_equals_mean_of_singles(rng):
    model = tiny_model("model1", seed=4)
    instances = [(rng.normal(size=8), int(rng.integers(0, 2)), [4, 5 + i]) for i in range(4)]
    singles = [model.forward([f], [y], [c]).loss.item() for f, y, c in instances]
    batch = model.forward(*zip(*instances)).loss.item()
    assert batch == pytest.approx(float(np.mean(singles)), abs=1e-12)


def test_scaling_alpha_beta_scales_loss_and_gradients(rng):
    model = tiny_model("model2", seed=6)
    features, caption, k = rng.normal(size=8), [4, 5, 6], 2.5

    def grads(alpha, beta):
        model.zero_grad()
        loss = model.forward([features], [1], [caption], alpha=alpha, beta=beta).loss
        backward(loss)
        return loss.item(), {n: p.grad.copy() for n, p in model.params.items()}

    base_loss, base = grads(1.0, 1.0)
    scaled_loss, scaled = grads(k, k)
    assert scaled_loss == pytest.approx(k * base_loss, rel=1e-12)
    for name in base:
        assert np.max(np.abs(scaled[name] - k * base[name])) <= 1e-12


def test_losses_are_bit_identical_across_runs(rng):
    features = rng.normal(size=8)
    image = rng.random((3, 32, 32))
    caption = [4, 5]

    def run(variant):
        if variant == "mt-baseline":
            model = ReviewerModel(variant, ModelConfig(vocab_size=10, feature_dim=8,
                                                       embed_dim=8, hidden_dim=8), seed=11)
            return model.forward([image], [1], [caption]).loss.data.tobytes()
        model = tiny_model(variant, seed=11)
        return model.forward([features], [1], [caption]).loss.data.tobytes()

    for variant in ("iac", "v2l", "mt-baseline", "model1", "model2"):
        assert run(variant) == run(variant)


# ---------------------------------------------------------------------------
# trainable parameter sets


def test_trainable_sets_follow_variant_contract():
    m1 = tiny_model("model1")
    assert not any(name.startswith("encoder.") for name in m1.params)

    mtb = ReviewerModel(Variant.MT_BASELINE, ModelConfig(vocab_size=10, feature_dim=8,
                                                         embed_dim=8, hidden_dim=8), seed=0)
    trainable = mtb.params
    assert "encoder.conv1.kernels" in trainable and "encoder.conv2.kernels" in trainable

    v2l = tiny_model("v2l")
    assert "embedding.table" in v2l.params
    assert not any(name.startswith("classifier.") for name in v2l.params)

    iac = tiny_model("iac")
    assert not any(name.startswith(("embedding.", "lstm", "out_proj.", "gen_adapter."))
                   for name in iac.params)


def test_parameter_names_are_unique_slots():
    for name in ("iac", "v2l", "model1", "model2"):
        model = tiny_model(name)
        tensors = list(model.params.values())
        assert len({id(t) for t in tensors}) == len(tensors)


def test_adapter_created_only_when_widths_differ():
    with_adapter = tiny_model("v2l", feature_dim=6)
    assert "gen_adapter.weight" in with_adapter.params
    without = tiny_model("v2l", feature_dim=8)
    assert "gen_adapter.weight" not in without.params


def test_stacked_lstm_depth_knob(rng, tmp_path):
    model = tiny_model("v2l", seed=4, lstm_layers=2)
    assert "lstm0.w_hidden" in model.params and "lstm1.w_hidden" in model.params
    features = rng.normal(size=8)
    loss = model.forward([features], captions=[[4, 5]]).language
    assert np.isfinite(loss.item())
    # graph loss and the decode fast path agree through both layers
    from reviewnet.inference import score_caption

    assert score_caption(model, features, [4, 5, END_ID]) == pytest.approx(-loss.item(), abs=1e-10)
    # depth survives the checkpoint roundtrip
    path = tmp_path / "deep.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config.lstm_layers == 2
    assert np.array_equal(loaded.params["lstm1.w_input"].data, model.params["lstm1.w_input"].data)


def test_lstm_forget_gate_bias_preset():
    model = tiny_model("v2l", lstm_layers=2)
    for cell in model.cells:
        hd = cell.hidden_dim
        assert np.all(cell.bias.data[hd:2 * hd] == 1.0)


@pytest.mark.parametrize("adapter", [False, True])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_param_shapes_list_the_built_parameters_in_order(variant, layers, adapter):
    # an embedding narrower than the 8-wide representation gives every
    # captioner an adapter
    model = tiny_model(variant, lstm_layers=layers, embed_dim=6 if adapter else 8)
    assert ("gen_adapter.weight" in model.params) == (adapter and model.variant.has_generator)
    built = [(name, array.shape) for name, array in model.param_state().items()]
    assert list(_param_shapes(model.variant, model.config).items()) == built


def _no_draw(rng, shape):
    raise AssertionError(f"a parameter of shape {shape} was drawn")


def test_the_parameter_bound_is_checked_before_any_draw(monkeypatch):
    n = sum(p.data.size for p in tiny_model("model2").params.values())
    monkeypatch.setattr("reviewnet.model.MAX_PARAMETERS", n)
    tiny_model("model2")
    monkeypatch.setattr("reviewnet.model.MAX_PARAMETERS", n - 1)
    monkeypatch.setattr("reviewnet.model.uniform_param", _no_draw)
    with pytest.raises(ConfigError, match=f"make {n} parameters; at most {n - 1} fit"):
        tiny_model("model2")


def test_the_parameter_bound_leaves_room_for_the_paper_widths():
    # model2 at width 512 on 2048-d features, with a 20,000-token vocabulary
    config = _resolve_config(Variant.MODEL_II, ModelConfig(vocab_size=20_000))
    total = sum(math.prod(shape) for shape in _param_shapes(Variant.MODEL_II, config).values())
    assert 20_000_000 < total < MAX_PARAMETERS / 5


def test_lstm_depth_is_bounded_before_the_layout_is_listed(monkeypatch):
    narrow = ModelConfig(vocab_size=10, feature_dim=1, embed_dim=1, hidden_dim=1)
    deepest = _resolve_config(Variant.V2L, replace(narrow, lstm_layers=MAX_LSTM_LAYERS))
    assert len(_param_shapes(Variant.V2L, deepest)) == 3 * MAX_LSTM_LAYERS + 3
    def no_layout(variant, config):
        raise AssertionError("the layout of a stack past the bound was listed")

    monkeypatch.setattr("reviewnet.model._param_shapes", no_layout)
    too_deep = replace(narrow, lstm_layers=MAX_LSTM_LAYERS + 1)
    with pytest.raises(ConfigError, match=f"at most {MAX_LSTM_LAYERS} lstm_layers fit, got 1025"):
        _resolve_config(Variant.V2L, too_deep)


def test_modality_guards(rng):
    frozen = tiny_model("model1")
    with pytest.raises(ShapeError):
        frozen.image_representation(rng.random((3, 32, 32)))
    # one feature vector or a stacked batch of them, nothing deeper
    assert frozen.image_representation(np.zeros((2, 8))).data.shape == (2, 8)
    with pytest.raises(ShapeError):
        frozen.image_representation(rng.normal(size=(2, 3, 8)))
    mtb = ReviewerModel(Variant.MT_BASELINE, ModelConfig(vocab_size=10, feature_dim=8,
                                                         embed_dim=8, hidden_dim=8), seed=0)
    with pytest.raises(ShapeError, match=r"\(3, 32, 32\)"):
        mtb.image_representation(rng.normal(size=8))
    # decoding and class prediction take one example, not a stacked batch
    for model, batch, shape in ((frozen, np.ones((3, 8)), r"\(3, 8\)"),
                                (mtb, rng.random((2, 3, 32, 32)), r"\(2, 3, 32, 32\)")):
        for decode in (model.decoder, lambda x: predict_class(model, x),
                       lambda x: beam_search(model, x), lambda x: score_caption(model, x, [4])):
            with pytest.raises(ShapeError, match=shape):
                decode(batch)


# ---------------------------------------------------------------------------
# the stacked decoder


def test_stacked_decoder_rows_match_oracle_per_state(rng):
    vocab_size, k = 50, 20
    model = ReviewerModel("v2l", ModelConfig(vocab_size=vocab_size, feature_dim=512, embed_dim=512,
                                             hidden_dim=512, lstm_layers=2), seed=3)
    features = rng.normal(size=512)
    decoder = model.decoder(features)
    dec, x_img = oracle_decoder(model, features)
    start = dec.advance(dec.advance(dec.initial_state(), x_img), dec.embedding[START_ID])

    def assert_rows_match(state, singles):
        log_probs = decoder.log_probs(state)
        assert log_probs.shape == (len(singles), vocab_size)
        for j, single in enumerate(singles):
            for (h, c), (h_ref, c_ref) in zip(state, single):
                assert np.max(np.abs(h[j] - h_ref)) <= 1e-12
                assert np.max(np.abs(c[j] - c_ref)) <= 1e-12
            assert np.max(np.abs(log_probs[j] - dec.log_probs(single))) <= 1e-12

    state, singles = decoder.initial_state, [start]
    assert_rows_match(state, singles)
    for parents in (np.zeros(k, dtype=np.int64), rng.integers(0, k, size=k)):
        parents[:4] = parents[4]  # a parent stepped on several tokens
        tokens = rng.integers(0, vocab_size, size=k)
        state = decoder.advance(state, parents, tokens)
        singles = [dec.advance(singles[p], dec.embedding[t]) for p, t in zip(parents, tokens)]
        assert_rows_match(state, singles)
    # one round that gathers every row of the token-gate table, specials included
    parents, tokens = rng.integers(0, k, size=vocab_size), np.arange(vocab_size)
    state = decoder.advance(state, parents, tokens)
    singles = [dec.advance(singles[p], dec.embedding[t]) for p, t in zip(parents, tokens)]
    assert_rows_match(state, singles)


# ---------------------------------------------------------------------------
# checkpoints


# case: (variant, its tag byte, widths that differ from tiny_model's)
CHECKPOINT_CASES = {
    "iac": ("iac", 0, {}),
    "v2l": ("v2l", 1, {}),
    "mt-baseline": ("mt-baseline", 2, {}),
    "model1": ("model1", 3, {}),
    "model2": ("model2", 4, {}),
    # features narrower than the embedding, so the captioner has an adapter
    "v2l-adapter": ("v2l", 1, {"feature_dim": 6}),
    "mt-baseline-adapter": ("mt-baseline", 2, {"feature_dim": 6}),
    "model2-two-layer": ("model2", 4, {"lstm_layers": 2}),
}


@pytest.mark.parametrize("case", list(CHECKPOINT_CASES))
def test_checkpoint_roundtrip_is_bit_exact(tmp_path, case, rng):
    variant, tag, overrides = CHECKPOINT_CASES[case]
    model = tiny_model(variant, seed=7, **overrides)
    randomize_params(model, rng, scale=0.3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    assert path.read_bytes()[len(CHECKPOINT_MAGIC)] == tag
    loaded = load_checkpoint(path)
    assert loaded.variant == Variant(variant)
    assert loaded.config.feature_dim == model.config.feature_dim
    assert set(loaded.params) == set(model.params)
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data)
    second = tmp_path / "again.ckpt"
    save_checkpoint(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_magic_is_pinned(tmp_path):
    model = tiny_model("iac")
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    assert path.read_bytes()[:9] == CHECKPOINT_MAGIC == b"NAIRCKPT1"


def test_checkpoint_byte_layout_parses_by_hand(tmp_path, rng):
    # independent parse of the wire format: magic, tag byte, then per
    # parameter (lexicographic): u32 name length, name, u8 rank, u32 dims,
    # raw little-endian float64 payload
    import struct

    model = tiny_model("model2", seed=3)
    randomize_params(model, rng, scale=0.2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    assert raw[:9] == b"NAIRCKPT1"
    assert raw[9] == 4  # model2 tag
    offset = 10
    seen = []
    while offset < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        name = raw[offset:offset + name_len].decode("utf-8")
        offset += name_len
        rank = raw[offset]
        offset += 1
        dims = struct.unpack_from(f"<{rank}I", raw, offset)
        offset += 4 * rank
        count = int(np.prod(dims))
        values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        seen.append(name)
        assert model.params[name].data.shape == dims
        assert np.array_equal(values.reshape(dims), model.params[name].data)
    assert seen == sorted(model.params)
    assert offset == len(raw)


def test_checkpoint_rejects_corruption(tmp_path):
    model = tiny_model("iac")
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_checkpoint(bad)
    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(DataError):
        load_checkpoint(truncated)
    model.classifier.bias.data[1] = np.nan
    non_finite = tmp_path / "nan.ckpt"
    save_checkpoint(model, non_finite)
    with pytest.raises(DataError, match="classifier.bias"):
        load_checkpoint(non_finite)


@pytest.mark.parametrize("variant", ["iac", "v2l", "mt-baseline", "model1", "model2"])
def test_every_proper_checkpoint_prefix_is_a_data_error(tmp_path, variant):
    path = tmp_path / "m.ckpt"
    save_checkpoint(two_layer_model(variant), path)
    for size in reversed(range(path.stat().st_size)):
        os.truncate(path, size)
        with pytest.raises(DataError):
            load_checkpoint(path)


def test_checkpoint_with_oversized_dims_is_a_data_error(tmp_path):
    path = tmp_path / "m.ckpt"
    save_with_oversized_dims(two_layer_model("v2l"), path)
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


# fault: (records replaced, or dropped where None, in a tiny v2l checkpoint;
# what the error says)
LAYOUT_FAULTS = {
    # no payload, but the widths ask for 2^42 hidden weights
    "hidden-dims-without-payload": ({"lstm0.w_hidden": np.zeros((0, 1 << 20))},
                                    f"at most {MAX_PARAMETERS} fit"),
    "short-output-bias": ({"out_proj.bias": np.zeros(3)}, r"\['out_proj.bias'\] do not fit"),
    "dropped-output-bias": ({"out_proj.bias": None}, r"\['out_proj.bias'\] do not fit"),
    "stray-record": ({"stray": np.zeros(2)}, r"\['stray'\] do not fit"),
    "half-a-second-layer": ({"lstm1.w_hidden": np.zeros((32, 8))},
                            r"\['lstm1.bias', 'lstm1.w_input'\] do not fit"),
    "classifier-on-a-captioner": ({"classifier.weight": np.zeros((2, 8))},
                                  r"\['classifier.weight'\] do not fit"),
}


@pytest.mark.parametrize("fault", LAYOUT_FAULTS)
def test_checkpoint_records_must_fit_their_layout_before_any_draw(tmp_path, monkeypatch, fault):
    records, message = LAYOUT_FAULTS[fault]
    model = tiny_model("v2l")
    for name, value in records.items():
        if value is None:
            del model.params[name]
        else:
            model.params[name] = Tensor(value)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    monkeypatch.setattr("reviewnet.model.uniform_param", _no_draw)
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def test_checkpoint_missing_file():
    with pytest.raises(DataError):
        load_checkpoint("/nonexistent/model.ckpt")


def test_checkpoint_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch, rng):
    import os

    model = tiny_model("model1", seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    before = path.read_bytes()
    randomize_params(model, rng)

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
