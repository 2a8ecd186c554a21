import numpy as np
import pytest

from reviewnet import oracles
from reviewnet.model import (CHECKPOINT_MAGIC, ModelConfig, ReviewerModel, Variant,
                             save_checkpoint)

TINY = dict(feature_dim=8, embed_dim=8, hidden_dim=8)


def tiny_model(variant, seed=0, vocab_size=10, **overrides):
    """Small model with 8-wide representations for fast gradient work."""
    variant = Variant(variant)
    kwargs = dict(TINY)
    if variant is Variant.MODEL_I:
        kwargs["shared_dim"] = 8
    elif variant is Variant.MODEL_II:
        kwargs["shared_dim"] = 4
        kwargs["specific_dim"] = 4
    kwargs.update(overrides)
    return ReviewerModel(variant, ModelConfig(vocab_size=vocab_size, **kwargs), seed=seed)


def two_layer_model(variant, seed=0):
    """Two LSTM layers at the smallest widths, for walking a checkpoint's bytes."""
    return tiny_model(variant, seed=seed, vocab_size=5, feature_dim=3, embed_dim=2,
                      hidden_dim=2, lstm_layers=2, shared_dim=2, specific_dim=1)


def save_with_oversized_dims(model, path):
    """Save ``model``, then set both dims of its first rank-2 record to
    0xFFFFFFFF, so the record claims far more payload than a read can take."""
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    offset = len(CHECKPOINT_MAGIC) + 1
    for name in sorted(model.params):
        offset += 4 + len(name.encode("utf-8"))
        array = model.params[name].data
        if array.ndim == 2:
            raw[offset + 1:offset + 9] = b"\xff" * 8
            path.write_bytes(bytes(raw))
            return
        offset += 1 + 4 * array.ndim + 8 * array.size
    raise AssertionError("the model has no rank-2 parameter")


def randomize_params(model, rng, scale=1.0):
    """Overwrite every parameter with Gaussian noise (sharper toy distributions)."""
    for p in model.params.values():
        p.data[...] = rng.normal(0.0, scale, size=p.data.shape)
    return model


def toy_generator(seed, vocab_size=6, lstm_layers=1):
    """Tiny v2l model with Gaussian parameters, for exhaustive decoding checks."""
    model = ReviewerModel("v2l", ModelConfig(vocab_size=vocab_size, feature_dim=4,
                                             embed_dim=4, hidden_dim=5,
                                             lstm_layers=lstm_layers), seed=seed)
    return randomize_params(model, np.random.default_rng(seed))


def oracle_decoder(model, features):
    """The model's decoder rebuilt as the direct-formula oracle, plus the image
    input it is fed one step before START."""
    layers = [(c.w_input.data, c.w_hidden.data, c.bias.data) for c in model.cells]
    rep_gen = model.representation(model.image_representation(features))[1]
    x_img = (model.gen_adapter(rep_gen) if model.gen_adapter is not None else rep_gen).data
    dec = oracles.NaiveDecoder(layers, model.embedding.table.data,
                               model.out_proj.weight.data, model.out_proj.bias.data)
    return dec, x_img


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
