import numpy as np
import pytest

from reviewnet import oracles
from reviewnet.model import ModelConfig, ReviewerModel, Variant

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
