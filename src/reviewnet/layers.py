"""Trainable layers: dense transform, embedding table, LSTM cell, tiny conv encoder."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import dataset
from .errors import ShapeError
from .tensor import (Tensor, conv2d, embedding_lookup, linear, lstm_sequence, max_pool2, relu,
                     reshape)


INIT_RANGE = 0.08
FORGET_GATE_BIAS = 1.0


def uniform_param(rng: np.random.Generator, shape) -> Tensor:
    """Fresh trainable tensor drawn from U(-INIT_RANGE, +INIT_RANGE)."""
    return Tensor(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape), requires_grad=True)


class Dense:
    """y = W x + b, or W x without a bias."""

    def __init__(self, out_dim: int, in_dim: int, *, rng: np.random.Generator,
                 bias: bool = True):
        self.weight = uniform_param(rng, (out_dim, in_dim))
        self.bias = uniform_param(rng, (out_dim,)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        """Applies to one vector or to every row of [..., in_dim]."""
        return linear(x, self.weight, self.bias)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.weight": self.weight}
        if self.bias is not None:
            out[f"{prefix}.bias"] = self.bias
        return out


class EmbeddingTable:
    """Token id to dense vector lookup over a [vocab, dim] table."""

    def __init__(self, vocab_size: int, embed_dim: int, *, rng: np.random.Generator):
        self.table = uniform_param(rng, (vocab_size, embed_dim))

    def __call__(self, token_id) -> Tensor:
        return embedding_lookup(self.table, token_id)

    def named_params(self, prefix: str = "embedding") -> dict[str, Tensor]:
        return {f"{prefix}.table": self.table}


class LSTMState(NamedTuple):
    h: Tensor
    c: Tensor

    @staticmethod
    def zeros(hidden_dim: int) -> "LSTMState":
        return LSTMState(Tensor(np.zeros(hidden_dim)), Tensor(np.zeros(hidden_dim)))


class LSTMCell:
    """One LSTM cell; gate rows are ordered input, forget, candidate, output."""

    def __init__(self, input_dim: int, hidden_dim: int, *, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_input = uniform_param(rng, (4 * hidden_dim, input_dim))
        self.w_hidden = uniform_param(rng, (4 * hidden_dim, hidden_dim))
        self.bias = uniform_param(rng, (4 * hidden_dim,))
        # biasing the forget gate open eases gradient flow through long unrolls
        self.bias.data[hidden_dim:2 * hidden_dim] = FORGET_GATE_BIAS

    def step(self, state: LSTMState, x: Tensor) -> LSTMState:
        """One step from one state: the one-row, one-step case of ``sequence``."""
        if x.data.shape != (self.input_dim,):
            raise ShapeError(
                f"lstm input of shape {x.data.shape} does not match cell width ({self.input_dim},)")
        h, c = lstm_sequence(reshape(x, (1, 1, -1)), reshape(state.h, (1, -1)),
                             reshape(state.c, (1, -1)), self.w_input, self.w_hidden, self.bias)
        return LSTMState(reshape(h, (-1,)), reshape(c, (-1,)))

    def sequence(self, x: Tensor) -> Tensor:
        """Hidden states [B, T, H] of rows ``x`` [B, T, input_dim] run from the
        zero state over all T steps."""
        return lstm_sequence(x, None, None, self.w_input, self.w_hidden, self.bias)[0]

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.w_input": self.w_input,
            f"{prefix}.w_hidden": self.w_hidden,
            f"{prefix}.bias": self.bias,
        }


class TinyConvEncoder:
    """Small trainable image encoder: two conv/relu/pool stages and a dense head.

    Input is fixed at 3x32x32; the stage arithmetic below pins the flattened
    width (32 -> 30 -> 15 -> 13 -> 6 spatially).
    """

    IMAGE_SHAPE = dataset.IMAGE_SHAPE
    _FLAT = 16 * 6 * 6

    def __init__(self, out_dim: int = 64, *, rng: np.random.Generator):
        self.conv1_kernels = uniform_param(rng, (8, 3, 3, 3))
        self.conv1_bias = uniform_param(rng, (8,))
        self.conv2_kernels = uniform_param(rng, (16, 8, 3, 3))
        self.conv2_bias = uniform_param(rng, (16,))
        self.fc = Dense(out_dim, self._FLAT, rng=rng)

    def __call__(self, images: Tensor) -> Tensor:
        """One image [3,32,32] to a vector, or a batch [B,3,32,32] to rows."""
        shape = images.data.shape
        if shape[-3:] != self.IMAGE_SHAPE or len(shape) not in (3, 4):
            raise ShapeError(f"encoder expects images of shape [B,]{self.IMAGE_SHAPE}, got {shape}")
        y = reshape(images, (-1,) + self.IMAGE_SHAPE)
        y = max_pool2(relu(conv2d(y, self.conv1_kernels, self.conv1_bias)))
        y = max_pool2(relu(conv2d(y, self.conv2_kernels, self.conv2_bias)))
        return self.fc(reshape(y, shape[:-3] + (-1,)))

    def named_params(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out = {
            f"{prefix}.conv1.kernels": self.conv1_kernels,
            f"{prefix}.conv1.bias": self.conv1_bias,
            f"{prefix}.conv2.kernels": self.conv2_kernels,
            f"{prefix}.conv2.bias": self.conv2_bias,
        }
        out.update(self.fc.named_params(f"{prefix}.fc"))
        return out
