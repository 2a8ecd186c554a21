"""Trainable layers: dense transform, embedding table, LSTM cell, tiny conv encoder."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import dataset
from .errors import ShapeError
from .tensor import (Tensor, conv2d, embedding_lookup, linear, lstm_sequence, max_pool2, relu,
                     reshape)


INIT_RANGE = 0.08


def uniform_param(rng: np.random.Generator, shape) -> Tensor:
    """Fresh trainable tensor drawn from U(-INIT_RANGE, +INIT_RANGE)."""
    return Tensor(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape), requires_grad=True)


class Dense:
    """y = W x + b, or W x without a bias."""

    def __init__(self, weight: Tensor, bias: Tensor | None = None):
        self.weight, self.bias = weight, bias

    def __call__(self, x: Tensor) -> Tensor:
        """Applies to one vector or to every row of [..., in_dim]."""
        return linear(x, self.weight, self.bias)


class EmbeddingTable:
    """Token id to dense vector lookup over a [vocab, dim] table."""

    def __init__(self, table: Tensor):
        self.table = table

    def __call__(self, token_id) -> Tensor:
        return embedding_lookup(self.table, token_id)


class LSTMState(NamedTuple):
    h: Tensor
    c: Tensor

    @staticmethod
    def zeros(hidden_dim: int) -> "LSTMState":
        return LSTMState(Tensor(np.zeros(hidden_dim)), Tensor(np.zeros(hidden_dim)))


class LSTMCell:
    """One LSTM cell; gate rows are ordered input, forget, candidate, output."""

    def __init__(self, w_input: Tensor, w_hidden: Tensor, bias: Tensor):
        self.w_input, self.w_hidden, self.bias = w_input, w_hidden, bias
        self.input_dim, self.hidden_dim = w_input.data.shape[1], w_hidden.data.shape[1]

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


class TinyConvEncoder:
    """Small trainable image encoder: two conv/relu/pool stages and a dense head.

    Input is fixed at 3x32x32; the stage arithmetic pins the head's input
    width (32 -> 30 -> 15 -> 13 -> 6 spatially, 16 channels).
    """

    IMAGE_SHAPE = dataset.IMAGE_SHAPE

    @staticmethod
    def shapes(out_dim: int) -> dict[str, tuple[int, ...]]:
        """Name and shape of each parameter, in draw order."""
        return {"conv1.kernels": (8, 3, 3, 3), "conv1.bias": (8,), "conv2.kernels": (16, 8, 3, 3),
                "conv2.bias": (16,), "fc.weight": (out_dim, 16 * 6 * 6), "fc.bias": (out_dim,)}

    def __init__(self, out_dim: int, *, rng: np.random.Generator):
        """A freshly drawn encoder with ``out_dim`` outputs."""
        self._hold(*(uniform_param(rng, shape) for shape in self.shapes(out_dim).values()))

    @classmethod
    def holding(cls, *tensors: Tensor) -> "TinyConvEncoder":
        """An encoder holding ``tensors``, one per entry of ``shapes`` in its order."""
        return cls.__new__(cls)._hold(*tensors)

    def _hold(self, conv1_kernels, conv1_bias, conv2_kernels, conv2_bias, *fc) -> "TinyConvEncoder":
        self.conv1_kernels, self.conv1_bias = conv1_kernels, conv1_bias
        self.conv2_kernels, self.conv2_bias = conv2_kernels, conv2_bias
        self.fc = Dense(*fc)
        return self

    def __call__(self, images: Tensor) -> Tensor:
        """One image [3,32,32] to a vector, or a batch [B,3,32,32] to rows."""
        shape = images.data.shape
        if shape[-3:] != self.IMAGE_SHAPE or len(shape) not in (3, 4):
            raise ShapeError(f"encoder expects images of shape [B,]{self.IMAGE_SHAPE}, got {shape}")
        y = reshape(images, (-1,) + self.IMAGE_SHAPE)
        y = max_pool2(relu(conv2d(y, self.conv1_kernels, self.conv1_bias)))
        y = max_pool2(relu(conv2d(y, self.conv2_kernels, self.conv2_bias)))
        return self.fc(reshape(y, shape[:-3] + (-1,)))
