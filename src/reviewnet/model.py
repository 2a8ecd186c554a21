"""Model variants for joint aesthetic classification and comment generation.

A model is a named collection of trainable tensors plus the forward rules
turning an image representation into task losses. The image representation
enters the caption decoder exactly once, as the input at the step before the
START token, and that step contributes no loss term.
``ReviewerModel.forward`` computes them for a batch at once; one example is a
batch of one.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import END_ID, PAD_ID, START_ID, write_atomic
from .errors import ConfigError, ContractError, DataError, ShapeError
from .layers import Dense, EmbeddingTable, LSTMCell, TinyConvEncoder
from .tensor import (Tensor, add, concat, dropout, linear_cross_entropy, lstm_cell, relu,
                     reshape, scale)

CHECKPOINT_MAGIC = b"NAIRCKPT1"


class Variant(str, Enum):
    IAC = "iac"
    V2L = "v2l"
    MT_BASELINE = "mt-baseline"
    MODEL_I = "model1"
    MODEL_II = "model2"

    @property
    def multi_task(self) -> bool:
        return self in (Variant.MT_BASELINE, Variant.MODEL_I, Variant.MODEL_II)

    @property
    def has_classifier(self) -> bool:
        return self is not Variant.V2L

    @property
    def has_generator(self) -> bool:
        return self is not Variant.IAC


_VARIANT_TAGS = {
    Variant.IAC: 0,
    Variant.V2L: 1,
    Variant.MT_BASELINE: 2,
    Variant.MODEL_I: 3,
    Variant.MODEL_II: 4,
}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}


@dataclass
class ModelConfig:
    """Layer widths.

    ``feature_dim`` is the width of the file-provided feature vectors, or the
    tiny encoder's output width for the trainable-encoder baseline.
    ``shared_dim`` defaults to 512 for the shared-layer variant and to 256
    when task-specific layers are present; ``specific_dim`` defaults to 256.
    """

    vocab_size: int
    feature_dim: int = 2048
    embed_dim: int = 512
    hidden_dim: int = 512
    shared_dim: int | None = None
    specific_dim: int | None = None
    lstm_layers: int = 1


def _resolve_config(variant: Variant, config: ModelConfig) -> ModelConfig:
    shared = config.shared_dim
    specific = config.specific_dim
    if variant is Variant.MODEL_I and shared is None:
        shared = 512
    if variant is Variant.MODEL_II:
        if shared is None:
            shared = 256
        if specific is None:
            specific = 256
    resolved = replace(config, shared_dim=shared, specific_dim=specific)
    used = {Variant.MODEL_I: ("shared_dim",),
            Variant.MODEL_II: ("shared_dim", "specific_dim")}.get(variant, ())
    for name in ("feature_dim", "embed_dim", "hidden_dim", "lstm_layers", *used):
        if getattr(resolved, name) < 1:
            raise ConfigError(f"{name} must be positive, got {getattr(resolved, name)}")
    if variant.has_generator and resolved.vocab_size < 4:
        raise ConfigError("vocabulary must include the four reserved specials")
    return resolved


@dataclass
class ForwardOutput:
    """Forward results of a batch; absent parts are None.

    ``aesthetics`` and ``language`` are summed over the batch. ``loss`` is the
    training objective: the batch mean of ``alpha * aesthetics + beta *
    language`` for multi-task variants, of the one task loss otherwise.
    """

    aesthetics: Tensor | None
    language: Tensor | None
    loss: Tensor | None


class ReviewerModel:
    """One of the five architectures, identified by its variant tag."""

    def __init__(self, variant: Variant | str, config: ModelConfig, seed: int = 0):
        self.variant = Variant(variant)
        self.config = _resolve_config(self.variant, config)
        cfg = self.config
        rng = np.random.default_rng(seed)

        def feature_dense(out_dim: int) -> Dense:
            return Dense(out_dim, cfg.feature_dim, rng=rng, bias=False)

        self.encoder = None
        if self.variant is Variant.MT_BASELINE:
            self.encoder = TinyConvEncoder(cfg.feature_dim, rng=rng)

        self.shared = self.cls_specific = self.gen_specific = None
        if self.variant is Variant.MODEL_I:
            self.shared = feature_dense(cfg.shared_dim)
        elif self.variant is Variant.MODEL_II:
            self.shared = feature_dense(cfg.shared_dim)
            self.cls_specific = feature_dense(cfg.specific_dim)
            self.gen_specific = feature_dense(cfg.specific_dim)

        rep_dim = self._rep_dim()
        self.classifier = None
        if self.variant.has_classifier:
            self.classifier = Dense(2, rep_dim, rng=rng)

        self.embedding = None
        self.cells: list[LSTMCell] = []
        self.out_proj = None
        self.gen_adapter = None
        if self.variant.has_generator:
            self.embedding = EmbeddingTable(cfg.vocab_size, cfg.embed_dim, rng=rng)
            self.cells = [
                LSTMCell(cfg.embed_dim if k == 0 else cfg.hidden_dim, cfg.hidden_dim, rng=rng)
                for k in range(cfg.lstm_layers)
            ]
            self.out_proj = Dense(cfg.vocab_size, cfg.hidden_dim, rng=rng)
            if rep_dim != cfg.embed_dim:
                self.gen_adapter = Dense(cfg.embed_dim, rep_dim, rng=rng)

        # registration order is the order of the clip norm's sum and of the
        # gradient check's coordinate draws
        layers = [("encoder", self.encoder), ("shared", self.shared),
                  ("cls_specific", self.cls_specific), ("gen_specific", self.gen_specific),
                  ("classifier", self.classifier), ("embedding", self.embedding),
                  *((f"lstm{k}", cell) for k, cell in enumerate(self.cells)),
                  ("out_proj", self.out_proj), ("gen_adapter", self.gen_adapter)]
        self.params: dict[str, Tensor] = {}
        for prefix, layer in layers:
            if layer is not None:
                self.params.update(layer.named_params(prefix))

    def _rep_dim(self) -> int:
        """The width of both task representations."""
        cfg = self.config
        if self.variant is Variant.MODEL_I:
            return cfg.shared_dim
        if self.variant is Variant.MODEL_II:
            return cfg.specific_dim + cfg.shared_dim
        return cfg.feature_dim

    # -- forward ------------------------------------------------------------

    def image_representation(self, inputs: np.ndarray) -> Tensor:
        """Features of one example (a vector) or of a stacked batch (rows)."""
        arr = np.asarray(inputs, dtype=np.float64)
        if self.encoder is not None:
            return self.encoder(Tensor(arr))
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.config.feature_dim:
            raise ShapeError(f"this model consumes feature vectors of width "
                             f"{self.config.feature_dim}, got input of shape {arr.shape}")
        return Tensor(arr)

    def representation(self, v: Tensor) -> tuple[Tensor, Tensor]:
        """Task representations (classifier view, generator view) of features
        ``v``: one vector or rows [B, feature_dim]."""
        if v.data.ndim not in (1, 2) or v.data.shape[-1] != self.config.feature_dim:
            raise ShapeError(
                f"representation input of shape {v.data.shape} does not match feature width "
                f"{self.config.feature_dim}")
        if self.variant is Variant.MODEL_I:
            e = relu(self.shared(v))
            return e, e
        if self.variant is Variant.MODEL_II:
            s = relu(self.shared(v))
            return (concat([relu(self.cls_specific(v)), s]),
                    concat([relu(self.gen_specific(v)), s]))
        return v, v

    def example_representation(self, inputs: np.ndarray) -> tuple[Tensor, Tensor]:
        """Task representations of one example, each one vector."""
        v = self.image_representation(inputs)
        if v.data.ndim != 1:
            raise ShapeError(f"expected one example, got input of shape {np.shape(inputs)}")
        return self.representation(v)

    def _dropout_masks(self, steps: np.ndarray, keep: float,
                       rng: np.random.Generator) -> list[np.ndarray]:
        """Keep-masks [B, T, width] of the decoder's non-recurrent connections:
        the cell inputs, each handoff between stacked cells, and the output.

        One ``rng.random`` call fills the batch in the order of the
        step-by-step recurrence: row by row, and within a row at the image
        step the input, then the handoffs; at every later step the input, the
        handoffs, then the output (the image step predicts nothing, so it has
        no output dropout). Padding steps draw nothing and keep everything.
        A boolean-mask assignment fills in C order, which is that order.
        """
        widths = [self.config.embed_dim] + [self.config.hidden_dim] * len(self.cells)
        offsets = np.cumsum([0] + widths)
        live = np.arange(steps.max()) < steps[:, None]
        drawn = np.repeat(live[..., None], offsets[-1], axis=2)
        drawn[:, 0, offsets[-2]:] = False
        keeps = np.ones(drawn.shape, dtype=bool)
        keeps[drawn] = rng.random(int(drawn.sum())) < keep
        return [keeps[..., a:b] for a, b in zip(offsets[:-1], offsets[1:])]

    def _image_input(self, rep_gen: Tensor) -> Tensor:
        """The decoder's input at the image step: ``rep_gen`` through the
        adapter when the widths differ."""
        return self.gen_adapter(rep_gen) if self.gen_adapter is not None else rep_gen

    def _language(self, rep_gen: Tensor, captions: Sequence[Sequence[int]], keep: float,
                  rng: np.random.Generator | None) -> Tensor:
        """Teacher-forced decode of rows ``rep_gen`` [B, D]: the image step,
        START, then the caption tokens, padded to the longest caption.

        Returns the summed cross-entropy of predicting every caption token and
        each terminating END. The padded steps run through the cells like real
        ones; only the loss mask ``scored`` and the draw order of the dropout
        masks know where a caption ends.
        """
        captions = [[int(t) for t in caption] for caption in captions]
        if not all(captions):
            raise ContractError("caption must be non-empty")
        # steps per row: the image step, START, then every caption token
        steps = np.array([len(caption) + 2 for caption in captions])
        n, width = len(captions), int(steps.max())
        tokens = np.full((n, width - 1), PAD_ID)
        targets = np.full((n, width), PAD_ID)
        for b, caption in enumerate(captions):
            tokens[b, :len(caption) + 1] = [START_ID] + caption
            targets[b, 1:len(caption) + 2] = caption + [END_ID]
        scored = (np.arange(width) >= 1) & (np.arange(width) < steps[:, None])

        h = concat([reshape(self._image_input(rep_gen), (n, 1, -1)), self.embedding(tokens)],
                   axis=1)
        # dropout on the non-recurrent connections only: cell inputs, the
        # handoff between stacked cells and the output; h->h / c->c stay intact
        masks = None
        if keep < 1.0:
            if rng is None:
                raise ContractError("dropout below keep=1 needs an rng")
            masks = self._dropout_masks(steps, keep, rng)
        for k, cell in enumerate(self.cells):
            if masks is not None:
                h = dropout(h, keep, mask=masks[k])
            h = cell.sequence(h)
        if masks is not None:
            h = dropout(h, keep, mask=masks[-1])
        return linear_cross_entropy(h, self.out_proj.weight, self.out_proj.bias, targets,
                                    scored)

    def forward(self, inputs: Sequence[np.ndarray], labels: Sequence[int] | None = None,
                captions: Sequence[Sequence[int]] | None = None, *, alpha: float = 1.0,
                beta: float = 1.0, dropout_keep: float = 1.0,
                rng: np.random.Generator | None = None) -> ForwardOutput:
        """Forward pass over a batch of examples at once.

        The representation layers run row-wise, each stacked cell runs the
        padded captions as one ``lstm_sequence``, and each head's output layer
        and loss are one ``linear_cross_entropy`` node.
        Labels and captions are ignored by a variant without the matching
        head, and a head runs only when its targets are given. Dropout below
        ``dropout_keep`` = 1 draws its masks from ``rng``.
        """
        if not len(inputs):
            raise ContractError("a batch needs at least one example")
        if alpha < 0 or beta < 0:
            raise ContractError(f"loss weights must be non-negative, got alpha={alpha}, beta={beta}")
        n = len(inputs)
        v = self.image_representation(np.stack(inputs))
        rep_cls, rep_gen = self.representation(v)
        aesthetics = language = loss = None
        if self.variant.has_classifier and labels is not None:
            aesthetics = linear_cross_entropy(rep_cls, self.classifier.weight,
                                              self.classifier.bias,
                                              np.asarray(labels, dtype=np.int64),
                                              np.ones(n, dtype=bool))
        if self.variant.has_generator and captions is not None:
            language = self._language(rep_gen, captions, dropout_keep, rng)
        if self.variant.multi_task:
            if aesthetics is not None and language is not None:
                loss = add(scale(aesthetics, alpha / n), scale(language, beta / n))
        elif aesthetics is not None or language is not None:
            loss = scale(aesthetics if aesthetics is not None else language, 1.0 / n)
        return ForwardOutput(aesthetics, language, loss)

    # -- parameters ----------------------------------------------------------

    def trainable_parameters(self) -> dict[str, Tensor]:
        """Every named parameter; frozen feature vectors are inputs, not parameters."""
        return dict(self.params)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def param_state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_param_state(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self.params):
            raise ContractError("parameter state does not match this model's parameter names")
        for name, arr in state.items():
            p = self.params[name]
            if p.data.shape != arr.shape:
                raise ShapeError(f"parameter {name}: shape {arr.shape} != {p.data.shape}")
            p.data[...] = arr

    # -- inference fast path ---------------------------------------------------

    def decoder(self, inputs: np.ndarray) -> "Decoder":
        if not self.variant.has_generator:
            raise ContractError(f"variant {self.variant.value} has no language head")
        _, rep_gen = self.example_representation(inputs)
        return Decoder(self, self._image_input(rep_gen).data)


class Decoder:
    """Numpy-only decode over frozen parameter values, for a stack of
    hypotheses at once.

    A state holds k hypotheses as one (h, c) pair of [k, H] rows per layer.
    ``initial_state`` is one row that already has the image step and the
    START token applied, so ``log_probs`` on it scores the first real caption
    token.

    Layer 0's input projection of every vocabulary token, ``token_gates``
    [V, 4H], is built once per decoder; each step gathers its rows instead of
    multiplying the embedding rows again. The table reads the parameter
    values as they are at construction, so a decoder is built per image and
    never kept across parameter updates.
    """

    def __init__(self, model: ReviewerModel, image_input: np.ndarray):
        self._layers = [(c.w_input.data, c.w_hidden.data, c.bias.data) for c in model.cells]
        w_input0 = self._layers[0][0]
        self._token_gates = model.embedding.table.data @ w_input0.T
        self._out_w = model.out_proj.weight.data
        self._out_b = model.out_proj.bias.data
        self.vocab_size = self._out_w.shape[0]
        state = tuple((np.zeros((1, wh.shape[1])), np.zeros((1, wh.shape[1])))
                      for _, wh, _ in self._layers)
        state = self._step(state, image_input[None] @ w_input0.T)
        self.initial_state = self._step(state, self._token_gates[[START_ID]])

    def _step(self, state, gates: np.ndarray):
        """``state`` stepped once on layer 0's projected input ``gates``
        [k, 4H], a fresh array that is summed into in place."""
        new = []
        for (wi, wh, b), (h, c) in zip(self._layers, state):
            if new:  # layers above 0 project the output of the layer below
                gates = new[-1][0] @ wi.T
            # summed in place: two [k, 4H] arrays per layer instead of four,
            # the same sums in the same order
            gates += h @ wh.T
            gates += b
            h, c, _ = lstm_cell(gates, c)
            new.append((h, c))
        return tuple(new)

    def advance(self, state, parents: np.ndarray, token_ids: np.ndarray):
        """Row ``parents[j]`` of ``state`` stepped on token ``token_ids[j]``,
        for every j, as one state; a parent may repeat."""
        parents = np.asarray(parents)
        return self._step(tuple((h[parents], c[parents]) for h, c in state),
                          self._token_gates[np.asarray(token_ids)])

    def log_probs(self, state) -> np.ndarray:
        """Next-token log probabilities [k, V] of every row of ``state``, as a
        fresh array the caller may write to."""
        z = state[-1][0] @ self._out_w.T
        z += self._out_b
        z -= z.max(axis=1, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
        return z


# ---------------------------------------------------------------------------
# checkpoint format: magic, variant tag byte, then for each parameter in
# lexicographic name order: u32 name length, UTF-8 name, u8 rank, u32 dims,
# raw little-endian float64 data (all header integers little-endian too)


def save_checkpoint(model: ReviewerModel, path: str | Path) -> None:
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<B", _VARIANT_TAGS[model.variant])
    for name in sorted(model.params):
        data = model.params[name].data
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += struct.pack("<B", data.ndim)
        for dim in data.shape:
            buf += struct.pack("<I", dim)
        buf += np.ascontiguousarray(data, dtype="<f8").tobytes()
    write_atomic(path, bytes(buf))


def load_checkpoint(path: str | Path) -> ReviewerModel:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    stream = io.BytesIO(raw)

    def read(size: int) -> bytes:
        # checked before reading: a corrupt dims product may not fit a read size
        if size > len(raw) - stream.tell():
            raise DataError(f"checkpoint {path} is truncated")
        return stream.read(size)

    if stream.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise DataError(f"{path} does not start with the {CHECKPOINT_MAGIC!r} magic")
    tag = read(1)[0]
    if tag not in _TAG_VARIANTS:
        raise DataError(f"{path}: unknown variant tag {tag}")
    variant = _TAG_VARIANTS[tag]

    arrays: dict[str, np.ndarray] = {}
    while stream.tell() < len(raw):
        (name_len,) = struct.unpack("<I", read(4))
        name = read(name_len).decode("utf-8")
        rank = read(1)[0]
        dims = struct.unpack(f"<{rank}I", read(4 * rank))
        arrays[name] = np.frombuffer(read(8 * math.prod(dims)), dtype="<f8").reshape(dims).copy()

    config = _infer_config(variant, arrays, path)
    model = ReviewerModel(variant, config, seed=0)
    if set(model.params) != set(arrays):
        missing = set(model.params) ^ set(arrays)
        raise DataError(f"{path}: parameter names do not match the {variant.value} layout ({missing})")
    for name, arr in arrays.items():
        if model.params[name].data.shape != arr.shape:
            raise DataError(f"{path}: parameter {name} has shape {arr.shape}, "
                            f"expected {model.params[name].data.shape}")
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: parameter {name} contains non-finite values")
        model.params[name].data[...] = arr
    return model


def _infer_config(variant: Variant, arrays: dict[str, np.ndarray], path: Path) -> ModelConfig:
    try:
        if "embedding.table" in arrays:
            vocab_size, embed_dim = arrays["embedding.table"].shape
            hidden_dim = arrays["lstm0.w_hidden"].shape[1]
            lstm_layers = sum(1 for name in arrays if name.endswith(".w_hidden"))
        else:
            vocab_size, embed_dim, hidden_dim, lstm_layers = 4, 512, 512, 1

        if variant is Variant.MT_BASELINE:
            feature_dim = arrays["encoder.fc.weight"].shape[0]
        elif variant in (Variant.MODEL_I, Variant.MODEL_II):
            feature_dim = arrays["shared.weight"].shape[1]
        elif variant is Variant.IAC:
            feature_dim = arrays["classifier.weight"].shape[1]
        else:  # V2L: the adapter reveals the width; without one it equals embed_dim
            feature_dim = (arrays["gen_adapter.weight"].shape[1]
                           if "gen_adapter.weight" in arrays else embed_dim)

        shared_dim = arrays["shared.weight"].shape[0] if "shared.weight" in arrays else None
        specific_dim = (arrays["cls_specific.weight"].shape[0]
                        if "cls_specific.weight" in arrays else None)
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint is missing parameter {exc}") from None
    return ModelConfig(vocab_size=vocab_size, feature_dim=feature_dim, embed_dim=embed_dim,
                       hidden_dim=hidden_dim, shared_dim=shared_dim, specific_dim=specific_dim,
                       lstm_layers=lstm_layers)
