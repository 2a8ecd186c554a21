"""Dense float64 tensors with a recorded operation graph for reverse-mode gradients.

Each primitive returns a node that remembers its tracked parents and a closure
routing the output gradient back to them. ``backward`` replays the recorded
graph once, in reverse topological order, so a node's gradient is complete
before it is pushed further. A graph and its tensors belong to one thread of
control for the duration of a forward/backward pass; parameters may be read
from many threads once nothing is mutating them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "add",
    "backward",
    "channel_bias",
    "concat",
    "conv2d",
    "cross_entropy",
    "dropout",
    "embedding_lookup",
    "flatten",
    "matmul",
    "max_pool2",
    "mean_stack",
    "mul",
    "relu",
    "scale",
    "sigmoid",
    "slice1d",
    "softmax",
    "stable_sigmoid",
    "sum_all",
    "tanh",
    "topo_order",
]


class Tensor:
    """Dense n-dimensional float64 array, optionally tracked for gradients.

    ``grad`` is allocated as zeros for every tracked tensor, so parameters
    that never participate in a loss report an all-zero gradient instead of
    ``None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = np.zeros_like(self.data) if self.requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.shape != ():
            raise ContractError(f"item() needs a scalar tensor, got shape {self.data.shape}")
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _track(data: np.ndarray, parents: Sequence[Tensor], grad_fn) -> Tensor:
    """Wrap an op result; record only parents that can receive gradients.

    This runs once per primitive, so it fills the slots directly instead of
    going through ``Tensor.__init__``.
    """
    out = Tensor.__new__(Tensor)
    out.data = data = np.asarray(data, dtype=np.float64)
    tracked = tuple([p for p in parents if p.requires_grad])
    if tracked:
        out.requires_grad = True
        # zeros_like keeps the layout of ``data``, which decides the BLAS path
        # (and so the rounding) of later products with the gradient; np.zeros
        # is the same array without zeros_like's overhead when data is C-ordered
        out.grad = np.zeros(data.shape) if data.flags.c_contiguous else np.zeros_like(data)
        out._parents = tracked
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._grad_fn = None
    return out


def topo_order(root: Tensor) -> list[Tensor]:
    """Tracked nodes reachable from ``root``, every node after its parents."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    # bound methods hoisted out of the loop: it runs once per tape node
    pop, push, emit, mark = stack.pop, stack.append, order.append, seen.add
    while stack:
        node, expanded = pop()
        if expanded:
            emit(node)
            continue
        key = id(node)
        if key in seen:
            continue
        mark(key)
        push((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                push((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into ``grad`` for every tracked node."""
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._grad_fn is not None:
            node._grad_fn(node.grad)


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large negative inputs."""
    z = np.asarray(z, dtype=np.float64)
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, and never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; ``b`` may be a matrix or a vector."""
    if a.data.ndim != 2 or b.data.ndim not in (1, 2) or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            # g[:, None] * b is np.outer without its call overhead
            a.grad += g[:, None] * b.data if b.data.ndim == 1 else g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return _track(out, (a, b), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes differ {a.data.shape} vs {b.data.shape}")

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g

    return _track(a.data + b.data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes differ {a.data.shape} vs {b.data.shape}")

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a.grad += g * b.data
        if b.requires_grad:
            b.grad += g * a.data

    return _track(a.data * b.data, (a, b), grad_fn)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g * s

    return _track(x.data * s, (x,), grad_fn)


def relu(x: Tensor) -> Tensor:
    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g * (x.data > 0)

    return _track(np.maximum(x.data, 0.0), (x,), grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    s = stable_sigmoid(x.data)

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g * s * (1.0 - s)

    return _track(s, (x,), grad_fn)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g * (1.0 - t * t)

    return _track(t, (x,), grad_fn)


def softmax(logits: Tensor) -> Tensor:
    """Stable softmax over a vector (max is subtracted before exponentiation)."""
    if logits.data.ndim != 1 or logits.data.size == 0:
        raise ShapeError(f"softmax needs a non-empty vector, got shape {logits.data.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise NumericError("softmax input contains non-finite values")
    z = logits.data - logits.data.max()
    e = np.exp(z)
    s = e / e.sum()

    def grad_fn(g: np.ndarray) -> None:
        if logits.requires_grad:
            logits.grad += s * (g - float(g @ s))

    return _track(s, (logits,), grad_fn)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target], computed through log-sum-exp."""
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy needs a logit vector, got shape {logits.data.shape}")
    n = logits.data.size
    t = int(target)
    if not 0 <= t < n:
        raise IndexError(f"target {t} out of range for {n} classes")
    z = logits.data - logits.data.max()
    e = np.exp(z)
    se = e.sum()
    probs = e / se
    loss = np.log(se) - z[t]

    def grad_fn(g: np.ndarray) -> None:
        if logits.requires_grad:
            d = probs.copy()
            d[t] -= 1.0
            logits.grad += float(g) * d

    return _track(np.asarray(loss), (logits,), grad_fn)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    ts = list(tensors)
    if not ts:
        raise ContractError("concat needs at least one tensor")
    lead = ts[0].data.shape[:-1]
    if any(t.data.shape[:-1] != lead for t in ts):
        raise ShapeError(f"concat: leading dims differ: {[t.data.shape for t in ts]}")
    out = np.concatenate([t.data for t in ts], axis=-1)

    def grad_fn(g: np.ndarray) -> None:
        off = 0
        for t in ts:
            n = t.data.shape[-1]
            if t.requires_grad:
                t.grad += g[..., off:off + n]
            off += n

    return _track(out, ts, grad_fn)


def slice1d(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 1:
        raise ShapeError(f"slice1d needs a vector, got shape {x.data.shape}")
    if not 0 <= start <= stop <= x.data.size:
        raise IndexError(f"slice [{start}:{stop}] out of range for length {x.data.size}")

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad[start:stop] += g

    return _track(x.data[start:stop].copy(), (x,), grad_fn)


def embedding_lookup(table: Tensor, token_id: int) -> Tensor:
    """Row ``token_id`` of a [vocab, dim] table; the gradient lands on that row only."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got shape {table.data.shape}")
    idx = int(token_id)
    if not 0 <= idx < table.data.shape[0]:
        raise IndexError(f"token id {idx} out of range for vocabulary of {table.data.shape[0]}")

    def grad_fn(g: np.ndarray) -> None:
        if table.requires_grad:
            table.grad[idx] += g

    return _track(table.data[idx].copy(), (table,), grad_fn)


def dropout(x: Tensor, keep: float, *, rng: np.random.Generator | None = None,
            mask: np.ndarray | None = None) -> Tensor:
    """Inverted dropout: surviving entries are rescaled by 1/keep.

    ``keep == 1`` returns ``x`` unchanged. Otherwise pass a seeded ``rng`` or
    an explicit boolean keep-``mask``.
    """
    keep = float(keep)
    if not 0.0 < keep <= 1.0:
        raise ConfigError(f"dropout keep probability must be in (0, 1], got {keep}")
    if keep == 1.0:
        return x
    if mask is None:
        if rng is None:
            raise ContractError("dropout below keep=1 needs an rng or an explicit mask")
        mask = rng.random(x.data.shape) < keep
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.data.shape:
            raise ShapeError(f"dropout mask shape {mask.shape} does not match input {x.data.shape}")
    scaled = mask.astype(np.float64) / keep

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g * scaled

    return _track(x.data * scaled, (x,), grad_fn)


def mean_stack(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise mean of same-shape tensors (the batch reduction)."""
    ts = list(tensors)
    if not ts:
        raise ContractError("mean_stack needs at least one tensor")
    shape = ts[0].data.shape
    if any(t.data.shape != shape for t in ts):
        raise ShapeError(f"mean_stack: shapes differ: {[t.data.shape for t in ts]}")
    inv = 1.0 / len(ts)
    out = ts[0].data * inv
    for t in ts[1:]:
        out = out + t.data * inv

    def grad_fn(g: np.ndarray) -> None:
        for t in ts:
            if t.requires_grad:
                t.grad += g * inv

    return _track(out, ts, grad_fn)


def sum_all(x: Tensor) -> Tensor:
    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g

    return _track(np.asarray(x.data.sum()), (x,), grad_fn)


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1) -> Tensor:
    """Valid (no padding) cross-correlation of [c,h,w] input with [f,c,kh,kw] kernels."""
    xd, kd = x.data, kernels.data
    if xd.ndim != 3 or kd.ndim != 4:
        raise ShapeError(f"conv2d needs [c,h,w] and [f,c,kh,kw], got {xd.shape} and {kd.shape}")
    c, h, w = xd.shape
    f, kc, kh, kw = kd.shape
    if kc != c:
        raise ShapeError(f"conv2d: input has {c} channels but kernels expect {kc}")
    if kh > h or kw > w:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{w}")
    stride = int(stride)
    if stride < 1:
        raise ConfigError(f"conv2d stride must be positive, got {stride}")
    if (h - kh) % stride or (w - kw) % stride:
        raise ConfigError(
            f"conv2d: output size not integral for input {h}x{w}, kernel {kh}x{kw}, stride {stride}")
    hp = (h - kh) // stride + 1
    wp = (w - kw) // stride + 1
    windows = sliding_window_view(xd, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    out = np.einsum("fckl,chwkl->fhw", kd, windows, optimize=True)

    def grad_fn(g: np.ndarray) -> None:
        if kernels.requires_grad:
            kernels.grad += np.einsum("fhw,chwkl->fckl", g, windows, optimize=True)
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for i in range(hp):
                si = i * stride
                for j in range(wp):
                    sj = j * stride
                    gx[:, si:si + kh, sj:sj + kw] += np.tensordot(g[:, i, j], kd, axes=(0, 0))
            x.grad += gx

    return _track(out, (x, kernels), grad_fn)


def channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias to a [c,h,w] feature map."""
    if x.data.ndim != 3 or b.data.ndim != 1 or b.data.size != x.data.shape[0]:
        raise ShapeError(f"channel_bias: got map {x.data.shape} and bias {b.data.shape}")

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g
        if b.requires_grad:
            b.grad += g.sum(axis=(1, 2))

    return _track(x.data + b.data[:, None, None], (x, b), grad_fn)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; a trailing odd row/column is dropped.

    Ties within a window route the gradient to the first (top-left-most) max.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"max_pool2 needs [c,h,w], got shape {x.data.shape}")
    c, h, w = x.data.shape
    h2, w2 = h // 2, w // 2
    if h2 == 0 or w2 == 0:
        raise ShapeError(f"max_pool2: input {h}x{w} smaller than the 2x2 window")
    blocks = (x.data[:, :2 * h2, :2 * w2]
              .reshape(c, h2, 2, w2, 2)
              .transpose(0, 1, 3, 2, 4)
              .reshape(c, h2, w2, 4))
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            cs, hs, ws = np.indices((c, h2, w2))
            gx[cs, 2 * hs + idx // 2, 2 * ws + idx % 2] += g
            x.grad += gx

    return _track(out, (x,), grad_fn)


def flatten(x: Tensor) -> Tensor:
    shape = x.data.shape

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g.reshape(shape)

    return _track(x.data.reshape(-1).copy(), (x,), grad_fn)
