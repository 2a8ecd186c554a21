"""Dense float64 tensors with a recorded operation graph for reverse-mode gradients.

Each primitive returns a node that remembers its tracked parents and a closure
routing the output gradient back to them. ``backward`` replays the recorded
graph once, in reverse topological order, so a node's gradient is complete
before it is pushed further. A graph and its tensors belong to one thread of
control for the duration of a forward/backward pass; parameters may be read
from many threads once nothing is mutating them.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

__all__ = [
    "Tensor",
    "add",
    "backward",
    "concat",
    "conv2d",
    "dropout",
    "embedding_lookup",
    "linear",
    "linear_cross_entropy",
    "lstm_cell",
    "lstm_sequence",
    "matmul",
    "max_pool2",
    "mul",
    "relu",
    "reshape",
    "scale",
    "stable_sigmoid",
    "sum_all",
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
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, and never
    # overflows; the quotient is 1 / (1 + e) on the first branch and
    # e / (1 + e) on the second, so one division serves both
    e = np.exp(np.copysign(z, -1.0))
    return np.where(z >= 0, 1.0, e) / (e + 1.0)


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


def _int_indices(values, bound: int, what: str) -> np.ndarray:
    """``values`` (an int or an int array) as an index array, each in [0, bound)."""
    idx = np.asarray(values)
    if idx.dtype.kind not in "iu":
        raise ContractError(f"{what} must be integers, got dtype {idx.dtype}")
    bad = idx[(idx < 0) | (idx >= bound)]
    if bad.size:
        raise IndexError(f"{what} {int(bad.flat[0])} out of range [0, {bound})")
    return idx


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` (the last by default)."""
    ts = list(tensors)
    if not ts:
        raise ContractError("concat needs at least one tensor")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:  # numpy's AxisError is one too
        raise ShapeError(f"concat: shapes {[t.data.shape for t in ts]} do not join "
                         f"on axis {axis}") from None
    ax = axis % out.ndim

    def grad_fn(g: np.ndarray) -> None:
        off = 0
        for t in ts:
            n = t.data.shape[ax]
            if t.requires_grad:
                t.grad += g[(slice(None),) * ax + (slice(off, off + n),)]
            off += n

    return _track(out, ts, grad_fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """The same entries in a new shape (one dimension may be -1)."""
    src = x.data.shape
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {src} as {tuple(shape)}") from None

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g.reshape(src)

    return _track(out, (x,), grad_fn)


def embedding_lookup(table: Tensor, token_id) -> Tensor:
    """Rows of a [vocab, dim] table: one id gives a vector, an id array of
    shape S gives S + (dim,). The gradient lands on the looked-up rows only."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got shape {table.data.shape}")
    idx = _int_indices(token_id, table.data.shape[0], "token id")

    def grad_fn(g: np.ndarray) -> None:
        if table.requires_grad:
            # ids repeat within a batch, so the rows are accumulated unbuffered
            np.add.at(table.grad, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))

    return _track(np.take(table.data, idx, axis=0), (table,), grad_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` on rows [..., in], as one GEMM over all rows;
    a vector is one row and gives a vector."""
    xd, wd = x.data, weight.data
    if wd.ndim != 2 or xd.ndim < 1 or xd.shape[-1] != wd.shape[1]:
        raise ShapeError(f"linear: input {xd.shape} does not fit weight {wd.shape}")
    if bias is not None and bias.data.shape != (wd.shape[0],):
        raise ShapeError(f"linear: bias {bias.data.shape} does not fit weight {wd.shape}")
    rows = xd.reshape(-1, wd.shape[1])
    out = (rows @ wd.T).reshape(xd.shape[:-1] + (wd.shape[0],))
    if bias is not None:
        out = out + bias.data

    def grad_fn(g: np.ndarray) -> None:
        g_rows = g.reshape(-1, wd.shape[0])
        if weight.requires_grad:
            weight.grad += g_rows.T @ rows
        if bias is not None and bias.requires_grad:
            bias.grad += g_rows.sum(axis=0)
        if x.requires_grad:
            x.grad += (g_rows @ wd).reshape(xd.shape)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _track(out, parents, grad_fn)


def linear_cross_entropy(h: Tensor, weight: Tensor, bias: Tensor, target,
                         mask: np.ndarray) -> Tensor:
    """Summed -log softmax(linear(h, weight, bias))[target] over the rows of
    ``h`` [..., in] that ``mask`` selects, as one node, computed through
    log-sum-exp.

    ``target`` and the boolean ``mask`` have ``h``'s leading shape; unselected
    rows pass no gradient. The logits of all rows are one GEMM into a buffer
    that is turned into the softmax in place and kept for the backward, which
    turns it into the logit gradient in place, so a graph holding this node is
    differentiated once.
    """
    hd, wd, bd = h.data, weight.data, bias.data
    if wd.ndim != 2 or hd.ndim < 1 or hd.shape[-1] != wd.shape[1] or wd.shape[0] == 0:
        raise ShapeError(f"linear_cross_entropy: input {hd.shape} does not fit weight {wd.shape}")
    if bd.shape != (wd.shape[0],):
        raise ShapeError(f"linear_cross_entropy: bias {bd.shape} does not fit weight {wd.shape}")
    t = _int_indices(target, wd.shape[0], "target")
    mask = np.asarray(mask, dtype=bool)
    if t.shape != hd.shape[:-1] or mask.shape != t.shape:
        raise ShapeError(f"linear_cross_entropy: targets {t.shape} and mask {mask.shape} "
                         f"for inputs {hd.shape}")
    rows = hd.reshape(-1, wd.shape[1])
    picks = (np.arange(rows.shape[0]), t.reshape(-1))
    # z turns from logits into shifted logits, exponentials, then probabilities
    z = rows @ wd.T
    z += bd
    z -= z.max(axis=1, keepdims=True)
    picked = z[picks]
    np.exp(z, out=z)
    se = z.sum(axis=1, keepdims=True)
    z /= se
    losses = (np.log(se[:, 0]) - picked).reshape(t.shape)

    def grad_fn(g: np.ndarray) -> None:
        d = z  # the probabilities become the logit gradient in place
        d[picks] -= 1.0
        d *= mask.reshape(-1, 1)
        d *= float(g)
        if weight.requires_grad:
            weight.grad += d.T @ rows
        if bias.requires_grad:
            bias.grad += d.sum(axis=0)
        if h.requires_grad:
            h.grad += (d @ wd).reshape(hd.shape)

    return _track(np.asarray(np.where(mask, losses, 0.0).sum()), (h, weight, bias), grad_fn)


def lstm_cell(gates: np.ndarray, c: np.ndarray):
    """One LSTM cell update on plain arrays.

    ``gates`` [..., 4H] are the pre-activations, rows ordered input, forget,
    candidate, output; ``c`` [..., H] is the previous cell state. Returns
    ``(h, c, (i, f, g, o, tanh(c)))``, the activations being what the
    backward pass needs.
    """
    hd = c.shape[-1]
    # the input and forget columns are adjacent: one sigmoid call for both
    i_f = stable_sigmoid(gates[..., :2 * hd])
    i, f = i_f[..., :hd], i_f[..., hd:]
    g = np.tanh(gates[..., 2 * hd:3 * hd])
    o = stable_sigmoid(gates[..., 3 * hd:])
    c = f * c + i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, g, o, tc)


def lstm_sequence(x: Tensor, h0: Tensor | None, c0: Tensor | None, w_input: Tensor,
                  w_hidden: Tensor, bias: Tensor) -> tuple[Tensor, Tensor]:
    """An LSTM unrolled over the time axis of ``x`` [B, T, E]; returns the
    hidden and cell states after every step, (h, c), each [B, T, H].

    The state starts at (``h0``, ``c0``) [B, H], zeros when None. Every row
    runs all T steps: no step reads a later one, so the steps past a padded
    row's end leave its earlier states and, when the loss ignores them, its
    gradients as they are. The forward makes one input-projection GEMM over
    all B*T rows and one recurrent GEMM per step. The backward is
    hand-written BPTT: it stores the gate gradients of every step and
    returns the weight gradients as single GEMMs over the B*T rows.
    """
    xd, wi, wh, b = x.data, w_input.data, w_hidden.data, bias.data
    if xd.ndim != 3:
        raise ShapeError(f"lstm_sequence needs inputs [batch, time, width], got {xd.shape}")
    n, steps, width = xd.shape
    hd = wh.shape[1]
    if wh.shape != (4 * hd, hd) or wi.shape != (4 * hd, width) or b.shape != (4 * hd,):
        raise ShapeError(f"lstm_sequence: weights {wi.shape}, {wh.shape}, bias {b.shape} "
                         f"do not fit inputs of width {width}")
    h_init = np.zeros((n, hd)) if h0 is None else h0.data
    c_init = np.zeros((n, hd)) if c0 is None else c0.data
    if h_init.shape != (n, hd) or c_init.shape != (n, hd):
        raise ShapeError(f"lstm_sequence: initial state {h_init.shape}, {c_init.shape} "
                         f"for batch {n} and width {hd}")

    xw = (xd.reshape(n * steps, width) @ wi.T).reshape(n, steps, 4 * hd) + b
    hs = np.empty((n, steps, hd))
    cs = np.empty((n, steps, hd))
    acts = []  # (i, f, g, o, tanh(c)) of every step, as lstm_cell returns them
    h, c = h_init, c_init
    for t in range(steps):
        h, c, step_acts = lstm_cell(xw[:, t] + h @ wh.T, c)
        hs[:, t], cs[:, t] = h, c
        acts.append(step_acts)
    c_seen: list[np.ndarray] = []

    def grad_fn(gh: np.ndarray) -> None:
        gc = c_seen[-1] if c_seen else None  # None when the loss never reads c
        dgates = np.empty((n, steps, 4 * hd))
        dh = np.zeros((n, hd))
        dc = np.zeros((n, hd))
        for t in range(steps - 1, -1, -1):
            i, f, g, o, tc = acts[t]
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
        if w_input.requires_grad:
            w_input.grad += rows.T @ xd.reshape(n * steps, width)
        if w_hidden.requires_grad:
            h_prev = np.concatenate([h_init[:, None], hs[:, :-1]], axis=1)
            w_hidden.grad += rows.T @ h_prev.reshape(n * steps, hd)
        if bias.requires_grad:
            bias.grad += rows.sum(axis=0)
        if x.requires_grad:
            x.grad += (rows @ wi).reshape(n, steps, width)
        if h0 is not None and h0.requires_grad:
            h0.grad += dh
        if c0 is not None and c0.requires_grad:
            c0.grad += dc

    parents = [t for t in (x, h0, c0, w_input, w_hidden, bias) if t is not None]
    h_out = _track(hs, parents, grad_fn)
    # the cell states are recorded as a child of h_out, so backward reaches them
    # first; they hand their gradient to h_out's BPTT instead of a parent
    c_out = _track(cs, (h_out,), c_seen.append)
    return h_out, c_out


def dropout(x: Tensor, keep: float, *, mask: np.ndarray) -> Tensor:
    """Inverted dropout through a boolean keep-``mask`` of ``x``'s shape:
    surviving entries are rescaled by 1/keep."""
    keep = float(keep)
    if not 0.0 < keep <= 1.0:
        raise ConfigError(f"dropout keep probability must be in (0, 1], got {keep}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.data.shape:
        raise ShapeError(f"dropout mask shape {mask.shape} does not match input {x.data.shape}")
    scaled = mask.astype(np.float64) / keep

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g * scaled

    return _track(x.data * scaled, (x,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g

    return _track(np.asarray(x.data.sum()), (x,), grad_fn)


@functools.lru_cache(maxsize=8)
def _window_index(c: int, h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """Flat positions, within one C-ordered [c,h,w] image, of its valid
    kh x kw windows: an [h'·w', c·kh·kw] intp array whose rows are the windows
    in (h', w') order and whose columns run over (c, kh, kw).

    Built once per geometry, so it does not depend on the batch size. Shared
    by every caller in this module, none of which writes to it. A writeable
    C-contiguous intp array, because ``np.take`` copies any other index on
    every call.
    """
    corners = np.arange(h - kh + 1)[:, None] * w + np.arange(w - kw + 1)
    offsets = (np.arange(c)[:, None, None] * h + np.arange(kh)[:, None]) * w + np.arange(kw)
    return (corners.reshape(-1, 1) + offsets.reshape(1, -1)).astype(np.intp, copy=False)


@functools.lru_cache(maxsize=8)
def _pool_index(c: int, h: int, w: int) -> np.ndarray:
    """Flat positions, within one C-ordered [c,h,w] image, of its 2x2 stride-2
    windows: a [4, c·(h//2)·(w//2)] intp array of four planes, the windows'
    top-left, top-right, bottom-left and bottom-right cells, each plane in
    (c, h//2, w//2) order. Cached and shared as ``_window_index`` is."""
    corners = (np.arange(c)[:, None, None] * h + 2 * np.arange(h // 2)[:, None]) * w \
        + 2 * np.arange(w // 2)
    cells = np.array([0, 1, w, w + 1])[:, None]
    return (cells + corners.reshape(1, -1)).astype(np.intp, copy=False)


def _correlate(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of [B,c,h,w] ``x`` with [f,c,kh,kw] ``kernels``
    as one im2col GEMM over C-contiguous [B·h'·w', c·kh·kw] window rows.

    The GEMM operands have the layouts numpy's einsum gives this contraction,
    so the results equal einsum's bit for bit (the tests hold einsum as the
    reference): the window rows times the [c·kh·kw, f] kernel matrix
    ``kernels.transpose(1, 2, 3, 0).reshape(-1, f)``, a view for C-ordered
    kernels and a C-ordered copy for the flipped kernels of the input
    gradient. The [B·h'·w', f] product is returned as a [B,f,h',w'] view that
    is not C-contiguous. The output and its gradient inherit that layout,
    which sets the summation order of the bias gradient; the
    [f, B·h'·w'] orientation of the same product changes its bits.
    """
    n, c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    rows = np.take(x.reshape(n, -1), _window_index(c, h, w, kh, kw), axis=1)
    rows = rows.reshape(-1, c * kh * kw)
    out = rows @ kernels.transpose(1, 2, 3, 0).reshape(-1, f)
    return out.reshape(n, h - kh + 1, w - kw + 1, f).transpose(0, 3, 1, 2)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid (no padding, stride 1) cross-correlation of a [B,c,h,w] batch with
    [f,c,kh,kw] kernels, plus a per-channel bias [f].

    The input gradient is the full correlation of the output gradient with
    the kernels flipped in space and transposed over channels.
    """
    xd, kd, bd = x.data, kernels.data, bias.data
    if xd.ndim != 4 or kd.ndim != 4:
        raise ShapeError(f"conv2d needs [B,c,h,w] and [f,c,kh,kw], got {xd.shape} and {kd.shape}")
    n, c, h, w = xd.shape
    f, kc, kh, kw = kd.shape
    if kc != c:
        raise ShapeError(f"conv2d: input has {c} channels but kernels expect {kc}")
    if kh > h or kw > w:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{w}")
    if bd.shape != (f,):
        raise ShapeError(f"conv2d: bias {bd.shape} does not fit {f} kernels")
    out = _correlate(xd, kd)

    def grad_fn(g: np.ndarray) -> None:
        if kernels.requires_grad:
            # per image, then summed in batch order: contracting b too rounds
            # differently. The windows must be a C-contiguous
            # [B, c·kh·kw, h'·w'] copy: a transposed view of the rows rounds
            # differently at some shapes, e.g. inputs (2,5,9,9) and (3,4,7,7).
            # The copy stays a temporary, freed before the input gradient's.
            # (np.take copies the transposed index too: a cheap, small copy.)
            per_image = (np.take(xd.reshape(n, -1), _window_index(c, h, w, kh, kw).T, axis=1)
                         @ g.reshape(n, f, -1).transpose(0, 2, 1))
            kernels.grad += per_image.reshape(n, c, kh, kw, f).transpose(0, 4, 1, 2, 3).sum(axis=0)
        if bias.requires_grad:
            bias.grad += g.sum(axis=(2, 3)).sum(axis=0)
        if x.requires_grad:
            padded = np.zeros((n, f, h + kh - 1, w + kw - 1))
            padded[:, :, kh - 1:h, kw - 1:w] = g
            x.grad += _correlate(padded, kd.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])

    return _track(out + bd[:, None, None], (x, kernels, bias), grad_fn)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over [B,c,h,w]; a trailing odd row/column is dropped.

    Ties within a window route the gradient to the first (top-left-most) max,
    and a NaN counts as the max, the first NaN of a window taking it: the
    cell ``np.argmax`` picks.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool2 needs [B,c,h,w], got shape {x.data.shape}")
    n, c, h, w = x.data.shape
    h2, w2 = h // 2, w // 2
    if h2 == 0 or w2 == 0:
        raise ShapeError(f"max_pool2: input {h}x{w} smaller than the 2x2 window")
    index = _pool_index(c, h, w)
    planes = np.take(x.data.reshape(n, -1), index, axis=1)  # [B, 4, windows]
    pick = planes.argmax(axis=1)  # [B, windows]
    out = np.take_along_axis(planes, pick[:, None], axis=1).reshape(n, c, h2, w2)

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            # scattered into a C-contiguous buffer, then added: x.grad may have
            # the transposed layout of a conv output, and a reshape of it
            # would be a copy that the scatter writes into and loses
            gx = np.zeros((n, c * h * w))
            maxima = index[pick, np.arange(index.shape[1])]  # [B, windows] flat positions
            np.put_along_axis(gx, maxima, g.reshape(n, -1), axis=1)
            x.grad += gx.reshape(n, c, h, w)

    return _track(out, (x,), grad_fn)
