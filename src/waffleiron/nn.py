"""Minimal dense layer set with hand-written forward/backward passes.

The network architecture is fixed, so instead of a tape-based autodiff each
layer has a hand-written backward pass and keeps nothing between calls: a
forward returns its output and a context, what ``backward`` reads (``None``
at eval), and ``backward`` takes the context back; the convolution returns
only its output, as its arguments are its context. Parameters live in a
:class:`ParamStore` as named float32 tensors; a gradient buffer is made on
first use and accumulates until explicitly zeroed. A batch norm returns only
the float64 map of its statistics, which its consumer applies to the batch
norm's own input, and a layerscale is an output scale: both fold into the
adjacent weights per call, in training and at eval (:func:`fold`), and
backward maps the gradient of the resulting weights back (:func:`fold_adjoint`).

Backward runs in the forward's dtype: :meth:`PointwiseLinear.backward` writes
the input gradient into an array of its input's dtype a row block at a time and
widens its input 64 columns at a time for the weight gradient, so a float64
loss gradient stops at the classifier without any N x F float64 array.
Aliasing rule: a layer writes only into arrays it made itself and into an
``out`` array that its caller hands it, never into its other arguments. An
``out`` may be a block of rows of a larger array (a convolution given a row
range of its tap table writes just those rows), and a convolution's ``out``
must not overlap its input, whose rows other output rows read. A context may
share an array with the next layer's context: an in-place ReLU output is both
its layer's mask and the next layer's input.

Point-wise products run in blocks of ``_ROW_BLOCK`` rows (:func:`row_blocks`),
so an eval forward needs one block of a hidden layer, not all N rows of it.
No block is shorter than ``_ROW_BLOCK`` unless the whole cloud is: a shorter
remainder joins the last block. OpenBLAS hands very small products to other
kernels, whose rows can differ in the last bit from the same rows of a large
product (seen at up to 18 rows at width 64 and 4 rows at width 256); at 64
rows and more, every shape tried gave the whole product's rows bit for bit,
so blocked and unblocked forwards agree.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LAYERSCALE_INIT = 1e-2
# Rows per block of a point-wise product: at F = 256 a float32 block is 1 MB.
_ROW_BLOCK = 1024


class Tensor:
    """Dense array with a same-shaped gradient buffer if trainable.

    The buffer is made, zeroed, on first use of ``grad``, which a backward
    pass or an optimizer step makes; a model that only runs eval forwards
    holds none. ``grad`` is ``None`` for a tensor that is not trainable.
    """

    __slots__ = ("data", "trainable", "_grad")

    def __init__(self, data: np.ndarray, trainable: bool = True):
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.trainable = trainable
        self._grad = None

    @property
    def grad(self) -> Optional[np.ndarray]:
        if self._grad is None and self.trainable:
            self._grad = np.zeros(self.data.shape, dtype=self.data.dtype)
        return self._grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]):
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self):
        """Zero the gradient buffer, if one was made."""
        if self._grad is not None:
            self._grad[...] = 0.0


class ParamStore:
    """Ordered name -> Tensor map for weights, biases and running statistics."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def register(self, name: str, data: np.ndarray, trainable: bool = True) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, trainable=trainable)
        self._tensors[name] = t
        return t

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._tensors.items())

    def trainable_items(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._tensors.items() if t.trainable]

    def zero_grad(self):
        for t in self._tensors.values():
            t.zero_grad()

    def num_trainable(self) -> int:
        return sum(t.size for _, t in self.trainable_items())


def uniform_init(rng: Optional[np.random.Generator], shape, fan_in: int) -> np.ndarray:
    """Uniform draws in +-1/sqrt(fan_in), or zeros without ``rng`` (for a model that is loaded or only counted)."""
    if rng is None:
        return np.zeros(shape, dtype=np.float32)
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def _out_scale(scale: Optional[Tensor], factor: float):
    """The output scale ``factor * scale`` in float64, or 1.0 without ``scale``."""
    return 1.0 if scale is None else factor * scale.data.astype(np.float64)


class PointwiseLinear:
    """y[i] = W x[i] + b for every point row i, a 1x1 convolution, over weights built per call by :func:`fold`.

    ``affine = (a, s)`` maps the input as ``a x + s`` first (a batch norm's map) and ``factor * scale`` scales
    each output channel (a layerscale). Backward returns the gradient with respect to ``a x + s``, in ``x``'s dtype.
    """

    def __init__(self, store: ParamStore, name: str, in_dim: int, out_dim: int, rng: Optional[np.random.Generator]):
        self.w = store.register(f"{name}.weight", uniform_init(rng, (out_dim, in_dim), in_dim))
        self.b = store.register(f"{name}.bias", np.zeros(out_dim, dtype=np.float32))

    def folded(self, x: np.ndarray, training: bool, affine=None, scale=None, factor=1.0):
        """The weights ``(W', b')`` of :func:`fold` in ``x``'s dtype, and the context, which keeps ``x`` in training.

        In training ``x`` is the whole N-row input, which the caller may still be filling (or a block that it drops
        from the context, passing backward the whole input); at eval only its width and dtype are read.
        """
        if x.shape[1] != self.w.shape[1]:
            raise ValueError(f"expected {self.w.shape[1]} input channels, got {x.shape[1]}")
        a, s = affine or (1.0, 0.0)
        o = _out_scale(scale, factor)
        return fold(self.w.data, self.b.data, x.dtype, a, s, o), ((x, a, s, o, scale, factor) if training else None)

    def forward(self, x: np.ndarray, training: bool = True, affine=None, scale=None, factor=1.0):
        (w, b), ctx = self.folded(x, training, affine, scale, factor)
        y = np.empty((x.shape[0], w.shape[0]), dtype=x.dtype)
        for lo, hi in row_blocks(x.shape[0]):
            affine_rows(x[lo:hi], w, b, y[lo:hi])
        return y, ctx

    def backward(self, dy: np.ndarray, ctx) -> np.ndarray:
        x, a, s, o, scale, factor = ctx
        # dy.T @ x by 64 columns of x, each a full sum over the rows, so a float64 dy widens x 64 columns at a time
        dw = np.empty(self.w.shape, dtype=np.result_type(dy, x))
        for lo, hi in row_blocks(x.shape[1], 64):
            dw[:, lo:hi] = dy.T @ x[:, lo:hi]
        dw, db, do = fold_adjoint(self.w.data, self.b.data, dw, dy.sum(axis=0), a, s, o)
        self.w.grad += dw
        self.b.grad += db
        if scale is not None:
            scale.grad += factor * do
        w = fold(self.w.data, self.b.data, dy.dtype, out_scale=o)[0]
        dx = np.empty(x.shape, dtype=x.dtype)
        for lo, hi in row_blocks(x.shape[0]):
            np.matmul(dy[lo:hi], w, out=dx[lo:hi])
        return dx


def row_blocks(n: int, size: Optional[int] = None) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive blocks of ``size`` (``_ROW_BLOCK``) rows over ``n``; a shorter rest joins the last."""
    size = size or _ROW_BLOCK
    starts = [i * size for i in range(max(1, n // size))]
    return list(zip(starts, starts[1:] + [n]))


def affine_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = x W^T + b`` for a block of rows, written into ``out`` (rows of a larger array, or a block buffer)."""
    np.matmul(x, w.T, out=out)
    out += b
    return out


class BatchNorm:
    """Per-channel batch normalization over the point rows, returned as a map that its consumer folds.

    ``forward`` returns the float64 map ``(scale, shift)`` and the context: ``scale * x + shift`` is the normalized
    input, ``scale = gamma / sqrt(var + eps)`` and ``shift = beta - mean * scale``. Eval: ``mean, var`` are the running
    statistics. Training: the batch mean and biased variance of the rows, rounded to ``x``'s dtype; they go
    into the running statistics with momentum, and the context holds ``x`` and them for :meth:`backward`, which
    takes the normalized input's gradient and never forms ``xhat``: the input gradient is affine in ``(dy, x)``,
    evaluated a row block at a time.
    """

    def __init__(self, store: ParamStore, name: str, dim: int):
        self.gamma = store.register(f"{name}.gamma", np.ones(dim, dtype=np.float32))
        self.beta = store.register(f"{name}.beta", np.zeros(dim, dtype=np.float32))
        self.running_mean = store.register(f"{name}.running_mean", np.zeros(dim, dtype=np.float32), trainable=False)
        self.running_var = store.register(f"{name}.running_var", np.ones(dim, dtype=np.float32), trainable=False)

    def forward(self, x: np.ndarray, training: bool = True):
        if training:
            count = x.shape[0]
            if count == 0:
                raise ValueError("batchnorm needs at least one row in train mode")
            # statistics in float64, which numpy widens to in buffered chunks, so
            # no N x F float64 array is made; the sums of float32 inputs are then
            # (generically) exact, hence order-independent
            mean64 = x.sum(axis=0, dtype=np.float64) / count
            var64 = np.maximum(np.einsum("ij,ij->j", x, x, dtype=np.float64) / count - mean64 * mean64, 0.0)
            self.running_mean.data[...] = (1 - BN_MOMENTUM) * self.running_mean.data + BN_MOMENTUM * mean64
            self.running_var.data[...] = (1 - BN_MOMENTUM) * self.running_var.data + BN_MOMENTUM * var64
            mean, var = mean64.astype(x.dtype), var64.astype(x.dtype)
            ctx = (x, mean, 1.0 / np.sqrt(var + BN_EPS))
        else:
            ctx, mean, var = None, self.running_mean.data, self.running_var.data
        scale = self.gamma.data / np.sqrt(var.astype(np.float64) + BN_EPS)
        return (scale, self.beta.data - mean * scale), ctx

    def backward(self, dy: np.ndarray, ctx) -> np.ndarray:
        x, mean, inv_std = ctx
        # dx = c1 dy + c2 x + c3 per channel (Ioffe & Szegedy 2015), with
        # c1 = gamma inv_std and c2, c3 from sum(dy) and sum(dy x), all in float64
        count = x.shape[0]
        sum_dy = dy.sum(axis=0, dtype=np.float64)
        mean, inv_std = mean.astype(np.float64), inv_std.astype(np.float64)
        sum_dy_xhat = (np.einsum("ij,ij->j", dy, x, dtype=np.float64) - mean * sum_dy) * inv_std
        self.gamma.grad += sum_dy_xhat
        self.beta.grad += sum_dy
        c1 = self.gamma.data * inv_std
        c2 = -c1 * inv_std * sum_dy_xhat / count
        c3 = -c1 * sum_dy / count - c2 * mean
        c1, c2, c3 = c1.astype(dy.dtype), c2.astype(x.dtype), c3.astype(x.dtype)
        # (dy c1) + (x c2 + c3), rounded as whole arrays would be, a row block at a time
        blocks = row_blocks(count)
        dx = np.empty(dy.shape, dtype=dy.dtype)
        tmp = np.empty((count - blocks[-1][0], x.shape[1]), dtype=x.dtype)
        for lo, hi in blocks:
            t = np.multiply(x[lo:hi], c2, out=tmp[: hi - lo])
            t += c3
            np.add(np.multiply(dy[lo:hi], c1, out=dx[lo:hi]), t, out=dx[lo:hi])
        return dx


# Tap t = 3u + v of the 3x3 kernel reads the cell at offset (u - 1, v - 1).
_TAPS = range(9)
# The input gradient of tap t reads dy at offset (1 - u, 1 - v), which is tap 8 - t.
_FLIPPED_TAPS = range(8, -1, -1)
# Rows per tap-sum block: at F = 256 a float32 block is 256 KB, reused from cache by all 9 taps.
_TAP_BLOCK = 256


class DepthwiseConv3x3:
    """Per-channel 3x3 cross-correlation with zero padding of 1, on the rows that are read.

    No cross-channel mixing: channel c of the output only sees channel c of
    the input and its own 3x3 kernel.

    Rows are grid cells, one C-contiguous row of F channels each, and every
    input, output and gradient is an (n + 1) x F block whose last row is zero,
    like :meth:`ProjectionPair.flatten`. ``forward(x, taps)`` takes an
    ``n_out x 9`` int table: ``taps[r, 3u + v]`` is the input row at offset
    (u - 1, v - 1) from output row r, and the index ``n_in`` of the zero row
    stands for an empty or out-of-grid cell. Given ``out``, an ``n_out x F``
    block (rows of a larger array, say), ``forward`` writes the rows of
    ``taps`` into it, with no zero row, and returns it: a caller passes a row
    range of a table to compute those output rows only. ``forward`` returns
    only its output, so its context is its own arguments (without ``out``):
    ``backward(dy, taps, ctx)`` takes ``ctx = (x, taps, scale, factor)`` for
    the whole table and the table of the other direction, ``n_in x 9`` rows
    of the output set, read with flipped taps.
    Each output row starts from 0.0, adds the products ``kernel[:, u, v] * x``
    in (u, v) order and the bias last; the input gradient adds
    ``kernel[:, u, v] * dy`` at offset (1 - u, 1 - v) in (u, v) order, and
    ``dy`` must have the input's dtype. On the rows it evaluates, the result
    is therefore bit-identical to the dense zero-padded convolution of the
    whole grid, provided every cell the rows read and do not list is zero.
    Kernel and bias gradients are sums over rows. ``factor * scale`` scales
    the output through kernel and bias, as in :class:`PointwiseLinear`.
    """

    def __init__(self, store: ParamStore, name: str, channels: int, rng: Optional[np.random.Generator]):
        self.k = store.register(f"{name}.kernel", uniform_init(rng, (channels, 3, 3), 9))
        self.b = store.register(f"{name}.bias", np.zeros(channels, dtype=np.float32))

    def forward(self, x: np.ndarray, taps: np.ndarray, scale=None, factor=1.0, out=None) -> np.ndarray:
        f = self.k.shape[0]
        check_rows(x, f)
        _check_taps(taps, x.shape[0] - 1)
        if out is not None and (out.shape != (taps.shape[0], f) or out.dtype != x.dtype):
            raise ValueError(f"expected a {taps.shape[0]} x {f} {x.dtype} out block, got {out.shape} {out.dtype}")
        o = _out_scale(scale, factor)
        kern, bias = fold(self.k.data.reshape(f, 9), self.b.data, x.dtype, out_scale=o)
        y = np.zeros((taps.shape[0] + 1, f), dtype=x.dtype) if out is None else out
        rows = _tap_sum(x, taps, _TAPS, kern, y[: taps.shape[0]])
        rows += bias
        return y

    def backward(self, dy: np.ndarray, taps: np.ndarray, ctx) -> np.ndarray:
        x, fwd_taps, scale, factor = ctx
        f = self.k.shape[0]
        if dy.dtype != x.dtype:
            raise ValueError(f"expected a {x.dtype} gradient like the forward's input, got {dy.dtype}")
        check_rows(dy, f, fwd_taps.shape[0])
        _check_taps(taps, fwd_taps.shape[0])
        if taps.shape[0] != x.shape[0] - 1:
            raise ValueError(f"expected a {x.shape[0] - 1} x 9 table, got {taps.shape}")
        rows = dy[:-1]
        ksum = np.zeros((f, 9), dtype=x.dtype)
        xt = np.empty(rows.shape, dtype=x.dtype)
        for t in _TAPS:
            np.take(x, fwd_taps[:, t], axis=0, out=xt, mode="clip")
            ksum[:, t] += np.einsum("ij,ij->j", xt, rows)
        kern, o = self.k.data.reshape(f, 9), _out_scale(scale, factor)
        dk, db, do = fold_adjoint(kern, self.b.data, ksum, rows.sum(axis=0), out_scale=o)
        self.k.grad += dk.reshape(f, 3, 3)
        self.b.grad += db
        if scale is not None:
            scale.grad += factor * do
        dx = np.zeros((taps.shape[0] + 1, f), dtype=x.dtype)
        _tap_sum(dy, taps, _FLIPPED_TAPS, fold(kern, self.b.data, x.dtype, out_scale=o)[0], dx[:-1])
        return dx


def check_rows(x: np.ndarray, f: Optional[int] = None, n: Optional[int] = None) -> None:
    """``x`` must be an (n + 1) x f block of rows whose last row is zero; ``None`` leaves n or f open."""
    if x.ndim != 2 or x.shape[0] == 0 or (f is not None and x.shape[1] != f) or (n is not None and x.shape[0] != n + 1):
        raise ValueError(f"expected ({'n' if n is None else n} + 1) x {'F' if f is None else f} rows, got {x.shape}")
    if x[-1].any():
        raise ValueError("the last row must be the zero row")


def _check_taps(taps: np.ndarray, n_in: int) -> None:
    if taps.ndim != 2 or taps.shape[1] != 9:
        raise ValueError(f"expected an n x 9 tap table, got {taps.shape}")
    if taps.size and (taps.min() < 0 or taps.max() > n_in):
        raise ValueError(f"tap table index outside 0..{n_in}")


def tap_blocks(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive blocks of ``_TAP_BLOCK`` rows over ``n``; only the last may be shorter."""
    return [(lo, min(lo + _TAP_BLOCK, n)) for lo in range(0, n, _TAP_BLOCK)]


def _tap_sum(src: np.ndarray, taps: np.ndarray, columns, kern: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[r] = sum over t of kern[:, t] * src[taps[r, c_t]]``, from 0.0, in the order of ``columns``.

    One row of ``out`` per row of ``taps``, in ``src``'s dtype; rows go in blocks of ``_TAP_BLOCK``.
    """
    n = taps.shape[0]
    buf = np.empty((min(n, _TAP_BLOCK), src.shape[1]), dtype=src.dtype)
    for lo, hi in tap_blocks(n):
        rows, block, tmp = out[lo:hi], taps[lo:hi], buf[: hi - lo]
        rows.fill(0)
        for t, c in enumerate(columns):
            np.take(src, block[:, c], axis=0, out=tmp, mode="clip")
            np.multiply(kern[:, t], tmp, out=tmp)
            rows += tmp
    return out


def fold(weight: np.ndarray, bias: np.ndarray, dtype, in_scale=1.0, in_shift=0.0, out_scale=1.0):
    """``(W', b')`` with ``x W'^T + b' = out_scale * ((in_scale * x + in_shift) W^T + b)``.

    Computed in float64, whatever the dtypes of the scales, and rounded once to ``dtype``.
    """
    b = (bias + weight @ np.broadcast_to(np.asarray(in_shift, dtype=np.float64), weight.shape[1:])) * out_scale
    return (weight * np.reshape(out_scale, (-1, 1)) * in_scale).astype(dtype), b.astype(dtype)


def fold_adjoint(weight, bias, dweight, dbias, in_scale=1.0, in_shift=0.0, out_scale=1.0):
    """``(dW, db, d out_scale)`` from the gradients ``(G, g)`` of the ``(W', b')`` of :func:`fold`.

    With ``a, s, o`` the input scale and shift and the output scale: ``dW = o (G a + g s^T)``, ``db = o g`` and
    ``d o = row sums of (W a) G, plus (b + W s) g``. Nothing divides by a scale, so a zero one is fine.
    """
    wa, bs = fold(weight, bias, np.float64, in_scale, in_shift)
    dw = dweight * in_scale + np.outer(dbias, np.broadcast_to(in_shift, wa.shape[1:]))
    return np.reshape(out_scale, (-1, 1)) * dw, dbias * out_scale, (wa * dweight).sum(axis=1) + bs * dbias


def slot_max(values: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channelwise max over the neighbor-slot axis.

    ``values`` is N x k x F, one row per (point, neighbor slot). Returns the
    maxima (N x F) and, for gradient routing, the winning slot per entry with
    ties resolved toward the slot holding the smallest point index.
    """
    if values.ndim != 3 or values.shape[1] == 0:
        raise ValueError("values must be N x k x F with k >= 1")
    n, k, f = values.shape
    y = values.max(axis=1)
    # one N x F pass per slot counts each entry's maximal slots and sums their
    # indices, which is the winning slot where the count is 1; only entries
    # with more than one maximal slot need the smallest-point-index tie-break
    count = np.zeros((n, f), dtype=np.min_scalar_type(k))
    total = np.zeros((n, f), dtype=np.min_scalar_type(k * (k - 1) // 2))
    eq = np.empty((n, f), dtype=bool)
    term = np.empty_like(total)
    for s in range(k):
        np.equal(values[:, s], y, out=eq)
        count += eq
        total += np.multiply(eq, total.dtype.type(s), out=term)
    slots = total.astype(np.intp)
    several = count > 1
    if several.any():
        ni, fi = np.nonzero(several)
        tied = values[ni, :, fi] == y[ni, fi, None]
        points = np.where(tied, neighbors[ni], np.iinfo(np.int64).max)
        slots[ni, fi] = np.argmax(points == points.min(axis=1, keepdims=True), axis=1)
    return y, slots
