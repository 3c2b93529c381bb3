"""Minimal dense layer set with hand-written forward/backward passes.

The network architecture is fixed, so instead of a tape-based autodiff each
layer caches what its own backward pass needs. Parameters live in a
:class:`ParamStore` as named float32 tensors; gradient buffers accumulate
until explicitly zeroed. A batch norm returns its rows with the affine map
that its consumer folds, and a layerscale is an output scale: both fold into
the adjacent weights per call, in training and at eval (:func:`fold`), and
backward maps the gradient of the resulting weights back (:func:`fold_adjoint`).

Backward runs in the forward's dtype; :meth:`PointwiseLinear.backward`
casts to it, so a float64 loss gradient stops at the classifier. Aliasing
rule: a layer writes only into arrays it made itself, never into its
arguments. A training cache may share an array with the next layer's
cache: an in-place ReLU output is both the mask its layer keeps and the
input the next linear layer keeps.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LAYERSCALE_INIT = 1e-2


class Tensor:
    """Dense array with an optional same-shaped gradient buffer."""

    __slots__ = ("data", "grad", "trainable")

    def __init__(self, data: np.ndarray, trainable: bool = True):
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.trainable = trainable
        self.grad = np.zeros_like(self.data) if trainable else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0


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
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True, affine=None, scale=None, factor=1.0) -> np.ndarray:
        if x.shape[1] != self.w.shape[1]:
            raise ValueError(f"expected {self.w.shape[1]} input channels, got {x.shape[1]}")
        a, s = affine or (1.0, 0.0)
        o = _out_scale(scale, factor)
        w, b = fold(self.w.data, self.b.data, x.dtype, a, s, o)
        self._cache = (x, a, s, o, scale, factor) if training else None
        y = x @ w.T
        y += b
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        (x, a, s, o, scale, factor), self._cache = self._cache, None
        dw, db, do = fold_adjoint(self.w.data, self.b.data, dy.T @ x, dy.sum(axis=0), a, s, o)
        self.w.grad += dw
        self.b.grad += db
        if scale is not None:
            scale.grad += factor * do
        return (dy @ fold(self.w.data, self.b.data, dy.dtype, out_scale=o)[0]).astype(x.dtype, copy=False)


class BatchNorm:
    """Per-channel batch normalization over the valid point rows; its consumer folds the affine map.

    ``forward`` returns ``(rows, scale, shift)``, the normalized input being ``scale * rows + shift``. Training:
    the rows normalized by the batch mean and biased variance of the valid rows, and ``(gamma, beta)``; the
    statistics go into the running ones with momentum, and the layer keeps what :meth:`backward`, which takes
    the normalized input's gradient, needs. Eval: the input and the running statistics' float64 map.
    """

    def __init__(self, store: ParamStore, name: str, dim: int):
        self.gamma = store.register(f"{name}.gamma", np.ones(dim, dtype=np.float32))
        self.beta = store.register(f"{name}.beta", np.zeros(dim, dtype=np.float32))
        self.running_mean = store.register(f"{name}.running_mean", np.zeros(dim, dtype=np.float32), trainable=False)
        self.running_var = store.register(f"{name}.running_var", np.ones(dim, dtype=np.float32), trainable=False)
        self._cache = None

    def forward(self, x: np.ndarray, valid: Optional[np.ndarray] = None, training: bool = True):
        if not training:
            self._cache = None
            a = self.gamma.data / np.sqrt(self.running_var.data.astype(np.float64) + BN_EPS)
            return x, a, self.beta.data - self.running_mean.data * a
        valid = np.ones(x.shape[0], dtype=bool) if valid is None else valid
        count = int(valid.sum())
        if count == 0:
            raise ValueError("batchnorm needs at least one valid row in train mode")
        # statistics in float64: more headroom, and the sums of float32
        # inputs are then (generically) exact, hence order-independent
        xv = x[valid].astype(np.float64)
        mean64 = xv.mean(axis=0)
        var64 = np.maximum((xv * xv).mean(axis=0) - mean64 * mean64, 0.0)
        self.running_mean.data[...] = (1 - BN_MOMENTUM) * self.running_mean.data + BN_MOMENTUM * mean64
        self.running_var.data[...] = (1 - BN_MOMENTUM) * self.running_var.data + BN_MOMENTUM * var64
        inv_std = 1.0 / np.sqrt(var64.astype(x.dtype) + BN_EPS)
        xhat = x - mean64.astype(x.dtype)
        xhat *= inv_std
        self._cache = (xhat, inv_std, valid, count)
        return xhat, self.gamma.data, self.beta.data

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std, valid, count = self._cache
        self._cache = None
        # one temporary holds dy * xhat, dxhat * xhat and the correction in
        # turn, and dx overwrites dxhat
        tmp = dy * xhat
        self.gamma.grad += tmp.sum(axis=0)
        self.beta.grad += dy.sum(axis=0)
        dxhat = dy * self.gamma.data
        # batch statistics were computed over the valid rows only, so the
        # mean/variance sensitivities distribute back onto those rows
        sum_dxhat = dxhat.sum(axis=0)
        np.multiply(dxhat, xhat, out=tmp)
        sum_dxhat_xhat = tmp.sum(axis=0)
        dx = np.multiply(dxhat, inv_std, out=dxhat)
        # corr = (sum_dxhat + xhat * sum_dxhat_xhat) * inv_std / count
        corr = np.multiply(xhat, sum_dxhat_xhat, out=tmp)
        corr += sum_dxhat
        corr *= inv_std
        corr /= count
        np.subtract(dx, corr, out=dx, where=valid[:, None])
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
    stands for an empty or out-of-grid cell. ``backward(dy, taps)`` takes the
    table of the other direction, ``n_in x 9`` rows of the output set, and
    reads it with flipped taps. Each output row starts from 0.0, adds the
    products ``kernel[:, u, v] * x`` in (u, v) order and the bias last; the
    input gradient adds ``kernel[:, u, v] * dy`` at offset (1 - u, 1 - v) in
    (u, v) order, and ``dy`` must have the input's dtype. On the rows it
    evaluates, the result is therefore bit-identical to the dense zero-padded
    convolution of the whole grid, provided every cell the rows read and do
    not list is zero.
    Kernel and bias gradients are sums over rows. ``factor * scale`` scales
    the output through kernel and bias, as in :class:`PointwiseLinear`.
    """

    def __init__(self, store: ParamStore, name: str, channels: int, rng: Optional[np.random.Generator]):
        self.k = store.register(f"{name}.kernel", uniform_init(rng, (channels, 3, 3), 9))
        self.b = store.register(f"{name}.bias", np.zeros(channels, dtype=np.float32))
        self._cache = None

    def forward(self, x: np.ndarray, taps: np.ndarray, training: bool = True, scale=None, factor=1.0) -> np.ndarray:
        f = self.k.shape[0]
        check_rows(x, f)
        _check_taps(taps, x.shape[0] - 1)
        o = _out_scale(scale, factor)
        kern, bias = fold(self.k.data.reshape(f, 9), self.b.data, x.dtype, out_scale=o)
        y = _tap_sum(x, taps, _TAPS, kern)
        y[:-1] += bias
        self._cache = (x, taps, o, scale, factor) if training else None
        return y

    def backward(self, dy: np.ndarray, taps: np.ndarray) -> np.ndarray:
        x, fwd_taps, o, scale, factor = self._cache
        f = self.k.shape[0]
        if dy.dtype != x.dtype:
            raise ValueError(f"expected a {x.dtype} gradient like the forward's input, got {dy.dtype}")
        check_rows(dy, f, fwd_taps.shape[0])
        _check_taps(taps, fwd_taps.shape[0])
        if taps.shape[0] != x.shape[0] - 1:
            raise ValueError(f"expected a {x.shape[0] - 1} x 9 table, got {taps.shape}")
        self._cache = None
        rows = dy[:-1]
        ksum = np.zeros((f, 9), dtype=x.dtype)
        xt = np.empty(rows.shape, dtype=x.dtype)
        for t in _TAPS:
            np.take(x, fwd_taps[:, t], axis=0, out=xt, mode="clip")
            xt *= rows
            ksum[:, t] += xt.sum(axis=0)
        kern = self.k.data.reshape(f, 9)
        dk, db, do = fold_adjoint(kern, self.b.data, ksum, rows.sum(axis=0), out_scale=o)
        self.k.grad += dk.reshape(f, 3, 3)
        self.b.grad += db
        if scale is not None:
            scale.grad += factor * do
        return _tap_sum(dy, taps, _FLIPPED_TAPS, fold(kern, self.b.data, x.dtype, out_scale=o)[0])


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


def _tap_sum(src: np.ndarray, taps: np.ndarray, columns, kern: np.ndarray) -> np.ndarray:
    """``out[r] = sum over t of kern[:, t] * src[taps[r, c_t]]``, from 0.0, in the order of ``columns``.

    One row per row of ``taps``, and the zero row last, in ``src``'s dtype; rows go in blocks of ``_TAP_BLOCK``.
    """
    n = taps.shape[0]
    out = np.zeros((n + 1, src.shape[1]), dtype=src.dtype)
    buf = np.empty((min(n, _TAP_BLOCK), src.shape[1]), dtype=src.dtype)
    for lo in range(0, n, _TAP_BLOCK):
        rows = out[lo : min(lo + _TAP_BLOCK, n)]
        block = taps[lo : lo + rows.shape[0]]
        tmp = buf[: rows.shape[0]]
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
    y = values.max(axis=1)
    maximal = values == y[:, None, :]
    slots = maximal.argmax(axis=1)
    # argmax picks the first maximal slot; only entries with more than one
    # maximal slot need the smallest-point-index tie-break
    ni, fi = np.nonzero(np.count_nonzero(maximal, axis=1) > 1)
    if ni.size:
        tied = values[ni, :, fi] == y[ni, fi, None]
        points = np.where(tied, neighbors[ni], np.iinfo(np.int64).max)
        slots[ni, fi] = np.argmax(points == points.min(axis=1, keepdims=True), axis=1)
    return y, slots
