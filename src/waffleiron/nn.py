"""Minimal dense layer set with hand-written forward/backward passes.

The network architecture is fixed, so instead of a tape-based autodiff each
layer caches what its own backward pass needs. Parameters live in a
:class:`ParamStore` as named float32 tensors; gradient buffers accumulate
until explicitly zeroed. A central finite-difference checker validates every
backward implementation.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional

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

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._tensors.items())

    def names(self) -> list[str]:
        return list(self._tensors)

    def trainable_items(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._tensors.items() if t.trainable]

    def zero_grad(self):
        for t in self._tensors.values():
            t.zero_grad()

    def num_trainable(self) -> int:
        return sum(t.size for _, t in self.trainable_items())


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class PointwiseLinear:
    """y[:, i] = W x[:, i] + b, a 1x1 convolution over point columns."""

    def __init__(self, store: ParamStore, name: str, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = store.register(f"{name}.weight", uniform_init(rng, (out_dim, in_dim), in_dim))
        self.b = store.register(f"{name}.bias", np.zeros(out_dim, dtype=np.float32))
        self._x = None

    def forward(self, x: np.ndarray, need_grad: bool = True) -> np.ndarray:
        if x.shape[0] != self.w.shape[1]:
            raise ValueError(f"expected {self.w.shape[1]} input channels, got {x.shape[0]}")
        self._x = x if need_grad else None
        return self.w.data @ x + self.b.data[:, None]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        self.w.grad += dy @ x.T
        self.b.grad += dy.sum(axis=1)
        return self.w.data.T @ dy


class BatchNorm:
    """Per-channel batch normalization over the valid point columns.

    Train mode normalizes by batch mean and biased variance and updates the
    running statistics with momentum; eval mode uses the running statistics.
    """

    def __init__(self, store: ParamStore, name: str, dim: int):
        self.gamma = store.register(f"{name}.gamma", np.ones(dim, dtype=np.float32))
        self.beta = store.register(f"{name}.beta", np.zeros(dim, dtype=np.float32))
        self.running_mean = store.register(f"{name}.running_mean", np.zeros(dim, dtype=np.float32), trainable=False)
        self.running_var = store.register(f"{name}.running_var", np.ones(dim, dtype=np.float32), trainable=False)
        self._cache = None

    def forward(
        self,
        x: np.ndarray,
        valid: Optional[np.ndarray] = None,
        training: bool = False,
        update_stats: Optional[bool] = None,
        need_grad: bool = True,
    ) -> np.ndarray:
        if update_stats is None:
            update_stats = training
        if valid is None:
            valid = np.ones(x.shape[1], dtype=bool)
        count = int(valid.sum())
        if training:
            if count == 0:
                raise ValueError("batchnorm needs at least one valid column in train mode")
            # statistics in float64: more headroom, and the sums of float32
            # inputs are then (generically) exact, hence order-independent
            xv = x[:, valid].astype(np.float64)
            mean64 = xv.mean(axis=1)
            var64 = np.maximum((xv * xv).mean(axis=1) - mean64 * mean64, 0.0)
            mean = mean64.astype(x.dtype)
            var = var64.astype(x.dtype)
            if update_stats:
                m = BN_MOMENTUM
                self.running_mean.data[...] = (1 - m) * self.running_mean.data + m * mean64
                self.running_var.data[...] = (1 - m) * self.running_var.data + m * var64
        else:
            mean = self.running_mean.data.astype(x.dtype)
            var = self.running_var.data.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean[:, None]) * inv_std[:, None]
        self._cache = (xhat, inv_std, valid, count, training) if need_grad else None
        return self.gamma.data[:, None] * xhat + self.beta.data[:, None]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std, valid, count, training = self._cache
        self.gamma.grad += (dy * xhat).sum(axis=1)
        self.beta.grad += dy.sum(axis=1)
        dxhat = dy * self.gamma.data[:, None]
        if not training:
            return dxhat * inv_std[:, None]
        # batch statistics were computed over the valid columns only, so the
        # mean/variance sensitivities distribute back onto those columns
        sum_dxhat = dxhat.sum(axis=1)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=1)
        dx = dxhat * inv_std[:, None]
        corr = (sum_dxhat[:, None] + xhat * sum_dxhat_xhat[:, None]) * inv_std[:, None] / count
        dx[:, valid] -= corr[:, valid]
        return dx


class LayerScale:
    """Trainable per-channel diagonal scaling of a residual branch."""

    def __init__(self, store: ParamStore, name: str, dim: int):
        self.diag = store.register(f"{name}.diag", np.full(dim, LAYERSCALE_INIT, dtype=np.float32))
        self._x = None

    def forward(self, x: np.ndarray, need_grad: bool = True) -> np.ndarray:
        self._x = x if need_grad else None
        return self.diag.data[:, None] * x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.diag.grad += (dy * self._x).sum(axis=1)
        return self.diag.data[:, None] * dy


# Tap t = 3u + v of the 3x3 kernel reads the cell at offset (u - 1, v - 1).
_TAPS = range(9)
# The input gradient of tap t reads dy at offset (1 - u, 1 - v), which is tap 8 - t.
_FLIPPED_TAPS = range(8, -1, -1)


class DepthwiseConv3x3:
    """Per-channel 3x3 cross-correlation with zero padding of 1, on the rows that are read.

    No cross-channel mixing: channel c of the output only sees channel c of
    the input and its own 3x3 kernel.

    Inputs, outputs and gradients are F x n arrays of rows, one row per grid
    cell, returned as views of cell-major (n x F) memory like
    :meth:`ProjectionPair.flatten`. ``forward(x, taps)`` takes an
    ``n_out x 9`` int table: ``taps[r, 3u + v]`` is the input row at offset
    (u - 1, v - 1) from output row r, and the extra index ``n_in`` stands for
    a zero row (an empty or out-of-grid cell). ``backward(dy, taps)`` takes the
    table of the other direction, ``n_in x 9`` rows of the output set, and
    reads it with flipped taps. Each output row starts from 0.0, adds the
    products ``kernel[:, u, v] * x`` in (u, v) order and the bias last; the
    input gradient adds ``kernel[:, u, v] * dy`` at offset (1 - u, 1 - v) in
    (u, v) order into the input's dtype. On the rows it evaluates, the result
    is therefore bit-identical to the dense zero-padded convolution of the
    whole grid, provided every cell the rows read and do not list is zero.
    Kernel and bias gradients are sums over rows.
    """

    def __init__(self, store: ParamStore, name: str, channels: int, rng: np.random.Generator):
        self.k = store.register(f"{name}.kernel", uniform_init(rng, (channels, 3, 3), 9))
        self.b = store.register(f"{name}.bias", np.zeros(channels, dtype=np.float32))
        self._cache = None

    def forward(self, x: np.ndarray, taps: np.ndarray, need_grad: bool = True) -> np.ndarray:
        f = self.k.shape[0]
        if x.ndim != 2 or x.shape[0] != f:
            raise ValueError(f"expected {f} x n input rows, got {x.shape}")
        _check_taps(taps, x.shape[1])
        src = _rows_and_zero(x)
        y = _tap_sum(src, taps, _TAPS, self.k.data.reshape(f, 9).astype(x.dtype), x.dtype)
        y += self.b.data.astype(x.dtype)
        self._cache = (src, taps) if need_grad else None
        return y.T

    def backward(self, dy: np.ndarray, taps: np.ndarray) -> np.ndarray:
        src, fwd_taps = self._cache
        f = self.k.shape[0]
        if dy.shape != (f, fwd_taps.shape[0]):
            raise ValueError(f"expected {f} x {fwd_taps.shape[0]} gradient rows, got {dy.shape}")
        _check_taps(taps, dy.shape[1])
        if taps.shape[0] != src.shape[0] - 1:
            raise ValueError(f"expected a {src.shape[0] - 1} x 9 table, got {taps.shape}")
        dyr = dy.T
        ksum = np.zeros((f, 9), dtype=np.result_type(dy, src))
        xt = np.empty(dyr.shape, dtype=src.dtype)
        prod = np.empty(dyr.shape, dtype=ksum.dtype)
        for t in _TAPS:
            np.take(src, fwd_taps[:, t], axis=0, out=xt, mode="clip")
            np.multiply(dyr, xt, out=prod)
            ksum[:, t] += prod.sum(axis=0)
        self.k.grad += ksum.reshape(f, 3, 3)
        self.b.grad += dyr.sum(axis=0)
        kern = self.k.data.reshape(f, 9).astype(dy.dtype)
        return _tap_sum(_rows_and_zero(dy), taps, _FLIPPED_TAPS, kern, src.dtype).T


def _check_taps(taps: np.ndarray, n_in: int) -> None:
    if taps.ndim != 2 or taps.shape[1] != 9:
        raise ValueError(f"expected an n x 9 tap table, got {taps.shape}")
    if taps.size and (taps.min() < 0 or taps.max() > n_in):
        raise ValueError(f"tap table index outside 0..{n_in}")


def _rows_and_zero(x: np.ndarray) -> np.ndarray:
    """The F x n rows ``x`` as cell-major (n + 1) x F memory, the last row zero."""
    out = np.zeros((x.shape[1] + 1, x.shape[0]), dtype=x.dtype)
    out[:-1] = x.T
    return out


def _tap_sum(src: np.ndarray, taps: np.ndarray, columns, kern: np.ndarray, dtype) -> np.ndarray:
    """``out[r] = sum over t of kern[:, t] * src[taps[r, c_t]]``, from 0.0, in the order of ``columns``."""
    out = np.zeros((taps.shape[0], src.shape[1]), dtype=dtype)
    tmp = np.empty(out.shape, dtype=np.result_type(kern, src))
    for t, c in enumerate(columns):
        np.take(src, taps[:, c], axis=0, out=tmp, mode="clip")
        np.multiply(kern[:, t], tmp, out=tmp)
        out += tmp
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0)


def slot_max(values: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channelwise max over the neighbor-slot axis.

    ``values`` is F x N x k, one entry per (point, neighbor slot). Returns the
    maxima (F x N) and, for gradient routing, the winning slot per entry with
    ties resolved toward the slot holding the smallest point index.
    """
    if values.ndim != 3 or values.shape[2] == 0:
        raise ValueError("values must be F x N x k with k >= 1")
    f, n, k = values.shape
    y = values.max(axis=2)
    tied = values == y[:, :, None]
    big = np.iinfo(np.int64).max
    nbr = neighbors[None, :, :]
    best_point = np.where(tied, nbr, big).min(axis=2)
    slot_ids = np.arange(k, dtype=np.int64)[None, None, :]
    slots = np.where(tied & (nbr == best_point[:, :, None]), slot_ids, k).min(axis=2)
    return y, slots


def neighborhood_max(x: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y[:, i] = channelwise max of x over the columns listed in neighbors[i].

    Returns the pooled features and the selected source column per entry
    (ties toward the lower point index), which drives the backward routing.
    """
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.ndim != 2 or neighbors.shape[1] < 1:
        raise ValueError("neighbors must be N x k with k >= 1")
    if neighbors.min() < 0 or neighbors.max() >= x.shape[1]:
        raise ValueError("neighbor index out of range")
    gathered = x[:, neighbors]  # (F, N, k)
    y, slots = slot_max(gathered, neighbors)
    cols = np.broadcast_to(np.arange(neighbors.shape[0])[None, :], y.shape)
    selected = neighbors[cols, slots]
    return y, selected


def neighborhood_max_backward(dy: np.ndarray, selected: np.ndarray, n_points: int) -> np.ndarray:
    dx = np.zeros((dy.shape[0], n_points), dtype=dy.dtype)
    rows = np.broadcast_to(np.arange(dy.shape[0])[:, None], dy.shape)
    np.add.at(dx, (rows, selected), dy)
    return dx


def grad_check(loss_fn: Callable[[bool], float], store: ParamStore, eps: float = 1e-3) -> float:
    """Central finite-difference check of every trainable scalar.

    ``loss_fn(want_grad)`` must return the scalar loss and, when asked,
    accumulate analytic gradients into the store. All tensors are temporarily
    promoted to float64 so the numeric differences are trustworthy. Returns
    ``max |analytic - numeric| / max(1, |numeric|)`` over all scalars.
    """
    if not 1e-5 <= eps <= 1e-2:
        raise ValueError("eps must lie in [1e-5, 1e-2]")
    saved = {name: t.data for name, t in store.items()}
    for _, t in store.items():
        t.data = t.data.astype(np.float64)
        if t.grad is not None:
            t.grad = np.zeros_like(t.data)
    try:
        loss = loss_fn(True)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss in gradient check")
        analytic = {name: t.grad.copy() for name, t in store.trainable_items()}
        worst = 0.0
        for name, t in store.trainable_items():
            flat = t.data.reshape(-1)
            g = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss_fn(False)
                flat[i] = orig - eps
                down = loss_fn(False)
                flat[i] = orig
                if not (np.isfinite(up) and np.isfinite(down)):
                    raise FloatingPointError(f"non-finite loss while perturbing {name}[{i}]")
                numeric = (up - down) / (2 * eps)
                err = abs(g[i] - numeric) / max(1.0, abs(numeric))
                worst = max(worst, err)
        return worst
    finally:
        for name, t in store.items():
            t.data = saved[name]
            if t.grad is not None:
                t.grad = np.zeros_like(t.data)
