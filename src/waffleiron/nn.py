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


# Elements per block of the conv loops: a block and its per-tap temporary stay
# in cache across the nine taps (fastest of 2**16..2**20 on a 2-core x86 VM,
# 256 x 250 x 250 cell-major grid).
_CONV_BLOCK = 1 << 17
_TAPS = tuple((u, v) for u in range(3) for v in range(3))
# (u, v, a, b): kernel tap (u, v) reads the padded source window at (a, b).
# Forward: y[i, j] takes kernel[u, v] * x[i - 1 + u, j - 1 + v]. Backward:
# dx[i, j] takes kernel[u, v] * dy[i + 1 - u, j + 1 - v], the same tap order
# as scatter-adding each tap's contribution into a padded dx.
_FORWARD_TAPS = tuple((u, v, u, v) for u, v in _TAPS)
_BACKWARD_TAPS = tuple((u, v, 2 - u, 2 - v) for u, v in _TAPS)


class DepthwiseConv3x3:
    """Per-channel 3x3 cross-correlation with zero padding of 1.

    No cross-channel mixing: channel c of the output only sees channel c of
    the input and its own 3x3 kernel.

    Layout contract: the grids of token mixing are F x H x W views of
    cell-major (H x W x F) memory, as :meth:`ProjectionPair.flatten` returns
    them. Every buffer here (padded input, output, input gradient and the
    per-tap temporary) follows the memory order of the array it is made from,
    and the output and input gradient have the memory order of the input and
    of ``dy``. Taps are added one at a time in (u, v) order, bias last, so the
    result does not depend on the layout; the work runs block by block along
    the outermost memory axis.
    """

    def __init__(self, store: ParamStore, name: str, channels: int, rng: np.random.Generator):
        self.k = store.register(f"{name}.kernel", uniform_init(rng, (channels, 3, 3), 9))
        self.b = store.register(f"{name}.bias", np.zeros(channels, dtype=np.float32))
        self._cache = None

    def forward(self, x: np.ndarray, need_grad: bool = True) -> np.ndarray:
        if x.ndim != 3 or x.shape[0] != self.k.shape[0]:
            raise ValueError(f"expected {self.k.shape[0]} x H x W input, got {x.shape}")
        xp = _pad(x)
        y = np.zeros_like(x)
        _correlate(y, xp, self.k.data.astype(x.dtype), _FORWARD_TAPS)
        y += self.b.data.astype(x.dtype)[:, None, None]
        self._cache = xp if need_grad else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xp = self._cache
        f, _, w = dy.shape
        ksum = np.zeros((f, 3, 3), dtype=np.result_type(dy, xp))
        for cs, i0, i1 in _blocks(dy):
            dyb = dy[cs, i0:i1]
            tmp = np.empty_like(dyb, dtype=ksum.dtype)
            for u, v in _TAPS:
                np.multiply(dyb, xp[cs, i0 + u : i1 + u, v : v + w], out=tmp)
                ksum[cs, u, v] += tmp.sum(axis=(1, 2))
        self.k.grad += ksum
        self.b.grad += dy.sum(axis=(1, 2))
        dx = np.zeros_like(dy, dtype=xp.dtype)
        _correlate(dx, _pad(dy), self.k.data.astype(dy.dtype), _BACKWARD_TAPS)
        return dx


def _pad(x: np.ndarray) -> np.ndarray:
    """Zero border of one cell around H and W, in the memory order of ``x``."""
    f, h, w = x.shape
    xp = np.zeros_like(x, shape=(f, h + 2, w + 2))
    xp[:, 1 : h + 1, 1 : w + 1] = x
    return xp


def _blocks(x: np.ndarray) -> list[tuple[slice, int, int]]:
    """(channel slice, first row, end row) blocks of an F x H x W array.

    Blocks split the outermost memory axis: channels for channel-major
    memory, rows for cell-major memory.
    """
    f, h, w = x.shape
    if x.strides[0] >= x.strides[1]:
        step = max(1, _CONV_BLOCK // (h * w))
        return [(slice(c, c + step), 0, h) for c in range(0, f, step)]
    step = max(1, _CONV_BLOCK // (f * w))
    return [(slice(None), i, min(i + step, h)) for i in range(0, h, step)]


def _correlate(out: np.ndarray, src: np.ndarray, kern: np.ndarray, taps) -> None:
    """``out[:, i, j] += kern[:, u, v] * src[:, i + a, j + b]`` for each (u, v, a, b) in order."""
    w = out.shape[2]
    for cs, i0, i1 in _blocks(out):
        ob = out[cs, i0:i1]
        tmp = np.empty_like(ob, dtype=np.result_type(kern, src))
        kb = kern[cs]
        for u, v, a, b in taps:
            np.multiply(kb[:, u, v][:, None, None], src[cs, i0 + a : i1 + a, b : b + w], out=tmp)
            ob += tmp


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
