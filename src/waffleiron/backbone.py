"""End-to-end segmentation network: embedding, mixing layers, classifier.

Point tokens produced by the embedding layer are refined by ``depth`` pairs
of token-mixing and channel-mixing residual blocks and classified per point
by a single linear layer. Token mixing projects tokens onto a 2D plane,
runs a small depthwise-convolution FFN on the grid, and copies the result
back to the points; channel mixing is a per-point MLP. Both residual
branches carry a trainable layerscale; :class:`WaffleIron` drops whole
mixing layers stochastically. Training and eval run one layer structure:
each batch norm's map folds into what reads it (``global``/``local1``, the
token flatten, ``lin1``) and the stochastic-depth factor times each
layerscale into ``conv2``/``lin2``, so both mixing layers add their branch
to ``x`` as it is.

Features and tokens are N x C and N x F blocks of point rows from the
embedding to the classifier; the logits are the K x N transpose of the
classifier's rows. The embedding's local branch, k pair rows per point,
runs in blocks of points and is never held whole: training keeps only the
winning neighbor slot of each pooled entry, and backward recomputes
``relu(local1)`` block by block.

The mixing layers apply their hidden ReLU in place to the fresh output of
``lin1`` (channel) or ``conv1`` (token), so a training forward keeps that
one array both as the next layer's input and as the ReLU mask, and backward
masks the fresh gradient in place. The residual ``x + branch`` is written
into the branch's fresh output, and the backward's ``dy + branch gradient``
into the branch gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import FEATURE_DIMS, Fov, PointCloud, knn
from .nn import (
    LAYERSCALE_INIT,
    BatchNorm,
    DepthwiseConv3x3,
    ParamStore,
    PointwiseLinear,
    fold,
    fold_adjoint,
    slot_max,
)
from .projection import (
    PlaneSpec,
    ProjectionPair,
    build_projection,
    plane_schedule,
)

# Points per block of the embedding's local branch: 256 points at k = 16 make
# 4096 pair rows, whose half-width activations fit in cache.
_LOCAL_BLOCK = 256


@dataclass
class WaffleIronConfig:
    """Architecture and preprocessing hyperparameters.

    ``depth`` counts token/channel mixing pairs, ``width`` is the token
    dimension, ``rho`` the 2D grid resolution in meters. ``strategy`` picks
    the per-layer projection plane; cyclic strategies need a depth that is a
    multiple of three.
    """

    depth: int
    width: int
    rho: float
    fov: Fov
    k_neighbors: int = 16
    num_classes: int = 19
    drop_prob: float = 0.0
    strategy: str = "baseline"
    input_feature_mode: str = "5dim"

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.width < 2 or self.width % 2:
            raise ValueError("width must be an even integer >= 2")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must lie in [0, 1)")
        if self.strategy in ("baseline", "reverse") and self.depth % 3:
            raise ValueError(f"depth must be a multiple of 3 for strategy {self.strategy!r}")
        if self.input_feature_mode not in FEATURE_DIMS:
            raise ValueError(f"unknown feature mode {self.input_feature_mode!r}")

    @property
    def in_channels(self) -> int:
        return FEATURE_DIMS[self.input_feature_mode]


class EmbeddingLayer:
    """Initial point tokens merging global and local information.

    The raw features are batch-normalized, then a linear layer maps each
    point to half the token width (global branch) while an MLP applied to the
    differences ``h_j - h_i`` over the k nearest neighbors, max-pooled per
    point, fills the other half (local branch). A final linear layer mixes
    the concatenation. The batch norm's map folds wholly into the global
    linear layer and only its scale into ``local1``: the shift cancels.

    The local branch runs in blocks of ``_LOCAL_BLOCK`` points, in both
    modes, so its k rows per point never exist for the whole cloud at once.
    A training forward keeps only the batch norm's rows, the neighbor list,
    ``local1``'s weight with the scale and the winning slot of every pooled entry;
    :meth:`backward` walks the same blocks, recomputes the differences and
    ``relu(local1)`` and routes the gradient through the kept slots, so
    ``local2`` is not re-run.
    """

    def __init__(self, store: ParamStore, name: str, in_dim: int, width: int, rng: Optional[np.random.Generator]):
        half = width // 2
        self.half = half
        self.pre_bn = BatchNorm(store, f"{name}.pre_bn", in_dim)
        self.global_lin = PointwiseLinear(store, f"{name}.global", in_dim, half, rng)
        self.local1 = PointwiseLinear(store, f"{name}.local1", in_dim, half, rng)
        self.local2 = PointwiseLinear(store, f"{name}.local2", half, half, rng)
        self.merge = PointwiseLinear(store, f"{name}.merge", width, width, rng)
        self._cache = None

    def forward(self, feats, neighbors, valid, training):
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if neighbors.ndim != 2 or neighbors.shape[0] != feats.shape[0]:
            raise ValueError("neighbor list must be N x k aligned with the points")
        n, k = neighbors.shape
        h, scale, shift = self.pre_bn.forward(feats, valid, training)
        w1 = fold(self.local1.w.data, self.local1.b.data, h.dtype, scale)[0]
        g = self.global_lin.forward(h, training, (scale, shift))
        local = np.empty((n, self.half), dtype=h.dtype)
        slots = np.empty((n, self.half), dtype=np.int64) if training else None
        for start, stop, _, r in self._pair_blocks(h, neighbors, w1):
            a2 = (r @ self.local2.w.data.T).reshape(stop - start, k, self.half)
            if training:
                a2 += self.local2.b.data
                local[start:stop], slots[start:stop] = slot_max(a2, neighbors[start:stop])
            else:  # local2's bias commutes with the max (rounding a + b is monotonic in a): added after pooling
                a2.max(axis=1, out=local[start:stop])
        self._cache = (h, neighbors, slots, scale, w1) if training else None
        cat = np.concatenate([g, local if training else local + self.local2.b.data], axis=1)
        return self.merge.forward(cat, training)

    def _pair_blocks(self, h, neighbors, w1):
        """Per block of points: its range, the (rows*k) x C differences and ``relu(local1)`` of them, weight ``w1``."""
        n, k = neighbors.shape
        for start in range(0, n, _LOCAL_BLOCK):
            stop = min(start + _LOCAL_BLOCK, n)
            d = (h[neighbors[start:stop]] - h[start:stop, None, :]).reshape((stop - start) * k, -1)
            r = d @ w1.T
            r += self.local1.b.data
            np.maximum(r, 0, out=r)
            yield start, stop, d, r

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("embedding backward needs a training forward")
        (hb, neighbors, slots, scale, w1), self._cache = self._cache, None
        k = neighbors.shape[1]
        dcat = self.merge.backward(dy)
        dlocal = dcat[:, None, self.half :]
        # gradients with respect to the batch norm's output, whose differences local1 reads
        dhb = self.global_lin.backward(np.ascontiguousarray(dcat[:, : self.half]))
        w2 = self.local2.w.data
        dw1 = np.zeros(w1.shape, dtype=dy.dtype)
        dw2 = np.zeros(w2.shape, dtype=dy.dtype)
        db1 = np.zeros(self.half, dtype=dy.dtype)
        db2 = np.zeros(self.half, dtype=dy.dtype)
        dself = np.empty(dhb.shape, dtype=dhb.dtype)
        for start, stop, d, r in self._pair_blocks(hb, neighbors, w1):
            da2 = np.zeros((stop - start, k, self.half), dtype=dy.dtype)
            np.put_along_axis(da2, slots[start:stop, None, :], dlocal[start:stop], axis=1)
            da2 = da2.reshape(-1, self.half)
            dw2 += da2.T @ r
            db2 += da2.sum(axis=0)
            da1 = da2 @ w2
            da1 *= r > 0
            dw1 += da1.T @ d
            db1 += da1.sum(axis=0)
            ddiff = (da1 @ self.local1.w.data).reshape(stop - start, k, -1)
            np.add.at(dhb, neighbors[start:stop], ddiff)
            ddiff.sum(axis=1, out=dself[start:stop])
        dw1, db1, _ = fold_adjoint(self.local1.w.data, self.local1.b.data, dw1, db1, scale)
        self.local1.w.grad += dw1
        self.local1.b.grad += db1
        self.local2.w.grad += dw2
        self.local2.b.grad += db2
        dhb -= dself
        return self.pre_bn.backward(dhb)


class _TokenMixBranch:
    """One plane's BN -> flatten -> conv FFN -> inflate -> layerscale chain, times ``factor``.

    The flatten maps the cell means by BN's map, so empty cells stay padding, not BN(0).
    """

    def __init__(self, store, name, width, rng):
        self.bn = BatchNorm(store, f"{name}.bn", width)
        self.conv1 = DepthwiseConv3x3(store, f"{name}.conv1", width, rng)
        self.conv2 = DepthwiseConv3x3(store, f"{name}.conv2", width, rng)
        self.layerscale = store.register(f"{name}.layerscale.diag", np.full(width, LAYERSCALE_INIT, dtype=np.float32))
        self._cache = None

    def forward(self, x, proj: ProjectionPair, valid, training, factor):
        rows, scale, shift = self.bn.forward(x, valid, training)
        r = self.conv1.forward(proj.flatten(rows, (scale, shift)), proj.d_from_o, training)
        np.maximum(r, 0, out=r)
        # r is also conv2's cached input; r > 0 is the ReLU mask
        self._cache = (proj, r) if training else None
        return proj.inflate(self.conv2.forward(r, proj.o_from_d, training, self.layerscale, factor))

    def backward(self, dy):
        (proj, r), self._cache = self._cache, None
        dr = self.conv2.backward(proj.inflate_backward(dy), proj.d_from_o)
        dr *= r > 0
        return self.bn.backward(proj.flatten_backward(self.conv1.backward(dr, proj.o_from_d)))


class TokenMixLayer:
    """Residual token mixing: x + factor * sum of per-plane branches."""

    def __init__(self, store, name, planes, width, rng):
        self.planes = tuple(planes)
        self.branches = [
            _TokenMixBranch(store, f"{name}.plane_{a0}{a1}", width, rng) for a0, a1 in self.planes
        ]

    def forward(self, x, projections, valid, training, factor=1.0):
        total = None
        for axes, branch in zip(self.planes, self.branches):
            out = branch.forward(x, projections[axes], valid, training, factor)
            total = out if total is None else np.add(total, out, out=total)
        return np.add(total, x, out=total)

    def backward(self, dy):
        dx = None
        for branch in self.branches:
            grad = branch.backward(dy)
            dx = np.add(grad, dy, out=grad) if dx is None else np.add(dx, grad, out=dx)
        return dx


class ChannelMixLayer:
    """Residual per-point MLP: x + factor * layerscale(MLP(BN(x))), as x + relu(x W1'^T + b1') W2'^T + b2'."""

    def __init__(self, store, name, width, rng):
        self.bn = BatchNorm(store, f"{name}.bn", width)
        self.lin1 = PointwiseLinear(store, f"{name}.lin1", width, width, rng)
        self.lin2 = PointwiseLinear(store, f"{name}.lin2", width, width, rng)
        self.layerscale = store.register(f"{name}.layerscale.diag", np.full(width, LAYERSCALE_INIT, dtype=np.float32))
        self._relu_out = None

    def forward(self, x, valid, training, factor=1.0):
        rows, scale, shift = self.bn.forward(x, valid, training)
        r = self.lin1.forward(rows, training, (scale, shift))
        np.maximum(r, 0, out=r)
        # r is also lin2's cached input; r > 0 is the ReLU mask
        self._relu_out = r if training else None
        y = self.lin2.forward(r, training, None, self.layerscale, factor)
        return np.add(y, x, out=y)

    def backward(self, dy):
        r, self._relu_out = self._relu_out, None
        dr = self.lin2.backward(dy)
        dr *= r > 0
        dx = self.bn.backward(self.lin1.backward(dr))
        return np.add(dx, dy, out=dx)


class WaffleIron:
    """The full network: embedding, mixing layers, linear classifier; with ``rng=None`` every weight is zero."""

    def __init__(self, config: WaffleIronConfig, rng: Optional[np.random.Generator]):
        self.config = config
        self.store = ParamStore()
        self.embedding = EmbeddingLayer(self.store, "embed", config.in_channels, config.width, rng)
        self.layers: list[tuple[TokenMixLayer, ChannelMixLayer]] = []
        # one spec per distinct token-layer plane, in order of first use
        self._planes: dict[tuple[int, int], PlaneSpec] = {}
        for i in range(config.depth):
            planes = plane_schedule(i, config.strategy)
            for axes in planes:
                if axes not in self._planes:
                    self._planes[axes] = PlaneSpec.from_fov(axes, config.fov, config.rho)
            token = TokenMixLayer(self.store, f"layers.{i}.token", planes, config.width, rng)
            channel = ChannelMixLayer(self.store, f"layers.{i}.channel", config.width, rng)
            self.layers.append((token, channel))
        self.classifier = PointwiseLinear(self.store, "classifier", config.width, config.num_classes, rng)
        self._kept = None

    # -- plumbing -------------------------------------------------------------

    def build_projections(self, positions: np.ndarray, valid: np.ndarray) -> dict[tuple[int, int], ProjectionPair]:
        return {axes: build_projection(positions, spec, valid) for axes, spec in self._planes.items()}

    # -- forward / backward ----------------------------------------------------

    def forward(
        self,
        feats: np.ndarray,
        neighbors: np.ndarray,
        projections: dict[tuple[int, int], ProjectionPair],
        valid: np.ndarray,
        *,
        training: bool = False,
        drop_rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Run the network on N x C features of one cloud, returning K x N logits.

        Two modes over one layer structure, in which every batch norm and
        layerscale folds into the adjacent weights. A training forward
        normalizes by batch statistics, updates the running statistics and
        makes every layer keep what :meth:`backward` needs. An eval forward
        normalizes by the running statistics and keeps nothing.

        Stochastic depth engages whenever ``drop_rng`` is given and
        ``drop_prob > 0`` (also used by test-time augmentation): one draw
        before each token and each channel mixing layer drops it with
        probability ``drop_prob``, so neither its forward nor its backward
        runs, and kept branches are scaled by ``1 / (1 - drop_prob)``.
        """
        if feats.shape[1] != self.config.in_channels:
            raise ValueError(
                f"expected {self.config.in_channels} input channels, got {feats.shape[1]}"
            )
        p = self.config.drop_prob
        if training and p > 0.0 and drop_rng is None:
            raise ValueError("drop_prob > 0 requires drop_rng in training mode")
        dropping = drop_rng is not None and p > 0.0
        factor = 1.0 / (1.0 - p) if dropping else 1.0

        kept = []
        x = self.embedding.forward(feats, neighbors, valid, training)
        for token, channel in self.layers:
            if not (dropping and drop_rng.random() < p):
                x = token.forward(x, projections, valid, training, factor)
                kept.append(token)
            if not (dropping and drop_rng.random() < p):
                x = channel.forward(x, valid, training, factor)
                kept.append(channel)
        self._kept = kept if training else None
        return self.classifier.forward(x, training).T

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients for the most recent forward pass from K x N ``dlogits``."""
        if self._kept is None:
            raise RuntimeError("backward needs a training forward")
        kept, self._kept = self._kept, None
        dx = self.classifier.backward(dlogits.T)
        for layer in reversed(kept):
            dx = layer.backward(dx)
        self.embedding.backward(dx)


def param_count(config: WaffleIronConfig) -> int:
    """Number of trainable scalars in a network with this configuration."""
    return WaffleIron(config, None).store.num_trainable()


def prepare_inputs(model: WaffleIron, pc: PointCloud):
    """Neighbor lists and projections for a cropped cloud, ready for forward."""
    neighbors = knn(pc, model.config.k_neighbors)
    projections = model.build_projections(pc.positions, pc.valid)
    return pc.features, neighbors, projections, pc.valid
