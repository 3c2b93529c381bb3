"""End-to-end segmentation network: embedding, mixing layers, classifier.

Point tokens produced by the embedding layer are refined by ``depth`` pairs
of token-mixing and channel-mixing residual blocks and classified per point
by a single linear layer. Token mixing projects tokens onto a 2D plane,
runs a small depthwise-convolution FFN on the grid, and copies the result
back to the points; channel mixing is a per-point MLP. Both residual
branches carry a trainable layerscale and can be dropped stochastically
during training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import FEATURE_DIMS, Fov, PointCloud, knn
from .nn import (
    BatchNorm,
    DepthwiseConv3x3,
    LayerScale,
    ParamStore,
    PointwiseLinear,
    relu,
    relu_backward,
    slot_max,
)
from .projection import (
    PlaneSpec,
    ProjectionPair,
    build_projection,
    plane_schedule,
    planes_used,
)


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

    def plane_spec(self, axes: tuple[int, int]) -> PlaneSpec:
        return PlaneSpec.from_fov(axes, self.fov, self.rho)


class EmbeddingLayer:
    """Initial point tokens merging global and local information.

    The raw features are batch-normalized, then a linear layer maps each
    point to half the token width (global branch) while an MLP applied to the
    differences ``h_j - h_i`` over the k nearest neighbors, max-pooled per
    point, fills the other half (local branch). A final linear layer mixes
    the concatenation.
    """

    def __init__(self, store: ParamStore, name: str, in_dim: int, width: int, rng: np.random.Generator):
        half = width // 2
        self.half = half
        self.pre_bn = BatchNorm(store, f"{name}.pre_bn", in_dim)
        self.global_lin = PointwiseLinear(store, f"{name}.global", in_dim, half, rng)
        self.local1 = PointwiseLinear(store, f"{name}.local1", in_dim, half, rng)
        self.local2 = PointwiseLinear(store, f"{name}.local2", half, half, rng)
        self.merge = PointwiseLinear(store, f"{name}.merge", width, width, rng)
        self._cache = None
        self._relu_in = None

    def forward(self, feats, neighbors, valid, bn_training, update_stats, need_grad=True):
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if neighbors.ndim != 2 or neighbors.shape[0] != feats.shape[1]:
            raise ValueError("neighbor list must be N x k aligned with the points")
        hb = self.pre_bn.forward(feats, valid, bn_training, update_stats, need_grad)
        g = self.global_lin.forward(hb, need_grad)
        if need_grad:
            local, slots = self._local_branch(hb, neighbors)
            self._cache = (neighbors, slots, feats.shape[1])
        else:
            local = self._local_branch_nograd(hb, neighbors)
            self._cache = None
            self._relu_in = None
        cat = np.concatenate([g, local], axis=0)
        return self.merge.forward(cat, need_grad)

    def _local_branch(self, hb, neighbors):
        c, n = hb.shape
        k = neighbors.shape[1]
        diffs = hb[:, neighbors] - hb[:, :, None]  # (C, N, k)
        a1 = self.local1.forward(diffs.reshape(c, n * k))
        r = relu(a1)
        self._relu_in = a1
        a2 = self.local2.forward(r)
        return slot_max(a2.reshape(self.half, n, k), neighbors)

    def _local_branch_nograd(self, hb, neighbors):
        # inference path: evaluate the pair MLP in blocks, keep only the max
        c, n = hb.shape
        k = neighbors.shape[1]
        out = np.empty((self.half, n), dtype=hb.dtype)
        block = max(1, 65536 // max(k, 1))
        for start in range(0, n, block):
            stop = min(start + block, n)
            nb = neighbors[start:stop]
            diffs = hb[:, nb] - hb[:, start:stop, None]
            a1 = self.local1.forward(diffs.reshape(c, -1), need_grad=False)
            a2 = self.local2.forward(relu(a1), need_grad=False)
            out[:, start:stop] = a2.reshape(self.half, stop - start, k).max(axis=2)
        return out

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("embedding forward ran without gradients")
        neighbors, slots, n = self._cache
        k = neighbors.shape[1]
        dcat = self.merge.backward(dy)
        dg, dlocal = dcat[: self.half], dcat[self.half :]
        da2 = np.zeros((self.half, n, k), dtype=dy.dtype)
        rows = np.broadcast_to(np.arange(self.half)[:, None], dlocal.shape)
        cols = np.broadcast_to(np.arange(n)[None, :], dlocal.shape)
        da2[rows, cols, slots] = dlocal
        dr = self.local2.backward(da2.reshape(self.half, n * k))
        da1 = relu_backward(dr, self._relu_in)
        ddiff = self.local1.backward(da1).reshape(-1, n, k)
        dhb = self.global_lin.backward(dg)
        ch = np.arange(dhb.shape[0])[:, None, None]
        np.add.at(dhb, (ch, neighbors[None, :, :]), ddiff)
        dhb -= ddiff.sum(axis=2)
        return self.pre_bn.backward(dhb)


class _TokenMixBranch:
    """One plane's BN -> flatten -> conv FFN -> inflate -> layerscale chain."""

    def __init__(self, store, name, width, rng):
        self.bn = BatchNorm(store, f"{name}.bn", width)
        self.conv1 = DepthwiseConv3x3(store, f"{name}.conv1", width, rng)
        self.conv2 = DepthwiseConv3x3(store, f"{name}.conv2", width, rng)
        self.scale = LayerScale(store, f"{name}.layerscale", width)
        self._cache = None

    def forward(self, x, proj: ProjectionPair, valid, bn_training, update_stats, need_grad=True):
        xb = self.bn.forward(x, valid, bn_training, update_stats, need_grad)
        c1 = self.conv1.forward(proj.flatten(xb), proj.d_from_o, need_grad)
        c2 = self.conv2.forward(relu(c1), proj.o_from_d, need_grad)
        pts = proj.inflate(c2)
        self._cache = (proj, c1) if need_grad else None
        return self.scale.forward(pts, need_grad)

    def backward(self, dy):
        proj, c1 = self._cache
        dpts = self.scale.backward(dy)
        dr = self.conv2.backward(proj.inflate_backward(dpts), proj.d_from_o)
        drows = self.conv1.backward(relu_backward(dr, c1), proj.o_from_d)
        return self.bn.backward(proj.flatten_backward(drows))


class TokenMixLayer:
    """Residual token mixing: x + scale * sum of per-plane branches."""

    def __init__(self, store, name, planes, width, rng):
        self.planes = tuple(planes)
        self.branches = [
            _TokenMixBranch(store, f"{name}.plane_{a0}{a1}", width, rng) for a0, a1 in self.planes
        ]
        self._skip = None
        self._factor = 1.0

    def forward(self, x, projections, valid, bn_training, update_stats, keep=True, factor=1.0, need_grad=True):
        self._skip = not keep
        self._factor = factor
        if not keep:
            return x
        total = None
        for axes, branch in zip(self.planes, self.branches):
            out = branch.forward(x, projections[axes], valid, bn_training, update_stats, need_grad)
            total = out if total is None else total + out
        return x + factor * total

    def backward(self, dy):
        if self._skip:
            return dy
        dres = self._factor * dy
        dx = dy.copy()
        for branch in self.branches:
            dx += branch.backward(dres)
        return dx


class ChannelMixLayer:
    """Residual per-point MLP: x + scale * layerscale(MLP(BN(x)))."""

    def __init__(self, store, name, width, rng):
        self.bn = BatchNorm(store, f"{name}.bn", width)
        self.lin1 = PointwiseLinear(store, f"{name}.lin1", width, width, rng)
        self.lin2 = PointwiseLinear(store, f"{name}.lin2", width, width, rng)
        self.scale = LayerScale(store, f"{name}.layerscale", width)
        self._skip = None
        self._factor = 1.0
        self._relu_in = None

    def forward(self, x, valid, bn_training, update_stats, keep=True, factor=1.0, need_grad=True):
        self._skip = not keep
        self._factor = factor
        if not keep:
            return x
        xb = self.bn.forward(x, valid, bn_training, update_stats, need_grad)
        a1 = self.lin1.forward(xb, need_grad)
        self._relu_in = a1 if need_grad else None
        a2 = self.lin2.forward(relu(a1), need_grad)
        return x + factor * self.scale.forward(a2, need_grad)

    def backward(self, dy):
        if self._skip:
            return dy
        da2 = self.scale.backward(self._factor * dy)
        dr = self.lin2.backward(da2)
        da1 = relu_backward(dr, self._relu_in)
        dxb = self.lin1.backward(da1)
        return dy + self.bn.backward(dxb)


class WaffleIron:
    """The full network: embedding, mixing layers, linear classifier."""

    def __init__(self, config: WaffleIronConfig, rng: Optional[np.random.Generator] = None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.config = config
        self.store = ParamStore()
        self.embedding = EmbeddingLayer(self.store, "embed", config.in_channels, config.width, rng)
        self.layers: list[tuple[TokenMixLayer, ChannelMixLayer]] = []
        for i in range(config.depth):
            planes = plane_schedule(i, config.strategy)
            token = TokenMixLayer(self.store, f"layers.{i}.token", planes, config.width, rng)
            channel = ChannelMixLayer(self.store, f"layers.{i}.channel", config.width, rng)
            self.layers.append((token, channel))
        self.classifier = PointwiseLinear(self.store, "classifier", config.width, config.num_classes, rng)
        self._has_grad_cache = False

    # -- plumbing -------------------------------------------------------------

    def plane_specs(self) -> dict[tuple[int, int], PlaneSpec]:
        return {axes: self.config.plane_spec(axes) for axes in planes_used(self.config.strategy, self.config.depth)}

    def build_projections(self, positions: np.ndarray, valid: np.ndarray) -> dict[tuple[int, int], ProjectionPair]:
        return {
            axes: build_projection(positions, spec, valid)
            for axes, spec in self.plane_specs().items()
        }

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
        bn_training: Optional[bool] = None,
        update_stats: Optional[bool] = None,
        need_grad: Optional[bool] = None,
    ) -> np.ndarray:
        """Run the network on one cloud, returning K x N logits.

        ``training`` selects batch statistics and is the default of
        ``need_grad``, which makes every layer keep what a later
        :meth:`backward` needs; a forward without it keeps nothing.
        Stochastic depth engages whenever ``drop_rng`` is given and
        ``drop_prob > 0`` (also used by test-time augmentation); kept
        branches are scaled by ``1 / (1 - drop_prob)``.
        """
        if feats.shape[0] != self.config.in_channels:
            raise ValueError(
                f"expected {self.config.in_channels} input channels, got {feats.shape[0]}"
            )
        if bn_training is None:
            bn_training = training
        if update_stats is None:
            update_stats = bn_training
        if need_grad is None:
            need_grad = training
        p = self.config.drop_prob
        if training and p > 0.0 and drop_rng is None:
            raise ValueError("drop_prob > 0 requires drop_rng in training mode")
        dropping = drop_rng is not None and p > 0.0
        factor = 1.0 / (1.0 - p) if dropping else 1.0

        self._has_grad_cache = need_grad
        x = self.embedding.forward(feats, neighbors, valid, bn_training, update_stats, need_grad)
        for token, channel in self.layers:
            keep_t = (not dropping) or (drop_rng.random() >= p)
            x = token.forward(
                x, projections, valid, bn_training, update_stats, keep_t, factor if dropping else 1.0, need_grad
            )
            keep_c = (not dropping) or (drop_rng.random() >= p)
            x = channel.forward(x, valid, bn_training, update_stats, keep_c, factor if dropping else 1.0, need_grad)
        return self.classifier.forward(x, need_grad)

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients for the most recent forward pass."""
        if not self._has_grad_cache:
            raise RuntimeError("backward needs a forward that ran with need_grad")
        dx = self.classifier.backward(dlogits)
        for token, channel in reversed(self.layers):
            dx = channel.backward(dx)
            dx = token.backward(dx)
        self.embedding.backward(dx)


def param_count(config: WaffleIronConfig) -> int:
    """Number of trainable scalars in a network with this configuration."""
    return WaffleIron(config, np.random.default_rng(0)).store.num_trainable()


def prepare_inputs(model: WaffleIron, pc: PointCloud):
    """Neighbor lists and projections for a cropped cloud, ready for forward."""
    neighbors = knn(pc, model.config.k_neighbors)
    projections = model.build_projections(pc.positions, pc.valid)
    return pc.features.T.copy(), neighbors, projections, pc.valid
