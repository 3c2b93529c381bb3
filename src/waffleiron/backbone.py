"""End-to-end segmentation network: embedding, mixing layers, classifier.

Point tokens produced by the embedding layer are refined by ``depth`` pairs
of token-mixing and channel-mixing residual blocks and classified per point
by a single linear layer. Token mixing projects tokens onto a 2D plane,
runs a small depthwise-convolution FFN on the grid, and copies the result
back to the points; channel mixing is a per-point MLP. Both residual
branches carry a trainable layerscale; :class:`WaffleIron` drops whole
mixing layers stochastically. Training and eval run one data path: each
batch norm's map folds into what reads its input (``global``/``local1``,
the token flatten, ``lin1``) and the stochastic-depth factor times each
layerscale into ``conv2``/``lin2``, so both mixing layers add their branch
to ``x`` as it is; the modes differ only in the statistics they map by.

Layers keep nothing between calls (see :mod:`.nn`). From a training forward
to its backward, :class:`WaffleIron` runs the kept mixing layers in segments
of about the square root of their count and holds the contexts of the
embedding, the last segment and the classifier, and only the input of each
earlier segment; backward re-runs such a segment's forward from that input to
rebuild its contexts (a gradient checkpoint per segment, Chen et al. 2016)
and pops each context as that layer's backward runs.

Features and tokens are N x C and N x F blocks of point rows from the
embedding to the classifier; the logits are the K x N transpose of the
classifier's rows. The embedding's local branch, k pair rows per point,
runs in blocks of points and is never held whole: its context keeps only
the winning neighbor slot of each pooled entry, as the smallest unsigned
type holding ``k - 1``, and backward recomputes ``relu(local1)`` by block.

The point-wise layers run in blocks of rows (:func:`nn.row_blocks`): the
channel layer runs ``lin1`` -> ReLU -> ``lin2`` -> residual per block through
block buffers in both modes, and the embedding writes its global and local
halves and ``merge``'s output per block. ``merge``'s input, which backward
reads, goes into one N x width array of the context in training and into one
block buffer at eval. Both mixing layers write ``x + branch`` one row block at
a time into an ``out`` array: at eval :class:`WaffleIron` hands each layer the
token array that the embedding made, so an eval forward holds one N x F token
array, the features and block buffers. In training (and in backward's re-runs)
each layer writes a fresh array, and a training context holds two N x F
arrays per mixing pair: the token and the channel layer's inputs. The channel
layer's backward rebuilds the ReLU rows from its input by the same blocks and
folded weights, bit for bit (a per-layer gradient checkpoint, Chen et al.
2016), and masks its gradient by block.

The token branch applies its hidden ReLU in place to the fresh output of
``conv1``, so its training context holds that one array as both ``conv2``'s
input and the ReLU mask, and backward masks the fresh gradient in place. The
branch returns ``conv2``'s grid rows; the layer inflates them a row block at
a time (:meth:`ProjectionPair.inflate` over a row range) once every branch has
read ``x``. The backward's ``dy + branch gradient`` goes into the branch
gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Fov, PointCloud, knn
from .nn import (
    LAYERSCALE_INIT,
    BatchNorm,
    DepthwiseConv3x3,
    ParamStore,
    PointwiseLinear,
    affine_rows,
    fold,
    fold_adjoint,
    row_blocks,
    slot_max,
)
from .projection import (
    STRATEGIES,
    PlaneSpec,
    ProjectionPair,
    build_projection,
    plane_schedule,
)

# Points per block of the embedding's local branch: 256 points at k = 16 make
# 4096 pair rows, whose half-width activations fit in cache. As with row
# blocks, a shorter rest joins the last block.
_LOCAL_BLOCK = 256

# Per-point input feature layouts: column count for each mode.
FEATURE_DIMS = {"3dim": 3, "5dim": 5}


def point_features(positions: np.ndarray, intensity: np.ndarray, mode: str) -> np.ndarray:
    """The N x C input feature matrix of one cloud.

    ``3dim`` is (intensity, z, range); ``5dim`` is (intensity, x, y, z, range)
    with range the Euclidean norm of the position. Each row depends only on
    its own point, so the features of a subset are that subset's rows.
    """
    pos = np.asarray(positions, dtype=np.float32)
    inten = np.asarray(intensity, dtype=np.float32).reshape(-1)
    rng = np.linalg.norm(pos.astype(np.float64), axis=1).astype(np.float32)
    if mode == "3dim":
        return np.stack([inten, pos[:, 2], rng], axis=1)
    return np.concatenate([inten[:, None], pos, rng[:, None]], axis=1)


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
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
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

    The local branch runs in blocks of ``_LOCAL_BLOCK`` points within each
    row block, in both modes, so its k rows per point never exist for the
    whole cloud at once. Both add ``local2``'s bias after the max, which
    pools the same values as the biased rows (rounding ``a + b`` is monotonic
    in ``a``). A training context keeps only the features, the neighbor list,
    ``local1``'s weight with the scale, the winning slot of every pooled entry
    and the contexts of ``pre_bn``, ``global`` and ``merge``; :meth:`backward`
    walks the cloud's blocks (the same ones while ``_ROW_BLOCK`` is a multiple
    of ``_LOCAL_BLOCK``), recomputes the differences and ``relu(local1)`` and
    routes the gradient through the kept slots, so ``local2`` is not re-run.
    """

    def __init__(self, store: ParamStore, name: str, in_dim: int, width: int, rng: Optional[np.random.Generator]):
        half = width // 2
        self.half = half
        self.pre_bn = BatchNorm(store, f"{name}.pre_bn", in_dim)
        self.global_lin = PointwiseLinear(store, f"{name}.global", in_dim, half, rng)
        self.local1 = PointwiseLinear(store, f"{name}.local1", in_dim, half, rng)
        self.local2 = PointwiseLinear(store, f"{name}.local2", half, half, rng)
        self.merge = PointwiseLinear(store, f"{name}.merge", width, width, rng)

    def forward(self, feats, neighbors, training):
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if neighbors.ndim != 2 or neighbors.shape[0] != feats.shape[0]:
            raise ValueError("neighbor list must be N x k aligned with the points")
        n, k = neighbors.shape
        blocks = row_blocks(n)
        (scale, shift), bn_ctx = self.pre_bn.forward(feats, training)
        w1 = fold(self.local1.w.data, self.local1.b.data, feats.dtype, scale)[0]
        (wg, bg), global_ctx = self.global_lin.folded(feats, training, (scale, shift))
        # merge's input rows, [global | local]: kept whole for backward in training, one block at eval
        cat = np.empty((n if training else n - blocks[-1][0], 2 * self.half), dtype=feats.dtype)
        (wm, bm), merge_ctx = self.merge.folded(cat, training)
        slots = np.empty((n, self.half), dtype=np.min_scalar_type(k - 1)) if training else None
        y = np.empty((n, wm.shape[0]), dtype=feats.dtype)
        for lo, hi in blocks:
            rows = cat[lo:hi] if training else cat[: hi - lo]
            affine_rows(feats[lo:hi], wg, bg, rows[:, : self.half])
            local = rows[:, self.half :]
            for start, stop, _, r in self._pair_blocks(feats, neighbors, w1, lo, hi):
                a2 = (r @ self.local2.w.data.T).reshape(stop - start, k, self.half)
                if training:
                    local[start - lo : stop - lo], slots[start:stop] = slot_max(a2, neighbors[start:stop])
                else:
                    a2.max(axis=1, out=local[start - lo : stop - lo])
            local += self.local2.b.data
            affine_rows(rows, wm, bm, y[lo:hi])
        return y, ((feats, neighbors, slots, scale, w1, bn_ctx, global_ctx, merge_ctx) if training else None)

    def _pair_blocks(self, x, neighbors, w1, lo, hi):
        """Per block of points in ``lo:hi``: its range, the (rows*k) x C differences and ``relu(local1)`` of them."""
        k = neighbors.shape[1]
        for start, stop in row_blocks(hi - lo, _LOCAL_BLOCK):
            start, stop = lo + start, lo + stop
            d = (x[neighbors[start:stop]] - x[start:stop, None, :]).reshape((stop - start) * k, -1)
            r = d @ w1.T
            r += self.local1.b.data
            np.maximum(r, 0, out=r)
            yield start, stop, d, r

    def backward(self, dy, ctx):
        x, neighbors, slots, scale, w1, bn_ctx, global_ctx = ctx[:-1]
        n, k = neighbors.shape
        dcat = self.merge.backward(dy, ctx[-1])
        del ctx  # merge's N x width input is not held through the local blocks
        dlocal = dcat[:, self.half :]
        # gradients with respect to the batch norm's output, whose differences local1 reads
        dhb = self.global_lin.backward(np.ascontiguousarray(dcat[:, : self.half]), global_ctx)
        w2 = self.local2.w.data
        dw1 = np.zeros(w1.shape, dtype=dy.dtype)
        dw2 = np.zeros(w2.shape, dtype=dy.dtype)
        db1 = np.zeros(self.half, dtype=dy.dtype)
        db2 = np.zeros(self.half, dtype=dy.dtype)
        # one buffer, zeroed per block, routes the pooled gradient to the
        # winning slots; every pooled entry has exactly one slot, so local2's
        # bias gradient is the block sum of the pooled gradient
        last = row_blocks(n, _LOCAL_BLOCK)[-1]
        da2 = np.empty((last[1] - last[0], k, self.half), dtype=dy.dtype)
        ddiff = np.empty((n, k, x.shape[1]), dtype=dhb.dtype)
        for start, stop, d, r in self._pair_blocks(x, neighbors, w1, 0, n):
            block = da2[: stop - start]
            block.fill(0)
            np.put_along_axis(block, slots[start:stop, None, :], dlocal[start:stop, None], axis=1)
            rows = block.reshape(-1, self.half)
            dw2 += rows.T @ r
            db2 += dlocal[start:stop].sum(axis=0)
            da1 = rows @ w2
            da1 *= r > 0
            dw1 += da1.T @ d
            db1 += da1.sum(axis=0)
            ddiff[start:stop] = (da1 @ self.local1.w.data).reshape(stop - start, k, -1)
        # each point's row gathers the differences that read it, once for the cloud
        for c in range(x.shape[1]):
            dhb[:, c] += np.bincount(neighbors.reshape(-1), ddiff[:, :, c].reshape(-1), minlength=n)
        dw1, db1, _ = fold_adjoint(self.local1.w.data, self.local1.b.data, dw1, db1, scale)
        self.local1.w.grad += dw1
        self.local1.b.grad += db1
        self.local2.w.grad += dw2
        self.local2.b.grad += db2
        dhb -= ddiff.sum(axis=1)
        return self.pre_bn.backward(dhb, bn_ctx)


class _TokenMixBranch:
    """One plane's BN -> flatten -> conv FFN -> layerscale chain, times ``factor``: conv2's grid rows.

    The flatten maps the cell means by BN's map, so empty cells stay padding, not BN(0). The layer inflates the
    returned rows to the points.
    """

    def __init__(self, store, name, width, rng):
        self.bn = BatchNorm(store, f"{name}.bn", width)
        self.conv1 = DepthwiseConv3x3(store, f"{name}.conv1", width, rng)
        self.conv2 = DepthwiseConv3x3(store, f"{name}.conv2", width, rng)
        self.layerscale = store.register(f"{name}.layerscale.diag", np.full(width, LAYERSCALE_INIT, dtype=np.float32))

    def forward(self, x, proj: ProjectionPair, training, factor):
        bn_map, bn_ctx = self.bn.forward(x, training)
        # each conv's context is its arguments
        args1 = (proj.flatten(x, bn_map), proj.d_from_o, None, 1.0)
        r = self.conv1.forward(*args1)
        np.maximum(r, 0, out=r)
        args2 = (r, proj.o_from_d, self.layerscale, factor)
        ctx = (proj, bn_ctx, args1, args2) if training else None
        del args1, r  # at eval nothing else holds conv1's input while conv2 runs
        return self.conv2.forward(*args2), ctx

    def backward(self, dy, ctx):
        proj, bn_ctx, ctx1, ctx2 = ctx
        dr = self.conv2.backward(proj.inflate_backward(dy), proj.d_from_o, ctx2)
        dr *= ctx2[0] > 0  # conv2's input is the ReLU output
        return self.bn.backward(proj.flatten_backward(self.conv1.backward(dr, proj.o_from_d, ctx1)), bn_ctx)


class TokenMixLayer:
    """Residual token mixing: x + factor * sum of per-plane branches.

    Every branch reads ``x`` and returns its grid rows first; then each row block of the output is written once,
    as the planes' inflated rows summed in plane order plus ``x`` last, ``((p0 + p1) + p2) + x``, through one block
    buffer (two with several planes). The output is ``out`` if given, which may be ``x`` itself, else a fresh array.
    """

    def __init__(self, store, name, planes, width, rng):
        self.planes = tuple(planes)
        self.branches = [
            _TokenMixBranch(store, f"{name}.plane_{a0}{a1}", width, rng) for a0, a1 in self.planes
        ]

    def forward(self, x, projections, training, factor=1.0, out=None):
        grids, ctx = [], []
        for axes, branch in zip(self.planes, self.branches):
            rows, branch_ctx = branch.forward(x, projections[axes], training, factor)
            grids.append((projections[axes], rows))
            ctx.append(branch_ctx)
        y = np.empty_like(x) if out is None else out
        blocks = row_blocks(x.shape[0])
        total = np.empty((x.shape[0] - blocks[-1][0], x.shape[1]), dtype=x.dtype)
        plane = np.empty_like(total) if len(grids) > 1 else None
        for lo, hi in blocks:
            proj, rows = grids[0]
            block = proj.inflate(rows, lo, hi, total[: hi - lo])
            for proj, rows in grids[1:]:
                np.add(block, proj.inflate(rows, lo, hi, plane[: hi - lo]), out=block)
            np.add(block, x[lo:hi], out=y[lo:hi])
        return y, (ctx if training else None)

    def backward(self, dy, ctx):
        dx = None
        for branch, branch_ctx in zip(self.branches, ctx):
            grad = branch.backward(dy, branch_ctx)
            dx = np.add(grad, dy, out=grad) if dx is None else np.add(dx, grad, out=dx)
        return dx


class ChannelMixLayer:
    """Residual per-point MLP: x + factor * layerscale(MLP(BN(x))), as x + relu(x W1'^T + b1') W2'^T + b2'.

    Both modes fill the ReLU rows a row block at a time. A training context keeps the input, which BN's and
    ``lin1``'s contexts share, the folded ``(W1', b1')`` and ``lin2``'s context without its input; backward
    rebuilds the rows whole by the same blocks, one more N x F x F product, and frees them once read.

    ``lin2`` writes each block into the fresh output, or, given ``out`` (which may be ``x`` itself), into a
    second block buffer; the block of ``x`` is added after it either way.
    """

    def __init__(self, store, name, width, rng):
        self.bn = BatchNorm(store, f"{name}.bn", width)
        self.lin1 = PointwiseLinear(store, f"{name}.lin1", width, width, rng)
        self.lin2 = PointwiseLinear(store, f"{name}.lin2", width, width, rng)
        self.layerscale = store.register(f"{name}.layerscale.diag", np.full(width, LAYERSCALE_INIT, dtype=np.float32))

    def forward(self, x, training, factor=1.0, out=None):
        n, f = x.shape
        blocks = row_blocks(n)
        bn_map, bn_ctx = self.bn.forward(x, training)
        (w1, b1), ctx1 = self.lin1.folded(x, training, bn_map)
        # the ReLU output, lin2's input: one block in both modes, which backward rebuilds whole
        r = np.empty((n - blocks[-1][0], f), dtype=x.dtype)
        (w2, b2), ctx2 = self.lin2.folded(r, training, None, self.layerscale, factor)
        y = np.empty_like(x) if out is None else out
        branch = None if out is None else np.empty_like(r)
        for lo, hi in blocks:
            h = self._relu_rows(x[lo:hi], w1, b1, r[: hi - lo])
            rows = affine_rows(h, w2, b2, y[lo:hi] if branch is None else branch[: hi - lo])
            np.add(rows, x[lo:hi], out=y[lo:hi])
        return y, ((bn_ctx, ctx1, (w1, b1), ctx2[1:]) if training else None)

    @staticmethod
    def _relu_rows(x, w1, b1, out):
        return np.maximum(affine_rows(x, w1, b1, out), 0, out=out)

    def backward(self, dy, ctx):
        bn_ctx, ctx1, (w1, b1), ctx2 = ctx
        x = ctx1[0]
        blocks = row_blocks(x.shape[0])
        r = np.empty(x.shape, dtype=x.dtype)
        for lo, hi in blocks:
            self._relu_rows(x[lo:hi], w1, b1, r[lo:hi])
        dr = self.lin2.backward(dy, (r, *ctx2))
        for lo, hi in blocks:  # lin2's input is the ReLU output
            np.multiply(dr[lo:hi], r[lo:hi] > 0, out=dr[lo:hi])
        del r
        dh = self.lin1.backward(dr, ctx1)
        del dr
        dx = self.bn.backward(dh, bn_ctx)
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
        # the running statistics, which a segment's re-run in backward moves again
        self._running = [t for _, t in self.store.items() if not t.trainable]
        self._contexts = None

    # -- plumbing -------------------------------------------------------------

    def build_projections(self, positions: np.ndarray) -> dict[tuple[int, int], ProjectionPair]:
        return {axes: build_projection(positions, spec) for axes, spec in self._planes.items()}

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
        """Run the network on the N x C features of a cloud, returning K x N logits.

        ``valid`` is the all-True mask :func:`prepare_inputs` returns: one
        entry per feature row, every row a real point. Anything else raises.

        Two modes over one data path, in which every batch norm's map and
        layerscale folds into the adjacent weights. A training forward maps
        by batch statistics and updates the running statistics. It runs the
        L kept mixing layers in segments of s = ceil(sqrt(L)), counted from
        the output, and keeps for :meth:`backward` the embedding's and the
        classifier's contexts, the last segment's contexts and only the input
        of each earlier segment. An eval forward maps by the running
        statistics, keeps nothing and has every mixing layer write its output
        over the one token array that the embedding made; ``feats`` is never
        written. By equal statistics both give the same logits bit for bit.

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
        if np.shape(valid) != (feats.shape[0],) or not np.all(valid):
            raise ValueError(f"valid must be all True with one entry per feature row ({feats.shape[0]})")
        p = self.config.drop_prob
        if training and p > 0.0 and drop_rng is None:
            raise ValueError("drop_prob > 0 requires drop_rng in training mode")
        dropping = drop_rng is not None and p > 0.0
        factor = 1.0 / (1.0 - p) if dropping else 1.0

        x, ctx = self.embedding.forward(feats, neighbors, training)
        head = [(self.embedding, ctx)]
        # every draw first, in layer order; a token layer's forward also takes the projections
        kept = [
            (layer, args)
            for token, channel in self.layers
            for layer, args in ((token, (projections,)), (channel, ()))
            if not (dropping and drop_rng.random() < p)
        ]
        # segments of s = ceil(sqrt(L)) kept layers counted from the output, so the short rest comes first
        s = math.isqrt(len(kept) - 1) + 1 if kept else 1
        starts = [0, *range(len(kept) % s or s, len(kept), s)]
        segments, contexts = [], []
        for lo, hi in zip(starts, starts[1:] + [len(kept)]):
            last = hi == len(kept)
            if training and not last:
                segments.append((x, kept[lo:hi]))
            for layer, args in kept[lo:hi]:
                # at eval every layer writes its output over its input, the embedding's fresh tokens
                x, ctx = layer.forward(x, *args, training, factor, out=None if training else x)
                if training and last:
                    contexts.append((layer, ctx))
                del ctx  # an earlier segment's contexts are rebuilt in backward
        logits, ctx = self.classifier.forward(x, training)
        self._contexts = (head, segments, factor, contexts + [(self.classifier, ctx)]) if training else None
        return logits.T

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients for the most recent forward pass from K x N ``dlogits``.

        The classifier and the last segment backpropagate through their kept contexts. Each earlier segment,
        from the end, re-runs its training forward from its kept input and backpropagates through the rebuilt
        contexts, which are bit for bit those of the first forward. The re-runs move the running statistics
        again, so they are restored to what the forward left.
        """
        if self._contexts is None:
            raise RuntimeError("backward needs a training forward")
        (head, segments, factor, contexts), self._contexts = self._contexts, None
        running = [t.data.copy() for t in self._running]
        dx = _backprop(contexts, dlogits.T)
        while segments:
            x, layers = segments.pop()
            for layer, args in layers:
                x, ctx = layer.forward(x, *args, True, factor)
                contexts.append((layer, ctx))
            del x, ctx
            dx = _backprop(contexts, dx)
        for t, data in zip(self._running, running):
            t.data[...] = data
        _backprop(head, dx)


def _backprop(contexts: list, dx: np.ndarray) -> np.ndarray:
    """``dx`` through the ``(layer, context)`` list from its end, which it empties; a popped context is held only
    by its layer's backward."""
    while contexts:
        dx = contexts[-1][0].backward(dx, contexts.pop()[1])
    return dx


def param_count(config: WaffleIronConfig) -> int:
    """Number of trainable scalars in a network with this configuration."""
    return WaffleIron(config, None).store.num_trainable()


def prepare_inputs(model: WaffleIron, pc: PointCloud):
    """Input features, neighbor lists and projections of a cropped cloud, and its all-True ``valid``, for forward."""
    feats = point_features(pc.positions, pc.intensity, model.config.input_feature_mode)
    neighbors = knn(pc, model.config.k_neighbors)
    projections = model.build_projections(pc.positions)
    return feats, neighbors, projections, pc.valid
