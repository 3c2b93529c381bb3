"""Reference implementations that only the tests use.

Each oracle is written independently of the runtime path it checks:

* the CSR flatten/inflate kernel, built from the public ``cell_index``,
  ``valid`` and ``occupied_cells`` of a :class:`ProjectionPair` only. The
  runtime cell sums are a CSR product as well, so the bitwise reference for
  them is the ``np.add.at`` scatter-add oracle of ``test_projection.py``
  (``TestScatterAddOracle``), which shares no code or technique with them;
* the central finite-difference gradient checker;
* ReLU and its backward as new arrays;
* the batch-norm backward with its boolean-mask correction;
* the neighborhood max over point rows and its backward;
* the two-array ``np.where`` tie-break that ``slot_max`` replaced;
* the embedding with its local branch as one (N*k)-row MLP, and its backward;
* the unfused eval forward: batch norm by the running statistics and
  layerscale each as a pass of their own, as the layers ran them before
  the package folded both into the adjacent weights;
* the unfused training step, forward and backward: batch norm by the batch
  statistics, layerscale and the stochastic-depth factor each as a pass of
  their own, and the depthwise convolutions through the unblocked tap sum;
* nearest-neighbor label propagation, with a full search over every
  destination point;
* the depthwise-conv tap sum over all rows at once, without row blocks;
* voxel deduplication by ``np.unique`` over the quantized coordinates;
* neighbor ranking by one exhaustive lexsort over every point per query;
* the tiny-scene overfit harness.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from waffleiron.augment import AugmentConfig
from waffleiron.backbone import ChannelMixLayer, EmbeddingLayer, TokenMixLayer, WaffleIron, WaffleIronConfig, prepare_inputs
from waffleiron.dataio import RunConfig
from waffleiron.geometry import Fov, PointCloud, crop_fov, nearest_indices, point_features
from waffleiron.nn import BN_EPS, BatchNorm, ParamStore, slot_max
from waffleiron.projection import ProjectionPair
from waffleiron.training import TrainConfig, _counted_mask, segmentation_loss, train_loop

# -- CSR flatten / inflate ------------------------------------------------------------


def csr_matrices(proj: ProjectionPair) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Inflate matrix S (N x |O|, one 1 per valid point) and S^T, columns in ``occupied_cells`` order."""
    slot = np.empty(proj.plane.n_cells, dtype=np.int64)
    slot[proj.occupied_cells] = np.arange(proj.n_occupied)
    rows = np.flatnonzero(proj.valid)
    data = np.ones(rows.size, dtype=np.float64)
    s = sp.coo_matrix((data, (rows, slot[proj.cell_index[rows]])), shape=(proj.n_points, proj.n_occupied)).tocsr()
    s.sort_indices()
    st = s.T.tocsr()
    st.sort_indices()
    return s, st


def csr_flatten_sum(proj: ProjectionPair, features: np.ndarray) -> np.ndarray:
    """Per-cell float64 sums of N x F point rows, |O| x F, as S^T F."""
    return csr_matrices(proj)[1] @ features.astype(np.float64)


def csr_flatten(proj: ProjectionPair, features: np.ndarray) -> np.ndarray:
    """Per-cell means in the features' dtype, |O| x F."""
    return (csr_flatten_sum(proj, features) / proj.counts[proj.occupied_cells, None]).astype(features.dtype)


def csr_inflate(proj: ProjectionPair, rows: np.ndarray) -> np.ndarray:
    """Each cell's row of |O| x F ``rows`` copied to its points, N x F, as S R."""
    return (csr_matrices(proj)[0] @ rows.astype(np.float64)).astype(rows.dtype)


def kernel_equivalence(features: np.ndarray, proj: ProjectionPair) -> float:
    """Max absolute deviation between the gather kernel and the CSR oracle over flatten and inflate.

    The kernel's zero row counts as a deviation of its largest magnitude.
    """
    rows = proj.flatten(features)
    dev = float(np.abs(rows[-1]).max()) if rows.size else 0.0
    if rows.shape[0] > 1:
        dev = max(dev, float(np.abs(rows[:-1] - csr_flatten(proj, features)).max()))
    inflated = proj.inflate(rows)
    if inflated.size:
        dev = max(dev, float(np.abs(inflated - csr_inflate(proj, rows[:-1])).max()))
    return dev


# -- gradients and pooling --------------------------------------------------------------


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


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0)


def bn_backward_masked(bn: BatchNorm, dy: np.ndarray, cache=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``BatchNorm.backward`` as first written, from ``cache`` or else from ``bn``'s training forward, which it leaves.

    Every intermediate is a new array and the correction is subtracted
    through a boolean gather. Returns (dx, gamma gradient, beta gradient).
    """
    xhat, inv_std, valid, count = bn._cache if cache is None else cache
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * bn.gamma.data
    sum_dxhat = dxhat.sum(axis=0)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=0)
    dx = dxhat * inv_std
    corr = (sum_dxhat + xhat * sum_dxhat_xhat) * inv_std / count
    dx[valid] -= corr[valid]
    return dx, dgamma, dbeta


def neighborhood_max(x: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y[i] = channelwise max of the N x F rows of x listed in neighbors[i].

    Returns the pooled features and the selected source row per entry
    (ties toward the lower point index), which drives the backward routing.
    """
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.ndim != 2 or neighbors.shape[1] < 1:
        raise ValueError("neighbors must be N x k with k >= 1")
    if neighbors.min() < 0 or neighbors.max() >= x.shape[0]:
        raise ValueError("neighbor index out of range")
    gathered = x[neighbors]  # (N, k, F)
    y, slots = slot_max(gathered, neighbors)
    selected = np.take_along_axis(neighbors, slots, axis=1)
    return y, selected


def neighborhood_max_backward(dy: np.ndarray, selected: np.ndarray, n_points: int) -> np.ndarray:
    dx = np.zeros((n_points, dy.shape[1]), dtype=dy.dtype)
    cols = np.broadcast_to(np.arange(dy.shape[1])[None, :], dy.shape)
    np.add.at(dx, (selected, cols), dy)
    return dx


def slot_max_where(values: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``slot_max`` as first written: the tie-break runs on every entry through two N x k x F arrays."""
    n, k, f = values.shape
    y = values.max(axis=1)
    tied = values == y[:, None, :]
    big = np.iinfo(np.int64).max
    nbr = neighbors[:, :, None]
    best_point = np.where(tied, nbr, big).min(axis=1)
    slot_ids = np.arange(k, dtype=np.int64)[None, :, None]
    slots = np.where(tied & (nbr == best_point[:, None, :]), slot_ids, k).min(axis=1)
    return y, slots


def embedding_oneshot(emb: EmbeddingLayer, hb: np.ndarray, neighbors: np.ndarray, dy: Optional[np.ndarray] = None):
    """The embedding after its batch norm, with the local branch run as one (N*k)-row MLP.

    ``hb`` is the normalized N x C input. Returns the N x width tokens; with
    ``dy`` also the gradient with respect to ``hb`` and a name -> gradient map
    of the global, local and merge parameters.
    """
    n, k = neighbors.shape
    half = emb.half
    (wg, bg), (w1, b1), (w2, b2), (wm, bm) = (
        (lin.w.data, lin.b.data) for lin in (emb.global_lin, emb.local1, emb.local2, emb.merge)
    )
    diffs = (hb[neighbors] - hb[:, None, :]).reshape(n * k, -1)
    a1 = diffs @ w1.T + b1
    r = relu(a1)
    a2 = (r @ w2.T + b2).reshape(n, k, half)
    local, slots = slot_max(a2, neighbors)
    cat = np.concatenate([hb @ wg.T + bg, local], axis=1)
    tokens = cat @ wm.T + bm
    if dy is None:
        return tokens
    dcat = dy @ wm
    dg = dcat[:, :half]
    da2 = np.zeros((n, k, half), dtype=dcat.dtype)
    np.put_along_axis(da2, slots[:, None, :], dcat[:, None, half:], axis=1)
    da2 = da2.reshape(n * k, half)
    da1 = (da2 @ w2) * (a1 > 0)
    ddiff = (da1 @ w1).reshape(n, k, -1)
    dhb = dg @ wg
    np.add.at(dhb, neighbors, ddiff)
    dhb -= ddiff.sum(axis=1)
    grads = {
        "merge": (dy.T @ cat, dy.sum(axis=0)),
        "global": (dg.T @ hb, dg.sum(axis=0)),
        "local2": (da2.T @ r, da2.sum(axis=0)),
        "local1": (da1.T @ diffs, da1.sum(axis=0)),
    }
    return tokens, dhb, grads


# -- unfused eval --------------------------------------------------------------------------


def bn_eval(bn: BatchNorm, x: np.ndarray) -> np.ndarray:
    """Eval batch norm as a pass of its own: every row normalized by the running statistics, in ``x``'s dtype."""
    mean = bn.running_mean.data.astype(x.dtype)
    inv_std = 1.0 / np.sqrt(bn.running_var.data.astype(x.dtype) + BN_EPS)
    return (x - mean) * inv_std * bn.gamma.data + bn.beta.data


def embedding_eval(emb: EmbeddingLayer, feats: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    return embedding_oneshot(emb, bn_eval(emb.pre_bn, feats), neighbors)


def token_eval(layer: TokenMixLayer, x: np.ndarray, projections, factor: float = 1.0) -> np.ndarray:
    """``x + factor * sum over planes of layerscale(inflate(conv2(relu(conv1(flatten(BN(x)))))))``."""
    total = None
    for axes, br in zip(layer.planes, layer.branches):
        proj = projections[axes]
        r = relu(br.conv1.forward(proj.flatten(bn_eval(br.bn, x)), proj.d_from_o, training=False))
        out = br.layerscale.data * proj.inflate(br.conv2.forward(r, proj.o_from_d, training=False))
        total = out if total is None else total + out
    return x + factor * total


def channel_eval(layer: ChannelMixLayer, x: np.ndarray, factor: float = 1.0) -> np.ndarray:
    """``x + factor * layerscale(lin2(relu(lin1(BN(x)))))``."""
    r = relu(bn_eval(layer.bn, x) @ layer.lin1.w.data.T + layer.lin1.b.data)
    return x + factor * (layer.layerscale.data * (r @ layer.lin2.w.data.T + layer.lin2.b.data))


def unfused_eval(model: WaffleIron, feats, neighbors, projections, drop_rng=None) -> np.ndarray:
    """The K x N logits of ``model.forward(..., training=False, drop_rng=drop_rng)``, every layer unfused."""
    p = model.config.drop_prob
    dropping = drop_rng is not None and p > 0.0
    factor = 1.0 / (1.0 - p) if dropping else 1.0
    x = embedding_eval(model.embedding, feats, neighbors)
    for token, channel in model.layers:
        if not (dropping and drop_rng.random() < p):
            x = token_eval(token, x, projections, factor)
        if not (dropping and drop_rng.random() < p):
            x = channel_eval(channel, x, factor)
    return (x @ model.classifier.w.data.T + model.classifier.b.data).T


# -- unfused training -----------------------------------------------------------------------


def bn_train(bn: BatchNorm, x: np.ndarray, valid: np.ndarray):
    """Training batch norm as a pass of its own: ``gamma * xhat + beta`` and the cache ``bn_backward_masked`` reads."""
    xv = x[valid].astype(np.float64)
    mean = xv.mean(axis=0)
    var = np.maximum((xv * xv).mean(axis=0) - mean * mean, 0.0)
    inv_std = 1.0 / np.sqrt(var.astype(x.dtype) + BN_EPS)
    xhat = (x - mean.astype(x.dtype)) * inv_std
    return xhat * bn.gamma.data + bn.beta.data, (xhat, inv_std, valid, int(valid.sum()))


def conv_rows(conv, x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The depthwise conv of grid rows ``x`` read through ``taps``, unblocked and unfolded: taps from 0.0, bias last."""
    f = x.shape[1]
    y = tap_sum_unblocked(x, taps, range(9), conv.k.data.reshape(f, 9).astype(x.dtype))
    y[:-1] += conv.b.data
    return y


def conv_rows_backward(conv, x: np.ndarray, fwd_taps: np.ndarray, bwd_taps: np.ndarray, dy: np.ndarray):
    """(input gradient, kernel gradient, bias gradient) of :func:`conv_rows`."""
    f = x.shape[1]
    rows = dy[:-1]
    dk = np.stack([(rows * x[fwd_taps[:, t]]).sum(axis=0) for t in range(9)], axis=1).reshape(f, 3, 3)
    kern = conv.k.data.reshape(f, 9).astype(dy.dtype)
    return tap_sum_unblocked(dy, bwd_taps, range(8, -1, -1), kern), dk, rows.sum(axis=0)


def token_train(layer: TokenMixLayer, x, projections, valid, factor, add):
    """``x + factor * sum over planes of layerscale(inflate(conv2(relu(conv1(flatten(BN(x)))))))`` and its backward.

    The backward maps dy to dx and hands each parameter gradient to ``add(tensor, gradient)``.
    """
    total, saved = 0.0, []
    for axes, br in zip(layer.planes, layer.branches):
        proj = projections[axes]
        z, cache = bn_train(br.bn, x, valid)
        rows = proj.flatten(z)
        c1 = conv_rows(br.conv1, rows, proj.d_from_o)
        pts = proj.inflate(conv_rows(br.conv2, relu(c1), proj.o_from_d))
        total = total + br.layerscale.data * pts
        saved.append((br, proj, cache, rows, c1, pts))

    def backward(dy):
        dres, dx = factor * dy, dy
        for br, proj, cache, rows, c1, pts in saved:
            add(br.layerscale, (dres * pts).sum(axis=0))
            dc2 = proj.inflate_backward(br.layerscale.data * dres)
            dr, dk2, db2 = conv_rows_backward(br.conv2, relu(c1), proj.o_from_d, proj.d_from_o, dc2)
            drows, dk1, db1 = conv_rows_backward(br.conv1, rows, proj.d_from_o, proj.o_from_d, relu_backward(dr, c1))
            dxb, dgamma, dbeta = bn_backward_masked(br.bn, proj.flatten_backward(drows), cache)
            for tensor, grad in ((br.conv2.k, dk2), (br.conv2.b, db2), (br.conv1.k, dk1), (br.conv1.b, db1),
                                 (br.bn.gamma, dgamma), (br.bn.beta, dbeta)):
                add(tensor, grad)
            dx = dx + dxb
        return dx

    return x + factor * total, backward


def channel_train(layer: ChannelMixLayer, x, valid, factor, add):
    """``x + factor * layerscale(lin2(relu(lin1(BN(x)))))`` and its backward, as :func:`token_train`."""
    (w1, b1), (w2, b2) = ((lin.w.data, lin.b.data) for lin in (layer.lin1, layer.lin2))
    z, cache = bn_train(layer.bn, x, valid)
    a1 = z @ w1.T + b1
    a2 = relu(a1) @ w2.T + b2

    def backward(dy):
        dres = factor * dy
        da2 = layer.layerscale.data * dres
        da1 = relu_backward(da2 @ w2, a1)
        dxb, dgamma, dbeta = bn_backward_masked(layer.bn, da1 @ w1, cache)
        for tensor, grad in ((layer.layerscale, (dres * a2).sum(axis=0)),
                             (layer.lin2.w, da2.T @ relu(a1)), (layer.lin2.b, da2.sum(axis=0)),
                             (layer.lin1.w, da1.T @ z), (layer.lin1.b, da1.sum(axis=0)),
                             (layer.bn.gamma, dgamma), (layer.bn.beta, dbeta)):
            add(tensor, grad)
        return dy + dxb

    return x + factor * (layer.layerscale.data * a2), backward


def unfused_training(model: WaffleIron, feats, neighbors, projections, valid, labels, drop_rng=None):
    """Loss and name -> gradient of every trainable tensor for one training step, every layer unfused.

    The step is ``model.forward(..., training=True, drop_rng=drop_rng)``,
    :func:`segmentation_loss` and ``model.backward``, as the layers ran them
    before the package folded batch norm and layerscale into the adjacent
    weights. Backward runs in the forward's dtype from the classifier's
    input gradient on, as in the package. The model is left untouched,
    running statistics included; a dropped layer's tensors get zero gradients.
    """
    grads = {}

    def add(tensor, grad):
        grads[id(tensor)] = grads.get(id(tensor), 0.0) + grad

    p = model.config.drop_prob
    dropping = drop_rng is not None and p > 0.0
    factor = 1.0 / (1.0 - p) if dropping else 1.0
    emb = model.embedding
    hb, emb_cache = bn_train(emb.pre_bn, feats, valid)
    x = embedding_oneshot(emb, hb, neighbors)
    backwards = []
    for token, channel in model.layers:
        if not (dropping and drop_rng.random() < p):
            x, backward = token_train(token, x, projections, valid, factor, add)
            backwards.append(backward)
        if not (dropping and drop_rng.random() < p):
            x, backward = channel_train(channel, x, valid, factor, add)
            backwards.append(backward)
    cls = model.classifier
    loss, dlogits, _ = segmentation_loss((x @ cls.w.data.T + cls.b.data).T, labels, valid)
    dy = dlogits.T
    add(cls.w, dy.T @ x)
    add(cls.b, dy.sum(axis=0))
    dx = (dy @ cls.w.data).astype(x.dtype, copy=False)
    for backward in reversed(backwards):
        dx = backward(dx)
    _, dhb, emb_grads = embedding_oneshot(emb, hb, neighbors, dx)
    lins = {"merge": emb.merge, "global": emb.global_lin, "local1": emb.local1, "local2": emb.local2}
    for name, (dw, db) in emb_grads.items():
        add(lins[name].w, dw)
        add(lins[name].b, db)
    _, dgamma, dbeta = bn_backward_masked(emb.pre_bn, dhb, emb_cache)
    add(emb.pre_bn.gamma, dgamma)
    add(emb.pre_bn.beta, dbeta)
    return loss, {name: grads.get(id(t), np.zeros(t.shape)) for name, t in model.store.trainable_items()}


# -- label propagation ----------------------------------------------------------------------


def nn_propagate_labels(src: PointCloud, src_labels: np.ndarray, dst_points: np.ndarray) -> np.ndarray:
    """Give every dst point the label of its nearest valid src point."""
    src_labels = np.asarray(src_labels).reshape(-1)
    if src_labels.shape[0] != src.n_points:
        raise ValueError("labels must align with the source cloud")
    vidx = np.flatnonzero(src.valid)
    if vidx.size == 0:
        raise ValueError("empty cloud")
    nearest = nearest_indices(src.positions[vidx], dst_points)
    return src_labels[vidx[nearest]]


# -- geometry and conv kernels -------------------------------------------------------------


def tap_sum_unblocked(src: np.ndarray, taps: np.ndarray, columns, kern: np.ndarray) -> np.ndarray:
    """``nn._tap_sum`` with one N x F temporary over all rows, taps in the order of ``columns``, in ``src``'s dtype."""
    out = np.zeros((taps.shape[0] + 1, src.shape[1]), dtype=src.dtype)
    rows = out[:-1]
    tmp = np.empty(rows.shape, dtype=src.dtype)
    for t, c in enumerate(columns):
        np.take(src, taps[:, c], axis=0, out=tmp, mode="clip")
        np.multiply(kern[:, t], tmp, out=tmp)
        rows += tmp
    return out


def voxel_first_rows(positions: np.ndarray, voxel_size: float) -> np.ndarray:
    """Ascending index of the first row in each occupied voxel, by ``np.unique`` over the voxel coordinates."""
    quant = np.floor(np.asarray(positions, dtype=np.float32).astype(np.float64) / voxel_size).astype(np.int64)
    _, first = np.unique(quant, axis=0, return_index=True)
    return np.sort(first)


def ranked_neighbors_exhaustive(points: np.ndarray, queries: np.ndarray, k: int, own: np.ndarray) -> np.ndarray:
    """``geometry._ranked_neighbors`` from one lexsort by (squared distance, index) over every point per query.

    ``own[i]`` (-1 for none) is excluded; short rows repeat their farthest
    candidate, and a query without any lists ``own`` k times.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    diff = points[None, :, :] - queries[:, None, :]
    d2 = (diff * diff).sum(axis=-1)
    index = np.broadcast_to(np.arange(points.shape[0]), d2.shape)
    d2[index == own[:, None]] = np.inf
    ranked = np.lexsort((index, d2), axis=1)
    avail = np.isfinite(d2).sum(axis=1)
    out = np.take_along_axis(ranked, np.minimum(np.arange(k), np.maximum(avail - 1, 0)[:, None]), axis=1)
    out[avail == 0] = own[avail == 0, None]
    return out


# -- tiny-scene overfit harness -----------------------------------------------------------


def synthetic_zband_scene(
    n_points: int = 768,
    seed: int = 7,
    feature_mode: str = "5dim",
    fov: Optional[Fov] = None,
) -> tuple[PointCloud, Fov]:
    """Random scene whose three classes are separated by horizontal z-bands.

    Points are sampled in a vertical cylinder inscribed in the FOV, so any
    z-rotation or axis flip keeps the whole scene inside the crop range.
    """
    if fov is None:
        fov = Fov(np.array([-8.0, -8.0, -2.4]), np.array([8.0, 8.0, 2.4]))
    rng = np.random.default_rng(seed)
    margin = 0.05
    radius = min(np.min(-fov.min[:2]), np.min(fov.max[:2])) - margin
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n_points))
    phi = rng.uniform(0.0, 2.0 * np.pi, n_points)
    z = rng.uniform(fov.min[2] + margin, fov.max[2] - margin, n_points)
    positions = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    third = (fov.max[2] - fov.min[2]) / 3.0
    labels = np.digitize(z, [fov.min[2] + third, fov.min[2] + 2 * third]).astype(np.int32)
    intensity = rng.uniform(0.0, 1.0, n_points).astype(np.float32)
    feats = point_features(positions, intensity, feature_mode)
    return PointCloud(positions.astype(np.float32), feats, labels), fov


def overfit_harness_config(fov: Fov, drop_prob: float = 0.0) -> RunConfig:
    """WaffleIron-3-32 and its schedule, with every augmentation switched off."""
    model_cfg = WaffleIronConfig(
        depth=3,
        width=32,
        rho=0.8,
        fov=fov,
        k_neighbors=8,
        num_classes=3,
        drop_prob=drop_prob,
        strategy="baseline",
        input_feature_mode="5dim",
    )
    train_cfg = TrainConfig(
        epochs=200,
        batch_size=1,
        peak_lr=3e-3,
        final_lr=1e-5,
        weight_decay=0.003,
        warmup_epochs=10,
        n_points=768,
        seed=0,
    )
    return RunConfig(model_cfg, train_cfg, AugmentConfig(rotate=False, flip=False, scale=False))


def run_overfit_harness(out_dir: Optional[str] = None, seed: int = 0):
    """Train WaffleIron-3-32 on the z-band scene; returns model and accuracy.

    The returned accuracy is measured with an eval-mode forward pass over the
    training scene, scoring every valid non-ignore point.
    """
    scene, fov = synthetic_zband_scene()
    run_config = overfit_harness_config(fov)
    run_config.train.seed = seed
    model, optimizer, history = train_loop([scene], run_config, out_dir=out_dir)
    inside, _ = crop_fov(scene, fov)
    feats, neighbors, projections, valid = prepare_inputs(model, inside)
    logits = model.forward(feats, neighbors, projections, valid, training=False)
    counted = _counted_mask(inside.labels, valid)
    acc = float((logits.argmax(axis=0)[counted] == inside.labels[counted]).mean())
    return model, optimizer, history, acc
