"""Reference implementations that only the tests use.

Each oracle is written independently of the runtime path it checks:

* the CSR flatten/inflate kernel, built from the public ``cell_index``,
  ``valid`` and ``occupied_cells`` of a :class:`ProjectionPair` only;
* the central finite-difference gradient checker;
* the neighborhood max over point columns and its backward;
* the two-array ``np.where`` tie-break that ``slot_max`` replaced;
* batch-norm folding into the channel-mixing MLP;
* nearest-neighbor label propagation;
* the tiny-scene overfit harness.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from waffleiron.backbone import ChannelMixLayer, WaffleIronConfig, prepare_inputs
from waffleiron.geometry import Fov, PointCloud, crop_fov, nearest_indices, point_features
from waffleiron.nn import BN_EPS, BatchNorm, ParamStore, PointwiseLinear, relu, slot_max
from waffleiron.projection import ProjectionPair
from waffleiron.training import TrainConfig, _counted_mask, train_loop

# -- CSR flatten / inflate ------------------------------------------------------------


def csr_matrices(proj: ProjectionPair) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Inflate matrix S (N x |O|, one 1 per valid point) and S^T, columns in ``occupied_cells`` order."""
    slot = np.empty(proj.n_cells, dtype=np.int64)
    slot[proj.occupied_cells] = np.arange(proj.n_occupied)
    rows = np.flatnonzero(proj.valid)
    data = np.ones(rows.size, dtype=np.float64)
    s = sp.coo_matrix((data, (rows, slot[proj.cell_index[rows]])), shape=(proj.n_points, proj.n_occupied)).tocsr()
    s.sort_indices()
    st = s.T.tocsr()
    st.sort_indices()
    return s, st


def csr_flatten_sum(proj: ProjectionPair, features: np.ndarray) -> np.ndarray:
    """Per-cell float64 sums, F x |O|, as S^T F^T."""
    return (csr_matrices(proj)[1] @ features.T.astype(np.float64)).T


def csr_flatten(proj: ProjectionPair, features: np.ndarray) -> np.ndarray:
    """Per-cell means in the features' dtype, F x |O|."""
    return (csr_flatten_sum(proj, features) / proj.counts[proj.occupied_cells]).astype(features.dtype)


def csr_inflate(proj: ProjectionPair, rows: np.ndarray) -> np.ndarray:
    """Each cell's row copied to its points, F x N, as S R^T."""
    return (csr_matrices(proj)[0] @ rows.T.astype(np.float64)).T.astype(rows.dtype)


def kernel_equivalence(features: np.ndarray, proj: ProjectionPair) -> float:
    """Max absolute deviation between the gather kernel and the CSR oracle over flatten and inflate."""
    rows = proj.flatten(features)
    dev = float(np.abs(rows - csr_flatten(proj, features)).max()) if rows.size else 0.0
    inflated = proj.inflate(rows)
    if inflated.size:
        dev = max(dev, float(np.abs(inflated - csr_inflate(proj, rows)).max()))
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


def slot_max_where(values: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``slot_max`` as first written: the tie-break runs on every entry through two F x N x k arrays."""
    f, n, k = values.shape
    y = values.max(axis=2)
    tied = values == y[:, :, None]
    big = np.iinfo(np.int64).max
    nbr = neighbors[None, :, :]
    best_point = np.where(tied, nbr, big).min(axis=2)
    slot_ids = np.arange(k, dtype=np.int64)[None, None, :]
    slots = np.where(tied & (nbr == best_point[:, :, None]), slot_ids, k).min(axis=2)
    return y, slots


# -- batch-norm folding -------------------------------------------------------------------


def fold_bn_into_linear(bn: BatchNorm, lin: PointwiseLinear) -> tuple[np.ndarray, np.ndarray]:
    """Merge an eval-mode batch norm into the linear layer that follows it.

    Returns (W', b') with ``W' x + b' == W bn_eval(x) + b``, the standard
    inference-time fusion for the channel-mixing MLP.
    """
    inv = 1.0 / np.sqrt(bn.running_var.data.astype(np.float64) + BN_EPS)
    scale = bn.gamma.data.astype(np.float64) * inv
    shift = bn.beta.data.astype(np.float64) - bn.running_mean.data.astype(np.float64) * scale
    w = lin.w.data.astype(np.float64)
    wf = (w * scale[None, :]).astype(np.float32)
    bf = (lin.b.data.astype(np.float64) + w @ shift).astype(np.float32)
    return wf, bf


def channel_mix_folded_eval(layer: ChannelMixLayer, x: np.ndarray) -> np.ndarray:
    """Eval-mode channel mixing with the BN folded into the first linear."""
    wf, bf = fold_bn_into_linear(layer.bn, layer.lin1)
    a2 = layer.lin2.w.data @ relu(wf @ x + bf[:, None]) + layer.lin2.b.data[:, None]
    return x + layer.scale.diag.data[:, None] * a2


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


def overfit_harness_config(fov: Fov, drop_prob: float = 0.0) -> tuple[WaffleIronConfig, TrainConfig]:
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
    return model_cfg, train_cfg


def run_overfit_harness(out_dir: Optional[str] = None, seed: int = 0):
    """Train WaffleIron-3-32 on the z-band scene; returns model and accuracy.

    The returned accuracy is measured with an eval-mode forward pass over the
    training scene, scoring every valid non-ignore point.
    """
    scene, fov = synthetic_zband_scene()
    model_cfg, train_cfg = overfit_harness_config(fov)
    train_cfg.seed = seed
    model, optimizer, history = train_loop([scene], model_cfg, train_cfg, out_dir=out_dir)
    inside, _ = crop_fov(scene, fov)
    feats, neighbors, projections, valid = prepare_inputs(model, inside)
    logits = model.forward(feats, neighbors, projections, valid, training=False)
    counted = _counted_mask(inside.labels, valid)
    acc = float((logits.argmax(axis=0)[counted] == inside.labels[counted]).mean())
    return model, optimizer, history, acc
