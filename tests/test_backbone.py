"""Embedding, mixing layers and the assembled network."""

import numpy as np
import pytest

from waffleiron.backbone import (
    ChannelMixLayer,
    EmbeddingLayer,
    TokenMixLayer,
    WaffleIron,
    WaffleIronConfig,
    param_count,
    prepare_inputs,
)
from waffleiron.geometry import Fov
from waffleiron.nn import ParamStore, relu, relu_backward
from waffleiron.projection import PlaneSpec, build_projection
from waffleiron.training import segmentation_loss

from conftest import random_cloud
from oracles import channel_mix_folded_eval, fold_bn_into_linear, grad_check
from test_nn import per_tap_backward, per_tap_forward
from test_projection import bitwise_equal, occupied_columns, scatter_rows


def tiny_config(fov, depth=3, width=8, classes=3, k=4, drop=0.0, strategy="baseline"):
    return WaffleIronConfig(
        depth=depth,
        width=width,
        rho=0.8,
        fov=fov,
        k_neighbors=k,
        num_classes=classes,
        drop_prob=drop,
        strategy=strategy,
        input_feature_mode="5dim",
    )


def build_scene(fov, n=60, seed=0, classes=3):
    rng = np.random.default_rng(seed)
    return random_cloud(rng, n, fov, n_classes=classes)


class TestConfig:
    def test_depth_multiple_of_three_for_cyclic(self, small_fov):
        with pytest.raises(ValueError):
            tiny_config(small_fov, depth=4)
        tiny_config(small_fov, depth=4, strategy="bev")
        tiny_config(small_fov, depth=4, strategy="parallel")

    def test_width_must_be_even(self, small_fov):
        with pytest.raises(ValueError):
            tiny_config(small_fov, width=7)

    def test_drop_prob_range(self, small_fov):
        with pytest.raises(ValueError):
            tiny_config(small_fov, drop=1.0)


class TestEmbedding:
    def test_identical_features_give_identical_tokens(self, small_fov):
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 8, np.random.default_rng(0))
        n = 12
        feats = np.tile(np.array([[0.3], [1.0], [-1.0], [0.5], [2.0]], dtype=np.float32), n)
        nbr = np.random.default_rng(1).integers(0, n, size=(n, 3))
        valid = np.ones(n, dtype=bool)
        tokens = emb.forward(feats, nbr, valid, bn_training=False, update_stats=False)
        assert tokens.shape == (8, n)
        assert np.abs(tokens - tokens[:, :1]).max() == 0
        # the local branch reduces to the MLP at zero
        hb = emb.pre_bn.forward(feats, valid, training=False)
        mlp0 = emb.local2.w.data @ relu(emb.local1.b.data)[:, None] + emb.local2.b.data[:, None]
        g = emb.global_lin.w.data @ hb[:, :1] + emb.global_lin.b.data[:, None]
        want = emb.merge.w.data @ np.concatenate([g, np.broadcast_to(mlp0, (4, 1))]) + emb.merge.b.data[:, None]
        np.testing.assert_allclose(tokens[:, :1], want, atol=1e-6)

    def test_output_shape(self, small_fov):
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 16, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((5, 40)).astype(np.float32)
        nbr = rng.integers(0, 40, size=(40, 6))
        out = emb.forward(feats, nbr, np.ones(40, dtype=bool), True, False)
        assert out.shape == (16, 40)

    def test_permutation_equivariance(self):
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 8, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        n = 30
        feats = rng.standard_normal((5, n)).astype(np.float32)
        nbr = rng.integers(0, n, size=(n, 4))
        valid = np.ones(n, dtype=bool)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        nbr_p = inv[nbr[perm]]
        # eval statistics make the map exactly equivariant; train-mode batch
        # statistics agree only up to accumulation rounding
        base = emb.forward(feats, nbr, valid, False, False)
        out = emb.forward(feats[:, perm], nbr_p, valid, False, False)
        np.testing.assert_array_equal(out, base[:, perm])
        base_t = emb.forward(feats, nbr, valid, True, False)
        out_t = emb.forward(feats[:, perm], nbr_p, valid, True, False)
        np.testing.assert_allclose(out_t, base_t[:, perm], atol=1e-5)

    def test_nograd_path_matches(self):
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 8, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((5, 25)).astype(np.float32)
        nbr = rng.integers(0, 25, size=(25, 3))
        valid = np.ones(25, dtype=bool)
        a = emb.forward(feats, nbr, valid, False, False, need_grad=True)
        b = emb.forward(feats, nbr, valid, False, False, need_grad=False)
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestTokenMix:
    def _layer_and_inputs(self, fov, seed=0, width=6, n=40):
        cfg = tiny_config(fov, depth=3, width=width)
        store = ParamStore()
        layer = TokenMixLayer(store, "tm", ((0, 1),), width, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        pc = random_cloud(rng, n, fov)
        model_like = WaffleIron(cfg, np.random.default_rng(0))
        projections = model_like.build_projections(pc.positions, pc.valid)
        x = rng.standard_normal((width, n)).astype(np.float32)
        return layer, x, projections, pc.valid

    def test_zero_layerscale_is_identity(self, small_fov):
        layer, x, proj, valid = self._layer_and_inputs(small_fov)
        layer.branches[0].scale.diag.data[...] = 0.0
        out = layer.forward(x, proj, valid, False, False)
        np.testing.assert_array_equal(out, x)

    def test_identity_ffn_passes_normalized_tokens(self, small_fov):
        fov = Fov(np.zeros(3), np.ones(3) * 4)
        cfg = tiny_config(fov, width=4)
        store = ParamStore()
        layer = TokenMixLayer(store, "tm", ((0, 1),), 4, np.random.default_rng(1))
        br = layer.branches[0]
        for conv in (br.conv1, br.conv2):
            conv.k.data[...] = 0.0
            conv.k.data[:, 1, 1] = 1.0
            conv.b.data[...] = 0.0
        br.scale.diag.data[...] = 1.0
        model_like = WaffleIron(cfg, np.random.default_rng(0))
        pos = np.array([[1.3, 2.1, 0.5]], dtype=np.float32)
        projections = model_like.build_projections(pos, np.ones(1, dtype=bool))
        # positive tokens so the FFN's hidden ReLU is transparent
        x = np.abs(np.random.default_rng(2).standard_normal((4, 1))).astype(np.float32)
        out = layer.forward(x, projections, np.ones(1, dtype=bool), False, False)
        want = x + br.bn.forward(x, np.ones(1, dtype=bool), False, False)
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_matches_naive_recomposition_bitwise(self, small_fov):
        layer, x, projections, valid = self._layer_and_inputs(small_fov, seed=3)
        out = layer.forward(x, projections, valid, False, False)
        br = layer.branches[0]
        xb = br.bn.forward(x, valid, False, False)
        pts, _ = dense_branch(br, projections[(0, 1)], xb)
        want = x + br.scale.diag.data[:, None] * pts
        np.testing.assert_array_equal(out, want)

    def test_skip_branch(self, small_fov):
        layer, x, proj, valid = self._layer_and_inputs(small_fov, seed=4)
        out = layer.forward(x, proj, valid, False, False, keep=False)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(layer.backward(x), x)


def dense_branch(br, proj, xb):
    """The conv FFN of one token-mixing branch on the whole zero-padded grid, with the tests' dense conv.

    Returns the inflated F x N output and a function from its gradient to
    (gradient of ``xb``, dense grid gradient rows of O, conv parameter gradients).
    """
    f = xb.shape[0]
    h, w = proj.plane.grid_shape
    grid = scatter_rows(proj, proj.flatten(xb)).reshape(f, h, w)
    c1 = per_tap_forward(grid, br.conv1.k.data, br.conv1.b.data)
    r = relu(c1)
    c2 = per_tap_forward(r, br.conv2.k.data, br.conv2.b.data)
    out = proj.inflate(occupied_columns(proj, c2.reshape(f, h * w)))

    def backward(dout):
        dc2 = scatter_rows(proj, proj.inflate_backward(dout)).reshape(f, h, w)
        dr, dk2, db2 = per_tap_backward(r, dc2, br.conv2.k.data)
        dgrid, dk1, db1 = per_tap_backward(grid, relu_backward(dr, c1), br.conv1.k.data)
        drows = occupied_columns(proj, dgrid.reshape(f, h * w))
        return proj.flatten_backward(drows), drows, (dk1, db1, dk2, db2)

    return out, backward


def dense_token_layer(layer, x, projections, valid, dy):
    """Eval-mode ``TokenMixLayer`` forward and backward with every branch on the dense grid."""
    total, dx, drows, grads = None, dy.copy(), [], []
    for axes, br in zip(layer.planes, layer.branches):
        out, backward = dense_branch(br, projections[axes], br.bn.forward(x, valid, False, False))
        out = br.scale.forward(out)
        total = out if total is None else total + out
        dxb, rows, g = backward(br.scale.backward(dy))
        dx += br.bn.backward(dxb)
        drows.append(rows)
        grads.append(g)
    return x + 1.0 * total, dx, drows, grads


def promote_to_float64(store):
    for _, t in store.items():
        t.data = t.data.astype(np.float64)
        if t.grad is not None:
            t.grad = np.zeros_like(t.data)


def box_fov(shape):
    return Fov(np.zeros(3), np.array(shape, dtype=np.float64))


def lidar_like_cloud(rng, n_beams=8, n_azimuth=180):
    """Ground rings of a sensor 1.73 m up (~1/r density) and two poles, inside the KITTI FOV."""
    elevation = np.deg2rad(np.linspace(-25.0, -5.0, n_beams))
    azimuth = np.linspace(0.0, 2 * np.pi, n_azimuth, endpoint=False)
    r = (1.73 / np.tan(-elevation))[:, None] * (1 + 0.02 * rng.standard_normal((n_beams, n_azimuth)))
    ground = np.stack(
        [r * np.cos(azimuth), r * np.sin(azimuth), -1.73 + 0.05 * rng.standard_normal(r.shape)], axis=-1
    ).reshape(-1, 3)
    z = np.linspace(-1.7, 1.9, 40)
    poles = [np.stack([np.full_like(z, px), np.full_like(z, py), z], 1) for px, py in ((7.3, -2.1), (-12.6, 9.4))]
    return np.concatenate([ground, *poles])


class TestActiveCellBranch:
    """Token mixing on the rows of O and D equals the dense zero-padded grid conv bit for bit."""

    def scenes(self, kitti_fov):
        """(name, fov, rho, positions, valid) of each case; every case runs all three planes."""
        rng = np.random.default_rng(40)
        fov = box_fov((5.0, 6.0, 4.0))
        corners = np.array([[a, b, c] for a in (0.1, 4.9) for b in (0.1, 5.9) for c in (0.1, 3.9)])
        edges = (corners[:, None, :] + corners[None, :, :]).reshape(-1, 3) / 2
        pts = np.concatenate([corners, edges, rng.uniform(0.2, 3.8, (6, 3))])
        valid = np.ones(len(pts), dtype=bool)
        valid[-2:] = False
        yield "edges and corners", fov, 1.0, pts, valid
        yield "lone interior cell", fov, 1.0, np.array([[2.5, 3.5, 1.5]]), np.ones(1, dtype=bool)
        yield "lone corner cell", fov, 1.0, np.array([[4.9, 0.1, 3.9]]), np.ones(1, dtype=bool)
        pts = lidar_like_cloud(rng)
        yield "lidar-like", kitti_fov, 0.4, pts, np.ones(len(pts), dtype=bool)
        yield "all padding", fov, 1.0, rng.uniform(0, 3.9, (7, 3)), np.zeros(7, dtype=bool)

    def run_case(self, fov, rho, pts, valid, dtype, seed):
        width = 4
        store = ParamStore()
        planes = ((0, 1), (0, 2), (1, 2))
        layer = TokenMixLayer(store, "tm", planes, width, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        for br in layer.branches:
            for conv in (br.conv1, br.conv2):
                conv.b.data[...] = rng.standard_normal(width)
            br.scale.diag.data[...] = rng.standard_normal(width)
            br.bn.running_mean.data[...] = 0.3 * rng.standard_normal(width)
        if dtype == np.float64:
            promote_to_float64(store)
        projections = {axes: build_projection(pts, PlaneSpec.from_fov(axes, fov, rho), valid) for axes in planes}
        x = rng.standard_normal((width, len(pts))).astype(dtype)
        dy = rng.standard_normal((width, len(pts)))
        want_y, want_dx, want_rows, want_grads = dense_token_layer(layer, x, projections, valid, dy)
        seen = []
        for proj in projections.values():
            proj.flatten_backward = lambda drows, f=proj.flatten_backward: seen.append(drows) or f(drows)
        store.zero_grad()
        y = layer.forward(x, projections, valid, False, False)
        dx = layer.backward(dy)
        assert bitwise_equal(y, want_y)
        assert bitwise_equal(dx, want_dx)
        for rows, want in zip(seen, want_rows):
            assert rows.dtype == dtype and bitwise_equal(rows, want)
        return layer, want_grads, projections

    def test_forward_and_grid_gradient_bitwise_float32(self, kitti_fov):
        for i, (_, fov, rho, pts, valid) in enumerate(self.scenes(kitti_fov)):
            self.run_case(fov, rho, pts, valid, np.float32, seed=50 + i)

    def test_float64_parameter_gradients(self, kitti_fov):
        shares = {}
        for i, (name, fov, rho, pts, valid) in enumerate(self.scenes(kitti_fov)):
            layer, want_grads, projections = self.run_case(fov, rho, pts, valid, np.float64, seed=60 + i)
            for br, (dk1, db1, dk2, db2) in zip(layer.branches, want_grads):
                for got, want in ((br.conv1.k.grad, dk1), (br.conv1.b.grad, db1), (br.conv2.k.grad, dk2), (br.conv2.b.grad, db2)):
                    assert got.dtype == np.float64
                    np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)
            shares[name] = projections[(0, 1)].dilated_cells.size / projections[(0, 1)].n_cells
        # the LiDAR-like xy grid is sparse, the all-padding one has no rows at all
        assert 0 < shares["lidar-like"] < 0.1 and shares["all padding"] == 0

    def test_all_padding_cloud_eval_forward(self, small_fov):
        cfg = tiny_config(small_fov, depth=3, width=8, strategy="parallel")
        model = WaffleIron(cfg, np.random.default_rng(41))
        pc = build_scene(small_fov, n=20, seed=42)
        valid = np.zeros(20, dtype=bool)
        projections = model.build_projections(pc.positions, valid)
        assert all(p.n_occupied == 0 for p in projections.values())
        nbr = np.zeros((20, cfg.k_neighbors), dtype=np.int64)
        feats = pc.features.T.copy()
        logits = model.forward(feats, nbr, projections, valid, training=False)
        assert logits.shape == (3, 20) and np.isfinite(logits).all()
        cached = model.forward(feats, nbr, projections, valid, training=False, need_grad=True)
        assert np.array_equal(logits, cached)


class TestChannelMix:
    def test_zero_layerscale_is_identity(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 6, np.random.default_rng(0))
        layer.scale.diag.data[...] = 0.0
        x = np.random.default_rng(1).standard_normal((6, 9)).astype(np.float32)
        out = layer.forward(x, None, False, False)
        np.testing.assert_array_equal(out, x)

    def test_two_channel_hand_computation(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 2, np.random.default_rng(0))
        layer.lin1.w.data[...] = np.eye(2)
        layer.lin1.b.data[...] = 0.0
        layer.lin2.w.data[...] = 2.0 * np.eye(2)
        layer.lin2.b.data[...] = [0.1, -0.1]
        layer.scale.diag.data[...] = 0.5
        x = np.array([[0.3], [-0.4]], dtype=np.float32)
        out = layer.forward(x, None, False, False)
        # hand computation: xb = x / sqrt(1 + 1e-5); relu zeroes the second
        # channel; mlp = [2 * xb0 + 0.1, -0.1]; out = x + 0.5 * mlp
        s = 1.0000049999875
        np.testing.assert_allclose(
            out, [[0.3 + 0.5 * (2 * 0.3 / s + 0.1)], [-0.4 + 0.5 * (-0.1)]], atol=1e-6
        )

    def test_column_independence_eval(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 4, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 10)).astype(np.float32)
        base = layer.forward(x, None, False, False)
        x2 = x.copy()
        x2[:, 4] += 1.0
        out = layer.forward(x2, None, False, False)
        changed = np.flatnonzero(np.any(out != base, axis=0))
        assert changed.tolist() == [4]


class TestForward:
    def test_shapes_and_finiteness(self, small_fov):
        cfg = tiny_config(small_fov, depth=6, width=64, classes=3, k=8)
        model = WaffleIron(cfg, np.random.default_rng(0))
        pc = build_scene(small_fov, n=100, seed=1)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        logits = model.forward(feats, nbr, proj, valid, training=True)
        assert logits.shape == (3, 100)
        assert np.isfinite(logits).all()

    def test_frozen_train_equals_eval_when_no_drop(self, small_fov):
        cfg = tiny_config(small_fov)
        model = WaffleIron(cfg, np.random.default_rng(1))
        pc = build_scene(small_fov, n=50, seed=2)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        a = model.forward(feats, nbr, proj, valid, training=False)
        b = model.forward(
            feats, nbr, proj, valid,
            training=True, bn_training=False, update_stats=False,
            drop_rng=np.random.default_rng(0),
        )
        np.testing.assert_array_equal(a, b)

    def test_permutation_equivariance_eval(self, small_fov):
        cfg = tiny_config(small_fov)
        model = WaffleIron(cfg, np.random.default_rng(3))
        pc = build_scene(small_fov, n=64, seed=4)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        logits = model.forward(feats, nbr, proj, valid, training=False)
        perm = np.random.default_rng(5).permutation(64)
        pc_p = pc.select(perm)
        feats_p, nbr_p, proj_p, valid_p = prepare_inputs(model, pc_p)
        logits_p = model.forward(feats_p, nbr_p, proj_p, valid_p, training=False)
        np.testing.assert_array_equal(logits_p, logits[:, perm])

    def test_zero_layerscale_reduces_to_classifier_of_embedding(self, small_fov):
        cfg = tiny_config(small_fov)
        model = WaffleIron(cfg, np.random.default_rng(6))
        for name, t in model.store.items():
            if name.endswith("layerscale.diag"):
                t.data[...] = 0.0
        pc = build_scene(small_fov, n=40, seed=7)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        logits = model.forward(feats, nbr, proj, valid, training=False)
        tokens = model.embedding.forward(feats, nbr, valid, False, False)
        want = model.classifier.forward(tokens)
        np.testing.assert_array_equal(logits, want)

    def test_doubling_rho_changes_cells_not_shapes(self, small_fov):
        pc = build_scene(small_fov, n=80, seed=8)
        logits = {}
        cells = {}
        for rho in (0.8, 1.6):
            cfg = tiny_config(small_fov)
            cfg.rho = rho
            model = WaffleIron(cfg, np.random.default_rng(9))
            feats, nbr, proj, valid = prepare_inputs(model, pc)
            logits[rho] = model.forward(feats, nbr, proj, valid, training=False)
            cells[rho] = proj[(0, 1)].n_cells
        assert logits[0.8].shape == logits[1.6].shape
        assert cells[0.8] != cells[1.6]

    def test_wrong_feature_width_raises(self, small_fov):
        cfg = tiny_config(small_fov)
        model = WaffleIron(cfg, np.random.default_rng(0))
        pc = build_scene(small_fov, n=20, seed=0)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        with pytest.raises(ValueError):
            model.forward(feats[:3], nbr, proj, valid)


def held_arrays(value, path="model", private=False):
    """Paths of the arrays that layers reachable from ``value`` keep in private attributes."""
    if isinstance(value, np.ndarray):
        return [path] if private else []
    if isinstance(value, (list, tuple)):
        return [p for i, item in enumerate(value) for p in held_arrays(item, f"{path}[{i}]", private)]
    if type(value).__module__ in ("waffleiron.backbone", "waffleiron.nn") and hasattr(value, "__dict__"):
        return [p for name, item in vars(value).items() for p in held_arrays(item, f"{path}.{name}", name.startswith("_"))]
    return []


class TestNoGradForward:
    def test_keeps_no_cache_and_matches_caching_eval(self, small_fov):
        cfg = tiny_config(small_fov, depth=3, width=8, strategy="parallel")
        model = WaffleIron(cfg, np.random.default_rng(30))
        pc = build_scene(small_fov, n=50, seed=31)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        cached = model.forward(feats, nbr, proj, valid, training=False, need_grad=True)
        assert len(held_arrays(model)) > 50
        logits = model.forward(feats, nbr, proj, valid, training=False)
        assert held_arrays(model) == []
        assert np.array_equal(logits, cached)
        with pytest.raises(RuntimeError):
            model.backward(np.ones_like(logits))


class TestStochasticDepth:
    def test_zero_drop_equals_eval(self, small_fov):
        cfg = tiny_config(small_fov, drop=0.0)
        model = WaffleIron(cfg, np.random.default_rng(0))
        pc = build_scene(small_fov, n=30, seed=1)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        a = model.forward(feats, nbr, proj, valid, training=False)
        b = model.forward(feats, nbr, proj, valid, training=False, drop_rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_branches_actually_drop(self, small_fov):
        cfg = tiny_config(small_fov, drop=0.8)
        model = WaffleIron(cfg, np.random.default_rng(2))
        pc = build_scene(small_fov, n=30, seed=3)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        base = model.forward(feats, nbr, proj, valid, training=False)
        dropped = model.forward(feats, nbr, proj, valid, training=False, drop_rng=np.random.default_rng(0))
        assert not np.array_equal(base, dropped)

    def test_training_with_drop_needs_rng(self, small_fov):
        cfg = tiny_config(small_fov, drop=0.2)
        model = WaffleIron(cfg, np.random.default_rng(4))
        pc = build_scene(small_fov, n=20, seed=5)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        with pytest.raises(ValueError):
            model.forward(feats, nbr, proj, valid, training=True)

    def test_kept_branches_are_inverse_scaled(self, small_fov):
        # drop vanishingly unlikely: p tiny, factor must be 1 / (1 - p)
        cfg = tiny_config(small_fov, drop=1e-9)
        model = WaffleIron(cfg, np.random.default_rng(5))
        pc = build_scene(small_fov, n=20, seed=6)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        a = model.forward(feats, nbr, proj, valid, training=False)
        b = model.forward(feats, nbr, proj, valid, training=False, drop_rng=np.random.default_rng(0))
        np.testing.assert_allclose(a, b, rtol=1e-5)


class TestParamCount:
    def test_kitti_model_near_target(self, kitti_fov):
        cfg = WaffleIronConfig(depth=48, width=256, rho=0.40, fov=kitti_fov, num_classes=19)
        n = param_count(cfg)
        assert abs(n - 6.8e6) <= 0.10 * 6.8e6

    def test_nuscenes_model_near_target(self):
        fov = Fov(np.array([-50.0, -50.0, -5.0]), np.array([50.0, 50.0, 5.0]))
        cfg = WaffleIronConfig(depth=48, width=384, rho=0.60, fov=fov, num_classes=16)
        n = param_count(cfg)
        assert abs(n - 15.1e6) <= 0.10 * 15.1e6

    def test_depth_zero_closed_form(self, small_fov):
        cfg = tiny_config(small_fov, depth=0, width=32, classes=3)
        c, f, k = 5, 32, 3
        embed = 2 * c + (c * f // 2 + f // 2) * 2 + (f // 2) * (f // 2) + f // 2 + f * f + f
        classifier = f * k + k
        assert param_count(cfg) == embed + classifier

    def test_parallel_strategy_has_three_branches(self, small_fov):
        base = param_count(tiny_config(small_fov, depth=3, width=8))
        par = param_count(tiny_config(small_fov, depth=3, width=8, strategy="parallel"))
        assert par > base


class TestEndToEndGradients:
    def test_full_model_gradcheck(self, small_fov):
        cfg = tiny_config(small_fov, depth=3, width=8, classes=3, k=3)
        model = WaffleIron(cfg, np.random.default_rng(0))
        pc = build_scene(small_fov, n=24, seed=11)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        labels = pc.labels

        def loss_fn(want_grad):
            logits = model.forward(
                feats.astype(np.float64), nbr, proj, valid, training=True, update_stats=False
            )
            loss, dlogits, _ = segmentation_loss(logits, labels, valid)
            if want_grad:
                model.backward(dlogits)
            return loss

        err = grad_check(loss_fn, model.store, eps=1e-4)
        assert err < 1e-3, f"end-to-end gradient error {err}"

    def test_waffleiron_6_64_spot_check(self, small_fov):
        # full finite differences over 66k parameters would take minutes, so
        # spot-check a deterministic sample of scalars at the 1e-3 threshold
        cfg = tiny_config(small_fov, depth=6, width=64, classes=3, k=8)
        model = WaffleIron(cfg, np.random.default_rng(1))
        pc = build_scene(small_fov, n=100, seed=12)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        labels = pc.labels
        saved = {name: t.data for name, t in model.store.items()}
        for _, t in model.store.items():
            t.data = t.data.astype(np.float64)
            if t.grad is not None:
                t.grad = np.zeros_like(t.data)

        def loss():
            logits = model.forward(
                feats.astype(np.float64), nbr, proj, valid, training=True, update_stats=False
            )
            return segmentation_loss(logits, labels, valid)

        base_loss, dlogits, _ = loss()
        model.backward(dlogits)
        rng = np.random.default_rng(13)
        eps = 1e-4
        worst = 0.0
        trainable = model.store.trainable_items()
        for _ in range(60):
            name, t = trainable[int(rng.integers(len(trainable)))]
            i = int(rng.integers(t.data.size))
            flat = t.data.reshape(-1)
            orig = flat[i]
            flat[i] = orig + eps
            up, _, _ = loss()
            flat[i] = orig - eps
            down, _, _ = loss()
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            err = abs(t.grad.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
        for name, t in model.store.items():
            t.data = saved[name]
            if t.grad is not None:
                t.grad = np.zeros_like(t.data)
        assert worst < 1e-3, f"spot-check gradient error {worst}"


class TestBnFolding:
    def test_folded_channel_mix_matches_eval(self):
        rng = np.random.default_rng(20)
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 8, rng)
        layer.bn.running_mean.data[...] = rng.standard_normal(8)
        layer.bn.running_var.data[...] = rng.uniform(0.5, 2.0, 8)
        layer.bn.gamma.data[...] = rng.uniform(0.5, 1.5, 8)
        layer.bn.beta.data[...] = rng.standard_normal(8)
        x = rng.standard_normal((8, 30)).astype(np.float32)
        want = layer.forward(x, None, False, False)
        got = channel_mix_folded_eval(layer, x)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_fold_identity_bn(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 4, np.random.default_rng(21))
        wf, bf = fold_bn_into_linear(layer.bn, layer.lin1)
        np.testing.assert_allclose(wf, layer.lin1.w.data, rtol=1e-5)
        np.testing.assert_allclose(bf, layer.lin1.b.data, atol=1e-6)


class TestParallelStrategy:
    def test_forward_runs_and_sums_branches(self, small_fov):
        cfg = tiny_config(small_fov, depth=2, width=8, strategy="parallel")
        model = WaffleIron(cfg, np.random.default_rng(22))
        pc = build_scene(small_fov, n=30, seed=23)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        assert set(proj) == {(0, 1), (0, 2), (1, 2)}
        logits = model.forward(feats, nbr, proj, valid, training=False)
        assert logits.shape == (3, 30)
        assert np.isfinite(logits).all()
