"""Embedding, mixing layers and the assembled network."""

import copy
import itertools

import numpy as np
import pytest

from waffleiron import backbone, nn
from waffleiron.backbone import (
    ChannelMixLayer,
    EmbeddingLayer,
    TokenMixLayer,
    WaffleIron,
    WaffleIronConfig,
    param_count,
    prepare_inputs,
)
from waffleiron.geometry import Fov, PointCloud
from waffleiron.nn import BatchNorm, DepthwiseConv3x3, ParamStore, PointwiseLinear, fold
from waffleiron.projection import PlaneSpec, ProjectionPair, build_projection
from waffleiron.training import segmentation_loss

from conftest import random_cloud
from oracles import (
    bn_eval,
    embedding_eval,
    embedding_oneshot,
    grad_check,
    relu,
    relu_backward,
    token_eval,
    unfused_eval,
    unfused_training,
)
from test_nn import per_tap_backward, per_tap_forward
from test_projection import bitwise_equal, occupied_rows, scatter_rows


# absolute tolerance between the folded eval and the unfused oracle, for
# activations and logits of magnitude up to ~10
FOLD_TOL = 1e-4


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
        feats = np.tile(np.array([0.3, 1.0, -1.0, 0.5, 2.0], dtype=np.float32), (n, 1))
        nbr = np.random.default_rng(1).integers(0, n, size=(n, 3))
        valid = np.ones(n, dtype=bool)
        tokens = emb.forward(feats, nbr, valid, training=False)
        assert tokens.shape == (n, 8)
        assert np.abs(tokens - tokens[:1]).max() == 0
        # the local branch reduces to the MLP at zero
        hb = bn_eval(emb.pre_bn, feats)
        mlp0 = emb.local2.w.data @ relu(emb.local1.b.data) + emb.local2.b.data
        g = emb.global_lin.w.data @ hb[0] + emb.global_lin.b.data
        want = emb.merge.w.data @ np.concatenate([g, mlp0]) + emb.merge.b.data
        np.testing.assert_allclose(tokens[0], want, atol=1e-6)

    def test_output_shape(self, small_fov):
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 16, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((40, 5)).astype(np.float32)
        nbr = rng.integers(0, 40, size=(40, 6))
        out = emb.forward(feats, nbr, np.ones(40, dtype=bool), training=True)
        assert out.shape == (40, 16)

    def test_permutation_equivariance(self):
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 8, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        n = 30
        feats = rng.standard_normal((n, 5)).astype(np.float32)
        nbr = rng.integers(0, n, size=(n, 4))
        valid = np.ones(n, dtype=bool)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        nbr_p = inv[nbr[perm]]
        # eval statistics make the map exactly equivariant; train-mode batch
        # statistics agree only up to accumulation rounding
        base = emb.forward(feats, nbr, valid, training=False)
        out = emb.forward(feats[perm], nbr_p, valid, training=False)
        np.testing.assert_array_equal(out, base[perm])
        base_t = emb.forward(feats, nbr, valid, training=True)
        out_t = emb.forward(feats[perm], nbr_p, valid, training=True)
        np.testing.assert_allclose(out_t, base_t[perm], atol=1e-5)

    def test_nograd_path_matches(self, monkeypatch):
        # momentum 1: the training forward leaves the running statistics
        # equal to its batch statistics, so the unfused eval must match it:
        # the training forward bit for bit (gamma 1 and beta 0 fold exactly),
        # the folded eval within FOLD_TOL
        monkeypatch.setattr(nn, "BN_MOMENTUM", 1.0)
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 8, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((25, 5)).astype(np.float32)
        nbr = rng.integers(0, 25, size=(25, 3))
        valid = np.ones(25, dtype=bool)
        a = emb.forward(feats, nbr, valid, training=True)
        assert held_arrays(emb) != []
        b = emb.forward(feats, nbr, valid, training=False)
        assert held_arrays(emb) == []
        oracle = embedding_eval(emb, feats, nbr)
        np.testing.assert_array_equal(a, oracle)
        np.testing.assert_allclose(b, oracle, atol=FOLD_TOL)


class TestEmbeddingBlocks:
    """The local branch runs in point blocks; 25 points in blocks of 7 make three full blocks and a partial one."""

    N, K, WIDTH = 25, 5, 8

    def _layer_and_inputs(self, monkeypatch, seed, dtype=np.float32):
        monkeypatch.setattr(backbone, "_LOCAL_BLOCK", 7)
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, self.WIDTH, np.random.default_rng(seed))
        for _, t in store.items():
            t.data = t.data.astype(dtype)
            if t.grad is not None:
                t.grad = np.zeros_like(t.data)
        rng = np.random.default_rng(seed + 1)
        feats = rng.standard_normal((self.N, 5)).astype(dtype)
        # no point lists itself, as in a kNN list: a zero difference puts
        # local1 exactly on the ReLU kink while its bias is zero
        nbr = (np.arange(self.N)[:, None] + rng.integers(1, self.N, size=(self.N, self.K))) % self.N
        return store, emb, feats, nbr, np.ones(self.N, dtype=bool)

    def test_eval_matches_oneshot_bit_for_bit(self, monkeypatch):
        # the folded eval in blocks of 7 equals it in one block bit for bit,
        # and the unfused one-shot oracle within FOLD_TOL
        for seed in range(3):
            store, emb, feats, nbr, valid = self._layer_and_inputs(monkeypatch, seed)
            perturb_eval_state(store, np.random.default_rng(seed + 3))
            blocked = emb.forward(feats, nbr, valid, training=False)
            monkeypatch.setattr(backbone, "_LOCAL_BLOCK", self.N)
            np.testing.assert_array_equal(emb.forward(feats, nbr, valid, training=False), blocked)
            np.testing.assert_allclose(blocked, embedding_eval(emb, feats, nbr), atol=FOLD_TOL)

    def test_training_gradients_match_oneshot(self, monkeypatch):
        for seed in range(3):
            store, emb, feats, nbr, valid = self._layer_and_inputs(monkeypatch, seed, np.float64)
            seen = {}
            bn_forward, bn_backward = emb.pre_bn.forward, emb.pre_bn.backward

            def forward(*args):
                rows, scale, shift = bn_forward(*args)
                seen["hb"] = scale * rows + shift
                return rows, scale, shift

            def backward(dhb):
                seen["dhb"] = dhb.copy()
                return bn_backward(dhb)

            monkeypatch.setattr(emb.pre_bn, "forward", forward)
            monkeypatch.setattr(emb.pre_bn, "backward", backward)
            tokens = emb.forward(feats, nbr, valid, training=True)
            dy = np.random.default_rng(seed + 2).standard_normal(tokens.shape)
            emb.backward(dy)
            want_tokens, want_dhb, want_grads = embedding_oneshot(emb, seen["hb"], nbr, dy)
            # the oracle reads the batch norm's output, the layer folds its
            # map, which is exact at the fresh layer's gamma 1 and beta 0
            np.testing.assert_array_equal(tokens, want_tokens)
            np.testing.assert_allclose(seen["dhb"], want_dhb, rtol=1e-10)
            tensors = dict(store.items())
            for name, (dw, db) in want_grads.items():
                np.testing.assert_allclose(tensors[f"embed.{name}.weight"].grad, dw, rtol=1e-10, err_msg=name)
                np.testing.assert_allclose(tensors[f"embed.{name}.bias"].grad, db, rtol=1e-10, err_msg=name)

    def test_grad_check(self, monkeypatch):
        # seed 2 is left out: one local1 pre-activation lies 1e-5 from the
        # ReLU kink, inside the finite-difference step
        for seed in (0, 1, 3):
            store, emb, feats, nbr, valid = self._layer_and_inputs(monkeypatch, seed)
            x = store.register("x", feats)
            r = np.random.default_rng(seed + 2).standard_normal((self.N, self.WIDTH))

            def loss_fn(want):
                y = emb.forward(x.data, nbr, valid, training=True)
                if want:
                    x.grad += emb.backward(r)
                return float((y * r).sum())

            err = grad_check(loss_fn, store, eps=1e-4)
            assert err < 1e-4, f"embedding gradient error {err}"

    def test_keeps_no_pair_rows(self, monkeypatch):
        # the k rows per point of the local MLP live only inside a block
        _, emb, feats, nbr, valid = self._layer_and_inputs(monkeypatch, 0)
        emb.forward(feats, nbr, valid, training=True)
        kept = held(emb, "emb")
        assert kept != []
        assert all(a.shape[0] <= self.N for _, a in kept), [(p, a.shape) for p, a in kept]
        emb.forward(feats, nbr, valid, training=False)
        assert held_arrays(emb) == []


class TestTokenMix:
    def _layer_and_inputs(self, fov, seed=0, width=6, n=40):
        cfg = tiny_config(fov, depth=3, width=width)
        store = ParamStore()
        layer = TokenMixLayer(store, "tm", ((0, 1),), width, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        pc = random_cloud(rng, n, fov)
        model_like = WaffleIron(cfg, np.random.default_rng(0))
        projections = model_like.build_projections(pc.positions, pc.valid)
        x = rng.standard_normal((n, width)).astype(np.float32)
        return layer, x, projections, pc.valid

    def test_zero_layerscale_is_identity(self, small_fov):
        layer, x, proj, valid = self._layer_and_inputs(small_fov)
        layer.branches[0].layerscale.data[...] = 0.0
        out = layer.forward(x, proj, valid, training=False)
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
        br.layerscale.data[...] = 1.0
        model_like = WaffleIron(cfg, np.random.default_rng(0))
        pos = np.array([[1.3, 2.1, 0.5]], dtype=np.float32)
        projections = model_like.build_projections(pos, np.ones(1, dtype=bool))
        # positive tokens so the FFN's hidden ReLU is transparent
        x = np.abs(np.random.default_rng(2).standard_normal((1, 4))).astype(np.float32)
        out = layer.forward(x, projections, np.ones(1, dtype=bool), training=False)
        want = x + bn_eval(br.bn, x)
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_branch_holds_relu_output_once(self, small_fov):
        layer, x, projections, valid = self._layer_and_inputs(small_fov, seed=4)
        layer.forward(x, projections, valid, training=True)
        br = layer.branches[0]
        mask_source = br._cache[1]
        assert mask_source is br.conv2._cache[0]
        assert (mask_source >= 0).all() and not mask_source[-1].any()

    def test_training_branch_holds_only_xhat_per_point(self, small_fov):
        # BN's map folds into the flatten and the layerscale into conv2, so
        # the normalized rows, which the flatten reads, are the only N x F array
        layer, x, projections, valid = self._layer_and_inputs(small_fov, seed=4)
        layer.forward(x, projections, valid, training=True)
        br = layer.branches[0]
        proj = projections[(0, 1)]
        assert x.shape[0] not in (proj.n_occupied + 1, proj.dilated_cells.size + 1)
        rows = list({id(a): a for _, a in held(br) if a.shape == x.shape}.values())
        assert len(rows) == 1 and rows[0] is br.bn._cache[0]

    def test_matches_naive_recomposition_bitwise(self, small_fov):
        # the unfused oracle on the rows of O and D equals the dense grid bit
        # for bit; the folded eval matches it within FOLD_TOL
        layer, x, projections, valid = self._layer_and_inputs(small_fov, seed=3)
        out = layer.forward(x, projections, valid, training=False)
        br = layer.branches[0]
        pts, _ = dense_branch(br, projections[(0, 1)], bn_eval(br.bn, x))
        want = x + br.layerscale.data * pts
        np.testing.assert_array_equal(token_eval(layer, x, projections), want)
        np.testing.assert_allclose(out, want, atol=FOLD_TOL)


def dense_branch(br, proj, xb, affine=None, out_scale=1.0):
    """The conv FFN of one token-mixing branch on the whole zero-padded grid, with the tests' dense conv.

    ``affine`` maps the cell means as in ``ProjectionPair.flatten``, and
    conv2 runs with the kernel and bias of ``fold`` with ``out_scale``.
    Returns the inflated N x F output and a function from its gradient to
    (gradient of ``xb``, dense grid gradient rows of O, conv parameter gradients).
    """
    f = xb.shape[1]
    h, w = proj.plane.grid_shape

    def to_grid(rows):
        return scatter_rows(proj, rows).T.reshape(f, h, w)

    def to_rows(grid):
        return occupied_rows(proj, grid.reshape(f, h * w).T)

    def kernel2(dtype):
        return fold(br.conv2.k.data.reshape(f, 9), br.conv2.b.data, dtype, out_scale=out_scale)

    grid = to_grid(proj.flatten(xb, affine))
    c1 = per_tap_forward(grid, br.conv1.k.data, br.conv1.b.data)
    r = relu(c1)
    k2, b2 = kernel2(r.dtype)
    c2 = per_tap_forward(r, k2.reshape(f, 3, 3), b2)
    out = proj.inflate(to_rows(c2))

    def backward(dout):
        dc2 = to_grid(proj.inflate_backward(dout))
        dr, dk2, db2 = per_tap_backward(r, dc2, kernel2(dc2.dtype)[0].reshape(f, 3, 3))
        dgrid, dk1, db1 = per_tap_backward(grid, relu_backward(dr, c1), br.conv1.k.data)
        drows = to_rows(dgrid)
        # the folded kernel and bias are the stored ones times out_scale
        o = np.reshape(out_scale, -1)
        return proj.flatten_backward(drows), drows, (dk1, db1, o[:, None, None] * dk2, o * db2)

    return out, backward


def dense_token_layer(layer, x, projections, valid, dy, training):
    """``TokenMixLayer`` forward with every branch on the dense grid, and in training its backward.

    Each branch's own ``BatchNorm`` gives the rows and the map that the
    flatten applies, and the layerscale scales conv2's kernel and bias, as
    the layer folds them; in training the gradient of the rows goes through
    that ``BatchNorm``'s backward.
    """
    total, dx, drows, grads = None, dy.copy(), [], []
    for axes, br in zip(layer.planes, layer.branches):
        rows, scale, shift = br.bn.forward(x, valid, training)
        out, backward = dense_branch(br, projections[axes], rows, (scale, shift), br.layerscale.data.astype(np.float64))
        total = out if total is None else total + out
        if training:
            dxb, rows, g = backward(dy)
            dx += br.bn.backward(dxb)
            drows.append(rows)
            grads.append(g)
    return x + total, dx, drows, grads


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
            br.layerscale.data[...] = rng.standard_normal(width)
            br.bn.running_mean.data[...] = 0.3 * rng.standard_normal(width)
        if dtype == np.float64:
            promote_to_float64(store)
        projections = {axes: build_projection(pts, PlaneSpec.from_fov(axes, fov, rho), valid) for axes in planes}
        x = rng.standard_normal((len(pts), width)).astype(dtype)
        dy = rng.standard_normal((len(pts), width)).astype(dtype)
        # batch statistics need a valid row: an all-padding cloud has only the eval forward
        training = bool(valid.any())
        want_y, want_dx, want_rows, want_grads = dense_token_layer(layer, x, projections, valid, dy, training)
        seen = []
        for proj in projections.values():
            proj.flatten_backward = lambda drows, f=proj.flatten_backward: seen.append(drows) or f(drows)
        store.zero_grad()
        y = layer.forward(x, projections, valid, training)
        assert bitwise_equal(y, want_y)
        if training:
            assert bitwise_equal(layer.backward(dy), want_dx)
            assert len(seen) == len(want_rows) == len(planes)
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
            shares[name] = projections[(0, 1)].dilated_cells.size / projections[(0, 1)].plane.n_cells
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
        feats = pc.features
        logits = model.forward(feats, nbr, projections, valid, training=False)
        assert logits.shape == (3, 20) and np.isfinite(logits).all()


class TestChannelMix:
    def test_zero_layerscale_is_identity(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 6, np.random.default_rng(0))
        layer.layerscale.data[...] = 0.0
        x = np.random.default_rng(1).standard_normal((9, 6)).astype(np.float32)
        out = layer.forward(x, None, training=False)
        np.testing.assert_array_equal(out, x)

    def test_two_channel_hand_computation(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 2, np.random.default_rng(0))
        layer.lin1.w.data[...] = np.eye(2)
        layer.lin1.b.data[...] = 0.0
        layer.lin2.w.data[...] = 2.0 * np.eye(2)
        layer.lin2.b.data[...] = [0.1, -0.1]
        layer.layerscale.data[...] = 0.5
        x = np.array([[0.3, -0.4]], dtype=np.float32)
        out = layer.forward(x, None, training=False)
        # hand computation: xb = x / sqrt(1 + 1e-5); relu zeroes the second
        # channel; mlp = [2 * xb0 + 0.1, -0.1]; out = x + 0.5 * mlp
        s = 1.0000049999875
        np.testing.assert_allclose(
            out, [[0.3 + 0.5 * (2 * 0.3 / s + 0.1), -0.4 + 0.5 * (-0.1)]], atol=1e-6
        )

    def test_training_forward_holds_two_point_arrays(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 6, np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((9, 6)).astype(np.float32)
        layer.forward(x, None, training=True)
        rows = list({id(a): a for _, a in held(layer) if a.shape == x.shape}.values())
        # BN xhat, which is also lin1's input, and the ReLU output (lin2's input and the mask)
        assert len(rows) == 2
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(rows, 2))
        assert layer.bn._cache[0] is layer.lin1._cache[0]
        assert layer._relu_out is layer.lin2._cache[0]

    def test_column_independence_eval(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 4, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 4)).astype(np.float32)
        base = layer.forward(x, None, training=False)
        x2 = x.copy()
        x2[4] += 1.0
        out = layer.forward(x2, None, training=False)
        changed = np.flatnonzero(np.any(out != base, axis=1))
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
        tokens = model.embedding.forward(feats, nbr, valid, training=False)
        want = model.classifier.forward(tokens).T
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
            cells[rho] = proj[(0, 1)].plane.n_cells
        assert logits[0.8].shape == logits[1.6].shape
        assert cells[0.8] != cells[1.6]

    def test_wrong_feature_width_raises(self, small_fov):
        cfg = tiny_config(small_fov)
        model = WaffleIron(cfg, np.random.default_rng(0))
        pc = build_scene(small_fov, n=20, seed=0)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        with pytest.raises(ValueError):
            model.forward(feats[:, :3], nbr, proj, valid)


def held(value, path="model", private=False):
    """(path, array) of every array that layers reachable from ``value`` keep in private attributes."""
    if isinstance(value, np.ndarray):
        return [(path, value)] if private else []
    if isinstance(value, (list, tuple)):
        return [h for i, item in enumerate(value) for h in held(item, f"{path}[{i}]", private)]
    if type(value).__module__ in ("waffleiron.backbone", "waffleiron.nn") and hasattr(value, "__dict__"):
        return [h for name, item in vars(value).items() for h in held(item, f"{path}.{name}", name.startswith("_"))]
    return []


def held_arrays(value):
    """Paths of the arrays that layers reachable from ``value`` keep in private attributes."""
    return [path for path, _ in held(value)]


class TestLayout:
    """Point rows N x F, grid rows (n + 1) x F ending in a zero row, every array C-contiguous."""

    OPERATORS = {
        PointwiseLinear: ("forward", "backward"),
        BatchNorm: ("forward", "backward"),
        DepthwiseConv3x3: ("forward", "backward"),
        ProjectionPair: ("flatten", "flatten_backward", "inflate", "inflate_backward"),
    }
    # the grid-side array of each call: (argument position, or "out" for the result)
    GRID_SIDE = {
        "DepthwiseConv3x3.forward": (0, "out"),
        "DepthwiseConv3x3.backward": (0, "out"),
        "ProjectionPair.flatten": ("out",),
        "ProjectionPair.flatten_backward": (0,),
        "ProjectionPair.inflate": (0,),
        "ProjectionPair.inflate_backward": ("out",),
    }

    def test_training_step_keeps_one_row_layout(self, small_fov, monkeypatch):
        calls = []

        def recording(name, method):
            def wrapper(obj, *args, **kwargs):
                out = method(obj, *args, **kwargs)
                calls.append((name, obj, args, out))
                return out

            return wrapper

        for cls, methods in self.OPERATORS.items():
            for attr in methods:
                monkeypatch.setattr(cls, attr, recording(f"{cls.__name__}.{attr}", getattr(cls, attr)))

        cfg = tiny_config(small_fov, depth=3, width=8, strategy="parallel")
        model = WaffleIron(cfg, np.random.default_rng(70))
        pc = build_scene(small_fov, n=50, seed=71)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        logits = model.forward(feats, nbr, proj, valid, training=True)
        _, dlogits, _ = segmentation_loss(logits, pc.labels, valid)
        model.backward(dlogits)

        assert {name for name, *_ in calls} == {f"{c.__name__}.{a}" for c, ms in self.OPERATORS.items() for a in ms}
        grid_rows = 0
        for name, obj, args, out in calls:
            arrays = {i: a for i, a in enumerate(args) if isinstance(a, np.ndarray)}
            # a batch norm returns its rows with the map its consumer folds
            arrays["out"] = out[0] if isinstance(obj, BatchNorm) and name.endswith("forward") else out
            if obj is model.classifier and name.endswith("backward"):
                # the K x N dlogits arrive as their N x K view
                assert np.shares_memory(arrays.pop(0), dlogits)
            for key, a in arrays.items():
                assert a.flags.c_contiguous, (name, key, a.shape)
            for key in self.GRID_SIDE.get(name, ()):
                rows = arrays[key]
                if isinstance(obj, ProjectionPair):
                    assert rows.shape[0] == obj.n_occupied + 1, (name, key, rows.shape)
                elif key == "out":
                    assert rows.shape[0] == args[1].shape[0] + 1, (name, key, rows.shape)
                assert not rows[-1].any(), (name, key)
                grid_rows += 1
        # 3 layers x 3 planes x (flatten, 2 conv inputs and outputs, inflate) forward and backward
        assert grid_rows == 3 * 3 * 2 * 6


class TestNoGradForward:
    def test_keeps_no_cache_and_matches_caching_eval(self, small_fov, monkeypatch):
        # momentum 1: the caching (training) forward leaves the running
        # statistics equal to its batch statistics, so the unfused eval
        # oracle must reproduce it, and the folded eval forward that follows
        # it; both forwards fold, so within FOLD_TOL
        monkeypatch.setattr(nn, "BN_MOMENTUM", 1.0)
        for strategy in ("parallel", "baseline"):
            cfg = tiny_config(small_fov, depth=3, width=8, strategy=strategy)
            model = WaffleIron(cfg, np.random.default_rng(30))
            pc = build_scene(small_fov, n=50, seed=31)
            feats, nbr, proj, valid = prepare_inputs(model, pc)
            cached = model.forward(feats, nbr, proj, valid, training=True)
            assert len(held_arrays(model)) > 50
            logits = model.forward(feats, nbr, proj, valid, training=False)
            assert held_arrays(model) == []
            oracle = unfused_eval(model, feats, nbr, proj)
            np.testing.assert_allclose(cached, oracle, atol=FOLD_TOL)
            np.testing.assert_allclose(logits, oracle, atol=FOLD_TOL)
            with pytest.raises(RuntimeError):
                model.backward(np.ones_like(logits))


def same_bits(before, after, path):
    """``after`` holds bit for bit what the deep copy ``before`` holds: arrays, containers and object attributes."""
    if isinstance(before, np.ndarray):
        assert bitwise_equal(before, after), path
    elif isinstance(before, dict):
        assert before.keys() == after.keys(), path
        for key in before:
            same_bits(before[key], after[key], f"{path}[{key!r}]")
    elif isinstance(before, (list, tuple)):
        assert len(before) == len(after), path
        for i, (a, b) in enumerate(zip(before, after)):
            same_bits(a, b, f"{path}[{i}]")
    elif isinstance(before, nn.Tensor):
        same_bits((before.data, before.grad), (after.data, after.grad), path)
    elif hasattr(before, "__dict__"):
        same_bits(vars(before), vars(after), path)
    else:
        assert before == after, path


def call_leaving_arguments(method, *args, **kwargs):
    """``method(*args, **kwargs)``, after which every argument must equal a copy taken before the call."""
    before = copy.deepcopy((args, kwargs))
    out = method(*args, **kwargs)
    same_bits(before, (args, kwargs), method.__qualname__)
    return out


class TestNoArgumentWrites:
    """No layer writes into its arguments: training forward, eval forward and backward leave them bit for bit."""

    N, WIDTH, K = 30, 6, 4
    PLANES = ((0, 1), (0, 2), (1, 2))

    def cases(self, fov, dtype):
        """(layer, forward arguments, forward keywords, backward arguments after dy) of every layer, inputs in ``dtype``."""
        rng = np.random.default_rng(80)
        store = ParamStore()
        pc = build_scene(fov, n=self.N, seed=81)
        valid = np.ones(self.N, dtype=bool)
        valid[-5:] = False
        projections = {
            axes: build_projection(pc.positions, PlaneSpec.from_fov(axes, fov, 0.8), valid) for axes in self.PLANES
        }
        neighbors = (np.arange(self.N)[:, None] + np.arange(1, self.K + 1)) % self.N
        x = rng.standard_normal((self.N, self.WIDTH)).astype(dtype)
        proj = projections[(0, 1)]
        yield EmbeddingLayer(store, "embed", 5, self.WIDTH, rng), (pc.features.astype(dtype), neighbors, valid), {}, ()
        yield TokenMixLayer(store, "tm", self.PLANES, self.WIDTH, rng), (x, projections, valid), {"factor": 1.25}, ()
        yield ChannelMixLayer(store, "cm", self.WIDTH, rng), (x, valid), {"factor": 1.25}, ()
        yield BatchNorm(store, "bn", self.WIDTH), (x, valid), {}, ()
        # the fold's inputs: a batch norm's map and a layerscale with a factor
        scale = store.register("scale", rng.uniform(0.5, 1.5, 4).astype(np.float32))
        affine = {"affine": (rng.uniform(0.5, 1.5, self.WIDTH), rng.standard_normal(self.WIDTH)),
                  "scale": scale, "factor": 1.25}
        yield PointwiseLinear(store, "lin", self.WIDTH, 4, rng), (x,), {}, ()
        yield PointwiseLinear(store, "lin_folded", self.WIDTH, 4, rng), (x,), affine, ()
        conv = DepthwiseConv3x3(store, "conv", self.WIDTH, rng)
        yield conv, (proj.flatten(x), proj.d_from_o), {}, (proj.o_from_d,)
        conv = DepthwiseConv3x3(store, "conv_scaled", self.WIDTH, rng)
        scale = store.register("conv_scale", rng.uniform(0.5, 1.5, self.WIDTH).astype(np.float32))
        yield conv, (proj.flatten(x), proj.d_from_o), {"scale": scale, "factor": 1.25}, (proj.o_from_d,)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_leave_arguments(self, small_fov, dtype):
        rng = np.random.default_rng(82)
        for layer, args, kwargs, backward_args in self.cases(small_fov, dtype):
            call_leaving_arguments(layer.forward, *args, training=False, **kwargs)
            out = call_leaving_arguments(layer.forward, *args, training=True, **kwargs)
            # a batch norm returns its rows with the map its consumer folds
            out = out[0] if isinstance(layer, BatchNorm) else out
            dy = rng.standard_normal(out.shape).astype(dtype)
            if isinstance(layer, DepthwiseConv3x3):
                dy[-1] = 0.0
            call_leaving_arguments(layer.backward, dy, *backward_args)


class TestResidualBackward:
    """The input gradient is ``dy + branch gradient`` in the tokens' float32, bit for bit."""

    N, WIDTH, FACTOR = 30, 6, 1.25

    def inputs(self, fov):
        rng = np.random.default_rng(90)
        pc = build_scene(fov, n=self.N, seed=91)
        valid = np.ones(self.N, dtype=bool)
        valid[-4:] = False
        x = rng.standard_normal((self.N, self.WIDTH)).astype(np.float32)
        return pc, valid, x, rng.standard_normal((self.N, self.WIDTH)).astype(np.float32)

    def test_channel_mix(self, small_fov):
        _, valid, x, dy = self.inputs(small_fov)
        layer = ChannelMixLayer(ParamStore(), "cm", self.WIDTH, np.random.default_rng(92))
        layer.forward(x, valid, training=True, factor=self.FACTOR)
        dx = layer.backward(dy)
        layer.forward(x, valid, training=True, factor=self.FACTOR)
        # the factor and layerscale are folded into lin2, which takes dy as it is
        dr = layer.lin2.backward(dy)
        branch = layer.bn.backward(layer.lin1.backward(relu_backward(dr, layer._relu_out)))
        assert dx.dtype == np.float32 and bitwise_equal(dx, dy + branch)

    def test_token_mix_three_planes(self, small_fov):
        pc, valid, x, dy = self.inputs(small_fov)
        planes = ((0, 1), (0, 2), (1, 2))
        projections = {axes: build_projection(pc.positions, PlaneSpec.from_fov(axes, small_fov, 0.8), valid) for axes in planes}
        layer = TokenMixLayer(ParamStore(), "tm", planes, self.WIDTH, np.random.default_rng(93))
        layer.forward(x, projections, valid, training=True, factor=self.FACTOR)
        dx = layer.backward(dy)
        layer.forward(x, projections, valid, training=True, factor=self.FACTOR)
        # the factor and layerscale are folded into conv2, so each branch takes dy as it is
        grads = [br.backward(dy) for br in layer.branches]
        assert {g.dtype for g in grads} == {np.dtype(np.float32)}
        assert dx.dtype == np.float32 and bitwise_equal(dx, dy + grads[0] + grads[1] + grads[2])


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

    def test_training_gradients_skip_dropped_layers(self, small_fov):
        cfg = tiny_config(small_fov, depth=3, width=8, classes=3, k=3, drop=0.5)
        model = WaffleIron(cfg, np.random.default_rng(0))
        pc = build_scene(small_fov, n=24, seed=11)
        feats, nbr, proj, valid = prepare_inputs(model, pc)

        def loss_fn(want_grad):
            # a fresh generator per call: every finite difference drops the same layers
            logits = model.forward(
                feats.astype(np.float64), nbr, proj, valid, training=True, drop_rng=np.random.default_rng(3)
            )
            loss, dlogits, _ = segmentation_loss(logits, pc.labels, valid)
            if want_grad:
                model.backward(dlogits)
            return loss

        err = grad_check(loss_fn, model.store, eps=1e-4)
        assert err < 1e-3, f"stochastic-depth gradient error {err}"

        # one draw before each token layer and one before each channel layer
        names = [f"layers.{i}.{kind}." for i in range(cfg.depth) for kind in ("token", "channel")]
        draws = np.random.default_rng(3).random(len(names)) < cfg.drop_prob
        dropped = tuple(name for name, drop in zip(names, draws) if drop)
        assert 0 < len(dropped) < len(names)
        before = {name: t.data.copy() for name, t in model.store.items()}
        model.store.zero_grad()
        loss_fn(True)
        for name, t in model.store.items():
            if name.startswith(dropped):
                if t.trainable:
                    assert not t.grad.any(), name
                else:
                    assert np.array_equal(t.data, before[name]), name
            elif name.startswith("layers.") and name.endswith("running_mean"):
                assert not np.array_equal(t.data, before[name]), name

    def test_backward_leaves_no_cache(self, small_fov):
        # the second step drops layers the first one ran; the eval forward
        # with drop_rng (the TTA path) then skips layers too
        cfg = tiny_config(small_fov, depth=3, width=8, classes=3, k=3, drop=0.5)
        model = WaffleIron(cfg, np.random.default_rng(0))
        pc = build_scene(small_fov, n=24, seed=11)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        for seed in (5, 3):
            logits = model.forward(feats, nbr, proj, valid, training=True, drop_rng=np.random.default_rng(seed))
            assert held_arrays(model) != []
            _, dlogits, _ = segmentation_loss(logits, pc.labels, valid)
            model.backward(dlogits)
            assert held_arrays(model) == []
            with pytest.raises(RuntimeError):
                model.backward(dlogits)
        model.forward(feats, nbr, proj, valid, training=False, drop_rng=np.random.default_rng(3))
        assert held_arrays(model) == []


class TestParamCount:
    def test_model_without_rng_is_all_zero(self, small_fov):
        # a model that is loaded or only counted draws no weights, and only
        # an explicit None asks for that
        cfg = tiny_config(small_fov, depth=3, width=8)
        with pytest.raises(TypeError):
            WaffleIron(cfg)
        model = WaffleIron(cfg, None)
        drawn = [name for name, t in model.store.items() if name.endswith(("weight", "kernel"))]
        assert drawn and all(not dict(model.store.items())[name].data.any() for name in drawn)
        assert param_count(model.config) == model.store.num_trainable()

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
            logits = model.forward(feats.astype(np.float64), nbr, proj, valid, training=True)
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
            logits = model.forward(feats.astype(np.float64), nbr, proj, valid, training=True)
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


def perturb_eval_state(store, rng):
    """Non-trivial running statistics, gammas, betas and layerscales in every layer of ``store``."""
    for name, t in store.items():
        if name.endswith("running_mean"):
            t.data[...] = 0.5 * rng.standard_normal(t.shape)
        elif name.endswith("running_var"):
            t.data[...] = rng.uniform(0.3, 3.0, t.shape)
        elif name.endswith("gamma"):
            t.data[...] = rng.uniform(0.5, 1.5, t.shape)
        elif name.endswith("beta"):
            t.data[...] = 0.3 * rng.standard_normal(t.shape)
        elif name.endswith("layerscale.diag"):
            t.data[...] = rng.uniform(-0.6, 0.6, t.shape)


def store_bits(store):
    """Copies of every tensor and gradient buffer of ``store``, by name."""
    return {name: (t.data.copy(), None if t.grad is None else t.grad.copy()) for name, t in store.items()}


class TestFoldedEval:
    """The eval forward folds BN and layerscale into the adjacent weights; the unfused oracle runs them as passes."""

    @pytest.mark.parametrize("strategy", ["baseline", "parallel"])
    def test_matches_unfused_oracle_and_leaves_the_store(self, small_fov, strategy):
        cfg = tiny_config(small_fov, depth=3, width=16, k=4, drop=0.3, strategy=strategy)
        model = WaffleIron(cfg, np.random.default_rng(100))
        perturb_eval_state(model.store, np.random.default_rng(101))
        pc = build_scene(small_fov, n=90, seed=102)
        # padding points: zero features, flagged invalid
        valid = np.arange(pc.n_points) < pc.n_points - 12
        feats = np.where(valid[:, None], pc.features, 0.0)
        pc = PointCloud(pc.positions, feats, pc.labels, valid)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        # occupied cells with an empty neighbour cell, whose tap reads the zero row
        assert all((p.d_from_o == p.n_occupied).any() for p in proj.values())
        before = store_bits(model.store)
        plain = model.forward(feats, nbr, proj, valid, training=False)
        # test-time augmentation keeps stochastic depth: kept branches scale by 1 / (1 - 0.3)
        tta = model.forward(feats, nbr, proj, valid, training=False, drop_rng=np.random.default_rng(7))
        same_bits(before, store_bits(model.store), "store")
        assert held_arrays(model) == []
        for got, want in ((plain, unfused_eval(model, feats, nbr, proj)),
                          (tta, unfused_eval(model, feats, nbr, proj, drop_rng=np.random.default_rng(7)))):
            assert np.abs(want).max() > 1.0
            np.testing.assert_allclose(got, want, rtol=0, atol=FOLD_TOL)
            assert np.array_equal(got.argmax(axis=0), want.argmax(axis=0))
        assert not np.allclose(plain, tta, atol=1e-2)


class TestFoldedTraining:
    """Training runs the folded structure too; the unfused oracle runs BN, layerscale and the factor as passes."""

    # float32 parameter gradients reach ~0.07; the fold rounds differently from the unfused passes
    ATOL32 = 1e-7

    def model_and_inputs(self, fov, strategy, dtype):
        cfg = tiny_config(fov, depth=3, width=8, k=4, drop=0.5, strategy=strategy)
        model = WaffleIron(cfg, np.random.default_rng(100))
        perturb_eval_state(model.store, np.random.default_rng(101))
        rng = np.random.default_rng(102)
        for name, t in model.store.items():
            if name.endswith("bias"):
                t.data[...] = 0.1 * rng.standard_normal(t.shape)
        if dtype == np.float64:
            promote_to_float64(model.store)
        pc = build_scene(fov, n=90, seed=102)
        # padding points: zero features, flagged invalid
        valid = np.arange(pc.n_points) < pc.n_points - 12
        pc = PointCloud(pc.positions, np.where(valid[:, None], pc.features, 0.0), pc.labels, valid)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        return model, (feats.astype(dtype), nbr, proj, valid), pc.labels

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("strategy", ["baseline", "parallel"])
    def test_parameter_gradients_match_unfused_oracle(self, small_fov, strategy, dtype):
        model, inputs, labels = self.model_and_inputs(small_fov, strategy, dtype)
        # drop_prob 0.5 with this generator drops some layers and scales the kept ones by 2
        want_loss, want = unfused_training(model, *inputs, labels, drop_rng=np.random.default_rng(3))
        logits = model.forward(*inputs, training=True, drop_rng=np.random.default_rng(3))
        loss, dlogits, _ = segmentation_loss(logits, labels, inputs[3])
        model.backward(dlogits)
        tol = dict(rtol=1e-10, atol=0) if dtype == np.float64 else dict(rtol=1e-5, atol=self.ATOL32)
        np.testing.assert_allclose(loss, want_loss, **tol)
        dropped = [name for name, g in want.items() if not g.any()]
        assert 0 < len(dropped) < len(want)
        for name, t in model.store.trainable_items():
            np.testing.assert_allclose(t.grad, want[name], err_msg=name, **tol)

    def test_backward_runs_in_float32_after_the_classifier(self, small_fov, monkeypatch):
        # the loss's float64 gradient reaches the model and its classifier; every other layer gets float32
        classes = [
            cls
            for module in (nn, backbone)
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__ and "backward" in vars(cls)
        ]
        seen = []
        for cls in classes:

            def spy(self, dy, *args, _backward=cls.backward):
                seen.append((self, dy.dtype))
                return _backward(self, dy, *args)

            monkeypatch.setattr(cls, "backward", spy)
        model, inputs, labels = self.model_and_inputs(small_fov, "baseline", np.float32)
        logits = model.forward(*inputs, training=True, drop_rng=np.random.default_rng(3))
        model.backward(segmentation_loss(logits, labels, inputs[3])[1])
        assert {type(layer) for layer, _ in seen} == set(classes)
        assert [layer for layer, dtype in seen if dtype != np.float32] == [model, model.classifier]
        assert seen[1] == (model.classifier, np.float64)

    def test_training_forward_changes_only_the_running_statistics(self, small_fov):
        model, inputs, _ = self.model_and_inputs(small_fov, "parallel", np.float32)
        before = store_bits(model.store)
        model.forward(*inputs, training=True, drop_rng=np.random.default_rng(3))
        # folded weights are built per call and never reach the store
        for name, after in store_bits(model.store).items():
            if not name.endswith(("running_mean", "running_var")):
                same_bits(before[name], after, name)


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


class TestBuildProjections:
    # the distinct planes of a 48-layer network, in order of first use
    FIRST_USE_48 = {
        "baseline": ((0, 1), (0, 2), (1, 2)),
        "reverse": ((1, 2), (0, 2), (0, 1)),
        "bev": ((0, 1),),
        "parallel": ((0, 1), (0, 2), (1, 2)),
    }

    @pytest.mark.parametrize("depth", [0, 1, 3, 48])
    @pytest.mark.parametrize("strategy", ["baseline", "reverse", "bev", "parallel"])
    def test_one_projection_per_token_plane_in_order_of_first_use(self, small_fov, strategy, depth):
        if strategy in ("baseline", "reverse") and depth % 3:
            with pytest.raises(ValueError):
                tiny_config(small_fov, depth=depth, strategy=strategy)
            return
        cfg = tiny_config(small_fov, depth=depth, strategy=strategy)
        model = WaffleIron(cfg, np.random.default_rng(24))
        pc = build_scene(small_fov, n=20, seed=25)
        projections = model.build_projections(pc.positions, pc.valid)
        want = tuple(dict.fromkeys(axes for token, _ in model.layers for axes in token.planes))
        assert tuple(projections) == want
        if depth == 48:
            assert want == self.FIRST_USE_48[strategy]
        for axes, proj in projections.items():
            assert proj.plane == PlaneSpec.from_fov(axes, cfg.fov, cfg.rho)
