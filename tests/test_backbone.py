"""Embedding, mixing layers and the assembled network."""

import copy
import math
import tracemalloc

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
from waffleiron.geometry import Fov
from waffleiron.nn import BatchNorm, DepthwiseConv3x3, ParamStore, PointwiseLinear, fold
from waffleiron.projection import PlaneSpec, ProjectionPair, build_projection
from waffleiron.training import AdamW, segmentation_loss

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
    unsegmented_step,
)
from test_nn import BLOCKED_ROWS, ROW_BLOCK, assert_same_bits, blocked_and_whole, per_tap_backward, per_tap_forward
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

    @pytest.mark.parametrize("depth", [0, 3])
    def test_unknown_strategy(self, small_fov, depth):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            tiny_config(small_fov, depth=depth, strategy="bogus")


def test_point_features_layouts():
    positions = np.array([[3.0, 0.0, 4.0]])
    f3 = backbone.point_features(positions, np.array([0.5]), "3dim")
    np.testing.assert_allclose(f3, [[0.5, 4.0, 5.0]])
    f5 = backbone.point_features(positions, np.array([0.5]), "5dim")
    np.testing.assert_allclose(f5, [[0.5, 3.0, 0.0, 4.0, 5.0]])


class TestEmbedding:
    def test_identical_features_give_identical_tokens(self, small_fov):
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 8, np.random.default_rng(0))
        n = 12
        feats = np.tile(np.array([0.3, 1.0, -1.0, 0.5, 2.0], dtype=np.float32), (n, 1))
        nbr = np.random.default_rng(1).integers(0, n, size=(n, 3))
        tokens, _ = emb.forward(feats, nbr, training=False)
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
        out, _ = emb.forward(feats, nbr, training=True)
        assert out.shape == (40, 16)

    def test_permutation_equivariance(self):
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 8, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        n = 30
        feats = rng.standard_normal((n, 5)).astype(np.float32)
        nbr = rng.integers(0, n, size=(n, 4))
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        nbr_p = inv[nbr[perm]]
        # eval statistics make the map exactly equivariant; train-mode batch
        # statistics agree only up to accumulation rounding
        base, _ = emb.forward(feats, nbr, training=False)
        out, _ = emb.forward(feats[perm], nbr_p, training=False)
        np.testing.assert_array_equal(out, base[perm])
        base_t, _ = emb.forward(feats, nbr, training=True)
        out_t, _ = emb.forward(feats[perm], nbr_p, training=True)
        np.testing.assert_allclose(out_t, base_t[perm], atol=1e-5)

    @pytest.mark.parametrize("k, dtype", [(16, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_training_keeps_slots_in_the_smallest_unsigned_type(self, k, dtype):
        emb = EmbeddingLayer(ParamStore(), "embed", 5, 8, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((20, 5)).astype(np.float32)
        _, ctx = emb.forward(feats, rng.integers(0, 20, size=(20, k)), training=True)
        tables = [a for _, a in held(ctx) if a.shape == (20, 4) and a.dtype.kind in "iu"]
        assert [a.dtype for a in tables] == [dtype]

    def test_nograd_path_matches(self, monkeypatch):
        # momentum 1: the training forward leaves the running statistics
        # equal to its batch statistics, so the eval forward maps by the same
        # statistics and must match it bit for bit, and the unfused eval
        # within FOLD_TOL
        monkeypatch.setattr(nn, "BN_MOMENTUM", 1.0)
        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, 8, np.random.default_rng(6))
        perturb_eval_state(store, np.random.default_rng(8))
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((25, 5)).astype(np.float32)
        nbr = rng.integers(0, 25, size=(25, 3))
        a, ctx = emb.forward(feats, nbr, training=True)
        assert held_arrays(ctx) != [] and held_arrays(emb) == []
        b, ctx = emb.forward(feats, nbr, training=False)
        assert ctx is None and held_arrays(emb) == []
        assert a.tobytes() == b.tobytes()
        np.testing.assert_allclose(a, embedding_eval(emb, feats, nbr), atol=FOLD_TOL)


class TestEmbeddingBlocks:
    """The local branch runs in point blocks; 25 points in blocks of 7 make two blocks of 7 and one of 11."""

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
        return store, emb, feats, nbr

    def test_eval_matches_oneshot_bit_for_bit(self, monkeypatch):
        # the folded eval in blocks of 7 equals it in one block bit for bit,
        # and the unfused one-shot oracle within FOLD_TOL
        for seed in range(3):
            store, emb, feats, nbr = self._layer_and_inputs(monkeypatch, seed)
            perturb_eval_state(store, np.random.default_rng(seed + 3))
            blocked, _ = emb.forward(feats, nbr, training=False)
            monkeypatch.setattr(backbone, "_LOCAL_BLOCK", self.N)
            np.testing.assert_array_equal(emb.forward(feats, nbr, training=False)[0], blocked)
            np.testing.assert_allclose(blocked, embedding_eval(emb, feats, nbr), atol=FOLD_TOL)

    def test_training_gradients_match_oneshot(self, monkeypatch):
        for seed in range(3):
            store, emb, feats, nbr = self._layer_and_inputs(monkeypatch, seed, np.float64)
            seen = {}
            bn_forward, bn_backward = emb.pre_bn.forward, emb.pre_bn.backward

            def forward(x, *args):
                (scale, shift), ctx = bn_forward(x, *args)
                seen["hb"] = scale * x + shift
                return (scale, shift), ctx

            def backward(dhb, ctx):
                seen["dhb"] = dhb.copy()
                return bn_backward(dhb, ctx)

            monkeypatch.setattr(emb.pre_bn, "forward", forward)
            monkeypatch.setattr(emb.pre_bn, "backward", backward)
            monkeypatch.setattr(backbone, "_LOCAL_BLOCK", self.N)
            oneblock, _ = emb.forward(feats, nbr, training=True)
            monkeypatch.setattr(backbone, "_LOCAL_BLOCK", 7)
            tokens, ctx = emb.forward(feats, nbr, training=True)
            np.testing.assert_array_equal(tokens, oneblock)
            dy = np.random.default_rng(seed + 2).standard_normal(tokens.shape)
            emb.backward(dy, ctx)
            want_tokens, want_dhb, want_grads = embedding_oneshot(emb, seen["hb"], nbr, dy)
            # the oracle reads the batch norm's output, the layer folds its map
            np.testing.assert_allclose(tokens, want_tokens, rtol=1e-10)
            np.testing.assert_allclose(seen["dhb"], want_dhb, rtol=1e-10)
            tensors = dict(store.items())
            for name, (dw, db) in want_grads.items():
                np.testing.assert_allclose(tensors[f"embed.{name}.weight"].grad, dw, rtol=1e-10, err_msg=name)
                np.testing.assert_allclose(tensors[f"embed.{name}.bias"].grad, db, rtol=1e-10, err_msg=name)

    def test_grad_check(self, monkeypatch):
        # seed 2 is left out: one local1 pre-activation lies 1e-5 from the
        # ReLU kink, inside the finite-difference step
        for seed in (0, 1, 3):
            store, emb, feats, nbr = self._layer_and_inputs(monkeypatch, seed)
            x = store.register("x", feats)
            r = np.random.default_rng(seed + 2).standard_normal((self.N, self.WIDTH))

            def loss_fn(want):
                y, ctx = emb.forward(x.data, nbr, training=True)
                if want:
                    x.grad += emb.backward(r, ctx)
                return float((y * r).sum())

            err = grad_check(loss_fn, store, eps=1e-4)
            assert err < 1e-4, f"embedding gradient error {err}"

    def test_keeps_no_pair_rows(self, monkeypatch):
        # the k rows per point of the local MLP live only inside a block
        _, emb, feats, nbr = self._layer_and_inputs(monkeypatch, 0)
        _, ctx = emb.forward(feats, nbr, training=True)
        kept = held(ctx, "ctx")
        assert kept != []
        assert all(a.shape[0] <= self.N for _, a in kept), [(p, a.shape) for p, a in kept]
        _, ctx = emb.forward(feats, nbr, training=False)
        assert ctx is None and held_arrays(emb) == []


class TestTokenMix:
    def _layer_and_inputs(self, fov, seed=0, width=6, n=40):
        cfg = tiny_config(fov, depth=3, width=width)
        store = ParamStore()
        layer = TokenMixLayer(store, "tm", ((0, 1),), width, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        pc = random_cloud(rng, n, fov)
        model_like = WaffleIron(cfg, np.random.default_rng(0))
        projections = model_like.build_projections(pc.positions)
        x = rng.standard_normal((n, width)).astype(np.float32)
        return layer, x, projections

    def test_zero_layerscale_is_identity(self, small_fov):
        layer, x, proj = self._layer_and_inputs(small_fov)
        layer.branches[0].layerscale.data[...] = 0.0
        out, _ = layer.forward(x, proj, training=False)
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
        projections = model_like.build_projections(pos)
        # positive tokens so the FFN's hidden ReLU is transparent
        x = np.abs(np.random.default_rng(2).standard_normal((1, 4))).astype(np.float32)
        out, _ = layer.forward(x, projections, training=False)
        want = x + bn_eval(br.bn, x)
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_branch_holds_relu_output_once(self, small_fov, monkeypatch):
        layer, x, projections = self._layer_and_inputs(small_fov, seed=4)
        _, ctx = layer.forward(x, projections, training=True)
        br = layer.branches[0]
        mask_source = ctx[0][3][0]
        assert sum(a is mask_source for _, a in held(ctx)) == 1
        assert (mask_source >= 0).all() and not mask_source[-1].any()
        # the mask is also the input that conv2's backward reads as its context
        seen = []
        conv2_backward = br.conv2.backward
        monkeypatch.setattr(br.conv2, "backward", lambda dy, taps, c: seen.append(c[0]) or conv2_backward(dy, taps, c))
        layer.backward(np.ones_like(x), ctx)
        assert len(seen) == 1 and seen[0] is mask_source

    def test_training_branch_holds_only_its_input_per_point(self, small_fov):
        # BN's map folds into the flatten and the layerscale into conv2, so
        # the input, which BN keeps and the flatten reads, is the only N x F array
        layer, x, projections = self._layer_and_inputs(small_fov, seed=4)
        _, ctx = layer.forward(x, projections, training=True)
        proj = projections[(0, 1)]
        assert x.shape[0] not in (proj.n_occupied + 1, proj.dilated_cells.size + 1)
        rows = list({id(a): a for _, a in held(ctx) if a.shape == x.shape}.values())
        bn_ctx = ctx[0][1]
        assert len(rows) == 1 and rows[0] is bn_ctx[0] is x

    def test_matches_naive_recomposition_bitwise(self, small_fov):
        # the unfused oracle on the rows of O and D equals the dense grid bit
        # for bit; the folded eval matches it within FOLD_TOL
        layer, x, projections = self._layer_and_inputs(small_fov, seed=3)
        out, _ = layer.forward(x, projections, training=False)
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


def dense_token_layer(layer, x, projections, dy):
    """``TokenMixLayer`` training forward with every branch on the dense grid, and its backward.

    Each branch's own ``BatchNorm`` gives the map that the flatten applies
    to ``x``, and the layerscale scales conv2's kernel and bias, as
    the layer folds them; the gradient of the rows goes through that
    ``BatchNorm``'s backward.
    """
    total, dx, drows, grads = None, dy.copy(), [], []
    for axes, br in zip(layer.planes, layer.branches):
        bn_map, bn_ctx = br.bn.forward(x, True)
        out, backward = dense_branch(br, projections[axes], x, bn_map, br.layerscale.data.astype(np.float64))
        total = out if total is None else total + out
        dxb, rows, g = backward(dy)
        dx += br.bn.backward(dxb, bn_ctx)
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
        """(name, fov, rho, positions) of each case; every case runs all three planes."""
        rng = np.random.default_rng(40)
        fov = box_fov((5.0, 6.0, 4.0))
        corners = np.array([[a, b, c] for a in (0.1, 4.9) for b in (0.1, 5.9) for c in (0.1, 3.9)])
        edges = (corners[:, None, :] + corners[None, :, :]).reshape(-1, 3) / 2
        yield "edges and corners", fov, 1.0, np.concatenate([corners, edges, rng.uniform(0.2, 3.8, (4, 3))])
        yield "lone interior cell", fov, 1.0, np.array([[2.5, 3.5, 1.5]])
        yield "lone corner cell", fov, 1.0, np.array([[4.9, 0.1, 3.9]])
        yield "lidar-like", kitti_fov, 0.4, lidar_like_cloud(rng)

    def run_case(self, fov, rho, pts, dtype, seed):
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
        projections = {axes: build_projection(pts, PlaneSpec.from_fov(axes, fov, rho)) for axes in planes}
        x = rng.standard_normal((len(pts), width)).astype(dtype)
        dy = rng.standard_normal((len(pts), width)).astype(dtype)
        want_y, want_dx, want_rows, want_grads = dense_token_layer(layer, x, projections, dy)
        seen = []
        for proj in projections.values():
            proj.flatten_backward = lambda drows, f=proj.flatten_backward: seen.append(drows) or f(drows)
        store.zero_grad()
        y, ctx = layer.forward(x, projections, True)
        assert bitwise_equal(y, want_y)
        assert bitwise_equal(layer.backward(dy, ctx), want_dx)
        assert len(seen) == len(want_rows) == len(planes)
        for rows, want in zip(seen, want_rows):
            assert rows.dtype == dtype and bitwise_equal(rows, want)
        return layer, want_grads, projections

    def test_forward_and_grid_gradient_bitwise_float32(self, kitti_fov):
        for i, (_, fov, rho, pts) in enumerate(self.scenes(kitti_fov)):
            self.run_case(fov, rho, pts, np.float32, seed=50 + i)

    def test_float64_parameter_gradients(self, kitti_fov):
        shares = {}
        for i, (name, fov, rho, pts) in enumerate(self.scenes(kitti_fov)):
            layer, want_grads, projections = self.run_case(fov, rho, pts, np.float64, seed=60 + i)
            for br, (dk1, db1, dk2, db2) in zip(layer.branches, want_grads):
                for got, want in ((br.conv1.k.grad, dk1), (br.conv1.b.grad, db1), (br.conv2.k.grad, dk2), (br.conv2.b.grad, db2)):
                    assert got.dtype == np.float64
                    np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)
            shares[name] = projections[(0, 1)].dilated_cells.size / projections[(0, 1)].plane.n_cells
        # the LiDAR-like xy grid is sparse
        assert 0 < shares["lidar-like"] < 0.1


class TestChannelMix:
    def test_zero_layerscale_is_identity(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 6, np.random.default_rng(0))
        layer.layerscale.data[...] = 0.0
        x = np.random.default_rng(1).standard_normal((9, 6)).astype(np.float32)
        out, _ = layer.forward(x, training=False)
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
        out, _ = layer.forward(x, training=False)
        # hand computation: xb = x / sqrt(1 + 1e-5); relu zeroes the second
        # channel; mlp = [2 * xb0 + 0.1, -0.1]; out = x + 0.5 * mlp
        s = 1.0000049999875
        np.testing.assert_allclose(
            out, [[0.3 + 0.5 * (2 * 0.3 / s + 0.1), -0.4 + 0.5 * (-0.1)]], atol=1e-6
        )

    def test_training_forward_holds_one_point_array(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 6, np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((9, 6)).astype(np.float32)
        _, ctx = layer.forward(x, training=True)
        rows = list({id(a): a for _, a in held(ctx) if a.shape[0] == len(x)}.values())
        # the input, which BN's and lin1's contexts hold; backward rebuilds the ReLU output from it
        assert len(rows) == 1 and rows[0] is x
        bn_ctx, lin1_ctx, (w1, b1), lin2_ctx = ctx
        assert bn_ctx[0] is lin1_ctx[0] is x
        # lin1's folded weights, from which backward rebuilds the ReLU rows, and lin2's context without its input
        assert w1.shape == (6, 6) and b1.shape == (6,) and len(lin2_ctx) == 5
        assert held_arrays(layer) == []

    def test_column_independence_eval(self):
        store = ParamStore()
        layer = ChannelMixLayer(store, "cm", 4, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 4)).astype(np.float32)
        base, _ = layer.forward(x, training=False)
        x2 = x.copy()
        x2[4] += 1.0
        out, _ = layer.forward(x2, training=False)
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
        tokens, _ = model.embedding.forward(feats, nbr, training=False)
        want = model.classifier.forward(tokens)[0].T
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

    @pytest.mark.parametrize("mask", ["one_false", "short", "long"])
    def test_valid_must_be_all_true_with_one_entry_per_row(self, small_fov, mask):
        model = WaffleIron(tiny_config(small_fov), np.random.default_rng(0))
        feats, nbr, proj, valid = prepare_inputs(model, build_scene(small_fov, n=20, seed=0))
        assert valid.shape == (20,) and valid.all()
        bad = {"one_false": np.arange(20) != 7, "short": valid[:19], "long": np.ones(21, dtype=bool)}[mask]
        with pytest.raises(ValueError, match="valid must be all True with one entry per feature row"):
            model.forward(feats, nbr, proj, bad)


def held(value, path="model"):
    """(path, array) of every array that ``value`` reaches through lists, tuples and the attributes of layers.

    Parameters live in a ``ParamStore``, which is not walked, so from a model these are the arrays of the
    contexts it holds from a training forward to its backward, and any array a layer keeps itself;
    from a context, the arrays it holds.
    """
    if isinstance(value, np.ndarray):
        return [(path, value)]
    if isinstance(value, (list, tuple)):
        return [h for i, item in enumerate(value) for h in held(item, f"{path}[{i}]")]
    if type(value).__module__ in ("waffleiron.backbone", "waffleiron.nn") and hasattr(value, "__dict__"):
        return [h for name, item in vars(value).items() for h in held(item, f"{path}.{name}")]
    return []


def held_arrays(value):
    """Paths of the arrays that ``value`` reaches, as :func:`held`."""
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
            # a linear layer's forward returns its output and its context; a batch norm's returns only the map
            # its consumer folds and the context, no rows
            if name == "PointwiseLinear.forward":
                arrays["out"] = out[0]
            elif name != "BatchNorm.forward":
                arrays["out"] = out
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
        # 3 layers x 3 planes x (flatten, 2 conv inputs and outputs, inflate) forward and backward, and forward
        # again for the 2 token layers of the first of the two segments of 3 kept layers, which backward re-runs
        assert grid_rows == 3 * 3 * 2 * 6 + 2 * 3 * 6


class TestNoGradForward:
    def test_keeps_no_cache_and_matches_caching_eval(self, small_fov, monkeypatch):
        # momentum 1: the training forward leaves the running
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
            # the embedding's context, one segment input and the contexts of the last segment's three
            # layers: 53 arrays with three planes per token layer, 39 with one
            assert len(held_arrays(model)) > 35
            logits = model.forward(feats, nbr, proj, valid, training=False)
            assert held_arrays(model) == []
            oracle = unfused_eval(model, feats, nbr, proj)
            np.testing.assert_allclose(cached, oracle, atol=FOLD_TOL)
            np.testing.assert_allclose(logits, oracle, atol=FOLD_TOL)
            with pytest.raises(RuntimeError):
                model.backward(np.ones_like(logits))


class TestRowBlocks:
    """Blocks of ``ROW_BLOCK`` rows against one block, at width 64: outputs and every gradient, bit for bit."""

    @staticmethod
    def outputs(store, forward, training, backward):
        y, ctx = forward
        if not training:
            return (y,)
        dx = backward(np.random.default_rng(9).standard_normal(y.shape).astype(np.float32), ctx)
        return (y, dx, *(t.grad for _, t in store.trainable_items()))

    @pytest.mark.parametrize("n", BLOCKED_ROWS)
    @pytest.mark.parametrize("training", [True, False])
    def test_row_block_channel_mix_equals_one_block_bitwise(self, monkeypatch, n, training):
        def run():
            store = ParamStore()
            layer = ChannelMixLayer(store, "cm", 64, np.random.default_rng(n))
            perturb_eval_state(store, np.random.default_rng(n + 1))
            x = np.random.default_rng(n + 2).standard_normal((n, 64)).astype(np.float32)
            return self.outputs(store, layer.forward(x, training, 1.25), training, layer.backward)

        blocked, whole, rows = blocked_and_whole(monkeypatch, run)
        assert_same_bits(blocked, whole)
        # lin1 and lin2 in each of two blocks, and in training lin1 again in each block of backward
        assert len(rows) == (6 if training else 4) and min(rows) >= ROW_BLOCK, rows

    @pytest.mark.parametrize("n", BLOCKED_ROWS)
    @pytest.mark.parametrize("training", [True, False])
    def test_row_block_embedding_equals_one_block_bitwise(self, monkeypatch, n, training):
        def run():
            store = ParamStore()
            emb = EmbeddingLayer(store, "embed", 5, 64, np.random.default_rng(n))
            perturb_eval_state(store, np.random.default_rng(n + 1))
            rng = np.random.default_rng(n + 2)
            feats = rng.standard_normal((n, 5)).astype(np.float32)
            nbr = (np.arange(n)[:, None] + rng.integers(1, n, size=(n, 8))) % n
            return self.outputs(store, emb.forward(feats, nbr, training), training, emb.backward)

        blocked, whole, rows = blocked_and_whole(monkeypatch, run)
        assert_same_bits(blocked, whole)
        # the global half and merge in each of two blocks
        assert len(rows) == 4 and min(rows) >= ROW_BLOCK, rows


class TestEvalMemory:
    """An eval forward's peak is two N x F arrays plus block buffers, at any depth and width."""

    N, K = 4096, 8
    ROW_BLOCK, LOCAL_BLOCK = 128, 64

    def eval_peak(self, fov, depth, width):
        """Peak traced bytes of one eval forward above its prepared inputs, and the projections."""
        model = WaffleIron(tiny_config(fov, depth=depth, width=width, k=self.K), np.random.default_rng(40))
        inputs = prepare_inputs(model, build_scene(fov, n=self.N, seed=41))
        model.forward(*inputs)  # first calls allocate numpy's and Python's lazy caches
        tracemalloc.start()
        try:
            model.forward(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, inputs[2]

    # at width 64 an N x 64 float64 copy of the flatten's input would alone take 2·N·F·4 bytes
    @pytest.mark.parametrize("f", [256, 64])
    def test_eval_peak_is_two_point_arrays_plus_block_buffers(self, small_fov, monkeypatch, f):
        monkeypatch.setattr(nn, "_ROW_BLOCK", self.ROW_BLOCK)
        monkeypatch.setattr(backbone, "_LOCAL_BLOCK", self.LOCAL_BLOCK)
        n = self.N
        peak3, projections = self.eval_peak(small_fov, 3, f)
        peak6, _ = self.eval_peak(small_fov, 6, f)
        grid_rows = max(p.dilated_cells.size for p in projections.values()) + 1
        # a plane's float64 cell sums or its grid rows, and the larger of two buffers that never coexist
        buffers = grid_rows * f * 8 + max(
            (2 * self.ROW_BLOCK - 1) * f * 4 + 2 * f * f * 4,  # a channel layer's hidden row block and folded weights
            (2 * self.ROW_BLOCK - 1) * f * 8,  # a flatten's longest row block of its input, in float64
        )
        # a kept N x F hidden array, or the embedding's concatenation, adds n * f * 4
        assert buffers < n * f * 4 / 2
        assert peak3 <= 2 * n * f * 4 + buffers, (peak3 - 2 * n * f * 4, buffers)
        # nothing that an eval forward makes outlives its layer
        assert abs(peak6 - peak3) < 4096, (peak3, peak6)


class TestTrainingMemory:
    """A training forward keeps the input of each segment but the last and the last segment's contexts.

    Its backward adds about three N x F arrays plus buffers, also while it re-runs an earlier segment.
    """

    N, WIDTH, K = 4096, 256, 8
    ROW_BLOCK, LOCAL_BLOCK = 128, 64

    def step_bytes(self, fov, depth):
        """Traced bytes that one training forward keeps, its backward's peak above them, and the projections."""
        model = WaffleIron(tiny_config(fov, depth=depth, width=self.WIDTH, k=self.K), np.random.default_rng(40))
        pc = build_scene(fov, n=self.N, seed=41)
        inputs = prepare_inputs(model, pc)
        dlogits = segmentation_loss(model.forward(*inputs, training=True), pc.labels, pc.valid)[1]
        model.backward(dlogits)  # first calls allocate numpy's and Python's lazy caches
        tracemalloc.start()
        try:
            model.forward(*inputs, training=True)
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.backward(dlogits)
            peak = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        return kept, peak, inputs[2]

    def test_kept_segments_and_backward_peak(self, small_fov, monkeypatch):
        monkeypatch.setattr(nn, "_ROW_BLOCK", self.ROW_BLOCK)
        monkeypatch.setattr(backbone, "_LOCAL_BLOCK", self.LOCAL_BLOCK)
        n, f = self.N, self.WIDTH
        # without mixing layers the classifier's input is the embedding's output, the first segment's input
        kept0 = self.step_bytes(small_fov, 0)[0]
        # L = 6 kept layers make 2 segments of s = 3; L = 12 make 3 of s = 4
        kept3, peak3, projections = self.step_bytes(small_fov, 3)
        kept6, peak6, _ = self.step_bytes(small_fov, 6)
        # per layer of the last segment its input, lin1's folded weights and per-channel vectors, and once
        # per plane its flatten rows and ReLU rows
        grid_rows = sum(p.n_occupied + p.dilated_cells.size + 2 for p in projections.values())
        extras = f * f * 4 + 32 * f * 8
        # so that keeping one more layer's input breaks the bound
        assert 4 * extras + grid_rows * f * 4 < n * f * 4
        for kept, segments, size in ((kept3, 2, 3), (kept6, 3, 4)):
            bound = (segments - 1 + size) * n * f * 4 + size * extras + grid_rows * f * 4
            assert kept - kept0 <= bound, (kept - kept0, bound)
        buffers = (
            3 * f * f * 8  # a linear layer's folded weights and their float64 adjoint
            + 2 * self.ROW_BLOCK * f * 8  # a row block of float64 products or of a temporary
            + (max(p.dilated_cells.size for p in projections.values()) + 1) * f * 8  # a plane's float64 cell sums
        )
        # so that one more N x F array breaks the bound
        assert buffers < n * f * 4
        # the incoming gradient and two arrays of a layer's own (the rebuilt ReLU rows and their gradient,
        # say) beside the contexts not yet consumed; the classifier's input is gone before the first of them,
        # and a re-run segment's contexts take the place of the last segment's, which are gone before it
        for peak in (peak3, peak6):
            assert peak <= (3 - 1) * n * f * 4 + buffers, (peak - 2 * n * f * 4, buffers)
        # and the same at any depth
        assert abs(peak6 - peak3) < 16384, (peak3, peak6)


class TestSegments:
    """Segmented training equals the unsegmented oracle bit for bit: gradients, running statistics, an AdamW step."""

    @staticmethod
    def model(fov, depth, drop):
        cfg = tiny_config(fov, depth=depth, width=8, k=4, drop=drop, strategy="parallel" if depth % 3 else "baseline")
        model = WaffleIron(cfg, np.random.default_rng(130))
        perturb_eval_state(model.store, np.random.default_rng(131))
        return model

    @staticmethod
    def drop_seed(depth, drop, layers):
        """A generator seed whose draws keep exactly ``layers`` of the ``2 * depth`` mixing layers."""
        return next(seed for seed in range(1000) if (np.random.default_rng(seed).random(2 * depth) >= drop).sum() == layers)

    @pytest.mark.parametrize(
        "depth, drop, layers",
        # L kept layers: without stochastic depth L = 2 * depth; 12 and 11 are not squares
        [(0, 0.0, 0), (1, 0.0, 2), (6, 0.0, 12), (1, 0.5, 0), (1, 0.5, 1), (2, 0.5, 2), (3, 0.3, 5), (6, 0.3, 11)],
    )
    def test_matches_unsegmented_oracle_bit_for_bit(self, small_fov, depth, drop, layers):
        model = self.model(small_fov, depth, drop)
        oracle = copy.deepcopy(model)
        pc = build_scene(small_fov, n=60, seed=132)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        seed = self.drop_seed(depth, drop, layers) if drop else None

        def rng():
            return None if seed is None else np.random.default_rng(seed)

        want = unsegmented_step(oracle, feats, nbr, proj, pc.labels, rng())
        logits = model.forward(feats, nbr, proj, valid, training=True, drop_rng=rng())
        loss, dlogits, _ = segmentation_loss(logits, pc.labels, valid)
        model.backward(dlogits)
        assert loss == want
        # gradients and running statistics, then the parameters after a step
        same_bits(oracle.store, model.store, "store")
        for m in (oracle, model):
            AdamW(m.store).step()
        same_bits(oracle.store, model.store, "store")
        assert any(t.grad.any() for _, t in model.store.trainable_items())

    def test_running_statistics_move_once_per_forward_and_backward(self, small_fov, monkeypatch):
        # L = 12 kept layers in 3 segments of 4: backward re-runs the batch norms of the first 8
        model = self.model(small_fov, 6, 0.0)
        pc = build_scene(small_fov, n=60, seed=133)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        calls = []
        forward = BatchNorm.forward

        def counting(bn, x, training=True):
            calls.append(training)
            return forward(bn, x, training)

        monkeypatch.setattr(BatchNorm, "forward", counting)
        before = store_bits(model.store)
        logits = model.forward(feats, nbr, proj, valid, training=True)
        after_forward = store_bits(model.store)
        model.backward(segmentation_loss(logits, pc.labels, valid)[1])
        # the embedding's and one per layer forward, and again the first 8 layers' in backward
        assert calls == [True] * (1 + 12 + 8)
        for name, (data, _) in store_bits(model.store).items():
            if name.endswith(("running_mean", "running_var")):
                assert not bitwise_equal(before[name][0], data), name
                assert bitwise_equal(after_forward[name][0], data), name


def same_bits(before, after, path, grads=True):
    """``after`` holds bit for bit what the deep copy ``before`` holds: arrays, containers and object attributes.

    A ``Tensor``'s gradient is compared too unless ``grads`` is false.
    """
    if isinstance(before, np.ndarray):
        assert bitwise_equal(before, after), path
    elif isinstance(before, dict):
        assert before.keys() == after.keys(), path
        for key in before:
            same_bits(before[key], after[key], f"{path}[{key!r}]", grads)
    elif isinstance(before, (list, tuple)):
        assert len(before) == len(after), path
        for i, (a, b) in enumerate(zip(before, after)):
            same_bits(a, b, f"{path}[{i}]", grads)
    elif isinstance(before, nn.Tensor):
        same_bits(before.data, after.data, path)
        if grads:
            same_bits(before.grad, after.grad, f"{path}.grad")
    elif hasattr(before, "__dict__"):
        same_bits(vars(before), vars(after), path, grads)
    else:
        assert before == after, path


def call_leaving_arguments(method, *args, context_last=False, **kwargs):
    """``method(*args, **kwargs)``, after which every argument must equal a copy taken before the call.

    With ``context_last`` the last argument is a context for backward: the parameters it holds (a folded
    layerscale) accumulate their gradients, so only their data must stay; every other argument is compared whole.
    """
    before = copy.deepcopy((args, kwargs))
    out = method(*args, **kwargs)
    if context_last:
        same_bits(before[1], kwargs, method.__qualname__)
        same_bits(before[0][:-1], args[:-1], method.__qualname__)
        same_bits(before[0][-1], args[-1], f"{method.__qualname__} context", grads=False)
    else:
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
        projections = {axes: build_projection(pc.positions, PlaneSpec.from_fov(axes, fov, 0.8)) for axes in self.PLANES}
        neighbors = (np.arange(self.N)[:, None] + np.arange(1, self.K + 1)) % self.N
        x = rng.standard_normal((self.N, self.WIDTH)).astype(dtype)
        proj = projections[(0, 1)]
        feats = backbone.point_features(pc.positions, pc.intensity, "5dim")
        yield EmbeddingLayer(store, "embed", 5, self.WIDTH, rng), (feats.astype(dtype), neighbors), {}, ()
        yield TokenMixLayer(store, "tm", self.PLANES, self.WIDTH, rng), (x, projections), {"factor": 1.25}, ()
        yield ChannelMixLayer(store, "cm", self.WIDTH, rng), (x,), {"factor": 1.25}, ()
        yield BatchNorm(store, "bn", self.WIDTH), (x,), {}, ()
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
        # the context is an argument of backward too
        rng = np.random.default_rng(82)
        for layer, args, kwargs, backward_args in self.cases(small_fov, dtype):
            if isinstance(layer, DepthwiseConv3x3):
                # the conv has one mode and returns only its output: its context is its arguments
                out = call_leaving_arguments(layer.forward, *args, **kwargs)
                ctx = (*args, kwargs.get("scale"), kwargs.get("factor", 1.0))
            else:
                call_leaving_arguments(layer.forward, *args, training=False, **kwargs)
                out, ctx = call_leaving_arguments(layer.forward, *args, training=True, **kwargs)
            # a batch norm returns only the map its consumer folds; its gradient has the input's shape
            out = args[0] if isinstance(layer, BatchNorm) else out
            dy = rng.standard_normal(out.shape).astype(dtype)
            if isinstance(layer, DepthwiseConv3x3):
                dy[-1] = 0.0
            call_leaving_arguments(layer.backward, dy, *backward_args, ctx, context_last=True)


class TestContexts:
    """Layers keep nothing: each training forward returns a context of its own, and backward reads only that."""

    WIDTH, K = 6, 4
    PLANES = ((0, 1), (0, 2), (1, 2))

    def cases(self, fov):
        """(name, store, forward, backward, inputs) of each layer, on two clouds of different sizes.

        ``forward(*args)`` is a training forward that returns ``(output, context)``, ``backward(dy, context)``
        returns the input gradient, and ``inputs`` holds ``(args, dy)`` for each cloud.
        """
        rng = np.random.default_rng(110)
        clouds = [build_scene(fov, n=n, seed=n) for n in (30, 26)]
        projections = [
            {axes: build_projection(pc.positions, PlaneSpec.from_fov(axes, fov, 0.8)) for axes in self.PLANES}
            for pc in clouds
        ]
        xs = [rng.standard_normal((pc.n_points, self.WIDTH)).astype(np.float32) for pc in clouds]

        def noise(rows, width=self.WIDTH):
            return rng.standard_normal((rows, width)).astype(np.float32)

        store = ParamStore()
        bn = BatchNorm(store, "bn", self.WIDTH)
        perturb_eval_state(store, rng)
        yield "bn", store, bn.forward, bn.backward, [((x,), noise(len(x))) for x in xs]

        store = ParamStore()
        lin = PointwiseLinear(store, "lin", self.WIDTH, 4, rng)
        scale = store.register("scale", rng.uniform(0.5, 1.5, 4).astype(np.float32))
        affines = [(rng.uniform(0.5, 1.5, self.WIDTH), rng.standard_normal(self.WIDTH)) for _ in xs]
        yield ("linear", store, lambda x, affine: lin.forward(x, True, affine, scale, 1.25), lin.backward,
               [((x, affine), noise(len(x), 4)) for x, affine in zip(xs, affines)])

        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", self.WIDTH, rng)
        scale = store.register("scale", rng.uniform(0.5, 1.5, self.WIDTH).astype(np.float32))

        def conv_forward(rows, proj):
            # the conv returns only its output: its context is its arguments, here with the backward's table
            return conv.forward(rows, proj.d_from_o, scale, 1.25), ((rows, proj.d_from_o, scale, 1.25), proj.o_from_d)

        def conv_backward(dy, ctx):
            return conv.backward(dy, ctx[1], ctx[0])

        conv_inputs = []
        for x, p in zip(xs, projections):
            proj = p[(0, 1)]
            dy = noise(proj.d_from_o.shape[0] + 1)
            dy[-1] = 0.0
            conv_inputs.append(((proj.flatten(x), proj), dy))
        yield "conv", store, conv_forward, conv_backward, conv_inputs

        store = ParamStore()
        emb = EmbeddingLayer(store, "embed", 5, self.WIDTH, rng)
        perturb_eval_state(store, rng)
        emb_inputs = []
        for pc in clouds:
            feats = backbone.point_features(pc.positions, pc.intensity, "5dim")
            neighbors = (np.arange(pc.n_points)[:, None] + np.arange(1, self.K + 1)) % pc.n_points
            emb_inputs.append(((feats, neighbors), noise(pc.n_points)))
        yield "embedding", store, lambda f, nbr: emb.forward(f, nbr, True), emb.backward, emb_inputs

        store = ParamStore()
        token = TokenMixLayer(store, "tm", self.PLANES, self.WIDTH, rng)
        perturb_eval_state(store, rng)
        yield ("token", store, lambda x, p: token.forward(x, p, True, 1.25), token.backward,
               [((x, p), noise(len(x))) for x, p in zip(xs, projections)])

        store = ParamStore()
        channel = ChannelMixLayer(store, "cm", self.WIDTH, rng)
        perturb_eval_state(store, rng)
        yield ("channel", store, lambda x: channel.forward(x, True, 1.25), channel.backward,
               [((x,), noise(len(x))) for x in xs])

    def test_interleaved_contexts_give_each_input_its_own_gradients(self, small_fov):
        # forwards on A and B, then backward B and backward A, equal A's forward and backward followed by B's
        names = []
        for name, store, forward, backward, inputs in self.cases(small_fov):
            names.append(name)

            def results(out, dy, ctx):
                store.zero_grad()
                dx = backward(dy, ctx)
                outs = out if isinstance(out, tuple) else (out,)
                return [*outs, dx, *(t.grad.copy() for _, t in store.trainable_items())]

            want = []
            for args, dy in inputs:
                out, ctx = forward(*args)
                want.append(results(out, dy, ctx))
            (out_a, ctx_a), (out_b, ctx_b) = (forward(*args) for args, _ in inputs)
            got_b = results(out_b, inputs[1][1], ctx_b)
            got_a = results(out_a, inputs[0][1], ctx_a)
            for expected, got in zip(want, (got_a, got_b)):
                assert len(got) == len(expected) > 2, name
                for i, (a, b) in enumerate(zip(expected, got)):
                    assert bitwise_equal(a, b), (name, i)
        assert names == ["bn", "linear", "conv", "embedding", "token", "channel"]

    @pytest.mark.parametrize("drop", [0.0, 0.5])
    @pytest.mark.parametrize("depth", [3, 6])
    def test_training_forward_keeps_each_point_array_once(self, small_fov, depth, drop):
        # the distinct N x F float arrays that backward reads: the input of each segment of s = ceil(sqrt(L))
        # kept layers but the last, the input of each layer of the last segment (s layers, counted from the
        # output), the embedding's merge input and the classifier's input
        cfg = tiny_config(small_fov, depth=depth, width=8, k=4, drop=drop)
        model = WaffleIron(cfg, np.random.default_rng(120))
        pc = build_scene(small_fov, n=50, seed=121)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        n, f = pc.n_points, cfg.width
        assert all(n not in (p.n_occupied + 1, p.dilated_cells.size + 1) for p in proj.values())
        # one draw before each token and each channel layer, as in the forward
        kept = np.random.default_rng(5).random(2 * depth) >= drop
        tokens, channels = int(kept[0::2].sum()), int(kept[1::2].sum())
        assert drop == 0.0 or 0 < tokens + channels < 2 * depth
        logits = model.forward(feats, nbr, proj, valid, training=True, drop_rng=np.random.default_rng(5))
        layers = tokens + channels
        size = math.ceil(math.sqrt(layers))
        rows = {id(a) for _, a in held(model) if a.shape == (n, f) and a.dtype.kind == "f"}
        assert len(rows) == math.ceil(layers / size) - 1 + size + 2
        model.backward(segmentation_loss(logits, pc.labels, valid)[1])
        assert held_arrays(model) == []


class TestResidualBackward:
    """The input gradient is ``dy + branch gradient`` in the tokens' float32, bit for bit."""

    N, WIDTH, FACTOR = 30, 6, 1.25

    def inputs(self, fov):
        rng = np.random.default_rng(90)
        pc = build_scene(fov, n=self.N, seed=91)
        x = rng.standard_normal((self.N, self.WIDTH)).astype(np.float32)
        return pc, x, rng.standard_normal((self.N, self.WIDTH)).astype(np.float32)

    def test_channel_mix(self, small_fov):
        _, x, dy = self.inputs(small_fov)
        layer = ChannelMixLayer(ParamStore(), "cm", self.WIDTH, np.random.default_rng(92))
        _, ctx = layer.forward(x, training=True, factor=self.FACTOR)
        dx = layer.backward(dy, ctx)
        bn_ctx, lin1_ctx, (w1, b1), lin2_ctx = ctx
        # the factor and layerscale are folded into lin2, which takes dy as it is; its input is the ReLU output,
        # rebuilt from the layer's input and lin1's folded weights
        r = relu(x @ w1.T + b1)
        dr = layer.lin2.backward(dy, (r, *lin2_ctx))
        branch = layer.bn.backward(layer.lin1.backward(relu_backward(dr, r), lin1_ctx), bn_ctx)
        assert dx.dtype == np.float32 and bitwise_equal(dx, dy + branch)

    def test_token_mix_three_planes(self, small_fov):
        pc, x, dy = self.inputs(small_fov)
        planes = ((0, 1), (0, 2), (1, 2))
        projections = {axes: build_projection(pc.positions, PlaneSpec.from_fov(axes, small_fov, 0.8)) for axes in planes}
        layer = TokenMixLayer(ParamStore(), "tm", planes, self.WIDTH, np.random.default_rng(93))
        _, ctx = layer.forward(x, projections, training=True, factor=self.FACTOR)
        dx = layer.backward(dy, ctx)
        # the factor and layerscale are folded into conv2, so each branch takes dy as it is
        grads = [br.backward(dy, branch_ctx) for br, branch_ctx in zip(layer.branches, ctx)]
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


def perturbed_model(fov, strategy, dtype, drop):
    """A depth-3 width-8 model with perturbed statistics, gammas, betas, layerscales and biases, in ``dtype``."""
    cfg = tiny_config(fov, depth=3, width=8, k=4, drop=drop, strategy=strategy)
    model = WaffleIron(cfg, np.random.default_rng(100))
    perturb_eval_state(model.store, np.random.default_rng(101))
    rng = np.random.default_rng(102)
    for name, t in model.store.items():
        if name.endswith("bias"):
            t.data[...] = 0.1 * rng.standard_normal(t.shape)
    if dtype == np.float64:
        promote_to_float64(model.store)
    return model


class TestFoldedEval:
    """The eval forward folds BN and layerscale into the adjacent weights; the unfused oracle runs them as passes."""

    @pytest.mark.parametrize("strategy", ["baseline", "parallel"])
    def test_matches_unfused_oracle_and_leaves_the_store(self, small_fov, strategy):
        cfg = tiny_config(small_fov, depth=3, width=16, k=4, drop=0.3, strategy=strategy)
        model = WaffleIron(cfg, np.random.default_rng(100))
        perturb_eval_state(model.store, np.random.default_rng(101))
        pc = build_scene(small_fov, n=90, seed=102).select(np.arange(78))
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

    def model_and_inputs(self, fov, strategy, dtype, drop=0.5):
        model = perturbed_model(fov, strategy, dtype, drop)
        pc = build_scene(fov, n=90, seed=102).select(np.arange(78))
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        return model, (feats.astype(dtype), nbr, proj, valid), pc.labels

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("strategy", ["baseline", "parallel"])
    def test_parameter_gradients_match_unfused_oracle(self, small_fov, strategy, dtype):
        model, inputs, labels = self.model_and_inputs(small_fov, strategy, dtype)
        # drop_prob 0.5 with this generator drops some layers and scales the kept ones by 2
        want_loss, want = unfused_training(model, *inputs[:3], labels, drop_rng=np.random.default_rng(3))
        logits = model.forward(*inputs, training=True, drop_rng=np.random.default_rng(3))
        loss, dlogits, _ = segmentation_loss(logits, labels, inputs[3])
        model.backward(dlogits)
        tol = dict(rtol=1e-10, atol=0) if dtype == np.float64 else dict(rtol=1e-5, atol=self.ATOL32)
        np.testing.assert_allclose(loss, want_loss, **tol)
        dropped = [name for name, g in want.items() if not g.any()]
        assert 0 < len(dropped) < len(want)
        for name, t in model.store.trainable_items():
            np.testing.assert_allclose(t.grad, want[name], err_msg=name, **tol)

    @pytest.mark.parametrize("drop", [0.0, 0.5])
    @pytest.mark.parametrize("strategy", ["baseline", "parallel"])
    def test_training_logits_equal_eval_logits_at_momentum_1(self, small_fov, monkeypatch, strategy, drop):
        # momentum 1 leaves the running statistics equal to the batch statistics the training forward maps by,
        # so the eval forward runs the same data path on the same maps; the gammas and betas are perturbed
        monkeypatch.setattr(nn, "BN_MOMENTUM", 1.0)
        model, inputs, _ = self.model_and_inputs(small_fov, strategy, np.float32, drop)
        assert inputs[0].dtype == np.float32
        rng = (lambda: np.random.default_rng(3)) if drop else (lambda: None)
        trained = model.forward(*inputs, training=True, drop_rng=rng())
        evaluated = model.forward(*inputs, training=False, drop_rng=rng())
        assert trained.dtype == evaluated.dtype and trained.tobytes() == evaluated.tobytes()

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
        projections = model.build_projections(pc.positions)
        want = tuple(dict.fromkeys(axes for token, _ in model.layers for axes in token.planes))
        assert tuple(projections) == want
        if depth == 48:
            assert want == self.FIRST_USE_48[strategy]
        for axes, proj in projections.items():
            assert proj.plane == PlaneSpec.from_fov(axes, cfg.fov, cfg.rho)
