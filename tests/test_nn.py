"""Layer forward passes against naive oracles, backward passes against
central finite differences."""

import numpy as np
import pytest

from waffleiron.backbone import ChannelMixLayer, TokenMixLayer
from waffleiron.nn import (
    BatchNorm,
    DepthwiseConv3x3,
    ParamStore,
    PointwiseLinear,
    _FLIPPED_TAPS,
    _TAPS,
    _tap_sum,
    fold,
    fold_adjoint,
    slot_max,
)

from oracles import (
    bn_backward_masked,
    bn_eval,
    grad_check,
    neighborhood_max,
    neighborhood_max_backward,
    relu,
    relu_backward,
    slot_max_where,
    tap_sum_unblocked,
)

SEEDS = (0, 1, 2, 3, 4)


def check_layer(build, seeds=SEEDS, eps=1e-3, threshold=1e-4):
    """Run grad_check over several seeds, asserting the worst error."""
    worst = 0.0
    for seed in seeds:
        store = ParamStore()
        loss_fn = build(store, np.random.default_rng(seed))
        worst = max(worst, grad_check(loss_fn, store, eps))
    assert worst < threshold, f"max relative gradient error {worst}"
    return worst


def bn_apply(bn, x, valid=None, training=True):
    """The normalized ``x``: ``scale * rows + shift`` of what ``bn.forward`` returns, composed here."""
    rows, scale, shift = bn.forward(x, valid, training)
    return scale * rows + shift


class TestPointwiseLinear:
    def test_identity_weights(self):
        store = ParamStore()
        lin = PointwiseLinear(store, "lin", 3, 3, np.random.default_rng(0))
        lin.w.data[...] = np.eye(3)
        lin.b.data[...] = 0
        x = np.random.default_rng(1).standard_normal((9, 3)).astype(np.float32)
        np.testing.assert_array_equal(lin.forward(x), x)

    def test_basis_column_reads_weight_column(self):
        store = ParamStore()
        lin = PointwiseLinear(store, "lin", 4, 5, np.random.default_rng(2))
        x = np.zeros((1, 4), dtype=np.float32)
        x[0, 2] = 1.0
        np.testing.assert_allclose(lin.forward(x)[0], lin.w.data[:, 2] + lin.b.data)

    def test_shape_mismatch(self):
        store = ParamStore()
        lin = PointwiseLinear(store, "lin", 4, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lin.forward(np.zeros((7, 3), dtype=np.float32))

    def test_gradients(self):
        def build(store, rng):
            lin = PointwiseLinear(store, "lin", 4, 5, rng)
            x = store.register("x", rng.standard_normal((7, 4)).astype(np.float32))
            r = rng.standard_normal((7, 5))

            def loss_fn(want_grad):
                y = lin.forward(x.data)
                if want_grad:
                    x.grad += lin.backward(r.astype(y.dtype))
                return float((y * r).sum())

            return loss_fn

        check_layer(build)

    def test_backward_casts_to_the_input_dtype(self):
        # the classifier's case: the loss hands a float64 gradient to a float32 layer
        rng = np.random.default_rng(3)
        lin = PointwiseLinear(ParamStore(), "lin", 4, 5, rng)
        x = rng.standard_normal((7, 4)).astype(np.float32)
        dy = rng.standard_normal((5, 7)).T
        lin.forward(x)
        dx = lin.backward(dy)
        want = (dy @ fold(lin.w.data, lin.b.data, np.float64)[0]).astype(np.float32)
        assert dx.dtype == np.float32 and dx.tobytes() == want.tobytes()


class TestBatchNorm:
    def test_constant_channel_returns_shift(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 2)
        bn.beta.data[...] = [0.5, -1.0]
        x = np.full((6, 2), 3.0, dtype=np.float32)
        y = bn_apply(bn, x)
        np.testing.assert_allclose(y[:, 0], 0.5, atol=1e-6)
        np.testing.assert_allclose(y[:, 1], -1.0, atol=1e-6)

    def test_eval_identity_with_unit_stats(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 3)
        x = np.random.default_rng(0).standard_normal((20, 3)).astype(np.float32)
        y = bn_eval(bn, x)
        np.testing.assert_allclose(y, x, rtol=1e-4, atol=1e-5)
        rows, a, s = bn.forward(x, training=False)
        assert rows is x
        np.testing.assert_allclose(a, 1.0, rtol=1e-5)
        assert not s.any()

    def test_eval_forward_matches_unfused_eval(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm(ParamStore(), "bn", 4)
        bn.running_mean.data[...] = rng.standard_normal(4)
        bn.running_var.data[...] = rng.uniform(0.5, 2.0, 4)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, 4)
        bn.beta.data[...] = rng.standard_normal(4)
        x = rng.standard_normal((30, 4)).astype(np.float32)
        bn.forward(x)
        _, a, s = bn.forward(x, training=False)
        assert a.dtype == s.dtype == np.float64 and bn._cache is None
        np.testing.assert_allclose(a * x + s, bn_eval(bn, x), atol=1e-5)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        bn = BatchNorm(store, "bn", 3)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
        bn.beta.data[...] = rng.standard_normal(3)
        x = rng.standard_normal((50, 3)).astype(np.float32)
        y = bn_apply(bn, x)
        x64 = x.astype(np.float64)
        mean = x64.mean(axis=0)
        var = ((x64 - mean) ** 2).mean(axis=0)
        want = bn.gamma.data * (x64 - mean) / np.sqrt(var + 1e-5)
        want += bn.beta.data
        np.testing.assert_allclose(y, want, atol=1e-6)

    def test_normalizes_valid_columns_only(self):
        rng = np.random.default_rng(2)
        store = ParamStore()
        bn = BatchNorm(store, "bn", 4)
        x = rng.standard_normal((40, 4)).astype(np.float32)
        valid = np.ones(40, dtype=bool)
        valid[30:] = False
        x[30:] = 100.0  # junk that must not leak into the statistics
        y = bn_apply(bn, x, valid)
        yv = y[valid].astype(np.float64)
        assert np.abs(yv.mean(axis=0)).max() < 1e-5
        assert np.abs(yv.var(axis=0) - 1.0).max() < 1e-4

    def test_running_stats_update(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 1)
        x = np.full((10, 1), 2.0, dtype=np.float32)
        bn.forward(x)
        np.testing.assert_allclose(bn.running_mean.data, [0.2], atol=1e-7)

    def test_empty_batch_raises(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 2)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((4, 2), dtype=np.float32), valid=np.zeros(4, dtype=bool))

    # dy has the forward input's dtype; a float64 input may meet float32 parameters, not the reverse
    @pytest.mark.parametrize(
        "param_dtype, dtype",
        [(np.float32, np.float32), (np.float32, np.float64), (np.float64, np.float64)],
        ids=["float32", "float64-input", "float64"],
    )
    @pytest.mark.parametrize("n_padding", [0, 7])
    def test_backward_matches_masked_formula_bitwise(self, param_dtype, dtype, n_padding):
        rng = np.random.default_rng(8)
        store = ParamStore()
        bn = BatchNorm(store, "bn", 5)
        bn.gamma.data = rng.uniform(0.5, 1.5, 5).astype(param_dtype)
        bn.gamma.grad = np.zeros_like(bn.gamma.data)
        bn.beta.grad = np.zeros_like(bn.gamma.data)
        x = rng.standard_normal((40, 5)).astype(dtype)
        valid = np.arange(40) < 40 - n_padding
        dy = rng.standard_normal((40, 5)).astype(dtype)
        bn.forward(x, valid=valid)
        want_dx, want_dgamma, want_dbeta = bn_backward_masked(bn, dy)
        dx = bn.backward(dy)
        assert dx.dtype == want_dx.dtype and dx.tobytes() == want_dx.tobytes()
        for grad, want in ((bn.gamma.grad, want_dgamma), (bn.beta.grad, want_dbeta)):
            # both accumulate into the zeroed gradient buffer of the parameter's dtype
            accumulated = np.zeros_like(grad)
            accumulated += want
            assert grad.tobytes() == accumulated.tobytes()

    def test_gradients_train_mode(self):
        def build(store, rng):
            bn = BatchNorm(store, "bn", 3)
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
            bn.beta.data[...] = rng.standard_normal(3)
            x = store.register("x", rng.standard_normal((12, 3)).astype(np.float32))
            valid = np.ones(12, dtype=bool)
            valid[9:] = False
            r = rng.standard_normal((12, 3))
            r[9:] = 0.0  # padding rows never receive loss gradient

            def loss_fn(want_grad):
                y = bn_apply(bn, x.data, valid)
                if want_grad:
                    x.grad += bn.backward(r)
                return float((y * r).sum())

            return loss_fn

        check_layer(build)


def conv_oracle(x, kern, bias):
    """Six-loop depthwise 3x3 cross-correlation with zero padding."""
    f, h, w = x.shape
    xp = np.zeros((f, h + 2, w + 2), dtype=np.float64)
    xp[:, 1 : h + 1, 1 : w + 1] = x
    y = np.zeros((f, h, w), dtype=np.float64)
    for c in range(f):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for u in range(3):
                    for v in range(3):
                        acc += float(kern[c, u, v]) * xp[c, i + u, j + v]
                y[c, i, j] = acc + float(bias[c])
    return y


def to_rows(x):
    """An F x H x W grid as the (H * W + 1) x F rows of its cells in row-major order, the zero row last."""
    f = x.shape[0]
    return np.concatenate([x.reshape(f, -1).T, np.zeros((1, f), dtype=x.dtype)])


def to_grid(rows, shape):
    """(H * W + 1) x F rows as the F x H x W grid, after checking that they are C-contiguous and end in a zero row."""
    assert rows.flags.c_contiguous
    assert not rows[-1].any()
    return rows[:-1].T.reshape(shape)


# the conv reads its input rows by gather, so a strided block gives the same rows
ROW_LAYOUTS = (np.ascontiguousarray, np.asfortranarray)


def full_grid_taps(h, w):
    """Tap table of a whole H x W grid: cell i * W + j reads cell (i + u - 1, j + v - 1), or H * W past an edge."""
    padded = np.full((h + 2, w + 2), h * w, dtype=np.intp)
    padded[1 : h + 1, 1 : w + 1] = np.arange(h * w).reshape(h, w)
    i, j = np.divmod(np.arange(h * w), w)
    return np.stack([padded[i + u, j + v] for u in range(3) for v in range(3)], axis=1)


def grid_forward(conv, x, training=True, layout=np.ascontiguousarray, **scale):
    """The row conv evaluated on every cell of an F x H x W grid, returned as the grid; ``scale`` is passed on."""
    f, h, w = x.shape
    return to_grid(conv.forward(layout(to_rows(x)), full_grid_taps(h, w), training, **scale), x.shape)


def grid_backward(conv, dy, layout=np.ascontiguousarray):
    f, h, w = dy.shape
    return to_grid(conv.backward(layout(to_rows(dy)), full_grid_taps(h, w)), dy.shape)


def per_tap_forward(x, kern, bias):
    """The dense zero-padded conv forward of the whole grid: taps in (u, v) order from 0.0, bias last."""
    f, h, w = x.shape
    xp = np.zeros((f, h + 2, w + 2), dtype=x.dtype)
    xp[:, 1 : h + 1, 1 : w + 1] = x
    y = np.zeros((f, h, w), dtype=x.dtype)
    kern = kern.astype(x.dtype)
    for u in range(3):
        for v in range(3):
            y += kern[:, u, v][:, None, None] * xp[:, u : u + h, v : v + w]
    y += bias.astype(x.dtype)[:, None, None]
    return y


def per_tap_backward(x, dy, kern):
    """Dense gradients of :func:`per_tap_forward`: (dx in x's dtype, kernel grad, bias grad).

    dx adds ``kern[:, u, v] * dy`` at offset (1 - u, 1 - v) in (u, v) order, as
    the dense grid conv did.
    """
    f, h, w = dy.shape
    dyp = np.zeros((f, h + 2, w + 2), dtype=dy.dtype)
    dyp[:, 1 : h + 1, 1 : w + 1] = dy
    xp = np.zeros((f, h + 2, w + 2), dtype=x.dtype)
    xp[:, 1 : h + 1, 1 : w + 1] = x
    k = kern.astype(dy.dtype)
    dx = np.zeros((f, h, w), dtype=x.dtype)
    dk = np.zeros((f, 3, 3), dtype=np.result_type(dy, x))
    for u in range(3):
        for v in range(3):
            dx += k[:, u, v][:, None, None] * dyp[:, 2 - u : 2 - u + h, 2 - v : 2 - v + w]
            dk[:, u, v] = (dy * xp[:, u : u + h, v : v + w]).sum(axis=(1, 2))
    return dx, dk, dy.sum(axis=(1, 2))


class TestDepthwiseConv:
    def test_center_one_hot_is_identity(self):
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 2, np.random.default_rng(0))
        conv.k.data[...] = 0
        conv.k.data[:, 1, 1] = 1.0
        conv.b.data[...] = 0
        x = np.random.default_rng(1).standard_normal((2, 4, 5)).astype(np.float32)
        np.testing.assert_array_equal(grid_forward(conv, x), x)

    def test_ones_kernel_spreads_impulse(self):
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 1, np.random.default_rng(0))
        conv.k.data[...] = 1.0
        conv.b.data[...] = 0
        x = np.zeros((1, 5, 5), dtype=np.float32)
        x[0, 2, 2] = 1.0
        y = grid_forward(conv, x)
        assert (y[0, 1:4, 1:4] == 1.0).all()
        assert y.sum() == 9.0

    def test_matches_six_loop_oracle(self):
        rng = np.random.default_rng(2)
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 2, rng)
        x = rng.standard_normal((2, 5, 6)).astype(np.float32)
        for layout in ROW_LAYOUTS:
            y = grid_forward(conv, x, layout=layout)
            np.testing.assert_allclose(y, conv_oracle(x, conv.k.data, conv.b.data), atol=1e-6)
            assert np.array_equal(y, per_tap_forward(x, conv.k.data, conv.b.data))

    def test_channel_permutation_commutes(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 4, rng)
        x = rng.standard_normal((4, 6, 6)).astype(np.float32)
        perm = rng.permutation(4)
        store2 = ParamStore()
        conv2 = DepthwiseConv3x3(store2, "conv", 4, np.random.default_rng(0))
        conv2.k.data[...] = conv.k.data[perm]
        conv2.b.data[...] = conv.b.data[perm]
        for layout in ROW_LAYOUTS:
            y = grid_forward(conv, x, layout=layout)
            assert np.array_equal(y, per_tap_forward(x, conv.k.data, conv.b.data))
            np.testing.assert_array_equal(grid_forward(conv2, x[perm], layout=layout), y[perm])

    def test_large_grid_matches_per_tap_formulas(self):
        rng = np.random.default_rng(4)
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 5, rng)
        conv.b.data[...] = rng.standard_normal(5)
        x0 = rng.standard_normal((5, 181, 190)).astype(np.float32)
        dy0 = rng.standard_normal(x0.shape).astype(np.float32)
        f, h, w = x0.shape
        xp = np.zeros((f, h + 2, w + 2), dtype=np.float64)
        xp[:, 1 : h + 1, 1 : w + 1] = x0
        # parameter gradients in float64 for reference; the input gradient in float32, taps in (u, v) order
        want_k = np.stack([(dy0 * xp[:, u : u + h, v : v + w]).sum(axis=(1, 2)) for u in range(3) for v in range(3)], 1)
        dxp = np.zeros(xp.shape, dtype=np.float32)
        for u in range(3):
            for v in range(3):
                dxp[:, u : u + h, v : v + w] += conv.k.data[:, u, v][:, None, None] * dy0
        for layout in ROW_LAYOUTS:
            store.zero_grad()
            y = grid_forward(conv, x0, layout=layout)
            assert np.array_equal(y, per_tap_forward(x0, conv.k.data, conv.b.data))
            dx = grid_backward(conv, dy0, layout=layout)
            assert dx.dtype == np.float32
            assert np.array_equal(dx, dxp[:, 1 : h + 1, 1 : w + 1])
            assert np.array_equal(dx, per_tap_backward(x0, dy0, conv.k.data)[0])
            np.testing.assert_allclose(conv.k.grad.reshape(f, 9), want_k, rtol=1e-5, atol=1e-3)
            np.testing.assert_allclose(conv.b.grad, dy0.sum(axis=(1, 2), dtype=np.float64), rtol=1e-5, atol=1e-3)

    def test_gradients(self):
        for layout in ROW_LAYOUTS:

            def build(store, rng):
                conv = DepthwiseConv3x3(store, "conv", 2, rng)
                x = store.register("x", rng.standard_normal((2, 5, 6)).astype(np.float32))
                r = rng.standard_normal((2, 5, 6))

                def loss_fn(want_grad):
                    y = grid_forward(conv, x.data, layout=layout)
                    if want_grad:
                        x.grad += grid_backward(conv, r, layout=layout)
                    return float((y * r).sum())

                return loss_fn

            check_layer(build)

    @pytest.mark.parametrize("n_rows", [0, 1, 255, 257, 775])
    def test_tap_sum_blocks_equal_one_pass_bitwise(self, n_rows):
        rng = np.random.default_rng(n_rows)
        n_in, f = 300, 7
        src = np.vstack([rng.standard_normal((n_in, f)), np.zeros((1, f))]).astype(np.float32)
        taps = rng.integers(0, n_in + 1, size=(n_rows, 9))
        kern = rng.standard_normal((f, 9)).astype(np.float32)
        # forward and input-gradient taps, in float32 and in float64: the output takes the source's dtype
        for dtype in (np.float32, np.float64):
            for columns in (_TAPS, _FLIPPED_TAPS):
                x, w = src.astype(dtype), kern.astype(dtype)
                got = _tap_sum(x, taps, columns, w)
                assert got.shape == (n_rows + 1, f) and got.dtype == dtype and not got[-1].any()
                assert np.array_equal(got, tap_sum_unblocked(x, taps, columns, w))

    def test_rejects_bad_rows_and_tables(self):
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 2, np.random.default_rng(5))
        taps = full_grid_taps(3, 4)
        x = np.zeros((13, 2), dtype=np.float32)
        last_row_set = x.copy()
        last_row_set[-1] = 1.0
        with pytest.raises(ValueError):
            conv.forward(np.zeros((13, 3), dtype=np.float32), taps)
        with pytest.raises(ValueError):
            conv.forward(x, taps[:, :8])
        with pytest.raises(ValueError):
            conv.forward(x[:12], taps)  # the table reads row 12
        with pytest.raises(ValueError, match="zero row"):
            conv.forward(last_row_set, taps)
        conv.forward(x, taps)
        with pytest.raises(ValueError):
            conv.backward(np.zeros((12, 2), dtype=np.float32), taps)
        with pytest.raises(ValueError):
            conv.backward(np.zeros((13, 2), dtype=np.float32), taps[:11])
        with pytest.raises(ValueError, match="zero row"):
            conv.backward(last_row_set, taps)

    @pytest.mark.parametrize("dtype, dy_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_backward_rejects_a_gradient_of_another_dtype(self, dtype, dy_dtype):
        conv = DepthwiseConv3x3(ParamStore(), "conv", 2, np.random.default_rng(6))
        taps = full_grid_taps(3, 4)
        conv.forward(np.zeros((13, 2), dtype=dtype), taps)
        with pytest.raises(ValueError, match="gradient like the forward's input"):
            conv.backward(np.zeros((13, 2), dtype=dy_dtype), taps)
        assert not conv.k.grad.any() and not conv.b.grad.any()


class TestLayerScale:
    """A layerscale is the output scale ``factor * diag`` of the weights before it, folded in float64."""

    def layers(self, f=3):
        store = ParamStore()
        rng = np.random.default_rng(0)
        lin = PointwiseLinear(store, "lin", 4, f, rng)
        conv = DepthwiseConv3x3(store, "conv", f, rng)
        lin.b.data[...] = conv.b.data[...] = rng.standard_normal(f)
        diag = store.register("diag", np.ones(f, dtype=np.float32))
        x = rng.standard_normal((7, 4)).astype(np.float32)
        grid = rng.standard_normal((f, 4, 5)).astype(np.float32)
        return lin, conv, diag, x, grid

    def test_ones_is_identity(self):
        lin, conv, diag, x, grid = self.layers()
        assert np.array_equal(lin.forward(x, scale=diag), lin.forward(x))
        assert np.array_equal(grid_forward(conv, grid, scale=diag), grid_forward(conv, grid))

    def test_zeros_kill_the_branch(self):
        lin, conv, diag, x, grid = self.layers()
        diag.data[...] = 0.0
        assert not lin.forward(x, scale=diag).any()
        assert not grid_forward(conv, grid, scale=diag).any()

    def test_default_init(self):
        store = ParamStore()
        rng = np.random.default_rng(0)
        token = TokenMixLayer(store, "tm", ((0, 1), (0, 2)), 5, rng)
        channel = ChannelMixLayer(store, "cm", 5, rng)
        scales = [br.layerscale for br in token.branches] + [channel.layerscale]
        names = {name for name, t in store.items() if any(t is s for s in scales)}
        assert names == {"tm.plane_01.layerscale.diag", "tm.plane_02.layerscale.diag", "cm.layerscale.diag"}
        assert all(np.array_equal(t.data, np.full(5, 1e-2, dtype=np.float32)) for t in scales)

    def test_output_scale_is_float64_factor_times_diag(self):
        lin, conv, diag, x, grid = self.layers()
        diag.data[...] = [0.1, -0.2, 0.3]
        o = 1.25 * diag.data.astype(np.float64)
        w, b = fold(lin.w.data, lin.b.data, np.float32, out_scale=o)
        assert np.array_equal(lin.forward(x, scale=diag, factor=1.25), x @ w.T + b)
        k, kb = fold(conv.k.data.reshape(3, 9), conv.b.data, np.float32, out_scale=o)
        conv_o = DepthwiseConv3x3(ParamStore(), "conv", 3, None)
        conv_o.k.data[...], conv_o.b.data[...] = k.reshape(3, 3, 3), kb
        assert np.array_equal(grid_forward(conv, grid, scale=diag, factor=1.25), grid_forward(conv_o, grid))


class TestFold:
    def test_folded_linear_equals_the_composition(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        a, s, g = rng.uniform(0.5, 2.0, 4), rng.standard_normal(4), rng.uniform(-2.0, 2.0, 3)
        x = rng.standard_normal((6, 4))
        want = g * ((a * x + s) @ w.T.astype(np.float64) + b)
        wf, bf = fold(w, b, np.float64, a, s, g)
        np.testing.assert_allclose(x @ wf.T + bf, want, rtol=1e-12, atol=1e-12)
        w32, b32 = fold(w, b, np.float32, a, s, g)
        assert w32.dtype == b32.dtype == np.float32
        assert np.array_equal(w32, wf.astype(np.float32)) and np.array_equal(b32, bf.astype(np.float32))

    def test_identity_fold_returns_the_weights_and_copies(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((5, 9)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        wf, bf = fold(w, b, np.float32)
        assert np.array_equal(wf, w) and np.array_equal(bf, b)
        assert not np.shares_memory(wf, w) and not np.shares_memory(bf, b)

    def test_float32_affine_folds_in_float64(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((4, 6)).astype(np.float32)
        b, a, s = (rng.standard_normal(n).astype(np.float32) for n in (4, 6, 6))
        wf, bf = fold(w, b, np.float32, a, s)
        w64, b64 = fold(w, b, np.float64, a.astype(np.float64), s.astype(np.float64))
        assert np.array_equal(wf, w64.astype(np.float32)) and np.array_equal(bf, b64.astype(np.float32))

    def test_adjoint_gradients_in_every_fold_input(self):
        # loss <r, PointwiseLinear(x) folded with (a, s) and factor * o>: the
        # layer gives W, b and o; a and s follow from its gradient with
        # respect to a x + s. The map is multilinear, so central differences
        # in float64 are essentially exact.
        def build(store, rng):
            lin = PointwiseLinear(store, "lin", 4, 3, rng)
            lin.b.data[...] = rng.standard_normal(3)
            a = store.register("in_scale", rng.uniform(0.5, 1.5, 4).astype(np.float32))
            s = store.register("in_shift", rng.standard_normal(4).astype(np.float32))
            o = store.register("out_scale", rng.uniform(-1.5, 1.5, 3).astype(np.float32))
            x = store.register("x", rng.standard_normal((9, 4)).astype(np.float32))
            r = rng.standard_normal((9, 3))

            def loss_fn(want_grad):
                y = lin.forward(x.data, True, (a.data, s.data), o, 1.25)
                if want_grad:
                    dz = lin.backward(r)
                    a.grad += (dz * x.data).sum(axis=0)
                    s.grad += dz.sum(axis=0)
                    x.grad += dz * a.data
                return float((y * r).sum())

            return loss_fn

        check_layer(build, threshold=1e-8)

    def test_adjoint_gradients_of_a_scaled_conv(self):
        def build(store, rng):
            conv = DepthwiseConv3x3(store, "conv", 2, rng)
            conv.b.data[...] = rng.standard_normal(2)
            o = store.register("out_scale", rng.uniform(-1.5, 1.5, 2).astype(np.float32))
            x = store.register("x", rng.standard_normal((2, 4, 5)).astype(np.float32))
            r = rng.standard_normal((2, 4, 5))

            def loss_fn(want_grad):
                y = grid_forward(conv, x.data, scale=o, factor=1.25)
                if want_grad:
                    x.grad += grid_backward(conv, r)
                return float((y * r).sum())

            return loss_fn

        check_layer(build, threshold=1e-8)

    def test_zero_scales_leave_every_gradient(self):
        # nothing divides by a scale: zero input and output scales give finite gradients, o's among them
        rng = np.random.default_rng(13)
        w, dw = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        b, db, s = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(4)
        gw, gb, go = fold_adjoint(w, b, dw, db, np.zeros(4), s, np.zeros(3))
        assert not gw.any() and not gb.any()
        np.testing.assert_allclose(go, (b + w @ s) * db, rtol=1e-12)


class TestNeighborhoodMax:
    def test_single_neighbor_copies_column(self):
        x = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]], dtype=np.float32)
        nbr = np.array([[1], [0], [1]])
        y, sel = neighborhood_max(x, nbr)
        np.testing.assert_array_equal(y, x[[1, 0, 1]])
        np.testing.assert_array_equal(sel, np.array([[1, 1], [0, 0], [1, 1]]))

    def test_all_equal_routes_to_lowest_index(self):
        x = np.full((4, 2), 5.0, dtype=np.float32)
        nbr = np.array([[3, 1, 2]] * 4)
        y, sel = neighborhood_max(x, nbr)
        np.testing.assert_array_equal(y, x)
        assert (sel == 1).all()
        dx = neighborhood_max_backward(np.ones((4, 2)), sel, 4)
        np.testing.assert_array_equal(dx[1], [4.0, 4.0])
        assert dx[[0, 2, 3]].sum() == 0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4)).astype(np.float32)
        nbr = rng.integers(0, 30, size=(30, 5))
        y, _ = neighborhood_max(x, nbr)
        for i in range(30):
            np.testing.assert_array_equal(y[i], x[nbr[i]].max(axis=0))

    def test_bad_neighbors(self):
        x = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            neighborhood_max(x, np.zeros((3, 0), dtype=np.int64))
        with pytest.raises(ValueError):
            neighborhood_max(x, np.array([[5], [0], [0]]))

    def test_gradients(self):
        def build(store, rng):
            # distinct, well separated values so the FD step never flips a max
            vals = rng.permutation(3 * 20).astype(np.float32) * 0.05
            x = store.register("x", vals.reshape(20, 3))
            nbr = rng.integers(0, 20, size=(20, 4))
            r = rng.standard_normal((20, 3))

            def loss_fn(want_grad):
                y, sel = neighborhood_max(x.data, nbr)
                if want_grad:
                    x.grad += neighborhood_max_backward(r, sel, 20)
                return float((y * r).sum())

            return loss_fn

        check_layer(build)


class TestSlotMax:
    def test_tie_prefers_slot_with_lowest_point_index(self):
        values = np.zeros((2, 3, 1), dtype=np.float32)
        neighbors = np.array([[9, 2, 5], [1, 8, 0]])
        _, slots = slot_max(values, neighbors)
        assert slots[:, 0].tolist() == [1, 2]  # point 2 for row 0, point 0 for row 1

    def test_matches_where_formula_bitwise_on_tie_heavy_inputs(self):
        rng = np.random.default_rng(6)
        f, n, k = 6, 200, 16
        # neighbor rows repeat points, as padded kNN rows do
        neighbors = rng.integers(0, 30, size=(n, k))
        normal = rng.standard_normal((n, k, f)).astype(np.float32)
        cases = {
            "normal": normal,
            "rounded": np.round(normal * 2),
            "relu": relu(normal - 2.0),
            "constant": np.zeros_like(normal),
            "float64": np.round(normal.astype(np.float64)),
        }
        for name, values in cases.items():
            y, slots = slot_max(values, neighbors)
            y_ref, slots_ref = slot_max_where(values, neighbors)
            assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes(), name
            assert slots.dtype == slots_ref.dtype and np.array_equal(slots, slots_ref), name
            if name != "normal":
                tied = (values == y[:, None, :]).sum(axis=1) > 1
                assert tied.mean() > 0.2, name


class TestRelu:
    def test_forward_backward(self):
        x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(relu(x), [[0.0, 0.0, 2.0]])
        np.testing.assert_array_equal(relu_backward(np.ones_like(x), x), [[0.0, 0.0, 1.0]])


class TestGradCheckHarness:
    def test_rejects_bad_eps(self):
        store = ParamStore()
        store.register("x", np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError):
            grad_check(lambda want: 0.0, store, eps=1.0)

    def test_detects_nonfinite(self):
        store = ParamStore()
        store.register("x", np.zeros(1, dtype=np.float32))
        with pytest.raises(FloatingPointError):
            grad_check(lambda want: float("nan"), store)

    def test_restores_float32(self):
        store = ParamStore()
        t = store.register("x", np.ones(2, dtype=np.float32))

        def loss_fn(want_grad):
            if want_grad:
                t.grad += 1.0
            return float(t.data.sum())

        err = grad_check(loss_fn, store)
        assert err < 1e-10
        assert t.data.dtype == np.float32


def test_forward_determinism():
    rng = np.random.default_rng(5)
    store = ParamStore()
    conv = DepthwiseConv3x3(store, "conv", 3, rng)
    x = rng.standard_normal((3, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(grid_forward(conv, x), grid_forward(conv, x))


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.register("w", np.zeros(1, dtype=np.float32))
    with pytest.raises(ValueError):
        store.register("w", np.zeros(1, dtype=np.float32))
