"""Layer forward passes against naive oracles, backward passes against
central finite differences."""

import numpy as np
import pytest

from waffleiron.nn import (
    BatchNorm,
    DepthwiseConv3x3,
    LayerScale,
    ParamStore,
    PointwiseLinear,
    relu,
    relu_backward,
    slot_max,
)

from oracles import grad_check, neighborhood_max, neighborhood_max_backward, slot_max_where

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


class TestPointwiseLinear:
    def test_identity_weights(self):
        store = ParamStore()
        lin = PointwiseLinear(store, "lin", 3, 3, np.random.default_rng(0))
        lin.w.data[...] = np.eye(3)
        lin.b.data[...] = 0
        x = np.random.default_rng(1).standard_normal((3, 9)).astype(np.float32)
        np.testing.assert_array_equal(lin.forward(x), x)

    def test_basis_column_reads_weight_column(self):
        store = ParamStore()
        lin = PointwiseLinear(store, "lin", 4, 5, np.random.default_rng(2))
        x = np.zeros((4, 1), dtype=np.float32)
        x[2, 0] = 1.0
        np.testing.assert_allclose(lin.forward(x)[:, 0], lin.w.data[:, 2] + lin.b.data)

    def test_shape_mismatch(self):
        store = ParamStore()
        lin = PointwiseLinear(store, "lin", 4, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lin.forward(np.zeros((3, 7), dtype=np.float32))

    def test_gradients(self):
        def build(store, rng):
            lin = PointwiseLinear(store, "lin", 4, 5, rng)
            x = store.register("x", rng.standard_normal((4, 7)).astype(np.float32))
            r = rng.standard_normal((5, 7))

            def loss_fn(want_grad):
                y = lin.forward(x.data)
                if want_grad:
                    x.grad += lin.backward(r.astype(y.dtype))
                return float((y * r).sum())

            return loss_fn

        check_layer(build)


class TestBatchNorm:
    def test_constant_channel_returns_shift(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 2)
        bn.beta.data[...] = [0.5, -1.0]
        x = np.full((2, 6), 3.0, dtype=np.float32)
        y = bn.forward(x, training=True)
        np.testing.assert_allclose(y[0], 0.5, atol=1e-6)
        np.testing.assert_allclose(y[1], -1.0, atol=1e-6)

    def test_eval_identity_with_unit_stats(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 3)
        x = np.random.default_rng(0).standard_normal((3, 20)).astype(np.float32)
        y = bn.forward(x, training=False)
        np.testing.assert_allclose(y, x, rtol=1e-4, atol=1e-5)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        bn = BatchNorm(store, "bn", 3)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
        bn.beta.data[...] = rng.standard_normal(3)
        x = rng.standard_normal((3, 50)).astype(np.float32)
        y = bn.forward(x, training=True)
        x64 = x.astype(np.float64)
        mean = x64.mean(axis=1)
        var = ((x64 - mean[:, None]) ** 2).mean(axis=1)
        want = bn.gamma.data[:, None] * (x64 - mean[:, None]) / np.sqrt(var + 1e-5)[:, None]
        want += bn.beta.data[:, None]
        np.testing.assert_allclose(y, want, atol=1e-6)

    def test_normalizes_valid_columns_only(self):
        rng = np.random.default_rng(2)
        store = ParamStore()
        bn = BatchNorm(store, "bn", 4)
        x = rng.standard_normal((4, 40)).astype(np.float32)
        valid = np.ones(40, dtype=bool)
        valid[30:] = False
        x[:, 30:] = 100.0  # junk that must not leak into the statistics
        y = bn.forward(x, valid=valid, training=True)
        yv = y[:, valid].astype(np.float64)
        assert np.abs(yv.mean(axis=1)).max() < 1e-5
        assert np.abs(yv.var(axis=1) - 1.0).max() < 1e-4

    def test_running_stats_update(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 1)
        x = np.full((1, 10), 2.0, dtype=np.float32)
        bn.forward(x, training=True)
        np.testing.assert_allclose(bn.running_mean.data, [0.2], atol=1e-7)
        bn.forward(x, training=True, update_stats=False)
        np.testing.assert_allclose(bn.running_mean.data, [0.2], atol=1e-7)

    def test_empty_batch_raises(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 2)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((2, 4), dtype=np.float32), valid=np.zeros(4, dtype=bool), training=True)

    def test_gradients_train_mode(self):
        def build(store, rng):
            bn = BatchNorm(store, "bn", 3)
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
            bn.beta.data[...] = rng.standard_normal(3)
            x = store.register("x", rng.standard_normal((3, 12)).astype(np.float32))
            valid = np.ones(12, dtype=bool)
            valid[9:] = False
            r = rng.standard_normal((3, 12))
            r[:, 9:] = 0.0  # padding columns never receive loss gradient

            def loss_fn(want_grad):
                y = bn.forward(x.data, valid=valid, training=True, update_stats=False)
                if want_grad:
                    x.grad += bn.backward(r)
                return float((y * r).sum())

            return loss_fn

        check_layer(build)

    def test_gradients_eval_mode(self):
        def build(store, rng):
            bn = BatchNorm(store, "bn", 3)
            bn.running_mean.data[...] = rng.standard_normal(3)
            bn.running_var.data[...] = rng.uniform(0.5, 2.0, 3)
            x = store.register("x", rng.standard_normal((3, 8)).astype(np.float32))
            r = rng.standard_normal((3, 8))

            def loss_fn(want_grad):
                y = bn.forward(x.data, training=False)
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


def cell_major(x):
    """The same F x H x W values as a view of H x W x F memory, the grid layout of token mixing."""
    return np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)


def is_cell_major(a):
    return np.moveaxis(a, 0, -1).flags.c_contiguous


CONV_LAYOUTS = (np.ascontiguousarray, cell_major)


def full_grid_taps(h, w):
    """Tap table of a whole H x W grid: cell i * W + j reads cell (i + u - 1, j + v - 1), or H * W past an edge."""
    padded = np.full((h + 2, w + 2), h * w, dtype=np.intp)
    padded[1 : h + 1, 1 : w + 1] = np.arange(h * w).reshape(h, w)
    i, j = np.divmod(np.arange(h * w), w)
    return np.stack([padded[i + u, j + v] for u in range(3) for v in range(3)], axis=1)


def grid_forward(conv, x, need_grad=True):
    """The row conv evaluated on every cell of an F x H x W grid."""
    f, h, w = x.shape
    return conv.forward(x.reshape(f, h * w), full_grid_taps(h, w), need_grad).reshape(f, h, w)


def grid_backward(conv, dy):
    f, h, w = dy.shape
    return conv.backward(dy.reshape(f, h * w), full_grid_taps(h, w)).reshape(f, h, w)


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
        x0 = rng.standard_normal((2, 5, 6)).astype(np.float32)
        for layout in CONV_LAYOUTS:
            x = layout(x0)
            y = grid_forward(conv, x)
            assert is_cell_major(y)
            np.testing.assert_allclose(y, conv_oracle(x, conv.k.data, conv.b.data), atol=1e-6)
            assert np.array_equal(y, per_tap_forward(x, conv.k.data, conv.b.data))

    def test_channel_permutation_commutes(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 4, rng)
        x0 = rng.standard_normal((4, 6, 6)).astype(np.float32)
        perm = rng.permutation(4)
        store2 = ParamStore()
        conv2 = DepthwiseConv3x3(store2, "conv", 4, np.random.default_rng(0))
        conv2.k.data[...] = conv.k.data[perm]
        conv2.b.data[...] = conv.b.data[perm]
        for layout in CONV_LAYOUTS:
            x = layout(x0)
            y = grid_forward(conv, x)
            assert is_cell_major(y)
            assert np.array_equal(y, per_tap_forward(x, conv.k.data, conv.b.data))
            np.testing.assert_array_equal(grid_forward(conv2, layout(x0[perm])), y[perm])

    def test_large_grid_matches_per_tap_formulas(self):
        rng = np.random.default_rng(4)
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 5, rng)
        conv.b.data[...] = rng.standard_normal(5)
        x0 = rng.standard_normal((5, 181, 190)).astype(np.float32)
        dy0 = rng.standard_normal(x0.shape)
        f, h, w = x0.shape
        xp = np.zeros((f, h + 2, w + 2), dtype=np.float32)
        xp[:, 1 : h + 1, 1 : w + 1] = x0
        want_k = np.stack([(dy0 * xp[:, u : u + h, v : v + w]).sum(axis=(1, 2)) for u in range(3) for v in range(3)], 1)
        dxp = np.zeros_like(xp)
        for u in range(3):
            for v in range(3):
                dxp[:, u : u + h, v : v + w] += conv.k.data[:, u, v].astype(np.float64)[:, None, None] * dy0
        for layout in CONV_LAYOUTS:
            x, dy = layout(x0), layout(dy0)
            store.zero_grad()
            y = grid_forward(conv, x)
            assert is_cell_major(y)
            assert np.array_equal(y, per_tap_forward(x0, conv.k.data, conv.b.data))
            dx = grid_backward(conv, dy)
            assert dx.dtype == np.float32 and is_cell_major(dx)
            assert np.array_equal(dx, dxp[:, 1 : h + 1, 1 : w + 1])
            assert np.array_equal(dx, per_tap_backward(x0, dy0, conv.k.data)[0])
            np.testing.assert_allclose(conv.k.grad.reshape(f, 9), want_k, rtol=1e-5, atol=1e-3)
            np.testing.assert_allclose(conv.b.grad, dy0.sum(axis=(1, 2)), rtol=1e-5, atol=1e-3)

    def test_gradients(self):
        for layout in CONV_LAYOUTS:

            def build(store, rng):
                conv = DepthwiseConv3x3(store, "conv", 2, rng)
                x = store.register("x", rng.standard_normal((2, 5, 6)).astype(np.float32))
                r = layout(rng.standard_normal((2, 5, 6)))

                def loss_fn(want_grad):
                    y = grid_forward(conv, layout(x.data))
                    assert is_cell_major(y)
                    if want_grad:
                        dx = grid_backward(conv, r)
                        assert is_cell_major(dx)
                        x.grad += dx
                    return float((y * r).sum())

                return loss_fn

            check_layer(build)

    def test_rejects_bad_rows_and_tables(self):
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 2, np.random.default_rng(5))
        taps = full_grid_taps(3, 4)
        x = np.zeros((2, 12), dtype=np.float32)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((3, 12), dtype=np.float32), taps)
        with pytest.raises(ValueError):
            conv.forward(x, taps[:, :8])
        with pytest.raises(ValueError):
            conv.forward(x[:, :11], taps)  # the table reads row 11
        conv.forward(x, taps)
        with pytest.raises(ValueError):
            conv.backward(np.zeros((2, 11)), taps)
        with pytest.raises(ValueError):
            conv.backward(np.zeros((2, 12)), taps[:11])


class TestLayerScale:
    def test_ones_is_identity(self):
        store = ParamStore()
        ls = LayerScale(store, "ls", 3)
        ls.diag.data[...] = 1.0
        x = np.random.default_rng(0).standard_normal((3, 7)).astype(np.float32)
        np.testing.assert_array_equal(ls.forward(x), x)

    def test_zeros_kill_the_branch(self):
        store = ParamStore()
        ls = LayerScale(store, "ls", 3)
        ls.diag.data[...] = 0.0
        x = np.ones((3, 7), dtype=np.float32)
        assert (ls.forward(x) == 0).all()

    def test_default_init(self):
        store = ParamStore()
        ls = LayerScale(store, "ls", 5)
        np.testing.assert_allclose(ls.diag.data, 1e-2)

    def test_gradients_tight(self):
        def build(store, rng):
            ls = LayerScale(store, "ls", 4)
            ls.diag.data[...] = rng.standard_normal(4)
            x = store.register("x", rng.standard_normal((4, 9)).astype(np.float32))
            r = rng.standard_normal((4, 9))

            def loss_fn(want_grad):
                y = ls.forward(x.data)
                if want_grad:
                    x.grad += ls.backward(r)
                return float((y * r).sum())

            return loss_fn

        # the map is bilinear, so central differences are essentially exact
        check_layer(build, threshold=1e-6)


class TestNeighborhoodMax:
    def test_single_neighbor_copies_column(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
        nbr = np.array([[1], [0], [1]])
        y, sel = neighborhood_max(x, nbr)
        np.testing.assert_array_equal(y, x[:, [1, 0, 1]])
        np.testing.assert_array_equal(sel, np.array([[1, 0, 1], [1, 0, 1]]))

    def test_all_equal_routes_to_lowest_index(self):
        x = np.full((2, 4), 5.0, dtype=np.float32)
        nbr = np.array([[3, 1, 2]] * 4)
        y, sel = neighborhood_max(x, nbr)
        np.testing.assert_array_equal(y, x)
        assert (sel == 1).all()
        dx = neighborhood_max_backward(np.ones((2, 4)), sel, 4)
        np.testing.assert_array_equal(dx[:, 1], [4.0, 4.0])
        assert dx[:, [0, 2, 3]].sum() == 0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 30)).astype(np.float32)
        nbr = rng.integers(0, 30, size=(30, 5))
        y, _ = neighborhood_max(x, nbr)
        for i in range(30):
            np.testing.assert_array_equal(y[:, i], x[:, nbr[i]].max(axis=1))

    def test_bad_neighbors(self):
        x = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            neighborhood_max(x, np.zeros((3, 0), dtype=np.int64))
        with pytest.raises(ValueError):
            neighborhood_max(x, np.array([[5], [0], [0]]))

    def test_gradients(self):
        def build(store, rng):
            # distinct, well separated values so the FD step never flips a max
            vals = rng.permutation(3 * 20).astype(np.float32) * 0.05
            x = store.register("x", vals.reshape(3, 20))
            nbr = rng.integers(0, 20, size=(20, 4))
            r = rng.standard_normal((3, 20))

            def loss_fn(want_grad):
                y, sel = neighborhood_max(x.data, nbr)
                if want_grad:
                    x.grad += neighborhood_max_backward(r, sel, 20)
                return float((y * r).sum())

            return loss_fn

        check_layer(build)


class TestSlotMax:
    def test_tie_prefers_slot_with_lowest_point_index(self):
        values = np.zeros((1, 2, 3), dtype=np.float32)
        neighbors = np.array([[9, 2, 5], [1, 8, 0]])
        _, slots = slot_max(values, neighbors)
        assert slots[0].tolist() == [1, 2]  # point 2 for row 0, point 0 for row 1

    def test_matches_where_formula_bitwise_on_tie_heavy_inputs(self):
        rng = np.random.default_rng(6)
        f, n, k = 6, 200, 16
        # neighbor rows repeat points, as padded kNN rows do
        neighbors = rng.integers(0, 30, size=(n, k))
        normal = rng.standard_normal((f, n, k)).astype(np.float32)
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
                tied = (values == y[:, :, None]).sum(axis=2) > 1
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
