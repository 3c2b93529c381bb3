"""Layer forward passes against naive oracles, backward passes against
central finite differences."""

import tracemalloc

import numpy as np
import pytest

from waffleiron import backbone, nn
from waffleiron.backbone import ChannelMixLayer, TokenMixLayer
from waffleiron.nn import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNorm,
    DepthwiseConv3x3,
    ParamStore,
    PointwiseLinear,
    Tensor,
    _FLIPPED_TAPS,
    _TAPS,
    _tap_sum,
    fold,
    fold_adjoint,
    slot_max,
)

from oracles import (
    bn_backward_xhat,
    bn_eval,
    bn_statistics_widened,
    grad_check,
    neighborhood_max,
    neighborhood_max_backward,
    relu,
    relu_backward,
    slot_max_where,
    tap_sum_unblocked,
)
from test_projection import bitwise_equal

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


def bn_apply(bn, x, training=True):
    """The normalized ``x``, ``scale * x + shift`` with the map that ``bn.forward`` returns, and the context."""
    (scale, shift), ctx = bn.forward(x, training)
    return scale * x + shift, ctx


class TestTensor:
    def test_gradient_buffer_is_made_on_first_use(self):
        data = np.ones((64, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            t = Tensor(data)
            t.zero_grad()  # no buffer to zero yet
            made = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.data is data and made < data.nbytes / 4, made
        grad = t.grad
        assert grad.dtype == np.float32 and grad.shape == t.shape and not grad.any()
        t.grad += 1.0
        assert t.grad is grad and (grad == 1.0).all()
        t.zero_grad()
        assert t.grad is grad and not grad.any()
        assert Tensor(np.ones(3), trainable=False).grad is None


class TestPointwiseLinear:
    def test_identity_weights(self):
        store = ParamStore()
        lin = PointwiseLinear(store, "lin", 3, 3, np.random.default_rng(0))
        lin.w.data[...] = np.eye(3)
        lin.b.data[...] = 0
        x = np.random.default_rng(1).standard_normal((9, 3)).astype(np.float32)
        np.testing.assert_array_equal(lin.forward(x)[0], x)

    def test_basis_column_reads_weight_column(self):
        store = ParamStore()
        lin = PointwiseLinear(store, "lin", 4, 5, np.random.default_rng(2))
        x = np.zeros((1, 4), dtype=np.float32)
        x[0, 2] = 1.0
        y, _ = lin.forward(x)
        np.testing.assert_allclose(y[0], lin.w.data[:, 2] + lin.b.data)

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
                y, ctx = lin.forward(x.data)
                if want_grad:
                    x.grad += lin.backward(r.astype(y.dtype), ctx)
                return float((y * r).sum())

            return loss_fn

        check_layer(build)

    def test_backward_casts_to_the_input_dtype(self):
        # the classifier's case: the loss hands a float64 gradient to a float32 layer
        rng = np.random.default_rng(3)
        lin = PointwiseLinear(ParamStore(), "lin", 4, 5, rng)
        x = rng.standard_normal((7, 4)).astype(np.float32)
        dy = rng.standard_normal((5, 7)).T
        _, ctx = lin.forward(x)
        dx = lin.backward(dy, ctx)
        want = (dy @ fold(lin.w.data, lin.b.data, np.float64)[0]).astype(np.float32)
        assert dx.dtype == np.float32 and dx.tobytes() == want.tobytes()


# Rows per block in the row-block tests, at width 64, and their row counts:
# a 40-row and a 1-row remainder, each of which joins the last block.
ROW_BLOCK = 128
BLOCKED_ROWS = (2 * ROW_BLOCK + 40, 2 * ROW_BLOCK + 1)


def blocked_and_whole(monkeypatch, run):
    """``run()`` in blocks of ``ROW_BLOCK`` rows, then in one block; both results and the blocked products' rows."""
    rows = []
    affine_rows = nn.affine_rows

    def recording(x, *args):
        rows.append(x.shape[0])
        return affine_rows(x, *args)

    monkeypatch.setattr(nn, "affine_rows", recording)
    monkeypatch.setattr(backbone, "affine_rows", recording)
    monkeypatch.setattr(nn, "_ROW_BLOCK", ROW_BLOCK)
    blocked, blocked_rows = run(), rows.copy()
    monkeypatch.setattr(nn, "_ROW_BLOCK", 10**9)
    return blocked, run(), blocked_rows


def assert_same_bits(blocked, whole):
    assert len(blocked) == len(whole)
    for i, (a, b) in enumerate(zip(blocked, whole)):
        assert bitwise_equal(a, b), i


class TestRowBlocks:
    def test_row_blocks_are_never_shorter_than_row_block(self, monkeypatch):
        monkeypatch.setattr(nn, "_ROW_BLOCK", ROW_BLOCK)
        for n in range(1, 4 * ROW_BLOCK + 2):
            blocks = nn.row_blocks(n)
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]] and blocks[-1][1] == n
            lengths = [hi - lo for lo, hi in blocks]
            if n < ROW_BLOCK:
                assert lengths == [n]
            else:
                assert ROW_BLOCK <= min(lengths) and max(lengths) < 2 * ROW_BLOCK, (n, lengths)

    @pytest.mark.parametrize("n", BLOCKED_ROWS)
    @pytest.mark.parametrize("training", [True, False])
    def test_row_block_linear_equals_one_block_bitwise(self, monkeypatch, n, training):
        def run():
            rng = np.random.default_rng(n)
            store = ParamStore()
            lin = PointwiseLinear(store, "lin", 64, 64, rng)
            lin.b.data[...] = rng.standard_normal(64)
            diag = store.register("diag", rng.uniform(-0.6, 0.6, 64))
            affine = (rng.uniform(0.5, 1.5, 64), rng.standard_normal(64))
            x = rng.standard_normal((n, 64)).astype(np.float32)
            y, ctx = lin.forward(x, training, affine, diag, 1.25)
            if not training:
                return (y,)
            dx = lin.backward(rng.standard_normal((n, 64)).astype(np.float32), ctx)
            return y, dx, lin.w.grad, lin.b.grad, diag.grad

        blocked, whole, rows = blocked_and_whole(monkeypatch, run)
        assert_same_bits(blocked, whole)
        assert sum(rows) == n and len(rows) == 2 and min(rows) >= ROW_BLOCK, rows

    @pytest.mark.parametrize("n", BLOCKED_ROWS)
    def test_row_block_batch_norm_backward_equals_one_block_bitwise(self, monkeypatch, n):
        def run():
            rng = np.random.default_rng(n)
            bn = BatchNorm(ParamStore(), "bn", 64)
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, 64)
            x = rng.standard_normal((n, 64)) * rng.uniform(0.1, 10, 64) + rng.uniform(-5, 5, 64)
            _, ctx = bn.forward(x.astype(np.float32))
            dx = bn.backward(rng.standard_normal((n, 64)).astype(np.float32), ctx)
            return dx, bn.gamma.grad, bn.beta.grad

        blocked, whole, _ = blocked_and_whole(monkeypatch, run)
        assert_same_bits(blocked, whole)

    # one row block and one column block; three of each, the last with a remainder
    @pytest.mark.parametrize("n, f", [(100, 48), (3 * ROW_BLOCK + 40, 3 * 64 + 20)])
    def test_float64_gradient_backward_equals_the_whole_products_bitwise(self, monkeypatch, n, f):
        # the classifier's case: WaffleIron.backward passes the transpose of the loss's K x N float64 gradient
        monkeypatch.setattr(nn, "_ROW_BLOCK", ROW_BLOCK)
        rng = np.random.default_rng(n)
        lin = PointwiseLinear(ParamStore(), "lin", f, 19, rng)
        lin.b.data[...] = rng.standard_normal(19)
        x = rng.standard_normal((n, f)).astype(np.float32)
        dy = rng.standard_normal((19, n)).T
        _, ctx = lin.forward(x)
        dx = lin.backward(dy, ctx)
        assert bitwise_equal(dx, (dy @ lin.w.data.astype(np.float64)).astype(np.float32))
        assert bitwise_equal(lin.w.grad, (dy.T @ x).astype(np.float32))
        assert bitwise_equal(lin.b.grad, dy.sum(axis=0).astype(np.float32))

    def test_float64_gradient_backward_makes_no_point_sized_float64_array(self):
        # dx is n x f float32; x widens 64 columns at a time and the float64 products come one row block at a time
        n, f = 4096, 256
        rng = np.random.default_rng(5)
        lin = PointwiseLinear(ParamStore(), "lin", f, 19, rng)
        x = rng.standard_normal((n, f)).astype(np.float32)
        dy = rng.standard_normal((19, n)).T
        _, ctx = lin.forward(x)
        lin.backward(dy, ctx)  # the first call allocates numpy's lazy caches
        tracemalloc.start()
        try:
            dx = lin.backward(dy, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dx.dtype == np.float32 and dx.shape == x.shape
        assert peak < n * f * 8, peak


class TestBatchNorm:
    def test_constant_channel_returns_shift(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 2)
        bn.beta.data[...] = [0.5, -1.0]
        x = np.full((6, 2), 3.0, dtype=np.float32)
        y, _ = bn_apply(bn, x)
        np.testing.assert_allclose(y[:, 0], 0.5, atol=1e-6)
        np.testing.assert_allclose(y[:, 1], -1.0, atol=1e-6)

    def test_eval_identity_with_unit_stats(self):
        store = ParamStore()
        bn = BatchNorm(store, "bn", 3)
        x = np.random.default_rng(0).standard_normal((20, 3)).astype(np.float32)
        y = bn_eval(bn, x)
        np.testing.assert_allclose(y, x, rtol=1e-4, atol=1e-5)
        (a, s), _ = bn.forward(x, training=False)
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
        (a, s), ctx = bn.forward(x, training=False)
        assert a.dtype == s.dtype == np.float64 and ctx is None
        np.testing.assert_allclose(a * x + s, bn_eval(bn, x), atol=1e-5)

    @pytest.mark.parametrize("training", [True, False])
    def test_forward_returns_only_a_float64_map(self, training):
        bn = BatchNorm(ParamStore(), "bn", 3)
        x = np.random.default_rng(3).standard_normal((10, 3)).astype(np.float32)
        out, ctx = bn.forward(x, training=training)
        assert len(out) == 2 and all(a.dtype == np.float64 and a.shape == (3,) for a in out)
        # a training context holds the input itself and its statistics, no rows of the output
        if training:
            assert ctx[0] is x and [a.shape for a in ctx[1:]] == [(3,), (3,)]
        else:
            assert ctx is None

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        bn = BatchNorm(store, "bn", 3)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
        bn.beta.data[...] = rng.standard_normal(3)
        x = rng.standard_normal((50, 3)).astype(np.float32)
        y, _ = bn_apply(bn, x)
        x64 = x.astype(np.float64)
        mean = x64.mean(axis=0)
        var = ((x64 - mean) ** 2).mean(axis=0)
        want = bn.gamma.data * (x64 - mean) / np.sqrt(var + 1e-5)
        want += bn.beta.data
        np.testing.assert_allclose(y, want, atol=1e-6)

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
            bn.forward(np.zeros((0, 2), dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_statistics_match_the_widened_formula_bitwise(self, dtype):
        # mean, inv_std and both running statistics equal those of the float64 copy of the rows
        cases = [(n, f) for n in (1, 7, 40, 513, 4096, 33000) for f in (5, 64, 256, 384) if n * f <= 33000 * 64]
        for n, f in cases:
            rng = np.random.default_rng(n + f)
            x = rng.standard_normal((n, f)) * rng.uniform(0.1, 10, f) + rng.uniform(-5, 5, f)
            x = x.astype(dtype)
            bn = BatchNorm(ParamStore(), "bn", f)
            _, ctx = bn.forward(x)
            mean64, var64 = bn_statistics_widened(x)
            want = BatchNorm(ParamStore(), "want", f)
            want.running_mean.data[...] = (1 - BN_MOMENTUM) * want.running_mean.data + BN_MOMENTUM * mean64
            want.running_var.data[...] = (1 - BN_MOMENTUM) * want.running_var.data + BN_MOMENTUM * var64
            inv_std = 1.0 / np.sqrt(var64.astype(dtype) + BN_EPS)
            case = (n, f)
            assert ctx[1].tobytes() == mean64.astype(dtype).tobytes(), case
            assert ctx[2].tobytes() == inv_std.tobytes(), case
            assert bn.running_mean.data.tobytes() == want.running_mean.data.tobytes(), case
            assert bn.running_var.data.tobytes() == want.running_var.data.tobytes(), case

    # dy has the forward input's dtype; a float64 input may meet float32 parameters, not the reverse
    @pytest.mark.parametrize(
        "param_dtype, dtype",
        [(np.float32, np.float32), (np.float32, np.float64), (np.float64, np.float64)],
        ids=["float32", "float64-input", "float64"],
    )
    def test_backward_matches_the_xhat_formula(self, param_dtype, dtype):
        # the affine form rounds differently, so within a few ulps
        rng = np.random.default_rng(8)
        store = ParamStore()
        bn = BatchNorm(store, "bn", 5)
        bn.gamma.data = rng.uniform(0.5, 1.5, 5).astype(param_dtype)
        bn.gamma.grad = np.zeros_like(bn.gamma.data)
        bn.beta.grad = np.zeros_like(bn.gamma.data)
        x = rng.standard_normal((40, 5)).astype(dtype)
        dy = rng.standard_normal((40, 5)).astype(dtype)
        _, ctx = bn.forward(x)
        want_dx, want_dgamma, want_dbeta = bn_backward_xhat(bn, dy, ctx)
        dx = bn.backward(dy, ctx)
        def tol(dt):
            return dict(rtol=1e-5, atol=1e-6) if dt == np.float32 else dict(rtol=1e-12, atol=1e-13)

        assert dx.dtype == want_dx.dtype
        np.testing.assert_allclose(dx, want_dx, **tol(dtype))
        # both accumulate into the gradient buffer of the parameter's dtype
        np.testing.assert_allclose(bn.gamma.grad, want_dgamma, **tol(param_dtype))
        np.testing.assert_allclose(bn.beta.grad, want_dbeta, **tol(param_dtype))

    @pytest.mark.parametrize("seed", range(8))
    def test_backward_is_as_accurate_as_the_xhat_formula(self, seed):
        # against a float64 reference from the same float32 batch statistics, the
        # affine backward's dx is within twice the xhat formula's error and
        # 2 float32 ulps, and its float64 sums make gamma's and beta's gradients
        # no less accurate than the xhat formula's float32 sums
        n, f = 20000, 256
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((n, f)) * rng.uniform(0.1, 10, f) + rng.uniform(-5, 5, f)).astype(np.float32)
        dy = rng.standard_normal((n, f)).astype(np.float32)
        bn = BatchNorm(ParamStore(), "bn", f)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, f)
        _, ctx = bn.forward(x)
        old = bn_backward_xhat(bn, dy, ctx)
        new = (bn.backward(dy, ctx), bn.gamma.grad, bn.beta.grad)
        mean, inv_std = ctx[1].astype(np.float64), ctx[2].astype(np.float64)
        xhat = x - mean
        xhat *= inv_std
        dx = dy.astype(np.float64)
        dbeta = dx.sum(axis=0)
        dgamma = np.einsum("ij,ij->j", dx, xhat)
        dx -= dbeta / n
        xhat *= dgamma / n
        dx -= xhat
        dx *= bn.gamma.data * inv_std
        for name, got, was, want in zip(("dx", "dgamma", "dbeta"), new, old, (dx, dgamma, dbeta)):
            scale = np.abs(want).max()
            err_new = np.abs(got - want).max() / scale
            err_old = np.abs(was - want).max() / scale
            assert got.dtype == np.float32, name
            if name == "dx":
                assert err_new <= 2 * err_old and err_new < 2.4e-7, (seed, err_new, err_old)
            else:
                assert err_new <= err_old, (seed, name, err_new, err_old)

    def test_training_makes_no_point_sized_float64_array(self):
        # one 4096 x 256 float32 array is 4.19 MB: the forward's statistics widen
        # in buffered chunks, and the backward makes dx and one temporary
        n, f = 4096, 256
        rng = np.random.default_rng(4)
        x = rng.standard_normal((n, f)).astype(np.float32)
        dy = rng.standard_normal((n, f)).astype(np.float32)
        bn = BatchNorm(ParamStore(), "bn", f)
        one = x.nbytes
        tracemalloc.start()
        try:
            _, ctx = bn.forward(x)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dx = bn.backward(dy, ctx)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert dx.shape == x.shape
        assert forward_peak < one, forward_peak
        assert backward_peak <= 2 * one + 256 * 1024, backward_peak

    def test_gradients_train_mode(self):
        def build(store, rng):
            bn = BatchNorm(store, "bn", 3)
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
            bn.beta.data[...] = rng.standard_normal(3)
            x = store.register("x", rng.standard_normal((12, 3)).astype(np.float32))
            r = rng.standard_normal((12, 3))

            def loss_fn(want_grad):
                y, ctx = bn_apply(bn, x.data)
                if want_grad:
                    x.grad += bn.backward(r, ctx)
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


def grid_forward(conv, x, layout=np.ascontiguousarray, **scale):
    """The row conv evaluated on every cell of an F x H x W grid, returned as the grid; ``scale`` is passed on."""
    f, h, w = x.shape
    return to_grid(conv.forward(layout(to_rows(x)), full_grid_taps(h, w), **scale), x.shape)


def grid_backward(conv, x, dy, layout=np.ascontiguousarray, scale=None, factor=1.0):
    """The input gradient grid of :func:`grid_forward` at ``x``, whose arguments are the conv's context."""
    f, h, w = dy.shape
    taps = full_grid_taps(h, w)
    return to_grid(conv.backward(layout(to_rows(dy)), taps, (layout(to_rows(x)), taps, scale, factor)), dy.shape)


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
            dx = grid_backward(conv, x0, dy0, layout=layout)
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
                        x.grad += grid_backward(conv, x.data, r, layout=layout)
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
        ctx = (x, taps, None, 1.0)
        with pytest.raises(ValueError):
            conv.backward(np.zeros((12, 2), dtype=np.float32), taps, ctx)
        with pytest.raises(ValueError):
            conv.backward(np.zeros((13, 2), dtype=np.float32), taps[:11], ctx)
        with pytest.raises(ValueError, match="zero row"):
            conv.backward(last_row_set, taps, ctx)

    @pytest.mark.parametrize("dtype, dy_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_backward_rejects_a_gradient_of_another_dtype(self, dtype, dy_dtype):
        conv = DepthwiseConv3x3(ParamStore(), "conv", 2, np.random.default_rng(6))
        taps = full_grid_taps(3, 4)
        x = np.zeros((13, 2), dtype=dtype)
        conv.forward(x, taps)
        with pytest.raises(ValueError, match="gradient like the forward's input"):
            conv.backward(np.zeros((13, 2), dtype=dy_dtype), taps, (x, taps, None, 1.0))
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
        assert np.array_equal(lin.forward(x, scale=diag)[0], lin.forward(x)[0])
        assert np.array_equal(grid_forward(conv, grid, scale=diag), grid_forward(conv, grid))

    def test_zeros_kill_the_branch(self):
        lin, conv, diag, x, grid = self.layers()
        diag.data[...] = 0.0
        assert not lin.forward(x, scale=diag)[0].any()
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
        assert np.array_equal(lin.forward(x, scale=diag, factor=1.25)[0], x @ w.T + b)
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
                y, ctx = lin.forward(x.data, True, (a.data, s.data), o, 1.25)
                if want_grad:
                    dz = lin.backward(r, ctx)
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
                    x.grad += grid_backward(conv, x.data, r, scale=o, factor=1.25)
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
