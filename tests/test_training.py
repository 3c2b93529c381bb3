"""Losses against direct-evaluation oracles, optimizer and schedule math."""

import math

import numpy as np
import pytest

from waffleiron.geometry import IGNORE_LABEL
from waffleiron.nn import ParamStore
from waffleiron.training import (
    AdamW,
    Schedule,
    cross_entropy,
    lovasz_grad_from_sorted,
    lovasz_softmax,
    lr_at,
    segmentation_loss,
    softmax,
    train_loop,
)
from waffleiron.backbone import WaffleIron

from oracles import grad_check, overfit_harness_config, synthetic_zband_scene


def rand_problem(rng, k=4, n=10, ignore=0, invalid=0):
    logits = rng.standard_normal((k, n)).astype(np.float32)
    labels = rng.integers(0, k, n).astype(np.int32)
    valid = np.ones(n, dtype=bool)
    if invalid:
        valid[:invalid] = False
    if ignore:
        labels[invalid : invalid + ignore] = IGNORE_LABEL
    return logits, labels, valid


class TestCrossEntropy:
    def test_confident_correct_prediction(self):
        logits = np.array([[30.0], [0.0], [0.0]], dtype=np.float32)
        loss, _ = cross_entropy(logits, np.array([0]), np.ones(1, dtype=bool))
        assert loss < 1e-9

    def test_uniform_logits_give_log_k(self):
        for k in (3, 19):
            logits = np.zeros((k, 7), dtype=np.float32)
            labels = np.arange(7, dtype=np.int32) % k
            loss, _ = cross_entropy(logits, labels, np.ones(7, dtype=bool))
            assert loss == pytest.approx(math.log(k), rel=1e-9)

    def test_matches_logsumexp_oracle(self):
        rng = np.random.default_rng(0)
        logits, labels, valid = rand_problem(rng, ignore=2, invalid=1)
        loss, _ = cross_entropy(logits, labels, valid)
        terms = []
        for i in range(10):
            if valid[i] and labels[i] != IGNORE_LABEL:
                z = logits[:, i].astype(np.float64)
                terms.append(math.log(np.exp(z).sum()) - z[labels[i]])
        assert loss == pytest.approx(float(np.mean(terms)), abs=1e-6)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        x = store.register("logits", rng.standard_normal((4, 10)).astype(np.float32))
        labels = rng.integers(0, 4, 10).astype(np.int32)
        valid = np.ones(10, dtype=bool)

        def loss_fn(want_grad):
            loss, grad = cross_entropy(x.data, labels, valid)
            if want_grad:
                x.grad += grad
            return loss

        assert grad_check(loss_fn, store) < 1e-4

    def test_no_scored_points_raises(self):
        logits = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([IGNORE_LABEL, IGNORE_LABEL]), np.ones(2, dtype=bool))

    def test_excluded_columns_have_zero_gradient(self):
        rng = np.random.default_rng(2)
        logits, labels, valid = rand_problem(rng, ignore=2, invalid=2)
        _, grad = cross_entropy(logits, labels, valid)
        assert (grad[:, :4] == 0).all()


class TestLovasz:
    def test_perfect_one_hot_prediction(self):
        probs = np.eye(3, dtype=np.float64)[:, [0, 1, 2, 0]]
        labels = np.array([0, 1, 2, 0], dtype=np.int32)
        loss, _ = lovasz_softmax(probs, labels, np.ones(4, dtype=bool))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_single_point_totally_wrong(self):
        probs = np.array([[0.0], [1.0]])
        labels = np.array([0], dtype=np.int32)
        loss, _ = lovasz_softmax(probs, labels, np.ones(1, dtype=bool))
        assert loss == pytest.approx(1.0)

    def test_matches_enumerated_extension(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 8))
        probs = softmax(logits)
        labels = rng.integers(0, 3, 8).astype(np.int32)
        valid = np.ones(8, dtype=bool)
        loss, _ = lovasz_softmax(probs, labels, valid)
        # direct evaluation from the cumulative-sums definition, class by class
        total = []
        for c in np.unique(labels):
            fg = (labels == c).astype(np.float64)
            m = np.where(fg > 0, 1.0 - probs[c], probs[c])
            order = np.argsort(-m, kind="stable")
            m_sorted, fg_sorted = m[order], fg[order]
            gts = fg_sorted.sum()
            acc = 0.0
            prev = 0.0
            for i in range(len(m_sorted)):
                inter = gts - fg_sorted[: i + 1].sum()
                union = gts + (1.0 - fg_sorted[: i + 1]).sum()
                jac = 1.0 - inter / union
                acc += m_sorted[i] * (jac - prev)
                prev = jac
            total.append(acc)
        assert loss == pytest.approx(float(np.mean(total)), abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        probs = softmax(rng.standard_normal((4, 20)))
        labels = rng.integers(0, 4, 20).astype(np.int32)
        valid = np.ones(20, dtype=bool)
        loss, _ = lovasz_softmax(probs, labels, valid)
        perm = rng.permutation(20)
        loss_p, _ = lovasz_softmax(probs[:, perm], labels[perm], valid)
        assert loss_p == pytest.approx(loss, abs=1e-12)

    def test_single_element_gradient_is_one(self):
        assert lovasz_grad_from_sorted(np.array([1.0])).tolist() == [1.0]

    def test_no_labels_raises(self):
        with pytest.raises(ValueError):
            lovasz_softmax(np.ones((2, 1)), np.array([IGNORE_LABEL]), np.ones(1, dtype=bool))


class TestTotalLoss:
    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        x = store.register("logits", rng.standard_normal((3, 12)).astype(np.float32))
        labels = rng.integers(0, 3, 12).astype(np.int32)
        valid = np.ones(12, dtype=bool)
        valid[10:] = False

        def loss_fn(want_grad):
            loss, grad, _ = segmentation_loss(x.data, labels, valid)
            if want_grad:
                x.grad += grad
            return loss

        assert grad_check(loss_fn, store, eps=1e-4) < 1e-3

    def test_parts_reported(self):
        rng = np.random.default_rng(6)
        logits, labels, valid = rand_problem(rng)
        loss, _, parts = segmentation_loss(logits, labels, valid)
        assert loss == pytest.approx(parts["ce"] + parts["lovasz"])


class TestAdamW:
    def _store_with(self, value):
        store = ParamStore()
        t = store.register("p", np.array([value], dtype=np.float32))
        return store, t

    def test_zero_grads_no_decay_is_identity(self):
        store, t = self._store_with(1.5)
        opt = AdamW(store, weight_decay=0.0)
        opt.step(lr=0.01)
        assert t.data[0] == pytest.approx(1.5)

    def test_single_step_hand_computation(self):
        store, t = self._store_with(1.0)
        t.grad[...] = 0.5
        opt = AdamW(store, weight_decay=0.0)
        opt.step(lr=0.01)
        m = 0.1 * 0.5
        v = 0.001 * 0.25
        mhat = m / 0.1
        vhat = v / 0.001
        want = 1.0 - 0.01 * mhat / (math.sqrt(vhat) + 1e-8)
        assert t.data[0] == pytest.approx(want, rel=1e-6)

    def test_decoupled_decay_shrinks_parameters(self):
        store, t = self._store_with(2.0)
        opt = AdamW(store, weight_decay=0.1)
        for _ in range(3):
            opt.step(lr=0.5)
        assert t.data[0] == pytest.approx(2.0 * (1 - 0.5 * 0.1) ** 3, rel=1e-6)

    def test_nonfinite_gradient_names_parameter(self):
        store, t = self._store_with(1.0)
        t.grad[...] = np.nan
        opt = AdamW(store)
        with pytest.raises(FloatingPointError, match="'p'"):
            opt.step(lr=0.01)

    def test_running_stats_not_decayed(self):
        store = ParamStore()
        stat = store.register("running", np.array([5.0], dtype=np.float32), trainable=False)
        opt = AdamW(store, weight_decay=0.5)
        opt.step(lr=1.0)
        assert stat.data[0] == 5.0


class TestSchedule:
    def test_endpoints(self):
        sched = Schedule(warmup_steps=100, total_steps=1000)
        assert lr_at(0, sched) == 0.0
        assert lr_at(100, sched) == 1e-3
        assert abs(lr_at(1000, sched) - 1e-5) < 1e-12

    def test_continuous_at_warmup_corner(self):
        sched = Schedule(warmup_steps=50, total_steps=500)
        below = lr_at(49, sched)
        at = lr_at(50, sched)
        assert at == pytest.approx(1e-3)
        assert below == pytest.approx(1e-3 * 49 / 50)

    def test_monotone_after_warmup(self):
        sched = Schedule(warmup_steps=10, total_steps=200)
        values = [lr_at(s, sched) for s in range(10, 201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(warmup_steps=0, total_steps=10)
        with pytest.raises(ValueError):
            Schedule(warmup_steps=10, total_steps=10)
        sched = Schedule(warmup_steps=1, total_steps=2)
        with pytest.raises(ValueError):
            lr_at(3, sched)


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        scene, fov = synthetic_zband_scene(n_points=64)
        model_cfg, train_cfg = overfit_harness_config(fov)
        train_cfg.epochs = 1
        train_cfg.n_points = 64
        train_cfg.peak_lr = 0.0
        train_cfg.final_lr = 0.0
        model, _, _ = train_loop([scene], model_cfg, train_cfg)
        fresh = WaffleIron(model_cfg, np.random.default_rng(train_cfg.seed))
        for name, t in model.store.trainable_items():
            np.testing.assert_array_equal(t.data, fresh.store[name].data, err_msg=name)

    def test_empty_dataset_raises(self):
        scene, fov = synthetic_zband_scene(n_points=16)
        model_cfg, train_cfg = overfit_harness_config(fov)
        with pytest.raises(ValueError):
            train_loop([], model_cfg, train_cfg)

    def test_loss_trend_decreases(self, harness_runs):
        losses = np.array([h.mean_loss for h in harness_runs["history_a"]])
        assert np.isfinite(losses).all()
        windows = [np.median(losses[i : i + 10]) for i in range(0, 200, 10)]
        assert windows[-1] < windows[0]
        # medians trend downward: every late window beats the first
        assert all(w < windows[0] for w in windows[5:])

    def test_overfit_accuracy(self, harness_runs):
        assert harness_runs["acc_a"] >= 0.99

    def test_log_line_format(self, harness_runs):
        line = harness_runs["history_a"][0].log_line()
        parts = line.split("\t")
        assert len(parts) == 5
        int(parts[0]); float(parts[1]); float(parts[2]); float(parts[3]); float(parts[4])
