"""Losses against direct-evaluation oracles, optimizer and schedule math."""

import copy
import math

import numpy as np
import pytest

from waffleiron import backbone
from waffleiron.augment import AugmentConfig, build_instance_bank
from waffleiron.geometry import IGNORE_LABEL, PointCloud
from waffleiron.nn import ParamStore
from waffleiron.training import (
    AdamW,
    Schedule,
    cross_entropy,
    lovasz_grad_from_sorted,
    lovasz_softmax,
    lr_at,
    prepare_training_scene,
    segmentation_loss,
    softmax,
    train_loop,
)
from waffleiron.backbone import WaffleIron

from oracles import grad_check, overfit_harness_config, segmentation_loss_reference, synthetic_zband_scene


def rand_problem(rng, k=4, n=10, ignore=0):
    logits = rng.standard_normal((k, n)).astype(np.float32)
    labels = rng.integers(0, k, n).astype(np.int32)
    labels[:ignore] = IGNORE_LABEL
    return logits, labels


class TestCrossEntropy:
    def test_confident_correct_prediction(self):
        logits = np.array([[30.0], [0.0], [0.0]], dtype=np.float32)
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss < 1e-9

    def test_uniform_logits_give_log_k(self):
        for k in (3, 19):
            logits = np.zeros((k, 7), dtype=np.float32)
            labels = np.arange(7, dtype=np.int32) % k
            loss, _ = cross_entropy(logits, labels)
            assert loss == pytest.approx(math.log(k), rel=1e-9)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        x = store.register("logits", rng.standard_normal((4, 10)).astype(np.float32))
        labels = rng.integers(0, 4, 10).astype(np.int32)

        def loss_fn(want_grad):
            loss, grad = cross_entropy(x.data, labels)
            if want_grad:
                x.grad += grad
            return loss

        assert grad_check(loss_fn, store) < 1e-4


class TestLovasz:
    def test_perfect_one_hot_prediction(self):
        probs = np.eye(3, dtype=np.float64)[:, [0, 1, 2, 0]]
        labels = np.array([0, 1, 2, 0], dtype=np.int32)
        loss, _ = lovasz_softmax(probs, labels)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_single_point_totally_wrong(self):
        probs = np.array([[0.0], [1.0]])
        labels = np.array([0], dtype=np.int32)
        loss, _ = lovasz_softmax(probs, labels)
        assert loss == pytest.approx(1.0)

    def test_matches_enumerated_extension(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 8))
        probs = softmax(logits)
        labels = rng.integers(0, 3, 8).astype(np.int32)
        loss, _ = lovasz_softmax(probs, labels)
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
        loss, _ = lovasz_softmax(probs, labels)
        perm = rng.permutation(20)
        loss_p, _ = lovasz_softmax(probs[:, perm], labels[perm])
        assert loss_p == pytest.approx(loss, abs=1e-12)

    def test_single_element_gradient_is_one(self):
        assert lovasz_grad_from_sorted(np.array([1.0])).tolist() == [1.0]


class TestTotalLoss:
    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        x = store.register("logits", rng.standard_normal((3, 12)).astype(np.float32))
        labels = rng.integers(0, 3, 12).astype(np.int32)
        labels[10:] = IGNORE_LABEL

        def loss_fn(want_grad):
            loss, grad, _ = segmentation_loss(x.data, labels, np.ones(12, dtype=bool))
            if want_grad:
                x.grad += grad
            return loss

        assert grad_check(loss_fn, store, eps=1e-4) < 1e-3

    def test_parts_reported(self):
        rng = np.random.default_rng(6)
        logits, labels = rand_problem(rng)
        loss, _, parts = segmentation_loss(logits, labels, np.ones(10, dtype=bool))
        assert loss == pytest.approx(parts["ce"] + parts["lovasz"])

    def test_ce_part_matches_logsumexp_oracle(self):
        rng = np.random.default_rng(0)
        logits, labels = rand_problem(rng, ignore=2)
        _, _, parts = segmentation_loss(logits, labels, np.ones(10, dtype=bool))
        terms = []
        for i in range(10):
            if labels[i] != IGNORE_LABEL:
                z = logits[:, i].astype(np.float64)
                terms.append(math.log(np.exp(z).sum()) - z[labels[i]])
        assert parts["ce"] == pytest.approx(float(np.mean(terms)), abs=1e-6)

    @pytest.mark.parametrize("logits", [np.zeros((3, 2), dtype=np.float32), np.ones((2, 1))], ids=["3x2", "2x1"])
    def test_no_labeled_points_raises(self, logits):
        labels = np.full(logits.shape[1], IGNORE_LABEL)
        with pytest.raises(ValueError, match="no labeled points"):
            segmentation_loss(logits, labels, np.ones(labels.size, dtype=bool))

    def test_ignored_columns_have_zero_gradient(self):
        rng = np.random.default_rng(2)
        logits, labels = rand_problem(rng, ignore=4)
        _, grad, _ = segmentation_loss(logits, labels, np.ones(10, dtype=bool))
        assert (grad[:, :4] == 0).all() and (grad[:, 4:] != 0).any(axis=0).all()

    def test_matches_full_width_reference_bit_for_bit(self):
        rng = np.random.default_rng(8)
        problems = []
        for _ in range(100):
            k, n = int(rng.integers(2, 20)), int(rng.integers(1, 3001))
            logits = (3.0 * rng.standard_normal((k, n))).astype(np.float32)
            labels = rng.integers(0, k, n).astype(np.int32)
            labels[rng.random(n) < rng.uniform(0.0, 0.5)] = IGNORE_LABEL
            if (labels == IGNORE_LABEL).all():
                labels[0] = 0
            problems.append((logits, labels))
        for n in (1, 2, 500):  # every column ignored but one
            logits, labels = rand_problem(rng, k=5, n=n, ignore=n)
            labels[n // 2] = 3
            problems.append((logits, labels))
        for logits, labels in problems:
            loss, dlogits, parts = segmentation_loss(logits, labels, np.ones(labels.size, dtype=bool))
            ref_loss, ref_dlogits, ref_parts = segmentation_loss_reference(logits, labels)
            got = np.array([loss, parts["ce"], parts["lovasz"]])
            want = np.array([ref_loss, ref_parts["ce"], ref_parts["lovasz"]])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(dlogits.view(np.int64), ref_dlogits.view(np.int64))

    @pytest.mark.parametrize("mask", ["one_false", "short", "long"])
    def test_valid_must_be_all_true_with_one_entry_per_column(self, mask):
        logits, labels = rand_problem(np.random.default_rng(7))
        bad = {"one_false": np.arange(10) != 3, "short": np.ones(9, dtype=bool), "long": np.ones(11, dtype=bool)}[mask]
        with pytest.raises(ValueError, match="valid must be all True with one entry per logit column"):
            segmentation_loss(logits, labels, bad)


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

    def test_nonfinite_gradient_changes_nothing(self):
        # the check covers every gradient before the first update, so a NaN in
        # the last trainable tensor leaves the earlier ones, the moments and the step
        store = ParamStore()
        for name, value in (("a", 1.0), ("b", 2.0)):
            store.register(name, np.array([value, -value], dtype=np.float32)).grad[...] = 0.5
        store.register("running", np.array([5.0], dtype=np.float32), trainable=False)
        opt = AdamW(store, weight_decay=0.1)
        opt.step(lr=0.1)
        dict(store.items())["b"].grad[1] = np.nan
        before = copy.deepcopy((dict(store.items()), opt.m, opt.v, opt.step_count))
        with pytest.raises(FloatingPointError, match="'b'"):
            opt.step(lr=0.1)
        for name, t in store.items():
            assert t.data.tobytes() == before[0][name].data.tobytes(), name
            if t.trainable:
                assert t.grad.tobytes() == before[0][name].grad.tobytes(), name
                assert opt.m[name].tobytes() == before[1][name].tobytes(), name
                assert opt.v[name].tobytes() == before[2][name].tobytes(), name
        assert opt.step_count == before[3] == 1

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
        rc = overfit_harness_config(fov)
        rc.train.epochs = 1
        rc.train.n_points = 64
        rc.train.peak_lr = 0.0
        rc.train.final_lr = 0.0
        model, _, _ = train_loop([scene], rc)
        fresh = dict(WaffleIron(rc.model, np.random.default_rng(rc.train.seed)).store.items())
        for name, t in model.store.trainable_items():
            np.testing.assert_array_equal(t.data, fresh[name].data, err_msg=name)

    def test_empty_dataset_raises(self):
        scene, fov = synthetic_zband_scene(n_points=16)
        with pytest.raises(ValueError):
            train_loop([], overfit_harness_config(fov))

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

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 1000, 19130])
    def test_polarmix_partner_draw_equals_a_choice_among_the_others(self, n):
        # train_loop's O(1) partner draw against the O(n) formula it replaced:
        # same partner, and the generator left in the same state
        for seed in range(200):
            for idx in (0, n // 2, n - 1):
                fast, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
                j = int(fast.integers(n - 1))
                others = [k for k in range(n) if k != idx]
                assert j + (j >= idx) == int(oracle.choice(others))
                assert fast.bit_generator.state == oracle.bit_generator.state

    def test_polarmix_partner_is_another_scene(self):
        class Recording(list):
            def __getitem__(self, i):
                self.reads.append(i)
                return super().__getitem__(i)

        fov = synthetic_zband_scene(n_points=32)[1]
        dataset = Recording(synthetic_zband_scene(n_points=32, seed=s)[0] for s in range(3))
        dataset.reads = []
        rc = overfit_harness_config(fov)
        rc.train.epochs = 2
        rc.train.n_points = 32
        rc.augment.polarmix = True
        train_loop(dataset, rc)
        scenes, partners = dataset.reads[::2], dataset.reads[1::2]
        assert len(scenes) == len(partners) == 6
        assert sorted(scenes) == [0, 0, 1, 1, 2, 2]
        assert all(p != s and 0 <= p < 3 for s, p in zip(scenes, partners))


class TestPrepareTrainingScene:
    def test_builds_the_input_features_once(self, monkeypatch):
        # polarmix and cutmix add points and the scene motion moves them all; the features come after the last
        built = []
        build = backbone.point_features

        def counting(positions, intensity, mode):
            built.append(positions)
            return build(positions, intensity, mode)

        monkeypatch.setattr(backbone, "point_features", counting)
        scene, fov = synthetic_zband_scene(n_points=64)
        labels = scene.labels.copy()
        labels[:16] = 8  # road for the pasted instances to land on
        labels[16:24] = 5
        scene = PointCloud(scene.positions, scene.intensity, labels)
        bank = build_instance_bank([(scene, np.zeros(64, dtype=np.int32))], classes=(5,))
        model = WaffleIron(overfit_harness_config(fov).model, np.random.default_rng(0))
        augment = AugmentConfig(rotate=True, flip=True, scale=True, cutmix=True, polarmix=True)
        (feats, *_), fixed = prepare_training_scene(scene, model, 96, np.random.default_rng(1), augment, bank, scene)
        # built once, from the whole sampled scene: it is below the cap, so it runs at its own size
        assert len(built) == 1 and 64 < fixed.n_points < 96
        np.testing.assert_array_equal(built[0], fixed.positions)
        np.testing.assert_array_equal(feats, build(fixed.positions, fixed.intensity, "5dim"))
