"""Losses, optimizer, learning-rate schedule and the training loop.

The loss is the sum of a masked cross-entropy and the Lovasz extension of
the Jaccard index applied to softmax probabilities. Optimization uses AdamW
with decoupled weight decay, a linear warmup and cosine annealing. Batches
are realized as gradient accumulation over single clouds, which keeps memory
bounded while matching the effective batch size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .augment import AugmentConfig, InstanceBank, apply_augmentations
from .backbone import WaffleIron, WaffleIronConfig, prepare_inputs
from .geometry import IGNORE_LABEL, PointCloud, crop_fov, sample_fixed
from .nn import ParamStore


# -- losses --------------------------------------------------------------------


def _counted_mask(labels: np.ndarray, valid: np.ndarray) -> np.ndarray:
    return valid & (labels != IGNORE_LABEL)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Columnwise softmax, computed in float64 for stability."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray, valid: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over valid, non-ignore points.

    Returns the scalar loss and its exact gradient with respect to the
    logits (zero on excluded columns).
    """
    counted = _counted_mask(labels, valid)
    m = int(counted.sum())
    if m == 0:
        raise ValueError("cross_entropy: no valid labeled points")
    cols = np.flatnonzero(counted)
    z = logits[:, cols].astype(np.float64)
    z = z - z.max(axis=0, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=0))
    picked = z[labels[cols], np.arange(m)]
    loss = float((logsumexp - picked).mean())
    probs = np.exp(z - logsumexp[None, :])
    probs[labels[cols], np.arange(m)] -= 1.0
    grad = np.zeros(logits.shape, dtype=np.float64)
    grad[:, cols] = probs / m
    return loss, grad


def lovasz_grad_from_sorted(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient of the Lovasz extension of the Jaccard loss.

    ``fg_sorted`` is the 0/1 ground-truth indicator sorted by decreasing
    error. Cumulative intersection/union give the extension's value at the
    sorted prefix points; consecutive differences are the weights.
    """
    gts = fg_sorted.sum()
    intersection = gts - np.cumsum(fg_sorted)
    union = gts + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    if fg_sorted.size > 1:
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_softmax(probs: np.ndarray, labels: np.ndarray, valid: np.ndarray) -> tuple[float, np.ndarray]:
    """Lovasz-softmax loss, averaged over the classes present in the batch.

    For each present class the per-point errors (1 - p for the class's own
    points, p elsewhere) are sorted in decreasing order and weighted by the
    Jaccard-extension gradient. Also returns the gradient with respect to
    ``probs``.
    """
    counted = _counted_mask(labels, valid)
    cols = np.flatnonzero(counted)
    if cols.size == 0:
        raise ValueError("lovasz_softmax: no valid labeled points")
    y = labels[cols]
    p = probs[:, cols].astype(np.float64)
    present = np.unique(y)
    total = 0.0
    grad = np.zeros(probs.shape, dtype=np.float64)
    for c in present:
        fg = (y == c).astype(np.float64)
        errors = np.where(fg > 0, 1.0 - p[c], p[c])
        order = np.argsort(-errors, kind="stable")
        g = lovasz_grad_from_sorted(fg[order])
        total += float(errors[order] @ g)
        derr = np.zeros_like(errors)
        derr[order] = g
        grad[c, cols] += np.where(fg > 0, -derr, derr)
    total /= present.size
    grad /= present.size
    return total, grad


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Pull a gradient on softmax outputs back to the logits."""
    p = probs.astype(np.float64)
    inner = (p * dprobs).sum(axis=0, keepdims=True)
    return p * (dprobs - inner)


def segmentation_loss(logits: np.ndarray, labels: np.ndarray, valid: np.ndarray):
    """Cross-entropy plus Lovasz-softmax; returns (loss, dlogits, parts)."""
    ce, dce = cross_entropy(logits, labels, valid)
    probs = softmax(logits)
    lz, dprobs = lovasz_softmax(probs, labels, valid)
    dlogits = dce + softmax_backward(probs, dprobs)
    return ce + lz, dlogits, {"ce": ce, "lovasz": lz}


# -- optimizer -------------------------------------------------------------------


@dataclass
class Schedule:
    """Linear warmup from zero to ``peak_lr`` then cosine decay to ``final_lr``."""

    warmup_steps: int
    total_steps: int
    peak_lr: float = 1e-3
    final_lr: float = 1e-5

    def __post_init__(self):
        if not 0 < self.warmup_steps < self.total_steps:
            raise ValueError("need 0 < warmup_steps < total_steps")


def lr_at(step: int, schedule: Schedule) -> float:
    if not 0 <= step <= schedule.total_steps:
        raise ValueError("step outside schedule")
    if step < schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    phase = np.pi * (step - schedule.warmup_steps) / span
    return schedule.final_lr + 0.5 * (schedule.peak_lr - schedule.final_lr) * (1.0 + float(np.cos(phase)))


class AdamW:
    """AdamW with decoupled weight decay over a parameter store.

    Weight decay shrinks parameters multiplicatively before the adaptive
    update; running statistics (non-trainable tensors) are never touched.
    """

    def __init__(
        self,
        store: ParamStore,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.003,
        base_lr: float = 1e-3,
    ):
        self.store = store
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.base_lr = base_lr
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.trainable_items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.trainable_items()}

    def step(self, lr: Optional[float] = None):
        if lr is None:
            lr = self.base_lr
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - b1**t
        bias2 = 1.0 - b2**t
        for name, tensor in self.store.trainable_items():
            g = tensor.grad
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient in parameter {name!r}")
            if self.weight_decay:
                tensor.data *= 1.0 - lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            tensor.data -= (lr * update).astype(np.float32)

    def state_payload(self) -> dict:
        """Serializable snapshot (consumed by the checkpoint writer)."""
        return {
            "step": self.step_count,
            "betas": self.betas,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "base_lr": self.base_lr,
            "m": self.m,
            "v": self.v,
        }

    @classmethod
    def from_payload(cls, store: ParamStore, payload: dict) -> "AdamW":
        opt = cls(
            store,
            betas=tuple(payload["betas"]),
            eps=payload["eps"],
            weight_decay=payload["weight_decay"],
            base_lr=payload["base_lr"],
        )
        opt.step_count = int(payload["step"])
        for name in opt.m:
            opt.m[name][...] = payload["m"][name]
            opt.v[name][...] = payload["v"][name]
        return opt


# -- training loop ----------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 45
    batch_size: int = 4
    peak_lr: float = 1e-3
    final_lr: float = 1e-5
    weight_decay: float = 0.003
    warmup_epochs: int = 4
    n_points: int = 20000
    seed: int = 0
    checkpoint_every: int = 0  # epochs between checkpoints; 0 keeps only the final one
    log_path: Optional[str] = None


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    lr: float
    train_acc: float
    wall_seconds: float

    def log_line(self) -> str:
        return (
            f"{self.epoch}\t{self.mean_loss:.6f}\t{self.lr:.8f}"
            f"\t{self.train_acc:.4f}\t{self.wall_seconds:.3f}"
        )


def prepare_training_scene(
    pc: PointCloud,
    model: WaffleIron,
    n_points: int,
    rng: np.random.Generator,
    augment: Optional[AugmentConfig] = None,
    bank: Optional[InstanceBank] = None,
    partner: Optional[PointCloud] = None,
):
    """Scene pipeline: augment, crop to FOV, force a fixed size, build inputs."""
    if augment is not None:
        pc = apply_augmentations(pc, augment, rng, bank=bank, partner=partner)
    inside, _ = crop_fov(pc, model.config.fov)
    if inside.n_valid == 0:
        raise ValueError("no points left inside the FOV")
    fixed = sample_fixed(inside, n_points, rng)
    return prepare_inputs(model, fixed), fixed


def train_loop(
    dataset: Sequence[PointCloud],
    model_config: WaffleIronConfig,
    train_config: TrainConfig,
    augment: Optional[AugmentConfig] = None,
    bank: Optional[InstanceBank] = None,
    out_dir: Optional[str] = None,
    scan_names: Optional[Sequence[str]] = None,
    run_config=None,
) -> tuple[WaffleIron, AdamW, list[EpochStats]]:
    """Train a fresh model on a sequence of labeled clouds.

    One optimizer step accumulates gradients over ``batch_size`` scenes. The
    per-epoch log line is tab-separated: epoch, mean_loss, lr, train_acc,
    wall_seconds. Checkpoints land in ``out_dir`` when given.
    """
    from . import dataio  # checkpoint format lives with the other file formats

    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(train_config.seed)
    model = WaffleIron(model_config, rng)
    optimizer = AdamW(
        model.store,
        weight_decay=train_config.weight_decay,
        base_lr=train_config.peak_lr,
    )
    steps_per_epoch = max(1, len(dataset) // train_config.batch_size)
    total_steps = train_config.epochs * steps_per_epoch
    # the schedule needs at least one step on each side of the warmup corner;
    # runs shorter than that only ever evaluate the warmup ramp
    sched_total = max(total_steps, 2)
    warmup = max(1, min(train_config.warmup_epochs * steps_per_epoch, sched_total - 1))
    schedule = Schedule(
        warmup_steps=warmup,
        total_steps=sched_total,
        peak_lr=train_config.peak_lr,
        final_lr=train_config.final_lr,
    )

    history: list[EpochStats] = []
    log_file = open(train_config.log_path, "w") if train_config.log_path else None
    step = 0
    try:
        for epoch in range(train_config.epochs):
            t0 = time.perf_counter()
            order = rng.permutation(len(dataset))
            losses = []
            correct = 0
            scored = 0
            lr = lr_at(step, schedule)
            for s in range(steps_per_epoch):
                lr = lr_at(step, schedule)
                model.store.zero_grad()
                batch = order[s * train_config.batch_size : (s + 1) * train_config.batch_size]
                if batch.size == 0:
                    batch = order[:1]
                for idx in batch:
                    scene = dataset[int(idx)]
                    partner = None
                    if augment is not None and augment.polarmix and len(dataset) > 1:
                        others = [j for j in range(len(dataset)) if j != int(idx)]
                        partner = dataset[int(rng.choice(others))]
                    try:
                        (feats, neighbors, projections, valid), fixed = prepare_training_scene(
                            scene, model, train_config.n_points, rng, augment, bank, partner
                        )
                        logits = model.forward(
                            feats,
                            neighbors,
                            projections,
                            valid,
                            training=True,
                            drop_rng=rng if model_config.drop_prob > 0 else None,
                        )
                        loss, dlogits, _ = segmentation_loss(logits, fixed.labels, valid)
                        model.backward(dlogits / batch.size)
                    except ValueError as err:
                        name = scan_names[int(idx)] if scan_names else f"scene {int(idx)}"
                        raise ValueError(f"{name}: {err}") from err
                    losses.append(loss)
                    counted = _counted_mask(fixed.labels, valid)
                    pred = logits.argmax(axis=0)
                    correct += int((pred[counted] == fixed.labels[counted]).sum())
                    scored += int(counted.sum())
                optimizer.step(lr)
                step += 1
            stats = EpochStats(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                lr=lr,
                train_acc=correct / max(scored, 1),
                wall_seconds=time.perf_counter() - t0,
            )
            history.append(stats)
            if log_file:
                log_file.write(stats.log_line() + "\n")
                log_file.flush()
            if out_dir and train_config.checkpoint_every and (epoch + 1) % train_config.checkpoint_every == 0:
                dataio.checkpoint_save(
                    Path(out_dir) / f"ckpt_epoch_{epoch:04d}.wfli", model, optimizer, run_config
                )
        if out_dir:
            dataio.checkpoint_save(Path(out_dir) / "ckpt_final.wfli", model, optimizer, run_config)
    finally:
        if log_file:
            log_file.close()
    return model, optimizer, history
