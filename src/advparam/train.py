"""Minibatch SGD training, standard or adversarial (PGD inner loop)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attack import PgdConfig, pgd_adversary_batch
from .data import LabeledDataset
from .metrics import accuracy
from .mlp import ModelParams, _loss_and_grads, _workspace, init_params


@dataclass
class TrainConfig:
    """SGD-with-momentum schedule.  ``dims`` are the full layer widths
    (input, hidden..., classes).  With ``adversarial`` set, each step trains
    on PGD points generated at ``pgd`` from the current net."""

    dims: list[int]
    epochs: int = 40
    lr: float = 0.1
    batch_size: int = 32
    seed: int = 0
    momentum: float = 0.9
    lr_decay: float = 1.0  # per-epoch multiplier
    adversarial: bool = False
    pgd: PgdConfig = field(default_factory=lambda: PgdConfig(eps=8.0 / 255.0, steps=10))

    def __post_init__(self):
        if min(self.dims, default=1) < 1:
            raise ValueError(f"layer width {min(self.dims)} in dims {self.dims} is below 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr}")
        if not (0 <= self.momentum < 1):
            raise ValueError(f"momentum must be a finite number in [0, 1), got {self.momentum}")
        if not (0 < self.lr_decay <= 1):
            raise ValueError(f"lr_decay must be a finite number in (0, 1], got {self.lr_decay}")


@dataclass
class TrainResult:
    params: ModelParams
    history: list  # per-epoch dicts: epoch, loss, acc


def train(cfg: TrainConfig, ds: LabeledDataset) -> TrainResult:
    """Train a fresh net on ds; deterministic for a fixed config.  Each batch
    size (the last batch may be short) keeps one ``Workspace`` for PGD and the
    gradient pass of its steps; each epoch's accuracy keeps its own there too.
    Its rows, from ds or PGD, are finite, so the pass is ``_loss_and_grads``."""
    ds.check_model(cfg.dims[0], cfg.dims[-1])
    params = init_params(cfg.dims, seed=cfg.seed)
    shuffle_rng = np.random.default_rng((cfg.seed, 1))
    velocity = np.zeros(params.num_params)
    lr = cfg.lr
    history = []
    n = len(ds)
    step_idx = 0
    spaces = {}
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            Xb, yb = ds.X[idx], ds.y[idx]
            if cfg.adversarial:
                Xb = pgd_adversary_batch(params, Xb, yb, cfg.pgd, seed=(cfg.seed, 2, step_idx), made=spaces)
            val, g = _loss_and_grads(params, Xb, yb, "mean", _workspace(spaces, params, len(idx)))
            velocity = cfg.momentum * velocity - lr * g.flat
            params = params.like(params.flat + velocity)
            epoch_loss += val * len(idx)
            step_idx += 1
        lr *= cfg.lr_decay
        history.append({"epoch": epoch, "loss": epoch_loss / n, "acc": accuracy(params, ds, spaces)})
    return TrainResult(params=params, history=history)
