"""Training loop: determinism, convergence, adversarial variant."""

import math

import numpy as np
import pytest

from advparam import attack, mlp
from advparam import train as train_mod
from advparam.attack import PgdConfig
from advparam.data import gen_blobs
from advparam.metrics import accuracy, adversarial_accuracy
from advparam.mlp import init_params, loss_and_grads, max_abs_diff
from advparam.train import TrainConfig, train

from common import observe_kernel


def test_train_fits_blobs_and_loss_decreases():
    ds = gen_blobs(90, 6, 3, seed=2)
    res = train(TrainConfig(dims=[6, 16, 3], epochs=15, lr=0.2, batch_size=16, seed=0), ds)
    assert accuracy(res.params, ds) >= 0.95
    assert res.history[-1]["loss"] < res.history[0]["loss"]
    assert len(res.history) == 15


def test_train_deterministic():
    ds = gen_blobs(40, 4, 2, seed=1)
    cfg = TrainConfig(dims=[4, 8, 2], epochs=5, lr=0.1, batch_size=8, seed=3)
    a = train(cfg, ds).params
    b = train(cfg, ds).params
    assert max_abs_diff(a, b) == 0.0
    c = train(TrainConfig(dims=[4, 8, 2], epochs=5, lr=0.1, batch_size=8, seed=4), ds).params
    assert max_abs_diff(a, c) > 0.0


def test_train_keeps_one_workspace_per_batch_size(monkeypatch):
    """40 samples in batches of 16 take two batch sizes (16 and 8), so two
    workspaces for the gradient pass, besides the epoch accuracy's one for
    ds (40 rows); the trained net is bit for bit the one from a fresh
    workspace per step."""
    ds = gen_blobs(40, 4, 2, seed=1)
    cfg = TrainConfig(dims=[4, 8, 2], epochs=3, lr=0.1, batch_size=16, seed=3)
    built = []

    class Counted(mlp.Workspace):
        def __init__(self, params, n_rows):
            built.append(self)
            super().__init__(params, n_rows)

    monkeypatch.setattr(mlp, "Workspace", Counted)
    loss_spaces = observe_kernel(monkeypatch, "_loss_and_grads", -1)
    reused = train(cfg, ds).params
    assert sorted(ws.n_rows for ws in built if ws in loss_spaces) == [8, 16]
    assert sorted(ws.n_rows for ws in built) == [8, 16, 40]
    monkeypatch.setattr(train_mod, "_loss_and_grads",
                        lambda params, X, y, reduction, ws: loss_and_grads(params, X, y, reduction))
    assert train(cfg, ds).params.flat.tobytes() == reused.flat.tobytes()


def test_adversarial_train_shares_one_workspace_per_batch_size(monkeypatch):
    """PGD and the gradient pass of a step run in one workspace per batch size
    (16 and 8), and the epoch accuracy keeps one for ds (40 rows); the net and
    its history are bit for bit those from fresh workspaces."""
    ds = gen_blobs(40, 4, 2, seed=1)
    cfg = TrainConfig(dims=[4, 8, 2], epochs=3, lr=0.1, batch_size=16, seed=3, adversarial=True,
                      pgd=PgdConfig(eps=0.1, steps=3))
    built = []

    class Counted(mlp.Workspace):
        def __init__(self, params, n_rows):
            built.append(n_rows)
            super().__init__(params, n_rows)

    monkeypatch.setattr(mlp, "Workspace", Counted)
    pgd_spaces = observe_kernel(monkeypatch, "_input_gradient", -1)
    loss_spaces = observe_kernel(monkeypatch, "_loss_and_grads", -1)
    kept = train(cfg, ds)
    pgd_spaces, loss_spaces = set(pgd_spaces), set(loss_spaces)
    assert sorted(built) == [8, 16, 40]
    assert pgd_spaces == loss_spaces and sorted(ws.n_rows for ws in loss_spaces) == [8, 16]

    monkeypatch.setattr(train_mod, "pgd_adversary_batch",
                        lambda params, X, y, pgd, seed, made: attack.pgd_adversary_batch(params, X, y, pgd, seed))
    monkeypatch.setattr(train_mod, "_loss_and_grads",
                        lambda params, X, y, reduction, ws: loss_and_grads(params, X, y, reduction))
    monkeypatch.setattr(train_mod, "accuracy", lambda params, ds, made: accuracy(params, ds))
    fresh = train(cfg, ds)
    assert fresh.params.flat.tobytes() == kept.params.flat.tobytes() and fresh.history == kept.history


def test_a_step_that_goes_non_finite_is_refused_at_that_step(monkeypatch):
    """At a huge learning rate the weights blow up and a gradient goes
    non-finite.  The unchecked gradient pass lets it through, and the step
    that would apply it raises ``non-finite parameter entries`` when it wraps
    the new weights: the same step at which the checked ``loss_and_grads``
    refuses the gradient itself."""
    ds = gen_blobs(40, 4, 2, seed=1)
    cfg = TrainConfig(dims=[4, 8, 2], epochs=3, lr=1e100, batch_size=8, seed=3)
    steps = observe_kernel(monkeypatch, "_loss_and_grads")
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite parameter entries"):
        train(cfg, ds)
    unchecked = len(steps)
    checked = []

    def checked_pass(params, X, y, reduction, ws):
        checked.append(X)
        return loss_and_grads(params, X, y, reduction, ws)

    monkeypatch.setattr(train_mod, "_loss_and_grads", checked_pass)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite parameter entries") as refused:
        train(cfg, ds)
    assert refused.traceback[-1].name == "loss_and_grads"
    assert unchecked == len(checked) >= 2


def test_train_validates_dims():
    ds = gen_blobs(30, 4, 3, seed=0)
    with pytest.raises(ValueError):
        train(TrainConfig(dims=[5, 8, 3], epochs=1), ds)  # wrong input width
    with pytest.raises(ValueError):
        train(TrainConfig(dims=[4, 8, 2], epochs=1), ds)  # too few classes
    for dims in ([4, 0, 3], [4, -2, 3]):  # a width below 1
        with pytest.raises(ValueError, match=f"layer width {dims[1]} in dims"):
            train(TrainConfig(dims=dims, epochs=1), ds)
        with pytest.raises(ValueError, match=f"layer width {dims[1]} in dims"):
            init_params(dims, seed=0)


@pytest.mark.parametrize("lr", [0.0, -0.1, math.nan, math.inf])
def test_train_config_refuses_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="lr must be a finite number > 0"):
        TrainConfig(dims=[4, 8, 2], lr=lr)


def test_adversarial_training_runs_and_stays_accurate():
    ds = gen_blobs(60, 5, 2, seed=6, spread=0.08)
    pgd = PgdConfig(eps=0.12, steps=8)
    cfg = TrainConfig(dims=[5, 16, 2], epochs=15, lr=0.15, batch_size=16, seed=0,
                      adversarial=True, pgd=pgd)
    res = train(cfg, ds)
    assert accuracy(res.params, ds) >= 0.9
    # the adversarially trained net should hold up at its training budget
    aa = adversarial_accuracy(res.params, ds, pgd, seed=0)
    assert aa >= 0.8
