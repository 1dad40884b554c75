"""PGD contracts, budgets/projection, attack loop invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advparam import attack, metrics, mlp
from advparam.attack import (
    AttackConfig,
    PerturbBudget,
    PgdConfig,
    attack_direct,
    attack_label,
    attack_linf,
    attack_single,
    attack_swap,
    linf_attacks,
    perturb_random,
    pgd_adversary_batch,
    pgd_flips_batch,
    proj_box,
)
from advparam.data import LabeledDataset, gen_blobs
from advparam.mlp import (
    ModelParams,
    classify,
    forward_batch,
    input_gradient,
    loss_and_grads,
    max_abs_diff,
)
from advparam.train import TrainConfig, train

from common import count_scoring_passes, cross_entropy, observe_kernel, random_net


def _ce(params, X, y):
    _, _, logits = forward_batch(params, X)
    return cross_entropy(logits, np.asarray(y))


# --- PGD ------------------------------------------------------------------------


def test_pgd_stays_in_ball_and_box():
    rng = np.random.default_rng(0)
    p = random_net(rng, [4, 8, 3])
    X = rng.uniform(0, 1, size=(12, 4))
    y = rng.integers(0, 3, size=12)
    cfg = PgdConfig(eps=0.1, steps=15)
    Xa = pgd_adversary_batch(p, X, y, cfg, seed=1)
    assert np.abs(Xa - X).max() <= 0.1 + 1e-12
    assert Xa.min() >= 0.0 and Xa.max() <= 1.0


def test_pgd_never_decreases_loss():
    rng = np.random.default_rng(3)
    for seed in range(4):
        p = random_net(rng, [5, 9, 4])
        X = rng.uniform(0, 1, size=(10, 5))
        y = rng.integers(0, 4, size=10)
        Xa = pgd_adversary_batch(p, X, y, PgdConfig(eps=0.08, steps=12), seed=seed)
        assert (_ce(p, Xa, y) >= _ce(p, X, y) - 1e-12).all()


def test_pgd_deterministic_and_eps_zero_identity():
    rng = np.random.default_rng(5)
    p = random_net(rng, [3, 6, 2])
    X = rng.uniform(0, 1, size=(7, 3))
    y = rng.integers(0, 2, size=7)
    cfg = PgdConfig(eps=0.1, steps=10)
    a = pgd_adversary_batch(p, X, y, cfg, seed=9)
    b = pgd_adversary_batch(p, X, y, cfg, seed=9)
    np.testing.assert_array_equal(a, b)
    z = pgd_adversary_batch(p, X, y, PgdConfig(eps=0.0, steps=10), seed=9)
    np.testing.assert_array_equal(z, X)


def test_pgd_single_sample():
    p = ModelParams([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
    x = np.array([0.62, 0.38])
    xa = pgd_adversary_batch(p, x[None], np.array([0]), PgdConfig(eps=0.2, steps=25), seed=0)[0]
    # identity logits: PGD should cross the diagonal within the 0.2 ball
    assert xa[1] - xa[0] > -1e-9 or _ce(p, xa[None], [0])[0] > _ce(p, x[None], [0])[0]
    flipped = pgd_flips_batch(p, x[None], np.array([0]), PgdConfig(eps=0.2, steps=25), seed=0)
    assert bool(flipped[0])


def test_pgd_flips_includes_clean_misclassification():
    p = ModelParams([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
    flipped = pgd_flips_batch(p, np.array([[0.2, 0.8]]), np.array([0]),
                              PgdConfig(eps=0.0, steps=0), seed=0)
    assert bool(flipped[0])


def test_robust_loss_at_least_clean_loss():
    rng = np.random.default_rng(11)
    p = random_net(rng, [4, 7, 3])
    X = rng.uniform(0, 1, size=(9, 4))
    y = rng.integers(0, 3, size=9)
    Xadv = pgd_adversary_batch(p, X, y, PgdConfig(eps=0.1, steps=10), seed=0)
    assert (_ce(p, Xadv, y) >= _ce(p, X, y) - 1e-12).all()


def _two_pass_pgd(params, X, y, cfg, seed):
    """Oracle: PGD with a separate forward at every iterate after its gradient step.

    The single-pass ``_pgd_run`` must reproduce it bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    lo = np.maximum(X - cfg.eps, 0.0)
    hi = np.minimum(X + cfg.eps, 1.0)

    def eval_point(P):
        _, _, logits = forward_batch(params, P)
        return cross_entropy(logits, y), np.argmax(logits, axis=1)

    best_ce, pred = eval_point(X)
    best_X = X.copy()
    flipped = pred != y
    if cfg.eps == 0.0 or cfg.steps == 0:
        return best_X, flipped, best_ce
    cur = np.clip(X + cfg.eps * rng.uniform(-1.0, 1.0, size=X.shape), lo, hi)
    ce, pred = eval_point(cur)
    flipped |= pred != y
    better = ce > best_ce
    best_ce = np.where(better, ce, best_ce)
    best_X[better] = cur[better]
    for _ in range(cfg.steps):
        _, g, _ = input_gradient(params, cur, y)
        cur = np.clip(cur + cfg.resolved_step * np.sign(g), lo, hi)
        ce, pred = eval_point(cur)
        flipped |= pred != y
        better = ce > best_ce
        best_ce = np.where(better, ce, best_ce)
        best_X[better] = cur[better]
    return best_X, flipped, best_ce


# The "True" in the case ids of the two PGD tests below stands for the random
# start, which every PGD run makes.
# N = 1023 runs as one block of odd size, 1025 and 3000 in several row blocks;
# the oracle runs every row at once.
_ORACLE_CASES = {"1": (1, [4, 10, 10, 3]), "32": (32, [4, 10, 10, 3]), "1025": (1025, [4, 10, 10, 3]),
                 "3000": (3000, [4, 10, 10, 3]), "32-unequal": (32, [4, 13, 5, 8, 3]),
                 "1025-unequal": (1025, [4, 13, 5, 8, 3]), "160": (160, [4, 10, 10, 3]),
                 "1023": (1023, [4, 10, 10, 3]), "160-2-classes": (160, [4, 9, 2]),
                 "160-10-classes": (160, [4, 12, 7, 10]), "32-no-hidden": (32, [4, 3]),
                 "1025-no-hidden-10-classes": (1025, [4, 10])}


@pytest.mark.parametrize("n,dims", list(_ORACLE_CASES.values()), ids=list(_ORACLE_CASES))
@pytest.mark.parametrize("steps", [0, 1, 2, 7])
@pytest.mark.parametrize("eps", [0.0, 0.15], ids=["0.0-True", "0.15-True"])
def test_pgd_matches_two_pass_oracle(n, dims, steps, eps):
    rng = np.random.default_rng(100 + n + steps)
    p = random_net(rng, dims)
    X = rng.uniform(0, 1, size=(n, 4))
    y = rng.integers(0, dims[-1], size=n)
    cfg = PgdConfig(eps=eps, steps=steps)
    want = _two_pass_pgd(p, X, y, cfg, seed=3)
    assert pgd_adversary_batch(p, X, y, cfg, seed=3).tobytes() == want[0].tobytes()
    assert pgd_flips_batch(p, X, y, cfg, seed=3).tobytes() == want[1].tobytes()


@pytest.mark.parametrize("steps", [0, 1, 2, 7], ids=lambda s: f"True-{s}")
def test_pgd_pass_counts(monkeypatch, steps):
    """Per row block, both PGD paths make s gradient passes and s + 2
    forwards (one forward when there is no step), counted in the kernels
    that every pass, public or not, runs; the clean point is a public
    ``forward_batch`` and only the first gradient pass a public
    ``input_gradient``."""
    rng = np.random.default_rng(8)
    p = random_net(rng, [4, 6, 3])
    forwards, grads = observe_kernel(monkeypatch, "_forward"), observe_kernel(monkeypatch, "_input_gradient")
    public = {"forward_batch": 0, "input_gradient": 0}
    for name in public:
        def counted(*a, _fn=getattr(attack, name), _name=name):
            public[_name] += 1
            return _fn(*a)
        monkeypatch.setattr(attack, name, counted)
    for n in (5, 1025):
        X = rng.uniform(0, 1, size=(n, 4))
        y = rng.integers(0, 3, size=n)
        blocks = len(mlp.row_blocks(n))
        for run in (pgd_adversary_batch, pgd_flips_batch):
            forwards.clear()
            grads.clear()
            public.update(forward_batch=0, input_gradient=0)
            run(p, X, y, PgdConfig(eps=0.1, steps=steps))
            if steps == 0:
                assert (len(forwards), len(grads)) == (blocks, 0)
            else:
                assert (len(forwards), len(grads)) == (blocks * (steps + 2), blocks * steps)
            assert public == {"forward_batch": blocks, "input_gradient": blocks if steps else 0}


@pytest.mark.parametrize("steps", [0, 3])
def test_pgd_run_does_only_the_work_its_output_needs(monkeypatch, steps):
    """A flags run takes no cross-entropy outside its gradient passes; a
    best-iterate run takes it once per block at the clean point and, when it
    steps, once at the forward-only last iterate."""
    rng = np.random.default_rng(12)
    p = random_net(rng, [4, 6, 3])
    X = rng.uniform(0, 1, size=(1025, 4))
    y = rng.integers(0, 3, size=1025)
    calls, real = [], attack._ce_and_dlogits
    monkeypatch.setattr(attack, "_ce_and_dlogits", lambda *a: calls.append(a[0].shape) or real(*a))
    cfg = PgdConfig(eps=0.1, steps=steps)
    assert attack._pgd_run(p, X, y, cfg, seed=1, flips=True).shape == (1025,)
    assert calls == []
    assert attack._pgd_run(p, X, y, cfg, seed=1).shape == X.shape
    per_block = [(512, 3), (513, 3)]
    assert sorted(calls) == sorted(per_block * (2 if steps else 1))


@pytest.mark.parametrize("n,sizes", [(5, {5}), (1025, {512, 513}), (3000, {1000})])
def test_pgd_builds_one_workspace_per_block_size(monkeypatch, n, sizes):
    rng = np.random.default_rng(9)
    p = random_net(rng, [4, 6, 3])
    X = rng.uniform(0, 1, size=(n, 4))
    y = rng.integers(0, 3, size=n)
    built = []

    class Counted(mlp.Workspace):
        def __init__(self, params, n_rows):
            built.append(n_rows)
            super().__init__(params, n_rows)

    monkeypatch.setattr(mlp, "Workspace", Counted)
    grads = observe_kernel(monkeypatch, "_input_gradient", -1)
    pgd_flips_batch(p, X, y, PgdConfig(eps=0.1, steps=3))
    assert sorted(built) == sorted(sizes)
    assert len(grads) == 3 * len(mlp.row_blocks(n)) and all(isinstance(ws, Counted) for ws in grads)


def _count_workspaces(monkeypatch):
    """(built, pgd, loss): every ``mlp.Workspace`` made, the workspace of every
    PGD gradient pass and that of every loss pass of an attack."""
    built = []

    class Counted(mlp.Workspace):
        def __init__(self, params, n_rows):
            built.append(self)
            super().__init__(params, n_rows)

    monkeypatch.setattr(mlp, "Workspace", Counted)
    return built, observe_kernel(monkeypatch, "_input_gradient", -1), observe_kernel(monkeypatch, "_loss_and_grads", -1)


def _distinct(spaces: list) -> list:
    return list({id(ws): ws for ws in spaces}.values())


@pytest.mark.parametrize("n,sizes", [(30, [30]), (1025, [512, 513])])
def test_full_batch_descent_keeps_one_pgd_workspace_per_block_size(monkeypatch, n, sizes):
    """Every PGD run of a full-batch lockstep descent, cold or warm, runs in
    the workspaces made for the first one: one per block size.  The descent
    builds one workspace per row count in all, the PGD blocks' and the loss
    passes' of n rows."""
    rng = np.random.default_rng(23)
    p = random_net(rng, [4, 6, 3])
    ds = LabeledDataset(rng.uniform(0, 1, size=(n, 4)), rng.integers(0, 3, size=n))
    cfg = AttackConfig(pgd=PgdConfig(eps=0.08, steps=6), n_pre=2, n_main=3, alpha=0.05)
    built, pgd, loss = _count_workspaces(monkeypatch)
    linf_attacks(p, ds, [PerturbBudget("linf", gamma=g) for g in (0.05, 0.1)], cfg)
    descent = [ws for ws in pgd if ws.stack_shape == (2,)]  # the scorer's stack holds 3 nets
    steps = 6 + attack._WARM_STEPS * (cfg.n_pre + cfg.n_main - 1)
    assert len(descent) == steps * len(sizes)
    assert sorted(ws.n_rows for ws in _distinct(descent)) == sizes
    assert sorted(ws.n_rows for ws in built if ws.stack_shape == (2,)) == sorted({*sizes, n})


@pytest.mark.parametrize("n", [30, 1025])
def test_full_batch_descent_keeps_one_workspace_per_row_count(monkeypatch, n):
    """A full-batch descent runs every loss pass (phase 1's robust mean,
    phase 2's clean numerator and robust denominator) in one workspace of all
    n rows, which PGD shares while n rows are one block."""
    rng = np.random.default_rng(23)
    p = random_net(rng, [4, 6, 3])
    ds = LabeledDataset(rng.uniform(0, 1, size=(n, 4)), rng.integers(0, 3, size=n))
    cfg = AttackConfig(pgd=PgdConfig(eps=0.08, steps=6), n_pre=2, n_main=3, alpha=0.05)
    built, pgd, loss = _count_workspaces(monkeypatch)
    linf_attacks(p, ds, [PerturbBudget("linf", gamma=g) for g in (0.05, 0.1)], cfg)
    (ws,) = _distinct(loss)
    assert loss == [ws] * (cfg.n_pre + 2 * cfg.n_main)
    assert (ws.stack_shape, ws.n_rows) == ((2,), n)
    descent = _distinct([w for w in pgd if w.stack_shape == (2,)])
    assert (descent == [ws]) == (n <= mlp.BLOCK_ROWS)
    assert sum(w.stack_shape == (2,) for w in built) == len(_distinct([*descent, ws]))


def test_swap_refreshes_keep_one_pgd_workspace(monkeypatch):
    """Every gradient refresh of the swap attack runs its cold PGD and its loss passes in one workspace."""
    rng = np.random.default_rng(24)
    p = random_net(rng, [4, 6, 3])
    ds = LabeledDataset(rng.uniform(0, 1, size=(30, 4)), rng.integers(0, 3, size=30))
    cfg = AttackConfig(pgd=PgdConfig(eps=0.08, steps=4), n_pre=0, n_main=0, seed=1)
    built, pgd, loss = _count_workspaces(monkeypatch)
    res = attack_swap(p, ds, PerturbBudget("swap", k_matrices=1, pair_fraction=0.05, pair_floor=4), cfg)
    refreshes = [ws for ws in pgd if ws.stack_shape == ()]  # the scorer's stack holds 2 nets
    assert len(res.trace) > 1 and len(refreshes) == 4 * len(res.trace)
    assert all(ws is refreshes[0] for ws in refreshes + loss)
    assert [(ws.stack_shape, ws.n_rows) for ws in built].count(((), 30)) == 1


@pytest.mark.parametrize("kind", ["label", "direct"])
def test_minibatch_descent_keeps_the_workspaces_of_one_iteration(monkeypatch, kind):
    """A targeted minibatch descent splits each minibatch at the target, so
    its row counts vary between iterations (the direct attack's PGD runs on
    the off-target rows); the descent's dict keeps one workspace per row
    count of the last iteration, not one for every count it met, and a count
    the next iteration uses again keeps its workspace."""
    rng = np.random.default_rng(26)
    p = random_net(rng, [4, 6, 3])
    ds = LabeledDataset(rng.uniform(0, 1, size=(60, 4)), rng.integers(0, 3, size=60))
    cfg = AttackConfig(pgd=PgdConfig(eps=0.1, steps=3), n_pre=0, n_main=12, alpha=0.05, batch_size=12)
    events, real = [], attack._Carry.adversary

    def adversary(self, theta, X, y, rows, seed, sel=slice(None)):
        events.append(("held", dict(self.spaces)))
        events.append(("rows", len(y[sel])))
        return real(self, theta, X, y, rows, seed, sel)

    monkeypatch.setattr(attack._Carry, "adversary", adversary)
    real_loss = attack._loss_and_grads
    monkeypatch.setattr(attack, "_loss_and_grads", lambda *a: events.append(("rows", len(a[2]))) or real_loss(*a))
    (attack_label if kind == "label" else attack_direct)(p, ds, 0, PerturbBudget("linf", gamma=0.1), cfg)
    held, used, met = [], set(), set()
    for what, v in events:
        if what == "held":
            held.append((v, used))
            used = set()
        else:
            used.add(v)
            met.add(v)
    assert held[0] == ({}, set()) and len(held) > 5
    for (before, _), (spaces, last) in zip(held, held[1:]):
        assert set(spaces) == last  # rows <= BLOCK_ROWS: a PGD run's one block is keyed by its row count
        assert all(spaces[n] is before[n] for n in set(spaces) & set(before))
    assert max(len(spaces) for spaces, _ in held) <= 3 < len(met)


def test_warm_pgd_run_makes_no_generator(monkeypatch):
    """A warm run draws nothing, so it makes no generator; a cold run makes one from its seed."""
    rng = np.random.default_rng(25)
    p = random_net(rng, [4, 6, 3])
    X, y = rng.uniform(0, 1, size=(7, 4)), rng.integers(0, 3, size=7)
    made, real = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or real(*a))
    pgd_adversary_batch(p, X, y, PgdConfig(eps=0.1, steps=3), seed=3, start=X)
    assert made == []
    pgd_adversary_batch(p, X, y, PgdConfig(eps=0.1, steps=3), seed=3)
    assert made == [(3,)]


@pytest.mark.parametrize("n", [1, 2, 160, 1025])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("dims", [[4, 6, 5, 2], [8, 24, 24, 3], [5, 10], [3, 7, 10]])
def test_stacked_pgd_equals_per_net_runs_bit_for_bit(dims, k, n):
    """Both PGD paths on a stack of k nets give each net the bytes of a run
    on it alone: every net starts from the same random point."""
    rng = np.random.default_rng([dims[-1], len(dims), k, n])
    nets = [random_net(rng, dims) for _ in range(k)]
    stack = ModelParams.stack(nets)
    X = rng.uniform(0, 1, size=(n, dims[0]))
    y = rng.integers(0, dims[-1], size=n)
    cfg = PgdConfig(eps=0.1, steps=3)
    best_X, flipped = pgd_adversary_batch(stack, X, y, cfg, seed=4), pgd_flips_batch(stack, X, y, cfg, seed=4)
    assert best_X.shape == (k, n, dims[0]) and flipped.shape == (k, n)
    for i, net in enumerate(nets):
        assert best_X[i].tobytes() == pgd_adversary_batch(net, X, y, cfg, seed=4).tobytes()
        assert flipped[i].tobytes() == pgd_flips_batch(net, X, y, cfg, seed=4).tobytes()


def test_pgd_non_finite_iterate_raises(monkeypatch):
    rng = np.random.default_rng(10)
    p = random_net(rng, [4, 6, 3])
    X = rng.uniform(0, 1, size=(8, 4))
    y = rng.integers(0, 3, size=8)

    def nan_grad(params, X, y, ws=None):
        per, g, logits = input_gradient(params, X, y, ws)
        g[3, 1] = np.nan
        return per, g, logits

    monkeypatch.setattr(attack, "input_gradient", nan_grad)
    with pytest.raises(ValueError, match="non-finite input"):
        pgd_adversary_batch(p, X, y, PgdConfig(eps=0.1, steps=2))


@pytest.mark.parametrize("bad", [1, 3])
def test_pgd_non_finite_kernel_iterate_raises_at_that_iterate(monkeypatch, bad):
    """A NaN in the gradient of a later iterate, which the unchecked kernel
    computes, makes the next iterate non-finite, and that iterate raises
    ``non-finite input`` before any pass runs on it: with 4 steps, a NaN in
    the third kernel gradient stops the run before its forward-only last
    iterate."""
    rng = np.random.default_rng(10)
    p = random_net(rng, [4, 6, 3])
    X = rng.uniform(0, 1, size=(8, 4))
    y = rng.integers(0, 3, size=8)
    grads, last, real_grad, real_forward = [], [], attack._input_gradient, attack._forward

    def nan_grad(*a):
        per, g, logits = real_grad(*a)
        grads.append(a[1].copy())
        if len(grads) == bad:
            g[3, 1] = np.nan
        return per, g, logits

    monkeypatch.setattr(attack, "_input_gradient", nan_grad)
    monkeypatch.setattr(attack, "_forward", lambda *a: last.append(a) or real_forward(*a))
    with pytest.raises(ValueError, match="non-finite input"):
        pgd_adversary_batch(p, X, y, PgdConfig(eps=0.1, steps=4))
    assert len(grads) == bad and last == [] and all(np.isfinite(it).all() for it in grads)


@pytest.mark.parametrize("k", [None, 3], ids=["net", "stack"])
def test_ratio_grad_in_one_shared_workspace_equals_one_workspace_per_term(k):
    """Terms of one row count share one workspace, so each gradient leaves
    it before the next pass: two numerator terms and the denominator of 20
    rows each give the bytes of one fresh workspace per term, with the
    numerator's gradients added by ``add_scaled``."""
    rng = np.random.default_rng(27)
    dims = [4, 6, 5, 3]
    theta = random_net(rng, dims) if k is None else ModelParams.stack([random_net(rng, dims) for _ in range(k)])
    lead = theta.stack_shape
    X1, X2, Xd = (rng.uniform(0, 1, size=shape) for shape in [(20, 4), lead + (20, 4), lead + (20, 4)])
    y1, y2, yd = (rng.integers(0, 3, size=20) for _ in range(3))
    spaces = {}
    ratio, den, grad = attack._ratio_grad(theta, [(X1, y1), (X2, y2)], (Xd, yd), spaces)
    assert list(spaces) == [20]
    (v1, g1), (v2, g2), (vd, gd) = (loss_and_grads(theta, X, y, "sum") for X, y in [(X1, y1), (X2, y2), (Xd, yd)])
    floored = np.maximum(vd, attack._DENOM_FLOOR)
    want_ratio = (v1 + v2) / floored
    want = mlp.add_scaled(mlp.add_scaled(g1, g2), gd, -np.expand_dims(want_ratio, -1))
    assert np.asarray(ratio).tobytes() == np.asarray(want_ratio).tobytes()
    assert np.asarray(den).tobytes() == np.asarray(vd).tobytes()
    assert grad.flat.tobytes() == (want.flat / np.expand_dims(floored, -1)).tobytes()


def _ball_point(rng, X, eps, reach=1.0):
    """A uniform point of the eps * reach ball around each row, clipped to the eps-ball in [0,1]^n."""
    return np.clip(X + eps * reach * rng.uniform(-1.0, 1.0, size=X.shape),
                   np.maximum(X - eps, 0.0), np.minimum(X + eps, 1.0))


@pytest.mark.parametrize("n", [1, 30, 1025])
@pytest.mark.parametrize("steps", [1, 7, 20])
def test_pgd_from_the_random_first_iterate_is_the_cold_run(n, steps):
    """A start equal to the cold run's clipped random first iterate gives the
    cold run's bits: the start replaces the draw and nothing else."""
    rng = np.random.default_rng([n, steps])
    p = random_net(rng, [4, 6, 3])
    X = rng.uniform(0, 1, size=(n, 4))
    y = rng.integers(0, 3, size=n)
    cfg = PgdConfig(eps=0.15, steps=steps)
    first = _ball_point(np.random.default_rng(7), X, cfg.eps)
    cold = pgd_adversary_batch(p, X, y, cfg, seed=7)
    assert pgd_adversary_batch(p, X, y, cfg, seed=7, start=first).tobytes() == cold.tobytes()
    assert pgd_adversary_batch(p, X, y, cfg, seed=8, start=first).tobytes() == cold.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_pgd_from_a_start_never_decreases_loss_and_stays_in_ball(seed):
    rng = np.random.default_rng(seed)
    p = random_net(rng, [4, 8, 3], scale=2.0)
    X = rng.uniform(0, 1, size=(50, 4))
    y = rng.integers(0, 3, size=50)
    cfg = PgdConfig(eps=0.1, steps=attack._WARM_STEPS)
    start = X + cfg.eps * 3.0 * rng.uniform(-1.0, 1.0, size=X.shape)  # partly outside the ball: clipped
    best = pgd_adversary_batch(p, X, y, cfg, seed=seed, start=start)
    assert np.all(_ce(p, best, y) >= _ce(p, X, y))
    assert np.max(np.abs(best - X)) <= cfg.eps + 1e-12
    assert best.min() >= 0.0 and best.max() <= 1.0


@pytest.mark.parametrize("n", [2, 160, 1025])
@pytest.mark.parametrize("k", [1, 3])
def test_stacked_pgd_from_per_net_starts_equals_per_net_runs(k, n):
    """Each net of a stack starts from its own point and gets the bytes of a
    run on it alone from that point."""
    rng = np.random.default_rng([k, n])
    dims = [5, 9, 7, 3]
    nets = [random_net(rng, dims) for _ in range(k)]
    X = rng.uniform(0, 1, size=(n, dims[0]))
    y = rng.integers(0, dims[-1], size=n)
    cfg = PgdConfig(eps=0.1, steps=4)
    starts = np.stack([_ball_point(rng, X, cfg.eps) for _ in nets])
    best_X = pgd_adversary_batch(ModelParams.stack(nets), X, y, cfg, seed=2, start=starts)
    assert best_X.shape == (k, n, dims[0])
    for i, net in enumerate(nets):
        assert best_X[i].tobytes() == pgd_adversary_batch(net, X, y, cfg, seed=2, start=starts[i]).tobytes()


# --- budgets and projection -------------------------------------------------------


def test_linf_budget_box_shapes_and_values():
    p = ModelParams([np.array([[2.0, -4.0], [0.5, 0.0]])], [np.array([1.0, -3.0])])
    b = PerturbBudget("linf", gamma=0.1)
    box = b.box(p)
    np.testing.assert_allclose(box.weights[0], [[0.2, 0.4], [0.05, 0.0]])
    np.testing.assert_allclose(box.biases[0], [0.1, 0.3])
    assert b.describe() == "linf gamma=0.1"
    assert b.label() == "0.1"
    for bad in (-0.5, None, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            PerturbBudget("linf", gamma=bad)


def test_swap_budget_validation():
    with pytest.raises(ValueError):
        PerturbBudget("swap", pair_fraction=0.7)
    with pytest.raises(ValueError):
        PerturbBudget("swap", k_matrices=0)
    b = PerturbBudget("swap", k_matrices=2)
    assert "swap k=2" in b.describe()
    assert b.label() == "k=2;frac=0.01;floor=400"
    with pytest.raises(ValueError, match="no box"):
        b.box(random_net(np.random.default_rng(0), [3, 4, 2]))


_BOX_NET = random_net(np.random.default_rng(11), [3, 5, 2])
_ANY_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.0, -0.0, 0.01, 0.5, 0.6, 1e-300]))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["linf", "swap", "box"]),
       gamma=st.one_of(st.none(), _ANY_FLOAT),
       k=st.integers(-2, 6), fraction=_ANY_FLOAT, floor=st.integers(-3, 500))
@example(kind="box", gamma=0.1, k=1, fraction=0.01, floor=400)
@example(kind="linf", gamma=None, k=1, fraction=0.01, floor=400)
@example(kind="linf", gamma=1.7e308, k=1, fraction=0.01, floor=400)
def test_budget_builds_or_raises(kind, gamma, k, fraction, floor):
    """A budget either raises ValueError or builds, and a built one works."""
    if kind == "linf":
        valid = gamma is not None and math.isfinite(gamma) and gamma >= 0
    else:
        valid = kind == "swap" and 0.0 < fraction <= 0.5 and k >= 1 and floor >= 0
    try:
        b = PerturbBudget(kind, gamma=gamma, k_matrices=k, pair_fraction=fraction, pair_floor=floor)
    except ValueError:
        assert not valid
        return
    assert valid
    assert b.describe().startswith(kind)
    if kind == "linf":
        assert float(b.label()) == gamma
        arrays = _BOX_NET.weights + _BOX_NET.biases
        with np.errstate(over="ignore"):
            want = [gamma * np.abs(arr) for arr in arrays]
            edges = [arr + w for arr, w in zip(arrays, want)] + [arr - w for arr, w in zip(arrays, want)]
            if all(np.isfinite(e).all() for e in edges):
                b.check_fits(_BOX_NET)
            else:  # the box or one of its edges overflows
                with pytest.raises(ValueError, match="overflows the box"):
                    b.check_fits(_BOX_NET)
            if not all(np.isfinite(w).all() for w in want):  # a huge gamma overflows
                with pytest.raises(ValueError, match="non-finite"):
                    b.box(_BOX_NET)
                return
        box = b.box(_BOX_NET)
        for got, w in zip(box.weights + box.biases, want):
            np.testing.assert_array_equal(got, w)
    else:
        assert b.label() == f"k={k};frac={fraction:g};floor={floor}"


def _loop_box(gamma, params):
    """The per-layer box: one comprehension over the weights, one over the biases."""
    return ([gamma * np.abs(w) for w in params.weights], [gamma * np.abs(b) for b in params.biases])


def _loop_proj_box(candidate, center, delta):
    ws = [np.clip(wc, w - d, w + d) for wc, w, d in zip(candidate.weights, center.weights, delta.weights)]
    bs = [np.clip(bc, b - d, b + d) for bc, b, d in zip(candidate.biases, center.biases, delta.biases)]
    return ws, bs


def _loop_perturb_random_linf(params, gamma, seed):
    """The linf control drawn layer by layer, weights first, then biases."""
    rng = np.random.default_rng(seed)
    ws, bs = _loop_box(gamma, params)
    theta = ModelParams(params.weights, params.biases)
    for w, d in zip(theta.weights, ws):
        w += rng.uniform(-1.0, 1.0, size=w.shape) * d
    for b, d in zip(theta.biases, bs):
        b += rng.uniform(-1.0, 1.0, size=b.shape) * d
    return _loop_proj_box(theta, params, ModelParams(ws, bs))


def _same_layers(p, ws, bs):
    return all(np.array_equal(got, want) for got, want in zip(p.weights + p.biases, ws + bs))


@pytest.mark.parametrize("dims", [[3, 5, 2], [8, 24, 24, 24, 3], [4, 3]])
@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.37])
def test_flat_box_projection_and_control_match_per_layer_loops(dims, gamma):
    rng = np.random.default_rng(len(dims) + int(gamma * 100))
    center = random_net(rng, dims)
    budget = PerturbBudget("linf", gamma=gamma)
    delta = budget.box(center)
    assert _same_layers(delta, *_loop_box(gamma, center))
    cand = random_net(rng, dims)
    assert _same_layers(proj_box(cand, center, delta), *_loop_proj_box(cand, center, delta))
    for seed in (0, 5, (7, 1, 3)):
        assert _same_layers(perturb_random(center, budget, seed=seed),
                            *_loop_perturb_random_linf(center, gamma, seed))


def test_proj_box_identity_inside_and_clipping():
    rng = np.random.default_rng(2)
    center = random_net(rng, [3, 5, 2])
    delta = PerturbBudget("linf", gamma=0.05).box(center)
    inside = proj_box(center, center, delta)
    assert max_abs_diff(inside, center) == 0.0
    # push far outside, check exact clamping
    cand = ModelParams([w + 1.0 for w in center.weights], [b - 1.0 for b in center.biases])
    proj = proj_box(cand, center, delta)
    for wp, wc, d in zip(proj.weights, center.weights, delta.weights):
        np.testing.assert_allclose(wp, wc + d, atol=0)
    for bp, bc, d in zip(proj.biases, center.biases, delta.biases):
        np.testing.assert_allclose(bp, bc - d, atol=0)
    # projection is idempotent
    assert max_abs_diff(proj_box(proj, center, delta), proj) == 0.0


# --- attack loops -----------------------------------------------------------------


def _small_trained():
    ds = gen_blobs(60, 5, 2, seed=4)
    res = train(TrainConfig(dims=[5, 12, 2], epochs=12, lr=0.2, batch_size=16, seed=1), ds)
    return res.params, ds


CFG = AttackConfig(pgd=PgdConfig(eps=0.08, steps=10), n_pre=4, n_main=10, alpha=5e-3, seed=0)


def test_attack_config_batch_size_validated():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            AttackConfig(batch_size=bad)
    assert AttackConfig(batch_size=None).batch_size is None
    assert AttackConfig(batch_size=1).batch_size == 1


@pytest.mark.parametrize("alpha", [0.0, -1e-3, math.nan, math.inf])
def test_attack_config_refuses_a_step_size_that_is_not_finite_and_positive(alpha):
    with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
        AttackConfig(alpha=alpha)


def test_attack_linf_zero_budget_is_identity():
    params, ds = _small_trained()
    res = attack_linf(params, ds, PerturbBudget("linf", gamma=0.0), CFG)
    assert max_abs_diff(res.attacked, params) == 0.0
    assert res.rate == 0.0 and not res.failed


def test_attack_linf_respects_budget_exactly():
    params, ds = _small_trained()
    gamma = 0.08
    res = attack_linf(params, ds, PerturbBudget("linf", gamma=gamma), CFG)
    for wa, w in zip(res.attacked.weights, params.weights):
        assert (np.abs(wa - w) <= gamma * np.abs(w) + 1e-15).all()
    for ba, b in zip(res.attacked.biases, params.biases):
        assert (np.abs(ba - b) <= gamma * np.abs(b) + 1e-15).all()
    assert len(res.trace) == CFG.n_pre + CFG.n_main
    assert {r["phase"] for r in res.trace} == {1, 2}
    assert res.rate_inputs.base_acc > 0.9
    assert res.budget_desc == "linf gamma=0.08"


def test_attack_linf_budget_kind_checked():
    params, ds = _small_trained()
    with pytest.raises(ValueError):
        attack_linf(params, ds, PerturbBudget("swap"), CFG)
    with pytest.raises(ValueError):
        attack_swap(params, ds, PerturbBudget("linf", gamma=0.1), CFG)
    with pytest.raises(ValueError, match="no budgets"):
        linf_attacks(params, ds, [], CFG)


def test_attack_swap_preserves_multiset():
    params, ds = _small_trained()
    budget = PerturbBudget("swap", k_matrices=2, pair_fraction=0.05, pair_floor=10)
    res = attack_swap(params, ds, budget, CFG)
    assert res.extras["matrices"] == [0, 1]
    for wa, w in zip(res.attacked.weights, params.weights):
        np.testing.assert_array_equal(np.sort(wa.ravel()), np.sort(w.ravel()))
    for ba, b in zip(res.attacked.biases, params.biases):
        np.testing.assert_array_equal(ba, b)
    # every logged swap had a positive descent product
    assert res.extras["swaps"] >= 1
    for entry in res.extras["swap_log"]:
        assert entry["grad_gap"] * entry["value_gap"] > 0


def test_attack_swap_untouched_matrices_identical():
    params, ds = _small_trained()
    budget = PerturbBudget("swap", k_matrices=1, pair_fraction=0.05, pair_floor=5)
    res = attack_swap(params, ds, budget, CFG)
    (touched,) = res.extras["matrices"]
    for l, (wa, w) in enumerate(zip(res.attacked.weights, params.weights)):
        if l != touched:
            np.testing.assert_array_equal(wa, w)


def test_attack_swap_too_many_matrices():
    params, ds = _small_trained()
    with pytest.raises(ValueError):
        attack_swap(params, ds, PerturbBudget("swap", k_matrices=5), CFG)


def test_targeted_attacks_validate_labels():
    params, ds = _small_trained()
    with pytest.raises(ValueError):
        attack_label(params, ds, 7, PerturbBudget("linf", gamma=0.05), CFG)
    only0 = LabeledDataset(ds.X[ds.y == 0], ds.y[ds.y == 0])
    with pytest.raises(ValueError):
        attack_direct(params, only0, 0, PerturbBudget("linf", gamma=0.05), CFG)


def test_attack_label_runs_and_respects_budget():
    params, ds = _small_trained()
    gamma = 0.1
    res = attack_label(params, ds, 0, PerturbBudget("linf", gamma=gamma),
                       AttackConfig(pgd=PgdConfig(eps=0.08, steps=8), n_main=8, alpha=5e-3, seed=2))
    assert max_abs_diff(res.attacked, params) > 0.0
    for wa, w in zip(res.attacked.weights, params.weights):
        assert (np.abs(wa - w) <= gamma * np.abs(w) + 1e-15).all()
    assert res.extras["target_label"] == 0
    assert res.rate_inputs.att_aux is not None


def test_attack_single_contract():
    params, ds = _small_trained()
    # pick a correctly classified sample
    i = next(k for k in range(len(ds)) if classify(params, ds.X[k]) == ds.y[k])
    x, label = ds.X[i], int(ds.y[i])
    res = attack_single(params, x, label, PerturbBudget("linf", gamma=0.0), CFG)
    assert res.rate == 0.0  # zero budget cannot shrink the radius
    assert res.extras["radius_before"] == res.extras["radius_after"]
    # claiming the wrong label must be rejected up front
    with pytest.raises(ValueError):
        attack_single(params, x, 1 - label, PerturbBudget("linf", gamma=0.1), CFG)


def test_perturb_random_within_budget_and_deterministic():
    params, _ = _small_trained()
    gamma = 0.07
    budget = PerturbBudget("linf", gamma=gamma)
    q1 = perturb_random(params, budget, seed=5)
    q2 = perturb_random(params, budget, seed=5)
    assert max_abs_diff(q1, q2) == 0.0
    for wa, w in zip(q1.weights, params.weights):
        assert (np.abs(wa - w) <= gamma * np.abs(w) + 1e-15).all()
    q3 = perturb_random(params, PerturbBudget("swap", k_matrices=1, pair_fraction=0.05, pair_floor=4), seed=3)
    for wa, w in zip(q3.weights, params.weights):
        np.testing.assert_array_equal(np.sort(wa.ravel()), np.sort(w.ravel()))


# --- the shared descent loop against the hand-written loops -----------------------
#
# The reference loops below are the four attack loops as they were written before
# they shared one loop, with the schedule constants inlined (step halving 0.5
# every max(1, n_main // 4) main steps, denominator floor 1e-8, one gradient per
# accepted swap, 50 draws per swap slot).  The descent loops carry each row's PGD
# point to the next iteration that visits it (``_ref_adversary``); the swap loop
# runs PGD cold.  The attacks must reproduce them bit for bit.


def _ref_batch(rng, ds, size):
    if size is None or size >= len(ds):
        return ds.X, ds.y, list(range(len(ds)))
    idx = rng.choice(len(ds), size=size, replace=False)
    return ds.X[idx], ds.y[idx], list(idx)


def _ref_adversary(theta, X, y, rows, carried, pgd, seed):
    """PGD points of dataset ``rows`` (data X, y) on theta: warm, from the
    points in ``carried`` (row -> point) with at most 5 steps, once every row
    has one; cold otherwise.  Records the new points in ``carried``."""
    if all(r in carried for r in rows):
        start = np.array([carried[r] for r in rows])
        Xadv = pgd_adversary_batch(theta, X, y, PgdConfig(pgd.eps, min(pgd.steps, 5)), seed=seed, start=start)
    else:
        Xadv = pgd_adversary_batch(theta, X, y, pgd, seed=seed)
    carried.update(zip(rows, Xadv.copy()))
    return Xadv


def _ref_seed(seed, tag, it):
    return (int(seed) & 0x7FFFFFFF, tag, it)


def _ref_ratio_and_grad(theta, X, y, Xadv, yadv):
    num, g_num = mlp.loss_and_grads(theta, X, y, reduction="sum")
    den_raw, g_den = mlp.loss_and_grads(theta, Xadv, yadv, reduction="sum")
    den = max(den_raw, 1e-8)
    ratio = num / den
    grad = mlp.add_scaled(g_num, g_den, -ratio)
    grad = ModelParams([w / den for w in grad.weights], [b / den for b in grad.biases])
    return ratio, num, den_raw, grad


def _ref_finalize_untargeted(base, theta, ds, cfg, budget, trace, extras):
    ri = metrics.RateInputs(
        base_acc=metrics.accuracy(base, ds),
        base_rob=metrics.adversarial_accuracy(base, ds, cfg.pgd, seed=cfg.seed),
        att_acc=metrics.accuracy(theta, ds),
        att_rob=metrics.adversarial_accuracy(theta, ds, cfg.pgd, seed=cfg.seed),
    )
    rr = metrics.adversarial_rate(ri)
    return attack.AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                               rate_inputs=ri, rate=rr.value, failed=rr.failed, extras=extras)


def _ref_attack_linf(params, ds, budget, cfg):
    theta = params.copy()
    rng = np.random.default_rng(cfg.seed)
    alpha = cfg.alpha
    decay_every = max(1, cfg.n_main // 4)
    trace, carried = [], {}
    main_done = 0
    for it in range(cfg.n_pre + cfg.n_main):
        Xb, yb, rows = _ref_batch(rng, ds, cfg.batch_size)
        Xadv = _ref_adversary(theta, Xb, yb, rows, carried, cfg.pgd, _ref_seed(cfg.seed, 1, it))
        if it < cfg.n_pre:
            adv_mean, g = mlp.loss_and_grads(theta, Xadv, yb, reduction="mean")
            displayed = -adv_mean
            theta = mlp.add_scaled(theta, g, alpha)
        else:
            ratio, _, den_raw, g = _ref_ratio_and_grad(theta, Xb, yb, Xadv, yb)
            displayed = ratio
            adv_mean = den_raw / len(yb)
            theta = mlp.add_scaled(theta, g, -alpha)
            main_done += 1
            if main_done % decay_every == 0:
                alpha *= 0.5
        theta = proj_box(theta, params, budget.box(params))
        trace.append({"iter": it, "phase": 1 if it < cfg.n_pre else 2,
                      "objective": float(displayed), "robust_loss": float(adv_mean)})
    return _ref_finalize_untargeted(params, theta, ds, cfg, budget, trace, {})


def _ref_attack_swap(params, ds, budget, cfg):
    theta = params.copy()
    rng = np.random.default_rng(cfg.seed)
    sel = attack._pick_matrices(rng, theta, budget)
    trace, swap_log = [], []
    skipped = 0
    grad_calls = 0
    for l in sel:
        W = theta.weights[l]
        flat = W.ravel()
        since_refresh = 1
        for _slot in range(attack._pair_count(budget, W)):
            if since_refresh >= 1:
                Xb, yb, _ = _ref_batch(rng, ds, cfg.batch_size)
                Xadv = pgd_adversary_batch(theta, Xb, yb, cfg.pgd, seed=_ref_seed(cfg.seed, 2, grad_calls))
                ratio, _, _, g = _ref_ratio_and_grad(theta, Xb, yb, Xadv, yb)
                grad_calls += 1
                gflat = g.weights[l].ravel()
                since_refresh = 0
                trace.append({"iter": len(trace), "phase": 2, "objective": float(ratio)})
            for _attempt in range(50):
                i, j = attack._distinct_pair(rng, flat.size)
                if (gflat[i] - gflat[j]) * (flat[i] - flat[j]) > 0.0:
                    swap_log.append({"matrix": l, "i": i, "j": j,
                                     "grad_gap": float(gflat[i] - gflat[j]),
                                     "value_gap": float(flat[i] - flat[j])})
                    flat[i], flat[j] = flat[j], flat[i]
                    since_refresh += 1
                    break
            else:
                skipped += 1
    extras = {"matrices": sel, "swaps": len(swap_log), "skipped_pairs": skipped,
              "swap_log": swap_log}
    return _ref_finalize_untargeted(params, theta, ds, cfg, budget, trace, extras)


def _ref_targeted_loop(params, ds, budget, cfg, target_label, objective_grad):
    theta = params.copy()
    rng = np.random.default_rng(cfg.seed)
    alpha = cfg.alpha
    decay_every = max(1, cfg.n_main // 4)
    trace, carried = [], {}
    for it in range(cfg.n_main):
        Xb, yb, rows = _ref_batch(rng, ds, cfg.batch_size)
        on = yb == target_label
        if on.all() or not on.any():
            trace.append({"iter": it, "phase": 2, "objective": float("nan")})
            continue
        val, g = objective_grad(theta, Xb, yb, on, rows, carried, _ref_seed(cfg.seed, 3, it))
        theta = proj_box(mlp.add_scaled(theta, g, -alpha), params, budget.box(params))
        trace.append({"iter": it, "phase": 2, "objective": float(val)})
        if (it + 1) % decay_every == 0:
            alpha *= 0.5
    return theta, trace


def _ref_flags(net, ds, cfg):
    """One net alone on all of ds: per-row (correct, robust) flags."""
    correct = mlp.classify_batch(net, ds.X) == ds.y
    return correct, correct & ~pgd_flips_batch(net, ds.X, ds.y, cfg.pgd, seed=cfg.seed)


def _share(flags, rows):
    return int(flags[rows].sum()) / int(np.sum(rows))


def _ref_targeted_result(params, theta, ds, cfg, budget, trace, target_label, kind):
    on = ds.y == target_label
    every = np.ones_like(on)
    (base_c, base_r), (c, r) = _ref_flags(params, ds, cfg), _ref_flags(theta, ds, cfg)
    if kind == "label":
        att_acc, att_aux = _share(c, every), _share(r, on)
    else:
        att_acc, att_aux = _share(c, ~on), _share(c, on)
    ri = metrics.RateInputs(base_acc=_share(base_c, every), base_rob=_share(base_r, every),
                            att_acc=att_acc, att_rob=_share(r, ~on), att_aux=att_aux)
    rr = metrics.targeted_rate(kind, ri)
    return attack.AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                               rate_inputs=ri, rate=rr.value, failed=rr.failed,
                               extras={"target_label": target_label, "kind": kind})


def _ref_attack_label(params, ds, target_label, budget, cfg):
    def obj(theta, Xb, yb, on, rows, carried, seed):
        Xadv = _ref_adversary(theta, Xb, yb, rows, carried, cfg.pgd, seed)
        num_ce, g_ce = mlp.loss_and_grads(theta, Xb, yb, reduction="sum")
        num_rob, g_rob = mlp.loss_and_grads(theta, Xadv[~on], yb[~on], reduction="sum")
        den_raw, g_den = mlp.loss_and_grads(theta, Xadv[on], yb[on], reduction="sum")
        den = max(den_raw, 1e-8)
        ratio = (num_ce + num_rob) / den
        grad = mlp.add_scaled(mlp.add_scaled(g_ce, g_rob), g_den, -ratio)
        grad = ModelParams([w / den for w in grad.weights], [b / den for b in grad.biases])
        return ratio, grad

    theta, trace = _ref_targeted_loop(params, ds, budget, cfg, target_label, obj)
    return _ref_targeted_result(params, theta, ds, cfg, budget, trace, target_label, "label")


def _ref_attack_direct(params, ds, target_label, budget, cfg):
    def obj(theta, Xb, yb, on, rows, carried, seed):
        off_rows = [r for r, o in zip(rows, on) if not o]
        Xadv = _ref_adversary(theta, Xb[~on], yb[~on], off_rows, carried, cfg.pgd, seed)
        num_rob, g_rob = mlp.loss_and_grads(theta, Xadv, yb[~on], reduction="sum")
        num_ce, g_ce = mlp.loss_and_grads(theta, Xb[~on], yb[~on], reduction="sum")
        den_raw, g_den = mlp.loss_and_grads(theta, Xb[on], yb[on], reduction="sum")
        den = max(den_raw, 1e-8)
        ratio = (num_rob + num_ce) / den
        grad = mlp.add_scaled(mlp.add_scaled(g_rob, g_ce), g_den, -ratio)
        grad = ModelParams([w / den for w in grad.weights], [b / den for b in grad.biases])
        return ratio, grad

    theta, trace = _ref_targeted_loop(params, ds, budget, cfg, target_label, obj)
    return _ref_targeted_result(params, theta, ds, cfg, budget, trace, target_label, "direct")


def _ref_attack_single(params, x, label, budget, cfg):
    x = np.asarray(x, dtype=np.float64)
    theta = params.copy()
    alpha = cfg.alpha
    decay_every = max(1, cfg.n_main // 4)
    X1, y1 = x[None, :], np.array([label])
    trace, carried = [], {}
    main_done = 0
    for it in range(cfg.n_pre + cfg.n_main):
        Xadv = _ref_adversary(theta, X1, y1, [0], carried, cfg.pgd, _ref_seed(cfg.seed, 4, it))
        if it < cfg.n_pre:
            adv_mean, g = mlp.loss_and_grads(theta, Xadv, y1, reduction="mean")
            displayed = -adv_mean
            theta = mlp.add_scaled(theta, g, alpha)
        else:
            ratio, _, den_raw, g = _ref_ratio_and_grad(theta, X1, y1, Xadv, y1)
            displayed = ratio
            adv_mean = den_raw
            theta = mlp.add_scaled(theta, g, -alpha)
            main_done += 1
            if main_done % decay_every == 0:
                alpha *= 0.5
        theta = proj_box(theta, params, budget.box(params))
        trace.append({"iter": it, "phase": 1 if it < cfg.n_pre else 2,
                      "objective": float(displayed), "robust_loss": float(adv_mean)})
    base_r = metrics.approx_radius(params, x, label)
    att_r = metrics.approx_radius(theta, x, label)
    still_correct = classify(theta, x) == label
    has_adv = bool(pgd_flips_batch(theta, X1, y1, cfg.pgd, seed=cfg.seed)[0])
    ri = metrics.RateInputs(base_acc=1.0, base_rob=base_r,
                            att_acc=1.0 if still_correct else 0.0, att_rob=att_r)
    rate = 1.0 - min(att_r / base_r, 1.0) if 0.0 < base_r < math.inf else math.nan
    return attack.AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                               rate_inputs=ri, rate=rate,
                               failed=not (still_correct and has_adv),
                               extras={"kind": "single", "still_correct": still_correct,
                                       "adversarial_found": has_adv,
                                       "radius_before": base_r, "radius_after": att_r})


def _assert_same_result(new, ref):
    """Bit-level equality of everything an attack returns."""
    def arrays(p):
        return [a.tobytes() for a in p.weights + p.biases]

    assert arrays(new.attacked) == arrays(ref.attacked)
    assert json.dumps(new.trace) == json.dumps(ref.trace)
    assert repr(new.rate_inputs) == repr(ref.rate_inputs)
    assert repr(new.rate) == repr(ref.rate)
    assert new.failed == ref.failed
    assert new.budget_desc == ref.budget_desc
    assert repr(new.extras) == repr(ref.extras)


@pytest.fixture(scope="module")
def three_class():
    ds = gen_blobs(30, 4, 3, seed=6)
    res = train(TrainConfig(dims=[4, 10, 3], epochs=10, lr=0.2, batch_size=10, seed=2), ds)
    return res.params, ds


ORACLE_PGD = PgdConfig(eps=0.08, steps=3)
SKIP_SEED = 1  # label 0, batches of 3, n_main 9: iteration 1 (a decay step) is degenerate
BATCHES = [None, 3, 7, 30]
SCHEDULES = [(4, 10), (0, 9), (3, 0), (2, 1), (3, 8)]  # odd n_pre: phase-2 decay steps differ from (it + 1) % 2 == 0


WARM_PGD = PgdConfig(eps=0.08, steps=8)  # above the warm step count, so warm runs take fewer steps


def _oracle_cfg(batch_size, schedule, seed=0, pgd=ORACLE_PGD):
    n_pre, n_main = schedule
    return AttackConfig(pgd=pgd, n_pre=n_pre, n_main=n_main, alpha=0.05,
                        batch_size=batch_size, seed=seed)


@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("batch_size", BATCHES)
def test_attack_linf_matches_reference_loop(three_class, batch_size, schedule, gamma):
    params, ds = three_class
    cfg = _oracle_cfg(batch_size, schedule)
    budget = PerturbBudget("linf", gamma=gamma)
    _assert_same_result(attack_linf(params, ds, budget, cfg),
                        _ref_attack_linf(params, ds, budget, cfg))


@pytest.mark.parametrize("schedule", [(4, 10), (3, 8)])
@pytest.mark.parametrize("batch_size", [None, 7])
def test_linf_attacks_in_lockstep_match_the_reference_loop_per_budget(three_class, batch_size, schedule):
    """One lockstep descent over three budgets gives each the bytes of the
    one-net reference loop at that budget alone."""
    params, ds = three_class
    cfg = _oracle_cfg(batch_size, schedule)
    budgets = [PerturbBudget("linf", gamma=g) for g in (0.0, 0.05, 0.1)]
    for res, budget in zip(linf_attacks(params, ds, budgets, cfg), budgets, strict=True):
        _assert_same_result(res, _ref_attack_linf(params, ds, budget, cfg))


@pytest.mark.parametrize("target", [0, 2])
@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("batch_size", BATCHES)
@pytest.mark.parametrize("kind", ["label", "direct"])
def test_targeted_attacks_match_reference_loop(three_class, kind, batch_size, schedule, gamma, target):
    params, ds = three_class
    cfg = _oracle_cfg(batch_size, schedule)
    budget = PerturbBudget("linf", gamma=gamma)
    new, ref = (attack_label, _ref_attack_label) if kind == "label" else (attack_direct, _ref_attack_direct)
    _assert_same_result(new(params, ds, target, budget, cfg), ref(params, ds, target, budget, cfg))


def test_targeted_skip_on_decay_boundary_matches_reference(three_class):
    """A degenerate minibatch on a decay step neither steps nor halves alpha."""
    params, ds = three_class
    cfg = _oracle_cfg(3, (0, 9), seed=SKIP_SEED)
    budget = PerturbBudget("linf", gamma=0.1)
    res = attack_label(params, ds, 0, budget, cfg)
    decay_every = max(1, cfg.n_main // 4)
    skipped = [r["iter"] for r in res.trace if np.isnan(r["objective"])]
    assert any((it + 1) % decay_every == 0 for it in skipped)
    assert any(not np.isnan(r["objective"]) for r in res.trace[max(skipped):])
    _assert_same_result(res, _ref_attack_label(params, ds, 0, budget, cfg))


@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("batch_size", [None, 3])
def test_attack_single_matches_reference_loop(three_class, batch_size, schedule, gamma):
    params, ds = three_class
    i = next(k for k in range(len(ds)) if classify(params, ds.X[k]) == ds.y[k])
    cfg = _oracle_cfg(batch_size, schedule)
    budget = PerturbBudget("linf", gamma=gamma)
    _assert_same_result(attack_single(params, ds.X[i], int(ds.y[i]), budget, cfg),
                        _ref_attack_single(params, ds.X[i], int(ds.y[i]), budget, cfg))


@pytest.mark.parametrize("k_matrices", [1, 2])
@pytest.mark.parametrize("batch_size", BATCHES)
def test_attack_swap_matches_reference_loop(three_class, batch_size, k_matrices):
    params, ds = three_class
    cfg = _oracle_cfg(batch_size, (0, 0), seed=k_matrices)
    budget = PerturbBudget("swap", k_matrices=k_matrices, pair_fraction=0.05, pair_floor=6)
    _assert_same_result(attack_swap(params, ds, budget, cfg),
                        _ref_attack_swap(params, ds, budget, cfg))


def test_attack_swap_skipped_slots_match_reference(three_class):
    """Slots with no qualifying pair are skipped and reuse the stale gradient."""
    params, ds = three_class
    W1 = np.full_like(params.weights[1], 0.3)
    W1[0, 0] = -0.5  # one odd entry: most pairs have no value gap
    net = ModelParams([params.weights[0], W1], params.biases)
    cfg = _oracle_cfg(None, (0, 0), seed=4)
    budget = PerturbBudget("swap", k_matrices=2, pair_fraction=0.05, pair_floor=6)
    res = attack_swap(net, ds, budget, cfg)
    assert res.extras["skipped_pairs"] > 0
    assert any(entry["matrix"] == 1 for entry in res.extras["swap_log"])
    _assert_same_result(res, _ref_attack_swap(net, ds, budget, cfg))


@pytest.mark.parametrize("batch_size", [None, 7])
@pytest.mark.parametrize("kind", ["linf", "label", "direct", "single"])
def test_descent_attacks_match_reference_loop_when_warm_runs_take_fewer_steps(three_class, kind, batch_size):
    """At 8 PGD steps a warm run takes 5: the reference loops' carry gives the same bytes."""
    params, ds = three_class
    cfg = _oracle_cfg(batch_size, (3, 8), pgd=WARM_PGD)
    budget = PerturbBudget("linf", gamma=0.1)
    if kind == "linf":
        _assert_same_result(attack_linf(params, ds, budget, cfg), _ref_attack_linf(params, ds, budget, cfg))
    elif kind == "single":
        i = next(k for k in range(len(ds)) if classify(params, ds.X[k]) == ds.y[k])
        _assert_same_result(attack_single(params, ds.X[i], int(ds.y[i]), budget, cfg),
                            _ref_attack_single(params, ds.X[i], int(ds.y[i]), budget, cfg))
    else:
        new, ref = (attack_label, _ref_attack_label) if kind == "label" else (attack_direct, _ref_attack_direct)
        _assert_same_result(new(params, ds, 1, budget, cfg), ref(params, ds, 1, budget, cfg))


@pytest.mark.parametrize("batch_size", [None, 7])
@pytest.mark.parametrize("pgd", [ORACLE_PGD, WARM_PGD], ids=["3", "8"])
def test_linf_attacks_equal_attack_linf_per_budget(three_class, pgd, batch_size):
    params, ds = three_class
    cfg = _oracle_cfg(batch_size, (3, 8), pgd=pgd)
    budgets = [PerturbBudget("linf", gamma=g) for g in (0.0, 0.05, 0.1)]
    for res, budget in zip(linf_attacks(params, ds, budgets, cfg), budgets, strict=True):
        _assert_same_result(res, attack_linf(params, ds, budget, cfg))


def _count_descent_steps(monkeypatch):
    """Per descent PGD run, the gradient passes it makes (its steps per
    block), and whether it was given a start; the scorer's runs are not listed."""
    runs, counted_run = [], attack.pgd_adversary_batch
    grads = observe_kernel(monkeypatch, "_input_gradient", -1)

    def pgd_adversary_batch(*a, start=None, **k):
        before = len(grads)
        out = counted_run(*a, start=start, **k)
        runs.append((len(grads) - before, start is not None))
        return out

    monkeypatch.setattr(attack, "pgd_adversary_batch", pgd_adversary_batch)
    return runs


@pytest.mark.parametrize("kind", ["linf", "lockstep", "label", "direct", "single"])
def test_full_batch_descent_runs_cold_once_then_warm(three_class, monkeypatch, kind):
    """At 20 PGD steps the first full-batch iteration runs all 20 from a
    random start and every later one _WARM_STEPS from the carried points."""
    params, ds = three_class
    cfg = AttackConfig(pgd=PgdConfig(eps=0.08, steps=20), n_pre=2, n_main=4, alpha=0.05)
    budget = PerturbBudget("linf", gamma=0.1)
    runs = _count_descent_steps(monkeypatch)
    scorer = count_scoring_passes(monkeypatch)
    if kind == "linf":
        attack_linf(params, ds, budget, cfg)
    elif kind == "lockstep":
        linf_attacks(params, ds, [PerturbBudget("linf", gamma=g) for g in (0.05, 0.1)], cfg)
    elif kind == "single":
        i = next(k for k in range(len(ds)) if classify(params, ds.X[k]) == ds.y[k])
        attack_single(params, ds.X[i], int(ds.y[i]), budget, cfg)
    else:
        (attack_label if kind == "label" else attack_direct)(params, ds, 0, budget, cfg)
    iters = cfg.n_main + (0 if kind in ("label", "direct") else cfg.n_pre)
    assert attack._WARM_STEPS == 5
    assert runs == [(20, False)] + [(attack._WARM_STEPS, True)] * (iters - 1)
    assert scorer["pgd_flips_batch"] == 1


def test_swap_attack_keeps_cold_pgd(three_class, monkeypatch):
    params, ds = three_class
    cfg = AttackConfig(pgd=PgdConfig(eps=0.08, steps=20), n_pre=0, n_main=0, seed=1)
    runs = _count_descent_steps(monkeypatch)
    attack_swap(params, ds, PerturbBudget("swap", k_matrices=1, pair_fraction=0.05, pair_floor=4), cfg)
    assert len(runs) > 1 and set(runs) == {(20, False)}


def test_carry_runs_cold_until_every_row_is_visited(monkeypatch):
    """A run with any unvisited row is the cold run; one on visited rows
    starts from each row's last point (per net of a stack) and takes
    _WARM_STEPS steps."""
    rng = np.random.default_rng(5)
    nets = [random_net(rng, [4, 6, 3]) for _ in range(2)]
    stack = ModelParams.stack(nets)
    X = rng.uniform(0, 1, size=(6, 4))
    y = rng.integers(0, 3, size=6)
    cold = PgdConfig(eps=0.1, steps=12)
    warm = PgdConfig(eps=0.1, steps=attack._WARM_STEPS)
    carry = attack._Carry(cold, (2,) + X.shape, {})
    runs = _count_descent_steps(monkeypatch)

    def visit(rows, seed):
        rows = np.array(rows)
        return carry.adversary(stack, X, y, np.arange(len(y)), seed, sel=rows)

    first = visit([0, 1, 2], 1)
    assert first.tobytes() == pgd_adversary_batch(stack, X[:3], y[:3], cold, seed=1).tobytes()
    second = visit([1, 2, 3], 2)  # row 3 is new
    assert second.tobytes() == pgd_adversary_batch(stack, X[1:4], y[1:4], cold, seed=2).tobytes()
    third = visit([3, 0], 3)
    start = np.stack([second[:, 2], first[:, 0]], axis=1)
    assert third.tobytes() == pgd_adversary_batch(stack, X[[3, 0]], y[[3, 0]], warm, start=start).tobytes()
    for k, net in enumerate(nets):
        assert third[k].tobytes() == pgd_adversary_batch(net, X[[3, 0]], y[[3, 0]], warm,
                                                         start=start[k]).tobytes()
    assert runs == [(12, False), (12, False), (attack._WARM_STEPS, True)]


@pytest.mark.parametrize("kind, nets", [("linf", 2), ("lockstep", 4), ("swap", 2), ("label", 2), ("direct", 2),
                                        ("single", 1)])
def test_attack_result_scores_each_net_once(three_class, monkeypatch, kind, nets):
    """Every attack scores its ``nets`` nets in one call, on all of its
    rows: the base net and every theta as one stack (three thetas for
    lockstep attacks at three budgets), or theta alone for the single attack."""
    params, ds = three_class
    cfg = _oracle_cfg(None, (1, 1))
    counts = count_scoring_passes(monkeypatch)
    stacks, counted = [], metrics.classify_batch

    def classify_batch(net, X):
        stacks.append((net.stack_shape, len(X)))
        return counted(net, X)

    monkeypatch.setattr(metrics, "classify_batch", classify_batch)
    rows = len(ds)
    if kind == "swap":
        attack_swap(params, ds, PerturbBudget("swap", k_matrices=1, pair_fraction=0.05, pair_floor=2), cfg)
    elif kind == "linf":
        attack_linf(params, ds, PerturbBudget("linf", gamma=0.1), cfg)
    elif kind == "lockstep":
        linf_attacks(params, ds, [PerturbBudget("linf", gamma=g) for g in (0.0, 0.05, 0.1)], cfg)
    elif kind == "single":
        i = next(k for k in range(len(ds)) if classify(params, ds.X[k]) == ds.y[k])
        attack_single(params, ds.X[i], int(ds.y[i]), PerturbBudget("linf", gamma=0.1), cfg)
        rows = 1
    else:
        (attack_label if kind == "label" else attack_direct)(params, ds, 0, PerturbBudget("linf", gamma=0.1), cfg)
    assert counts == {"classify_batch": 1, "pgd_flips_batch": 1}
    assert stacks == [((nets,) if nets > 1 else (), rows)]


@pytest.mark.parametrize("target", [0, 1, 2])
def test_targeted_attacks_at_zero_budget_score_theta_as_the_base_net(three_class, target):
    """At gamma 0 theta is the base net, and scoring on all of ds gives it the
    base net's flags: the label attack's on- and off-target robust counts add
    up to the base net's, and the direct attack's off-target robust share is
    that of a single-net PGD run."""
    params, ds = three_class
    cfg = _oracle_cfg(None, (0, 3))
    budget = PerturbBudget("linf", gamma=0.0)
    on = ds.y == target
    _, robust = _ref_flags(params, ds, cfg)
    label = attack_label(params, ds, target, budget, cfg).rate_inputs
    assert round(label.att_aux * on.sum()) + round(label.att_rob * (~on).sum()) == robust.sum()
    assert label.base_rob == robust.mean()
    direct = attack_direct(params, ds, target, budget, cfg).rate_inputs
    assert direct.att_rob == _share(robust, ~on)


def test_label_attack_overall_accuracy_is_exact():
    """theta's accuracy on all of ds equals ``accuracy`` exactly; on this
    split, pooling it from the target rows and the rest as
    (c_on/n_on)*n_on + (c_off/n_off)*n_off would be off in the last bit."""
    net = ModelParams([np.eye(2)], [np.zeros(2)])  # logits = x
    to_1, to_0 = [0.2, 0.8], [0.8, 0.2]
    X = np.array([to_1] * 2 + [to_1] * 15 + [to_0] * 7)
    ds = LabeledDataset(X, np.array([0] * 2 + [1] * 22))  # target 0: 0 of 2 correct; the rest: 15 of 22
    cfg = AttackConfig(pgd=PgdConfig(eps=0.05, steps=2), n_pre=0, n_main=1, alpha=0.01)
    res = attack_label(net, ds, 0, PerturbBudget("linf", gamma=0.0), cfg)
    assert res.rate_inputs.att_acc == metrics.accuracy(net, ds) == 15 / 24
