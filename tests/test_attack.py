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
    perturb_random,
    pgd_adversary_batch,
    pgd_flips_batch,
    proj_box,
)
from advparam.data import LabeledDataset, gen_blobs
from advparam.mlp import (
    ModelParams,
    classify,
    cross_entropy,
    forward_batch,
    input_gradient,
    max_abs_diff,
)
from advparam.train import TrainConfig, train

from common import random_net


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
# N = 1025 and 3000 run in several row blocks; the oracle runs every row at once.
@pytest.mark.parametrize("n,dims", [(1, [4, 10, 10, 3]), (32, [4, 10, 10, 3]), (1025, [4, 10, 10, 3]),
                                    (3000, [4, 10, 10, 3]), (32, [4, 13, 5, 8, 3]), (1025, [4, 13, 5, 8, 3])],
                         ids=["1", "32", "1025", "3000", "32-unequal", "1025-unequal"])
@pytest.mark.parametrize("steps", [0, 1, 2, 7])
@pytest.mark.parametrize("eps", [0.0, 0.15], ids=["0.0-True", "0.15-True"])
def test_pgd_matches_two_pass_oracle(n, dims, steps, eps):
    rng = np.random.default_rng(100 + n + steps)
    p = random_net(rng, dims)
    X = rng.uniform(0, 1, size=(n, 4))
    y = rng.integers(0, 3, size=n)
    cfg = PgdConfig(eps=eps, steps=steps)
    best_X, flipped, ce = _two_pass_pgd(p, X, y, cfg, seed=3)
    assert np.array_equal(pgd_adversary_batch(p, X, y, cfg, seed=3), best_X)
    assert np.array_equal(pgd_flips_batch(p, X, y, cfg, seed=3), flipped)
    assert np.array_equal(attack._pgd_run(p, X, y, cfg, seed=3)[2], ce)


@pytest.mark.parametrize("steps", [0, 1, 2, 7], ids=lambda s: f"True-{s}")
def test_pgd_pass_counts(monkeypatch, steps):
    rng = np.random.default_rng(8)
    p = random_net(rng, [4, 6, 3])
    X = rng.uniform(0, 1, size=(5, 4))
    y = rng.integers(0, 3, size=5)
    counts = {"forward": 0, "grad": 0}

    def counted(key, fn):
        def wrapper(*a, **k):
            counts[key] += 1
            return fn(*a, **k)
        return wrapper

    fwd = counted("forward", mlp.forward_batch)
    monkeypatch.setattr(attack, "forward_batch", fwd)
    monkeypatch.setattr(mlp, "forward_batch", fwd)  # the pass inside input_gradient
    monkeypatch.setattr(attack, "input_gradient", counted("grad", mlp.input_gradient))
    pgd_adversary_batch(p, X, y, PgdConfig(eps=0.1, steps=steps))
    if steps == 0:
        assert counts == {"forward": 1, "grad": 0}
    else:
        assert counts == {"forward": steps + 2, "grad": steps}


@pytest.mark.parametrize("n,sizes", [(5, {5}), (1025, {512, 513}), (3000, {1000})])
def test_pgd_builds_one_workspace_per_block_size(monkeypatch, n, sizes):
    rng = np.random.default_rng(9)
    p = random_net(rng, [4, 6, 3])
    X = rng.uniform(0, 1, size=(n, 4))
    y = rng.integers(0, 3, size=n)
    built, grads = [], []

    class Counted(mlp.Workspace):
        def __init__(self, params, n_rows):
            built.append(n_rows)
            super().__init__(params, n_rows)

    def grad(params, X, y, ws=None):
        grads.append(ws)
        return input_gradient(params, X, y, ws)

    monkeypatch.setattr(mlp, "Workspace", Counted)
    monkeypatch.setattr(attack, "input_gradient", grad)
    pgd_flips_batch(p, X, y, PgdConfig(eps=0.1, steps=3))
    assert sorted(built) == sorted(sizes)
    assert len(grads) == 3 * len(mlp.row_blocks(n)) and all(isinstance(ws, Counted) for ws in grads)


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
    only0 = ds.subset(np.where(ds.y == 0)[0])
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
# accepted swap, 50 draws per swap slot).  The attacks must reproduce them bit for bit.


def _ref_batch(rng, ds, size):
    if size is None or size >= len(ds):
        return ds.X, ds.y
    idx = rng.choice(len(ds), size=size, replace=False)
    return ds.X[idx], ds.y[idx]


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
    trace = []
    main_done = 0
    for it in range(cfg.n_pre + cfg.n_main):
        Xb, yb = _ref_batch(rng, ds, cfg.batch_size)
        Xadv = pgd_adversary_batch(theta, Xb, yb, cfg.pgd, seed=_ref_seed(cfg.seed, 1, it))
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
                Xb, yb = _ref_batch(rng, ds, cfg.batch_size)
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
    trace = []
    for it in range(cfg.n_main):
        Xb, yb = _ref_batch(rng, ds, cfg.batch_size)
        on = yb == target_label
        if on.all() or not on.any():
            trace.append({"iter": it, "phase": 2, "objective": float("nan")})
            continue
        val, g = objective_grad(theta, Xb, yb, on, _ref_seed(cfg.seed, 3, it))
        theta = proj_box(mlp.add_scaled(theta, g, -alpha), params, budget.box(params))
        trace.append({"iter": it, "phase": 2, "objective": float(val)})
        if (it + 1) % decay_every == 0:
            alpha *= 0.5
    return theta, trace


def _ref_targeted_result(params, theta, ds, cfg, budget, trace, target_label, kind):
    on = ds.y == target_label
    ds_on, ds_off = ds.subset(np.where(on)[0]), ds.subset(np.where(~on)[0])
    if kind == "label":
        att_acc = metrics.accuracy(theta, ds)
        att_aux = metrics.adversarial_accuracy(theta, ds_on, cfg.pgd, seed=cfg.seed)
    else:
        att_acc = metrics.accuracy(theta, ds_off)
        att_aux = metrics.accuracy(theta, ds_on)
    ri = metrics.RateInputs(
        base_acc=metrics.accuracy(params, ds),
        base_rob=metrics.adversarial_accuracy(params, ds, cfg.pgd, seed=cfg.seed),
        att_acc=att_acc,
        att_rob=metrics.adversarial_accuracy(theta, ds_off, cfg.pgd, seed=cfg.seed),
        att_aux=att_aux,
    )
    rr = metrics.targeted_rate(kind, ri)
    return attack.AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                               rate_inputs=ri, rate=rr.value, failed=rr.failed,
                               extras={"target_label": target_label, "kind": kind})


def _ref_attack_label(params, ds, target_label, budget, cfg):
    def obj(theta, Xb, yb, on, seed):
        Xadv = pgd_adversary_batch(theta, Xb, yb, cfg.pgd, seed=seed)
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
    def obj(theta, Xb, yb, on, seed):
        Xadv = pgd_adversary_batch(theta, Xb[~on], yb[~on], cfg.pgd, seed=seed)
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
    trace = []
    main_done = 0
    for it in range(cfg.n_pre + cfg.n_main):
        Xadv = pgd_adversary_batch(theta, X1, y1, cfg.pgd, seed=_ref_seed(cfg.seed, 4, it))
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
    rr = metrics.targeted_rate("single", ri)
    return attack.AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                               rate_inputs=ri, rate=rr.value,
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


def _oracle_cfg(batch_size, schedule, seed=0):
    n_pre, n_main = schedule
    return AttackConfig(pgd=ORACLE_PGD, n_pre=n_pre, n_main=n_main, alpha=0.05,
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
