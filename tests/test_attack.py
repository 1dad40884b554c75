"""PGD contracts, budgets/projection, attack loop invariants."""

import numpy as np
import pytest

from advparam import attack, mlp
from advparam.attack import (
    AttackConfig,
    PerturbBudget,
    PgdConfig,
    attack_direct,
    attack_label,
    attack_linf,
    attack_single,
    attack_swap,
    budget_linf,
    budget_swap,
    perturb_random,
    pgd_adversary,
    pgd_adversary_batch,
    pgd_flips_batch,
    proj_box,
    robust_loss,
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


def test_pgd_single_sample_wrapper():
    p = ModelParams([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
    x = np.array([0.62, 0.38])
    xa = pgd_adversary(p, x, 0, eps=0.2, steps=25, seed=0)
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
    clean = float(_ce(p, X, y).mean())
    assert robust_loss(p, X, y, PgdConfig(eps=0.1, steps=10), seed=0) >= clean - 1e-12


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
    if cfg.random_start:
        cur = np.clip(X + cfg.eps * rng.uniform(-1.0, 1.0, size=X.shape), lo, hi)
        ce, pred = eval_point(cur)
        flipped |= pred != y
        better = ce > best_ce
        best_ce = np.where(better, ce, best_ce)
        best_X[better] = cur[better]
    else:
        cur = X.copy()
    for _ in range(cfg.steps):
        _, g, _ = input_gradient(params, cur, y)
        cur = np.clip(cur + cfg.resolved_step * np.sign(g), lo, hi)
        ce, pred = eval_point(cur)
        flipped |= pred != y
        better = ce > best_ce
        best_ce = np.where(better, ce, best_ce)
        best_X[better] = cur[better]
    return best_X, flipped, best_ce


@pytest.mark.parametrize("n", [1, 32])
@pytest.mark.parametrize("steps", [0, 1, 2, 7])
@pytest.mark.parametrize("random_start", [True, False])
@pytest.mark.parametrize("eps", [0.0, 0.15])
def test_pgd_matches_two_pass_oracle(n, steps, random_start, eps):
    rng = np.random.default_rng(100 + n + steps)
    p = random_net(rng, [4, 10, 10, 3])
    X = rng.uniform(0, 1, size=(n, 4))
    y = rng.integers(0, 3, size=n)
    cfg = PgdConfig(eps=eps, steps=steps, random_start=random_start)
    best_X, flipped, ce = _two_pass_pgd(p, X, y, cfg, seed=3)
    assert np.array_equal(pgd_adversary_batch(p, X, y, cfg, seed=3), best_X)
    assert np.array_equal(pgd_flips_batch(p, X, y, cfg, seed=3), flipped)
    assert robust_loss(p, X, y, cfg, seed=3) == float(ce.mean())


@pytest.mark.parametrize("steps", [0, 1, 2, 7])
@pytest.mark.parametrize("random_start", [True, False])
def test_pgd_pass_counts(monkeypatch, steps, random_start):
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
    pgd_adversary_batch(p, X, y, PgdConfig(eps=0.1, steps=steps, random_start=random_start))
    if steps == 0:
        assert counts == {"forward": 1, "grad": 0}
    else:
        assert counts == {"forward": steps + 2, "grad": steps}


# --- budgets and projection -------------------------------------------------------


def test_budget_linf_shapes_and_values():
    p = ModelParams([np.array([[2.0, -4.0], [0.5, 0.0]])], [np.array([1.0, -3.0])])
    b = budget_linf(p, 0.1)
    np.testing.assert_allclose(b.delta.weights[0], [[0.2, 0.4], [0.05, 0.0]])
    np.testing.assert_allclose(b.delta.biases[0], [0.1, 0.3])
    assert b.describe() == "linf gamma=0.1"
    with pytest.raises(ValueError):
        budget_linf(p, -0.5)


def test_budget_swap_validation():
    with pytest.raises(ValueError):
        budget_swap(pair_fraction=0.7)
    with pytest.raises(ValueError):
        budget_swap(k_matrices=0)
    assert "swap k=2" in budget_swap(k_matrices=2).describe()


def test_proj_box_identity_inside_and_clipping():
    rng = np.random.default_rng(2)
    center = random_net(rng, [3, 5, 2])
    delta = budget_linf(center, 0.05).delta
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


def test_attack_linf_zero_budget_is_identity():
    params, ds = _small_trained()
    res = attack_linf(params, ds, budget_linf(params, 0.0), CFG)
    assert max_abs_diff(res.attacked, params) == 0.0
    assert res.rate == 0.0 and not res.failed


def test_attack_linf_respects_budget_exactly():
    params, ds = _small_trained()
    gamma = 0.08
    res = attack_linf(params, ds, budget_linf(params, gamma), CFG)
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
        attack_linf(params, ds, budget_swap(), CFG)
    with pytest.raises(ValueError):
        attack_swap(params, ds, budget_linf(params, 0.1), CFG)


def test_attack_swap_preserves_multiset():
    params, ds = _small_trained()
    budget = budget_swap(k_matrices=2, pair_fraction=0.05, pair_floor=10)
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
    budget = budget_swap(k_matrices=1, pair_fraction=0.05, pair_floor=5)
    res = attack_swap(params, ds, budget, CFG)
    (touched,) = res.extras["matrices"]
    for l, (wa, w) in enumerate(zip(res.attacked.weights, params.weights)):
        if l != touched:
            np.testing.assert_array_equal(wa, w)


def test_attack_swap_too_many_matrices():
    params, ds = _small_trained()
    with pytest.raises(ValueError):
        attack_swap(params, ds, budget_swap(k_matrices=5), CFG)


def test_targeted_attacks_validate_labels():
    params, ds = _small_trained()
    with pytest.raises(ValueError):
        attack_label(params, ds, 7, budget_linf(params, 0.05), CFG)
    only0 = ds.subset(np.where(ds.y == 0)[0])
    with pytest.raises(ValueError):
        attack_direct(params, only0, 0, budget_linf(params, 0.05), CFG)


def test_attack_label_runs_and_respects_budget():
    params, ds = _small_trained()
    gamma = 0.1
    res = attack_label(params, ds, 0, budget_linf(params, gamma),
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
    res = attack_single(params, x, label, budget_linf(params, 0.0), CFG)
    assert res.rate == 0.0  # zero budget cannot shrink the radius
    assert res.extras["radius_before"] == res.extras["radius_after"]
    # claiming the wrong label must be rejected up front
    with pytest.raises(ValueError):
        attack_single(params, x, 1 - label, budget_linf(params, 0.1), CFG)


def test_perturb_random_within_budget_and_deterministic():
    params, _ = _small_trained()
    gamma = 0.07
    budget = budget_linf(params, gamma)
    q1 = perturb_random(params, budget, seed=5)
    q2 = perturb_random(params, budget, seed=5)
    assert max_abs_diff(q1, q2) == 0.0
    for wa, w in zip(q1.weights, params.weights):
        assert (np.abs(wa - w) <= gamma * np.abs(w) + 1e-15).all()
    q3 = perturb_random(params, budget_swap(k_matrices=1, pair_fraction=0.05, pair_floor=4), seed=3)
    for wa, w in zip(q3.weights, params.weights):
        np.testing.assert_array_equal(np.sort(wa.ravel()), np.sort(w.ravel()))
