"""Tests for the constructive surgery module and the closed-form bounds."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advparam import mlp, theory
from advparam.data import gen_subspace_task
from advparam.metrics import margin_measure
from advparam.mlp import ModelParams, classify, forward_batch
from advparam.theory import (
    ConstructionTrace,
    balanced_partition,
    dist_rate_bound,
    estimate_gap_bound,
    gradient_inflation_attack,
    max_product_signs,
    min_depth_for_dist_margin,
    min_depth_for_dist_rate,
    min_depth_for_point_margin,
    min_depth_for_point_rate,
    orthogonal_unit_vector,
    point_rate_bound,
    product_sign_bound,
    surgery_conditions,
    surgery_protected_set,
    surgery_single_point,
    weight_row_separation,
)
from advparam.theory import _layer_chains

from common import (
    chain_input_jacobian,
    conditioned_surgery_net,
    numeric_input_jacobian,
    positive_square_net,
    random_net,
    rel_err,
)


def test_all_lists_every_public_definition():
    public = {name for name, obj in vars(theory).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == theory.__name__}
    assert sorted(theory.__all__) == sorted(public)
    namespace = {}
    exec("from advparam.theory import *", namespace)
    assert public <= namespace.keys()


# ---------------------------------------------------------------------------
# balanced partition


def test_partition_frozen_examples():
    mask, k = balanced_partition([1.0, 1.0])
    assert k == 0.0
    mask, k = balanced_partition([3.0, 1.0, 1.0])
    assert k == 1.0
    assert mask.tolist() == [True, False, False]
    mask, k = balanced_partition([5.0, 1.0])
    assert k == 4.0
    assert mask.tolist() == [True, False]


def test_partition_orientation_and_value():
    rng = np.random.default_rng(3)
    for n in [2, 3, 5, 8, 13, 20, 22, 24, 30, 45]:
        v = rng.uniform(-3, 3, n)
        mask, k = balanced_partition(v)
        mags = np.abs(v)
        assert k >= 0
        assert math.isclose(mags[mask].sum() - mags[~mask].sum(), k, rel_tol=0, abs_tol=1e-9)
        # the key inequality behind the orthogonal vector: every nonzero
        # member of the heavy side is at least the imbalance
        nonzero = mask & (mags > 0)
        assert np.all(mags[nonzero] >= k - 1e-9)


def test_partition_exhaustive_is_optimal():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        v = rng.uniform(0, 5, n)
        _, k = balanced_partition(v)
        best = min(
            abs(2.0 * v[(np.arange(n) >> 0) * 0 == 0][list(np.where((bits >> np.arange(n)) & 1)[0])].sum() - v.sum())
            if False else abs(2.0 * v[(bits >> np.arange(n)) & 1 == 1].sum() - v.sum())
            for bits in range(1 << n)
        )
        assert math.isclose(k, best, rel_tol=0, abs_tol=1e-12)


def _partition_doubling(mags):
    """All 2^n subset sums at once; returns (best mask bits, signed diff)."""
    sums = np.zeros(1)
    for m in mags:
        sums = np.concatenate([sums, sums + m])
    diffs = 2.0 * sums - mags.sum()
    best = int(np.argmin(np.abs(diffs)))
    return best, float(diffs[best])


def test_partition_mitm_matches_doubling():
    """The meet-in-the-middle search against enumerating every subset."""
    rng = np.random.default_rng(5)
    for trial in range(600):
        n = trial % 20 + 1
        if trial % 3 == 2:
            v = rng.integers(-4, 5, n).astype(np.float64)  # zeros and ties
        else:
            v = rng.uniform(-4, 4, n)
        mask, k = balanced_partition(v)
        mags = np.abs(v)
        _, diff = _partition_doubling(mags)
        assert math.isclose(k, abs(diff), rel_tol=0, abs_tol=1e-12)
        assert math.isclose(mags[mask].sum() - mags[~mask].sum(), k, rel_tol=0, abs_tol=1e-12)
        assert np.all(mags[mask & (mags > 0)] >= k - 1e-12)


def test_partition_empty_rejected():
    with pytest.raises(ValueError):
        balanced_partition([])


# ---------------------------------------------------------------------------
# orthogonal unit vector


def test_ouv_frozen_examples():
    assert orthogonal_unit_vector([1.0, 1.0]).tolist() == [1.0, -1.0]
    assert orthogonal_unit_vector([1.0, 0.0, 0.0]).tolist() == [0.0, 1.0, 1.0]
    w = orthogonal_unit_vector([5.0, 1.0])
    assert np.allclose(w, [0.2, -1.0])
    w = orthogonal_unit_vector([3.0, 1.0, 1.0])
    assert np.allclose(w, [2.0 / 3.0, -1.0, -1.0])


def _check_ouv(v):
    w = orthogonal_unit_vector(v)
    n = len(v)
    # ||v|| as m * ||v / m||: squaring entries near 1e-240 underflows to 0
    m = np.abs(v).max()
    norm_v = m * np.linalg.norm(v / m)
    assert abs(float(w @ np.asarray(v))) <= 1e-9 * norm_v * np.linalg.norm(w)
    assert np.abs(w).max() == 1.0
    assert np.linalg.norm(w) >= math.sqrt(n - 1) - 1e-9


def test_ouv_random_properties():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        v = rng.uniform(-10, 10, n)
        if rng.random() < 0.3:
            v[rng.random(n) < 0.4] = 0.0
        if not np.any(v != 0):
            v[0] = 1.0
        _check_ouv(v)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=2, max_size=30).filter(lambda v: any(x != 0 for x in v)))
def test_ouv_hypothesis(v):
    _check_ouv(np.asarray(v))


def test_ouv_rejects_degenerate():
    with pytest.raises(ValueError):
        orthogonal_unit_vector([0.0, 0.0])
    with pytest.raises(ValueError):
        orthogonal_unit_vector([1.0])


# ---------------------------------------------------------------------------
# surgery conditions


def test_row_separation_example():
    w2 = np.vstack([np.ones(6), np.zeros(6)])
    assert weight_row_separation(w2) == 1.0
    with pytest.raises(ValueError):
        weight_row_separation(np.ones((1, 4)))


def test_activation_fraction_example():
    # hidden activations (0.5, 0.5, 0, 0) at x0: half the units clear the floor
    w2 = np.array([[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])
    net = ModelParams([np.zeros((4, 2)), w2], [np.array([0.5, 0.5, -1.0, -1.0]), np.zeros(2)])
    cond = surgery_conditions(net, np.array([0.5, 0.5]), radius=0.1, eps=0.05, gamma=0.5)
    assert cond.active_frac == 0.5 and cond.active_count == 2
    assert 0.0 < cond.act_floor < 0.5


def test_conditions_threshold_predicate():
    rng = np.random.default_rng(7)
    net = conditioned_surgery_net(rng, n=8, width=32, m=2)
    x0 = rng.uniform(0.3, 0.7, 8)
    cond = surgery_conditions(net, x0, radius=0.08, eps=0.05, gamma=0.5, seed=0)
    # brute-force re-evaluation of the same inequality
    expected = 2.0 * cond.gap_bound / (min(cond.budget_shift, cond.act_floor)
                                       * cond.row_sep * cond.active_frac)
    assert math.isclose(cond.width_required, expected, rel_tol=1e-12)
    assert cond.width_ok == (cond.width > expected)
    assert cond.gap_bound == 1.5 * cond.gap_bound_raw
    assert cond.budget_shift == 0.05 * 0.5 * (8 - 1)


def test_conditions_explicit_floor_and_radius_guard():
    rng = np.random.default_rng(8)
    net = conditioned_surgery_net(rng, n=6, width=16, m=2)
    x0 = rng.uniform(0.3, 0.7, 6)
    cond = surgery_conditions(net, x0, radius=0.1, eps=0.05, gamma=0.5)
    acts = forward_batch(net, x0[None, :])[0][1][0]
    assert cond.active_count == int((acts > cond.act_floor).sum())
    assert cond.active_frac == cond.active_count / acts.size
    assert cond.shift == min(cond.budget_shift, cond.act_floor)
    for radius in (0.05, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius"):
            surgery_conditions(net, x0, radius=radius, eps=0.05, gamma=0.5)


def test_gap_bound_covers_anchor_spread():
    rng = np.random.default_rng(9)
    net = random_net(rng, [5, 12, 3])
    x0 = rng.uniform(0.2, 0.8, 5)
    _, _, lg = forward_batch(net, x0[None, :])
    spread = float(lg[0].max() - lg[0].min())
    assert estimate_gap_bound(net, x0, radius=0.05, ascent_steps=5) >= spread


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
def test_gap_bound_rejects_bad_radius(radius):
    net = random_net(np.random.default_rng(9), [4, 6, 3])
    with pytest.raises(ValueError, match="radius"):
        estimate_gap_bound(net, np.full(4, 0.5), radius=radius)


def _ref_gap_bound(params, anchors, radius, ascent_steps=30, seed=0):
    """estimate_gap_bound as written with a separate jacobian and logit pass."""
    X = np.asarray(anchors, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    rng = np.random.default_rng(seed)
    n = X.shape[1]
    per = max(1, theory._GAP_PROBES // X.shape[0])
    probes = np.repeat(X, per, axis=0) + rng.uniform(-radius, radius, (X.shape[0] * per, n))
    probes = np.vstack([X, probes])
    _, _, logits = forward_batch(params, probes)
    best = float((logits.max(axis=1) - logits.min(axis=1)).max())
    step = radius / 8.0
    for x0 in X:
        x = x0.copy()
        for _ in range(ascent_steps):
            jac = chain_input_jacobian(params, x)
            _, _, lg = forward_batch(params, x[None, :])
            hi, lo = int(np.argmax(lg[0])), int(np.argmin(lg[0]))
            best = max(best, float(lg[0, hi] - lg[0, lo]))
            if hi == lo:
                break
            d = jac[hi] - jac[lo]
            x = np.clip(x + step * np.sign(d), x0 - radius, x0 + radius)
        _, _, lg = forward_batch(params, x[None, :])
        best = max(best, float(lg[0].max() - lg[0].min()))
    return best


def _gap_cases():
    rng = np.random.default_rng(21)
    task = gen_subspace_task(48, 12, 5, 3, seed=0)
    surg = conditioned_surgery_net(rng, n=12, width=96, m=3)
    cases = [(surg, task.X, 0.05), (surg, task.X[0], 0.05)]
    for dims in ([5, 12, 3], [8, 24, 24, 24, 3], [6, 16, 16, 4], [4, 3]):
        cases.append((random_net(rng, dims), rng.uniform(0.2, 0.8, (3, dims[0])), 0.1))
    cases.append((positive_square_net(rng, 6, 3, m=3), rng.uniform(0.3, 0.9, (2, 6)), 0.1))
    return cases


@pytest.mark.parametrize("seed", [0, 1])
def test_gap_bound_matches_two_pass_reference(seed):
    """Exact for one anchor; with several, a row of the batched ascent may
    round differently in the last bits from a one-row pass."""
    for params, anchors, radius in _gap_cases():
        got = estimate_gap_bound(params, anchors, radius, ascent_steps=12, seed=seed)
        want = _ref_gap_bound(params, anchors, radius, ascent_steps=12, seed=seed)
        if np.ndim(anchors) == 1 or len(anchors) == 1:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_gap_bound_pass_counts(monkeypatch):
    """One logit_jacobians pass per ascent step over all anchors, then one forward."""
    rng = np.random.default_rng(4)
    params = random_net(rng, [6, 16, 16, 3])
    steps = 7
    for k in (1, 5, 40):
        anchors = rng.uniform(0.2, 0.8, (k, 6))
        rows = {"logit_jacobians": [], "forward_batch": []}

        def counting(name):
            fn = getattr(theory, name)

            def wrapped(p, X, *a):
                rows[name].append(len(X))
                return fn(p, X, *a)
            return wrapped

        with monkeypatch.context() as mp:
            for name in rows:
                mp.setattr(theory, name, counting(name))
            estimate_gap_bound(params, anchors, 0.1, ascent_steps=steps)
        assert rows["logit_jacobians"] == [k] * steps
        assert len(rows["forward_batch"]) == 2 and rows["forward_batch"][1] == k  # probes, last iterates


def _forward_log(monkeypatch):
    """Record (params, X) of every forward_batch call, in call order."""
    log = []
    fwd = mlp.forward_batch

    def wrapped(params, X, ws=None):
        log.append((params, np.array(X)))
        return fwd(params, X, ws)

    monkeypatch.setattr(mlp, "forward_batch", wrapped)  # classify and the jacobians
    monkeypatch.setattr(theory, "forward_batch", wrapped)
    return log


# ---------------------------------------------------------------------------
# single-point surgery


def test_single_point_one_forward_at_anchor_before_edit(monkeypatch):
    rng = np.random.default_rng(10)
    net = conditioned_surgery_net(rng, n=10, width=64, m=3)
    x0 = rng.uniform(0.3, 0.7, 10)
    cond = surgery_conditions(net, x0, 0.075, 0.05, 0.5, seed=1)
    monkeypatch.setattr(theory, "surgery_conditions", lambda *a, **k: cond)
    log = _forward_log(monkeypatch)
    tr = surgery_single_point(net, x0, gamma=0.5, eps=0.05)
    assert tr.adversarial_found
    on_net = [X for params, X in log if params is net]
    assert len(on_net) == 1 and np.array_equal(on_net[0], x0[None, :])
    assert tr.margin_before == margin_measure(net, x0, classify(net, x0))


def test_single_point_one_forward_at_anchor_after_edit(monkeypatch):
    """Residual and margin_after come from one pass on the attacked net at x0."""
    rng = np.random.default_rng(10)
    net = conditioned_surgery_net(rng, n=10, width=64, m=3)
    x0 = rng.uniform(0.3, 0.7, 10)
    cond = surgery_conditions(net, x0, 0.075, 0.05, 0.5, seed=1)
    monkeypatch.setattr(theory, "surgery_conditions", lambda *a, **k: cond)
    log = _forward_log(monkeypatch)
    tr = surgery_single_point(net, x0, gamma=0.5, eps=0.05)
    on_attacked = [X for params, X in log if params is tr.attacked]
    assert sum(np.array_equal(X, x0[None, :]) for X in on_attacked) == 1
    assert len(on_attacked) == 2  # x0 and the adversarial point
    monkeypatch.undo()
    assert tr.margin_after == margin_measure(tr.attacked, x0, classify(net, x0))


def test_single_point_surgery_success():
    rng = np.random.default_rng(10)
    net = conditioned_surgery_net(rng, n=10, width=64, m=3)
    x0 = rng.uniform(0.3, 0.7, 10)
    tr = surgery_single_point(net, x0, gamma=0.5, eps=0.05, seed=1)
    assert tr.clean_residual <= 1e-9
    assert tr.budget_used <= 0.5
    assert tr.adversarial_found
    assert classify(tr.attacked, tr.adversarial_point) != classify(net, x0)
    assert classify(tr.attacked, x0) == classify(net, x0)
    assert np.abs(tr.adversarial_point - x0).max() <= 0.05 + 1e-12
    assert tr.guarantee
    # direction is orthogonal to the anchor with unit max-norm
    assert abs(float(tr.direction @ x0)) <= 1e-9 * np.linalg.norm(x0)
    assert np.abs(tr.direction).max() == 1.0


def test_single_point_budget_is_exact():
    rng = np.random.default_rng(11)
    net = conditioned_surgery_net(rng, n=8, width=32, m=2)
    x0 = rng.uniform(0.3, 0.7, 8)
    tr = surgery_single_point(net, x0, gamma=0.25, eps=0.04)
    assert tr.budget_used == 0.25
    delta = tr.attacked.weights[0] - net.weights[0]
    assert np.abs(delta).max() == 0.25
    assert all(np.array_equal(a, b) for a, b in
               zip(tr.attacked.weights[1:], net.weights[1:]))


def test_single_point_deterministic():
    rng = np.random.default_rng(12)
    net = conditioned_surgery_net(rng, n=8, width=32, m=3)
    x0 = rng.uniform(0.3, 0.7, 8)
    t1 = surgery_single_point(net, x0, gamma=0.5, eps=0.05, seed=3)
    t2 = surgery_single_point(net, x0, gamma=0.5, eps=0.05, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(t1.attacked.weights, t2.attacked.weights))


def test_single_point_zero_budget_identity():
    rng = np.random.default_rng(13)
    net = conditioned_surgery_net(rng, n=6, width=16, m=2)
    x0 = rng.uniform(0.3, 0.7, 6)
    tr = surgery_single_point(net, x0, gamma=0.0, eps=0.05)
    assert tr.adversarial_found is False
    assert all(np.array_equal(a, b) for a, b in zip(tr.attacked.weights, net.weights))


def test_single_point_refusals():
    rng = np.random.default_rng(14)
    net = conditioned_surgery_net(rng, n=6, width=16, m=2)
    x0 = rng.uniform(0.3, 0.7, 6)
    # duplicate output rows destroy the row separation
    w2 = net.weights[1].copy()
    w2[1] = w2[0]
    flat = ModelParams([net.weights[0], w2], net.biases)
    with pytest.raises(ValueError, match="row separation"):
        surgery_single_point(flat, x0, gamma=0.5, eps=0.05)
    # two hidden units cannot clear any sensible width threshold
    tiny = conditioned_surgery_net(rng, n=6, width=2, m=2, w1_scale=1.0)
    with pytest.raises(ValueError, match="width"):
        surgery_single_point(tiny, rng.uniform(0.3, 0.7, 6), gamma=1e-4, eps=1e-3)
    deep = random_net(rng, [6, 8, 8, 2])
    with pytest.raises(ValueError, match="hidden layer"):
        surgery_single_point(deep, x0, gamma=0.5, eps=0.05)


# ---------------------------------------------------------------------------
# protected-set surgery


def _subspace_setup(seed, n_samples=40, n=12, d=5, m=3, width=96):
    task = gen_subspace_task(n_samples, n, d, m, seed)
    rng = np.random.default_rng(seed + 100)
    net = conditioned_surgery_net(rng, n=n, width=width, m=m)
    net.biases[0][:] = 1.0  # flat bias keeps the paired pattern exactly balanced
    return task, net


def test_protected_set_preserved_and_attacked():
    task, net = _subspace_setup(20)
    tr = surgery_protected_set(net, task.X, gamma=0.5, eps=0.05, seed=2)
    assert tr.clean_residual <= 1e-9
    assert tr.budget_used <= 0.5 + 1e-12
    assert tr.adversarial_fraction >= 0.5
    assert tr.guarantee
    labels0 = np.argmax(forward_batch(net, task.X)[2], axis=1)
    labels1 = np.argmax(forward_batch(tr.attacked, task.X)[2], axis=1)
    assert np.array_equal(labels0, labels1)
    # planted points stay within the sample budget
    for x, adv in zip(task.X, tr.extras["adversarial_points"]):
        if adv is not None:
            assert np.linalg.norm(adv - x) <= 0.05 + 1e-9


def test_protected_set_one_forward_on_the_unedited_set(monkeypatch):
    task, net = _subspace_setup(20)
    cond = surgery_conditions(net, task.X, 0.075, 0.05, 0.5, seed=2)
    monkeypatch.setattr(theory, "surgery_conditions", lambda *a, **k: cond)
    log = _forward_log(monkeypatch)
    tr = surgery_protected_set(net, task.X, gamma=0.5, eps=0.05)
    assert tr.adversarial_fraction >= 0.5
    assert sum(p is net and np.array_equal(X, task.X) for p, X in log) == 1


def test_protected_set_batched_passes(monkeypatch):
    """One forward on the attacked net over the set, one classify_batch per
    side, and a bounded number of passes in all: no per-sample loop."""
    task, net = _subspace_setup(20, n_samples=48)
    calls = {"classify": 0, "classify_batch": 0}
    for name in calls:
        fn = getattr(theory, name)

        def counted(*a, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*a)
        monkeypatch.setattr(theory, name, counted)
    log = _forward_log(monkeypatch)
    tr = surgery_protected_set(net, task.X, gamma=0.5, eps=0.05, seed=2)
    assert calls == {"classify": 0, "classify_batch": 2}
    shift = 0.05 * tr.directions[tr.extras["labels"]]
    on_attacked = [X for p, X in log if p is tr.attacked]
    assert len(on_attacked) == 3
    for X, want in zip(on_attacked, (task.X, task.X - shift, task.X + shift)):
        np.testing.assert_array_equal(X, want)
    # conditions 1 + 20 ascent steps + 2 for the gap bound, then 1 unedited + 3 attacked
    assert len(log) == 27


def test_protected_set_tries_the_minus_side_first():
    task, net = _subspace_setup(20)
    tr = surgery_protected_set(net, task.X, gamma=0.5, eps=0.05, seed=2)
    labels, V = tr.extras["labels"], tr.directions
    for i, (x, adv) in enumerate(zip(task.X, tr.extras["adversarial_points"])):
        lx = int(labels[i])
        hit = [s for s in (-1.0, 1.0) if classify(tr.attacked, x + s * 0.05 * V[lx]) != lx]
        assert tr.extras["hits"][i] == bool(hit)
        if hit:
            np.testing.assert_array_equal(adv, x + hit[0] * 0.05 * V[lx])
        else:
            assert adv is None


def test_protected_set_directions_are_null():
    task, net = _subspace_setup(21)
    tr = surgery_protected_set(net, task.X, gamma=0.4, eps=0.05, seed=0)
    V = tr.directions
    assert V.shape == (3, 12)
    assert np.abs(V @ task.X.T).max() <= 1e-9
    assert np.allclose(V @ V.T, np.eye(3), atol=1e-9)


def test_protected_set_full_span_refused():
    rng = np.random.default_rng(22)
    net = conditioned_surgery_net(rng, n=6, width=16, m=3)
    X = rng.uniform(0.2, 0.8, (30, 6))  # full rank, no room for 3 directions
    with pytest.raises(ValueError, match="rank"):
        surgery_protected_set(net, X, gamma=0.5, eps=0.05)


def test_protected_set_weak_net_keeps_flag_unset():
    task, _ = _subspace_setup(23)
    rng = np.random.default_rng(23)
    weak = random_net(rng, [12, 16, 3])  # generic rows: tiny separation, huge threshold
    tr = surgery_protected_set(weak, task.X, gamma=0.05, eps=0.02, seed=1)
    assert isinstance(tr, ConstructionTrace)
    assert tr.clean_residual <= 1e-9
    assert not tr.guarantee


# ---------------------------------------------------------------------------
# sign selection


def test_sign_selection_scalar_example():
    signs, val = max_product_signs([np.array([[2.0]])], [np.array([[1.0]])])
    assert val == 9.0
    assert signs[0] == 1.0
    assert product_sign_bound([np.array([[2.0]])], [np.array([[1.0]])]) == 5.0


def test_sign_selection_zero_candidates_collapse():
    rng = np.random.default_rng(30)
    U = [rng.standard_normal((3, 3)) for _ in range(3)]
    u = [np.zeros((3, 3)) for _ in range(3)]
    base = float(np.sum((U[0] @ U[1] @ U[2]) ** 2))
    _, val = max_product_signs(U, u)
    assert math.isclose(val, base, rel_tol=1e-12)
    assert math.isclose(product_sign_bound(U, u), base, rel_tol=1e-12)


def test_sign_selection_dominates_bound():
    rng = np.random.default_rng(31)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(k + 1)]
        U = [rng.standard_normal((dims[i], dims[i + 1])) for i in range(k)]
        u = [rng.standard_normal((dims[i], dims[i + 1])) for i in range(k)]
        _, val = max_product_signs(U, u)
        bound = product_sign_bound(U, u)
        assert val >= bound * (1 - 1e-10)


def test_sign_selection_input_validation():
    with pytest.raises(ValueError, match="shape"):
        max_product_signs([np.ones((2, 2))], [np.ones((2, 3))])
    with pytest.raises(ValueError, match="chain"):
        max_product_signs([np.ones((2, 2)), np.ones((3, 3))],
                          [np.ones((2, 2)), np.ones((3, 3))])
    with pytest.raises(ValueError, match="16"):
        max_product_signs([np.ones((1, 1))] * 17, [np.ones((1, 1))] * 17)
    with pytest.raises(ValueError, match="nonempty"):
        max_product_signs([], [])


# ---------------------------------------------------------------------------
# gradient inflation


def test_inflation_preserves_and_shrinks():
    rng = np.random.default_rng(40)
    for trial in range(8):
        n = int(rng.integers(6, 13))
        depth = int(rng.integers(2, 5))
        net = positive_square_net(rng, n, depth, m=4)
        x0 = rng.uniform(0.3, 1.0, n)
        tr = gradient_inflation_attack(net, x0, gamma=0.5)
        assert tr.clean_residual <= 1e-9
        assert tr.budget_used <= 0.5 * (1 + 1e-12)
        assert classify(tr.attacked, x0) == classify(net, x0)
        assert tr.margin_after <= tr.margin_before * (1 + 1e-9)
        assert tr.guarantee
        assert tr.extras["grad_norm2_after"] >= tr.extras["grad_norm2_bound"] * (1 - 1e-10)
        assert tr.extras["grad_norm2_bound"] >= tr.extras["grad_norm2_before"] * (1 - 1e-12)


def test_inflation_one_forward_before_the_jacobian(monkeypatch):
    """The jacobian chains take their masks from the one forward at x0."""
    rng = np.random.default_rng(40)
    net = positive_square_net(rng, 8, 3, m=4)
    x0 = rng.uniform(0.3, 1.0, 8)
    log = _forward_log(monkeypatch)
    tr = gradient_inflation_attack(net, x0, gamma=0.5)
    assert tr.guarantee
    assert sum(p is net for p, _ in log) == 1
    assert log[0][0] is net and np.array_equal(log[0][1], x0[None, :])


def test_inflation_one_forward_after_the_edit(monkeypatch):
    """Residual and margin_after come from one pass on the attacked net at x0."""
    rng = np.random.default_rng(41)
    net = positive_square_net(rng, 8, 3, m=4)
    x0 = rng.uniform(0.3, 1.0, 8)
    log = _forward_log(monkeypatch)
    tr = gradient_inflation_attack(net, x0, gamma=0.5)
    assert tr.guarantee
    on_attacked = [X for p, X in log if p is tr.attacked]
    assert len(on_attacked) == 1 and np.array_equal(on_attacked[0], x0[None, :])


def test_inflation_margin_after_is_margin_measure():
    """The margins before and after the edit are margin_measure, bit for bit."""
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        net = positive_square_net(rng, n, int(rng.integers(1, 5)), m=int(rng.integers(2, 5)))
        x0 = rng.uniform(0.3, 1.0, n)
        tr = gradient_inflation_attack(net, x0, gamma=float(rng.uniform(0.05, 1.0)))
        assert tr.margin_after == margin_measure(tr.attacked, x0, tr.extras["label"])
        assert tr.margin_before == margin_measure(net, x0, tr.extras["label"])


def test_inflation_zero_budget_one_forward(monkeypatch):
    """At gamma = 0 the margin comes from the entry pass, equal to margin_measure."""
    rng = np.random.default_rng(44)
    for depth in (1, 2, 4):
        net = positive_square_net(rng, 8, depth, m=3)
        x0 = rng.uniform(0.3, 1.0, 8)
        want = margin_measure(net, x0, classify(net, x0))
        with monkeypatch.context() as mp:
            log = _forward_log(mp)
            tr = gradient_inflation_attack(net, x0, gamma=0.0)
        assert len(log) == 1 and log[0][0] is net
        assert tr.margin_before == tr.margin_after == want


def test_layer_chains_match_fd_and_factors():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = random_net(rng, [4, 6, 5, 3])
        x = rng.uniform(0, 1, size=4)
        head, tail = _layer_chains(p, [s[0] for s in forward_batch(p, x[None, :])[1]])
        assert rel_err(head[0], numeric_input_jacobian(p, x)) < 1e-6
        np.testing.assert_array_equal(head[0], chain_input_jacobian(p, x))
        # the jacobian factors through every layer cut
        assert len(head) == len(tail) == p.hidden_count + 1
        np.testing.assert_array_equal(tail[0], np.eye(4))
        for h, t in zip(head, tail):
            np.testing.assert_allclose(h @ t, head[0], atol=1e-12)


def test_inflation_median_drop_is_substantial():
    rng = np.random.default_rng(41)
    drops = []
    for _ in range(12):
        n = int(rng.integers(8, 17))
        depth = int(rng.integers(2, 7))
        net = positive_square_net(rng, n, depth, m=3)
        x0 = rng.uniform(0.3, 1.0, n)
        tr = gradient_inflation_attack(net, x0, gamma=0.5)
        drops.append(1.0 - tr.margin_after / tr.margin_before)
    assert float(np.median(drops)) >= 0.10


def test_inflation_zero_budget_identity():
    rng = np.random.default_rng(42)
    net = positive_square_net(rng, 8, 3, m=3)
    x0 = rng.uniform(0.3, 1.0, 8)
    tr = gradient_inflation_attack(net, x0, gamma=0.0)
    assert all(np.array_equal(a, b) for a, b in zip(tr.attacked.weights, net.weights))
    assert tr.margin_after == tr.margin_before


def test_inflation_architecture_refusals():
    rng = np.random.default_rng(43)
    x0 = rng.uniform(0.3, 1.0, 8)
    biased = positive_square_net(rng, 8, 2, m=3)
    biased.biases[0][0] = 0.1
    with pytest.raises(ValueError, match="bias"):
        gradient_inflation_attack(biased, x0, gamma=0.5)
    rect = ModelParams(random_net(rng, [8, 12, 3]).weights, [np.zeros(12), np.zeros(3)])
    with pytest.raises(ValueError, match="width"):
        gradient_inflation_attack(rect, x0, gamma=0.5)


def test_inflation_target_class_validation():
    """The target is the other class with the smallest first-order margin."""
    rng = np.random.default_rng(44)
    net = positive_square_net(rng, 8, 2, m=3)
    x0 = rng.uniform(0.3, 1.0, 8)
    lx = classify(net, x0)
    F = forward_batch(net, x0[None, :])[2][0]
    jac = chain_input_jacobian(net, x0)
    ratios = {l: (F[lx] - F[l]) / np.linalg.norm(jac[lx] - jac[l]) for l in range(3) if l != lx}
    tr = gradient_inflation_attack(net, x0, gamma=0.5)
    assert tr.target_class == min(ratios, key=ratios.get) != lx
    assert math.isclose(tr.margin_before, min(ratios.values()) ** 2, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_point_rate_frozen_value():
    eta = point_rate_bound(gamma=1.0, depth=1, angle=math.pi / 2,
                           row_sep=1.0, act_floor=1.0, gap_bound=1.0)
    assert abs(eta - 5.0 / 9.0) <= 1e-12


def test_point_rate_properties():
    assert point_rate_bound(0.0, 3, 1.0, 1.0, 1.0, 1.0) == 0.0
    vals = [point_rate_bound(0.5, L, 1.0, 0.8, 0.6, 2.0) for L in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0 <= v < 1 for v in vals)
    with pytest.raises(ValueError):
        point_rate_bound(1.0, 1, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        point_rate_bound(1.0, 0, 1.0, 1.0, 1.0, 1.0)


def test_dist_rate_hand_values():
    rho = dist_rate_bound(1.0, 1.0, [1.0], [1.0], [1.0], [1.0], [1.0])
    assert math.isclose(rho, 2.0 / 6.0, rel_tol=1e-12)
    rho2 = dist_rate_bound(1.0, 1.0, [1, 1], [1, 1], [1, 1], [1, 1], [1, 1])
    assert math.isclose(rho2, 3.0 / 7.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        dist_rate_bound(1.0, 1.0, [1, 1], [1], [1], [1], [1])
    with pytest.raises(ValueError):
        dist_rate_bound(1.0, 0.0, [1], [1], [1], [1], [1])
    with pytest.raises(ValueError):
        dist_rate_bound(1.0, 1.0, [1], [1], [2.0], [1], [1])


def test_depth_threshold_frozen_example():
    L = min_depth_for_point_rate(rho=0.5, gamma=1.0, angle=math.pi / 2,
                                 row_sep=1.0, act_floor=1.0, gap_bound=1.0)
    assert L == 5


def test_depth_threshold_limits_and_errors():
    # rhs = 1 + 4e-6/0.999999, so the ceiling lands on 2
    assert min_depth_for_point_rate(0.999999, 1.0, math.pi / 2, 1.0, 1.0, 1.0) == 2
    with pytest.raises(ValueError):
        min_depth_for_point_rate(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        min_depth_for_point_rate(0.5, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        min_depth_for_point_margin(0.5, 0.4, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        min_depth_for_dist_rate(0.5, 1.0, 1.0, 1.0, 0.4, 0.4, 1.0, 1.0)


def test_depth_threshold_consistency():
    rng = np.random.default_rng(50)
    for _ in range(60):
        rho = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.1, 2.0))
        angle = float(rng.uniform(0.1, math.pi / 2))
        c = float(rng.uniform(0.1, 2.0))
        b = float(rng.uniform(0.1, 2.0))
        A = float(rng.uniform(0.1, 5.0))
        L = min_depth_for_point_rate(rho, gamma, angle, c, b, A)
        assert point_rate_bound(gamma, L, angle, c, b, A) >= 1.0 - rho - 1e-12


def test_depth_threshold_strict_variants():
    # margin target: certified measure at the returned depth is below tau
    tau, margin = 0.3, 0.9
    gamma, angle, c, b, A = 0.8, 1.0, 0.9, 0.7, 2.0
    L = min_depth_for_point_margin(tau, margin, gamma, angle, c, b, A)
    eta = point_rate_bound(gamma, L, angle, c, b, A)
    assert margin * (1 - eta) <= tau
    assert L >= 1
    # strictly-greater semantics: an integral right-hand side bumps up
    L2 = min_depth_for_dist_rate(0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert L2 == 6
    rho_at = dist_rate_bound(1.0, 1.0, [1.0] * L2, [1.0] * L2,
                             [1.0] * L2, [1.0] * L2, [1.0] * L2)
    assert rho_at >= 0.5
    L3 = min_depth_for_dist_margin(0.3, 0.9, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert L3 >= 1


def test_margin_depth_checks_the_ranges_the_rate_depth_checks():
    """act_prob = 2 is outside [0, 1] for every calculator, not only for min_depth_for_dist_rate."""
    with pytest.raises(ValueError, match="act_prob"):
        min_depth_for_dist_margin(0.3, 0.9, 1, 1, 1, 2.0, 1, 1, 1)
    with pytest.raises(ValueError, match="act_prob"):
        min_depth_for_dist_rate(0.5, 1, 1, 1, 2.0, 1, 1, 1)


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_margin_depths_refuse_a_margin_out_of_range(margin):
    """margin must be finite and > 0; nan was refused as an overflow of the constants."""
    with pytest.raises(ValueError, match="margin must lie in"):
        min_depth_for_point_margin(0.5, margin, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="margin must lie in"):
        min_depth_for_dist_margin(0.5, margin, 1, 1, 1, 1, 1, 1, 1)


def test_trace_summary_text():
    rng = np.random.default_rng(60)
    net = conditioned_surgery_net(rng, n=8, width=32, m=2)
    x0 = rng.uniform(0.3, 0.7, 8)
    tr = surgery_single_point(net, x0, gamma=0.5, eps=0.05)
    text = tr.summary_text()
    assert "single_point" in text
    assert "budget" in text
    assert "width" in text
