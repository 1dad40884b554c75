"""Acceptance gate: one test per criterion, each printing a PASS line.

Every test is self-contained up to the module fixtures and asserts the
criterion's stated tolerances and runtime budget.  Conditioned instances
(nets built to satisfy the constructions' hypotheses) come from common.py.
"""

import math
import struct
import time

import numpy as np
import pytest

from advparam.attack import AttackConfig, PgdConfig, attack_swap, budget_swap
from advparam.data import (
    LabeledDataset,
    dataset_from_json,
    dataset_to_json,
    gen_blobs,
    gen_subspace_task,
    read_idx,
)
from advparam.experiment import linf_sweep, run_sweep
from advparam.metrics import RateInputs, adversarial_rate
from advparam.mlp import (
    ModelParams,
    classify,
    classify_batch,
    flatten_params,
    forward_batch,
    init_params,
    input_gradient,
    loss_and_grads,
    model_from_json,
    model_to_json,
    unflatten_params,
)
from advparam.theory import (
    gradient_inflation_attack,
    max_product_signs,
    min_depth_for_point_rate,
    orthogonal_unit_vector,
    point_rate_bound,
    product_sign_bound,
    surgery_protected_set,
    surgery_single_point,
)
from advparam.train import TrainConfig, train

from common import conditioned_surgery_net, positive_square_net


def _report(num: int, msg: str) -> None:
    print(f"[criterion {num:02d}] PASS {msg}")


# ---------------------------------------------------------------------------
# criterion 1: gradients match central finite differences


def _rel_err(a: float, f: float) -> float:
    scale = max(abs(a), abs(f))
    if scale < 1e-6:
        return 0.0 if abs(a - f) <= 1e-9 else 1.0
    return abs(a - f) / scale


def _interior_batch(rng, params, n, tries=50):
    """A 2-sample batch whose pre-activations stay off the ReLU boundary."""
    for _ in range(tries):
        X = rng.uniform(0.05, 0.95, (2, n))
        acts, _, _ = forward_batch(params, X)
        margins = []
        h = X
        for W, b in zip(params.weights, params.biases):
            z = h @ W.T + b
            margins.append(np.abs(z).min())
            h = np.maximum(z, 0.0)
        if min(margins) > 1e-4:
            return X
    return None


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    h = 1e-6
    while checked < 100:
        n_layers = int(rng.integers(2, 5))
        dims = [int(rng.integers(3, 13))] + \
               [int(rng.integers(4, 33)) for _ in range(n_layers - 1)] + \
               [int(rng.integers(2, 6))]
        params = init_params(dims, seed=int(rng.integers(1 << 31)))
        X = _interior_batch(rng, params, dims[0])
        if X is None:
            continue
        y = rng.integers(0, dims[-1], 2)
        _, g_params, _ = loss_and_grads(params, X, y, reduction="mean")
        flat_g = flatten_params(g_params)
        flat_p = flatten_params(params)
        for idx in rng.choice(flat_p.size, size=6, replace=False):
            e = np.zeros_like(flat_p)
            e[idx] = h
            lp, _, _ = loss_and_grads(unflatten_params(params, flat_p + e), X, y, reduction="mean")
            lm, _, _ = loss_and_grads(unflatten_params(params, flat_p - e), X, y, reduction="mean")
            worst = max(worst, _rel_err(flat_g[idx], (lp - lm) / (2 * h)))
        _, gx, _ = input_gradient(params, X, y)  # per-sample rows, sum reduction
        for idx in rng.choice(X.size, size=3, replace=False):
            e = np.zeros(X.size)
            e[idx] = h
            lp, _, _ = loss_and_grads(params, X + e.reshape(X.shape), y, reduction="sum")
            lm, _, _ = loss_and_grads(params, X - e.reshape(X.shape), y, reduction="sum")
            worst = max(worst, _rel_err(gx.ravel()[idx], (lp - lm) / (2 * h)))
        checked += 1
    dt = time.perf_counter() - t0
    assert worst <= 1e-5, f"max relative FD error {worst:.3e}"
    assert dt <= 30.0
    _report(1, f"parameter and input gradients match FD: max rel err {worst:.2e} "
               f"over 100 nets ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: orthogonal-vector construction properties


def test_criterion_02_orthogonal_vector_construction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        v = rng.uniform(-10.0, 10.0, n)
        if rng.random() < 0.25:
            v[rng.random(n) < 0.3] = 0.0
            if not np.any(v != 0):
                v[0] = rng.uniform(0.5, 2.0)
        w = orthogonal_unit_vector(v)
        assert abs(float(w @ v)) <= 1e-9 * np.linalg.norm(v) * np.linalg.norm(w)
        assert abs(np.abs(w).max() - 1.0) <= 1e-12
        assert np.linalg.norm(w) >= math.sqrt(n - 1) - 1e-9
    dt = time.perf_counter() - t0
    assert dt <= 10.0
    _report(2, f"1000 draws n in [2,50]: orthogonality, max-norm one, "
               f"length >= sqrt(n-1) ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: single-point surgery end to end


def test_criterion_03_single_point_surgery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    hits = 0
    for trial in range(50):
        m = 2 + trial % 3
        net = conditioned_surgery_net(rng, n=10, width=64, m=m)
        x0 = rng.uniform(0.3, 0.7, 10)
        tr = surgery_single_point(net, x0, gamma=0.5, eps=0.05,
                                  seed=int(rng.integers(1 << 31)))
        assert tr.clean_residual <= 1e-9
        delta = np.abs(tr.attacked.weights[0] - net.weights[0]).max()
        assert delta == 0.5  # budget met exactly, not merely within tolerance
        assert all(np.array_equal(a, b) for a, b in
                   zip(tr.attacked.weights[1:], net.weights[1:]))
        assert all(np.array_equal(a, b) for a, b in
                   zip(tr.attacked.biases, net.biases))
        if classify(tr.attacked, tr.adversarial_point) != classify(net, x0):
            hits += 1
    dt = time.perf_counter() - t0
    assert hits == 50, f"misclassification in {hits}/50 runs"
    assert dt <= 60.0
    _report(3, f"50 conditioned nets: residual <= 1e-9, budget exactly 0.5, "
               f"misclassified {hits}/50 ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: protected-set surgery on subspace tasks


def test_criterion_04_protected_set_surgery():
    t0 = time.perf_counter()
    fractions = []
    for seed in range(10):
        task = gen_subspace_task(48, 12, 5, 3, seed)
        rng = np.random.default_rng(seed + 100)
        net = conditioned_surgery_net(rng, n=12, width=96, m=3)
        net.biases[0][:] = 1.0
        tr = surgery_protected_set(net, task.X, gamma=0.5, eps=0.05, seed=seed)
        assert tr.clean_residual <= 1e-9
        assert tr.guarantee, "width threshold not met"
        before = classify_batch(net, task.X)
        after = classify_batch(tr.attacked, task.X)
        assert np.array_equal(before, after)  # accuracy preserved exactly
        assert tr.adversarial_fraction >= 0.5
        fractions.append(tr.adversarial_fraction)
    dt = time.perf_counter() - t0
    assert dt <= 120.0
    _report(4, f"10 subspace tasks: predictions preserved exactly, adversarial "
               f"fraction min {min(fractions):.2f} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: sign-selection search and bound


def test_criterion_05_sign_selection_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(k + 1)]
        U = [rng.standard_normal((dims[i], dims[i + 1])) for i in range(k)]
        u = [rng.standard_normal((dims[i], dims[i + 1])) for i in range(k)]
        _, achieved = max_product_signs(U, u)
        bound = product_sign_bound(U, u)
        assert achieved >= bound * (1.0 - 1e-10)
    dt = time.perf_counter() - t0
    assert dt <= 30.0
    _report(5, f"1000 instances (<=4 factors, dims <=6): exhaustive search "
               f"achieves the additive bound ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: gradient-inflation construction


def test_criterion_06_gradient_inflation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    drops = []
    for _ in range(100):
        n = int(rng.integers(8, 17))
        depth = int(rng.integers(2, 7))
        net = positive_square_net(rng, n, depth, m=4)
        x0 = rng.uniform(0.3, 1.0, n)
        tr = gradient_inflation_attack(net, x0, gamma=0.5)
        assert tr.clean_residual <= 1e-9
        assert tr.margin_after <= tr.margin_before * (1 + 1e-9)
        drops.append(1.0 - tr.margin_after / tr.margin_before)
    med = float(np.median(drops))
    dt = time.perf_counter() - t0
    assert med >= 0.10, f"median relative margin decrease {med:.3f}"
    assert dt <= 120.0
    _report(6, f"100 bias-free square nets (depth 2-6, width <=16): outputs "
               f"preserved, median margin decrease {med:.1%} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# criteria 7 and 8: desk-scale two-phase attack sweep with random control


GAMMAS = [0.02, 0.04, 0.06, 0.08, 0.10]


@pytest.fixture(scope="module")
def desk_sweep():
    t0 = time.perf_counter()
    ds = gen_blobs(160, 8, 3, seed=0, spread=0.10)
    cfg_t = TrainConfig(dims=[8, 24, 24, 24, 3], epochs=30, lr=0.15, batch_size=32,
                        seed=0, adversarial=True, pgd=PgdConfig(eps=0.08, steps=10))
    params = train(cfg_t, ds).params
    cfg_a = AttackConfig(pgd=PgdConfig(eps=0.13, steps=20), n_pre=20, n_main=80,
                         alpha=3e-2, seed=0)
    rows, errors = run_sweep(params, ds, linf_sweep(GAMMAS), cfg_a, seed=0)
    assert errors == []
    return params, ds, cfg_a, rows, time.perf_counter() - t0


def test_criterion_07_desk_scale_attack(desk_sweep):
    _, _, _, rows, dt = desk_sweep
    guided = [r for r in rows if r.attack == "linf"]
    assert [float(r.budget) for r in guided] == GAMMAS
    g10 = guided[-1]
    acc_ratio = g10.ac_att / g10.ac_base
    aa_drop = 1.0 - g10.aa_att / g10.aa_base
    assert acc_ratio >= 0.9, f"accuracy ratio {acc_ratio:.3f}"
    assert aa_drop >= 0.30, f"adversarial-accuracy drop {aa_drop:.3f}"
    assert g10.ar_aa >= 0.25, f"adversarial rate {g10.ar_aa:.3f}"
    ars = [r.ar_aa for r in guided]
    inversions = sum(1 for a, b in zip(ars, ars[1:]) if b < a - 1e-12)
    assert inversions <= 1, f"AR trend inversions {inversions} at {ars}"
    assert dt <= 600.0
    _report(7, f"gamma=0.1: acc ratio {acc_ratio:.2f}, AA drop {aa_drop:.0%}, "
               f"AR {g10.ar_aa:.2f}; AR(gamma) inversions {inversions} ({dt:.1f}s)")


def test_criterion_08_random_control(desk_sweep):
    _, _, _, rows, _ = desk_sweep
    guided = {r.budget: r.ar_aa for r in rows if r.attack == "linf"}
    control = {r.budget: r.ar_aa for r in rows if r.attack == "random"}
    margins = []
    for budget, ar in guided.items():
        if float(budget) >= 0.04:
            assert ar > control[budget], (
                f"random control not dominated at gamma={budget}: "
                f"{ar} vs {control[budget]}")
            margins.append(ar - control[budget])
    _report(8, f"optimized attack strictly beats random control at gamma >= 0.04 "
               f"(min margin {min(margins):.3f})")


# ---------------------------------------------------------------------------
# criterion 9: adversarial-rate arithmetic


def test_criterion_09_rate_arithmetic():
    cases = [
        (RateInputs(base_acc=1.0, base_rob=1.0, att_acc=77 / 80, att_rob=8 / 45), 0.79),
        (RateInputs(base_acc=1.0, base_rob=1.0, att_acc=80 / 80, att_rob=39 / 45), 0.13),
        (RateInputs(base_acc=1.0, base_rob=0.0770, att_acc=76 / 80, att_rob=0.0195), 0.71),
    ]
    got = []
    for ri, expected in cases:
        value = adversarial_rate(ri).value
        assert abs(value - expected) <= 0.005, f"{value} vs {expected}"
        got.append(value)
    _report(9, "reference rows reproduced: "
               + ", ".join(f"{v:.4f}~{e}" for v, (_, e) in zip(got, cases)))


# ---------------------------------------------------------------------------
# criterion 10: swap-attack soundness


def test_criterion_10_swap_soundness(desk_sweep):
    params, ds, cfg_a, _, _ = desk_sweep
    t0 = time.perf_counter()
    budget = budget_swap(k_matrices=2, pair_fraction=0.01, pair_floor=50)
    res = attack_swap(params, ds, budget, cfg_a)
    touched = set(res.extras["matrices"])
    for l, (w0, w1) in enumerate(zip(params.weights, res.attacked.weights)):
        if l in touched:
            assert np.array_equal(np.sort(w0.ravel()), np.sort(w1.ravel()))
        else:
            assert np.array_equal(w0, w1)
    for b0, b1 in zip(params.biases, res.attacked.biases):
        assert np.array_equal(b0, b1)
    assert res.extras["swaps"] >= 1
    for entry in res.extras["swap_log"]:
        assert entry["grad_gap"] * entry["value_gap"] > 0.0  # descent direction
    ri = res.rate_inputs
    assert res.failed == (ri.att_acc / ri.base_acc < 0.9)
    # the flag trips whenever accuracy lands below 0.9x baseline
    tripped = adversarial_rate(RateInputs(base_acc=0.9, base_rob=0.5,
                                          att_acc=0.7, att_rob=0.1))
    assert tripped.failed
    dt = time.perf_counter() - t0
    _report(10, f"value multisets exact on {len(touched)} touched matrices, "
                f"{res.extras['swaps']} swaps all descent-aligned, failure flag "
                f"tracks the 0.9x rule ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 11: bound calculators


def test_criterion_11_bound_calculators():
    eta = point_rate_bound(gamma=1.0, depth=1, angle=math.pi / 2, row_sep=1.0,
                           act_floor=1.0, gap_bound=1.0)
    assert abs(eta - 5.0 / 9.0) <= 1e-12
    depth = min_depth_for_point_rate(rho=0.5, gamma=1.0, angle=math.pi / 2,
                                     row_sep=1.0, act_floor=1.0, gap_bound=1.0)
    assert depth == 5
    rng = np.random.default_rng(111)
    for _ in range(100):
        rho = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.1, 2.0))
        angle = float(rng.uniform(0.1, math.pi / 2))
        c = float(rng.uniform(0.1, 2.0))
        b = float(rng.uniform(0.1, 2.0))
        A = float(rng.uniform(0.1, 5.0))
        L = min_depth_for_point_rate(rho, gamma, angle, c, b, A)
        assert point_rate_bound(gamma, L, angle, c, b, A) >= 1.0 - rho - 1e-12
    _report(11, f"eta reference 5/9 exact, depth example = {depth}, threshold "
                f"consistency on 100 draws")


# ---------------------------------------------------------------------------
# criterion 12: serialization round-trips


def _idx_fixture_bytes():
    images = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes([0, 255, 128, 64])
    labels = struct.pack(">II", 0x00000801, 1) + bytes([1])
    return images, labels


def test_criterion_12_serialization(tmp_path):
    params = init_params([5, 11, 3], seed=12)
    back = model_from_json(model_to_json(params))
    assert all(np.array_equal(a, b) for a, b in zip(params.weights, back.weights))
    assert all(np.array_equal(a, b) for a, b in zip(params.biases, back.biases))

    ds = gen_blobs(30, 4, 2, seed=5)
    ds2 = dataset_from_json(dataset_to_json(ds))
    assert np.array_equal(ds.X, ds2.X) and np.array_equal(ds.y, ds2.y)

    images, labels = _idx_fixture_bytes()
    ipath, lpath = tmp_path / "im.idx", tmp_path / "lb.idx"
    ipath.write_bytes(images)
    lpath.write_bytes(labels)
    fix = read_idx(str(ipath), str(lpath))
    expected = np.array([0.0, 255.0, 128.0, 64.0]) / 255.0
    assert np.array_equal(fix.X[0], expected)
    assert fix.y[0] == 1
    _report(12, "model and dataset JSON round-trips are value-exact; IDX fixture "
                "parses to the expected vector")
