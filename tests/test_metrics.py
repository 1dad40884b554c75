"""Robustness measures against hand-computed cases and the per-sample loop
they replaced; rate arithmetic frozen values."""

import math

import numpy as np
import pytest

from advparam import metrics, mlp
from advparam.attack import PgdConfig, pgd_flips_batch
from advparam.data import LabeledDataset
from advparam.metrics import (
    RateInputs,
    accuracy,
    adversarial_accuracy,
    adversarial_rate,
    approx_radius,
    avg_approx_radius,
    dist_robust_measure,
    margin_measure,
    radius_profile,
    robustness_report,
    targeted_rate,
)
from advparam.mlp import ModelParams, classify, classify_batch, forward_batch
from advparam.theory import surgery_single_point

from common import (certified_rows, chain_input_jacobian, conditioned_surgery_net, count_scoring_passes,
                    random_net)

# identity-logits net: F(x) = x, two classes
IDNET = ModelParams([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])


@pytest.mark.parametrize("net", [IDNET, ModelParams([np.eye(2), np.eye(2)], [np.zeros(2)] * 2)],
                         ids=["no-hidden", "relu-identity"])
def test_certified_rows_hand_case(net):
    """On logits = x the worst margin over the box is x_y - x_j - 2 eps; a
    ReLU layer on inputs in [0,1] passes its intervals exactly."""
    X, y = np.array([[0.2, 0.8], [0.2, 0.8], [0.0, 0.9]]), np.array([1, 0, 1])
    assert certified_rows(net, X, y, 0.29).tolist() == [True, False, True]
    assert certified_rows(net, X, y, 0.31).tolist() == [False, False, True]


def test_certified_rows_are_sound_on_nets_and_stacks():
    """No sampled point of a certified row's box changes its label; a stack
    gets each net's flags; the surgery's adversarial point, within eps of x0,
    leaves x0 uncertified on the attacked net, which the scorer then scores."""
    rng = np.random.default_rng(31)
    nets = [random_net(rng, [4, 12, 12, 3]) for _ in range(2)]
    X = rng.uniform(0, 1, size=(200, 4))
    y = classify_batch(nets[0], X)
    cert = certified_rows(nets[0], X, y, 0.05)
    assert 0 < cert.sum() < len(y)
    for _ in range(20):
        P = np.clip(X[cert] + rng.uniform(-0.05, 0.05, size=X[cert].shape), 0, 1)
        assert (classify_batch(nets[0], P) == y[cert]).all()
    stacked = certified_rows(ModelParams.stack(nets), X, y, 0.05)
    assert stacked.tolist() == [cert.tolist(), certified_rows(nets[1], X, y, 0.05).tolist()]
    net, x0 = conditioned_surgery_net(np.random.default_rng(103), n=10, width=64, m=3), np.full(10, 0.5)
    tr = surgery_single_point(net, x0, gamma=0.5, eps=0.05, seed=1)
    label = classify(net, x0)
    assert classify(tr.attacked, tr.adversarial_point) != label
    assert not certified_rows(tr.attacked, x0[None], [label], 0.05)[0]
    metrics.scored_rows(tr.attacked, x0[None], np.array([label]), PgdConfig(eps=0.05, steps=10))


def test_approx_radius_hand_case():
    x = np.array([0.8, 0.2])
    # gap 0.6, grad diff (1,-1): L1 norm 2 -> 0.3 for the linf adversary
    assert approx_radius(IDNET, x, 0) == pytest.approx(0.3, rel=1e-12)
    assert margin_measure(IDNET, x, 0) == pytest.approx(0.36 / 2.0, rel=1e-12)
    # misclassified sample scores 0
    assert approx_radius(IDNET, x, 1) == 0.0


def test_approx_radius_inf_sentinel():
    # constant logits (1, 0): positive gap, zero gradient everywhere
    flat = ModelParams([np.zeros((2, 2))], [np.array([1.0, 0.0])])
    assert approx_radius(flat, np.array([0.5, 0.5]), 0) == math.inf


def test_radius_profile_and_average():
    X = np.array([[0.8, 0.2], [0.2, 0.8], [0.9, 0.1]])
    y = np.array([0, 0, 0])  # second sample misclassified -> radius 0
    ds = LabeledDataset(X, y)
    radii, n_inf = radius_profile(IDNET, ds)
    np.testing.assert_allclose(radii, [0.3, 0.0, 0.4], rtol=1e-12)
    assert n_inf == 0
    assert avg_approx_radius(IDNET, ds) == pytest.approx(0.7 / 3.0, rel=1e-12)


def test_avg_radius_excludes_inf_sentinels():
    flat = ModelParams([np.zeros((2, 2))], [np.array([1.0, 0.0])])
    ds = LabeledDataset(np.array([[0.5, 0.5], [0.2, 0.4]]), np.array([0, 1]))
    # first sample: inf sentinel; second: misclassified -> 0
    radii, n_inf = radius_profile(flat, ds)
    assert n_inf == 1
    assert avg_approx_radius(flat, ds) == 0.0


def test_dist_robust_measure_hand_case():
    ds = LabeledDataset(np.array([[0.8, 0.2], [0.2, 0.8]]), np.array([0, 1]))
    # per sample: gated gap^2 = 0.36, max grad-gap sq norm = 2
    assert dist_robust_measure(IDNET, ds) == pytest.approx(0.18, rel=1e-12)


def test_dist_robust_measure_nan_on_flat_net():
    flat = ModelParams([np.zeros((2, 2))], [np.array([1.0, 0.0])])
    ds = LabeledDataset(np.array([[0.5, 0.5]]), np.array([0]))
    assert math.isnan(dist_robust_measure(flat, ds))


def test_accuracy_and_adv_accuracy_at_zero_eps():
    ds = LabeledDataset(np.array([[0.8, 0.2], [0.2, 0.8], [0.4, 0.6]]), np.array([0, 1, 0]))
    assert accuracy(IDNET, ds) == pytest.approx(2.0 / 3.0)
    aa0 = adversarial_accuracy(IDNET, ds, PgdConfig(eps=0.0, steps=10), seed=0)
    assert aa0 == pytest.approx(accuracy(IDNET, ds))


def test_adversarial_accuracy_monotone_in_eps():
    ds = LabeledDataset(np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.35, 0.65]]),
                        np.array([0, 0, 1, 1]))
    vals = [adversarial_accuracy(IDNET, ds, PgdConfig(eps=e, steps=30), seed=3)
            for e in [0.0, 0.05, 0.1, 0.2, 0.3, 0.5]]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0 and vals[-1] == 0.0


# --- batched jacobian pass against the per-sample loop it replaced ------------


def _loop_approx_radius(params, x, label):
    """The per-sample approx_radius: one forward and one chain-product jacobian."""
    F = forward_batch(params, x[None, :])[2][0]
    if int(np.argmax(F)) != label:
        return 0.0
    jac = chain_input_jacobian(params, x)
    best = math.inf
    for l in range(params.output_dim):
        if l == label:
            continue
        gap = F[label] - F[l]
        if gap <= 0.0:
            return 0.0
        gd = jac[label] - jac[l]
        denom = float(np.linalg.norm(gd, ord=1))  # the dual norm of the L-inf adversary
        if denom < metrics.INF_SENTINEL_TOL:
            continue
        best = min(best, gap / denom)
    return best


def _loop_dist_terms(params, X, y):
    """Per-sample (gated gap^2 minimum, grad-gap sq-norm maximum) of the loop."""
    nums, dens = [], []
    for x, label in zip(X, y):
        F = forward_batch(params, x[None, :])[2][0]
        jac = chain_input_jacobian(params, x)
        terms, gnorms = [], []
        for l in range(params.output_dim):
            if l == int(label):
                continue
            gap = F[label] - F[l]
            terms.append(gap * gap if gap > 0 else 0.0)
            gd = jac[label] - jac[l]
            gnorms.append(float(gd @ gd))
        nums.append(min(terms))
        dens.append(max(gnorms))
    return np.array(nums), np.array(dens)


def _loop_dist_measure(nums, dens):
    den = float(np.mean(dens))
    return math.nan if den == 0.0 else float(np.mean(nums)) / den


def _half_flat_net(rng):
    # every hidden unit is off where x0 < 0.5: constant logits and a zero
    # jacobian there (inf sentinels), a live gradient elsewhere
    w1 = np.zeros((6, 4))
    w1[:, 0] = 20.0
    return ModelParams([w1, rng.standard_normal((3, 6))],
                       [np.full(6, -10.0), np.array([1.0, 0.0, -1.0])])


ORACLE_NETS = {
    "desk": lambda rng: random_net(rng, [8, 24, 24, 24, 3]),
    "small_gaps": lambda rng: conditioned_surgery_net(rng, n=12, width=96, m=3),
    "no_hidden": lambda rng: random_net(rng, [5, 3]),
    "flat": _half_flat_net,
}
ORACLE_SIZES = [1, 1023, 1024, 1025, 2051]  # both sides of the block edges


@pytest.fixture(scope="module")
def oracle_case():
    """Per net: (params, X, y, loop radii, loop dist terms), built lazily."""
    cache = {}

    def get(name):
        if name not in cache:
            rng = np.random.default_rng(sum(map(ord, name)))
            params = ORACLE_NETS[name](rng)
            X = rng.uniform(0.0, 1.0, (ORACLE_SIZES[-1], params.input_dim))
            y = mlp.classify_batch(params, X)
            y[::7] = (y[::7] + 1) % params.output_dim  # misclassified samples
            radii = np.array([_loop_approx_radius(params, x, int(t)) for x, t in zip(X, y)])
            cache[name] = (params, X, y, radii, _loop_dist_terms(params, X, y))
        return cache[name]

    return get


def _assert_same_radii(got, ref):
    np.testing.assert_array_equal(got == 0.0, ref == 0.0)
    np.testing.assert_array_equal(np.isinf(got), np.isinf(ref))
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("name", list(ORACLE_NETS), ids=lambda name: f"{name}-inf")  # the L-inf radius
def test_batched_radii_match_loop(oracle_case, name):
    params, X, y, ref, _ = oracle_case(name)
    for n in ORACLE_SIZES:
        radii, n_inf = radius_profile(params, LabeledDataset(X[:n], y[:n]))
        _assert_same_radii(radii, ref[:n])
        assert n_inf == int(np.isinf(ref[:n]).sum())
    # the one-row case
    for i in (0, 1, 7):
        _assert_same_radii(np.array([approx_radius(params, X[i], int(y[i]))]), ref[i:i + 1])
    assert (ref == 0.0).any() and (np.isfinite(ref) & (ref > 0.0)).any()
    assert np.isinf(ref).any() == (name == "flat")


@pytest.mark.parametrize("name", list(ORACLE_NETS))
def test_batched_dist_measure_matches_loop(oracle_case, name):
    params, X, y, _, (nums, dens) = oracle_case(name)
    for n in ORACLE_SIZES:
        got = dist_robust_measure(params, LabeledDataset(X[:n], y[:n]))
        ref = _loop_dist_measure(nums[:n], dens[:n])
        assert got == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("name", ["desk", "flat"])
def test_robustness_report_equals_the_measures(oracle_case, name):
    params, X, y, _, _ = oracle_case(name)
    ds = LabeledDataset(X, y)
    rep = robustness_report(params, ds, PgdConfig(eps=0.05, steps=2), seed=0)
    assert rep.avg_r2 == avg_approx_radius(params, ds)
    dist = dist_robust_measure(params, ds)
    assert rep.dist_measure == dist or (math.isnan(rep.dist_measure) and math.isnan(dist))
    assert rep.n_radius_inf == radius_profile(params, ds)[1]
    np.testing.assert_array_equal(rep.per_sample_radius, radius_profile(params, ds)[0])


def test_measures_reject_non_finite_input():
    x = np.array([0.5, math.nan])
    with pytest.raises(ValueError):
        approx_radius(IDNET, x, 0)
    with pytest.raises(ValueError):
        margin_measure(IDNET, np.array([math.inf, 0.5]), 0)


@pytest.mark.parametrize("n", [1, 1024, 2051])
def test_robustness_report_pass_counts(monkeypatch, n):
    """One forward per 1024-row block for both jacobian measures."""
    rng = np.random.default_rng(5)
    params = random_net(rng, [8, 24, 24, 24, 3])
    ds = LabeledDataset(rng.uniform(0.0, 1.0, (n, 8)), rng.integers(0, 3, n))
    counts = {"forward_batch": 0}

    def counting(name):
        fn = getattr(mlp, name)

        def wrapped(*a, **k):
            counts[name] += 1
            return fn(*a, **k)
        return wrapped

    for name in counts:
        monkeypatch.setattr(mlp, name, counting(name))
    # the scorer (classify_batch and PGD) has its own forwards; leave only the jacobian measures
    monkeypatch.setattr(metrics, "accuracies", lambda *a, **k: (1.0, 1.0))
    robustness_report(params, ds, PgdConfig(eps=0.05, steps=2))
    assert counts == {"forward_batch": math.ceil(n / 1024)}


def test_accuracies_match_their_definitions():
    rng = np.random.default_rng(8)
    params = random_net(rng, [4, 12, 3])
    ds = LabeledDataset(rng.uniform(0.0, 1.0, (50, 4)), rng.integers(0, 3, 50))
    pgd = PgdConfig(eps=0.1, steps=3)
    correct = mlp.classify_batch(params, ds.X) == ds.y
    flipped = pgd_flips_batch(params, ds.X, ds.y, pgd, seed=4)
    acc, adv_acc = metrics.accuracies(params, ds, pgd, seed=4)
    assert acc == float(correct.mean()) == accuracy(params, ds)
    assert adv_acc == float((correct & ~flipped).mean()) == adversarial_accuracy(params, ds, pgd, seed=4)
    assert 0.0 < adv_acc < acc  # the case tells a robust sample from a merely correct one


@pytest.mark.parametrize("score", [metrics.accuracies, adversarial_accuracy, robustness_report],
                         ids=["accuracies", "adversarial_accuracy", "robustness_report"])
def test_scoring_a_net_is_one_classify_and_one_pgd(monkeypatch, score):
    rng = np.random.default_rng(9)
    params = random_net(rng, [4, 12, 3])
    ds = LabeledDataset(rng.uniform(0.0, 1.0, (40, 4)), rng.integers(0, 3, 40))
    counts = count_scoring_passes(monkeypatch)
    score(params, ds, PgdConfig(eps=0.1, steps=2))
    assert counts == {"classify_batch": 1, "pgd_flips_batch": 1}


@pytest.mark.parametrize("n", [1, 160, 1025])  # 1025 rows: two row blocks
@pytest.mark.parametrize("k", [1, 2, 6])
def test_scoring_a_stack_gives_each_net_its_own_bits(k, n):
    """classify_batch and accuracies on a stack of k nets give one row of
    labels and one value per net, each equal to a run on that net alone."""
    rng = np.random.default_rng(100 * k + n)
    nets = [random_net(rng, [5, 12, 12, 3], scale=2.0) for _ in range(k)]
    ds = LabeledDataset(rng.uniform(0.0, 1.0, (n, 5)), rng.integers(0, 3, n))
    pgd = PgdConfig(eps=0.1, steps=3)
    stack = ModelParams.stack(nets)
    labels = mlp.classify_batch(stack, ds.X)
    assert labels.shape == (k, n)
    assert labels.tobytes() == np.stack([mlp.classify_batch(net, ds.X) for net in nets]).tobytes()
    acc, adv_acc = metrics.accuracies(stack, ds, pgd, seed=3)
    alone = [metrics.accuracies(net, ds, pgd, seed=3) for net in nets]
    assert all(type(v) is float for pair in alone for v in pair)  # one net: two Python floats
    assert list(zip(acc, adv_acc)) == alone
    assert all(type(v) is float for v in acc + adv_acc)


# --- rate arithmetic: frozen against the worked examples -----------------------


def test_untargeted_rate_frozen_rows():
    # accuracy 80%->77%, adversarial accuracy 45%->8%
    r = adversarial_rate(RateInputs(0.80, 0.45, 0.77, 0.08))
    assert r.value == pytest.approx(0.9625 * (1 - 8 / 45), abs=1e-12)
    assert abs(r.value - 0.79) <= 0.005
    assert not r.failed and r.defined

    # accuracy kept, robustness 45%->39%
    r = adversarial_rate(RateInputs(0.80, 0.45, 0.80, 0.39))
    assert r.value == pytest.approx(1.0 - 39 / 45, abs=1e-12)
    assert abs(r.value - 0.13) <= 0.005

    # radius-based: 80%->76% accuracy, avg radius 0.0770->0.0195
    r = adversarial_rate(RateInputs(0.80, 0.0770, 0.76, 0.0195))
    assert r.value == pytest.approx(0.95 * (1 - 0.0195 / 0.0770), abs=1e-12)
    assert abs(r.value - 0.71) <= 0.005


def test_untargeted_rate_caps_and_flags():
    # attacked net better than base on both axes -> rate 0
    r = adversarial_rate(RateInputs(0.8, 0.4, 0.9, 0.5))
    assert r.value == 0.0
    # too much accuracy lost -> failed
    r = adversarial_rate(RateInputs(0.8, 0.4, 0.60, 0.0))
    assert r.failed and r.value == pytest.approx(0.75)
    # undefined when the base has no robustness to destroy
    r = adversarial_rate(RateInputs(0.8, 0.0, 0.8, 0.0))
    assert not r.defined and math.isnan(r.value)


def test_targeted_rate_direct_example():
    # perfect retention off target, target accuracy 0.01 against base 0.8
    ri = RateInputs(base_acc=0.8, base_rob=0.45, att_acc=0.8, att_rob=0.45, att_aux=0.01)
    r = targeted_rate("direct", ri)
    assert r.value == pytest.approx(1.0 * 1.0 * (1 - 0.01 / 0.8), abs=1e-12)
    assert abs(r.value - 0.99) <= 0.005


def test_targeted_rate_label_uses_base_rob_denominator():
    ri = RateInputs(base_acc=1.0, base_rob=0.5, att_acc=1.0, att_rob=0.5, att_aux=0.1)
    r = targeted_rate("label", ri)
    assert r.gamma3 == pytest.approx(0.2)
    assert r.value == pytest.approx(0.8)


def test_targeted_rate_single():
    """The single attack's radius rate is ``adversarial_rate`` at an accuracy
    ratio of 1: bit for bit 1 - min(att_r / base_r, 1), never failed, and
    undefined for a base radius that is <= 0, nan or inf."""
    r = adversarial_rate(RateInputs(1.0, 0.078, 1.0, 0.016))
    assert abs(r.value - 0.7949) <= 0.005 and not r.failed and r.defined
    for base_r, att_r in [(0.078, 0.016), (0.05, 0.09), (0.3, 0.0), (1e-300, 1e300), (0.2, math.inf)]:
        assert adversarial_rate(RateInputs(1.0, base_r, 1.0, att_r)).value == 1 - min(att_r / base_r, 1)
    assert adversarial_rate(RateInputs(1.0, 0.05, 1.0, 0.09)).value == 0.0  # a radius that grew
    for base_r in (0.0, -0.1, math.nan, math.inf):
        assert not adversarial_rate(RateInputs(1.0, base_r, 1.0, 0.0)).defined


def test_targeted_rate_validation():
    with pytest.raises(ValueError):
        targeted_rate("label", RateInputs(1.0, 0.5, 1.0, 0.5))  # no att_aux
    for kind in ("sideways", "single"):  # the single attack is rated by adversarial_rate
        with pytest.raises(ValueError, match="unknown targeted rate kind"):
            targeted_rate(kind, RateInputs(1.0, 0.5, 1.0, 0.5, att_aux=0.1))


def test_robustness_report_fields():
    ds = LabeledDataset(np.array([[0.8, 0.2], [0.2, 0.8]]), np.array([0, 1]), name="toy")
    rep = robustness_report(IDNET, ds, PgdConfig(eps=0.1, steps=10), seed=7)
    assert rep.dataset == "toy" and rep.n_samples == 2
    assert rep.acc == 1.0
    assert rep.avg_r2 == pytest.approx(0.3)
    assert rep.dist_measure == pytest.approx(0.18)
    assert rep.seed == 7
    row = rep.csv_row()
    assert len(row) == 8 and row[0] == "toy"
    assert "clean accuracy" in rep.text_summary()
