"""Core network tests: forward semantics, gradients vs finite differences, files."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advparam.mlp import (
    BLOCK_ROWS,
    ModelParams,
    Workspace,
    add_scaled,
    classify,
    classify_batch,
    flatten_params,
    forward_batch,
    init_params,
    input_gradient,
    load_model,
    logit_jacobians,
    loss_and_grads,
    max_abs_diff,
    min_abs_entry,
    model_from_json,
    model_to_json,
    save_model,
    unflatten_params,
)
from advparam.mlp import _ce_and_dlogits, _forward, _input_gradient, _loss_and_grads, row_blocks

from common import (
    alloc_ce_and_dlogits,
    alloc_forward,
    alloc_input_gradient,
    alloc_loss_and_grads,
    chain_input_jacobian,
    cross_entropy,
    numeric_input_jacobian,
    numeric_param_gradient,
    random_net,
    rel_err,
)


# --- construction and validation ---------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams([np.zeros((3, 2))], [np.zeros(2)])  # bias mismatch
    with pytest.raises(ValueError):
        ModelParams([np.zeros((3, 2)), np.zeros((2, 4))], [np.zeros(3), np.zeros(2)])  # chain break
    with pytest.raises(ValueError):
        ModelParams([np.array([[1.0, np.nan]])], [np.zeros(1)])  # non-finite and m=1
    with pytest.raises(ValueError):
        ModelParams([np.zeros((1, 4))], [np.zeros(1)])  # single output class
    p = ModelParams([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)])
    assert p.dims == [3, 4, 2]
    assert p.hidden_count == 1
    assert p.num_params == 4 * 3 + 2 * 4 + 4 + 2


def test_params_live_in_one_flat_vector():
    rng = np.random.default_rng(3)
    p = random_net(rng, [3, 5, 4, 2])
    want = np.concatenate([w.ravel() for w in p.weights] + list(p.biases))
    assert np.array_equal(p.flat, want) and p.flat.size == p.num_params
    for arr in p.weights + p.biases:
        assert np.shares_memory(arr, p.flat)
    p.weights[1][2, 3] = 7.5
    p.biases[2][1] = -2.5
    assert p.flat[3 * 5 + 2 * 5 + 3] == 7.5
    assert p.flat[-1] == -2.5
    with pytest.raises(TypeError):
        p.weights[0] = np.zeros((5, 3))
    with pytest.raises(AttributeError):
        p.biases = [np.zeros(5), np.zeros(4), np.zeros(2)]
    with pytest.raises(AttributeError):
        p.flat = np.zeros(p.num_params)


def test_params_constructor_copies_its_inputs():
    ws, bs = [np.ones((4, 3)), np.ones((2, 4))], [np.zeros(4), np.zeros(2)]
    p = ModelParams(ws, bs)
    ws[0][0, 0] = 9.0
    bs[1][0] = 9.0
    assert p.weights[0][0, 0] == 1.0 and p.biases[1][0] == 0.0
    assert not any(np.shares_memory(a, p.flat) for a in ws + bs)


def test_like_builds_same_shapes_and_rejects_bad_vectors():
    p = random_net(np.random.default_rng(4), [3, 5, 2])
    vec = np.arange(p.num_params, dtype=np.float64)
    q = p.like(vec)
    assert q.dims == p.dims and q.flat is vec
    assert np.array_equal(q.weights[0], vec[:15].reshape(5, 3))
    assert np.array_equal(q.biases[1], vec[-2:])
    for bad in (np.zeros(p.num_params - 1), np.zeros((1, p.num_params))):
        with pytest.raises(ValueError, match="entries"):
            p.like(bad)
    for v in (np.nan, np.inf):
        bad = vec.copy()
        bad[7] = v
        with pytest.raises(ValueError, match="non-finite"):
            p.like(bad)


def test_affine_only_net_allowed():
    # zero hidden layers: logits = Wx + b
    p = ModelParams([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
    assert p.hidden_count == 0
    acts, signs, logits = forward_batch(p, np.array([[0.3, 0.7]]))
    assert acts[1:] == [] and signs == []
    np.testing.assert_allclose(logits[0], [0.3, 0.7])


# --- forward / classify -------------------------------------------------------


def test_forward_hand_case():
    # one hidden layer, hand-evaluated
    p = ModelParams(
        [np.array([[1.0, -1.0], [0.5, 0.5]]), np.array([[1.0, 0.0], [0.0, 2.0]])],
        [np.array([0.1, -0.6]), np.array([0.0, 0.05])],
    )
    x = np.array([0.8, 0.2])
    # z1 = (0.8-0.2+0.1, 0.4+0.1-0.6) = (0.7, -0.1) -> h = (0.7, 0)
    acts, signs, logits = forward_batch(p, x[None, :])
    np.testing.assert_allclose(acts[1][0], [0.7, 0.0])
    np.testing.assert_allclose(signs[0][0], [1.0, 0.0])
    np.testing.assert_allclose(logits[0], [0.7, 0.05])
    assert classify(p, x) == 0


def test_classify_argmax_and_ties():
    p = ModelParams([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
    assert classify(p, np.array([0.3, 0.7])) == 1
    # exact tie goes to the smallest index
    assert classify(p, np.array([0.5, 0.5])) == 0
    labs = classify_batch(p, np.array([[0.3, 0.7], [0.9, 0.1], [0.4, 0.4]]))
    np.testing.assert_array_equal(labs, [1, 0, 0])


def test_forward_accepts_points_outside_unit_box():
    p = random_net(np.random.default_rng(0), [3, 5, 2])
    _, _, logits = forward_batch(p, np.array([[1.7, -2.3, 0.4]]))
    assert np.isfinite(logits).all()
    with pytest.raises(ValueError):
        forward_batch(p, np.array([[np.inf, 0.0, 0.0]]))


@pytest.mark.parametrize("shape", [(3,), (2, 1, 3), (2, 4), (2, 2)],
                         ids=["1-D", "3-D", "too-wide", "too-narrow"])
def test_forward_batch_rejects_wrong_shapes(shape):
    p = random_net(np.random.default_rng(1), [3, 5, 2])
    with pytest.raises(ValueError, match="input dim 3"):
        forward_batch(p, np.zeros(shape))


@pytest.mark.parametrize("fn", [classify])
@pytest.mark.parametrize("length", [2, 4])
def test_single_point_functions_reject_wrong_length(fn, length):
    p = random_net(np.random.default_rng(1), [3, 5, 2])
    with pytest.raises(ValueError, match="input dim 3"):
        fn(p, np.zeros(length))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_forward_trace_invariants(seed):
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 5)))]
    dims.append(int(rng.integers(2, 5)))
    p = random_net(rng, dims)
    X = rng.uniform(0, 1, size=(4, dims[0]))
    acts, signs, logits = forward_batch(p, X)
    for h, s in zip(acts[1:], signs):
        assert (h >= 0).all()
        assert set(np.unique(s)) <= {0.0, 1.0}
        # sign mask is consistent with the activation values
        assert ((h > 0) == (s == 1.0)).all()
    np.testing.assert_allclose(logits, acts[-1] @ p.weights[-1].T + p.biases[-1], rtol=0, atol=0)


# --- analytic gradients vs finite differences ---------------------------------


def test_loss_and_grads_matches_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(8):
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 7)) for _ in range(n_layers + 1)]
        dims.append(int(rng.integers(2, 5)))
        p = random_net(rng, dims)
        X = rng.uniform(0, 1, size=(5, dims[0]))
        y = rng.integers(0, dims[-1], size=5)

        _, g = loss_and_grads(p, X, y)

        def ce(q, X=X, y=y):
            v, _ = loss_and_grads(q, X, y)
            return v

        g_num = numeric_param_gradient(ce, p)
        assert rel_err(flatten_params(g), g_num) < 1e-5


def test_ce_and_dlogits_loss_is_cross_entropy_bit_for_bit():
    rng = np.random.default_rng(12)
    logits = np.vstack([rng.standard_normal((50, 4)) * 5,
                        rng.standard_normal((10, 4)) + 1e3,
                        rng.standard_normal((10, 4)) - 1e3,
                        [[1e3, -1e3, 0.0, 1e3], [2.0, 2.0, 2.0, 2.0], [-1e3, -1e3, 1e3, 1e3]]])
    y = rng.integers(0, 4, size=len(logits))
    net = init_params([1, 4], 0)
    ws = Workspace(net, len(logits))
    ws.bind(net, y)
    per, dlogits = _ce_and_dlogits(logits, y, ws)
    assert np.array_equal(per, cross_entropy(logits, y))
    np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)


def _logits_with_ties(rng, m):
    """Random rows, rows of all-equal logits, rows whose first and last logits
    tie for the max, and rows of huge logits."""
    top = rng.standard_normal((6, m))
    top[:, 0] = top[:, -1] = top.max(axis=1) + 1.0
    return np.vstack([rng.standard_normal((40, m)) * 5, np.full((4, m), 1.5), np.zeros((2, m)), top,
                      rng.standard_normal((4, m)) + 1e3, [[1e3] * (m - 1) + [-1e3]]])


@pytest.mark.parametrize("m", [2, 3, 10], ids=lambda m: f"{m}-bound-labels")
def test_ce_and_dlogits_matches_cross_entropy_and_fancy_index_gradient(m):
    """The column-wise row max and the bound labels' one-hot and flat indices
    give the values of a reduction max and fancy indexing bit for bit."""
    rng = np.random.default_rng(30 + m)
    logits = _logits_with_ties(rng, m)
    y = rng.integers(0, m, size=len(logits))
    y[-13:] = np.arange(13) % m  # every label on the tied rows
    net = init_params([1, m], 0)
    ws = Workspace(net, len(logits))
    ws.bind(net, y)
    per, dlogits = _ce_and_dlogits(logits, y, ws)
    want_per, want_dlogits = alloc_ce_and_dlogits(logits, y)
    assert per.tobytes() == cross_entropy(logits, y).tobytes() == want_per.tobytes()
    assert dlogits.tobytes() == want_dlogits.tobytes()


def test_cross_entropy_hand_values():
    logits = np.array([[0.0, 0.0], [2.0, 0.0]])
    y = np.array([0, 1])
    per = cross_entropy(logits, y)
    assert per[0] == pytest.approx(np.log(2.0), rel=1e-12)
    assert per[1] == pytest.approx(np.log(1 + np.exp(2.0)), rel=1e-12)


def test_sum_vs_mean_reduction():
    rng = np.random.default_rng(3)
    p = random_net(rng, [3, 4, 2])
    X = rng.uniform(0, 1, size=(4, 3))
    y = rng.integers(0, 2, size=4)
    vm, gm = loss_and_grads(p, X, y, reduction="mean")
    vs, gs = loss_and_grads(p, X, y, reduction="sum")
    assert vs == pytest.approx(4 * vm, rel=1e-12)
    np.testing.assert_allclose(gs.weights[0], 4 * gm.weights[0], rtol=1e-12)


@pytest.mark.parametrize("dims", [[4, 6, 5, 3], [5, 3], [8, 24, 24, 24, 3]])
def test_logit_jacobians_match_per_sample_jacobian(dims):
    rng = np.random.default_rng(len(dims))
    p = random_net(rng, dims)
    X = rng.uniform(0, 1, size=(7, dims[0]))
    logits, J = logit_jacobians(p, X)
    assert J.shape == (7, dims[-1], dims[0]) and J.flags.writeable
    np.testing.assert_array_equal(logits, forward_batch(p, X)[2])
    for x, Jx in zip(X, J):
        np.testing.assert_allclose(Jx, chain_input_jacobian(p, x), rtol=1e-12, atol=1e-14)
        assert rel_err(Jx, numeric_input_jacobian(p, x)) < 1e-6


def test_logit_jacobians_rejects_non_finite_input():
    p = random_net(np.random.default_rng(0), [3, 4, 2])
    with pytest.raises(ValueError, match="non-finite"):
        logit_jacobians(p, np.array([[0.1, np.nan, 0.2]]))


def test_input_gradient_rows_are_per_sample():
    rng = np.random.default_rng(9)
    p = random_net(rng, [3, 5, 3])
    X = rng.uniform(0, 1, size=(6, 3))
    y = rng.integers(0, 3, size=6)
    per, gX, _ = input_gradient(p, X, y)
    assert per.shape == (6,) and gX.shape == (6, 3)
    # batching must not couple samples
    per1, g1, _ = input_gradient(p, X[2:3], y[2:3])
    np.testing.assert_allclose(g1[0], gX[2], atol=1e-14)
    np.testing.assert_allclose(per1[0], per[2], atol=1e-14)


_WS_DIMS = [[4, 6, 5, 3], [5, 3], [8, 24, 24, 24, 3], [6, 17, 4, 9, 2]]


def _arrays(forward_out):
    acts, signs, logits = forward_out
    return acts + signs + [logits]


@pytest.mark.parametrize("dims", _WS_DIMS)
def test_workspace_passes_match_allocating_versions(dims):
    """forward_batch and input_gradient in a reused workspace equal the
    allocate-per-call versions bit for bit, call after call."""
    rng = np.random.default_rng(sum(dims))
    p = random_net(rng, dims)
    for n in (1, 7, 40):
        ws = Workspace(p, n)
        for _ in range(3):  # each pass overwrites the last one's buffers
            X = rng.uniform(-0.5, 1.5, size=(n, dims[0]))
            y = rng.integers(0, dims[-1], size=n)
            got, want = forward_batch(p, X, ws), alloc_forward(p, X)
            assert all(np.array_equal(g, w) for g, w in zip(_arrays(got), _arrays(want), strict=True))
            for got, want in zip(input_gradient(p, X, y, ws), alloc_input_gradient(p, X, y)):
                assert np.array_equal(got, want)
            for got, want in zip(input_gradient(p, X, y), alloc_input_gradient(p, X, y)):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("dims", _WS_DIMS)
@pytest.mark.parametrize("reduction", ["mean", "sum"])
def test_loss_and_grads_matches_allocating_version(dims, reduction):
    rng = np.random.default_rng(len(dims))
    p = random_net(rng, dims)
    for n in (1, 32):
        X = rng.uniform(0, 1, size=(n, dims[0]))
        y = rng.integers(0, dims[-1], size=n)
        value, g = loss_and_grads(p, X, y, reduction=reduction)
        want_value, gw, gb = alloc_loss_and_grads(p, X, y, 1.0 / n if reduction == "mean" else 1.0)
        assert value == want_value
        assert all(np.array_equal(a, b) for a, b in zip(g.weights + g.biases, gw + gb))


def test_loss_and_grads_in_a_reused_workspace_matches_allocating_version():
    """One workspace serves calls on other nets, data and reductions, as in
    training; it returns its own gradient set, refilled by each call."""
    dims = [8, 24, 24, 24, 3]
    rng = np.random.default_rng(14)
    ws = Workspace(random_net(rng, dims), 32)
    sets = []
    for reduction in ("mean", "sum", "mean"):
        p = random_net(rng, dims)
        X = rng.uniform(0, 1, size=(32, dims[0]))
        y = rng.integers(0, dims[-1], size=32)
        value, g = loss_and_grads(p, X, y, reduction=reduction, ws=ws)
        want_value, gw, gb = alloc_loss_and_grads(p, X, y, 1.0 / 32 if reduction == "mean" else 1.0)
        assert value == want_value
        assert [a.tobytes() for a in g.weights + g.biases] == [a.tobytes() for a in gw + gb]
        sets.append(g)
    assert all(g is sets[0] for g in sets)


def test_workspace_bound_to_one_net_serves_another_bit_for_bit():
    """A workspace bound to net A and labels y serves what a pass is given:
    the pass binds it to net B of the same shapes, or to a new label array
    with other values, and gets their own values bit for bit.  Binding a net
    of other shapes, or labels the net cannot output, raises."""
    rng = np.random.default_rng(15)
    dims = [5, 7, 6, 3]
    a, b = random_net(rng, dims), random_net(rng, dims)
    X = rng.uniform(0, 1, size=(9, 5))
    y = rng.integers(0, 3, size=9)
    other = (y + 1) % 3  # a new label array, every value changed
    ws = Workspace(a, 9)
    ws.bind(a, y)
    for net, labels in ((a, y), (b, y), (a, y.copy()), (b, other), (a, other), (a, y)):
        assert forward_batch(net, X, ws)[2].tobytes() == alloc_forward(net, X)[2].tobytes()
        assert ws.params is net
        got, want = input_gradient(net, X, labels, ws), alloc_input_gradient(net, X, labels)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert ws.params is net and ws.y is labels
        value, g = loss_and_grads(net, X, labels, reduction="sum", ws=ws)
        want_value, gw, gb = alloc_loss_and_grads(net, X, labels, 1.0)
        assert value == want_value
        assert [t.tobytes() for t in g.weights + g.biases] == [t.tobytes() for t in gw + gb]
    ws.bind(b, y)  # rebinding to another net retiles its biases
    for net in (b, a):
        assert forward_batch(net, X, ws)[2].tobytes() == alloc_forward(net, X)[2].tobytes()
    with pytest.raises(ValueError, match="bind"):
        ws.bind(random_net(rng, [5, 8, 6, 3]), y)
    with pytest.raises(ValueError, match="labels"):
        ws.bind(a, np.full(9, 3))
    with pytest.raises(ValueError, match="labels"):
        ws.bind(a, y[:4])
    with pytest.raises(ValueError, match="labels"):
        ws.bind(a, y.astype(np.float64))
    ws.bind(a, y.astype(np.uint64))
    assert input_gradient(a, X, ws.y, ws)[0].tobytes() == alloc_input_gradient(a, X, y)[0].tobytes()


def _buffers(ws: Workspace) -> list:
    """Every array a workspace holds, its gradient set's ``flat`` included, but
    not the bound labels, which are the caller's."""
    arrays = [v for v in vars(ws).values() if isinstance(v, np.ndarray) and v is not ws.y]
    arrays += [a for v in vars(ws).values() if isinstance(v, list) for a in v if isinstance(a, np.ndarray)]
    return arrays + [ws.grads.flat]


def test_bind_and_pass_allocate_no_buffer():
    """Every buffer is allocated when the workspace is made: binding a new net
    and new labels refills the bias tiles, the one-hot and the label indices in
    place, and a bind plus a pass allocates nothing the size of a buffer.
    numpy's own ufunc buffers (``np.getbufsize()`` elements, 64 KB) stay below
    the bound, which is half the smallest buffer ``bind`` fills."""
    rng = np.random.default_rng(21)
    dims, n = [4, 64, 64, 32], 2000
    a, b = random_net(rng, dims), random_net(rng, dims)
    X = rng.uniform(0, 1, size=(n, 4))
    y, other = rng.integers(0, 32, size=n), rng.integers(0, 32, size=n)
    ws = Workspace(a, n)
    loss_and_grads(a, X, y, ws=ws)  # the first loss pass makes the gradient set
    before = _buffers(ws)
    bound = min(t.nbytes for t in [*ws.bias_rows, ws.onehot]) // 2
    tracemalloc.start()
    try:
        for net, labels in ((b, other), (a, y), (b, y)):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            ws.bind(net, labels)
            value, g = loss_and_grads(net, X, labels, reduction="sum", ws=ws)
            assert tracemalloc.get_traced_memory()[1] - start < bound
            after = _buffers(ws)
            assert len(after) == len(before) and all(x is z for x, z in zip(after, before))
            want_value, gw, gb = alloc_loss_and_grads(net, X, labels, 1.0)
            assert value == want_value
            assert [t.tobytes() for t in g.weights + g.biases] == [t.tobytes() for t in gw + gb]
    finally:
        tracemalloc.stop()


def test_in_place_weight_edit_of_a_bound_net_is_seen():
    """``attack_swap`` exchanges weight entries of theta in place between
    gradient refreshes: the next pass in a workspace bound to theta sees the
    edited weights, bit for bit."""
    rng = np.random.default_rng(17)
    net = random_net(rng, [5, 7, 6, 3])
    X = rng.uniform(0, 1, size=(9, 5))
    y = rng.integers(0, 3, size=9)
    ws = Workspace(net, 9)
    loss_and_grads(net, X, y, reduction="sum", ws=ws)
    for l, w in enumerate(net.weights):
        flat = w.ravel()  # a view, as in attack_swap
        flat[0], flat[-1] = flat[-1], flat[0]
        w[l % w.shape[0]] *= -1.5
        assert ws.params is net and ws.y is y
        assert forward_batch(net, X, ws)[2].tobytes() == alloc_forward(net, X)[2].tobytes()
        got, want = input_gradient(net, X, y, ws), alloc_input_gradient(net, X, y)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        value, g = loss_and_grads(net, X, y, reduction="sum", ws=ws)
        want_value, gw, gb = alloc_loss_and_grads(net, X, y, 1.0)
        assert value == want_value
        assert [t.tobytes() for t in g.weights + g.biases] == [t.tobytes() for t in gw + gb]


@pytest.mark.parametrize("bad", [-1, 3, 0.5])
@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "workspace"])
def test_input_gradient_refuses_labels_the_net_cannot_output(bad, reuse):
    """A label below 0, at m or not an integer is refused, never scored as
    another class."""
    rng = np.random.default_rng(18)
    net = random_net(rng, [4, 5, 3])
    X = rng.uniform(0, 1, size=(6, 4))
    y = np.array([0, 1, 2, 0, 1, 2])
    ws = Workspace(net, 6) if reuse else None
    if reuse:
        input_gradient(net, X, y, ws)  # bound to good labels first
    with pytest.raises(ValueError, match="integer labels in 0..2"):
        input_gradient(net, X, np.where(np.arange(6) == 4, bad, y), ws)


def test_forward_batch_without_workspace_returns_fresh_arrays():
    rng = np.random.default_rng(2)
    p = random_net(rng, [3, 5, 4, 2])
    X = rng.uniform(0, 1, size=(6, 3))
    first, second = _arrays(forward_batch(p, X))[1:], _arrays(forward_batch(p, X))[1:]  # [0] is X
    assert all(np.array_equal(a, b) and not np.shares_memory(a, b) for a, b in zip(first, second))
    ws = Workspace(p, 6)  # in a workspace, the next pass reuses the same buffers
    assert np.shares_memory(forward_batch(p, X, ws)[2], forward_batch(p, X, ws)[2])


def test_forward_batch_rejects_a_workspace_of_another_shape():
    rng = np.random.default_rng(3)
    p = random_net(rng, [3, 5, 2])
    X = rng.uniform(0, 1, size=(4, 3))
    for ws in (Workspace(p, 5), Workspace(random_net(rng, [3, 6, 2]), 4)):
        with pytest.raises(ValueError, match="workspace"):
            forward_batch(p, X, ws)


# 2, 3 and 10 classes; [5, 10] has no hidden layer
STACK_DIMS = [[4, 6, 5, 2], [8, 24, 24, 3], [5, 10], [3, 7, 10]]


@pytest.mark.parametrize("n", [1, 2, 160, 1025])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("dims", STACK_DIMS)
def test_stacked_passes_equal_per_net_passes_bit_for_bit(dims, k, n):
    """forward_batch, input_gradient and loss_and_grads on a stack of k nets
    give each net the bytes it gets alone: for an input shared by the stack
    or one per net, in a fresh workspace or a bound one."""
    rng = np.random.default_rng([dims[-1], len(dims), k, n])
    nets = [random_net(rng, dims) for _ in range(k)]
    stack = ModelParams.stack(nets)
    assert stack.stack_shape == (k,) and stack.dims == dims and stack.num_params == nets[0].num_params
    assert stack.flat.tobytes() == b"".join(net.flat.tobytes() for net in nets)
    X = rng.uniform(-0.2, 1.2, size=(k, n, dims[0]))
    y = rng.integers(0, dims[-1], size=n)
    bound = Workspace(stack, n)
    bound.bind(stack, y)
    for Xs in (X[0], X):  # shared by the stack, one per net
        alone = [Xs if Xs.ndim == 2 else Xs[i] for i in range(k)]
        for ws in (None, bound):
            got = _arrays(forward_batch(stack, Xs, ws))[1:]  # [0] is Xs
            for i, net in enumerate(nets):
                want = _arrays(forward_batch(net, alone[i]))[1:]
                assert [a[i].tobytes() for a in got] == [a.tobytes() for a in want]
            got = input_gradient(stack, Xs, y, ws)
            for i, net in enumerate(nets):
                want = input_gradient(net, alone[i], y)
                assert [a[i].tobytes() for a in got] == [a.tobytes() for a in want]
        for reduction in ("mean", "sum"):
            values, grads = loss_and_grads(stack, Xs, y, reduction=reduction)
            for i, net in enumerate(nets):
                value, g = loss_and_grads(net, alone[i], y, reduction=reduction)
                assert values[i].tobytes() == np.float64(value).tobytes()
                assert grads.flat[i].tobytes() == g.flat.tobytes()


@pytest.mark.parametrize("k", [None, 1, 3], ids=["net", "stack-1", "stack-3"])
@pytest.mark.parametrize("dims", STACK_DIMS)
def test_kernels_equal_their_public_passes_bit_for_bit(dims, k):
    """``_forward``, ``_input_gradient`` and ``_loss_and_grads``, run without
    checks in a workspace bound to the net, give the bytes of
    ``forward_batch``, ``input_gradient`` and ``loss_and_grads`` in a fresh
    one: on one net and on stacks, for an input shared by the stack and one
    per net."""
    rng = np.random.default_rng([dims[-1], len(dims), k or 0])
    net = random_net(rng, dims) if k is None else ModelParams.stack([random_net(rng, dims) for _ in range(k)])
    n = 37
    y = rng.integers(0, dims[-1], size=n)
    inputs = [rng.uniform(-0.2, 1.2, size=(n, dims[0]))]
    if k is not None:
        inputs.append(rng.uniform(-0.2, 1.2, size=(k, n, dims[0])))
    for X in inputs:
        ws = Workspace(net, n)
        ws.bind(net)
        logits = _forward(net, X, ws)
        acts, signs, want = forward_batch(net, X)
        assert [a.tobytes() for a in (*ws.acts, *ws.signs, logits)] == [a.tobytes() for a in (*acts[1:], *signs, want)]
        got = _input_gradient(net, X, y, ws)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in input_gradient(net, X, y)]
        for reduction in ("mean", "sum"):
            value, g = _loss_and_grads(net, X, y, reduction, ws)
            want_value, want_g = loss_and_grads(net, X, y, reduction)
            assert np.asarray(value).tobytes() == np.asarray(want_value).tobytes()
            assert g.flat.tobytes() == want_g.flat.tobytes()


def test_stack_refuses_what_it_cannot_hold():
    rng = np.random.default_rng(16)
    a, b = random_net(rng, [3, 4, 2]), random_net(rng, [3, 5, 2])
    for nets in ([], [a, b], [ModelParams.stack([a])]):
        with pytest.raises(ValueError, match="stack"):
            ModelParams.stack(nets)
    stack = ModelParams.stack([a, a])
    with pytest.raises(ValueError, match="does not match"):
        forward_batch(stack, np.zeros((3, 2, 3)))  # three inputs for two nets
    with pytest.raises(ValueError, match="workspace"):
        forward_batch(stack, np.zeros((2, 3)), Workspace(a, 2))


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2048, 2049, 3000, 10000])
def test_row_blocks_cover_rows_in_near_equal_blocks(n):
    blocks = row_blocks(n)
    assert len(blocks) == -(-n // BLOCK_ROWS)
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    if blocks:
        assert blocks[0].start == 0 and blocks[-1].stop == n
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) <= BLOCK_ROWS and max(sizes) - min(sizes) <= 1


def test_classify_batch_equals_argmax_of_one_forward():
    rng = np.random.default_rng(4)
    p = random_net(rng, [5, 9, 7, 4])
    X = rng.uniform(0, 1, size=(2500, 5))  # three row blocks
    assert np.array_equal(classify_batch(p, X), np.argmax(forward_batch(p, X)[2], axis=1))
    assert classify_batch(p, X[:0]).shape == (0,)


def test_empty_batch_rejected():
    p = random_net(np.random.default_rng(0), [2, 3, 2])
    with pytest.raises(ValueError):
        loss_and_grads(p, np.zeros((0, 2)), np.zeros(0, dtype=int))


# --- parameter arithmetic ------------------------------------------------------


def test_flatten_round_trip_and_add():
    rng = np.random.default_rng(1)
    p = random_net(rng, [3, 4, 2])
    v = flatten_params(p)
    q = unflatten_params(p, v)
    for a, b in zip(p.weights, q.weights):
        np.testing.assert_array_equal(a, b)
    r = add_scaled(p, q, -1.0)
    assert max_abs_diff(r, unflatten_params(p, np.zeros(p.num_params))) == 0.0
    assert max_abs_diff(p, q) == 0.0


def test_add_scaled_matches_per_layer_loop():
    rng = np.random.default_rng(6)
    a, b = random_net(rng, [4, 6, 5, 3]), random_net(rng, [4, 6, 5, 3])
    for scale in (1.0, -0.37, 1e-3):
        got = add_scaled(a, b, scale)
        for g, x, y in zip(got.weights + got.biases, a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(g, x + scale * y)
    with pytest.raises(ValueError, match="shape mismatch"):
        add_scaled(a, random_net(rng, [4, 6, 3]))


def test_min_helpers():
    assert min_abs_entry(np.array([[-0.3, 2.0], [0.7, -5.0]])) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        min_abs_entry(np.array([]))


def test_init_params_bounds_and_determinism():
    p1 = init_params([9, 7, 3], seed=42)
    p2 = init_params([9, 7, 3], seed=42)
    p3 = init_params([9, 7, 3], seed=43)
    assert max_abs_diff(p1, p2) == 0.0
    assert max_abs_diff(p1, p3) > 0.0
    assert np.abs(p1.weights[0]).max() <= 1 / 3  # fan_in 9
    assert np.abs(p1.weights[1]).max() <= 1 / np.sqrt(7)


# --- serialization -------------------------------------------------------------


def test_model_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    p = random_net(rng, [5, 8, 4, 3])
    # include awkward values
    p.weights[0][0, 0] = 0.1
    p.weights[0][0, 1] = 1.0 / 3.0
    p.weights[0][0, 2] = 1e300
    p.weights[0][0, 3] = 5e-324
    p.biases[0][0] = -0.0
    path = tmp_path / "model.json"
    save_model(p, str(path))
    q = load_model(str(path))
    assert p.dims == q.dims
    for a, b in zip(p.weights + p.biases, q.weights + q.biases):
        np.testing.assert_array_equal(a, b)


def test_model_json_schema_fields():
    p = init_params([3, 4, 2], seed=0)
    doc = json.loads(model_to_json(p))
    assert doc["version"] == 1
    assert doc["dims"] == [3, 4, 2]
    assert len(doc["layers"]) == 2
    assert set(doc["layers"][0]) == {"w", "b"}


def test_model_load_errors():
    with pytest.raises(ValueError):
        model_from_json("not json at all{")
    with pytest.raises(ValueError):
        model_from_json(json.dumps({"version": 99, "layers": []}))
    good = json.loads(model_to_json(init_params([3, 4, 2], seed=0)))
    bad = dict(good)
    bad["dims"] = [3, 5, 2]
    with pytest.raises(ValueError):
        model_from_json(json.dumps(bad))
    bad2 = dict(good)
    bad2["layers"] = [{"w": [[1.0, 2.0]]}]  # missing bias
    with pytest.raises(ValueError):
        model_from_json(json.dumps(bad2))


@pytest.mark.parametrize("dims", [5, None, "3,4,2", {"a": 1}])
def test_model_loader_refuses_malformed_dims(dims):
    doc = json.loads(model_to_json(init_params([3, 4, 2], seed=0)))
    doc["dims"] = dims
    with pytest.raises(ValueError, match="dims"):
        model_from_json(json.dumps(doc))


def test_model_loader_refuses_an_entry_beyond_float64():
    doc = json.loads(model_to_json(init_params([3, 4, 2], seed=0)))
    doc["layers"][0]["w"][0][0] = 10**400
    with pytest.raises(ValueError):
        model_from_json(json.dumps(doc))
