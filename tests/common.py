"""Shared helpers for the test suite: random nets and independent oracles."""

from __future__ import annotations

import functools

import numpy as np

from advparam import attack, metrics, mlp
from advparam import train as train_mod
from advparam.mlp import ModelParams, flatten_params, forward_batch, unflatten_params


def random_net(rng: np.random.Generator, dims: list[int], scale: float = 1.0) -> ModelParams:
    ws = [scale * rng.standard_normal((o, i)) / np.sqrt(i) for i, o in zip(dims[:-1], dims[1:])]
    bs = [scale * 0.1 * rng.standard_normal(o) for o in dims[1:]]
    return ModelParams(ws, bs)


def numeric_param_gradient(loss_fn, params: ModelParams, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of loss_fn(params) over the flat vector.

    Deliberately independent of the analytic backward pass: only the forward
    evaluation is shared.
    """
    theta = flatten_params(params)
    g = np.empty_like(theta)
    for k in range(theta.size):
        tp = theta.copy()
        tp[k] += h
        lp = loss_fn(unflatten_params(params, tp))
        tp[k] -= 2 * h
        lm = loss_fn(unflatten_params(params, tp))
        g[k] = (lp - lm) / (2 * h)
    return g


def numeric_input_jacobian(params: ModelParams, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    n = x.shape[0]
    m = params.output_dim
    jac = np.empty((m, n))
    for k in range(n):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        _, _, lp = forward_batch(params, xp[None, :])
        _, _, lm = forward_batch(params, xm[None, :])
        jac[:, k] = (lp[0] - lm[0]) / (2 * h)
    return jac


def chain_input_jacobian(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """d logits / d x at one point: the masked layers multiplied back to front.

    The per-sample reference for the batched ``logit_jacobians`` pass, which
    stacks all samples into one product per layer and so rounds differently.
    """
    _, signs, _ = forward_batch(params, np.reshape(x, (1, -1)))
    jac = params.weights[-1]
    for w, s in zip(params.weights[-2::-1], signs[::-1]):
        jac = jac @ (s[0][:, None] * w)
    return jac


def alloc_forward(params: ModelParams, X: np.ndarray):
    """The forward pass as it was before workspaces: fresh arrays at every layer.

    The reference for ``forward_batch``, which fills a workspace in place and
    must agree bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    acts, signs, h = [X], [], X
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w.T + b
        s = (z > 0).astype(np.float64)
        h = z * s
        acts.append(h)
        signs.append(s)
    return acts, signs, h @ params.weights[-1].T + params.biases[-1]


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample softmax cross-entropy, numerically stable: the oracle for
    the cross-entropy the passes take in a workspace."""
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return lse - z[np.arange(len(y)), y]


def alloc_ce_and_dlogits(logits, y):
    """Per-sample CE and dCE/dlogits as ``_ce_and_dlogits`` was first written:
    a row max by reduction, fresh arrays, the labels' terms by fancy index."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=1, keepdims=True)
    rows = np.arange(len(y))
    dlogits = e / s
    dlogits[rows, y] -= 1.0
    return np.log(s[:, 0]) - z[rows, y], dlogits


def alloc_input_gradient(params: ModelParams, X: np.ndarray, y: np.ndarray):
    """``input_gradient`` as it was before workspaces, allocating every array per call."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _, signs, logits = alloc_forward(params, X)
    per, dz = alloc_ce_and_dlogits(logits, np.asarray(y))
    for l in range(len(params.weights) - 1, 0, -1):
        dz = (dz @ params.weights[l]) * signs[l - 1]
    return per, dz @ params.weights[0], logits


def alloc_loss_and_grads(params: ModelParams, X: np.ndarray, y: np.ndarray, scale: float):
    """``loss_and_grads`` as it was before workspaces: (value, per-layer weight
    gradients, per-layer bias gradients), each product a fresh array."""
    acts, signs, logits = alloc_forward(params, X)
    per, dz = alloc_ce_and_dlogits(logits, y)
    dz *= scale
    gw, gb = [None] * len(params.weights), [None] * len(params.weights)
    for l in range(len(params.weights) - 1, -1, -1):
        gw[l] = dz.T @ acts[l]
        gb[l] = dz.sum(axis=0)
        if l > 0:
            dz = (dz @ params.weights[l]) * signs[l - 1]
    return float(per.sum() * scale), gw, gb


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(b)), 1e-10)
    return float(np.linalg.norm(a - b)) / denom


def conditioned_surgery_net(rng: np.random.Generator, n: int = 10, width: int = 64,
                            m: int = 3, w1_scale: float = 1e-3) -> ModelParams:
    """One-hidden-layer net engineered to clear the surgery width threshold.

    Tiny first-layer weights with biases near 1 keep every hidden unit
    comfortably active over small input balls.  Output rows share one
    paired +1/-1 sign pattern with graded magnitudes, so rows separate by
    0.5/m in every coordinate while all logit gaps stay small (the pattern
    nearly cancels against the flat activation vector).
    """
    assert width % 2 == 0
    w1 = w1_scale * rng.standard_normal((width, n))
    b1 = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, width)
    sigma = np.ones(width)
    sigma[1::2] = -1.0
    grade = 0.5 / m
    w2 = np.array([(1.0 + l * grade) * sigma for l in range(m)])
    return ModelParams([w1, w2], [b1, np.zeros(m)])


def positive_square_net(rng: np.random.Generator, n: int, depth: int, m: int) -> ModelParams:
    """Bias-free net with square hidden layers and all-positive hidden weights.

    Positive weights keep every hidden unit active on positive inputs, so
    activations and layer jacobians stay healthy at any depth.
    """
    ws = [rng.uniform(0.5, 1.5, (n, n)) / n for _ in range(depth)]
    ws.append(rng.standard_normal((m, n)) / np.sqrt(n))
    return ModelParams(ws, [np.zeros(n)] * depth + [np.zeros(m)])


def count_scoring_passes(monkeypatch) -> dict:
    """Count the scorer's passes: the classify_batch and pgd_flips_batch calls
    made through the names bound in ``metrics`` (the attacks' own PGD runs
    go through ``attack`` and are not counted)."""
    counts = {"classify_batch": 0, "pgd_flips_batch": 0}
    for name in counts:
        def wrapped(*a, _fn=getattr(metrics, name), _name=name, **k):
            counts[_name] += 1
            return _fn(*a, **k)
        monkeypatch.setattr(metrics, name, wrapped)
    return counts


def observe_kernel(monkeypatch, name: str, arg: int | None = None) -> list:
    """The argument tuple (or its entry ``arg``) of every call of the ``mlp``
    kernel ``name`` (``_forward``, ``_input_gradient`` or ``_loss_and_grads``),
    through every module that binds it: the public passes call it in ``mlp``,
    PGD's later iterates, the descent and training call it by name.  The
    workspace is the last argument."""
    calls, real = [], getattr(mlp, name)

    def observed(*a):
        calls.append(a if arg is None else a[arg])
        return real(*a)

    for mod in (mlp, attack, train_mod):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, observed)
    return calls


def certified_rows(params: ModelParams, X: np.ndarray, y: np.ndarray, eps: float, tol: float = 1e-9) -> np.ndarray:
    """Interval bound propagation (Gowal et al. 2018): True where no point of
    the box [max(x-eps, 0), min(x+eps, 1)] can get a label other than y.

    The box goes through the hidden layers as intervals; the last layer takes
    the exact difference rows W_y - W_j, and a row is certified when its
    worst-case margin over every j != y is above ``tol``, which absorbs
    rounding.  A stack gives one row of flags per net.
    """
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    lo, hi = np.maximum(X - eps, 0.0), np.minimum(X + eps, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing bound certifies nothing
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            mid, rad = (lo + hi) / 2, (hi - lo) / 2
            z, r = mid @ w.mT + b[..., None, :], rad @ np.abs(w).mT
            lo, hi = np.maximum(z - r, 0.0), np.maximum(z + r, 0.0)
        w, b = params.weights[-1], params.biases[-1]
        diff = w[..., y, None, :] - w[..., None, :, :]
        margin = (np.einsum("...nh,...nmh->...nm", (lo + hi) / 2, diff)
                  - np.einsum("...nh,...nmh->...nm", (hi - lo) / 2, np.abs(diff))
                  + b[..., y, None] - b[..., None, :])
    margin[..., np.arange(len(y)), y] = np.inf
    return margin.min(axis=-1) > tol


def certified_floor(scored_rows):
    """``scored_rows`` checked against ``certified_rows``: every row that the
    oracle certifies at the PGD's eps must come back robust, for any correct
    PGD, ``classify_batch`` and clip."""
    @functools.wraps(scored_rows)
    def checked(params, X, y, pgd, seed=0):
        correct, robust = scored_rows(params, X, y, pgd, seed)
        flipped = certified_rows(params, X, y, pgd.eps) & ~robust
        assert not flipped.any(), f"PGD flipped {int(flipped.sum())} certified rows at eps {pgd.eps}"
        return correct, robust
    return checked
