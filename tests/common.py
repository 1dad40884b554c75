"""Shared helpers for the test suite: random nets and independent oracles."""

from __future__ import annotations

import numpy as np

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
