"""Dense ReLU networks: parameters, forward pass, analytic gradients, serialization.

Everything downstream (training, attacks, weight surgery) manipulates the
``ModelParams`` container directly, so the layer layout is deliberately plain:
a list of weight matrices and a list of bias vectors, float64 throughout.
The last layer is affine (raw logits); softmax appears only inside the
cross-entropy loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MODEL_FORMAT_VERSION = 1


@dataclass
class ModelParams:
    """Weights and biases of a fully connected ReLU network.

    ``weights[l]`` maps layer l inputs to layer l outputs (shape out x in);
    hidden layers apply ReLU, the final layer does not.  Shapes must chain,
    every entry must be finite, and the output dimension must be >= 2.
    A network may have zero hidden layers (a single affine map).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must have the same layer count")
        if not self.weights:
            raise ValueError("a network needs at least one layer")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ValueError(f"layer {l}: weight must be 2-D, got shape {w.shape}")
            if b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ValueError(f"layer {l}: bias shape {b.shape} does not match weight {w.shape}")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(
                    f"layer {l}: input dim {w.shape[1]} != previous output dim "
                    f"{self.weights[l - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l}: non-finite parameter entries")
        if self.weights[-1].shape[0] < 2:
            raise ValueError("output dimension must be >= 2 (need at least two classes)")

    @property
    def dims(self) -> list[int]:
        """Layer widths [n_in, n_1, ..., n_out]."""
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def hidden_count(self) -> int:
        return len(self.weights) - 1

    @property
    def num_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def forward_batch(params: ModelParams, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Batched forward pass.

    Returns (acts, signs, logits) where acts[0] is X itself, acts[l] for
    l >= 1 the post-ReLU activations of hidden layer l, and signs[l-1] the
    0/1 mask of hidden layer l (1 where the pre-activation was strictly
    positive).  X must be 2-D with ``params.input_dim`` columns; a single
    point x goes in as ``np.reshape(x, (1, -1))``.  Inputs only need to be
    finite; values outside [0,1] are fine (surgery evaluates points off the
    data domain).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"input shape {X.shape} does not match model input dim {params.input_dim}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite input")
    acts = [X]
    signs = []
    h = X
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w.T + b
        s = (z > 0).astype(np.float64)
        h = z * s
        acts.append(h)
        signs.append(s)
    logits = h @ params.weights[-1].T + params.biases[-1]
    return acts, signs, logits


def classify(params: ModelParams, x: np.ndarray) -> int:
    """Predicted label: argmax of the logits, smallest index on ties."""
    _, _, logits = forward_batch(params, np.reshape(x, (1, -1)))
    return int(np.argmax(logits[0]))


def classify_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    _, _, logits = forward_batch(params, X)
    return np.argmax(logits, axis=1)


def logit_jacobians(params: ModelParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits (N x m) and the input jacobian of every sample (N x m x n).

    One ``forward_batch``, then one matrix product per layer, back to front:
    the m rows of all N samples are stacked into one (N*m) x width matrix, so
    each layer is a single gemm.  At a ReLU kink (pre-activation exactly 0)
    the derivative of the inactive branch is used, matching the 0/1 masks of
    ``forward_batch``.
    """
    _, signs, logits = forward_batch(params, X)
    N, m = logits.shape
    J = np.broadcast_to(params.weights[-1], (N,) + params.weights[-1].shape)
    for w, s in zip(params.weights[-2::-1], signs[::-1]):
        J = ((J * s[:, None, :]).reshape(N * m, -1) @ w).reshape(N, m, -1)
    return logits, J if signs else J.copy()  # no hidden layer: J is still a read-only view


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample softmax cross-entropy, numerically stable."""
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return lse - z[np.arange(len(y)), y]


def _ce_and_dlogits(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample cross-entropy and its gradient w.r.t. the logits (softmax - onehot)."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    dlogits = e / e.sum(axis=1, keepdims=True)
    dlogits[np.arange(len(y)), y] -= 1.0
    return cross_entropy(logits, y), dlogits


def loss_and_grads(params: ModelParams, X: np.ndarray, y: np.ndarray, reduction: str = "mean"):
    """Cross-entropy loss value plus gradients from one reverse pass.

    Returns (value, grads), where ``grads`` is a ModelParams-shaped container
    holding dL/dW and dL/db for the integer labels ``y``; reduction averages
    or sums the per-sample losses over the batch.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    acts, signs, logits = forward_batch(params, X)
    N = X.shape[0]
    scale = 1.0 / N if reduction == "mean" else 1.0
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != N:
        raise ValueError("cross-entropy targets must be one label per sample")
    if y.min() < 0 or y.max() >= params.output_dim:
        raise ValueError("label out of range")
    per, dlogits = _ce_and_dlogits(logits, y)
    dlogits *= scale
    value = float(per.sum() * scale)

    gw = [np.empty_like(w) for w in params.weights]
    gb = [np.empty_like(b) for b in params.biases]
    dz = dlogits
    for l in range(len(params.weights) - 1, -1, -1):
        gw[l] = dz.T @ acts[l]
        gb[l] = dz.sum(axis=0)
        if l > 0:
            dz = (dz @ params.weights[l]) * signs[l - 1]
    return value, ModelParams(gw, gb)


def input_gradient(params: ModelParams, X: np.ndarray,
                   y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample CE values, dCE/dx for each sample (sum reduction) and logits.

    Returns (per, grad, logits), all from one forward pass: ``per`` is
    ``cross_entropy(logits, y)`` and ``logits`` are the ``forward_batch``
    logits at X, so a caller also needing the loss or the prediction at X
    runs no second forward.  With sum reduction the rows of the input
    gradient are the independent per-sample gradients, which is what PGD
    needs.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    acts, signs, logits = forward_batch(params, X)
    per, dz = _ce_and_dlogits(logits, np.asarray(y))
    for l in range(len(params.weights) - 1, 0, -1):
        dz = (dz @ params.weights[l]) * signs[l - 1]
    return per, dz @ params.weights[0], logits


# ---------------------------------------------------------------------------
# parameter arithmetic


def add_scaled(a: ModelParams, b: ModelParams, scale: float = 1.0) -> ModelParams:
    """a + scale * b, elementwise over all layers."""
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    return ModelParams(
        [wa + scale * wb for wa, wb in zip(a.weights, b.weights)],
        [ba + scale * bb for ba, bb in zip(a.biases, b.biases)],
    )


def max_abs_diff(a: ModelParams, b: ModelParams) -> float:
    """L-infinity distance between two parameter sets."""
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    d = 0.0
    for wa, wb in zip(a.weights, b.weights):
        d = max(d, float(np.abs(wa - wb).max()))
    for ba, bb in zip(a.biases, b.biases):
        if ba.size:
            d = max(d, float(np.abs(ba - bb).max()))
    return d


def flatten_params(params: ModelParams) -> np.ndarray:
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def unflatten_params(template: ModelParams, vec: np.ndarray) -> ModelParams:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (template.num_params,):
        raise ValueError(f"expected {template.num_params} entries, got {vec.shape}")
    ws, bs, k = [], [], 0
    for w, b in zip(template.weights, template.biases):
        ws.append(vec[k : k + w.size].reshape(w.shape))
        k += w.size
        bs.append(vec[k : k + b.size].copy())
        k += b.size
    return ModelParams(ws, bs)


def min_abs_entry(v: np.ndarray) -> float:
    """Smallest absolute value over all entries."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty array")
    return float(np.abs(v).min())


def init_params(dims: list[int], seed: int) -> ModelParams:
    """Fresh network with U[-1/sqrt(fan_in), 1/sqrt(fan_in)] weights and biases."""
    if len(dims) < 2:
        raise ValueError("dims needs at least input and output width")
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(n_in)
        ws.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        bs.append(rng.uniform(-bound, bound, size=n_out))
    return ModelParams(ws, bs)


# ---------------------------------------------------------------------------
# serialization: JSON text document, value-exact float round-trip via repr


def model_to_json(params: ModelParams) -> str:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "dims": params.dims,
        "layers": [
            {"w": w.tolist(), "b": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
    }
    return json.dumps(doc)


def model_from_json(text: str) -> ModelParams:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('version')!r}")
    layers = doc.get("layers")
    if not isinstance(layers, list) or not layers:
        raise ValueError("model document has no layers")
    try:
        params = ModelParams(
            [np.array(layer["w"], dtype=np.float64) for layer in layers],
            [np.array(layer["b"], dtype=np.float64) for layer in layers],
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed layer entry: {e}") from e
    if "dims" in doc and list(doc["dims"]) != params.dims:
        raise ValueError(f"declared dims {doc['dims']} do not match layer shapes {params.dims}")
    return params


def save_model(params: ModelParams, path: str) -> None:
    with open(path, "w") as f:
        f.write(model_to_json(params))
        f.write("\n")


def load_model(path: str) -> ModelParams:
    with open(path) as f:
        return model_from_json(f.read())
