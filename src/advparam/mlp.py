"""Dense ReLU networks: parameters, forward traces, analytic gradients, serialization.

Everything downstream (training, attacks, weight surgery) manipulates the
``ModelParams`` container directly, so the layer layout is deliberately plain:
a list of weight matrices and a list of bias vectors, float64 throughout.
The last layer is affine (raw logits); softmax appears only inside the
cross-entropy loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MODEL_FORMAT_VERSION = 1


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


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


@dataclass
class ForwardTrace:
    """Everything the forward pass saw for one input.

    ``hidden[l]`` is the post-ReLU activation of hidden layer l+1,
    ``signs[l]`` the corresponding 0/1 active mask (1 where the
    pre-activation was strictly positive).  ``logits`` is the raw output.
    """

    x: np.ndarray
    hidden: list[np.ndarray]
    signs: list[np.ndarray]
    logits: np.ndarray


@dataclass
class GradientDecomposition:
    """Input jacobian of the logits together with its layerwise factors.

    ``jacobian`` is d logits / d x (m x n).  ``head_chain[l]`` maps layer-l
    activations to logits (d logits / d h_l), ``tail_chain[l]`` maps the
    input to layer-l activations (d h_l / d x), so
    jacobian == head_chain[l] @ tail_chain[l] for every l.  Index 0 of
    tail_chain is the identity on the input.
    """

    jacobian: np.ndarray
    head_chain: list[np.ndarray]
    tail_chain: list[np.ndarray]
    signs: list[np.ndarray]


def _as_batch(x: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != n:
            raise ValueError(f"input dim {x.shape[0]} != model input dim {n}")
        return x[None, :], True
    if x.ndim == 2:
        if x.shape[1] != n:
            raise ValueError(f"input dim {x.shape[1]} != model input dim {n}")
        return x, False
    raise ValueError(f"input must be 1-D or 2-D, got shape {x.shape}")


def forward_batch(params: ModelParams, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Batched forward pass.

    Returns (acts, signs, logits) where acts[0] is X itself, acts[l] for
    l >= 1 the post-ReLU activations of hidden layer l, and signs[l-1] the
    0/1 mask of hidden layer l.  Inputs only need to be finite; values
    outside [0,1] are fine (surgery evaluates points off the data domain).
    """
    X = np.asarray(X, dtype=np.float64)
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


def forward(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Forward pass for a single input, returning the full trace."""
    xb, _ = _as_batch(x, params.input_dim)
    acts, signs, logits = forward_batch(params, xb)
    return ForwardTrace(
        x=xb[0],
        hidden=[a[0] for a in acts[1:]],
        signs=[s[0] for s in signs],
        logits=logits[0],
    )


def classify(params: ModelParams, x: np.ndarray) -> int:
    """Predicted label: argmax of the logits, smallest index on ties."""
    xb, _ = _as_batch(x, params.input_dim)
    _, _, logits = forward_batch(params, xb)
    return int(np.argmax(logits[0]))


def classify_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    _, _, logits = forward_batch(params, X)
    return np.argmax(logits, axis=1)


def input_jacobian(params: ModelParams, x: np.ndarray) -> GradientDecomposition:
    """Exact jacobian of the logits w.r.t. the input, with layer factors.

    At a ReLU kink (pre-activation exactly 0) the derivative of the inactive
    branch is used, matching the 0/1 sign convention of the forward trace.
    """
    tr = forward(params, x)
    n = params.input_dim
    # tail_chain[l] = d h_l / d x, built front to back
    tail = [np.eye(n)]
    for w, s in zip(params.weights[:-1], tr.signs):
        tail.append((s[:, None] * w) @ tail[-1])
    # head_chain[l] = d logits / d h_l, built back to front
    head = [params.weights[-1]]
    for l in range(len(params.weights) - 2, -1, -1):
        head.append(head[-1] @ (tr.signs[l][:, None] * params.weights[l]))
    head.reverse()
    # head[0] maps the input itself, so it is the full jacobian
    jac = head[0]
    return GradientDecomposition(jacobian=jac, head_chain=head, tail_chain=tail, signs=list(tr.signs))


def logit_gap_gradient(params: ModelParams, x: np.ndarray, i: int, j: int) -> np.ndarray:
    """Gradient of F_i(x) - F_j(x) w.r.t. x."""
    jac = input_jacobian(params, x).jacobian
    return jac[i] - jac[j]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample softmax cross-entropy, numerically stable."""
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return lse - z[np.arange(len(y)), y]


def loss_and_grads(
    params: ModelParams,
    X: np.ndarray,
    targets: np.ndarray,
    loss: str = "cross_entropy",
    reduction: str = "mean",
    want_input_grad: bool = False,
):
    """Loss value plus gradients from one reverse pass.

    Returns (value, grads, input_grad). ``grads`` is a ModelParams-shaped
    container holding dL/dW and dL/db; ``input_grad`` is dL/dX (or None).
    ``targets`` are integer labels for cross-entropy, real vectors (same
    shape as the logits) for squared error.  Squared error is the summed
    per-sample ||F(x)-t||^2; reduction then averages or sums over the batch.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    acts, signs, logits = forward_batch(params, X)
    N = X.shape[0]
    scale = 1.0 / N if reduction == "mean" else 1.0

    if loss == "cross_entropy":
        y = np.asarray(targets)
        if y.ndim != 1 or y.shape[0] != N:
            raise ValueError("cross-entropy targets must be one label per sample")
        if y.min() < 0 or y.max() >= params.output_dim:
            raise ValueError("label out of range")
        per = cross_entropy(logits, y)
        dlogits = _softmax(logits)
        dlogits[np.arange(N), y] -= 1.0
        dlogits *= scale
    elif loss == "squared_error":
        t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if t.shape != logits.shape:
            raise ValueError(f"squared-error targets shape {t.shape} != logits {logits.shape}")
        diff = logits - t
        per = (diff**2).sum(axis=1)
        dlogits = 2.0 * diff * scale
    else:
        raise ValueError(f"unknown loss {loss!r}")

    value = float(per.sum() * scale)

    gw = [np.empty_like(w) for w in params.weights]
    gb = [np.empty_like(b) for b in params.biases]
    dz = dlogits
    for l in range(len(params.weights) - 1, -1, -1):
        gw[l] = dz.T @ acts[l]
        gb[l] = dz.sum(axis=0)
        if l > 0:
            dz = (dz @ params.weights[l]) * signs[l - 1]
    input_grad = dz @ params.weights[0] if want_input_grad else None
    return value, ModelParams(gw, gb), input_grad


def param_gradient(
    params: ModelParams,
    X: np.ndarray,
    targets: np.ndarray,
    loss: str = "cross_entropy",
    reduction: str = "mean",
) -> ModelParams:
    """Gradient of the selected loss w.r.t. every weight and bias.

    The result reuses the ModelParams container (same shapes as ``params``),
    so the parameter arithmetic helpers below apply to gradients too.
    """
    _, grads, _ = loss_and_grads(params, X, targets, loss=loss, reduction=reduction)
    return grads


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
    y = np.asarray(y)
    per = cross_entropy(logits, y)
    dlogits = _softmax(logits)
    dlogits[np.arange(len(y)), y] -= 1.0
    dz = dlogits
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


def min_row_norm(w: np.ndarray) -> float:
    """Smallest euclidean row norm of a matrix."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    return float(np.sqrt((w**2).sum(axis=1)).min())


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
