"""Dense ReLU networks: parameters, forward pass, analytic gradients, serialization.

Everything downstream (training, attacks, weight surgery) manipulates the
``ModelParams`` container directly.  Its entries live in one float64 vector,
``flat``: all weight matrices (row-major, in layer order), then all biases.
An elementwise parameter operation is thus one array operation, whose result
``like(vec)`` wraps as a set.  The last layer is affine (raw logits); softmax
appears only inside the cross-entropy loss.
"""

from __future__ import annotations

import json

import numpy as np

MODEL_FORMAT_VERSION = 1


class ModelParams:
    """Weights and biases of a fully connected ReLU network.

    ``weights[l]`` maps layer l inputs to layer l outputs (shape out x in);
    hidden layers apply ReLU, the final layer does not.  Shapes must chain,
    every entry must be finite, and the output dimension must be >= 2.
    A network may have zero hidden layers (a single affine map).  The
    constructor copies its inputs into ``flat``; ``weights`` and ``biases``
    are tuples of views into it, so an in-place layer edit edits ``flat``.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases):
            raise ValueError("weights and biases must have the same layer count")
        if not weights:
            raise ValueError("a network needs at least one layer")
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for l, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2:
                raise ValueError(f"layer {l}: weight must be 2-D, got shape {w.shape}")
            if b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ValueError(f"layer {l}: bias shape {b.shape} does not match weight {w.shape}")
            if l > 0 and w.shape[1] != weights[l - 1].shape[0]:
                raise ValueError(
                    f"layer {l}: input dim {w.shape[1]} != previous output dim "
                    f"{weights[l - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l}: non-finite parameter entries")
        if weights[-1].shape[0] < 2:
            raise ValueError("output dimension must be >= 2 (need at least two classes)")
        arrays = weights + biases
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self._spans = tuple(zip([0] + ends[:-1], ends, [a.shape for a in arrays]))
        self._set_flat(np.concatenate([a.ravel() for a in arrays]))

    def _views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every weight matrix, then every bias, as views into flat."""
        return tuple(flat[a:b].reshape(shape) for a, b, shape in self._spans)

    def _set_flat(self, flat: np.ndarray) -> None:
        views = self._views(flat)
        n = len(views) // 2
        self._flat, self._weights, self._biases = flat, views[:n], views[n:]

    def like(self, vec) -> "ModelParams":
        """A set with these shapes whose ``flat`` is vec, not copied: vec must
        hold ``num_params`` finite entries, or ValueError is raised."""
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if vec.shape != self._flat.shape:
            raise ValueError(f"expected {self._flat.size} entries, got {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("non-finite parameter entries")
        out = object.__new__(ModelParams)
        out._spans = self._spans
        out._set_flat(vec)
        return out

    flat = property(lambda self: self._flat, doc="Every weight matrix row-major, then every bias.")
    weights = property(lambda self: self._weights, doc="Weight matrices, views into ``flat``.")
    biases = property(lambda self: self._biases, doc="Bias vectors, views into ``flat``.")

    @property
    def dims(self) -> list[int]:
        """Layer widths [n_in, n_1, ..., n_out]."""
        return [self._weights[0].shape[1]] + [w.shape[0] for w in self._weights]

    @property
    def input_dim(self) -> int:
        return self._weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self._weights[-1].shape[0]

    @property
    def hidden_count(self) -> int:
        return len(self._weights) - 1

    @property
    def num_params(self) -> int:
        return self._flat.size

    def copy(self) -> "ModelParams":
        return self.like(self._flat.copy())


# Rows per block of the blocked passes (PGD, ``classify_batch``, the jacobian
# measures).  Bounds their working set, so peak memory does not grow with the
# dataset; the jacobian measures run as fast from 256 to 4096 rows.
BLOCK_ROWS = 1024


def row_blocks(n_rows: int) -> list[slice]:
    """ceil(n_rows / BLOCK_ROWS) contiguous slices covering rows 0..n_rows-1,
    in order, whose sizes differ by at most one."""
    k = -(-n_rows // BLOCK_ROWS)
    return [slice(n_rows * i // k, n_rows * (i + 1) // k) for i in range(k)]


class Workspace:
    """Preallocated buffers for ``forward_batch`` and ``input_gradient`` on
    ``n_rows`` rows of a net with ``params``' layer widths.

    Per hidden layer one activation buffer (the pre-activation is computed in
    place) and one 0/1 mask; the logits; the softmax / cross-entropy scratch;
    two backward buffers the layers take in turn; the input gradient.  A pass
    in a workspace overwrites what the previous pass in it returned.
    """

    def __init__(self, params: ModelParams, n_rows: int):
        dims = params.dims
        hidden = dims[1:-1]
        self.dims, self.n_rows, self.spans = dims, n_rows, params._spans
        self.acts = [np.empty((n_rows, w)) for w in hidden]
        self.signs = [np.empty((n_rows, w)) for w in hidden]
        self.logits = np.empty((n_rows, dims[-1]))
        self.shifted = np.empty_like(self.logits)  # logits minus their row max
        self.dlogits = np.empty_like(self.logits)
        self.row_max = np.empty((n_rows, 1))
        self.row_sum = np.empty((n_rows, 1))
        self.ce = np.empty(n_rows)
        self.rows = np.arange(n_rows)
        size = n_rows * max(hidden, default=0)
        self.back = (np.empty(size), np.empty(size))
        self.grad = np.empty((n_rows, dims[0]))


def _block_workspaces(params: ModelParams, n_rows: int):
    """(row slice, workspace) for each of ``row_blocks(n_rows)``; blocks of one size share one ``Workspace``."""
    made = {}
    for blk in row_blocks(n_rows):
        size = blk.stop - blk.start
        if size not in made:
            made[size] = Workspace(params, size)
        yield blk, made[size]


def forward_batch(params: ModelParams, X: np.ndarray,
                  ws: Workspace | None = None) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Batched forward pass.

    Returns (acts, signs, logits) where acts[0] is X itself, acts[l] for
    l >= 1 the post-ReLU activations of hidden layer l, and signs[l-1] the
    0/1 mask of hidden layer l (1 where the pre-activation was strictly
    positive).  X must be 2-D with ``params.input_dim`` columns; a single
    point x goes in as ``np.reshape(x, (1, -1))``.  Inputs only need to be
    finite; values outside [0,1] are fine (surgery evaluates points off the
    data domain).

    The pass fills ``ws``, a ``Workspace`` for X's row count and these layer
    widths, and returns views into it, which the next pass in ``ws``
    overwrites; without ``ws`` it fills a fresh one.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"input shape {X.shape} does not match model input dim {params.input_dim}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite input")
    if ws is None:
        ws = Workspace(params, X.shape[0])
    elif ws.n_rows != X.shape[0] or ws.spans != params._spans:  # spans: the layer shapes
        raise ValueError(f"workspace for {ws.n_rows} rows of a {ws.dims} net does not fit "
                         f"{X.shape[0]} rows of a {params.dims} net")
    h = X
    for w, b, a, s in zip(params.weights[:-1], params.biases[:-1], ws.acts, ws.signs):
        np.matmul(h, w.T, out=a)
        a += b
        np.greater(a, 0.0, out=s)
        a *= s
        h = a
    np.matmul(h, params.weights[-1].T, out=ws.logits)
    ws.logits += params.biases[-1]
    return [X, *ws.acts], list(ws.signs), ws.logits


def classify(params: ModelParams, x: np.ndarray) -> int:
    """Predicted label: argmax of the logits, smallest index on ties."""
    _, _, logits = forward_batch(params, np.reshape(x, (1, -1)))
    return int(np.argmax(logits[0]))


def classify_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Predicted label of every row of X, ``row_blocks`` at a time."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.empty(len(X), dtype=np.intp)
    for blk, ws in _block_workspaces(params, len(X)):
        np.argmax(forward_batch(params, X[blk], ws)[2], axis=1, out=labels[blk])
    return labels


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


def _ce_and_dlogits(logits: np.ndarray, y: np.ndarray, ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample cross-entropy (bit for bit ``cross_entropy``) and its gradient
    w.r.t. the logits (softmax - onehot), from one softmax pass in ws's scratch."""
    z, d, rows = ws.shifted, ws.dlogits, ws.rows
    logits.max(axis=1, keepdims=True, out=ws.row_max)
    np.subtract(logits, ws.row_max, out=z)
    np.exp(z, out=d)
    d.sum(axis=1, keepdims=True, out=ws.row_sum)
    d /= ws.row_sum
    d[rows, y] -= 1.0
    np.log(ws.row_sum[:, 0], out=ws.ce)
    ws.ce -= z[rows, y]
    return ws.ce, d


def _backprop(dz: np.ndarray, w: np.ndarray, s: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """(dz @ w) * s, written to the front of the flat buffer buf."""
    out = np.matmul(dz, w, out=buf[:s.size].reshape(s.shape))
    out *= s
    return out


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
    N = X.shape[0]
    ws = Workspace(params, N)
    acts, signs, logits = forward_batch(params, X, ws)
    scale = 1.0 / N if reduction == "mean" else 1.0
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != N:
        raise ValueError("cross-entropy targets must be one label per sample")
    if y.min() < 0 or y.max() >= params.output_dim:
        raise ValueError("label out of range")
    per, dz = _ce_and_dlogits(logits, y, ws)
    dz *= scale
    value = float(per.sum() * scale)

    flat = np.empty(params.num_params)
    views = params._views(flat)  # every weight gradient, then every bias gradient
    n = len(params.weights)
    for k, l in enumerate(range(n - 1, -1, -1)):
        np.matmul(dz.T, acts[l], out=views[l])
        dz.sum(axis=0, out=views[n + l])
        if l > 0:
            dz = _backprop(dz, params.weights[l], signs[l - 1], ws.back[k % 2])
    return value, params.like(flat)


def input_gradient(params: ModelParams, X: np.ndarray, y: np.ndarray,
                   ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample CE values, dCE/dx for each sample (sum reduction) and logits.

    Returns (per, grad, logits), all from one forward pass: ``per`` is
    ``cross_entropy(logits, y)`` and ``logits`` are the ``forward_batch``
    logits at X, so a caller also needing the loss or the prediction at X
    runs no second forward.  With sum reduction the rows of the input
    gradient are the independent per-sample gradients, which is what PGD
    needs.  The pass runs in ``ws`` (see ``forward_batch``) and returns
    views into it; without ``ws`` it fills a fresh ``Workspace``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if ws is None:
        ws = Workspace(params, X.shape[0])
    _, signs, logits = forward_batch(params, X, ws)
    per, dz = _ce_and_dlogits(logits, np.asarray(y), ws)
    for k, l in enumerate(range(len(params.weights) - 1, 0, -1)):
        dz = _backprop(dz, params.weights[l], signs[l - 1], ws.back[k % 2])
    return per, np.matmul(dz, params.weights[0], out=ws.grad), logits


# ---------------------------------------------------------------------------
# parameter arithmetic


def add_scaled(a: ModelParams, b: ModelParams, scale: float = 1.0) -> ModelParams:
    """a + scale * b, elementwise over all layers."""
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    return a.like(a.flat + scale * b.flat)


def max_abs_diff(a: ModelParams, b: ModelParams) -> float:
    """L-infinity distance between two parameter sets."""
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    return float(np.abs(a.flat - b.flat).max())


def flatten_params(params: ModelParams) -> np.ndarray:
    """A copy of ``params.flat``: all weight matrices row-major in layer order, then all biases."""
    return params.flat.copy()


def unflatten_params(template: ModelParams, vec: np.ndarray) -> ModelParams:
    """The set with ``template``'s shapes holding a copy of vec, laid out as ``flatten_params``."""
    return template.like(np.array(vec, dtype=np.float64))


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
