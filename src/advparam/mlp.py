"""Dense ReLU networks: parameters, forward pass, analytic gradients, serialization.

Everything downstream (training, attacks, weight surgery) manipulates the
``ModelParams`` container directly.  Its entries live in one float64 vector,
``flat``: all weight matrices (row-major, in layer order), then all biases.
An elementwise parameter operation is thus one array operation, whose result
``like(vec)`` wraps as a set.  ``ModelParams.stack`` holds K nets of one shape
in a (K, P) ``flat``; the passes below take such a stack as they take one net,
indexing from the trailing axes, and give each net the bits it gets alone.
The last layer is affine (raw logits); softmax appears only inside the
cross-entropy loss.
"""

from __future__ import annotations

import json

import numpy as np

from .data import atomic_open

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
        """Every weight matrix, then every bias, as views into flat (one net per leading index)."""
        lead = flat.shape[:-1]
        return tuple(flat[..., a:b].reshape(lead + shape) for a, b, shape in self._spans)

    def _set_flat(self, flat: np.ndarray) -> None:
        views = self._views(flat)
        n = len(views) // 2
        self._flat, self._weights, self._biases = flat, views[:n], views[n:]
        self._weights_t = None

    def _transposed(self) -> list[np.ndarray]:
        """The weights transposed, as the passes apply them: views into ``flat``, made on first use."""
        if self._weights_t is None:
            self._weights_t = [w.swapaxes(-1, -2) for w in self._weights]
        return self._weights_t

    def like(self, vec) -> "ModelParams":
        """A set with these shapes whose ``flat`` is vec, not copied: vec must
        hold ``num_params`` finite entries, or ValueError is raised."""
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if vec.shape != self._flat.shape:
            raise ValueError(f"expected {self._flat.size} entries, got {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("non-finite parameter entries")
        return self._wrap(vec)

    def _wrap(self, flat: np.ndarray) -> "ModelParams":
        out = object.__new__(ModelParams)
        out._spans = self._spans
        out._set_flat(flat)
        return out

    @staticmethod
    def stack(nets) -> "ModelParams":
        """K >= 1 single nets of one shape as one set: ``flat`` is (K, P), each
        weight (K, out, in) and each bias (K, out), copied from the nets."""
        nets = list(nets)
        if not nets or any(n._spans != nets[0]._spans or n.stack_shape for n in nets):
            raise ValueError("stack needs one or more single nets of one shape")
        return nets[0]._wrap(np.stack([n.flat for n in nets]))

    flat = property(lambda self: self._flat, doc="Every weight matrix row-major, then every bias.")
    weights = property(lambda self: self._weights, doc="Weight matrices, views into ``flat``.")
    biases = property(lambda self: self._biases, doc="Bias vectors, views into ``flat``.")
    stack_shape = property(lambda self: self._flat.shape[:-1], doc="() for one net, (K,) for a stack.")

    @property
    def dims(self) -> list[int]:
        """Layer widths [n_in, n_1, ..., n_out]."""
        return [self._weights[0].shape[-1]] + [w.shape[-2] for w in self._weights]

    @property
    def input_dim(self) -> int:
        return self._weights[0].shape[-1]

    @property
    def output_dim(self) -> int:
        return self._weights[-1].shape[-2]

    @property
    def hidden_count(self) -> int:
        return len(self._weights) - 1

    @property
    def num_params(self) -> int:
        """Entries per net."""
        return self._flat.shape[-1]

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
    """Preallocated buffers for ``forward_batch``, ``input_gradient`` and
    ``loss_and_grads`` on ``n_rows`` rows of a net with ``params``' layer widths.

    Per hidden layer one activation buffer (the pre-activation is computed in
    place), one 0/1 mask and one backward output; the logits; the softmax /
    cross-entropy scratch; the input gradient.  A pass in a workspace
    overwrites what the previous pass in it returned.

    For a stack of K nets every buffer has a leading axis of K.

    Every pass runs bound (``bind``) to the net and the labels it is given,
    and takes their constants from here: each bias tiled to its layer's
    (n_rows, width) shape, the one-hot of the labels and their flat indices
    into the logits.  ``bind`` rebuilds them only for a new net or label
    object, so a run of passes on one net and one set of labels (PGD on a
    block of rows) builds them once.  The passes read a bound net's weights
    from the net, so an in-place weight edit is seen; its biases and the
    bound labels must not be edited in place.
    """

    def __init__(self, params: ModelParams, n_rows: int):
        dims = params.dims
        hidden = dims[1:-1]
        self.dims, self.n_rows, self.spans = dims, n_rows, params._spans
        self.stack_shape = lead = params.stack_shape
        self.acts = [np.empty(lead + (n_rows, w)) for w in hidden]
        self.signs = [np.empty(lead + (n_rows, w)) for w in hidden]
        self.logits = np.empty(lead + (n_rows, dims[-1]))
        self.shifted = np.empty_like(self.logits)  # logits minus their row max
        self.dlogits = np.empty_like(self.logits)
        self.row_max = np.empty(lead + (n_rows, 1))
        self.row_sum = np.empty(lead + (n_rows, 1))
        self.ce = np.empty(lead + (n_rows,))
        self.back = [np.empty(lead + (n_rows, w)) for w in hidden]
        self.grad = np.empty(lead + (n_rows, dims[0]))
        self.params = self.y = self.grads = None

    def fits(self, params: ModelParams, n_rows: int) -> bool:
        """True when passes over n_rows rows of params can run here."""
        return (n_rows == self.n_rows and params._spans == self.spans
                and params._flat.shape[:-1] == self.stack_shape)

    def bind(self, params: ModelParams | None = None, y: np.ndarray | None = None) -> None:
        """Bind the net ``params`` and the labels ``y``, whichever is given:
        tile every bias to its layer's (n_rows, width) shape, so the bias add
        is not a broadcast, and build the one-hot of y and y's flat indices
        into the logits of every net.  Each is rebuilt only for a new object.
        A net of other shapes, or labels other than n_rows integers that the
        net can output, raise ValueError."""
        if params is not None and params is not self.params:
            if not self.fits(params, self.n_rows):
                raise ValueError(f"workspace of a {self.dims} net cannot bind a {params.dims} net")
            self.bias_rows = [np.repeat(b[..., None, :], self.n_rows, axis=-2) for b in params.biases]
            self.params = params
        if y is None or y is self.y:
            return
        m = self.dims[-1]
        if y.shape != (self.n_rows,) or y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= m:
            raise ValueError(f"expected {self.n_rows} integer labels in 0..{m - 1}")
        row_starts = np.arange(0, self.logits.size, m).reshape(self.ce.shape)
        self.targets = row_starts + y.astype(np.intp)
        self.onehot = np.zeros(self.logits.shape)
        self.onehot.flat[self.targets] = 1.0
        self.y = y


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
    point x goes in as ``np.reshape(x, (1, -1))``.  For a stack of K nets X is
    either that, shared by every net, or (K, rows, input_dim), and each
    output gains a leading K axis.  Inputs only need to be finite; values
    outside [0,1] are fine (surgery evaluates points off the data domain).

    The pass fills ``ws``, a ``Workspace`` for X's row count and these layer
    widths, bound to params, and returns views into it, which the next pass
    in ``ws`` overwrites; without ``ws`` it fills a fresh one.
    """
    X = np.asarray(X, dtype=np.float64)
    bad_lead = X.ndim != 2 and (X.ndim < 2 or X.shape[:-2] != params.stack_shape)
    if bad_lead or X.shape[-1] != params.input_dim:
        raise ValueError(f"input shape {X.shape} does not match model input dim {params.input_dim}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite input")
    if ws is None:
        ws = Workspace(params, X.shape[-2])
    elif not ws.fits(params, X.shape[-2]):
        raise ValueError(f"workspace for {ws.n_rows} rows of a {ws.dims} net does not fit "
                         f"{X.shape[-2]} rows of a {params.dims} net")
    ws.bind(params)
    weights_t, biases = params._transposed(), ws.bias_rows
    h = X
    for wt, b, a, s in zip(weights_t, biases, ws.acts, ws.signs):
        np.matmul(h, wt, out=a)
        a += b
        np.greater(a, 0.0, out=s)
        a *= s
        h = a
    np.matmul(h, weights_t[-1], out=ws.logits)
    ws.logits += biases[-1]
    return [X, *ws.acts], list(ws.signs), ws.logits


def classify(params: ModelParams, x: np.ndarray) -> int:
    """Predicted label: argmax of the logits, smallest index on ties."""
    _, _, logits = forward_batch(params, np.reshape(x, (1, -1)))
    return int(np.argmax(logits[0]))


def classify_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Predicted label of every row of X, ``row_blocks`` at a time; a stack
    gives one row of labels per net."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.empty(params.stack_shape + (len(X),), dtype=np.intp)
    for blk, ws in _block_workspaces(params, len(X)):
        np.argmax(forward_batch(params, X[blk], ws)[2], axis=-1, out=labels[..., blk])
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


def _ce_and_dlogits(logits: np.ndarray, y: np.ndarray, ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample softmax cross-entropy, stable (log-sum-exp of the logits less
    their row max), and its gradient w.r.t. the logits (softmax - onehot),
    from one softmax pass in ws's scratch.

    The row max is taken column by column (a max is exact in any order); the
    row sum stays the one reduction ``sum`` makes, as its order fixes the
    rounding.  It binds ws to the labels ``y`` (``Workspace.bind``, which
    refuses labels the net cannot output) and takes the label terms from
    their one-hot and flat indices.
    """
    ws.bind(y=y)
    z, d, row_max = ws.shifted, ws.dlogits, ws.row_max[..., 0]
    np.maximum(logits[..., 0], logits[..., 1], out=row_max)
    for j in range(2, logits.shape[-1]):
        np.maximum(row_max, logits[..., j], out=row_max)
    np.subtract(logits, ws.row_max, out=z)
    np.exp(z, out=d)
    np.add.reduce(d, axis=-1, keepdims=True, out=ws.row_sum)  # d.sum without its Python wrapper
    d /= ws.row_sum
    np.log(ws.row_sum[..., 0], out=ws.ce)
    d -= ws.onehot
    ws.ce -= z.take(ws.targets)
    return ws.ce, d


def _backprop(dz: np.ndarray, w: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(dz @ w) * s, written to out (one of ``Workspace.back``)."""
    np.matmul(dz, w, out=out)
    out *= s
    return out


def loss_and_grads(params: ModelParams, X: np.ndarray, y: np.ndarray, reduction: str = "mean",
                   ws: Workspace | None = None):
    """Cross-entropy loss value plus gradients from one reverse pass.

    Returns (value, grads), where ``grads`` is a ModelParams-shaped container
    holding dL/dW and dL/db for the integer labels ``y``; reduction averages
    or sums the per-sample losses over the batch.  For a stack, value holds
    one loss per net and grads is a stack.  The pass runs in ``ws``
    (see ``forward_batch``), and ``grads`` is then the workspace's own set,
    which the next ``loss_and_grads`` in ws overwrites; without ``ws`` it
    fills a fresh ``Workspace``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[-2] == 0:
        raise ValueError("empty batch")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    N = X.shape[-2]
    if ws is None:
        ws = Workspace(params, N)
    acts, signs, logits = forward_batch(params, X, ws)
    scale = 1.0 / N if reduction == "mean" else 1.0
    per, dz = _ce_and_dlogits(logits, np.asarray(y), ws)
    dz *= scale
    value = per.sum(axis=-1) * scale

    if ws.grads is None:
        ws.grads = params.like(np.zeros(params.flat.shape))
    grads = ws.grads
    for l in range(len(params.weights) - 1, -1, -1):
        np.matmul(dz.swapaxes(-1, -2), acts[l], out=grads.weights[l])
        dz.sum(axis=-2, out=grads.biases[l])
        if l > 0:
            dz = _backprop(dz, params.weights[l], signs[l - 1], ws.back[l - 1])
    if not np.isfinite(grads.flat).all():
        raise ValueError("non-finite parameter entries")
    return (float(value) if value.ndim == 0 else value), grads


def input_gradient(params: ModelParams, X: np.ndarray, y: np.ndarray,
                   ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample CE values, dCE/dx for each sample (sum reduction) and logits.

    Returns (per, grad, logits), all from one forward pass: ``per`` is
    the per-sample cross-entropy and ``logits`` are the ``forward_batch``
    logits at X, so a caller also needing the loss or the prediction at X
    runs no second forward.  With sum reduction the rows of the input
    gradient are the independent per-sample gradients, which is what PGD
    needs.  The pass runs in ``ws`` (see ``forward_batch``) and returns
    views into it; without ``ws`` it fills a fresh ``Workspace``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if ws is None:
        ws = Workspace(params, X.shape[-2])
    _, signs, logits = forward_batch(params, X, ws)
    per, dz = _ce_and_dlogits(logits, np.asarray(y), ws)
    for l in range(len(params.weights) - 1, 0, -1):
        dz = _backprop(dz, params.weights[l], signs[l - 1], ws.back[l - 1])
    return per, np.matmul(dz, params.weights[0], out=ws.grad), logits


# ---------------------------------------------------------------------------
# parameter arithmetic


def add_scaled(a: ModelParams, b: ModelParams, scale=1.0) -> ModelParams:
    """a + scale * b, elementwise over all layers; on a stack, scale may be
    one factor per net, shape (K, 1)."""
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
    if min(dims) < 1:
        raise ValueError(f"layer width {min(dims)} in dims {list(dims)} is below 1")
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
    except (KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"malformed layer entry: {e}") from e
    if "dims" in doc and doc["dims"] != params.dims:
        raise ValueError(f"declared dims {doc['dims']} do not match layer shapes {params.dims}")
    return params


def save_model(params: ModelParams, path: str) -> None:
    with atomic_open(path) as f:
        f.write(model_to_json(params) + "\n")


def load_model(path: str) -> ModelParams:
    with open(path) as f:
        return model_from_json(f.read())
