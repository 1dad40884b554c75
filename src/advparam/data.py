"""Datasets: synthetic generators, JSON round-trip, IDX image/label readers.

All features live in [0,1]; labels are 0-based ints.  The subspace task
generates points that lie *exactly* in a low-dimensional linear span of the
ambient space (no clipping afterwards), which the protected-set weight
surgery needs for its exact-preservation guarantee.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

DATASET_FORMAT_VERSION = 1

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


@dataclass
class LabeledDataset:
    """Feature matrix (N x n, values in [0,1]) with integer labels."""

    X: np.ndarray
    y: np.ndarray
    name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        with np.errstate(invalid="ignore"):  # a nan or huge label casts to junk, refused below
            self.y = y.astype(np.int64)
        if not np.array_equal(self.y, y):
            raise ValueError("labels must be integers")
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError(f"y shape {self.y.shape} does not match {self.X.shape[0]} samples")
        if 0 in self.X.shape:
            raise ValueError(f"empty dataset: X has shape {self.X.shape}")
        if not np.isfinite(self.X).all():
            raise ValueError("non-finite features")
        if self.X.min() < 0.0 or self.X.max() > 1.0:
            raise ValueError("features must lie in [0,1]")
        if self.y.min() < 0:
            raise ValueError("labels must be >= 0")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1

    def check_model(self, input_dim: int, n_outputs: int) -> None:
        """Refuse data that a model with input_dim inputs and n_outputs logits cannot take."""
        if self.n_features != input_dim:
            raise ValueError(f"dataset has {self.n_features} features but the model has input dim {input_dim}")
        if self.n_classes > n_outputs:
            raise ValueError(f"dataset has {self.n_classes} classes but the model outputs {n_outputs}")


def gen_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    seed: int,
    spread: float = 0.06,
) -> LabeledDataset:
    """Balanced gaussian blobs in [0,1]^n, clipped.

    Class centers are kept at least 5*spread apart in L2 so the task is
    cleanly separable at the default spread.
    """
    if n_samples < n_classes or n_classes < 2 or n_features < 1:
        raise ValueError("need n_samples >= n_classes >= 2 and n_features >= 1")
    rng = np.random.default_rng(seed)
    min_dist = 5.0 * spread
    for _ in range(200):
        centers = rng.uniform(0.25, 0.75, size=(n_classes, n_features))
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        d[np.diag_indices(n_classes)] = np.inf
        if d.min() >= min_dist:
            break
    counts = [n_samples // n_classes + (1 if c < n_samples % n_classes else 0) for c in range(n_classes)]
    xs, ys = [], []
    for c, cnt in enumerate(counts):
        xs.append(centers[c] + rng.normal(0.0, spread, size=(cnt, n_features)))
        ys.append(np.full(cnt, c))
    X = np.clip(np.concatenate(xs), 0.0, 1.0)
    y = np.concatenate(ys)
    perm = rng.permutation(n_samples)
    return LabeledDataset(X[perm], y[perm], name="blobs", meta={"seed": seed, "spread": spread})


def gen_subspace_task(
    n_samples: int,
    n_features: int,
    intrinsic_dim: int,
    n_classes: int,
    seed: int,
) -> LabeledDataset:
    """Classification task whose samples span an exact low-dimensional subspace.

    Points are linear combinations of ``intrinsic_dim`` orthonormal ambient
    directions, the first being the all-ones direction with coefficient near
    sqrt(n)/2; the remaining coefficients are small enough that every
    coordinate stays inside (0,1) with no clipping.  The centered and
    uncentered numerical ranks of X both equal intrinsic_dim (for
    n_samples > intrinsic_dim).
    """
    if n_samples < n_classes or n_classes < 2 or n_features < 1:
        raise ValueError("need n_samples >= n_classes >= 2 and n_features >= 1")
    if not (1 <= intrinsic_dim <= n_features):
        raise ValueError("need 1 <= intrinsic_dim <= n_features")
    rng = np.random.default_rng(seed)
    n, d = n_features, intrinsic_dim
    # orthonormal basis whose first column is the normalized all-ones vector
    u1 = np.ones(n) / np.sqrt(n)
    M = np.concatenate([u1[:, None], rng.standard_normal((n, d - 1))], axis=1) if d > 1 else u1[:, None]
    Q, _ = np.linalg.qr(M)
    Q[:, 0] = np.sign(Q[0, 0]) * Q[:, 0]  # QR may flip; keep +u1

    # per-class centers in coefficient space: big stable first coordinate,
    # well-separated small offsets elsewhere
    centers = np.zeros((n_classes, d))
    centers[:, 0] = np.sqrt(n) * (0.5 + rng.uniform(-0.015, 0.015, size=n_classes))
    if d > 1:
        off = rng.standard_normal((n_classes, d - 1))
        off /= np.linalg.norm(off, axis=1, keepdims=True)
        centers[:, 1:] = 0.22 * off
    else:
        centers[:, 0] = np.sqrt(n) * (0.5 + 0.03 * (np.arange(n_classes) - (n_classes - 1) / 2.0) / max(1, n_classes - 1))

    counts = [n_samples // n_classes + (1 if c < n_samples % n_classes else 0) for c in range(n_classes)]
    coeffs, ys = [], []
    for c, cnt in enumerate(counts):
        noise = rng.normal(0.0, 0.03, size=(cnt, d))
        nrm = np.linalg.norm(noise, axis=1, keepdims=True)
        noise *= np.minimum(1.0, 0.10 / np.maximum(nrm, 1e-30))
        coeffs.append(centers[c] + noise)
        ys.append(np.full(cnt, c))
    C = np.concatenate(coeffs)
    X = C @ Q.T
    y = np.concatenate(ys)
    perm = rng.permutation(n_samples)
    return LabeledDataset(
        X[perm],
        y[perm],
        name="subspace",
        meta={"seed": seed, "intrinsic_dim": d},
    )


# ---------------------------------------------------------------------------
# JSON round-trip


def dataset_to_json(ds: LabeledDataset) -> str:
    doc = {
        "version": DATASET_FORMAT_VERSION,
        "name": ds.name,
        "X": ds.X.tolist(),
        "y": ds.y.tolist(),
        "meta": ds.meta,
    }
    return json.dumps(doc)


def dataset_from_json(text: str) -> LabeledDataset:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError("dataset document must be a JSON object")
    if doc.get("version") != DATASET_FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {doc.get('version')!r}")
    for key in ("X", "y"):
        if key not in doc:
            raise ValueError(f"dataset document missing {key!r}")
    y, name, meta = doc["y"], doc.get("name", ""), doc.get("meta", {})
    if not isinstance(y, list) or not all(type(v) is int for v in y):
        raise ValueError("labels must be a list of integers")
    if not isinstance(name, str) or not isinstance(meta, dict):
        raise ValueError("dataset name must be a string and meta an object")
    try:
        return LabeledDataset(np.array(doc["X"], dtype=np.float64), np.array(y, dtype=np.int64),
                              name=name, meta=meta)
    except (TypeError, OverflowError) as e:  # a non-numeric feature, a label beyond int64
        raise ValueError(f"malformed dataset entry: {e}") from e


@contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Open path for writing text through a temp file beside it, which
    replaces path only when the block completes: a block that raises leaves
    no partial or temp file, and an existing file keeps its old content.
    Failing to open or rename the temp file is reported against path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    """The header, then each row (a list of strings), as CSV through ``atomic_open``."""
    with atomic_open(path, newline="") as f:
        csv.writer(f).writerows([header, *rows])


def save_dataset(ds: LabeledDataset, path: str) -> None:
    with atomic_open(path) as f:
        f.write(dataset_to_json(ds) + "\n")


def load_dataset(path: str) -> LabeledDataset:
    with open(path) as f:
        return dataset_from_json(f.read())


# ---------------------------------------------------------------------------
# IDX (big-endian binary image/label format)


def _read_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise IdxFormatError(f"{path}: truncated header", offset)
    return struct.unpack(">I", buf[offset : offset + 4])[0]


def read_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load an IDX image/label pair, scaling pixels to [0,1] by /255.

    Images are flattened row-major to N x (rows*cols).  Raises
    IdxFormatError (with the offending byte offset) on bad magic numbers,
    truncated payloads, or an image/label count mismatch.
    """
    with open(images_path, "rb") as f:
        ibuf = f.read()
    with open(labels_path, "rb") as f:
        lbuf = f.read()

    magic = _read_u32(ibuf, 0, images_path)
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(f"{images_path}: bad image magic 0x{magic:08x}", 0)
    n_img = _read_u32(ibuf, 4, images_path)
    rows = _read_u32(ibuf, 8, images_path)
    cols = _read_u32(ibuf, 12, images_path)
    need = 16 + n_img * rows * cols
    if len(ibuf) != need:
        raise IdxFormatError(
            f"{images_path}: payload has {len(ibuf) - 16} bytes, header promises {n_img * rows * cols}",
            min(len(ibuf), need),
        )

    magic = _read_u32(lbuf, 0, labels_path)
    if magic != IDX_LABELS_MAGIC:
        raise IdxFormatError(f"{labels_path}: bad label magic 0x{magic:08x}", 0)
    n_lab = _read_u32(lbuf, 4, labels_path)
    if len(lbuf) != 8 + n_lab:
        raise IdxFormatError(
            f"{labels_path}: payload has {len(lbuf) - 8} bytes, header promises {n_lab}",
            min(len(lbuf), 8 + n_lab),
        )

    if n_img != n_lab:
        raise IdxFormatError(f"{images_path}: {n_img} images vs {n_lab} labels", 4)

    X = np.frombuffer(ibuf, dtype=np.uint8, offset=16).astype(np.float64).reshape(n_img, rows * cols) / 255.0
    y = np.frombuffer(lbuf, dtype=np.uint8, offset=8).astype(np.int64)
    return LabeledDataset(X, y, name="idx", meta={"rows": int(rows), "cols": int(cols)})
