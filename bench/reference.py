"""Reference computations for checking advparam outputs.

Written apart from ``src/advparam``: only numpy and the documented file
formats are used (model JSON ``{"version", "dims", "layers": [{"w", "b"}]}``,
dataset JSON ``{"version", "X", "y"}``), never the package's own code.  The
Jacobian is built front to back with batched matrix products, while the
package builds it back to front one sample at a time, so agreement between
the two is not a shared-code artefact.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Gradient-gap norms below this count as "no gradient" (the first-order
# radius treats that class as unreachable), as documented for approx_radius.
GRAD_GAP_TOL = 1e-12


def load_model(path: str) -> tuple[list[np.ndarray], list[np.ndarray]]:
    with open(path) as f:
        doc = json.load(f)
    ws = [np.array(layer["w"], dtype=np.float64) for layer in doc["layers"]]
    bs = [np.array(layer["b"], dtype=np.float64) for layer in doc["layers"]]
    return ws, bs


def save_model(ws, bs, path: str) -> None:
    doc = {"version": 1, "dims": [ws[0].shape[1]] + [w.shape[0] for w in ws],
           "layers": [{"w": w.tolist(), "b": b.tolist()} for w, b in zip(ws, bs)]}
    with open(path, "w") as f:
        json.dump(doc, f)


def load_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as f:
        doc = json.load(f)
    return np.array(doc["X"], dtype=np.float64), np.array(doc["y"], dtype=np.int64)


def forward(ws, bs, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits and the 0/1 masks of the hidden layers (1 where z > 0)."""
    h = np.asarray(X, dtype=np.float64)
    masks = []
    for w, b in zip(ws[:-1], bs[:-1]):
        z = h @ w.T + b
        masks.append(z > 0.0)
        h = np.maximum(z, 0.0)
    return h @ ws[-1].T + bs[-1], masks


def predict(ws, bs, X) -> np.ndarray:
    """argmax of the logits, smallest index on ties."""
    return np.argmax(forward(ws, bs, X)[0], axis=1)


def accuracy(ws, bs, X, y) -> float:
    return float((predict(ws, bs, X) == y).mean())


def input_jacobians(ws, bs, X) -> tuple[np.ndarray, np.ndarray]:
    """Logits (N x m) and d logits / d x for every sample (N x m x n)."""
    logits, masks = forward(ws, bs, X)
    n_samples = logits.shape[0]
    J = np.broadcast_to(ws[0], (n_samples,) + ws[0].shape)
    for mask, w in zip(masks, ws[1:]):
        J = np.matmul(w, mask[:, :, None] * J)
    return logits, J


def _gaps(logits, J, y):
    """Logit gaps F_y - F_l and gradient gaps J_y - J_l, class y masked out."""
    idx = np.arange(len(y))
    gap = logits[idx, y][:, None] - logits
    gd = J[idx, y][:, None, :] - J
    other = np.ones_like(gap, dtype=bool)
    other[idx, y] = False
    return gap, gd, other


def linf_radii(logits, J, y) -> np.ndarray:
    """First-order L-inf robustness radius per sample.

    min over other classes of gap / ||grad gap||_1; 0 for a misclassified
    sample or a non-positive gap; classes with a vanishing gradient gap are
    skipped, and a sample with none left gets inf.
    """
    gap, gd, other = _gaps(logits, J, y)
    denom = np.abs(gd).sum(axis=2)
    usable = other & (denom >= GRAD_GAP_TOL)
    ratio = np.where(usable, gap / np.where(usable, denom, 1.0), np.inf)
    radii = ratio.min(axis=1)
    zero = (np.argmax(logits, axis=1) != y) | ((gap <= 0.0) & other).any(axis=1)
    return np.where(zero, 0.0, radii)


def mean_finite(radii: np.ndarray) -> float:
    finite = radii[np.isfinite(radii)]
    return float(finite.mean()) if finite.size else math.inf


def dist_measure(logits, J, y) -> float:
    """Mean over samples of min_l gated gap^2, over mean of max_l ||grad gap||_2^2."""
    gap, gd, other = _gaps(logits, J, y)
    terms = np.where(other, np.where(gap > 0.0, gap * gap, 0.0), np.inf).min(axis=1)
    gnorms = np.where(other, (gd * gd).sum(axis=2), -np.inf).max(axis=1)
    den = float(gnorms.mean())
    return math.nan if den == 0.0 else float(terms.mean()) / den


# ---------------------------------------------------------------------------
# rates


def untargeted_rate(base_acc, base_rob, att_acc, att_rob, gamma_low=0.9):
    """(value, failed): min(acc ratio, 1) * (1 - min(rob ratio, 1)); failed
    when the accuracy ratio drops below gamma_low; nan when the base net has
    no accuracy or no robustness."""
    if not (base_acc > 0.0 and base_rob > 0.0 and math.isfinite(base_acc) and math.isfinite(base_rob)):
        return math.nan, True
    g1, g2 = att_acc / base_acc, att_rob / base_rob
    return min(g1, 1.0) * (1.0 - min(g2, 1.0)), g1 < gamma_low


def targeted_rate(kind, base_acc, base_rob, att_acc, att_rob, att_aux, gamma_low=0.9):
    """(value, failed) of the label, direct and single rates."""
    if kind == "single":
        if not (base_rob > 0.0 and math.isfinite(base_rob)):
            return math.nan, True
        return 1.0 - min(att_rob / base_rob, 1.0), False
    if not (base_acc > 0.0 and base_rob > 0.0):
        return math.nan, True
    g1, g2 = att_acc / base_acc, att_rob / base_rob
    g3 = att_aux / (base_rob if kind == "label" else base_acc)
    return min(g1, 1.0) * min(g2, 1.0) * (1.0 - min(g3, 1.0)), g1 < gamma_low


def same_value(a: float, b: float, rel: float = 1e-12, abs_tol: float = 1e-12) -> bool:
    """Equal within tolerance; nan matches nan and inf matches only itself."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# parameter checks on model files


def outside_box(base, att, half_width) -> list[str]:
    """Entries of att farther from base than half_width(base) allows.

    ``half_width`` maps a base array to its elementwise half-widths, e.g.
    gamma * |theta| for the relative box or a constant for an absolute one.
    A relative slack of 1e-9 absorbs rounding in how the box is applied.
    """
    bad = []
    for kind, xs, ys in (("weight", base[0], att[0]), ("bias", base[1], att[1])):
        for layer, (b, a) in enumerate(zip(xs, ys)):
            if a.shape != b.shape:
                bad.append(f"{kind} {layer}: shape {a.shape} != {b.shape}")
                continue
            n_out = int((np.abs(a - b) > half_width(b) * (1.0 + 1e-9)).sum())
            if n_out:
                bad.append(f"{kind} {layer}: {n_out} entries outside the box")
    return bad


def swap_problems(base, att, max_touched: int) -> list[str]:
    """A swap attack may permute the entries of at most max_touched weight
    matrices; everything else, biases included, must be bit-identical."""
    bad = []
    touched = [l for l, (b, a) in enumerate(zip(base[0], att[0])) if not np.array_equal(a, b)]
    if len(touched) > max_touched:
        bad.append(f"{len(touched)} weight matrices changed, budget allows {max_touched}")
    for l in touched:
        a, b = att[0][l], base[0][l]
        if a.shape != b.shape or not np.array_equal(np.sort(a, axis=None), np.sort(b, axis=None)):
            bad.append(f"weight {l}: multiset of entries changed")
    for l, (b, a) in enumerate(zip(base[1], att[1])):
        if not np.array_equal(a, b):
            bad.append(f"bias {l} changed")
    return bad
