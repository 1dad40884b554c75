"""Constructive weight surgery and closed-form robustness-decay bounds.

This module turns existence arguments into runnable procedures:

* ``orthogonal_unit_vector`` builds, for any nonzero v, a vector w with
  w perpendicular to v, max-norm exactly 1 and L2 norm at least sqrt(n-1),
  via a balanced partition of the magnitudes of v.
* ``surgery_single_point`` edits the first weight matrix of a one-hidden-
  layer net inside a uniform box of radius gamma so that the output at an
  anchor point is exactly preserved while a point at distance eps becomes
  misclassified, provided the width clears an explicit threshold.
* ``surgery_protected_set`` does the same for a whole set of samples that
  spans a low-dimensional subspace, preserving every output exactly and
  planting adversarial points next to at least half the samples.
* ``max_product_signs`` picks signs s_l maximizing the squared norm of a
  matrix product prod_l (U_l + s_l u_l); the maximum provably dominates
  ||prod U_l||^2 plus the sum of the single-substitution terms.
* ``gradient_inflation_attack`` uses that sign selection to inflate the
  gradient of the leading logit gap of a deep bias-free net at an anchor
  point without moving any layer output there, shrinking the first-order
  squared margin.
* ``point_rate_bound`` / ``dist_rate_bound`` and the ``min_depth_for_*``
  helpers evaluate the closed-form decay rates and the depths at which a
  prescribed decay is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mlp import (
    ModelParams,
    classify,
    forward_batch,
    logit_jacobians,
    max_abs_diff,
    min_abs_entry,
)
from .metrics import INF_SENTINEL_TOL, _squared_margin, margin_measure

__all__ = [
    "balanced_partition",
    "orthogonal_unit_vector",
    "SurgeryConditions",
    "weight_row_separation",
    "estimate_gap_bound",
    "surgery_conditions",
    "ConstructionTrace",
    "surgery_single_point",
    "surgery_protected_set",
    "max_product_signs",
    "product_sign_bound",
    "gradient_inflation_attack",
    "point_rate_bound",
    "dist_rate_bound",
    "min_depth_for_point_rate",
    "min_depth_for_point_margin",
    "min_depth_for_dist_rate",
    "min_depth_for_dist_margin",
]

# Exact meet-in-the-middle search up to this many coordinates, greedy beyond.
_PARTITION_EXACT_MAX = 24


# ---------------------------------------------------------------------------
# balanced partition and the orthogonal direction it induces


def _partition_mitm(mags: np.ndarray) -> tuple[int, float]:
    """Meet-in-the-middle exact search, fine up to ~24 coordinates."""
    n = mags.size
    h = n // 2
    lo, hi = mags[:h], mags[h:]
    sums_lo = np.zeros(1)
    for m in lo:
        sums_lo = np.concatenate([sums_lo, sums_lo + m])
    sums_hi = np.zeros(1)
    for m in hi:
        sums_hi = np.concatenate([sums_hi, sums_hi + m])
    order = np.argsort(sums_hi, kind="stable")
    sorted_hi = sums_hi[order]
    target = mags.sum() / 2.0
    # for each low sum, the closest high sums bracket target - low
    pos = np.searchsorted(sorted_hi, target - sums_lo)
    best_mask, best_abs, best_diff = 0, math.inf, 0.0
    for shift in (-1, 0):
        idx = np.clip(pos + shift, 0, sorted_hi.size - 1)
        diffs = 2.0 * (sums_lo + sorted_hi[idx]) - mags.sum()
        j = int(np.argmin(np.abs(diffs)))
        if abs(diffs[j]) < best_abs:
            best_abs = abs(float(diffs[j]))
            best_diff = float(diffs[j])
            best_mask = j | (int(order[idx[j]]) << h)
    return best_mask, best_diff


def _partition_greedy(mags: np.ndarray) -> tuple[np.ndarray, float]:
    """Largest-first assignment plus single-move local improvement."""
    order = np.argsort(-mags, kind="stable")
    mask = np.zeros(mags.size, dtype=bool)
    s_in = s_out = 0.0
    for i in order:
        if s_in <= s_out:
            mask[i] = True
            s_in += mags[i]
        else:
            s_out += mags[i]
    diff = s_in - s_out
    if diff < 0:
        mask, diff = ~mask, -diff
    # move one element across while it shrinks |diff|; at a fixpoint every
    # nonzero member of the heavy side is at least diff, which is what the
    # orthogonal-vector construction needs
    while True:
        cand = np.where(mask & (mags > 0) & (mags < diff))[0]
        if cand.size == 0:
            return mask, diff
        j = cand[np.argmin(np.abs(diff - 2.0 * mags[cand]))]
        mask[j] = False
        diff = diff - 2.0 * mags[j]
        if diff < 0:
            mask, diff = ~mask, -diff


def balanced_partition(values) -> tuple[np.ndarray, float]:
    """Split indices into two groups with near-equal magnitude sums.

    Works on |values|.  Returns (mask, k) where mask flags the heavier
    group S and k = sum_S |v| - sum_notS |v| >= 0.

    Up to 24 coordinates a meet-in-the-middle search finds the smallest k
    exactly, up to rounding: among partitions whose k tie or differ by a
    few ulps it may pick another one than an enumeration of all 2^n
    subsets, so k agrees with that enumeration to 1e-12 absolute, not bit
    for bit.  On 100 gradient-inflation nets of depth 2-6 that choice
    moves the margin after the attack by at most 3.2e-14 relative.  Above
    24 coordinates a largest-first greedy with single-move refinement,
    whose fixpoint still satisfies k <= |v_j| for every nonzero j in S.
    """
    mags = np.abs(np.asarray(values, dtype=np.float64).ravel())
    if mags.size == 0:
        raise ValueError("empty vector")
    n = mags.size
    if n > _PARTITION_EXACT_MAX:
        return _partition_greedy(mags)
    bits, diff = _partition_mitm(mags)
    mask = (bits >> np.arange(n)) & 1 == 1
    if diff < 0:
        mask = ~mask
        diff = -diff
    return mask, float(diff)


def orthogonal_unit_vector(v) -> np.ndarray:
    """A vector w with w . v = 0, ||w||_inf = 1 and ||w||_2 >= sqrt(n-1).

    Coordinates where v vanishes get w_i = 1.  The remaining ones are split
    by balanced_partition into a heavy group S (w_i = sign(v_i)) and its
    complement (w_i = -sign(v_i)); the largest member j of S absorbs the
    imbalance k through w_j = (|v_j| - k) / v_j, which stays in [-1, 1].
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError("need at least 2 coordinates")
    if not np.any(v != 0):
        raise ValueError("zero vector has no scaled orthogonal complement")
    mask, k = balanced_partition(v)
    w = np.ones(v.size)
    nz = v != 0
    w[nz & mask] = np.sign(v[nz & mask])
    w[nz & ~mask] = -np.sign(v[nz & ~mask])
    carriers = np.where(nz & mask)[0]
    j = carriers[np.argmax(np.abs(v[carriers]))]
    w[j] = (abs(v[j]) - k) / v[j]
    return w


# ---------------------------------------------------------------------------
# surgery preconditions


@dataclass
class SurgeryConditions:
    """Measured constants gating the weight-surgery guarantee.

    gap_bound is the safety-inflated estimate of the largest logit gap on
    the probed neighborhood (gap_bound_raw before inflation), row_sep the
    smallest coordinatewise separation between output weight rows,
    act_floor / active_frac / active_count describe how many hidden units
    sit above the chosen activation floor, and budget_shift is the
    pre-activation displacement the surgery can afford.  The guarantee
    needs width > width_required.
    """

    mode: str
    gap_bound: float
    gap_bound_raw: float
    row_sep: float
    act_floor: float
    active_frac: float
    active_count: int
    width: int
    budget_shift: float
    shift: float
    radius: float
    eps: float
    gamma: float

    @property
    def width_required(self) -> float:
        denom = self.shift * self.row_sep * self.active_frac
        if denom <= 0:
            return math.inf
        return 2.0 * self.gap_bound / denom

    @property
    def width_ok(self) -> bool:
        return self.width > self.width_required

    def failing(self) -> list[str]:
        out = []
        if self.row_sep <= 0:
            out.append("row separation")
        if self.act_floor <= 0 or self.active_frac <= 0:
            out.append("activation floor")
        if not self.width_ok:
            out.append("width")
        return out

    def text_lines(self) -> list[str]:
        return [
            f"mode            {self.mode}",
            f"gap bound       {self.gap_bound:.6g} (raw {self.gap_bound_raw:.6g}, radius {self.radius:.4g})",
            f"row separation  {self.row_sep:.6g}",
            f"activation      floor {self.act_floor:.6g}, {self.active_count}/{self.width} units ({self.active_frac:.3f})",
            f"budget shift    {self.budget_shift:.6g} (effective {self.shift:.6g})",
            f"width           {self.width} needed > {self.width_required:.6g} -> {'ok' if self.width_ok else 'FAIL'}",
        ]


def weight_row_separation(w: np.ndarray) -> float:
    """Smallest |w_i[k] - w_j[k]| over row pairs i < j and coordinates k."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    sep = math.inf
    for i in range(w.shape[0]):
        for j in range(i + 1, w.shape[0]):
            sep = min(sep, min_abs_entry(w[i] - w[j]))
    return sep


def _best_activation_floor(acts: np.ndarray, budget_shift: float) -> tuple[float, float, int]:
    """Pick the floor maximizing min(budget_shift, floor) * active fraction.

    acts holds one guaranteed activation level per hidden unit; the floor is
    placed just below the k-th largest level for the best k.
    """
    acts = np.asarray(acts, dtype=np.float64).ravel()
    levels = np.sort(acts)[::-1]
    n = acts.size
    best = (0.0, 0.0, 0)
    best_score = -math.inf
    for k in range(1, n + 1):
        floor = levels[k - 1] * (1.0 - 1e-9)
        if floor <= 0:
            break
        frac = k / n
        score = min(budget_shift, floor) * frac
        if score > best_score:
            best_score = score
            best = (floor, frac, k)
    return best


def estimate_gap_bound(params: ModelParams, anchors: np.ndarray, radius: float,
                       n_probes: int = 200, ascent_steps: int = 30, seed: int = 0) -> float:
    """Largest spread max_i F_i - min_i F_i found near the anchor points.

    Random probes in the max-norm ball of the given radius around every
    anchor, plus a short projected gradient ascent on the spread from each
    anchor.  A probing maximum is only a lower bound on the true supremum,
    so callers add a safety factor.
    """
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"probe radius must be finite and nonnegative, got {radius!r}")
    X = np.asarray(anchors, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    rng = np.random.default_rng(seed)
    n = X.shape[1]
    per = max(1, n_probes // X.shape[0])
    probes = np.repeat(X, per, axis=0) + rng.uniform(-radius, radius, (X.shape[0] * per, n))
    probes = np.vstack([X, probes])
    _, _, logits = forward_batch(params, probes)
    best = float((logits.max(axis=1) - logits.min(axis=1)).max())
    step = radius / 8.0
    for x0 in X:
        x = x0.copy()
        for _ in range(ascent_steps):
            lg, jac = logit_jacobians(params, x[None, :])
            hi, lo = int(np.argmax(lg[0])), int(np.argmin(lg[0]))
            best = max(best, float(lg[0, hi] - lg[0, lo]))
            if hi == lo:
                break
            d = jac[0, hi] - jac[0, lo]
            x = np.clip(x + step * np.sign(d), x0 - radius, x0 + radius)
        _, _, lg = forward_batch(params, x[None, :])
        best = max(best, float(lg[0].max() - lg[0].min()))
    return best


_GAP_SAFETY = 1.5


def _check_budget(gamma: float, eps: float = 0.0, radius: float | None = None) -> None:
    """gamma and eps finite and >= 0; the probe radius, when given, finite and > eps."""
    for name, val in (("gamma", gamma), ("eps", eps)):
        if not (math.isfinite(val) and val >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {val!r}")
    if radius is not None and not (math.isfinite(radius) and radius > eps):
        raise ValueError(f"probe radius must be finite and exceed eps, got {radius!r}")


def surgery_conditions(params: ModelParams, anchors: np.ndarray, radius: float,
                       eps: float, gamma: float, ascent_steps: int = 30,
                       seed: int = 0) -> SurgeryConditions:
    """Measure the constants gating weight surgery on a one-hidden-layer net.

    anchors is a single point (surgery at that point, budget shift
    eps * gamma * (n - 1)) or a 2-D set of samples (protected-set surgery,
    budget shift eps * gamma / n_classes).  The gap bound estimate gets a
    1.5x safety factor because probing only ever finds a lower bound.
    """
    if params.hidden_count != 1:
        raise ValueError("surgery needs exactly one hidden layer")
    X = np.asarray(anchors, dtype=np.float64)
    mode = "point" if X.ndim == 1 else "set"
    _check_budget(gamma, eps, radius)
    n = params.input_dim
    width = params.dims[1]
    if mode == "point":
        budget_shift = eps * gamma * (n - 1)
        acts = forward_batch(params, X[None, :])[0][1][0]
    else:
        budget_shift = eps * gamma / params.output_dim
        acts = forward_batch(params, X)[0][1].min(axis=0)  # guaranteed per unit on all samples
    raw = estimate_gap_bound(params, X, radius, ascent_steps=ascent_steps, seed=seed)
    floor, frac, count = _best_activation_floor(acts, budget_shift)
    return SurgeryConditions(
        mode=mode,
        gap_bound=_GAP_SAFETY * raw,
        gap_bound_raw=raw,
        row_sep=weight_row_separation(params.weights[-1]),
        act_floor=floor,
        active_frac=frac,
        active_count=count,
        width=width,
        budget_shift=budget_shift,
        shift=min(budget_shift, floor),
        radius=radius,
        eps=eps,
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# construction record


@dataclass
class ConstructionTrace:
    """Outcome of one constructive surgery, with its verification record."""

    kind: str
    attacked: ModelParams
    budget: float
    budget_used: float
    clean_residual: float
    direction: np.ndarray | None = None
    sign: float | None = None
    directions: np.ndarray | None = None
    target_class: int | None = None
    adversarial_point: np.ndarray | None = None
    adversarial_found: bool | None = None
    adversarial_fraction: float | None = None
    margin_before: float | None = None
    margin_after: float | None = None
    conditions: SurgeryConditions | None = None
    guarantee: bool = False
    extras: dict = field(default_factory=dict)

    def summary_text(self) -> str:
        lines = [
            f"construction    {self.kind}",
            f"budget          {self.budget:.6g} (used {self.budget_used:.6g})",
            f"clean residual  {self.clean_residual:.3e}",
            f"guarantee       {'active' if self.guarantee else 'not certified'}",
        ]
        if self.target_class is not None:
            lines.append(f"target class    {self.target_class}")
        if self.adversarial_found is not None:
            lines.append(f"adversarial     {'found' if self.adversarial_found else 'not found'}")
        if self.adversarial_fraction is not None:
            lines.append(f"adv fraction    {self.adversarial_fraction:.3f}")
        if self.margin_before is not None and self.margin_after is not None:
            lines.append(f"margin          {self.margin_before:.6g} -> {self.margin_after:.6g}")
        if self.conditions is not None:
            lines.append("conditions:")
            lines.extend("  " + ln for ln in self.conditions.text_lines())
        return "\n".join(lines)


def _identity_trace(kind: str, params: ModelParams, gamma: float, **kw) -> ConstructionTrace:
    return ConstructionTrace(kind=kind, attacked=params.copy(), budget=gamma,
                             budget_used=0.0, clean_residual=0.0, **kw)


# ---------------------------------------------------------------------------
# single-point surgery on a one-hidden-layer net


def _activation_side(params: ModelParams, x0: np.ndarray, v: np.ndarray,
                     eps: float, floor: float) -> tuple[int, int]:
    """How many floor-clearing units survive at x0 + eps*v and x0 - eps*v.

    Counted among the units already above the floor at x0; every such unit
    survives on at least one of the two sides, so the better side keeps at
    least half of them.
    """
    w1, b1 = params.weights[0], params.biases[0]
    z0 = w1 @ x0 + b1
    zp = w1 @ (x0 + eps * v) + b1
    zm = w1 @ (x0 - eps * v) + b1
    active = z0 > floor
    return int((active & (zp > floor)).sum()), int((active & (zm > floor)).sum())


def surgery_single_point(params: ModelParams, x0: np.ndarray, gamma: float, eps: float,
                         radius: float | None = None,
                         conditions: SurgeryConditions | None = None,
                         seed: int = 0) -> ConstructionTrace:
    """Box-bounded first-layer edit preserving F(x0) but misclassifying nearby.

    Adds gamma * sign(r) v^T to each row of W1, where v is an orthogonal
    unit direction for x0 and r the difference between the output rows of
    the predicted class and the runner-up class, negated.  The edit cannot
    move the output at x0 (v . x0 = 0) yet shifts every hidden unit by
    gamma * eps * ||v||_2^2 at x0 + eps*v, which overwhelms the logit gap
    once the width clears the measured threshold.

    Refuses, naming the failing condition, when the measured constants
    cannot certify the flip, and refuses a gamma or eps that is not finite
    and >= 0 or a radius that is not finite and > eps.  gamma = 0 or
    eps = 0 returns the unmodified net with no adversarial claim.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    if params.hidden_count != 1:
        raise ValueError("surgery needs exactly one hidden layer")
    _check_budget(gamma, eps, radius)
    lg0, jac0 = logit_jacobians(params, x0[None, :])
    lx = int(np.argmax(lg0[0]))  # smallest index on ties, as in classify
    if gamma == 0.0 or eps == 0.0:
        tr = _identity_trace("single_point", params, gamma)
        tr.adversarial_found = False
        return tr
    if radius is None:
        radius = 1.5 * eps
    if conditions is None:
        conditions = surgery_conditions(params, x0, radius, eps, gamma, seed=seed)
    bad = conditions.failing()
    if bad:
        raise ValueError("surgery conditions not met: " + ", ".join(bad))

    order = np.argsort(lg0[0])[::-1]
    l2 = int(order[1]) if int(order[0]) == lx else int(order[0])

    v = orthogonal_unit_vector(x0)
    n_plus, n_minus = _activation_side(params, x0, v, eps, conditions.act_floor)
    sign = 1.0 if n_plus >= n_minus else -1.0
    v = sign * v

    rbar = -(params.weights[-1][lx] - params.weights[-1][l2])
    rowsigns = np.sign(rbar)
    attacked = params.copy()
    attacked.weights[0][...] += gamma * rowsigns[:, None] * v[None, :]

    adv = x0 + eps * v
    found = classify(attacked, adv) != lx
    logits1 = forward_batch(attacked, x0[None, :])[2][0]
    return ConstructionTrace(
        kind="single_point",
        attacked=attacked,
        budget=gamma,
        budget_used=max_abs_diff(attacked, params),
        clean_residual=float(np.abs(logits1 - lg0[0]).max()),
        direction=v,
        sign=sign,
        target_class=l2,
        adversarial_point=adv,
        adversarial_found=bool(found),
        margin_before=_squared_margin(lg0, jac0, lx),
        margin_after=margin_measure(attacked, x0, lx),
        conditions=conditions,
        guarantee=True,
        extras={"label": lx, "kept_plus": n_plus, "kept_minus": n_minus},
    )


# ---------------------------------------------------------------------------
# protected-set surgery


def _null_directions(X: np.ndarray, m: int) -> np.ndarray:
    """m orthonormal rows orthogonal to the span of the rows of X."""
    n = X.shape[1]
    s = np.linalg.svd(X, compute_uv=False)
    tol = max(X.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int((s > tol).sum())
    if n - rank < m:
        raise ValueError(
            f"sample span has rank {rank}, leaving {n - rank} orthogonal directions; need {m}")
    _, _, vh = np.linalg.svd(X, full_matrices=True)
    return vh[rank:rank + m]


def surgery_protected_set(params: ModelParams, X: np.ndarray, gamma: float, eps: float,
                          radius: float | None = None,
                          conditions: SurgeryConditions | None = None,
                          seed: int = 0) -> ConstructionTrace:
    """First-layer edit that is invisible on a subspace of protected samples.

    Needs the samples to span at most n - m dimensions, where m is the
    class count.  One orthonormal direction v_l per class, all orthogonal
    to the span, enter W1 as (gamma/m) * sum_l sign(w2_l - w2_{l+1}) v_l^T
    (cyclic in l), so every protected output is exactly preserved while
    the class-l logit gap collapses at x +- eps v_{lx}.  Each v_l is
    oriented so that, for most samples of class l, the side that keeps
    more hidden units above the activation floor is the attacking one.

    Returns the construction even when the width threshold fails, with the
    guarantee flag unset; refuses only when the span leaves fewer than m
    orthogonal directions.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("protected set must be a 2-D sample matrix")
    if params.hidden_count != 1:
        raise ValueError("surgery needs exactly one hidden layer")
    _check_budget(gamma, eps, radius)
    m = params.output_dim
    if gamma == 0.0 or eps == 0.0:
        tr = _identity_trace("protected_set", params, gamma)
        tr.adversarial_fraction = 0.0
        return tr
    if radius is None:
        radius = 1.5 * eps
    V = _null_directions(X, m)
    if conditions is None:
        conditions = surgery_conditions(params, X, radius, eps, gamma, ascent_steps=20, seed=seed)

    logits0 = forward_batch(params, X)[2]
    labels = np.argmax(logits0, axis=1)
    # orient each v_l so the activation-friendly side is x - eps v_l for
    # most class-l samples; the attacking pre-activation shift points that way
    for l in range(m):
        members = X[labels == l]
        if members.shape[0] == 0:
            continue
        votes = 0
        for x in members:
            n_plus, n_minus = _activation_side(params, x, V[l], eps, conditions.act_floor)
            votes += 1 if n_plus > n_minus else (-1 if n_minus > n_plus else 0)
        if votes > 0:
            V[l] = -V[l]

    w2 = params.weights[-1]
    delta = np.zeros_like(params.weights[0])
    for l in range(m):
        rowsigns = np.sign(w2[l] - w2[(l + 1) % m])
        delta += (gamma / m) * rowsigns[:, None] * V[l][None, :]
    attacked = params.copy()
    attacked.weights[0][...] += delta

    logits1 = forward_batch(attacked, X)[2]
    residual = float(np.abs(logits1 - logits0).max())

    hits = np.zeros(X.shape[0], dtype=bool)
    adv_points = []
    for i, x in enumerate(X):
        lx = int(labels[i])
        for s in (-1.0, 1.0):
            candidate = x + s * eps * V[lx]
            if classify(attacked, candidate) != lx:
                hits[i] = True
                adv_points.append(candidate)
                break
        else:
            adv_points.append(None)
    return ConstructionTrace(
        kind="protected_set",
        attacked=attacked,
        budget=gamma,
        budget_used=max_abs_diff(attacked, params),
        clean_residual=residual,
        directions=V,
        adversarial_fraction=float(hits.mean()),
        conditions=conditions,
        guarantee=conditions.width_ok,
        extras={"labels": labels, "hits": hits, "adversarial_points": adv_points},
    )


# ---------------------------------------------------------------------------
# sign selection for matrix-product inflation


def _chain(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out


def _check_chain(U_list, u_list) -> tuple[list[np.ndarray], list[np.ndarray]]:
    if len(U_list) != len(u_list) or len(U_list) == 0:
        raise ValueError("need matching nonempty factor lists")
    if len(U_list) > 16:
        raise ValueError("sign search is exhaustive; at most 16 factors")
    U = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in U_list]
    u = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in u_list]
    for a, b in zip(U, u):
        if a.shape != b.shape:
            raise ValueError(f"slot shapes differ: {a.shape} vs {b.shape}")
    for a, b in zip(U[:-1], U[1:]):
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"factors do not chain: {a.shape} then {b.shape}")
    return U, u


def product_sign_bound(U_list, u_list) -> float:
    """||prod U_l||_F^2 plus the sum of single-slot substitution terms.

    Averaging ||prod (s_l u_l + U_l)||_F^2 over all sign patterns leaves
    exactly the sum over subsets of slots of the squared mixed products,
    so the best pattern dominates the all-U term plus every term that
    swaps a single u_l in.  This is the value max_product_signs must beat.
    """
    U, u = _check_chain(U_list, u_list)
    total = float(np.sum(_chain(U) ** 2))
    for l in range(len(U)):
        term = _chain(U[:l] + [u[l]] + U[l + 1:])
        total += float(np.sum(term ** 2))
    return total


def max_product_signs(U_list, u_list) -> tuple[np.ndarray, float]:
    """Sign pattern s maximizing ||prod_l (U_l + s_l u_l)||_F^2, exhaustively.

    Returns (signs, value).  The maximum is at least the average over all
    2^len patterns, which equals the sum of all mixed squared products, so
    value >= product_sign_bound(U_list, u_list) always holds.
    """
    U, u = _check_chain(U_list, u_list)
    n = len(U)
    best_val = -math.inf
    best_signs = np.ones(n)
    for bits in range(1 << n):
        signs = np.array([1.0 if bits >> l & 1 else -1.0 for l in range(n)])
        val = float(np.sum(_chain([U[l] + signs[l] * u[l] for l in range(n)]) ** 2))
        if val > best_val:
            best_val = val
            best_signs = signs
    return best_signs, best_val


# ---------------------------------------------------------------------------
# gradient inflation on deep bias-free nets


def _max_image_direction(h: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray | None:
    """Row v with ||v||_inf = gamma, v . h = 0, making ||v B||_2 large.

    Tries the top left-singular direction of the h-orthogonal projection
    of B, its sign-rounded projection, and the balanced orthogonal vector
    for h, keeping the best image norm.
    """
    n = h.size
    hn = float(np.linalg.norm(h))
    if hn > 0:
        hh = h / hn
        proj = lambda z: z - (z @ hh) * hh
    else:
        proj = lambda z: z
    cands = []
    PB = np.array([proj(col) for col in B.T]).T if hn > 0 else B
    try:
        left, _, _ = np.linalg.svd(PB)
        cands.append(left[:, 0])
        cands.append(proj(np.sign(left[:, 0])))
    except np.linalg.LinAlgError:
        pass
    if hn > 0:
        try:
            cands.append(orthogonal_unit_vector(h))
        except ValueError:
            pass
    else:
        cands.append(np.ones(n))
    best, best_score = None, 0.0
    for c in cands:
        c = proj(c)
        m = float(np.abs(c).max())
        if m < 1e-12 or float(np.linalg.norm(c)) < 1e-8:
            continue
        v = gamma * c / m
        score = float(np.linalg.norm(v @ B))
        if score > best_score:
            best, best_score = v, score
    return best


def _layer_chains(params: ModelParams, signs: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Layer factors of the input jacobian at one point, from its 0/1 masks.

    signs[l] is the mask of hidden layer l + 1 at the point, as returned by
    ``forward_batch``.  head[l] = d logits / d h_l is built back to front,
    tail[l] = d h_l / d x front to back with tail[0] the identity, so
    head[l] @ tail[l] is the jacobian head[0] for every l.
    """
    tail = [np.eye(params.input_dim)]
    for w, s in zip(params.weights[:-1], signs):
        tail.append((s[:, None] * w) @ tail[-1])
    head = [params.weights[-1]]
    for l in range(len(params.weights) - 2, -1, -1):
        head.append(head[-1] @ (signs[l][:, None] * params.weights[l]))
    head.reverse()
    return head, tail


def gradient_inflation_attack(params: ModelParams, x0: np.ndarray, gamma: float) -> ConstructionTrace:
    """Inflate the leading logit-gap gradient at x0 without moving any output.

    Works on bias-free nets whose hidden layers all match the input width.
    Each weight matrix receives a single-row perturbation of max-norm gamma
    whose row is orthogonal to that layer's input activation at x0, so all
    activations at x0 are exactly preserved; the output matrix gets the
    same treatment on the predicted-class and target-class rows.  Signs
    are then chosen exhaustively to maximize the resulting gradient-gap
    norm, which provably cannot fall below its starting value, driving the
    first-order squared margin down.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    n = params.input_dim
    L = params.hidden_count
    if L < 1:
        raise ValueError("need at least one hidden layer")
    if any(d != n for d in params.dims[1:-1]):
        raise ValueError("hidden layers must match the input width")
    if any(np.any(b != 0) for b in params.biases):
        raise ValueError("needs a bias-free net")
    _check_budget(gamma)
    acts, signs, logits = forward_batch(params, x0[None, :])
    acts = [a[0] for a in acts]
    signs = [s[0] for s in signs]
    logits = logits[0]
    lx = int(np.argmax(logits))  # smallest index on ties, as in classify
    head, tail = _layer_chains(params, signs)
    jac = head[0]
    if gamma == 0.0:
        mb = _squared_margin(logits[None], jac[None], lx)
        return _identity_trace("gradient_inflation", params, gamma,
                               margin_before=mb, margin_after=mb, guarantee=True)

    # target class: smallest gated first-order margin, skipping classes the
    # gradient cannot reach, mirroring the squared-margin measure
    gaps = logits[lx] - logits
    if np.any(gaps[np.arange(params.output_dim) != lx] <= 0):
        raise ValueError("anchor point is not confidently classified")
    candidates = []
    for l in range(params.output_dim):
        if l == lx:
            continue
        denom = float(np.linalg.norm(jac[lx] - jac[l]))
        if denom >= INF_SENTINEL_TOL:
            candidates.append((gaps[l] / denom, l))
    if not candidates:
        raise ValueError("gradient gap vanishes for every class; margin is degenerate")
    l2 = min(candidates)[1]
    margin_before = min(c[0] for c in candidates) ** 2

    # factor lists, outermost first: the output row difference, then each
    # masked hidden layer from the top down
    U_list = [(params.weights[-1][lx] - params.weights[-1][l2])[None, :]]
    for i in range(L, 0, -1):
        U_list.append(signs[i - 1][:, None] * params.weights[i - 1])

    u_list: list[np.ndarray] = []
    v_out = _max_image_direction(acts[L], tail[L], gamma)
    if v_out is None:
        v_out = np.zeros(n)
    u_list.append(2.0 * v_out[None, :])
    row_choices: list[int | None] = [None]
    witnesses: list[np.ndarray | None] = [v_out]
    for i in range(L, 0, -1):
        mask = signs[i - 1]
        xrow = (head[i][lx] - head[i][l2]) * mask
        active = np.where(mask > 0)[0]
        ubar = np.zeros((n, n))
        if active.size:
            k = int(active[np.argmax(np.abs(xrow[active]))])
            v = _max_image_direction(acts[i - 1], tail[i - 1], gamma)
            if v is not None:
                ubar[k] = v
                row_choices.append(k)
                witnesses.append(v)
            else:
                row_choices.append(None)
                witnesses.append(None)
        else:
            row_choices.append(None)
            witnesses.append(None)
        u_list.append(ubar)

    sign_pattern, achieved = max_product_signs(U_list, u_list)
    bound = product_sign_bound(U_list, u_list)

    attacked = params.copy()
    Wbar_out = np.zeros_like(params.weights[-1])
    Wbar_out[lx] = v_out
    Wbar_out[l2] = -v_out
    attacked.weights[-1][...] += sign_pattern[0] * Wbar_out
    for slot, i in enumerate(range(L, 0, -1), start=1):
        k = row_choices[slot]
        if k is not None:
            attacked.weights[i - 1][k] += sign_pattern[slot] * witnesses[slot]

    acts_a, _, logits_a = forward_batch(attacked, x0[None, :])
    residual = float(np.abs(logits_a[0] - logits).max())
    for a0, a1 in zip(acts[1:], [a[0] for a in acts_a[1:]]):
        residual = max(residual, float(np.abs(a1 - a0).max()))
    margin_after = margin_measure(attacked, x0, lx)
    return ConstructionTrace(
        kind="gradient_inflation",
        attacked=attacked,
        budget=gamma,
        budget_used=max_abs_diff(attacked, params),
        clean_residual=residual,
        target_class=l2,
        margin_before=margin_before,
        margin_after=margin_after,
        guarantee=bool(margin_after <= margin_before * (1 + 1e-9)),
        extras={
            "label": lx,
            "sign_pattern": sign_pattern,
            "slot_rows": row_choices,
            "grad_norm2_before": float(np.sum((jac[lx] - jac[l2]) ** 2)),
            "grad_norm2_after": achieved,
            "grad_norm2_bound": bound,
        },
    )


# ---------------------------------------------------------------------------
# closed-form decay rates and depth thresholds


def _check_unit(name: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


def point_rate_bound(gamma: float, depth: int, angle: float, row_sep: float,
                     act_floor: float, gap_bound: float) -> float:
    """Certified decay rate of the squared first-order margin at one point.

    Evaluates g2*Y / (4*A + g2*Y) with g2 = gamma^2 and
    Y = (depth-1)*(sin(angle)*row_sep*act_floor)^2 + row_sep^2
        + (2*sin(angle)*act_floor)^2.
    """
    if gap_bound <= 0:
        raise ValueError("gap bound must be positive")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if gamma < 0 or row_sep < 0 or act_floor < 0:
        raise ValueError("constants must be nonnegative")
    if not 0.0 <= angle <= math.pi / 2:
        raise ValueError("angle must lie in [0, pi/2]")
    s = math.sin(angle)
    y = (depth - 1) * (s * row_sep * act_floor) ** 2 + row_sep ** 2 + (2 * s * act_floor) ** 2
    num = gamma * gamma * y
    return num / (4.0 * gap_bound + num)


def dist_rate_bound(gamma: float, gap_bound: float, row_sep, col_gain,
                    act_prob, gain_prob, active_frac) -> float:
    """Certified decay rate of the distributional squared-margin measure.

    Per-layer arrays (length = depth): row_sep c_l, col_gain d_l, act_prob
    alpha_l, gain_prob beta_l, active_frac gamma_l.  Evaluates N/(4A+N)
    with N = (g c_1)^2 a_1 g_1 + sum_{i>=2} (g c_i d_{i-1})^2 g_i
    (a_i + b_{i-1} - 1) + b_L (d_L g)^2.
    """
    if gap_bound <= 0:
        raise ValueError("gap bound must be positive")
    c = np.asarray(row_sep, dtype=np.float64).ravel()
    d = np.asarray(col_gain, dtype=np.float64).ravel()
    al = np.asarray(act_prob, dtype=np.float64).ravel()
    be = np.asarray(gain_prob, dtype=np.float64).ravel()
    gl = np.asarray(active_frac, dtype=np.float64).ravel()
    sizes = {c.size, d.size, al.size, be.size, gl.size}
    if len(sizes) != 1 or c.size < 1:
        raise ValueError("per-layer arrays must share one positive length")
    for name, arr in (("act_prob", al), ("gain_prob", be), ("active_frac", gl)):
        for x in arr:
            _check_unit(name, float(x))
    num = (gamma * c[0]) ** 2 * al[0] * gl[0]
    for i in range(1, c.size):
        num += (gamma * c[i] * d[i - 1]) ** 2 * gl[i] * (al[i] + be[i - 1] - 1.0)
    num += be[-1] * (d[-1] * gamma) ** 2
    return float(num / (4.0 * gap_bound + num))


def _least_integer_above(x: float) -> int:
    return int(math.floor(x)) + 1


def min_depth_for_point_rate(rho: float, gamma: float, angle: float, row_sep: float,
                             act_floor: float, gap_bound: float) -> int:
    """Smallest depth certifying a single-point decay rate of at least 1 - rho."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if gap_bound <= 0:
        raise ValueError("gap bound must be positive")
    denom = rho * (gamma * math.sin(angle) * row_sep * act_floor) ** 2
    if denom <= 0:
        raise ValueError("constants leave the threshold unbounded")
    return max(1, int(math.ceil(4.0 * (1.0 - rho) * gap_bound / denom + 1.0)))


def min_depth_for_point_margin(tau: float, margin: float, gamma: float, angle: float,
                               row_sep: float, act_floor: float, gap_bound: float) -> int:
    """Smallest depth certifying the single-point squared margin falls to tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if tau >= margin:
        raise ValueError("tau must be below the current margin")
    if gap_bound <= 0:
        raise ValueError("gap bound must be positive")
    denom = (gamma * math.sin(angle) * row_sep * act_floor) ** 2
    if denom <= 0:
        raise ValueError("constants leave the threshold unbounded")
    return max(1, _least_integer_above(4.0 * gap_bound * (margin / tau - 1.0) / denom + 1.0))


def min_depth_for_dist_rate(rho: float, gamma: float, row_sep: float, col_gain: float,
                            act_prob: float, gain_prob: float, active_floor: float,
                            gap_bound: float) -> int:
    """Smallest depth certifying a distributional decay rate of at least 1 - rho.

    Uses uniform per-layer lower bounds; act_prob + gain_prob must exceed 1.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if gap_bound <= 0:
        raise ValueError("gap bound must be positive")
    _check_unit("act_prob", act_prob)
    _check_unit("gain_prob", gain_prob)
    overlap = act_prob + gain_prob - 1.0
    denom = rho * (gamma * row_sep * col_gain) ** 2 * active_floor * overlap
    if denom <= 0:
        raise ValueError("constants leave the threshold unbounded")
    return max(1, _least_integer_above(1.0 + 4.0 * (1.0 - rho) * gap_bound / denom))


def min_depth_for_dist_margin(tau: float, margin: float, gamma: float, row_sep: float,
                              col_gain: float, act_prob: float, gain_prob: float,
                              active_floor: float, gap_bound: float) -> int:
    """Smallest depth certifying the distributional measure falls to tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if tau >= margin:
        raise ValueError("tau must be below the current measure")
    if gap_bound <= 0:
        raise ValueError("gap bound must be positive")
    overlap = act_prob + gain_prob - 1.0
    denom = (gamma * row_sep * col_gain) ** 2 * active_floor * overlap
    if denom <= 0:
        raise ValueError("constants leave the threshold unbounded")
    return max(1, _least_integer_above(4.0 * gap_bound * (margin / tau - 1.0) / denom + 1.0))
