"""Weight-space attacks on trained networks.

The gradient attacks move the parameters inside an elementwise box around the
trained values (projected steps on a robustness-damaging objective); the swap
attack exchanges entries within a weight matrix, preserving the exact
multiset of values.  Targeted variants concentrate the damage on one label.
An input-space PGD adversary lives here too since every attack objective and
every robustness estimate is built on it.

Sign convention: every gradient attack minimizes its objective, and the
trace records the objective it minimizes.  Phase 1's objective is minus the
mean robust loss (so the step raises the robust loss); phase 2's is a
clean/robust loss ratio (pushed down).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .mlp import (
    ModelParams,
    Workspace,
    _block_workspaces,
    add_scaled,
    classify,
    cross_entropy,
    forward_batch,
    input_gradient,
    loss_and_grads,
)

# ---------------------------------------------------------------------------
# input-space PGD


@dataclass
class PgdConfig:
    """L-infinity PGD schedule from a random start; inputs are kept inside [0,1]^n."""

    eps: float = 8.0 / 255.0
    steps: int = 20

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")

    @property
    def resolved_step(self) -> float:
        return 2.5 * self.eps / max(1, self.steps)


def _pgd_run(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed):
    """Batched PGD ascent on per-sample cross-entropy.

    Returns (X_best, flipped, ce_best): the highest-CE iterate per sample
    (the clean point counts as an iterate, so CE never decreases), a flag per
    sample set when *any* iterate was classified differently from y, and the
    CE at X_best.

    The rows run in ``row_blocks``, one block after the other, each on a
    ``Workspace`` reused for every step, so the working set is one block's
    whatever N.  The first iterate is a uniform random point of the eps-ball
    (clipped to [0,1]^n); each block draws its own in turn from the run's one
    generator, which yields the numbers of one draw for all rows.  Each point
    gets one forward pass: the gradient pass at an iterate also yields its CE
    and prediction.  Only the clean point and the last iterate are
    forward-only, so per block a run of s >= 1 steps makes s
    ``input_gradient`` calls and s + 2 ``forward_batch`` calls.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    best_X = X.copy()
    flipped = np.empty(len(X), dtype=bool)
    best_ce = np.empty(len(X))
    for blk, ws in _block_workspaces(params, len(X)):
        _pgd_block(params, X[blk], y[blk], cfg, rng, ws, best_X[blk], flipped[blk], best_ce[blk])
    return best_X, flipped, best_ce


def _pgd_block(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, rng,
               ws: Workspace, best_X: np.ndarray, flipped: np.ndarray, best_ce: np.ndarray) -> None:
    """``_pgd_run`` on one block of rows, in ``ws``: fills best_X (which holds
    X on entry), flipped and best_ce in place."""
    _, _, logits = forward_batch(params, X, ws)
    best_ce[:] = cross_entropy(logits, y)
    np.not_equal(np.argmax(logits, axis=1), y, out=flipped)
    if cfg.eps == 0.0 or cfg.steps == 0:
        return

    lo = np.maximum(X - cfg.eps, 0.0)
    hi = np.minimum(X + cfg.eps, 1.0)
    pred = np.empty(len(y), dtype=np.intp)
    miss = np.empty(len(y), dtype=bool)
    better = np.empty(len(y), dtype=bool)

    def record(ce, logits):
        np.argmax(logits, axis=1, out=pred)
        np.logical_or(flipped, np.not_equal(pred, y, out=miss), out=flipped)
        np.greater(ce, best_ce, out=better)
        np.copyto(best_ce, ce, where=better)
        np.copyto(best_X, cur, where=better[:, None])

    def clip(P):
        np.maximum(P, lo, out=P)
        np.minimum(P, hi, out=P)

    cur = X + cfg.eps * rng.uniform(-1.0, 1.0, size=X.shape)
    clip(cur)
    step = cfg.resolved_step
    for _ in range(cfg.steps):
        ce, g, logits = input_gradient(params, cur, y, ws)
        record(ce, logits)
        np.sign(g, out=g)
        g *= step
        cur += g
        clip(cur)
    _, _, logits = forward_batch(params, cur, ws)
    record(cross_entropy(logits, y), logits)


def pgd_adversary_batch(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed=0) -> np.ndarray:
    """Highest-CE PGD point for each sample (CE(x') >= CE(x) guaranteed)."""
    best_X, _, _ = _pgd_run(params, X, y, cfg, seed)
    return best_X


def pgd_flips_batch(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed=0) -> np.ndarray:
    """True where some PGD iterate inside the eps-ball got a label != y.

    The clean point is checked too, so a misclassified sample always flips.
    """
    _, flipped, _ = _pgd_run(params, X, y, cfg, seed)
    return flipped


# ---------------------------------------------------------------------------
# budgets and projection


@dataclass
class PerturbBudget:
    """Admissible parameter perturbations.

    kind "linf": elementwise box of half-widths gamma * |theta| around the
    trained parameters (see ``box``).
    kind "swap": exchange value pairs inside ``k_matrices`` weight matrices,
    max(pair_floor, pair_fraction * entries) pairs per matrix; the multiset
    of matrix entries is preserved exactly.
    """

    kind: str
    gamma: float | None = None
    k_matrices: int = 1
    pair_fraction: float = 0.01
    pair_floor: int = 400

    def __post_init__(self):
        if self.kind not in ("linf", "swap"):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if self.kind == "linf":
            if self.gamma is None or not math.isfinite(self.gamma) or self.gamma < 0:
                raise ValueError(f"linf budget needs a finite gamma >= 0, got {self.gamma}")
        else:
            if not (0.0 < self.pair_fraction <= 0.5):
                raise ValueError("pair_fraction must be in (0, 0.5]")
            if self.k_matrices < 1 or self.pair_floor < 0:
                raise ValueError("need k_matrices >= 1 and pair_floor >= 0")

    def box(self, params: ModelParams) -> ModelParams:
        """Half-widths gamma * |theta| of the linf box around ``params``."""
        if self.kind != "linf":
            raise ValueError(f"a {self.kind} budget has no box; the gradient attacks need an linf budget")
        with np.errstate(over="ignore"):  # ``like`` refuses a box that overflows
            return params.like(self.gamma * np.abs(params.flat))

    def check_fits(self, params: ModelParams) -> None:
        """Raise ValueError when the budget cannot act on ``params``: a swap
        budget naming more weight matrices than the net has, or an linf box
        whose half-widths or edges theta +- box are not finite."""
        if self.kind == "linf":
            a = np.abs(params.flat)
            with np.errstate(over="ignore"):
                outer = a + self.gamma * a  # |theta| + box, the larger edge magnitude
            if not np.isfinite(outer).all():
                raise ValueError(f"gamma={self.gamma!r} overflows the box around the net's parameters")
            return
        n_mats = len(params.weights)
        if self.k_matrices > n_mats:
            raise ValueError(f"k_matrices={self.k_matrices} but the net has {n_mats} weight matrices")

    def describe(self) -> str:
        if self.kind == "linf":
            return f"linf gamma={self.gamma:g}"
        return f"swap k={self.k_matrices} frac={self.pair_fraction:g} floor={self.pair_floor}"

    def label(self) -> str:
        """The budget column of report.csv."""
        if self.kind == "linf":
            return repr(float(self.gamma))
        return f"k={self.k_matrices};frac={self.pair_fraction:g};floor={self.pair_floor}"


def proj_box(candidate: ModelParams, center: ModelParams, delta: ModelParams) -> ModelParams:
    """Elementwise projection of candidate onto [center-delta, center+delta].

    A candidate already inside the box comes back unchanged.
    """
    if candidate.dims != center.dims or center.dims != delta.dims:
        raise ValueError("candidate, center and delta must share shapes")
    return center.like(np.clip(candidate.flat, center.flat - delta.flat, center.flat + delta.flat))


# ---------------------------------------------------------------------------
# attack configuration / result

_ALPHA_DECAY = 0.5   # phase-2 step factor, see AttackConfig.alpha
_DENOM_FLOOR = 1e-8  # lower bound on a ratio objective's denominator
_SWAP_DRAWS = 50     # swap attack: random pairs tried per pair slot


@dataclass
class AttackConfig:
    pgd: PgdConfig = field(default_factory=PgdConfig)
    n_pre: int = 20          # phase-1 iterations (push the robust loss up)
    n_main: int = 80         # phase-2 iterations (clean/robust ratio)
    alpha: float = 1e-2      # step size, halved after every max(1, n_main // 4)-th phase-2 step
    batch_size: int | None = None   # None: full batch every iteration
    seed: int = 0

    def __post_init__(self):
        if self.n_pre < 0 or self.n_main < 0:
            raise ValueError("iteration counts must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class AttackResult:
    attacked: ModelParams
    budget_desc: str
    trace: list
    rate_inputs: "RateInputs"
    rate: float
    failed: bool
    extras: dict = field(default_factory=dict)


def _iter_seed(seed, tag: int, it: int):
    return (int(seed) & 0x7FFFFFFF, tag, it)


def _batch(rng: np.random.Generator, X: np.ndarray, y: np.ndarray, size: int | None):
    if size is None or size >= len(y):
        return X, y
    idx = rng.choice(len(y), size=size, replace=False)
    return X[idx], y[idx]


def _ratio_grad(theta: ModelParams, num_terms, den_term):
    """Ratio of summed cross-entropies and its quotient-rule gradient.

    The numerator is the CE sum over each (X, y) of ``num_terms``, added in
    order; the denominator is the CE sum over the (X, y) ``den_term``, floored
    at _DENOM_FLOOR.  Returns (ratio, unfloored denominator, gradient).
    """
    terms = [loss_and_grads(theta, X, y, reduction="sum") for X, y in num_terms]
    num = sum(v for v, _ in terms)
    g_num = functools.reduce(add_scaled, [g for _, g in terms])
    den_raw, g_den = loss_and_grads(theta, *den_term, reduction="sum")
    den = max(den_raw, _DENOM_FLOOR)
    ratio = num / den
    grad = add_scaled(g_num, g_den, -ratio)
    return ratio, den_raw, grad.like(grad.flat / den)


def _descend(params: ModelParams, X: np.ndarray, y: np.ndarray, budget: PerturbBudget,
             cfg: AttackConfig, tag: int, n_pre: int, objective):
    """Projected descent on ``objective`` inside the box of an linf budget.

    Runs n_pre phase-1 and then cfg.n_main phase-2 iterations.  Iteration
    ``it`` draws a minibatch of (X, y) from one default_rng(cfg.seed) and
    calls ``objective(theta, phase, Xb, yb, seed)`` with the PGD seed
    ``_iter_seed(cfg.seed, tag, it)``.  The objective returns (value, grad,
    extra trace fields), or None to skip a degenerate minibatch: no step, no
    step decay and a nan objective in the trace.  A step is theta - alpha *
    grad projected onto the box; see AttackConfig.alpha for the schedule.
    Returns (theta, trace).
    """
    delta = budget.box(params)
    theta = params.copy()
    rng = np.random.default_rng(cfg.seed)
    alpha = cfg.alpha
    decay_every = max(1, cfg.n_main // 4)
    trace = []
    for it in range(n_pre + cfg.n_main):
        phase = 1 if it < n_pre else 2
        Xb, yb = _batch(rng, X, y, cfg.batch_size)
        out = objective(theta, phase, Xb, yb, _iter_seed(cfg.seed, tag, it))
        if out is None:
            trace.append({"iter": it, "phase": phase, "objective": float("nan")})
            continue
        value, grad, fields = out
        theta = proj_box(add_scaled(theta, grad, -alpha), params, delta)
        trace.append({"iter": it, "phase": phase, "objective": float(value), **fields})
        if phase == 2 and (it - n_pre + 1) % decay_every == 0:
            alpha *= _ALPHA_DECAY
    return theta, trace


def _result(params: ModelParams, theta: ModelParams, ds: LabeledDataset, budget: PerturbBudget,
            cfg: AttackConfig, trace, extras, kind: str | None = None, **att) -> AttackResult:
    """Score the base net on ds and rate theta.

    ``att`` is the attacked half of RateInputs for ``targeted_rate(kind)``;
    an untargeted attack (kind None) scores theta on all of ds.
    """
    from .metrics import RateInputs, accuracy, adversarial_accuracy, adversarial_rate, targeted_rate

    if kind is None:
        att = dict(att_acc=accuracy(theta, ds),
                   att_rob=adversarial_accuracy(theta, ds, cfg.pgd, seed=cfg.seed))
    ri = RateInputs(base_acc=accuracy(params, ds),
                    base_rob=adversarial_accuracy(params, ds, cfg.pgd, seed=cfg.seed), **att)
    rr = adversarial_rate(ri) if kind is None else targeted_rate(kind, ri)
    return AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                        rate_inputs=ri, rate=rr.value, failed=rr.failed, extras=extras)


# ---------------------------------------------------------------------------
# untargeted gradient attack (elementwise box)


def _robust_objective(pgd: PgdConfig):
    """The two-phase objective on a minibatch and its PGD points.

    Phase 1: minus the mean robust loss.  Phase 2: clean CE sum / robust CE
    sum.  Both record the mean robust loss in the trace.
    """
    def objective(theta, phase, Xb, yb, seed):
        Xadv = pgd_adversary_batch(theta, Xb, yb, pgd, seed=seed)
        if phase == 1:
            adv_mean, g = loss_and_grads(theta, Xadv, yb, reduction="mean")
            return -adv_mean, g.like(-g.flat), {"robust_loss": adv_mean}
        ratio, den, g = _ratio_grad(theta, [(Xb, yb)], (Xadv, yb))
        return ratio, g, {"robust_loss": den / len(yb)}

    return objective


def attack_linf(params: ModelParams, ds: LabeledDataset, budget: PerturbBudget,
                cfg: AttackConfig) -> AttackResult:
    """Two-phase projected gradient attack inside an elementwise parameter box.

    Phase 1 (n_pre steps) raises the mean robust loss; phase 2 (n_main steps)
    minimizes clean-loss / robust-loss, trading a bounded clean-accuracy hit
    for a large robustness drop.  Every step is projected back onto the box.
    """
    theta, trace = _descend(params, ds.X, ds.y, budget, cfg, 1, cfg.n_pre, _robust_objective(cfg.pgd))
    return _result(params, theta, ds, budget, cfg, trace, {})


def perturb_random(params: ModelParams, budget: PerturbBudget, seed=0) -> ModelParams:
    """Budget-matched random perturbation (control for the guided attacks)."""
    rng = np.random.default_rng(seed)
    if budget.kind == "linf":
        delta = budget.box(params)
        theta = params.like(params.flat + rng.uniform(-1.0, 1.0, size=params.num_params) * delta.flat)
        return proj_box(theta, params, delta)
    theta = params.copy()
    sel = _pick_matrices(rng, theta, budget)
    for l in sel:
        W = theta.weights[l]
        n_pairs = _pair_count(budget, W)
        flat = W.ravel()
        for _ in range(n_pairs):
            i, j = _distinct_pair(rng, flat.size)
            flat[i], flat[j] = flat[j], flat[i]
    return theta


# ---------------------------------------------------------------------------
# swap attack (multiset-preserving)


def _pick_matrices(rng, params: ModelParams, budget: PerturbBudget):
    budget.check_fits(params)
    return sorted(rng.choice(len(params.weights), size=budget.k_matrices, replace=False).tolist())


def _pair_count(budget: PerturbBudget, W: np.ndarray) -> int:
    return max(budget.pair_floor, int(budget.pair_fraction * W.size))


def _distinct_pair(rng, n: int):
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    return i, j


def attack_swap(params: ModelParams, ds: LabeledDataset, budget: PerturbBudget,
                cfg: AttackConfig) -> AttackResult:
    """Entry-swap attack: exchanges weight pairs that reduce the clean/robust
    loss ratio to first order.

    A pair (w1, w2) qualifies when (g1 - g2)(w1 - w2) > 0, i.e. the exchange
    has a negative directional derivative of the objective.  The gradient is
    recomputed on a fresh minibatch for each matrix and after each accepted
    swap; a slot where _SWAP_DRAWS random pairs all fail is skipped.  Each
    accepted swap is logged (matrix, flat indices, gradient gap) in
    extras["swap_log"].
    """
    if budget.kind != "swap":
        raise ValueError("attack_swap needs a swap budget")
    theta = params.copy()
    rng = np.random.default_rng(cfg.seed)
    sel = _pick_matrices(rng, theta, budget)
    trace = []  # one entry per gradient
    swap_log = []
    skipped = 0

    for l in sel:
        W = theta.weights[l]
        flat = W.ravel()
        stale = True
        for _slot in range(_pair_count(budget, W)):
            if stale:
                Xb, yb = _batch(rng, ds.X, ds.y, cfg.batch_size)
                Xadv = pgd_adversary_batch(theta, Xb, yb, cfg.pgd, seed=_iter_seed(cfg.seed, 2, len(trace)))
                ratio, _, g = _ratio_grad(theta, [(Xb, yb)], (Xadv, yb))
                gflat = g.weights[l].ravel()
                stale = False
                trace.append({"iter": len(trace), "phase": 2, "objective": float(ratio)})
            for _attempt in range(_SWAP_DRAWS):
                i, j = _distinct_pair(rng, flat.size)
                if (gflat[i] - gflat[j]) * (flat[i] - flat[j]) > 0.0:
                    swap_log.append({"matrix": l, "i": i, "j": j,
                                     "grad_gap": float(gflat[i] - gflat[j]),
                                     "value_gap": float(flat[i] - flat[j])})
                    flat[i], flat[j] = flat[j], flat[i]
                    stale = True
                    break
            else:
                skipped += 1

    extras = {"matrices": sel, "swaps": len(swap_log), "skipped_pairs": skipped,
              "swap_log": swap_log}
    return _result(params, theta, ds, budget, cfg, trace, extras)


# ---------------------------------------------------------------------------
# targeted attacks


def _targeted(params: ModelParams, ds: LabeledDataset, target_label: int, budget: PerturbBudget,
              cfg: AttackConfig, kind: str, ratio_terms) -> AttackResult:
    """Phase-2 descent on a targeted ratio, then the targeted rate ``kind``.

    ``ratio_terms(theta, Xb, yb, on, seed)`` returns what _ratio_grad does,
    with ``on`` marking the minibatch's target-label rows.  A minibatch that
    is all on or all off the target is skipped.
    """
    on = ds.y == target_label
    if not on.any():
        raise ValueError(f"target label {target_label} absent from the dataset")
    if on.all():
        raise ValueError("dataset contains only the target label; targeted objective is degenerate")

    def objective(theta, phase, Xb, yb, seed):
        on_b = yb == target_label
        if on_b.all() or not on_b.any():
            return None
        ratio, _, grad = ratio_terms(theta, Xb, yb, on_b, seed)
        return ratio, grad, {}

    theta, trace = _descend(params, ds.X, ds.y, budget, cfg, 3, 0, objective)

    from .metrics import accuracy, adversarial_accuracy

    ds_on, ds_off = ds.subset(np.where(on)[0]), ds.subset(np.where(~on)[0])
    att_rob = adversarial_accuracy(theta, ds_off, cfg.pgd, seed=cfg.seed)
    if kind == "label":
        att = dict(att_acc=accuracy(theta, ds), att_rob=att_rob,
                   att_aux=adversarial_accuracy(theta, ds_on, cfg.pgd, seed=cfg.seed))
    else:
        att = dict(att_acc=accuracy(theta, ds_off), att_rob=att_rob, att_aux=accuracy(theta, ds_on))
    return _result(params, theta, ds, budget, cfg, trace,
                   {"target_label": target_label, "kind": kind}, kind, **att)


def attack_label(params: ModelParams, ds: LabeledDataset, target_label: int,
                 budget: PerturbBudget, cfg: AttackConfig) -> AttackResult:
    """Degrade robustness only on samples of ``target_label``.

    Objective (minimized): [clean CE over all samples + robust loss off the
    target] / [robust loss on the target].  Success shows up as unchanged
    accuracy, unchanged off-target robustness, and collapsed robustness on
    the target label.
    """
    def ratio_terms(theta, Xb, yb, on, seed):
        Xadv = pgd_adversary_batch(theta, Xb, yb, cfg.pgd, seed=seed)
        return _ratio_grad(theta, [(Xb, yb), (Xadv[~on], yb[~on])], (Xadv[on], yb[on]))

    return _targeted(params, ds, target_label, budget, cfg, "label", ratio_terms)


def attack_direct(params: ModelParams, ds: LabeledDataset, target_label: int,
                  budget: PerturbBudget, cfg: AttackConfig) -> AttackResult:
    """Break classification itself on ``target_label`` while sparing the rest.

    Objective (minimized): [robust + clean loss off the target] / [clean CE
    on the target].  Drives the target's clean accuracy to zero.
    """
    def ratio_terms(theta, Xb, yb, on, seed):
        Xoff, yoff = Xb[~on], yb[~on]
        Xadv = pgd_adversary_batch(theta, Xoff, yoff, cfg.pgd, seed=seed)
        return _ratio_grad(theta, [(Xadv, yoff), (Xoff, yoff)], (Xb[on], yb[on]))

    return _targeted(params, ds, target_label, budget, cfg, "direct", ratio_terms)


def attack_single(params: ModelParams, x: np.ndarray, label: int,
                  budget: PerturbBudget, cfg: AttackConfig) -> AttackResult:
    """Make one correctly classified sample attackable without mislabeling it.

    Runs the two-phase loop on the singleton set; success means the attacked
    net still classifies x correctly but PGD now finds an adversarial point,
    and the rate is 1 - min(radius_after / radius_before, 1) using the
    linearized robustness radius.
    """
    x = np.asarray(x, dtype=np.float64)
    if classify(params, x) != label:
        raise ValueError("x must be correctly classified by the base net")
    X1, y1 = x[None, :], np.array([label])
    theta, trace = _descend(params, X1, y1, budget, cfg, 4, cfg.n_pre, _robust_objective(cfg.pgd))

    from .metrics import RateInputs, approx_radius, targeted_rate

    base_r = approx_radius(params, x, label)
    att_r = approx_radius(theta, x, label)
    still_correct = classify(theta, x) == label
    has_adv = bool(pgd_flips_batch(theta, X1, y1, cfg.pgd, seed=cfg.seed)[0])
    ri = RateInputs(base_acc=1.0, base_rob=base_r,
                    att_acc=1.0 if still_correct else 0.0, att_rob=att_r)
    rr = targeted_rate("single", ri)
    failed = not (still_correct and has_adv)
    return AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                        rate_inputs=ri, rate=rr.value, failed=failed,
                        extras={"kind": "single", "still_correct": still_correct,
                                "adversarial_found": has_adv,
                                "radius_before": base_r, "radius_after": att_r})
