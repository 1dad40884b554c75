"""Weight-space attacks on trained networks.

The gradient attacks move the parameters inside an elementwise box around the
trained values (projected steps on a robustness-damaging objective); the swap
attack exchanges entries within a weight matrix, preserving the exact
multiset of values.  Targeted variants concentrate the damage on one label.
An input-space PGD adversary lives here too since every attack objective and
every robustness estimate is built on it.

Sign convention for the two-phase gradient attack: the per-phase objective
values recorded in the trace are the *displayed* objectives (phase 1: minus
the mean robust loss, phase 2: clean/robust loss ratio), and the default
update minimizes them, which raises the robust loss in phase 1 and pushes
the ratio down in phase 2.  ``AttackConfig.ascend_displayed`` flips the
update direction for comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .mlp import (
    ModelParams,
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
    """L-infinity PGD schedule; inputs are kept inside [0,1]^n."""

    eps: float = 8.0 / 255.0
    steps: int = 20
    step: float | None = None  # None: 2.5 * eps / steps
    random_start: bool = True

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")

    @property
    def resolved_step(self) -> float:
        if self.step is not None:
            return self.step
        return 2.5 * self.eps / max(1, self.steps)


def _pgd_run(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed):
    """Batched PGD ascent on per-sample cross-entropy.

    Returns (X_best, flipped, ce_best): the highest-CE iterate per sample
    (the clean point counts as an iterate, so CE never decreases), a flag per
    sample set when *any* iterate was classified differently from y, and the
    CE at X_best.

    Each point gets one forward pass: the gradient pass at an iterate also
    yields its CE and prediction.  Only the clean point and the last iterate
    are forward-only, so a run of s >= 1 steps makes s ``input_gradient``
    calls and s + 2 ``forward_batch`` calls.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y)
    rng = np.random.default_rng(seed)

    lo = np.maximum(X - cfg.eps, 0.0)
    hi = np.minimum(X + cfg.eps, 1.0)

    def eval_point(P):
        _, _, logits = forward_batch(params, P)
        return cross_entropy(logits, y), logits

    best_ce, logits = eval_point(X)
    best_X = X.copy()
    flipped = np.argmax(logits, axis=1) != y

    if cfg.eps == 0.0 or cfg.steps == 0:
        return best_X, flipped, best_ce

    def record(P, ce, logits):
        nonlocal best_ce, flipped
        flipped |= np.argmax(logits, axis=1) != y
        better = ce > best_ce
        best_ce = np.where(better, ce, best_ce)
        best_X[better] = P[better]

    if cfg.random_start:
        cur = np.clip(X + cfg.eps * rng.uniform(-1.0, 1.0, size=X.shape), lo, hi)
    else:
        cur = X.copy()

    step = cfg.resolved_step
    for k in range(cfg.steps):
        ce, g, logits = input_gradient(params, cur, y)
        if k or cfg.random_start:  # without a random start, cur = X is already recorded
            record(cur, ce, logits)
        cur = np.clip(cur + step * np.sign(g), lo, hi)
    record(cur, *eval_point(cur))
    return best_X, flipped, best_ce


def pgd_adversary_batch(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed=0) -> np.ndarray:
    """Highest-CE PGD point for each sample (CE(x') >= CE(x) guaranteed)."""
    best_X, _, _ = _pgd_run(params, X, y, cfg, seed)
    return best_X


def pgd_adversary(params: ModelParams, x: np.ndarray, label: int, eps: float,
                  steps: int = 20, step: float | None = None, seed=0) -> np.ndarray:
    cfg = PgdConfig(eps=eps, steps=steps, step=step)
    return pgd_adversary_batch(params, np.asarray(x)[None, :], np.array([label]), cfg, seed)[0]


def pgd_flips_batch(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed=0) -> np.ndarray:
    """True where some PGD iterate inside the eps-ball got a label != y.

    The clean point is checked too, so a misclassified sample always flips.
    """
    _, flipped, _ = _pgd_run(params, X, y, cfg, seed)
    return flipped


def robust_loss(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed=0) -> float:
    """Mean cross-entropy at the PGD points (the adversarial-training loss)."""
    _, _, ce = _pgd_run(params, X, y, cfg, seed)
    return float(ce.mean())


# ---------------------------------------------------------------------------
# budgets and projection


@dataclass
class PerturbBudget:
    """Admissible parameter perturbations.

    kind "linf": elementwise box of half-widths ``delta`` (usually
    gamma * |theta|) around the trained parameters.
    kind "swap": exchange value pairs inside ``k_matrices`` weight matrices,
    max(pair_floor, pair_fraction * entries) pairs per matrix; the multiset
    of matrix entries is preserved exactly.
    """

    kind: str
    delta: ModelParams | None = None
    gamma: float | None = None
    k_matrices: int = 1
    pair_fraction: float = 0.01
    pair_floor: int = 400

    def __post_init__(self):
        if self.kind not in ("linf", "swap"):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if self.kind == "linf":
            if self.delta is None:
                raise ValueError("linf budget needs delta")
            for arr in self.delta.weights + self.delta.biases:
                if (arr < 0).any():
                    raise ValueError("delta entries must be >= 0")
        else:
            if not (0.0 < self.pair_fraction <= 0.5):
                raise ValueError("pair_fraction must be in (0, 0.5]")
            if self.k_matrices < 1 or self.pair_floor < 0:
                raise ValueError("need k_matrices >= 1 and pair_floor >= 0")

    def describe(self) -> str:
        if self.kind == "linf":
            if self.gamma is not None:
                return f"linf gamma={self.gamma:g}"
            return "linf delta=custom"
        return f"swap k={self.k_matrices} frac={self.pair_fraction:g} floor={self.pair_floor}"


def budget_linf(params: ModelParams, gamma: float) -> PerturbBudget:
    """Relative box: half-width gamma*|theta| for every weight and bias."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    delta = ModelParams([gamma * np.abs(w) for w in params.weights],
                        [gamma * np.abs(b) for b in params.biases])
    return PerturbBudget(kind="linf", delta=delta, gamma=gamma)


def budget_swap(k_matrices: int = 1, pair_fraction: float = 0.01, pair_floor: int = 400) -> PerturbBudget:
    return PerturbBudget(kind="swap", k_matrices=k_matrices,
                         pair_fraction=pair_fraction, pair_floor=pair_floor)


def proj_box(candidate: ModelParams, center: ModelParams, delta: ModelParams) -> ModelParams:
    """Elementwise projection of candidate onto [center-delta, center+delta].

    A candidate already inside the box comes back unchanged.
    """
    if candidate.dims != center.dims or center.dims != delta.dims:
        raise ValueError("candidate, center and delta must share shapes")
    ws = [np.clip(wc, w - d, w + d) for wc, w, d in zip(candidate.weights, center.weights, delta.weights)]
    bs = [np.clip(bc, b - d, b + d) for bc, b, d in zip(candidate.biases, center.biases, delta.biases)]
    return ModelParams(ws, bs)


# ---------------------------------------------------------------------------
# attack configuration / result


@dataclass
class AttackConfig:
    pgd: PgdConfig = field(default_factory=PgdConfig)
    n_pre: int = 20          # phase-1 iterations (push the robust loss up)
    n_main: int = 80         # phase-2 iterations (clean/robust ratio)
    alpha: float = 1e-2      # parameter step size
    alpha_decay: float = 0.5
    decay_every: int | None = None  # None: every n_main // 4 main-phase steps
    batch_size: int | None = None   # None: full batch every iteration
    seed: int = 0
    gamma_low: float = 0.9
    ascend_displayed: bool = False
    denom_floor: float = 1e-8
    grad_refresh: int = 1    # swap attack: swaps per gradient recomputation
    max_retries: int = 50    # swap attack: samples per pair slot

    def __post_init__(self):
        if self.n_pre < 0 or self.n_main < 0:
            raise ValueError("iteration counts must be >= 0")
        if self.alpha <= 0 or not (0 < self.alpha_decay <= 1):
            raise ValueError("need alpha > 0 and alpha_decay in (0,1]")
        if not (0 < self.gamma_low <= 1):
            raise ValueError("gamma_low must be in (0,1]")
        if self.grad_refresh < 1 or self.max_retries < 1:
            raise ValueError("grad_refresh and max_retries must be >= 1")


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


def _batch(rng: np.random.Generator, ds: LabeledDataset, size: int | None):
    if size is None or size >= len(ds):
        return ds.X, ds.y
    idx = rng.choice(len(ds), size=size, replace=False)
    return ds.X[idx], ds.y[idx]


def _ratio_and_grad(theta, X, y, Xadv, yadv, floor):
    """Objective num/den with num = clean CE sum, den = robust CE sum.

    Returns (ratio, num, den, grad) with the quotient-rule parameter gradient.
    """
    num, g_num, _ = loss_and_grads(theta, X, y, reduction="sum")
    den_raw, g_den, _ = loss_and_grads(theta, Xadv, yadv, reduction="sum")
    den = max(den_raw, floor)
    ratio = num / den
    grad = add_scaled(g_num, g_den, -ratio)
    grad = ModelParams([w / den for w in grad.weights], [b / den for b in grad.biases])
    return ratio, num, den_raw, grad


def _finalize_untargeted(base: ModelParams, theta: ModelParams, ds: LabeledDataset,
                         cfg: AttackConfig, budget: PerturbBudget, trace, extras) -> AttackResult:
    from .metrics import RateInputs, accuracy, adversarial_accuracy, adversarial_rate

    ri = RateInputs(
        base_acc=accuracy(base, ds),
        base_rob=adversarial_accuracy(base, ds, cfg.pgd, seed=cfg.seed),
        att_acc=accuracy(theta, ds),
        att_rob=adversarial_accuracy(theta, ds, cfg.pgd, seed=cfg.seed),
        gamma_low=cfg.gamma_low,
    )
    rr = adversarial_rate(ri)
    return AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                        rate_inputs=ri, rate=rr.value, failed=rr.failed, extras=extras)


# ---------------------------------------------------------------------------
# untargeted gradient attack (elementwise box)


def attack_linf(params: ModelParams, ds: LabeledDataset, budget: PerturbBudget,
                cfg: AttackConfig) -> AttackResult:
    """Two-phase projected gradient attack inside an elementwise parameter box.

    Phase 1 (n_pre steps) raises the mean robust loss; phase 2 (n_main steps)
    minimizes clean-loss / robust-loss, trading a bounded clean-accuracy hit
    for a large robustness drop.  Every step is projected back onto the box.
    """
    if budget.kind != "linf":
        raise ValueError("attack_linf needs an linf budget")
    theta = params.copy()
    rng = np.random.default_rng(cfg.seed)
    alpha = cfg.alpha
    decay_every = cfg.decay_every if cfg.decay_every is not None else max(1, cfg.n_main // 4)
    direction = -1.0 if cfg.ascend_displayed else 1.0  # default: minimize displayed objective
    trace = []
    main_done = 0
    for it in range(cfg.n_pre + cfg.n_main):
        Xb, yb = _batch(rng, ds, cfg.batch_size)
        Xadv = pgd_adversary_batch(theta, Xb, yb, cfg.pgd, seed=_iter_seed(cfg.seed, 1, it))
        if it < cfg.n_pre:
            adv_mean, g, _ = loss_and_grads(theta, Xadv, yb, reduction="mean")
            displayed = -adv_mean
            # minimizing the displayed objective means ascending the robust loss
            theta = add_scaled(theta, g, direction * alpha)
        else:
            ratio, _, den_raw, g = _ratio_and_grad(theta, Xb, yb, Xadv, yb, cfg.denom_floor)
            displayed = ratio
            adv_mean = den_raw / len(yb)
            theta = add_scaled(theta, g, -direction * alpha)
            main_done += 1
            if main_done % decay_every == 0:
                alpha *= cfg.alpha_decay
        theta = proj_box(theta, params, budget.delta)
        trace.append({"iter": it, "phase": 1 if it < cfg.n_pre else 2,
                      "objective": float(displayed), "robust_loss": float(adv_mean)})
    return _finalize_untargeted(params, theta, ds, cfg, budget, trace, {})


def perturb_random(params: ModelParams, budget: PerturbBudget, seed=0) -> ModelParams:
    """Budget-matched random perturbation (control for the guided attacks)."""
    rng = np.random.default_rng(seed)
    theta = params.copy()
    if budget.kind == "linf":
        for w, d in zip(theta.weights, budget.delta.weights):
            w += rng.uniform(-1.0, 1.0, size=w.shape) * d
        for b, d in zip(theta.biases, budget.delta.biases):
            b += rng.uniform(-1.0, 1.0, size=b.shape) * d
        return proj_box(theta, params, budget.delta)
    sel = _pick_matrices(rng, theta, budget.k_matrices)
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


def _pick_matrices(rng, params: ModelParams, k: int):
    n_mats = len(params.weights)
    if k > n_mats:
        raise ValueError(f"k_matrices={k} but the net has {n_mats} weight matrices")
    return sorted(rng.choice(n_mats, size=k, replace=False).tolist())


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
    has a negative directional derivative of the objective.  Each accepted
    swap is logged (matrix, flat indices, gradient gap) in extras["swap_log"].
    """
    if budget.kind != "swap":
        raise ValueError("attack_swap needs a swap budget")
    theta = params.copy()
    rng = np.random.default_rng(cfg.seed)
    sel = _pick_matrices(rng, theta, budget.k_matrices)
    trace = []
    swap_log = []
    skipped = 0
    grad_calls = 0

    def ratio_grad():
        nonlocal grad_calls
        Xb, yb = _batch(rng, ds, cfg.batch_size)
        Xadv = pgd_adversary_batch(theta, Xb, yb, cfg.pgd, seed=_iter_seed(cfg.seed, 2, grad_calls))
        ratio, _, _, g = _ratio_and_grad(theta, Xb, yb, Xadv, yb, cfg.denom_floor)
        grad_calls += 1
        return ratio, g

    for l in sel:
        W = theta.weights[l]
        flat = W.ravel()
        n_pairs = _pair_count(budget, W)
        since_refresh = cfg.grad_refresh  # force a fresh gradient per matrix
        gflat = None
        for _slot in range(n_pairs):
            if since_refresh >= cfg.grad_refresh:
                ratio, g = ratio_grad()
                gflat = g.weights[l].ravel()
                since_refresh = 0
                trace.append({"iter": len(trace), "phase": 2, "objective": float(ratio)})
            for _attempt in range(cfg.max_retries):
                i, j = _distinct_pair(rng, flat.size)
                if (gflat[i] - gflat[j]) * (flat[i] - flat[j]) > 0.0:
                    swap_log.append({"matrix": l, "i": i, "j": j,
                                     "grad_gap": float(gflat[i] - gflat[j]),
                                     "value_gap": float(flat[i] - flat[j])})
                    flat[i], flat[j] = flat[j], flat[i]
                    since_refresh += 1
                    break
            else:
                skipped += 1

    extras = {"matrices": sel, "swaps": len(swap_log), "skipped_pairs": skipped,
              "swap_log": swap_log}
    return _finalize_untargeted(params, theta, ds, cfg, budget, trace, extras)


# ---------------------------------------------------------------------------
# targeted attacks


def _split_target(ds: LabeledDataset, target_label: int):
    on = ds.y == target_label
    if not on.any():
        raise ValueError(f"target label {target_label} absent from the dataset")
    if on.all():
        raise ValueError("dataset contains only the target label; targeted objective is degenerate")
    return on


def _targeted_loop(params, ds, budget, cfg, target_label, objective_grad):
    """Shared projected-descent loop for the targeted ratio objectives."""
    if budget.kind != "linf":
        raise ValueError("targeted attacks use an linf budget")
    theta = params.copy()
    rng = np.random.default_rng(cfg.seed)
    alpha = cfg.alpha
    decay_every = cfg.decay_every if cfg.decay_every is not None else max(1, cfg.n_main // 4)
    direction = -1.0 if cfg.ascend_displayed else 1.0
    trace = []
    for it in range(cfg.n_main):
        Xb, yb = _batch(rng, ds, cfg.batch_size)
        on = yb == target_label
        if on.all() or not on.any():  # degenerate minibatch, resample next round
            trace.append({"iter": it, "phase": 2, "objective": float("nan")})
            continue
        val, g = objective_grad(theta, Xb, yb, on, _iter_seed(cfg.seed, 3, it))
        theta = proj_box(add_scaled(theta, g, -direction * alpha), params, budget.delta)
        trace.append({"iter": it, "phase": 2, "objective": float(val)})
        if (it + 1) % decay_every == 0:
            alpha *= cfg.alpha_decay
    return theta, trace


def attack_label(params: ModelParams, ds: LabeledDataset, target_label: int,
                 budget: PerturbBudget, cfg: AttackConfig) -> AttackResult:
    """Degrade robustness only on samples of ``target_label``.

    Objective (minimized): [clean CE over all samples + robust loss off the
    target] / [robust loss on the target].  Success shows up as unchanged
    accuracy, unchanged off-target robustness, and collapsed robustness on
    the target label.
    """
    _split_target(ds, target_label)

    def obj(theta, Xb, yb, on, seed):
        Xadv = pgd_adversary_batch(theta, Xb, yb, cfg.pgd, seed=seed)
        num_ce, g_ce, _ = loss_and_grads(theta, Xb, yb, reduction="sum")
        num_rob, g_rob, _ = loss_and_grads(theta, Xadv[~on], yb[~on], reduction="sum")
        den_raw, g_den, _ = loss_and_grads(theta, Xadv[on], yb[on], reduction="sum")
        den = max(den_raw, cfg.denom_floor)
        ratio = (num_ce + num_rob) / den
        grad = add_scaled(add_scaled(g_ce, g_rob), g_den, -ratio)
        grad = ModelParams([w / den for w in grad.weights], [b / den for b in grad.biases])
        return ratio, grad

    theta, trace = _targeted_loop(params, ds, budget, cfg, target_label, obj)

    from .metrics import RateInputs, accuracy, adversarial_accuracy, targeted_rate

    on = ds.y == target_label
    ds_on, ds_off = ds.subset(np.where(on)[0]), ds.subset(np.where(~on)[0])
    ri = RateInputs(
        base_acc=accuracy(params, ds),
        base_rob=adversarial_accuracy(params, ds, cfg.pgd, seed=cfg.seed),
        att_acc=accuracy(theta, ds),
        att_rob=adversarial_accuracy(theta, ds_off, cfg.pgd, seed=cfg.seed),
        att_aux=adversarial_accuracy(theta, ds_on, cfg.pgd, seed=cfg.seed),
        gamma_low=cfg.gamma_low,
    )
    rr = targeted_rate("label", ri)
    return AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                        rate_inputs=ri, rate=rr.value, failed=rr.failed,
                        extras={"target_label": target_label, "kind": "label"})


def attack_direct(params: ModelParams, ds: LabeledDataset, target_label: int,
                  budget: PerturbBudget, cfg: AttackConfig) -> AttackResult:
    """Break classification itself on ``target_label`` while sparing the rest.

    Objective (minimized): [robust + clean loss off the target] / [clean CE
    on the target].  Drives the target's clean accuracy to zero.
    """
    _split_target(ds, target_label)

    def obj(theta, Xb, yb, on, seed):
        Xadv = pgd_adversary_batch(theta, Xb[~on], yb[~on], cfg.pgd, seed=seed)
        num_rob, g_rob, _ = loss_and_grads(theta, Xadv, yb[~on], reduction="sum")
        num_ce, g_ce, _ = loss_and_grads(theta, Xb[~on], yb[~on], reduction="sum")
        den_raw, g_den, _ = loss_and_grads(theta, Xb[on], yb[on], reduction="sum")
        den = max(den_raw, cfg.denom_floor)
        ratio = (num_rob + num_ce) / den
        grad = add_scaled(add_scaled(g_rob, g_ce), g_den, -ratio)
        grad = ModelParams([w / den for w in grad.weights], [b / den for b in grad.biases])
        return ratio, grad

    theta, trace = _targeted_loop(params, ds, budget, cfg, target_label, obj)

    from .metrics import RateInputs, accuracy, adversarial_accuracy, targeted_rate

    on = ds.y == target_label
    ds_on, ds_off = ds.subset(np.where(on)[0]), ds.subset(np.where(~on)[0])
    ri = RateInputs(
        base_acc=accuracy(params, ds),
        base_rob=adversarial_accuracy(params, ds, cfg.pgd, seed=cfg.seed),
        att_acc=accuracy(theta, ds_off),
        att_rob=adversarial_accuracy(theta, ds_off, cfg.pgd, seed=cfg.seed),
        att_aux=accuracy(theta, ds_on),
        gamma_low=cfg.gamma_low,
    )
    rr = targeted_rate("direct", ri)
    return AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                        rate_inputs=ri, rate=rr.value, failed=rr.failed,
                        extras={"target_label": target_label, "kind": "direct"})


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
    if budget.kind != "linf":
        raise ValueError("attack_single uses an linf budget")

    theta = params.copy()
    alpha = cfg.alpha
    decay_every = cfg.decay_every if cfg.decay_every is not None else max(1, cfg.n_main // 4)
    direction = -1.0 if cfg.ascend_displayed else 1.0
    X1, y1 = x[None, :], np.array([label])
    trace = []
    main_done = 0
    for it in range(cfg.n_pre + cfg.n_main):
        Xadv = pgd_adversary_batch(theta, X1, y1, cfg.pgd, seed=_iter_seed(cfg.seed, 4, it))
        if it < cfg.n_pre:
            adv_mean, g, _ = loss_and_grads(theta, Xadv, y1, reduction="mean")
            displayed = -adv_mean
            theta = add_scaled(theta, g, direction * alpha)
        else:
            ratio, _, den_raw, g = _ratio_and_grad(theta, X1, y1, Xadv, y1, cfg.denom_floor)
            displayed = ratio
            adv_mean = den_raw
            theta = add_scaled(theta, g, -direction * alpha)
            main_done += 1
            if main_done % decay_every == 0:
                alpha *= cfg.alpha_decay
        theta = proj_box(theta, params, budget.delta)
        trace.append({"iter": it, "phase": 1 if it < cfg.n_pre else 2,
                      "objective": float(displayed), "robust_loss": float(adv_mean)})

    from .metrics import RateInputs, approx_radius, targeted_rate

    base_r = approx_radius(params, x, label)
    att_r = approx_radius(theta, x, label)
    still_correct = classify(theta, x) == label
    has_adv = bool(pgd_flips_batch(theta, X1, y1, cfg.pgd, seed=cfg.seed)[0])
    ri = RateInputs(base_acc=1.0, base_rob=base_r,
                    att_acc=1.0 if still_correct else 0.0, att_rob=att_r,
                    gamma_low=cfg.gamma_low)
    rr = targeted_rate("single", ri)
    failed = not (still_correct and has_adv)
    return AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                        rate_inputs=ri, rate=rr.value, failed=failed,
                        extras={"kind": "single", "still_correct": still_correct,
                                "adversarial_found": has_adv,
                                "radius_before": base_r, "radius_after": att_r})
