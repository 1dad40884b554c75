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
    _ce_and_dlogits,
    add_scaled,
    classify,
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
        if not math.isfinite(self.eps) or self.eps < 0:
            raise ValueError(f"eps must be a finite number >= 0, got {self.eps}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")

    @property
    def resolved_step(self) -> float:
        return 2.5 * self.eps / max(1, self.steps)


def _pgd_run(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed,
             best: bool = True, flips: bool = True, start: np.ndarray | None = None):
    """Batched PGD ascent on per-sample cross-entropy.

    Returns (X_best, flipped, ce_best): the highest-CE iterate per sample
    (the clean point counts as an iterate, so CE never decreases), a flag per
    sample set when *any* iterate was classified differently from y, and the
    CE at X_best.  A caller that reads no X_best / ce_best (``best`` False)
    or no flipped (``flips`` False) gets None in their place, and the run
    skips the work that only they need.  On a stack of K nets the outputs
    gain a leading K axis, and each net gets what a run on it alone gives.

    The rows run in ``row_blocks``, one block after the other, each on a
    ``Workspace`` reused for every step and bound to the block's labels, so
    the working set is one block's whatever N.  The first iterate is a
    uniform random point of the eps-ball (clipped to [0,1]^n); each block
    draws its own in turn from the run's one generator, which yields the
    numbers of one draw for all rows, and every net of a stack starts from
    it.  A warm run passes ``start`` instead, in the shape of X_best (one
    point per row and per net of a stack): each net starts there, clipped to
    the ball, and nothing is drawn.  Each point gets one forward pass: the
    gradient pass at an iterate also yields its CE and prediction.  Only the
    clean point and the last iterate are forward-only, so per block a run of
    s >= 1 steps makes s ``input_gradient`` calls and s + 2 ``forward_batch``
    calls.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    lead = params.stack_shape
    best_X = np.empty(lead + X.shape) if best else None
    if best:
        best_X[...] = X
    best_ce = np.empty(lead + y.shape) if best else None
    flipped = np.empty(lead + y.shape, dtype=bool) if flips else None
    for blk, ws in _block_workspaces(params, len(X)):
        _pgd_block(params, X[blk], y[blk], cfg, rng, ws,
                   None if best_X is None else best_X[..., blk, :],
                   None if flipped is None else flipped[..., blk],
                   None if best_ce is None else best_ce[..., blk],
                   None if start is None else start[..., blk, :])
    return best_X, flipped, best_ce


def finite_logits(params: ModelParams, X: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """The logits of params on X (in ws, when given), or ValueError blaming the net when some are
    not finite.  PGD checks its clean logits here; a command may check its net first."""
    _, _, logits = forward_batch(params, X, ws)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits: the net overflows on this data")
    return logits


def _pgd_block(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, rng,
               ws: Workspace, best_X, flipped, best_ce, start) -> None:
    """``_pgd_run`` on one block of rows, in ``ws``: fills best_X (which holds
    X on entry), flipped and best_ce in place, each None when not read (best_X
    and best_ce together), from the block's ``start`` or, when None, a random
    one.  Raises ValueError on non-finite clean logits."""
    logits = finite_logits(params, X, ws)
    if best_ce is not None:
        np.copyto(best_ce, _ce_and_dlogits(logits, y, ws)[0])
    if flipped is not None:
        np.not_equal(np.argmax(logits, axis=-1), y, out=flipped)
    if cfg.eps == 0.0 or cfg.steps == 0:
        return

    lo = np.maximum(X - cfg.eps, 0.0)
    hi = np.minimum(X + cfg.eps, 1.0)
    pred = np.empty(ws.ce.shape, dtype=np.intp)
    miss = np.empty(ws.ce.shape, dtype=bool)
    better = np.empty(ws.ce.shape, dtype=bool)

    def record(ce, logits):
        if flipped is not None:
            np.argmax(logits, axis=-1, out=pred)
            np.logical_or(flipped, np.not_equal(pred, y, out=miss), out=flipped)
        if best_ce is not None:
            np.greater(ce, best_ce, out=better)
            np.copyto(best_ce, ce, where=better)
            np.copyto(best_X, cur, where=better[..., None])

    def clip(P):
        np.maximum(P, lo, out=P)
        np.minimum(P, hi, out=P)

    cur = np.empty(ws.grad.shape)
    if start is None:  # one start for every net of a stack
        np.add(X, cfg.eps * rng.uniform(-1.0, 1.0, size=X.shape), out=cur)
    else:
        np.copyto(cur, start)
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
    record(None if best_ce is None else _ce_and_dlogits(logits, y, ws)[0], logits)


def pgd_adversary_batch(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed=0,
                        start: np.ndarray | None = None) -> np.ndarray:
    """Highest-CE PGD point for each sample (CE(x') >= CE(x) guaranteed),
    from ``start`` when given (see ``_pgd_run``)."""
    best_X, _, _ = _pgd_run(params, X, y, cfg, seed, flips=False, start=start)
    return best_X


def pgd_flips_batch(params: ModelParams, X: np.ndarray, y: np.ndarray, cfg: PgdConfig, seed=0) -> np.ndarray:
    """True where some PGD iterate inside the eps-ball got a label != y.

    The clean point is checked too, so a misclassified sample always flips.
    """
    _, flipped, _ = _pgd_run(params, X, y, cfg, seed, best=False)
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

    A candidate already inside the box comes back unchanged.  A stack of
    candidates takes a stack of boxes, around one center or a stack of them.
    """
    if candidate.dims != center.dims or center.dims != delta.dims:
        raise ValueError("candidate, center and delta must share shapes")
    return candidate.like(np.clip(candidate.flat, center.flat - delta.flat, center.flat + delta.flat))


# ---------------------------------------------------------------------------
# attack configuration / result

_ALPHA_DECAY = 0.5   # phase-2 step factor, see AttackConfig.alpha
_DENOM_FLOOR = 1e-8  # lower bound on a ratio objective's denominator
_SWAP_DRAWS = 50     # swap attack: random pairs tried per pair slot
_WARM_STEPS = 5      # PGD steps from a carried start; BENCH_warm_pgd.json has its efficacy vs 20 cold steps


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
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {self.alpha}")
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
    """(X, y, row indices) of a minibatch of ``size`` distinct rows, or of all rows."""
    if size is None or size >= len(y):
        return X, y, np.arange(len(y))
    idx = rng.choice(len(y), size=size, replace=False)
    return X[idx], y[idx], idx


class _Carry:
    """The descent's PGD adversary, warm-started across iterations.

    Keeps, per dataset row and per net of the stack, the best PGD point of
    the last iteration that visited the row.  A run on rows that have all
    been visited starts from their points and takes min(steps, _WARM_STEPS)
    steps; any other run is the cold ``pgd`` run (random start, every step).
    The descent moves theta by at most alpha per step, so the last
    iteration's points are nearly optimal for this one.  Which rows have been
    visited depends on no net, so each net of a stack still gets the bits of
    a descent on it alone.
    """

    def __init__(self, pgd: PgdConfig, shape: tuple):
        """``shape``: the stack's shape, then the dataset's (rows, inputs)."""
        self.cold, self.warm = pgd, PgdConfig(pgd.eps, min(pgd.steps, _WARM_STEPS))
        self.points = np.empty(shape)
        self.seen = np.zeros(shape[-2], dtype=bool)

    def adversary(self, theta: ModelParams, X, y, rows, seed, sel=slice(None)) -> np.ndarray:
        """``pgd_adversary_batch`` on rows ``sel`` of the minibatch (X, y) of
        dataset rows ``rows``, warm when they have all been visited."""
        X, y, rows = X[sel], y[sel], rows[sel]
        warm = self.seen[rows].all()
        Xadv = pgd_adversary_batch(theta, X, y, self.warm if warm else self.cold, seed,
                                   start=self.points[..., rows, :] if warm else None)
        self.points[..., rows, :] = Xadv
        self.seen[rows] = True
        return Xadv


def _loss_grads(spaces: dict, i: int, theta: ModelParams, X, y, reduction: str):
    """``loss_and_grads`` in spaces[i], a workspace kept by the caller; made,
    or made again, when theta's shape or X's row count no longer fit it."""
    ws = spaces.get(i)
    if ws is None or not ws.fits(theta, np.shape(X)[-2]):
        ws = spaces[i] = Workspace(theta, np.shape(X)[-2])
    return loss_and_grads(theta, X, y, reduction=reduction, ws=ws)


def _ratio_grad(theta: ModelParams, num_terms, den_term, spaces: dict):
    """Ratio of summed cross-entropies and its quotient-rule gradient.

    The numerator is the CE sum over each (X, y) of ``num_terms``, added in
    order; the denominator is the CE sum over the (X, y) ``den_term``, floored
    at _DENOM_FLOOR.  Returns (ratio, unfloored denominator, gradient), one
    ratio and denominator per net of a stack.  Term i runs in ``spaces[i]``
    (see ``_loss_grads``).
    """
    terms = [_loss_grads(spaces, i, theta, X, y, "sum") for i, (X, y) in enumerate([*num_terms, den_term])]
    (den_raw, g_den), terms = terms[-1], terms[:-1]
    num = sum(v for v, _ in terms)
    g_num = functools.reduce(add_scaled, [g for _, g in terms])
    den = np.maximum(den_raw, _DENOM_FLOOR)
    ratio = num / den
    grad = add_scaled(g_num, g_den, -np.expand_dims(ratio, -1))
    return ratio, den_raw, grad.like(grad.flat / np.expand_dims(den, -1))


def _descend(params: ModelParams, X: np.ndarray, y: np.ndarray, budgets: list[PerturbBudget],
             cfg: AttackConfig, tag: int, n_pre: int, objective):
    """Projected descent on ``objective`` inside the box of each linf budget,
    all in lockstep on one stack of nets, one per budget.

    Runs n_pre phase-1 and then cfg.n_main phase-2 iterations.  Iteration
    ``it`` draws a minibatch of (X, y) from one default_rng(cfg.seed) and
    calls ``objective(theta, phase, Xb, yb, adversary)`` on the stack.
    ``adversary(sel)`` gives theta's PGD points on the minibatch rows ``sel``
    (all by default) from one ``_Carry`` at cfg.pgd, with the PGD seed
    ``_iter_seed(cfg.seed, tag, it)``: cold while a row has not been visited,
    then warm from the rows' last points for at most _WARM_STEPS steps.  The
    swap attack keeps cold runs, because one accepted swap can move theta far
    from where its last points were found.

    The objective returns (value, grad, extra trace fields), a value and each
    field holding one entry per net, or None to skip a degenerate minibatch:
    no step, no step decay and a nan objective in the trace.  A step is
    theta - alpha * grad projected onto the box; see AttackConfig.alpha for
    the schedule.  The minibatches, seeds, visits and schedule depend on no
    net, so each net gets the bits a descent on it alone gives.  Returns
    (thetas, traces), one per budget.
    """
    delta = ModelParams.stack([b.box(params) for b in budgets])
    theta = ModelParams.stack([params] * len(budgets))
    rng = np.random.default_rng(cfg.seed)
    alpha = cfg.alpha
    decay_every = max(1, cfg.n_main // 4)
    traces = [[] for _ in budgets]
    carry = _Carry(cfg.pgd, theta.stack_shape + np.shape(X))
    for it in range(n_pre + cfg.n_main):
        phase = 1 if it < n_pre else 2
        Xb, yb, rows = _batch(rng, X, y, cfg.batch_size)
        adversary = functools.partial(carry.adversary, theta, Xb, yb, rows, _iter_seed(cfg.seed, tag, it))
        out = objective(theta, phase, Xb, yb, adversary)
        if out is None:
            for trace in traces:
                trace.append({"iter": it, "phase": phase, "objective": float("nan")})
            continue
        value, grad, fields = out
        theta = proj_box(add_scaled(theta, grad, -alpha), params, delta)
        for k, trace in enumerate(traces):
            trace.append({"iter": it, "phase": phase, "objective": float(value[k]),
                          **{name: float(v[k]) for name, v in fields.items()}})
        if phase == 2 and (it - n_pre + 1) % decay_every == 0:
            alpha *= _ALPHA_DECAY
    return [params.like(th.copy()) for th in theta.flat], traces


def _rated(params: ModelParams, thetas: list[ModelParams], ds: LabeledDataset, cfg: AttackConfig,
           kind: str | None = None, on: np.ndarray | None = None) -> list:
    """(RateInputs, RateResult) of each attacked net of ``thetas`` against ``params``.

    The base net and every theta are scored on all of ds, at cfg's PGD
    settings and seed, in one ``scored_rows`` call on one stack, so each net
    gets the bits it gets alone.  Untargeted (``kind`` None): the means of
    the flags over all rows, rated by ``adversarial_rate``.  Targeted: the
    means over the target rows ``on``, the rest or all rows, rated by
    ``targeted_rate(kind)``.
    """
    from .metrics import RateInputs, adversarial_rate, scored_rows, targeted_rate

    (base_c, *cs), (base_r, *rs) = scored_rows(ModelParams.stack([params, *thetas]), ds.X, ds.y, cfg.pgd, cfg.seed)
    out = []
    for c, r in zip(cs, rs):  # att_acc, att_rob and, targeted, att_aux
        att = (c, r) if kind is None else (c, r[~on], r[on]) if kind == "label" else (c[~on], r[~on], c[on])
        ri = RateInputs(*(flags.mean().item() for flags in (base_c, base_r, *att)))
        out.append((ri, adversarial_rate(ri) if kind is None else targeted_rate(kind, ri)))
    return out


# ---------------------------------------------------------------------------
# untargeted gradient attack (elementwise box)


def _robust_objective():
    """The two-phase objective on a minibatch and its PGD points.

    Phase 1: minus the mean robust loss.  Phase 2: clean CE sum / robust CE
    sum.  Both record the mean robust loss in the trace.
    """
    spaces = {}

    def objective(theta, phase, Xb, yb, adversary):
        Xadv = adversary()
        if phase == 1:
            adv_mean, g = _loss_grads(spaces, 0, theta, Xadv, yb, "mean")
            return -adv_mean, g.like(-g.flat), {"robust_loss": adv_mean}
        ratio, den, g = _ratio_grad(theta, [(Xb, yb)], (Xadv, yb), spaces)
        return ratio, g, {"robust_loss": den / len(yb)}

    return objective


def linf_attacks(params: ModelParams, ds: LabeledDataset, budgets: list[PerturbBudget],
                 cfg: AttackConfig) -> list[AttackResult]:
    """Two-phase projected gradient attack inside an elementwise parameter box,
    at each of the linf ``budgets``.

    Phase 1 (n_pre steps) raises the mean robust loss; phase 2 (n_main steps)
    minimizes clean-loss / robust-loss, trading a bounded clean-accuracy hit
    for a large robustness drop.  Every step is projected back onto the box.
    The budgets run in lockstep, one descent on a stack of nets, and the base
    net and the attacked nets are scored as one stack; each result is bit for
    bit ``attack_linf`` at its budget.  A ValueError at any budget (its box,
    its attacked net) fails the whole call.
    """
    if not budgets:
        raise ValueError("no budgets to attack")
    thetas, traces = _descend(params, ds.X, ds.y, budgets, cfg, 1, cfg.n_pre, _robust_objective())
    return [AttackResult(theta, budget.describe(), trace, ri, rr.value, rr.failed)
            for theta, budget, trace, (ri, rr) in zip(thetas, budgets, traces, _rated(params, thetas, ds, cfg))]


def attack_linf(params: ModelParams, ds: LabeledDataset, budget: PerturbBudget,
                cfg: AttackConfig) -> AttackResult:
    """``linf_attacks`` at one budget."""
    return linf_attacks(params, ds, [budget], cfg)[0]


def perturb_random(params: ModelParams, budget: PerturbBudget, seed=0) -> ModelParams:
    """Budget-matched random perturbation (control for the guided attacks)."""
    rng = np.random.default_rng(seed)
    if budget.kind == "linf":
        # U in [-1, 1) and monotone rounding keep every entry inside the box: no projection
        return params.like(params.flat + rng.uniform(-1.0, 1.0, size=params.num_params) * budget.box(params).flat)
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
    swap_log, spaces = [], {}
    skipped = 0

    for l in sel:
        W = theta.weights[l]
        flat = W.ravel()
        stale = True
        for _slot in range(_pair_count(budget, W)):
            if stale:
                Xb, yb, _ = _batch(rng, ds.X, ds.y, cfg.batch_size)
                Xadv = pgd_adversary_batch(theta, Xb, yb, cfg.pgd, seed=_iter_seed(cfg.seed, 2, len(trace)))
                ratio, _, g = _ratio_grad(theta, [(Xb, yb)], (Xadv, yb), spaces)
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

    (ri, rr), = _rated(params, [theta], ds, cfg)
    return AttackResult(theta, budget.describe(), trace, ri, rr.value, rr.failed,
                        {"matrices": sel, "swaps": len(swap_log), "skipped_pairs": skipped, "swap_log": swap_log})


# ---------------------------------------------------------------------------
# targeted attacks


def target_rows(y: np.ndarray, target_label: int) -> np.ndarray:
    """The mask of the labels y equal to the target; a target that is absent,
    or the only label, leaves the targeted ratio undefined and is refused."""
    on = y == target_label
    if not on.any():
        raise ValueError(f"target label {target_label} absent from the dataset")
    if on.all():
        raise ValueError("dataset contains only the target label; targeted objective is degenerate")
    return on


def _targeted(params: ModelParams, ds: LabeledDataset, target_label: int, budget: PerturbBudget,
              cfg: AttackConfig, kind: str) -> AttackResult:
    """Phase-2 descent on the targeted ratio of ``kind``, then ``targeted_rate(kind)``.

    label: [clean CE on all rows + robust CE off the target] / [robust CE on
    the target].  direct: [robust + clean CE off the target] / [clean CE on
    the target], with PGD on the off-target rows only.  A minibatch that is
    all on or all off the target is skipped.  The rate is ``_rated``'s.
    """
    on = target_rows(ds.y, target_label)
    spaces = {}

    def objective(theta, phase, Xb, yb, adversary):
        on_b = yb == target_label
        if on_b.all() or not on_b.any():
            return None
        off_b = ~on_b
        if kind == "label":
            Xadv = adversary()
            terms = [(Xb, yb), (Xadv[..., off_b, :], yb[off_b])], (Xadv[..., on_b, :], yb[on_b])
        else:
            terms = [(adversary(off_b), yb[off_b]), (Xb[off_b], yb[off_b])], (Xb[on_b], yb[on_b])
        ratio, _, grad = _ratio_grad(theta, *terms, spaces)
        return ratio, grad, {}

    (theta,), (trace,) = _descend(params, ds.X, ds.y, [budget], cfg, 3, 0, objective)
    (ri, rr), = _rated(params, [theta], ds, cfg, kind, on)
    return AttackResult(theta, budget.describe(), trace, ri, rr.value, rr.failed,
                        {"target_label": target_label, "kind": kind})


def attack_label(params: ModelParams, ds: LabeledDataset, target_label: int,
                 budget: PerturbBudget, cfg: AttackConfig) -> AttackResult:
    """Degrade robustness only on samples of ``target_label``.

    Objective (minimized): [clean CE over all samples + robust loss off the
    target] / [robust loss on the target].  Success shows up as unchanged
    accuracy, unchanged off-target robustness, and collapsed robustness on
    the target label.
    """
    return _targeted(params, ds, target_label, budget, cfg, "label")


def attack_direct(params: ModelParams, ds: LabeledDataset, target_label: int,
                  budget: PerturbBudget, cfg: AttackConfig) -> AttackResult:
    """Break classification itself on ``target_label`` while sparing the rest.

    Objective (minimized): [robust + clean loss off the target] / [clean CE
    on the target].  Drives the target's clean accuracy to zero.
    """
    return _targeted(params, ds, target_label, budget, cfg, "direct")


def check_classified(params: ModelParams, x: np.ndarray, label: int) -> None:
    """Refuse a sample x that the net does not classify as label."""
    if classify(params, x) != label:
        raise ValueError("x must be correctly classified by the base net")


def attack_single(params: ModelParams, x: np.ndarray, label: int,
                  budget: PerturbBudget, cfg: AttackConfig) -> AttackResult:
    """Make one correctly classified sample attackable without mislabeling it.

    Runs the two-phase loop on the singleton set; success means the attacked
    net still classifies x correctly but PGD now finds an adversarial point,
    and the rate is 1 - min(radius_after / radius_before, 1) using the
    linearized robustness radius.
    """
    x = np.asarray(x, dtype=np.float64)
    check_classified(params, x, label)
    X1, y1 = x[None, :], np.array([label])
    (theta,), (trace,) = _descend(params, X1, y1, [budget], cfg, 4, cfg.n_pre, _robust_objective())

    from .metrics import RateInputs, approx_radius, scored_rows, targeted_rate

    base_r = approx_radius(params, x, label)
    att_r = approx_radius(theta, x, label)
    correct, robust = scored_rows(theta, X1, y1, cfg.pgd, cfg.seed)
    still_correct, has_adv = bool(correct[0]), not robust[0]
    ri = RateInputs(base_acc=1.0, base_rob=base_r,
                    att_acc=1.0 if still_correct else 0.0, att_rob=att_r)
    rr = targeted_rate("single", ri)
    failed = not (still_correct and has_adv)
    return AttackResult(attacked=theta, budget_desc=budget.describe(), trace=trace,
                        rate_inputs=ri, rate=rr.value, failed=failed,
                        extras={"kind": "single", "still_correct": still_correct,
                                "adversarial_found": has_adv,
                                "radius_before": base_r, "radius_after": att_r})
