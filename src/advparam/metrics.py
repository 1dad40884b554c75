"""Robustness measures and attack-quality rates.

Three views of robustness:
  * linearized per-sample radius (logit gap over dual-norm gradient gap),
  * adversarial accuracy at a fixed budget (PGD),
  * a distributional gap/gradient ratio over a whole dataset.

The two jacobian measures (radius, distributional ratio) come from one
batched pass, ``_jacobian_measures``: ``mlp.logit_jacobians`` over blocks of
rows, each block reduced straight to per-sample terms (``_jacobian_terms``).
Against a per-sample loop over one jacobian per sample the values agree to a
relative 1e-9 (products and sums are taken in another order), and whether
a radius is 0, inf or finite is the same.

Rates compare a base net against an attacked one: the fraction of clean
accuracy retained times the fraction of robustness destroyed, with an attack
declared failed when it costs too much accuracy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .attack import PgdConfig, pgd_flips_batch
from .data import LabeledDataset
from .mlp import ModelParams, classify_batch, logit_jacobians, row_blocks

INF_SENTINEL_TOL = 1e-12  # gradient-gap norms below this count as "no gradient"
GAMMA_LOW = 0.9  # an attack keeping less than this share of clean accuracy has failed


def accuracy(params: ModelParams, ds: LabeledDataset) -> float:
    return float((classify_batch(params, ds.X) == ds.y).mean())


def adversarial_accuracy(params: ModelParams, ds: LabeledDataset, pgd: PgdConfig, seed=0) -> float:
    """Fraction of samples that are clean-correct and survive PGD at pgd.eps.

    A sample counts as robust only if no PGD iterate (the clean point
    included) changes its label, so eps = 0 reproduces clean accuracy.
    """
    flipped = pgd_flips_batch(params, ds.X, ds.y, pgd, seed=seed)
    correct = classify_batch(params, ds.X) == ds.y
    return float((correct & ~flipped).mean())


def _dual_exponent(p: float) -> float:
    if p == math.inf:
        return 1.0
    if p == 1.0:
        return math.inf
    if p <= 1.0:
        raise ValueError("p must be in [1, inf]")
    return p / (p - 1.0)


def _jacobian_measures(params: ModelParams, X: np.ndarray, y: np.ndarray,
                       p: float = math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample (radius, squared margin, squared worst gradient gap).

    Rows go through ``logit_jacobians`` in ``row_blocks``; each block is
    reduced at once, so at most one block of jacobians is alive.
    The radius is the first-order L_p radius of ``approx_radius``; the
    squared margin is min over other classes of the gated gap^2 and the
    squared worst gradient gap max over other classes of ||grad gap||_2^2,
    the two terms of ``dist_robust_measure``.
    """
    q = _dual_exponent(p)
    N = X.shape[0]
    radii, margin2, grad2 = np.empty(N), np.empty(N), np.empty(N)
    for blk in row_blocks(N):
        radii[blk], margin2[blk], grad2[blk] = _jacobian_terms(*logit_jacobians(params, X[blk]), y[blk], q)
    return radii, margin2, grad2


def _jacobian_terms(logits: np.ndarray, J: np.ndarray, y: np.ndarray,
                    q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_jacobian_measures`` of one block from its ``logit_jacobians`` output (q: dual exponent)."""
    rows = np.arange(len(y))
    gap = logits[rows, y][:, None] - logits
    gd = J[rows, y][:, None, :] - J
    gap[rows, y] = math.inf  # own class: no gap to close (and its gd is exactly 0)
    denom = np.linalg.norm(gd, ord=q, axis=2)
    usable = denom >= INF_SENTINEL_TOL
    ratio = np.divide(gap, denom, out=np.full_like(gap, math.inf), where=usable)
    r = ratio.min(axis=1)
    r[(gap <= 0.0).any(axis=1)] = 0.0  # misclassified, or a class tied/ahead
    return r, np.where(gap > 0.0, gap * gap, 0.0).min(axis=1), (gd * gd).sum(axis=2).max(axis=1)


def _mean_finite(radii: np.ndarray) -> float:
    finite = radii[np.isfinite(radii)]
    return float(finite.mean()) if finite.size else math.inf


def _ratio_of_means(margin2: np.ndarray, grad2: np.ndarray) -> float:
    den = float(np.mean(grad2))
    return float(np.mean(margin2)) / den if den != 0.0 else math.nan


def approx_radius(params: ModelParams, x: np.ndarray, label: int, p: float = math.inf) -> float:
    """First-order robustness radius for an L_p input adversary.

    min over other classes of (logit gap) / (dual-norm gradient gap), gated
    to 0 when the gap is not positive; a misclassified sample scores 0.  A
    vanishing gradient gap with a positive logit gap returns inf (the
    linearization sees no way to flip that class).  This is the one-row case
    of the batched pass behind ``radius_profile``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.input_dim,):
        raise ValueError(f"input shape {x.shape} != ({params.input_dim},)")
    radii, _, _ = _jacobian_measures(params, x[None, :], np.array([label]), p)
    return float(radii[0])


def margin_measure(params: ModelParams, x: np.ndarray, label: int) -> float:
    """Squared first-order margin: min over classes of gap^2 / ||grad gap||_2^2."""
    return _squared_margin(*logit_jacobians(params, np.reshape(x, (1, -1))), label)


def _squared_margin(logits: np.ndarray, J: np.ndarray, label: int) -> float:
    """``margin_measure`` of one point from its one-row ``logit_jacobians`` output."""
    r = float(_jacobian_terms(logits, J, np.array([label]), 2.0)[0][0])
    return r * r if math.isfinite(r) else math.inf


def radius_profile(params: ModelParams, ds: LabeledDataset, p: float = math.inf):
    """Per-sample linearized radii plus the count of inf sentinels."""
    radii, _, _ = _jacobian_measures(params, ds.X, ds.y, p)
    return radii, int(np.isinf(radii).sum())


def avg_approx_radius(params: ModelParams, ds: LabeledDataset, p: float = math.inf) -> float:
    """Mean linearized radius; misclassified samples contribute 0, inf
    sentinels are left out of the mean (inf if every sample is a sentinel)."""
    radii, _ = radius_profile(params, ds, p=p)
    return _mean_finite(radii)


def dist_robust_measure(params: ModelParams, ds: LabeledDataset) -> float:
    """Distributional robustness: mean gated squared margin over mean squared
    worst-case gradient gap (ratio of means; nan when the denominator is 0)."""
    _, margin2, grad2 = _jacobian_measures(params, ds.X, ds.y)
    return _ratio_of_means(margin2, grad2)


# ---------------------------------------------------------------------------
# rates


@dataclass
class RateInputs:
    """Accuracy/robustness of the base net and its attacked counterpart.

    ``att_aux`` carries the third ratio of the targeted rates: adversarial
    accuracy on the target label (label attack) or clean accuracy on the
    target label (direct attack).
    """

    base_acc: float
    base_rob: float
    att_acc: float
    att_rob: float
    att_aux: float | None = None


@dataclass
class RateResult:
    value: float
    gamma1: float
    gamma2: float
    gamma3: float | None
    failed: bool
    defined: bool


def _capped(x: float) -> float:
    return min(x, 1.0)


def adversarial_rate(ri: RateInputs) -> RateResult:
    """Untargeted attack rate: retained accuracy times destroyed robustness.

    rate = min(acc_ratio, 1) * (1 - min(rob_ratio, 1)); the attack is flagged
    failed when acc_ratio < GAMMA_LOW.  Undefined (nan) when the base net has
    zero accuracy or zero robustness.
    """
    if ri.base_acc <= 0.0 or ri.base_rob <= 0.0 or not (
        math.isfinite(ri.base_acc) and math.isfinite(ri.base_rob)
    ):
        return RateResult(math.nan, math.nan, math.nan, None, failed=True, defined=False)
    g1 = ri.att_acc / ri.base_acc
    g2 = ri.att_rob / ri.base_rob
    value = _capped(g1) * (1.0 - _capped(g2))
    return RateResult(value, g1, g2, None, failed=g1 < GAMMA_LOW, defined=True)


def targeted_rate(kind: str, ri: RateInputs) -> RateResult:
    """Rates for the targeted attacks.

    kind "label":  gamma1 = overall acc ratio, gamma2 = off-target robustness
    ratio, gamma3 = on-target robustness ratio (both against the base net's
    overall robustness); rate = g1*g2*(1-g3), capped at 1 termwise.
    kind "direct": gamma2 as above, gamma1 = off-target acc ratio and
    gamma3 = on-target acc ratio against the base net's overall accuracy.
    kind "single": rate = 1 - min(att_rob/base_rob, 1) on the per-sample
    radius (gamma2 carries the ratio).
    """
    if kind == "single":
        if not (ri.base_rob > 0.0) or not math.isfinite(ri.base_rob):
            return RateResult(math.nan, math.nan, math.nan, None, failed=True, defined=False)
        g = ri.att_rob / ri.base_rob
        value = 1.0 - _capped(g)
        return RateResult(value, 1.0, g, None, failed=False, defined=True)
    if kind not in ("label", "direct"):
        raise ValueError(f"unknown targeted rate kind {kind!r}")
    if ri.att_aux is None:
        raise ValueError(f"{kind} rate needs att_aux")
    if ri.base_acc <= 0.0 or ri.base_rob <= 0.0:
        return RateResult(math.nan, math.nan, math.nan, math.nan, failed=True, defined=False)
    g1 = ri.att_acc / ri.base_acc
    g2 = ri.att_rob / ri.base_rob
    g3 = ri.att_aux / (ri.base_rob if kind == "label" else ri.base_acc)
    value = _capped(g1) * _capped(g2) * (1.0 - _capped(g3))
    return RateResult(value, g1, g2, g3, failed=g1 < GAMMA_LOW, defined=True)


# ---------------------------------------------------------------------------
# dataset-level report


REPORT_COLUMNS = ["dataset", "n_samples", "acc", "adv_acc", "eps", "avg_r2", "dist_measure", "seed"]


@dataclass
class RobustnessReport:
    dataset: str
    n_samples: int
    acc: float
    adv_acc: float
    eps: float
    avg_r2: float
    dist_measure: float
    seed: int
    per_sample_radius: np.ndarray = field(repr=False, default=None)
    n_radius_inf: int = 0

    def csv_row(self) -> list[str]:
        return [self.dataset, str(self.n_samples), repr(self.acc), repr(self.adv_acc),
                repr(self.eps), repr(self.avg_r2), repr(self.dist_measure), str(self.seed)]

    def text_summary(self) -> str:
        lines = [
            f"dataset            {self.dataset} ({self.n_samples} samples)",
            f"clean accuracy     {self.acc:.4f}",
            f"adv accuracy       {self.adv_acc:.4f}  (eps={self.eps:g})",
            f"avg approx radius  {self.avg_r2:.6g}"
            + (f"  ({self.n_radius_inf} inf sentinels excluded)" if self.n_radius_inf else ""),
            f"dist measure       {self.dist_measure:.6g}",
            f"seed               {self.seed}",
        ]
        return "\n".join(lines)


def robustness_report(params: ModelParams, ds: LabeledDataset, pgd: PgdConfig,
                      seed: int = 0) -> RobustnessReport:
    """Accuracy, PGD accuracy and both jacobian measures of ``params`` on ``ds``.

    ``avg_r2`` and ``dist_measure`` come from one batched jacobian pass and
    equal ``avg_approx_radius`` and ``dist_robust_measure`` exactly.
    """
    radii, margin2, grad2 = _jacobian_measures(params, ds.X, ds.y)
    return RobustnessReport(
        dataset=ds.name or "dataset",
        n_samples=len(ds),
        acc=accuracy(params, ds),
        adv_acc=adversarial_accuracy(params, ds, pgd, seed=seed),
        eps=pgd.eps,
        avg_r2=_mean_finite(radii),
        dist_measure=_ratio_of_means(margin2, grad2),
        seed=seed,
        per_sample_radius=radii,
        n_radius_inf=int(np.isinf(radii).sum()),
    )


def reports_to_csv(reports: list[RobustnessReport], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(REPORT_COLUMNS)
        for r in reports:
            w.writerow(r.csv_row())
