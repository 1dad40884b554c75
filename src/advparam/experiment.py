"""Sweep runner: attack a model over a budget grid and report paired metrics.

Each sweep point produces one CSV row comparing the base net against the
attacked net on clean accuracy, PGD adversarial accuracy and the averaged
approximate radius, with the adversarial rate computed under both robustness
measures.  A budget-matched random perturbation row accompanies every guided
attack as the control.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace

from .attack import (
    AttackConfig,
    PerturbBudget,
    attack_linf,
    attack_swap,
    budget_linf,
    budget_swap,
    perturb_random,
)
from .data import LabeledDataset, load_dataset
from .metrics import (
    RateInputs,
    accuracy,
    adversarial_accuracy,
    adversarial_rate,
    avg_approx_radius,
)
from .mlp import ModelParams, load_model

SWEEP_COLUMNS = ["attack", "budget", "ac_base", "ac_att", "aa_base", "aa_att",
                 "r4_base", "r4_att", "ar_aa", "ar_r4", "failed"]


@dataclass
class AttackDescriptor:
    """One sweep point: a guided attack at a fixed parameter budget.

    kind "linf" sweeps the relative box ratio gamma; kind "swap" sweeps the
    number of touched matrices (and optionally the pair counts).  With
    ``control`` set, a random perturbation row at the same budget is emitted
    right after the guided row.
    """

    kind: str
    gamma: float | None = None
    k_matrices: int = 1
    pair_fraction: float = 0.01
    pair_floor: int = 400
    control: bool = True

    def __post_init__(self):
        if self.kind not in ("linf", "swap"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind == "linf":
            if self.gamma is None or self.gamma < 0:
                raise ValueError("linf descriptor needs gamma >= 0")

    def make_budget(self, params: ModelParams) -> PerturbBudget:
        if self.kind == "linf":
            return budget_linf(params, self.gamma)
        return budget_swap(self.k_matrices, self.pair_fraction, self.pair_floor)

    def budget_str(self) -> str:
        if self.kind == "linf":
            return repr(float(self.gamma))
        return f"k={self.k_matrices};frac={self.pair_fraction:g};floor={self.pair_floor}"


def linf_sweep(gammas, control: bool = True) -> list[AttackDescriptor]:
    return [AttackDescriptor("linf", gamma=float(g), control=control) for g in gammas]


@dataclass
class SweepRow:
    attack: str
    budget: str
    ac_base: float
    ac_att: float
    aa_base: float
    aa_att: float
    r4_base: float
    r4_att: float
    ar_aa: float
    ar_r4: float
    failed: bool

    def csv_values(self) -> list[str]:
        nums = [self.ac_base, self.ac_att, self.aa_base, self.aa_att,
                self.r4_base, self.r4_att, self.ar_aa, self.ar_r4]
        return [self.attack, self.budget] + [repr(float(x)) for x in nums] \
            + ["1" if self.failed else "0"]

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in SWEEP_COLUMNS}


def _rate_from_columns(ac_base, rob_base, ac_att, rob_att, gamma_low):
    return adversarial_rate(RateInputs(base_acc=ac_base, base_rob=rob_base,
                                       att_acc=ac_att, att_rob=rob_att,
                                       gamma_low=gamma_low))


def build_row(attack: str, budget: str, base_nums, att_nums,
              gamma_low: float = 0.9) -> SweepRow:
    """Assemble one report row from (acc, adv_acc, avg_radius) triples."""
    ac_b, aa_b, r4_b = base_nums
    ac_a, aa_a, r4_a = att_nums
    rate_aa = _rate_from_columns(ac_b, aa_b, ac_a, aa_a, gamma_low)
    rate_r4 = _rate_from_columns(ac_b, r4_b, ac_a, r4_a, gamma_low)
    return SweepRow(attack, budget, ac_b, ac_a, aa_b, aa_a, r4_b, r4_a,
                    rate_aa.value, rate_r4.value, rate_aa.failed)


def _nan_row(attack: str, budget: str) -> SweepRow:
    nan = math.nan
    return SweepRow(attack, budget, nan, nan, nan, nan, nan, nan, nan, nan, True)


def _eval_triple(params: ModelParams, ds: LabeledDataset, pgd, seed):
    return (accuracy(params, ds),
            adversarial_accuracy(params, ds, pgd, seed=seed),
            avg_approx_radius(params, ds))


def run_sweep(params: ModelParams, ds: LabeledDataset, attacks: list[AttackDescriptor],
              cfg: AttackConfig | None = None, seed: int = 0):
    """Run every descriptor (plus controls) and return (rows, errors).

    A sweep point whose budget or attack is invalid (``ValueError``)
    contributes a flagged all-nan row and an entry in ``errors``; the sweep
    keeps going.  Any other exception propagates.  The attacked net's
    accuracy and adversarial accuracy come from the attack's own
    ``rate_inputs``, which used the same dataset, PGD settings and seed.
    """
    if not attacks:
        raise ValueError("attack sweep is empty")
    cfg = replace(cfg, seed=seed) if cfg is not None else AttackConfig(seed=seed)
    base_nums = _eval_triple(params, ds, cfg.pgd, seed)
    rows: list[SweepRow] = []
    errors: list[dict] = []
    for idx, desc in enumerate(attacks):
        bstr = desc.budget_str()
        try:
            budget = desc.make_budget(params)
            runner = attack_linf if desc.kind == "linf" else attack_swap
            res = runner(params, ds, budget, cfg)
            ri = res.rate_inputs
            att_nums = (ri.att_acc, ri.att_rob, avg_approx_radius(res.attacked, ds))
            rows.append(build_row(desc.kind, bstr, base_nums, att_nums, cfg.gamma_low))
            if desc.control:
                rand = perturb_random(params, budget, seed=(seed, 7, idx))
                rand_nums = _eval_triple(rand, ds, cfg.pgd, seed)
                rows.append(build_row("random", bstr, base_nums, rand_nums, cfg.gamma_low))
        except ValueError as exc:  # keep sweeping, record the failure
            errors.append({"attack": desc.kind, "budget": bstr, "error": str(exc)})
            rows.append(_nan_row(desc.kind, bstr))
    return rows, errors


def write_report_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SWEEP_COLUMNS)
        for row in rows:
            w.writerow(row.csv_values())


def parse_report_csv(path: str) -> list[SweepRow]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != SWEEP_COLUMNS:
            raise ValueError(f"unexpected report header {header}")
        rows = []
        for rec in reader:
            vals = [float(x) for x in rec[2:10]]
            rows.append(SweepRow(rec[0], rec[1], *vals, failed=rec[10] == "1"))
    return rows


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def row_rates_consistent(row: SweepRow, tol: float = 1e-12) -> bool:
    """Both stated rates must reproduce from the row's own metric columns."""
    rate_aa = _rate_from_columns(row.ac_base, row.aa_base, row.ac_att, row.aa_att, 0.9)
    rate_r4 = _rate_from_columns(row.ac_base, row.r4_base, row.ac_att, row.r4_att, 0.9)
    return _close(rate_aa.value, row.ar_aa, tol) and _close(rate_r4.value, row.ar_r4, tol)


@dataclass
class ExperimentPlan:
    """File-level description of one sweep run."""

    model_path: str
    dataset_path: str
    attacks: list[AttackDescriptor]
    out_dir: str
    seed: int = 0
    attack_cfg: AttackConfig | None = None
    name: str = "experiment"

    def __post_init__(self):
        if not self.attacks:
            raise ValueError("attack sweep is empty")


@dataclass
class ExperimentResult:
    rows: list[SweepRow]
    errors: list[dict]
    csv_path: str
    summary_path: str

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.rows)


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Execute the plan and write report.csv + summary.json to its out_dir."""
    for p in (plan.model_path, plan.dataset_path):
        if not os.path.exists(p):
            raise FileNotFoundError(p)
    params = load_model(plan.model_path)
    ds = load_dataset(plan.dataset_path)
    rows, errors = run_sweep(params, ds, plan.attacks, plan.attack_cfg, plan.seed)
    os.makedirs(plan.out_dir, exist_ok=True)
    csv_path = os.path.join(plan.out_dir, "report.csv")
    summary_path = os.path.join(plan.out_dir, "summary.json")
    write_report_csv(rows, csv_path)
    cfg = plan.attack_cfg if plan.attack_cfg is not None else AttackConfig()
    summary = {
        "name": plan.name,
        "seed": plan.seed,
        "model": plan.model_path,
        "dataset": plan.dataset_path,
        "eval_eps": cfg.pgd.eps,
        "n_samples": len(ds),
        "rows": [r.as_dict() for r in rows],
        "errors": errors,
        "any_failed": any(r.failed for r in rows),
    }
    with open(summary_path, "w") as f:
        json.dump(summary, f, indent=2)
    return ExperimentResult(rows, errors, csv_path, summary_path)
