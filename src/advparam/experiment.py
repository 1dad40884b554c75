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
from dataclasses import dataclass

from .attack import (
    AttackConfig,
    PerturbBudget,
    attack_swap,
    finite_logits,
    linf_attacks,
    perturb_random,
)
from .data import LabeledDataset, atomic_open, load_dataset, write_csv
from .metrics import GAMMA_LOW, RateInputs, adversarial_rate, avg_approx_radius, robustness_report
from .mlp import ModelParams, _block_workspaces, load_model

SWEEP_COLUMNS = ["attack", "budget", "ac_base", "ac_att", "aa_base", "aa_att",
                 "r4_base", "r4_att", "ar_aa", "ar_r4", "failed"]


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
        nums = [repr(float(getattr(self, c))) for c in SWEEP_COLUMNS[2:10]]
        return [self.attack, self.budget] + nums + ["1" if self.failed else "0"]

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in SWEEP_COLUMNS}


def build_row(attack: str, budget: str, base_nums, att_nums) -> SweepRow:
    """Assemble one report row from (acc, adv_acc, avg_radius) triples."""
    ac_b, aa_b, r4_b = base_nums
    ac_a, aa_a, r4_a = att_nums
    rate_aa = adversarial_rate(RateInputs(ac_b, aa_b, ac_a, aa_a))
    rate_r4 = adversarial_rate(RateInputs(ac_b, r4_b, ac_a, r4_a))
    return SweepRow(attack, budget, ac_b, ac_a, aa_b, aa_a, r4_b, r4_a,
                    rate_aa.value, rate_r4.value, rate_aa.failed)


def _nan_row(attack: str, budget: str) -> SweepRow:
    nan = math.nan
    return SweepRow(attack, budget, nan, nan, nan, nan, nan, nan, nan, nan, True)


def run_sweep(params: ModelParams, ds: LabeledDataset, budgets: list[PerturbBudget],
              cfg: AttackConfig | None = None, control: bool = True):
    """Attack at every budget and return (rows, errors).

    Each budget gives one guided row (``linf_attacks`` or ``attack_swap``),
    followed, with ``control`` set, by a random perturbation row at the same
    budget.  The linf budgets run in one ``linf_attacks`` call, in lockstep.
    A guided attack or a control that is invalid (``ValueError``, e.g. a swap
    over more matrices than the net has, or a gamma so large that the box or
    the perturbed net overflows) gets a flagged all-nan row of its own kind
    and an entry in ``errors`` (a failed attack gets no control); the sweep
    keeps going.  When the lockstep call fails, each linf budget runs again
    alone, so only the failing ones get such rows.  Any other exception
    propagates.  Every attack result scores the base net on the same dataset,
    PGD settings and seed (``cfg.seed``), so the base accuracies come from the
    first result; the attacked net's from its own ``rate_inputs``.  A control
    is scored by ``robustness_report``.
    """
    if not budgets:
        raise ValueError("attack sweep is empty")
    cfg = cfg if cfg is not None else AttackConfig()
    base, base_r4 = None, avg_approx_radius(params, ds)
    linf = [i for i, b in enumerate(budgets) if b.kind == "linf"]
    try:
        done = dict(zip(linf, linf_attacks(params, ds, [budgets[i] for i in linf], cfg))) if linf else {}
    except ValueError:  # some budget fails: each runs alone below, to find which
        done = {}
    rows: list[SweepRow] = []
    errors: list[dict] = []

    def fail(attack: str, label: str, exc: ValueError) -> None:  # keep sweeping, record the failure
        errors.append({"attack": attack, "budget": label, "error": str(exc)})
        rows.append(_nan_row(attack, label))

    for idx, budget in enumerate(budgets):
        label = budget.label()
        try:
            if idx in done:
                res = done[idx]
            elif budget.kind == "linf":
                res = linf_attacks(params, ds, [budget], cfg)[0]
            else:
                res = attack_swap(params, ds, budget, cfg)
            ri = res.rate_inputs
            att_nums = (ri.att_acc, ri.att_rob, avg_approx_radius(res.attacked, ds))
        except ValueError as exc:
            fail(budget.kind, label, exc)
            continue
        base = base or (ri.base_acc, ri.base_rob, base_r4)
        rows.append(build_row(budget.kind, label, base, att_nums))
        if control:
            try:
                rand = perturb_random(params, budget, seed=(cfg.seed, 7, idx))
                rep = robustness_report(rand, ds, cfg.pgd, cfg.seed)
            except ValueError as exc:
                fail("random", label, exc)
            else:
                rows.append(build_row("random", label, base, (rep.acc, rep.adv_acc, rep.avg_r2)))
    return rows, errors


def write_report_csv(rows: list[SweepRow], path: str) -> None:
    write_csv(path, SWEEP_COLUMNS, (row.csv_values() for row in rows))


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
    """Both stated rates and the failed flag (accuracy threshold ``GAMMA_LOW``)
    must reproduce from the row's own metric columns."""
    want = build_row(row.attack, row.budget, (row.ac_base, row.aa_base, row.r4_base),
                     (row.ac_att, row.aa_att, row.r4_att))
    return _close(want.ar_aa, row.ar_aa, tol) and _close(want.ar_r4, row.ar_r4, tol) and want.failed == row.failed


def _json_number(v):
    """Strict JSON has no nan/inf token: such a value is written as null."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


@dataclass
class ExperimentResult:
    rows: list[SweepRow]
    errors: list[dict]
    csv_path: str
    summary_path: str

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.rows)


def load_inputs(model_path: str, dataset_path: str) -> tuple[ModelParams, LabeledDataset]:
    """The net and the dataset a command runs on, checked before it writes
    anything: data the net cannot take (``LabeledDataset.check_model``) and a
    net that overflows on it (``finite_logits``, one row block at a time)
    raise ValueError."""
    params, ds = load_model(model_path), load_dataset(dataset_path)
    ds.check_model(params.input_dim, params.output_dim)
    for blk, ws in _block_workspaces(params, len(ds)):
        finite_logits(params, ds.X[blk], ws)
    return params, ds


def run_experiment(model_path: str, dataset_path: str, budgets: list[PerturbBudget],
                   out_dir: str, cfg: AttackConfig | None = None, control: bool = True,
                   name: str = "experiment") -> ExperimentResult:
    """Run the sweep and write report.csv + summary.json to out_dir.

    The inputs are checked by ``load_inputs``, and a budget that does not fit
    the net (``PerturbBudget.check_fits``) raises ValueError, before out_dir is
    created; out_dir is created before the sweep runs.  summary.json is strict JSON:
    a nan (undefined rate, error row) or inf (every radius an inf sentinel)
    column is written as null there, while report.csv keeps ``nan``/``inf``.
    """
    cfg = cfg if cfg is not None else AttackConfig()
    params, ds = load_inputs(model_path, dataset_path)
    for budget in budgets:
        budget.check_fits(params)
    os.makedirs(out_dir, exist_ok=True)
    rows, errors = run_sweep(params, ds, budgets, cfg, control)
    csv_path = os.path.join(out_dir, "report.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    write_report_csv(rows, csv_path)
    summary = {
        "name": name,
        "seed": cfg.seed,
        "model": model_path,
        "dataset": dataset_path,
        "eval_eps": cfg.pgd.eps,
        "gamma_low": GAMMA_LOW,
        "n_samples": len(ds),
        "rows": [{k: _json_number(v) for k, v in r.as_dict().items()} for r in rows],
        "errors": errors,
        "any_failed": any(r.failed for r in rows),
    }
    with atomic_open(summary_path) as f:
        json.dump(summary, f, indent=2, allow_nan=False)
    return ExperimentResult(rows, errors, csv_path, summary_path)
