"""Tests for the sweep runner and its report files."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from advparam import experiment
from advparam.attack import AttackConfig, PerturbBudget, PgdConfig, attack_linf, perturb_random
from advparam.data import gen_blobs, save_dataset
from advparam.metrics import GAMMA_LOW, adversarial_accuracy, avg_approx_radius
from advparam.experiment import (
    SWEEP_COLUMNS,
    build_row,
    parse_report_csv,
    row_rates_consistent,
    run_experiment,
    run_sweep,
    write_report_csv,
)
from advparam.mlp import save_model
from advparam.train import TrainConfig, train


@pytest.fixture(scope="module")
def trained():
    ds = gen_blobs(60, 6, 2, seed=0)
    res = train(TrainConfig(dims=[6, 16, 2], epochs=10, batch_size=16, seed=0), ds)
    return res.params, ds


def _fast_cfg(seed=0):
    return AttackConfig(pgd=PgdConfig(eps=0.08, steps=8), n_pre=2, n_main=6,
                        alpha=5e-3, seed=seed)


def _linf(*gammas):
    return [PerturbBudget("linf", gamma=g) for g in gammas]


def test_sweep_rows_and_controls(trained):
    params, ds = trained
    rows, errors = run_sweep(params, ds, _linf(0.0, 0.05), _fast_cfg(seed=1))
    assert errors == []
    assert [r.attack for r in rows] == ["linf", "random", "linf", "random"]
    assert rows[0].budget == rows[1].budget == "0.0"
    # zero budget: the attack cannot move, both rates are exactly zero
    assert rows[0].ar_aa == 0.0
    assert rows[0].ar_r4 == 0.0
    assert not rows[0].failed
    assert rows[0].ac_att == rows[0].ac_base
    for r in rows:
        assert row_rates_consistent(r)


def test_sweep_without_control(trained):
    params, ds = trained
    rows, _ = run_sweep(params, ds, _linf(0.03), _fast_cfg(), control=False)
    assert [r.attack for r in rows] == ["linf"]


def test_sweep_error_recorded_and_continues(trained):
    params, ds = trained
    bad = PerturbBudget("swap", k_matrices=9)  # net has 2 matrices
    good = PerturbBudget("linf", gamma=0.0)
    rows, errors = run_sweep(params, ds, [bad, good], _fast_cfg(), control=False)
    assert len(rows) == 2 and len(errors) == 1
    assert rows[0].failed and math.isnan(rows[0].ac_att)
    assert "matrices" in errors[0]["error"]
    assert not rows[1].failed


def test_sweep_programming_error_propagates(trained, monkeypatch):
    params, ds = trained

    def broken(*args, **kwargs):
        raise RuntimeError("bug in the attack")

    monkeypatch.setattr(experiment, "attack_linf", broken)
    with pytest.raises(RuntimeError, match="bug in the attack"):
        run_sweep(params, ds, _linf(0.05), _fast_cfg())


def test_sweep_attacked_columns_are_the_attack_rate_inputs(trained):
    params, ds = trained
    # eps 0.2 with one step: here the PGD seed changes the adversarial accuracy
    cfg = replace(_fast_cfg(), pgd=PgdConfig(eps=0.2, steps=1))
    rows, _ = run_sweep(params, ds, _linf(0.05), cfg, control=False)
    res = attack_linf(params, ds, PerturbBudget("linf", gamma=0.05), cfg)
    assert rows[0].ac_att == res.rate_inputs.att_acc
    assert rows[0].aa_att == res.rate_inputs.att_rob
    assert rows[0].ac_base == res.rate_inputs.base_acc
    assert rows[0].aa_base == res.rate_inputs.base_rob


def test_sweep_seed_comes_from_cfg(trained):
    """The config's seed drives the random control as well as the attack."""
    params, ds = trained
    budget = PerturbBudget("linf", gamma=0.05)
    pgd = PgdConfig(eps=0.2, steps=1)  # here the PGD seed changes the adversarial accuracy
    rows, _ = run_sweep(params, ds, [budget], replace(_fast_cfg(seed=5), pgd=pgd))
    rand = perturb_random(params, budget, seed=(5, 7, 0))
    assert rows[1].attack == "random"
    assert rows[1].r4_att == avg_approx_radius(rand, ds)
    assert rows[1].aa_base == adversarial_accuracy(params, ds, pgd, seed=5)
    assert rows[1].aa_base != adversarial_accuracy(params, ds, pgd, seed=0)


def test_sweep_empty_rejected(trained):
    params, ds = trained
    with pytest.raises(ValueError, match="empty"):
        run_sweep(params, ds, [], _fast_cfg())


def test_csv_round_trip(tmp_path, trained):
    params, ds = trained
    rows, _ = run_sweep(params, ds, _linf(0.0, 0.04), _fast_cfg(seed=2))
    path = tmp_path / "report.csv"
    write_report_csv(rows, str(path))
    back = parse_report_csv(str(path))
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a.attack == b.attack and a.budget == b.budget
        for col in SWEEP_COLUMNS[2:10]:
            va, vb = getattr(a, col), getattr(b, col)
            assert va == vb or (math.isnan(va) and math.isnan(vb))
        assert a.failed == b.failed
        assert row_rates_consistent(b)


def test_run_experiment_files(tmp_path, trained):
    params, ds = trained
    mpath, dpath = str(tmp_path / "model.json"), str(tmp_path / "data.json")
    save_model(params, mpath)
    save_dataset(ds, dpath)
    res = run_experiment(mpath, dpath, _linf(0.0, 0.05), str(tmp_path / "out"),
                         _fast_cfg(seed=3), name="smoke")
    assert res.csv_path.endswith("report.csv")
    back = parse_report_csv(res.csv_path)
    assert len(back) == 4
    with open(res.summary_path) as f:
        summary = json.load(f)
    assert summary["name"] == "smoke"
    assert summary["seed"] == 3
    assert summary["n_samples"] == len(ds)
    assert len(summary["rows"]) == 4
    assert summary["any_failed"] == res.any_failed
    assert [r["attack"] for r in summary["rows"]] == [r.attack for r in back]


def test_row_consistency_uses_gamma_low_and_failed_flag():
    # accuracy ratios 0.8 and 0.95 sit on either side of GAMMA_LOW = 0.9; the
    # rates do not depend on the threshold, so only the failed flag checks it
    assert GAMMA_LOW == 0.9
    for ac_att, failed in ((0.8, True), (0.95, False)):
        row = build_row("linf", "0.05", (1.0, 0.5, 0.2), (ac_att, 0.1, 0.05))
        assert row.failed is failed
        assert row_rates_consistent(row)
        assert not row_rates_consistent(replace(row, failed=not failed))


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def test_summary_is_strict_json_with_error_row(tmp_path, trained, monkeypatch):
    params, ds = trained
    mpath, dpath = str(tmp_path / "model.json"), str(tmp_path / "data.json")
    save_model(params, mpath)
    save_dataset(ds, dpath)

    def attack(params, ds, budget, cfg):  # the first sweep point fails inside the sweep
        if budget.gamma == 0.5:
            raise ValueError("non-finite input")
        return attack_linf(params, ds, budget, cfg)

    monkeypatch.setattr(experiment, "attack_linf", attack)
    budgets = [PerturbBudget("linf", gamma=0.5), PerturbBudget("linf", gamma=0.0)]
    res = run_experiment(mpath, dpath, budgets, str(tmp_path / "out"), _fast_cfg(), control=False)
    with open(res.summary_path) as f:
        summary = json.loads(f.read(), parse_constant=_reject_constant)
    assert len(summary["errors"]) == 1
    assert summary["gamma_low"] == GAMMA_LOW
    bad, good = summary["rows"]
    assert all(bad[c] is None for c in SWEEP_COLUMNS[2:10]) and bad["failed"] is True
    assert good["ar_aa"] == 0.0
    # report.csv keeps the nan tokens
    assert math.isnan(parse_report_csv(res.csv_path)[0].ar_aa)


def test_run_experiment_checks_budgets_against_the_net_first(tmp_path, trained):
    params, ds = trained
    mpath, dpath = str(tmp_path / "model.json"), str(tmp_path / "data.json")
    save_model(params, mpath)
    save_dataset(ds, dpath)
    budgets = _linf(0.02) + [PerturbBudget("swap", k_matrices=3)]  # net has 2 matrices
    with pytest.raises(ValueError, match="k_matrices=3"):
        run_experiment(mpath, dpath, budgets, str(tmp_path / "out"), _fast_cfg())
    assert not (tmp_path / "out").exists()


def test_run_experiment_missing_files(tmp_path, trained):
    params, ds = trained
    mpath = str(tmp_path / "model.json")
    save_model(params, mpath)
    with pytest.raises(FileNotFoundError):
        run_experiment(mpath, str(tmp_path / "nope.json"), _linf(0.02), str(tmp_path / "out"))


def test_guided_beats_random_on_trained_net(trained):
    """Smoke-scale version of the optimized-vs-random comparison."""
    params, ds = trained
    cfg = AttackConfig(pgd=PgdConfig(eps=0.08, steps=10), n_pre=8, n_main=24,
                       alpha=1e-2, seed=4)
    rows, errors = run_sweep(params, ds, _linf(0.08), cfg)
    assert errors == []
    guided = [r for r in rows if r.attack == "linf"][0]
    rand = [r for r in rows if r.attack == "random"][0]
    assert guided.ar_aa >= rand.ar_aa
