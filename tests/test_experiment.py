"""Tests for the sweep runner and its report files."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from advparam import experiment
from advparam.attack import AttackConfig, PgdConfig, attack_linf, budget_linf
from advparam.data import gen_blobs, save_dataset
from advparam.experiment import (
    AttackDescriptor,
    ExperimentPlan,
    SWEEP_COLUMNS,
    build_row,
    linf_sweep,
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


def _fast_cfg():
    return AttackConfig(pgd=PgdConfig(eps=0.08, steps=8), n_pre=2, n_main=6,
                        alpha=5e-3)


def test_sweep_rows_and_controls(trained):
    params, ds = trained
    rows, errors = run_sweep(params, ds, linf_sweep([0.0, 0.05]), _fast_cfg(), seed=1)
    assert errors == []
    assert [r.attack for r in rows] == ["linf", "random", "linf", "random"]
    assert rows[0].budget == rows[1].budget == "0.0"
    # zero budget: the attack cannot move, both rates are exactly zero
    assert rows[0].ar_aa == 0.0
    assert rows[0].ar_r4 == 0.0
    assert not rows[0].failed
    assert rows[0].ac_att == rows[0].ac_base
    for r in rows:
        assert row_rates_consistent(r, _fast_cfg().gamma_low)


def test_sweep_without_control(trained):
    params, ds = trained
    rows, _ = run_sweep(params, ds, linf_sweep([0.03], control=False), _fast_cfg(), seed=0)
    assert [r.attack for r in rows] == ["linf"]


def test_sweep_error_recorded_and_continues(trained):
    params, ds = trained
    bad = AttackDescriptor("swap", k_matrices=9, control=False)  # net has 2 matrices
    good = AttackDescriptor("linf", gamma=0.0, control=False)
    rows, errors = run_sweep(params, ds, [bad, good], _fast_cfg(), seed=0)
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
        run_sweep(params, ds, linf_sweep([0.05]), _fast_cfg(), seed=0)


def test_sweep_attacked_columns_are_the_attack_rate_inputs(trained):
    params, ds = trained
    # eps 0.2 with one step: here the PGD seed changes the adversarial accuracy
    cfg = replace(_fast_cfg(), pgd=PgdConfig(eps=0.2, steps=1))
    rows, _ = run_sweep(params, ds, linf_sweep([0.05], control=False), cfg, seed=0)
    res = attack_linf(params, ds, budget_linf(params, 0.05), replace(cfg, seed=0))
    assert rows[0].ac_att == res.rate_inputs.att_acc
    assert rows[0].aa_att == res.rate_inputs.att_rob
    assert rows[0].ac_base == res.rate_inputs.base_acc
    assert rows[0].aa_base == res.rate_inputs.base_rob


def test_sweep_empty_rejected(trained):
    params, ds = trained
    with pytest.raises(ValueError, match="empty"):
        run_sweep(params, ds, [], _fast_cfg(), seed=0)
    with pytest.raises(ValueError, match="empty"):
        ExperimentPlan("m", "d", [], "out")


def test_descriptor_validation():
    with pytest.raises(ValueError):
        AttackDescriptor("linf")  # gamma missing
    with pytest.raises(ValueError):
        AttackDescriptor("bogus", gamma=0.1)


def test_csv_round_trip(tmp_path, trained):
    params, ds = trained
    rows, _ = run_sweep(params, ds, linf_sweep([0.0, 0.04]), _fast_cfg(), seed=2)
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
        assert row_rates_consistent(b, _fast_cfg().gamma_low)


def test_run_experiment_files(tmp_path, trained):
    params, ds = trained
    mpath, dpath = str(tmp_path / "model.json"), str(tmp_path / "data.json")
    save_model(params, mpath)
    save_dataset(ds, dpath)
    plan = ExperimentPlan(mpath, dpath, linf_sweep([0.0, 0.05]),
                          str(tmp_path / "out"), seed=3, attack_cfg=_fast_cfg(),
                          name="smoke")
    res = run_experiment(plan)
    assert res.csv_path.endswith("report.csv")
    back = parse_report_csv(res.csv_path)
    assert len(back) == 4
    with open(res.summary_path) as f:
        summary = json.load(f)
    assert summary["name"] == "smoke"
    assert summary["n_samples"] == len(ds)
    assert len(summary["rows"]) == 4
    assert summary["any_failed"] == res.any_failed
    assert [r["attack"] for r in summary["rows"]] == [r.attack for r in back]


def test_row_consistency_uses_gamma_low_and_failed_flag():
    # accuracy ratio 0.8: kept at gamma_low 0.5, failed at 0.9; both rates
    # are the same either way, so only the failed flag tells them apart
    row = build_row("linf", "0.05", (1.0, 0.5, 0.2), (0.8, 0.1, 0.05), gamma_low=0.5)
    assert not row.failed
    assert row_rates_consistent(row, 0.5)
    assert not row_rates_consistent(row, 0.9)


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def test_summary_is_strict_json_with_error_row(tmp_path, trained):
    params, ds = trained
    mpath, dpath = str(tmp_path / "model.json"), str(tmp_path / "data.json")
    save_model(params, mpath)
    save_dataset(ds, dpath)
    cfg = replace(_fast_cfg(), gamma_low=0.7)
    attacks = [AttackDescriptor("swap", k_matrices=9, control=False),  # net has 2 matrices
               AttackDescriptor("linf", gamma=0.0, control=False)]
    res = run_experiment(ExperimentPlan(mpath, dpath, attacks, str(tmp_path / "out"),
                                        attack_cfg=cfg))
    with open(res.summary_path) as f:
        summary = json.loads(f.read(), parse_constant=_reject_constant)
    assert len(summary["errors"]) == 1
    assert summary["gamma_low"] == 0.7
    bad, good = summary["rows"]
    assert all(bad[c] is None for c in SWEEP_COLUMNS[2:10]) and bad["failed"] is True
    assert good["ar_aa"] == 0.0
    # report.csv keeps the nan tokens
    assert math.isnan(parse_report_csv(res.csv_path)[0].ar_aa)


def test_run_experiment_missing_files(tmp_path, trained):
    params, ds = trained
    mpath = str(tmp_path / "model.json")
    save_model(params, mpath)
    plan = ExperimentPlan(mpath, str(tmp_path / "nope.json"),
                          linf_sweep([0.02]), str(tmp_path / "out"))
    with pytest.raises(FileNotFoundError):
        run_experiment(plan)


def test_guided_beats_random_on_trained_net(trained):
    """Smoke-scale version of the optimized-vs-random comparison."""
    params, ds = trained
    cfg = AttackConfig(pgd=PgdConfig(eps=0.08, steps=10), n_pre=8, n_main=24,
                       alpha=1e-2)
    rows, errors = run_sweep(params, ds, linf_sweep([0.08]), cfg, seed=4)
    assert errors == []
    guided = [r for r in rows if r.attack == "linf"][0]
    rand = [r for r in rows if r.attack == "random"][0]
    assert guided.ar_aa >= rand.ar_aa
