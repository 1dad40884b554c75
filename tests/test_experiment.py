"""Tests for the sweep runner and its report files."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from advparam import experiment
from advparam.attack import AttackConfig, PerturbBudget, PgdConfig, attack_linf, linf_attacks, perturb_random
from advparam.data import gen_blobs, save_dataset
from advparam.metrics import GAMMA_LOW, adversarial_accuracy, avg_approx_radius, robustness_report
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

from common import count_scoring_passes


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


def _spy_linf(monkeypatch, alone=False):
    """Record each ``linf_attacks`` call of the sweep as [budgets, results],
    results None if it raised; with ``alone``, run each budget by itself."""
    calls = []

    def spy(params, ds, budgets, cfg):
        calls.append([list(budgets), None])
        if alone:
            calls[-1][1] = [r for b in budgets for r in linf_attacks(params, ds, [b], cfg)]
        else:
            calls[-1][1] = linf_attacks(params, ds, budgets, cfg)
        return calls[-1][1]

    monkeypatch.setattr(experiment, "linf_attacks", spy)
    return calls


def _same_rows(a, b):
    return [r.csv_values() for r in a] == [r.csv_values() for r in b]


def test_sweep_runs_its_linf_budgets_in_lockstep_bit_for_bit(trained, monkeypatch):
    """One lockstep call for every linf budget; its rows and each budget's
    attacked net, trace and rate inputs equal runs of each budget alone."""
    params, ds = trained
    cfg = _fast_cfg(seed=1)
    budgets = _linf(0.0, 0.03, 0.07)
    calls = _spy_linf(monkeypatch)
    rows, errors = run_sweep(params, ds, budgets, cfg)
    assert errors == [] and len(calls) == 1 and calls[0][0] == budgets
    for res, budget in zip(calls[0][1], budgets, strict=True):
        alone = attack_linf(params, ds, budget, cfg)
        assert res.attacked.flat.tobytes() == alone.attacked.flat.tobytes()
        assert json.dumps(res.trace) == json.dumps(alone.trace)
        assert repr(res.rate_inputs) == repr(alone.rate_inputs)
    _spy_linf(monkeypatch, alone=True)
    assert _same_rows(rows, run_sweep(params, ds, budgets, cfg)[0])


def test_sweep_isolates_a_budget_that_fails_in_the_lockstep_run(trained, monkeypatch):
    """A gamma whose box overflows fails the lockstep call; each budget then
    runs alone, so only it gets a flagged nan row and an error entry."""
    params, ds = trained
    assert np.abs(params.flat).max() > 1.06  # so 1.7e308 * |theta| overflows
    cfg = _fast_cfg(seed=2)
    budgets = _linf(0.0, 1.7e308, 0.05)
    calls = _spy_linf(monkeypatch)
    rows, errors = run_sweep(params, ds, budgets, cfg)
    assert [b for b, _ in calls] == [budgets, budgets[:1], budgets[1:2], budgets[2:]]
    assert [out is None for _, out in calls] == [True, False, True, False]
    assert errors == [{"attack": "linf", "budget": "1.7e+308", "error": "non-finite parameter entries"}]
    assert [r.attack for r in rows] == ["linf", "random", "linf", "linf", "random"]
    assert rows[2].failed and all(math.isnan(getattr(rows[2], c)) for c in SWEEP_COLUMNS[2:10])
    ok_rows, _ = run_sweep(params, ds, _linf(0.0, 0.01, 0.05), cfg)  # its middle budget does not fail
    assert _same_rows(rows[:2] + rows[3:], ok_rows[:2] + ok_rows[4:])


def test_sweep_programming_error_propagates(trained, monkeypatch):
    params, ds = trained

    def broken(*args, **kwargs):
        raise RuntimeError("bug in the attack")

    monkeypatch.setattr(experiment, "linf_attacks", broken)
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


@pytest.mark.parametrize("k", [1, 2])
def test_sweep_scores_each_net_once(trained, monkeypatch, k):
    """1 + k scorer calls, one classify_batch and one PGD run each: the base
    and attacked nets as one stack in the lockstep attacks' results, then
    one per random control."""
    params, ds = trained
    counts = count_scoring_passes(monkeypatch)
    rows, _ = run_sweep(params, ds, _linf(*[0.02 * (i + 1) for i in range(k)]), _fast_cfg())
    assert len(rows) == 2 * k
    assert counts == {"classify_batch": 1 + k, "pgd_flips_batch": 1 + k}


_SWAP = PerturbBudget("swap", k_matrices=1, pair_fraction=0.05, pair_floor=4)


@pytest.mark.parametrize("budgets, n_errors", [
    (_linf(0.03, 0.06), 0),
    ([_SWAP], 0),
    ([_linf(0.03)[0], _SWAP, _linf(0.06)[0]], 0),
    ([PerturbBudget("swap", k_matrices=9)] + _linf(0.03, 0.06), 1),  # the net has 2 matrices
], ids=["linf", "swap", "mixed", "first-fails"])
def test_sweep_base_columns_are_the_base_nets_report(trained, budgets, n_errors):
    """Every row that is not an error row holds the base net's
    ``robustness_report`` values bit for bit, whichever result they come from."""
    params, ds = trained
    cfg = _fast_cfg(seed=1)
    rows, errors = run_sweep(params, ds, budgets, cfg)
    assert len(errors) == n_errors and len(rows) == 2 * len(budgets) - n_errors
    rep = robustness_report(params, ds, cfg.pgd, seed=cfg.seed)
    scored = [(r.ac_base, r.aa_base, r.r4_base) for r in rows if not math.isnan(r.ac_base)]
    assert len(scored) == len(rows) - n_errors
    assert {repr(base) for base in scored} == {repr((rep.acc, rep.adv_acc, rep.avg_r2))}


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

    def attack(params, ds, budgets, cfg):  # the first sweep point fails inside the sweep
        if any(budget.gamma == 0.5 for budget in budgets):
            raise ValueError("non-finite input")
        return linf_attacks(params, ds, budgets, cfg)

    monkeypatch.setattr(experiment, "linf_attacks", attack)
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
