"""End-to-end tests of the command-line interface (in-process)."""

import json
import math
import os

import numpy as np
import pytest

from advparam.cli import main
from advparam.data import LabeledDataset, gen_blobs, load_dataset, save_dataset
from advparam.experiment import parse_report_csv
from advparam.mlp import ModelParams, init_params, load_model, max_abs_diff, save_model
from advparam.train import TrainConfig, train

from common import conditioned_surgery_net, positive_square_net


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset + small trained model shared by the command tests."""
    root = tmp_path_factory.mktemp("cliwork")
    ds = gen_blobs(60, 6, 2, seed=0)
    save_dataset(ds, str(root / "data.json"))
    res = train(TrainConfig(dims=[6, 16, 2], epochs=10, batch_size=16, seed=0), ds)
    save_model(res.params, str(root / "model.json"))
    return root


def test_gen_data_blobs_deterministic(tmp_path):
    args = ["gen-data", "--kind", "blobs", "--samples", "40", "--features", "5",
            "--classes", "2", "--seed", "7", "--out-dir", str(tmp_path)]
    assert main(args + ["--out", "a.json"]) == 0
    assert main(args + ["--out", "b.json"]) == 0
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    ds = load_dataset(str(tmp_path / "a.json"))
    assert len(ds) == 40 and ds.n_features == 5


def test_gen_data_subspace(tmp_path):
    rc = main(["gen-data", "--kind", "subspace", "--samples", "30", "--features", "8",
               "--classes", "2", "--intrinsic-dim", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    ds = load_dataset(str(tmp_path / "subspace.json"))
    centered = ds.X - ds.X.mean(axis=0)
    assert np.linalg.matrix_rank(centered, tol=1e-8) == 3


def test_train_command(tmp_path, workdir):
    rc = main(["train", "--data", str(workdir / "data.json"), "--hidden", "12",
               "--epochs", "3", "--batch-size", "16", "--out-dir", str(tmp_path),
               "--seed", "1"])
    assert rc == 0
    params = load_model(str(tmp_path / "model.json"))
    assert params.dims == [6, 12, 2]
    lines = (tmp_path / "train_history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,acc"
    assert len(lines) == 4


def test_config_file_defaults_and_override(tmp_path, workdir):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# training defaults\nepochs = 2\nhidden = 8\n")
    rc = main(["train", "--data", str(workdir / "data.json"),
               "--config", str(cfg), "--out-dir", str(tmp_path / "a")])
    assert rc == 0
    assert len((tmp_path / "a" / "train_history.csv").read_text().strip().splitlines()) == 3
    # explicit flag beats the config value
    rc = main(["train", "--data", str(workdir / "data.json"),
               "--config", str(cfg), "--epochs", "1", "--out-dir", str(tmp_path / "b")])
    assert rc == 0
    assert len((tmp_path / "b" / "train_history.csv").read_text().strip().splitlines()) == 2
    params = load_model(str(tmp_path / "a" / "model.json"))
    assert params.dims[1] == 8  # hidden width came from the config file


def test_eval_command(capsys, workdir, tmp_path):
    rc = main(["eval", "--model", str(workdir / "model.json"),
               "--data", str(workdir / "data.json"), "--eps", "0.05",
               "--pgd-steps", "10", "--csv", str(tmp_path / "rep.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "clean accuracy" in out and "adv accuracy" in out
    header = (tmp_path / "rep.csv").read_text().splitlines()[0]
    assert header.startswith("dataset,")


def test_attack_command_respects_budget(tmp_path, workdir):
    rc = main(["attack", "--model", str(workdir / "model.json"),
               "--data", str(workdir / "data.json"), "--kind", "linf",
               "--gamma", "0.05", "--n-pre", "2", "--n-main", "4",
               "--eps", "0.08", "--pgd-steps", "6", "--out-dir", str(tmp_path)])
    assert rc in (0, 1)
    base = load_model(str(workdir / "model.json"))
    att = load_model(str(tmp_path / "attacked_model.json"))
    for w0, w1 in zip(base.weights, att.weights):
        assert np.all(np.abs(w1 - w0) <= 0.05 * np.abs(w0) + 1e-12)
    with open(tmp_path / "attack_result.json") as f:
        result = json.load(f)
    assert result["kind"] == "linf"
    assert (result["rate"] == result["rate"]) or result["failed"]  # nan only when flagged
    assert isinstance(result["trace"], list) and result["trace"]


def test_attack_single_command(tmp_path, workdir):
    rc = main(["attack", "--model", str(workdir / "model.json"),
               "--data", str(workdir / "data.json"), "--kind", "single",
               "--index", "0", "--gamma", "0.2", "--n-pre", "4", "--n-main", "8",
               "--eps", "0.06", "--pgd-steps", "8", "--out-dir", str(tmp_path)])
    assert rc in (0, 1)
    with open(tmp_path / "attack_result.json") as f:
        result = json.load(f)
    assert result["extras"]["kind"] == "single"
    assert "radius_before" in result["extras"]


@pytest.mark.parametrize("index", ["9999", "-1"])
def test_attack_single_index_out_of_range(tmp_path, workdir, capsys, index):
    rc = main(["attack", "--model", str(workdir / "model.json"),
               "--data", str(workdir / "data.json"), "--kind", "single",
               f"--index={index}", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "out of range" in err and "\n" not in err
    assert not (tmp_path / "attack_result.json").exists()


@pytest.mark.parametrize("command,size", [("report", "0"), ("attack", "-3")])
def test_nonpositive_batch_size_rejected(tmp_path, workdir, capsys, command, size):
    rc = main([command, "--model", str(workdir / "model.json"),
               "--data", str(workdir / "data.json"), f"--batch-size={size}",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "batch_size" in err and "\n" not in err
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "attack_result.json").exists()


@pytest.mark.parametrize("command,flags,word", [
    ("report", ["--gammas", "0.02", "--swap-k", "1", "--pair-fraction", "0.7"], "pair_fraction"),
    ("report", ["--gammas", "nan"], "gamma"),
    ("attack", ["--gamma", "inf"], "gamma"),
    ("report", ["--gammas", "0.02", "--swap-k", "9"], "k_matrices=9"),  # the net has 2 matrices
    ("report", ["--gammas", "0.02,1.7e308"], "gamma=1.7e+308"),  # finite gamma, overflowing box
], ids=["report-swap-fraction", "report-nan-gamma", "attack-inf-gamma", "report-swap-k-above-matrix-count",
        "report-overflowing-box"])
def test_bad_budget_rejected_before_any_output(tmp_path, workdir, capsys, command, flags, word):
    out = tmp_path / "out"
    rc = main([command, "--model", str(workdir / "model.json"),
               "--data", str(workdir / "data.json"), "--out-dir", str(out)] + flags)
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and word in err and "\n" not in err
    assert not out.exists()


def test_report_with_mismatched_input_dim(tmp_path, workdir, capsys):
    save_model(init_params([5, 4, 2], 0), str(tmp_path / "model5.json"))  # the data has 6 features
    out = tmp_path / "out"
    rc = main(["report", "--model", str(tmp_path / "model5.json"),
               "--data", str(workdir / "data.json"), "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "input dim 5" in err and "\n" not in err
    assert not out.exists()


def test_attack_status_line_with_zero_base_robustness(tmp_path, capsys):
    # every sample lies within eps of the identity net's decision boundary:
    # accuracy 1, adversarial accuracy 0, so the rate is undefined
    save_model(ModelParams([np.eye(2)], [np.zeros(2)]), str(tmp_path / "id.json"))
    X = np.array([[0.55, 0.45], [0.45, 0.55], [0.6, 0.4], [0.4, 0.6]])
    save_dataset(LabeledDataset(X, np.array([0, 1, 0, 1])), str(tmp_path / "edge.json"))
    rc = main(["attack", "--model", str(tmp_path / "id.json"), "--data", str(tmp_path / "edge.json"),
               "--gamma", "0.05", "--eps", "0.2", "--pgd-steps", "3", "--n-pre", "1", "--n-main", "2",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    with open(tmp_path / "out" / "attack_result.json") as f:
        result = json.load(f)
    assert result["base_rob"] == 0.0 and result["att_acc"] == result["base_acc"] == 1.0
    assert math.isnan(result["rate"]) and result["failed"] is True
    out = capsys.readouterr().out
    assert "attack linf gamma=0.05: rate nan [rate undefined]" in out
    assert "accuracy lost" not in out


def test_theory_bounds_commands(capsys):
    assert main(["theory", "--op", "point-rate", "--gamma", "1.0", "--depth", "1",
                 "--angle", repr(math.pi / 2), "--row-sep", "1", "--act-floor", "1",
                 "--gap-bound", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.5555555555555556" in out
    assert main(["theory", "--op", "point-depth", "--rho", "0.5", "--gamma", "1.0",
                 "--angle", repr(math.pi / 2), "--row-sep", "1", "--act-floor", "1",
                 "--gap-bound", "1"]) == 0
    assert "minimum depth: 5" in capsys.readouterr().out
    assert main(["theory", "--op", "dist-rate", "--gamma", "1.0", "--gap-bound", "1",
                 "--row-sep", "1,1", "--col-gain", "1,1", "--act-prob", "1,1",
                 "--gain-prob", "1,1", "--active-frac", "1,1"]) == 0
    out = capsys.readouterr().out
    assert f"{3.0 / 7.0!r}" in out
    assert main(["theory", "--op", "dist-depth", "--rho", "0.5", "--gamma", "1.0",
                 "--row-sep", "1", "--col-gain", "1", "--act-prob", "1",
                 "--gain-prob", "1", "--active-floor", "1", "--gap-bound", "1"]) == 0
    assert "minimum depth: 6" in capsys.readouterr().out


def test_theory_surgery_command(capsys, tmp_path):
    rng = np.random.default_rng(5)
    net = conditioned_surgery_net(rng, n=10, width=64, m=3)
    save_model(net, str(tmp_path / "net.json"))
    ds = gen_blobs(20, 10, 2, seed=3)
    save_dataset(ds, str(tmp_path / "ds.json"))
    rc = main(["theory", "--op", "surgery-point", "--model", str(tmp_path / "net.json"),
               "--data", str(tmp_path / "ds.json"), "--index", "0",
               "--gamma", "0.5", "--eps", "0.05",
               "--save-model", str(tmp_path / "surg.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "single_point" in out and "budget" in out
    attacked = load_model(str(tmp_path / "surg.json"))
    assert max_abs_diff(attacked, net) == 0.5


def test_theory_inflation_command(capsys, tmp_path):
    rng = np.random.default_rng(6)
    net = positive_square_net(rng, 8, 3, m=3)
    save_model(net, str(tmp_path / "sq.json"))
    X = rng.uniform(0.3, 0.9, (5, 8))
    save_dataset(LabeledDataset(X, np.zeros(5, dtype=int), name="probe"),
                 str(tmp_path / "probe.json"))
    rc = main(["theory", "--op", "inflate", "--model", str(tmp_path / "sq.json"),
               "--data", str(tmp_path / "probe.json"), "--index", "1",
               "--gamma", "0.4"])
    assert rc == 0
    assert "gradient_inflation" in capsys.readouterr().out


@pytest.fixture(scope="module")
def construction_files(tmp_path_factory):
    """A surgery net with a blob dataset, and a bias-free square net with probes."""
    root = tmp_path_factory.mktemp("constructions")
    rng = np.random.default_rng(5)
    save_model(conditioned_surgery_net(rng, n=10, width=64, m=3), str(root / "net.json"))
    save_dataset(gen_blobs(20, 10, 2, seed=3), str(root / "ds.json"))
    save_model(positive_square_net(rng, 8, 3, m=3), str(root / "sq.json"))
    save_dataset(LabeledDataset(rng.uniform(0.3, 0.9, (5, 8)), np.zeros(5, dtype=int)),
                 str(root / "probe.json"))
    return root


_BAD_BUDGETS = [("--gamma=-0.5", "gamma"), ("--gamma=inf", "gamma"), ("--gamma=nan", "gamma"),
                ("--eps=nan", "eps"), ("--eps=inf", "eps"), ("--eps=-0.1", "eps"),
                ("--radius=nan", "radius"), ("--radius=inf", "radius"), ("--radius=0.01", "radius")]


_THEORY_BAD_BUDGETS = ([(op, f, w) for op in ("surgery-point", "surgery-set") for f, w in _BAD_BUDGETS]
                       + [("inflate", f, w) for f, w in _BAD_BUDGETS[:3]])


@pytest.mark.parametrize("op,flag,word", _THEORY_BAD_BUDGETS,
                         ids=[f"{op}:{flag[2:]}" for op, flag, _ in _THEORY_BAD_BUDGETS])
def test_theory_bad_budget_rejected(construction_files, tmp_path, capsys, op, flag, word):
    model, data = ("sq", "probe") if op == "inflate" else ("net", "ds")
    saved = tmp_path / "attacked.json"
    rc = main(["theory", "--op", op, "--model", str(construction_files / f"{model}.json"),
               "--data", str(construction_files / f"{data}.json"), "--index", "0",
               "--save-model", str(saved), flag])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and word in err and "\n" not in err
    assert not saved.exists()


def test_report_command(tmp_path, workdir):
    rc = main(["report", "--model", str(workdir / "model.json"),
               "--data", str(workdir / "data.json"), "--gammas", "0.0,0.05",
               "--n-pre", "2", "--n-main", "4", "--eps", "0.08",
               "--pgd-steps", "6", "--out-dir", str(tmp_path), "--seed", "2"])
    rows = parse_report_csv(str(tmp_path / "report.csv"))
    assert [r.attack for r in rows] == ["linf", "random", "linf", "random"]
    assert rc == (1 if any(r.failed for r in rows) else 0)
    with open(tmp_path / "summary.json") as f:
        assert json.load(f)["seed"] == 2


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["attack"])  # missing required --model/--data
    with pytest.raises(SystemExit):
        main(["bogus-command"])
    rc = main(["eval", "--model", str(tmp_path / "missing.json"),
               "--data", str(tmp_path / "missing2.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
