"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import copy
import functools
import importlib
import inspect
import json
import math
import os
import shlex
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from advparam import cli, theory
from advparam.cli import _THEORY_OPS, build_parser, main
from advparam.data import (LabeledDataset, dataset_from_json, dataset_to_json, gen_blobs, gen_subspace_task,
                           load_dataset, save_dataset)
from advparam.experiment import SWEEP_COLUMNS, parse_report_csv
from advparam.metrics import GAMMA_LOW
from advparam.mlp import (ModelParams, init_params, load_model, max_abs_diff, model_from_json,
                          model_to_json, save_model)
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
    ("report", ["--gammas", ""], "attack sweep is empty"),
], ids=["report-swap-fraction", "report-nan-gamma", "attack-inf-gamma", "report-swap-k-above-matrix-count",
        "report-overflowing-box", "report-empty-sweep"])
def test_bad_budget_rejected_before_any_output(tmp_path, workdir, capsys, command, flags, word):
    out = tmp_path / "out"
    rc = main([command, "--model", str(workdir / "model.json"),
               "--data", str(workdir / "data.json"), "--out-dir", str(out)] + flags)
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and word in err and "\n" not in err
    assert not out.exists()


_PGD_COMMANDS = {"report": ["--gammas", "0.02"], "train": ["--adversarial"], "attack": ["--gamma", "0.02"],
                 "eval": []}


@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("command", list(_PGD_COMMANDS))
def test_non_finite_eps_rejected_before_any_output(tmp_path, workdir, capsys, command, eps):
    """PgdConfig refuses the radius itself: the error names eps, not the data."""
    out = tmp_path / "out"
    inputs = ["--data", str(workdir / "data.json")]
    if command != "train":
        inputs += ["--model", str(workdir / "model.json")]
    rc = main([command, *inputs, "--out-dir", str(out), f"--eps={eps}", *_PGD_COMMANDS[command]])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "eps" in err and "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,flag", [("report", "--alpha"), ("attack", "--alpha"), ("train", "--lr")])
def test_non_finite_optimizer_constant_rejected_before_any_output(tmp_path, workdir, capsys, command, flag,
                                                                   value):
    """AttackConfig and TrainConfig refuse the constant itself, before --out-dir is made."""
    out = tmp_path / "out"
    inputs = ["--data", str(workdir / "data.json")]
    if command != "train":
        inputs += ["--model", str(workdir / "model.json")]
    assert main([command, *inputs, "--out-dir", str(out), f"{flag}={value}"]) == 2
    assert f"{flag[2:]} must be a finite number > 0, got {value}" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("flag,value,rule", [
    ("--momentum", "nan", "momentum must be a finite number in [0, 1), got nan"),
    ("--momentum", "-1", "momentum must be a finite number in [0, 1), got -1.0"),
    ("--momentum", "5", "momentum must be a finite number in [0, 1), got 5.0"),
    ("--lr-decay", "nan", "lr_decay must be a finite number in (0, 1], got nan"),
    ("--lr-decay", "-1", "lr_decay must be a finite number in (0, 1], got -1.0"),
])
def test_train_names_the_optimizer_constant_it_refuses(tmp_path, workdir, capsys, flag, value, rule):
    """TrainConfig names the refused momentum or lr_decay and its value, before --out-dir is made."""
    out = tmp_path / "out"
    assert main(["train", "--data", str(workdir / "data.json"), "--out-dir", str(out), f"{flag}={value}"]) == 2
    assert _one_error_line(capsys) == f"error: {rule}\n"
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


def _one_error_line(capsys) -> str:
    """The captured stderr, checked to be exactly one `error:` line."""
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("case", ["missing-config", "config-line-without-equals",
                                  "model-is-a-directory", "out-dir-is-a-file"])
def test_config_and_file_system_errors_exit_2(tmp_path, workdir, capsys, case):
    model, data, out = str(workdir / "model.json"), str(workdir / "data.json"), str(tmp_path / "out")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("epochs = 2\nhidden 8\n")
    argv = {
        "missing-config": ["train", "--data", data, "--config", str(tmp_path / "missing.cfg"), "--out-dir", out],
        "config-line-without-equals": ["train", "--data", data, "--config", str(bad_cfg), "--out-dir", out],
        "model-is-a-directory": ["eval", "--model", str(tmp_path), "--data", data],
        "out-dir-is-a-file": ["attack", "--model", model, "--data", data, "--out-dir", model,
                              "--n-pre", "1", "--n-main", "1"],
    }[case]
    assert main(argv) == 2
    _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,flag", [("subspace", "--spread=0.2"), ("blobs", "--intrinsic-dim=3")])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_gen_data_refuses_an_option_its_kind_does_not_read(tmp_path, capsys, kind, flag, via):
    option, value = flag.split("=")
    argv = ["gen-data", "--kind", kind, "--out-dir", str(tmp_path / "out")]
    argv += [flag] if via == "flag" else ["--config", _cfg(tmp_path, f"{option[2:]} = {value}\n")]
    assert main(argv) == 2
    assert _one_error_line(capsys) == f"error: gen-data --kind {kind} does not read {option}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--eps=0.3", "--pgd-steps=3"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_plain_train_refuses_the_pgd_options(tmp_path, workdir, capsys, flag, via):
    """Without --adversarial, train reads no PGD option; with it, it reads both."""
    option, value = flag.split("=")
    out = tmp_path / "out"
    argv = ["train", "--data", str(workdir / "data.json"), "--epochs", "1", "--out-dir", str(out)]
    argv += [flag] if via == "flag" else ["--config", _cfg(tmp_path, f"{option[2:]} = {value}\n")]
    assert main(argv) == 2
    assert _one_error_line(capsys) == f"error: train without --adversarial does not read {option}\n"
    assert not out.exists()
    assert main(argv + ["--adversarial"]) == 0


@pytest.mark.parametrize("features", ["0", "-1"])
def test_gen_data_refuses_a_feature_count_below_1(tmp_path, capsys, features):
    """Both kinds name the feature count; subspace's --intrinsic-dim, which defaults from it, is not blamed."""
    for kind in ("blobs", "subspace"):
        assert main(["gen-data", "--kind", kind, "--features", features, "--out-dir", str(tmp_path / "out")]) == 2
        assert _one_error_line(capsys) == "error: need n_samples >= n_classes >= 2 and n_features >= 1\n"
        assert not (tmp_path / "out").exists()


# Each attack option that only some kinds read, and those kinds.
_KIND_READERS = {"--index=5": {"single"}, "--target-label=1": {"label", "direct"},
                 "--k-matrices=2": {"swap"}, "--pair-fraction=0.3": {"swap"}, "--pair-floor=3": {"swap"},
                 "--gamma=0.3": {"linf", "label", "direct", "single"},
                 "--batch-size=5": {"linf", "swap", "label", "direct"}}


@pytest.mark.parametrize("kind,flag", [(k, f) for f, readers in _KIND_READERS.items()
                                       for k in ("linf", "swap", "label", "direct", "single") if k not in readers])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_attack_refuses_an_option_its_kind_does_not_read(tmp_path, workdir, capsys, kind, flag, via):
    option, value = flag.split("=")
    out = tmp_path / "out"
    argv = ["attack", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.json"),
            "--kind", kind, "--out-dir", str(out)]
    argv += [flag] if via == "flag" else ["--config", _cfg(tmp_path, f"{option[2:]} = {value}\n")]
    assert main(argv) == 2
    assert _one_error_line(capsys) == f"error: attack --kind {kind} does not read {option}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,option", [("--kind linf --index 5 --target-label 2", "--target-label"),
                                         ("--kind label --k-matrices 2 --pair-floor 3", "--pair-floor")])
def test_attack_names_the_first_unread_option(tmp_path, workdir, capsys, argv, option):
    out = tmp_path / "out"
    assert main(["attack", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.json"),
                 *argv.split(), "--out-dir", str(out)]) == 2
    assert _one_error_line(capsys) == f"error: attack --kind {argv.split()[1]} does not read {option}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--pair-fraction=0.3", "--pair-floor=3"])
def test_report_without_swap_k_refuses_the_swap_options(tmp_path, workdir, capsys, flag):
    """Only the swap rows of --swap-k read the pair options."""
    out = tmp_path / "out"
    argv = ["report", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.json"),
            "--gammas", "0.05", flag, "--n-pre", "1", "--n-main", "1", "--pgd-steps", "2", "--out-dir", str(out)]
    assert main(argv) == 2
    assert _one_error_line(capsys) == f"error: report without --swap-k does not read {flag.split('=')[0]}\n"
    assert not out.exists()
    assert main(argv + ["--swap-k", "1"]) in (0, 1)


@pytest.mark.parametrize("command", ["attack", "report"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_refused_before_any_work(tmp_path, workdir, capsys, command, via):
    """numpy would refuse the seed only mid-run (report after writing its files), naming no option."""
    out = tmp_path / "out"
    argv = [command, "--model", str(workdir / "model.json"), "--data", str(workdir / "data.json"),
            "--n-pre", "1", "--n-main", "1", "--pgd-steps", "2", "--out-dir", str(out)]
    argv += ["--seed", "-1"] if via == "flag" else ["--config", _cfg(tmp_path, "seed = -1\n")]
    assert main(argv) == 2
    assert _one_error_line(capsys) == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("spread", ["-1", "nan", "inf"])
def test_gen_data_refuses_a_spread_that_is_negative_or_not_finite(tmp_path, capsys, spread):
    """Checked where it enters: not numpy's `scale < 0`, not the data's non-finite features, not a 0/1 dataset."""
    assert main(["gen-data", "--spread", spread, "--out-dir", str(tmp_path / "out")]) == 2
    assert _one_error_line(capsys) == f"error: spread must be a finite number >= 0, got {float(spread)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "train"])
def test_a_dataset_of_empty_rows_is_refused(tmp_path, workdir, capsys, command):
    (tmp_path / "rows.json").write_text(json.dumps({"version": 1, "X": [[], []], "y": [0, 1]}))
    argv = [command, "--data", str(tmp_path / "rows.json"), "--out-dir", str(tmp_path / "out")]
    assert main(argv + (["--model", str(workdir / "model.json")] if command == "eval" else [])) == 2
    assert _one_error_line(capsys) == "error: empty dataset: X has shape (2, 0)\n"


@pytest.mark.parametrize("command", ["eval", "attack", "report"])
def test_labels_the_model_cannot_output_refused(tmp_path, workdir, capsys, command):
    save_dataset(gen_blobs(30, 6, 3, seed=1), str(tmp_path / "data3.json"))  # the net has 2 outputs
    out = tmp_path / "out"
    argv = [command, "--model", str(workdir / "model.json"), "--data", str(tmp_path / "data3.json"),
            "--out-dir", str(out)]
    rc = main(argv + (["--csv", str(tmp_path / "r.csv")] if command == "eval" else []))
    assert rc == 2
    err = _one_error_line(capsys)
    assert "3 classes" in err and "outputs 2" in err
    assert not out.exists() and not (tmp_path / "r.csv").exists()


# malformed model and dataset files

_MODEL_DOC = json.loads(model_to_json(init_params([3, 4, 3], seed=0)))
_DATA_DOC = json.loads(dataset_to_json(gen_blobs(6, 3, 3, seed=0)))
# wrong-type and non-finite values; finite floats stay small, so a loaded net's
# forward pass does not overflow
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.just(10**400)
    | st.floats(-4.0, 4.0) | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=6)


def _slots(node) -> list:
    """(container, key) of every entry of a JSON document, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return [slot for k, v in items for slot in [(node, k)] + _slots(v)]


@st.composite
def _broken(draw, doc):
    """The document as JSON text: intact, truncated, or with one entry deleted
    (a ragged row, a missing field) or replaced by a wrong-type or non-finite value."""
    doc = copy.deepcopy(doc)
    how = draw(st.sampled_from(["intact", "truncate", "delete", "replace"]))
    if how == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if how != "intact":
        node, key = draw(st.sampled_from(_slots(doc)))
        if how == "delete":
            del node[key]
        else:
            node[key] = draw(_JUNK)
    return json.dumps(doc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model_text=_broken(_MODEL_DOC), data_text=_broken(_DATA_DOC))
def test_malformed_files_load_or_exit_2(tmp_path, capsys, model_text, data_text):
    """Each loader either loads or raises ValueError; eval exits 0 or 2 with at most one error line."""
    for text, load in ((model_text, model_from_json), (data_text, dataset_from_json)):
        try:
            load(text)
        except ValueError:
            pass
    (tmp_path / "m.json").write_text(model_text)
    (tmp_path / "d.json").write_text(data_text)
    capsys.readouterr()
    rc = main(["eval", "--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "d.json"),
               "--pgd-steps", "2"])
    err = capsys.readouterr().err
    assert rc in (0, 2) and err.count("error:") <= 1 and "Traceback" not in err


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


def test_attack_status_line_when_the_attack_costs_accuracy(tmp_path, workdir, capsys):
    # a box of twice each weight and a unit step wreck the net's clean accuracy
    rc = main(["attack", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.json"),
               "--gamma", "2", "--alpha", "1", "--n-pre", "5", "--n-main", "5", "--pgd-steps", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    with open(tmp_path / "attack_result.json") as f:
        result = json.load(f)
    assert result["failed"] is True and result["att_acc"] / result["base_acc"] < GAMMA_LOW
    assert f"attack linf gamma=2: rate {result['rate']:.4f} [FAILED (accuracy lost)]" in capsys.readouterr().out


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


def test_report_files_a_failing_control_as_its_own_row(tmp_path):
    """At gamma 1.7e308 the guided attack on this net runs, while its random
    control's logits overflow: the guided row stands, and the control gets
    one ``random`` all-nan row and one error entry of its own."""
    model, data, out = str(tmp_path / "model.json"), str(tmp_path / "data.json"), tmp_path / "out"
    save_model(init_params([6, 16, 2], 0), model)
    save_dataset(gen_blobs(40, 6, 2, seed=0), data)
    rc = main(["report", "--model", model, "--data", data, "--gammas", "1.7e308",
               "--n-pre", "2", "--n-main", "2", "--out-dir", str(out)])
    assert rc == 1
    guided, control = parse_report_csv(str(out / "report.csv"))
    assert (guided.attack, guided.budget, guided.failed) == ("linf", "1.7e+308", False)
    assert (control.attack, control.budget, control.failed) == ("random", "1.7e+308", True)
    assert all(math.isnan(getattr(control, c)) for c in SWEEP_COLUMNS[2:10])
    with open(out / "summary.json") as f:
        assert json.load(f)["errors"] == [{"attack": "random", "budget": "1.7e+308",
                                           "error": "non-finite logits: the net overflows on this data"}]


def test_eval_of_an_overflowing_net_blames_the_net(tmp_path, capsys):
    """A net with finite but huge weights overflows on the data: one error
    line that names the net, exit 2, and no RuntimeWarning (the suite turns
    any into an error)."""
    net = init_params([4, 5, 3], 0)
    net.weights[0][0, 0] = net.weights[1][0, 0] = 1e300
    save_model(net, str(tmp_path / "model.json"))
    save_dataset(gen_blobs(12, 4, 3, seed=0), str(tmp_path / "data.json"))
    rc = main(["eval", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: non-finite logits: the net overflows on this data\n"


def _overflowing_files(tmp_path) -> list[str]:
    """--model and --data of a [4, 5, 3] net with |W0| and two weights at 1e300,
    whose logits overflow on 30 blobs (sample 0 gets (inf, 1e299, -1e299))."""
    net = init_params([4, 5, 3], 0)
    net.weights[0][...] = np.abs(net.weights[0])
    net.weights[0][0, 0] = net.weights[1][0, 0] = 1e300
    save_model(net, str(tmp_path / "model.json"))
    save_dataset(gen_blobs(30, 4, 3, 0), str(tmp_path / "data.json"))
    return ["--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.json")]


def test_report_of_an_overflowing_net_blames_the_net(tmp_path, capsys):
    """Checked before the sweep: exit 2 with PGD's message, not exit 1 with a nan row."""
    out = tmp_path / "rep"
    rc = main(["report", *_overflowing_files(tmp_path), "--gammas", "0.1", "--n-pre", "1", "--n-main", "1",
               "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: non-finite logits: the net overflows on this data\n"
    assert not out.exists()


def test_attack_single_of_an_overflowing_net_blames_the_net(tmp_path, capsys):
    """Checked before the sample's label: the net is blamed, not the sample."""
    out = tmp_path / "att"
    rc = main(["attack", *_overflowing_files(tmp_path), "--kind", "single", "--index", "0",
               "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: non-finite logits: the net overflows on this data\n"
    assert not out.exists()


@pytest.mark.parametrize("op", ["surgery-point", "surgery-set"])
def test_theory_construction_on_an_overflowing_net_blames_the_net(tmp_path, capsys, op):
    """A [12, 96, 3] net holding 1e300 weights overflows on the data: the
    construction exits 2 naming the net (not its input) and saves no model."""
    net = init_params([12, 96, 3], 0)
    net.weights[0][...] = np.abs(net.weights[0])
    net.weights[0][:, 0] = 1e300
    net.weights[1][...] = 1e300 * np.sign(net.weights[1])
    model, data, out = tmp_path / "model.json", tmp_path / "data.json", tmp_path / "attacked.json"
    save_model(net, str(model))
    save_dataset(gen_subspace_task(48, 12, 5, 3, 0), str(data))
    rc = main(["theory", "--op", op, "--model", str(model), "--data", str(data), "--gamma", "0.5",
               "--save-model", str(out)])
    assert rc == 2
    assert _one_error_line(capsys) == "error: non-finite logits: the net overflows on this data\n"
    assert not out.exists()


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["attack"])  # missing required --model/--data
    with pytest.raises(SystemExit):
        main(["bogus-command"])
    rc = main(["eval", "--model", str(tmp_path / "missing.json"),
               "--data", str(tmp_path / "missing2.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


# config files and argument parsing


def _cfg(tmp_path, text: str) -> str:
    path = tmp_path / "c.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command,lines,word", [
    ("train", "adversarial = maybe", "adversarial"),
    ("report", "no_control = maybe", "no-control"),
    ("train", "bogus_key = 3", "bogus-key"),
    ("attack", "kind = bogus", "kind"),
    ("gen-data", "kind = bogus", "kind"),
    ("theory", "op = bogus", "op"),
    ("train", "epochs = 2.5", "epochs"),
    ("train", "epochs = 2\nepochs = 3", "duplicate"),
    ("train", "config = other.cfg", "config"),
], ids=["bool-maybe", "no-control-maybe", "unknown-key", "attack-kind", "gen-data-kind", "theory-op",
        "int-from-float", "duplicate-key", "nested-config"])
def test_bad_config_value_exits_2(tmp_path, workdir, capsys, command, lines, word):
    out = tmp_path / "out"
    inputs = {"train": ["--data", str(workdir / "data.json")],
              "report": ["--model", str(workdir / "model.json"), "--data", str(workdir / "data.json")]}
    inputs["attack"] = inputs["report"]
    argv = [command, "--config", _cfg(tmp_path, lines + "\n"), "--out-dir", str(out)] + inputs.get(command, [])
    assert main(argv) == 2
    err = _one_error_line(capsys)
    assert "c.cfg:" in err and word in err
    assert not out.exists()


def test_config_values_parse_like_their_flags(tmp_path, workdir):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"no-control = yes\ngammas = 0.0, 0.05\nn_pre = 1\nn-main = 2\n"
                         f"pgd_steps = 2\nout_dir = {out}\n")
    rc = main(["report", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.json"),
               "--config", cfg])
    rows = parse_report_csv(str(out / "report.csv"))
    assert [(r.attack, r.budget) for r in rows] == [("linf", "0.0"), ("linf", "0.05")]
    assert rc == (1 if any(r.failed for r in rows) else 0)


@pytest.mark.parametrize("where,expected", [("before", 5), ("after", 5), ("config-only", 7),
                                            ("config-before-subcommand", 7)])
def test_seed_precedence(tmp_path, where, expected):
    cfg = _cfg(tmp_path, "seed = 7\n")
    cmd = ["gen-data", "--samples", "6", "--out-dir", str(tmp_path)]
    argv = {"before": ["--seed", "5"] + cmd + ["--config", cfg],
            "after": cmd + ["--config", cfg, "--seed", "5"],
            "config-only": cmd + ["--config", cfg],
            "config-before-subcommand": ["--config", cfg] + cmd}[where]
    assert main(argv) == 0
    assert load_dataset(str(tmp_path / "blobs.json")).meta["seed"] == expected


@pytest.mark.parametrize("command", ["gen-data", "train", "attack", "eval", "theory", "report"])
def test_help_prints_every_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    sub = build_parser()[1][command]
    with_default = [a for a in sub._actions if a.option_strings and a.default is not argparse.SUPPRESS]
    assert capsys.readouterr().out.count("(default:") == len(with_default) > 0


@pytest.mark.parametrize("op", ["surgery-point", "surgery-set", "inflate"])
@pytest.mark.parametrize("missing", ["--model", "--data"])
def test_theory_construction_needs_model_and_data(construction_files, capsys, op, missing):
    files = {"--model": str(construction_files / "net.json"), "--data": str(construction_files / "ds.json")}
    del files[missing]
    assert main(["theory", "--op", op, *[t for kv in files.items() for t in kv]]) == 2
    assert "needs --model and --data" in _one_error_line(capsys)


@pytest.mark.parametrize("op", ["point-rate", "dist-depth"])
def test_theory_scalar_bound_refuses_a_list(capsys, op):
    assert main(["theory", "--op", op, "--row-sep", "1,1"]) == 2
    assert "--row-sep takes one number" in _one_error_line(capsys)


_BAD_BOUND_CONSTANTS = [("point-rate", "--gap-bound=nan"), ("point-rate", "--gamma=inf"),
                        ("point-depth", "--gap-bound=nan"), ("point-depth", "--angle=4"),
                        ("point-depth", "--act-floor=-1"), ("dist-rate", "--gap-bound=inf"),
                        ("dist-rate", "--gamma=-1"), ("dist-depth", "--active-floor=2")]


@pytest.mark.parametrize("op,flag", _BAD_BOUND_CONSTANTS,
                         ids=[f"{op}:{flag[2:]}" for op, flag in _BAD_BOUND_CONSTANTS])
def test_theory_bound_constant_out_of_range(capsys, op, flag):
    """A constant outside its range exits 2 with one line that names it."""
    assert main(["theory", "--op", op, flag]) == 2
    assert flag[2:flag.index("=")].replace("-", "_") in _one_error_line(capsys)


@pytest.mark.parametrize("act_prob,gain_prob,layers", [("0,0", "0,0", "2 + gain_prob of layer 1"),
                                                        ("1,0.5,0.4", "1,0.5,1", "3 + gain_prob of layer 2")])
@pytest.mark.parametrize("gap_bound", ["1", "0.0025"])
def test_theory_dist_rate_refuses_a_non_positive_layer_overlap(capsys, act_prob, gain_prob, layers, gap_bound):
    """act_prob of layer i + gain_prob of layer i - 1 must exceed 1, as for dist-depth;
    otherwise the rate came out negative, or huge where 4A + N is near 0."""
    n = act_prob.count(",") + 1
    ones = ",".join(["1"] * n)
    assert main(["theory", "--op", "dist-rate", "--row-sep", ones, "--col-gain", ones, "--act-prob", act_prob,
                 "--gain-prob", gain_prob, "--active-frac", ones, "--gap-bound", gap_bound]) == 2
    assert f"act_prob of layer {layers} must exceed 1" in _one_error_line(capsys)


_BOUND_FLAGS = {"point-rate": ["gamma", "angle", "row-sep", "act-floor", "gap-bound"],
                "point-depth": ["rho", "gamma", "angle", "row-sep", "act-floor", "gap-bound"],
                "dist-rate": ["gamma", "gap-bound", "row-sep", "col-gain", "act-prob", "gain-prob",
                              "active-frac"],
                "dist-depth": ["rho", "gamma", "row-sep", "col-gain", "act-prob", "gain-prob",
                               "active-floor", "gap-bound"]}


# a value other than its default for every theory option but --op
_NOT_DEFAULT = {"model": "m.json", "data": "d.json", "save-model": "s.json", "index": "3", "gamma": "0.2",
                "eps": "0.2", "radius": "0.3", "depth": "2", "angle": "1", "gap-bound": "2", "rho": "0.25",
                "act-floor": "0.5", "active-floor": "0.5", "active-frac": "0.5", "row-sep": "2",
                "col-gain": "2", "act-prob": "0.5", "gain-prob": "0.5"}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_BOUND_FLAGS)), st.data())
def test_theory_bound_prints_a_finite_number_or_one_error(capsys, op, data):
    """Any float for any constant (nan, inf, negative, huge or tiny): exit 0
    with a finite number, or exit 2 with one error line.  An option of
    another op, set to a value other than its default, exits 2 with one
    line that names it, whatever the constants."""
    value = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 2.0), st.floats(min_value=0.0), st.floats())
    flags = [f"--{f}={data.draw(value, label=f)!r}" for f in _BOUND_FLAGS[op]]
    if op == "point-rate":
        flags.append(f"--depth={data.draw(st.integers(-2, 10**6), label='depth')}")
    unread = sorted(set(_NOT_DEFAULT) - set(_BOUND_FLAGS[op]) - ({"depth"} if op == "point-rate" else set()))
    other = data.draw(st.none() | st.sampled_from(unread), label="other")
    if other is not None:
        flags.insert(data.draw(st.integers(0, len(flags)), label="at"), f"--{other}={_NOT_DEFAULT[other]}")
    capsys.readouterr()
    rc = main(["theory", "--op", op, *flags])
    if other is not None:
        assert rc == 2 and _one_error_line(capsys) == f"error: theory --op {op} does not read --{other}\n"
    elif rc == 0:
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and math.isfinite(float(out.rsplit(": ", 1)[1]))
    else:
        assert rc == 2
        _one_error_line(capsys)


_UNREAD = [("dist-rate", ["--angle", "4", "--rho", "7"], "--angle"),
           ("point-rate", ["--model", "x"], "--model"),
           ("dist-depth", ["--active-frac", "9"], "--active-frac"),
           ("point-depth", ["--save-model", "s.json"], "--save-model"),
           ("surgery-set", ["--index", "3"], "--index"),
           ("surgery-point", ["--depth", "2"], "--depth"),
           ("inflate", ["--eps", "0.2"], "--eps"),
           ("inflate", ["--radius", "0.3"], "--radius")]


@pytest.mark.parametrize("op,flags,option", _UNREAD, ids=[f"{op}:{o[2:]}" for op, _, o in _UNREAD])
def test_theory_refuses_an_option_its_op_does_not_read(construction_files, tmp_path, capsys, op, flags, option):
    """One error line names the first option the op does not read; nothing is loaded or saved."""
    saved = tmp_path / "attacked.json"
    argv = ["theory", "--op", op, *flags]
    if op in ("surgery-point", "surgery-set", "inflate"):
        model, data = ("sq", "probe") if op == "inflate" else ("net", "ds")
        argv += ["--model", str(construction_files / f"{model}.json"),
                 "--data", str(construction_files / f"{data}.json"), "--save-model", str(saved)]
    assert main(argv) == 2
    assert _one_error_line(capsys) == f"error: theory --op {op} does not read {option}\n"
    assert not saved.exists()


def test_theory_builds_one_parser(monkeypatch, capsys):
    """One theory command parses argv once: its declared defaults come from
    the parser that parsed it."""
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(["theory", "--op", "point-rate", "--depth", "3"]) == 0
    assert capsys.readouterr().out.startswith("point rate bound: ")
    assert len(built) == 1


def test_theory_refuses_an_unread_option_from_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("op = dist-rate\nangle = 4\n")
    assert main(["theory", "--config", str(cfg)]) == 2
    assert _one_error_line(capsys) == "error: theory --op dist-rate does not read --angle\n"


@pytest.mark.parametrize("op", list(_THEORY_OPS))
def test_every_parameter_of_a_theory_op_is_served(op):
    """Each parameter of an op's function is a theory option of the same name,
    or the net, the samples or the --index sample of the input files."""
    sub = build_parser()[1]["theory"]
    options = {a.dest for a in sub._actions}
    params = inspect.signature(getattr(theory, _THEORY_OPS[op][0])).parameters
    assert set(params) - options - {"params", "X", "x0"} == set()
    assert sub._option_string_actions["--op"].choices == list(_THEORY_OPS)
    assert {o.replace("-", "_") for o in _NOT_DEFAULT} == options - {"help", "op", "seed", "out_dir", "config"}


def test_attack_out_dir_checked_before_the_attack(workdir, capsys, monkeypatch):
    def no_attack(*args, **kwargs):
        raise AssertionError("the attack ran")

    monkeypatch.setattr("advparam.cli.attack_linf", no_attack)
    model = str(workdir / "model.json")
    assert main(["attack", "--model", model, "--data", str(workdir / "data.json"), "--out-dir", model]) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("kind,flags,word", [
    ("label", ["--target-label", "7"], "target label 7 absent from the dataset"),
    ("direct", ["--target-label", "0", "--data", "only0.json"], "only the target label"),
    ("single", ["--index", "0", "--data", "flipped.json"], "x must be correctly classified by the base net"),
], ids=["label-absent", "direct-only-label", "single-misclassified"])
def test_attack_checks_its_inputs_before_making_out_dir(tmp_path, workdir, capsys, kind, flags, word):
    """The targeted and single attacks' own checks run before --out-dir is made."""
    ds = load_dataset(str(workdir / "data.json"))
    save_dataset(LabeledDataset(ds.X, np.zeros(len(ds), dtype=int)), str(tmp_path / "only0.json"))
    save_dataset(LabeledDataset(ds.X, np.r_[1 - ds.y[:1], ds.y[1:]]), str(tmp_path / "flipped.json"))
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    out = tmp_path / "out"
    argv = ["attack", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.json"),
            "--kind", kind, "--out-dir", str(out), *flags]
    assert main(argv) == 2
    assert word in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command, work", [("report", "advparam.experiment.run_sweep"),
                                           ("train", "advparam.cli.train")])
def test_out_dir_made_before_the_sweep_or_training(workdir, capsys, monkeypatch, command, work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(work, no_work)
    model, data = str(workdir / "model.json"), str(workdir / "data.json")
    argv = ["report", "--model", model] if command == "report" else ["train"]
    assert main(argv + ["--data", data, "--out-dir", model]) == 2
    assert "File exists" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["attack", "eval"])
def test_data_of_another_input_dim_refused_before_any_output(tmp_path, workdir, capsys, command):
    save_model(init_params([5, 4, 2], 0), str(tmp_path / "model5.json"))  # the data has 6 features
    out = tmp_path / "out"
    argv = [command, "--model", str(tmp_path / "model5.json"), "--data", str(workdir / "data.json"),
            "--out-dir", str(out)]
    assert main(argv + (["--csv", str(tmp_path / "r.csv")] if command == "eval" else [])) == 2
    assert "6 features" in _one_error_line(capsys)
    assert not out.exists() and not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("case", ["rename-onto-a-directory", "open-in-a-missing-directory"])
def test_unwritable_output_names_the_target_not_the_temp_file(tmp_path, workdir, capsys, case):
    out = tmp_path / "o"
    if case == "rename-onto-a-directory":  # the target is the directory o/ itself
        target = os.path.join(str(out), "")
        argv = ["gen-data", "--out", "", "--out-dir", str(out)]
    else:
        target = str(tmp_path / "missing" / "r.csv")
        argv = ["eval", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.json"),
                "--pgd-steps", "1", "--csv", target]
    assert main(argv) == 2
    err = _one_error_line(capsys)
    assert repr(target) in err and ".tmp" not in err
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("command, work", [("eval", "advparam.cli.robustness_report"),
                                           ("train", "advparam.cli.train"),
                                           ("gen-data", "advparam.cli.gen_blobs"),
                                           ("theory", "advparam.theory.surgery_single_point")])
def test_output_in_a_missing_directory_refused_before_any_work(tmp_path, workdir, construction_files, capsys,
                                                              monkeypatch, command, work):
    """A file named into a directory that does not exist, and that the command
    does not make, is refused with one error line before any work, and no
    --out-dir is made."""
    module, name = work.rsplit(".", 1)

    @functools.wraps(getattr(importlib.import_module(module), name))  # theory reads its signature
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(work, no_work)
    missing, out = tmp_path / "missing", tmp_path / "out"
    model, data = str(workdir / "model.json"), str(workdir / "data.json")
    argv = {"eval": ["eval", "--model", model, "--data", data, "--csv", str(missing / "e.csv")],
            "train": ["train", "--data", data, "--model-out", os.path.join("sub", "m.json")],
            "gen-data": ["gen-data", "--out", os.path.join("sub", "d.json")],
            "theory": ["theory", "--op", "surgery-point", "--model", str(construction_files / "net.json"),
                       "--data", str(construction_files / "ds.json"), "--save-model", str(missing / "m.json")],
            }[command]
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = _one_error_line(capsys)
    assert "cannot write" in err and ("missing" in err or "sub" in err)
    assert not out.exists() and not missing.exists()


# per command: option -> (values that parse, values its type, choices or range check refuse);
# gen-data has no --adversarial and train no --kind
_FUZZ_OPTIONS = {
    "gen-data": {"kind": (["blobs", "subspace"], ["bogus"]), "samples": (["8"], ["2.5", "x"]),
                 "features": (["3", "-1"], []), "classes": (["2"], ["true"]),
                 "spread": (["0.05", "nan"], ["wide"]), "intrinsic-dim": (["2"], [""]),
                 "out": (["d.json", ""], []), "seed": (["3"], ["1e3", "-1"]), "adversarial": ([], ["true"])},
    "train": {"epochs": (["1", "0"], ["2.5"]), "hidden": (["3", "3,2", "0", "3,-1"], ["a"]),
              "lr": (["0.05"], ["fast"]),
              "adversarial": (["true", "no"], ["maybe"]), "pgd-steps": (["1", "-1"], []),
              "batch-size": (["16", "0"], []), "model-out": (["m.json", ""], []), "seed": (["1"], ["x", "-1"]),
              "kind": ([], ["blobs"])},
}


@st.composite
def _fuzz_case(draw):
    """A command, config lines and flags, each line (key, value, parses)."""
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    options = _FUZZ_OPTIONS[command]
    pair = st.sampled_from(sorted(options)).flatmap(lambda k: st.one_of(
        *[st.tuples(st.just(k), st.sampled_from(vs), st.just(ok))
          for vs, ok in zip(options[k], (True, False)) if vs]))
    return (command, draw(st.lists(pair, max_size=4)), draw(st.lists(pair, max_size=3)),
            draw(st.booleans()))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fuzz_case())
def test_fuzzed_flags_and_config_exit_0_or_2(tmp_path, workdir, capsys, case):
    """Each mix of flags and config lines (bad types, bad choices, booleans,
    unknown and duplicate keys) exits 0 or 2 with at most one error line, and
    every file it leaves is complete.  A line that does not parse, or a key
    given twice, exits 2."""
    command, config_lines, flags, config_first = case
    root = tempfile.mkdtemp(dir=tmp_path)
    cfg = os.path.join(root, "c.cfg")
    with open(cfg, "w") as f:
        f.writelines(f"{k} = {v}\n" for k, v, _ in config_lines)
    out = os.path.join(root, "out")
    argv = [command, "--out-dir", out] + (["--data", str(workdir / "data.json")] if command == "train" else [])
    argv += [f"--{k}" if k == "adversarial" and v == "true" else f"--{k}={v}" for k, v, _ in flags]
    argv = ["--config", cfg] + argv if config_first else argv + ["--config", cfg]
    capsys.readouterr()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's own usage error
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in (0, 2) and err.count("error:") <= 1 and "Traceback" not in err
    keys = [k for k, _, _ in config_lines]
    if not all(ok for _, _, ok in config_lines + flags) or len(set(keys)) < len(keys):
        assert rc == 2 and err.count("error:") == 1
    for name in os.listdir(out) if os.path.isdir(out) else []:
        text = open(os.path.join(out, name)).read()
        assert not name.endswith(".tmp") and text.endswith("\n")
        if name.endswith(".json"):
            json.loads(text)


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    """Every `advparam ...` line of README.md, run in order from an empty directory, exits 0."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        commands = [shlex.split(line)[1:] for line in f if line.startswith("advparam ")]
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, f"advparam {' '.join(argv)}: {capsys.readouterr().err}"
