"""Command-line front end.

Subcommands: gen-data, train, attack, eval, theory, report.  The global
options --seed, --out-dir and --config work before or after the subcommand.
A config file is a flat list of `key = value` lines supplying defaults for
any long option of the active subcommand (explicit flags win).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .attack import (
    AttackConfig,
    PgdConfig,
    attack_direct,
    attack_label,
    attack_linf,
    attack_single,
    attack_swap,
    budget_linf,
    budget_swap,
)
from .data import LabeledDataset, gen_blobs, gen_subspace_task, load_dataset, save_dataset
from .experiment import (
    AttackDescriptor,
    ExperimentPlan,
    linf_sweep,
    run_experiment,
)
from .metrics import reports_to_csv, robustness_report
from .mlp import load_model, save_model
from .theory import (
    dist_rate_bound,
    gradient_inflation_attack,
    min_depth_for_dist_rate,
    min_depth_for_point_rate,
    point_rate_bound,
    surgery_protected_set,
    surgery_single_point,
)
from .train import TrainConfig, train

SUP = argparse.SUPPRESS


def _read_config(path: str) -> dict:
    """Flat `key = value` lines; blank lines and #-comments allowed."""
    cfg = {}
    with open(path) as f:
        for ln, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value, got {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _coerce(text: str):
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


class _Options:
    """Layered lookup: explicit CLI flag > config file > built-in default.

    ``cast`` converts string values (untyped CLI flags and everything coming
    from a config file); already-typed CLI values pass through unchanged.
    """

    def __init__(self, ns: argparse.Namespace, cfg: dict):
        self.ns = ns
        self.cfg = cfg

    def get(self, key: str, default=None, cast=None):
        if hasattr(self.ns, key):
            val = getattr(self.ns, key)
        elif key in self.cfg:
            val = self.cfg[key]
        else:
            return default
        if cast is not None and isinstance(val, str):
            return cast(val)
        return val


def _float_list(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(t) for t in text]
    return [float(t) for t in str(text).replace(",", " ").split()]


def _int_list(text) -> list[int]:
    return [int(t) for t in str(text).replace(",", " ").split()]


def _pgd_from(opt: _Options) -> PgdConfig:
    return PgdConfig(eps=opt.get("eps", 0.1, float),
                     steps=opt.get("pgd_steps", 40, int))


def _attack_cfg(opt: _Options, seed: int) -> AttackConfig:
    return AttackConfig(
        pgd=_pgd_from(opt),
        n_pre=opt.get("n_pre", 20, int),
        n_main=opt.get("n_main", 80, int),
        alpha=opt.get("alpha", 1e-2, float),
        batch_size=opt.get("batch_size", None, int),
        seed=seed,
    )


def _out_dir(opt: _Options) -> str:
    out = opt.get("out_dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _sample_index(opt: _Options, ds: LabeledDataset) -> int:
    """The --index option, checked against the dataset (no negative wrap)."""
    idx = opt.get("index", 0, int)
    if not 0 <= idx < len(ds):
        raise ValueError(f"--index {idx} out of range for {len(ds)} samples")
    return idx


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(opt: _Options) -> int:
    kind = opt.get("kind", "blobs")
    seed = opt.get("seed", 0, int)
    n_samples = opt.get("samples", 120, int)
    n_features = opt.get("features", 8, int)
    n_classes = opt.get("classes", 3, int)
    if kind == "blobs":
        ds = gen_blobs(n_samples, n_features, n_classes, seed,
                       spread=opt.get("spread", 0.06, float))
    elif kind == "subspace":
        ds = gen_subspace_task(n_samples, n_features,
                               opt.get("intrinsic_dim", max(1, n_features // 2), int),
                               n_classes, seed)
    else:
        print(f"unknown dataset kind {kind!r}", file=sys.stderr)
        return 2
    path = os.path.join(_out_dir(opt), opt.get("out", f"{kind}.json"))
    save_dataset(ds, path)
    print(f"wrote {path} ({len(ds)} samples, {ds.n_features} features, "
          f"{ds.n_classes} classes)")
    return 0


def _cmd_train(opt: _Options) -> int:
    ds = load_dataset(opt.get("data"))
    seed = opt.get("seed", 0, int)
    hidden = _int_list(opt.get("hidden", "32"))
    cfg = TrainConfig(
        dims=[ds.n_features] + hidden + [ds.n_classes],
        epochs=opt.get("epochs", 40, int),
        lr=opt.get("lr", 0.1, float),
        batch_size=opt.get("batch_size", 32, int),
        seed=seed,
        momentum=opt.get("momentum", 0.9, float),
        lr_decay=opt.get("lr_decay", 1.0, float),
        adversarial=opt.get("adversarial", False, _coerce),
        pgd=PgdConfig(eps=opt.get("eps", 8.0 / 255.0, float),
                      steps=opt.get("pgd_steps", 10, int)),
    )
    res = train(cfg, ds)
    out = _out_dir(opt)
    model_path = os.path.join(out, opt.get("model_out", "model.json"))
    save_model(res.params, model_path)
    hist_path = os.path.join(out, "train_history.csv")
    with open(hist_path, "w") as f:
        f.write("epoch,loss,acc\n")
        for h in res.history:
            f.write(f"{h['epoch']},{h['loss']!r},{h['acc']!r}\n")
    final = res.history[-1]
    print(f"wrote {model_path} (final loss {final['loss']:.4f}, "
          f"accuracy {final['acc']:.4f})")
    return 0


def _cmd_attack(opt: _Options) -> int:
    params = load_model(opt.get("model"))
    ds = load_dataset(opt.get("data"))
    seed = opt.get("seed", 0, int)
    cfg = _attack_cfg(opt, seed)
    kind = opt.get("kind", "linf")
    gamma = opt.get("gamma", 0.1, float)
    if kind == "swap":
        budget = budget_swap(opt.get("k_matrices", 1, int),
                             opt.get("pair_fraction", 0.01, float),
                             opt.get("pair_floor", 400, int))
        res = attack_swap(params, ds, budget, cfg)
    else:
        budget = budget_linf(params, gamma)
        if kind == "linf":
            res = attack_linf(params, ds, budget, cfg)
        elif kind == "label":
            res = attack_label(params, ds, opt.get("target_label", 0, int), budget, cfg)
        elif kind == "direct":
            res = attack_direct(params, ds, opt.get("target_label", 0, int), budget, cfg)
        elif kind == "single":
            idx = _sample_index(opt, ds)
            res = attack_single(params, ds.X[idx], int(ds.y[idx]), budget, cfg)
        else:
            print(f"unknown attack kind {kind!r}", file=sys.stderr)
            return 2
    out = _out_dir(opt)
    model_path = os.path.join(out, "attacked_model.json")
    save_model(res.attacked, model_path)
    ri = res.rate_inputs
    result = {
        "kind": kind, "budget": res.budget_desc, "seed": seed,
        "rate": res.rate, "failed": res.failed,
        "base_acc": ri.base_acc, "base_rob": ri.base_rob,
        "att_acc": ri.att_acc, "att_rob": ri.att_rob, "att_aux": ri.att_aux,
        "extras": {k: v for k, v in res.extras.items() if k != "swap_log"},
        "trace": res.trace,
    }
    result_path = os.path.join(out, "attack_result.json")
    with open(result_path, "w") as f:
        json.dump(result, f, indent=2)
    status = "FAILED (accuracy lost)" if res.failed else "ok"
    print(f"wrote {model_path} and {result_path}")
    print(f"attack {kind} {res.budget_desc}: rate {res.rate:.4f} [{status}]")
    return 1 if res.failed else 0


def _cmd_eval(opt: _Options) -> int:
    params = load_model(opt.get("model"))
    ds = load_dataset(opt.get("data"))
    rep = robustness_report(params, ds, _pgd_from(opt), seed=opt.get("seed", 0, int))
    print(rep.text_summary())
    csv_out = opt.get("csv", None)
    if csv_out:
        reports_to_csv([rep], csv_out)
        print(f"wrote {csv_out}")
    return 0


def _cmd_theory(opt: _Options) -> int:
    op = opt.get("op", "point-rate")
    gamma = opt.get("gamma", 0.1, float)
    if op in ("surgery-point", "surgery-set", "inflate"):
        model_path, data_path = opt.get("model"), opt.get("data")
        if not model_path or not data_path:
            print(f"theory op {op} needs --model and --data", file=sys.stderr)
            return 2
        params = load_model(model_path)
        ds = load_dataset(data_path)
        if op == "surgery-point":
            idx = _sample_index(opt, ds)
            trace = surgery_single_point(params, ds.X[idx], gamma,
                                         opt.get("eps", 0.05, float),
                                         radius=opt.get("radius", None, float),
                                         seed=opt.get("seed", 0, int))
        elif op == "surgery-set":
            trace = surgery_protected_set(params, ds.X, gamma,
                                          opt.get("eps", 0.05, float),
                                          radius=opt.get("radius", None, float),
                                          seed=opt.get("seed", 0, int))
        else:
            idx = _sample_index(opt, ds)
            trace = gradient_inflation_attack(params, ds.X[idx], gamma)
        print(trace.summary_text())
        save_to = opt.get("save_model", None)
        if save_to:
            save_model(trace.attacked, save_to)
            print(f"wrote {save_to}")
        return 0
    if op == "point-rate":
        eta = point_rate_bound(gamma, opt.get("depth", 1, int),
                               opt.get("angle", math.pi / 2, float),
                               opt.get("row_sep", 1.0, float),
                               opt.get("act_floor", 1.0, float),
                               opt.get("gap_bound", 1.0, float))
        print(f"point rate bound: {eta!r}")
        return 0
    if op == "point-depth":
        depth = min_depth_for_point_rate(opt.get("rho", 0.5, float), gamma,
                                         opt.get("angle", math.pi / 2, float),
                                         opt.get("row_sep", 1.0, float),
                                         opt.get("act_floor", 1.0, float),
                                         opt.get("gap_bound", 1.0, float))
        print(f"minimum depth: {depth}")
        return 0
    if op == "dist-rate":
        rho = dist_rate_bound(gamma, opt.get("gap_bound", 1.0, float),
                              _float_list(opt.get("row_sep", "1.0")),
                              _float_list(opt.get("col_gain", "1.0")),
                              _float_list(opt.get("act_prob", "1.0")),
                              _float_list(opt.get("gain_prob", "1.0")),
                              _float_list(opt.get("active_frac", "1.0")))
        print(f"distribution rate bound: {rho!r}")
        return 0
    if op == "dist-depth":
        depth = min_depth_for_dist_rate(opt.get("rho", 0.5, float), gamma,
                                        opt.get("row_sep", 1.0, float),
                                        opt.get("col_gain", 1.0, float),
                                        opt.get("act_prob", 1.0, float),
                                        opt.get("gain_prob", 1.0, float),
                                        opt.get("active_floor", 1.0, float),
                                        opt.get("gap_bound", 1.0, float))
        print(f"minimum depth: {depth}")
        return 0
    print(f"unknown theory op {op!r}", file=sys.stderr)
    return 2


def _cmd_report(opt: _Options) -> int:
    seed = opt.get("seed", 0, int)
    control = not opt.get("no_control", False, _coerce)
    attacks = linf_sweep(_float_list(opt.get("gammas", "0.02,0.04,0.06,0.08,0.10")),
                         control=control)
    swap_ks = opt.get("swap_k", None)
    if swap_ks:
        for k in _int_list(swap_ks):
            attacks.append(AttackDescriptor("swap", k_matrices=k,
                                            pair_fraction=opt.get("pair_fraction", 0.01, float),
                                            pair_floor=opt.get("pair_floor", 400, int),
                                            control=control))
    plan = ExperimentPlan(
        model_path=opt.get("model"),
        dataset_path=opt.get("data"),
        attacks=attacks,
        out_dir=_out_dir(opt),
        seed=seed,
        attack_cfg=_attack_cfg(opt, seed),
        name=opt.get("name", "experiment"),
    )
    res = run_experiment(plan)
    print(f"wrote {res.csv_path} and {res.summary_path}")
    header = f"{'attack':<8} {'budget':<22} {'ac_att':>7} {'aa_att':>7} {'ar_aa':>7} {'ar_r4':>7} fail"
    print(header)
    for row in res.rows:
        print(f"{row.attack:<8} {row.budget:<22} {row.ac_att:>7.3f} {row.aa_att:>7.3f} "
              f"{row.ar_aa:>7.3f} {row.ar_r4:>7.3f} {'1' if row.failed else '0':>4}")
    for err in res.errors:
        print(f"error at {err['attack']} {err['budget']}: {err['error']}", file=sys.stderr)
    return 1 if res.any_failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_global(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=SUP, help="master RNG seed (default 0)")
    p.add_argument("--out-dir", dest="out_dir", default=SUP,
                   help="directory for output files (default .)")
    p.add_argument("--config", default=SUP,
                   help="file of key = value lines supplying option defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advparam",
        description="Train small ReLU classifiers, attack their parameters, "
                    "and measure what the attacks do to robustness.")
    _add_global(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_global(p)
        return p

    p = cmd("gen-data", "generate a dataset file")
    p.add_argument("--kind", choices=["blobs", "subspace"], default=SUP)
    for flag in ("--samples", "--features", "--classes", "--intrinsic-dim"):
        p.add_argument(flag, type=int, default=SUP)
    p.add_argument("--spread", type=float, default=SUP)
    p.add_argument("--out", default=SUP, help="output filename (inside out-dir)")

    p = cmd("train", "train a classifier on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--hidden", default=SUP, help="comma-separated hidden widths")
    for flag in ("--epochs", "--batch-size", "--pgd-steps"):
        p.add_argument(flag, type=int, default=SUP)
    for flag in ("--lr", "--momentum", "--lr-decay", "--eps"):
        p.add_argument(flag, type=float, default=SUP)
    p.add_argument("--adversarial", action="store_true", default=SUP)
    p.add_argument("--model-out", default=SUP)

    p = cmd("attack", "run one parameter attack against a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=["linf", "swap", "label", "direct", "single"],
                   default=SUP)
    for flag in ("--gamma", "--pair-fraction", "--alpha", "--eps"):
        p.add_argument(flag, type=float, default=SUP)
    for flag in ("--k-matrices", "--pair-floor", "--target-label", "--index",
                 "--n-pre", "--n-main", "--batch-size", "--pgd-steps"):
        p.add_argument(flag, type=int, default=SUP)

    p = cmd("eval", "robustness report for a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps", type=float, default=SUP)
    p.add_argument("--pgd-steps", type=int, default=SUP)
    p.add_argument("--csv", default=SUP, help="also write the report as CSV")

    p = cmd("theory", "run a constructive attack or evaluate a closed-form bound")
    p.add_argument("--op", choices=["surgery-point", "surgery-set", "inflate",
                                    "point-rate", "point-depth", "dist-rate",
                                    "dist-depth"], default=SUP)
    p.add_argument("--model", default=SUP)
    p.add_argument("--data", default=SUP)
    p.add_argument("--save-model", default=SUP)
    p.add_argument("--index", type=int, default=SUP)
    p.add_argument("--depth", type=int, default=SUP)
    for flag in ("--gamma", "--eps", "--radius", "--angle", "--gap-bound",
                 "--rho", "--active-floor"):
        p.add_argument(flag, type=float, default=SUP)
    for flag in ("--row-sep", "--col-gain", "--act-prob", "--gain-prob",
                 "--act-floor", "--active-frac"):
        p.add_argument(flag, default=SUP)

    p = cmd("report", "sweep attacks over budgets and write report.csv")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--gammas", default=SUP, help="comma-separated box ratios")
    p.add_argument("--swap-k", default=SUP, help="comma-separated swap matrix counts")
    p.add_argument("--no-control", action="store_true", default=SUP)
    p.add_argument("--name", default=SUP)
    for flag in ("--n-pre", "--n-main", "--batch-size", "--pgd-steps",
                 "--pair-floor"):
        p.add_argument(flag, type=int, default=SUP)
    for flag in ("--alpha", "--eps", "--pair-fraction"):
        p.add_argument(flag, type=float, default=SUP)

    return parser


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "attack": _cmd_attack,
    "eval": _cmd_eval,
    "theory": _cmd_theory,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = _read_config(ns.config) if hasattr(ns, "config") else {}
    opt = _Options(ns, cfg)
    try:
        return _COMMANDS[ns.command](opt)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
