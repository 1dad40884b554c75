"""Command-line front end.

Subcommands: gen-data, train, attack, eval, theory, report.  Every option is
declared once, with its type, choices and default, in ``build_parser``.  The
global options --seed, --out-dir and --config work before or after the
subcommand.  A config file is a flat list of `key = value` lines: each key is
a long option of the active subcommand, its value is parsed like the flag's
argument, and explicit flags win.  Each ``theory --op`` reads the options named
by its function's parameters (a construction also --model, --data, --save-model
and, for an x0, --index).  theory, gen-data, train, attack and report refuse an
option they do not read (``_refuse_unread``) set to other than its default.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

import numpy as np

from . import theory
from .attack import (
    AttackConfig,
    PerturbBudget,
    PgdConfig,
    attack_direct,
    attack_label,
    attack_linf,
    attack_single,
    attack_swap,
    check_classified,
    target_rows,
)
from .data import LabeledDataset, atomic_open, gen_blobs, gen_subspace_task, load_dataset, save_dataset
from .experiment import load_inputs, run_experiment
from .metrics import GAMMA_LOW, reports_to_csv, robustness_report
from .mlp import save_model
from .train import TrainConfig, train

SUP = argparse.SUPPRESS
_BOOLS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _read_config(path: str) -> dict[str, tuple[int, str]]:
    """Flat `key = value` lines; blank lines and #-comments allowed.  Maps
    each key, with underscores as dashes, to its line number and value."""
    cfg = {}
    with open(path) as f:
        for ln, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value, got {line!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("_", "-")
            if key in cfg:
                raise ValueError(f"{path}:{ln}: duplicate key {key!r}")
            cfg[key] = (ln, val.strip())
    return cfg


def _parse(argv) -> argparse.Namespace:
    """Parse argv.  ``ns.defaults`` maps each option of the subcommand to its
    declared default.  The values of a --config file, parsed by their options'
    type and choices (true/false for a store-true flag), become parser
    defaults and argv is parsed again, so explicit flags win."""
    parser, commands = build_parser()
    ns = parser.parse_args(argv)
    sub = commands[ns.command]
    defaults = {a.dest: a.type(a.default) if a.type and isinstance(a.default, str) else a.default
                for a in sub._actions if a.default is not SUP}
    for key, (ln, text) in (_read_config(ns.config) if ns.config is not None else {}).items():
        action = sub._option_string_actions.get(f"--{key}")
        try:
            if action is None or action.dest in ("help", "config"):
                raise ValueError(f"{ns.command} has no option --{key}")
            if action.nargs == 0:
                value = _BOOLS.get(text.lower())
                if value is None:
                    raise ValueError("expected true/false, yes/no or on/off")
            else:
                value = action.type(text) if action.type else text
                if action.choices and value not in action.choices:
                    raise ValueError(f"invalid choice (choose from {', '.join(action.choices)})")
        except ValueError as exc:
            raise ValueError(f"{ns.config}:{ln}: {key} = {text}: {exc}") from None
        # a global option's default goes on the top-level parser (see _add_global)
        (parser if action.default is SUP else sub).set_defaults(**{action.dest: value})
    if ns.config is not None:
        ns = parser.parse_args(argv)
    ns.defaults = defaults
    return ns


def _attack_cfg(ns: argparse.Namespace) -> AttackConfig:
    return AttackConfig(pgd=PgdConfig(eps=ns.eps, steps=ns.pgd_steps), n_pre=ns.n_pre,
                        n_main=ns.n_main, alpha=ns.alpha, batch_size=ns.batch_size, seed=ns.seed)


def _swap_budget(ns: argparse.Namespace, k: int) -> PerturbBudget:
    return PerturbBudget("swap", k_matrices=k, pair_fraction=ns.pair_fraction, pair_floor=ns.pair_floor)


def _check_output(path: str, out_dir: str | None = None) -> str:
    """path, refused before any work unless its directory exists or is out_dir, which the command makes."""
    folder = os.path.normpath(os.path.dirname(path))
    if not os.path.isdir(folder) and (out_dir is None or folder != os.path.normpath(out_dir)):
        raise ValueError(f"cannot write {path!r}: no directory {folder!r}")
    return path


def _refuse_unread(ns: argparse.Namespace, what: str, unread: set[str]) -> None:
    """Refuse the first option of ``unread`` (dests) that differs from its declared default."""
    for dest, default in ns.defaults.items():
        if dest in unread and getattr(ns, dest) != default:
            raise ValueError(f"{what} does not read --{dest.replace('_', '-')}")


def _sample_index(ns: argparse.Namespace, ds: LabeledDataset) -> int:
    """The --index option, checked against the dataset (no negative wrap)."""
    if not 0 <= ns.index < len(ds):
        raise ValueError(f"--index {ns.index} out of range for {len(ds)} samples")
    return ns.index


# Each theory op: its theory function, by name so that a rebinding in the module
# is seen, and the line that prints its number (a construction prints its trace).
_THEORY_OPS = {
    "surgery-point": ("surgery_single_point", None),
    "surgery-set": ("surgery_protected_set", None),
    "inflate": ("gradient_inflation_attack", None),
    "point-rate": ("point_rate_bound", "point rate bound: {!r}"),
    "point-depth": ("min_depth_for_point_rate", "minimum depth: {!r}"),
    "dist-rate": ("dist_rate_bound", "distribution rate bound: {!r}"),
    "dist-depth": ("min_depth_for_dist_rate", "minimum depth: {!r}"),
}


def _theory_reads(op: str) -> set[str]:
    """The dests of the options that theory --op reads (see the module docstring)."""
    names = set(inspect.signature(getattr(theory, _THEORY_OPS[op][0])).parameters)
    if "params" in names:
        names |= {"model", "data", "save_model"} | ({"index"} if "x0" in names else set())
    return names


# The attack options that only some kinds read, and those kinds.
_KIND_ONLY = {"index": {"single"}, "target_label": {"label", "direct"},
              "k_matrices": {"swap"}, "pair_fraction": {"swap"}, "pair_floor": {"swap"}}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(ns: argparse.Namespace) -> int:
    _refuse_unread(ns, f"gen-data --kind {ns.kind}", {"intrinsic_dim"} if ns.kind == "blobs" else {"spread"})
    path = _check_output(os.path.join(ns.out_dir, ns.out if ns.out is not None else f"{ns.kind}.json"), ns.out_dir)
    if ns.kind == "blobs":
        ds = gen_blobs(ns.samples, ns.features, ns.classes, ns.seed, spread=ns.spread)
    else:
        dim = ns.intrinsic_dim if ns.intrinsic_dim is not None else max(1, ns.features // 2)
        ds = gen_subspace_task(ns.samples, ns.features, dim, ns.classes, ns.seed)
    os.makedirs(ns.out_dir, exist_ok=True)
    save_dataset(ds, path)
    print(f"wrote {path} ({len(ds)} samples, {ds.n_features} features, {ds.n_classes} classes)")
    return 0


def _cmd_train(ns: argparse.Namespace) -> int:
    _refuse_unread(ns, "train without --adversarial", set() if ns.adversarial else {"eps", "pgd_steps"})
    model_path = _check_output(os.path.join(ns.out_dir, ns.model_out), ns.out_dir)
    ds = load_dataset(ns.data)
    cfg = TrainConfig(
        dims=[ds.n_features] + ns.hidden + [ds.n_classes],
        epochs=ns.epochs, lr=ns.lr, batch_size=ns.batch_size, seed=ns.seed,
        momentum=ns.momentum, lr_decay=ns.lr_decay, adversarial=ns.adversarial,
        pgd=PgdConfig(eps=ns.eps, steps=ns.pgd_steps),
    )
    os.makedirs(ns.out_dir, exist_ok=True)
    res = train(cfg, ds)
    save_model(res.params, model_path)
    with atomic_open(os.path.join(ns.out_dir, "train_history.csv")) as f:
        f.write("epoch,loss,acc\n")
        f.writelines(f"{h['epoch']},{h['loss']!r},{h['acc']!r}\n" for h in res.history)
    final = res.history[-1]
    print(f"wrote {model_path} (final loss {final['loss']:.4f}, accuracy {final['acc']:.4f})")
    return 0


def _cmd_attack(ns: argparse.Namespace) -> int:
    _refuse_unread(ns, f"attack --kind {ns.kind}", {dest for dest, kinds in _KIND_ONLY.items() if ns.kind not in kinds})
    params, ds = load_inputs(ns.model, ns.data)
    cfg = _attack_cfg(ns)
    budget = (_swap_budget(ns, ns.k_matrices) if ns.kind == "swap"
              else PerturbBudget("linf", gamma=ns.gamma))
    budget.check_fits(params)
    data = (ds,)  # what the attack takes before its budget, checked by the attack's own checks
    if ns.kind == "single":
        idx = _sample_index(ns, ds)
        data = (ds.X[idx], int(ds.y[idx]))
        check_classified(params, *data)
    elif ns.kind in ("label", "direct"):
        data = (ds, ns.target_label)
        target_rows(ds.y, ns.target_label)
    os.makedirs(ns.out_dir, exist_ok=True)
    res = {"linf": attack_linf, "swap": attack_swap, "label": attack_label, "direct": attack_direct,
           "single": attack_single}[ns.kind](params, *data, budget, cfg)
    model_path = os.path.join(ns.out_dir, "attacked_model.json")
    save_model(res.attacked, model_path)
    ri = res.rate_inputs
    result = {"kind": ns.kind, "budget": res.budget_desc, "seed": ns.seed, "rate": res.rate,
              "failed": res.failed, **vars(ri),  # base_acc, base_rob, att_acc, att_rob, att_aux
              "extras": {k: v for k, v in res.extras.items() if k != "swap_log"}, "trace": res.trace}
    result_path = os.path.join(ns.out_dir, "attack_result.json")
    with atomic_open(result_path) as f:
        json.dump(result, f, indent=2)
    if math.isnan(res.rate):
        status = "rate undefined"
    elif ri.att_acc / ri.base_acc < GAMMA_LOW:
        status = "FAILED (accuracy lost)"
    else:
        status = "FAILED" if res.failed else "ok"
    what = res.budget_desc if ns.kind in ("linf", "swap") else f"{ns.kind} {res.budget_desc}"
    print(f"wrote {model_path} and {result_path}")
    print(f"attack {what}: rate {res.rate:.4f} [{status}]")
    return 1 if res.failed else 0


def _cmd_eval(ns: argparse.Namespace) -> int:
    _check_output(ns.csv or "")
    params, ds = load_inputs(ns.model, ns.data)
    rep = robustness_report(params, ds, PgdConfig(eps=ns.eps, steps=ns.pgd_steps), seed=ns.seed)
    print(rep.text_summary())
    if ns.csv:
        reports_to_csv([rep], ns.csv)
        print(f"wrote {ns.csv}")
    return 0


def _cmd_theory(ns: argparse.Namespace) -> int:
    func_name, line = _THEORY_OPS[ns.op]
    func = getattr(theory, func_name)
    reads = _theory_reads(ns.op) | {"op"}
    _refuse_unread(ns, f"theory --op {ns.op}", set(ns.defaults) - reads)
    _check_output(ns.save_model or "")
    values = dict(vars(ns))
    if "params" in reads:  # a construction; --index is 0 unless the op reads it
        if not (ns.model and ns.data):
            raise ValueError(f"theory --op {ns.op} needs --model and --data")
        params, ds = load_inputs(ns.model, ns.data)
        values.update(params=params, X=ds.X, x0=ds.X[_sample_index(ns, ds)])
    signature = inspect.signature(func, eval_str=True).parameters
    for name in [n for n, p in signature.items() if p.annotation is float and isinstance(values[n], list)]:
        if len(values[name]) != 1:
            raise ValueError(f"--{name.replace('_', '-')} takes one number for --op {ns.op}")
        values[name] = values[name][0]
    out = func(**{name: values[name] for name in signature})
    print(out.summary_text() if line is None else line.format(out))
    if ns.save_model:
        save_model(out.attacked, ns.save_model)
        print(f"wrote {ns.save_model}")
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    _refuse_unread(ns, "report without --swap-k", set() if ns.swap_k else {"pair_fraction", "pair_floor"})
    budgets = [PerturbBudget("linf", gamma=g) for g in ns.gammas]
    budgets += [_swap_budget(ns, k) for k in ns.swap_k]
    res = run_experiment(ns.model, ns.data, budgets, ns.out_dir, _attack_cfg(ns),
                         control=not ns.no_control, name=ns.name)
    print(f"wrote {res.csv_path} and {res.summary_path}")
    print(f"{'attack':<8} {'budget':<22} {'ac_att':>7} {'aa_att':>7} {'ar_aa':>7} {'ar_r4':>7} fail")
    for row in res.rows:
        print(f"{row.attack:<8} {row.budget:<22} {row.ac_att:>7.3f} {row.aa_att:>7.3f} "
              f"{row.ar_aa:>7.3f} {row.ar_r4:>7.3f} {'1' if row.failed else '0':>4}")
    for err in res.errors:
        print(f"error at {err['attack']} {err['budget']}: {err['error']}", file=sys.stderr)
    return 1 if res.any_failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_global(p: argparse.ArgumentParser, top: bool) -> None:
    """--seed, --out-dir and --config, with defaults on the top-level parser only
    (a subparser default would overwrite a value parsed before the subcommand)."""
    p.add_argument("--seed", type=int, default=0 if top else SUP, help="master RNG seed")
    p.add_argument("--out-dir", default="." if top else SUP, help="directory for output files")
    p.add_argument("--config", default=None if top else SUP, help="file of key = value option defaults")


def _add_inputs(p: argparse.ArgumentParser, model: bool = True, eps: float = 0.1, steps: int = 40) -> None:
    """The input files, and the PGD schedule that scores (or trains) the net."""
    if model:
        p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--eps", type=float, default=eps, help="PGD radius (L-inf) on the inputs")
    p.add_argument("--pgd-steps", type=int, default=steps, help="PGD steps")


def _add_attack(p: argparse.ArgumentParser) -> None:
    """The attack loop and swap budget options that attack and report share."""
    p.add_argument("--n-pre", type=int, default=20, help="phase-1 iterations (robust loss up)")
    p.add_argument("--n-main", type=int, default=80, help="phase-2 iterations (clean/robust ratio)")
    p.add_argument("--alpha", type=float, default=1e-2, help="attack step size")
    p.add_argument("--batch-size", type=int, default=None, help="attack minibatch (None: full batch)")
    p.add_argument("--pair-fraction", type=float, default=0.01, help="swap: pairs per matrix / entries")
    p.add_argument("--pair-floor", type=int, default=400, help="swap: least pairs per matrix")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(prog="advparam", formatter_class=fmt,
                                     description="Train small ReLU classifiers and attack their parameters.")
    _add_global(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text, formatter_class=fmt)
        _add_global(p, top=False)
        p.set_defaults(func=func)
        return p

    p = cmd("gen-data", _cmd_gen_data, "generate a dataset file")
    p.add_argument("--kind", choices=["blobs", "subspace"], default="blobs", help="dataset family")
    p.add_argument("--samples", type=int, default=120, help="number of samples")
    p.add_argument("--features", type=int, default=8, help="input dimension")
    p.add_argument("--classes", type=int, default=3, help="number of classes")
    p.add_argument("--intrinsic-dim", type=int, default=None,
                   help="subspace: span dimension (None: max(1, features // 2))")
    p.add_argument("--spread", type=float, default=0.06, help="blobs: standard deviation")
    p.add_argument("--out", default=None, help="output filename inside out-dir (None: <kind>.json)")

    p = cmd("train", _cmd_train, "train a classifier on a dataset file")
    _add_inputs(p, model=False, eps=8.0 / 255.0, steps=10)
    p.add_argument("--hidden", type=_int_list, default="32", help="comma-separated hidden widths")
    p.add_argument("--epochs", type=int, default=40, help="training epochs")
    p.add_argument("--batch-size", type=int, default=32, help="minibatch size")
    p.add_argument("--lr", type=float, default=0.1, help="learning rate")
    p.add_argument("--momentum", type=float, default=0.9, help="SGD momentum")
    p.add_argument("--lr-decay", type=float, default=1.0, help="learning-rate factor per epoch")
    p.add_argument("--adversarial", action="store_true", help="train on PGD points")
    p.add_argument("--model-out", default="model.json", help="model filename inside out-dir")

    p = cmd("attack", _cmd_attack, "run one parameter attack against a trained model")
    _add_inputs(p)
    _add_attack(p)
    p.add_argument("--kind", choices=["linf", "swap", "label", "direct", "single"], default="linf",
                   help="attack kind")
    p.add_argument("--gamma", type=float, default=0.1, help="box half-width ratio |dtheta| <= gamma |theta|")
    p.add_argument("--k-matrices", type=int, default=1, help="swap: weight matrices to edit")
    p.add_argument("--target-label", type=int, default=0, help="label and direct: targeted class")
    p.add_argument("--index", type=int, default=0, help="single: sample index")

    p = cmd("eval", _cmd_eval, "robustness report for a model on a dataset")
    _add_inputs(p)
    p.add_argument("--csv", default=None, help="also write the report as CSV")

    p = cmd("theory", _cmd_theory, "run a constructive attack or evaluate a closed-form bound")
    p.add_argument("--op", default="point-rate", choices=list(_THEORY_OPS), help="construction or bound")
    first = len(p._actions)
    p.add_argument("--model", default=None, help="model file")
    p.add_argument("--data", default=None, help="dataset file")
    p.add_argument("--save-model", default=None, help="write the attacked model here")
    p.add_argument("--index", type=int, default=0, help="sample index")
    p.add_argument("--gamma", type=float, default=0.1, help="box half-width ratio")
    p.add_argument("--eps", type=float, default=0.05, help="input distance of the flipped point")
    p.add_argument("--radius", type=float, default=None, help="gap-bound probe radius (None: 1.5 eps)")
    p.add_argument("--depth", type=int, default=1, help="net depth")
    p.add_argument("--angle", type=float, default=math.pi / 2, help="angle")
    p.add_argument("--gap-bound", type=float, default=1.0, help="logit-gap bound")
    p.add_argument("--rho", type=float, default=0.5, help="certify a decay rate >= 1 - rho")
    p.add_argument("--act-floor", type=float, default=1.0, help="activation floor")
    p.add_argument("--active-floor", type=float, default=1.0, help="active share floor")
    p.add_argument("--active-frac", type=_float_list, default="1.0", help="active share per layer")
    for flag, what in (("--row-sep", "row separation"), ("--col-gain", "column gain"),
                       ("--act-prob", "activation probability"), ("--gain-prob", "gain probability")):
        p.add_argument(flag, type=_float_list, default="1.0", help=f"{what}, one per layer for dist-rate")
    reads = {op: _theory_reads(op) for op in _THEORY_OPS}
    for action in p._actions[first:]:  # name the ops that read each option
        action.help = f"{', '.join(op for op in reads if action.dest in reads[op])}: {action.help}"

    p = cmd("report", _cmd_report, "sweep attacks over budgets and write report.csv")
    _add_inputs(p)
    _add_attack(p)
    p.add_argument("--gammas", type=_float_list, default="0.02,0.04,0.06,0.08,0.10", help="box ratios")
    p.add_argument("--swap-k", type=_int_list, default="", help="comma-separated swap matrix counts")
    p.add_argument("--no-control", action="store_true", help="skip the random control rows")
    p.add_argument("--name", default="experiment", help="experiment name in summary.json")

    return parser, sub.choices


def main(argv=None) -> int:
    try:
        ns = _parse(argv)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing net fails with one error line
            return ns.func(ns)
    except (ValueError, OSError) as exc:  # bad input, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
