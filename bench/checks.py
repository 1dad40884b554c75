"""Output checks for the benchmark workloads.

Each check reads the files one CLI command wrote and returns a list of
problems (empty when the output is right).  Expected values come from
``reference.py``, never from the package under test.  Two kinds of finding
are kept apart from the problems: efficacy thresholds of the acceptance
configuration (``efficacy_*``), which are properties of the method on the
acceptance seed rather than of every seed, and known faults of the program
that show only on some seeds (``known_faults_*``), which are reported and
never counted.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import reference as ref

SWEEP_HEADER = ["attack", "budget", "ac_base", "ac_att", "aa_base", "aa_att",
                "r4_base", "r4_att", "ar_aa", "ar_r4", "failed"]
EVAL_HEADER = ["dataset", "n_samples", "acc", "adv_acc", "eps", "avg_r2", "dist_measure", "seed"]
FLOAT_COLS = SWEEP_HEADER[2:10]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(path: str):
    """Parse a file as strict JSON (no NaN / Infinity tokens)."""
    with open(path) as f:
        return json.loads(f.read(), parse_constant=_reject_constant)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return (rows[0], rows[1:]) if rows else ([], [])


# ---------------------------------------------------------------------------
# desk-sweep: advparam report


def parse_sweep(header, records) -> tuple[list[dict], list[str]]:
    if header != SWEEP_HEADER:
        return [], [f"report.csv header {header}"]
    rows = []
    for rec in records:
        row = {"attack": rec[0], "budget": rec[1], "failed": rec[10]}
        row.update({c: float(v) for c, v in zip(FLOAT_COLS, rec[2:10])})
        rows.append(row)
    return rows, []


def sweep_row_problems(rows: list[dict], gammas: list[float], ref_acc: float) -> list[str]:
    """Row order, shared base columns, aa <= ac and rates that reproduce."""
    bad = []
    want = [(a, g) for g in gammas for a in ("linf", "random")]
    got = [(r["attack"], float(r["budget"])) for r in rows]
    if got != want:
        bad.append(f"rows {got} != {want}")
    for r in rows:
        tag = f"{r['attack']} {r['budget']}"
        base = (r["ac_base"], r["aa_base"], r["r4_base"])
        if base != (rows[0]["ac_base"], rows[0]["aa_base"], rows[0]["r4_base"]):
            bad.append(f"{tag}: base columns differ from the first row")
        if r["ac_base"] != ref_acc:
            bad.append(f"{tag}: ac_base {r['ac_base']!r} != reference accuracy {ref_acc!r}")
        if r["aa_base"] > r["ac_base"] or r["aa_att"] > r["ac_att"]:
            bad.append(f"{tag}: adversarial accuracy above clean accuracy")
        ar_aa, failed = ref.untargeted_rate(r["ac_base"], r["aa_base"], r["ac_att"], r["aa_att"])
        ar_r4, _ = ref.untargeted_rate(r["ac_base"], r["r4_base"], r["ac_att"], r["r4_att"])
        if not (ref.same_value(ar_aa, r["ar_aa"]) and ref.same_value(ar_r4, r["ar_r4"])):
            bad.append(f"{tag}: rates ({r['ar_aa']!r}, {r['ar_r4']!r}) do not reproduce "
                       f"({ar_aa!r}, {ar_r4!r})")
        if r["failed"] != ("1" if failed else "0"):
            bad.append(f"{tag}: failed flag {r['failed']} does not match the accuracy ratio")
    return bad


def check_report(workdir, ctx, code) -> list[str]:
    header, records = read_csv(os.path.join(workdir, "report.csv"))
    rows, bad = parse_sweep(header, records)
    if bad:
        return bad
    summary_path = os.path.join(workdir, "summary.json")
    try:
        summary = strict_json(summary_path)
    except ValueError as exc:
        # Only an undefined rate (a base net with zero accuracy or zero
        # robustness) may be written as NaN; see known_faults_report.
        if not any(math.isnan(r["ar_aa"]) or math.isnan(r["ar_r4"]) for r in rows):
            return [f"summary.json is not strict JSON: {exc}"]
        with open(summary_path) as f:
            summary = json.load(f)
    if summary.get("errors") != []:
        bad.append(f"summary.json errors: {summary.get('errors')}")
    if [(s["attack"], s["budget"]) for s in summary.get("rows", [])] != \
            [(r["attack"], r["budget"]) for r in rows]:
        bad.append("summary.json rows do not match report.csv")
    ws, bs = ref.load_model(ctx["model"])
    X, y = ref.load_dataset(ctx["data"])
    bad += sweep_row_problems(rows, ctx["gammas"], ref.accuracy(ws, bs, X, y))
    if code != (1 if any(r["failed"] == "1" for r in rows) else 0):
        bad.append(f"exit code {code} does not match the failed rows")
    return bad


def known_faults_report(workdir, ctx) -> list[str]:
    """summary.json holds bare NaN, which is not JSON, whenever a rate is
    undefined; that happens on seeds whose trained desk net is degenerate."""
    try:
        strict_json(os.path.join(workdir, "summary.json"))
    except ValueError as exc:
        return [f"summary.json is not strict JSON ({exc}) because a rate is undefined"]
    return []


def efficacy_report(workdir, ctx) -> list[str]:
    """Acceptance criteria 7 and 8 of the desk configuration."""
    rows, _ = parse_sweep(*read_csv(os.path.join(workdir, "report.csv")))
    guided = {r["budget"]: r for r in rows if r["attack"] == "linf"}
    control = {r["budget"]: r for r in rows if r["attack"] == "random"}
    unmet = []
    g10 = guided[repr(max(ctx["gammas"]))]
    if g10["ac_att"] < 0.9 * g10["ac_base"]:
        unmet.append("accuracy ratio at the largest gamma below 0.9")
    if g10["ar_aa"] < 0.25:
        unmet.append(f"ar_aa {g10['ar_aa']:.3f} at the largest gamma below 0.25")
    for b, r in guided.items():
        if float(b) >= 0.04 and not r["ar_aa"] > control[b]["ar_aa"]:
            unmet.append(f"random control not beaten at gamma {b}")
    return unmet


# ---------------------------------------------------------------------------
# adv-train: advparam train


def check_train(workdir, ctx, code) -> list[str]:
    ws, bs = ref.load_model(os.path.join(workdir, "model.json"))
    bad = []
    dims = [ws[0].shape[1]] + [w.shape[0] for w in ws]
    if dims != ctx["dims"]:
        bad.append(f"model dims {dims} != {ctx['dims']}")
    if not all(np.isfinite(a).all() for a in ws + bs):
        bad.append("model has non-finite entries")
    header, records = read_csv(os.path.join(workdir, "train_history.csv"))
    if header != ["epoch", "loss", "acc"] or [int(r[0]) for r in records] != list(range(ctx["epochs"])):
        return bad + [f"history is not one row per epoch for {ctx['epochs']} epochs"]
    if bad:
        return bad
    X, y = ref.load_dataset(ctx["data"])
    acc, last = ref.accuracy(ws, bs, X, y), float(records[-1][2])
    if abs(acc - last) > 1.0 / len(y) + 1e-12:
        bad.append(f"reference accuracy {acc!r} vs last history row {last!r}")
    return bad


# ---------------------------------------------------------------------------
# robustness-eval: advparam eval --csv


def eval_problems(row: dict, ref_vals: dict) -> list[str]:
    bad = []
    if row["acc"] != ref_vals["acc"]:
        bad.append(f"acc {row['acc']!r} != reference {ref_vals['acc']!r}")
    if not 0.0 <= row["adv_acc"] <= row["acc"]:
        bad.append(f"adv_acc {row['adv_acc']!r} outside [0, acc]")
    for key in ("avg_r2", "dist_measure"):
        a, b = row[key], ref_vals[key]
        if not ref.same_value(a, b, rel=1e-9, abs_tol=0.0):
            bad.append(f"{key} {a!r} != reference {b!r} (rel 1e-9)")
    return bad


def check_eval(workdir, ctx, code) -> list[str]:
    header, records = read_csv(os.path.join(workdir, "eval.csv"))
    if header != EVAL_HEADER or len(records) != 1:
        return [f"eval.csv has header {header} and {len(records)} rows"]
    row = {k: float(v) for k, v in zip(EVAL_HEADER[1:], records[0][1:])}
    ws, bs = ref.load_model(ctx["model"])
    X, y = ref.load_dataset(ctx["data"])
    logits, J = ref.input_jacobians(ws, bs, X)
    ref_vals = {"acc": ref.accuracy(ws, bs, X, y),
                "avg_r2": ref.mean_finite(ref.linf_radii(logits, J, y)),
                "dist_measure": ref.dist_measure(logits, J, y)}
    bad = eval_problems(row, ref_vals)
    if int(row["n_samples"]) != len(y) or row["eps"] != ctx["eps"]:
        bad.append("eval.csv n_samples or eps do not match the request")
    return bad


# ---------------------------------------------------------------------------
# attack-kinds: advparam attack and advparam theory


def result_problems(res: dict) -> list[str]:
    """The rate and the failed flag must reproduce from the result's fields."""
    kind = res["kind"]
    args = (res["base_acc"], res["base_rob"], res["att_acc"], res["att_rob"])
    if kind in ("linf", "swap"):
        rate, failed = ref.untargeted_rate(*args)
    else:
        rate, failed = ref.targeted_rate(kind, *args, res["att_aux"])
    if kind == "single":
        failed = not (res["extras"]["still_correct"] and res["extras"]["adversarial_found"])
    bad = []
    if not ref.same_value(rate, res["rate"]):
        bad.append(f"{kind}: rate {res['rate']!r} does not reproduce ({rate!r})")
    if failed != res["failed"]:
        bad.append(f"{kind}: failed flag {res['failed']} does not reproduce")
    return bad


def check_attack(workdir, ctx, code) -> list[str]:
    kind = ctx["kind"]
    out = os.path.join(workdir, kind)
    with open(os.path.join(out, "attack_result.json")) as f:
        res = json.load(f)
    base = ref.load_model(ctx["model"])
    att = ref.load_model(os.path.join(out, "attacked_model.json"))
    bad = result_problems(res)
    if res["kind"] != kind:
        bad.append(f"result kind {res['kind']} != {kind}")
    if code != (1 if res["failed"] else 0):
        bad.append(f"{kind}: exit code {code} does not match failed={res['failed']}")
    if kind == "swap":
        bad += [f"swap: {p}" for p in ref.swap_problems(base, att, ctx["k_matrices"])]
    else:
        gamma = ctx["gamma"]
        bad += [f"{kind}: {p}" for p in ref.outside_box(base, att, lambda b: gamma * np.abs(b))]
    if kind == "single":
        X, y = ref.load_dataset(ctx["data"])
        i = ctx["index"]
        kept = bool(ref.predict(*att, X[i:i + 1])[0] == y[i])
        if kept != res["extras"]["still_correct"]:
            bad.append(f"single: still_correct={res['extras']['still_correct']} but the "
                       f"reference classifies the anchor {'correctly' if kept else 'wrongly'}")
    return bad


def efficacy_single(workdir, ctx) -> list[str]:
    with open(os.path.join(workdir, "single", "attack_result.json")) as f:
        res = json.load(f)
    return [] if res["extras"]["still_correct"] else ["single: the anchor lost its label"]


def surgery_problems(base, att, X, gamma) -> list[str]:
    """First-layer weights within gamma, all else identical, outputs on X kept to 1e-9."""
    bad = []
    if not (np.abs(att[0][0] - base[0][0]) <= gamma * (1.0 + 1e-9)).all():
        bad.append("first-layer weights moved more than gamma")
    rest = list(zip(base[0][1:], att[0][1:])) + list(zip(base[1], att[1]))
    if not all(np.array_equal(b, a) for b, a in rest):
        bad.append("parameters outside the first-layer weights changed")
    if not bad:
        drift = float(np.abs(ref.forward(*att, X)[0] - ref.forward(*base, X)[0]).max())
        if drift > 1e-9:
            bad.append(f"protected outputs moved by {drift:.3e} > 1e-9")
    return bad


def check_surgery(workdir, ctx, code) -> list[str]:
    base = ref.load_model(ctx["model"])
    att = ref.load_model(os.path.join(workdir, ctx["out"]))
    X, _ = ref.load_dataset(ctx["data"])
    if ctx["index"] is not None:
        X = X[ctx["index"]:ctx["index"] + 1]
    return [f"{ctx['out']}: {p}" for p in surgery_problems(base, att, X, ctx["gamma"])]
