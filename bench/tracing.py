"""Outside-in tracing of the advparam layers.

``Tracer.install`` wraps every public function of the traced modules, plus
``ModelParams.__init__``, and rebinds each wrapper under every name that
refers to the original anywhere in the package: modules import functions by
name, so ``attack.forward_batch`` and ``mlp.forward_batch`` are separate
bindings that must both be replaced.  Each call becomes a span
``[name, start, end, parent, attrs]`` kept in memory; ``layer_metrics``
turns the spans into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ["mlp", "data", "attack", "metrics", "experiment", "train", "theory", "cli"]

PGD = {"attack.pgd_adversary_batch", "attack.pgd_flips_batch", "attack.robust_loss"}
ATTACKS = ["linf", "swap", "label", "direct", "single"]
RADIUS = {"metrics.radius_profile", "metrics.avg_approx_radius", "metrics.approx_radius",
          "metrics.margin_measure"}
MEASURES = RADIUS | {"metrics.dist_robust_measure"}

# Spans grouped into one layer for self time (a group's self time is the
# time spent in its members minus the time in spans of other layers).
GROUPS = {
    "mlp.forward_batch": {"mlp.forward_batch"},
    "mlp.input_gradient": {"mlp.input_gradient"},
    "mlp.loss_and_grads": {"mlp.loss_and_grads"},
    "mlp.input_jacobian": {"mlp.input_jacobian"},
    "mlp.params_built": {"mlp.ModelParams"},
    "mlp.add_scaled": {"mlp.add_scaled"},
    "mlp.model_io": {"mlp.load_model", "mlp.save_model", "mlp.model_to_json", "mlp.model_from_json"},
    "data.load_dataset": {"data.load_dataset", "data.dataset_from_json"},
    "attack.pgd": PGD,
    "attack.proj_box": {"attack.proj_box"},
    **{f"attack.attack_{k}": {f"attack.attack_{k}"} for k in ATTACKS},
    "metrics.adversarial_accuracy": {"metrics.adversarial_accuracy"},
    "metrics.accuracy": {"metrics.accuracy"},
    "metrics.radius": RADIUS,
    "metrics.dist_robust_measure": {"metrics.dist_robust_measure"},
    "experiment.run_sweep": {"experiment.run_sweep"},
    "experiment.write_outputs": {"experiment.run_experiment", "experiment.write_report_csv"},
    "train.train": {"train.train"},
    "theory.surgery_single_point": {"theory.surgery_single_point"},
    "theory.surgery_protected_set": {"theory.surgery_protected_set"},
    "cli.main": {"cli.main"},
}


def _arg(a, k, pos, name):
    return a[pos] if len(a) > pos else k.get(name)


def _rows(X) -> int:
    return int(np.shape(X)[0]) if np.ndim(X) == 2 else 1


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _attrs(name, a, k, out):
    """Per-call counters, measured at the layer boundary."""
    if name in ("mlp.forward_batch", "mlp.loss_and_grads", "mlp.input_gradient"):
        return {"rows": _rows(_arg(a, k, 1, "X"))}
    if name in PGD:
        return {"rows": _rows(_arg(a, k, 1, "X")), "steps": int(_arg(a, k, 3, "cfg").steps)}
    if name == "metrics.adversarial_accuracy":
        p, ds, pgd, seed = (_arg(a, k, i, n) for i, n in enumerate(["params", "ds", "pgd", "seed"]))
        return {"key": _digest(*p.weights, *p.biases, ds.X, ds.y) + f"|{pgd.eps!r}|{pgd.steps}|{seed!r}"}
    if name in MEASURES or name == "metrics.robustness_report":
        ds = _arg(a, k, 1, "ds")
        return {"rows": len(ds) if hasattr(ds, "X") else 1}
    if name in ("mlp.load_model", "mlp.save_model", "data.load_dataset"):
        return {"bytes": os.path.getsize(_arg(a, k, 0 if ".load_" in name else 1, "path"))}
    if name.startswith("attack.attack_"):
        attrs = {"iters": len(out.trace)}
        if name == "attack.attack_swap":
            attrs.update(swaps=out.extras["swaps"], slots=out.extras["swaps"] + out.extras["skipped_pairs"])
        return attrs
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*a, **k):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                out = fn(*a, **k)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[4] = _attrs(name, a, k, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every public function and rebind it wherever it is bound."""
        mods = {m: importlib.import_module(f"advparam.{m}") for m in MODULES}
        package = [importlib.import_module("advparam")] + list(mods.values())
        originals = {}
        for m, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(obj)] = (obj, self.wrap(f"{m}.{attr}", obj))
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(mod, attr, originals[id(obj)][1])
        cls = mods["mlp"].ModelParams
        cls.__init__ = self.wrap("mlp.ModelParams", cls.__init__)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, rows, self time and ratios from one traced run."""
    n = len(spans)
    child_time = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    def under(i, names):
        """True when some ancestor of span i is named in names."""
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def ids(names):
        return [i for nm in names for i in by_name.get(nm, [])]

    def attr(i, key):
        return (spans[i][4] or {}).get(key, 0)

    def attr_sum(names, key):
        return sum(attr(i, key) for i in ids(names))

    out = {}
    for group, names in GROUPS.items():
        members = ids(names)
        out[f"{group}.self_s"] = sum(spans[i][2] - spans[i][1] - child_time[i] for i in members)
        out[f"{group}.calls"] = sum(1 for i in members if not under(i, names))
    for g in ("mlp.forward_batch", "mlp.loss_and_grads"):
        out[f"{g}.rows"] = attr_sum(GROUPS[g], "rows")
    for g, key in (("mlp.model_io", "bytes"), ("data.load_dataset", "bytes")):
        out[f"{g}.bytes"] = attr_sum(GROUPS[g], key)

    pgd_top = [i for i in ids(PGD) if not under(i, PGD)]
    pgd_rows = sum(attr(i, "rows") for i in pgd_top)
    out["attack.pgd.rows_per_call"] = pgd_rows / len(pgd_top) if pgd_top else 0.0
    out["attack.pgd.sample_steps"] = sum(attr(i, "rows") * attr(i, "steps") for i in pgd_top)
    grads = sum(1 for i in by_name.get("mlp.input_gradient", []) if under(i, PGD))
    fwds = sum(1 for i in by_name.get("mlp.forward_batch", []) if under(i, PGD))
    out["attack.pgd.forwards_per_step"] = fwds / grads if grads else 0.0

    attack_ids = ids({f"attack.attack_{k}" for k in ATTACKS})
    iters = sum(attr(i, "iters") for i in attack_ids)
    out["attack.iter_s"] = sum(spans[i][2] - spans[i][1] for i in attack_ids) / iters if iters else 0.0
    slots = attr_sum({"attack.attack_swap"}, "slots")
    out["attack.swap.accept_ratio"] = attr_sum({"attack.attack_swap"}, "swaps") / slots if slots else 0.0

    aa = by_name.get("metrics.adversarial_accuracy", [])
    out["metrics.adversarial_accuracy.useful_ratio"] = (
        len({attr(i, "key") for i in aa}) / len(aa) if aa else 0.0)

    outer = {"metrics.robustness_report"} | MEASURES
    samples = sum(attr(i, "rows") for i in ids(outer) if not under(i, outer))
    jac = sum(1 for i in by_name.get("mlp.input_jacobian", []) if under(i, MEASURES))
    out["metrics.jacobians_per_sample"] = jac / samples if samples else 0.0

    train_ids = set(by_name.get("train.train", []))
    steps = sum(1 for i in by_name.get("mlp.loss_and_grads", []) if spans[i][3] in train_ids)
    out["train.step_s"] = sum(spans[i][2] - spans[i][1] for i in train_ids) / steps if steps else 0.0
    return out
