"""Tests of the benchmark's reference code and output checks.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
The reference must agree with central finite differences, and every output
check must reject a deliberately corrupted output while accepting the
uncorrupted one.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import reference as ref  # noqa: E402


def small_net(rng, dims):
    ws = [rng.standard_normal((o, i)) / np.sqrt(i) for i, o in zip(dims[:-1], dims[1:])]
    bs = [0.1 * rng.standard_normal(o) for o in dims[1:]]
    return ws, bs


def fd_jacobian(ws, bs, x, h=1e-6):
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        cols.append((ref.forward(ws, bs, (x + e)[None])[0][0] - ref.forward(ws, bs, (x - e)[None])[0][0]) / (2 * h))
    return np.stack(cols, axis=1)


def interior_points(ws, bs, rng, n_in, count):
    """Points whose pre-activations stay clear of the ReLU kinks."""
    pts = []
    while len(pts) < count:
        x = rng.uniform(0.05, 0.95, n_in)
        h, ok = x, True
        for w, b in zip(ws[:-1], bs[:-1]):
            z = w @ h + b
            ok &= bool(np.abs(z).min() > 1e-3)
            h = np.maximum(z, 0.0)
        if ok:
            pts.append(x)
    return np.array(pts)


@pytest.mark.parametrize("dims", [[3, 5, 2], [4, 6, 6, 3], [5, 4, 4, 4, 3]])
def test_jacobian_matches_central_differences(dims):
    rng = np.random.default_rng(len(dims))
    ws, bs = small_net(rng, dims)
    X = interior_points(ws, bs, rng, dims[0], 6)
    _, J = ref.input_jacobians(ws, bs, X)
    for x, j in zip(X, J):
        assert np.allclose(j, fd_jacobian(ws, bs, x), rtol=1e-6, atol=1e-8)


def test_radius_and_dist_measure_match_per_sample_definitions():
    rng = np.random.default_rng(7)
    ws, bs = small_net(rng, [4, 8, 8, 3])
    X = interior_points(ws, bs, rng, 4, 12)
    logits, J = ref.input_jacobians(ws, bs, X)
    y = np.argmax(logits, axis=1)
    y[:3] = (y[:3] + 1) % 3  # three misclassified samples score radius 0
    radii, nums, dens = [], [], []
    for x, label in zip(X, y):
        F, jac = ref.forward(ws, bs, x[None])[0][0], fd_jacobian(ws, bs, x)
        others = [l for l in range(3) if l != label]
        gaps = [F[label] - F[l] for l in others]
        gd = [jac[label] - jac[l] for l in others]
        if np.argmax(F) != label or min(gaps) <= 0:
            radii.append(0.0)
        else:
            norms = [np.abs(d).sum() for d in gd]
            radii.append(min((g / n for g, n in zip(gaps, norms) if n >= 1e-12), default=math.inf))
        nums.append(min(g * g if g > 0 else 0.0 for g in gaps))
        dens.append(max(float(d @ d) for d in gd))
    assert np.allclose(ref.linf_radii(logits, J, y), radii, rtol=1e-6)
    assert math.isclose(ref.dist_measure(logits, J, y), np.mean(nums) / np.mean(dens), rel_tol=1e-6)


def test_rate_formulas():
    assert ref.untargeted_rate(1.0, 0.5, 0.95, 0.1) == (0.95 * (1 - 0.2), False)
    assert ref.untargeted_rate(1.0, 0.5, 0.8, 0.1)[1] is True
    assert math.isnan(ref.untargeted_rate(0.0, 0.5, 0.8, 0.1)[0])
    value, failed = ref.targeted_rate("label", 1.0, 0.5, 1.0, 0.5, 0.1)
    assert math.isclose(value, 0.8) and not failed
    value, _ = ref.targeted_rate("direct", 0.8, 0.5, 0.8, 0.25, 0.2)
    assert math.isclose(value, 0.5 * 0.75)
    assert ref.targeted_rate("single", 1.0, 0.2, 1.0, 0.05, None) == (0.75, False)


# ---------------------------------------------------------------------------
# each check rejects a corrupted output


def sweep_rows():
    rows = []
    for g in [0.02, 0.04]:
        for attack, ac_att, aa_att in (("linf", 0.95, 0.2), ("random", 0.99, 0.5)):
            r = {"attack": attack, "budget": repr(g), "ac_base": 1.0, "ac_att": ac_att,
                 "aa_base": 0.6, "aa_att": aa_att, "r4_base": 0.05, "r4_att": 0.03}
            r["ar_aa"], failed = ref.untargeted_rate(1.0, 0.6, ac_att, aa_att)
            r["ar_r4"], _ = ref.untargeted_rate(1.0, 0.05, ac_att, 0.03)
            r["failed"] = "1" if failed else "0"
            rows.append(r)
    return rows


def test_sweep_check_rejects_a_rate_that_does_not_reproduce():
    assert checks.sweep_row_problems(sweep_rows(), [0.02, 0.04], 1.0) == []
    rows = sweep_rows()
    rows[2]["ar_aa"] += 1e-6
    assert any("do not reproduce" in p for p in checks.sweep_row_problems(rows, [0.02, 0.04], 1.0))
    rows = sweep_rows()
    rows[1]["aa_att"] = 1.5
    assert checks.sweep_row_problems(rows, [0.02, 0.04], 1.0)
    assert checks.sweep_row_problems(sweep_rows(), [0.02, 0.04], 0.99)  # reference accuracy differs
    assert checks.sweep_row_problems(sweep_rows()[::-1], [0.02, 0.04], 1.0)  # wrong order


def test_strict_json_rejects_nan(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"rows": [{"ar_aa": float("nan")}]}))
    with pytest.raises(ValueError):
        checks.strict_json(str(path))


def test_box_check_rejects_a_weight_outside_the_box():
    rng = np.random.default_rng(3)
    base = small_net(rng, [4, 5, 3])
    att = ([w * 1.1 for w in base[0]], [b * 0.9 for b in base[1]])
    assert ref.outside_box(base, att, lambda b: 0.1 * np.abs(b)) == []
    att[0][1][2, 3] = base[0][1][2, 3] * 1.2
    assert ref.outside_box(base, att, lambda b: 0.1 * np.abs(b)) == ["weight 1: 1 entries outside the box"]


def test_swap_check_rejects_a_changed_multiset():
    rng = np.random.default_rng(4)
    base = small_net(rng, [4, 5, 3])
    att = ([w.copy() for w in base[0]], [b.copy() for b in base[1]])
    flat = att[0][0].ravel()
    flat[0], flat[7] = flat[7], flat[0]
    assert ref.swap_problems(base, att, 1) == []
    flat[3] += 1e-9
    assert ref.swap_problems(base, att, 1) == ["weight 0: multiset of entries changed"]
    att[1][1][0] += 1.0
    assert "bias 1 changed" in ref.swap_problems(base, att, 1)


def test_result_check_rejects_a_rate_that_does_not_reproduce():
    res = {"kind": "label", "base_acc": 1.0, "base_rob": 0.5, "att_acc": 1.0, "att_rob": 0.5,
           "att_aux": 0.1, "rate": 0.8, "failed": False, "extras": {}}
    assert checks.result_problems(res) == []
    assert checks.result_problems(dict(res, rate=0.81))
    assert checks.result_problems(dict(res, failed=True))


def test_eval_check_rejects_a_radius_off_by_more_than_1e9():
    good = {"acc": 0.9, "avg_r2": 0.04, "dist_measure": 0.002}
    row = dict(good, adv_acc=0.5)
    assert checks.eval_problems(row, good) == []
    assert checks.eval_problems(dict(row, avg_r2=0.04 * (1 + 1e-8)), good)
    assert checks.eval_problems(dict(row, adv_acc=0.95), good)


def test_surgery_check_rejects_moved_outputs():
    rng = np.random.default_rng(5)
    base = small_net(rng, [6, 8, 3])
    X = rng.uniform(0.2, 0.8, (4, 6))
    att = ([w.copy() for w in base[0]], [b.copy() for b in base[1]])
    assert checks.surgery_problems(base, att, X, 0.5) == []
    att[0][0][0, 0] += 0.4  # inside the box, but the protected outputs move
    problems = checks.surgery_problems(base, att, X, 0.5)
    assert len(problems) == 1 and "moved by" in problems[0]
    att[0][0][0, 0] += 0.2
    assert "more than gamma" in checks.surgery_problems(base, att, X, 0.5)[0]


# ---------------------------------------------------------------------------
# tracing


def test_layer_metrics_self_time_and_ratios():
    import tracing

    pgd = {"rows": 4, "steps": 2}
    spans = [  # name, start, end, parent, counters
        ["attack.pgd_adversary_batch", 0.0, 10.0, -1, pgd],
        ["mlp.forward_batch", 0.5, 1.0, 0, {"rows": 4}],
        ["mlp.input_gradient", 1.0, 3.0, 0, {"rows": 4}],
        ["mlp.forward_batch", 1.5, 2.5, 2, {"rows": 4}],
        ["mlp.input_gradient", 4.0, 6.0, 0, {"rows": 4}],
        ["mlp.forward_batch", 4.5, 5.0, 4, {"rows": 4}],
        ["mlp.forward_batch", 7.0, 8.0, 0, {"rows": 4}],
    ]
    m = tracing.layer_metrics(spans)
    assert m["attack.pgd.calls"] == 1 and m["attack.pgd.sample_steps"] == 8
    assert m["attack.pgd.self_s"] == 10.0 - 0.5 - 2.0 - 2.0 - 1.0
    assert m["mlp.input_gradient.self_s"] == 4.0 - 1.0 - 0.5
    assert m["mlp.forward_batch.calls"] == 4 and m["mlp.forward_batch.rows"] == 16
    assert m["attack.pgd.forwards_per_step"] == 2.0


def test_install_replaces_every_binding():
    """Run in a fresh interpreter: installing the tracer rebinds module state."""
    import subprocess

    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(os.path.dirname(bench), "src")
    code = (
        "import tracing, advparam.attack as a, advparam.metrics as m, advparam.mlp as p\n"
        "t = tracing.Tracer(); t.install()\n"
        "assert a.forward_batch is p.forward_batch and m.pgd_flips_batch is a.pgd_flips_batch\n"
        "assert a.forward_batch.__wrapped__ is not None and m.pgd_flips_batch.__wrapped__ is not None\n"
        "net = p.init_params([3, 4, 2], 0)\n"
        "m.adversarial_accuracy(net, __import__('advparam.data').data.gen_blobs(6, 3, 2, 0),\n"
        "                       a.PgdConfig(eps=0.1, steps=2))\n"
        "names = {s[0] for s in t.spans}\n"
        "assert {'metrics.adversarial_accuracy', 'attack.pgd_flips_batch', 'mlp.input_gradient',\n"
        "        'mlp.forward_batch', 'mlp.classify_batch'} <= names, names\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([bench, src]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
