"""Benchmark of the advparam CLI: two seeded workloads, timed from outside.

Run from the root of a checkout:

    python3 bench/run.py --workload attack-suite --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 0                   # every workload
    python3 bench/run.py --write-digests --seed 0                  # regenerate digests.json

Each round runs the workload's commands in a fresh ``bench/child.py``
process, on one BLAS thread, and checks every output against
``reference.py``.  Rounds repeat while another one fits in ``--seconds``
(at least one); wall and CPU time sum each command's fastest round,
set-up time and memory are medians.  With ``--trace 1`` rounds alternate
untraced and traced, and the per-layer metrics come from the traced ones.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics."""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
CACHE = os.path.join(BENCH, "cache")
DIGESTS = os.path.join(BENCH, "digests.json")
SETUP_PROBES = 5  # extra spawn-and-import processes per run, for a steadier setup_s
CHILD_TIMEOUT_S = 150
# On a host with a few shared CPUs, a BLAS thread pool in the workload process
# times the scheduler rather than the program, so workloads run on one BLAS
# thread (their matrices are at most 24 columns wide).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(src: str, commands: list, cwd: str, trace: bool = False) -> dict:
    """Run commands in a fresh child process; returns its report plus setup_s."""
    os.makedirs(cwd, exist_ok=True)
    job = {"src": src, "commands": commands, "trace": trace,
           "result": os.path.join(cwd, "child_result.json"), "spans": os.path.join(cwd, "spans.json")}
    job_path = os.path.join(cwd, "child_job.json")
    with open(job_path, "w") as f:
        json.dump(job, f)
    log = os.path.join(cwd, "child.log")
    with open(log, "w") as lf:
        t0 = now()
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "child.py"), job_path],
                                cwd=cwd, stdout=lf, stderr=subprocess.STDOUT,
                                env={**os.environ, **CHILD_ENV})
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"child process timed out, see {log}")
    if proc.returncode != 0:
        raise BenchError(f"child process exited {proc.returncode}, see {log}")
    with open(job["result"]) as f:
        res = json.load(f)
    res["setup_s"] = res["ready"] - t0
    return res


def prepare(root: str, seed: int) -> str:
    """Generate the seed's inputs once; regenerated when the program or the
    workload definitions change.  The directory name holds only the seed, so
    input paths recorded in output files stay the same across versions."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "advparam", "*.py"))) + \
            [os.path.join(BENCH, "workloads.py")]:
        with open(path, "rb") as f:
            h.update(f.read())
    h.update(json.dumps(CHILD_ENV, sort_keys=True).encode())
    final = os.path.join(CACHE, f"seed{seed}")
    stamp = os.path.join(final, "source.sha256")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == h.hexdigest():
                return final
    tmp = final + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    res = spawn(os.path.join(root, "src"), workloads.prep_commands(seed), tmp)
    if any(c["code"] != 0 for c in res["commands"]):
        raise BenchError(f"input preparation failed, see {tmp}/child.log")
    workloads.write_surgery_net(seed, os.path.join(tmp, "surgery_net.json"))
    with open(os.path.join(tmp, "source.sha256"), "w") as f:
        f.write(h.hexdigest())
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final


def digest(workdir: str, ops) -> str:
    h = hashlib.sha256()
    for rel in sorted(p for op in ops for p in op.outputs):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(workdir, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_round(src, workdir, ops, trace: bool, book: dict) -> dict:
    """One process running every op; failures and problems go into book."""
    shutil.rmtree(workdir, ignore_errors=True)
    res = spawn(src, [op.argv for op in ops], workdir, trace)
    completed = True
    for op, cmd in zip(ops, res["commands"]):
        book["attempted"] += 1
        if cmd["code"] not in op.codes or not all(os.path.exists(os.path.join(workdir, p)) for p in op.outputs):
            book["failed"] += 1
            book["failures"].add(f"{' '.join(op.argv[:3])}: exit {cmd['code']}")
            completed = False
            continue
        try:
            book["problems"].update(op.check(workdir, op.ctx, cmd["code"]))
            if op.efficacy:
                book["unmet"].update(op.efficacy(workdir, op.ctx))
            if op.known_faults:
                book["known_faults"].update(op.known_faults(workdir, op.ctx))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            book["problems"].add(f"{op.argv[0]}: output unreadable: {exc!r}")
    if completed:
        book["digests"].append(digest(workdir, ops))
    return {"wall_s": [c["wall_s"] for c in res["commands"]],
            "cpu_s": [c["cpu_s"] for c in res["commands"]],
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "setup_s": res["setup_s"], "layers": res.get("layers")}


def fastest(rounds: list, key: str) -> float:
    """Sum over the commands of each command's fastest time in the rounds."""
    return sum(min(times) for times in zip(*(r[key] for r in rounds)))


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    src = os.path.join(root, "src")
    inputs = prepare(root, seed)
    workdir = os.path.join(OUT, f"{name}-seed{seed}")
    ops = workloads.ops(name, inputs, os.path.relpath(inputs, workdir), seed)
    book = {"attempted": 0, "failed": 0, "failures": set(), "problems": set(), "unmet": set(),
            "known_faults": set(), "digests": []}
    setups = [spawn(src, [], os.path.join(OUT, "probe"))["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = now()
    longest = 0.0  # a round (with trace, a pair) starts only if it can end within the run
    while not plain or (trace and not traced) or now() - start + longest <= seconds:
        t0 = now()
        plain.append(run_round(src, workdir, ops, False, book))
        if trace:
            traced.append(run_round(src, workdir, ops, True, book))
        longest = max(longest, now() - t0)

    # Other tenants of the host slow every CPU by up to 2x for seconds to a
    # minute at a time, and never speed one up, so each command's fastest
    # round is the steadiest estimate of its own time; a command of a few
    # seconds is more likely to meet a quiet stretch than a whole round.
    metrics = {"wall_s": (fastest(plain, "wall_s"), "s"),
               "cpu_s": (fastest(plain, "cpu_s"), "s"),
               "setup_s": (statistics.median(setups + [r["setup_s"] for r in plain]), "s"),
               "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB")}
    counts_repeat = True
    if trace:
        layers = [r["layers"] for r in traced]
        counts_repeat = all({k: v for k, v in l.items() if not k.endswith("_s")} ==
                            {k: v for k, v in layers[0].items() if not k.endswith("_s")} for l in layers)
        layer = {k: statistics.median(l[k] for l in layers) if k.endswith("_s") else layers[0][k]
                 for k in layers[0]}
        layer["trace.traced_wall_s"] = fastest(traced, "wall_s")
        layer["trace.untraced_wall_s"] = metrics["wall_s"][0]
        layer["trace.overhead_s"] = layer["trace.traced_wall_s"] - layer["trace.untraced_wall_s"]
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in benchmark_spec(root)["per_layer"]}

    with open(DIGESTS) as f:
        golden = json.load(f).get(name, {}).get(str(seed))
    if not book["digests"]:
        digest_state = "not computed (an operation failed)"
    else:
        same = len(set(book["digests"])) == 1
        digest_state = ("no reference for this seed" if golden is None else
                        "identical to reference" if book["digests"][0] == golden else
                        "different from reference") + ("" if same else "; rounds disagree")
    gated = seed == workloads.ACCEPTANCE_SEED
    correct = not book["problems"] and not (gated and book["unmet"])
    return {"workload": name, "seed": seed, "rounds": len(plain) + len(traced),
            "correct": correct, "attempted": book["attempted"], "failed": book["failed"],
            "failures": sorted(book["failures"]), "problems": sorted(book["problems"]),
            "known_faults": sorted(book["known_faults"]),
            "efficacy_checked": any(op.efficacy for op in ops),
            "efficacy_unmet": sorted(book["unmet"]), "efficacy_gated": gated,
            "counts_repeat": counts_repeat, "digest": digest_state, "machine": machine(),
            "digest_value": book["digests"][0] if book["digests"] else None,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "samples": {"setup_s": setups, "rounds": [{k: v for k, v in r.items() if k != "layers"}
                                                     for r in plain + traced]}}


def machine() -> dict:
    """What the timings depend on besides the program."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS (workload processes)": CHILD_ENV["OPENBLAS_NUM_THREADS"]}


def benchmark_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def report(res: dict) -> None:
    """Human-readable block; the JSON result line comes after it."""
    print(f"workload {res['workload']} seed {res['seed']}: {res['rounds']} rounds, "
          f"attempted {res['attempted']}, failed {res['failed']}, correct {str(res['correct']).lower()}")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    for key in ("failures", "problems", "known_faults"):
        for line in res[key]:
            print(f"  {key[:-1].replace('_', ' ')}: {line}")
    if res["efficacy_checked"]:
        gate = "gating at the acceptance seed" if res["efficacy_gated"] else "informational at this seed"
        print(f"  efficacy ({gate}): " + ("; ".join(res["efficacy_unmet"]) or "all thresholds met"))
    if not res["counts_repeat"]:
        print("  traced counts differed between rounds")
    print(f"  output digest: {res['digest']}")
    print("  machine: " + ", ".join(f"{k} {v}" for k, v in res["machine"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="run one round per workload and store its output digest as the reference")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "advparam", "cli.py")):
        print("error: run from the root of an advparam checkout (src/advparam/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark_spec(root)["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            res = run_workload(root, name, args.seed, 0 if args.write_digests else seconds,
                               bool(args.trace))
            os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
            with open(os.path.join(OUT, "results", f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
                json.dump(res, f, indent=1)
            report(res)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_digests:
        with open(DIGESTS) as f:
            golden = json.load(f)
        for res in results:
            if res["correct"] and res["digest_value"]:
                golden.setdefault(res["workload"], {})[str(args.seed)] = res["digest_value"]
        with open(DIGESTS, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {DIGESTS}")
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results)}
    if len(results) == 1:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["metrics"] = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
