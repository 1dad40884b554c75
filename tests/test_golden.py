"""Golden outputs: the SHA-256 of every file and of the stdout of a small
seeded pipeline, run in-process through ``cli.main``, pinned in golden.json.

A refactor that claims byte-identical outputs must pass this unchanged.  The
digests depend on the numpy version and the BLAS build, which golden.json
records; on another platform the test fails and names both, so a platform
change is a visible regeneration, never a silent skip.  Only

    python tests/test_golden.py --write

rewrites golden.json; list each rewrite and its cause in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile

if __name__ == "__main__":  # run as a script: use the package of this checkout
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import numpy as np

from advparam.cli import main
from advparam.mlp import save_model
from common import conditioned_surgery_net, positive_square_net

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# Relative paths only, so that stdout and summary.json do not depend on the temp directory.
_NET = "--model run/model.json --data run/blobs.json --eps 0.1 --pgd-steps 8"
_ATTACK = f"attack {_NET} --n-pre 2 --n-main 8 --alpha 0.05"
_SURGERY = "--model surgery_net.json --data run/subspace.json --gamma 0.5 --eps 0.05"
PIPELINE = [
    "gen-data --kind blobs --samples 120 --features 4 --classes 3 --out-dir run",
    "gen-data --kind subspace --samples 24 --features 10 --intrinsic-dim 3 --classes 2 --seed 1 --out-dir run",
    "train --data run/blobs.json --hidden 12,12 --epochs 15 --batch-size 16 --adversarial --eps 0.08 "
    "--pgd-steps 3 --out-dir run",
    f"report {_NET} --gammas 0.05,0.1 --n-pre 2 --n-main 8 --alpha 0.05 --out-dir run/report",
    f"{_ATTACK} --kind linf --gamma 0.1 --out-dir run/linf",
    f"{_ATTACK} --kind swap --pair-floor 4 --out-dir run/swap",
    f"{_ATTACK} --kind label --gamma 0.1 --target-label 1 --batch-size 40 --out-dir run/label",
    f"{_ATTACK} --kind direct --gamma 0.1 --target-label 2 --out-dir run/direct",
    f"{_ATTACK} --kind single --gamma 0.2 --index 3 --out-dir run/single",
    f"eval {_NET} --csv run/eval.csv",
    f"theory --op surgery-point {_SURGERY} --index 0 --save-model run/point.json",
    f"theory --op surgery-set {_SURGERY} --save-model run/set.json",
    "theory --op inflate --model square_net.json --data run/blobs.json --index 1 --gamma 0.4 "
    "--save-model run/inflated.json",
    "theory --op point-rate --gamma 1.0 --depth 2 --row-sep 1 --act-floor 1 --gap-bound 1",
    "theory --op point-depth --rho 0.5 --gamma 1.0 --row-sep 1 --act-floor 1 --gap-bound 1",
    "theory --op dist-rate --gamma 1.0 --gap-bound 1 --row-sep 1,1 --col-gain 1,1 --act-prob 1,0.9 "
    "--gain-prob 1,1 --active-frac 1,1",
    "theory --op dist-depth --rho 0.5 --gamma 1.0 --row-sep 1 --col-gain 1 --act-prob 1 --gain-prob 1 "
    "--active-floor 1 --gap-bound 1",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def platform() -> dict:
    """The numpy version and the BLAS build that the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def run_pipeline(root: str) -> dict:
    """Run PIPELINE in root, which starts empty, after writing the two nets the
    constructions take; returns the exit code and stdout digest of every
    command and the digest of every file left in root."""
    rng = np.random.default_rng(5)
    commands = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        save_model(conditioned_surgery_net(rng, n=10, width=64, m=3), "surgery_net.json")
        save_model(positive_square_net(rng, 4, 2, m=3), "square_net.json")
        for line in PIPELINE:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(shlex.split(line))
            commands[line] = {"exit": code, "stdout": _sha(out.getvalue().encode())}
        files = {}
        for folder, _, names in sorted(os.walk(".")):
            for name in sorted(names):
                path = os.path.relpath(os.path.join(folder, name))
                with open(path, "rb") as f:
                    files[path] = _sha(f.read())
    finally:
        os.chdir(cwd)
    return {"commands": commands, "files": files}


def test_pipeline_outputs_match_golden(tmp_path):
    with open(GOLDEN) as f:
        golden = json.load(f)
    here = platform()
    assert here == golden["platform"], (
        f"golden.json was written on {golden['platform']}, this is {here}: "
        "regenerate it with `python tests/test_golden.py --write` and list the rewrite in CHANGES.md")
    got = run_pipeline(str(tmp_path))
    for part in ("commands", "files"):
        drift = sorted(k for k in golden[part].keys() | got[part].keys()
                       if golden[part].get(k) != got[part].get(k))
        assert not drift, f"{part} that differ from golden.json: {drift}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write   (rewrites {GOLDEN})")
    with tempfile.TemporaryDirectory() as root:
        doc = {"platform": platform(), **run_pipeline(root)}
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
