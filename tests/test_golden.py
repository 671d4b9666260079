"""Golden output hashes: every scenario at a tiny config, byte for byte.

Each scenario runs in a child process with OpenBLAS, OpenMP and MKL pinned
to one thread (the trimmed filter's bytes depend on the BLAS thread count),
and the sha256 of every result CSV must match the recorded value.  A change
that moves any of these hashes changes the numbers the package produces;
record new hashes only when that is the intent.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

DOCUMENTS = {
    "l63": {"scenario": "l63-limit-dist", "seed": 3, "replicates": 2, "threads": 2,
            "params": {"n": 2000, "bins": 20, "lambdas": [3.0, 0.5]}},
    "sweep": {"scenario": "l96-rmse-sweep", "seed": 5, "replicates": 2, "threads": 2,
              "params": {"n": [40, 60], "dt_obs": [0.3], "t_f": 0.9, "target_ne": 20.0}},
    "sweep-noaug": {"scenario": "l96-rmse-sweep", "seed": 6, "replicates": 1, "threads": 1,
                    "params": {"n": [40], "dt_obs": [0.3, 0.5], "t_f": 1.0,
                               "target_ne": 20.0, "augment": False}},
    "aug": {"scenario": "l96-adaptive-aug", "seed": 7, "replicates": 1, "threads": 1,
            "params": {"dt_obs": [0.4], "t_f": 0.8, "n": 40, "target_ne": 20.0}},
    "lingauss": {"scenario": "linear-gaussian-check", "seed": 8, "replicates": 2, "threads": 1,
                 "params": {"n": 4000, "steps": 4}},
    "bimodal": {"scenario": "bimodal-oracle-check", "seed": 9, "replicates": 1, "threads": 1,
                "params": {"n": 20000, "points": 512}},
}

GOLDEN = {
    "aug/augmentation.csv":
        "de8c901ab63c24ef3a2c34c04129289526e0fbdf7db8e8d2f97ab53efede0335",
    "aug/traces.csv":
        "9fe239011f2ddefc7104f9dc2a902a37787903e701154c4632ba8579b723de4b",
    "bimodal/bridge.csv":
        "63ac7befc4469688019fa5d5d8124a30741965d033260a281134e6f638ffb169",
    "bimodal/checks.csv":
        "d9fee3ac586409c82e3355756987b238630bde1ad9e4f5a8b20e794bdff68a3b",
    "l63/histograms.csv":
        "0286d817a529456f822b3d2d90fb426fd033db93174249915d6b29f1b6213c17",
    "l63/ks.csv":
        "aa1683f862bd9c4645df8ff53f43e963e5fe7e1e468e00f6ffef3eb2aa8ae44e",
    "lingauss/checks.csv":
        "11a85b0ce746cc688c095b655abf667b4a962e45c1900c315518fee82e9e7e43",
    "lingauss/comparison.csv":
        "0797f764e2fceea74f35378e8791f5e120821d8d0564eb84992d9b471799f735",
    "sweep/quantiles.csv":
        "51a5e6efb33ed5ec10b8fb036d4ee948c826cce14ac5cba15c741553c96a0bed",
    "sweep/rmse.csv":
        "909e4343adf8dff07abb6f74fce8732cc313f5023c088d4cb910db2a7b90f693",
    "sweep/series.csv":
        "dbc61f12ea2d4b0d4a9bbb2b2dc1b3cafc98502e6d5b3cbe03e0d715430e8aff",
    "sweep-noaug/quantiles.csv":
        "756da7e3c8551ed9702c41587468c4b6a8e91e23551a5e7291fc7833b9dfc5fb",
    "sweep-noaug/rmse.csv":
        "6937726ea051dbb4c6c7d9d7285f555e8ca1c35b2332a80dee1eea7e5d9495b3",
    "sweep-noaug/series.csv":
        "5990373c6424629be9556c53246724964e492e8072ccc415c563d918ec987004",
}

_CHILD = """
import json, sys
from trimkf.experiments.config import validate_config
from trimkf.experiments.scenarios import run_scenario
failures = {}
for doc in json.loads(sys.argv[1]):
    failures[doc["out_dir"]] = run_scenario(validate_config(doc)).replicate_failures
print(json.dumps(failures))
"""


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    docs = [{**doc, "out_dir": str(root / name)} for name, doc in DOCUMENTS.items()]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(docs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    failures = json.loads(proc.stdout.splitlines()[-1])
    assert not any(failures.values()), failures
    return {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob("*/*.csv"))
    }


def test_every_result_csv_matches_its_golden_hash(outputs):
    assert outputs == GOLDEN
