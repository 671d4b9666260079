"""Smoke tests of the demo scripts and of the tooling that reads the package.

Each script runs in a child process from a scratch directory with the
package on ``PYTHONPATH`` and must exit 0 and print its KS table.
matplotlib is not a dependency of the package: where it is not installed
the scripts take their ``ImportError`` branch, so their figure code is not
exercised by these tests.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trimkf

ROOT = Path(__file__).resolve().parents[1]

# One KS line per posterior compared, as each script prints them.
KS_LINES = {
    "limiting_distributions_l63.py": (
        re.compile(r"^  (enkf|tenkf lam=\S+)\s+\d\.\d{4}$", re.M), 6,
    ),
    "bimodal_bridge.py": (re.compile(r"^\s*\d+\.\d{2}   \d\.\d{4}$", re.M), 5),
}


def _run(args, cwd, timeout):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("script", sorted(KS_LINES))
def test_demo_runs_and_prints_ks(tmp_path, script):
    proc = _run([str(ROOT / "demos" / script)], tmp_path, 120)
    assert proc.returncode == 0, proc.stderr
    pattern, count = KS_LINES[script]
    assert len(pattern.findall(proc.stdout)) == count, proc.stdout


def test_layer_benchmark_runs(tmp_path):
    # bench/layers.py calls the library directly, so a changed signature breaks it
    proc = _run([str(ROOT / "bench" / "layers.py"), "--repeats", "1"], tmp_path, 300)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout)["layers"]
    assert {"adapt_lambda_n1000", "tenkf_update_36x1000", "ks_distance_1e5"} <= set(layers)


def test_every_exported_name_resolves():
    # perfbench's tracer wraps each module's __all__ by name
    names = [m.name for m in pkgutil.walk_packages(trimkf.__path__, "trimkf.")]
    for modname in ["trimkf", *names]:
        mod = importlib.import_module(modname)
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (modname, missing)


@pytest.mark.parametrize("package, modules", [
    ("trimkf", ["ensemble", "filters", "integrators", "metrics", "models", "oracle"]),
    ("trimkf.experiments", ["config", "scenarios"]),
])
def test_package_exports_its_modules_all(package, modules):
    # each name is declared once, in its module's __all__: the package
    # re-exports the union and names none of them itself
    pkg = importlib.import_module(package)
    union = []
    for name in modules:
        mod = importlib.import_module(f"{package}.{name}")
        for attr in mod.__all__:
            assert getattr(pkg, attr) is getattr(mod, attr), (name, attr)
        union += mod.__all__
    assert list(pkg.__all__) == union
    tree = ast.parse(Path(pkg.__file__).read_text(encoding="utf-8"))
    named = {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
    named |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert not named & set(union)


def test_import_starts_no_executor_machinery(tmp_path):
    # concurrent.futures is imported when a Heun noise helper starts, and
    # multiprocessing when a map forks its workers
    proc = _run(["-c", "import sys, trimkf.experiments; "
                 "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
                tmp_path, 60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
