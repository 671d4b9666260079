"""The trimkf benchmark: pinned twin-experiment workloads, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check                  # tiny sizes, seconds
    python3 perfbench/run.py --record-golden --workload NAME --seed N

Every repetition runs in a fresh child interpreter (``child.py``) with
OpenBLAS/OpenMP/MKL pinned to one thread, so the replicate thread pool is
the only source of parallelism.  The child goes through the public runner
(``validate_config`` then ``run_scenario``) on the inputs ``workloads.py``
derives from the seed.

``--trace 0`` starts full runs one after another until ``--seconds`` is
used.  ``run_s`` is the time from the first ``run_scenario`` call to the
last return and ``setup_s`` the time from child spawn to the first
``run_scenario`` call; both are rescaled by the reference kernel of
``calibrate.py``, timed in each child around its workload, to seconds on
a host where the kernel takes ``REFERENCE_KERNEL_S``.  A shared host runs
up to twice as slow in busy phases that outlast a run, and the rescaling
takes that out.  ``run_s`` is the children's total workload time over
their total kernel time; ``setup_s`` is the median of the children's
ratios.  ``peak_rss_mb`` (the child's ``ru_maxrss``) is the median over
the run's children.  The wall times and kernel timings are in the
summary line.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of ``tracer.py`` plus the tracing overhead.

Correctness: every (scenario, replicate) is one operation; it fails if the
scenario raises, lists it in ``replicate_failures``, or fails an embedded
check (the linear-Gaussian checks are only reported; see ``child.py``).  The result CSVs must hash to the recorded goldens for seeds that
have them (``golden.json``), be identical across the repetitions of a run
and between traced and untraced children, and hold no nan/inf cells.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary line with
``error_rate``, ``golden_match`` and the recorded environment precedes it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# ``run_s`` and ``setup_s`` are reported in seconds of a host on which one
# ``calibrate.kernel()`` call takes this long.  It is a round value near
# the kernel's median on the 2-core Xeon VM the benchmark was built on
# (Python 3.11.7, NumPy 2.4.6), where single timings ranged 0.07-0.13 s.
REFERENCE_KERNEL_S = 0.1
CHILD_LIMIT_S = 170.0  # a whole run must end within 180 s

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "_calls": "count", "_steps": "count", "_attempts": "count", "_members": "count",
    "_points": "count", "_iters": "count", "spans": "count",
    "minflt": "count", "bytes_written": "bytes", "_ns_per_elem": "ns",
    "_per_s": "1/s", "_frac": "fraction", "_ratio": "ratio", "_s": "s",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def environment() -> dict:
    """Interpreter, library and machine facts recorded with every result."""
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "blas_threads": PINNED_ENV}
    probe = (
        "import json, numpy, scipy, numpy.__config__ as c;"
        "b = c.CONFIG['Build Dependencies']['blas'];"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        "'blas': b.get('openblas configuration') or b.get('name')}))"
    )
    try:
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, **PINNED_ENV}, timeout=10)
        if out.returncode == 0:
            env.update(json.loads(out.stdout))
    except subprocess.TimeoutExpired:
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
        cache = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(cache.glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return env


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


class Bench:
    """Spawns and collects the children of one benchmark run."""

    def __init__(self, workload: str, seed: int, quick: bool = False):
        self.workload, self.seed, self.quick = workload, seed, quick
        self.work = RUNS / f"{workload}-{seed}-{os.getpid()}"
        self.count = 0
        self.started = time.monotonic()

    def child(self, mode: str) -> dict:
        """Run one child; on a crash return a record of its failure."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        out_dir = self.work / tag
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = {"workload": self.workload, "seed": self.seed, "out_dir": str(out_dir),
                "result": str(out_dir / "result.json"), "mode": mode, "quick": self.quick}
        spec_path = out_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        limit = max(5.0, CHILD_LIMIT_S - (time.monotonic() - self.started))
        env = {**os.environ, **PINNED_ENV}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), repr(spawned)],
                capture_output=True, text=True, env=env, timeout=limit,
            )
            error = None if proc.returncode == 0 else proc.stderr.strip()[-2000:]
        except subprocess.TimeoutExpired:
            error = f"child timed out after {limit:.0f} s"
        wall = time.monotonic() - spawned
        result_path = out_dir / "result.json"
        if error is None and result_path.exists():
            res = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            ops = sum(d["replicates"] for d in workloads.documents(
                self.workload, self.seed, "", self.quick))
            res = {"attempted": ops, "failures": [error or "no result"] * ops,
                   "crashed": error or "no result"}
        res["wall_s"] = wall
        res["out_dir"] = str(out_dir)
        return res

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def verdict(children: list[dict], golden: dict | None) -> dict:
    """Correctness of the run children: failures, goldens, determinism."""
    attempted = sum(c["attempted"] for c in children)
    failed = sum(len(c["failures"]) for c in children)
    problems = [f for c in children for f in c["failures"]]
    problems += [f"nan/inf in {cell}" for c in children for cell in c.get("csv_values", [])]
    hashes = [c.get("hashes") for c in children if "crashed" not in c]
    if any(h != hashes[0] for h in hashes[1:]):
        problems.append("result bytes differ between repetitions (or traced vs untraced)")
    match = None
    if golden is not None and hashes:
        total = hit = 0
        for h in hashes:
            for name in set(golden) | set(h):
                total += 1
                hit += golden.get(name) is not None and golden.get(name) == h.get(name)
        match = hit / total
        if match < 1.0:
            problems.append(f"golden_match {match:.4f} < 1")
    problems += [f"child crashed: {c['crashed']}" for c in children if "crashed" in c]
    return {
        "reported_checks": sorted({r for c in children for r in c.get("reported_checks", [])}),
        "attempted": max(attempted, 1),
        "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "golden_match": match,
        "problems": problems,
        "correct": not problems,
    }


def _kernel_s(child: dict) -> float:
    return statistics.mean(child["kernel_before_s"] + child["kernel_after_s"])


def normalised_run(children: list[dict]) -> float:
    """Total workload time over total reference-kernel time, in reference seconds.

    A ratio of sums: a slow spell that hits a child's workload also shows in
    the kernel timings around it, so both sides keep it.
    """
    return REFERENCE_KERNEL_S * sum(c["run_s"] for c in children) / sum(
        _kernel_s(c) for c in children)


def normalised_setup(children: list[dict]) -> float:
    """Median over children of set-up time over kernel time, in reference seconds."""
    return REFERENCE_KERNEL_S * statistics.median(c["setup_s"] / _kernel_s(c) for c in children)


def run_plain(bench: Bench, seconds: float) -> tuple[list[dict], dict]:
    """Full runs until ``seconds`` is used.

    Another one starts while at least half of it fits in the time left;
    there is always at least one.
    """
    runs = []
    while True:
        runs.append(bench.child("run"))
        typical = statistics.median(r["wall_s"] for r in runs)
        if time.monotonic() - bench.started + typical / 2 > seconds:
            break
    ok = [r for r in runs if "run_s" in r]
    metrics = {}
    if ok:
        metrics = {
            "run_s": normalised_run(ok),
            "setup_s": normalised_setup(ok),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        }
    return runs, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(bench: Bench, seconds: float) -> tuple[list[dict], dict]:
    """Alternate untraced and traced children; per-layer medians."""
    plain, traced = [], []
    while True:
        plain.append(bench.child("run"))
        traced.append(bench.child("trace"))
        pair = plain[-1]["wall_s"] + traced[-1]["wall_s"]
        if time.monotonic() - bench.started + pair > seconds:
            break
    ok_plain = [r for r in plain if "run_s" in r]
    ok_traced = [r for r in traced if "layers" in r]
    if not ok_plain or not ok_traced:
        return plain + traced, {}
    layers = {}
    for key in ok_traced[0]["layers"]:
        layers[key] = statistics.median(r["layers"][key] for r in ok_traced)
    for key in ("cpu_s", "sys_s", "minflt"):
        layers[f"experiments.{key}"] = statistics.median(r[key] for r in ok_traced)
    layers["trace.run_s"] = statistics.median(r["run_s"] for r in ok_traced)
    layers["trace_overhead_frac"] = normalised_run(ok_traced) / normalised_run(ok_plain) - 1.0
    spans = Path(ok_traced[-1]["out_dir"]) / "spans.json"
    if spans.exists():
        shutil.copy(spans, RUNS / f"spans-{bench.workload}-{bench.seed}.json")
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    return plain + traced, metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False,
              golden: dict | None = None) -> dict:
    bench = Bench(workload, seed, quick)
    try:
        children, metrics = (run_traced if trace else run_plain)(bench, seconds)
    finally:
        bench.cleanup()
    if golden is None:
        golden = load_golden().get("quick" if quick else "full", {}).get(workload, {}).get(
            str(seed))
    v = verdict(children, golden)
    return {"verdict": v, "metrics": metrics, "children": children}


def record_golden(workload: str, seed: int, quick: bool) -> int:
    out = benchmark(workload, seed, 0.0, trace=False, quick=quick, golden={})
    runs = [c for c in out["children"] if "hashes" in c]
    if not runs or out["verdict"]["failed"]:
        print(json.dumps(out["verdict"], indent=2), file=sys.stderr)
        return 1
    table = load_golden()
    table.setdefault("quick" if quick else "full", {}).setdefault(workload, {})[str(seed)] = (
        runs[0]["hashes"])
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(runs[0]['hashes'])} hashes for {workload} seed {seed}")
    return 0


def self_check() -> int:
    """Each workload at a tiny size: every metric printed, goldens enforced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    quick_gold = load_golden().get("quick", {})
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, want in ((False, names), (True, layer_names)):
            out = benchmark(name, 0, 0.0, trace=trace, quick=True)
            v, got = out["verdict"], out["metrics"]
            for key, unit in sorted(want.items()):
                entry = got.get(key)
                print(f"{name} trace={int(trace)} {key} = "
                      f"{entry['value'] if entry else 'MISSING'} {entry['unit'] if entry else ''}")
                if entry is None or entry["unit"] != unit:
                    problems.append(f"{name}: metric {key} missing or not in {unit}")
            if not v["correct"] or v["golden_match"] != 1.0:
                problems.append(f"{name} trace={int(trace)}: {v['problems'] or 'no golden'}")
        gold = dict(quick_gold.get(name, {}).get("0", {}))
        if gold:
            first = sorted(gold)[0]
            gold[first] = "0" * 64
            v = benchmark(name, 0, 0.0, trace=False, quick=True, golden=gold)["verdict"]
            print(f"{name} altered golden: golden_match={v['golden_match']} correct={v['correct']}")
            if v["correct"] or not v["golden_match"] < 1.0:
                problems.append(f"{name}: an altered golden hash was not detected")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print("check passed" if not problems else "check FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="tiny-size self check")
    ap.add_argument("--record-golden", action="store_true")
    ap.add_argument("--quick", action="store_true", help="tiny sizes (with --record-golden)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trimkf" / "__init__.py").is_file():
        print(f"no trimkf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    if args.check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    if args.record_golden:
        return record_golden(args.workload, args.seed, args.quick)

    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    v = out["verdict"]
    plain = [c for c in out["children"] if "run_s" in c and "layers" not in c]
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "error_rate": v["error_rate"], "golden_match": v["golden_match"],
               "reported_checks": v["reported_checks"],
               "wall_run_s_all": [c["run_s"] for c in plain],
               "wall_setup_s_all": [c["setup_s"] for c in plain],
               "kernel_s_all": [c["kernel_before_s"] + c["kernel_after_s"] for c in plain],
               "reference_kernel_s": REFERENCE_KERNEL_S,
               "problems": v["problems"][:20], "children": len(out["children"]),
               "environment": environment()}
    (RUNS / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "metrics": out["metrics"]}, indent=1) + "\n", encoding="utf-8")
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": v["correct"], "attempted": v["attempted"],
                      "failed": v["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
