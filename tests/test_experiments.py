"""Tests for config validation, the CLI surface, and scenario outputs."""

import errno
import itertools
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import trimkf
from trimkf import filters, integrators
from trimkf.experiments import scenarios
from trimkf.experiments.cli import main
from trimkf.experiments.config import (
    CONFIG_VERSION,
    ConfigError,
    validate_config,
)
from trimkf.experiments.io import write_metadata, write_table
from trimkf.experiments.scenarios import SCENARIOS, run_scenario


def test_runtime_does_not_load_scipy():
    # NumPy is the only runtime dependency; SciPy comes with the test extra.
    code = ("import sys, trimkf, trimkf.experiments;"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(trimkf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestValidateConfig:
    TABLE_DEFAULTS = {
        "l63-limit-dist": {"n": 100_000, "lambdas": [10.0, 3.0, 1.0, 0.5, 0.3], "bins": 200},
        "l96-rmse-sweep": {"target_ne": 50.0, "r_max": 3.0, "t_f": 15.0, "dt_obs": [0.9],
                           "n": [100, 200, 400, 1000, 4000], "augment": True},
        "l96-adaptive-aug": {"target_ne": 50.0, "r_max": 3.0, "t_f": 32.0, "dt_obs": [0.8],
                             "n": 200},
        "linear-gaussian-check": {"A": 1.0, "Q": 0.01, "H": 1.0, "R": 0.04, "steps": 5,
                                  "n": 100_000, "se_factor": 4.0},
        "bimodal-oracle-check": {"points": 2048, "n": 100_000},
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_empty_stanza_gets_table_defaults(self, scenario):
        # pins each scenario's keys: a new key needs an edit here
        cfg = validate_config({"scenario": scenario})
        assert list(cfg.params.items()) == list(self.TABLE_DEFAULTS[scenario].items())
        assert cfg.overrides == []
        # a default's type decides its check, and 15 == 15.0
        def kind(v):
            return [type(e) for e in v] if isinstance(v, list) else type(v)

        assert [kind(v) for v in cfg.params.values()] == [
            kind(v) for v in self.TABLE_DEFAULTS[scenario].values()]

    @pytest.mark.parametrize("scenario, key", [
        (scenario, key) for scenario in sorted(SCENARIOS) for key in SCENARIOS[scenario].params])
    def test_default_decides_the_check(self, scenario, key):
        default, lo = SCENARIOS[scenario].params[key]
        name = f"params.{key}"

        def problems(value):
            try:
                validate_config({"scenario": scenario, "params": {key: value}})
            except ConfigError as err:
                return err.problems
            return []

        if isinstance(default, bool):
            assert lo is None and problems(not default) == []
            assert problems(1) == [f"{name}: expected true/false, got 1"]
            return
        if isinstance(default, list):
            first = default[0]
            assert problems([]) == [f"{name}: expected a non-empty list"]
            assert problems([first, first]) == [
                f"{name}: value(s) [{first!r}] listed more than once"]
            wrap, name = (lambda v: [v]), f"{name}[0]"
        else:
            first, wrap = default, (lambda v: v)
        if isinstance(first, int):
            assert problems(wrap(first + 0.5)) == [
                f"{name}: expected an integer, got {first + 0.5!r}"]
        else:
            assert problems(wrap(math.ceil(first))) == []
        assert problems(wrap(lo - 1)) == [f"{name}: must be >= {lo}, got {lo - 1!r}"]

    def test_target_ne_above_n_rejected_naming_both(self):
        with pytest.raises(ConfigError) as err:
            validate_config({
                "scenario": "l96-rmse-sweep",
                "params": {"n": [100], "target_ne": 500.0},
            })
        msg = str(err.value)
        assert "target_ne" in msg and "n=" in msg

    def test_r_max_below_one_rejected(self):
        with pytest.raises(ConfigError, match="r_max"):
            validate_config({"scenario": "l96-adaptive-aug", "params": {"r_max": 0.5}})

    def test_bimodal_check_runs_at_most_one_replicate(self):
        # bridge.csv has no replicate column: the rows of a second replicate
        # could not be told from the first's
        for reps in (0, 1):
            assert validate_config({"scenario": "bimodal-oracle-check",
                                    "replicates": reps}).replicates == reps
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": "bimodal-oracle-check", "replicates": 3})
        assert err.value.problems == [
            "replicates: bimodal-oracle-check runs at most 1 replicate, got 3"
        ]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            validate_config({"scenario": "l63-limit-dist", "params": {"bogus": 1}})
        with pytest.raises(ConfigError, match="unknown top-level"):
            validate_config({"scenario": "l63-limit-dist", "bogus": 1})

    def test_non_integer_ensemble_size_rejected(self):
        # the run would cast it to 100 while metadata.json records 100.5
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": "l96-rmse-sweep", "params": {"n": [60, 100.5]}})
        assert err.value.problems == ["params.n[1]: expected an integer, got 100.5"]

    def test_repeated_ensemble_size_rejected(self):
        # a repeat would rerun the same streams, write duplicate rmse.csv rows
        # and count each value twice in quantiles.csv
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": "l96-rmse-sweep", "params": {"n": [100, 200, 100]}})
        assert err.value.problems == ["params.n: value(s) [100] listed more than once"]

    @pytest.mark.parametrize("scenario", ["l96-rmse-sweep", "l96-adaptive-aug"])
    def test_repeated_dt_obs_rejected(self, scenario):
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": scenario, "params": {"dt_obs": [0.9, 0.9]}})
        assert err.value.problems == ["params.dt_obs: value(s) [0.9] listed more than once"]

    @pytest.mark.parametrize("scenario, name, values, shared", [
        ("l96-rmse-sweep", "dt_obs", [0.9, 0.5, 0.9000004], [0.9, 0.9000004]),
        ("l96-adaptive-aug", "dt_obs", [0.9000004, 0.9], [0.9, 0.9000004]),
        ("l63-limit-dist", "lambdas", [1e-7, 3e-7], [1e-7, 3e-7]),
    ])
    def test_entries_sharing_a_stream_key_rejected(self, scenario, name, values, shared):
        # streams are keyed by the value in steps of 1e-6: two such entries
        # would draw the same random numbers
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": scenario, "params": {name: values}})
        assert err.value.problems == [
            f"params.{name}: values {shared} share one random stream "
            "(they round to one multiple of 1e-6)"]

    def test_stream_key_check_exit_1(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "l96-adaptive-aug",
                                   "params": {"dt_obs": [0.8, 0.8000001]}}))
        assert main(["validate", "--config", str(cfg)]) == 1

    def test_non_finite_scalar_param_rejected(self):
        # json.loads reads NaN and Infinity; nan < lo is False
        doc = json.loads('{"scenario": "linear-gaussian-check",'
                         ' "params": {"se_factor": NaN, "Q": Infinity}}')
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.problems == ["params.Q: must be finite, got inf",
                                      "params.se_factor: must be finite, got nan"]

    def test_non_finite_list_param_rejected(self):
        doc = json.loads('{"scenario": "l96-rmse-sweep", "params": {"dt_obs": [0.9, NaN]}}')
        with pytest.raises(ConfigError, match=r"params\.dt_obs\[1\]: must be finite"):
            validate_config(doc)

    def test_all_errors_reported_not_first_failure(self):
        with pytest.raises(ConfigError) as err:
            validate_config({
                "scenario": "l63-limit-dist",
                "seed": -1,
                "replicates": -2,
                "params": {"bins": 5, "n": 1},
            })
        assert len(err.value.problems) >= 4

    @pytest.mark.parametrize("scenario", ["l96-rmse-sweep", "l96-adaptive-aug"])
    def test_t_f_shorter_than_dt_obs_rejected(self, scenario):
        # no observation time would fall within t_f: every replicate would fail
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": scenario,
                             "params": {"t_f": 0.5, "dt_obs": [0.3, 0.9]}})
        assert err.value.problems == [
            "params.t_f: t_f=0.5 is shorter than dt_obs=[0.9] "
            "(requires at least one observation)"]

    @pytest.mark.parametrize("scenario", ["l96-rmse-sweep", "l96-adaptive-aug"])
    def test_t_f_equal_to_dt_obs_accepted(self, scenario):
        cfg = validate_config({"scenario": scenario, "params": {"t_f": 0.9, "dt_obs": [0.9]}})
        assert cfg.params["t_f"] == 0.9

    def test_overrides_recorded(self):
        cfg = validate_config({"scenario": "l63-limit-dist", "params": {"n": 500, "bins": 30}})
        assert cfg.overrides == ["bins", "n"]

    def test_metadata_document_accepted_directly(self):
        cfg = validate_config({"scenario": "bimodal-oracle-check"})
        doc = {"config": cfg.as_document(), "run": {"wall_clock_s": 1.0}}
        cfg2 = validate_config(doc)
        assert cfg2.scenario == cfg.scenario
        assert cfg2.params == cfg.params

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            validate_config({"scenario": "nope"})

    def test_unknown_scenario_lists_every_scenario(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": "nope"})
        assert err.value.problems == [
            f"scenario: unknown scenario 'nope'; known: {sorted(SCENARIOS)}"]

    @pytest.mark.parametrize("name", [["l63-limit-dist"], {"l63-limit-dist": 1}],
                             ids=["list", "dict"])
    def test_non_string_scenario_is_unknown(self, name):
        # an unhashable name used to raise TypeError from the SCENARIOS lookup
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": name})
        assert err.value.problems == [
            f"scenario: unknown scenario {name!r}; known: {sorted(SCENARIOS)}"]

    @pytest.mark.parametrize("scenario, removed", [
        ("l63-limit-dist", ["alpha", "rho", "beta", "sigma", "t1", "dt", "x1_0", "x2_0",
                            "x3_0", "sigma1_0", "sigma3_0", "filters", "tau"]),
        ("l96-rmse-sweep", ["F", "tau", "d_max", "sigma_p", "mu0", "mu1", "sigma0", "dt",
                            "sigma", "N", "filters"]),
        ("l96-adaptive-aug", ["F", "tau", "d_max", "sigma_p", "mu0", "mu1", "sigma0", "sigma",
                              "rtol", "atol", "dt_init", "N", "filters"]),
        ("linear-gaussian-check", ["prior_mean", "prior_var", "target_ne_fraction", "filters"]),
        ("bimodal-oracle-check", ["lam_small", "ks_tol_large", "ks_tol_small",
                                  "ks_tol_tenkf_sampling", "ks_tol_pf_sampling", "y_star",
                                  "lambdas", "lam_large", "sample_lam"]),
    ])
    def test_fixed_constants_are_unknown_keys(self, scenario, removed):
        # each is a module constant of the published setting: a config (or a
        # metadata.json written when they were keys) that sets one is rejected
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": scenario, "params": dict.fromkeys(removed, 1.0)})
        assert err.value.problems == [
            f"params: unknown key(s) for scenario {scenario}: {sorted(removed)}"]

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_defaults_given_as_overrides_validate_to_the_defaults(self, scenario):
        defaults = validate_config({"scenario": scenario}).params
        cfg = validate_config({"scenario": scenario,
                               "params": json.loads(json.dumps(defaults))})
        assert cfg.params == defaults
        assert cfg.overrides == sorted(defaults)

    @pytest.mark.parametrize("sigma", [0.01, -0.01, 0, 0.0])
    def test_l96_model_noise_is_an_unknown_key(self, sigma):
        # fixed per scenario: 0.01 for the Heun sweep, 0 for the DP45 runs
        for scenario in ("l96-rmse-sweep", "l96-adaptive-aug"):
            with pytest.raises(ConfigError) as err:
                validate_config({"scenario": scenario, "params": {"sigma": sigma}})
            assert err.value.problems == [
                f"params: unknown key(s) for scenario {scenario}: ['sigma']"]

    def test_version_check(self):
        with pytest.raises(ConfigError, match="config_version"):
            validate_config({"scenario": "l63-limit-dist",
                             "config_version": CONFIG_VERSION + 1})

    def test_defaults_table_copies(self):
        # each config gets its own copy of a defaulted list
        a = validate_config({"scenario": "l96-rmse-sweep"})
        a.params["n"].append(123)
        assert 123 not in validate_config({"scenario": "l96-rmse-sweep"}).params["n"]


def assert_no_child_process():
    """No worker process is left: none alive, none left to reap."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_config(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("l63-limit-dist", "l96-rmse-sweep", "l96-adaptive-aug",
                     "linear-gaussian-check", "bimodal-oracle-check"):
            assert name in out

    def test_validate_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"scenario": "l63-limit-dist"})
        assert main(["validate", "--config", cfg]) == 0
        assert "params.lambdas = [10.0, 3.0, 1.0, 0.5, 0.3]" in capsys.readouterr().out

    @pytest.mark.parametrize("name", [["l63-limit-dist"], {"l63-limit-dist": 1}],
                             ids=["list", "dict"])
    def test_non_string_scenario_exit_1(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path / "c.json", {"scenario": name})
        for argv in (["validate", "--config", cfg],
                     ["run", "--config", cfg, "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "scenario: unknown scenario" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_validate_bad_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           {"scenario": "l96-adaptive-aug", "params": {"r_max": 0.5}})
        assert main(["validate", "--config", cfg]) == 1

    def test_non_finite_param_exit_1(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"scenario": "linear-gaussian-check", "params": {"se_factor": NaN}}')
        assert main(["run", "--config", str(cfg)]) == 1

    def test_bimodal_replicates_override_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json",
                           {"scenario": "bimodal-oracle-check", "out_dir": str(out)})
        assert main(["run", "--config", cfg, "--replicates", "3"]) == 1
        assert "replicates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, problem", [
        ([1, 2], "document: expected a JSON object"),
        ("abc", "document: expected a JSON object"),
        ({"config": 5}, "config: expected a JSON object"),
    ])
    def test_run_non_object_config_exit_1(self, tmp_path, capsys, doc, problem):
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("scenario", ["l96-rmse-sweep", "l96-adaptive-aug"])
    def test_run_t_f_shorter_than_dt_obs_exit_1(self, tmp_path, capsys, scenario):
        cfg = write_config(tmp_path / "c.json", {
            "scenario": scenario, "params": {"t_f": 0.5, "dt_obs": [0.9]}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "params.t_f: t_f=0.5 is shorter than dt_obs=[0.9]" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("scenario, params, problem", [
        # each of these would fail every replicate, or validation itself
        ("l96-adaptive-aug", {"r_max": 0.5}, "params.r_max: "),
        ("bimodal-oracle-check", {"y_star": 20.0}, "params: unknown key(s)"),
        ("l96-rmse-sweep", {"filters": [["enkf"]]}, "params: unknown key(s)"),
        ("bimodal-oracle-check", {"lambdas": [0.3]}, "params: unknown key(s)"),
    ])
    def test_run_rejected_param_exit_1_writes_nothing(self, tmp_path, capsys,
                                                      scenario, params, problem):
        cfg = write_config(tmp_path / "c.json", {"scenario": scenario, "params": params})
        assert main(["validate", "--config", cfg]) == 1
        assert problem in capsys.readouterr().err
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_non_utf8_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe{}")
        for argv in (["validate", "--config", str(cfg)],
                     ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"{cfg}: not valid JSON" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1

    def test_zero_replicates_metadata_only(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", {
            "scenario": "linear-gaussian-check",
            "seed": 1,
            "out_dir": str(out),
            "replicates": 0,
        })
        assert main(["run", "--config", cfg]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["metadata.json"]

    def test_linear_gaussian_check_passes_exit_0(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", {
            "scenario": "linear-gaussian-check",
            "seed": 7,
            "out_dir": str(out),
            "params": {"n": 20000, "steps": 3},
        })
        code = main(["run", "--config", cfg])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert (out / "comparison.csv").exists()
        assert "pass:" in captured

    def test_metadata_roundtrip_reproduces_results(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path / "c.json", {
            "scenario": "linear-gaussian-check",
            "seed": 11,
            "out_dir": str(out1),
            "params": {"n": 5000, "steps": 2},
        })
        assert main(["run", "--config", cfg]) == 0
        meta = json.loads((out1 / "metadata.json").read_text())
        meta["config"]["out_dir"] = str(out2)
        cfg2 = write_config(tmp_path / "meta.json", meta)
        assert main(["run", "--config", cfg2]) == 0
        assert (out1 / "comparison.csv").read_bytes() == (out2 / "comparison.csv").read_bytes()

    def test_cli_overrides_recorded(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", {
            "scenario": "linear-gaussian-check",
            "params": {"n": 5000, "steps": 1},
        })
        assert main(["run", "--config", cfg, "--seed", "3", "--out", str(out),
                     "--replicates", "1", "--threads", "1"]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["seed"] == 3
        assert meta["config"]["replicates"] == 1


class TestScenarioDeterminism:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_thread_count_does_not_change_results(self, tmp_path, threads):
        from trimkf.experiments.config import validate_config

        out = tmp_path / f"t{threads}"
        cfg = validate_config({
            "scenario": "l96-rmse-sweep",
            "seed": 5,
            "out_dir": str(out),
            "replicates": 3,
            "threads": threads,
            "params": {"n": [40], "dt_obs": [0.3], "t_f": 0.9, "target_ne": 10.0},
        })
        result = run_scenario(cfg)
        assert not result.replicate_failures
        (tmp_path / f"rmse{threads}.csv").write_bytes((out / "rmse.csv").read_bytes())

    def test_compare_thread_outputs(self, tmp_path):
        for threads in (1, 2):
            self.test_thread_count_does_not_change_results(tmp_path, threads)
        a = (tmp_path / "rmse1.csv").read_bytes()
        b = (tmp_path / "rmse2.csv").read_bytes()
        assert a == b


def test_helper_and_inline_forecasts_write_the_same_bytes(tmp_path, monkeypatch):
    # 36x500 members (18,000 numbers) reach the noise helper.  With two
    # usable CPUs, one worker keeps both and draws ahead on a helper, and
    # each of two workers gets one and draws inline.  The last run uses
    # this process's own CPUs: on one usable CPU it draws inline.
    helpers = []

    class Counting(integrators.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            helpers[-1] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(integrators, "ThreadPoolExecutor", Counting)
    own_cpus = integrators.usable_cpus()
    outputs = []
    for threads, cpus in ((1, 2), (2, 2), (1, own_cpus)):
        monkeypatch.setattr(scenarios, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(integrators, "usable_cpus", lambda: cpus)
        out = tmp_path / f"run{len(outputs)}"
        helpers.append(0)
        result = run_scenario(validate_config({
            "scenario": "l96-rmse-sweep", "seed": 11, "replicates": 2, "threads": threads,
            "out_dir": str(out), "params": {"n": [500], "t_f": 0.9},
        }))
        assert not result.replicate_failures
        outputs.append({f.name: f.read_bytes() for f in result.files})
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1] == outputs[2]
    assert helpers[0] > 0 and helpers[1] == 0
    assert (helpers[2] > 0) == (own_cpus > 1)


class TestReplicateIndependence:
    def test_dropping_replicates_preserves_earlier_ones(self, tmp_path):
        from trimkf.experiments.config import validate_config

        rows = {}
        for reps in (2, 4):
            out = tmp_path / f"r{reps}"
            cfg = validate_config({
                "scenario": "l96-rmse-sweep",
                "seed": 13,
                "out_dir": str(out),
                "replicates": reps,
                "threads": 1,
                "params": {"n": [40], "dt_obs": [0.3], "t_f": 0.9, "target_ne": 10.0},
            })
            run_scenario(cfg)
            lines = (out / "rmse.csv").read_text().strip().splitlines()
            rows[reps] = [l for l in lines[1:] if l.startswith(("0,", "1,"))]
        assert rows[2] == rows[4]


class TestReplicateFailures:
    DOC = {"scenario": "l63-limit-dist", "seed": 4, "replicates": 3, "threads": 2,
           "params": {"n": 300, "bins": 10, "lambdas": [1.0]}}

    @staticmethod
    def _fail_replicate_1(monkeypatch):
        entry = SCENARIOS["l63-limit-dist"]

        def replicate(cfg, rep):
            if rep == 1:
                raise RuntimeError("replicate blew up")
            return entry.replicate(cfg, rep)

        monkeypatch.setitem(SCENARIOS, "l63-limit-dist", entry._replace(replicate=replicate))

    def _rows(self, out, name):
        return (out / name).read_text().splitlines()[1:]

    def test_failure_recorded_and_other_replicates_kept_in_order(self, tmp_path, monkeypatch):
        clean = tmp_path / "clean"
        assert not run_scenario(validate_config({**self.DOC, "out_dir": str(clean)})
                                ).replicate_failures
        self._fail_replicate_1(monkeypatch)
        out = tmp_path / "out"
        result = run_scenario(validate_config({**self.DOC, "out_dir": str(out)}))
        # perfbench's child parses the replicate number out of this prefix
        assert result.replicate_failures == ["replicate 1: RuntimeError: replicate blew up"]
        for name in ("histograms.csv", "ks.csv"):
            rows = self._rows(out, name)
            reps = [k for k, _ in itertools.groupby(r.split(",")[0] for r in rows)]
            assert reps == ["0", "2"]
            assert rows == [r for r in self._rows(clean, name) if not r.startswith("1,")]

    @pytest.mark.parametrize(
        "cpus, threads, share", [(4, 2, 2), (2, 2, 1), (2, 4, 1), (3, 2, 1), (3, 1, 3)]
    )
    def test_each_replicate_sees_its_cpu_share(self, tmp_path, monkeypatch, cpus, threads, share):
        # a pool thread gets an equal share of the CPUs and at least one (a
        # CPU left over goes unused); one worker runs on the calling thread,
        # which may use every CPU; the replicates after a failing one keep
        # their share
        monkeypatch.setattr(scenarios, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(integrators, "usable_cpus", lambda: cpus)
        seen = []

        def replicate(cfg, rep):
            seen.append(integrators.thread_cpus())
            if rep == 1:
                raise RuntimeError("replicate blew up")
            return {}

        entry = SCENARIOS["l63-limit-dist"]
        monkeypatch.setitem(SCENARIOS, "l63-limit-dist", entry._replace(replicate=replicate))
        doc = {**self.DOC, "replicates": 4, "threads": threads, "out_dir": str(tmp_path)}
        result = run_scenario(validate_config(doc))
        assert result.replicate_failures == ["replicate 1: RuntimeError: replicate blew up"]
        assert seen == [share] * 4
        assert integrators.thread_cpus() == cpus

    def test_auto_threads_count_usable_cpus(self, tmp_path, monkeypatch):
        # one usable CPU: threads 0 runs every replicate on the calling thread
        monkeypatch.setattr(scenarios, "usable_cpus", lambda: 1)
        entry = SCENARIOS["l63-limit-dist"]
        threads = []

        def replicate(cfg, rep):
            threads.append(threading.get_ident())
            return entry.replicate(cfg, rep)

        monkeypatch.setitem(SCENARIOS, "l63-limit-dist", entry._replace(replicate=replicate))
        doc = {**self.DOC, "threads": 0, "out_dir": str(tmp_path)}
        assert not run_scenario(validate_config(doc)).replicate_failures
        assert threads == [threading.get_ident()] * 3

    def test_cli_exits_2_naming_the_replicate(self, tmp_path, capsys, monkeypatch):
        self._fail_replicate_1(monkeypatch)
        cfg = write_config(tmp_path / "c.json", {**self.DOC, "out_dir": str(tmp_path / "out")})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "FAILED replicate 1: RuntimeError: replicate blew up" in err


class TestSharedMap:
    """``integrators._map_shared``: the one map that runs replicates, the
    independent units of a replicate and the oracle's block passes, the
    calling thread among its threads."""

    def test_results_come_back_in_item_order(self):
        def slow_first(i):  # the first items finish last
            time.sleep(0.002 * (8 - i))
            return i * i

        for workers, forked in itertools.product((1, 2, 3, 8), (False, True)):
            assert integrators._map_shared(slow_first, range(8), workers, forked) == [
                i * i for i in range(8)]
        assert integrators._map_shared(slow_first, [], 2) == []
        assert integrators._map_shared(slow_first, [], 2, forked=True) == []
        assert_no_child_process()

    def test_every_item_runs_once_under_frequent_switches(self):
        # more threads than CPUs, switching every microsecond: an item taken
        # twice or skipped would show in the calls
        calls = []

        def fn(i):
            calls.append(i)
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = integrators._map_shared(fn, range(3000), 8)
        finally:
            sys.setswitchinterval(interval)
        assert out == [-i for i in range(3000)]
        assert sorted(calls) == list(range(3000))

    def test_lowest_index_failure_is_raised_with_its_cause(self):
        def fn(i):
            if i == 1:
                time.sleep(0.05)  # fails after item 3 has failed
                try:
                    raise KeyError("inner")
                except KeyError as exc:
                    raise ValueError("item 1") from exc
            if i == 3:
                raise RuntimeError("item 3")
            return i

        # a forked worker sends the error back with its type and cause
        for workers, forked in itertools.product((1, 4), (False, True)):
            with pytest.raises(ValueError, match="item 1") as err:
                integrators._map_shared(fn, range(6), workers, forked)
            assert isinstance(err.value.__cause__, KeyError)
            assert_no_child_process()

    def test_no_item_starts_after_a_failure(self):
        started = []

        def fn(i):
            started.append(i)
            if i == 0:
                raise RuntimeError("first")

        with pytest.raises(RuntimeError, match="first"):
            integrators._map_shared(fn, range(50), 1)
        assert started == [0]

    def test_a_thread_that_fails_to_start_stops_the_map(self, monkeypatch):
        # the second start fails: the one helper started is joined and takes
        # no item after the failure (two threads asked for, one started)
        start, started, done = threading.Thread.start, [], []

        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        def fn(i):
            time.sleep(0.05)
            done.append(i)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            integrators._map_shared(fn, range(20), 3)
        monkeypatch.undo()
        assert len(started) == 1 and not started[0].is_alive()
        assert len(done) <= 1

    @pytest.mark.parametrize("fail", [False, True])
    def test_caller_share_is_restored(self, monkeypatch, fail):
        monkeypatch.setattr(integrators._share, "cpus", 5, raising=False)

        def fn(i):
            if fail and i == 2:
                raise RuntimeError("boom")

        for forked in (False, True):
            try:
                integrators._map_shared(fn, range(4), 2, forked)
            except RuntimeError:
                assert fail
            assert integrators.thread_cpus() == 5

    @pytest.mark.parametrize("share, workers, each", [(5, 2, 2), (2, 2, 1), (2, 3, 1),
                                                      (4, 4, 1), (4, 1, 4)])
    def test_each_thread_holds_its_part_of_the_share(self, monkeypatch, share, workers, each):
        # every thread takes one item and waits for the others, so each item
        # runs on its own thread, the calling thread among them
        monkeypatch.setattr(integrators._share, "cpus", share, raising=False)
        barrier = threading.Barrier(workers, timeout=10)

        def fn(i):
            barrier.wait()
            return threading.get_ident(), integrators.thread_cpus()

        seen = integrators._map_shared(fn, range(workers), workers)
        assert [cpus for _, cpus in seen] == [each] * workers
        assert len({ident for ident, _ in seen}) == workers
        assert threading.get_ident() in {ident for ident, _ in seen}
        assert integrators.thread_cpus() == share


class TestForkedMap:
    """``integrators._map_shared`` with ``forked``: the helpers are forked
    worker processes, which the DP45 scenario's truths and filter runs
    use."""

    def test_items_run_once_each_in_worker_processes(self, tmp_path, monkeypatch):
        # more workers than CPUs take items off one shared counter: every
        # item is logged once, by the process that ran it, and each process
        # holds its part of the caller's share
        monkeypatch.setattr(integrators._share, "cpus", 6, raising=False)
        log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def fn(i):
            os.write(log, f"{i} {os.getpid()}\n".encode())
            return -i, integrators.thread_cpus()

        try:
            out = integrators._map_shared(fn, range(3000), 3, forked=True)
        finally:
            os.close(log)
        assert out == [(-i, 2) for i in range(3000)]
        lines = [line.split() for line in (tmp_path / "log").read_text().splitlines()]
        assert sorted(int(i) for i, _ in lines) == list(range(3000))
        assert len({pid for _, pid in lines}) > 1
        assert integrators.thread_cpus() == 6
        assert_no_child_process()

    @pytest.mark.parametrize("how", ["exit", "unpicklable"])
    def test_a_worker_that_sends_no_results_fails_the_map(self, how):
        # a worker that dies, or whose results do not pickle (its traceback
        # goes to stderr), sends nothing: the map raises once it is joined
        caller = os.getpid()

        def fn(i):
            time.sleep(0.05)  # lets the worker take an item
            if os.getpid() == caller:
                return i
            if how == "exit":
                os._exit(3)
            return lambda: i

        with pytest.raises(RuntimeError, match="worker process ended without sending"):
            integrators._map_shared(fn, range(4), 2, forked=True)
        assert_no_child_process()

    def test_another_thread_keeps_the_items_on_the_calling_thread(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            pids = integrators._map_shared(lambda i: os.getpid(), range(4), 2, forked=True)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pids == [os.getpid()] * 4


# Both Lorenz-96 scenarios at a size whose runs take a few tens of ms.
_L96_DOCS = {
    "l96-adaptive-aug": {"dt_obs": [0.4, 0.8], "t_f": 1.6, "n": 40, "target_ne": 20.0},
    "l96-rmse-sweep": {"dt_obs": [0.3, 0.6], "t_f": 1.2, "n": [40, 60], "target_ne": 20.0},
}


def _l96_doc(scenario, out, threads, replicates):
    return {"scenario": scenario, "seed": 3, "replicates": replicates, "threads": threads,
            "out_dir": str(out), "params": dict(_L96_DOCS[scenario])}


def _aug_doc(out, threads):
    return _l96_doc("l96-adaptive-aug", out, threads, replicates=2)


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(scenarios, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(integrators, "usable_cpus", lambda: cpus)


# (threads, usable CPUs): the DP45 truths and runs go to threads * max(1,
# CPUs // threads) processes, the caller among them: one process on one CPU
# runs everything on the calling thread, the others fork 1 or 2 workers
FORKED_LAYOUTS = [(1, 2), (2, 2), (1, 1), (3, 2), (1, 3)]


def test_forked_dp45_runs_write_the_same_bytes(tmp_path, monkeypatch):
    outputs = []
    for threads, cpus in FORKED_LAYOUTS + [(1, integrators.usable_cpus())]:
        _use_cpus(monkeypatch, cpus)
        result = run_scenario(validate_config(_aug_doc(tmp_path / str(len(outputs)), threads)))
        assert not result.replicate_failures
        assert_no_child_process()
        outputs.append({f.name: f.read_bytes() for f in result.files})
    assert len(outputs[0]) == 2
    assert all(out == outputs[0] for out in outputs)


def test_forked_failures_read_as_in_process(tmp_path, monkeypatch):
    # a drift that fails on every member block after t=0.5 fails all filter
    # runs; forked workers inherit the patched drift, so a failure in a
    # worker gives the replicate_failures of a failure on the calling thread
    log = tmp_path / "failed"

    def failing_model(p):
        def drift(x, t, out):
            trimkf.models.l96_drift(x, p, out)
            if x.ndim == 2 and t > 0.5:
                out[0, 0] = math.nan
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return out

        return trimkf.models.DynModel(drift=drift, noise_intensity=p.sigma)

    monkeypatch.setattr(scenarios, "lorenz96_model", failing_model)
    failures = []
    for threads, cpus in FORKED_LAYOUTS:
        _use_cpus(monkeypatch, cpus)
        result = run_scenario(validate_config(_aug_doc(tmp_path / str(len(failures)), threads)))
        assert_no_child_process()
        failures.append(result.replicate_failures)
    assert [f.split(":")[0] for f in failures[0]] == ["replicate 0", "replicate 1"]
    assert "IntegrationError: non-finite drift" in failures[0][0]
    assert all(f == failures[0] for f in failures)
    assert len(set(log.read_text().split())) > 1  # some failed in a worker


def _replicate_of(rng) -> int:
    """The replicate a scenario's keyed stream ``(seed, rep, ...)`` belongs to."""
    return rng.bit_generator.seed_seq.entropy[1]


@pytest.mark.parametrize("scenario", sorted(_L96_DOCS))
def test_forked_and_threaded_unit_failures_read_the_same_on_every_layout(
        tmp_path, monkeypatch, scenario):
    # replicate 0's truth at its second dt_obs fails, and every EnKF and
    # trimmed update of replicate 1 fails with its own message.  The trimmed
    # runs start first, but a replicate reports its truth's failure, else its
    # first failed run in (dt_obs, n, filter) order: here the first EnKF
    # run.  The failed replicates write no rows; replicate 2 keeps its own.
    clean = run_scenario(validate_config(_l96_doc(scenario, tmp_path / "clean", 1, 3)))
    assert not clean.replicate_failures
    running = threading.local()
    truth, run = scenarios.simulate_truth, scenarios.run_assimilation
    enkf, tenkf = filters.enkf_update, filters.tenkf_update

    def failing_truth(problem, truth0, rng):
        if _replicate_of(rng) == 0 and problem.dt_obs == _L96_DOCS[scenario]["dt_obs"][-1]:
            raise RuntimeError(f"truth failed at dt_obs={problem.dt_obs}")
        return truth(problem, truth0, rng)

    def traced_run(problem, method, rng, *args):
        running.rep = _replicate_of(rng)
        return run(problem, method, rng, *args)

    def failing(name, update):
        def wrapper(joint, *args, **kwargs):
            if running.rep == 1:
                raise RuntimeError(f"{name} failed at n={joint.size}")
            return update(joint, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(scenarios, "simulate_truth", failing_truth)
    monkeypatch.setattr(scenarios, "run_assimilation", traced_run)
    monkeypatch.setattr(filters, "enkf_update", failing("enkf", enkf))
    monkeypatch.setattr(filters, "tenkf_update", failing("tenkf", tenkf))
    dt0, dt1 = _L96_DOCS[scenario]["dt_obs"]
    expected = [f"replicate 0: RuntimeError: truth failed at dt_obs={dt1}",
                f"replicate 1: AssimilationError: assimilation step 1 (t={dt0}): "
                "RuntimeError: enkf failed at n=40"]
    outputs = []
    for threads, cpus in [(1, 1), (1, 2), (2, 2), (3, 2)]:
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"{threads}-{cpus}"
        result = run_scenario(validate_config(_l96_doc(scenario, out, threads, 3)))
        assert_no_child_process()
        assert result.replicate_failures == expected
        outputs.append({f.name: f.read_bytes() for f in result.files})
    assert all(out == outputs[0] for out in outputs)
    for f in clean.files:
        if f.name != "quantiles.csv":  # over the replicates left
            rows = f.read_text().splitlines()
            kept = [rows[0]] + [r for r in rows[1:] if r.startswith("2,")]
            assert outputs[0][f.name].decode().splitlines() == kept
            assert len(kept) > 1
    assert_no_child_process()


def test_forked_trimmed_runs_of_two_replicates_run_at_once(tmp_path, monkeypatch):
    # threads: 1 on 2 CPUs is two unit processes: the trimmed runs, which
    # start first, of replicates 0 and 1 must run at the same time (each
    # waits for the other), so in different processes
    _use_cpus(monkeypatch, 2)
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    both = multiprocessing.get_context("fork").Barrier(2, timeout=10)
    run = scenarios.run_assimilation

    def traced_run(problem, method, rng, *args):
        if method.kind == "tenkf":
            os.write(log, f"{_replicate_of(rng)} {os.getpid()}\n".encode())
            both.wait()
        return run(problem, method, rng, *args)

    monkeypatch.setattr(scenarios, "run_assimilation", traced_run)
    doc = _aug_doc(tmp_path / "out", threads=1)
    doc["params"]["dt_obs"] = [0.8]  # one trimmed run a replicate
    try:
        result = run_scenario(validate_config(doc))
    finally:
        os.close(log)
    assert not result.replicate_failures
    lines = sorted(line.split() for line in (tmp_path / "log").read_text().splitlines())
    assert [rep for rep, _ in lines] == ["0", "1"]
    assert len({pid for _, pid in lines}) == 2
    assert_no_child_process()


@pytest.mark.parametrize("scenario", sorted(_L96_DOCS))
@pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 1), (1, 2)])
def test_forked_and_threaded_unit_workers(tmp_path, monkeypatch, scenario, cpus, threads):
    # the DP45 runs go to threads * max(1, cpus // threads) processes with
    # one CPU each, the Heun runs to `threads` threads with max(1, cpus //
    # threads) each.  Every run waits for as many runs as there are workers,
    # so each worker takes a run; two replicates have 8 or 16 runs.
    _use_cpus(monkeypatch, cpus)
    if scenario == "l96-adaptive-aug":
        workers, share = threads * max(1, cpus // threads), 1
    else:
        workers, share = threads, max(1, cpus // threads)
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    together = multiprocessing.get_context("fork").Barrier(workers, timeout=10)
    run = scenarios.run_assimilation

    def traced_run(*args):
        os.write(log, f"{os.getpid()} {threading.get_ident()} "
                      f"{integrators.thread_cpus()}\n".encode())
        together.wait()
        return run(*args)

    monkeypatch.setattr(scenarios, "run_assimilation", traced_run)
    try:
        result = run_scenario(validate_config(_l96_doc(scenario, tmp_path / "out", threads, 2)))
    finally:
        os.close(log)
    assert not result.replicate_failures
    lines = [line.split() for line in (tmp_path / "log").read_text().splitlines()]
    assert len({(pid, ident) for pid, ident, _ in lines}) == workers
    assert {int(cpus) for *_, cpus in lines} == {share}
    if scenario == "l96-rmse-sweep":  # threads of this process
        assert {int(pid) for pid, *_ in lines} == {os.getpid()}
    assert_no_child_process()


def test_metadata_records_peak_rss_of_process_and_workers(tmp_path, monkeypatch):
    _use_cpus(monkeypatch, 2)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path / "c.json", _aug_doc(out1, threads=2))
    assert main(["run", "--config", cfg]) == 0
    assert_no_child_process()

    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    meta = json.loads((out1 / "metadata.json").read_text(), parse_constant=refuse)
    peak = meta["run"]["peak_rss_mb"]
    assert set(peak) == {"process", "workers"}
    assert peak["process"] > 1.0 and peak["workers"] > 1.0
    meta["config"]["out_dir"] = str(out2)
    assert main(["run", "--config", write_config(tmp_path / "meta.json", meta)]) == 0
    for name in ("traces.csv", "augmentation.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_metadata_records_no_workers_peak_without_a_worker(tmp_path):
    # A child waited for before the run (as the launcher's are, carried
    # across its exec) sets RUSAGE_CHILDREN's peak; a linear-Gaussian run
    # forks no worker, so metadata.json reports 0 for the workers.
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "scenario": "linear-gaussian-check", "seed": 0, "out_dir": str(out),
        "params": {"n": 100, "steps": 2},
    })
    assert main(["run", "--config", cfg]) == 0
    peak = json.loads((out / "metadata.json").read_text())["run"]["peak_rss_mb"]
    assert peak["process"] > 1.0 and peak["workers"] == 0.0


def test_units_on_every_cpu_share_write_the_same_bytes(tmp_path, monkeypatch):
    # The L63 updates and summaries and the linear-Gaussian filter runs go
    # through the shared map with the replicate's CPU share; at n=4000
    # (above OpenBLAS's threading threshold) concurrent updates must not
    # move the bytes.  At a share of 2 the updates run on two threads.
    update = filters.tenkf_update
    threads = []

    def traced(*args, **kwargs):
        threads.append(threading.get_ident())
        time.sleep(0.005)  # lets the other thread take the next update
        return update(*args, **kwargs)

    monkeypatch.setattr(filters, "tenkf_update", traced)
    docs = [
        {"scenario": "l63-limit-dist", "seed": 2, "params": {"n": 4000, "bins": 20}},
        {"scenario": "linear-gaussian-check", "seed": 2, "params": {"n": 4000, "steps": 3}},
    ]
    outputs, used = [], []
    for share in (1, 2, 3):
        monkeypatch.setattr(integrators._share, "cpus", share, raising=False)
        threads.clear()
        out = {}
        for doc in docs:
            result = run_scenario(validate_config(
                {**doc, "replicates": 1, "threads": 1, "out_dir": str(tmp_path / f"{share}")}))
            assert not result.replicate_failures
            out.update({f"{doc['scenario']}/{f.name}": f.read_bytes() for f in result.files})
        outputs.append(out)
        used.append(len(set(threads)))
        assert integrators.thread_cpus() == share
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1] == outputs[2]
    assert used[0] == 1 and used[1] == 2


def test_replicates_and_configs_pickle():
    # the registered functions pickle by reference and the validated config
    # by value, as a pool that does not fork its workers would send them
    for entry in SCENARIOS.values():
        for fn in filter(None, (entry.replicate, entry.runs, entry.finish)):
            assert pickle.loads(pickle.dumps(fn)) is fn
    for name in SCENARIOS:
        cfg = validate_config({"scenario": name, "seed": 3, "params": {}})
        assert pickle.loads(pickle.dumps(cfg)) == cfg
    cfg = validate_config({"scenario": "l96-rmse-sweep", "params": {"n": [40, 60], "target_ne": 20.0}})
    assert pickle.loads(pickle.dumps(cfg)) == cfg


@pytest.mark.parametrize("name, bound_mib", [("bimodal-oracle-check", 16), ("l63-limit-dist", 20),
                                             ("linear-gaussian-check", 17)])
def test_replicate_traced_peak(name, bound_mib):
    # At their defaults the bimodal check kept a 32 MiB table of shifted
    # conditionals beside its 32 MiB joint (74.9 MiB), then the joint alone
    # (41.9 MiB); the L63 check kept each whole (3, n) posterior alive for
    # one row of it (34.9 MiB), then each update's full-size temporaries,
    # two updates at a time (25.9 MiB), as did the linear-Gaussian check
    # (19.9 MiB).  A share of 2 runs two updates at once on any runner.
    cfg = validate_config({"scenario": name, "seed": 0, "params": {}})
    old = integrators.share_cpus(2)
    tracemalloc.start()
    try:
        SCENARIOS[name].replicate(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        integrators.share_cpus(old)
    assert peak <= bound_mib * 2**20


class TestExitCodes:
    def test_failing_embedded_check_exits_3(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", {
            "scenario": "linear-gaussian-check",
            "seed": 1,
            "out_dir": str(out),
            "params": {"n": 2000, "steps": 2, "se_factor": 0.001},
        })
        assert main(["run", "--config", cfg]) == 3

    def test_collapsed_posterior_fails_its_check_exits_3(self, tmp_path, capsys):
        # at n=2 the particle filter's posterior collapses to one value: a zero
        # standard error, which used to fail the replicate with ZeroDivisionError
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", {
            "scenario": "linear-gaussian-check", "seed": 0, "out_dir": str(out),
            "params": {"n": 2, "steps": 1},
        })
        assert main(["run", "--config", cfg]) == 3
        assert "FAILED" not in capsys.readouterr().err
        rows = (out / "checks.csv").read_text().splitlines()
        assert any(row.split(",")[1] == "inf" for row in rows[1:])
        # metadata.json is strict JSON (it wrote ``Infinity``), with the
        # same strings for non-finite values as checks.csv

        def refuse(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        doc = json.loads((out / "metadata.json").read_text(), parse_constant=refuse)
        values = [row["value"] for row in doc["run"]["checks"]]
        assert "inf" in values and all(isinstance(v, (float, str)) for v in values)

    def test_exact_zero_state_passes_exit_0(self, tmp_path):
        # A=0, Q=0: every filter and the Kalman recursion put all mass at 0,
        # so every deviation and standard error is 0
        cfg = write_config(tmp_path / "c.json", {
            "scenario": "linear-gaussian-check", "seed": 0, "out_dir": str(tmp_path / "out"),
            "params": {"n": 100, "A": 0.0, "Q": 0.0},
        })
        assert main(["run", "--config", cfg]) == 0


class TestResultWrites:
    DOC = {"scenario": "l63-limit-dist", "seed": 2, "params": {"n": 300, "bins": 10}}

    def test_write_errors_keep_their_type(self, tmp_path):
        (tmp_path / "t.csv").mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            write_table(tmp_path / "t.csv", ["a"], [{"a": 1}])
        assert exc.value.errno == errno.EISDIR
        (tmp_path / "metadata.json").mkdir()
        cfg = validate_config({**self.DOC, "out_dir": str(tmp_path)})
        with pytest.raises(IsADirectoryError) as exc:
            write_metadata(tmp_path, cfg, "0", 1.0, [])
        assert exc.value.errno == errno.EISDIR

    @pytest.mark.parametrize("name", ["ks.csv", "metadata.json"])
    def test_cli_exits_2_when_a_result_cannot_be_written(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = write_config(tmp_path / "c.json", {**self.DOC, "out_dir": str(out)})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: IsADirectoryError: ")
        assert name in err and "Traceback" not in err


class TestFormatting:
    def test_float_roundtrip_17g(self):
        import numpy as np

        from trimkf.experiments.io import format_value

        rng = np.random.default_rng(0)
        for v in rng.standard_normal(50):
            assert float(format_value(float(v))) == float(v)
        assert format_value(True) == "true"
        assert format_value(None) == ""


class TestHistogramOutputs:
    def test_l63_histogram_masses_sum_to_one(self, tmp_path):
        from trimkf.experiments.config import validate_config

        out = tmp_path / "l63"
        cfg = validate_config({
            "scenario": "l63-limit-dist",
            "seed": 2,
            "out_dir": str(out),
            "replicates": 1,
            "params": {"n": 2000, "lambdas": [1.0], "bins": 40},
        })
        result = run_scenario(cfg)
        assert not result.replicate_failures
        lines = (out / "histograms.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        mass_col = header.index("mass")
        filt_col = header.index("filter")
        lam_col = header.index("lam")
        sums = {}
        for line in lines[1:]:
            parts = line.split(",")
            key = (parts[filt_col], parts[lam_col])
            sums[key] = sums.get(key, 0.0) + float(parts[mass_col])
        assert len(sums) == 3  # enkf, tenkf@1.0, pf
        for v in sums.values():
            assert v == pytest.approx(1.0, abs=1e-9)


class TestDemoConfigs:
    DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.json"))

    def test_demo_configs_exist(self):
        assert self.DEMOS

    @pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
    def test_demo_config_validates(self, path):
        cfg = validate_config(json.loads(path.read_text(encoding="utf-8")))
        assert cfg.replicates >= 1
