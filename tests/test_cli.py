import ast
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import zetalab
from zetalab import experiments, parallel
from zetalab.cli import main
from zetalab.errors import UsageError
from zetalab.experiments import (REGISTRY, ExperimentConfig, ResultRecord,
                                 parallel_chunks, run, seed_stream)


def test_registry_names():
    assert set(REGISTRY) == {
        "tail_zeta", "tail_surrogate", "mertens", "moments_model", "moments_zeta",
        "ballot_sweep", "smoothing_suite", "poisson_suite", "fourth_moment_suite",
        "mollifier_suite", "berry_esseen", "density_check",
    }


def test_unknown_experiment(out_dir):
    with pytest.raises(UsageError, match="ballot_sweep"):
        run(ExperimentConfig(experiment="nope", out_dir=out_dir))


def test_seed_stream_distinct_and_reproducible():
    a = seed_stream(5, 1).uniform(size=1000)
    b = seed_stream(5, 2).uniform(size=1000)
    c = seed_stream(5, 1).uniform(size=1000)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)


def test_seed_stream_equidistribution():
    draws = seed_stream(123, 0).uniform(size=10 ** 6)
    counts, _ = np.histogram(draws, bins=100, range=(0, 1))
    stat = float(np.sum((counts - 10 ** 4) ** 2 / 10 ** 4))
    p_value = float(chi2.sf(stat, df=99))
    assert p_value > 1e-6


def test_parallel_chunks_worker_independent(monkeypatch):
    def sampler(rng, n):
        return rng.normal(size=n)

    want = np.concatenate(parallel_chunks(9, 1000, sampler))   # the default pool
    for workers in (1, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            monkeypatch.setattr(parallel, "_pool", pool)
            assert np.array_equal(np.concatenate(parallel_chunks(9, 1000, sampler)), want)


def test_mertens_experiment_small_limit(out_dir):
    cfg = ExperimentConfig(experiment="mertens", seed=2, out_dir=out_dir,
                           params={"limit": 10 ** 6})
    rec = run(cfg)
    assert rec.metrics["abs_error_vs_loglog"] < 0.02
    assert "AC1" in rec.passes


def test_run_writes_outputs(out_dir):
    cfg = ExperimentConfig(experiment="fourth_moment_suite", seed=3, out_dir=out_dir)
    record = run(cfg)
    assert record.all_passed
    assert os.path.exists(os.path.join(out_dir, "fourth_moment_suite_metrics.csv"))
    with open(os.path.join(out_dir, "fourth_moment_suite_record.json")) as fh:
        data = json.load(fh)
    assert data["passes"]["AC3"] is True
    assert data["params_hash"] == cfg.params_hash
    with open(os.path.join(out_dir, "fourth_moment_identities.csv"), newline="") as fh:
        lines = fh.read().split("\n")
    assert lines[0] == "p,alpha,z_norm,residual"
    assert len(lines) == 1 + 42 + 1   # header, 18 vanishing + 24 series rows, final line end


def test_metrics_csv_deterministic_mod_header(tmp_path):
    # timings stay in the record, so whole CSV files repeat byte for byte
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run(ExperimentConfig(experiment="fourth_moment_suite", seed=3, out_dir=str(d)))
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    assert names == ["fourth_moment_identities.csv", "fourth_moment_suite_metrics.csv"]
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert "elapsed_s" not in (dirs[0] / "fourth_moment_suite_metrics.csv").read_text()


def test_harness_coerces_numpy_results(monkeypatch, out_dir):
    def body(config):
        return {"x": np.float64(0.25), "n": np.int64(3)}, {"AC0": np.False_}

    monkeypatch.setitem(REGISTRY, "numpy_types", (body, None, frozenset()))
    record = run(ExperimentConfig(experiment="numpy_types", out_dir=out_dir))
    assert not record.all_passed
    with open(os.path.join(out_dir, "numpy_types_record.json")) as fh:
        data = json.load(fh)
    assert data["passes"] == {"AC0": False}
    assert data["metrics"]["x"] == 0.25 and "elapsed_s" in data["metrics"]
    with open(os.path.join(out_dir, "numpy_types_metrics.csv")) as fh:
        header, *rows = fh.read().splitlines()
    assert header == "metric,value"
    assert [float(row.split(",")[1]) for row in rows] == [3.0, 0.25]


def test_time_limit_fails_every_verdict(monkeypatch, out_dir):
    monkeypatch.setitem(REGISTRY, "slow",
                        (lambda config: ({}, {"A": True, "B": True}), 0.0, frozenset()))
    record = run(ExperimentConfig(experiment="slow", out_dir=out_dir))
    assert record.passes == {"A": False, "B": False}


def test_config_json_roundtrip(tmp_path):
    cfg = ExperimentConfig(experiment="mertens", seed=11, out_dir="x", params={"limit": 10})
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg.__dict__, fh)
    loaded = ExperimentConfig.from_json(path)
    assert loaded == cfg
    assert loaded.params_hash == cfg.params_hash


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "ballot_sweep" in out and "mertens" in out


def test_cli_requires_experiment(capsys):
    assert main([]) == 2


def test_cli_unknown_is_usage_error(capsys, out_dir):
    assert main(["unknown_suite", "--out", out_dir]) == 2
    assert "available" in capsys.readouterr().err


def test_cli_runs_suite(capsys, out_dir):
    code = main(["fourth_moment_suite", "--seed", "5", "--out", out_dir])
    out = capsys.readouterr().out
    assert code == 0
    assert "AC3: PASS" in out


@pytest.mark.parametrize("config_text, flags", [
    ('{"experiment": "mertens", "colour": 1}', []),   # unknown key
    ('{"experiment": "mertens",', []),                 # bad JSON
    (None, []),                                        # missing file
    ('["mertens"]', []),                               # not a JSON object
    ('{"experiment": "mertens"}', ["--workers", "2"]),   # removed flag
    ('{"experiment": "mertens"}', ["--workers", "0"]),
    ('{"experiment": "mertens", "workers": "2"}', []),   # removed field: unknown key
    ('{"experiment": "mertens", "params": {"limit": "abc"}}', []),
    ('{"experiment": "mertens", "params": [1]}', []),
    ('{"experiment": "mertens", "seed": "x"}', []),
    ('{"experiment": "mertens", "sieve_limit": "x"}', []),
    ('{"experiment": "mertens", "seed": 1.5}', []),
    # params that would run nothing, or crash with a raw traceback
    ('{"experiment": "density_check", "params": {"delta": 0}}', []),
    ('{"experiment": "tail_surrogate", "params": {"runs": 0}}', []),
    ('{"experiment": "tail_zeta", "params": {"n_taus": 0}}', []),
    ('{"experiment": "moments_zeta", "params": {"n_cross": 0}}', []),
    ('{"experiment": "poisson_suite", "params": {"n_polys": 0}}', []),
    ('{"experiment": "mollifier_suite", "params": {"n_configs": 0}}', []),
    ('{"experiment": "ballot_sweep", "params": {"n_random_configs": 0}}', []),
    # a param the suite does not read (poisson_suite reads n_polys)
    ('{"experiment": "poisson_suite", "params": {"n_poly": 0}}', []),
    # heights that are not finite numbers above 1
    ('{"experiment": "tail_zeta", "params": {"big_t": "nan"}}', []),
    ('{"experiment": "tail_zeta", "params": {"big_t": 0}}', []),
    ('{"experiment": "tail_zeta", "params": {"big_t": -5}}', []),
    ('{"experiment": "tail_zeta", "params": {"big_t": "inf"}}', []),
    ('{"experiment": "moments_zeta", "params": {"big_t": "nan"}}', []),
    ('{"experiment": "moments_zeta", "params": {"big_t": "inf"}}', []),
    # an int param that would be truncated, and a bool
    ('{"experiment": "mollifier_suite", "params": {"n_configs": 2.7}}', []),
    ('{"experiment": "mollifier_suite", "params": {"n_configs": true}}', []),
    # the removed sieve limit: an unknown key, and a flag argparse rejects
    ('{"experiment": "mertens", "sieve_limit": 1000000}', []),
    ('{"experiment": "mertens"}', ["--sieve-limit", "1000000"]),
    # log log T <= 0, and draws beyond MAX_T = 1e12 (2T, and 2T + 1 for the grid)
    ('{"experiment": "tail_zeta", "params": {"big_t": 2.0}}', []),
    ('{"experiment": "tail_zeta", "params": {"big_t": 2.718281828459045}}', []),
    ('{"experiment": "tail_zeta", "params": {"big_t": 5e11}}', []),
    ('{"experiment": "moments_zeta", "params": {"big_t": 6e11}}', []),
    # seeds beyond the 64 bits that seed_stream keys on
    ('{"experiment": "poisson_suite", "seed": -1}', []),
    ('{"experiment": "poisson_suite", "seed": 18446744073709551616}', []),
    # scales whose window cannot be sieved (above log log (2^34 - 10) ~ 3.1598),
    # or is empty, or is not a number
    ('{"experiment": "berry_esseen", "params": {"k": 7.0}}', []),
    ('{"experiment": "berry_esseen", "params": {"k": 3.16}}', []),
    ('{"experiment": "density_check", "params": {"r": 0.0}}', []),
    ('{"experiment": "density_check", "params": {"r": "nan"}}', []),
    ('{"experiment": "moments_model", "params": {"k": -1.0}}', []),
    ('{"experiment": "moments_model", "params": {"j": "-inf"}}', []),
    # windows that hold no prime: (0, 0.01] asks for 1 < log p <= 1.01
    ('{"experiment": "density_check", "params": {"r": 0.01, "n_samples": 10000}}', []),
    ('{"experiment": "berry_esseen", "params": {"k": -5.0, "n_samples": 10000}}', []),
    ('{"experiment": "moments_model", "params": {"j": 0.0, "k": 0.01}}', []),
])
def test_cli_input_errors_exit_2(tmp_path, capsys, config_text, flags):
    cfg_path = tmp_path / "cfg.json"
    if config_text is not None:
        cfg_path.write_text(config_text)
    try:
        name = json.loads(config_text)["experiment"]
    except (TypeError, ValueError, KeyError):   # configs that cannot name a suite
        name = "mertens"
    out_dir = tmp_path / "out"
    argv = [name, "--config", str(cfg_path), "--out", str(out_dir)] + flags
    if flags:   # removed flags: argparse rejects an unknown flag itself
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


def test_cli_config_for_another_suite_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"experiment": "poisson_suite"}')
    out_dir = tmp_path / "out"
    assert main(["fourth_moment_suite", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "poisson_suite" in err
    assert not out_dir.exists()


def test_declared_params_are_the_names_each_body_reads():
    # `run` rejects every param a suite does not declare, so the declaration
    # must list exactly the names its body passes to `param`
    tree = ast.parse(Path(experiments.__file__).read_text())
    declared = 0
    for fn in tree.body:
        for deco in getattr(fn, "decorator_list", ()):
            if isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "suite":
                read = {call.args[1].value for call in ast.walk(fn) if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "param"}
                assert REGISTRY[deco.args[0].value][2] == read, deco.args[0].value
                declared += 1
    assert declared == len(REGISTRY)


def test_cli_flag_overrides(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"experiment": "fourth_moment_suite", "seed": 1,
                   "out_dir": str(tmp_path / "ignored")}, fh)
    out_dir = str(tmp_path / "real")
    code = main(["fourth_moment_suite", "--config", cfg_path, "--out", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "fourth_moment_suite_record.json"))


def test_import_skips_scipy_signal():
    # scipy.signal costs over a second of start-up; no module needs it
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, zetalab; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
