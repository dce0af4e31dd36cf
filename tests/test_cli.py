import json
import os

import numpy as np
import pytest
from scipy.stats import chi2

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


def test_parallel_chunks_worker_independent(out_dir):
    def sampler(rng, n):
        return rng.normal(size=n)

    cfg1 = ExperimentConfig(experiment="mertens", seed=9, workers=1, out_dir=out_dir)
    cfg8 = ExperimentConfig(experiment="mertens", seed=9, workers=8, out_dir=out_dir)
    a = np.concatenate(parallel_chunks(cfg1, 1000, sampler))
    b = np.concatenate(parallel_chunks(cfg8, 1000, sampler))
    assert np.array_equal(a, b)


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
        lines = fh.read().split("\r\n")
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

    monkeypatch.setitem(REGISTRY, "numpy_types", (body, None))
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
    monkeypatch.setitem(REGISTRY, "slow", (lambda config: ({}, {"A": True, "B": True}), 0.0))
    record = run(ExperimentConfig(experiment="slow", out_dir=out_dir))
    assert record.passes == {"A": False, "B": False}


def test_config_json_roundtrip(tmp_path):
    cfg = ExperimentConfig(experiment="mertens", seed=11, workers=2,
                           sieve_limit=12345, out_dir="x", params={"limit": 10})
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
    ('{"experiment": "mertens"}', ["--workers", "0"]),
    ('{"experiment": "mertens"}', ["--workers", "-3"]),
    ('{"experiment": "mertens", "workers": "2"}', []),
])
def test_cli_input_errors_exit_2(tmp_path, capsys, config_text, flags):
    cfg_path = tmp_path / "cfg.json"
    if config_text is not None:
        cfg_path.write_text(config_text)
    out_dir = tmp_path / "out"
    code = main(["mertens", "--config", str(cfg_path), "--out", str(out_dir)] + flags)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


def test_cli_flag_overrides(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"experiment": "fourth_moment_suite", "seed": 1,
                   "out_dir": str(tmp_path / "ignored")}, fh)
    out_dir = str(tmp_path / "real")
    code = main(["fourth_moment_suite", "--config", cfg_path, "--out", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "fourth_moment_suite_record.json"))
