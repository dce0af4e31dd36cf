"""Every suite's output, pinned.

Each of the 12 suites runs at the sizes below (the benchmark's workload
sizes, kept here so that the pins never follow a change to the benchmark)
and seed 13.  The sha256 of each file it writes is compared with `PINS`: its
metrics CSV, its side tables, and its record with `elapsed_s` taken out.  A
change that claims to keep every bit is checked by this file alone.

The pins hold on x86-64 Linux, as `test_zeta.RS_HEX` does.  A change that
moves bits on purpose re-records them with

    PYTHONPATH=src python tests/test_suite_pins.py

which prints the table to paste over `PINS`; its CHANGES.md entry lists the
old and new digests next to the values that moved.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from zetalab.experiments import REGISTRY, ExperimentConfig, run

SEED = 13
SIZES = {
    "moments_model": {"n_samples": 10_000},
    "berry_esseen": {"n_samples": 10_000},
    "density_check": {"n_samples": 10_000},
    "tail_surrogate": {"depth": 12, "runs": 64, "slope_runs": 512},
    "moments_zeta": {"n_samples": 12_000, "n_cross": 1_000, "big_t": 1e7},
    "tail_zeta": {"big_t": 1e8, "n_taus": 144},
    "mertens": {},
    "mollifier_suite": {"n_configs": 100},
    "fourth_moment_suite": {},
    "poisson_suite": {"n_polys": 20},
    "smoothing_suite": {"n_samples": 20_000},
    "ballot_sweep": {"n_random_configs": 4, "mc_paths": 20_000},
}

# suite -> file it writes -> the first 16 hex digits of its sha256
PINS = {
    "ballot_sweep": {
        "ballot_sweep.csv": "7fcad125af6fbdcd",
        "ballot_sweep_metrics.csv": "4186c47d4b3d7c0f",
        "ballot_sweep_record.json": "c88dd4b17ea8ab5e",
    },
    "berry_esseen": {
        "berry_esseen_metrics.csv": "11c99a8c1af99a83",
        "berry_esseen_record.json": "1e88d9cf9f392e17",
    },
    "density_check": {
        "density_check_metrics.csv": "d7a1a48e73a755b7",
        "density_check_record.json": "ec641aa34477aa17",
        "density_ratios.csv": "46ff91911c96186e",
    },
    "fourth_moment_suite": {
        "fourth_moment_identities.csv": "3aeb69538d274779",
        "fourth_moment_suite_metrics.csv": "bb65cf9bd7e636c2",
        "fourth_moment_suite_record.json": "8ab77aeee8e70a0d",
    },
    "mertens": {
        "mertens_metrics.csv": "c4832cd52088947a",
        "mertens_record.json": "5df51b233b53936f",
    },
    "mollifier_suite": {
        "mollifier_suite_metrics.csv": "785574355fa27945",
        "mollifier_suite_record.json": "050ce7109e19d3ec",
    },
    "moments_model": {
        "moments_model_metrics.csv": "3ff8d312588c0c16",
        "moments_model_record.json": "e2d7e97769aaecb5",
    },
    "moments_zeta": {
        "moments_zeta_metrics.csv": "aa0017161f968211",
        "moments_zeta_record.json": "dd199b165f6df22b",
    },
    "poisson_suite": {
        "poisson_suite_metrics.csv": "daa0c42289481601",
        "poisson_suite_record.json": "b88981b18b52ed42",
    },
    "smoothing_suite": {
        "smoothing_suite_metrics.csv": "161dfcf11c18daa8",
        "smoothing_suite_record.json": "bd9a5642689fb2fd",
    },
    "tail_surrogate": {
        "surrogate_tail.csv": "15acaaef05d9a901",
        "tail_surrogate_metrics.csv": "ddf33a4a1b61ceda",
        "tail_surrogate_record.json": "91b04ce4f5555193",
    },
    "tail_zeta": {
        "tail_zeta_metrics.csv": "814393523ebfd0c1",
        "tail_zeta_record.json": "2042e8e7ccac992d",
        "tail_zeta_samples.csv": "86f305b8a6595307",
    },
}


def digests(experiment: str, out_dir: str) -> dict[str, str]:
    """Run `experiment` at its pinned size and seed into the empty `out_dir`,
    and hash each file it writes; the record is hashed without `elapsed_s`."""
    run(ExperimentConfig(experiment, seed=SEED, out_dir=out_dir, params=SIZES[experiment]))
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_record.json"):
            record = json.loads(data)
            del record["metrics"]["elapsed_s"]
            data = json.dumps(record, indent=2, sort_keys=True).encode()
        out[path.name] = hashlib.sha256(data).hexdigest()[:16]
    return out


def test_every_suite_is_sized():
    assert sorted(SIZES) == sorted(REGISTRY)


@pytest.mark.parametrize("experiment", sorted(SIZES))
def test_suite_output_pinned(experiment, tmp_path):
    assert digests(experiment, str(tmp_path)) == PINS[experiment]


def main() -> None:
    print("PINS = {")
    for experiment in sorted(SIZES):
        with tempfile.TemporaryDirectory() as out_dir:
            pins = digests(experiment, out_dir)
        print(f'    "{experiment}": {{')
        for name, digest in pins.items():
            print(f'        "{name}": "{digest}",')
        print("    },")
    print("}")


if __name__ == "__main__":
    main()
