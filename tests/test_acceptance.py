"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria run through the same experiment registry the CLI uses; the sieve
cache directory is shared so the large tables are built once.
"""

import math
import os

import numpy as np
import pytest

from zetalab.experiments import ExperimentConfig, run, seed_stream

os.environ.setdefault("LAB_SIEVE_CACHE", "/tmp/zetalab_sieve_cache")

pytestmark = pytest.mark.acceptance

SEED = 7


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture()
def cfg_factory(tmp_path):
    def make(experiment, **params):
        return ExperimentConfig(experiment=experiment, seed=SEED,
                                out_dir=str(tmp_path), params=params)
    return make


def test_ac1_mertens(cfg_factory):
    rec = run(cfg_factory("mertens"))
    report("AC1", rec.passes["AC1"],
           f"|sum - 0.98079| = {rec.metrics['abs_error_vs_0.98079']:.2e} <= 0.01, "
           f"{rec.metrics['elapsed_s']:.1f}s < 60s")
    assert rec.passes["AC1"]


def test_ac2_euler_product_identity(cfg_factory):
    rec = run(cfg_factory("mollifier_suite", n_configs=100))
    report("AC2", rec.passes["AC2"],
           f"max residual {rec.metrics['euler_product_max_residual']:.2e} <= 1e-10 "
           f"on 100 random (tau, range) configurations")
    assert rec.passes["AC2"]


def test_ac3_fourth_moment_identities(cfg_factory):
    rec = run(cfg_factory("fourth_moment_suite"))
    report("AC3", rec.passes["AC3"],
           f"vanishing {rec.metrics['vanishing_worst']:.1e} <= 1e-10, "
           f"newton {rec.metrics['newton_worst']:.1e} <= 1e-12, "
           f"b-identity {rec.metrics['b_identity_worst']:.1e} <= 1e-12, "
           f"series-vs-closed {rec.metrics['series_vs_closed_worst']:.1e} <= 1e-8, "
           f"{rec.metrics['elapsed_s']:.2f}s < 10s")
    assert rec.passes["AC3"]


def test_ac4_poisson_reconstruction(cfg_factory):
    rec = run(cfg_factory("poisson_suite", n_polys=100))
    report("AC4", rec.passes["AC4"],
           f"max relative error {rec.metrics['max_relative_error']:.2e} <= 1e-9 "
           f"over 100 polynomials, {rec.metrics['elapsed_s']:.1f}s < 60s")
    assert rec.passes["AC4"]


def test_ac5_smoothing_suite(cfg_factory):
    rec = run(cfg_factory("smoothing_suite"))
    worst_range = max(rec.metrics[f"d{d}_range_violation"] for d in (3, 5, 8))
    worst_support = max(rec.metrics[f"d{d}_support_mass"] for d in (3, 5, 8))
    worst_l1 = max(rec.metrics[f"d{d}_l1_ghat_over_bound"] for d in (3, 5, 8))
    worst_frac = min(rec.metrics[f"d{d}_sandwich_fraction"] for d in (3, 5, 8))
    report("AC5", rec.passes["AC5"],
           f"range viol {worst_range:.1e} <= 1e-9, support mass {worst_support:.1e} <= 1e-8, "
           f"sandwich fraction {worst_frac:.3f} = 1, l1-ratio {worst_l1:.1e} <= 1")
    assert rec.passes["AC5"]


def test_ac6_ballot_engine(cfg_factory):
    rec = run(cfg_factory("ballot_sweep", n_random_configs=20, mc_paths=60_000))
    report("AC6", rec.passes["AC6"],
           f"DP-vs-MC worst {rec.metrics['mc_dp_worst_sigma']:.2f} sigma <= 3, "
           f"constant barrier {rec.metrics['constant_barrier_dp']:.4f} vs 0.30232 "
           f"(+-0.02), sweep ratio <= {rec.metrics['sweep_max_ratio']:.3f}, "
           f"{rec.metrics['elapsed_s']:.0f}s < 300s")
    assert rec.passes["AC6"]


def test_ac7_gaussian_moments(cfg_factory):
    rec = run(cfg_factory("moments_model", n_samples=1_000_000))
    ratios = [rec.metrics[f"moment_ratio_q{q}"] for q in (1, 2, 3)]
    report("AC7", rec.passes["AC7"],
           "ratios " + ", ".join(f"{r:.3f}" for r in ratios)
           + f" in [0.8, 1.25] at M=1e6, {rec.metrics['elapsed_s']:.0f}s < 600s")
    assert rec.passes["AC7"]


def test_ac8_berry_esseen(cfg_factory):
    rec = run(cfg_factory("berry_esseen", n_samples=1_000_000))
    report("AC8", rec.passes["AC8"],
           f"sup-interval distance {rec.metrics['sup_distance']:.4f} <= 0.01 at M=1e6")
    assert rec.passes["AC8"]


def test_ac9_saddle_density(cfg_factory):
    rec = run(cfg_factory("density_check", n_samples=1_000_000))
    report("AC9", rec.passes["AC9"],
           f"bin ratios in [{rec.metrics['ratio_min']:.3f}, {rec.metrics['ratio_max']:.3f}] "
           f"subset of [0.2, 5] over |v| <= 2 sqrt(r), r = 2.9")
    assert rec.passes["AC9"]


def test_ac10_zeta_evaluation(cfg_factory):
    rec = run(cfg_factory("moments_zeta"))
    report("AC10", rec.passes["AC10"],
           f"|zeta| at near-zero {rec.metrics['first_zero_abs']:.1e} <= 1e-4, "
           f"method gap {rec.metrics['rs_vs_em_worst']:.1e} <= 1e-6 on 200 points, "
           f"second moment / log T = {rec.metrics['second_moment_over_logT']:.3f} "
           f"in [0.7, 1.4], {rec.metrics['elapsed_s']:.0f}s < 600s")
    assert rec.passes["AC10"]


def test_ac11_surrogate_tail(cfg_factory):
    rec = run(cfg_factory("tail_surrogate"))
    report("AC11", rec.passes["AC11"],
           f"median {rec.metrics['median_centered_max']:+.3f} in [-1.5, 1.5], "
           f"tail slope {rec.metrics['tail_slope']:.3f} in [-2.4, -1.7], "
           f"{rec.metrics['elapsed_s']:.0f}s < 900s")
    assert rec.passes["AC11"]


VOLATILE = ("elapsed_s",)


def _stable(metrics):
    return {k: v for k, v in metrics.items() if k not in VOLATILE}


def test_ac12_reproducibility(tmp_path):
    base = dict(experiment="moments_model", seed=SEED,
                params={"n_samples": 40_000, "j": 1.0, "k": 2.0})
    rec_a = run(ExperimentConfig(out_dir=str(tmp_path / "a"), workers=1, **base))
    rec_b = run(ExperimentConfig(out_dir=str(tmp_path / "b"), workers=1, **base))
    rec_c = run(ExperimentConfig(out_dir=str(tmp_path / "c"), workers=8, **base))
    same_seed = _stable(rec_a.metrics) == _stable(rec_b.metrics)
    same_workers = _stable(rec_a.metrics) == _stable(rec_c.metrics)
    # whole CSV files agree byte for byte: timings are kept in the record only
    csv_a = (tmp_path / "a" / "moments_model_metrics.csv").read_bytes()
    csv_c = (tmp_path / "c" / "moments_model_metrics.csv").read_bytes()
    csv_match = csv_a == csv_c
    passed = same_seed and same_workers and csv_match
    report("AC12", passed,
           f"same-seed identical: {same_seed}, workers 1 vs 8 identical: {same_workers}, "
           f"csv files identical: {csv_match}")
    assert passed
