"""Tests of the benchmark's own tracer: results unchanged, time fully
attributed, operation counts repeatable."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import layers  # noqa: E402
from tracer import Span, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = {name: importlib.import_module(f"zetalab.{name}") for name in layers.TRACED}

# small suites that reach the zeta, sampler and harness layers in about a second
TINY = (
    ("moments_zeta", {"n_samples": 50, "n_cross": 20, "big_t": 1e5}),
    ("tail_zeta", {"big_t": 1e5, "n_taus": 4}),
    ("berry_esseen", {"n_samples": 10_000, "k": 2.0}),
    ("fourth_moment_suite", {}),
)


def traced_run(out_dir):
    tracer = Tracer()
    layers.install(tracer, MODULES)
    try:
        rows, wall = child.run_suites(MODULES["experiments"], TINY, 3, str(out_dir), tracer)
        with tracer.span("suite.direct"):
            MODULES["barrier"].bridge_survival_dp(12, 0.0, lambda j: 2.0)
    finally:
        tracer.unpatch()
    return tracer, rows, wall


def calls_of_interest():
    zt, md, bar, sm, pr = (MODULES[m] for m in ("zeta", "model", "barrier", "smoothing", "primes"))
    table = pr.sieve_primes(20_000)
    return [
        lambda: zt.zeta_critical(1234.5),
        lambda: zt.zeta_critical(20.25),
        lambda: zt.max_on_grid(1e5, np.linspace(-1.0, 1.0, 7)),
        lambda: pr.sieve_primes(30_000).primes,
        lambda: md.sample_window_sums(np.random.default_rng(5), table, 1.0, 2.0, 300)[0],
        lambda: md.sample_hierarchical_maxima(np.random.default_rng(5), 6, np.e, 3),
        lambda: bar.bridge_survival_dp(8, 0.0, lambda j: 1.5).joint,
        lambda: sm.dirichlet_value(np.arange(1.0, 40.0), 1e4, [0.0, 0.5]),
        lambda: sm.make_bump(3.0, 3.0).value(np.linspace(-0.2, 0.5, 9)),
    ]


def test_wrapped_functions_return_exactly_the_same():
    plain = [f() for f in calls_of_interest()]
    originals = {mod: dict(vars(MODULES[mod])) for mod in layers.TRACED}
    tracer = Tracer()
    layers.install(tracer, MODULES)
    try:
        traced = [f() for f in calls_of_interest()]
    finally:
        tracer.unpatch()
    for a, b in zip(plain, traced):
        assert np.array_equal(np.asarray(a), np.asarray(b))
    assert tracer.spans, "no span was recorded"
    for mod, attrs in originals.items():   # unpatch restores every binding
        for name, value in vars(MODULES[mod]).items():
            if name in attrs:
                assert value is attrs[name]
    assert MODULES["experiments"].cached_sieve is MODULES["primes"].cached_sieve


def test_patching_a_stale_alias_is_refused():
    zt, md = MODULES["zeta"], MODULES["model"]
    original = zt.relative_gap
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        tracer.patch(zt, "relative_gap", "zeta.relative_gap", aliases=((md, "centering"),))
    assert zt.relative_gap is original


def test_self_times_and_harness_add_up_to_suite_wall(tmp_path):
    tracer, rows, wall = traced_run(tmp_path)
    assert all(row["error"] is None for row in rows)
    metrics = layers.layer_metrics(tracer, [name for name, _ in TINY] + ["direct"])
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    accounted = layer_self + metrics["experiments.harness_self_s"]
    suite_spans = sum((s.end - s.start) * 1e-9 for s in tracer.spans if s.name.startswith("suite."))
    assert accounted == pytest.approx(suite_spans, rel=1e-9, abs=1e-9)
    # the suite wall is timed around each root span: what the spans miss is
    # the span bookkeeping itself, well under a millisecond per suite
    suite_wall = sum(row["wall_s"] for row in rows)
    direct = sum((s.end - s.start) * 1e-9 for s in tracer.spans if s.name == "suite.direct")
    unaccounted = suite_wall - (accounted - direct)
    assert 0.0 <= unaccounted < 1e-3 * len(rows)
    assert metrics["zeta.zeta_riemann_siegel.calls"] > 0
    assert metrics["zeta.zeta_euler_maclaurin.calls"] > 0
    assert metrics["model.sample_window_sums.calls"] == 1
    assert metrics["barrier.bridge_survival_dp.calls"] == 1


def test_operation_counts_repeat_exactly(tmp_path):
    first, rows_a, _ = traced_run(tmp_path / "a")
    second, rows_b, _ = traced_run(tmp_path / "b")
    a = layers.layer_metrics(first, [name for name, _ in TINY])
    b = layers.layer_metrics(second, [name for name, _ in TINY])
    for key in layers.EXACT_COUNTERS:
        assert a[key] == b[key], key
    for key in a:
        if key.endswith(".calls"):
            assert a[key] == b[key], key
    for key in ("zeta.main_sum_terms", "model.window_prime_draws", "barrier.dp_steps"):
        assert a[key] > 0, key
    assert a["barrier.dp_steps"] == 12
    assert [r["stable"] for r in rows_a] == [r["stable"] for r in rows_b]


def test_self_time_subtracts_overlapping_children_once():
    tracer = Tracer()
    tracer.spans = [Span(0, None, "root", 0, 100), Span(1, 0, "a", 10, 40),
                    Span(2, 0, "b", 30, 60), Span(3, 0, "c", 90, 120)]
    selfs = tracer.self_times()
    # children cover [10, 60] and [90, 100] of the root
    assert selfs[0] == pytest.approx(40e-9)
    assert selfs[1] == pytest.approx(30e-9)


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    expected = {f"{n}.{k}" for n in layers.span_names() for k in ("calls", "self_s")}
    expected |= set(layers.EXTRA_METRICS)
    expected |= {f"suite.{s}_s" for suites in WORKLOADS.values() for s, _ in suites}
    assert declared == expected
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
