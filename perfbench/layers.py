"""Which public functions are traced, the counters their calls feed, and the
per-layer metrics derived from the spans.

Layers are the package's modules.  Every traced function yields
`<module>.<function>.calls` and `<module>.<function>.self_s`; the extra metrics
below are named in `EXTRA_METRICS` with their units.
"""

from __future__ import annotations

import math

import numpy as np

# module -> functions (``Class.method`` for methods) whose calls become spans
TRACED = {
    "primes": ("sieve_primes", "cached_sieve"),
    "zeta": ("zeta_critical", "zeta_riemann_siegel", "zeta_euler_maclaurin",
             "max_on_grid", "moment_estimate"),
    "model": ("sample_window_sums", "sample_hierarchical_maxima", "laplace_check",
              "increment_gaussianity", "density_check"),
    "barrier": ("bridge_survival_dp", "bridge_survival_mc"),
    "smoothing": ("make_bump", "BandlimitedBump.value", "BandlimitedBump.l1_transform",
                  "SmoothingFunction.cdf", "SmoothingFunction.fhat", "make_expansion",
                  "indicator_sandwich_check", "dirichlet_value", "poisson_reconstruct"),
    "walk": ("euler_product_check",),
    "mollifier": ("mollifier_approx_check",),
    "local_factors": ("b_series", "b_closed", "local_factor"),
    "experiments": ("parallel_chunks", "write_metrics_csv", "ResultRecord.save"),
}

# names bound by ``from .module import name`` elsewhere: (module, function, importer)
ALIASES = (("primes", "cached_sieve", "experiments"),)

EXTRA_METRICS = {
    "primes.cache_hit_ratio": ("1", "higher"),
    "primes.primes_sieved": ("count", "lower"),
    "zeta.zeta_critical.p50_us": ("us", "lower"),
    "zeta.zeta_critical.p99_us": ("us", "lower"),
    "zeta.main_sum_terms": ("count", "lower"),
    "zeta.ns_per_term": ("ns", "lower"),
    "zeta.oracle_rel_gap_max": ("1", "lower"),
    "zeta.rs_vs_em_gap_max": ("1", "lower"),
    "model.window_prime_draws": ("count", "lower"),
    "model.ns_per_prime_draw": ("ns", "lower"),
    "model.surrogate_normal_draws": ("count", "lower"),
    "model.ns_per_normal_draw": ("ns", "lower"),
    "barrier.dp_steps": ("count", "lower"),
    "barrier.us_per_dp_step": ("us", "lower"),
    "barrier.mc_path_steps": ("count", "lower"),
    "barrier.ns_per_mc_path_step": ("ns", "lower"),
    "smoothing.dirichlet_terms": ("count", "lower"),
    "experiments.harness_self_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}

# counters that must repeat exactly between runs with the same inputs
EXACT_COUNTERS = ("primes.primes_sieved", "zeta.main_sum_terms", "model.window_prime_draws",
                  "model.surrogate_normal_draws", "barrier.dp_steps",
                  "barrier.mc_path_steps", "smoothing.dirichlet_terms")

ORACLE_SAMPLE = 24   # zeta heights re-evaluated with mpmath per traced run


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


# -- counter hooks: (tracer, arguments, result) ---------------------------------

def _rs_terms(tracer, a, result):
    tracer.add("zeta.main_sum_terms", math.floor(math.sqrt(float(a["t"]) / (2.0 * math.pi))))


def _em_terms(tracer, a, result):
    s = complex(a["s"])
    tracer.add("zeta.main_sum_terms", a["cutoff"] or max(32, int(0.5 * abs(s.imag)) + 16))


def _zeta_value(tracer, a, result):
    tracer.sample("zeta_critical", (float(a["t"]), complex(result)))


def _window_draws(tracer, a, result):
    tracer.add("model.window_prime_draws", int(a["n_samples"]) * result[1].n_exact)


def _make_surrogate_hook(model):
    def hook(tracer, a, result):
        size, level_sum = 1, 0
        for c in model.branching_pattern(int(a["depth"]), a["b"]):
            size *= c
            level_sum += size
        tracer.add("model.surrogate_normal_draws", int(a["runs"]) * level_sum)
    return hook


def _dp_steps(tracer, a, result):
    tracer.add("barrier.dp_steps", int(a["k"]))


def _mc_steps(tracer, a, result):
    tracer.add("barrier.mc_path_steps", int(a["n_paths"]) * int(a["k"]))


def _dirichlet_terms(tracer, a, result):
    tracer.add("smoothing.dirichlet_terms", len(a["coeffs"]) * np.atleast_1d(a["h"]).size)


def _sieved(tracer, a, result):
    tracer.add("primes.primes_sieved", len(result.primes))


def hooks(modules) -> dict[str, object]:
    return {
        "primes.sieve_primes": _sieved,
        "zeta.zeta_critical": _zeta_value,
        "zeta.zeta_riemann_siegel": _rs_terms,
        "zeta.zeta_euler_maclaurin": _em_terms,
        "model.sample_window_sums": _window_draws,
        "model.sample_hierarchical_maxima": _make_surrogate_hook(modules["model"]),
        "barrier.bridge_survival_dp": _dp_steps,
        "barrier.bridge_survival_mc": _mc_steps,
        "smoothing.dirichlet_value": _dirichlet_terms,
    }


def install(tracer, modules) -> None:
    """Patch every traced function in `modules` (name -> imported module)."""
    hook_for = hooks(modules)
    for mod, fns in TRACED.items():
        for fn in fns:
            owner, attr = modules[mod], fn
            if "." in fn:
                cls, attr = fn.split(".")
                owner = getattr(owner, cls)
            aliases = tuple((modules[importer], attr) for m, f, importer in ALIASES
                            if m == mod and f == fn)
            tracer.patch(owner, attr, f"{mod}.{fn}", hook_for.get(f"{mod}.{fn}"), aliases)


# -- derived metrics ----------------------------------------------------------

def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tracer, suite_names) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in seconds unless named)."""
    rows = tracer.by_name()
    out: dict[str, float] = {}
    for name in span_names():
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    counts = {k: tracer.counts.get(k, 0) for k in EXACT_COUNTERS}
    out.update(counts)

    sieving = {s.parent for s in tracer.spans if s.name == "primes.sieve_primes"}
    cached = [s for s in tracer.spans if s.name == "primes.cached_sieve"]
    out["primes.cache_hit_ratio"] = _ratio(sum(s.sid not in sieving for s in cached),
                                           len(cached))

    durs = rows.get("zeta.zeta_critical", {}).get("durations_s", [])
    p50, p99 = np.percentile(durs, [50, 99]) if durs else (0.0, 0.0)
    out["zeta.zeta_critical.p50_us"] = float(p50) * 1e6
    out["zeta.zeta_critical.p99_us"] = float(p99) * 1e6
    kernel_s = out["zeta.zeta_riemann_siegel.self_s"] + out["zeta.zeta_euler_maclaurin.self_s"]
    out["zeta.ns_per_term"] = _ratio(kernel_s, counts["zeta.main_sum_terms"], 1e9)
    out["model.ns_per_prime_draw"] = _ratio(out["model.sample_window_sums.self_s"],
                                            counts["model.window_prime_draws"], 1e9)
    out["model.ns_per_normal_draw"] = _ratio(out["model.sample_hierarchical_maxima.self_s"],
                                             counts["model.surrogate_normal_draws"], 1e9)
    out["barrier.us_per_dp_step"] = _ratio(out["barrier.bridge_survival_dp.self_s"],
                                           counts["barrier.dp_steps"], 1e6)
    out["barrier.ns_per_mc_path_step"] = _ratio(out["barrier.bridge_survival_mc.self_s"],
                                                counts["barrier.mc_path_steps"], 1e9)
    out["experiments.harness_self_s"] = sum(rows.get(f"suite.{s}", {"self_s": 0.0})["self_s"]
                                            for s in suite_names)
    return out


def oracle_gap(samples, relative_gap) -> float:
    """Worst relative gap of recorded zeta values to mpmath, on an evenly spaced
    fixed-size subset of the recorded calls."""
    if not samples:
        return 0.0
    import mpmath
    idx = np.unique(np.linspace(0, len(samples) - 1, min(ORACLE_SAMPLE, len(samples))).astype(int))
    worst = 0.0
    with mpmath.workdps(25):
        for i in idx:
            t, value = samples[i]
            ref = complex(mpmath.zeta(mpmath.mpc(0.5, t)))
            worst = max(worst, relative_gap(value, ref))
    return worst
