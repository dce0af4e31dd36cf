"""The benchmark's workloads: suite sequences with counts scaled down from the
acceptance-gate sizes (tests/test_acceptance.py keeps the gate sizes).

Every suite runs through `zetalab.experiments.run` with the CLI's default
`workers`, so a change to that default shows in the timings.
"""

WORKLOADS = {
    # window-sum sampler (~975 exact primes in (2, 2.9]) and the depth-14
    # hierarchical surrogate; the 7.8e7 sieve is requested three times
    "model_mc": (
        ("moments_model", {"n_samples": 10_000}),
        ("berry_esseen", {"n_samples": 10_000}),
        ("density_check", {"n_samples": 10_000}),
        ("tail_surrogate", {"depth": 12, "runs": 64, "slope_runs": 512}),
    ),
    # Riemann-Siegel at t in [1e6, 2e8] and Euler-Maclaurin cross-checks at t <= 1e4
    "zeta_grid": (
        ("moments_zeta", {"n_samples": 12_000, "n_cross": 1_000, "big_t": 1e7}),
        ("tail_zeta", {"big_t": 1e8, "n_taus": 144}),
    ),
    # bridge-survival DP, smoothing transforms, the Dirichlet n^{-s} kernel,
    # the 1e8 sieve, and the small exact-identity suites
    "exact_checks": (
        ("mertens", {}),
        ("mollifier_suite", {"n_configs": 100}),
        ("fourth_moment_suite", {}),
        ("poisson_suite", {"n_polys": 20}),
        ("smoothing_suite", {"n_samples": 20_000}),
        ("ballot_sweep", {"n_random_configs": 4, "mc_paths": 20_000}),
    ),
}

# criteria calibrated at gate sizes: reported at benchmark sizes, never gated
SIZE_DEPENDENT = frozenset({"AC7", "AC8", "AC9", "AC11"})
