"""Numerical laboratory for extreme values of zeta on the critical line."""

from .primes import PrimeTable, cached_sieve, loglog, mertens_sum, primes_in_log_range, sieve_primes
from .walk import euler_product_check, higher_order_tail, partial_sum
from .mollifier import evaluate_poly, mollifier_approx_check, mollifier_coeffs
from .zeta import (max_on_grid, moment_estimate, relative_gap, zeta_critical,
                   zeta_euler_maclaurin, zeta_riemann_siegel)
from .model import (centering, density_check, increment_gaussianity, laplace_check,
                    sample_hierarchical_maxima, sample_window_sums)
from .barrier import (BarrierProfile, ballot_bound, bridge_survival_dp, bridge_survival_mc,
                      upper_barrier)
from .smoothing import (BandlimitedBump, SmoothingFunction, TruncatedExpansion,
                        dirichlet_value, indicator_sandwich_check, make_bump, make_expansion,
                        make_ingham, poisson_reconstruct)
from .local_factors import (ShiftVector, ZERO_SHIFT, b_closed, b_series, b_zero,
                            local_factor, sigma_zw)
from .experiments import ExperimentConfig, ResultRecord, REGISTRY, run, seed_stream

__all__ = [name for name in dir() if not name.startswith("_")]
