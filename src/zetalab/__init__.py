"""Numerical laboratory for extreme values of zeta on the critical line."""

from .primes import (LadderParams, PrimeTable, ScaleLadder, cached_sieve, loglog,
                     mertens_sum, primes_in_log_range, scale_ladder_from_loglog,
                     sieve_primes)
from .walk import (MultiscaleWalk, WalkConfig, euler_product_check, evaluate_on_grid,
                   higher_order_tail, partial_sum)
from .mollifier import (MollifierSpec, SparsePoly, evaluate_poly, mollifier_approx_check,
                        mollifier_coeffs)
from .zeta import (max_on_grid, moment_estimate, relative_gap, zeta_critical,
                   zeta_euler_maclaurin, zeta_riemann_siegel)
from .model import (HierarchicalField, RandomEulerPath, centering,
                    density_check, increment_gaussianity, laplace_check,
                    make_hierarchical, sample_euler_path,
                    sample_hierarchical_maxima, sample_window_sums)
from .barrier import (BarrierProfile, EventFlags, ballot_bound, bridge_survival_dp,
                      bridge_survival_mc, event_flags, lower_barrier, upper_barrier)
from .smoothing import (BandlimitedBump, SmoothingFunction, TruncatedExpansion,
                        dirichlet_value, discretized_max_bound, indicator_sandwich_check,
                        make_bump, make_expansion, make_ingham, make_window,
                        poisson_reconstruct)
from .local_factors import (ShiftVector, ZERO_SHIFT, b_closed, b_series, b_zero,
                            local_factor, sigma_zw)
from .experiments import ExperimentConfig, ResultRecord, REGISTRY, run, seed_stream

__all__ = [name for name in dir() if not name.startswith("_")]
