"""hcplab: simulator and exact analytic engine for hierarchical coalescence.

Domains merge with their neighbors while their length lies in an
epoch-dependent activity range; each epoch runs to its absorbing state and
hands its final configuration to the next.  The package simulates this
process from renewal initial conditions and independently computes the
interval-law recursion, survival probabilities, first-point laws, and the
universal limit distributions, so the two routes can cross-validate each
other at every step.
"""

__version__ = "0.1.0"

from .laws import (AtomicLaw, DiracLaw, ExpGeometricLaw, GeometricLaw,
                   ParetoHalfLaw, SamplingContractError, two_point_law)
from .measures import (AtomicMeasure, MeasureError, convolve, dirac,
                       epoch_pushforward, iterate_hcp_measures,
                       survival_probability_exact)
from .transport import (C0Estimate, TransportRangeError, c0_estimate,
                        deconvolve_m, default_c0_grid, figb_ratios,
                        reassemble_z_law, u1_on_lattice, u1_reader,
                        un_transport)
from .limits import (EULER_GAMMA, ein, exp_integral,
                     first_point_limit_transform, g_infinity, limit_moment,
                     z_cdf, z_density)
from .rates import RateFamily, RateValidityError
from .epoch import Boundary, StateSpaceError
from .sampling import (ContainsOrigin, ExchangeableMixture, LatticeStationary,
                       LeftBounded, PeriodicRenewal, RenewalSpec, Stationary,
                       replica_rng)
from .schedule import (ArithmeticThresholds, EpochSchedule, ExplicitThresholds,
                       GeometricThresholds, ScheduleError, east_schedule)
from .hcp import (EpochSummary, WindowExhaustedError, WindowPolicy,
                  WindowTooLargeError, replicate, run_hcp)
from .stats import (Chi2Result, KsResult, exchangeable_identity_check,
                    independence_test, ks_test, ks_test_discrete,
                    ks_two_sample)
