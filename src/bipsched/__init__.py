"""Makespan scheduling on parallel machines under bipartite incompatibility graphs."""

from .bipartite import (BipGraph, independent_set_containing,
                        inequitable_two_coloring, max_matching,
                        max_weight_independent_set)
from .core import (Instance, Job, MachineEnv, MachineKind, Schedule,
                   ValidationReport, machine_loads, makespan, totals,
                   unit_jobs, validate)
from .errors import (BudgetExceededError, CapacityOverflow, InfeasibleError,
                     MalformedScheduleError, NotBipartiteError,
                     SchedulingError, UnsupportedQueryError)
from .gadgets import (ForcingVerdict, GadgetKind, GadgetSpec, HardnessBuild,
                      PrecolorInstance, build_gadget, build_uniform_hardness,
                      build_unrelated_hardness, distinguishing_d,
                      verify_forcing)
from .oracle import (OracleResult, SearchBudget, exact_min_makespan,
                     exact_precolor_extension)
from .randgraph import (GilbertParams, McStats, SplitMix64, alg2_schedule,
                        alg2_schedule_with_lb, gen_gilbert, mc_stats,
                        ratio_limit, substream_seed)
from .uniform import (OptLb, list_schedule, min_time_capacity_at_least,
                      opt_lb, q2_exact_unit, sqrt_psum_schedule,
                      sqrt_psum_schedule_detailed)
from .unrelated import (CoreResult, FptasStats, ReducedR2, TwoApproxStats,
                        fptas_r2_bipartite, fptas_r2_bipartite_with_stats,
                        fptas_r2_core, reduce_components, two_approx_r2,
                        two_approx_r2_with_stats)

__version__ = "0.1.0"
