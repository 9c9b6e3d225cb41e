"""Sparse recovery toolkit for l0-regularized least squares.

The core solver follows a primal-dual active set iteration driven down a
geometric continuation path on the threshold scale, stopping by the
discrepancy principle. Around it: sensing-operator and instance generators,
greedy baselines (OMP, HTP, IHT, CoSaMP), recovery-theory certificates with
brute-force oracles, and a seeded benchmark harness.
"""

from .baselines import GreedyConfig, cosamp, htp, iht, omp
from .harness import (ConfigError, ExperimentConfig, MetricRow, abs_linf, exact_support,
                      psnr, relative_l2, run_sweep)
from .lsq import (GramCache, RestrictedLsqSolution, SingularGramError, solve_cg,
                  solve_direct)
from .operators import (CustomOperator, DenseOperator, PartialDctOperator,
                        SensingOperator, gen_bernoulli_operator, gen_gaussian_operator,
                        gen_partial_dct_operator)
from .pdasc import (CAP_HIT, CONVERGED, FIXED_POINT, GRID_EXHAUSTED, SINGULAR_GRAM_ABORT,
                    InnerResult, LambdaRecord, SolveReport, SolverConfig, SolverState,
                    check_coordinatewise_min, continuation_grid, hard_threshold,
                    objective, pdas_inner, pdasc)
from .problem import ProblemInstance, SparseSignal, gen_sparse_signal, synthesize_instance
from .theory import (BoundCheck, BoundReport, CapacityError, LevelSet, TheoryCertificate,
                     bruteforce_l0_min, certify, check_onestep_bounds_mip,
                     check_onestep_bounds_rip, level_set, mutual_coherence,
                     oracle_solution, rip_constant_bruteforce, xi_interval_mip,
                     xi_interval_rip)

__version__ = "0.1.0"
