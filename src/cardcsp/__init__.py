"""Approximation toolkit for constraint problems with global cardinality
constraints: moment relaxations, a bundled first-order SDP solver,
mutual-information conditioning, bias-preserving Gaussian rounding with
balance repair, worst-case ratio certificates, and dictatorship-test
gadgets."""

from .errors import (CapacityError, CardCspError, InconsistentSolutionError,
                     NumericalError, ParseError)
from .instance import (CardinalityFunction, CspInstance, PayoffTerm,
                       bisection_cardinality, cut_instance, generate,
                       load_edge_list, max2sat_instance)
from .lasserre import (ConicProgram, MomentSolution, build_relaxation,
                       check_feasibility, integral_lift, local_distribution,
                       solution_objective)
from .sdp_solver import SolverConfig, solve
from .independence import (alpha_independence, condition, decorrelate,
                           entropy, mutual_information)
from .rounding import (BiasProfile, RoundedAssignment, bias_decompose,
                       pipeline, separation_identity_gap)
from .landscape import bvn_cdf, ratio_search, sqrt_eps_curve, worst_separation
from .dictator import (DictGadget, build_gadget, completeness, dict_value,
                       influence, round_with_function, soundness_enumerate)
from .oracle import brute_force, exact_mixture_moments, mc_bvn
from .suite import default_suite, run_bench

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "CardCspError", "InconsistentSolutionError",
    "NumericalError", "ParseError",
    "CardinalityFunction", "CspInstance", "PayoffTerm",
    "bisection_cardinality", "cut_instance", "generate", "load_edge_list",
    "max2sat_instance",
    "ConicProgram", "MomentSolution", "build_relaxation", "check_feasibility",
    "integral_lift", "local_distribution", "solution_objective",
    "SolverConfig", "solve",
    "alpha_independence", "condition", "decorrelate", "entropy",
    "mutual_information",
    "BiasProfile", "RoundedAssignment", "bias_decompose", "pipeline",
    "separation_identity_gap",
    "bvn_cdf", "ratio_search", "sqrt_eps_curve", "worst_separation",
    "DictGadget", "build_gadget", "completeness", "dict_value", "influence",
    "round_with_function", "soundness_enumerate",
    "brute_force", "exact_mixture_moments", "mc_bvn",
    "default_suite", "run_bench",
    "__version__",
]
