"""Efficiency-optimal stationary policy synthesis for labeled MDPs under
omega-regular tasks given as deterministic Rabin automata."""

__version__ = "0.1.0"

from .model import (Dra, Mc, Mdp, ProductMdp, UtilityFn, Violation, blend,
                    build_product, induce_chain, lift_utilities,
                    policy_domain, policy_from_rule, rabin_witness,
                    uniform_policy, validate_mdp)
from .graph import (almost_sure_region, amec_filter, attractor_policy,
                    closed_pairs, is_communicating, maec_decompose,
                    mec_decompose, restrict)
from .chain import (Certificate, ChainAnalysis, analyze, average_utility,
                    certify, efficiency, limit_distribution,
                    potential_vector, ratio_deviation,
                    ratio_perturbation_identity_check, utility_vector)
from .lp import (AvgLpSolution, LfpSolution, LpProblem, LpResult,
                 decode_avg_policy, decode_ratio_policy, solve_avg_reward_lp,
                 solve_lp, solve_ratio_lfp)
from .synthesis import (PerturbationPlan, SynthesisReport, Tolerances,
                        build_reward_k, perturbation_degree_estimated,
                        perturbation_degree_exact, synth_general)
from .sim import RolloutConfig, RolloutStats, simulate
