"""Efficiency-optimal stationary policy synthesis for labeled MDPs under
omega-regular tasks given as deterministic Rabin automata."""

__version__ = "0.1.0"

from .model import (InputError, Mdp, SolverError, UtilityFn, blend,
                    build_product, lift_utilities, policy_from_entries,
                    uniform_policy)
from .graph import (almost_sure_region, amec_filter, maec_decompose,
                    mec_decompose)
from .chain import analyze, efficiency, limit_distribution
from .lp import decode_ratio_policy, solve_ratio_lfp
from .synthesis import (TaskUnsatisfiable, Tolerances,
                        perturbation_degree_estimated,
                        perturbation_degree_exact, synth_general)
from .sim import RolloutConfig, simulate
