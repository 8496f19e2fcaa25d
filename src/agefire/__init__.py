"""agefire: self-organized-critical age dynamics of the mean-field forest
fire model.

Three layers:

- :mod:`agefire.measures` / :mod:`agefire.spectral` -- atomic measures on
  the age axis, the W1 metric, and the leading eigenpair of the min-kernel
  operator with its burning-rate functional and explicit bounds;
- :mod:`agefire.evolution` -- the measure-valued particle integrator for
  the critical age dynamics, gelation detection, and stability and
  Lyapunov-style experiments;
- :mod:`agefire.mfffa` -- the event-driven stochastic simulation of the
  forest fire graph with ages, used to cross-validate the deterministic
  solver.
"""

from .errors import (AccuracyError, AgefireError, DegenerateOperatorError,
                     InputError, IterationLimitError, SupercriticalError)
from .measures import (AgeMeasure, ProbabilityAgeMeasure, dirac,
                       fixed_point_measure, from_named,
                       merge_atoms, mixture, three_atom, two_atom, w1)
from .spectral import (SpectralPair, explicit_theta_bound, lambda_lower_bound,
                       lambda_upper_bounds, leading_eigenvalue, leading_pair,
                       pair_to_kinks, phi, phi_of_pair, theta_at, theta_sup,
                       theta_to_pi)
from .evolution import (EvolveOptions, EvolutionState, Trajectory,
                        check_mean_growth, check_speed_bound, gelation_time,
                        lyapunov_experiment, perturb_mass_at_zero,
                        perturb_scale, recriticalize, solve,
                        stability_experiment, step, write_trajectory)
from .mfffa import (FireGraph, SimRecord, add_edge, burn_rate_estimate,
                    cluster_sizes, empirical_age_measure, run, sample_irg,
                    strike, tail_phi_estimate, tail_phi_spread,
                    tail_phi_values, write_sim_outputs)

__version__ = "0.1.0"

# the supported surface, written out; the submodules stay importable as
# attributes (agefire.evolution, ...) but are not part of it
__all__ = [
    "AccuracyError", "AgeMeasure", "AgefireError", "DegenerateOperatorError",
    "EvolutionState", "EvolveOptions", "FireGraph", "InputError",
    "IterationLimitError", "ProbabilityAgeMeasure", "SimRecord",
    "SpectralPair", "SupercriticalError", "Trajectory", "add_edge",
    "burn_rate_estimate", "check_mean_growth", "check_speed_bound",
    "cluster_sizes", "dirac", "empirical_age_measure", "explicit_theta_bound",
    "fixed_point_measure", "from_named", "gelation_time", "lambda_lower_bound",
    "lambda_upper_bounds", "leading_eigenvalue", "leading_pair",
    "lyapunov_experiment", "merge_atoms", "mixture", "pair_to_kinks",
    "perturb_mass_at_zero", "perturb_scale", "phi", "phi_of_pair",
    "recriticalize", "run", "sample_irg", "solve", "stability_experiment",
    "step", "strike", "tail_phi_estimate", "tail_phi_spread",
    "tail_phi_values", "theta_at", "theta_sup", "theta_to_pi", "three_atom",
    "two_atom", "w1", "write_sim_outputs", "write_trajectory",
]
